"""Reading ``.rs3`` treebanks; reading and writing the canonical format.

The ``.rs3`` XML schema encodes an RST analysis as a flat list of nodes:
``<segment>`` elements are EDUs and ``<group>`` elements are either ``span``
nodes (a nucleus wrapped together with its satellites) or ``multinuc`` nodes.
A child's ``relname`` decides how it attaches to its parent:

* ``relname="span"``        -- the child is the nucleus of a span group;
* a multinuc-typed relname  -- the child is one nucleus of a multinuc group;
* an rst-typed relname      -- the child is a satellite of the parent node.

Under-annotated files contain several disconnected trees; parsing yields the
whole forest, ordered by first segment position, as binary
:class:`~rstkit.core.RstTree` trees: a multinuclear group with k nuclei is
read as a right-branching cascade of k-1 nodes with the same NN label.

The canonical corpus format is UTF-8 JSON-lines, one document per line with
the fixed fields ``id, genre, lang, tokens, edus, tree, sents, split``;
``tokens`` is a list of ``[text, char_start]`` pairs, and ``tree`` a
bracketed string ``(rel_NUC left right)`` with ``#k`` leaves.

All operations are pure functions; files can be processed in parallel.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, starmap
from operator import length_hint
from typing import NamedTuple, Union
from unicodedata import category

from .core import (
    DocumentRecord,
    EduSpan,
    JSON_TYPES,
    InputLines,
    RelationLabel,
    RstError,
    RstTree,
    SchemaViolation,  # raised by the readers here, and caught under this name
    Split,
    _INTERN_LIMIT,
    _INTERNED,
    check_sentence_starts,
    excerpt,
)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

def tokenize(text: str) -> list[tuple[str, int]]:
    """Deterministic whitespace-plus-punctuation tokenizer.

    Returns ``(text, char_start)`` pairs.

    Rules, applied identically to every language (Unicode-aware):

    1. split on Unicode whitespace, where ``str.isspace()`` holds (``\\s``);
    2. peel leading punctuation/symbol characters off each chunk, one
       character per token;
    3. peel trailing punctuation/symbol characters the same way;
    4. whatever remains in the middle is a single token (internal hyphens
       and apostrophes are never split).
    """
    tokens: list[tuple[str, int]] = []
    end = 0
    for chunk in text.split():
        start = text.find(chunk, end)  # from end, only whitespace precedes it
        end = start + len(chunk)
        # Most chunks are whole tokens: no alphanumeric character is in a
        # P* or S* category, so alphanumeric ends are never peeled.
        if chunk.isalnum() or len(chunk) == 1 or (
                chunk[0].isalnum() and chunk[-1].isalnum()):
            tokens.append((chunk, start))
            continue
        lo, hi = 0, len(chunk)  # peel punctuation (P*) and symbols (S*)
        while hi - lo > 1 and category(chunk[lo])[0] in "PS":
            tokens.append((chunk[lo], start + lo))
            lo += 1
        tail: list[tuple[str, int]] = []
        while hi - lo > 1 and category(chunk[hi - 1])[0] in "PS":
            hi -= 1
            tail.append((chunk[hi], start + hi))
        tokens.append((chunk[lo:hi], start + lo))
        tokens += tail[::-1]
    return tokens


# ---------------------------------------------------------------------------
# rs3 parsing
# ---------------------------------------------------------------------------


# The rs3 node table is made of named tuples: immutable, and built per node
# by tuple.__new__ in parse_rs3 (their generated __new__ without its frame).
_tuple_new = tuple.__new__


class Rs3Relation(NamedTuple):
    name: str
    kind: str  # "rst" | "multinuc"


class Rs3Segment(NamedTuple):
    node_id: str
    parent_id: str | None
    relname: str | None
    text: str


class Rs3Group(NamedTuple):
    node_id: str
    kind: str  # "span" | "multinuc"
    parent_id: str | None
    relname: str | None


class Rs3Document(NamedTuple):
    """The raw node table of one ``.rs3`` file, order-preserving."""

    relations: tuple[Rs3Relation, ...]
    segments: tuple[Rs3Segment, ...]
    groups: tuple[Rs3Group, ...]


def parse_rs3(data: bytes) -> Rs3Document:
    """Parse rs3 file bytes into the raw node table.

    Raises RstError for XML that is malformed or not UTF-8, a dangling
    parent id, an undeclared relname or an empty segment.  A BOM is
    stripped.
    """
    import xml.etree.ElementTree as ET  # here: canonical-only commands skip it

    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RstError(f"input is not UTF-8: {exc}") from None
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise RstError(str(exc)) from None

    relations = []
    for rel in root.iter("rel"):
        name = (rel.get("name") or "").strip().lower()
        kind = (rel.get("type") or "").strip().lower()
        if not name or kind not in ("rst", "multinuc"):
            raise RstError(f"bad relation entry name={name!r} type={kind!r}")
        relations.append(Rs3Relation(name, kind))

    segments = []
    groups = []
    seen_ids: set[str] = set()
    for elem in root.iter():
        if elem.tag not in ("segment", "group"):
            continue
        node_id = (elem.get("id") or "").strip()
        if not node_id:
            raise RstError(f"<{elem.tag}> without id")
        if node_id in seen_ids:
            raise RstError(f"duplicate node id {node_id!r}")
        seen_ids.add(node_id)
        parent = elem.get("parent")
        parent = parent.strip() if parent is not None else None
        relname = elem.get("relname")
        relname = relname.strip().lower() if relname is not None else None
        if elem.tag == "segment":
            seg_text = " ".join((elem.text or "").split())
            if not seg_text:
                raise RstError(f"segment {node_id} has no text")
            segments.append(_tuple_new(Rs3Segment, (node_id, parent, relname, seg_text)))
        else:
            kind = (elem.get("type") or "").strip().lower()
            if kind not in ("span", "multinuc"):
                raise RstError(f"group {node_id} has bad type {kind!r}")
            groups.append(_tuple_new(Rs3Group, (node_id, kind, parent, relname)))

    doc = Rs3Document(tuple(relations), tuple(segments), tuple(groups))
    _validate_rs3(doc, seen_ids)
    return doc


def _validate_rs3(doc: Rs3Document, ids: set[str]) -> None:
    """Every parent is a node of ``ids``, and every relname but ``span``
    is in the relations table."""
    known_relnames = {rel.name for rel in doc.relations}
    nodes: list[Union[Rs3Segment, Rs3Group]] = [*doc.segments, *doc.groups]
    for node in nodes:
        if node.parent_id is not None and node.parent_id not in ids:
            raise RstError(f"node {node.node_id} has missing parent {node.parent_id}")
        if node.relname is not None and node.relname != "span":
            if node.relname not in known_relnames:
                raise RstError(
                    f"node {node.node_id} uses unknown relation {node.relname!r}"
                )


# ---------------------------------------------------------------------------
# Forest extraction: rs3 node table -> binary constituent trees
# ---------------------------------------------------------------------------


class Rs3Component(NamedTuple):
    """One connected tree of an rs3 forest, with its EDU texts."""

    tree: RstTree
    edu_texts: tuple[str, ...]


def extract_forest(doc: Rs3Document) -> list[Rs3Component]:
    """Resolve the rs3 node table into its connected constituent trees.

    Components are ordered by the document position of their first segment.
    Satellites attach nearest-first; when a nucleus has pending satellites
    on both sides, the right one is folded first (innermost).

    One pass over the nodes files each child under its parent, in document
    order, as a nucleus or a satellite: ``relname="span"`` (or none) makes
    it the nucleus of a segment or span group, a relation with a
    ``multinuc`` entry one nucleus of a multinuc group, and any other
    relation a satellite.  A child of a multinuc group with ``span`` or no
    relname is neither, and raises RstError naming both nodes.  Each
    node is then built once, after its children.  Node ids are unique, as
    :func:`parse_rs3` checks.
    """
    multinuc = {rel.name for rel in doc.relations if rel.kind == "multinuc"}
    multinuc_groups = {g.node_id for g in doc.groups if g.kind == "multinuc"}
    nodes: dict[str, Union[Rs3Segment, Rs3Group]] = {}
    for seg in doc.segments:
        nodes[seg.node_id] = seg
    for group in doc.groups:
        nodes[group.node_id] = group

    children: dict[str, list[str]] = {nid: [] for nid in nodes}
    nuclei: defaultdict[str, list[str]] = defaultdict(list)
    satellites: defaultdict[str, list[str]] = defaultdict(list)
    strays: dict[str, str] = {}  # multinuc group -> error for its first span child
    roots: list[str] = []
    for nid, node in nodes.items():
        pid = node.parent_id
        if pid is None:
            roots.append(nid)
            continue
        children[pid].append(nid)
        relname = node.relname
        if relname is None or relname == "span":
            if pid in multinuc_groups:  # raised once the group is built
                has = "no relname" if relname is None else "relname 'span'"
                strays.setdefault(pid, f"multinuc group {pid}: child {nid} has {has}")
            else:
                nuclei[pid].append(nid)
        elif relname in multinuc and pid in multinuc_groups:
            nuclei[pid].append(nid)
        else:
            satellites[pid].append(nid)

    # A walk down from each root lists its tree's nodes, parents before
    # children; a node that no walk reaches hangs off a parent cycle.
    component: dict[str, str] = {}
    walks: dict[str, list[str]] = {}
    for root in roots:
        stack = [root]
        walk = walks[root] = []
        while stack:
            nid = stack.pop()
            walk.append(nid)
            component[nid] = root
            stack += children[nid]
    if len(component) < len(nodes):
        nid = next(nid for nid in nodes if nid not in component)
        raise RstError(f"parent cycle involving node {nid}")

    # Each component's segments in text order (its EDUs 0, 1, ...), keyed
    # by its root, components in the order of their first segments; one
    # without segments is skipped.
    by_component: dict[str, list[str]] = {}
    for seg in doc.segments:
        by_component.setdefault(component[seg.node_id], []).append(seg.node_id)

    results = []
    for root, seg_ids in by_component.items():
        edu_index = {sid: i for i, sid in enumerate(seg_ids)}
        resolved: dict[str, RstTree] = {}
        for nid in reversed(walks[root]):  # children before parents
            node = nodes[nid]
            nucs = nuclei.get(nid, ())
            if type(node) is Rs3Segment:
                if nucs:
                    raise RstError(f"segment {nid} has span/multinuc children")
                base = RstTree.leaf(edu_index[nid])
            elif node.kind == "span":
                if len(nucs) != 1:
                    raise RstError(f"span group {nid} has {len(nucs)} span children")
                base = resolved[nucs[0]]
            else:  # multinuc group
                if nid in strays:
                    raise RstError(strays[nid])
                if len(nucs) < 2:
                    raise RstError(f"multinuc group {nid} has {len(nucs)} nuclei")
                ordered = sorted(nucs, key=lambda cid: resolved[cid].first_edu)
                label = RelationLabel.from_merged(
                    f"{nodes[ordered[0]].relname or 'joint'}_NN"
                )
                # k nuclei become a right-branching cascade of k-1 NN nodes
                base = resolved[ordered[-1]]
                for cid in ordered[-2::-1]:
                    base = RstTree.internal(resolved[cid], base, label)
            if nid in satellites:
                base = _attach_satellites(nid, base, satellites[nid], nodes, resolved)
            resolved[nid] = base
        texts = tuple(nodes[sid].text for sid in seg_ids)  # type: ignore[union-attr]
        results.append(Rs3Component(resolved[root], texts))
    return results


def _attach_satellites(
    nid: str,
    base: RstTree,
    satellites: list[str],
    nodes: dict[str, Union[Rs3Segment, Rs3Group]],
    resolved: dict[str, RstTree],
) -> RstTree:
    """Fold satellites onto ``base``, each time the first one (in document
    order) that is adjacent on the right, else the first on the left."""
    pending = [(resolved[cid], nodes[cid].relname) for cid in satellites]
    while pending:
        for i, (sat, relname) in enumerate(pending):
            if sat.first_edu == base.last_edu + 1:
                base = RstTree.internal(base, sat, f"{relname}_NS")
                break
        else:
            for i, (sat, relname) in enumerate(pending):
                if sat.last_edu == base.first_edu - 1:
                    base = RstTree.internal(sat, base, f"{relname}_SN")
                    break
            else:
                raise RstError(
                    f"satellite of node {nid} is not adjacent to its nucleus"
                )
        del pending[i]
    return base


# ---------------------------------------------------------------------------
# Building document records from components
# ---------------------------------------------------------------------------


def component_to_record(
    component: Rs3Component,
    doc_id: str,
    genre: str = "unknown",
    lang: str = "en",
    split: Split | str = Split.TRAIN,
) -> DocumentRecord:
    """Tokenize one forest component into a document record with its tree.

    The EDU texts are joined by single spaces and tokenized in one call.
    No token crosses a space, so EDU ``k``'s tokens are those that start
    before EDU ``k + 1``'s text: a ``bisect`` on the token offsets cuts
    each EDU.
    """
    pairs = tokenize(" ".join(component.edu_texts))
    texts, starts = zip(*pairs) if pairs else ((), ())
    edus: list[EduSpan] = []
    first = end = 0
    for text in component.edu_texts:
        end += len(text) + 1  # where the next EDU's text starts
        last = bisect_left(starts, end)
        if last == first:
            raise RstError(f"{doc_id}: EDU with no tokens")
        edus.append(EduSpan(first, last - 1))
        first = last
    return DocumentRecord(
        doc_id=doc_id,
        genre=genre,
        lang=lang,
        tokens=texts,
        char_starts=starts,
        edus=tuple(edus),
        tree=component.tree,
        split=Split(split),
    )


# ---------------------------------------------------------------------------
# Bracketed tree strings
# ---------------------------------------------------------------------------

# "#k" for each k below its length; like core._LEAVES, it is only ever
# replaced by a longer tuple, never appended to.
_SPELLINGS: tuple[str, ...] = ()


def tree_to_string(tree: RstTree) -> str:
    """Render a tree as ``(rel_NUC left right)`` with ``#k`` leaves."""
    global _SPELLINGS
    spellings = _SPELLINGS
    known = len(spellings)
    if known <= min(tree.last_edu, _INTERN_LIMIT - 1):
        size = min(max(tree.last_edu + 1, 2 * known), _INTERN_LIMIT)
        spellings = _SPELLINGS = spellings + tuple(map("#{}".format, range(known, size)))
        known = size
    pieces: list[str] = []
    stack: list[RstTree | str] = [tree]
    while stack:
        node = stack.pop()
        if type(node) is str:
            pieces.append(node)
        elif node.left is None:
            k = node.first_edu
            pieces.append(spellings[k] if k < known and type(k) is int else f"#{k}")
        else:
            pieces.append("(" + node.label.merged)  # type: ignore[union-attr]
            stack += (")", node.right, node.left)  # type: ignore[arg-type]
    # Labels hold no space or parenthesis, so " )" occurs only before a close.
    return " ".join(pieces).replace(" )", ")")


# The shared leaves by their ``#k`` tokens, as a file spells a few leaves
# thousands of times; a leaf has one spelling, so the table holds at most
# one key per leaf RstTree.leaf shares.
_LEAF_TOKENS: dict[str, RstTree] = {}


def tree_from_string(text: str) -> RstTree:
    """Parse the bracketed tree format produced by :func:`tree_to_string`.

    One pass over the tokens with one stack: ``None`` marks an open
    bracket, which only a label may follow directly, then come the child
    nodes.  Each node is built by ``RstTree.internal``, which checks
    adjacency, from the label that ``core._INTERNED`` holds for its text if
    any, and each ``#k`` is the shared ``RstTree.leaf(k)``, found by its
    text in ``_LEAF_TOKENS`` once it has been seen.  A leaf token is ``#``
    and ASCII digits with no leading zero, as tree_to_string writes it.
    Tokens are brackets and the runs between brackets and whitespace (that
    of ``str.split``, the same code points as the regular expression ``\\s``).
    An error ends with the 1-based character offset of the token it showed
    at (a bad label, or children that do not meet, at the bracket closing
    their frame), or one past the end for a string that ends too soon.
    """
    stack: list = []  # None (an open bracket), label strings and nodes
    root: RstTree | None = None
    seen_leaf, interned = _LEAF_TOKENS.get, _INTERNED.get
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    rest = iter(tokens)
    try:
        for tok in rest:
            if tok == "(":
                stack.append(None)
                continue
            if tok == ")":
                if not stack:
                    raise RstError("unbalanced ')' in tree string")
                if len(stack) < 4:
                    raise RstError("tree string: expected (label left right)")
                right, left, name, _ = stack.pop(), stack.pop(), stack.pop(), stack.pop()
                # A label only ever follows an open bracket, so with a label
                # third from the top these four are the whole innermost frame.
                if type(name) is not str or left is None or right is None:
                    raise RstError("tree string: expected (label left right)")
                node = RstTree.internal(left, right, interned(name, name))
            elif tok[0] == "#":
                node = seen_leaf(tok)
                if node is None:
                    try:
                        index = int(tok[1:])
                    except ValueError:  # no number, or more digits than int() reads
                        index = -1
                    # only tree_to_string's spelling: no sign, "_" or leading zero
                    if index < 0 or tok != f"#{index}":
                        raise RstError(f"bad leaf token {excerpt(tok)}")
                    node = RstTree.leaf(index)
                    if index < _INTERN_LIMIT:
                        _LEAF_TOKENS[tok] = node
            elif not stack:  # a label outside any bracket
                raise RstError(f"unbalanced tree string {excerpt(text)}")
            elif stack[-1] is not None:
                # a label may only open its frame
                raise RstError("tree string: expected (label left right)")
            else:
                stack.append(tok)
                continue
            if stack:
                stack.append(node)
            elif root is None:
                root = node
            else:
                raise RstError("multiple root nodes in tree string")
    except RstError as exc:  # the token at fault is the last one taken from rest
        at = _token_start(text, tokens, len(tokens) - length_hint(rest))
        raise RstError(f"{exc} at character {at}") from None
    if stack or root is None:
        raise RstError(f"unbalanced tree string {excerpt(text)} at character "
                       f"{len(text) + 1}")
    return root


def _token_start(text: str, tokens: list[str], k: int) -> int:
    """The 1-based offset in ``text`` where its ``k``-th token starts."""
    at = 0
    for tok in tokens[:k - 1]:  # a token holds no whitespace or bracket
        at = text.index(tok, at) + len(tok)
    return text.index(tokens[k - 1], at) + 1


# ---------------------------------------------------------------------------
# Canonical record format (JSON lines)
# ---------------------------------------------------------------------------

_CANONICAL_FIELDS = ("id", "genre", "lang", "tokens", "edus", "tree", "sents", "split")


def record_to_json(doc: DocumentRecord) -> dict:
    """The canonical object of ``doc``, fields in canonical order.

    Token pairs are ``(text, char_start)`` tuples, which the JSON encoder
    writes as ``[text, char_start]`` arrays, the same bytes as lists.
    """
    return {
        "id": doc.doc_id,
        "genre": doc.genre,
        "lang": doc.lang,
        "tokens": list(zip(doc.tokens, doc.char_starts)),
        "edus": [[e.first_token, e.last_token] for e in doc.edus],
        "tree": tree_to_string(doc.tree) if doc.tree is not None else None,
        "sents": list(doc.sentence_boundaries)
        if doc.sentence_boundaries is not None
        else None,
        "split": doc.split.value,
    }


def _json_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of JSON integers: a float, a string or a
    ``true``/``false`` is an error, never rounded or cast."""
    values = tuple(values)
    if set(map(type, values)) - {int}:
        bad = next(value for value in values if type(value) is not int)
        raise RstError(f"{what} must be integers, got {bad!r}")
    return values


def _expected(field: str, what: str, value) -> RstError:
    """``<field>: expected <what>, got <value's JSON type>``; a string is
    quoted instead, as it may be of the right type with a wrong value."""
    if type(value) is list:
        got = f"array of {len(value)}"
    else:
        got = excerpt(value) if type(value) is str else JSON_TYPES[type(value)]
    return RstError(f"{field}: expected {what}, got {got}")


def _pairs_error(field: str, pair: str, value) -> RstError | None:
    """The error for a ``field`` value that is no array of ``pair``-shaped
    arrays, naming the first that is not; None if it is one."""
    if type(value) is not list:
        return _expected(field, f"an array of {pair} pairs", value)
    for i, item in enumerate(value):
        if type(item) is not list or len(item) != 2:
            return _expected(f"{field}[{i}]", f"a {pair} pair", item)
    return None


def record_from_json(obj: dict) -> DocumentRecord:
    missing = [f for f in _CANONICAL_FIELDS if f not in obj]
    if missing:
        raise RstError(f"record is missing fields: {missing}")
    extra = [f for f in obj if f not in _CANONICAL_FIELDS]
    if extra:
        raise RstError(f"record has unknown fields: {extra}")
    pairs = obj["tokens"]
    try:
        texts, starts = zip(*pairs, strict=True)
    except (TypeError, ValueError):
        error = _pairs_error("tokens", "[text, char_start]", pairs)
        if error is not None:
            raise error from None
        texts = starts = ()  # no pairs means no tokens
    # The checks that name a field's wrong JSON type run only once a fast
    # check has failed, or once an empty value may be a "" or {}.
    edus = obj["edus"]
    try:
        _json_ints(chain.from_iterable(edus), "EDU bounds")
        spans = tuple(starmap(EduSpan, edus))
        if not spans and type(edus) is not list:
            raise TypeError
    except (TypeError, ValueError, RstError) as exc:
        # the shape the value lacks, else the error a pair's values raised
        raise _pairs_error("edus", "[first, last]", edus) or exc from None
    tree = obj["tree"]
    if type(tree) is str:
        tree = tree_from_string(tree)
    elif tree is not None:
        raise _expected("tree", "a tree string or null", tree)
    sents = obj["sents"]
    if sents is not None:
        try:
            bounds = _json_ints(sents, "sentence boundaries")
            if not bounds and type(sents) is not list:
                raise TypeError
        except (TypeError, RstError):
            if type(sents) is list:  # a wrong value, not a wrong type
                raise
            raise _expected("sents", "an array of integers or null", sents) from None
        sents = bounds
    try:
        split = Split(obj["split"])
    except ValueError:
        raise _expected("split", '"train", "dev" or "test"', obj["split"]) from None
    try:
        return DocumentRecord(
            doc_id=obj["id"],
            genre=obj["genre"],
            lang=obj["lang"],
            tokens=texts,
            char_starts=starts,
            edus=spans,
            tree=tree,
            sentence_boundaries=sents,
            split=split,
        )
    except RstError as exc:  # zip also reads {"ab": 1}, or "ab" among the pairs
        raise _pairs_error("tokens", "[text, char_start]", pairs) or exc from None


# json.dumps(obj, ensure_ascii=False) without building an encoder per call;
# a record holds no reference cycles, so the circular check is skipped.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def encode_record(doc: DocumentRecord) -> str:
    """The canonical line of ``doc``, without its newline."""
    return _encode(record_to_json(doc))


def write_record(fh, doc: DocumentRecord) -> None:
    """Append one canonical line to an open text stream."""
    fh.write(encode_record(doc))
    fh.write("\n")


def iter_canonical(path):
    """Stream documents from a canonical corpus file, one at a time.

    Raises SchemaViolation naming the first offending line, which may be
    malformed or repeat an earlier document's id.  Memory stays bounded by
    the largest single document, plus the ids read so far.
    """
    seen: set[str] = set()
    with InputLines(path) as lines:
        for line in lines:
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
                raise RstError(f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise RstError("record is not a JSON object")
            try:
                doc = record_from_json(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise RstError(str(exc)) from None
            if doc.doc_id in seen:
                raise RstError(f"duplicate document id {doc.doc_id}")
            seen.add(doc.doc_id)
            yield doc


def read_rs3_file(path) -> list[Rs3Component]:
    with open(path, "rb") as fh:
        return extract_forest(parse_rs3(fh.read()))


def read_sentence_file(path) -> dict[str, tuple[int, ...]]:
    """Read external sentence boundaries: ``doc_id<TAB>i0 i1 i2 ...`` lines;
    a line starting with ``#`` is a comment.  Each line's indices must
    start at 0 and strictly increase; whether they stay below the token
    count is checked against the document when it is scored."""
    table: dict[str, tuple[int, ...]] = {}
    with InputLines(path) as lines:
        for line in lines:
            if line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise RstError("expected 'doc_id<TAB>indices'")
            try:
                bounds = tuple(int(x) for x in parts[1].split())
            except ValueError:
                raise RstError("boundary indices must be ints") from None
            check_sentence_starts(bounds)
            if parts[0] in table:
                raise RstError(f"repeated document id {parts[0]!r}")
            table[parts[0]] = bounds
    return table
