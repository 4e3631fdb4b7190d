"""Parsing and serialization of ``.rs3`` treebanks and the canonical format.

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
read as a right-branching cascade of k-1 nodes with the same NN label, and
such a cascade is written back as one group.

The canonical corpus format is UTF-8 JSON-lines, one document per line with
the fixed fields ``id, genre, lang, tokens, edus, tree, sents, split``;
``tokens`` is a list of ``[text, char_start]`` pairs, and ``tree`` a
bracketed string ``(rel_NUC left right)`` with ``#k`` leaves.

All operations are pure functions; files can be processed in parallel.
"""

from __future__ import annotations

import io
import json
import re
import unicodedata
from bisect import bisect_left
from collections import defaultdict
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .core import (
    Corpus,
    DocumentRecord,
    EduSpan,
    InputLines,
    MissingTree,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    SchemaViolation,  # raised by the readers here, and caught under this name
    Split,
    check_sentence_starts,
    excerpt,
)

# The rs3 reader and writer import xml.etree themselves, so commands that
# only read the canonical format do not load it.
if TYPE_CHECKING:
    import xml.etree.ElementTree as ET


class MalformedXml(RstError):
    """The input is not well-formed rs3 XML."""


class DanglingParentId(RstError):
    """A node references a parent id that does not exist."""


class UnknownRelname(RstError):
    """An attachment uses a relation missing from the relations table."""


class EmptySegmentText(RstError):
    """A segment carries no text."""


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_CHUNK_RE = re.compile(r"\S+")


def _splittable(ch: str) -> bool:
    # Punctuation and symbol characters are peeled off token edges.
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str, char_offset: int = 0) -> list[tuple[str, int]]:
    """Deterministic whitespace-plus-punctuation tokenizer.

    Returns ``(text, char_start)`` pairs, offsets shifted by ``char_offset``.

    Rules, applied identically to every language (Unicode-aware):

    1. split on Unicode whitespace;
    2. peel leading punctuation/symbol characters off each chunk, one
       character per token;
    3. peel trailing punctuation/symbol characters the same way;
    4. whatever remains in the middle is a single token (internal hyphens
       and apostrophes are never split).
    """
    tokens: list[tuple[str, int]] = []
    for match in _CHUNK_RE.finditer(text):
        chunk = match.group()
        base = match.start() + char_offset
        # Most chunks are whole tokens: no alphanumeric character is in a
        # P* or S* category, so alphanumeric ends are never peeled.
        if len(chunk) == 1 or (chunk[0].isalnum() and chunk[-1].isalnum()):
            tokens.append((chunk, base))
            continue
        lo, hi = 0, len(chunk)
        head: list[tuple[str, int]] = []
        tail: list[tuple[str, int]] = []
        while hi - lo > 1 and _splittable(chunk[lo]):
            head.append((chunk[lo], base + lo))
            lo += 1
        while hi - lo > 1 and _splittable(chunk[hi - 1]):
            tail.append((chunk[hi - 1], base + hi - 1))
            hi -= 1
        tokens += head
        tokens.append((chunk[lo:hi], base + lo))
        tokens += tail[::-1]
    return tokens


# ---------------------------------------------------------------------------
# rs3 parsing
# ---------------------------------------------------------------------------


# The rs3 node table is made of named tuples: immutable, and cheaper than
# frozen dataclasses both to define at import and to build per node.


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

    Raises MalformedXml, DanglingParentId, UnknownRelname or
    EmptySegmentText.  Input must be UTF-8; a BOM is stripped.
    """
    import xml.etree.ElementTree as ET

    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedXml(f"input is not UTF-8: {exc}") from None
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None

    relations = []
    for rel in root.iter("rel"):
        name = (rel.get("name") or "").strip().lower()
        kind = (rel.get("type") or "").strip().lower()
        if not name or kind not in ("rst", "multinuc"):
            raise MalformedXml(f"bad relation entry name={name!r} type={kind!r}")
        relations.append(Rs3Relation(name, kind))

    segments = []
    groups = []
    seen_ids: set[str] = set()
    for elem in root.iter():
        if elem.tag not in ("segment", "group"):
            continue
        node_id = (elem.get("id") or "").strip()
        if not node_id:
            raise MalformedXml(f"<{elem.tag}> without id")
        if node_id in seen_ids:
            raise MalformedXml(f"duplicate node id {node_id!r}")
        seen_ids.add(node_id)
        parent = elem.get("parent")
        parent = parent.strip() if parent is not None else None
        relname = elem.get("relname")
        relname = relname.strip().lower() if relname is not None else None
        if elem.tag == "segment":
            seg_text = _normalize_space(elem.text or "")
            if not seg_text:
                raise EmptySegmentText(f"segment {node_id} has no text")
            segments.append(Rs3Segment(node_id, parent, relname, seg_text))
        else:
            kind = (elem.get("type") or "").strip().lower()
            if kind not in ("span", "multinuc"):
                raise MalformedXml(f"group {node_id} has bad type {kind!r}")
            groups.append(Rs3Group(node_id, kind, parent, relname))

    doc = Rs3Document(tuple(relations), tuple(segments), tuple(groups))
    _validate_rs3(doc, seen_ids)
    return doc


def _normalize_space(text: str) -> str:
    return " ".join(text.split())


def _validate_rs3(doc: Rs3Document, ids: set[str]) -> None:
    """Every parent is a node of ``ids``, and every relname but ``span``
    is in the relations table."""
    known_relnames = {rel.name for rel in doc.relations}
    nodes: list[Union[Rs3Segment, Rs3Group]] = [*doc.segments, *doc.groups]
    for node in nodes:
        if node.parent_id is not None and node.parent_id not in ids:
            raise DanglingParentId(
                f"node {node.node_id} has missing parent {node.parent_id}"
            )
        if node.relname is not None and node.relname != "span":
            if node.relname not in known_relnames:
                raise UnknownRelname(
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
    relation a satellite (a ``span`` child of a multinuc group is neither).
    Each node is then built once, after its children.  Node ids are unique,
    as :func:`parse_rs3` checks.
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
    roots: list[str] = []
    for nid, node in nodes.items():
        pid = node.parent_id
        if pid is None:
            roots.append(nid)
            continue
        children[pid].append(nid)
        relname = node.relname
        if relname is None or relname == "span":
            if pid not in multinuc_groups:
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
        raise MalformedXml(f"parent cycle involving node {nid}")

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
                    raise MalformedXml(f"segment {nid} has span/multinuc children")
                base = RstTree.leaf(edu_index[nid])
            elif node.kind == "span":
                if len(nucs) != 1:
                    raise MalformedXml(f"span group {nid} has {len(nucs)} span children")
                base = resolved[nucs[0]]
            else:  # multinuc group
                if len(nucs) < 2:
                    raise MalformedXml(f"multinuc group {nid} has {len(nucs)} nuclei")
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
                raise MalformedXml(
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
            raise EmptySegmentText(f"{doc_id}: EDU with no tokens")
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
# rs3 serialization
# ---------------------------------------------------------------------------


def serialize_rs3(doc: DocumentRecord) -> bytes:
    """Emit rs3 XML for one document; :func:`extract_forest` reads it back
    as an equal tree.  Raises MissingTree when the record has no tree."""
    return serialize_rs3_forest([doc])


def serialize_rs3_forest(docs: Sequence[DocumentRecord]) -> bytes:
    """Emit one rs3 file holding several trees (an under-annotated forest).

    A right cascade of nodes with the same NN label is written as one
    multinuc group, the inverse of how :func:`extract_forest` reads it.
    """
    import xml.etree.ElementTree as ET

    for doc in docs:
        if doc.tree is None:
            raise MissingTree(f"{doc.doc_id} has no tree")

    relations = {
        (node.label.relation, "multinuc" if node.label.nuclearity is Nuclearity.NN else "rst")
        for doc in docs
        for node in doc.tree.internal_nodes()  # type: ignore[union-attr]
    }

    root = ET.Element("rst")
    header = ET.SubElement(root, "header")
    rels = ET.SubElement(header, "relations")
    for name, kind in sorted(relations):
        ET.SubElement(rels, "rel", name=name, type=kind)
    body = ET.SubElement(root, "body")

    next_group_id = sum(len(doc.edus) for doc in docs) + 1
    segment_base = 1
    segments: list[ET.Element] = []
    groups: list[ET.Element] = []
    for doc in docs:
        next_group_id = _emit_component(doc, segment_base, next_group_id, segments, groups)
        segment_base += len(doc.edus)
    # Segments first, in text order, then groups; editors expect this layout.
    body.extend(segments + groups)

    buffer = io.BytesIO()
    ET.indent(root)
    ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue()


def _group_children(node: RstTree) -> list[RstTree]:
    """Children of the rs3 group written for an internal node: an NN node
    absorbs the right cascade of nodes that carry its label."""
    label = node.label
    assert label is not None and node.left is not None and node.right is not None
    if label.nuclearity is not Nuclearity.NN:
        return [node.left, node.right]
    children = []
    while not node.is_leaf and node.label == label:
        children.append(node.left)
        node = node.right  # type: ignore[assignment]
    children.append(node)
    return children


def _emit_component(
    doc: DocumentRecord,
    segment_base: int,
    next_group_id: int,
    segments: list[ET.Element],
    groups: list[ET.Element],
) -> int:
    """Append one tree's segments and groups, each in id order; returns the
    next free group id."""
    import xml.etree.ElementTree as ET

    # First pass: rs3 ids for every group (pre-order, last child first) and
    # segment, and the children of each group.
    node_ids: dict[int, str] = {}
    group_nodes: list[tuple[RstTree, list[RstTree]]] = []
    group_id = next_group_id
    stack = [doc.tree]
    while stack:
        node = stack.pop()
        assert node is not None
        if node.is_leaf:
            node_ids[id(node)] = str(segment_base + node.edu_index)
        else:
            node_ids[id(node)] = str(group_id)
            group_id += 1
            children = _group_children(node)
            group_nodes.append((node, children))
            stack.extend(children)

    # Second pass: attachment edges, rs3 id -> (parent id, relname).
    attach: dict[str, tuple[str, str]] = {}
    for node, children in group_nodes:
        label = node.label
        assert label is not None
        gid = node_ids[id(node)]
        if label.nuclearity is Nuclearity.NN:
            for child in children:
                attach[node_ids[id(child)]] = (gid, label.relation)
        else:
            nucleus, satellite = (
                children if label.nuclearity is Nuclearity.NS else children[::-1]
            )
            attach[node_ids[id(nucleus)]] = (gid, "span")
            attach[node_ids[id(satellite)]] = (node_ids[id(nucleus)], label.relation)

    def attrib(nid: str, **extra: str) -> dict[str, str]:
        # id/type first, then attachment, mirrors common rs3 layout
        out = {"id": nid, **extra}
        if nid in attach:
            out["parent"], out["relname"] = attach[nid]
        return out

    for i, span in enumerate(doc.edus):
        segment = ET.Element("segment", attrib(str(segment_base + i)))
        segment.text = " ".join(doc.tokens[span.first_token : span.last_token + 1])
        segments.append(segment)
    for node, _ in group_nodes:
        kind = "multinuc" if node.label.nuclearity is Nuclearity.NN else "span"  # type: ignore[union-attr]
        groups.append(ET.Element("group", attrib(node_ids[id(node)], type=kind)))
    return group_id


# ---------------------------------------------------------------------------
# Bracketed tree strings
# ---------------------------------------------------------------------------

def tree_to_string(tree: RstTree) -> str:
    """Render a tree as ``(rel_NUC left right)`` with ``#k`` leaves."""
    pieces: list[str] = []
    stack: list[RstTree | str] = [tree]
    while stack:
        node = stack.pop()
        if type(node) is str:
            pieces.append(node)
        elif node.is_leaf:
            pieces.append(f"#{node.first_edu}")
        else:
            pieces.append(f"({node.label.merged}")  # type: ignore[union-attr]
            stack += (")", node.right, node.left)  # type: ignore[arg-type]
    # Labels hold no space or parenthesis, so " )" occurs only before a close.
    return " ".join(pieces).replace(" )", ")")


def tree_from_string(text: str) -> RstTree:
    """Parse the bracketed tree format produced by :func:`tree_to_string`.

    One pass over the tokens with one stack: ``None`` marks an open
    bracket, which only a label may follow directly, then come the child
    nodes.  Each node is built by ``RstTree``, which checks adjacency, and
    each ``#k`` is the shared ``RstTree.leaf(k)``.  Tokens are brackets and
    the runs between brackets and whitespace (``str.split``'s whitespace,
    the same code points as the regular expression ``\\s``).
    """
    if not isinstance(text, str):
        raise TypeError(
            f"expected string or bytes-like object, got {type(text).__name__!r}"
        )
    stack: list = []  # None (an open bracket), label strings and nodes
    root: RstTree | None = None
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
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
            label = RelationLabel.from_merged(name)
            node = RstTree(left.first_edu, right.last_edu, label, left, right)
        elif tok[0] == "#":
            try:
                index = int(tok[1:])
            except ValueError:
                raise RstError(f"bad leaf token {tok!r}") from None
            node = RstTree.leaf(index)
        elif not stack:  # a label outside any bracket: unbalanced
            root = None
            break
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
    if stack or root is None:
        raise RstError(f"unbalanced tree string {excerpt(text)}")
    return root


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
        # len() names a token that is no sequence; no pairs means no tokens
        if set(map(len, pairs)) - {2}:
            raise RstError("every token must be a [text, char_start] pair") from None
        texts = starts = ()
    _json_ints(chain.from_iterable(obj["edus"]), "EDU bounds")
    edus = tuple(EduSpan(a, b) for a, b in obj["edus"])
    tree = tree_from_string(obj["tree"]) if obj["tree"] is not None else None
    sents = obj["sents"]
    if sents is not None:
        sents = _json_ints(sents, "sentence boundaries")
    return DocumentRecord(
        doc_id=obj["id"],
        genre=obj["genre"],
        lang=obj["lang"],
        tokens=texts,
        char_starts=starts,
        edus=edus,
        tree=tree,
        sentence_boundaries=sents,
        split=Split(obj["split"]),
    )


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


def write_canonical(corpus: Corpus, path) -> None:
    """Write one JSON object per document, UTF-8, in corpus order."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            write_record(fh, doc)


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


def read_canonical(path) -> Corpus:
    """Read a whole canonical corpus file; see :func:`iter_canonical`."""
    return Corpus(tuple(iter_canonical(path)))


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
