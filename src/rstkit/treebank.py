"""Parsing and serialization of ``.rs3`` treebanks and the canonical format.

The ``.rs3`` XML schema encodes an RST analysis as a flat list of nodes:
``<segment>`` elements are EDUs and ``<group>`` elements are either ``span``
nodes (a nucleus wrapped together with its satellites) or ``multinuc`` nodes.
A child's ``relname`` decides how it attaches to its parent:

* ``relname="span"``        -- the child is the nucleus of a span group;
* a multinuc-typed relname  -- the child is one nucleus of a multinuc group;
* an rst-typed relname      -- the child is a satellite of the parent node.

Under-annotated files contain several disconnected trees; parsing yields the
whole forest, ordered by first segment position.  N-ary multinuclear nodes
are binarized into right-branching cascades.

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
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Sequence, Union

from .core import (
    Corpus,
    DocumentRecord,
    EduSpan,
    MissingTree,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    Split,
    Token,
)


class MalformedXml(RstError):
    """The input is not well-formed rs3 XML."""


class DanglingParentId(RstError):
    """A node references a parent id that does not exist."""


class UnknownRelname(RstError):
    """An attachment uses a relation missing from the relations table."""


class EmptySegmentText(RstError):
    """A segment carries no text."""


class UnaryChain(RstError):
    """An internal node was left with a single child."""


class SchemaViolation(RstError):
    """A canonical-format line violates the record schema."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_CHUNK_RE = re.compile(r"\S+")


def _splittable(ch: str) -> bool:
    # Punctuation and symbol characters are peeled off token edges.
    return unicodedata.category(ch)[0] in ("P", "S")


def tokenize(text: str, index_offset: int = 0, char_offset: int = 0) -> list[Token]:
    """Deterministic whitespace-plus-punctuation tokenizer.

    Rules, applied identically to every language (Unicode-aware):

    1. split on Unicode whitespace;
    2. peel leading punctuation/symbol characters off each chunk, one
       character per token;
    3. peel trailing punctuation/symbol characters the same way;
    4. whatever remains in the middle is a single token (internal hyphens
       and apostrophes are never split).
    """
    tokens: list[Token] = []
    index = index_offset
    for match in _CHUNK_RE.finditer(text):
        chunk = match.group()
        base = match.start() + char_offset
        lo, hi = 0, len(chunk)
        head: list[tuple[int, str]] = []
        tail: list[tuple[int, str]] = []
        while hi - lo > 1 and _splittable(chunk[lo]):
            head.append((base + lo, chunk[lo]))
            lo += 1
        while hi - lo > 1 and _splittable(chunk[hi - 1]):
            tail.append((base + hi - 1, chunk[hi - 1]))
            hi -= 1
        parts = head + [(base + lo, chunk[lo:hi])] + tail[::-1]
        for start, part in parts:
            tokens.append(Token(part, start, index))
            index += 1
    return tokens


# ---------------------------------------------------------------------------
# rs3 parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rs3Relation:
    name: str
    kind: str  # "rst" | "multinuc"


@dataclass(frozen=True, slots=True)
class Rs3Segment:
    node_id: str
    parent_id: str | None
    relname: str | None
    text: str


@dataclass(frozen=True, slots=True)
class Rs3Group:
    node_id: str
    kind: str  # "span" | "multinuc"
    parent_id: str | None
    relname: str | None


@dataclass(frozen=True, slots=True)
class Rs3Document:
    """The raw node table of one ``.rs3`` file, order-preserving."""

    relations: tuple[Rs3Relation, ...]
    segments: tuple[Rs3Segment, ...]
    groups: tuple[Rs3Group, ...]

    def relation_kinds(self) -> dict[str, set[str]]:
        kinds: dict[str, set[str]] = {}
        for rel in self.relations:
            kinds.setdefault(rel.name, set()).add(rel.kind)
        return kinds


def parse_rs3(data: bytes) -> Rs3Document:
    """Parse rs3 file bytes into the raw node table.

    Raises MalformedXml, DanglingParentId, UnknownRelname or
    EmptySegmentText.  Input must be UTF-8; a BOM is stripped.
    """
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
    _validate_rs3(doc)
    return doc


def _normalize_space(text: str) -> str:
    return " ".join(text.split())


def _validate_rs3(doc: Rs3Document) -> None:
    ids = {seg.node_id for seg in doc.segments} | {g.node_id for g in doc.groups}
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
# Forest extraction: rs3 node table -> n-ary constituent trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class NaryNode:
    """Ordered constituent tree prior to binarization.

    Leaves carry an ``edu_index``; internal nodes carry a label and two or
    more children (only multinuclear nodes may have more than two).
    """

    label: RelationLabel | None
    children: tuple["NaryNode", ...]
    edu_index: int | None = None
    first_edu: int = 0
    last_edu: int = 0

    @classmethod
    def leaf(cls, edu_index: int) -> "NaryNode":
        return cls(None, (), edu_index, edu_index, edu_index)

    @classmethod
    def internal(
        cls, label: RelationLabel, children: Sequence["NaryNode"]
    ) -> "NaryNode":
        children = tuple(children)
        if not children:
            raise UnaryChain("internal node without children")
        for prev, cur in zip(children, children[1:]):
            if prev.last_edu + 1 != cur.first_edu:
                raise RstError(
                    "children are not contiguous in text order: "
                    f"EDUs {prev.last_edu} -> {cur.first_edu}"
                )
        return cls(label, children, None, children[0].first_edu, children[-1].last_edu)

    @property
    def is_leaf(self) -> bool:
        return self.edu_index is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NaryNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if (
                a.label != b.label
                or a.edu_index != b.edu_index
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"NaryNode<#{self.edu_index}>"
        return f"NaryNode<{self.label} x{len(self.children)}>"


@dataclass(frozen=True, slots=True)
class Rs3Component:
    """One connected tree of an rs3 forest, with its EDU texts."""

    tree: NaryNode
    edu_texts: tuple[str, ...]


def extract_forest(doc: Rs3Document) -> list[Rs3Component]:
    """Resolve the rs3 node table into its connected constituent trees.

    Components are ordered by the document position of their first segment.
    Satellites attach nearest-first; when a nucleus has pending satellites
    on both sides, the right one is folded first (innermost).
    """
    kinds = doc.relation_kinds()
    nodes: dict[str, Union[Rs3Segment, Rs3Group]] = {}
    order: dict[str, int] = {}
    for pos, seg in enumerate(doc.segments):
        nodes[seg.node_id] = seg
        order[seg.node_id] = pos
    for group in doc.groups:
        nodes[group.node_id] = group

    children: dict[str, list[str]] = {nid: [] for nid in nodes}
    roots: list[str] = []
    for nid, node in nodes.items():
        if node.parent_id is None:
            roots.append(nid)
        else:
            children[node.parent_id].append(nid)

    # Component root for every node, found by walking parent chains.
    component: dict[str, str] = {}
    for nid in nodes:
        chain: list[str] = []
        cur = nid
        while cur not in component and nodes[cur].parent_id is not None:
            chain.append(cur)
            if len(chain) > len(nodes):
                raise MalformedXml(f"parent cycle involving node {nid}")
            cur = nodes[cur].parent_id  # type: ignore[assignment]
        root = component.get(cur, cur)
        component[cur] = root
        for item in chain:
            component[item] = root

    # Global EDU numbering follows segment order; each component renumbers
    # its own EDUs from zero below.
    segment_ids = [seg.node_id for seg in doc.segments]
    by_component: dict[str, list[str]] = {}
    for sid in segment_ids:
        by_component.setdefault(component[sid], []).append(sid)

    ordered_roots = sorted(
        (root for root in roots if root in by_component),
        key=lambda root: order[by_component[root][0]],
    )

    results = []
    for root in ordered_roots:
        seg_ids = by_component[root]
        edu_index = {sid: i for i, sid in enumerate(seg_ids)}
        tree = _resolve_component(root, nodes, children, kinds, edu_index)
        texts = tuple(nodes[sid].text for sid in seg_ids)  # type: ignore[union-attr]
        results.append(Rs3Component(tree, texts))
    return results


def _attachment_kind(
    child: Union[Rs3Segment, Rs3Group],
    parent: Union[Rs3Segment, Rs3Group, None],
    kinds: dict[str, set[str]],
) -> str:
    """Classify how a node hangs off its parent: span, multinuc or satellite."""
    relname = child.relname
    if relname is None or relname == "span":
        return "span"
    rel_kinds = kinds.get(relname, set())
    parent_is_multinuc = isinstance(parent, Rs3Group) and parent.kind == "multinuc"
    if parent_is_multinuc and "multinuc" in rel_kinds:
        return "multinuc"
    return "satellite"


def _resolve_component(
    root: str,
    nodes: dict[str, Union[Rs3Segment, Rs3Group]],
    children: dict[str, list[str]],
    kinds: dict[str, set[str]],
    edu_index: dict[str, int],
) -> NaryNode:
    # Bottom-up resolution in dependency order (children before parents).
    stack = [root]
    topo: list[str] = []
    while stack:
        nid = stack.pop()
        topo.append(nid)
        stack.extend(children[nid])
    resolved: dict[str, NaryNode] = {}
    for nid in reversed(topo):
        resolved[nid] = _resolve_node(nid, nodes, children, kinds, edu_index, resolved)
    return resolved[root]


def _resolve_node(
    nid: str,
    nodes: dict[str, Union[Rs3Segment, Rs3Group]],
    children: dict[str, list[str]],
    kinds: dict[str, set[str]],
    edu_index: dict[str, int],
    resolved: dict[str, NaryNode],
) -> NaryNode:
    node = nodes[nid]
    span_children: list[str] = []
    multinuc_children: list[str] = []
    satellites: list[str] = []
    for cid in children[nid]:
        kind = _attachment_kind(nodes[cid], node, kinds)
        if kind == "span":
            span_children.append(cid)
        elif kind == "multinuc":
            multinuc_children.append(cid)
        else:
            satellites.append(cid)

    if isinstance(node, Rs3Segment):
        if span_children or multinuc_children:
            raise MalformedXml(f"segment {nid} has span/multinuc children")
        base = NaryNode.leaf(edu_index[nid])
    elif node.kind == "span":
        if len(span_children) != 1:
            raise MalformedXml(
                f"span group {nid} has {len(span_children)} span children"
            )
        base = resolved[span_children[0]]
    else:  # multinuc group
        if len(multinuc_children) < 2:
            raise MalformedXml(
                f"multinuc group {nid} has {len(multinuc_children)} nuclei"
            )
        parts = sorted(
            (resolved[cid] for cid in multinuc_children),
            key=lambda n: n.first_edu,
        )
        relname = nodes[min(multinuc_children, key=lambda c: resolved[c].first_edu)].relname
        label = RelationLabel(relname or "joint", Nuclearity.NN)
        base = NaryNode.internal(label, parts)

    pending = [(resolved[cid], nodes[cid].relname or "") for cid in satellites]
    while pending:
        right = [p for p in pending if p[0].first_edu == base.last_edu + 1]
        left = [p for p in pending if p[0].last_edu == base.first_edu - 1]
        if right:
            sat, relname = right[0]
            base = NaryNode.internal(
                RelationLabel(relname, Nuclearity.NS), (base, sat)
            )
        elif left:
            sat, relname = left[0]
            base = NaryNode.internal(
                RelationLabel(relname, Nuclearity.SN), (sat, base)
            )
        else:
            raise MalformedXml(
                f"satellite of node {nid} is not adjacent to its nucleus"
            )
        pending = [p for p in pending if p[0] is not sat]
    return base


# ---------------------------------------------------------------------------
# Binarization
# ---------------------------------------------------------------------------


def binarize(tree: Union[NaryNode, RstTree]) -> RstTree:
    """Binarize an n-ary constituent tree.

    Multinuclear nodes with more than two children become right-branching
    cascades; every intermediate node repeats the same NN label.  Binary
    input (including an already-binary RstTree) is returned unchanged, so
    ``binarize`` is idempotent.  Raises UnaryChain for one-child nodes.
    """
    if isinstance(tree, RstTree):
        return tree
    results: list[RstTree] = []
    stack: list[tuple[str, NaryNode]] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "visit":
            if node.is_leaf:
                results.append(RstTree.leaf(node.edu_index))  # type: ignore[arg-type]
            else:
                if len(node.children) == 1:
                    raise UnaryChain(
                        f"internal node over EDUs {node.first_edu}.."
                        f"{node.last_edu} has a single child"
                    )
                stack.append(("combine", node))
                for child in reversed(node.children):
                    stack.append(("visit", child))
        else:
            label = node.label
            assert label is not None
            k = len(node.children)
            if k > 2 and label.nuclearity is not Nuclearity.NN:
                raise RstError(
                    f"mononuclear node over EDUs {node.first_edu}.."
                    f"{node.last_edu} has {k} children"
                )
            parts = results[-k:]
            del results[-k:]
            acc = parts[-1]
            for child in parts[-2::-1]:
                acc = RstTree.internal(child, acc, label)
            results.append(acc)
    (result,) = results
    return result


def unbinarize(tree: RstTree) -> NaryNode:
    """Merge right-branching same-relation NN cascades back into n-ary nodes.

    Exact inverse of :func:`binarize` for trees it produced; any other tree
    is returned with only genuine right-cascades collapsed, so a later
    re-binarization reproduces the input tree.
    """
    results: list[NaryNode] = []
    stack: list[tuple[str, RstTree]] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "visit":
            if node.is_leaf:
                results.append(NaryNode.leaf(node.edu_index))
            else:
                stack.append(("combine", node))
                stack.append(("visit", node.right))  # type: ignore[arg-type]
                stack.append(("visit", node.left))  # type: ignore[arg-type]
        else:
            right = results.pop()
            left = results.pop()
            label = node.label
            assert label is not None
            merge = (
                label.nuclearity is Nuclearity.NN
                and node.right is not None
                and not node.right.is_leaf
                and node.right.label == label
            )
            if merge:
                children = (left,) + right.children
            else:
                children = (left, right)
            results.append(NaryNode.internal(label, children))
    (result,) = results
    return result


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
    """Tokenize one forest component and binarize its tree."""
    tokens: list[Token] = []
    edus: list[EduSpan] = []
    char_offset = 0
    for text in component.edu_texts:
        start = len(tokens)
        tokens.extend(tokenize(text, index_offset=start, char_offset=char_offset))
        char_offset += len(text) + 1  # EDU texts joined by single spaces
        if len(tokens) == start:
            raise EmptySegmentText(f"{doc_id}: EDU with no tokens")
        edus.append(EduSpan(start, len(tokens) - 1))
    return DocumentRecord(
        doc_id=doc_id,
        genre=genre,
        lang=lang,
        tokens=tuple(tokens),
        edus=tuple(edus),
        tree=binarize(component.tree),
        split=Split(split),
    )


# ---------------------------------------------------------------------------
# rs3 serialization
# ---------------------------------------------------------------------------


def serialize_rs3(doc: DocumentRecord) -> bytes:
    """Emit rs3 XML for one document; parse + binarize maps it back to an
    equal tree.  Raises MissingTree when the record has no tree."""
    return serialize_rs3_forest([doc])


def serialize_rs3_forest(docs: Sequence[DocumentRecord]) -> bytes:
    """Emit one rs3 file holding several trees (an under-annotated forest)."""
    for doc in docs:
        if doc.tree is None:
            raise MissingTree(f"{doc.doc_id} has no tree")
    nary = [unbinarize(doc.tree) for doc in docs]  # type: ignore[arg-type]

    relations: set[tuple[str, str]] = set()
    for tree in nary:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.label is not None:
                kind = "multinuc" if node.label.nuclearity is Nuclearity.NN else "rst"
                relations.add((node.label.relation, kind))
            stack.extend(node.children)

    root = ET.Element("rst")
    header = ET.SubElement(root, "header")
    rels = ET.SubElement(header, "relations")
    for name, kind in sorted(relations):
        ET.SubElement(rels, "rel", name=name, type=kind)
    body = ET.SubElement(root, "body")

    next_group_id = sum(len(doc.edus) for doc in docs) + 1
    segment_base = 1
    entries: list[dict] = []
    for doc, tree in zip(docs, nary):
        next_group_id = _emit_component(
            doc, tree, segment_base, next_group_id, entries
        )
        segment_base += len(doc.edus)

    # Segments first, in text order, then groups; editors expect this layout.
    entries.sort(key=lambda e: (e["tag"] != "segment", int(e["attrib"]["id"])))
    for entry in entries:
        elem = ET.SubElement(body, entry["tag"], entry["attrib"])
        elem.text = entry.get("text")

    buffer = io.BytesIO()
    ET.indent(root)
    ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue()


def _emit_component(
    doc: DocumentRecord,
    tree: NaryNode,
    segment_base: int,
    next_group_id: int,
    entries: list[dict],
) -> int:
    """Append segment/group entries for one tree; returns next free group id."""

    def edu_text(edu_idx: int) -> str:
        span = doc.edus[edu_idx]
        return " ".join(t.text for t in doc.tokens[span.first_token : span.last_token + 1])

    # First pass: assign an rs3 id to every tree node.
    node_ids: dict[int, str] = {}
    group_id = next_group_id
    stack = [tree]
    ordered: list[NaryNode] = []
    while stack:
        node = stack.pop()
        ordered.append(node)
        if node.is_leaf:
            node_ids[id(node)] = str(segment_base + node.edu_index)  # type: ignore[operator]
        else:
            node_ids[id(node)] = str(group_id)
            group_id += 1
        stack.extend(node.children)

    # Second pass: emit nodes with their attachment edges.
    attach: dict[str, tuple[str, str]] = {}  # node id -> (parent id, relname)

    def representative(node: NaryNode) -> str:
        return node_ids[id(node)]

    for node in ordered:
        if node.is_leaf:
            continue
        label = node.label
        assert label is not None
        gid = node_ids[id(node)]
        if label.nuclearity is Nuclearity.NN:
            for child in node.children:
                attach[representative(child)] = (gid, label.relation)
        else:
            nucleus, satellite = (
                (node.children[0], node.children[1])
                if label.nuclearity is Nuclearity.NS
                else (node.children[1], node.children[0])
            )
            attach[representative(nucleus)] = (gid, "span")
            attach[representative(satellite)] = (representative(nucleus), label.relation)

    for node in ordered:
        nid = node_ids[id(node)]
        attrib = {"id": nid}
        if nid in attach:
            parent, relname = attach[nid]
            attrib["parent"] = parent
            attrib["relname"] = relname
        if node.is_leaf:
            entries.append(
                {"tag": "segment", "attrib": attrib, "text": edu_text(node.edu_index)}  # type: ignore[arg-type]
            )
        else:
            attrib["type"] = (
                "multinuc" if node.label.nuclearity is Nuclearity.NN else "span"  # type: ignore[union-attr]
            )
            # id/type first, then attachment, mirrors common rs3 layout
            ordered_attrib = {"id": attrib["id"], "type": attrib["type"]}
            ordered_attrib.update(
                {k: v for k, v in attrib.items() if k in ("parent", "relname")}
            )
            entries.append({"tag": "group", "attrib": ordered_attrib, "text": None})
    return group_id


# ---------------------------------------------------------------------------
# Bracketed tree strings
# ---------------------------------------------------------------------------

_TREE_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def tree_to_string(tree: RstTree) -> str:
    """Render a tree as ``(rel_NUC left right)`` with ``#k`` leaves."""
    out: list[str] = []
    stack: list[tuple[str, RstTree | None]] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "close":
            out.append(")")
        elif node.is_leaf:  # type: ignore[union-attr]
            out.append(f"#{node.edu_index}")  # type: ignore[union-attr]
        else:
            assert node is not None and node.label is not None
            out.append(f"({node.label.merged}")
            stack.append(("close", None))
            stack.append(("visit", node.right))
            stack.append(("visit", node.left))
    text = ""
    for piece in out:
        if text and not text.endswith("(") and piece != ")":
            text += " "
        text += piece
    return text


def tree_from_string(text: str) -> RstTree:
    """Parse the bracketed tree format produced by :func:`tree_to_string`."""
    tokens = _TREE_TOKEN_RE.findall(text)
    if "".join(tokens).replace(" ", "") != "".join(text.split()):
        raise RstError(f"cannot tokenize tree string: {text!r}")
    stack: list = []
    result: RstTree | None = None

    def reduce_node(items: list) -> RstTree:
        if len(items) != 3 or not isinstance(items[0], str):
            raise RstError("tree string: expected (label left right)")
        label, left, right = items
        return RstTree.internal(left, right, label)

    for tok in tokens:
        if tok == "(":
            stack.append("(")
        elif tok == ")":
            items = []
            while stack and stack[-1] != "(":
                items.append(stack.pop())
            if not stack:
                raise RstError("unbalanced ')' in tree string")
            stack.pop()
            node = reduce_node(items[::-1])
            if stack:
                stack.append(node)
            elif result is None:
                result = node
            else:
                raise RstError("multiple root nodes in tree string")
        elif tok.startswith("#"):
            try:
                leaf = RstTree.leaf(int(tok[1:]))
            except ValueError:
                raise RstError(f"bad leaf token {tok!r}") from None
            if stack:
                stack.append(leaf)
            elif result is None:
                result = leaf
            else:
                raise RstError("multiple root nodes in tree string")
        else:
            stack.append(tok)
    if stack or result is None:
        raise RstError(f"unbalanced tree string: {text!r}")
    return result


# ---------------------------------------------------------------------------
# Canonical record format (JSON lines)
# ---------------------------------------------------------------------------

_CANONICAL_FIELDS = ("id", "genre", "lang", "tokens", "edus", "tree", "sents", "split")


def record_to_json(doc: DocumentRecord) -> dict:
    return {
        "id": doc.doc_id,
        "genre": doc.genre,
        "lang": doc.lang,
        "tokens": [[t.text, t.char_start] for t in doc.tokens],
        "edus": [[e.first_token, e.last_token] for e in doc.edus],
        "tree": tree_to_string(doc.tree) if doc.tree is not None else None,
        "sents": list(doc.sentence_boundaries)
        if doc.sentence_boundaries is not None
        else None,
        "split": doc.split.value,
    }


def record_from_json(obj: dict) -> DocumentRecord:
    missing = [f for f in _CANONICAL_FIELDS if f not in obj]
    if missing:
        raise RstError(f"record is missing fields: {missing}")
    extra = [f for f in obj if f not in _CANONICAL_FIELDS]
    if extra:
        raise RstError(f"record has unknown fields: {extra}")
    tokens = tuple(
        Token(text, int(start), i) for i, (text, start) in enumerate(obj["tokens"])
    )
    edus = tuple(EduSpan(int(a), int(b)) for a, b in obj["edus"])
    tree = tree_from_string(obj["tree"]) if obj["tree"] is not None else None
    sents = tuple(int(s) for s in obj["sents"]) if obj["sents"] is not None else None
    return DocumentRecord(
        doc_id=obj["id"],
        genre=obj["genre"],
        lang=obj["lang"],
        tokens=tokens,
        edus=edus,
        tree=tree,
        sentence_boundaries=sents,
        split=Split(obj["split"]),
    )


def write_record(fh, doc: DocumentRecord) -> None:
    """Append one canonical line to an open text stream."""
    fh.write(json.dumps(record_to_json(doc), ensure_ascii=False))
    fh.write("\n")


def write_canonical(corpus: Corpus, path) -> None:
    """Write one JSON object per document, UTF-8, in corpus order."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            write_record(fh, doc)


def iter_canonical(path):
    """Stream documents from a canonical corpus file, one at a time.

    Raises SchemaViolation with the line number of the first offending
    record.  Memory stays bounded by the largest single document.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(line_number, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise SchemaViolation(line_number, "record is not a JSON object")
            try:
                yield record_from_json(obj)
            except (RstError, KeyError, TypeError, ValueError) as exc:
                raise SchemaViolation(line_number, str(exc)) from None


def read_canonical(path, name: str | None = None) -> Corpus:
    """Read a whole canonical corpus file; see :func:`iter_canonical`."""
    if name is None:
        name = _stem(path)
    return Corpus.from_documents(name, list(iter_canonical(path)))


def _stem(path) -> str:
    text = str(path)
    base = text.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def read_rs3_file(path) -> list[Rs3Component]:
    with open(path, "rb") as fh:
        return extract_forest(parse_rs3(fh.read()))


def read_sentence_file(path) -> dict[str, tuple[int, ...]]:
    """Read external sentence boundaries: ``doc_id<TAB>i0 i1 i2 ...`` lines."""
    table: dict[str, tuple[int, ...]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaViolation(line_number, "expected 'doc_id<TAB>indices'")
            try:
                bounds = tuple(int(x) for x in parts[1].split())
            except ValueError:
                raise SchemaViolation(line_number, "boundary indices must be ints") from None
            table[parts[0]] = bounds
    return table
