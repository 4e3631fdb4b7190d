"""Core domain types for RST treebanks.

Documents are token sequences partitioned into elementary discourse units
(EDUs); a discourse tree is a strictly binary constituent tree whose leaves
are EDUs and whose internal nodes carry a relation plus a nuclearity pattern
(NN, NS or SN).  Spans are measured in token indices throughout; character
offsets are kept on tokens only for serialization fidelity.

All types are immutable after construction and safe to share across threads.
Tree traversals are iterative so that very deep trees (e.g. right-branching
cascades over long documents) do not hit the interpreter recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence, Union


class RstError(Exception):
    """Base class for all errors raised by this package."""


class NonBinaryNode(RstError):
    """A constituent description does not describe a binary node."""


class NonContiguousChildren(RstError):
    """Sibling subtrees do not cover adjacent EDU ranges in order."""


class DuplicateLeaf(RstError):
    """An EDU index occurs more than once in a tree description."""


class MissingTree(RstError):
    """An operation requiring a tree was called on a tree-less document."""


class LabelParseError(RstError):
    """A merged ``relation_NUC`` label string could not be parsed."""


class DimensionMismatch(RstError):
    """Array or vector sizes disagree with the expected dimensions."""


class Nuclearity(str, Enum):
    """Nuclearity pattern of a binary discourse relation."""

    NN = "NN"
    NS = "NS"
    SN = "SN"


# Reserved relation carried by the nucleus child of a mononuclear node when
# constituents are enumerated for evaluation.
SPAN_RELATION = "span"

_FORBIDDEN_RELATION_CHARS = set("()_ \t\r\n")


@dataclass(frozen=True, slots=True)
class RelationLabel:
    """A coarse relation name paired with a nuclearity pattern.

    Relation names are case-folded to lowercase; the nuclearity suffix is
    stored separately so that merged ``relation_NUC`` strings round-trip.
    """

    relation: str
    nuclearity: Nuclearity

    def __post_init__(self) -> None:
        if not isinstance(self.nuclearity, Nuclearity):
            object.__setattr__(self, "nuclearity", Nuclearity(self.nuclearity))
        relation = self.relation.strip().lower()
        if not relation:
            raise LabelParseError("relation name must be non-empty")
        if any(ch in _FORBIDDEN_RELATION_CHARS for ch in relation):
            raise LabelParseError(
                f"relation name {relation!r} contains a reserved character"
            )
        object.__setattr__(self, "relation", relation)

    @property
    def merged(self) -> str:
        """The merged ``relation_NUC`` form, e.g. ``elaboration_NS``."""
        return f"{self.relation}_{self.nuclearity.value}"

    @classmethod
    def from_merged(cls, merged: str) -> "RelationLabel":
        relation, sep, suffix = merged.rpartition("_")
        if not sep or suffix not in Nuclearity.__members__:
            raise LabelParseError(f"not a relation_NUC label: {merged!r}")
        return cls(relation, Nuclearity[suffix])

    def __str__(self) -> str:
        return self.merged


def merge_label(relation: str, nuclearity: Union[Nuclearity, str]) -> str:
    """Merge a relation name and nuclearity into a single label string."""
    return RelationLabel(relation, Nuclearity(nuclearity)).merged


def split_label(merged: str) -> tuple[str, Nuclearity]:
    """Inverse of :func:`merge_label`; raises LabelParseError if malformed."""
    label = RelationLabel.from_merged(merged)
    return label.relation, label.nuclearity


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    char_start: int
    index: int

    def __post_init__(self) -> None:
        if not self.text:
            raise RstError("token text must be non-empty")
        if self.char_start < 0 or self.index < 0:
            raise RstError("token offsets must be non-negative")


@dataclass(frozen=True, slots=True)
class EduSpan:
    """Inclusive token-index span of one elementary discourse unit."""

    first_token: int
    last_token: int

    def __post_init__(self) -> None:
        if self.first_token < 0 or self.first_token > self.last_token:
            raise RstError(
                f"invalid EDU span [{self.first_token}, {self.last_token}]"
            )

    @property
    def n_tokens(self) -> int:
        return self.last_token - self.first_token + 1


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class RstTree:
    """A strictly binary constituent tree over a contiguous EDU range.

    A node is either a leaf (``label`` and children are None, ``first_edu ==
    last_edu`` is the EDU index) or an internal node with exactly two children
    covering adjacent EDU ranges.  Use :meth:`leaf` and :meth:`internal` to
    construct nodes; the EDU span of every node is cached on construction.
    """

    first_edu: int
    last_edu: int
    label: RelationLabel | None = None
    left: "RstTree | None" = None
    right: "RstTree | None" = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise NonBinaryNode("internal nodes need exactly two children")
        if self.left is None:
            if self.label is not None:
                raise NonBinaryNode("leaves carry no relation label")
            if self.first_edu != self.last_edu or self.first_edu < 0:
                raise RstError("leaf span must be a single EDU index")
        else:
            assert self.right is not None
            if self.label is None:
                raise NonBinaryNode("internal nodes must carry a label")
            if self.left.last_edu + 1 != self.right.first_edu:
                raise NonContiguousChildren(
                    f"left child ends at EDU {self.left.last_edu}, right "
                    f"child starts at EDU {self.right.first_edu}"
                )
            if (self.first_edu, self.last_edu) != (
                self.left.first_edu,
                self.right.last_edu,
            ):
                raise NonContiguousChildren("cached span != union of children")

    @classmethod
    def leaf(cls, edu_index: int) -> "RstTree":
        return cls(edu_index, edu_index)

    @classmethod
    def internal(
        cls, left: "RstTree", right: "RstTree", label: RelationLabel | str
    ) -> "RstTree":
        if isinstance(label, str):
            label = RelationLabel.from_merged(label)
        return cls(left.first_edu, right.last_edu, label, left, right)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def edu_index(self) -> int:
        if not self.is_leaf:
            raise RstError("edu_index is only defined for leaves")
        return self.first_edu

    @property
    def n_leaves(self) -> int:
        return self.last_edu - self.first_edu + 1

    @property
    def n_internal(self) -> int:
        return self.n_leaves - 1

    def nodes(self) -> Iterator["RstTree"]:
        """Pre-order traversal over all nodes (iterative)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)

    def internal_nodes(self) -> Iterator["RstTree"]:
        return (node for node in self.nodes() if not node.is_leaf)

    def leaves(self) -> Iterator["RstTree"]:
        return (node for node in self.nodes() if node.is_leaf)

    def depth(self) -> int:
        """Maximum number of edges from the root to any leaf."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                best = max(best, d)
            else:
                stack.append((node.left, d + 1))  # type: ignore[arg-type]
                stack.append((node.right, d + 1))  # type: ignore[arg-type]
        return best

    def token_span(self, edus: Sequence[EduSpan] | None = None) -> tuple[int, int]:
        """Inclusive token span of this node.

        Without ``edus`` each EDU counts as a single pseudo-token, i.e. the
        EDU-index span is returned.
        """
        if edus is None:
            return self.first_edu, self.last_edu
        return edus[self.first_edu].first_token, edus[self.last_edu].last_token

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RstTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                a.first_edu != b.first_edu
                or a.last_edu != b.last_edu
                or a.label != b.label
                or a.is_leaf != b.is_leaf
            ):
                return False
            if not a.is_leaf:
                stack.append((a.left, b.left))  # type: ignore[arg-type]
                stack.append((a.right, b.right))  # type: ignore[arg-type]
        return True

    def __repr__(self) -> str:
        kind = "Leaf" if self.is_leaf else f"Internal[{self.label}]"
        return f"RstTree<{kind} edus {self.first_edu}..{self.last_edu}>"


# A tree description is an int (leaf EDU index) or a (left, right, label)
# triple; labels may be RelationLabel instances or merged strings.
TreeDescription = Union[int, RelationLabel, str, tuple, list]


def build_tree(description: TreeDescription) -> RstTree:
    """Build an :class:`RstTree` from a nested constituent description.

    Leaves are written as plain EDU indices and internal nodes as
    ``(left, right, label)`` triples, e.g. ``((0, 1, "joint_NN"), 2,
    "elaboration_NS")``.  Raises NonBinaryNode for malformed nesting,
    DuplicateLeaf for repeated EDU indices and NonContiguousChildren when
    sibling ranges are not adjacent and in order.
    """
    _check_duplicate_leaves(description)
    # Iterative post-order construction; frames are (description, children).
    result: list[RstTree] = []
    stack: list[tuple] = [("build", description)]
    while stack:
        op, payload = stack.pop()
        if op == "build":
            if isinstance(payload, (bool,)):
                raise NonBinaryNode(f"not a constituent description: {payload!r}")
            if isinstance(payload, int):
                result.append(RstTree.leaf(payload))
            elif isinstance(payload, (tuple, list)):
                if len(payload) != 3:
                    raise NonBinaryNode(
                        f"expected (left, right, label), got {len(payload)} items"
                    )
                left, right, label = payload
                stack.append(("combine", label))
                stack.append(("build", right))
                stack.append(("build", left))
            else:
                raise NonBinaryNode(
                    f"not a constituent description: {payload!r}"
                )
        else:  # combine
            label = payload
            if isinstance(label, str):
                label = RelationLabel.from_merged(label)
            if not isinstance(label, RelationLabel):
                raise NonBinaryNode(f"not a relation label: {payload!r}")
            right = result.pop()
            left = result.pop()
            result.append(RstTree.internal(left, right, label))
    (tree,) = result
    return tree


def _check_duplicate_leaves(description: TreeDescription) -> None:
    seen: set[int] = set()
    stack = [description]
    while stack:
        item = stack.pop()
        if isinstance(item, int) and not isinstance(item, bool):
            if item in seen:
                raise DuplicateLeaf(f"EDU index {item} used twice")
            seen.add(item)
        elif isinstance(item, (tuple, list)) and len(item) == 3:
            stack.extend(item[:2])


def describe(tree: RstTree) -> TreeDescription:
    """Inverse of :func:`build_tree`: ``build_tree(describe(t)) == t``."""
    result: list[TreeDescription] = []
    stack: list[tuple] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "visit":
            if node.is_leaf:
                result.append(node.edu_index)
            else:
                stack.append(("combine", node))
                stack.append(("visit", node.right))
                stack.append(("visit", node.left))
        else:
            right = result.pop()
            left = result.pop()
            result.append((left, right, node.label.merged))
    (description,) = result
    return description


@dataclass(frozen=True, slots=True)
class Constituent:
    """One evaluation unit: a labeled, role-annotated token span.

    ``role`` is the node's nuclearity role under its parent ("N" or "S");
    ``relation`` is the relation the node carries under the mononuclear
    convention (satellite carries the relation name, nucleus carries
    ``"span"``; under NN both children carry the relation).
    """

    first_token: int
    last_token: int
    role: str
    relation: str

    @property
    def span(self) -> tuple[int, int]:
        return self.first_token, self.last_token


def enumerate_constituents(
    tree: RstTree,
    edus: Sequence[EduSpan] | None = None,
    include_root: bool = False,
) -> list[Constituent]:
    """List evaluation constituents, ordered by (span start, span length).

    One entry is produced per non-root node.  ``include_root`` adds a
    ``(root span, N, span)`` entry, for sensitivity checks against scoring
    schemes that count the root; the default convention excludes it.
    """
    entries: list[Constituent] = []
    for node in tree.internal_nodes():
        assert node.label is not None
        rel = node.label.relation
        nuc = node.label.nuclearity
        if nuc is Nuclearity.NN:
            roles = (("N", rel), ("N", rel))
        elif nuc is Nuclearity.NS:
            roles = (("N", SPAN_RELATION), ("S", rel))
        else:
            roles = (("S", rel), ("N", SPAN_RELATION))
        for child, (role, carried) in zip((node.left, node.right), roles):
            start, end = child.token_span(edus)  # type: ignore[union-attr]
            entries.append(Constituent(start, end, role, carried))
    if include_root:
        start, end = tree.token_span(edus)
        entries.append(Constituent(start, end, "N", SPAN_RELATION))
    entries.sort(key=lambda c: (c.first_token, c.last_token - c.first_token))
    return entries


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


_LANGUAGE_TAGS = ("en", "ru", "other")


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """One document: tokens, gold EDU segmentation and (optionally) a tree.

    EDU spans must partition the token sequence; sentence boundaries, when
    present, are sentence-initial token indices starting with 0.
    """

    doc_id: str
    genre: str
    lang: str
    tokens: tuple[Token, ...]
    edus: tuple[EduSpan, ...]
    tree: RstTree | None = None
    sentence_boundaries: tuple[int, ...] | None = None
    split: Split = Split.TRAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "edus", tuple(self.edus))
        if not isinstance(self.split, Split):
            object.__setattr__(self, "split", Split(self.split))
        if self.sentence_boundaries is not None:
            object.__setattr__(
                self, "sentence_boundaries", tuple(self.sentence_boundaries)
            )
        if not self.doc_id:
            raise RstError("document id must be non-empty")
        if self.lang not in _LANGUAGE_TAGS:
            raise RstError(f"unknown language tag {self.lang!r}")
        if not self.tokens:
            raise RstError(f"{self.doc_id}: document has no tokens")
        for i, token in enumerate(self.tokens):
            if token.index != i:
                raise RstError(f"{self.doc_id}: token index {token.index} != {i}")
            if i and token.char_start <= self.tokens[i - 1].char_start:
                raise RstError(f"{self.doc_id}: char offsets not increasing")
        self._check_edu_partition()
        if self.tree is not None:
            if self.tree.n_leaves != len(self.edus):
                raise RstError(
                    f"{self.doc_id}: tree has {self.tree.n_leaves} leaves "
                    f"but document has {len(self.edus)} EDUs"
                )
            if self.tree.first_edu != 0:
                raise RstError(f"{self.doc_id}: tree must start at EDU 0")
        if self.sentence_boundaries is not None:
            bounds = self.sentence_boundaries
            if not bounds or bounds[0] != 0:
                raise RstError(f"{self.doc_id}: sentence boundaries must start at 0")
            if list(bounds) != sorted(set(bounds)) or bounds[-1] >= len(self.tokens):
                raise RstError(f"{self.doc_id}: bad sentence boundaries")

    def _check_edu_partition(self) -> None:
        if not self.edus:
            raise RstError(f"{self.doc_id}: document has no EDUs")
        expected = 0
        for edu in self.edus:
            if edu.first_token != expected:
                raise RstError(
                    f"{self.doc_id}: EDU spans do not partition the tokens "
                    f"(expected start {expected}, got {edu.first_token})"
                )
            expected = edu.last_token + 1
        if expected != len(self.tokens):
            raise RstError(
                f"{self.doc_id}: EDUs cover {expected} tokens, "
                f"document has {len(self.tokens)}"
            )

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    def token_texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def edu_boundaries(self) -> set[int]:
        """EDU-initial token indices excluding the forced document start."""
        return {edu.first_token for edu in self.edus} - {0}

    def sentence_spans(self) -> list[tuple[int, int]]:
        if self.sentence_boundaries is None:
            raise RstError(f"{self.doc_id}: no sentence boundaries")
        bounds = list(self.sentence_boundaries) + [len(self.tokens)]
        return [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]


@dataclass(frozen=True, slots=True)
class TreeStats:
    edu_count: int
    token_count: int
    depth: int


def tree_stats(doc: DocumentRecord) -> TreeStats:
    """Per-document tree statistics; raises MissingTree without a tree."""
    if doc.tree is None:
        raise MissingTree(f"{doc.doc_id} has no tree")
    first, last = doc.tree.token_span(doc.edus)
    return TreeStats(
        edu_count=doc.tree.n_leaves,
        token_count=last - first + 1,
        depth=doc.tree.depth(),
    )


@dataclass(frozen=True, slots=True)
class Corpus:
    """A named set of documents plus the registered relation inventory.

    The inventory is the sorted set of merged ``relation_NUC`` labels; every
    tree label in the corpus must be registered.
    """

    name: str
    documents: tuple[DocumentRecord, ...]
    relation_inventory: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        object.__setattr__(
            self, "relation_inventory", tuple(self.relation_inventory)
        )
        ids = [doc.doc_id for doc in self.documents]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise RstError(f"duplicate document ids: {dup}")
        known = set(self.relation_inventory)
        for doc in self.documents:
            if doc.tree is None:
                continue
            for node in doc.tree.internal_nodes():
                merged = node.label.merged  # type: ignore[union-attr]
                if merged not in known:
                    raise RstError(
                        f"{doc.doc_id}: label {merged} not in the inventory"
                    )

    @classmethod
    def from_documents(
        cls, name: str, documents: Sequence[DocumentRecord]
    ) -> "Corpus":
        """Build a corpus whose inventory is the observed label set."""
        observed: set[str] = set()
        for doc in documents:
            if doc.tree is not None:
                for node in doc.tree.internal_nodes():
                    observed.add(node.label.merged)  # type: ignore[union-attr]
        return cls(name, tuple(documents), tuple(sorted(observed)))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[DocumentRecord]:
        return iter(self.documents)

    def get(self, doc_id: str) -> DocumentRecord:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise KeyError(doc_id)
