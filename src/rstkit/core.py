"""Core domain types for RST treebanks.

Documents are token sequences partitioned into elementary discourse units
(EDUs); a discourse tree is a strictly binary constituent tree whose leaves
are EDUs and whose internal nodes carry a relation plus a nuclearity pattern
(NN, NS or SN).  Spans are measured in token indices throughout.  A
document holds its tokens as two parallel tuples, the texts and their
character offsets; the offsets are kept only for serialization fidelity.

All types are immutable after construction and safe to share across threads.
Tree traversals are iterative so that very deep trees (e.g. right-branching
cascades over long documents) do not hit the interpreter recursion limit.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence


class RstError(Exception):
    """Base class for all errors raised by this package."""


def excerpt(text: str) -> str:
    """``text`` quoted for an error message, which must stay one short line:
    its length, then its first 60 characters."""
    head = f"{text[:60]!r}..." if len(text) > 60 else repr(text)
    return f"(length {len(text)}): {head}"


def check_sentence_starts(bounds: Sequence[int]) -> None:
    """Raise RstError unless the sentence-initial token indices ``bounds``
    start at 0 and strictly increase."""
    if not bounds or bounds[0] != 0:
        raise RstError("sentence boundaries must start at 0")
    if not all(map(lt, bounds, bounds[1:])):
        raise RstError("sentence boundaries must strictly increase")


class SchemaViolation(RstError):
    """A malformed line of an input file: ``<path>: line N: <message>``."""

    def __init__(self, path, line_number: int, message: str) -> None:
        super().__init__(f"{path}: line {line_number}: {message}")
        self.path = path
        self.line_number = line_number


class InputLines:
    """``with InputLines(path) as lines: for line in lines: ...`` reads the
    lines of a UTF-8 file, numbered from 1 and stripped, and skips blank
    ones.  An RstError raised in the block while a line is current (from
    when it is yielded until the next one is), and a line that is not
    UTF-8, leave the block as a SchemaViolation naming ``path`` and the
    line; other exceptions pass unchanged."""

    def __init__(self, path) -> None:
        self.path = path
        self.line_number = 0  # the current line; 0 before the first and after the last
        # Bytes that are not UTF-8 are read as lone surrogates, which UTF-8
        # cannot encode, so a bad line is found where it is, not read ahead.
        self._file = open(path, "r", encoding="utf-8", errors="surrogateescape")

    def __enter__(self) -> "InputLines":
        return self

    def __iter__(self) -> Iterator[str]:
        for self.line_number, line in enumerate(self._file, 1):
            line = line.strip()
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise RstError("not UTF-8") from None
            if line:
                yield line
        self.line_number = 0

    def __exit__(self, kind, error, traceback) -> None:
        self._file.close()
        if self.line_number and isinstance(error, RstError):
            raise SchemaViolation(self.path, self.line_number, str(error)) from None


# How a value type's ``__init__`` fills its slots past its own __setattr__.
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A subclass keeps its fields in ``__slots__``, names the ones it is
    built, compared and shown by in ``_fields`` (in ``__init__``'s order),
    and checks and sets them in its own ``__init__``: through ``_set``, or
    all at once by ``self._fill(locals())``.
    Assigning or deleting an attribute raises AttributeError.  ``==``
    holds between two instances of one class whose fields are equal, the
    hash is that of the fields' tuple, and ``repr`` reads
    ``Name(field=value, ...)``.  ``replace`` and pickling build through
    ``__init__``, so every check runs again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(  # the fields' tuple of an instance
            get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def _fill(self, values: dict) -> None:
        for name in self._fields:
            _set(self, name, values[name])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with the fields in ``changes`` changed, built by ``__init__``."""
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)


class Nuclearity(str, Enum):
    """Nuclearity pattern of a binary discourse relation."""

    NN = "NN"
    NS = "NS"
    SN = "SN"


# Reserved relation carried by the nucleus child of a mononuclear node when
# constituents are enumerated for evaluation.
SPAN_RELATION = "span"

_FORBIDDEN_RELATION_CHARS = set("()_ \t\r\n")

# The JSON type names of the values json.loads returns, for error messages.
JSON_TYPES = {type(None): "null", bool: "bool", int: "int", float: "float",
              str: "string", list: "array", dict: "object"}

# Shared RelationLabel instances by merged string; see from_merged.  Only
# well-formed strings are stored, and at most _INTERN_LIMIT of them.
_INTERNED: dict[str, "RelationLabel"] = {}
_INTERN_LIMIT = 4096


class RelationLabel(_Value):
    """A coarse relation name paired with a nuclearity pattern.

    Relation names are case-folded to lowercase, hold none of the
    characters ``()_``, space, tab, CR and LF, and do not start with ``#``,
    which marks a leaf in tree strings.  The nuclearity suffix is stored
    separately so that merged ``relation_NUC`` strings round-trip.
    ``merged``, the ``relation_NUC`` form (e.g. ``elaboration_NS``), is
    computed once on construction and takes no part in equality or repr.
    """

    __slots__ = ("relation", "nuclearity", "merged")
    _fields = ("relation", "nuclearity")

    def __init__(self, relation: str, nuclearity: Nuclearity | str) -> None:
        if not isinstance(nuclearity, Nuclearity):
            nuclearity = Nuclearity(nuclearity)
        relation = relation.strip().lower()
        if not relation:
            raise RstError("relation name must be non-empty")
        if any(ch in _FORBIDDEN_RELATION_CHARS for ch in relation):
            raise RstError(f"relation name {relation!r} contains a reserved character")
        if relation[0] == "#":  # tree strings mark a leaf with '#'
            raise RstError(f"relation name {relation!r} starts with '#'")
        _set(self, "relation", relation)
        _set(self, "nuclearity", nuclearity)
        _set(self, "merged", f"{relation}_{nuclearity.value}")

    @classmethod
    def from_merged(cls, merged: str) -> "RelationLabel":
        """Parse ``relation_NUC``; equal strings share one instance."""
        label = _INTERNED.get(merged)
        if label is None:
            relation, sep, suffix = merged.rpartition("_")
            if not sep or suffix not in Nuclearity.__members__:
                raise RstError(f"not a relation_NUC label {excerpt(merged)}")
            label = cls(relation, Nuclearity[suffix])
            if len(_INTERNED) < _INTERN_LIMIT:
                _INTERNED[merged] = label
        return label

    def __str__(self) -> str:
        return self.merged


class EduSpan(_Value):
    """Inclusive token-index span of one elementary discourse unit.

    A corpus read builds one span per EDU, so ``__init__`` fills the slots
    through their descriptors, as :class:`RstTree`'s builders do.
    """

    __slots__ = _fields = ("first_token", "last_token")

    def __init__(self, first_token: int, last_token: int) -> None:
        if first_token < 0 or first_token > last_token:
            raise RstError(f"invalid EDU span [{first_token}, {last_token}]")
        _set_first_token(self, first_token)
        _set_last_token(self, last_token)

    @property
    def n_tokens(self) -> int:
        return self.last_token - self.first_token + 1


_set_first_token = EduSpan.first_token.__set__  # type: ignore[attr-defined]
_set_last_token = EduSpan.last_token.__set__  # type: ignore[attr-defined]


class RstTree(_Value):
    """A strictly binary constituent tree over a contiguous EDU range.

    A node is either a leaf (``label`` and children are None, ``first_edu ==
    last_edu`` is the EDU index) or an internal node with exactly two children
    covering adjacent EDU ranges, built by :meth:`leaf` and :meth:`internal`;
    the EDU span of every node is cached on construction.

    Leaves below ``_INTERN_LIMIT`` are shared: ``RstTree.leaf(i) is
    RstTree.leaf(i)``, and every tree over EDU ``i`` holds that one node.
    Node identity therefore means nothing across trees; an ``id()`` key is
    only safe within one tree, where each leaf occurs once.

    ``internal`` is the one builder of internal nodes (a string label is
    parsed): it checks what a caller can get wrong (two children, a label,
    adjacent children), then fills the slots of an ``object.__new__`` node
    through their descriptors, as a corpus read builds a node per relation
    and ``__init__`` would add a frame and a span check.  ``__init__``
    serves ``replace`` and direct callers, and stores the label that
    ``internal`` parsed.  Trees compare by structure and are unhashable.
    """

    __slots__ = _fields = ("first_edu", "last_edu", "label", "left", "right")

    def __init__(
        self,
        first_edu: int,
        last_edu: int,
        label: RelationLabel | None = None,
        left: "RstTree | None" = None,
        right: "RstTree | None" = None,
    ) -> None:
        if left is None and right is None:
            if label is not None:
                raise RstError("leaves carry no relation label")
            if first_edu != last_edu or first_edu < 0:
                raise RstError("leaf span must be a single EDU index")
        else:
            node = RstTree.internal(left, right, label)  # type: ignore[arg-type]
            if first_edu != node.first_edu or last_edu != node.last_edu:
                raise RstError("cached span != union of children")
            label = node.label
        _set_first_edu(self, first_edu)
        _set_last_edu(self, last_edu)
        _set_label(self, label)
        _set_left(self, left)
        _set_right(self, right)

    @classmethod
    def leaf(cls, edu_index: int) -> "RstTree":
        """The leaf over EDU ``edu_index``, shared below ``_INTERN_LIMIT``."""
        if type(edu_index) is int and 0 <= edu_index < _INTERN_LIMIT:
            leaves = _LEAVES
            if edu_index >= len(leaves):
                leaves = _grow_leaves(edu_index)
            return leaves[edu_index]
        return cls(edu_index, edu_index)

    @classmethod
    def internal(
        cls, left: "RstTree", right: "RstTree", label: RelationLabel | str
    ) -> "RstTree":
        if isinstance(label, str):
            label = RelationLabel.from_merged(label)
        if left is None or right is None:
            raise RstError("internal nodes need exactly two children")
        if label is None:
            raise RstError("internal nodes must carry a label")
        if left.last_edu + 1 != right.first_edu:
            raise RstError(f"left child ends at EDU {left.last_edu}, right "
                           f"child starts at EDU {right.first_edu}")
        node = _new_node(cls)
        _set_first_edu(node, left.first_edu)
        _set_last_edu(node, right.last_edu)
        _set_label(node, label)
        _set_left(node, left)
        _set_right(node, right)
        return node

    @property
    def is_leaf(self) -> bool:
        return self.left is None

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
        """Pre-order traversal over internal nodes; leaves are never pushed."""
        stack = [self] if self.left is not None else []
        while stack:
            node = stack.pop()
            yield node
            if node.right.left is not None:  # type: ignore[union-attr]
                stack.append(node.right)  # type: ignore[arg-type]
            if node.left.left is not None:  # type: ignore[union-attr]
                stack.append(node.left)  # type: ignore[arg-type]

    def token_span(self, edus: Sequence[EduSpan]) -> tuple[int, int]:
        """Inclusive token span of this node over the document's ``edus``."""
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


# Slot setters for RstTree's builders; they bypass the frozen __setattr__.
_new_node = object.__new__
_set_first_edu = RstTree.first_edu.__set__  # type: ignore[attr-defined]
_set_last_edu = RstTree.last_edu.__set__  # type: ignore[attr-defined]
_set_label = RstTree.label.__set__  # type: ignore[attr-defined]
_set_left = RstTree.left.__set__  # type: ignore[attr-defined]
_set_right = RstTree.right.__set__  # type: ignore[attr-defined]

# Shared leaves by EDU index; see RstTree.leaf.  Concurrent decodes may grow
# it at once, so it is only replaced by a longer tuple, never appended to:
# a lost update costs sharing, never a wrong leaf.
_LEAVES: tuple[RstTree, ...] = ()


def _grow_leaves(edu_index: int) -> tuple[RstTree, ...]:
    global _LEAVES
    leaves = _LEAVES
    size = min(max(edu_index + 1, 2 * len(leaves)), _INTERN_LIMIT)
    leaves = _LEAVES = leaves + tuple(RstTree(i, i) for i in range(len(leaves), size))
    return leaves


class Constituent(_Value):
    """One evaluation unit: a labeled, role-annotated token span.

    ``role`` is the node's nuclearity role under its parent ("N" or "S");
    ``relation`` is the relation the node carries under the mononuclear
    convention (satellite carries the relation name, nucleus carries
    ``"span"``; under NN both children carry the relation).
    """

    __slots__ = _fields = ("first_token", "last_token", "role", "relation")

    def __init__(self, first_token: int, last_token: int, role: str, relation: str) -> None:
        self._fill(locals())

    @property
    def span(self) -> tuple[int, int]:
        return self.first_token, self.last_token


def enumerate_constituents(tree: RstTree, edus: Sequence[EduSpan]) -> list[Constituent]:
    """List evaluation constituents over the document's ``edus``, ordered
    by (span start, span length).

    One entry is produced per non-root node; the root is not counted.
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
    entries.sort(key=lambda c: (c.first_token, c.last_token - c.first_token))
    return entries


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


_LANGUAGE_TAGS = ("en", "ru", "other")


class DocumentRecord(_Value):
    """One document: tokens, gold EDU segmentation and (optionally) a tree.

    ``doc_id`` is a non-empty ``str`` and ``genre`` a ``str``.  Token ``i``
    is the non-empty string ``tokens[i]`` starting at character
    ``char_starts[i]``; offsets are non-negative ``int`` (not ``bool``) and
    strictly increase.  EDU spans must partition the token sequence;
    sentence boundaries, when present, are sentence-initial token indices
    starting with 0.  ``__init__`` stores the sequences as tuples, then
    ``__post_init__`` checks the record.
    """

    __slots__ = _fields = ("doc_id", "genre", "lang", "tokens", "char_starts",
                           "edus", "tree", "sentence_boundaries", "split")

    def __init__(self, doc_id: str, genre: str, lang: str, tokens: Sequence[str],
                 char_starts: Sequence[int], edus: Sequence[EduSpan],
                 tree: RstTree | None = None,
                 sentence_boundaries: Sequence[int] | None = None,
                 split: Split | str = Split.TRAIN) -> None:
        _set(self, "doc_id", doc_id)
        _set(self, "genre", genre)
        _set(self, "lang", lang)
        _set(self, "tokens", tuple(tokens))
        _set(self, "char_starts", tuple(char_starts))
        _set(self, "edus", tuple(edus))
        _set(self, "tree", tree)
        if sentence_boundaries is not None:
            sentence_boundaries = tuple(sentence_boundaries)
        _set(self, "sentence_boundaries", sentence_boundaries)
        _set(self, "split", split if isinstance(split, Split) else Split(split))
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise RstError(f"document id must be a non-empty string, got {self.doc_id!r}")
        if not isinstance(self.genre, str):
            raise RstError(f"{self.doc_id}: genre must be a string, got {self.genre!r}")
        if self.lang not in _LANGUAGE_TAGS:
            raise RstError(f"unknown language tag {self.lang!r}")
        # One C-level pass per rule over the two token columns.
        texts, starts = self.tokens, self.char_starts
        if not texts:
            raise RstError(f"{self.doc_id}: document has no tokens")
        if len(texts) != len(starts):
            raise RstError(f"{self.doc_id}: token texts and offsets differ in length")
        try:
            "".join(texts)  # raises TypeError at a token that is not a string
            if "" in texts:
                raise TypeError
        except TypeError:
            raise RstError(f"{self.doc_id}: token texts must be non-empty strings") from None
        if set(map(type, starts)) != {int} or starts[0] < 0:  # bool is not an offset
            raise RstError(f"{self.doc_id}: char offsets must be non-negative ints")
        if not all(map(lt, starts, starts[1:])):
            raise RstError(f"{self.doc_id}: char offsets not increasing")
        _check_edu_partition(self.edus, len(texts), self.doc_id)
        if self.tree is not None:
            self._check_tree(self.tree)
        if self.sentence_boundaries is not None:
            self.check_sentence_boundaries(self.sentence_boundaries)

    def with_tree(self, tree: RstTree) -> "DocumentRecord":
        """This document with ``tree`` in place of its own.

        Equal to ``self.replace(tree=tree)``, but only the tree is checked
        (one leaf per EDU, starting at EDU 0): every other field is this
        record's, which construction has already checked.
        """
        self._check_tree(tree)
        record = object.__new__(DocumentRecord)
        for name in DocumentRecord.__slots__:
            _set(record, name, getattr(self, name))
        _set(record, "tree", tree)
        return record

    def _check_tree(self, tree: RstTree) -> None:
        if tree.n_leaves != len(self.edus):
            raise RstError(
                f"{self.doc_id}: tree has {tree.n_leaves} leaves "
                f"but document has {len(self.edus)} EDUs"
            )
        if tree.first_edu != 0:
            raise RstError(f"{self.doc_id}: tree must start at EDU 0")

    def check_sentence_boundaries(self, bounds: Sequence[int]) -> None:
        """Raise RstError naming the document unless ``bounds`` pass
        :func:`check_sentence_starts` and stay below the token count."""
        try:
            check_sentence_starts(bounds)
        except RstError as exc:
            raise RstError(f"{self.doc_id}: {exc}") from None
        if bounds[-1] >= len(self.tokens):
            raise RstError(f"{self.doc_id}: bad sentence boundaries")

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)


def _check_edu_partition(edus: Sequence[EduSpan], n_tokens: int, owner: str) -> None:
    """Raise RstError, its message starting ``owner: ``, unless ``edus`` are
    non-empty and tile the tokens 0 .. n_tokens - 1 in order."""
    if not edus:
        raise RstError(f"{owner}: document has no EDUs")
    expected = 0
    for edu in edus:
        if edu.first_token != expected:
            raise RstError(
                f"{owner}: EDU spans do not partition the tokens "
                f"(expected start {expected}, got {edu.first_token})"
            )
        expected = edu.last_token + 1
    if expected != n_tokens:
        raise RstError(f"{owner}: EDUs cover {expected} tokens, document has {n_tokens}")


class Corpus(_Value):
    """The documents of one corpus, in order; no two share an id.

    Tree labels are not checked against any inventory here: the decoder's
    ``DecodeConfig`` holds the only label inventory of the package.
    """

    __slots__ = _fields = ("documents",)

    def __init__(self, documents: Iterable[DocumentRecord]) -> None:
        _set(self, "documents", tuple(documents))
        self.__post_init__()

    def __post_init__(self) -> None:
        ids = [doc.doc_id for doc in self.documents]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise RstError(f"duplicate document ids: {dup}")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[DocumentRecord]:
        return iter(self.documents)
