"""Top-down span-splitting construction of binary discourse trees.

The decoder is independent of any learned scorer: it consumes a
ScoreProvider, which answers two queries over half-open EDU ranges:

* ``split_scores(i, j)``  -> vector of length j-i-1, entry k scoring the
  split between positions i+k and i+k+1;
* ``label_scores(left, right)`` -> vector over the merged label inventory
  for the relation attached at the freshly split node.

Scores are treated as log-domain values and summed along decisions;
providers emitting probabilities must pre-log them.

Greedy and beam decoding are one search.  A path is a partial tree that
grows by splitting its leftmost pending range; every tree over n EDUs has
n-1 internal nodes, so the search runs exactly n-1 steps.  Each step
expands every path over its split points, keeps the top-w candidates by
accumulated score, and commits each survivor to its argmax label.  Other
labelings are dominated (label scores are additive and local), so dropping
them loses nothing; with a beam at least as wide as the number of binary
shapes, the search is exhaustive.  Greedy decoding is width 1.  Ties break
deterministically: earlier split point first, then lower label index;
across paths, the earlier decision sequence wins.  Paths share their
history through parent pointers, so no step copies it.

Pruning on partial scores can drop the greedy path, so a beam may end below
greedy.  decode() therefore also runs width 1 and keeps that tree when it
scores strictly higher: widening the beam never loses to greedy.

decode() is pure; documents can be decoded in parallel as long as the
provider is safe for concurrent read-only queries.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import EduSpan, RelationLabel, RstError, RstTree
from .crf import labels_to_edus

__all__ = [
    "ScoreProvider",
    "DecodeConfig",
    "ProviderLengthMismatch",
    "MissingScore",
    "decode",
    "decode_with_segmentation",
    "tree_score",
    "OracleProvider",
    "RightBranchingProvider",
    "ScoreTable",
]


class ProviderLengthMismatch(RstError):
    """A provider returned a vector of the wrong length."""


class MissingScore(RstError):
    """An external score file lacks an entry the decoder asked for."""


class ScoreProvider(ABC):
    """Contract for split and label scorers over EDU index ranges."""

    @abstractmethod
    def split_scores(self, start: int, end: int) -> Sequence[float]:
        """Scores for splitting [start, end) at start+1 .. end-1."""

    @abstractmethod
    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> Sequence[float]:
        """Scores over the label inventory for joining left and right."""


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding strategy plus the merged label inventory.

    ``relations`` holds the inventory parsed once, so a malformed label is
    rejected here rather than when a tree first uses it.
    """

    labels: tuple[str, ...]
    strategy: str = "greedy"  # "greedy" | "beam"
    beam_width: int = 1
    relations: tuple[RelationLabel, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise RstError("decode config needs a label inventory")
        if len(set(self.labels)) != len(self.labels):
            repeated = sorted({x for x in self.labels if self.labels.count(x) > 1})
            raise RstError(f"label inventory repeats {repeated}")
        if self.strategy not in ("greedy", "beam"):
            raise RstError(f"unknown strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise RstError("beam width must be >= 1")
        if self.strategy == "greedy" and self.beam_width > 1:
            raise RstError(
                f"greedy decoding has beam width 1, got {self.beam_width}"
            )
        object.__setattr__(
            self, "relations", tuple(map(RelationLabel.from_merged, self.labels))
        )


def _splits(provider: ScoreProvider, start: int, end: int) -> np.ndarray:
    scores = np.asarray(provider.split_scores(start, end), dtype=float)
    if scores.shape != (end - start - 1,):
        raise ProviderLengthMismatch(
            f"split_scores({start}, {end}) must have length {end - start - 1}, "
            f"got shape {scores.shape}"
        )
    return scores


def _labels(
    provider: ScoreProvider,
    left: tuple[int, int],
    right: tuple[int, int],
    n_labels: int,
) -> np.ndarray:
    scores = np.asarray(provider.label_scores(left, right), dtype=float)
    if scores.shape != (n_labels,):
        raise ProviderLengthMismatch(
            f"label_scores({left}, {right}) must have length {n_labels}, "
            f"got shape {scores.shape}"
        )
    return scores


class _Path(NamedTuple):
    """A partial tree: its last decision and the path it extends."""

    score: float
    decision: tuple[int, int, int, int] | None  # (start, end, split, label)
    parent: _Path | None
    pending: tuple | None  # cons list ((start, end), rest), leftmost first
    rank: int  # position in lexicographic decision order within its beam


def _search(
    n: int, provider: ScoreProvider, labels: Sequence[str], width: int
) -> _Path:
    """Best complete path over n >= 2 EDUs among the top ``width`` kept
    at each step."""
    beam = [_Path(0.0, None, None, ((0, n), None), 0)]
    for _ in range(n - 1):
        # All paths have taken the same number of decisions, so ordering
        # by (-score, decision sequence) is ordering by (-score, parent
        # rank, split).  Only a path's own top-w splits can survive.
        candidates = []
        for path in beam:
            (start, end), _ = path.pending
            neg = -path.score - _splits(provider, start, end)
            for k in neg.argsort(kind="stable")[:width].tolist():
                candidates.append((float(neg[k]), path.rank, start + 1 + k, path))
        candidates.sort()
        survivors = candidates[:width]
        ranks = sorted((parent_rank, split) for _, parent_rank, split, _ in survivors)
        rank_of = {key: rank for rank, key in enumerate(ranks)}
        beam = []
        for neg_score, parent_rank, split, parent in survivors:
            (start, end), pending = parent.pending
            label_scores = _labels(provider, (start, split), (split, end), len(labels))
            label = int(label_scores.argmax())
            if end - split >= 2:
                pending = ((split, end), pending)
            if split - start >= 2:
                pending = ((start, split), pending)
            score = -neg_score + float(label_scores[label])
            beam.append(_Path(score, (start, end, split, label), parent, pending,
                              rank_of[(parent_rank, split)]))
        beam.sort(key=lambda p: (-p.score, p.parent.rank, p.decision[2]))
    return beam[0]


def _tree(path: _Path, relations: Sequence[RelationLabel]) -> RstTree:
    # The parent chain yields decisions in reverse pre-order: a node comes
    # after both its subtrees, and its left subtree was finished last.
    built: list[RstTree] = []
    while path.decision is not None:
        start, end, split, label = path.decision
        left = built.pop() if split - start >= 2 else RstTree.leaf(start)
        right = built.pop() if end - split >= 2 else RstTree.leaf(split)
        built.append(RstTree.internal(left, right, relations[label]))
        path = path.parent
    return built.pop()


def decode(n: int, provider: ScoreProvider, config: DecodeConfig) -> RstTree:
    """Build the tree over n EDUs selected by the provider's scores.

    Deterministic given provider and config; a single EDU yields a bare
    leaf without querying the provider.
    """
    if n < 1:
        raise RstError("cannot decode an empty document")
    if n == 1:
        return RstTree.leaf(0)
    best = _search(n, provider, config.labels, 1)
    if config.beam_width > 1:
        beam = _search(n, provider, config.labels, config.beam_width)
        if not best.score > beam.score:  # greedy wins only when strictly better
            best = beam
    return _tree(best, config.relations)


def decode_with_segmentation(
    tokens: Sequence[str],
    segment_labels: Sequence[str],
    provider: ScoreProvider,
    config: DecodeConfig,
) -> tuple[tuple[EduSpan, ...], RstTree]:
    """Compose segmentation output with tree construction.

    ``segment_labels`` is a {B, I} sequence over the tokens (e.g. a CRF
    prediction); the tree is decoded over the resulting EDUs, whose token
    offsets locate the tree's constituents in the document.
    """
    if len(segment_labels) != len(tokens):
        raise RstError(
            f"{len(segment_labels)} labels for {len(tokens)} tokens"
        )
    edus = labels_to_edus(segment_labels)
    return edus, decode(len(edus), provider, config)


def tree_score(
    tree: RstTree, provider: ScoreProvider, labels: Sequence[str]
) -> float:
    """Accumulated log-score of a tree under a provider.

    Sums the split score and label score of every internal node, walking
    nodes in a fixed order so equal trees always produce bit-identical
    totals.
    """
    label_index = {name: i for i, name in enumerate(labels)}
    total = 0.0
    for node in sorted(
        tree.internal_nodes(), key=lambda nd: (nd.first_edu, nd.last_edu)
    ):
        start, end = node.first_edu, node.last_edu + 1
        split = node.left.last_edu + 1  # type: ignore[union-attr]
        split_scores = _splits(provider, start, end)
        merged = node.label.merged  # type: ignore[union-attr]
        if merged not in label_index:
            raise RstError(f"label {merged} is not in the decode inventory")
        label_scores = _labels(provider, (start, split), (split, end), len(labels))
        total += float(split_scores[split - start - 1])
        total += float(label_scores[label_index[merged]])
    return total


class OracleProvider(ScoreProvider):
    """Scores the gold tree's splits and labels 1.0 and everything else 0.

    Test instrument: decoding with it reproduces the gold tree exactly.
    """

    def __init__(self, gold: RstTree, labels: Sequence[str]) -> None:
        self.labels = tuple(labels)
        index = {name: i for i, name in enumerate(self.labels)}
        self._splits: dict[tuple[int, int], int] = {}
        self._label_at: dict[tuple[int, int], int] = {}
        for node in gold.internal_nodes():
            rng = (node.first_edu, node.last_edu + 1)
            merged = node.label.merged  # type: ignore[union-attr]
            if merged not in index:
                raise RstError(f"gold label {merged} missing from the inventory")
            self._splits[rng] = node.left.last_edu + 1  # type: ignore[union-attr]
            self._label_at[rng] = index[merged]

    def split_scores(self, start: int, end: int) -> np.ndarray:
        scores = np.zeros(end - start - 1)
        gold = self._splits.get((start, end))
        if gold is not None:
            scores[gold - start - 1] = 1.0
        return scores

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> np.ndarray:
        scores = np.zeros(len(self.labels))
        rng = (left[0], right[1])
        if self._splits.get(rng) == right[0]:
            scores[self._label_at[rng]] = 1.0
        return scores


class RightBranchingProvider(ScoreProvider):
    """Baseline: always prefer the leftmost split and one majority label."""

    def __init__(self, majority_label: str, labels: Sequence[str]) -> None:
        self.labels = tuple(labels)
        if majority_label not in self.labels:
            raise RstError(f"label {majority_label} is not in the inventory")
        self._label = self.labels.index(majority_label)

    def split_scores(self, start: int, end: int) -> np.ndarray:
        scores = np.zeros(end - start - 1)
        scores[0] = 1.0
        return scores

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> np.ndarray:
        scores = np.zeros(len(self.labels))
        scores[self._label] = 1.0
        return scores


class _TableProvider(ScoreProvider):
    def __init__(
        self,
        doc_id: str,
        splits: dict[tuple[int, int], np.ndarray],
        labels_: dict[tuple[tuple[int, int], tuple[int, int]], np.ndarray],
    ) -> None:
        self.doc_id = doc_id
        self._split_table = splits
        self._label_table = labels_

    def split_scores(self, start: int, end: int) -> np.ndarray:
        try:
            return self._split_table[(start, end)]
        except KeyError:
            raise MissingScore(
                f"{self.doc_id}: no split scores for range [{start}, {end})"
            ) from None

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> np.ndarray:
        try:
            return self._label_table[(left, right)]
        except KeyError:
            raise MissingScore(
                f"{self.doc_id}: no label scores for {left} + {right}"
            ) from None


def _index_pair(pair) -> tuple[int, int]:
    """A score record's ``[start, end]``: exactly two JSON integers."""
    start, end = pair
    if type(start) is not int or type(end) is not int:
        raise ValueError(f"indices must be integers, got {pair!r}")
    return start, end


def _score_vector(values) -> np.ndarray:
    """A flat list of JSON numbers as a float vector.  numpy infers one
    type for the whole list in C, so a string, a null or an all-boolean
    list shows up as a non-numeric dtype without a loop over the scores."""
    scores = np.asarray(values)
    kind = scores.dtype.kind
    if kind != "f":
        if kind not in "iu":
            raise ValueError("scores must be a list of numbers")
        scores = scores.astype(float)
    if scores.ndim != 1:
        raise ValueError("scores must be a flat list")
    return scores


class ScoreTable:
    """External scores loaded from a JSON-lines dump.

    Each line is one of::

        {"doc": ID, "kind": "split", "start": i, "end": j, "scores": [...]}
        {"doc": ID, "kind": "label", "left": [i, s], "right": [s, j],
         "scores": [...]}

    so score dumps from any model can drive the decoder.  Indices must be
    JSON integers and ``scores`` a list of JSON numbers, with no ``true``
    or ``false`` among them; a line that breaks either rule raises
    RstError naming it.  Split vectors must have length
    end-start-1; label vectors must match the inventory size.
    """

    def __init__(self) -> None:
        self._splits: dict[str, dict[tuple[int, int], np.ndarray]] = {}
        self._labels: dict[
            str, dict[tuple[tuple[int, int], tuple[int, int]], np.ndarray]
        ] = {}

    @classmethod
    def load(cls, path) -> "ScoreTable":
        table = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    doc = obj["doc"]
                    kind = obj["kind"]
                    values = obj["scores"]
                    # numpy casts a boolean among numbers to 0 or 1, so a
                    # line whose text holds "true" or "false" gets an exact
                    # scan ("u" is a memchr that spares most lines the
                    # slower search for "true").
                    maybe_bool = ("u" in line and "true" in line) or "false" in line
                    if maybe_bool and bool in map(type, values):
                        raise ValueError("scores must be a list of numbers")
                    scores = _score_vector(values)
                    if kind == "split":
                        rng = _index_pair((obj["start"], obj["end"]))
                        table._splits.setdefault(doc, {})[rng] = scores
                    elif kind == "label":
                        left = _index_pair(obj["left"])
                        right = _index_pair(obj["right"])
                        table._labels.setdefault(doc, {})[(left, right)] = scores
                    else:
                        raise ValueError(f"unknown kind {kind!r}")
                except (KeyError, ValueError, TypeError) as exc:
                    raise RstError(
                        f"{path}: line {line_number}: bad score record ({exc})"
                    ) from None
        return table

    def provider(self, doc_id: str) -> ScoreProvider:
        if doc_id not in self._splits and doc_id not in self._labels:
            raise MissingScore(f"no scores for document {doc_id}")
        return _TableProvider(
            doc_id,
            self._splits.get(doc_id, {}),
            self._labels.get(doc_id, {}),
        )
