"""Top-down span-splitting construction of binary discourse trees.

The decoder is independent of any learned scorer: it consumes a
ScoreProvider, which answers two queries over half-open EDU ranges:

* ``split_scores(i, j)``  -> vector of length j-i-1, entry k scoring the
  split between positions i+k and i+k+1;
* ``label_scores(left, right)`` -> vector over the merged label inventory
  for the relation attached at the freshly split node.

Scores are treated as log-domain values and summed along decisions;
providers emitting probabilities must pre-log them.

Greedy decoding recursively takes the argmax split and then the argmax
label.  Beam decoding keeps the top-w partial trees by accumulated score,
expanding one pending range per step (leftmost first) in two stages: split
candidates are pruned to the beam width, then each survivor commits to its
best label.  Labelings other than the per-node argmax are dominated (label
scores are additive and local), so dropping them loses nothing; with a beam
at least as wide as the number of binary shapes, the search is exhaustive.
The greedy solution is always kept as a fallback hypothesis, so widening
the beam never returns a lower-scoring tree than greedy, and a beam of
width 1 is exactly greedy.  Ties break deterministically: earlier split
point first, then lower label index.

decode() is pure; documents can be decoded in parallel as long as the
provider is safe for concurrent read-only queries.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

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
    """Decoding strategy plus the merged label inventory."""

    labels: tuple[str, ...]
    strategy: str = "greedy"  # "greedy" | "beam"
    beam_width: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise RstError("decode config needs a label inventory")
        if self.strategy not in ("greedy", "beam"):
            raise RstError(f"unknown strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise RstError("beam width must be >= 1")


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


Decisions = dict[tuple[int, int], tuple[int, int]]  # range -> (split, label index)


def _greedy_decisions(
    n: int, provider: ScoreProvider, labels: Sequence[str]
) -> tuple[Decisions, float]:
    decisions: Decisions = {}
    total = 0.0
    agenda = [(0, n)]
    while agenda:
        start, end = agenda.pop()
        if end - start < 2:
            continue
        split_scores = _splits(provider, start, end)
        split = start + 1 + int(np.argmax(split_scores))
        label_scores = _labels(provider, (start, split), (split, end), len(labels))
        label = int(np.argmax(label_scores))
        decisions[(start, end)] = (split, label)
        total += float(split_scores[split - start - 1]) + float(label_scores[label])
        agenda.append((split, end))
        agenda.append((start, split))
    return decisions, total


def _build_tree(n: int, decisions: Decisions, labels: Sequence[str]) -> RstTree:
    # Bottom-up assembly over the ranges reachable from (0, n).
    memo: dict[tuple[int, int], RstTree] = {}
    order: list[tuple[int, int]] = []
    stack = [(0, n)]
    while stack:
        rng = stack.pop()
        order.append(rng)
        if rng[1] - rng[0] >= 2:
            split = decisions[rng][0]
            stack.append((rng[0], split))
            stack.append((split, rng[1]))
    for start, end in reversed(order):
        if end - start == 1:
            memo[(start, end)] = RstTree.leaf(start)
        else:
            split, label = decisions[(start, end)]
            memo[(start, end)] = RstTree.internal(
                memo[(start, split)],
                memo[(split, end)],
                RelationLabel.from_merged(labels[label]),
            )
    return memo[(0, n)]


@dataclass(frozen=True)
class _Hypothesis:
    score: float
    trace: tuple[int, ...]  # alternating split point, label index
    pending: tuple[tuple[int, int], ...]  # unexpanded ranges, leftmost first
    decisions: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def complete(self) -> bool:
        return not self.pending

    def sort_key(self) -> tuple:
        return (-self.score, self.trace)


def _beam_decisions(
    n: int, provider: ScoreProvider, labels: Sequence[str], width: int
) -> tuple[Decisions, float]:
    beam = [_Hypothesis(0.0, (), ((0, n),), ())]
    while any(not h.complete for h in beam):
        # Stage 1: expand the leftmost pending range of every live
        # hypothesis over all split points, prune to the beam width.
        candidates: list[_Hypothesis] = []
        for hyp in beam:
            if hyp.complete:
                candidates.append(hyp)
                continue
            start, end = hyp.pending[0]
            rest = hyp.pending[1:]
            split_scores = _splits(provider, start, end)
            for k, split_score in enumerate(split_scores):
                split = start + 1 + k
                new_pending = []
                if split - start >= 2:
                    new_pending.append((start, split))
                if end - split >= 2:
                    new_pending.append((split, end))
                candidates.append(
                    _Hypothesis(
                        hyp.score + float(split_score),
                        hyp.trace + (split,),
                        tuple(new_pending) + rest,
                        hyp.decisions + (((start, end), (split, -1)),),
                    )
                )
        candidates.sort(key=_Hypothesis.sort_key)
        survivors = candidates[:width]
        # Stage 2: survivors that just chose a split commit to the argmax
        # label; other labelings are dominated and never needed.
        beam = []
        for hyp in survivors:
            if hyp.decisions and hyp.decisions[-1][1][1] == -1:
                rng, (split, _) = hyp.decisions[-1]
                label_scores = _labels(
                    provider, (rng[0], split), (split, rng[1]), len(labels)
                )
                label = int(np.argmax(label_scores))
                beam.append(
                    _Hypothesis(
                        hyp.score + float(label_scores[label]),
                        hyp.trace + (label,),
                        hyp.pending,
                        hyp.decisions[:-1] + ((rng, (split, label)),),
                    )
                )
            else:
                beam.append(hyp)
        beam.sort(key=_Hypothesis.sort_key)
    best = beam[0]
    return dict(best.decisions), best.score


def decode(n: int, provider: ScoreProvider, config: DecodeConfig) -> RstTree:
    """Build the tree over n EDUs selected by the provider's scores.

    Deterministic given provider and config; a single EDU yields a bare
    leaf without querying the provider.
    """
    if n < 1:
        raise RstError("cannot decode an empty document")
    if n == 1:
        return RstTree.leaf(0)
    greedy_decisions, greedy_score = _greedy_decisions(n, provider, config.labels)
    if config.strategy == "greedy":
        return _build_tree(n, greedy_decisions, config.labels)
    decisions, score = _beam_decisions(n, provider, config.labels, config.beam_width)
    if greedy_score > score:
        decisions = greedy_decisions
    return _build_tree(n, decisions, config.labels)


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


class ScoreTable:
    """External scores loaded from a JSON-lines dump.

    Each line is one of::

        {"doc": ID, "kind": "split", "start": i, "end": j, "scores": [...]}
        {"doc": ID, "kind": "label", "left": [i, s], "right": [s, j],
         "scores": [...]}

    so score dumps from any model can drive the decoder.  Split vectors must
    have length end-start-1; label vectors must match the inventory size.
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
                    scores = np.asarray(obj["scores"], dtype=float)
                    if kind == "split":
                        rng = (int(obj["start"]), int(obj["end"]))
                        table._splits.setdefault(doc, {})[rng] = scores
                    elif kind == "label":
                        left = (int(obj["left"][0]), int(obj["left"][1]))
                        right = (int(obj["right"][0]), int(obj["right"][1]))
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
