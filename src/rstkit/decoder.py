"""Top-down span-splitting construction of binary discourse trees.

The decoder is independent of any learned scorer: it consumes a
ScoreProvider, which answers two queries over half-open EDU ranges:

* ``split_scores(i, j)``  -> vector of length j-i-1, entry k scoring the
  split between positions i+k and i+k+1;
* ``label_scores(left, right)`` -> vector over the merged label inventory
  for the relation attached at the freshly split node.

Both return sequences of finite floats.  A ``list`` or an ``array('d')``
is used as it is; any other sequence, such as a numpy array, is copied
once into an ``array('d')``.  Scores are treated as log-domain values and
summed along decisions; providers emitting probabilities must pre-log them.
A provider must answer a repeated query the same way: decode() asks each
distinct query once and reuses the answer, and tree_score() assumes the
trees it scores were built from the same answers.

A path is a partial tree that grows by splitting its leftmost pending
range, and each split it takes is committed to its argmax label; other
labelings are dominated (label scores are additive and local).  A tree over
n EDUs has n-1 internal nodes, so a search takes exactly n-1 steps.  Greedy
decoding walks one stack of pending ranges: it pops the leftmost, takes its
best split and pushes the halves still to split.  Beam decoding generalizes
that walk over w paths: each step expands every path over its split points
and keeps the top-w candidates by accumulated score, so a beam as wide as
the number of binary shapes is exhaustive.  Both keep one tie rule on the
same rounded sums: the earlier split point first, then the lower label index;
across paths, the earlier decision sequence wins.  Paths share their
history through parent pointers, so no step copies it.

The beam is kept in decision order, so a path's position is its rank.  A
step lays out every path's candidates in one flat list, path by path and
split by split, and notes the offset where each path's run starts; a
stable sort of that list on the score alone then keeps exactly the
candidates the tie rules prefer, and sorting the survivors back by
position gives the next beam in decision order.  A survivor's path is the
last one whose offset is at or before it, and its split is its distance
from that offset, so nothing is stored per candidate but its score.
Greedy and beam runs of one decode() share a memo of split vectors and
label argmaxes, so the provider is asked each distinct query once per call.

Pruning on partial scores can drop the greedy path, so a beam may end below
greedy.  decode() therefore also walks greedily and keeps that tree when it
scores strictly higher: widening the beam never loses to greedy.

decode() is pure; documents can be decoded in parallel as long as the
provider is safe for concurrent read-only queries.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from math import isfinite
from typing import Sequence

from .core import JSON_TYPES, InputLines, RelationLabel, RstError, RstTree, _set, _Value

__all__ = [
    "ScoreProvider",
    "DecodeConfig",
    "decode",
    "tree_score",
    "OracleProvider",
    "RightBranchingProvider",
    "ScoreTable",
]

_FLAT = (list, array)  # the score vector types read as they are


class ScoreProvider(ABC):
    """Contract for split and label scorers over EDU index ranges.

    Both queries return a flat sequence of finite floats, and the same
    one each time a query is repeated.  A ``list`` or an ``array('d')``
    is read as it is, so a list must already be flat; any other sequence
    is copied once into an ``array('d')``, and one that does not convert
    (nested, or holding something other than numbers) raises RstError.
    """

    @abstractmethod
    def split_scores(self, start: int, end: int) -> Sequence[float]:
        """Scores for splitting [start, end) at start+1 .. end-1."""

    @abstractmethod
    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> Sequence[float]:
        """Scores over the label inventory for joining left and right."""


class DecodeConfig(_Value):
    """Decoding strategy (``"greedy"`` or ``"beam"``) plus the merged label
    inventory.

    ``relations`` holds the inventory parsed once, so a malformed label is
    rejected here rather than when a tree first uses it.
    """

    __slots__ = ("labels", "strategy", "beam_width", "relations")
    _fields = ("labels", "strategy", "beam_width")

    def __init__(
        self, labels: Sequence[str], strategy: str = "greedy", beam_width: int = 1
    ) -> None:
        labels = tuple(labels)
        if not labels:
            raise RstError("decode config needs a label inventory")
        if len(set(labels)) != len(labels):
            repeated = sorted({x for x in labels if labels.count(x) > 1})
            raise RstError(f"label inventory repeats {repeated}")
        if strategy not in ("greedy", "beam"):
            raise RstError(f"unknown strategy {strategy!r}")
        if beam_width < 1:
            raise RstError("beam width must be >= 1")
        if strategy == "greedy" and beam_width > 1:
            raise RstError(f"greedy decoding has beam width 1, got {beam_width}")
        _set(self, "labels", labels)
        _set(self, "strategy", strategy)
        _set(self, "beam_width", beam_width)
        _set(self, "relations", tuple(map(RelationLabel.from_merged, labels)))


def _vector(scores, query: str, args: tuple, length: int) -> Sequence[float]:
    """A provider's answer ``scores`` to ``query(*args)``, checked to be a
    flat sequence of numbers of the given length."""
    if type(scores) not in _FLAT:
        try:
            scores = array("d", scores)
        except (TypeError, OverflowError) as exc:  # nested, or not numbers
            raise RstError(
                f"{query}{args} must be a flat sequence of numbers ({exc})"
            ) from None
    if len(scores) != length:
        raise RstError(
            f"{query}{args} must have length {length}, got length {len(scores)}"
        )
    return scores


def _greedy(n: int, provider: ScoreProvider, n_labels: int, memo: dict) -> tuple:
    """The path ``_search`` keeps at width 1, over n >= 2 EDUs: the pending
    ranges are one stack, leftmost on top, and each step takes the first of
    the equal minima of ``base - s``, as ``_search`` does.  As ``base - s``
    never rises when a finite ``s`` does, that minimum is ``base - max(s)``,
    and only an earlier ``s`` that rounds to it can come first.  An answer
    already in ``memo`` is not asked again; the walk adds none, as decode()
    runs it last."""
    path, pending = (0.0, None, None, None), [(0, n)]
    while pending:
        start, end = rng = pending.pop()
        scores = memo.get(rng)
        if scores is None:
            scores = provider.split_scores(start, end)
            if type(scores) not in _FLAT or len(scores) != end - start - 1:
                scores = _vector(scores, "split_scores", rng, end - start - 1)
        base = -path[0]
        top = max(scores)
        k = scores.index(top)
        low = base - top
        if k and base - max(scores[:k]) == low:  # a rounding tie
            neg = [base - s for s in scores]
            k = neg.index(low)
            low = neg[k]
        split = start + 1 + k
        label = memo.get((start, split, end))
        if label is None:
            left, right = (start, split), (split, end)
            scores = provider.label_scores(left, right)
            if type(scores) not in _FLAT or len(scores) != n_labels:
                scores = _vector(scores, "label_scores", (left, right), n_labels)
            top = max(scores)
            label = (top, scores.index(top))
        path = (-low + label[0], (start, end, split, label[1]), path, None)
        if end - split >= 2:
            pending.append((split, end))
        if split - start >= 2:
            pending.append((start, split))
    return path


def _search(
    n: int, provider: ScoreProvider, n_labels: int, width: int, memo: dict
) -> tuple:
    """Best complete path over n >= 2 EDUs among the top ``width`` kept
    at each step.  A path is ``(score, decision, parent, pending)``: its
    last (start, end, split, label), the path it extends, and a cons list
    ((start, end), rest) of the ranges still to split, leftmost first.
    ``memo`` maps (start, end) to a split vector and (start, split, end)
    to (best label score, label)."""
    beam = [(0.0, None, None, ((0, n), None))]
    for _ in range(n - 1):
        # The beam is in decision order and all its paths have taken the
        # same number of decisions, so the flat candidate order is (parent
        # rank, split) order: a stable sort on the score alone breaks ties
        # by the earlier decision sequence, then the earlier split.
        rows = []  # (-score, split vector) of each path
        offsets: list[int] = []  # where each path's candidates start in neg
        size = 0
        for score, _, _, ((start, end), _) in beam:
            scores = memo.get((start, end))
            if scores is None:
                scores = memo[(start, end)] = _vector(
                    provider.split_scores(start, end), "split_scores",
                    (start, end), end - start - 1,
                )
            offsets.append(size)
            size += end - start - 1
            rows.append((-score, scores))
        # one comprehension per step, not per path: each one is a function call
        neg = [base - s for base, scores in rows for s in scores]
        # re-sorted by flat index, the survivors stay in decision order
        picks = sorted(sorted(range(len(neg)), key=neg.__getitem__)[:width])
        survivors = []
        for k in picks:
            # every path has a candidate, so offsets strictly increase
            rank = bisect_right(offsets, k) - 1
            parent = beam[rank]
            (start, end), pending = parent[3]
            split = start + 1 + k - offsets[rank]
            label = memo.get((start, split, end))
            if label is None:
                left, right = (start, split), (split, end)
                scores = _vector(provider.label_scores(left, right), "label_scores",
                                 (left, right), n_labels)
                best = max(scores)  # index() takes the lower of equal labels
                label = memo[(start, split, end)] = (best, scores.index(best))
            if end - split >= 2:
                pending = ((split, end), pending)
            if split - start >= 2:
                pending = ((start, split), pending)
            survivors.append(
                (-neg[k] + label[0], (start, end, split, label[1]), parent, pending)
            )
        beam = survivors
    scores = [path[0] for path in beam]
    return beam[scores.index(max(scores))]  # the earliest of equal scores


def _tree(path: tuple, relations: Sequence[RelationLabel]) -> RstTree:
    # The parent chain yields decisions in reverse pre-order: a node comes
    # after both its subtrees, and its left subtree was finished last.
    built: list[RstTree] = []
    while path[1] is not None:
        start, end, split, label = path[1]
        left = built.pop() if split - start >= 2 else RstTree.leaf(start)
        right = built.pop() if end - split >= 2 else RstTree.leaf(split)
        built.append(RstTree.internal(left, right, relations[label]))
        path = path[2]
    return built.pop()


def decode(n: int, provider: ScoreProvider, config: DecodeConfig) -> RstTree:
    """Build the tree over n EDUs selected by the provider's scores.

    Deterministic given provider and config; a single EDU yields a bare
    leaf without querying the provider, and no query is asked twice.
    """
    if n < 1:
        raise RstError("cannot decode an empty document")
    if n == 1:
        return RstTree.leaf(0)
    n_labels, memo, beam = len(config.labels), {}, None
    if config.beam_width > 1:  # first, so that the greedy walk takes its answers
        beam = _search(n, provider, n_labels, config.beam_width, memo)
    best = _greedy(n, provider, n_labels, memo)
    if beam is not None and not best[0] > beam[0]:  # greedy wins only if better
        best = beam
    return _tree(best, config.relations)


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
        split_scores = _vector(provider.split_scores(start, end), "split_scores",
                               (start, end), end - start - 1)
        merged = node.label.merged  # type: ignore[union-attr]
        if merged not in label_index:
            raise RstError(f"label {merged} is not in the decode inventory")
        left, right = (start, split), (split, end)
        label_scores = _vector(provider.label_scores(left, right), "label_scores",
                               (left, right), len(labels))
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

    def split_scores(self, start: int, end: int) -> list[float]:
        scores = [0.0] * (end - start - 1)
        gold = self._splits.get((start, end))
        if gold is not None:
            scores[gold - start - 1] = 1.0
        return scores

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> list[float]:
        scores = [0.0] * len(self.labels)
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

    def split_scores(self, start: int, end: int) -> list[float]:
        scores = [0.0] * (end - start - 1)
        scores[0] = 1.0
        return scores

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> list[float]:
        scores = [0.0] * len(self.labels)
        scores[self._label] = 1.0
        return scores


class _TableProvider(ScoreProvider):
    """One document's run of a score dump, its vectors the lists json built."""

    def __init__(self, doc_id: str, splits: dict, labels: dict) -> None:
        self.doc_id = doc_id
        self._split_table = splits  # (start, end) -> list
        self._label_table = labels  # ((start, split), (split, end)) -> list

    def split_scores(self, start: int, end: int) -> list:
        try:
            return self._split_table[(start, end)]
        except KeyError:
            raise RstError(
                f"{self.doc_id}: no split scores for range [{start}, {end})"
            ) from None

    def label_scores(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> list:
        try:
            return self._label_table[(left, right)]
        except KeyError:
            raise RstError(
                f"{self.doc_id}: no label scores for {left} + {right}"
            ) from None


_raw_decode = json.JSONDecoder().raw_decode


def _score_runs(path, seen: set):
    """Yield ``(doc, splits, labels)`` for each run of a score dump (see
    ScoreTable); a document joins ``seen`` once the run before it is yielded."""
    run, splits, labels = object(), None, None  # the current run of lines
    with InputLines(path) as lines:
        for line in lines:
            try:
                # raw_decode skips json.loads's per-call checks; on a
                # failure json.loads raises its own error for the line.
                try:
                    obj, end = _raw_decode(line)
                except ValueError:
                    end = -1
                if end != len(line):
                    obj = json.loads(line)
                doc = obj["doc"]
                kind = obj["kind"]
                values = obj["scores"]
                if type(values) is not list:
                    raise ValueError("scores must be a flat list")
                # sum() takes a boolean among numbers as 0 or 1, so a line
                # whose text holds "true" or "false" gets an exact scan ("u"
                # is a memchr that spares most lines the slower search for
                # "true").
                maybe_bool = ("u" in line and "true" in line) or "false" in line
                if maybe_bool and bool in map(type, values):
                    raise ValueError("scores must be a list of numbers")
                # sum() adds in C; where it raises (a string, null or list, an
                # integer beyond a double), array('d') raises the error with
                # the text it always gave.  Only a vector whose sum is not
                # finite gets a check of each value.
                try:
                    total = sum(values, 0.0)
                except (TypeError, OverflowError):
                    array("d", values)
                    raise
                if not isfinite(total) and not all(map(isfinite, values)):
                    raise ValueError("scores must be finite")
                if kind == "split":
                    start, stop = key = obj["start"], obj["end"]
                    if type(start) is not int or type(stop) is not int:
                        raise ValueError(f"indices must be integers, got {key!r}")
                elif kind == "label":
                    a, b = pair = obj["left"]
                    if type(a) is not int or type(b) is not int:
                        raise ValueError(f"indices must be integers, got {pair!r}")
                    c, d = pair = obj["right"]
                    if type(c) is not int or type(d) is not int:
                        raise ValueError(f"indices must be integers, got {pair!r}")
                    key = (a, b), (c, d)
                else:
                    raise ValueError(f"unknown kind {kind!r}")
                if doc != run:
                    if type(doc) is not str:
                        raise ValueError("doc must be a string, got "
                                         + JSON_TYPES[type(doc)])
                    if doc in seen:
                        raise ValueError(f"document {doc!r} has an earlier run "
                                         "of lines; its lines must be contiguous")
                    if splits is not None:
                        yield run, splits, labels
                    seen.add(doc)
                    run, splits, labels = doc, {}, {}
                (splits if kind == "split" else labels)[key] = values
            except (KeyError, ValueError, TypeError, OverflowError,
                    RecursionError) as exc:  # RecursionError: nested too deeply
                raise RstError(f"bad score record ({exc})") from None
    if splits is not None:
        yield run, splits, labels


class ScoreTable:
    """External scores read from a JSON-lines dump.

    Each line is one of::

        {"doc": ID, "kind": "split", "start": i, "end": j, "scores": [...]}
        {"doc": ID, "kind": "label", "left": [i, s], "right": [s, j],
         "scores": [...]}

    so score dumps from any model can drive the decoder.  ``ID`` is a JSON
    string, indices are JSON integers and ``scores`` a list of finite JSON
    numbers that fit a double, none ``true``, ``false``, ``NaN`` or
    ``Infinity``; a line that breaks a rule raises RstError naming it.
    Split vectors must have length end-start-1; label vectors must match
    the inventory size.  A vector is kept as the list ``json`` builds, so
    an integer score stays an ``int``; the decoder turns it into a double
    exactly where it would turn the same number spelled as a float.  A
    document's lines form one contiguous run: a line for a document whose
    run has ended raises RstError naming it; a one-EDU document needs none.

    ``provider(doc)`` reads the dump to the end of that document's run,
    keeping the runs it passes, and ``finish()`` reads the rest; a bad line
    raises from the call that reads it.  Each provider is handed out once,
    so a caller that drops it before asking for the next holds one run.
    ``provider()`` reads the file, so it must be called from one thread.
    """

    def __init__(self) -> None:
        self._seen: set[str] = set()  # the documents whose runs were read
        self._ahead: dict[str, list] = {}  # runs read before they were asked for
        self._runs = iter(())

    @classmethod
    def load(cls, path) -> "ScoreTable":
        table = cls()
        table._runs = _score_runs(path, table._seen)
        return table

    def provider(self, doc_id: str) -> ScoreProvider:
        if doc_id not in self._seen:  # read on to the end of its run
            for doc, *tables in self._runs:
                self._ahead[doc] = tables
                if doc == doc_id:
                    break
        if doc_id in self._ahead:
            return _TableProvider(doc_id, *self._ahead.pop(doc_id))
        if doc_id in self._seen:
            raise RstError(f"scores for document {doc_id} were already handed out")
        raise RstError(f"no scores for document {doc_id}")

    def finish(self) -> None:
        """Read and check the rest of the dump."""
        for _ in self._runs:
            pass
