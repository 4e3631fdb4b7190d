"""Shared test utilities: independent oracles and data generators.

The oracles here deliberately avoid the production code paths they check:
Parseval counts come from an all-pairs matcher, CRF quantities from explicit
path enumeration and from sequential per-token recursions over dense
features, hashed window features from a per-token loop, Adam steps from
out-of-place formulas, decoder optima from enumerating every binary tree
and from a chart over all ranges, gradients from central finite differences,
canonical records from a per-token loop with a shift-reduce tree parser,
tree strings from a piece-by-piece renderer, canonical lines from
``json.dumps`` of plain lists, tokens from peeling every chunk one
character at a time, rs3 forests from a resolver that classifies every
child when its parent is built, records from tokenizing one EDU at a
time, and sentence statistics from a scan over every EDU.
The package reads ``.rs3`` and never writes it: the rs3 fixture writer is
here, beside ``write_corpus`` for canonical fixture files and
``write_workload_inputs`` for the benchmark workloads' inputs.
Trees are written in tests as nested ``(left, right, label)`` descriptions
(:func:`build_tree`).
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
import unicodedata
import xml.etree.ElementTree as ET
import zlib
from array import array
from collections import Counter
from typing import Iterator, Sequence, Union

import numpy as np

from rstkit.core import (
    Constituent,
    DocumentRecord,
    EduSpan,
    JSON_TYPES,
    Nuclearity,
    RelationLabel,
    RstError,
    RstTree,
    Split,
    enumerate_constituents,
    excerpt,
)
from rstkit.crf import (
    CrfModel,
    HashedWindowFeatures,
    SparseFeatures,
    log_likelihood,
)
from rstkit.preprocess import PreprocessReport, Preprocessor, RemapTable
from rstkit.treebank import (
    Rs3Component,
    Rs3Document,
    Rs3Group,
    Rs3Segment,
    SchemaViolation,
    tokenize,
    write_record,
)

TEST_LABELS = (
    "attribution_SN",
    "condition_SN",
    "elaboration_NS",
    "joint_NN",
    "sequence_NN",
)


# ---------------------------------------------------------------------------
# Tree descriptions: nested (left, right, label) tuples with int leaves
# ---------------------------------------------------------------------------


class DuplicateLeaf(RstError):
    """An EDU index occurs more than once in a tree description."""


# A tree description is an int (leaf EDU index) or a (left, right, label)
# triple; labels may be RelationLabel instances or merged strings.
TreeDescription = Union[int, RelationLabel, str, tuple, list]


def build_tree(description: TreeDescription) -> RstTree:
    """Build an :class:`RstTree` from a nested constituent description.

    Leaves are written as plain EDU indices and internal nodes as
    ``(left, right, label)`` triples, e.g. ``((0, 1, "joint_NN"), 2,
    "elaboration_NS")``.  Raises RstError for malformed nesting or when
    sibling ranges are not adjacent and in order, and its subclass
    DuplicateLeaf for repeated EDU indices.
    """
    _check_duplicate_leaves(description)
    # Iterative post-order construction; frames are (description, children).
    result: list[RstTree] = []
    stack: list[tuple] = [("build", description)]
    while stack:
        op, payload = stack.pop()
        if op == "build":
            if isinstance(payload, (bool,)):
                raise RstError(f"not a constituent description: {payload!r}")
            if isinstance(payload, int):
                result.append(RstTree.leaf(payload))
            elif isinstance(payload, (tuple, list)):
                if len(payload) != 3:
                    raise RstError(
                        f"expected (left, right, label), got {len(payload)} items"
                    )
                left, right, label = payload
                stack.append(("combine", label))
                stack.append(("build", right))
                stack.append(("build", left))
            else:
                raise RstError(f"not a constituent description: {payload!r}")
        else:  # combine
            label = payload
            if isinstance(label, str):
                label = RelationLabel.from_merged(label)
            if not isinstance(label, RelationLabel):
                raise RstError(f"not a relation label: {payload!r}")
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
                result.append(node.first_edu)
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


# ---------------------------------------------------------------------------
# Random structures
# ---------------------------------------------------------------------------


def random_tree(
    rng: random.Random, n: int, labels: Sequence[str] = TEST_LABELS, first: int = 0
) -> RstTree:
    """A random tree over the ``n`` EDUs starting at index ``first``."""

    def build(start: int, end: int) -> RstTree:
        if end - start == 1:
            return RstTree.leaf(start)
        split = rng.randint(start + 1, end - 1)
        label = RelationLabel.from_merged(rng.choice(labels))
        return RstTree.internal(build(start, split), build(split, end), label)

    return build(first, first + n)


def random_edus(
    rng: random.Random, n: int, max_tokens: int = 3
) -> tuple[EduSpan, ...]:
    spans = []
    pos = 0
    for _ in range(n):
        length = rng.randint(1, max_tokens)
        spans.append(EduSpan(pos, pos + length - 1))
        pos += length
    return tuple(spans)


def random_partition(
    rng: random.Random, n_tokens: int, n_edus: int
) -> tuple[EduSpan, ...]:
    """``n_edus`` EDUs partitioning ``n_tokens`` tokens at random cut points."""
    cuts = sorted(rng.sample(range(1, n_tokens), n_edus - 1))
    bounds = [0, *cuts, n_tokens]
    return tuple(EduSpan(a, b - 1) for a, b in zip(bounds, bounds[1:]))


def perturb_tree(
    rng: random.Random,
    tree: RstTree,
    p_resplit: float = 0.15,
    p_relabel: float = 0.3,
    labels: Sequence[str] = TEST_LABELS,
) -> RstTree:
    """A prediction-like copy of ``tree``: some subtrees are replaced by
    random trees over the same EDUs, some node labels are redrawn."""

    def walk(node: RstTree) -> RstTree:
        if node.is_leaf:
            return node
        if rng.random() < p_resplit:
            return random_tree(rng, node.n_leaves, labels, node.first_edu)
        label = node.label
        if rng.random() < p_relabel:
            label = RelationLabel.from_merged(rng.choice(labels))
        return RstTree.internal(walk(node.left), walk(node.right), label)

    return walk(tree)


def make_document(
    doc_id: str,
    tree: RstTree,
    edus: Sequence[EduSpan] | None = None,
    genre: str = "test",
    lang: str = "en",
    split: str = "train",
    sents: Sequence[int] | None = None,
) -> DocumentRecord:
    """Wrap a tree in a document with synthetic token texts."""
    n = tree.n_leaves
    if edus is None:
        edus = tuple(EduSpan(i, i) for i in range(n))
    n_tokens = edus[-1].last_token + 1
    return DocumentRecord(
        doc_id=doc_id,
        genre=genre,
        lang=lang,
        tokens=tuple(f"w{i}" for i in range(n_tokens)),
        char_starts=tuple(3 * i for i in range(n_tokens)),
        edus=tuple(edus),
        tree=tree,
        sentence_boundaries=tuple(sents) if sents is not None else None,
        split=split,
    )


# ---------------------------------------------------------------------------
# Parseval oracle: O(n^2) all-pairs matching with used flags
# ---------------------------------------------------------------------------


def brute_force_parseval(
    gold: Sequence[Constituent], pred: Sequence[Constituent]
) -> dict[str, int]:
    def count(match) -> int:
        used = [False] * len(gold)
        matched = 0
        for p in pred:
            for i, g in enumerate(gold):
                if not used[i] and match(g, p):
                    used[i] = True
                    matched += 1
                    break
        return matched

    return {
        "S": count(lambda g, p: g.span == p.span),
        "N": count(lambda g, p: g.span == p.span and g.role == p.role),
        "R": count(lambda g, p: g.span == p.span and g.relation == p.relation),
        "Full": count(
            lambda g, p: g.span == p.span
            and g.role == p.role
            and g.relation == p.relation
        ),
    }


def unit_edus(tree: RstTree) -> tuple[EduSpan, ...]:
    """One single-token EDU per EDU index up to ``tree``'s last, so that
    token spans equal EDU-index spans."""
    return tuple(EduSpan(i, i) for i in range(tree.last_edu + 1))


def oracle_counts(
    gold: RstTree,
    pred: RstTree,
    gold_edus: Sequence[EduSpan],
    pred_edus: Sequence[EduSpan],
) -> dict[str, tuple[int, int, int]]:
    """(matched, gold, predicted) per metric from the all-pairs matcher."""
    gold_list = enumerate_constituents(gold, gold_edus)
    pred_list = enumerate_constituents(pred, pred_edus)
    matched = brute_force_parseval(gold_list, pred_list)
    return {m: (k, len(gold_list), len(pred_list)) for m, k in matched.items()}


# ---------------------------------------------------------------------------
# CRF oracles: explicit path enumeration, finite differences and the
# sequential per-token recursions, all over dense feature matrices
# ---------------------------------------------------------------------------


def rows(matrix) -> SparseFeatures:
    """A dense ``[seq_len, dim]`` matrix as full-width SparseFeatures: row t
    holds every column, in order, with the matrix's values."""
    matrix = np.asarray(matrix, dtype=float)
    seq_len, dim = matrix.shape
    return SparseFeatures(np.tile(np.arange(dim, dtype=np.int32), (seq_len, 1)), matrix, dim)


def toarray(features: SparseFeatures) -> np.ndarray:
    """The dense ``[seq_len, dim]`` matrix of sparse rows."""
    out = np.zeros(features.shape)
    np.add.at(out, (np.arange(out.shape[0])[:, None], features.idx), features.vals)
    return out


def enumerate_paths(
    model: CrfModel, features: np.ndarray
) -> list[tuple[tuple[int, ...], float]]:
    emissions = np.asarray(features, dtype=float) @ model.emission.T
    seq_len = emissions.shape[0]
    scored = []
    for path in itertools.product(range(len(model.labels)), repeat=seq_len):
        score = float(model.start[path[0]] + emissions[0, path[0]])
        for t in range(1, seq_len):
            score += float(
                model.transition[path[t - 1], path[t]] + emissions[t, path[t]]
            )
        score += float(model.stop[path[-1]])
        scored.append((path, score))
    return scored


def brute_force_log_z(model: CrfModel, features: np.ndarray) -> float:
    scores = [s for _, s in enumerate_paths(model, features)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def finite_difference_grads(
    model: CrfModel,
    features: np.ndarray,
    gold: Sequence[str],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central differences of the log-likelihood, one block per parameter
    in the order of ``log_likelihood``'s gradient."""
    sparse = rows(features)

    def value(m: CrfModel) -> float:
        return log_likelihood(m, sparse, gold)[0]

    grads = []
    for name in ("emission", "transition", "start", "stop"):
        arr = getattr(model, name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = model.clone()
            getattr(plus, name)[idx] += h
            minus = model.clone()
            getattr(minus, name)[idx] -= h
            grad[idx] = (value(plus) - value(minus)) / (2.0 * h)
            it.iternext()
        grads.append(grad)
    return grads


def reference_viterbi(model: CrfModel, features: np.ndarray) -> list[str]:
    """Sequential Viterbi over a dense feature matrix, one step per token;
    ties resolve to the lower label index."""
    emissions = np.asarray(features, dtype=float) @ model.emission.T
    seq_len = emissions.shape[0]
    v = model.start + emissions[0]
    back = np.zeros((seq_len, len(model.labels)), dtype=int)
    for t in range(1, seq_len):
        scores = v[:, None] + model.transition  # prev x cur
        back[t] = np.argmax(scores, axis=0)  # first max = lowest prev index
        v = scores[back[t], np.arange(len(model.labels))] + emissions[t]
    v = v + model.stop
    path = np.zeros(seq_len, dtype=int)
    path[-1] = int(np.argmax(v))
    for t in range(seq_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return [model.labels[i] for i in path]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def reference_log_likelihood(
    model: CrfModel, features: np.ndarray, gold: Sequence[str]
) -> tuple[float, list[np.ndarray]]:
    """Sequential forward-backward over a dense feature matrix: one
    log-sum-exp per token and direction, and per-token gold and pairwise
    sums."""
    features = np.asarray(features, dtype=float)
    emissions = features @ model.emission.T
    seq_len, n = emissions.shape
    gold_idx = np.array([model.labels.index(g) for g in gold], dtype=int)

    alpha = np.zeros((seq_len, n))
    alpha[0] = model.start + emissions[0]
    for t in range(1, seq_len):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + model.transition, 0) + emissions[t]
    log_z = float(_logsumexp((alpha[-1] + model.stop)[None, :], 1)[0])

    beta = np.zeros((seq_len, n))
    beta[-1] = model.stop
    for t in range(seq_len - 2, -1, -1):
        beta[t] = _logsumexp(
            model.transition + emissions[t + 1][None, :] + beta[t + 1][None, :], 1
        )

    gold_score = float(model.start[gold_idx[0]] + emissions[0, gold_idx[0]])
    for t in range(1, seq_len):
        gold_score += float(
            model.transition[gold_idx[t - 1], gold_idx[t]] + emissions[t, gold_idx[t]]
        )
    gold_score += float(model.stop[gold_idx[-1]])

    unary = np.exp(alpha + beta - log_z)
    residual = -unary
    residual[np.arange(seq_len), gold_idx] += 1.0

    grad_emission = residual.T @ features
    grad_start = residual[0].copy()
    grad_stop = -unary[-1]
    grad_stop[gold_idx[-1]] += 1.0
    grad_transition = np.zeros((n, n))
    for t in range(1, seq_len):
        pairwise = np.exp(
            alpha[t - 1][:, None]
            + model.transition
            + emissions[t][None, :]
            + beta[t][None, :]
            - log_z
        )
        grad_transition -= pairwise
        grad_transition[gold_idx[t - 1], gold_idx[t]] += 1.0

    return gold_score - log_z, [grad_emission, grad_transition, grad_start, grad_stop]


_SENT_FINAL = {".", "!", "?", ";", ":"}


def _reference_buckets(prefix: str, words: list[bytes], n_buckets: int) -> list[int]:
    return [zlib.crc32(prefix.encode("utf-8") + w) % n_buckets for w in words]


def reference_features(
    extractor: HashedWindowFeatures, tokens: Sequence[str]
) -> SparseFeatures:
    """``HashedWindowFeatures`` computed token by token: every token is
    lowercased and hashed three times, and its flags are tested, wherever
    it repeats."""
    n, nb = len(tokens), extractor.n_buckets
    lowered = [t.lower().encode("utf-8") for t in tokens]
    idx = np.empty((n, 3 + extractor.N_FLAGS), dtype=np.int32)
    idx[:, 0] = _reference_buckets("c=", lowered, nb)
    idx[:, 1] = _reference_buckets("p=", ([b"<s>"] + lowered)[:n], nb)
    idx[:, 2] = _reference_buckets("n=", (lowered + [b"</s>"])[1:], nb)
    idx[:, :3] += np.arange(3, dtype=np.int32) * nb  # disjoint bucket ranges
    idx[:, 3:] = np.arange(3 * nb, 3 * nb + extractor.N_FLAGS)
    vals = np.zeros(idx.shape)
    vals[:, :3] = 1.0
    vals[:, 3] = [not any(ch.isalnum() for ch in t) for t in tokens]
    vals[:, 4] = [t == "," for t in tokens]
    vals[1:, 5] = vals[:-1, 4]  # previous token is a comma
    vals[:, 6] = [t in _SENT_FINAL for t in tokens]
    vals[:, 7] = [t[:1].isupper() for t in tokens]
    return SparseFeatures(idx, vals, extractor.dim)


def reference_adam_step(opt, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One step of ``crf._Adam`` with every term a new array."""
    opt.t += 1
    for i, (p, g) in enumerate(zip(params, grads)):
        opt.m[i] = opt.BETA1 * opt.m[i] + (1 - opt.BETA1) * g
        opt.v[i] = opt.BETA2 * opt.v[i] + (1 - opt.BETA2) * g * g
        m_hat = opt.m[i] / (1 - opt.BETA1**opt.t)
        v_hat = opt.v[i] / (1 - opt.BETA2**opt.t)
        p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.EPS)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1.0)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# Decoder oracle: enumerate every binary tree (argmax labels per node)
# ---------------------------------------------------------------------------


def enumerate_trees(
    start: int, end: int, provider, labels: Sequence[str]
) -> Iterator[RstTree]:
    if end - start == 1:
        yield RstTree.leaf(start)
        return
    for split in range(start + 1, end):
        scores = provider.label_scores((start, split), (split, end))
        label = RelationLabel.from_merged(labels[int(np.argmax(scores))])
        for left in enumerate_trees(start, split, provider, labels):
            for right in enumerate_trees(split, end, provider, labels):
                yield RstTree.internal(left, right, label)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def reference_exact(n: int, provider, labels: Sequence[str]) -> tuple[float, RstTree]:
    """Best tree over n EDUs and its score, by CKY over every range.

    Split and label scores are additive and local, so a range's best
    subtree is its best (split, argmax label) over the best subtrees of its
    two halves.  Ties keep the earliest split and the lowest label index.
    """
    best: dict[tuple[int, int], tuple[float, int, int]] = {}  # score, split, label
    for length in range(2, n + 1):
        for start in range(0, n - length + 1):
            end = start + length
            splits = [float(x) for x in provider.split_scores(start, end)]
            top = None
            for split in range(start + 1, end):
                scores = [float(x) for x in provider.label_scores((start, split), (split, end))]
                label = scores.index(max(scores))
                total = splits[split - start - 1] + scores[label]
                for half in ((start, split), (split, end)):
                    if half[1] - half[0] >= 2:
                        total += best[half][0]
                if top is None or total > top[0]:
                    top = (total, split, label)
            best[(start, end)] = top  # type: ignore[assignment]

    def build(start: int, end: int) -> RstTree:
        if end - start == 1:
            return RstTree.leaf(start)
        _, split, label = best[(start, end)]
        return RstTree.internal(
            build(start, split), build(split, end), RelationLabel.from_merged(labels[label])
        )

    return (best[(0, n)][0] if n >= 2 else 0.0), build(0, n)


# ---------------------------------------------------------------------------
# Decoder tie-order oracle: a plain beam that copies full decision tuples
# into every hypothesis
# ---------------------------------------------------------------------------


def reference_decode(
    n: int, provider, labels: Sequence[str], width: int
) -> RstTree:
    """Greedy recursion plus a separate beam whose hypotheses carry their
    whole split/label trace and sort by (-score, trace); the beam result is
    replaced by greedy's only when greedy scores strictly higher.

    Exact only while no two accumulated split sums tie through rounding:
    the greedy recursion takes the argmax of each raw split vector, while
    ``decode`` compares rounded sums.  For providers that mix large and
    small scores, compare against :func:`reference_search` instead."""

    def label_argmax(start: int, split: int, end: int) -> tuple[int, float]:
        scores = [float(x) for x in provider.label_scores((start, split), (split, end))]
        best = max(scores)
        return scores.index(best), best

    def greedy() -> tuple[float, dict]:
        decisions, total, agenda = {}, 0.0, [(0, n)]
        while agenda:
            start, end = agenda.pop()
            if end - start < 2:
                continue
            splits = [float(x) for x in provider.split_scores(start, end)]
            split = start + 1 + splits.index(max(splits))
            label, label_score = label_argmax(start, split, end)
            decisions[(start, end)] = (split, label)
            total += splits[split - start - 1] + label_score
            agenda += [(split, end), (start, split)]
        return total, decisions

    def beam() -> tuple[float, dict]:
        # (score, trace, pending ranges, decisions); candidates add the
        # freshly split range that still awaits its label
        hyps = [(0.0, (), ((0, n),), ())]
        while any(h[2] for h in hyps):
            candidates = []
            for score, trace, pending, decisions in hyps:
                if not pending:
                    candidates.append((score, trace, pending, decisions, None))
                    continue
                (start, end), rest = pending[0], pending[1:]
                for k, split_score in enumerate(provider.split_scores(start, end)):
                    split = start + 1 + k
                    halves = tuple(
                        r for r in ((start, split), (split, end)) if r[1] - r[0] >= 2
                    )
                    candidates.append((score + float(split_score), trace + (split,),
                                       halves + rest, decisions, (start, split, end)))
            candidates.sort(key=lambda h: (-h[0], h[1]))
            hyps = []
            for score, trace, pending, decisions, fresh in candidates[:width]:
                if fresh is not None:
                    start, split, end = fresh
                    label, label_score = label_argmax(start, split, end)
                    score += label_score
                    trace += (label,)
                    decisions += (((start, end), (split, label)),)
                hyps.append((score, trace, pending, decisions))
            hyps.sort(key=lambda h: (-h[0], h[1]))
        return hyps[0][0], dict(hyps[0][3])

    def build(start: int, end: int, decisions: dict) -> RstTree:
        if end - start == 1:
            return RstTree.leaf(start)
        split, label = decisions[(start, end)]
        return RstTree.internal(
            build(start, split, decisions),
            build(split, end, decisions),
            RelationLabel.from_merged(labels[label]),
        )

    greedy_score, decisions = greedy()
    if width > 1:
        beam_score, beam_decisions = beam()
        if not greedy_score > beam_score:
            decisions = beam_decisions
    return build(0, n, decisions)


def reference_search(
    n: int, provider, labels: Sequence[str], width: int
) -> tuple[float, RstTree]:
    """The rounded search that ``decode`` runs at one width, as a beam of
    hypotheses that carry their whole split/label trace and sort by
    (-score, trace).  Each score is summed in decision order, split score
    then label score, so when a large score makes small ones round away,
    ties fall to the earlier trace, as in ``decode``.  At width 1 this can
    differ from ``reference_decode``'s greedy recursion, which takes the
    argmax of each split vector before any rounding."""
    hyps = [(0.0, (), ((0, n),), {})]  # score, trace, pending ranges, decisions
    for _ in range(n - 1):
        candidates = []
        for score, trace, pending, decisions in hyps:
            (start, end), rest = pending[0], pending[1:]
            for k, split_score in enumerate(provider.split_scores(start, end)):
                split = start + 1 + k
                halves = tuple(r for r in ((start, split), (split, end)) if r[1] - r[0] >= 2)
                candidates.append((score + float(split_score), trace + (split,),
                                   halves + rest, decisions, (start, split, end)))
        candidates.sort(key=lambda h: (-h[0], h[1]))
        hyps = []
        for score, trace, pending, decisions, (start, split, end) in candidates[:width]:
            label_scores = [float(x) for x in provider.label_scores((start, split), (split, end))]
            label = label_scores.index(max(label_scores))
            hyps.append((score + label_scores[label], trace + (label,), pending,
                         {**decisions, (start, end): (split, label)}))
    score, _, _, decisions = min(hyps, key=lambda h: (-h[0], h[1]))

    def build(start: int, end: int) -> RstTree:
        if end - start == 1:
            return RstTree.leaf(start)
        split, label = decisions[(start, end)]
        return RstTree.internal(build(start, split), build(split, end),
                                RelationLabel.from_merged(labels[label]))

    return score, build(0, n)


# ---------------------------------------------------------------------------
# Score-dump line oracle: every check of one line in a plain order, scores
# converted to an array('d')
# ---------------------------------------------------------------------------


def reference_score_line(line: str):
    """One score-dump line checked as ``ScoreTable`` checks a line that
    starts a run: ``(doc, kind, key, scores)`` with ``scores`` an
    ``array('d')``, or the text ``bad score record (...)`` of its defect.

    The checks run in the reader's order: the JSON, the fields ``doc``,
    ``kind`` and ``scores``, a flat list holding no boolean, the conversion
    of every value to a double, every value finite, the indices, their
    ranges and a split vector's length, then a string ``doc``."""
    try:
        obj = json.loads(line)
        doc, kind, values = obj["doc"], obj["kind"], obj["scores"]
        if type(values) is not list:
            raise ValueError("scores must be a flat list")
        if any(type(value) is bool for value in values):
            raise ValueError("scores must be a list of numbers")
        scores = array("d", values)
        if not all(map(math.isfinite, scores)):
            raise ValueError("scores must be finite")
        if kind == "split":
            key = obj["start"], obj["end"]
            if any(type(index) is not int for index in key):
                raise ValueError(f"indices must be integers, got {key!r}")
            if key[0] < 0 or key[1] <= key[0]:
                raise ValueError("start and end must give a nonempty range from 0")
            if len(scores) != key[1] - key[0] - 1:
                raise ValueError(f"split scores must number end - start - 1, "
                                 f"got {len(scores)}")
        elif kind == "label":
            key = []
            for name in ("left", "right"):
                a, b = pair = obj[name]
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"indices must be integers, got {pair!r}")
                key.append((a, b))
            (a, b), (c, d) = key = tuple(key)
            if a < 0 or b <= a or c != b or d <= c:
                raise ValueError("left and right must be adjacent spans from 0")
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if type(doc) is not str:
            raise ValueError(f"doc must be a string, got {JSON_TYPES[type(doc)]}")
    except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        return f"bad score record ({exc})"
    return doc, kind, key, scores


# ---------------------------------------------------------------------------
# Canonical reader and writer oracles: a per-token loop with per-token
# checks, a shift-reduce tree parser on one mixed stack that tokenizes with
# a regular expression, uncached label parsing, and json.dumps of lists
# ---------------------------------------------------------------------------

_REFERENCE_FIELDS = {"id", "genre", "lang", "tokens", "edus", "tree", "sents", "split"}


def reference_label(merged: str) -> RelationLabel:
    """A fresh RelationLabel for every call."""
    relation, sep, suffix = merged.rpartition("_")
    if not sep or suffix not in Nuclearity.__members__:
        raise RstError(f"not a relation_NUC label {excerpt(merged)}")
    return RelationLabel(relation, Nuclearity[suffix])


def reference_tree_from_string(text: str) -> RstTree:
    """Shift-reduce over the regular-expression tokens of ``text``; an
    error ends with the 1-based character where its token starts, or one
    past the end when the string ends too soon."""
    stack: list = []
    result = None
    for match in re.finditer(r"\(|\)|[^\s()]+", text):
        tok = match.group()
        try:
            node = _reference_step(tok, stack, text)
        except RstError as exc:
            raise RstError(f"{exc} at character {match.start() + 1}") from None
        if node is None:
            continue
        if stack:
            stack.append(node)
        elif result is None:
            result = node
        else:
            raise RstError(f"multiple root nodes in tree string at character "
                           f"{match.start() + 1}")
    if stack or result is None:
        raise RstError(f"unbalanced tree string {excerpt(text)} at character "
                       f"{len(text) + 1}")
    return result


def _reference_step(tok: str, stack: list, text: str) -> RstTree | None:
    """Read ``tok``: the node it completes, or None when it is pushed."""
    if tok == ")":
        items: list = []
        while stack and stack[-1] != "(":
            items.append(stack.pop())
        if not stack:
            raise RstError("unbalanced ')' in tree string")
        stack.pop()
        items.reverse()
        if (
            len(items) != 3
            or not isinstance(items[0], str)
            or not all(isinstance(x, RstTree) for x in items[1:])
        ):
            raise RstError("tree string: expected (label left right)")
        label, left, right = items
        return RstTree.internal(left, right, reference_label(label))
    if tok.startswith("#"):
        # "#" and a number as str() writes it, in no more digits than
        # int() reads by default
        if not re.fullmatch(r"#(0|[1-9][0-9]{0,4299})", tok, re.ASCII):
            raise RstError(f"bad leaf token {excerpt(tok)}")
        index = int(tok[1:])
        return RstTree(index, index)  # a node of its own, not the shared leaf
    if tok != "(":  # a label, which only an open bracket may precede
        if not stack:
            raise RstError(f"unbalanced tree string {excerpt(text)}")
        if not isinstance(stack[-1], str) or stack[-1] != "(":
            raise RstError("tree string: expected (label left right)")
    stack.append(tok)
    return None


def reference_record_from_json(obj) -> DocumentRecord:
    if not isinstance(obj, dict) or set(obj) != _REFERENCE_FIELDS:
        raise RstError("wrong record fields")
    texts: list[str] = []
    starts: list[int] = []
    for i, entry in enumerate(obj["tokens"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise RstError(f"token {i} is not a [text, char_start] pair")
        text, start = entry
        if not isinstance(text, str) or not text:
            raise RstError(f"token {i}: text must be a non-empty string")
        if type(start) is not int or start < 0:
            raise RstError(f"token {i}: offset must be a non-negative int")
        if starts and start <= starts[-1]:
            raise RstError(f"token {i}: offsets must increase")
        texts.append(text)
        starts.append(start)
    edus = []
    for i, (first, last) in enumerate(obj["edus"]):
        if type(first) is not int or type(last) is not int:
            raise RstError(f"EDU {i}: bounds must be integers")
        edus.append(EduSpan(first, last))
    sents = obj["sents"]
    if sents is not None:
        for i, start in enumerate(sents):
            if type(start) is not int:
                raise RstError(f"sentence {i}: boundary must be an integer")
    tree = obj["tree"]
    return DocumentRecord(
        doc_id=obj["id"],
        genre=obj["genre"],
        lang=obj["lang"],
        tokens=tuple(texts),
        char_starts=tuple(starts),
        edus=tuple(edus),
        tree=None if tree is None else reference_tree_from_string(tree),
        sentence_boundaries=None if sents is None else tuple(sents),
        split=Split(obj["split"]),
    )


def reference_read(path) -> list[DocumentRecord]:
    """Read a canonical file with the reference parser; errors carry the
    1-based line number as SchemaViolation."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                docs.append(reference_record_from_json(json.loads(line)))
            except (RstError, KeyError, TypeError, ValueError) as exc:
                raise SchemaViolation(path, line_number, str(exc)) from None
    return docs


def reference_write_record(fh, doc: DocumentRecord) -> None:
    """Append ``doc``'s canonical line: ``json.dumps`` of a dict built here
    field by field, with a list for every array."""
    obj = {
        "id": doc.doc_id,
        "genre": doc.genre,
        "lang": doc.lang,
        "tokens": [[text, start] for text, start in zip(doc.tokens, doc.char_starts)],
        "edus": [[edu.first_token, edu.last_token] for edu in doc.edus],
        "tree": None if doc.tree is None else reference_tree_to_string(doc.tree),
        "sents": None
        if doc.sentence_boundaries is None
        else list(doc.sentence_boundaries),
        "split": doc.split.value,
    }
    fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Tree-string and tokenizer oracles: the renderer that appends one piece at
# a time, and the tokenizer that peels every chunk character by character
# ---------------------------------------------------------------------------


def reference_tree_to_string(tree: RstTree) -> str:
    out: list[str] = []
    stack: list[tuple[str, RstTree | None]] = [("visit", tree)]
    while stack:
        op, node = stack.pop()
        if op == "close":
            out.append(")")
        elif node.is_leaf:
            out.append(f"#{node.first_edu}")
        else:
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


def reference_tokenize(text: str) -> list[tuple[str, int]]:
    def splittable(ch: str) -> bool:
        return unicodedata.category(ch)[0] in ("P", "S")

    tokens: list[tuple[str, int]] = []
    for match in re.finditer(r"\S+", text):
        chunk = match.group()
        base = match.start()
        lo, hi = 0, len(chunk)
        head: list[tuple[str, int]] = []
        tail: list[tuple[str, int]] = []
        while hi - lo > 1 and splittable(chunk[lo]):
            head.append((chunk[lo], base + lo))
            lo += 1
        while hi - lo > 1 and splittable(chunk[hi - 1]):
            tail.append((chunk[hi - 1], base + hi - 1))
            hi -= 1
        tokens += head
        tokens.append((chunk[lo:hi], base + lo))
        tokens += tail[::-1]
    return tokens


# ---------------------------------------------------------------------------
# rs3 oracles: the resolver that classifies every child of a node when the
# node is built, and the record builder that tokenizes one EDU at a time
# ---------------------------------------------------------------------------


def reference_extract_forest(doc: Rs3Document) -> list[Rs3Component]:
    """:func:`rstkit.treebank.extract_forest`, resolving each node from
    its list of children with a per-child attachment lookup."""
    kinds: dict[str, set[str]] = {}
    for rel in doc.relations:
        kinds.setdefault(rel.name, set()).add(rel.kind)
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

    component: dict[str, str] = {}
    for nid in nodes:
        chain: list[str] = []
        cur = nid
        while cur not in component and nodes[cur].parent_id is not None:
            chain.append(cur)
            if len(chain) > len(nodes):
                raise RstError(f"parent cycle involving node {nid}")
            cur = nodes[cur].parent_id
        root = component.get(cur, cur)
        component[cur] = root
        for item in chain:
            component[item] = root

    by_component: dict[str, list[str]] = {}
    for seg in doc.segments:
        by_component.setdefault(component[seg.node_id], []).append(seg.node_id)
    ordered_roots = sorted(
        (root for root in roots if root in by_component),
        key=lambda root: order[by_component[root][0]],
    )

    results = []
    for root in ordered_roots:
        seg_ids = by_component[root]
        edu_index = {sid: i for i, sid in enumerate(seg_ids)}
        tree = _reference_resolve_component(root, nodes, children, kinds, edu_index)
        results.append(Rs3Component(tree, tuple(nodes[sid].text for sid in seg_ids)))
    return results


def _reference_attachment_kind(child, parent, kinds: dict[str, set[str]]) -> str:
    relname = child.relname
    if relname is None or relname == "span":
        return "span"
    parent_is_multinuc = isinstance(parent, Rs3Group) and parent.kind == "multinuc"
    if parent_is_multinuc and "multinuc" in kinds.get(relname, set()):
        return "multinuc"
    return "satellite"


def _reference_resolve_component(root, nodes, children, kinds, edu_index) -> RstTree:
    stack = [root]
    topo: list[str] = []
    while stack:
        nid = stack.pop()
        topo.append(nid)
        stack.extend(children[nid])
    resolved: dict[str, RstTree] = {}
    for nid in reversed(topo):
        resolved[nid] = _reference_resolve_node(
            nid, nodes, children, kinds, edu_index, resolved
        )
    return resolved[root]


def _reference_resolve_node(nid, nodes, children, kinds, edu_index, resolved) -> RstTree:
    node = nodes[nid]
    span_children: list[str] = []
    multinuc_children: list[str] = []
    satellites: list[str] = []
    for cid in children[nid]:
        kind = _reference_attachment_kind(nodes[cid], node, kinds)
        if kind == "span":
            span_children.append(cid)
        elif kind == "multinuc":
            multinuc_children.append(cid)
        else:
            satellites.append(cid)

    if isinstance(node, Rs3Segment):
        if span_children or multinuc_children:
            raise RstError(f"segment {nid} has span/multinuc children")
        base = RstTree.leaf(edu_index[nid])
    elif node.kind == "span":
        if len(span_children) != 1:
            raise RstError(f"span group {nid} has {len(span_children)} span children")
        base = resolved[span_children[0]]
    else:
        if span_children:
            cid = span_children[0]
            has = "no relname" if nodes[cid].relname is None else "relname 'span'"
            raise RstError(f"multinuc group {nid}: child {cid} has {has}")
        if len(multinuc_children) < 2:
            raise RstError(f"multinuc group {nid} has {len(multinuc_children)} nuclei")
        nuclei = sorted(multinuc_children, key=lambda c: resolved[c].first_edu)
        label = RelationLabel.from_merged(f"{nodes[nuclei[0]].relname or 'joint'}_NN")
        base = resolved[nuclei[-1]]
        for cid in nuclei[-2::-1]:
            base = RstTree.internal(resolved[cid], base, label)

    pending = [(resolved[cid], nodes[cid].relname or "") for cid in satellites]
    while pending:
        right = [p for p in pending if p[0].first_edu == base.last_edu + 1]
        left = [p for p in pending if p[0].last_edu == base.first_edu - 1]
        if right:
            sat, relname = right[0]
            base = RstTree.internal(base, sat, RelationLabel.from_merged(f"{relname}_NS"))
        elif left:
            sat, relname = left[0]
            base = RstTree.internal(sat, base, RelationLabel.from_merged(f"{relname}_SN"))
        else:
            raise RstError(f"satellite of node {nid} is not adjacent to its nucleus")
        pending = [p for p in pending if p[0] is not sat]
    return base


def reference_component_to_record(
    component: Rs3Component,
    doc_id: str,
    genre: str = "unknown",
    lang: str = "en",
    split: Split | str = Split.TRAIN,
) -> DocumentRecord:
    """:func:`rstkit.treebank.component_to_record`, tokenizing one EDU at
    a time at its offset in the space-joined text."""
    tokens: list[tuple[str, int]] = []
    edus: list[EduSpan] = []
    char_offset = 0
    for text in component.edu_texts:
        start = len(tokens)
        tokens += [(token, char + char_offset) for token, char in tokenize(text)]
        char_offset += len(text) + 1
        if len(tokens) == start:
            raise RstError(f"{doc_id}: EDU with no tokens")
        edus.append(EduSpan(start, len(tokens) - 1))
    return DocumentRecord(
        doc_id=doc_id,
        genre=genre,
        lang=lang,
        tokens=tuple(text for text, _ in tokens),
        char_starts=tuple(start for _, start in tokens),
        edus=tuple(edus),
        tree=component.tree,
        split=Split(split),
    )


# ---------------------------------------------------------------------------
# Spanned-sentence oracle: count each sentence's EDUs by scanning all EDUs
# ---------------------------------------------------------------------------


def reference_spanned_sentence_counts(
    doc: DocumentRecord, boundaries: Sequence[int]
) -> tuple[int, int, int, int]:
    """(spanned non-elementary, non-elementary, spanned any, sentences)."""
    bounds = list(boundaries) + [len(doc.tokens)]
    sentences = [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]
    node_spans = {node.token_span(doc.edus) for node in doc.tree.nodes()}
    spanned_multi = multi = spanned_any = 0
    for sent in sentences:
        inside = sum(
            1
            for edu in doc.edus
            if edu.first_token >= sent[0] and edu.last_token <= sent[1]
        )
        matched = sent in node_spans
        spanned_any += matched
        if inside >= 2:
            multi += 1
            spanned_multi += matched
    return spanned_multi, multi, spanned_any, len(sentences)


# ---------------------------------------------------------------------------
# Fixture writers: rs3 files and canonical corpora
# ---------------------------------------------------------------------------


def serialize_rs3(doc: DocumentRecord) -> bytes:
    """Emit rs3 XML for one document;
    :func:`rstkit.treebank.extract_forest` reads it back as an equal tree.  Raises RstError when the record has no tree."""
    return serialize_rs3_forest([doc])


def serialize_rs3_forest(docs: Sequence[DocumentRecord]) -> bytes:
    """Emit one rs3 file holding several trees (an under-annotated forest).

    A right cascade of nodes with the same NN label is written as one
    multinuc group, the inverse of how
    :func:`rstkit.treebank.extract_forest` reads it.
    """
    for doc in docs:
        if doc.tree is None:
            raise RstError(f"{doc.doc_id} has no tree")

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
            node_ids[id(node)] = str(segment_base + node.first_edu)
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


def write_corpus(docs, path) -> None:
    """Write ``docs`` as a canonical corpus file, one line each, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            write_record(fh, doc)


def repeat_corpus(path, k: int, out, field: str = "id") -> None:
    """Write every run of lines of the JSON-lines file ``path`` that share
    a document id in ``field`` to ``out`` ``k`` times in a row, under the
    ids ``<id>~0`` ... ``<id>~<k-1>``; the other fields, and the order of
    the runs, stay as they are.  A run of a canonical file is one record;
    with ``field="doc"``, a run of a score dump is one document's lines."""
    with open(path, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for doc_id, run in itertools.groupby(map(json.loads, src), lambda obj: obj[field]):
            run = list(run)
            for i in range(k):
                for obj in run:
                    obj[field] = f"{doc_id}~{i}"
                    dst.write(json.dumps(obj, ensure_ascii=False) + "\n")


def label_histogram(documents) -> Counter:
    """Merged-label counts over the internal nodes of every tree."""
    return Counter(node.label.merged for doc in documents if doc.tree is not None
                   for node in doc.tree.internal_nodes())


def leaves(tree: RstTree) -> list[RstTree]:
    """The leaves of ``tree``, left to right."""
    return [node for node in tree.nodes() if node.is_leaf]


def traced_peak(call) -> tuple[int, int]:
    """``(current, peak)`` bytes that ``tracemalloc`` counts while
    ``call()`` runs, read before tracing stops, so what ``call`` keeps
    counts in ``current``.

    A full collection first empties CPython's free lists: an object taken
    from a free list is no new allocation and is not traced, so without it
    a peak would depend on the tests run before."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def profiled_calls(call) -> int:
    """The Python and C function calls made while ``call()`` runs, as
    ``sys.setprofile`` sees them: deterministic for one input and one
    interpreter, where a time is not."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


# ---------------------------------------------------------------------------
# Remap tables and preprocessing
# ---------------------------------------------------------------------------


def preprocess_documents(
    documents, documents_in: int, table: RemapTable | None = None,
    drop_single_edu: bool = True,
) -> tuple[list[DocumentRecord], PreprocessReport]:
    """The documents a :class:`Preprocessor` keeps, in order, and its
    report, for ``documents`` read from ``documents_in`` input files."""
    step = Preprocessor(table, drop_single_edu)
    kept = [doc for doc in map(step, documents) if doc is not None]
    return kept, step.report(documents_in)


def dump_remap_table(table: RemapTable, path) -> None:
    """Write a remap table as rule text, the inverse of ``load_remap_table``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.as_text())


# ---------------------------------------------------------------------------
# The benchmark workloads' inputs, at small scale
# ---------------------------------------------------------------------------

WORKLOAD_LABELS = (*TEST_LABELS, "background_NS", "contrast_NN")
_WORDS = ("the", "river", "said", "that", "we", "would", "go", "north", "after",
          "rain", "и", "мир", "because", "nobody", "knew", "why")


def workload_document(rng: random.Random, doc_id: str, n: int, genre: str = "news",
                      split: str = "train") -> DocumentRecord:
    """A seeded document of ``n`` EDUs, each a few words that end in a comma
    or a full stop; a sentence starts after each full stop."""
    tokens: list[str] = []
    edus, sents = [], [0]
    for i in range(n):
        first = len(tokens)
        tokens += rng.choices(_WORDS, k=rng.randint(1, 5))
        if i == n - 1 or rng.random() < 0.4:
            tokens.append(".")
            if i < n - 1:
                sents.append(len(tokens))
        else:
            tokens.append(",")
        edus.append(EduSpan(first, len(tokens) - 1))
    starts = list(itertools.accumulate((len(t) + 1 for t in tokens[:-1]), initial=0))
    return DocumentRecord(doc_id=doc_id, genre=genre, lang="en", tokens=tuple(tokens),
                          char_starts=tuple(starts), edus=tuple(edus),
                          tree=random_tree(rng, n, WORKLOAD_LABELS),
                          sentence_boundaries=tuple(sents), split=split)


def write_workload_inputs(work, seed: int) -> None:
    """Write the inputs of the three benchmark workloads into ``work``, under
    the file names their stage command lines read, at a small scale:

    * ``treebank-gum``: ``rs3/`` with ten one-tree ``GUM_<genre>_<k>.rs3``
      files and one forest of eleven trees, three of them one EDU long (so
      that sorting by id reorders its parts), and ``gum.sents`` for all;
    * ``segmenter``: ``train.jsonl`` and ``test.jsonl``;
    * ``beam-scores``: ``gold.jsonl``, its sorted inventory ``labels.txt``
      and ``scores.jsonl``, a dump of every split and label query of each
      document, drawn from a few small values so that equal scores, equal
      sums and JSON integers are everywhere.
    """
    rng = random.Random(seed)
    rs3 = work / "rs3"
    rs3.mkdir()
    sents = []
    for k in range(10):
        genre = ("news", "academic", "fiction", "interview")[k % 4]
        doc = workload_document(rng, f"GUM_{genre}_{k}", rng.randint(2, 30), genre)
        (rs3 / f"{doc.doc_id}.rs3").write_bytes(serialize_rs3(doc))
        sents.append(f"{doc.doc_id}\t{' '.join(map(str, doc.sentence_boundaries))}\n")
    parts = [workload_document(rng, f"p{i}", n, "whow")
             for i, n in enumerate((3, 1, 5, 2, 1, 8, 4, 1, 2, 6, 3))]
    (rs3 / "GUM_whow_forest.rs3").write_bytes(serialize_rs3_forest(parts))
    sents += (f"GUM_whow_forest_part_{i}\t{' '.join(map(str, doc.sentence_boundaries))}\n"
              for i, doc in enumerate(parts, start=1))
    (work / "gum.sents").write_text("".join(sents), encoding="utf-8")

    for split, count in (("train", 6), ("test", 6)):
        docs = [workload_document(rng, f"{split}{i}", rng.randint(8, 24), split=split)
                for i in range(count)]
        write_corpus(docs, work / f"{split}.jsonl")

    gold = [workload_document(rng, f"beam{i}", rng.randint(2, 16), split="test")
            for i in range(8)]
    write_corpus(gold, work / "gold.jsonl")
    labels = sorted(label_histogram(gold))
    (work / "labels.txt").write_text("".join(f"{x}\n" for x in labels), encoding="utf-8")
    values = (0, 1, 2, 0.5, -1.5)
    with open(work / "scores.jsonl", "w", encoding="utf-8") as fh:
        for doc in gold:
            n = len(doc.edus)
            for start in range(n - 1):
                for end in range(start + 2, n + 1):
                    fh.write(json.dumps({"doc": doc.doc_id, "kind": "split", "start": start,
                                         "end": end, "scores": rng.choices(
                                             values, k=end - start - 1)}) + "\n")
                    for split in range(start + 1, end):
                        fh.write(json.dumps({"doc": doc.doc_id, "kind": "label",
                                             "left": [start, split], "right": [split, end],
                                             "scores": rng.choices(values, k=len(labels))})
                                 + "\n")


# Cyrillic lowercase letters whose uppercase is one letter that lowercases back.
_CYRILLIC = "абвгдежзийклмнопрстуфхцчшщъыьэюяѐёђѓєѕіїјљњћќѝўџ"


def cyrillic_twin(rs3_dir) -> dict[str, str]:
    """Rewrite every ``.rs3`` file in ``rs3_dir`` with each letter of its
    segment texts mapped one-to-one onto a Cyrillic letter, case kept, and
    return the map.  A Cyrillic letter maps to itself and any other letter,
    lowercased, to the next Cyrillic letter that no segment uses; ids,
    relation names and everything outside the segment texts stay as they
    are."""
    paths = sorted(rs3_dir.glob("*.rs3"))
    trees = [ET.parse(path) for path in paths]
    segments = [seg for tree in trees for seg in tree.iter("segment")]
    used = sorted({ch.lower() for seg in segments for ch in seg.text or "" if ch.isalpha()})
    free = iter(ch for ch in _CYRILLIC if ch not in used)
    table = {ch: ch if ch in _CYRILLIC else next(free) for ch in used}
    table.update({ch.upper(): twin.upper() for ch, twin in table.items()})
    assert len(set(table.values())) == len(table)  # one-to-one, case included
    for seg in segments:
        seg.text = "".join(table.get(ch, ch) for ch in seg.text or "")
    for path, tree in zip(paths, trees):
        tree.write(path, encoding="utf-8", xml_declaration=True)
    return table
