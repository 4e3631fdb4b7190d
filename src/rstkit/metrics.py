"""Original-Parseval micro F1, segmentation F1 and corpus statistics.

Evaluation units are the constituents of the binarized tree: every non-root
node, identified by its token span, its nuclearity role under its parent
(N or S) and the relation it carries (satellite side carries the relation,
nucleus side carries "span", multinuclear children both carry the
relation).  The S metric matches token spans, N additionally requires the
role, R the relation, Full all three.  Corpus scores are micro-averaged:
match counts are summed over documents before precision and recall are
formed, and percentages print with one decimal.

With predicted segmentation the token spans of predicted constituents no
longer align with gold EDU boundaries, so segmentation errors depress all
four tree metrics; a predicted constituent matches only on exact token
start and end.

Everything here is pure; per-document results combine with ``+``.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from typing import Iterable, Mapping, Sequence

from .core import (
    SPAN_RELATION,
    DocumentRecord,
    EduSpan,
    Nuclearity,
    RstError,
    RstTree,
    _check_edu_partition,
    _Value,
)

__all__ = [
    "MetricCounts",
    "ParsevalScores",
    "CorpusStats",
    "parseval",
    "segmentation_f1",
    "end_to_end_eval",
    "genre_breakdown",
    "format_parseval_table",
    "parseval_csv",
    "format_stats_table",
    "stats_csv",
]


class MetricCounts(_Value):
    """Matched/gold/predicted counts for one metric; micro-combinable."""

    __slots__ = _fields = ("matched", "gold", "predicted")

    def __init__(self, matched: int = 0, gold: int = 0, predicted: int = 0) -> None:
        if matched > min(gold, predicted):
            raise RstError("matched count exceeds gold or predicted total")
        self._fill(locals())

    def __add__(self, other: "MetricCounts") -> "MetricCounts":
        return MetricCounts(
            self.matched + other.matched,
            self.gold + other.gold,
            self.predicted + other.predicted,
        )

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


class ParsevalScores(_Value):
    """S / N / R / Full counts with derived micro P, R and F1."""

    __slots__ = _fields = ("span", "nuclearity", "relation", "full")

    def __init__(self, span: MetricCounts, nuclearity: MetricCounts,
                 relation: MetricCounts, full: MetricCounts) -> None:
        self._fill(locals())

    def __add__(self, other: "ParsevalScores") -> "ParsevalScores":
        return ParsevalScores(
            self.span + other.span,
            self.nuclearity + other.nuclearity,
            self.relation + other.relation,
            self.full + other.full,
        )

    @classmethod
    def zero(cls) -> "ParsevalScores":
        return cls(MetricCounts(), MetricCounts(), MetricCounts(), MetricCounts())

    def as_mapping(self) -> dict[str, MetricCounts]:
        return {
            "S": self.span,
            "N": self.nuclearity,
            "R": self.relation,
            "Full": self.full,
        }


def _span_table(
    tree: RstTree, edus: Sequence[EduSpan]
) -> dict[tuple[int, int], tuple[str, str]]:
    """``{(first_token, last_token): (role, relation)}`` for every non-root
    node, with the roles and relations of :func:`enumerate_constituents`.

    Raises RstError when two nodes share a token span, which only EDUs
    that do not partition the tokens can cause.
    """
    starts = [edu.first_token for edu in edus]
    ends = [edu.last_token for edu in edus]
    table: dict[tuple[int, int], tuple[str, str]] = {}
    nn, ns = Nuclearity.NN, Nuclearity.NS  # enum attribute reads are slow
    # Only internal nodes go on the stack; each writes its children's rows.
    stack = [] if tree.left is None else [tree]
    while stack:
        node = stack.pop()
        left, right, label = node.left, node.right, node.label
        rel, nuc = label.relation, label.nuclearity  # type: ignore[union-attr]
        if nuc is nn:
            left_entry = right_entry = ("N", rel)
        elif nuc is ns:
            left_entry, right_entry = ("N", SPAN_RELATION), ("S", rel)
        else:
            left_entry, right_entry = ("S", rel), ("N", SPAN_RELATION)
        table[starts[left.first_edu], ends[left.last_edu]] = left_entry
        table[starts[right.first_edu], ends[right.last_edu]] = right_entry
        if right.left is not None:
            stack.append(right)
        if left.left is not None:
            stack.append(left)
    if len(table) < 2 * tree.n_internal:
        raise RstError(
            f"{2 * tree.n_internal - len(table)} duplicate constituent spans"
        )
    return table


def parseval(
    gold: RstTree,
    pred: RstTree,
    gold_edus: Sequence[EduSpan],
    pred_edus: Sequence[EduSpan],
) -> ParsevalScores:
    """Score one predicted tree against gold over token-offset constituents.

    The EDU spans express each tree's constituents in token offsets, and
    both trees must cover the same token range (RstError otherwise).  Each
    tree becomes one table from token span to (role, relation), and the
    four metrics are counted by lookup in it;
    :func:`~rstkit.core.enumerate_constituents` is the reference listing of
    the same constituents.
    """
    if gold.token_span(gold_edus) != pred.token_span(pred_edus):
        raise RstError(
            f"gold covers {gold.token_span(gold_edus)}, "
            f"predicted covers {pred.token_span(pred_edus)}"
        )
    gold_table = _span_table(gold, gold_edus)
    pred_table = _span_table(pred, pred_edus)
    span = nuc = rel = full = 0
    for key, (role, relation) in pred_table.items():
        other = gold_table.get(key)
        if other is None:
            continue
        span += 1
        role_ok = role == other[0]
        relation_ok = relation == other[1]
        nuc += role_ok
        rel += relation_ok
        full += role_ok and relation_ok
    n_gold, n_pred = len(gold_table), len(pred_table)
    return ParsevalScores(
        MetricCounts(span, n_gold, n_pred),
        MetricCounts(nuc, n_gold, n_pred),
        MetricCounts(rel, n_gold, n_pred),
        MetricCounts(full, n_gold, n_pred),
    )


def segmentation_f1(
    gold_edus: Sequence[EduSpan],
    pred_edus: Sequence[EduSpan],
    n_tokens: int,
) -> MetricCounts:
    """Boundary F1 over EDU-initial tokens, excluding the forced token 0."""
    _check_edu_partition(gold_edus, n_tokens, "gold")
    _check_edu_partition(pred_edus, n_tokens, "predicted")
    gold_bounds = {e.first_token for e in gold_edus} - {0}
    pred_bounds = {e.first_token for e in pred_edus} - {0}
    return MetricCounts(
        len(gold_bounds & pred_bounds), len(gold_bounds), len(pred_bounds)
    )


def end_to_end_eval(
    gold_doc: DocumentRecord,
    pred_edus: Sequence[EduSpan],
    pred_tree: RstTree,
) -> tuple[MetricCounts, ParsevalScores]:
    """Score predicted segmentation plus tree against a gold document."""
    if gold_doc.tree is None:
        raise RstError(f"{gold_doc.doc_id} has no gold tree")
    if pred_tree.n_leaves != len(pred_edus):
        raise RstError(
            f"predicted tree has {pred_tree.n_leaves} leaves "
            f"for {len(pred_edus)} EDUs"
        )
    seg = segmentation_f1(gold_doc.edus, pred_edus, len(gold_doc.tokens))
    scores = parseval(
        gold_doc.tree,
        pred_tree,
        gold_edus=gold_doc.edus,
        pred_edus=pred_edus,
    )
    return seg, scores


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


class CorpusStats(_Value):
    """The descriptive statistics block reported for each treebank."""

    __slots__ = _fields = (
        "genres", "docs", "classes", "tokens_per_tree_min", "tokens_per_tree_max",
        "tokens_per_tree_median", "edus", "edus_per_tree", "relation_pairs",
        "non_span_constituents", "spanned_pct", "spanned_all_pct")

    def __init__(self, genres: int, docs: int, classes: int, tokens_per_tree_min: int,
                 tokens_per_tree_max: int, tokens_per_tree_median: float, edus: int,
                 edus_per_tree: float, relation_pairs: int, non_span_constituents: int,
                 spanned_pct: float | None = None,
                 spanned_all_pct: float | None = None) -> None:
        if docs < 1:
            raise RstError("statistics need at least one document")
        if not tokens_per_tree_min <= tokens_per_tree_median <= tokens_per_tree_max:
            raise RstError("token statistics out of order")
        self._fill(locals())


def _spanned_sentence_counts(
    doc: DocumentRecord, boundaries: Sequence[int] | None
) -> tuple[int, int, int, int]:
    """(spanned non-elementary, non-elementary, spanned any, sentences)."""
    if boundaries is None:
        raise RstError(f"{doc.doc_id}: sentence boundaries required")
    doc.check_sentence_boundaries(boundaries)
    bounds = list(boundaries) + [len(doc.tokens)]
    sentences = [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]
    node_spans = {node.token_span(doc.edus) for node in doc.tree.nodes()}
    # EDUs partition the tokens in order, so both lists are sorted: the
    # EDUs inside a sentence are those from the first one starting at or
    # after its start up to the last one ending at or before its end (a
    # negative count means the sentence lies inside one EDU).
    firsts = [edu.first_token for edu in doc.edus]
    lasts = [edu.last_token for edu in doc.edus]
    spanned_multi = multi = spanned_any = 0
    for sent in sentences:
        inside = bisect_right(lasts, sent[1]) - bisect_left(firsts, sent[0])
        matched = sent in node_spans
        spanned_any += matched
        if inside >= 2:
            multi += 1
            spanned_multi += matched
    return spanned_multi, multi, spanned_any, len(sentences)


def _median(values: Sequence[int]) -> int | float:
    """The median exactly as ``statistics.median`` gives it, without the
    cost of importing ``statistics`` (and ``fractions``, ``decimal``)."""
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class _Tally:
    """The sums behind one :class:`CorpusStats` row.  Tallies of disjoint
    sets of documents merge with ``+=``: token counts concatenate, genre
    and label sets union and counters sum."""

    __slots__ = ("genres", "classes", "token_counts", "counts")

    def __init__(self) -> None:
        self.genres: set[str] = set()
        self.classes: set[str] = set()
        self.token_counts: list[int] = []
        self.counts: Counter[str] = Counter()  # a missing count is 0

    def add(self, doc: DocumentRecord, sentences, spanned: bool) -> None:
        tree = doc.tree
        if tree is None:
            raise RstError(f"{doc.doc_id} has no tree")
        self.genres.add(doc.genre)
        self.token_counts.append(len(doc.tokens))
        classes, non_span, nn = self.classes, 0, Nuclearity.NN  # enum reads are slow
        for node in tree.internal_nodes():
            label = node.label
            classes.add(label.merged)  # type: ignore[union-attr]
            non_span += 2 if label.nuclearity is nn else 1  # type: ignore[union-attr]
        counts = self.counts
        counts["edus"] += tree.n_leaves
        counts["relation_pairs"] += tree.n_internal
        counts["non_span"] += non_span
        if spanned:
            bounds = (
                sentences.get(doc.doc_id)
                if sentences is not None
                else doc.sentence_boundaries
            )
            sm, m, sa, ts = _spanned_sentence_counts(doc, bounds)
            counts.update(spanned_multi=sm, multi=m, spanned_any=sa, sentences=ts)

    def __iadd__(self, other: "_Tally") -> "_Tally":
        self.genres |= other.genres
        self.classes |= other.classes
        self.token_counts += other.token_counts
        self.counts += other.counts
        return self

    def stats(self) -> CorpusStats:
        # without spanned-sentence coverage, no sentence was counted
        tokens, counts = self.token_counts, self.counts
        multi, sents = counts["multi"], counts["sentences"]
        return CorpusStats(
            genres=len(self.genres),
            docs=len(tokens),
            classes=len(self.classes),
            tokens_per_tree_min=min(tokens),
            tokens_per_tree_max=max(tokens),
            tokens_per_tree_median=float(_median(tokens)),
            edus=counts["edus"],
            edus_per_tree=counts["edus"] / len(tokens),
            relation_pairs=counts["relation_pairs"],
            non_span_constituents=counts["non_span"],
            spanned_pct=100.0 * counts["spanned_multi"] / multi if multi else None,
            spanned_all_pct=100.0 * counts["spanned_any"] / sents if sents else None,
        )


def genre_breakdown(
    corpus_docs: Iterable[DocumentRecord],
    sentences: Mapping[str, Sequence[int]] | None = None,
    spanned: bool = True,
) -> tuple[CorpusStats, dict[str, CorpusStats]]:
    """Aggregate tree statistics: the row of all documents and the rows of
    each genre, keyed and ordered by genre name, from one pass over the
    documents that keeps only each one's token count.

    ``sentences`` optionally overrides the per-document sentence boundaries:
    sentence-initial token indices, starting at 0 and strictly increasing
    (as :func:`~rstkit.treebank.read_sentence_file` checks).  One at or past
    the token count raises RstError naming the document.  The spanned
    percentage is the share of non-elementary sentences (those containing
    at least two EDUs) whose exact token span equals some tree-node span;
    the all-sentence variant is also reported.  With ``spanned=False`` no
    boundaries are needed.
    """
    tallies: defaultdict[str, _Tally] = defaultdict(_Tally)
    for doc in corpus_docs:
        tallies[doc.genre].add(doc, sentences, spanned)
    if not tallies:
        raise RstError("statistics need at least one document")
    whole, rows = _Tally(), {}
    for genre in sorted(tallies):
        whole += tallies[genre]
        rows[genre] = tallies[genre].stats()
    return whole.stats(), rows


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def _aligned(table: list[list[str]]) -> str:
    """Rows of cells as text columns, each padded to its widest cell and
    two spaces apart, with no trailing spaces."""
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )


def _csv(table: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(table)
    return out.getvalue()


PARSEVAL_METRICS = ("S", "N", "R", "Full")


def _select_metrics(metrics: Sequence[str] | None) -> tuple[str, ...]:
    if metrics is None:
        return PARSEVAL_METRICS
    unknown = [m for m in metrics if m not in PARSEVAL_METRICS]
    if unknown:
        raise RstError(f"unknown metrics {unknown}; choose from {PARSEVAL_METRICS}")
    return tuple(m for m in PARSEVAL_METRICS if m in metrics)


def format_parseval_table(
    rows: Mapping[str, tuple[MetricCounts | None, ParsevalScores]],
    metrics: Sequence[str] | None = None,
) -> str:
    """Aligned text table; one row per system/genre, percentages to 0.1."""
    selected = _select_metrics(metrics)
    header = ["name", "Segm.", *selected]
    table = [header]
    for name, (seg, scores) in rows.items():
        mapping = scores.as_mapping()
        table.append(
            [
                name,
                _fmt(seg.f1 if seg is not None else None),
                *(_fmt(mapping[m].f1) for m in selected),
            ]
        )
    return _aligned(table)


def parseval_csv(
    rows: Mapping[str, tuple[MetricCounts | None, ParsevalScores]],
    metrics: Sequence[str] | None = None,
) -> str:
    selected = _select_metrics(metrics)
    table = [["name", "metric", "precision", "recall", "f1", "matched", "gold",
              "predicted"]]
    for name, (seg, scores) in rows.items():
        mapping = scores.as_mapping()
        counted = [("Segm.", seg)] if seg is not None else []
        for metric, counts in counted + [(m, mapping[m]) for m in selected]:
            table.append(
                [name, metric, f"{counts.precision:.4f}", f"{counts.recall:.4f}",
                 f"{counts.f1:.4f}", counts.matched, counts.gold, counts.predicted]
            )
    return _csv(table)


_STATS_COLUMNS = (
    ("docs", lambda s: str(s.docs)),
    ("genres", lambda s: str(s.genres)),
    ("classes", lambda s: str(s.classes)),
    ("tok/tree min", lambda s: str(s.tokens_per_tree_min)),
    ("tok/tree max", lambda s: str(s.tokens_per_tree_max)),
    ("tok/tree med", lambda s: f"{s.tokens_per_tree_median:g}"),
    ("spanned %", lambda s: _fmt(s.spanned_pct)),
    ("EDUs", lambda s: str(s.edus)),
    ("EDUs/tree", lambda s: f"{s.edus_per_tree:.1f}"),
    ("rel pairs", lambda s: str(s.relation_pairs)),
    ("non-span const", lambda s: str(s.non_span_constituents)),
)


def _stats_table(rows: Mapping[str, CorpusStats], columns) -> list[list[str]]:
    table = [["name"] + [name for name, _ in columns]]
    for name, stats in rows.items():
        table.append([name] + [getter(stats) for _, getter in columns])
    return table


def format_stats_table(rows: Mapping[str, CorpusStats]) -> str:
    return _aligned(_stats_table(rows, _STATS_COLUMNS))


def stats_csv(rows: Mapping[str, CorpusStats]) -> str:
    columns = _STATS_COLUMNS + (("spanned all %", lambda s: _fmt(s.spanned_all_pct)),)
    return _csv(_stats_table(rows, columns))
