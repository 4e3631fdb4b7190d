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
import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    Constituent,
    Corpus,
    DocumentRecord,
    EduSpan,
    MissingTree,
    RstError,
    RstTree,
    enumerate_constituents,
)

__all__ = [
    "MetricCounts",
    "ParsevalScores",
    "CorpusStats",
    "SpanRangeMismatch",
    "NotAPartition",
    "MissingSentences",
    "parseval",
    "segmentation_f1",
    "end_to_end_eval",
    "corpus_stats",
    "genre_breakdown",
    "format_parseval_table",
    "parseval_csv",
    "format_stats_table",
    "stats_csv",
]


class SpanRangeMismatch(RstError):
    """Gold and predicted trees cover different token ranges."""


class NotAPartition(RstError):
    """EDU spans do not partition the token range."""


class MissingSentences(RstError):
    """Sentence boundaries are required but absent."""


@dataclass(frozen=True, slots=True)
class MetricCounts:
    """Matched/gold/predicted counts for one metric; micro-combinable."""

    matched: int = 0
    gold: int = 0
    predicted: int = 0

    def __post_init__(self) -> None:
        if self.matched > min(self.gold, self.predicted):
            raise RstError("matched count exceeds gold or predicted total")

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


@dataclass(frozen=True, slots=True)
class ParsevalScores:
    """S / N / R / Full counts with derived micro P, R and F1."""

    span: MetricCounts
    nuclearity: MetricCounts
    relation: MetricCounts
    full: MetricCounts

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


def _constituent_index(
    entries: Sequence[Constituent],
) -> dict[tuple[int, int], Constituent]:
    index: dict[tuple[int, int], Constituent] = {}
    for entry in entries:
        if entry.span in index:
            raise RstError(f"duplicate constituent span {entry.span}")
        index[entry.span] = entry
    return index


def parseval(
    gold: RstTree,
    pred: RstTree,
    gold_edus: Sequence[EduSpan] | None = None,
    pred_edus: Sequence[EduSpan] | None = None,
) -> ParsevalScores:
    """Score one predicted tree against gold over token-offset constituents.

    Both trees must cover the same token range (SpanRangeMismatch
    otherwise); pass the EDU spans to express constituents in token offsets,
    or omit both to score in EDU-index space.
    """
    if gold.token_span(gold_edus) != pred.token_span(pred_edus):
        raise SpanRangeMismatch(
            f"gold covers {gold.token_span(gold_edus)}, "
            f"predicted covers {pred.token_span(pred_edus)}"
        )
    gold_index = _constituent_index(enumerate_constituents(gold, gold_edus))
    pred_index = _constituent_index(enumerate_constituents(pred, pred_edus))
    span = nuc = rel = full = 0
    for key, entry in pred_index.items():
        other = gold_index.get(key)
        if other is None:
            continue
        span += 1
        role_ok = entry.role == other.role
        relation_ok = entry.relation == other.relation
        nuc += role_ok
        rel += relation_ok
        full += role_ok and relation_ok
    n_gold, n_pred = len(gold_index), len(pred_index)
    return ParsevalScores(
        MetricCounts(span, n_gold, n_pred),
        MetricCounts(nuc, n_gold, n_pred),
        MetricCounts(rel, n_gold, n_pred),
        MetricCounts(full, n_gold, n_pred),
    )


def _check_partition(edus: Sequence[EduSpan], n_tokens: int, side: str) -> None:
    expected = 0
    for edu in edus:
        if edu.first_token != expected:
            raise NotAPartition(f"{side} EDUs leave a gap at token {expected}")
        expected = edu.last_token + 1
    if expected != n_tokens:
        raise NotAPartition(
            f"{side} EDUs cover {expected} of {n_tokens} tokens"
        )


def segmentation_f1(
    gold_edus: Sequence[EduSpan],
    pred_edus: Sequence[EduSpan],
    n_tokens: int,
) -> MetricCounts:
    """Boundary F1 over EDU-initial tokens, excluding the forced token 0."""
    _check_partition(gold_edus, n_tokens, "gold")
    _check_partition(pred_edus, n_tokens, "predicted")
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
        raise MissingTree(f"{gold_doc.doc_id} has no gold tree")
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


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """The descriptive statistics block reported for each treebank."""

    genres: int
    docs: int
    classes: int
    tokens_per_tree_min: int
    tokens_per_tree_max: int
    tokens_per_tree_median: float
    edus: int
    edus_per_tree: float
    relation_pairs: int
    non_span_constituents: int
    spanned_pct: float | None = None
    spanned_all_pct: float | None = None
    sources: int | None = None  # not derivable from document records

    def __post_init__(self) -> None:
        if self.docs < 1:
            raise RstError("statistics need at least one document")
        if not (
            self.tokens_per_tree_min
            <= self.tokens_per_tree_median
            <= self.tokens_per_tree_max
        ):
            raise RstError("token statistics out of order")


def _spanned_sentence_counts(
    doc: DocumentRecord, boundaries: Sequence[int] | None
) -> tuple[int, int, int, int]:
    """(spanned non-elementary, non-elementary, spanned any, sentences)."""
    if boundaries is None:
        raise MissingSentences(f"{doc.doc_id}: sentence boundaries required")
    if doc.tree is None:
        raise MissingTree(f"{doc.doc_id} has no tree")
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


def corpus_stats(
    corpus_docs: Iterable[DocumentRecord],
    sentences: Mapping[str, Sequence[int]] | None = None,
    spanned: bool = True,
) -> CorpusStats:
    """Aggregate tree statistics over documents.

    ``sentences`` optionally overrides the per-document sentence boundaries
    (sentence-initial token indices, starting at 0).  The spanned
    percentage is the share of non-elementary sentences (those containing
    at least two EDUs) whose exact token span equals some tree-node span;
    the all-sentence variant is also reported.  With ``spanned=False`` no
    boundaries are needed.
    """
    token_counts = []
    edu_total = 0
    relation_pairs = 0
    non_span = 0
    classes: set[str] = set()
    genres: set[str] = set()
    spanned_multi = multi = spanned_any = total_sents = 0
    n_docs = 0
    for doc in corpus_docs:
        n_docs += 1
        if doc.tree is None:
            raise MissingTree(f"{doc.doc_id} has no tree")
        genres.add(doc.genre)
        first, last = doc.tree.token_span(doc.edus)
        token_counts.append(last - first + 1)
        edu_total += doc.tree.n_leaves
        relation_pairs += doc.tree.n_internal
        for node in doc.tree.internal_nodes():
            label = node.label
            classes.add(label.merged)  # type: ignore[union-attr]
            non_span += 2 if label.nuclearity.value == "NN" else 1  # type: ignore[union-attr]
        if spanned:
            bounds = (
                sentences.get(doc.doc_id)
                if sentences is not None
                else doc.sentence_boundaries
            )
            sm, m, sa, ts = _spanned_sentence_counts(doc, bounds)
            spanned_multi += sm
            multi += m
            spanned_any += sa
            total_sents += ts
    if not n_docs:
        raise RstError("statistics need at least one document")
    return CorpusStats(
        genres=len(genres),
        docs=n_docs,
        classes=len(classes),
        tokens_per_tree_min=min(token_counts),
        tokens_per_tree_max=max(token_counts),
        tokens_per_tree_median=float(statistics.median(token_counts)),
        edus=edu_total,
        edus_per_tree=edu_total / n_docs,
        relation_pairs=relation_pairs,
        non_span_constituents=non_span,
        spanned_pct=(100.0 * spanned_multi / multi) if spanned and multi else None,
        spanned_all_pct=(100.0 * spanned_any / total_sents)
        if spanned and total_sents
        else None,
    )


def genre_breakdown(
    corpus: Corpus,
    sentences: Mapping[str, Sequence[int]] | None = None,
    spanned: bool = True,
) -> dict[str, CorpusStats]:
    """corpus_stats per genre, keyed and ordered by genre name."""
    by_genre: dict[str, list[DocumentRecord]] = {}
    for doc in corpus.documents:
        by_genre.setdefault(doc.genre, []).append(doc)
    return {
        genre: corpus_stats(docs, sentences, spanned)
        for genre, docs in sorted(by_genre.items())
    }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


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
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def parseval_csv(
    rows: Mapping[str, tuple[MetricCounts | None, ParsevalScores]],
    metrics: Sequence[str] | None = None,
) -> str:
    selected = _select_metrics(metrics)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["name", "metric", "precision", "recall", "f1", "matched", "gold", "predicted"]
    )
    for name, (seg, scores) in rows.items():
        if seg is not None:
            writer.writerow(
                [name, "Segm.", f"{seg.precision:.4f}", f"{seg.recall:.4f}",
                 f"{seg.f1:.4f}", seg.matched, seg.gold, seg.predicted]
            )
        mapping = scores.as_mapping()
        for metric in selected:
            counts = mapping[metric]
            writer.writerow(
                [name, metric, f"{counts.precision:.4f}", f"{counts.recall:.4f}",
                 f"{counts.f1:.4f}", counts.matched, counts.gold, counts.predicted]
            )
    return out.getvalue()


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


def format_stats_table(rows: Mapping[str, CorpusStats]) -> str:
    header = ["name"] + [name for name, _ in _STATS_COLUMNS]
    table = [header]
    for name, stats in rows.items():
        table.append([name] + [getter(stats) for _, getter in _STATS_COLUMNS])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    )


def stats_csv(rows: Mapping[str, CorpusStats]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["name"] + [name for name, _ in _STATS_COLUMNS] + ["spanned all %"])
    for name, stats in rows.items():
        writer.writerow(
            [name]
            + [getter(stats) for _, getter in _STATS_COLUMNS]
            + [_fmt(stats.spanned_all_pct)]
        )
    return out.getvalue()
