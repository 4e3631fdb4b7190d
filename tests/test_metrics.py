import random
import re
import statistics

import pytest

from rstkit.core import (
    EduSpan,
    RstError,
    enumerate_constituents,
)
from rstkit.core import Corpus
from rstkit.metrics import (
    MetricCounts,
    end_to_end_eval,
    format_parseval_table,
    format_stats_table,
    genre_breakdown,
    parseval,
    _median,
    _spanned_sentence_counts,
    parseval_csv,
    segmentation_f1,
    stats_csv,
)

from helpers import (
    brute_force_parseval,
    build_tree,
    make_document,
    oracle_counts,
    perturb_tree,
    random_edus,
    random_partition,
    random_tree,
    reference_spanned_sentence_counts,
    unit_edus,
)


def assert_matches_oracle(gold_tree, pred_tree, edus=None):
    """Parseval of two trees over the same ``edus``, unit EDUs by default,
    checked against the all-pairs matcher."""
    edus = unit_edus(gold_tree) if edus is None else edus
    scores = parseval(gold_tree, pred_tree, edus, edus)
    oracle = brute_force_parseval(
        enumerate_constituents(gold_tree, edus),
        enumerate_constituents(pred_tree, edus),
    )
    assert scores.span.matched == oracle["S"]
    assert scores.nuclearity.matched == oracle["N"]
    assert scores.relation.matched == oracle["R"]
    assert scores.full.matched == oracle["Full"]
    return scores


class TestParseval:
    def test_identity_is_all_hundred(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        scores = assert_matches_oracle(tree, tree)
        for counts in scores.as_mapping().values():
            assert counts.precision == counts.recall == counts.f1 == 100.0

    def test_wrong_relation_on_satellite(self):
        gold = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        pred = build_tree(((0, 1, "joint_NN"), 2, "condition_NS"))
        scores = assert_matches_oracle(gold, pred)
        assert scores.span.f1 == 100.0
        assert scores.nuclearity.f1 == 100.0
        assert scores.relation.f1 == 75.0
        assert scores.full.f1 == 75.0

    def test_different_root_split(self):
        # Computed with the brute-force matcher: the three leaves match on
        # span, the two internal spans differ; roles and relations then
        # drop N to 2/4 and R and Full to 1/4.
        gold = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        pred = build_tree((0, (1, 2, "joint_NN"), "elaboration_NS"))
        scores = assert_matches_oracle(gold, pred)
        assert scores.span.f1 == 75.0
        assert scores.nuclearity.f1 == 50.0
        assert scores.relation.f1 == 25.0
        assert scores.full.f1 == 25.0

    def test_span_range_mismatch(self):
        gold = build_tree((0, 1, "joint_NN"))
        pred = build_tree((0, 1, "joint_NN"))
        with pytest.raises(
            RstError, match=re.escape("gold covers (0, 3), predicted covers (0, 1)")
        ):
            parseval(gold, pred, (EduSpan(0, 1), EduSpan(2, 3)), (EduSpan(0, 0), EduSpan(1, 1)))

    def test_full_is_bounded_by_all_metrics(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 9)
            scores = assert_matches_oracle(random_tree(rng, n), random_tree(rng, n))
            assert scores.full.matched <= scores.span.matched
            assert scores.full.matched <= scores.nuclearity.matched
            assert scores.full.matched <= scores.relation.matched
            assert scores.nuclearity.matched <= scores.span.matched
            assert scores.relation.matched <= scores.span.matched

    def test_matcher_equals_oracle_on_token_spans(self):
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(2, 20)
            gold_edus = random_edus(rng, n)
            assert_matches_oracle(random_tree(rng, n), random_tree(rng, n), gold_edus)

    def test_micro_accumulation(self):
        edus = (EduSpan(0, 0), EduSpan(1, 1))
        a = parseval(
            build_tree((0, 1, "joint_NN")), build_tree((0, 1, "joint_NN")), edus, edus
        )
        b = parseval(
            build_tree((0, 1, "elaboration_NS")), build_tree((0, 1, "attribution_SN")),
            edus, edus,
        )
        total = a + b
        assert total.span.gold == 4
        assert total.span.matched == 4
        assert total.full.matched == 2  # second pair matches nothing fully

    def test_counts_validation(self):
        with pytest.raises(Exception):
            MetricCounts(matched=3, gold=2, predicted=5)


def counts_of(scores):
    return {
        m: (c.matched, c.gold, c.predicted) for m, c in scores.as_mapping().items()
    }


class TestParsevalDifferential:
    """``parseval`` (span tables) against the all-pairs matcher over
    ``enumerate_constituents``, on seeded pairs of 1-60 EDUs whose labels
    cover NN, NS and SN."""

    def test_shared_edus(self):
        rng = random.Random(2017)
        for _ in range(300):
            n = rng.randint(1, 60)
            edus = random_edus(rng, n)
            gold = random_tree(rng, n)
            pred = perturb_tree(rng, gold) if rng.random() < 0.5 else random_tree(rng, n)
            scores = parseval(gold, pred, edus, edus)
            assert counts_of(scores) == oracle_counts(gold, pred, edus, edus)

    def test_different_edus(self):
        rng = random.Random(2018)
        for _ in range(300):
            n_tokens = rng.randint(1, 120)
            n_gold = rng.randint(1, min(60, n_tokens))
            n_pred = rng.randint(max(1, n_gold - 5), min(60, n_tokens, n_gold + 5))
            gold_edus = random_partition(rng, n_tokens, n_gold)
            pred_edus = random_partition(rng, n_tokens, n_pred)
            gold = random_tree(rng, n_gold)
            pred = random_tree(rng, n_pred)
            scores = parseval(gold, pred, gold_edus, pred_edus)
            assert counts_of(scores) == oracle_counts(gold, pred, gold_edus, pred_edus)

    def test_edu_index_space(self):
        rng = random.Random(2019)
        for _ in range(50):
            n = rng.randint(1, 60)
            gold = random_tree(rng, n)
            pred = perturb_tree(rng, gold, p_resplit=0.3, p_relabel=0.5)
            edus = unit_edus(gold)
            assert counts_of(parseval(gold, pred, edus, edus)) == oracle_counts(
                gold, pred, edus, edus)

    @pytest.mark.parametrize("collapsed_side", ["gold", "pred"])
    def test_nodes_collapsed_onto_one_span_raise(self, collapsed_side):
        # Both EDUs cover tokens 0-1, so both leaves have the span (0, 1).
        tree = build_tree((0, 1, "joint_NN"))
        collapsed = (EduSpan(0, 1), EduSpan(0, 1))
        partition = (EduSpan(0, 0), EduSpan(1, 1))
        if collapsed_side == "gold":
            args = (collapsed, partition)
        else:
            args = (partition, collapsed)
        with pytest.raises(RstError, match="duplicate constituent span"):
            parseval(tree, tree, *args)


class TestSegmentationF1:
    def test_identical_partitions(self):
        edus = (EduSpan(0, 2), EduSpan(3, 4))
        assert segmentation_f1(edus, edus, 5).f1 == 100.0

    def test_single_predicted_edu_has_zero_recall(self):
        gold = (EduSpan(0, 1), EduSpan(2, 3), EduSpan(4, 5))
        pred = (EduSpan(0, 5),)
        scores = segmentation_f1(gold, pred, 6)
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_hand_computed_half_overlap(self):
        # gold boundaries {3, 7}, predicted {3, 5}
        gold = (EduSpan(0, 2), EduSpan(3, 6), EduSpan(7, 9))
        pred = (EduSpan(0, 2), EduSpan(3, 4), EduSpan(5, 9))
        scores = segmentation_f1(gold, pred, 10)
        assert scores.precision == 50.0
        assert scores.recall == 50.0
        assert scores.f1 == 50.0

    def test_token_zero_gets_no_credit(self):
        gold = (EduSpan(0, 1), EduSpan(2, 3))
        pred = (EduSpan(0, 3),)
        scores = segmentation_f1(gold, pred, 4)
        assert scores.predicted == 0  # only the forced boundary
        assert scores.gold == 1

    def test_not_a_partition(self):
        with pytest.raises(RstError, match="gold: EDUs cover 2 tokens, document has 3"):
            segmentation_f1((EduSpan(0, 1),), (EduSpan(0, 0),), 3)
        with pytest.raises(RstError, match=re.escape(
                "gold: EDU spans do not partition the tokens (expected start 3, got 4)")):
            segmentation_f1((EduSpan(0, 2), EduSpan(4, 4)), (EduSpan(0, 4),), 5)
        # an overlap is no gap: the message names the start it expected
        with pytest.raises(RstError, match=re.escape(
                "predicted: EDU spans do not partition the tokens (expected start 3, got 2)")):
            segmentation_f1((EduSpan(0, 4),), (EduSpan(0, 2), EduSpan(2, 4)), 5)
        with pytest.raises(RstError, match="predicted: document has no EDUs"):
            segmentation_f1((EduSpan(0, 4),), (), 5)


class TestEndToEnd:
    def gold_doc(self):
        tree = build_tree((0, (1, 2, "joint_NN"), "elaboration_NS"))
        return make_document(
            "doc", tree, edus=(EduSpan(0, 1), EduSpan(2, 2), EduSpan(3, 3))
        )

    def test_gold_everything_is_perfect(self):
        doc = self.gold_doc()
        seg, scores = end_to_end_eval(doc, doc.edus, doc.tree)
        assert seg.f1 == 100.0
        for counts in scores.as_mapping().values():
            assert counts.f1 == 100.0

    def test_merged_edu_depresses_span_metric(self):
        doc = self.gold_doc()
        pred_edus = (EduSpan(0, 1), EduSpan(2, 3))
        pred_tree = build_tree((0, 1, "joint_NN"))
        seg, scores = end_to_end_eval(doc, pred_edus, pred_tree)
        gold_seg_scores = parseval(doc.tree, doc.tree, doc.edus, doc.edus)
        assert scores.span.f1 < gold_seg_scores.span.f1

    def test_scores_on_gold_edus_dominate_end_to_end(self):
        rng = random.Random(91)
        for _ in range(30):
            n = rng.randint(2, 10)
            gold = random_tree(rng, n)
            doc = make_document("d", gold, random_edus(rng, n))
            pred_tree_gold_edus = random_tree(rng, n)
            gold_based = parseval(gold, pred_tree_gold_edus, doc.edus, doc.edus)
            # perturb the segmentation by merging one random boundary
            if n >= 3:
                drop = rng.randint(1, n - 1)
                pred_edus = []
                for i, edu in enumerate(doc.edus):
                    if i == drop:
                        prev = pred_edus.pop()
                        pred_edus.append(EduSpan(prev.first_token, edu.last_token))
                    else:
                        pred_edus.append(edu)
                pred_tree = random_tree(rng, len(pred_edus))
                _, e2e = end_to_end_eval(doc, tuple(pred_edus), pred_tree)
                # fewer predicted constituents can match once boundaries drift
                assert e2e.span.matched <= gold_based.span.gold

    def test_leaf_count_mismatch(self):
        doc = self.gold_doc()
        with pytest.raises(Exception):
            end_to_end_eval(doc, doc.edus, build_tree((0, 1, "joint_NN")))


class TestHandScoredFixtures:
    """Six prediction fixtures with hand-computed expected P/R/F1.

    These pin the evaluation harness to exact values; the parser scores
    from the literature are not reproducible here (they require
    fine-tuning a large language model), so the harness is validated by
    these cases plus the decoder/matcher equivalence suites.
    """

    def test_case_1_identical_trees(self):
        tree = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        scores = assert_matches_oracle(tree, tree)
        for counts in scores.as_mapping().values():
            assert (counts.matched, counts.gold, counts.predicted) == (4, 4, 4)
            assert counts.precision == 100.0
            assert counts.recall == 100.0
            assert counts.f1 == 100.0

    def test_case_2_satellite_relation_error(self):
        gold = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        pred = build_tree(((0, 1, "joint_NN"), 2, "condition_NS"))
        scores = assert_matches_oracle(gold, pred)
        assert (scores.span.matched, scores.nuclearity.matched) == (4, 4)
        assert (scores.relation.matched, scores.full.matched) == (3, 3)
        assert scores.relation.precision == 75.0
        assert scores.relation.recall == 75.0
        assert scores.relation.f1 == 75.0

    def test_case_3_root_split_error(self):
        gold = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        pred = build_tree((0, (1, 2, "joint_NN"), "elaboration_NS"))
        scores = assert_matches_oracle(gold, pred)
        assert scores.span.matched == 3 and scores.span.f1 == 75.0
        assert scores.nuclearity.matched == 2 and scores.nuclearity.f1 == 50.0
        assert scores.relation.matched == 1 and scores.relation.f1 == 25.0
        assert scores.full.matched == 1 and scores.full.f1 == 25.0

    def test_case_4_nuclearity_swap(self):
        gold = build_tree((0, 1, "elaboration_NS"))
        pred = build_tree((0, 1, "elaboration_SN"))
        scores = assert_matches_oracle(gold, pred)
        assert scores.span.f1 == 100.0
        assert scores.nuclearity.matched == 0 and scores.nuclearity.f1 == 0.0
        assert scores.relation.matched == 0 and scores.relation.f1 == 0.0
        assert scores.full.f1 == 0.0

    def test_case_5_end_to_end_with_merged_edus(self):
        gold_tree = build_tree((0, (1, 2, "joint_NN"), "elaboration_NS"))
        doc = make_document(
            "doc", gold_tree, edus=(EduSpan(0, 1), EduSpan(2, 2), EduSpan(3, 3))
        )
        pred_edus = (EduSpan(0, 1), EduSpan(2, 3))
        pred_tree = build_tree((0, 1, "joint_NN"))
        seg, scores = end_to_end_eval(doc, pred_edus, pred_tree)
        # segmentation: gold boundaries {2, 3}, predicted {2}
        assert (seg.matched, seg.gold, seg.predicted) == (1, 2, 1)
        assert seg.precision == 100.0 and seg.recall == 50.0
        assert seg.f1 == 200.0 / 3.0
        # spans [0,1] and [2,3] both exist in gold; roles match only on [0,1]
        assert (scores.span.matched, scores.span.gold, scores.span.predicted) == (2, 4, 2)
        assert scores.span.precision == 100.0 and scores.span.recall == 50.0
        assert scores.span.f1 == 200.0 / 3.0
        assert scores.nuclearity.matched == 1
        assert scores.nuclearity.precision == 50.0 and scores.nuclearity.recall == 25.0
        assert scores.nuclearity.f1 == 100.0 / 3.0
        assert scores.relation.matched == 0 and scores.relation.f1 == 0.0
        assert scores.full.matched == 0 and scores.full.f1 == 0.0

    def test_case_6_micro_accumulation_over_two_documents(self):
        edus_a = (EduSpan(0, 0), EduSpan(1, 1), EduSpan(2, 2))
        doc_a = parseval(
            build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS")),
            build_tree(((0, 1, "joint_NN"), 2, "condition_NS")),
            edus_a, edus_a,
        )
        doc_b = parseval(
            build_tree((0, 1, "elaboration_NS")),
            build_tree((0, 1, "elaboration_SN")),
            edus_a[:2], edus_a[:2],
        )
        total = doc_a + doc_b
        assert (total.span.matched, total.span.gold, total.span.predicted) == (6, 6, 6)
        assert total.span.f1 == 100.0
        assert total.nuclearity.matched == 4
        assert total.nuclearity.precision == 400.0 / 6.0
        assert total.nuclearity.f1 == pytest.approx(400.0 / 6.0, abs=1e-12)
        assert total.relation.matched == 3 and total.relation.f1 == 50.0
        assert total.full.matched == 3 and total.full.f1 == 50.0


class TestSpannedSentenceCounts:
    def test_bisection_matches_the_all_edu_scan(self):
        rng = random.Random(31)
        totals = [0, 0, 0, 0]
        for i in range(300):
            n = rng.randint(1, 15)
            edus = random_edus(rng, n, max_tokens=4)
            n_tokens = edus[-1].last_token + 1
            # sentence starts from EDU starts (sentences of whole EDUs) and
            # from arbitrary tokens (sentences cutting through EDUs)
            starts = {edu.first_token for edu in edus if rng.random() < 0.4}
            starts |= {rng.randrange(n_tokens) for _ in range(rng.randint(0, 3))}
            bounds = sorted(starts | {0})
            doc = make_document(f"d{i}", random_tree(rng, n), edus)
            got = _spanned_sentence_counts(doc, bounds)
            assert got == reference_spanned_sentence_counts(doc, bounds)
            totals = [a + b for a, b in zip(totals, got)]
        # every count was exercised, not only the zero case
        assert all(totals)


class TestCorpusStats:
    def test_single_sentence_doc_fully_spanned(self):
        tree = build_tree((0, 1, "elaboration_NS"))
        doc = make_document("d", tree, sents=[0])
        stats = genre_breakdown([doc])[0]
        assert stats.spanned_pct == 100.0
        assert stats.spanned_all_pct == 100.0

    def test_hand_built_corpus(self):
        # doc1: 3 EDUs over 6 tokens, sentence split [0, 4): first sentence
        # holds EDUs 0-1 and equals the span of their parent node.
        tree1 = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        doc1 = make_document(
            "d1",
            tree1,
            edus=(EduSpan(0, 1), EduSpan(2, 3), EduSpan(4, 5)),
            sents=[0, 4],
            genre="news",
        )
        # doc2: 2 EDUs over 4 tokens, one sentence per EDU: both sentences
        # are elementary, so neither counts for the non-EDU percentage.
        tree2 = build_tree((0, 1, "attribution_SN"))
        doc2 = make_document(
            "d2",
            tree2,
            edus=(EduSpan(0, 1), EduSpan(2, 3)),
            sents=[0, 2],
            genre="blogs",
        )
        stats = genre_breakdown([doc1, doc2])[0]
        assert stats.docs == 2
        assert stats.genres == 2
        assert stats.classes == 3
        assert stats.edus == 5
        assert stats.edus_per_tree == 2.5
        assert stats.relation_pairs == 3  # internal nodes: 2 + 1
        assert stats.non_span_constituents == 4  # NN counts twice
        assert (stats.tokens_per_tree_min, stats.tokens_per_tree_max) == (4, 6)
        assert stats.tokens_per_tree_median == 5.0
        # non-elementary sentences: doc1 sentence [0,3] (EDUs 0-1, spanned by
        # the joint node); doc1 sentence [4,5] and doc2 sentences are
        # elementary.
        assert stats.spanned_pct == 100.0
        # all sentences: doc1 [0,3] matches, doc1 [4,5] matches leaf 2,
        # doc2 [0,1] and [2,3] match leaves.
        assert stats.spanned_all_pct == 100.0

    def test_unspanned_sentence(self):
        # sentence [0, 2] crosses the constituent boundary: EDUs 0 and 1
        # have no common node whose span is exactly [0, 2].
        tree = build_tree((0, (1, 2, "joint_NN"), "elaboration_NS"))
        doc = make_document(
            "d",
            tree,
            edus=(EduSpan(0, 1), EduSpan(2, 2), EduSpan(3, 4)),
            sents=[0, 3],
        )
        stats = genre_breakdown([doc])[0]
        assert stats.spanned_pct == 0.0

    def test_missing_sentences(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")))
        with pytest.raises(RstError, match="d: sentence boundaries required"):
            genre_breakdown([doc])[0]
        stats = genre_breakdown([doc], spanned=False)[0]
        assert stats.spanned_pct is None

    def test_relation_pairs_equal_internal_node_totals(self):
        rng = random.Random(17)
        docs = [
            make_document(f"d{i}", random_tree(rng, rng.randint(2, 12)))
            for i in range(10)
        ]
        stats = genre_breakdown(docs, spanned=False)[0]
        assert stats.relation_pairs == sum(d.tree.n_internal for d in docs)
        assert stats.edus == sum(d.tree.n_leaves for d in docs)

    def test_external_sentence_table_overrides(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")), sents=None)
        stats = genre_breakdown([doc], sentences={"d": (0,)})[0]
        assert stats.spanned_pct is not None

    def test_genre_breakdown_single_genre_equals_aggregate(self):
        rng = random.Random(3)
        docs = [
            make_document(f"d{i}", random_tree(rng, 4), genre="news", sents=[0])
            for i in range(4)
        ]
        corpus = Corpus(docs)
        whole, breakdown = genre_breakdown(corpus)
        assert list(breakdown) == ["news"]
        assert breakdown["news"] == whole == genre_breakdown(docs)[0]

    def test_median_equals_statistics_median(self):
        rng = random.Random(23)
        for n in range(1, 51):
            for top in (3, 10_000):  # many repeated values, then mostly distinct
                values = [rng.randint(1, top) for _ in range(n)]
                got, want = _median(values), statistics.median(values)
                assert got == want and type(got) is type(want), values


class TestReportRendering:
    def test_parseval_table_one_decimal(self):
        edus = (EduSpan(0, 0), EduSpan(1, 1), EduSpan(2, 2))
        scores = parseval(
            build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS")),
            build_tree((0, (1, 2, "joint_NN"), "elaboration_NS")),
            edus, edus,
        )
        text = format_parseval_table({"system": (None, scores)})
        assert "75.0" in text and "25.0" in text
        csv_text = parseval_csv({"system": (None, scores)})
        assert "system,S," in csv_text

    def test_stats_table(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")), sents=[0])
        rows = {"corpus": genre_breakdown([doc])[0]}
        table = format_stats_table(rows)
        assert "corpus" in table and "EDUs" in table
        assert "docs" in stats_csv(rows)
