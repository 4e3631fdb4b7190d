import random

import pytest

from rstkit.core import (
    EduSpan,
    build_tree,
    enumerate_constituents,
)
from rstkit.core import Corpus
from rstkit.metrics import (
    MetricCounts,
    MissingSentences,
    NotAPartition,
    SpanRangeMismatch,
    corpus_stats,
    end_to_end_eval,
    format_parseval_table,
    format_stats_table,
    genre_breakdown,
    parseval,
    parseval_csv,
    segmentation_f1,
    stats_csv,
)

from helpers import (
    brute_force_parseval,
    make_document,
    random_edus,
    random_tree,
)


def assert_matches_oracle(gold_tree, pred_tree, gold_edus=None, pred_edus=None):
    scores = parseval(gold_tree, pred_tree, gold_edus, pred_edus)
    oracle = brute_force_parseval(
        enumerate_constituents(gold_tree, gold_edus),
        enumerate_constituents(pred_tree, pred_edus),
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
        with pytest.raises(SpanRangeMismatch):
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
            assert_matches_oracle(
                random_tree(rng, n), random_tree(rng, n), gold_edus, gold_edus
            )

    def test_micro_accumulation(self):
        a = parseval(
            build_tree((0, 1, "joint_NN")), build_tree((0, 1, "joint_NN"))
        )
        b = parseval(
            build_tree((0, 1, "elaboration_NS")), build_tree((0, 1, "attribution_SN"))
        )
        total = a + b
        assert total.span.gold == 4
        assert total.span.matched == 4
        assert total.full.matched == 2  # second pair matches nothing fully

    def test_counts_validation(self):
        with pytest.raises(Exception):
            MetricCounts(matched=3, gold=2, predicted=5)


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
        with pytest.raises(NotAPartition):
            segmentation_f1((EduSpan(0, 1),), (EduSpan(0, 0),), 3)
        with pytest.raises(NotAPartition):
            segmentation_f1((EduSpan(0, 2), EduSpan(4, 4)), (EduSpan(0, 4),), 5)


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
        doc_a = parseval(
            build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS")),
            build_tree(((0, 1, "joint_NN"), 2, "condition_NS")),
        )
        doc_b = parseval(
            build_tree((0, 1, "elaboration_NS")),
            build_tree((0, 1, "elaboration_SN")),
        )
        total = doc_a + doc_b
        assert (total.span.matched, total.span.gold, total.span.predicted) == (6, 6, 6)
        assert total.span.f1 == 100.0
        assert total.nuclearity.matched == 4
        assert total.nuclearity.precision == 400.0 / 6.0
        assert total.nuclearity.f1 == pytest.approx(400.0 / 6.0, abs=1e-12)
        assert total.relation.matched == 3 and total.relation.f1 == 50.0
        assert total.full.matched == 3 and total.full.f1 == 50.0


class TestCorpusStats:
    def test_single_sentence_doc_fully_spanned(self):
        tree = build_tree((0, 1, "elaboration_NS"))
        doc = make_document("d", tree, sents=[0])
        stats = corpus_stats([doc])
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
        stats = corpus_stats([doc1, doc2])
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
        stats = corpus_stats([doc])
        assert stats.spanned_pct == 0.0

    def test_missing_sentences(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")))
        with pytest.raises(MissingSentences):
            corpus_stats([doc])
        stats = corpus_stats([doc], spanned=False)
        assert stats.spanned_pct is None

    def test_relation_pairs_equal_internal_node_totals(self):
        rng = random.Random(17)
        docs = [
            make_document(f"d{i}", random_tree(rng, rng.randint(2, 12)))
            for i in range(10)
        ]
        stats = corpus_stats(docs, spanned=False)
        assert stats.relation_pairs == sum(d.tree.n_internal for d in docs)
        assert stats.edus == sum(d.tree.n_leaves for d in docs)

    def test_external_sentence_table_overrides(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")), sents=None)
        stats = corpus_stats([doc], sentences={"d": (0,)})
        assert stats.spanned_pct is not None

    def test_genre_breakdown_single_genre_equals_aggregate(self):
        rng = random.Random(3)
        docs = [
            make_document(f"d{i}", random_tree(rng, 4), genre="news", sents=[0])
            for i in range(4)
        ]
        corpus = Corpus.from_documents("c", docs)
        breakdown = genre_breakdown(corpus)
        assert list(breakdown) == ["news"]
        assert breakdown["news"] == corpus_stats(docs)


class TestReportRendering:
    def test_parseval_table_one_decimal(self):
        scores = parseval(
            build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS")),
            build_tree((0, (1, 2, "joint_NN"), "elaboration_NS")),
        )
        text = format_parseval_table({"system": (None, scores)})
        assert "75.0" in text and "25.0" in text
        csv_text = parseval_csv({"system": (None, scores)})
        assert "system,S," in csv_text

    def test_stats_table(self):
        doc = make_document("d", build_tree((0, 1, "joint_NN")), sents=[0])
        rows = {"corpus": corpus_stats([doc])}
        table = format_stats_table(rows)
        assert "corpus" in table and "EDUs" in table
        assert "docs" in stats_csv(rows)
