import random

import pytest

from rstkit.core import RstError, RstTree, build_tree
from rstkit.decoder import (
    DecodeConfig,
    MissingScore,
    OracleProvider,
    ProviderLengthMismatch,
    RightBranchingProvider,
    ScoreProvider,
    ScoreTable,
    decode,
    decode_with_segmentation,
    tree_score,
)
from rstkit.metrics import parseval

from helpers import TEST_LABELS, catalan, enumerate_trees, random_tree


class RandomProvider(ScoreProvider):
    """Deterministic pseudo-random scores keyed by the query arguments."""

    def __init__(self, seed: int, labels=TEST_LABELS, scale=1.0):
        self.seed = seed
        self.labels = tuple(labels)
        self.scale = scale

    def _rng(self, *key):
        return random.Random(f"{self.seed}|{key}")

    def split_scores(self, start, end):
        rng = self._rng("split", start, end)
        return [rng.uniform(-self.scale, self.scale) for _ in range(end - start - 1)]

    def label_scores(self, left, right):
        rng = self._rng("label", left, right)
        return [rng.uniform(-self.scale, self.scale) for _ in range(len(self.labels))]


class CountingProvider(RandomProvider):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries = 0

    def split_scores(self, start, end):
        self.queries += 1
        return super().split_scores(start, end)

    def label_scores(self, left, right):
        self.queries += 1
        return super().label_scores(left, right)


class FixedSplitProvider(ScoreProvider):
    def __init__(self, split_table, labels=TEST_LABELS):
        self.split_table = split_table
        self.labels = tuple(labels)

    def split_scores(self, start, end):
        return self.split_table.get((start, end), [0.0] * (end - start - 1))

    def label_scores(self, left, right):
        return [0.0] * len(self.labels)


CONFIG = DecodeConfig(labels=TEST_LABELS)


class TestGreedyDecode:
    def test_single_edu_never_queries_provider(self):
        provider = CountingProvider(0)
        tree = decode(1, provider, CONFIG)
        assert tree == RstTree.leaf(0)
        assert provider.queries == 0

    def test_two_edus_forced_split_argmax_label(self):
        class TwoLabelProvider(ScoreProvider):
            def split_scores(self, start, end):
                return [0.0]

            def label_scores(self, left, right):
                return [0.1, 0.9, 0.2, 0.0, 0.0]

        tree = decode(2, TwoLabelProvider(), CONFIG)
        assert tree == build_tree((0, 1, TEST_LABELS[1]))

    def test_three_edus_takes_the_better_split(self):
        provider = FixedSplitProvider({(0, 3): [0.9, 0.1]})
        tree = decode(3, provider, CONFIG)
        # brute-force check over both shapes
        best = max(
            enumerate_trees(0, 3, provider, TEST_LABELS),
            key=lambda t: tree_score(t, provider, TEST_LABELS),
        )
        assert tree == best
        assert not tree.left.is_leaf or tree.left.edu_index == 0
        assert tree.left.token_span() == (0, 0)

    def test_tie_break_earliest_split_lowest_label(self):
        class ZeroProvider(ScoreProvider):
            def split_scores(self, start, end):
                return [0.0] * (end - start - 1)

            def label_scores(self, left, right):
                return [0.0] * len(TEST_LABELS)

        tree = decode(4, ZeroProvider(), CONFIG)
        assert tree == build_tree(
            (0, (1, (2, 3, TEST_LABELS[0]), TEST_LABELS[0]), TEST_LABELS[0])
        )

    def test_provider_length_mismatch(self):
        class BadProvider(ScoreProvider):
            def split_scores(self, start, end):
                return [0.0]  # wrong length for spans > 2

            def label_scores(self, left, right):
                return [0.0] * len(TEST_LABELS)

        with pytest.raises(ProviderLengthMismatch):
            decode(4, BadProvider(), CONFIG)

    def test_deterministic(self):
        provider = RandomProvider(11)
        assert decode(7, provider, CONFIG) == decode(7, provider, CONFIG)

    def test_empty_document_rejected(self):
        with pytest.raises(RstError):
            decode(0, RandomProvider(0), CONFIG)


class TestOracleProvider:
    def test_round_trip_fixture_trees(self):
        fixtures = [
            build_tree(0),
            build_tree((0, 1, "elaboration_NS")),
            build_tree(((0, 1, "joint_NN"), 2, "attribution_SN")),
            build_tree((0, ((1, 2, "sequence_NN"), 3, "condition_SN"), "joint_NN")),
        ]
        for gold in fixtures:
            provider = OracleProvider(gold, TEST_LABELS)
            assert decode(gold.n_leaves, provider, CONFIG) == gold

    def test_split_vector_length(self):
        provider = OracleProvider(build_tree((0, 1, "joint_NN")), TEST_LABELS)
        assert len(provider.split_scores(0, 2)) == 1

    def test_round_trip_random_trees_with_full_f1(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 12)
            gold = random_tree(rng, n)
            predicted = decode(n, OracleProvider(gold, TEST_LABELS), CONFIG)
            assert predicted == gold
            if n > 1:
                scores = parseval(gold, predicted)
                assert scores.full.f1 == 100.0

    def test_beam_also_recovers_gold(self):
        rng = random.Random(78)
        for width in (1, 2, 5):
            config = DecodeConfig(labels=TEST_LABELS, strategy="beam", beam_width=width)
            gold = random_tree(rng, 7)
            assert decode(7, OracleProvider(gold, TEST_LABELS), config) == gold

    def test_gold_label_must_be_in_inventory(self):
        with pytest.raises(RstError):
            OracleProvider(build_tree((0, 1, "mystery_NS")), TEST_LABELS)


class TestRightBranchingProvider:
    def test_shape_for_four_edus(self):
        provider = RightBranchingProvider("elaboration_NS", TEST_LABELS)
        tree = decode(4, provider, CONFIG)
        assert tree == build_tree(
            (0, (1, (2, 3, "elaboration_NS"), "elaboration_NS"), "elaboration_NS")
        )

    def test_every_internal_node_has_the_majority_label(self):
        provider = RightBranchingProvider("elaboration_NS", TEST_LABELS)
        tree = decode(6, provider, CONFIG)
        assert all(n.label.merged == "elaboration_NS" for n in tree.internal_nodes())

    def test_baseline_never_beats_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 9)
            gold = random_tree(rng, n)
            baseline = decode(
                n, RightBranchingProvider("elaboration_NS", TEST_LABELS), CONFIG
            )
            oracle = decode(n, OracleProvider(gold, TEST_LABELS), CONFIG)
            full_base = parseval(gold, baseline).full.f1
            full_oracle = parseval(gold, oracle).full.f1
            assert full_oracle == 100.0 >= full_base

    def test_unknown_majority_label(self):
        with pytest.raises(RstError):
            RightBranchingProvider("nope_NS", TEST_LABELS)


class TestBeam:
    def test_beam_one_equals_greedy(self):
        for seed in range(25):
            provider = RandomProvider(seed)
            n = 2 + seed % 7
            greedy = decode(n, provider, CONFIG)
            beam1 = decode(
                n,
                provider,
                DecodeConfig(labels=TEST_LABELS, strategy="beam", beam_width=1),
            )
            assert greedy == beam1

    def test_full_width_beam_is_exhaustive(self):
        for seed in range(40):
            n = 2 + seed % 7  # up to 8 EDUs
            provider = RandomProvider(seed * 131 + 7)
            width = catalan(n - 1)
            config = DecodeConfig(labels=TEST_LABELS, strategy="beam", beam_width=width)
            beam_tree = decode(n, provider, config)
            best_score = max(
                tree_score(t, provider, TEST_LABELS)
                for t in enumerate_trees(0, n, provider, TEST_LABELS)
            )
            assert tree_score(beam_tree, provider, TEST_LABELS) == pytest.approx(
                best_score, abs=1e-9
            )

    def test_beam_never_scores_below_greedy(self):
        for seed in range(30):
            n = 2 + seed % 7
            provider = RandomProvider(seed * 17 + 3)
            greedy_score = tree_score(decode(n, provider, CONFIG), provider, TEST_LABELS)
            for width in (1, 2, 3, 8, catalan(n - 1)):
                config = DecodeConfig(
                    labels=TEST_LABELS, strategy="beam", beam_width=width
                )
                beam_score = tree_score(
                    decode(n, provider, config), provider, TEST_LABELS
                )
                assert beam_score >= greedy_score - 1e-12

    def test_beam_width_validation(self):
        with pytest.raises(RstError):
            DecodeConfig(labels=TEST_LABELS, strategy="beam", beam_width=0)
        with pytest.raises(RstError):
            DecodeConfig(labels=TEST_LABELS, strategy="sideways")
        with pytest.raises(RstError):
            DecodeConfig(labels=())


class TestDecodeWithSegmentation:
    def test_gold_labels_reduce_to_plain_decode(self):
        rng = random.Random(13)
        gold = random_tree(rng, 3)
        provider = OracleProvider(gold, TEST_LABELS)
        tokens = ["t0", "t1", "t2", "t3", "t4"]
        labels = ["B", "I", "B", "B", "I"]
        edus, tree = decode_with_segmentation(tokens, labels, provider, CONFIG)
        assert [e.first_token for e in edus] == [0, 2, 3]
        assert tree == gold

    def test_all_inside_labels_yield_single_leaf(self):
        provider = CountingProvider(0)
        edus, tree = decode_with_segmentation(
            ["a", "b", "c"], ["I", "I", "I"], provider, CONFIG
        )
        assert len(edus) == 1 and tree == RstTree.leaf(0)
        assert provider.queries == 0

    def test_label_count_must_match_tokens(self):
        with pytest.raises(RstError):
            decode_with_segmentation(["a", "b"], ["B"], RandomProvider(0), CONFIG)


class TestScoreTable:
    def test_load_and_decode(self, tmp_path):
        import json

        gold = build_tree(((0, 1, "joint_NN"), 2, "elaboration_NS"))
        provider = OracleProvider(gold, TEST_LABELS)
        lines = []
        for start, end in [(0, 3), (0, 2), (1, 3)]:
            lines.append(
                json.dumps(
                    {
                        "doc": "d1",
                        "kind": "split",
                        "start": start,
                        "end": end,
                        "scores": list(map(float, provider.split_scores(start, end))),
                    }
                )
            )
        for left, right in [((0, 1), (1, 3)), ((0, 2), (2, 3)), ((0, 1), (1, 2)), ((1, 2), (2, 3))]:
            lines.append(
                json.dumps(
                    {
                        "doc": "d1",
                        "kind": "label",
                        "left": list(left),
                        "right": list(right),
                        "scores": list(map(float, provider.label_scores(left, right))),
                    }
                )
            )
        path = tmp_path / "scores.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = ScoreTable.load(path)
        assert decode(3, table.provider("d1"), CONFIG) == gold

    def test_missing_document(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("", encoding="utf-8")
        table = ScoreTable.load(path)
        with pytest.raises(MissingScore):
            table.provider("ghost")

    def test_missing_range(self, tmp_path):
        import json

        path = tmp_path / "scores.jsonl"
        path.write_text(
            json.dumps(
                {"doc": "d", "kind": "split", "start": 0, "end": 3, "scores": [1.0, 0.0]}
            )
            + "\n",
            encoding="utf-8",
        )
        table = ScoreTable.load(path)
        with pytest.raises(MissingScore):
            decode(3, table.provider("d"), CONFIG)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc": "d", "kind": "wat"}\n', encoding="utf-8")
        with pytest.raises(RstError):
            ScoreTable.load(path)
