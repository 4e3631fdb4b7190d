import gc
import hashlib
import json
import math
import random
import re
import sys
import warnings
import zlib
from array import array
from collections import Counter

import numpy as np
import pytest

from rstkit import core
from rstkit import decoder as decoder_mod
from rstkit.cli import main
from rstkit.core import RelationLabel, RstError, RstTree, SchemaViolation
from rstkit.decoder import (
    DecodeConfig,
    OracleProvider,
    RightBranchingProvider,
    ScoreProvider,
    ScoreTable,
    decode,
    tree_score,
)
from rstkit.metrics import parseval

from helpers import (
    TEST_LABELS,
    build_tree,
    catalan,
    enumerate_trees,
    leaves,
    make_document,
    random_edus,
    random_tree,
    reference_decode,
    reference_exact,
    reference_score_line,
    reference_search,
    write_corpus,
    unit_edus,
)


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


class IntegerProvider(ScoreProvider):
    """Scores in {0, 1, 2}: sums are exact and ties are everywhere."""

    def __init__(self, seed):
        self.seed = seed

    def _score(self, *key):
        return float(hash((self.seed, *key)) % 3)

    def split_scores(self, start, end):
        return [self._score(start, end, k) for k in range(end - start - 1)]

    def label_scores(self, left, right):
        return [self._score(left, right, k) for k in range(len(TEST_LABELS))]


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


class QueryLog(ScoreProvider):
    """Another provider's answers, counting how often each query is asked."""

    def __init__(self, base):
        self.base = base
        self.asked = Counter()

    def split_scores(self, start, end):
        self.asked["split", start, end] += 1
        return self.base.split_scores(start, end)

    def label_scores(self, left, right):
        self.asked["label", left, right] += 1
        return self.base.label_scores(left, right)


class RoundingTieProvider(ScoreProvider):
    """Huge scores mixed with small ones: once a path carries 1e16, ``base -
    s`` rounds distinct small scores to equal floats, so ties come from
    rounding rather than from equal scores."""

    VALUES = (1e16, 3e15, 0.5, 1.0, 1.0000000000000002, 2**-40)

    def __init__(self, seed):
        self.seed = seed
        self.answers = {}

    def _vector(self, key, size):
        if key not in self.answers:
            rng = random.Random(f"{self.seed}|{key}")
            self.answers[key] = [rng.choice(self.VALUES) for _ in range(size)]
        return self.answers[key]

    def split_scores(self, start, end):
        return self._vector(("split", start, end), end - start - 1)

    def label_scores(self, left, right):
        return self._vector(("label", left, right), len(TEST_LABELS))


class FixedSplitProvider(ScoreProvider):
    def __init__(self, split_table, labels=TEST_LABELS):
        self.split_table = split_table
        self.labels = tuple(labels)

    def split_scores(self, start, end):
        return self.split_table.get((start, end), [0.0] * (end - start - 1))

    def label_scores(self, left, right):
        return [0.0] * len(self.labels)


class DenseRandomProvider(ScoreProvider):
    """Gaussian scores drawn up front for every range and split of n EDUs."""

    def __init__(self, seed, n, labels=TEST_LABELS):
        rng = np.random.default_rng(seed)
        self.splits = rng.normal(size=(n + 1, n + 1, n))
        self.labels = rng.normal(size=(n + 1, n + 1, n + 1, len(labels)))

    def split_scores(self, start, end):
        return self.splits[start, end, : end - start - 1]

    def label_scores(self, left, right):
        return self.labels[left[0], left[1], right[1]]


class EdgeSplitProvider(ScoreProvider):
    """Split scores that favour the first and the last split of every range,
    so a beam step keeps candidates at the edges of each path's run in the
    flat candidate list, and on 2-EDU ranges, whose one split is both.
    With ``integer`` the edge and label scores are 0 or 1, so edges tie."""

    def __init__(self, seed, integer=False):
        self.seed, self.integer = seed, integer

    def _draw(self, rng):
        return float(rng.randrange(2)) if self.integer else rng.random()

    def split_scores(self, start, end):
        rng = random.Random(f"{self.seed}|split|{start}|{end}")
        scores = [rng.uniform(-3.0, -2.0) for _ in range(end - start - 1)]
        scores[0] = self._draw(rng)
        scores[-1] = self._draw(rng)
        return scores

    def label_scores(self, left, right):
        rng = random.Random(f"{self.seed}|label|{left}|{right}")
        return [self._draw(rng) for _ in TEST_LABELS]


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
        assert not tree.left.is_leaf or tree.left.first_edu == 0
        assert tree.left.token_span(unit_edus(tree)) == (0, 0)

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

        with pytest.raises(
            RstError, match=r"split_scores\(0, 4\) must have length 3, got length 1"
        ):
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
                scores = parseval(gold, predicted, unit_edus(gold), unit_edus(predicted))
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
            edus = unit_edus(gold)
            full_base = parseval(gold, baseline, edus, edus).full.f1
            full_oracle = parseval(gold, oracle, edus, edus).full.f1
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

    def test_tie_order_matches_reference_beam(self):
        for seed in range(330):
            n = 2 + seed % 11  # up to 12 EDUs
            provider = IntegerProvider(seed)
            for width in (1, 2, 3, 5, 16):
                strategy = "beam" if width > 1 else "greedy"
                config = DecodeConfig(TEST_LABELS, strategy, width)
                expected = reference_decode(n, provider, TEST_LABELS, width)
                assert decode(n, provider, config) == expected, (seed, width)

    def test_rounding_ties_match_reference_search(self):
        for seed in range(400):
            n = 2 + seed % 30  # up to 31 EDUs
            provider = RoundingTieProvider(seed)
            greedy_score, greedy = reference_search(n, provider, TEST_LABELS, 1)
            for width in (1, 2, 4, 16):
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                score, expected = reference_search(n, provider, TEST_LABELS, width)
                if greedy_score > score:  # decode keeps greedy only when strictly better
                    expected = greedy
                assert decode(n, provider, config) == expected, (seed, width)

    def test_each_distinct_query_is_asked_once(self):
        config = DecodeConfig(TEST_LABELS, "beam", 16)
        for seed in range(30):
            n = 2 + seed % 29
            base = RandomProvider(seed) if seed % 2 else IntegerProvider(seed)
            log = QueryLog(base)
            tree = decode(n, log, config)
            expected = reference_decode(n, base, TEST_LABELS, 16)
            assert tree == expected, seed
            assert tree_score(tree, base, TEST_LABELS) == tree_score(
                expected, base, TEST_LABELS
            )
            assert set(log.asked.values()) == {1}, (seed, log.asked.most_common(1))

    def test_survivors_at_path_edges_match_reference_search(self):
        # A step finds a survivor's path and split from where each path's
        # candidates start in the flat list; the first and the last split
        # of a path, and a 2-EDU range's one split, sit on those starts.
        for seed in range(120):
            n = 2 + seed % 40  # up to 41 EDUs
            provider = EdgeSplitProvider(seed, integer=seed % 2 == 1)
            greedy_score, greedy = reference_search(n, provider, TEST_LABELS, 1)
            for width in (2, 3, 16):
                score, expected = reference_search(n, provider, TEST_LABELS, width)
                if greedy_score > score:  # decode keeps greedy only when strictly better
                    expected = greedy
                config = DecodeConfig(TEST_LABELS, "beam", width)
                assert decode(n, provider, config) == expected, (seed, width)

    def test_query_set_is_unchanged(self):
        # The sorted distinct queries of each decode below, digested with
        # the search whose step kept per-candidate owner and split lists.
        # The benchmark records its score dump by replaying decode with the
        # code under test, so only this test sees a change in what is asked.
        digest = hashlib.sha256()
        for n in range(2, 61):
            for base in (RandomProvider(n), IntegerProvider(n), RoundingTieProvider(n)):
                for width in (1, 4, 16):
                    log = QueryLog(base)
                    strategy = "beam" if width > 1 else "greedy"
                    decode(n, log, DecodeConfig(TEST_LABELS, strategy, width))
                    digest.update(repr((n, width, sorted(log.asked))).encode())
        assert digest.hexdigest() == (
            "2864762eb9d9f7199d4495853885f295e01ebecf69ee50df5e3d4c0ebeabf924"
        )

    def test_leaves_are_the_shared_leaves(self):
        for seed in range(12):
            n = 1 + 11 * seed  # up to 122 EDUs
            for width in (1, 16):
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                tree_leaves = leaves(decode(n, RandomProvider(seed), config))
                assert [leaf.first_edu for leaf in tree_leaves] == list(range(n))
                assert all(leaf is RstTree.leaf(i) for i, leaf in enumerate(tree_leaves))

    def test_beam_width_validation(self):
        with pytest.raises(RstError):
            DecodeConfig(labels=TEST_LABELS, strategy="beam", beam_width=0)
        with pytest.raises(RstError):
            DecodeConfig(labels=TEST_LABELS, strategy="greedy", beam_width=2)
        with pytest.raises(RstError):
            DecodeConfig(labels=TEST_LABELS, strategy="sideways")
        with pytest.raises(RstError):
            DecodeConfig(labels=())

    def test_repeated_label_rejected(self):
        with pytest.raises(RstError, match="joint_NN"):
            DecodeConfig(labels=(*TEST_LABELS, "joint_NN"))


class TestExactChart:
    """``reference_exact`` (CKY) is the beam's oracle on long documents,
    once it agrees with exhaustive enumeration on short ones."""

    def test_equals_exhaustive_enumeration_up_to_eight_edus(self):
        for seed in range(42):
            n = 1 + seed % 8
            providers = (RandomProvider(seed * 7 + 1), IntegerProvider(seed))
            for provider in providers:
                score, tree = reference_exact(n, provider, TEST_LABELS)
                best = max(
                    tree_score(t, provider, TEST_LABELS)
                    for t in enumerate_trees(0, n, provider, TEST_LABELS)
                )
                assert math.isclose(score, best, rel_tol=1e-12, abs_tol=1e-12), (seed, n)
                assert math.isclose(
                    tree_score(tree, provider, TEST_LABELS), score, rel_tol=1e-12, abs_tol=1e-12
                )

    def test_beam_never_scores_above_exact(self):
        for seed, n in enumerate((2, 9, 17, 30, 44, 60)):
            provider = DenseRandomProvider(seed, n)
            exact, _ = reference_exact(n, provider, TEST_LABELS)
            for width in (1, 4, 16):
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                score = tree_score(decode(n, provider, config), provider, TEST_LABELS)
                assert score <= exact + 1e-9 * max(1.0, abs(exact)), (n, width)


class GoldNoiseProvider(ScoreProvider):
    """A noisy scorer that knows the gold tree: unit normal noise, with
    ``BONUS`` added to the gold split of each gold range and to the gold
    label of each gold node.  A query's noise is a slice of one seeded pool
    that starts at a hash of the document and the query, so the scores are
    a fixed function of (seed, document, query)."""

    POOL, BONUS = 1 << 16, 2.0

    def __init__(self, pool, doc_id, gold):
        self.pool, self.doc_id = pool, doc_id
        index = {name: i for i, name in enumerate(TEST_LABELS)}
        self.gold = {(node.first_edu, node.last_edu + 1):
                     (node.left.last_edu + 1, index[node.label.merged])
                     for node in gold.internal_nodes()}

    def _noise(self, key, size):
        start = zlib.crc32(f"{self.doc_id}|{key}".encode()) % self.POOL
        return self.pool[start:start + size].copy()

    def split_scores(self, start, end):
        scores = self._noise(("split", start, end), end - start - 1)
        gold = self.gold.get((start, end))
        if gold is not None:
            scores[gold[0] - start - 1] += self.BONUS
        return scores.tolist()

    def label_scores(self, left, right):
        scores = self._noise(("label", left, right), len(TEST_LABELS))
        gold = self.gold.get((left[0], right[1]))
        if gold is not None and gold[0] == right[0]:
            scores[gold[1]] += self.BONUS
        return scores.tolist()


class TestSearchGap:
    """How far the beam falls below the exact optimum (``reference_exact``), as
    a pinned table.  A search change that moves the table says why."""

    # documents (of 12) whose decoded tree scores below the exact optimum
    BELOW_EXACT = {1: 11, 4: 6, 16: 4, 64: 3}

    def test_beam_gap_table(self):
        rng = random.Random(5)
        pool = np.random.default_rng(5).standard_normal(GoldNoiseProvider.POOL + 64)
        below = dict.fromkeys(self.BELOW_EXACT, 0)
        for k in range(12):
            n = rng.randint(12, 56)
            provider = GoldNoiseProvider(pool, f"g{k}", random_tree(rng, n))
            exact, _ = reference_exact(n, provider, TEST_LABELS)
            slack = 1e-9 * max(1.0, abs(exact))
            for width in below:
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                score = tree_score(decode(n, provider, config), provider, TEST_LABELS)
                assert score <= exact + slack, (k, n, width)
                below[width] += score < exact - slack
        assert below == self.BELOW_EXACT


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
        with pytest.raises(RstError, match="no scores for document ghost"):
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
        with pytest.raises(RstError, match=re.escape("no label scores for (0, 1) + (1, 3)")):
            decode(3, table.provider("d"), CONFIG)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc": "d", "kind": "wat"}\n', encoding="utf-8")
        with pytest.raises(RstError):
            ScoreTable.load(path).finish()

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "split", "start": 0.6, "end": "3", "scores": [1.5, 2.0]},
            {"kind": "split", "start": True, "end": 3, "scores": [1.5, 2.0]},
            {"kind": "split", "start": 0, "end": 3.0, "scores": [1.5, 2.0]},
            {"kind": "label", "left": [0, 1.9], "right": [2, 3], "scores": [1.0]},
            {"kind": "label", "left": [0, 2], "right": [True, 3], "scores": [1.0]},
            {"kind": "label", "left": [0, 2, 3], "right": [2, 3], "scores": [1.0]},
            {"kind": "label", "left": [0], "right": [0, 3], "scores": [1.0]},
            {"kind": "label", "left": 0, "right": [0, 3], "scores": [1.0]},
            {"kind": "split", "start": 0, "end": 3, "scores": ["1.5", True]},
            {"kind": "split", "start": 0, "end": 3, "scores": [1.5, None]},
            {"kind": "split", "start": 0, "end": 3, "scores": [True, False]},
            {"kind": "split", "start": 0, "end": 3, "scores": [1.5, True]},
            {"kind": "split", "start": 0, "end": 3, "scores": [1, False]},
            {"kind": "split", "start": 0, "end": 3, "scores": [[1.5, 2.0]]},
            {"kind": "split", "start": 0, "end": 3, "scores": 1.5},
        ],
        ids=[
            "fractional-and-string-range", "boolean-start", "float-end",
            "fractional-left", "boolean-right", "three-item-left", "one-item-left",
            "integer-left", "string-and-boolean-scores", "null-score",
            "boolean-scores", "float-and-boolean-scores", "integer-and-boolean-scores",
            "nested-scores", "scalar-scores",
        ],
    )
    def test_malformed_record_names_its_line(self, fields, tmp_path):
        good = {"doc": "d", "kind": "split", "start": 0, "end": 2, "scores": [1.0]}
        path = tmp_path / "scores.jsonl"
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({"doc": "d", **fields}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(RstError, match="line 2: bad score record"):
            ScoreTable.load(path).finish()

    @pytest.mark.parametrize(
        "text",
        ['{"doc": "d"} x', '{"doc": "d"}{"doc": "d"}', '{"doc": "d"} 1',
         '\ufeff{"doc": "d"}', '{"doc": "d"', "[1, 2"],
        ids=["trailing-word", "two-objects", "trailing-number", "byte-order-mark",
             "truncated-object", "truncated-list"],
    )
    def test_unparsable_line_gives_the_json_error(self, text, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(RstError) as got:
            ScoreTable.load(path).finish()
        assert str(got.value).endswith(f"line 1: bad score record ({expected.value})")

    def test_boolean_words_outside_the_scores_are_no_error(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        record = {"doc": "true_false", "kind": "split", "start": 0, "end": 3,
                  "scores": [1.5, 2.0]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        scores = ScoreTable.load(path).provider("true_false").split_scores(0, 3)
        assert list(scores) == [1.5, 2.0]

    def test_integer_scores_stay_integers_and_empty_vectors_load(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        records = [
            {"doc": "d", "kind": "split", "start": 0, "end": 3, "scores": [1, 2]},
            {"doc": "d", "kind": "split", "start": 0, "end": 1, "scores": []},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        provider = ScoreTable.load(path).provider("d")
        for (start, end), expected in (((0, 3), [1, 2]), ((0, 1), [])):
            scores = provider.split_scores(start, end)
            assert scores == expected and all(type(x) is int for x in scores)

    @pytest.mark.parametrize("beam", ["1", "4"])
    def test_integer_spellings_parse_as_their_floats(self, beam, tmp_path, capsys):
        # Scores in {-2, ..., 2} tie everywhere, so the tie rules decide most
        # steps; spelled 1 rather than 1.0 they must decide them the same way.
        rng = random.Random(29)
        docs = [make_document(f"i{k}", random_tree(rng, n), random_edus(rng, n))
                for k, n in enumerate((2, 5, 9, 14, 20))]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(docs, corpus)
        inventory = tmp_path / "labels.txt"
        inventory.write_text("".join(f"{x}\n" for x in TEST_LABELS), encoding="utf-8")
        floats, ints = tmp_path / "floats.jsonl", tmp_path / "ints.jsonl"
        with open(floats, "w", encoding="utf-8") as fa, \
                open(ints, "w", encoding="utf-8") as fb:
            for doc in docs:
                n = len(doc.edus)
                queries = [({"kind": "split", "start": i, "end": j}, j - i - 1)
                           for i in range(n) for j in range(i + 2, n + 1)]
                queries += [({"kind": "label", "left": [i, s], "right": [s, j]},
                             len(TEST_LABELS))
                            for i in range(n) for j in range(i + 2, n + 1)
                            for s in range(i + 1, j)]
                for fields, size in queries:
                    scores = [float(rng.randint(-2, 2)) for _ in range(size)]
                    record = {"doc": doc.doc_id, **fields, "scores": scores}
                    fa.write(json.dumps(record) + "\n")
                    record["scores"] = [int(x) for x in scores]
                    fb.write(json.dumps(record) + "\n")
        assert ".0" in floats.read_text(encoding="utf-8")
        assert ".0" not in ints.read_text(encoding="utf-8")
        outputs = []
        for dump in (floats, ints):
            out = tmp_path / f"pred_{dump.stem}.jsonl"
            assert main(["parse", str(corpus), "-o", str(out), "--beam", beam,
                         "--scores", str(dump), "--inventory", str(inventory)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400],
        ids=["nan", "infinity", "minus-infinity", "overflowing-float",
             "overflowing-negative-float", "out-of-range-integer"],
    )
    def test_non_finite_score_names_its_line(self, literal, tmp_path):
        good = json.dumps({"doc": "d", "kind": "split", "start": 0, "end": 2,
                           "scores": [1.0]})
        path = tmp_path / "scores.jsonl"
        path.write_text(
            good + "\n"
            + '{"doc": "d", "kind": "split", "start": 0, "end": 3, '
            + f'"scores": [1.5, {literal}]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(RstError, match="line 2: bad score record"):
            ScoreTable.load(path).finish()

    def test_finite_scores_whose_sum_overflows_load(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        record = {"doc": "d", "kind": "split", "start": 0, "end": 4,
                  "scores": [1.5e308, 1.5e308, -1.5e308]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        scores = ScoreTable.load(path).provider("d").split_scores(0, 4)
        assert list(scores) == [1.5e308, 1.5e308, -1.5e308]
        # integers too: summed before conversion, two of 10**308 would leave
        # a double's range
        for row in ([10**308, 10**308, -10**308], [10**308, 10**308]):
            record = {"doc": "d", "kind": "split", "start": 0, "end": len(row) + 1,
                      "scores": row}
            path.write_text(json.dumps(record) + "\n", encoding="utf-8")
            scores = ScoreTable.load(path).provider("d").split_scores(0, len(row) + 1)
            assert list(scores) == row  # the integers JSON gave

    @pytest.mark.parametrize(
        "doc, json_type",
        [(1, "int"), (1.5, "float"), (True, "bool"), (None, "null"), ([1], "array"),
         ({"d": 1}, "object")],
        ids=["int", "float", "bool", "null", "array", "object"],
    )
    @pytest.mark.parametrize("kind", ["split", "label"])
    def test_doc_that_is_not_a_string_names_its_type(self, doc, json_type, kind, tmp_path):
        fields = {"split": {"start": 0, "end": 2, "scores": [1.0]},
                  "label": {"left": [0, 1], "right": [1, 2], "scores": [1.0]}}[kind]
        good = {"doc": "1", "kind": kind, **fields}
        path = tmp_path / "scores.jsonl"
        message = f"bad score record (doc must be a string, got {json_type})"
        # as the first line, and after a run of lines for a string id
        for lines, bad_line in (([{**good, "doc": doc}], 1),
                                ([good, good, {**good, "doc": doc}, good], 3)):
            path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
            with pytest.raises(RstError) as got:
                ScoreTable.load(path).finish()
            assert str(got.value) == f"{path}: line {bad_line}: {message}"

    @pytest.mark.parametrize("doc", ["false", "d", "true"])
    def test_scores_that_are_no_list_are_named_so(self, doc, tmp_path):
        # the boolean scan, which a "true" or "false" in the line triggers,
        # runs only on a list
        path = tmp_path / "scores.jsonl"
        record = {"doc": doc, "kind": "split", "start": 0, "end": 2, "scores": 1.5}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(RstError) as got:
            ScoreTable.load(path).finish()
        assert str(got.value).endswith("line 1: bad score record (scores must be a flat list)")

    def test_interleaved_runs_are_rejected(self, tmp_path):
        # runs for A, then B, then A again, with the kinds interleaved in each
        records = []
        for doc, start in (("doc_A", 0), ("doc_B", 0), ("doc_A", 3)):
            records += [
                {"doc": doc, "kind": "split", "start": start, "end": start + 3,
                 "scores": [len(records), -1.0]},
                {"doc": doc, "kind": "label", "left": [start, start + 1],
                 "right": [start + 1, start + 3], "scores": [len(records) + 1]},
                {"doc": doc, "kind": "split", "start": start + 1, "end": start + 3,
                 "scores": [len(records) + 2]},
            ]
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            ScoreTable.load(path).finish()
        assert str(err.value) == (
            f"{path}: line 7: bad score record (document 'doc_A' has an earlier "
            "run of lines; its lines must be contiguous)"
        )
        # without the third run, each document loads into its own tables
        path.write_text("".join(json.dumps(r) + "\n" for r in records[:6]),
                        encoding="utf-8")
        table = ScoreTable.load(path)
        for doc in ("doc_A", "doc_B"):
            provider = table.provider(doc)
            ours = [r for r in records[:6] if r["doc"] == doc]
            for r in ours:
                if r["kind"] == "split":
                    got = provider.split_scores(r["start"], r["end"])
                else:
                    got = provider.label_scores(tuple(r["left"]), tuple(r["right"]))
                assert list(got) == r["scores"], r
            assert len(provider._split_table) + len(provider._label_table) == len(ours)

    @staticmethod
    def _write_runs(path, docs, tail=()):
        """One run per document of ``docs``, a split and a label line whose
        first score is the line's index, then the records of ``tail``."""
        records = []
        for doc in docs:
            records += [
                {"doc": doc, "kind": "split", "start": 0, "end": 3,
                 "scores": [len(records), -1.0]},
                {"doc": doc, "kind": "label", "left": [0, 1], "right": [1, 3],
                 "scores": [len(records) + 1]},
            ]
        records += tail
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    @staticmethod
    def _assert_run(provider, index):
        """``provider`` holds the run whose split line is line ``index + 1``."""
        assert list(provider.split_scores(0, 3)) == [index, -1.0]
        assert list(provider.label_scores((0, 1), (1, 3))) == [index + 1]

    def test_providers_asked_out_of_file_order_read_ahead(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self._write_runs(path, ["doc_A", "doc_B", "doc_C"])
        table = ScoreTable.load(path)
        self._assert_run(table.provider("doc_C"), 4)
        assert list(table._ahead) == ["doc_A", "doc_B"]  # the runs passed on the way
        self._assert_run(table.provider("doc_B"), 2)
        self._assert_run(table.provider("doc_A"), 0)
        assert table._ahead == {}
        table.finish()

    def test_a_provider_is_handed_out_once(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self._write_runs(path, ["doc_A", "doc_B"])
        table = ScoreTable.load(path)
        table.provider("doc_B")  # reads doc_A's run ahead
        table.provider("doc_A")
        for doc in ("doc_B", "doc_A"):
            with pytest.raises(RstError) as err:
                table.provider(doc)
            assert str(err.value) == f"scores for document {doc} were already handed out"

    def test_finish_names_a_bad_last_line(self, tmp_path):
        # the lines after the last run asked for are read by finish() alone
        path = tmp_path / "scores.jsonl"
        unasked = {"doc": "doc_Z", "kind": "split", "start": 0, "end": 2, "scores": [1.0]}
        self._write_runs(path, ["doc_A", "doc_B"],
                         tail=[unasked, {**unasked, "kind": "wat"}])
        table = ScoreTable.load(path)
        for index, doc in enumerate(["doc_A", "doc_B"]):
            self._assert_run(table.provider(doc), 2 * index)
        with pytest.raises(SchemaViolation) as err:
            table.finish()
        assert str(err.value) == f"{path}: line 6: bad score record (unknown kind 'wat')"

    def test_a_missing_document_is_named_once_the_dump_is_read(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        self._write_runs(path, ["doc_A", "doc_B"])
        table = ScoreTable.load(path)
        with pytest.raises(RstError) as err:
            table.provider("ghost")
        assert str(err.value) == "no scores for document ghost"
        assert list(table._ahead) == ["doc_A", "doc_B"]
        self._assert_run(table.provider("doc_B"), 2)

    def test_a_dropped_table_closes_its_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.jsonl"
        self._write_runs(path, ["doc_A", "doc_B"])
        unraisable = []  # an unclosed file's ResourceWarning, raised in __del__
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            table = ScoreTable.load(path)
            table.provider("doc_A")
            del table
            gc.collect()
        assert unraisable == []


class TestScoreLineOracle:
    """Each score-dump line, read by ``ScoreTable``, gives the numbers or
    the error text of ``reference_score_line``, which converts every score
    to a double and checks it one by one."""

    GOOD = ["1.5", "-0.25", "0", "3", "-7", "1e-3", "2.5E+10", "-1E2", "-0.0", "0.0",
            "1e308", "-1.5e308", "9007199254740993", "123456789012345678901234567890"]
    BAD = ['"1.5"', "null", "true", "false", "[1.0]", "[]", '{"a": 1}', "NaN",
           "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400]
    NOT_LISTS = ["1.5", '"x"', "null", "true", '{"s": [1]}']
    DOCS = ['"d"', '"true"', '"false"', '"f"', '"true_false"', "1", "null", "true",
            "[1]", '{"d": 1}']
    EXTRAS = ['"note": true', '"x": false', '"meta": {"a": [1, 2]}', '"f": "false"',
              '"scores_seen": null']
    BAD_INDICES = ["0.5", '"3"', "true", "null"]
    BAD_PAIRS = ["[0]", "[0, 1, 2]", "0", "[true, 1]", '"ab"', '{"a": 1, "b": 2}']
    BAD_SPANS = ["[-1, 1]", "[1, 1]", "[0, 2]", "[2, 1]"]

    def _scores(self, rng):
        roll = rng.random()
        if roll < 0.05:
            return rng.choice(self.NOT_LISTS)
        if roll < 0.1:
            return "[1.5e308, 1.5e308]"
        values = [rng.choice(self.GOOD) for _ in range(rng.randint(0, 6))]
        if roll < 0.45:
            for _ in range(rng.randint(1, 2)):
                values.insert(rng.randint(0, len(values)), rng.choice(self.BAD))
        return "[" + ", ".join(values) + "]"

    def _line(self, rng):
        if rng.random() < 0.02:
            return rng.choice(["[1, 2]", '"s"', "3", '{"doc": "d"', '{"doc": "d"} x'])
        kind = rng.choice(['"split"'] * 9 + ['"label"'] * 9 + ['"wat"', "1"])
        fields = {"doc": rng.choice(self.DOCS[:5] * 8 + self.DOCS[5:]), "kind": kind,
                  "scores": self._scores(rng)}
        bad = rng.random() < 0.1
        if kind == '"label"':
            fields["left"] = rng.choice(self.BAD_PAIRS + self.BAD_SPANS) if bad else "[0, 1]"
            fields["right"] = "[1, 3]"
        else:
            fields["start"] = rng.choice(self.BAD_INDICES) if bad else "0"
            # mostly the end that fits a list of GOOD values
            fields["end"] = (str(2 + fields["scores"].count(",")) if rng.random() < 0.9
                             else rng.choice(["3", "0", "-1"]))
        if rng.random() < 0.05:
            del fields[rng.choice(sorted(fields))]
        items = [f'"{name}": {value}' for name, value in fields.items()]
        items += rng.sample(self.EXTRAS, rng.choice([0, 0, 0, 1, 2]))
        rng.shuffle(items)
        return "{" + ", ".join(items) + "}"

    def test_lines_read_as_the_reference_reads_them(self, tmp_path):
        rng = random.Random(29)
        path = tmp_path / "scores.jsonl"
        valid, errors = 0, []
        for _ in range(2400):
            line = self._line(rng)
            blanks = rng.randint(0, 2)  # line numbers count blank lines
            path.write_text("\n" * blanks + line + "\n", encoding="utf-8")
            expected = reference_score_line(line)
            table = ScoreTable.load(path)
            if isinstance(expected, str):
                with pytest.raises(RstError) as err:
                    table.finish()
                assert str(err.value) == f"{path}: line {blanks + 1}: {expected}", line
                errors.append(expected)
                continue
            doc, kind, key, scores = expected
            provider = table.provider(doc)
            got = (provider.split_scores if kind == "split" else provider.label_scores)(*key)
            assert list(map(float, got)) == list(scores), line
            table.finish()
            valid += 1
        assert valid > 800
        for text in ("scores must be a flat list", "scores must be a list of numbers",
                     "must be real number, not str", "must be real number, not NoneType",
                     "must be real number, not list", "must be real number, not dict",
                     "int too large to convert to float", "scores must be finite",
                     "indices must be integers", "doc must be a string",
                     "start and end must give", "split scores must number",
                     "left and right must be adjacent"):
            assert sum(f"({text}" in error for error in errors) >= 10, text


class Served(ScoreProvider):
    """Another provider's scores in one sequence type, each split or label
    vector lengthened by ``extra`` zeros (or shortened when negative)."""

    def __init__(self, base, kind, extra_splits=0, extra_labels=0):
        self.base, self.kind = base, kind
        self.extra_splits, self.extra_labels = extra_splits, extra_labels

    def _served(self, scores, extra):
        scores = list(scores)
        return self.kind(scores[:extra] if extra < 0 else scores + [0.0] * extra)

    def split_scores(self, start, end):
        return self._served(self.base.split_scores(start, end), self.extra_splits)

    def label_scores(self, left, right):
        return self._served(self.base.label_scores(left, right), self.extra_labels)


SEQUENCE_KINDS = {
    "list": list,
    "tuple": tuple,
    "array": lambda values: array("d", values),
    "numpy": np.array,
}


class TestProviderRepresentations:
    """The decoder reads a list or an array('d') as it is and copies any
    other sequence; trees and scores must not depend on which it got."""

    def test_every_sequence_type_decodes_alike(self):
        for seed in range(24):
            n = 2 + seed % 23
            base = RandomProvider(seed) if seed % 2 else IntegerProvider(seed)
            for width in (1, 4, 16):
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                trees = {name: decode(n, Served(base, kind), config)
                         for name, kind in SEQUENCE_KINDS.items()}
                scores = {name: tree_score(trees["list"], Served(base, kind), TEST_LABELS)
                          for name, kind in SEQUENCE_KINDS.items()}
                assert all(t == trees["list"] for t in trees.values()), (seed, width)
                assert len(set(scores.values())) == 1, (seed, width, scores)

    @pytest.mark.parametrize("nested", [lambda v: np.array(v)[:, None],
                                        lambda v: tuple((x,) for x in v)],
                             ids=["numpy", "tuple"])
    def test_nested_vector_names_its_query(self, nested):
        class Nested(ScoreProvider):
            def __init__(self, nest_splits):
                self.nest_splits = nest_splits

            def split_scores(self, start, end):
                scores = [0.0] * (end - start - 1)
                return nested(scores) if self.nest_splits else scores

            def label_scores(self, left, right):
                scores = [0.0] * len(TEST_LABELS)
                return scores if self.nest_splits else nested(scores)

        flat = "must be a flat sequence of numbers"
        with pytest.raises(RstError, match=rf"split_scores\(0, 4\) {flat}"):
            decode(4, Nested(True), CONFIG)
        with pytest.raises(RstError, match=rf"label_scores\(\(0, 1\), \(1, 4\)\) {flat}"):
            decode(4, Nested(False), CONFIG)

    @pytest.mark.parametrize("kind", SEQUENCE_KINDS, ids=list(SEQUENCE_KINDS))
    @pytest.mark.parametrize("extra", [(1, 0), (-1, 0), (0, 1), (0, -1)],
                             ids=["long-splits", "short-splits", "long-labels",
                                  "short-labels"])
    def test_wrong_length_is_rejected(self, kind, extra):
        base = RandomProvider(3)
        provider = Served(base, SEQUENCE_KINDS[kind], *extra)
        query = "split_scores" if extra[0] else "label_scores"
        message = rf"{query}\(.*\) must have length \d+, got length \d+"
        with pytest.raises(RstError, match=message):
            decode(5, provider, CONFIG)
        with pytest.raises(RstError, match=message):
            tree_score(decode(5, base, CONFIG), provider, TEST_LABELS)


class Refusing(ScoreProvider):
    """A provider that fails any query."""

    def split_scores(self, start, end):
        raise AssertionError(f"split_scores{(start, end)} asked")

    def label_scores(self, left, right):
        raise AssertionError(f"label_scores{(left, right)} asked")


def _decisions(path):
    """The (start, end, split, label) decisions of a search path, last first."""
    out = []
    while path[1] is not None:
        out.append(path[1])
        path = path[2]
    return out


class TestGreedyWalk:
    """``decoder._greedy`` walks one stack of pending ranges; it must keep
    the score and decisions of the width-1 beam, ``_search(width=1)``, ask
    the same queries, and agree with ``reference_search`` at width 1."""

    RELATIONS = tuple(map(RelationLabel.from_merged, TEST_LABELS))
    PROVIDERS = {
        # equal maxima everywhere: float 0, 1 and 2
        "equal maxima": IntegerProvider,
        # once a path carries 1e16, ``base - s`` rounds distinct scores equal
        "rounding ties": RoundingTieProvider,
        # the same scores as Python ints, as a score dump's JSON integers
        "integer scores": lambda seed: Served(IntegerProvider(seed),
                                              lambda v: [int(x) for x in v]),
        "numpy vectors": lambda seed: Served(RandomProvider(seed), np.array),
        "tuples with ties": lambda seed: Served(EdgeSplitProvider(seed, True), tuple),
        "edge splits": EdgeSplitProvider,
    }

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_path_and_queries_match_the_width_1_search(self, kind):
        for seed in range(120):
            n = 2 + seed % 40  # up to 41 EDUs
            greedy_log = QueryLog(self.PROVIDERS[kind](seed))
            search_log = QueryLog(self.PROVIDERS[kind](seed))
            greedy = decoder_mod._greedy(n, greedy_log, len(TEST_LABELS), {})
            search = decoder_mod._search(n, search_log, len(TEST_LABELS), 1, {})
            assert greedy[0] == search[0], (seed, greedy[0], search[0])
            assert _decisions(greedy) == _decisions(search), seed
            assert greedy_log.asked == search_log.asked, seed
            assert set(greedy_log.asked.values()) == {1}, seed
            score, expected = reference_search(n, greedy_log.base, TEST_LABELS, 1)
            assert greedy[0] == score, (seed, greedy[0], score)
            assert decoder_mod._tree(greedy, self.RELATIONS) == expected, seed

    def test_answers_in_the_memo_are_not_asked_again(self):
        # the width-1 search fills the memo with every answer the walk needs
        for seed in range(20):
            n = 2 + seed
            memo = {}
            first = decoder_mod._search(n, RandomProvider(seed), len(TEST_LABELS), 1, memo)
            again = decoder_mod._greedy(n, Refusing(), len(TEST_LABELS), memo)
            assert again[0] == first[0] and _decisions(again) == _decisions(first)

    def test_decode_walks_greedily_and_runs_the_beam_only_above_width_1(
        self, monkeypatch
    ):
        widths = []
        search = decoder_mod._search

        def spy(n, provider, n_labels, width, memo):
            widths.append(width)
            return search(n, provider, n_labels, width, memo)

        monkeypatch.setattr(decoder_mod, "_search", spy)
        for width in (1, 4):
            config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
            decode(9, RandomProvider(width), config)
        assert widths == [4]

    def test_trees_share_the_leaves_below_the_intern_limit(self, monkeypatch):
        # _tree takes its leaves from core._LEAVES, grown from empty here
        monkeypatch.setattr(core, "_LEAVES", ())
        monkeypatch.setattr(core, "_INTERN_LIMIT", 4)
        for n in (2, 3, 4, 5, 9):
            for width in (1, 3):
                config = DecodeConfig(TEST_LABELS, "beam" if width > 1 else "greedy", width)
                tree = decode(n, RandomProvider(n), config)
                assert tree == reference_search(n, RandomProvider(n), TEST_LABELS, width)[1]
                found = leaves(tree)
                assert [leaf.first_edu for leaf in found] == list(range(n))
                assert [leaf is RstTree.leaf(i) for i, leaf in enumerate(found)] == [
                    i < 4 for i in range(n)], (n, width)
