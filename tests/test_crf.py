import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstkit import crf
from rstkit.core import EduSpan, RstError
from rstkit.crf import (
    CrfModel,
    HashedWindowFeatures,
    SparseFeatures,
    TrainConfig,
    dataset_from_corpus,
    document_labels,
    edus_to_labels,
    labels_to_edus,
    load_model,
    log_likelihood,
    save_model,
    train,
    viterbi,
)

from helpers import (
    _logsumexp,
    brute_force_log_z,
    enumerate_paths,
    finite_difference_grads,
    reference_adam_step,
    reference_features,
    reference_log_likelihood,
    reference_viterbi,
    relative_error,
    rows,
    toarray,
)


# The parameter blocks, in the order of log_likelihood's gradient.
PARAMETERS = ("emission", "transition", "start", "stop")


def random_model(rng: np.random.Generator, n_labels=2, dim=3) -> CrfModel:
    return CrfModel(
        labels=tuple(f"L{i}" for i in range(n_labels)) if n_labels != 2 else ("B", "I"),
        emission=rng.normal(size=(n_labels, dim)),
        transition=rng.normal(size=(n_labels, n_labels)),
        start=rng.normal(size=n_labels),
        stop=rng.normal(size=n_labels),
    )


class TestViterbi:
    def test_zero_chain_reduces_to_emission_argmax(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(7, 4))
        model = CrfModel.create(4)
        model.emission[:] = rng.normal(size=model.emission.shape)
        path = viterbi(model, rows(features))
        emissions = features @ model.emission.T
        expected = [model.labels[i] for i in emissions.argmax(axis=1)]
        assert path == expected

    def test_two_tokens_against_path_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            model = random_model(rng)
            features = rng.normal(size=(2, 3))
            best_path, best_score = max(
                enumerate_paths(model, features), key=lambda item: item[1]
            )
            predicted = viterbi(model, rows(features))
            assert [model.labels[i] for i in best_path] == predicted

    def test_single_token(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        features = rng.normal(size=(1, 3))
        scores = model.start + features @ model.emission.T + model.stop
        assert viterbi(model, rows(features)) == [model.labels[int(np.argmax(scores))]]

    def test_tie_break_prefers_lower_label_index(self):
        model = CrfModel.create(2)  # all-zero parameters: every path ties
        assert viterbi(model, rows(np.zeros((3, 2)))) == ["B", "B", "B"]

    def test_viterbi_score_dominates_all_paths(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, n_labels=3, dim=2)
            features = rng.normal(size=(rng.integers(1, 6), 2))
            paths = enumerate_paths(model, features)
            predicted = viterbi(model, rows(features))
            idx = tuple(model.labels.index(l) for l in predicted)
            (pred_score,) = [s for p, s in paths if p == idx]
            assert pred_score >= max(s for _, s in paths) - 1e-12

    def test_dimension_mismatch(self):
        model = CrfModel.create(3)
        with pytest.raises(RstError, match=re.escape("features must be [seq_len, 3], got (2, 4)")):
            viterbi(model, rows(np.zeros((2, 4))))
        with pytest.raises(RstError, match="sequence must have at least one position"):
            viterbi(model, rows(np.zeros((0, 3))))

    def test_features_other_than_sparse_rows_are_rejected(self):
        model = CrfModel.create(3)
        for features in (np.zeros((2, 3)), [[0.0] * 3] * 2, None):
            name = type(features).__name__
            message = f"features must be SparseFeatures, got {name}"
            with pytest.raises(RstError, match=message):
                viterbi(model, features)
            with pytest.raises(RstError, match=message):
                log_likelihood(model, features, ["B", "I"])


class TestLogLikelihood:
    def test_uniform_single_token(self):
        model = CrfModel.create(1)  # feature dim 1, two labels, all zeros
        ll, _ = log_likelihood(model, rows(np.zeros((1, 1))), ["B"])
        assert ll == pytest.approx(-math.log(2), abs=1e-12)

    def test_log_z_matches_brute_force_two_tokens(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            model = random_model(rng)
            features = rng.normal(size=(2, 3))
            gold = [model.labels[i] for i in rng.integers(0, 2, size=2)]
            ll, _ = log_likelihood(model, rows(features), gold)
            (gold_score,) = [
                s
                for p, s in enumerate_paths(model, features)
                if p == tuple(model.labels.index(g) for g in gold)
            ]
            assert ll == pytest.approx(
                gold_score - brute_force_log_z(model, features), abs=1e-10
            )

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for n_labels in (2, 3):
            for seq_len in (1, 3, 6):
                model = random_model(rng, n_labels=n_labels, dim=2)
                features = rng.normal(size=(seq_len, 2))
                log_z = brute_force_log_z(model, features)
                total = sum(
                    math.exp(s - log_z) for _, s in enumerate_paths(model, features)
                )
                assert total == pytest.approx(1.0, abs=1e-9)
                # the production forward pass agrees with the enumeration
                gold = [model.labels[0]] * seq_len
                ll, _ = log_likelihood(model, rows(features), gold)
                (gold_score,) = [
                    s
                    for p, s in enumerate_paths(model, features)
                    if p == (0,) * seq_len
                ]
                assert gold_score - ll == pytest.approx(log_z, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n_labels = int(rng.integers(2, 4))
            seq_len = int(rng.integers(1, 5))
            model = random_model(rng, n_labels=n_labels, dim=2)
            features = rng.normal(size=(seq_len, 2))
            gold = [model.labels[i] for i in rng.integers(0, n_labels, size=seq_len)]
            _, grads = log_likelihood(model, rows(features), gold)
            numeric = finite_difference_grads(model, features, gold, h=1e-5)
            for name, got, want in zip(PARAMETERS, grads, numeric, strict=True):
                assert relative_error(got, want) < 1e-4, name

    def test_gold_length_mismatch(self):
        model = CrfModel.create(2)
        with pytest.raises(RstError, match="gold length 2 != sequence length 3"):
            log_likelihood(model, rows(np.zeros((3, 2))), ["B", "I"])


def random_tokens(rng: np.random.Generator, seq_len: int) -> list[str]:
    vocab = ["The", "cat", ",", "sat", ".", "On", "mat", "!", "--", "x1", ";"]
    vocab += [f"w{i}" for i in range(200)]
    return [vocab[i] for i in rng.integers(0, len(vocab), size=seq_len)]


def assert_same_result(actual, expected, tolerance):
    """log-likelihood and every gradient block agree within ``tolerance``,
    relative to the largest magnitude in the block (at least 1)."""
    (ll_a, grads_a), (ll_b, grads_b) = actual, expected
    assert abs(ll_a - ll_b) <= tolerance * max(abs(ll_b), 1.0)
    for name, a, b in zip(PARAMETERS, grads_a, grads_b, strict=True):
        scale = max(float(np.max(np.abs(b))), 1.0)
        assert float(np.max(np.abs(a - b))) <= tolerance * scale, name


class TestFastPathsAgainstOracles:
    """Sparse features and the scan-based recursions against the dense
    matrix and the sequential per-token recursions."""

    def test_sparse_and_dense_features_agree(self):
        # The extractor's 8-wide rows and the full-width rows of the same
        # matrix agree through the scan at 1e-12; the sequential reference
        # rounds in another order, which at 3 labels and 300 tokens differs
        # by 1.07e-12 of the largest gradient entry.
        rng = np.random.default_rng(10)
        extractor = HashedWindowFeatures(32)
        for n_labels in (2, 3):
            for seq_len in (1, 2, 17, 300):
                model = random_model(rng, n_labels=n_labels, dim=extractor.dim)
                sparse = extractor(random_tokens(rng, seq_len))
                dense = toarray(sparse)
                gold = [model.labels[i] for i in rng.integers(0, n_labels, seq_len)]
                result = log_likelihood(model, sparse, gold)
                assert_same_result(result, log_likelihood(model, rows(dense), gold), 1e-12)
                assert_same_result(result, reference_log_likelihood(model, dense, gold), 1e-11)
                assert viterbi(model, sparse) == reference_viterbi(model, dense)

    def test_scan_matches_sequential_reference_on_long_documents(self):
        rng = np.random.default_rng(11)
        extractor = HashedWindowFeatures(64)
        for n_labels, seq_len in ((2, 1000), (3, 1700), (2, 3000)):
            model = random_model(rng, n_labels=n_labels, dim=extractor.dim)
            sparse = extractor(random_tokens(rng, seq_len))
            gold = [model.labels[i] for i in rng.integers(0, n_labels, seq_len)]
            assert_same_result(
                log_likelihood(model, sparse, gold),
                reference_log_likelihood(model, toarray(sparse), gold),
                1e-9,
            )
            assert viterbi(model, sparse) == reference_viterbi(model, toarray(sparse))

    def test_viterbi_equals_reference_on_tie_heavy_models(self):
        # Small integers keep every sum exact, so the scan and the
        # sequential recursion see the same ties and must break them alike.
        rng = np.random.default_rng(12)
        small = lambda *shape: rng.integers(-1, 2, size=shape).astype(float)
        for n_labels in (2, 3):
            for seq_len in range(1, 61):
                model = CrfModel(
                    labels=("B", "I") if n_labels == 2 else ("A", "B", "C"),
                    emission=small(n_labels, 2),
                    transition=small(n_labels, n_labels),
                    start=small(n_labels),
                    stop=small(n_labels),
                )
                features = np.abs(small(seq_len, 2))
                assert viterbi(model, rows(features)) == reference_viterbi(model, features)


def separable_dataset(n_docs=12, seq_len=14, seed=0):
    """Token feature directly encodes the label: trivially separable."""
    rng = np.random.default_rng(seed)
    dataset = []
    for _ in range(n_docs):
        labels = ["B"] + [
            "B" if rng.random() < 0.3 else "I" for _ in range(seq_len - 1)
        ]
        features = np.zeros((seq_len, 2))
        for t, label in enumerate(labels):
            features[t, 0 if label == "B" else 1] = 1.0
        dataset.append((rows(features), labels))
    return dataset


class TestTrain:
    def test_separable_data_reaches_perfect_accuracy(self):
        dataset = separable_dataset()
        model = CrfModel.create(2)
        trained, curve = train(model, dataset, TrainConfig(epochs=200))
        correct = total = 0
        for features, labels in dataset:
            predicted = viterbi(trained, features)
            correct += sum(p == g for p, g in zip(predicted, labels))
            total += len(labels)
        assert correct == total
        assert curve[-1] < curve[0]

    def test_bad_learning_rate_and_l2_are_rejected(self):
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(RstError, match="learning rate must be finite and > 0"):
                TrainConfig(learning_rate=rate)
        for l2 in (-1.0, math.nan, math.inf):
            with pytest.raises(RstError, match="l2 must be finite and >= 0"):
                TrainConfig(l2=l2)
        TrainConfig(learning_rate=1e-9, l2=0.0)  # the boundary values pass

    def test_same_seed_bit_identical_curves(self):
        dataset = separable_dataset(n_docs=6)
        model = CrfModel.create(2)
        _, curve_a = train(model, dataset, TrainConfig(epochs=10, seed=42))
        _, curve_b = train(model, dataset, TrainConfig(epochs=10, seed=42))
        assert curve_a == curve_b

    def test_empty_dataset(self):
        with pytest.raises(RstError, match="no training sequences"):
            train(CrfModel.create(2), [], TrainConfig())

    def test_input_model_is_not_mutated(self):
        dataset = separable_dataset(n_docs=2)
        model = CrfModel.create(2)
        before = model.emission.copy()
        train(model, dataset, TrainConfig(epochs=2))
        assert np.array_equal(model.emission, before)


class TestLabelsToEdus:
    def test_spec_examples(self):
        assert labels_to_edus(["B", "I", "I", "B", "I"]) == (
            EduSpan(0, 2),
            EduSpan(3, 4),
        )
        assert labels_to_edus(["I", "I", "I"]) == (EduSpan(0, 2),)
        assert labels_to_edus(["B"] * 4) == tuple(EduSpan(i, i) for i in range(4))

    def test_bad_symbol(self):
        with pytest.raises(RstError, match="labels must be 'B' or 'I'"):
            labels_to_edus(["B", "O"])

    @given(st.lists(st.sampled_from(["B", "I"]), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_output_partitions_the_token_range(self, labels):
        edus = labels_to_edus(labels)
        expected = 0
        for edu in edus:
            assert edu.first_token == expected
            expected = edu.last_token + 1
        assert expected == len(labels)

    def test_round_trip_with_edus_to_labels(self):
        rng = random.Random(8)
        for _ in range(20):
            labels = ["B"] + [rng.choice("BI") for _ in range(rng.randint(0, 20))]
            edus = labels_to_edus(labels)
            assert edus_to_labels(edus, len(labels)) == labels


class TestFeatures:
    def test_hashed_window_shape_and_determinism(self):
        extractor = HashedWindowFeatures(64)
        tokens = ["Over", "there", ",", "he", "said", "."]
        a = toarray(extractor(tokens))
        b = toarray(extractor(tokens))
        assert a.shape == (6, extractor.dim)
        assert np.array_equal(a, b)

    def test_comma_flags(self):
        extractor = HashedWindowFeatures(16)
        matrix = toarray(extractor(["a", ",", "b"]))
        flags = 3 * 16
        assert matrix[1, flags + 1] == 1.0  # is-comma
        assert matrix[2, flags + 2] == 1.0  # previous token is a comma

    def test_hashed_window_memory_per_token(self):
        tokens = [f"w{i % 97}" if i % 7 else "," for i in range(1000)]
        features = HashedWindowFeatures(1024)(tokens)
        assert features.shape == (1000, 3 * 1024 + 5)
        assert features.nbytes <= 100 * len(tokens)

    def test_bucket_count_must_fit_int32_indices(self):
        HashedWindowFeatures((2**31 - 6) // 3)  # the largest that fits
        with pytest.raises(RstError, match="buckets must be"):
            HashedWindowFeatures((2**31 - 6) // 3 + 1)

    def test_sparse_rows_are_validated(self):
        idx = np.array([[0, 1], [2, 3]], dtype=np.int32)
        with pytest.raises(RstError, match=re.escape("index outside [0, 3)")):
            SparseFeatures(idx, np.ones((2, 2)), dim=3)
        with pytest.raises(RstError, match=re.escape("idx and vals must be equal [seq_len, k]")):
            SparseFeatures(idx, np.ones((2, 3)), dim=4)
        with pytest.raises(RstError, match=re.escape("index outside [0, 4)")):
            SparseFeatures(-idx, np.ones((2, 2)), dim=4)
        with pytest.raises(RstError, match="idx must be integers, got float64"):
            SparseFeatures(idx.astype(float), np.ones((2, 2)), dim=4)

    def test_document_labels(self, tmp_path):
        from helpers import make_document, random_tree

        doc = make_document(
            "d",
            random_tree(random.Random(0), 2),
            edus=(EduSpan(0, 1), EduSpan(2, 3)),
        )
        assert document_labels(doc) == ["B", "I", "B", "I"]
        dataset = dataset_from_corpus([doc], HashedWindowFeatures(8))
        assert dataset[0][0].shape[0] == 4


# Token lists on which the extractor's per-word tables must give the rows of
# the per-token loop (helpers.reference_features).
FEATURE_CASES = {
    "empty": [],
    "one token": ["Word"],
    "repeated": ["the", "river", "the", ",", "the", "river", "."] * 3,
    "all distinct": [f"w{i}" for i in range(40)],
    "case variants": ["The", "the", "THE", "tHe", "the", "The"],
    "cyrillic": ["Мир", "мир", ",", "и", "МИР", ".", "мир"],
    "mixed scripts": ["Moscow-Москва", "x\u0663", "日本", "\u216b", "\u01c5emal", "ß",
                      "\u1e9e"],
    "punctuation only": ["...", "!?", "\u2014", "«", "»", ";", ":", "(", ")", "..."],
    "commas first and last": [",", "a", ",", ",", "b", ","],
    "underscores": ["_", "__", "a_b", "_x", "x_", "_", "-_-"],
}


class TestBitIdenticalFastPaths:
    """The extractor's per-word tables, the in-place Adam step and the
    in-place log-sum-exp equal their per-token and out-of-place oracles
    bit for bit."""

    def cases(self):
        rng = random.Random(2027)
        pool = [t for tokens in FEATURE_CASES.values() for t in tokens]
        drawn = []
        for _ in range(300):
            n = rng.choice((1, 2, 3, rng.randint(4, 80)))
            drawn.append([rng.choice(pool) if rng.random() < 0.7 else
                          "".join(chr(rng.randrange(0x21, 0x3000))
                                  for _ in range(rng.randint(1, 3)))
                          for _ in range(n)])
        return [*FEATURE_CASES.values(), *drawn]

    @pytest.mark.parametrize("n_buckets", [1, 7, 1024])
    def test_rows_equal_the_per_token_loop(self, n_buckets):
        extractor = HashedWindowFeatures(n_buckets)
        for tokens in self.cases():
            got, want = extractor(tokens), reference_features(extractor, tokens)
            assert got.idx.dtype == want.idx.dtype == np.int32
            assert got.vals.dtype == want.vals.dtype
            assert np.array_equal(got.idx, want.idx), tokens
            assert np.array_equal(got.vals, want.vals), tokens

    def test_alnum_pattern_agrees_with_isalnum_on_every_code_point(self):
        alnum = crf._alnum
        assert not [c for c in range(0x110000)
                    if (alnum(chr(c)) is None) == chr(c).isalnum()]

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_adam_step_equals_the_out_of_place_formulas(self, l2):
        rng = np.random.default_rng(31)
        model = random_model(rng, n_labels=2, dim=12)
        ours = [model.emission, model.transition, model.start, model.stop]
        theirs = [p.copy() for p in ours]
        opt, ref = (crf._Adam([p.shape for p in ours], 0.2) for _ in range(2))
        for _ in range(5):
            # steps as train() builds them; the gradients hold zeros of both signs
            grads = [rng.normal(size=p.shape) * (rng.random(size=p.shape) < 0.7)
                     for p in ours]
            opt.step(ours, [-g + l2 * p for g, p in zip(grads, ours)])
            reference_adam_step(ref, theirs, [-g + l2 * p for g, p in zip(grads, theirs)])
            for a, b in zip([*ours, *opt.m, *opt.v], [*theirs, *ref.m, *ref.v]):
                assert a.tobytes() == b.tobytes()

    def test_logsumexp_equals_the_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        for shape in ((2, 2, 2, 9), (3, 5), (4,)):
            a = rng.normal(scale=300, size=shape)  # exp underflows to 0 in places
            for axis in range(a.ndim):
                want = _logsumexp(a, axis)
                assert crf._logsumexp(a.copy(), axis).tobytes() == want.tobytes()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        extractor = HashedWindowFeatures(32)
        model = random_model(rng, n_labels=2, dim=extractor.dim)
        path = tmp_path / "model.npz"
        save_model(model, path, extractor)
        loaded, loaded_extractor = load_model(path)
        assert loaded.labels == model.labels
        for name in ("emission", "transition", "start", "stop"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        assert loaded_extractor == extractor

    def test_bucket_count_must_match_emission_width(self, tmp_path):
        model = random_model(np.random.default_rng(7), n_labels=2, dim=5)
        path = tmp_path / "model.npz"
        save_model(model, path, HashedWindowFeatures(32))
        with pytest.raises(RstError, match="n_buckets 32 gives 101 features"):
            load_model(path)
