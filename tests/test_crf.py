import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rstkit.core import EduSpan
from rstkit.crf import (
    CrfModel,
    DimensionMismatch,
    EmptyDataset,
    HashedWindowFeatures,
    PrecomputedFeatures,
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
    brute_force_log_z,
    enumerate_paths,
    finite_difference_grads,
    relative_error,
)


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
        path = viterbi(model, features)
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
            predicted = viterbi(model, features)
            assert [model.labels[i] for i in best_path] == predicted

    def test_single_token(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        features = rng.normal(size=(1, 3))
        scores = model.start + features @ model.emission.T + model.stop
        assert viterbi(model, features) == [model.labels[int(np.argmax(scores))]]

    def test_tie_break_prefers_lower_label_index(self):
        model = CrfModel.create(2)  # all-zero parameters: every path ties
        features = np.zeros((3, 2))
        assert viterbi(model, features) == ["B", "B", "B"]

    def test_viterbi_score_dominates_all_paths(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_model(rng, n_labels=3, dim=2)
            features = rng.normal(size=(rng.integers(1, 6), 2))
            paths = enumerate_paths(model, features)
            predicted = viterbi(model, features)
            idx = tuple(model.labels.index(l) for l in predicted)
            (pred_score,) = [s for p, s in paths if p == idx]
            assert pred_score >= max(s for _, s in paths) - 1e-12

    def test_dimension_mismatch(self):
        model = CrfModel.create(3)
        with pytest.raises(DimensionMismatch):
            viterbi(model, np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch):
            viterbi(model, np.zeros((0, 3)))


class TestLogLikelihood:
    def test_uniform_single_token(self):
        model = CrfModel.create(1)  # feature dim 1, two labels, all zeros
        ll, _ = log_likelihood(model, np.zeros((1, 1)), ["B"])
        assert ll == pytest.approx(-math.log(2), abs=1e-12)

    def test_log_z_matches_brute_force_two_tokens(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            model = random_model(rng)
            features = rng.normal(size=(2, 3))
            gold = [model.labels[i] for i in rng.integers(0, 2, size=2)]
            ll, _ = log_likelihood(model, features, gold)
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
                ll, _ = log_likelihood(model, features, gold)
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
            _, grads = log_likelihood(model, features, gold)
            numeric = finite_difference_grads(model, features, gold, h=1e-5)
            for name in ("emission", "transition", "start", "stop"):
                assert relative_error(getattr(grads, name), numeric[name]) < 1e-4

    def test_gold_length_mismatch(self):
        model = CrfModel.create(2)
        with pytest.raises(DimensionMismatch):
            log_likelihood(model, np.zeros((3, 2)), ["B", "I"])


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
        dataset.append((features, labels))
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

    def test_zero_learning_rate_keeps_parameters(self):
        dataset = separable_dataset(n_docs=3)
        model = CrfModel.create(2, seed=1, scale=0.1)
        trained, _ = train(model, dataset, TrainConfig(epochs=3, learning_rate=0.0))
        for name in ("emission", "transition", "start", "stop"):
            assert np.array_equal(getattr(trained, name), getattr(model, name))

    def test_same_seed_bit_identical_curves(self):
        dataset = separable_dataset(n_docs=6)
        model = CrfModel.create(2)
        _, curve_a = train(model, dataset, TrainConfig(epochs=10, seed=42))
        _, curve_b = train(model, dataset, TrainConfig(epochs=10, seed=42))
        assert curve_a == curve_b

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
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
        with pytest.raises(ValueError):
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
        a = extractor(tokens)
        b = extractor(tokens)
        assert a.shape == (6, extractor.dim)
        assert np.array_equal(a, b)

    def test_comma_flags(self):
        extractor = HashedWindowFeatures(16)
        matrix = extractor(["a", ",", "b"])
        flags = 3 * 16
        assert matrix[1, flags + 1] == 1.0  # is-comma
        assert matrix[2, flags + 2] == 1.0  # previous token is a comma

    def test_precomputed_features_lookup(self):
        table = PrecomputedFeatures({"doc": np.ones((3, 4))})
        assert table.for_document("doc", 3).shape == (3, 4)
        with pytest.raises(DimensionMismatch):
            table.for_document("doc", 5)
        with pytest.raises(DimensionMismatch):
            table.for_document("other", 3)

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


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        model = random_model(rng, n_labels=2, dim=5)
        extractor = HashedWindowFeatures(32)
        path = tmp_path / "model.npz"
        save_model(model, path, extractor)
        loaded, loaded_extractor = load_model(path)
        assert loaded.labels == model.labels
        for name in ("emission", "transition", "start", "stop"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        assert loaded_extractor == extractor
