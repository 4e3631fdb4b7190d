"""Acceptance suite: one test per release criterion, at stated tolerances.

Criteria 1 and 2 reproduce published corpus statistics and therefore need
the GUM 9.1 treebank (CC BY 4.0) on disk; point RSTKIT_GUM_DIR at its .rs3
directory (and RSTKIT_GUM_SENTS at a sentence-boundary file for criterion
2) to enable them.  Without the data they skip with instructions rather
than silently pass.  Everything else runs on bundled synthetic fixtures.

Each criterion prints one PASS/FAIL line (visible with ``pytest -v -rA``
or ``-s``).
"""

from __future__ import annotations

import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rstkit.core import enumerate_constituents
from rstkit.crf import CrfModel, TrainConfig, log_likelihood, train, viterbi
from rstkit.decoder import (
    DecodeConfig,
    OracleProvider,
    ScoreProvider,
    decode,
    tree_score,
)
from rstkit.dwa import DwaScheduler
from rstkit.metrics import corpus_stats, genre_breakdown, parseval
from rstkit.preprocess import default_rrt_remap_table, preprocess_corpus
from rstkit.treebank import extract_forest, parse_rs3, read_sentence_file

from conftest import EXPECTED_REMAPPED_CLASSES, build_forest_corpus
from helpers import (
    TEST_LABELS,
    brute_force_log_z,
    brute_force_parseval,
    catalan,
    enumerate_paths,
    finite_difference_grads,
    random_edus,
    random_tree,
    relative_error,
)

GUM_DIR_ENV = "RSTKIT_GUM_DIR"
GUM_SENTS_ENV = "RSTKIT_GUM_SENTS"
RSTDT_DIR_ENV = "RSTKIT_RSTDT_RS3_DIR"
RSTDT_SENTS_ENV = "RSTKIT_RSTDT_SENTS"

# Published reference values for GUM 9.1 and the per-genre coverage table.
GUM_EXPECTED = {
    "docs": 213,
    "edus": 26319,
    "edus_per_tree": 123.6,
    "relation_pairs": 26106,
    "median_tokens": 989,
    "spanned_pct": 72.5,
}
GUM_GENRE_SPANNED = {
    "academic": 72.0,
    "bio": 61.1,
    "conversation": 65.8,
    "fiction": 70.4,
    "interview": 71.4,
    "news": 69.0,
    "reddit": 73.0,
    "speech": 85.8,
    "textbook": 78.5,
    "vlog": 75.3,
    "voyage": 71.3,
    "whow": 77.5,
}
RSTDT_SPANNED_NON_ELEMENTARY = 79.4


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS  criterion {number}: {description}")


def _load_gum():
    directory = os.environ.get(GUM_DIR_ENV)
    if not directory:
        pytest.skip(
            f"criterion needs the GUM 9.1 .rs3 files; set {GUM_DIR_ENV} to their "
            "directory (https://github.com/amir-zeldes/gum, CC BY 4.0)"
        )
    paths = sorted(Path(directory).glob("*.rs3"))
    if not paths:
        pytest.skip(f"{GUM_DIR_ENV}={directory} contains no .rs3 files")
    files = []
    genres = {}
    for path in paths:
        files.append((path.stem, extract_forest(parse_rs3(path.read_bytes()))))
        parts = path.stem.split("_")
        genres[path.stem] = parts[1] if len(parts) > 1 else "unknown"
    corpus, _ = preprocess_corpus(
        files, name="gum", genre=genres, lang="en", drop_single_edu=False
    )
    return corpus


def test_criterion_1_gum_corpus_statistics():
    with criterion(1, "GUM corpus statistics reproduce the published row"):
        started = time.perf_counter()
        corpus = _load_gum()
        stats = corpus_stats(corpus.documents, spanned=False)
        elapsed = time.perf_counter() - started
        assert stats.docs == GUM_EXPECTED["docs"]
        assert stats.edus == GUM_EXPECTED["edus"]
        assert abs(stats.edus_per_tree - GUM_EXPECTED["edus_per_tree"]) <= 0.1
        assert abs(stats.relation_pairs - GUM_EXPECTED["relation_pairs"]) <= 300
        median = stats.tokens_per_tree_median
        assert abs(median - GUM_EXPECTED["median_tokens"]) <= 0.02 * GUM_EXPECTED[
            "median_tokens"
        ]
        assert elapsed < 30.0, f"statistics took {elapsed:.1f}s (budget 30s)"


def test_gum_loader_plumbing(monkeypatch, tmp_path):
    """The corpus loader behind criteria 1-2 works on a GUM-style layout."""
    from rstkit.treebank import serialize_rs3
    from helpers import make_document

    rng = random.Random(0)
    for i in range(2):
        doc = make_document(f"GUM_news_doc{i}", random_tree(rng, 3), genre="news")
        (tmp_path / f"GUM_news_doc{i}.rs3").write_bytes(serialize_rs3(doc))
    monkeypatch.setenv(GUM_DIR_ENV, str(tmp_path))
    corpus = _load_gum()
    assert len(corpus) == 2
    assert {d.genre for d in corpus.documents} == {"news"}


def test_criterion_2_spanned_sentence_coverage():
    with criterion(2, "spanned non-EDU sentence coverage matches the tables"):
        corpus = _load_gum()
        sents_path = os.environ.get(GUM_SENTS_ENV)
        if not sents_path:
            pytest.skip(
                f"criterion needs sentence boundaries; set {GUM_SENTS_ENV} to a "
                "file of 'doc_id<TAB>start indices' lines"
            )
        sentences = read_sentence_file(sents_path)
        stats = corpus_stats(corpus.documents, sentences=sentences)
        assert stats.spanned_pct is not None
        assert abs(stats.spanned_pct - GUM_EXPECTED["spanned_pct"]) <= 1.5
        per_genre = genre_breakdown(corpus, sentences=sentences)
        for genre, expected in GUM_GENRE_SPANNED.items():
            measured = per_genre[genre].spanned_pct
            assert measured is not None
            assert abs(measured - expected) <= 1.5, f"{genre}: {measured:.1f}"
        rstdt_dir = os.environ.get(RSTDT_DIR_ENV)
        rstdt_sents = os.environ.get(RSTDT_SENTS_ENV)
        if rstdt_dir and rstdt_sents:
            files = [
                (p.stem, extract_forest(parse_rs3(p.read_bytes())))
                for p in sorted(Path(rstdt_dir).glob("*.rs3"))
            ]
            rstdt, _ = preprocess_corpus(
                files, name="rst-dt", genre="news", drop_single_edu=False
            )
            rstdt_stats = corpus_stats(
                rstdt.documents, sentences=read_sentence_file(rstdt_sents)
            )
            assert abs(rstdt_stats.spanned_pct - RSTDT_SPANNED_NON_ELEMENTARY) <= 1.5


def test_criterion_3_forest_preprocessing(tmp_path):
    with criterion(3, "forest splitting, filtering and remapping counts"):
        fixture = build_forest_corpus(tmp_path / "rrt_like")
        files = [
            (path.stem, extract_forest(parse_rs3(path.read_bytes())))
            for path in sorted(fixture.directory.glob("*.rs3"))
        ]
        corpus, report = preprocess_corpus(
            files, name="rrt-like", lang="ru", table=default_rrt_remap_table()
        )
        trees_per_file = report.trees_extracted / report.documents_in
        assert abs(trees_per_file - 11.7) <= 0.2
        assert report.single_edu_dropped == fixture.n_single_edu
        small = sum(1 for doc in corpus.documents if 2 <= len(doc.edus) <= 4)
        pct_small = 100.0 * small / len(corpus.documents)
        assert abs(pct_small - 12.8) <= 0.5
        assert report.classes_after == EXPECTED_REMAPPED_CLASSES == 24
        assert len(corpus.relation_inventory) == 24


def test_criterion_4_matcher_equivalence_and_oracle_decode():
    with criterion(4, "fast matcher == brute force on 1000 docs; oracle Full=100"):
        started = time.perf_counter()
        rng = random.Random(2024)
        config = DecodeConfig(labels=TEST_LABELS)
        for case in range(1000):
            n = rng.randint(2, 50)
            edus = random_edus(rng, n)
            gold = random_tree(rng, n)
            pred = random_tree(rng, n)
            scores = parseval(gold, pred, edus, edus)
            oracle = brute_force_parseval(
                enumerate_constituents(gold, edus),
                enumerate_constituents(pred, edus),
            )
            assert scores.span.matched == oracle["S"]
            assert scores.nuclearity.matched == oracle["N"]
            assert scores.relation.matched == oracle["R"]
            assert scores.full.matched == oracle["Full"]
            decoded = decode(n, OracleProvider(gold, TEST_LABELS), config)
            assert decoded == gold
            full = parseval(gold, decoded, edus, edus).full
            assert full.f1 == 100.0
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"matcher equivalence took {elapsed:.1f}s (budget 60s)"


class _CachedRandomProvider(ScoreProvider):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.splits: dict = {}
        self.labels_: dict = {}

    def split_scores(self, start, end):
        key = (start, end)
        if key not in self.splits:
            self.splits[key] = [
                self.rng.uniform(-1.0, 1.0) for _ in range(end - start - 1)
            ]
        return self.splits[key]

    def label_scores(self, left, right):
        key = (left, right)
        if key not in self.labels_:
            self.labels_[key] = [
                self.rng.uniform(-1.0, 1.0) for _ in range(len(TEST_LABELS))
            ]
        return self.labels_[key]


def test_criterion_5_beam_optimality_at_small_n():
    with criterion(5, "full-width beam equals exhaustive max on 500 trials"):
        from helpers import enumerate_trees

        rng = random.Random(5150)
        for trial in range(500):
            n = rng.randint(2, 8)
            provider = _CachedRandomProvider(rng.randrange(2**60))
            width = catalan(n - 1)
            beam_config = DecodeConfig(
                labels=TEST_LABELS, strategy="beam", beam_width=width
            )
            beam_tree = decode(n, provider, beam_config)
            best_tree = max(
                enumerate_trees(0, n, provider, TEST_LABELS),
                key=lambda t: tree_score(t, provider, TEST_LABELS),
            )
            beam_score = tree_score(beam_tree, provider, TEST_LABELS)
            best_score = tree_score(best_tree, provider, TEST_LABELS)
            assert abs(beam_score - best_score) < 1e-9
            assert beam_tree == best_tree
            greedy_tree = decode(n, provider, DecodeConfig(labels=TEST_LABELS))
            assert tree_score(greedy_tree, provider, TEST_LABELS) <= beam_score + 1e-12


def test_criterion_6_crf_correctness():
    with criterion(6, "CRF logZ, exact gradients and separable training"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n_labels = int(rng.integers(2, 4))
            seq_len = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 4))
            model = CrfModel(
                labels=tuple(f"L{i}" for i in range(n_labels)),
                emission=rng.normal(size=(n_labels, dim)),
                transition=rng.normal(size=(n_labels, n_labels)),
                start=rng.normal(size=n_labels),
                stop=rng.normal(size=n_labels),
            )
            features = rng.normal(size=(seq_len, dim))
            gold = [model.labels[i] for i in rng.integers(0, n_labels, size=seq_len)]
            ll, grads = log_likelihood(model, features, gold)
            (gold_score,) = [
                s
                for p, s in enumerate_paths(model, features)
                if p == tuple(model.labels.index(g) for g in gold)
            ]
            assert abs((gold_score - ll) - brute_force_log_z(model, features)) < 1e-10
            numeric = finite_difference_grads(model, features, gold, h=1e-5)
            for name in ("emission", "transition", "start", "stop"):
                assert relative_error(getattr(grads, name), numeric[name]) < 1e-4

        # Separable segmentation: the label is a deterministic feature.
        started = time.perf_counter()
        data_rng = np.random.default_rng(3)
        dataset = []
        for _ in range(12):
            seq_len = 14
            labels = ["B"] + [
                "B" if data_rng.random() < 0.3 else "I" for _ in range(seq_len - 1)
            ]
            features = np.zeros((seq_len, 2))
            for t, label in enumerate(labels):
                features[t, 0 if label == "B" else 1] = 1.0
            dataset.append((features, labels))
        model = CrfModel.create(2)
        trained, _ = train(model, dataset, TrainConfig(epochs=200))
        elapsed = time.perf_counter() - started
        correct = total = 0
        for features, labels in dataset:
            predicted = viterbi(trained, features)
            correct += sum(p == g for p, g in zip(predicted, labels))
            total += len(labels)
        assert correct == total, f"training accuracy {correct}/{total}"
        assert elapsed < 10.0, f"training took {elapsed:.1f}s (budget 10s)"


def test_criterion_7_dwa_scheduler():
    with criterion(7, "DWA warm-up, exact sums, window-1 ratios and smoothing"):
        # constant streams stay exactly uniform after warm-up
        scheduler = DwaScheduler(num_tasks=3, window=2, temperature=2.0)
        for _ in range(20):
            weights = scheduler.update([1.5, 1.5, 1.5])
        assert list(weights) == [1.0, 1.0, 1.0]

        # weights always sum to K within 1e-12
        rng = random.Random(12)
        scheduler = DwaScheduler(num_tasks=3, window=3, temperature=2.0)
        for _ in range(200):
            weights = scheduler.update([rng.uniform(0.05, 8.0) for _ in range(3)])
            assert abs(float(np.sum(weights)) - 3.0) < 1e-12

        # window 1 reproduces the plain two-batch ratio bit-exactly
        stream = [[rng.uniform(0.2, 4.0) for _ in range(3)] for _ in range(60)]
        scheduler = DwaScheduler(num_tasks=3, window=1, temperature=2.0)
        for i, losses in enumerate(stream):
            weights = scheduler.update(losses)
            if i >= 2:
                rates = np.array(
                    [stream[i - 1][k] / stream[i - 2][k] for k in range(3)]
                )
                exp = np.exp(rates / 2.0 - np.max(rates / 2.0))
                assert np.array_equal(weights, (3 * exp) / np.sum(exp))

        # the window smooths the trajectory on a fixed noisy stream
        noise_rng = random.Random(42)
        noisy = []
        for i in range(400):
            base = [2.0 * math.exp(-i / 300), 1.0, 0.5 * math.exp(-i / 600)]
            noisy.append([b * noise_rng.lognormvariate(0.0, 0.3) for b in base])
        variances = {}
        for window in (1, 12):
            scheduler = DwaScheduler(num_tasks=3, window=window, temperature=2.0)
            series = [float(scheduler.update(row)[0]) for row in noisy]
            variances[window] = float(np.var(series[24:]))
        assert variances[12] < variances[1]


def test_criterion_8_non_reproducibility_statement_and_hand_scored_fixtures():
    with criterion(8, "non-reproducibility statement plus six exact fixtures"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "not reproducible" in text.lower(), (
            "README must state that the published parser F1 scores are not "
            "reproducible without fine-tuning a large language model"
        )
        from test_metrics import TestHandScoredFixtures

        fixtures = TestHandScoredFixtures()
        fixtures.test_case_1_identical_trees()
        fixtures.test_case_2_satellite_relation_error()
        fixtures.test_case_3_root_split_error()
        fixtures.test_case_4_nuclearity_swap()
        fixtures.test_case_5_end_to_end_with_merged_edus()
        fixtures.test_case_6_micro_accumulation_over_two_documents()
