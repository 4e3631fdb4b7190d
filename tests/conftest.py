"""Shared fixtures: the synthetic forest corpus used to exercise the
RRT-style preprocessing pipeline with exact expected counts."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from rstkit.core import RelationLabel, RstTree

from helpers import make_document, serialize_rs3_forest

# Raw labels drawn round-robin by the fixture trees.  Together they exercise
# every shipped remap rule and land on exactly 24 distinct merged labels
# after rewriting (the remapped RRT-style inventory size).
RAW_LABEL_CYCLE = (
    "antithesis_NS",
    "attribution_SN",
    "background_SN",
    "cause_NS",
    "effect_SN",
    "comparison_NN",
    "concession_NS",
    "concession_SN",
    "motivation_NS",
    "restatement_SN",
    "restatement_NS",
    "preparation_NS",
    "background_NS",
    "evidence_NS",
    "evidence_SN",
    "evaluation_NS",
    "interpretation_SN",
    "joint_NN",
    "elaboration_SN",
    "purpose_NS",
    "purpose_SN",
    "restatement_NN",
    "sequence_NN",
    "solutionhood_NS",
    "same-unit_NN",
    "elaboration_NS",
)

EXPECTED_REMAPPED_CLASSES = 24


@dataclass(frozen=True)
class ForestFixture:
    directory: Path
    n_files: int
    n_trees: int
    n_single_edu: int
    n_small_trees: int  # trees with 2..4 EDUs among the kept ones
    n_kept: int


def _right_chain(n: int, labels: list[str]) -> RstTree:
    """Right-branching tree over n EDUs, popping labels from the cycle."""
    node = RstTree.leaf(n - 1)
    for i in range(n - 2, -1, -1):
        label = RelationLabel.from_merged(labels.pop(0))
        node = RstTree.internal(RstTree.leaf(i), node, label)
    return node


def build_forest_corpus(directory: Path) -> ForestFixture:
    """Write ten .rs3 forest files mimicking an under-annotated treebank.

    117 trees over 10 files (11.7 trees per file); 17 single-EDU trees;
    of the remaining 100 trees exactly 13 have 2..4 EDUs (13.0%).
    """
    sizes = [1] * 17 + [2] * 5 + [3] * 4 + [4] * 4 + [5] * 87
    random.Random(7).shuffle(sizes)
    chunks = [sizes[i : i + 12] for i in range(0, 108, 12)] + [sizes[108:]]
    assert sum(len(c) for c in chunks) == 117 and len(chunks) == 10

    counter = 0

    def next_labels(k: int) -> list[str]:
        nonlocal counter
        out = []
        for _ in range(k):
            out.append(RAW_LABEL_CYCLE[counter % len(RAW_LABEL_CYCLE)])
            counter += 1
        return out

    directory.mkdir(parents=True, exist_ok=True)
    for file_no, chunk in enumerate(chunks, start=1):
        records = []
        for comp_no, n_edus in enumerate(chunk):
            tree = (
                RstTree.leaf(0)
                if n_edus == 1
                else _right_chain(n_edus, next_labels(n_edus - 1))
            )
            records.append(
                make_document(f"doc{file_no}_{comp_no}", tree, genre="blogs", lang="ru")
            )
        data = serialize_rs3_forest(records)
        (directory / f"blogs_{file_no}.rs3").write_bytes(data)
    return ForestFixture(
        directory=directory,
        n_files=10,
        n_trees=117,
        n_single_edu=17,
        n_small_trees=13,
        n_kept=100,
    )


@pytest.fixture(scope="session")
def forest_corpus(tmp_path_factory) -> ForestFixture:
    return build_forest_corpus(tmp_path_factory.mktemp("rrt_like"))
