"""The three benchmark workloads: inputs, CLI chain and output checks.

Each workload is one closed loop with a single client: the stages of its
chain run one after another, each as ``rstkit <stage> ...`` reading the
previous stage's files.  A workload function writes the seeded inputs into
a work directory and returns the chain plus ``check``, which maps each
output check to None (passed) or a failure message.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

BEAM_WIDTH = 16
BASELINE_LABEL = "elaboration_NS"

# Input sizes per scale.  "full" follows GUM 9.1 (213 documents, 26,319
# EDUs); "smoke" only keeps the harness honest.
SIZES = {
    "full": {
        "gum_docs": 213, "gum_edus": 26319,
        "train_docs": 24, "train_edus": 2400, "test_docs": 48, "test_edus": 4800,
        "beam_docs": 40, "beam_edus": 4960, "epochs": 3,
    },
    "smoke": {
        "gum_docs": 12, "gum_edus": 360,
        "train_docs": 4, "train_edus": 120, "test_docs": 4, "test_edus": 120,
        "beam_docs": 4, "beam_edus": 120, "epochs": 1,
    },
}

Checks = dict[str, "str | None"]


@dataclass
class Stage:
    key: str  # metric stem: "parse_beam" is reported as parse_beam_s
    argv: list[str]
    outputs: tuple[str, ...] = ()  # files whose bytes must repeat across runs


@dataclass
class Workload:
    name: str
    focus: str  # the stage whose time the workload exists to measure
    quality: str  # the eval score that guards the focus stage's output
    stages: list[Stage]
    size: dict  # docs, EDUs, tokens, ... of the generated input
    check: Callable[[Path, dict[str, str]], Checks]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def eval_scores(stdout: str) -> dict[str, float]:
    """F1 in percent from the 'all' rows of ``rstkit eval --csv``,
    recomputed from the counts so that no digits are lost."""
    out = {}
    for row in csv.DictReader(io.StringIO(stdout)):
        if row["name"] != "all":
            continue
        matched, gold, pred = int(row["matched"]), int(row["gold"]), int(row["predicted"])
        f1 = 200.0 * matched / (gold + pred) if gold + pred else 0.0
        out["seg_f1" if row["metric"] == "Segm." else f"{row['metric'].lower()}_f1"] = f1
    return out


def _one_leaf_per_edu(path: Path, ids: set[str]) -> str | None:
    records = read_jsonl(path)
    if {r["id"] for r in records} != ids or len(records) != len(ids):
        return f"{path.name}: document ids differ from the input"
    for rec in records:
        if rec["tree"] is None or rec["tree"].count("#") != len(rec["edus"]):
            return f"{path.name}: {rec['id']} does not have one leaf per EDU"
    return None


# ---------------------------------------------------------------------------
# treebank-gum
# ---------------------------------------------------------------------------


def treebank_gum(work: Path, seed: int, scale: str) -> Workload:
    sizes = SIZES[scale]
    docs = gen.make_docs(seed, "gum", sizes["gum_docs"], sizes["gum_edus"])
    rs3_dir = work / "rs3"
    rs3_dir.mkdir()
    for doc in docs:
        (rs3_dir / f"{doc.doc_id}.rs3").write_bytes(gen.rs3_bytes(doc))
    gen.write_sents(docs, work / "gum.sents")
    expected = {
        d.doc_id: (d.genre, [t for t, _ in d.tokens()], d.edus(), gen.binarized(d.tree))
        for d in docs
    }
    counts = {
        "docs": len(docs),
        "EDUs": sum(d.n_edus for d in docs),
        "rel pairs": sum(gen.internal_count(d.tree) for d in docs),
    }

    def check(work: Path, stdout: dict[str, str]) -> Checks:
        got = {
            r["id"]: (r["genre"], [t for t, _ in r["tokens"]],
                      [tuple(e) for e in r["edus"]], r["tree"])
            for r in read_jsonl(work / "conv.jsonl")
        }
        rows = {r["name"]: r for r in csv.DictReader(io.StringIO(stdout["stats"]))}
        seen = {col: int(rows.get("conv", {}).get(col, -1)) for col in counts}
        full = eval_scores(stdout["eval"]).get("full_f1")
        return {
            "convert reproduces the generated trees":
                None if got == expected else "convert output differs from the generator",
            "stats counts match the generator":
                None if seen == counts else f"stats {seen} != generated {counts}",
            "parse: one leaf per EDU": _one_leaf_per_edu(work / "pred.jsonl", set(expected)),
            "oracle eval scores Full = 100":
                None if full == 100.0 else f"oracle Full F1 is {full}",
        }

    return Workload(
        name="treebank-gum",
        focus="convert",
        quality="full_f1",
        stages=[
            Stage("convert", ["convert", "rs3", "-o", "conv.jsonl"], ("conv.jsonl",)),
            Stage("stats", ["stats", "conv.jsonl", "--by-genre", "--sents", "gum.sents",
                            "--csv"]),
            Stage("parse", ["parse", "conv.jsonl", "-o", "pred.jsonl", "--oracle"],
                  ("pred.jsonl",)),
            Stage("eval", ["eval", "conv.jsonl", "pred.jsonl", "--by-genre", "--csv"]),
        ],
        size=gen.shape(docs),
        check=check,
    )


# ---------------------------------------------------------------------------
# segmenter
# ---------------------------------------------------------------------------


def segmenter(work: Path, seed: int, scale: str) -> Workload:
    sizes = SIZES[scale]
    train = gen.make_docs(seed, "train", sizes["train_docs"], sizes["train_edus"])
    test = gen.make_docs(seed, "test", sizes["test_docs"], sizes["test_edus"])
    gen.write_canonical(train, work / "train.jsonl", "train")
    gen.write_canonical(test, work / "test.jsonl", "test")
    tokens = {d.doc_id: [t for t, _ in d.tokens()] for d in test}

    def partitions(rec: dict) -> bool:
        edus = rec["edus"]
        return (
            [t for t, _ in rec["tokens"]] == tokens.get(rec["id"])
            and edus[0][0] == 0
            and all(prev[1] + 1 == cur[0] for prev, cur in zip(edus, edus[1:]))
            and edus[-1][1] == len(rec["tokens"]) - 1
        )

    def check(work: Path, stdout: dict[str, str]) -> Checks:
        segmented = read_jsonl(work / "segd.jsonl")
        bad = [r["id"] for r in segmented if not partitions(r)]
        if {r["id"] for r in segmented} != set(tokens):
            bad.append("document ids differ from the input")
        scores = eval_scores(stdout["eval"])
        return {
            "segment output partitions the tokens":
                None if not bad else f"segment output is wrong for {bad[:3]}",
            "parse: one leaf per EDU": _one_leaf_per_edu(work / "pred.jsonl", set(tokens)),
            "eval reports Segm. and Full":
                None if {"seg_f1", "full_f1"} <= scores.keys() else "eval printed no scores",
        }

    size = {f"train_{k}": v for k, v in gen.shape(train).items()}
    size.update({f"test_{k}": v for k, v in gen.shape(test).items()})
    size["epochs"] = sizes["epochs"]
    return Workload(
        name="segmenter",
        focus="train",
        quality="seg_f1",
        stages=[
            Stage("train", ["train-segmenter", "train.jsonl", "-o", "seg.npz",
                                      "--epochs", str(sizes["epochs"]), "--seed", "13"],
                  ),
            Stage("segment", ["segment", "seg.npz", "test.jsonl", "-o", "segd.jsonl"],
                  ("segd.jsonl",)),
            Stage("parse", ["parse", "segd.jsonl", "-o", "pred.jsonl", "--baseline",
                            BASELINE_LABEL], ("pred.jsonl",)),
            Stage("eval", ["eval", "test.jsonl", "pred.jsonl", "--end-to-end", "--csv"]),
        ],
        size=size,
        check=check,
    )


# ---------------------------------------------------------------------------
# beam-scores
# ---------------------------------------------------------------------------


def beam_scores(work: Path, seed: int, scale: str) -> Workload:
    sizes = SIZES[scale]
    docs = gen.make_docs(seed, "beam", sizes["beam_docs"], sizes["beam_edus"])
    gen.write_canonical(docs, work / "gold.jsonl", "test")
    labels = gen.inventory(docs)
    (work / "labels.txt").write_text("".join(f"{x}\n" for x in labels), encoding="utf-8")
    entries = gen.write_score_dump(seed, docs, labels, work / "scores.jsonl", BEAM_WIDTH)
    ids = {d.doc_id for d in docs}

    def beam_not_worse(work: Path) -> str | None:
        from rstkit.decoder import ScoreTable, tree_score
        from rstkit.treebank import tree_from_string

        table = ScoreTable.load(work / "scores.jsonl")
        greedy = {r["id"]: r["tree"] for r in read_jsonl(work / "greedy.jsonl")}
        for rec in read_jsonl(work / "beam.jsonl"):
            provider = table.provider(rec["id"])
            beam = tree_score(tree_from_string(rec["tree"]), provider, labels)
            base = tree_score(tree_from_string(greedy[rec["id"]]), provider, labels)
            if beam < base - 1e-9 * max(1.0, abs(base)):
                return f"{rec['id']}: beam tree scores {beam} < greedy {base}"
        return None

    def check(work: Path, stdout: dict[str, str]) -> Checks:
        results = {
            "parse: one leaf per EDU": _one_leaf_per_edu(work / "greedy.jsonl", ids),
            "parse --beam: one leaf per EDU": _one_leaf_per_edu(work / "beam.jsonl", ids),
            "eval reports Full":
                None if "full_f1" in eval_scores(stdout["eval"]) else "eval printed no scores",
        }
        results["beam tree scores at least the greedy tree"] = (
            beam_not_worse(work) if not any(results.values()) else "trees are malformed"
        )
        return results

    common = ["--scores", "scores.jsonl", "--inventory", "labels.txt"]
    size = gen.shape(docs)
    size.update(labels=len(labels), split_entries=entries["split"],
                label_entries=entries["label"],
                dump_mb=round((work / "scores.jsonl").stat().st_size / 2**20, 1))
    return Workload(
        name="beam-scores",
        focus="parse_beam",
        quality="full_f1",
        stages=[
            Stage("parse", ["parse", "gold.jsonl", "-o", "greedy.jsonl", *common],
                  ("greedy.jsonl",)),
            Stage("parse_beam", ["parse", "gold.jsonl", "-o", "beam.jsonl", *common,
                                 "--beam", str(BEAM_WIDTH)], ("beam.jsonl",)),
            Stage("eval", ["eval", "gold.jsonl", "beam.jsonl", "--csv"]),
        ],
        size=size,
        check=check,
    )


WORKLOADS = {
    "treebank-gum": treebank_gum,
    "segmenter": segmenter,
    "beam-scores": beam_scores,
}
