"""Golden digests of the benchmark workloads' stage outputs.

The eleven stage command lines of the three workloads in
``bench/workloads.py`` run in process, at a small scale, on the seeded
inputs of ``helpers.write_workload_inputs``.  The exit code, the stdout and
every output file of each stage are digested and compared with
``golden_outputs.json``, so a change to any output byte fails here.  An
``.npz`` model is digested by its members, as the archive stamps the time.

A change that is meant to alter an output records the file again with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says which digest changed and why.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
import zipfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rstkit.cli import main

from helpers import write_workload_inputs

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
SEED = 101
SCORES = ["--scores", "scores.jsonl", "--inventory", "labels.txt"]

# (stage, argv, output files) in chain order, as bench/workloads.py runs them
WORKLOADS = {
    "treebank-gum": [
        ("convert", ["convert", "rs3", "-o", "conv.jsonl"], ["conv.jsonl"]),
        ("stats", ["stats", "conv.jsonl", "--by-genre", "--sents", "gum.sents", "--csv"],
         []),
        ("parse", ["parse", "conv.jsonl", "-o", "pred.jsonl", "--oracle"], ["pred.jsonl"]),
        ("eval", ["eval", "conv.jsonl", "pred.jsonl", "--by-genre", "--csv"], []),
    ],
    "segmenter": [
        ("train", ["train-segmenter", "train.jsonl", "-o", "seg.npz", "--epochs", "1",
                   "--seed", "13"], ["seg.npz"]),
        ("segment", ["segment", "seg.npz", "test.jsonl", "-o", "segd.jsonl"],
         ["segd.jsonl"]),
        ("parse", ["parse", "segd.jsonl", "-o", "pred.jsonl", "--baseline",
                   "elaboration_NS"], ["pred.jsonl"]),
        ("eval", ["eval", "test.jsonl", "pred.jsonl", "--end-to-end", "--csv"], []),
    ],
    "beam-scores": [
        ("parse", ["parse", "gold.jsonl", "-o", "greedy.jsonl", *SCORES],
         ["greedy.jsonl"]),
        ("parse_beam", ["parse", "gold.jsonl", "-o", "beam.jsonl", *SCORES, "--beam", "16"],
         ["beam.jsonl"]),
        ("eval", ["eval", "gold.jsonl", "beam.jsonl", "--csv"], []),
    ],
}


def _digest(path: Path) -> str:
    if path.suffix != ".npz":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        for name in sorted(archive.namelist()):
            digest.update(f"{name}\0".encode())
            digest.update(archive.read(name))
    return digest.hexdigest()


def run_workload(name: str, work: Path) -> dict[str, dict[str, object]]:
    """Run ``name``'s chain in ``work`` and digest each stage's outputs."""
    write_workload_inputs(work, SEED)
    cwd = os.getcwd()
    os.chdir(work)  # stdout names the output files as the command lines do
    try:
        digests = {}
        for stage, argv, outputs in WORKLOADS[name]:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main(argv)
            digests[stage] = {
                "exit": code,
                "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                **{out: _digest(work / out) for out in outputs},
            }
        return digests
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stage_outputs_match_the_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_workload(name, tmp_path) == golden[name]


if __name__ == "__main__":
    recorded = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            recorded[name] = run_workload(name, Path(work))
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
