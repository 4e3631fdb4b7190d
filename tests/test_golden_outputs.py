"""Golden digests of the benchmark workloads' stage outputs.

The eleven stage command lines of the three workloads in
``bench/workloads.py`` run in process, at a small scale, on the seeded
inputs of ``helpers.write_workload_inputs``.  The exit code, the stdout and
every output file of each stage are digested and compared with
``golden_outputs.json``, so a change to any output byte fails here.  An
``.npz`` model is digested by its members, as the archive stamps the time.
Four metamorphic relations run the chains again on changed inputs: the
segmenter's under another hash seed, and the treebank's on a Cyrillic twin
of its ``.rs3`` files, on its canonical lines shuffled and on each of them
written twice.

A change that is meant to alter an output records the file again with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says which digest changed and why.
"""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import zipfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rstkit
from rstkit.cli import main
from rstkit.treebank import iter_canonical

from helpers import cyrillic_twin, repeat_corpus, write_workload_inputs

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
SRC = Path(rstkit.__file__).parents[1]
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


def run(work: Path, argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``argv`` run in ``work``."""
    cwd, stdout = os.getcwd(), io.StringIO()
    os.chdir(work)  # stdout names the output files as the command lines do
    try:
        with redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def run_stages(name: str, work: Path) -> list[tuple[str, int, str]]:
    """Run ``name``'s chain in ``work``: each stage's name, exit code and stdout."""
    return [(stage, *run(work, argv)) for stage, argv, _ in WORKLOADS[name]]


def run_workload(name: str, work: Path) -> dict[str, dict[str, object]]:
    """Run ``name``'s chain in ``work`` and digest each stage's outputs."""
    write_workload_inputs(work, SEED)
    return {
        stage: {
            "exit": code,
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            **{out: _digest(work / out) for out in outputs},
        }
        for (stage, code, stdout), (_, _, outputs)
        in zip(run_stages(name, work), WORKLOADS[name])
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stage_outputs_match_the_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_workload(name, tmp_path) == golden[name]


def test_segmenter_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The segmenter chain, each stage a process of its own, gives the same
    exit codes, stdout and output bytes under two hash seeds: its feature
    tables are dicts keyed by token, whose order must not reach a file."""
    runs = []
    for hash_seed in ("0", "1"):
        work = tmp_path / hash_seed
        work.mkdir()
        write_workload_inputs(work, SEED)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        runs.append([])
        for stage, argv, outputs in WORKLOADS["segmenter"]:
            proc = subprocess.run([sys.executable, "-m", "rstkit.cli", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=120)
            runs[-1].append((stage, proc.returncode, proc.stdout, proc.stderr,
                             [_digest(work / out) for out in outputs]))
    assert runs[0] == runs[1]
    assert [run[1] for run in runs[0]] == [0, 0, 0, 0]


def test_treebank_chain_is_blind_to_a_cyrillic_script_twin(tmp_path):
    """Mapping every letter of the segment texts one-to-one onto Cyrillic
    leaves the exit codes and stdout of convert, stats, parse --oracle and
    eval as they were, and the converted records keep their trees, EDUs and
    character offsets, with each token mapped letter by letter.  (The
    segmenter is left out: its hashed word features change under the map.)"""
    runs, records = [], []
    for name in ("original", "twin"):
        work = tmp_path / name
        work.mkdir()
        write_workload_inputs(work, SEED)
        if name == "twin":
            table = cyrillic_twin(work / "rs3")
        runs.append(run_stages("treebank-gum", work))
        records.append(list(iter_canonical(work / "conv.jsonl")))
    assert runs[0] == runs[1]
    assert [code for _, code, _ in runs[0]] == [0, 0, 0, 0]
    original, twin = records
    assert len(original) == len(twin) == 21
    to_twin = str.maketrans(table)
    for a, b in zip(original, twin):
        assert (a.doc_id, a.tree, a.edus, a.char_starts) == (b.doc_id, b.tree, b.edus,
                                                              b.char_starts)
        assert [t.translate(to_twin) for t in a.tokens] == list(b.tokens)
    assert not {ch for doc in twin for t in doc.tokens for ch in t if ch.isascii()
                and ch.isalpha()}


def _stdout(work: Path, argv: list[str]) -> str:
    code, stdout = run(work, argv)
    assert code == 0, argv
    return stdout


@pytest.fixture()
def converted(tmp_path) -> Path:
    """A directory with the ``treebank-gum`` inputs and ``conv.jsonl``."""
    write_workload_inputs(tmp_path, SEED)
    _stdout(tmp_path, ["convert", "rs3", "-o", "conv.jsonl"])
    return tmp_path


def test_treebank_chain_is_blind_to_the_order_of_canonical_lines(converted):
    """Shuffled canonical lines give the same set of parse --oracle lines,
    the same stats --by-genre --sents stdout, and the same eval --by-genre
    stdout, whether the gold or the predicted lines are shuffled."""
    lines = (converted / "conv.jsonl").read_bytes().splitlines(keepends=True)
    shuffled = lines[:]
    random.Random(SEED).shuffle(shuffled)
    assert shuffled != lines
    (converted / "shuf").mkdir()  # same file names, so stats names rows alike
    (converted / "shuf" / "conv.jsonl").write_bytes(b"".join(shuffled))
    for where in ("", "shuf/"):
        _stdout(converted, ["parse", f"{where}conv.jsonl", "-o", f"{where}pred.jsonl",
                         "--oracle"])
    pred = (converted / "pred.jsonl").read_bytes().splitlines()
    assert sorted(pred) == sorted((converted / "shuf" / "pred.jsonl").read_bytes()
                                  .splitlines())
    assert len(set(pred)) == len(lines)
    assert len({_stdout(converted, ["stats", f"{where}conv.jsonl", "--by-genre", "--sents",
                                 "gum.sents"]) for where in ("", "shuf/")}) == 1
    assert len({_stdout(converted, ["eval", gold, pred, "--by-genre"]) for gold, pred in (
        ("conv.jsonl", "pred.jsonl"), ("shuf/conv.jsonl", "pred.jsonl"),
        ("conv.jsonl", "shuf/pred.jsonl"))}) == 1


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def test_writing_every_treebank_document_twice_doubles_the_counts(converted):
    """repeat_corpus with k=2 doubles the document, EDU and relation counts
    of stats and the matched, gold and predicted counts of eval, and leaves
    every other column, every F1 among them, as it was."""
    twice = converted / "twice"
    twice.mkdir()
    _stdout(converted, ["parse", "conv.jsonl", "-o", "pred.jsonl", "--baseline",
                     "elaboration_NS"])
    for name in ("conv.jsonl", "pred.jsonl"):
        repeat_corpus(converted / name, 2, twice / name)
    doubled = {
        "stats": {"docs", "EDUs", "rel pairs", "non-span const"},
        "eval": {"matched", "gold", "predicted"},
    }
    for command, argv in (("stats", ["stats", "conv.jsonl", "--no-spanned", "--csv"]),
                          ("eval", ["eval", "conv.jsonl", "pred.jsonl", "--csv"])):
        once = _csv_rows(_stdout(converted, argv))
        two = _csv_rows(_stdout(twice, argv))
        assert len(once) == len(two) > 0
        assert set(once[0]) >= doubled[command]
        for a, b in zip(once, two):
            for column, value in a.items():
                want = str(2 * int(value)) if column in doubled[command] else value
                assert b[column] == want, (command, a["name"], column)
    assert {row["f1"] for row in once} - {"100.0000"}  # F1 that a mix-up would move


if __name__ == "__main__":
    recorded = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            recorded[name] = run_workload(name, Path(work))
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
