"""The write path of ``convert`` and ``preprocess``: every document goes
through one step and only its encoded line is kept, so the output bytes
are pinned, and memory grows with the output, not with the trees."""

import hashlib
import os
import random
import shutil

from rstkit.cli import main

from helpers import (
    make_document,
    random_edus,
    random_tree,
    serialize_rs3,
    serialize_rs3_forest,
    traced_peak,
)

# sha256 of (stdout, output file) for each command line of ``_grid``, run
# on ``conftest.build_forest_corpus``; recorded before the write path was
# streamed, so any change to the bytes shows here.  The four ``CONV``
# stdout digests were recorded again when canonical input began to report
# ``input files: 1`` in place of its record count.
GOLDEN = {
    "convert": (
        "c5c72dd79ec83e81be6b82038962dd5a2ca48e0f5014d916603354a0c268cb2c",
        "7c5189fb565729c0730f5b4a3be236787f3240d946d6eba8f5d0cf8552f526e1",
    ),
    "convert --split-map": (
        "f3f8a85f733a319176ca6f0157f4fa919f2dddf655c5382e6cb0b067a974612b",
        "7c4b5503a0d76b1b351763a6e20da3bfe778f32b17ef686348f9d3ff46595d3f",
    ),
    "preprocess RS3 --remap default --drop-single-edu": (
        "d59c15ed1f6e59d0ce52d7314616ab0f51019d95b23d64bd10f418bbac1eef42",
        "81d58a86926be56190d53fd9bcee3b9f1228a9f53e252d503eeb11f54a49511b",
    ),
    "preprocess RS3 --remap default --no-drop-single-edu": (
        "a70c608c921625c523ae95bddef06009d2320dd9c1721577c0cf99b2801bbcc7",
        "aa2ced9a2523be29b5bd211718107469a4e7d5d581d13fb214476bbd90da3b71",
    ),
    "preprocess RS3 --remap none --drop-single-edu": (
        "dcd1671eaab288c1eef68ef2bb54b6b1fe03a5be2edcf9e341cbe9051ae952bb",
        "d17c16279c98cf6030d83d597202965a0fa17667fad0141e1e5a77a7daf9e607",
    ),
    "preprocess RS3 --remap none --no-drop-single-edu": (
        "800684ce2c17607916ff2d694599daa16a4fb739e30d27e4976f6fe5930259a4",
        "7c5189fb565729c0730f5b4a3be236787f3240d946d6eba8f5d0cf8552f526e1",
    ),
    "preprocess CONV --remap default --drop-single-edu": (
        "154f4b10756d63319ee68fc03aa1e875c8a4ab0937d99b973702d17e506ebc70",
        "81d58a86926be56190d53fd9bcee3b9f1228a9f53e252d503eeb11f54a49511b",
    ),
    "preprocess CONV --remap default --no-drop-single-edu": (
        "3e9b953f86f4ea6b47e2e43e11afe75f2fa7fddbaa8bb4b84b3d534fe0f5ac0b",
        "aa2ced9a2523be29b5bd211718107469a4e7d5d581d13fb214476bbd90da3b71",
    ),
    "preprocess CONV --remap none --drop-single-edu": (
        "47208763e60d823011936997bdef9faee24e409d2985ec7e07444fee3e4d7f76",
        "d17c16279c98cf6030d83d597202965a0fa17667fad0141e1e5a77a7daf9e607",
    ),
    "preprocess CONV --remap none --no-drop-single-edu": (
        "6ecb2c4de7691906750d9ce96af30054cd9433c10fb4f656471d17bef4df0d7a",
        "7c5189fb565729c0730f5b4a3be236787f3240d946d6eba8f5d0cf8552f526e1",
    ),
}


def _grid():
    """Command lines over the forest fixture: ``RS3`` is its directory,
    ``CONV`` the output of the first line, and ``OUT`` the output file."""
    lines = {
        "convert": ["convert", "RS3", "-o", "OUT"],
        "convert --split-map": ["convert", "RS3", "-o", "OUT", "--split-map", "SPLITS",
                                "--lang", "ru", "--genre", "blogs"],
    }
    for source in ("RS3", "CONV"):
        for remap in ("default", "none"):
            for drop in ("--drop-single-edu", "--no-drop-single-edu"):
                lines[f"preprocess {source} --remap {remap} {drop}"] = [
                    "preprocess", source, "-o", "OUT", "--remap", remap, drop,
                ]
    return lines


def grid_digests(directory, work, run):
    """Run ``_grid`` in ``work`` (output paths are relative, so stdout does
    not depend on where it runs) through ``run(argv) -> (exit code, stdout)``
    and digest what each line writes."""
    (work / "SPLITS").write_text("blogs_2\tdev\nblogs_3\ttest\n", encoding="utf-8")
    digests = {}
    for name, argv in _grid().items():
        out = f"{len(digests)}.jsonl"
        argv = [{"RS3": str(directory), "CONV": "0.jsonl", "OUT": out}.get(a, a)
                for a in argv]
        code, stdout = run(argv)
        assert code == 0, name
        digests[name] = (
            hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            hashlib.sha256((work / out).read_bytes()).hexdigest(),
        )
    return digests


def test_outputs_match_the_recorded_digests(forest_corpus, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    assert grid_digests(forest_corpus.directory, tmp_path, run) == GOLDEN


def test_no_split_forests_names_the_forest_file(forest_corpus, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["preprocess", str(forest_corpus.directory), "-o", str(out_dir / "x"),
                 "--no-split-forests"])
    assert code == 1
    err = capsys.readouterr().err
    first = sorted(forest_corpus.directory.glob("*.rs3"))[0]
    assert f"{first}: holds 12 trees" in err
    assert os.listdir(out_dir) == []


def test_an_earlier_file_fails_before_a_later_one(tmp_path, capsys):
    rng = random.Random(4)
    docs = [make_document(f"f{i}", random_tree(rng, 3)) for i in range(2)]
    directory = tmp_path / "rs3"
    directory.mkdir()
    (directory / "a.rs3").write_bytes(serialize_rs3_forest(docs))
    (directory / "b.rs3").write_bytes(b"<rst><body>")
    out = tmp_path / "x"
    code = main(["preprocess", str(directory), "-o", str(out), "--no-split-forests"])
    assert code == 1
    assert f"{directory / 'a.rs3'}: holds 2 trees" in capsys.readouterr().err
    assert main(["preprocess", str(directory), "-o", str(out)]) == 1
    assert f"{directory / 'b.rs3'}: " in capsys.readouterr().err
    assert not out.exists()


def test_convert_memory_grows_with_the_output_not_the_trees(tmp_path, capsys):
    rng = random.Random(8)
    once, four = tmp_path / "once", tmp_path / "four"
    once.mkdir()
    four.mkdir()
    for i in range(24):
        doc = make_document(f"m{i}", random_tree(rng, 30), random_edus(rng, 30, 20))
        (once / f"m{i}.rs3").write_bytes(serialize_rs3(doc))
    for path in once.iterdir():
        for k in range(4):
            shutil.copyfile(path, four / f"{path.stem}_{k}.rs3")

    def peak(directory):
        out = tmp_path / f"{directory.name}.jsonl"

        def run():
            assert main(["convert", str(directory), "-o", str(out)]) == 0

        return traced_peak(run)[1], out.stat().st_size

    assert main(["convert", str(once), "-o", str(tmp_path / "warm.jsonl")]) == 0
    (peak_once, size_once), (peak_four, size_four) = peak(once), peak(four)
    capsys.readouterr()
    # each extra document keeps its encoded line, the size it has on disk;
    # holding its tree and record as well costs several times more
    assert peak_four - peak_once < 1.5 * (size_four - size_once)
