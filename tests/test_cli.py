import csv
import errno
import gc
import io
import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import rstkit
from rstkit import cli as cli_mod
from rstkit import crf as crf_mod
from rstkit import dwa as dwa_mod
from rstkit import treebank as tb_mod
from rstkit.cli import main
from rstkit.core import DocumentRecord, EduSpan, RstTree
from rstkit.decoder import DecodeConfig, OracleProvider, ScoreProvider, ScoreTable, decode
from rstkit.metrics import corpus_stats, genre_breakdown, stats_csv
from rstkit.treebank import iter_canonical, write_record

from helpers import (
    TEST_LABELS,
    label_histogram,
    make_document,
    oracle_counts,
    perturb_tree,
    profiled_calls,
    random_edus,
    random_partition,
    random_tree,
    repeat_corpus,
    serialize_rs3,
    serialize_rs3_forest,
    traced_peak,
    write_corpus,
)


@pytest.fixture()
def rs3_dir(tmp_path):
    rng = random.Random(1)
    directory = tmp_path / "rs3"
    directory.mkdir()
    for i in range(3):
        n = rng.randint(2, 6)
        doc = make_document(
            f"demo_news_{i}", random_tree(rng, n), random_edus(rng, n), genre="news"
        )
        (directory / f"demo_news_{i}.rs3").write_bytes(serialize_rs3(doc))
    return directory


@pytest.fixture()
def gold_file(tmp_path):
    rng = random.Random(2)
    docs = []
    for i in range(4):
        n = rng.randint(2, 7)
        docs.append(
            make_document(
                f"doc{i}",
                random_tree(rng, n),
                random_edus(rng, n),
                genre="news" if i % 2 else "blogs",
                sents=[0],
            )
        )
    path = tmp_path / "gold.jsonl"
    write_corpus(docs, path)
    return path


def _with_repeated_line(path, tmp_path, index=0):
    """Copy of a canonical file with line ``index`` written twice."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    copy = tmp_path / f"dup_{path.name}"
    copy.write_text("".join(lines + [lines[index]]), encoding="utf-8")
    return copy


def _succeeds(argv):
    assert main(argv) == 0


class TestConvert:
    def test_rs3_directory_to_canonical(self, rs3_dir, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["convert", str(rs3_dir), "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trees extracted" in printed
        docs = list(iter_canonical(out))
        assert len(docs) == 3
        assert {d.genre for d in docs} == {"news"}

    def test_a_file_is_read_as_rs3_whatever_its_suffix(self, rs3_dir, tmp_path):
        # preprocess reads a file without the .rs3 suffix as canonical input
        xml = tmp_path / "demo_news_0.xml"
        xml.write_bytes((rs3_dir / "demo_news_0.rs3").read_bytes())
        out = tmp_path / "out.jsonl"
        assert main(["convert", str(xml), "-o", str(out)]) == 0
        assert [d.doc_id for d in iter_canonical(out)] == ["demo_news_0"]

    def test_outputs_are_byte_identical_across_runs(self, rs3_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["convert", str(rs3_dir), "-o", str(a)]) == 0
        assert main(["convert", str(rs3_dir), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_a_user_error(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope"), "-o", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_split_map_value_is_a_user_error(self, rs3_dir, tmp_path, capsys):
        split_map = tmp_path / "splits.tsv"
        split_map.write_text("# id\tsplit\ndemo_news_0\tdev\ndemo_news_1\tbogus\n")
        code = main(["convert", str(rs3_dir), "-o", str(tmp_path / "x"),
                     "--split-map", str(split_map)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "'bogus'" in err

    def test_repeated_split_map_id_is_a_user_error(self, rs3_dir, tmp_path, capsys):
        split_map = tmp_path / "splits.tsv"
        split_map.write_text("demo_news_0\tdev\ndemo_news_1\ttest\ndemo_news_0 train\n")
        out = tmp_path / "x"
        code = main(["convert", str(rs3_dir), "-o", str(out), "--split-map", str(split_map)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "'demo_news_0'" in err
        assert not out.exists()

    def test_unknown_split_map_id_is_a_user_error(self, rs3_dir, tmp_path, capsys):
        # a typo would leave the file in the default split, train
        split_map = tmp_path / "splits.tsv"
        split_map.write_text("demo_news_0\ttest\ndemo_nwes_1\ttest\n")
        out = tmp_path / "x"
        code = main(["convert", str(rs3_dir), "-o", str(out), "--split-map", str(split_map)])
        assert code == 1
        assert f"{split_map}: unknown file ids ['demo_nwes_1']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("attrs, has", [
        (' relname="span"', "relname 'span'"),
        ("", "no relname"),
    ])
    def test_span_child_of_a_multinuc_group_names_both_nodes(self, tmp_path, capsys,
                                                             attrs, has):
        # joint, span, joint: the middle EDU is neither a nucleus nor a satellite
        rs3 = tmp_path / "demo_news_9.rs3"
        rs3.write_text(
            '<rst><header><relations><rel name="joint" type="multinuc"/></relations>'
            '</header><body>'
            '<segment id="1" parent="4" relname="joint">a.</segment>'
            f'<segment id="2" parent="4"{attrs}>b.</segment>'
            '<segment id="3" parent="4" relname="joint">c.</segment>'
            '<group id="4" type="multinuc"/></body></rst>', encoding="utf-8")
        out = tmp_path / "x.jsonl"
        assert main(["convert", str(rs3), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"rstkit: error: {rs3}: multinuc group 4: child 2 has {has}\n"
        assert captured.out == "" and not out.exists()


class TestPreprocess:
    def test_forest_pipeline_via_cli(self, forest_corpus, tmp_path, capsys):
        out = tmp_path / "rrt.jsonl"
        code = main(
            [
                "preprocess",
                str(forest_corpus.directory),
                "-o",
                str(out),
                "--remap",
                "default",
                "--lang",
                "ru",
                "--genre",
                "blogs",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert f"trees extracted:    {forest_corpus.n_trees}" in printed
        assert f"single-EDU dropped: {forest_corpus.n_single_edu}" in printed
        assert len(list(iter_canonical(out))) == forest_corpus.n_kept

    def test_canonical_input_remap_only(self, gold_file, tmp_path, capsys):
        out = tmp_path / "remapped.jsonl"
        assert main(["preprocess", str(gold_file), "-o", str(out)]) == 0
        assert len(list(iter_canonical(out))) == 4
        assert "input files:        1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, named", [
        (["--split", "test", "--lang", "ru", "--genre", "zzz"], "--genre, --lang, --split"),
        (["--genre-field", "0"], "--genre-field"),
        (["--split-map", "SPLITS"], "--split-map"),
        (["--split-forests"], "--split-forests"),
        (["--no-split-forests", "--lang", "en"], "--lang, --split-forests"),
    ])
    def test_canonical_input_rejects_rs3_flags(self, gold_file, tmp_path, capsys,
                                               flags, named):
        splits = tmp_path / "splits.tsv"
        splits.write_text("no_such_id\ttest\n", encoding="utf-8")
        flags = [str(splits) if flag == "SPLITS" else flag for flag in flags]
        out = tmp_path / "out.jsonl"
        assert main(["preprocess", str(gold_file), "-o", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"rstkit: error: flags {named} apply only to .rs3 input\n"
        assert captured.out == "" and not out.exists()


class TestDumpRemapTable:
    def test_prints_rules(self, capsys):
        assert main(["dump-remap-table"]) == 0
        out = capsys.readouterr().out
        assert "antithesis\tattribution" in out
        assert "background_NS\telaboration_SN" in out

    def test_output_file_holds_the_printed_rules(self, tmp_path, capsys):
        assert main(["dump-remap-table"]) == 0
        printed = capsys.readouterr().out
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "rules.tsv"
        out.write_text("earlier output\n", encoding="utf-8")
        assert main(["dump-remap-table", "-o", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")
        assert os.listdir(out_dir) == ["rules.tsv"]


class TestStats:
    def test_table_and_csv(self, gold_file, capsys):
        assert main(["stats", str(gold_file)]) == 0
        table = capsys.readouterr().out
        assert "gold" in table and "EDUs/tree" in table
        assert main(["stats", str(gold_file), "--csv", "--by-genre"]) == 0
        text = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "name"
        assert {r[0] for r in rows[1:]} == {"gold", "gold/blogs", "gold/news"}

    def test_no_spanned_skips_sentences(self, tmp_path, capsys):
        doc = make_document("d", random_tree(random.Random(0), 3))
        path = tmp_path / "nosents.jsonl"
        write_corpus([doc], path)
        assert main(["stats", str(path)]) == 1  # boundaries required
        assert main(["stats", str(path), "--no-spanned"]) == 0

    def test_repeated_sentence_file_id_is_a_user_error(self, gold_file, tmp_path, capsys):
        sents = tmp_path / "gold.sents"
        sents.write_text("doc0\t0\ndoc1\t0\ndoc0\t0\n", encoding="utf-8")
        assert main(["stats", str(gold_file), "--sents", str(sents)]) == 1
        err = capsys.readouterr().err
        assert f"{sents}: line 3" in err and "'doc0'" in err

    @pytest.mark.parametrize("by_genre", [[], ["--by-genre"]])
    @pytest.mark.parametrize("bounds, problem", [
        ("0 50 30 99999", "line 1: sentence boundaries must strictly increase"),
        ("5 9", "line 1: sentence boundaries must start at 0"),
        ("0 99999", "doc0: bad sentence boundaries"),  # the bound needs the document
    ])
    def test_sentence_file_boundaries_are_checked_per_document(
        self, gold_file, tmp_path, by_genre, bounds, problem, capsys
    ):
        sents = tmp_path / "gold.sents"
        sents.write_text(
            "".join(f"doc{i}\t{bounds}\n" for i in range(4)), encoding="utf-8"
        )
        args = ["stats", str(gold_file), "--sents", str(sents), *by_genre]
        assert main(args) == 1
        captured = capsys.readouterr()
        where = f"{sents}: " if problem.startswith("line") else ""
        assert f"rstkit: error: {where}{problem}\n" == captured.err
        assert "spanned" not in captured.out

    @pytest.mark.parametrize("spanned", [[], ["--no-spanned"]])
    def test_a_non_increasing_sentence_line_is_rejected_by_line(
        self, gold_file, tmp_path, spanned, capsys
    ):
        sents = tmp_path / "gold.sents"
        sents.write_text("doc0\t0 1\ndoc1\t0 3 1\n", encoding="utf-8")
        assert main(["stats", str(gold_file), "--sents", str(sents), *spanned]) == 1
        assert capsys.readouterr().err == (
            f"rstkit: error: {sents}: line 2: sentence boundaries must strictly increase\n"
        )

    @pytest.mark.parametrize("by_genre", [[], ["--by-genre"]])
    def test_repeated_id_is_a_user_error(self, gold_file, tmp_path, by_genre, capsys):
        dup = _with_repeated_line(gold_file, tmp_path)
        assert main(["stats", str(dup), *by_genre]) == 1
        assert "doc0" in capsys.readouterr().err

    @pytest.mark.parametrize("by_genre", [[], ["--by-genre"]])
    def test_sentence_file_ids_outside_the_corpus_are_a_user_error(
        self, gold_file, tmp_path, by_genre, capsys
    ):
        sents = tmp_path / "gold.sents"
        lines = [f"doc{i}\t0\n" for i in range(4)] + ["zeta\t0\n", "alpha\t0\n"]
        sents.write_text("".join(lines), encoding="utf-8")
        assert main(["stats", str(gold_file), "--sents", str(sents), *by_genre]) == 1
        captured = capsys.readouterr()
        assert "unknown document ids ['alpha', 'zeta']" in captured.err
        assert captured.out == ""

    def test_non_integer_edu_bounds_and_sentences_are_a_user_error(
        self, tmp_path, capsys
    ):
        record = {"id": "d", "genre": "g", "lang": "en",
                  "tokens": [["a", 0], ["b", 2]], "edus": [[0, 0.7], [1, 1.2]],
                  "tree": None, "sents": [0.4], "split": "train"}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", str(path), "--no-spanned"]) == 1
        assert "EDU bounds must be integers, got 0.7" in capsys.readouterr().err
        record.update(edus=[[0, 0], [1, 1]])
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", str(path), "--no-spanned"]) == 1
        assert "sentence boundaries must be integers, got 0.4" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spanned", [True, False], ids=["sents", "no-spanned"])
    def test_by_genre_rows_equal_corpus_stats_of_each_genre(
        self, tmp_path, seed, spanned, capsys
    ):
        rng = random.Random(seed)
        genres = ("news", "blogs", "fiction", "новости")
        docs, sentences = [], {}
        for i in range(rng.randint(6, 16)):
            n = rng.randint(1, 9)
            edus = random_edus(rng, n)
            n_tokens = edus[-1].last_token + 1
            cuts = rng.sample(range(1, n_tokens), rng.randint(0, n_tokens - 1))
            sentences[f"g{i}"] = (0, *sorted(cuts))
            docs.append(make_document(f"g{i}", random_tree(rng, n), edus,
                                      genre=rng.choice(genres), sents=[0]))
        path = tmp_path / "multi.jsonl"
        write_corpus(docs, path)
        if spanned:
            sents = tmp_path / "multi.sents"
            sents.write_text("".join(f"{doc_id}\t{' '.join(map(str, bounds))}\n"
                                     for doc_id, bounds in sentences.items()),
                             encoding="utf-8")
            flags = ["--sents", str(sents)]
        else:
            sentences, flags = None, ["--no-spanned"]
        whole = corpus_stats(docs, sentences, spanned)
        per_genre = {
            genre: corpus_stats([d for d in docs if d.genre == genre], sentences, spanned)
            for genre in sorted({d.genre for d in docs})
        }
        assert genre_breakdown(iter(docs), sentences, spanned) == (whole, per_genre)
        assert main(["stats", str(path), "--by-genre", "--csv", *flags]) == 0
        expected = {"multi": whole, **{f"multi/{g}": row for g, row in per_genre.items()}}
        assert capsys.readouterr().out == stats_csv(expected)

    def test_by_genre_memory_does_not_grow_with_the_corpus(self, tmp_path, capsys):
        rng = random.Random(8)
        docs = [
            make_document(f"m{i}", random_tree(rng, 30), random_edus(rng, 30, 20),
                          genre=("news", "blogs", "fiction")[i % 3])
            for i in range(24)
        ]
        once, four = tmp_path / "once.jsonl", tmp_path / "four.jsonl"
        write_corpus(docs, once)
        write_corpus([doc.replace(doc_id=f"{doc.doc_id}_{k}")
                      for k in range(4) for doc in docs], four)

        def peak(path):
            argv = ["stats", str(path), "--by-genre", "--no-spanned"]
            return traced_peak(lambda: _succeeds(argv))[1]

        assert main(["stats", str(once), "--by-genre", "--no-spanned"]) == 0  # warm caches
        grown = peak(four) - peak(once)
        capsys.readouterr()
        # Each extra document may keep its id and its token count, ~200
        # bytes; holding it would cost ~40 KB (~300 tokens).
        assert grown < 3 * len(docs) * 1024

    def test_unbalanced_tree_error_is_one_short_line(self, tmp_path, capsys):
        doc = make_document("long", random_tree(random.Random(6), 1000))
        obj = tb_mod.record_to_json(doc)
        obj["tree"] = obj["tree"][:-1]  # drop the last ")"
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        assert main(["stats", str(path), "--no-spanned"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300
        assert f"{path}: line 1: unbalanced tree string" in err

    @pytest.mark.parametrize("tree, message", [
        ("(joint_NN #0 #" + "7" * 1998 + "x)", "bad leaf token (length 2000): '#777"),
        ("(" + "x" * 2000 + " #0 #1)", "not a relation_NUC label (length 2000): 'xxx"),
    ], ids=["leaf", "label"])
    def test_long_bad_token_error_is_one_short_line(self, tmp_path, capsys, tree,
                                                    message):
        obj = tb_mod.record_to_json(make_document("long", random_tree(random.Random(6), 2)))
        obj["tree"] = tree
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        assert main(["stats", str(path), "--no-spanned"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300
        assert err.startswith(f"rstkit: error: {path}: line 1: {message}")


class TestSegmenterCommands:
    def test_train_then_segment(self, tmp_path, capsys):
        # A corpus whose EDU boundaries always follow commas is learnable
        # by the comma features alone.
        from rstkit.core import DocumentRecord

        docs = []
        for i in range(6):
            words = []
            for j in range(4):
                words.extend([f"w{j}a", f"w{j}b", ","])
            edus = tuple(EduSpan(3 * j, 3 * j + 2) for j in range(4))
            docs.append(
                DocumentRecord(
                    doc_id=f"t{i}",
                    genre="g",
                    lang="en",
                    tokens=tuple(words),
                    char_starts=tuple(4 * k for k in range(len(words))),
                    edus=edus,
                )
            )
        train_path = tmp_path / "train.jsonl"
        write_corpus(docs, train_path)
        model_path = tmp_path / "model.npz"
        assert (
            main(
                [
                    "train-segmenter",
                    str(train_path),
                    "-o",
                    str(model_path),
                    "--epochs",
                    "40",
                    "--buckets",
                    "64",
                ]
            )
            == 0
        )
        assert model_path.exists()
        out_path = tmp_path / "segmented.jsonl"
        assert main(["segment", str(model_path), str(train_path), "-o", str(out_path)]) == 0
        gold = {doc.doc_id: doc for doc in iter_canonical(train_path)}
        for doc in iter_canonical(out_path):
            assert doc.tree is None
            assert doc.edus == gold[doc.doc_id].edus  # perfectly learnable

    @pytest.mark.parametrize("flag", [["--epochs", "0"], ["--epochs", "-1"],
                                      ["--buckets", "0"], ["--buckets", "-3"]])
    def test_non_positive_settings_are_user_errors(self, gold_file, tmp_path, flag,
                                                   capsys):
        out = tmp_path / "model.npz"
        assert main(["train-segmenter", str(gold_file), "-o", str(out), *flag]) == 1
        assert f"{flag[0][2:]} must be >= 1, got {flag[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, problem", [
        (["--lr", "nan"], "learning rate must be finite and > 0, got nan"),
        (["--lr", "-1"], "learning rate must be finite and > 0, got -1.0"),
        (["--lr", "0"], "learning rate must be finite and > 0, got 0.0"),
        (["--l2", "-1"], "l2 must be finite and >= 0, got -1.0"),
        (["--l2", "inf"], "l2 must be finite and >= 0, got inf"),
    ])
    def test_bad_optimizer_settings_are_user_errors(self, gold_file, tmp_path, flag,
                                                    problem, capsys):
        out = tmp_path / "model.npz"
        assert main(["train-segmenter", str(gold_file), "-o", str(out), *flag]) == 1
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_model_name_without_suffix_gains_npz(self, gold_file, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["train-segmenter", str(gold_file), "-o", str(out_dir / "model"),
                     "--epochs", "1", "--buckets", "8"]) == 0
        assert os.listdir(out_dir) == ["model.npz"]
        _, extractor = crf_mod.load_model(out_dir / "model.npz")
        assert extractor.n_buckets == 8

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_save_leaves_the_model_path_as_it_was(
        self, gold_file, tmp_path, monkeypatch, capsys, existing
    ):
        savez = np.savez

        def failing(file, **arrays):
            first = next(iter(arrays))
            savez(file, **{first: arrays[first]})  # part of the archive is written
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        model = out_dir / "model.npz"
        if existing:
            assert main(["train-segmenter", str(gold_file), "-o", str(model),
                         "--epochs", "1", "--buckets", "8"]) == 0
            before = model.read_bytes()
        monkeypatch.setattr(np, "savez", failing)
        assert main(["train-segmenter", str(gold_file), "-o", str(model),
                     "--epochs", "1", "--buckets", "16"]) == 1
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        if existing:
            assert os.listdir(out_dir) == ["model.npz"]
            assert model.read_bytes() == before
        else:
            assert os.listdir(out_dir) == []

    def test_segment_rejects_repeated_input_id(self, gold_file, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert main(["train-segmenter", str(gold_file), "-o", str(model),
                     "--epochs", "1", "--buckets", "8"]) == 0
        dup = _with_repeated_line(gold_file, tmp_path)
        assert main(["segment", str(model), str(dup), "-o", str(tmp_path / "s")]) == 1
        assert "duplicate document id doc0" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["labels", "no_emission", "not_npz", "buckets"])
    def test_unusable_model_is_a_user_error(self, gold_file, tmp_path, defect, capsys):
        model = tmp_path / "model.npz"
        extractor = crf_mod.HashedWindowFeatures(8)
        if defect == "not_npz":
            model.write_text("not a model archive\n", encoding="utf-8")
        elif defect == "labels":
            crf_mod.save_model(
                crf_mod.CrfModel.create(extractor.dim, labels=("X", "Y")), model, extractor
            )
        elif defect == "buckets":
            wider = crf_mod.HashedWindowFeatures(16)
            crf_mod.save_model(crf_mod.CrfModel.create(wider.dim), model, extractor)
        else:
            crf_mod.save_model(crf_mod.CrfModel.create(extractor.dim), model, extractor)
            with np.load(model) as data:
                kept = {k: data[k] for k in data.files if k != "emission"}
            np.savez(model, **kept)
        out = tmp_path / "segd.jsonl"
        assert main(["segment", str(model), str(gold_file), "-o", str(out)]) == 1
        assert str(model) in capsys.readouterr().err
        assert not out.exists()


class TestParseAndEval:
    def test_oracle_round_trip_scores_one_hundred(self, gold_file, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(pred), "--oracle"]) == 0
        capsys.readouterr()
        assert main(["eval", str(gold_file), str(pred)]) == 0
        table = capsys.readouterr().out
        line = [l for l in table.splitlines() if l.startswith("all")][0]
        assert line.count("100.0") == 4

    def test_eval_gold_against_itself(self, gold_file, capsys):
        assert main(["eval", str(gold_file), str(gold_file)]) == 0
        assert "100.0" in capsys.readouterr().out

    def test_baseline_parse_never_beats_oracle(self, gold_file, tmp_path, capsys):
        pred = tmp_path / "baseline.jsonl"
        code = main(
            [
                "parse",
                str(gold_file),
                "-o",
                str(pred),
                "--baseline",
                "elaboration_NS",
                "--beam",
                "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["eval", str(gold_file), str(pred), "--csv"]) == 0
        text = capsys.readouterr().out
        full_row = [r for r in csv.reader(io.StringIO(text)) if r[1:2] == ["Full"]][0]
        assert float(full_row[4]) <= 100.0

    def test_eval_by_genre(self, gold_file, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        main(["parse", str(gold_file), "-o", str(pred), "--oracle"])
        capsys.readouterr()
        assert main(["eval", str(gold_file), str(pred), "--by-genre"]) == 0
        out = capsys.readouterr().out
        assert "news" in out and "blogs" in out

    def test_eval_metric_selection_and_genre_filter(self, gold_file, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        main(["parse", str(gold_file), "-o", str(pred), "--oracle"])
        capsys.readouterr()
        assert main(
            ["eval", str(gold_file), str(pred), "--metrics", "S,Full",
             "--genre", "news"]
        ) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert header == ["name", "Segm.", "S", "Full"]
        assert main(["eval", str(gold_file), str(pred), "--metrics", "S,Q"]) == 1
        assert main(["eval", str(gold_file), str(pred), "--genre", "nope"]) == 1

    def test_parse_requires_exactly_one_mode(self, gold_file, tmp_path, capsys):
        out = tmp_path / "x"
        modes = {"--oracle": [], "--baseline": ["joint_NN"], "--scores": [str(gold_file)]}
        cases = [([], "one of the arguments --oracle --baseline --scores is required")]
        for first, second in itertools.combinations(modes, 2):
            cases.append(([first, *modes[first], second, *modes[second]],
                          f"argument {second}: not allowed with argument {first}"))
        for flags, message in cases:
            assert main(["parse", str(gold_file), "-o", str(out), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("usage: rstkit parse ")
            assert captured.err.endswith(f"rstkit parse: error: {message}\n")
            assert captured.out == "" and not out.exists()

    def test_parse_rejects_repeated_input_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=2)
        assert main(["parse", str(dup), "-o", str(tmp_path / "x"), "--oracle"]) == 1
        assert "duplicate document id doc2" in capsys.readouterr().err

    def test_malformed_inventory_is_rejected_before_output(
        self, gold_file, tmp_path, capsys
    ):
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("\n".join([*TEST_LABELS, "foo"]) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        code = main(["parse", str(gold_file), "-o", str(pred), "--oracle",
                     "--inventory", str(inventory)])
        assert code == 1
        assert "'foo'" in capsys.readouterr().err
        assert not pred.exists()

    def test_repeated_inventory_label_is_rejected_before_output(
        self, gold_file, tmp_path, capsys
    ):
        inventory = tmp_path / "inventory.txt"
        inventory.write_text("\n".join([*TEST_LABELS, "elaboration_NS"]) + "\n",
                             encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(pred), "--oracle",
                     "--inventory", str(inventory)]) == 1
        assert "elaboration_NS" in capsys.readouterr().err
        assert not pred.exists()

    def test_eval_rejects_repeated_gold_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=1)
        assert main(["eval", str(dup), str(gold_file)]) == 1
        assert "duplicate document id doc1" in capsys.readouterr().err

    def test_eval_rejects_repeated_prediction_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=3)
        assert main(["eval", str(gold_file), str(dup)]) == 1
        assert "duplicate document id doc3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["pred", "gold"])
    def test_eval_names_the_file_of_a_malformed_line(self, gold_file, tmp_path, bad,
                                                     capsys):
        lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("".join(lines[:2] + ['{"id": 1}\n'] + lines[3:]),
                          encoding="utf-8")
        gold, pred = (gold_file, broken) if bad == "pred" else (broken, gold_file)
        assert main(["eval", str(gold), str(pred)]) == 1
        err = capsys.readouterr().err
        assert f"rstkit: error: {broken}: line 3: record is missing fields" in err
        assert str(gold_file) not in err

    def test_eval_rejects_prediction_without_gold(self, gold_file, tmp_path, capsys):
        lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
        gold = tmp_path / "gold_part.jsonl"
        gold.write_text("".join(lines[1:]), encoding="utf-8")
        assert main(["eval", str(gold), str(gold_file)]) == 1
        assert "doc0" in capsys.readouterr().err
        # --genre skips documents of other genres, predictions included
        assert main(["eval", str(gold_file), str(gold), "--genre", "news"]) == 0

    def test_mismatched_edus_need_end_to_end(self, gold_file, tmp_path, capsys):
        gold = list(iter_canonical(gold_file))
        docs = []
        for doc in gold:
            if len(doc.edus) > 1:
                merged = (EduSpan(0, doc.edus[1].last_token),) + doc.edus[2:]
                tree = random_tree(random.Random(0), len(merged))
                docs.append(
                    make_document(
                        doc.doc_id, tree, merged, genre=doc.genre, split=doc.split.value
                    )
                )
            else:
                docs.append(doc)
        pred_path = tmp_path / "e2e.jsonl"
        # rebuild with matching token counts by reusing gold token texts
        from rstkit.core import DocumentRecord

        rebuilt = []
        for gold_doc, pred_doc in zip(gold, docs):
            rebuilt.append(
                DocumentRecord(
                    doc_id=gold_doc.doc_id,
                    genre=gold_doc.genre,
                    lang=gold_doc.lang,
                    tokens=gold_doc.tokens,
                    char_starts=gold_doc.char_starts,
                    edus=pred_doc.edus,
                    tree=pred_doc.tree,
                    sentence_boundaries=gold_doc.sentence_boundaries,
                    split=gold_doc.split,
                )
            )
        write_corpus(rebuilt, pred_path)
        assert main(["eval", str(gold_file), str(pred_path)]) == 1
        capsys.readouterr()
        assert main(["eval", str(gold_file), str(pred_path), "--end-to-end"]) == 0
        assert "Segm." in capsys.readouterr().out


class TestEvalOnImperfectPredictions:
    """``eval`` counts on perturbed predictions equal the all-pairs
    matcher's counts summed per genre and over the corpus."""

    GENRES = ("academic", "news", "whow")

    @pytest.fixture()
    def corpora(self, tmp_path):
        rng = random.Random(404)
        gold, resplit, resegmented = [], [], []
        for i in range(15):
            n = rng.randint(2, 40)
            genre = self.GENRES[i % 3]
            edus = random_edus(rng, n)
            tree = random_tree(rng, n)
            gold.append(make_document(f"doc{i}", tree, edus, genre=genre))
            resplit.append(make_document(f"doc{i}", perturb_tree(rng, tree), edus,
                                         genre=genre))
            n_tokens = edus[-1].last_token + 1
            n_pred = rng.randint(max(1, n - 3), min(n_tokens, n + 3))
            pred_edus = random_partition(rng, n_tokens, n_pred)
            resegmented.append(make_document(f"doc{i}", random_tree(rng, n_pred),
                                             pred_edus, genre=genre))
        paths = {}
        for name, docs in (("gold", gold), ("resplit", resplit),
                           ("resegmented", resegmented)):
            paths[name] = tmp_path / f"{name}.jsonl"
            write_corpus(docs, paths[name])
        return paths, gold, {"resplit": resplit, "resegmented": resegmented}

    @staticmethod
    def expected_rows(gold, pred, end_to_end):
        rows: dict[tuple[str, str], tuple[int, int, int]] = {}

        def add(key, counts):
            rows[key] = tuple(map(sum, zip(rows.get(key, (0, 0, 0)), counts)))

        for g, p in zip(gold, pred):
            for metric, counts in oracle_counts(g.tree, p.tree, g.edus, p.edus).items():
                for name in ("all", g.genre):
                    add((name, metric), counts)
            if end_to_end:
                gold_bounds = {e.first_token for e in g.edus} - {0}
                pred_bounds = {e.first_token for e in p.edus} - {0}
                seg = (len(gold_bounds & pred_bounds), len(gold_bounds), len(pred_bounds))
                for name in ("all", g.genre):
                    add((name, "Segm."), seg)
        return rows

    @pytest.mark.parametrize("pred_name, end_to_end",
                             [("resplit", False), ("resplit", True),
                              ("resegmented", True)])
    def test_counts_equal_the_summed_oracle(self, corpora, pred_name, end_to_end,
                                            capsys):
        paths, gold, preds = corpora
        argv = ["eval", str(paths["gold"]), str(paths[pred_name]), "--csv", "--by-genre"]
        assert main(argv + (["--end-to-end"] if end_to_end else [])) == 0
        table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert table[0] == ["name", "metric", "precision", "recall", "f1", "matched",
                            "gold", "predicted"]
        got = {(r[0], r[1]): tuple(map(int, r[5:8])) for r in table[1:]}
        expected = self.expected_rows(gold, preds[pred_name], end_to_end)
        assert got == expected
        assert list(dict.fromkeys(name for name, _ in got)) == ["all", *self.GENRES]
        # the predictions are imperfect: some constituents match, not all
        matched, n_gold, n_pred = got[("all", "S")]
        assert 0 < matched < min(n_gold, n_pred)
        assert got[("all", "Full")][0] < got[("all", "S")][0]

    def test_resegmented_predictions_need_end_to_end(self, corpora, capsys):
        paths, _, _ = corpora
        assert main(["eval", str(paths["gold"]), str(paths["resegmented"])]) == 1
        assert "use --end-to-end" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("pred_name", ["resplit", "resegmented"])
    def test_prediction_order_does_not_matter(self, corpora, tmp_path, order,
                                              pred_name, capsys):
        paths, gold, preds = corpora
        docs = list(reversed(preds[pred_name]))
        if order == "shuffled":
            random.Random(25).shuffle(docs)
        assert [d.doc_id for d in docs] != [d.doc_id for d in gold]
        reordered = tmp_path / f"{order}.jsonl"
        write_corpus(docs, reordered)
        outs = []
        for pred in (paths[pred_name], reordered):
            assert main(["eval", str(paths["gold"]), str(pred), "--csv", "--by-genre",
                         "--end-to-end"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        table = list(csv.reader(io.StringIO(outs[1])))
        got = {(r[0], r[1]): tuple(map(int, r[5:8])) for r in table[1:]}
        assert got == self.expected_rows(gold, preds[pred_name], True)

    def test_genre_filter_with_only_that_genre_predicted(self, corpora, tmp_path,
                                                        capsys):
        paths, _, preds = corpora
        news = tmp_path / "news.jsonl"
        write_corpus([d for d in preds["resplit"] if d.genre == "news"], news)
        outs = []
        for pred in (paths["resplit"], news):
            assert main(["eval", str(paths["gold"]), str(pred), "--genre", "news"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("order", ["in order", "reversed"])
    def test_missing_prediction_is_named(self, corpora, tmp_path, order, capsys):
        paths, _, preds = corpora
        docs = [d for d in preds["resplit"] if d.doc_id != "doc7"]
        pred = tmp_path / "pred.jsonl"
        write_corpus(docs if order == "in order" else docs[::-1], pred)
        assert main(["eval", str(paths["gold"]), str(pred)]) == 1
        assert capsys.readouterr().err == (
            "rstkit: error: prediction missing for document doc7\n")

    def test_first_bad_line_of_the_walk_is_reported(self, corpora, tmp_path, capsys):
        # The walk reads gold line 2 before prediction line 5 (README rule).
        paths, _, _ = corpora
        broken = {}
        for name, line in (("gold", 2), ("resplit", 5)):
            lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
            lines[line - 1] = '{"id": 1}\n'
            broken[name] = tmp_path / f"broken_{name}.jsonl"
            broken[name].write_text("".join(lines), encoding="utf-8")
        assert main(["eval", str(broken["gold"]), str(broken["resplit"])]) == 1
        assert capsys.readouterr().err.startswith(
            f"rstkit: error: {broken['gold']}: line 2: record is missing fields")

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path, capsys):
        # Predictions in gold order are never held, so a corpus four times
        # as long peaks at about the same memory.
        rng = random.Random(25)
        docs = [make_document(f"m{i}", random_tree(rng, 40), random_edus(rng, 40, 20),
                              genre=self.GENRES[i % 3])
                for i in range(24)]
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        write_corpus(docs, gold)
        write_corpus([doc.with_tree(perturb_tree(rng, doc.tree)) for doc in docs], pred)
        for path in (gold, pred):
            repeat_corpus(path, 4, path.with_suffix(".x4"))

        def peak(suffix):
            argv = ["eval", str(gold.with_suffix(suffix)), str(pred.with_suffix(suffix)),
                    "--by-genre"]
            return traced_peak(lambda: _succeeds(argv))[1]

        assert main(["eval", str(gold), str(pred), "--by-genre"]) == 0  # warm caches
        once, four = peak(".jsonl"), peak(".x4")
        capsys.readouterr()
        assert four < 1.25 * once


def _inventory_file(path, tmp_path, extra=()):
    """The sorted labels of a canonical file (plus ``extra``) as an
    inventory file."""
    labels = sorted(set(label_histogram(iter_canonical(path))) | set(extra))
    inventory = tmp_path / f"{path.stem}.labels"
    inventory.write_text("".join(f"{label}\n" for label in labels), encoding="utf-8")
    return inventory


def _write_full_score_dump(path, labels, out):
    """A score dump holding every split range and every label pair of each
    document in ``path``, scored by its gold tree."""
    with open(out, "w", encoding="utf-8") as fh:
        for doc in iter_canonical(path):
            provider = OracleProvider(doc.tree, labels)
            n = len(doc.edus)
            for start in range(n):
                for end in range(start + 2, n + 1):
                    fh.write(json.dumps({"doc": doc.doc_id, "kind": "split",
                                         "start": start, "end": end,
                                         "scores": provider.split_scores(start, end)}) + "\n")
                    for split in range(start + 1, end):
                        left, right = (start, split), (split, end)
                        fh.write(json.dumps({"doc": doc.doc_id, "kind": "label",
                                             "left": left, "right": right,
                                             "scores": provider.label_scores(left, right)})
                                 + "\n")


class _DumpingProvider(ScoreProvider):
    """Seeded random scores for one document; each query is written to
    ``fh`` as a score-dump line when it is asked."""

    def __init__(self, doc_id, n_labels, fh):
        self.doc_id, self.n_labels, self.fh = doc_id, n_labels, fh

    def _scores(self, query, length, fields):
        rng = random.Random(f"{self.doc_id}|{query}")
        scores = [rng.uniform(-1.0, 1.0) for _ in range(length)]
        self.fh.write(json.dumps({"doc": self.doc_id, **fields, "scores": scores}) + "\n")
        return scores

    def split_scores(self, start, end):
        return self._scores((start, end), end - start - 1,
                            {"kind": "split", "start": start, "end": end})

    def label_scores(self, left, right):
        return self._scores((left, right), self.n_labels,
                            {"kind": "label", "left": left, "right": right})


@pytest.fixture()
def scored_corpus(tmp_path):
    """16 seeded documents of 60 EDUs, an inventory and a score dump of what
    ``parse --beam 4`` asks (greedy's queries among them), in corpus order;
    the corpus and the dump also repeated four times, with suffix ``.x4``."""
    rng = random.Random(28)
    docs = [make_document(f"s{i}", random_tree(rng, 60), random_edus(rng, 60, 20))
            for i in range(16)]
    corpus, dump = tmp_path / "corpus.jsonl", tmp_path / "scores.jsonl"
    write_corpus(docs, corpus)
    inventory = tmp_path / "labels.txt"
    inventory.write_text("".join(f"{x}\n" for x in TEST_LABELS), encoding="utf-8")
    config = DecodeConfig(TEST_LABELS, "beam", 4)
    with open(dump, "w", encoding="utf-8") as fh:
        for doc in docs:
            decode(len(doc.edus), _DumpingProvider(doc.doc_id, len(TEST_LABELS), fh), config)
    repeat_corpus(corpus, 4, corpus.with_suffix(".x4"))
    repeat_corpus(dump, 4, dump.with_suffix(".x4"), field="doc")
    return corpus, dump, inventory


@pytest.fixture()
def random_file(tmp_path):
    """50 seeded documents of 1-40 EDUs, two of them one EDU long."""
    rng = random.Random(41)
    sizes = [1, 1] + [rng.randint(1, 40) for _ in range(48)]
    docs = [
        make_document(f"r{i:02d}", random_tree(rng, n), random_edus(rng, n))
        for i, n in enumerate(sizes)
    ]
    rng.shuffle(docs)
    path = tmp_path / "random.jsonl"
    write_corpus(docs, path)
    return path


@pytest.fixture()
def forest_file(forest_corpus, tmp_path, capsys):
    """The forest fixture converted as is: single-EDU trees, raw labels."""
    path = tmp_path / "forest.jsonl"
    assert main(["convert", str(forest_corpus.directory), "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestSinglePassParse:
    @pytest.mark.parametrize("corpus", ["gold_file", "forest_file", "random_file"])
    @pytest.mark.parametrize("mode", [["--oracle"], ["--baseline", "joint_NN"]])
    @pytest.mark.parametrize("beam", ["1", "2", "4"])
    def test_output_equals_parse_over_the_corpus_inventory(
        self, corpus, mode, beam, request, tmp_path, capsys
    ):
        path = request.getfixturevalue(corpus)
        inventory = _inventory_file(path, tmp_path, mode[1:])
        single, fixed = tmp_path / "single.jsonl", tmp_path / "fixed.jsonl"
        assert main(["parse", str(path), "-o", str(single), *mode, "--beam", beam]) == 0
        assert main(["parse", str(path), "-o", str(fixed), *mode, "--beam", beam,
                     "--inventory", str(inventory)]) == 0
        assert single.read_bytes() == fixed.read_bytes()
        if mode == ["--oracle"]:
            assert [d.tree for d in iter_canonical(single)] == [
                d.tree for d in iter_canonical(path)
            ]

    @pytest.mark.parametrize("mode", [["--oracle"], ["--baseline", "joint_NN"]])
    def test_input_is_read_once(self, gold_file, tmp_path, monkeypatch, mode):
        reads = []
        original = tb_mod.iter_canonical

        def counting(path):
            reads.append(Path(path))
            return original(path)

        monkeypatch.setattr(tb_mod, "iter_canonical", counting)
        assert main(["parse", str(gold_file), "-o", str(tmp_path / "p"), *mode]) == 0
        assert reads == [gold_file]

    def test_scores_need_an_inventory(self, gold_file, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text("", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out),
                     "--scores", str(scores)]) == 1
        assert "--scores needs --inventory" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_score_dump_is_a_user_error(self, gold_file, tmp_path, capsys):
        inventory = tmp_path / "labels.txt"
        inventory.write_text("".join(f"{x}\n" for x in TEST_LABELS), encoding="utf-8")
        scores = tmp_path / "scores.jsonl"
        scores.write_text(
            json.dumps({"doc": "doc0", "kind": "split", "start": 0.6, "end": "3",
                        "scores": [1.0, 0.0]}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out), "--scores", str(scores),
                     "--inventory", str(inventory)]) == 1
        assert "line 1: bad score record" in capsys.readouterr().err
        assert not out.exists()

    def test_a_document_whose_score_run_has_ended_is_a_user_error(
        self, gold_file, tmp_path, capsys
    ):
        # doc0 (two EDUs) decodes from its first run, lines 1-2; asking for
        # doc1 then reads on to line 4
        inventory = _inventory_file(gold_file, tmp_path)
        n_labels = len(inventory.read_text(encoding="utf-8").split())
        split = {"kind": "split", "start": 0, "end": 2, "scores": [1.0]}
        label = {"kind": "label", "left": [0, 1], "right": [1, 2],
                 "scores": [0.0] * n_labels}
        runs = [("doc0", split), ("doc0", label), ("doc1", split), ("doc0", split)]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({"doc": doc, **fields}) + "\n" for doc, fields in runs
        ), encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out), "--scores", str(scores),
                     "--inventory", str(inventory)]) == 1
        assert capsys.readouterr().err == (
            f"rstkit: error: {scores}: line 4: bad score record (document 'doc0' "
            "has an earlier run of lines; its lines must be contiguous)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         "1" + "0" * 400])
    def test_non_finite_score_is_a_user_error(self, gold_file, tmp_path, literal,
                                              capsys):
        inventory = _inventory_file(gold_file, tmp_path)
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"doc": "doc0", "kind": "split", "start": 0, "end": 3, '
                          f'"scores": [{literal}, 0.0]}}\n', encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out), "--scores", str(scores),
                     "--inventory", str(inventory)]) == 1
        assert "line 1: bad score record" in capsys.readouterr().err
        assert not out.exists()

    def test_first_bad_line_of_the_walk_is_reported(self, gold_file, tmp_path, capsys):
        # Corpus line 2 is read before the dump's last line.  With a good
        # corpus, the last line, which follows a run no document asks for, is
        # read once the last document is written.
        inventory = _inventory_file(gold_file, tmp_path)
        scores = tmp_path / "scores.jsonl"
        _write_full_score_dump(gold_file, inventory.read_text(encoding="utf-8").split(),
                               scores)
        with open(scores, "a", encoding="utf-8") as fh:
            fh.write('{"doc": "unasked", "kind": "split", "start": 0, "end": 2, '
                     '"scores": [1.0]}\n{"doc": "unasked", "kind": "wat", "scores": []}\n')
        bad_line = len(scores.read_text(encoding="utf-8").splitlines())
        lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"id": 1}\n'
        broken = tmp_path / "broken.jsonl"
        broken.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        for corpus, expected in (
            (broken, f"{broken}: line 2: record is missing fields"),
            (gold_file, f"{scores}: line {bad_line}: bad score record (unknown kind 'wat')"),
        ):
            assert main(["parse", str(corpus), "-o", str(out), "--scores", str(scores),
                         "--inventory", str(inventory)]) == 1
            assert capsys.readouterr().err.startswith(f"rstkit: error: {expected}")
            assert not out.exists()

    @pytest.mark.parametrize("beam", ["1", "4"])
    def test_memory_does_not_grow_with_the_corpus(self, beam, scored_corpus, tmp_path,
                                                  capsys):
        # The dump is read in step with the corpus, and a run is held only
        # until the next one is read, so files four times as long peak at
        # about the same memory.
        corpus, dump, inventory = scored_corpus
        out = tmp_path / "pred.jsonl"

        def peak(suffix):
            argv = ["parse", str(corpus.with_suffix(suffix)), "-o", str(out), "--beam", beam,
                    "--scores", str(dump.with_suffix(suffix)), "--inventory", str(inventory)]
            return traced_peak(lambda: _succeeds(argv))[1]

        peak(".jsonl")  # warm caches
        once, four = peak(".jsonl"), peak(".x4")
        capsys.readouterr()
        assert four < 1.25 * once

    def test_providers_in_file_order_hold_one_run(self, scored_corpus):
        # the loop of a check that scores each parsed document in turn
        corpus, dump, _ = scored_corpus

        def peak(suffix):
            sizes = [(doc.doc_id, len(doc.edus))
                     for doc in iter_canonical(corpus.with_suffix(suffix))]

            def read():
                table = ScoreTable.load(dump.with_suffix(suffix))
                for doc_id, n in sizes:
                    assert len(table.provider(doc_id).split_scores(0, n)) == n - 1

            return traced_peak(read)[1]

        once, four = peak(".jsonl"), peak(".x4")
        assert four < 1.25 * once

    @pytest.mark.parametrize("beam", ["1", "4"])
    def test_a_decoded_documents_scores_are_dropped(self, beam, scored_corpus, tmp_path,
                                                   monkeypatch, capsys):
        # parse holds one run of the dump: when it asks for a document's
        # scores, the provider of the document before is gone
        corpus, dump, inventory = scored_corpus
        handed, held = [], []
        original = ScoreTable.provider

        def provider(table, doc_id):
            held.append(sum(ref() is not None for ref in handed))
            got = original(table, doc_id)
            handed.append(weakref.ref(got))
            return got

        monkeypatch.setattr(ScoreTable, "provider", provider)
        assert main(["parse", str(corpus), "-o", str(tmp_path / "pred.jsonl"),
                     "--beam", beam, "--scores", str(dump),
                     "--inventory", str(inventory)]) == 0
        capsys.readouterr()
        assert held == [0] * 16

    def test_one_edu_documents_need_no_inventory(self, tmp_path, capsys):
        # The corpus has no labels at all; each lone EDU still decodes to
        # a leaf.
        docs = [make_document(f"s{i}", RstTree.leaf(0)) for i in range(3)]
        path = tmp_path / "single_edu.jsonl"
        write_corpus(docs, path)
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(path), "-o", str(out), "--oracle"]) == 0
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("beam", ["1", "4"])
    def test_a_single_edu_document_needs_no_scores(self, beam, tmp_path, capsys):
        # decode asks nothing for a lone EDU, so a dump recorded from its
        # queries holds no line for one
        docs = [make_document("one", RstTree.leaf(0)),
                make_document("two", random_tree(random.Random(5), 2))]
        corpus, scores = tmp_path / "corpus.jsonl", tmp_path / "scores.jsonl"
        write_corpus(docs, corpus)
        inventory = tmp_path / "labels.txt"
        inventory.write_text("".join(f"{x}\n" for x in TEST_LABELS), encoding="utf-8")
        lines = [{"kind": "split", "start": 0, "end": 2, "scores": [0.5]},
                 {"kind": "label", "left": [0, 1], "right": [1, 2],
                  "scores": [0.0, 0.0, 0.0, 2.0, 0.0]}]
        scores.write_text("".join(json.dumps({"doc": "two", **line}) + "\n"
                                  for line in lines), encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(corpus), "-o", str(out), "--scores", str(scores),
                     "--inventory", str(inventory), "--beam", beam]) == 0
        assert capsys.readouterr().out == f"parsed 2 documents -> {out}\n"
        assert [doc.tree for doc in iter_canonical(out)] == [
            RstTree.leaf(0),
            RstTree.internal(RstTree.leaf(0), RstTree.leaf(1), TEST_LABELS[3]),
        ]

    def test_zero_beam_is_a_user_error(self, tmp_path, capsys):
        # even when no document of the input needs a decode config
        docs = [make_document(f"s{i}", RstTree.leaf(0)) for i in range(3)]
        path = tmp_path / "single_edu.jsonl"
        write_corpus(docs, path)
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(path), "-o", str(out), "--oracle",
                     "--beam", "0"]) == 1
        assert "beam width must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestScalingGates:
    """A command that streams its corpus works in proportion to it and
    holds one document at a time: on the corpus repeated four times
    (``helpers.repeat_corpus``) it makes at most four times the calls, and
    its peak grows by less than one document plus what the ``cli``
    docstring lets it keep of each extra document: the id that the reader's
    duplicate-id check keeps, and for some commands more (``KEPT``)."""

    COMMANDS = {
        "parse --oracle": ["parse", "{corpus}", "--oracle", "-o", "{out}"],
        "parse --baseline": ["parse", "{corpus}", "--baseline", "joint_NN", "-o", "{out}"],
        "segment": ["segment", "{model}", "{corpus}", "-o", "{out}"],
        "stats": ["stats", "{corpus}"],
        "eval --end-to-end": ["eval", "{corpus}", "{corpus}", "--end-to-end"],
        "preprocess": ["preprocess", "{corpus}", "-o", "{out}"],
        # the corpus repeated is in the test split, so the training set is fixed
        "train-segmenter --split": ["train-segmenter", "{mixed}", "--split", "train",
                                    "--epochs", "1", "--buckets", "64", "-o", "{out}.npz"],
    }
    # Bytes an extra document may leave beyond its id, which costs ~100:
    # ``stats`` keeps its id in a second set and its token count, ``eval``
    # reads it in both files, and ``preprocess`` keeps its canonical line
    # in an (id, line) pair, ~200 bytes more than the line's text.
    KEPT = {"stats": 512, "eval --end-to-end": 512, "preprocess": "line"}

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """24 seeded documents of 30 EDUs, the same repeated four times
        (``.x4``), the largest alone (``largest.jsonl``), two training
        documents before the 24 in the test split (``mixed.jsonl``) and
        before those repeated four times (``mixed.x4``), and a segmenter."""
        work = tmp_path_factory.mktemp("scaling")
        rng = random.Random(30)

        def document(doc_id):
            tree, edus = random_tree(rng, 30), random_edus(rng, 30, 20)
            return make_document(doc_id, tree, edus,
                                 sents=[0, edus[10].first_token, edus[20].first_token])

        docs = [document(f"m{i}") for i in range(24)]
        write_corpus(docs, work / "corpus.jsonl")
        repeat_corpus(work / "corpus.jsonl", 4, work / "corpus.x4")
        write_corpus([max(docs, key=lambda doc: len(doc.tokens))], work / "largest.jsonl")
        write_corpus([doc.replace(split="test") for doc in docs], work / "test.jsonl")
        repeat_corpus(work / "test.jsonl", 4, work / "test.x4")
        write_corpus([document(f"t{i}") for i in range(2)], work / "train.jsonl")
        for suffix in (".jsonl", ".x4"):
            (work / f"mixed{suffix}").write_bytes((work / "train.jsonl").read_bytes()
                                                  + (work / f"test{suffix}").read_bytes())
        extractor = crf_mod.HashedWindowFeatures(64)
        with open(work / "model.npz", "wb") as fh:
            crf_mod.save_model(crf_mod.CrfModel.create(extractor.dim), fh, extractor)
        return work

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_work_and_memory_grow_with_the_documents(self, command, work, capsys):
        out = work / "out"

        def run(suffix):
            argv = [arg.format(corpus=work / f"corpus{suffix}", mixed=work / f"mixed{suffix}",
                               model=work / "model.npz", out=out)
                    for arg in self.COMMANDS[command]]
            return lambda: _succeeds(argv)

        run(".jsonl")()  # warm caches
        kept = self.KEPT.get(command, 0)
        if kept == "line":  # the mean line of the output, held in its pair
            kept = out.stat().st_size / 24 + 256
        calls = profiled_calls(run(".x4")) / profiled_calls(run(".jsonl"))
        grown = traced_peak(run(".x4"))[1] - traced_peak(run(".jsonl"))[1]
        held = traced_peak(lambda: list(iter_canonical(work / "largest.jsonl")))[0]
        capsys.readouterr()
        assert calls <= 4.0
        # the largest document held costs ~8 KB
        assert grown < held + 72 * (128 + kept)


class TestDeeplyNestedJson:
    """A JSON line nested past the parser's recursion limit is a user error
    that names its line, not an internal one."""

    DEEP = "[" * 100_000 + "]" * 100_000

    def test_corpus_line(self, tmp_path, capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text(self.DEEP + "\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["stats", str(corpus)]) == 1
        assert main(["parse", str(corpus), "-o", str(out), "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count(f"rstkit: error: {corpus}: line 1: invalid JSON") == 2
        assert "internal error" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_score_line(self, gold_file, tmp_path, capsys):
        inventory = _inventory_file(gold_file, tmp_path)
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"doc": "doc0", "scores": ' + self.DEEP + "}\n",
                          encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["parse", str(gold_file), "-o", str(out_dir / "pred.jsonl"),
                     "--scores", str(scores), "--inventory", str(inventory)]) == 1
        err = capsys.readouterr().err
        assert "line 1: bad score record" in err and "internal error" not in err
        assert os.listdir(out_dir) == []


class TestRecordFieldTypes:
    """A document id or genre that is not a string is a user error that
    names its line, on every command that reads canonical records."""

    ID = "line 3: document id must be a non-empty string, got 5"
    GENRE = "line 3: doc2: genre must be a string, got 7"

    @pytest.mark.parametrize("command, field, value, problem", [
        ("preprocess", "id", 5, ID),
        ("parse", "id", 5, ID),
        ("stats --by-genre", "genre", 7, GENRE),
        ("eval --by-genre", "genre", 7, GENRE),
    ])
    def test_non_string_is_a_user_error(self, gold_file, tmp_path, command, field,
                                        value, problem, capsys):
        lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record) + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = {
            "preprocess": ["preprocess", str(bad), "-o", str(out)],
            "parse": ["parse", str(bad), "-o", str(out), "--oracle"],
            "stats --by-genre": ["stats", str(bad), "--by-genre"],
            "eval --by-genre": ["eval", str(bad), str(gold_file), "--by-genre"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert problem in captured.err
        assert captured.out == "" and not out.exists()


class TestRepeatedIdsLeaveNoOutput:
    """A command that holds a whole corpus rejects a repeated document id
    before it opens its output."""

    def _argv(self, command, gold_file, tmp_path, out):
        """The command line, and the repeated id."""
        if command == "convert":
            # a.rs3 holds two trees, read as a_part_1 and a_part_2.
            rng = random.Random(5)
            docs = [make_document(f"t{i}", random_tree(rng, 3)) for i in range(3)]
            directory = tmp_path / "rs3"
            directory.mkdir()
            (directory / "a.rs3").write_bytes(serialize_rs3_forest(docs[:2]))
            (directory / "a_part_1.rs3").write_bytes(serialize_rs3(docs[2]))
            return ["convert", str(directory), "-o", str(out)], "a_part_1"
        dup = _with_repeated_line(gold_file, tmp_path)
        return [command, str(dup), "-o", str(out)], "doc0"

    @pytest.mark.parametrize("command", ["train-segmenter", "preprocess", "convert"])
    def test_exit_one_and_no_output_file(self, command, gold_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv, repeated = self._argv(command, gold_file, tmp_path, out_dir / "result")
        assert main(argv) == 1
        err = capsys.readouterr().err
        if command == "convert":  # forest parts collide after the files are read
            assert f"duplicate document ids: ['{repeated}']" in err
        else:
            line = len(gold_file.read_text(encoding="utf-8").splitlines()) + 1
            assert f"{argv[1]}: line {line}: duplicate document id {repeated}" in err
        assert os.listdir(out_dir) == []


class TestOutputFiles:
    """A command that exits 1 leaves no new or partial output file and
    does not touch a file already at the output path."""

    @pytest.fixture()
    def sixth_bad(self, gold_file, tmp_path):
        """Seven documents, the sixth malformed or without a tree."""
        rng = random.Random(3)
        docs = [make_document(f"o{i}", random_tree(rng, 4), random_edus(rng, 4))
                for i in range(7)]

        def write(sixth: str):
            path = tmp_path / "sixth.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for i, doc in enumerate(docs):
                    if i == 5 and sixth == "malformed":
                        fh.write('{"id": "o5", "tokens": []}\n')
                    elif i == 5:
                        write_record(fh, doc.replace(tree=None))
                    else:
                        write_record(fh, doc)
            return path

        return write

    def _argv(self, command, sixth, gold_file, tmp_path, out):
        """The command line, and what its error names."""
        if command == "segment":
            model = tmp_path / "model.npz"
            assert main(["train-segmenter", str(gold_file), "-o", str(model),
                         "--epochs", "1", "--buckets", "8"]) == 0
            argv = ["segment", str(model), str(sixth("malformed")), "-o", str(out)]
            return argv, "line 6"
        if command == "parse --inventory":
            inventory = _inventory_file(gold_file, tmp_path)
            argv = ["parse", str(sixth("malformed")), "-o", str(out), "--oracle",
                    "--inventory", str(inventory)]
            return argv, "line 6"
        argv = ["parse", str(sixth("treeless")), "-o", str(out), "--oracle"]
        return argv, "o5: oracle mode needs gold trees"

    @pytest.mark.parametrize("command", ["segment", "parse --inventory", "parse"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_exit_one_leaves_the_output_path_as_it_was(
        self, command, existing, sixth_bad, gold_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result.jsonl"
        if existing:
            out.write_text("earlier output\n", encoding="utf-8")
        argv, problem = self._argv(command, sixth_bad, gold_file, tmp_path, out)
        capsys.readouterr()
        assert main(argv) == 1
        assert problem in capsys.readouterr().err
        if existing:
            assert os.listdir(out_dir) == ["result.jsonl"]
            assert out.read_text(encoding="utf-8") == "earlier output\n"
        else:
            assert os.listdir(out_dir) == []

    def test_success_replaces_a_file_with_the_usual_mode(self, gold_file, tmp_path):
        out = tmp_path / "pred.jsonl"
        out.write_text("earlier output\n", encoding="utf-8")
        assert main(["parse", str(gold_file), "-o", str(out), "--oracle"]) == 0
        assert out.read_bytes() == gold_file.read_bytes()
        plain = tmp_path / "plain"
        with open(plain, "w", encoding="utf-8"):
            pass
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["gold.jsonl", "plain", "pred.jsonl"]

    def test_a_symlinked_output_updates_its_target(self, gold_file, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("earlier output\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert main(["parse", str(gold_file), "-o", str(link), "--oracle"]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == gold_file.read_bytes()

    def test_a_pipe_is_written_directly(self, gold_file, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        try:
            code = main(["parse", str(gold_file), "-o", str(fifo), "--oracle"])
        finally:
            reader.join(timeout=30)
            if reader.is_alive():  # the pipe was never opened: release the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert code == 0
        assert received == [gold_file.read_bytes()]


class TestDwaSim:
    def test_replay_and_output_file(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        rows = [[4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [2.0, 2.0, 1.0], [1.0, 2.0, 1.0]]
        losses.write_text("\n".join(",".join(map(str, r)) for r in rows))
        assert main(["dwa-sim", str(losses), "-b", "1", "--temp", "1.0"]) == 0
        out = capsys.readouterr().out
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == ["lambda_1", "lambda_2", "lambda_3"]
        assert len(parsed) == 5
        assert [float(x) for x in parsed[1]] == [1.0, 1.0, 1.0]
        # step 3 is weighted but its two history rows are identical; step 4
        # sees the 4 -> 2 drop on task 1 and departs from uniform
        assert [float(x) for x in parsed[3]] == [1.0, 1.0, 1.0]
        assert [float(x) for x in parsed[4]] != [1.0, 1.0, 1.0]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_path = out_dir / "weights.csv"
        assert main(["dwa-sim", str(losses), "-b", "1", "--temp", "1.0",
                     "-o", str(out_path)]) == 0
        assert out_path.read_bytes() == out.encode("utf-8")  # "\r\n" rows, as printed
        assert os.listdir(out_dir) == ["weights.csv"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_while_writing_leaves_the_output_path_as_it_was(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        def failing(*args):
            yield [1.0, 1.0, 1.0]
            raise cli_mod.RstError("simulated failure")

        monkeypatch.setattr(dwa_mod, "simulate", failing)
        losses = tmp_path / "losses.csv"
        losses.write_text("1.0,1.0,1.0\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "weights.csv"
        if existing:
            out.write_text("earlier output\n", encoding="utf-8")
        assert main(["dwa-sim", str(losses), "-o", str(out)]) == 1
        assert "simulated failure" in capsys.readouterr().err
        if existing:
            assert os.listdir(out_dir) == ["weights.csv"]
            assert out.read_text(encoding="utf-8") == "earlier output\n"
        else:
            assert os.listdir(out_dir) == []

    def test_header_row_is_tolerated(self, tmp_path):
        losses = tmp_path / "losses.csv"
        losses.write_text("seg,tree,rel\n1.0,1.0,1.0\n2.0,1.0,1.0\n")
        assert main(["dwa-sim", str(losses)]) == 0

    @pytest.mark.parametrize("text", [
        "seg,tree,rel\n",
        "not a loss log\njust prose\n",
        "# comment\nseg,tree,rel\nseg,tree,rel\n1.0,1.0,1.0\n",
    ])
    def test_malformed_loss_file_is_a_user_error(self, tmp_path, capsys, text):
        losses = tmp_path / "losses.csv"
        losses.write_text(text)
        assert main(["dwa-sim", str(losses)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err


class TestDataDir:
    """An input path that does not exist as given is looked up under
    ``RSTKIT_DATA_DIR``."""

    @pytest.fixture()
    def cwd(self, gold_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli_mod.DATA_DIR_ENV, str(gold_file.parent))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        return cwd

    def test_a_relative_path_is_found_under_the_data_dir(self, gold_file, cwd, capsys):
        assert main(["stats", str(gold_file)]) == 0
        direct = capsys.readouterr().out
        assert main(["stats", gold_file.name]) == 0
        assert capsys.readouterr().out == direct

    def test_a_path_in_the_working_directory_wins(self, gold_file, cwd, capsys):
        write_corpus(list(iter_canonical(gold_file))[:1], cwd / gold_file.name)
        assert main(["stats", str(cwd / gold_file.name)]) == 0
        direct = capsys.readouterr().out
        assert main(["stats", gold_file.name]) == 0
        assert capsys.readouterr().out == direct
        assert main(["stats", str(gold_file)]) == 0
        assert capsys.readouterr().out != direct

    def test_a_path_missing_from_both_is_a_user_error(self, cwd, capsys):
        assert main(["stats", "nope.jsonl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rstkit: error: input path does not exist: nope.jsonl\n"


class TestInputErrorsNameTheFile:
    def test_empty_inventory(self, gold_file, tmp_path, capsys):
        inventory = tmp_path / "empty.labels"
        inventory.write_text("\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out), "--oracle",
                     "--inventory", str(inventory)]) == 1
        assert f"{inventory}: inventory file is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_loss_row(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("1.0,1.0,1.0\nfoo,bar,baz\n", encoding="utf-8")
        assert main(["dwa-sim", str(losses)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{losses}: line 2: non-numeric loss row (length 11): 'foo,bar,baz'"
                in captured.err)

    @staticmethod
    def _one_error(capsys, path, line, message):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rstkit: error: {path}: line {line}: {message}\n"

    @pytest.mark.parametrize("rule, message", [
        ("bogus", "remap rule needs two columns (length 5): 'bogus'"),
        ("cause\tcause", "rule maps 'cause' to itself"),
        ("cause\tcause_x", "relation name 'cause_x' contains a reserved character"),
    ])
    def test_bad_remap_rule(self, gold_file, tmp_path, capsys, rule, message):
        rules = tmp_path / "rules.tsv"
        rules.write_text(f"effect\tcause-effect\n{rule}\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["preprocess", str(gold_file), "-o", str(out),
                     "--remap", str(rules)]) == 1
        self._one_error(capsys, rules, 2, message)
        assert not out.exists()

    @pytest.mark.parametrize("label, message", [
        ("elaboration_NS", "label inventory repeats ['elaboration_NS']"),
        ("foo", "not a relation_NUC label (length 3): 'foo'"),
    ])
    def test_bad_inventory_label(self, gold_file, tmp_path, capsys, label, message):
        inventory = tmp_path / "labels.txt"
        inventory.write_text(f"elaboration_NS\n{label}\n", encoding="utf-8")
        out = tmp_path / "pred.jsonl"
        assert main(["parse", str(gold_file), "-o", str(out), "--oracle",
                     "--inventory", str(inventory)]) == 1
        self._one_error(capsys, inventory, 2, message)
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("1.0,-2.0,1.0", "task 1 loss must be > 0, got -2.0"),
        ("1.0,1.0", "expected 3 losses, got 2"),
        ('"1.0\n2.0",1.0,1.0', "expected 3 losses, got 1"),  # one row per line
    ])
    def test_loss_row_the_scheduler_rejects(self, tmp_path, capsys, row, message):
        losses = tmp_path / "losses.csv"
        losses.write_text(f"1.0,1.0,1.0\n{row}\n", encoding="utf-8")
        out = tmp_path / "weights.csv"
        assert main(["dwa-sim", str(losses), "-o", str(out)]) == 1
        self._one_error(capsys, losses, 2, message)
        assert not out.exists()

    def test_loss_field_past_the_csv_size_limit(self, tmp_path, capsys):
        # csv refuses a field over 131,072 characters; that once exited 2
        losses = tmp_path / "losses.csv"
        losses.write_text(f"1.0,1.0,1.0\n{'9' * 140_000},1.0,1.0\n", encoding="utf-8")
        out = tmp_path / "weights.csv"
        assert main(["dwa-sim", str(losses), "-o", str(out)]) == 1
        self._one_error(capsys, losses, 2,
                        "bad CSV row: field larger than field limit (131072)")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["remap rule", "loss row", "tree string"])
    def test_a_long_bad_line_is_quoted_short(self, gold_file, tmp_path, kind, capsys):
        path = tmp_path / "long.in"
        if kind == "remap rule":
            path.write_text("effect\tcause-effect\n" + "a " * 1500 + "\n", encoding="utf-8")
            argv = ["preprocess", str(gold_file), "-o", str(tmp_path / "o"), "--remap"]
        elif kind == "loss row":
            path.write_text("1.0,1.0,1.0\n" + ",".join(["x1"] * 1001) + "\n",
                            encoding="utf-8")
            argv = ["dwa-sim"]
        else:
            obj = json.loads(gold_file.read_text(encoding="utf-8").splitlines()[0])
            obj["tree"] = "(" * 3000
            path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
            argv = ["stats", "--no-spanned"]
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300, err
        line = 2 if kind != "tree string" else 1
        assert err.startswith(f"rstkit: error: {path}: line {line}: ")
        # a tree string error then names where the string ended
        end = " at character 3001" if kind == "tree string" else ""
        assert re.search(rf" \(length \d{{4}}\): '.{{60}}'\.\.\.{end}$", err), err

    def test_a_bad_window_names_no_line(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("1.0,1.0,1.0\n", encoding="utf-8")
        assert main(["dwa-sim", str(losses), "--window", "0"]) == 1
        assert capsys.readouterr().err == "rstkit: error: window size must be >= 1\n"

    def test_line_that_is_not_utf8(self, gold_file, tmp_path, capsys):
        lines = gold_file.read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines[:2] + [lines[2].replace(b'"', b'"\xd0', 1)]))
        out = tmp_path / "out.jsonl"
        assert main(["parse", str(bad), "-o", str(out), "--oracle"]) == 1
        assert capsys.readouterr().err == f"rstkit: error: {bad}: line 3: not UTF-8\n"
        assert not out.exists()

    def test_model_without_feature_settings(self, gold_file, tmp_path, capsys):
        model = tmp_path / "bare.npz"
        crf_mod.save_model(crf_mod.CrfModel.create(8), model)
        out = tmp_path / "seg.jsonl"
        assert main(["segment", str(model), str(gold_file), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{model}: model file does not carry feature settings" in err
        assert not out.exists()


class TestCliContract:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "convert" in capsys.readouterr().out

    def test_unknown_flag_is_hard_error(self, capsys):
        assert main(["stats", "--frobnicate"]) == 1

    def test_unknown_command_is_hard_error(self):
        assert main(["transmogrify"]) == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "rstkit" in capsys.readouterr().out

    def test_import_and_version_load_no_numpy(self, gold_file, tmp_path):
        inventory = _inventory_file(gold_file, tmp_path)
        labels = inventory.read_text(encoding="utf-8").split()
        scores = tmp_path / "scores.jsonl"
        _write_full_score_dump(gold_file, labels, scores)
        out = str(tmp_path / "out.jsonl")
        parses = [
            ["parse", str(gold_file), "-o", out, "--oracle"],
            ["parse", str(gold_file), "-o", out, "--baseline", labels[0]],
            ["parse", str(gold_file), "-o", out, "--scores", str(scores),
             "--inventory", str(inventory), "--beam", "4"],
        ]
        script = (
            "import json, sys\n"
            "import rstkit.cli\n"
            "assert 'numpy' not in sys.modules, 'import rstkit.cli'\n"
            "assert rstkit.cli.main(['--version']) == 0\n"
            "assert 'numpy' not in sys.modules, '--version'\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert rstkit.cli.main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rstkit.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script, json.dumps(parses)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr


    def test_each_command_imports_only_what_it_runs(self, gold_file, rs3_dir, tmp_path):
        inventory = _inventory_file(gold_file, tmp_path)
        labels = inventory.read_text(encoding="utf-8").split()
        scores = tmp_path / "scores.jsonl"
        _write_full_score_dump(gold_file, labels, scores)
        gold, out, model = str(gold_file), str(tmp_path / "out.jsonl"), str(tmp_path / "m.npz")
        canonical_only = {"rstkit.metrics", "rstkit.preprocess", "statistics",
                          "xml.etree.ElementTree"}
        scoring = {"rstkit.preprocess", "rstkit.decoder", "statistics",
                   "xml.etree.ElementTree", "numpy"}
        commands = [  # in order: segment reads the model train-segmenter writes
            (["--version"], canonical_only),
            (["parse", gold, "-o", out, "--oracle"], canonical_only),
            (["parse", gold, "-o", out, "--baseline", labels[0]], canonical_only),
            (["parse", gold, "-o", out, "--scores", str(scores),
              "--inventory", str(inventory)], canonical_only),
            (["train-segmenter", gold, "-o", model, "--epochs", "1", "--buckets", "8"],
             canonical_only),
            (["segment", model, gold, "-o", out], canonical_only),
            (["stats", gold, "--csv", "--by-genre"], scoring),
            (["eval", gold, gold, "--end-to-end"], scoring),
            (["convert", str(rs3_dir), "-o", out], {"rstkit.metrics", "numpy"}),
        ]
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from rstkit.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rstkit.__file__).parents[1]))
        for argv, forbidden in commands:
            result = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                                    env=env, capture_output=True, text=True, timeout=60)
            code, loaded = json.loads(result.stdout.splitlines()[-1])
            assert code == 0, (argv, result.stderr)
            assert "rstkit.treebank" in loaded, argv
            assert forbidden.isdisjoint(loaded), (argv, sorted(forbidden & set(loaded)))


class TestHashSeedReproducibility:
    """stdout and output files do not depend on string hashing: genre rows
    and histograms come from dicts and sets, and only sorting fixes their
    order."""

    @staticmethod
    def _chain_outputs(rs3_dir, tmp_path):
        """stdout of convert, stats, parse --oracle and eval --by-genre run
        as subprocesses under hash seeds 0 and 1, with their output files."""
        sents = tmp_path / "chain.sents"
        results = []
        for hash_seed in ("0", "1"):
            work = tmp_path / f"hash{hash_seed}"
            work.mkdir()
            env = dict(os.environ, PYTHONPATH=str(Path(rstkit.__file__).parents[1]),
                       PYTHONHASHSEED=hash_seed)

            def run(*argv):
                result = subprocess.run([sys.executable, "-m", "rstkit.cli", *argv],
                                        cwd=work, env=env, capture_output=True,
                                        timeout=60)
                assert result.returncode == 0, result.stderr
                return result.stdout

            stdout = [run("convert", str(rs3_dir), "-o", "conv.jsonl")]
            if hash_seed == "0":  # a sentence per two EDUs, for both runs
                with open(sents, "w", encoding="utf-8") as fh:
                    for doc in iter_canonical(work / "conv.jsonl"):
                        starts = [str(edu.first_token) for edu in doc.edus[::2]]
                        fh.write(f"{doc.doc_id}\t{' '.join(starts)}\n")
            stdout.append(run("stats", "conv.jsonl", "--by-genre", "--sents", str(sents),
                              "--csv"))
            stdout.append(run("parse", "conv.jsonl", "-o", "pred.jsonl", "--oracle"))
            stdout.append(run("eval", "conv.jsonl", "pred.jsonl", "--by-genre", "--csv"))
            files = {name: (work / name).read_bytes() for name in sorted(os.listdir(work))}
            results.append((stdout, files))
        assert sorted(results[0][1]) == ["conv.jsonl", "pred.jsonl"]
        return results

    def test_chain_is_byte_identical_under_two_hash_seeds(self, forest_corpus,
                                                          tmp_path):
        results = self._chain_outputs(forest_corpus.directory, tmp_path)
        assert results[0][0][1].count(b"\nconv/") >= 2  # several genre rows
        assert results[0] == results[1]

    def test_cyrillic_chain_is_byte_identical_under_two_hash_seeds(self, tmp_path):
        # Russian tokens and genre names, forests and single trees
        rng = random.Random(19)
        words = ("Привет", ",", "мир", "«связь»", "ёж", ".", "дискурс", "don't", "—")
        rs3_dir = tmp_path / "rs3"
        rs3_dir.mkdir()
        for i, genre in enumerate(("новости", "news", "проза", "новости", "fiction")):
            docs = []
            for k in range(1 + i % 2):
                n = rng.randint(2, 7)
                edus = random_edus(rng, n)
                tokens = tuple(rng.choice(words) for _ in range(edus[-1].last_token + 1))
                starts = tuple(itertools.accumulate((len(t) + 1 for t in tokens[:-1]),
                                                    initial=0))
                docs.append(DocumentRecord(
                    doc_id=f"d{k}", genre=genre, lang="ru", tokens=tokens,
                    char_starts=starts, edus=edus, tree=random_tree(rng, n)))
            (rs3_dir / f"GUM_{genre}_{i}.rs3").write_bytes(serialize_rs3_forest(docs))
        results = self._chain_outputs(rs3_dir, tmp_path)
        assert "проза".encode("utf-8") in results[0][0][3]
        assert "Привет".encode("utf-8") in results[0][1]["conv.jsonl"]
        assert results[0] == results[1]


class TestCollectorPause:
    """Commands run with the cyclic garbage collector paused; main restores
    its previous state, and the paused collector leaves a fixed amount of
    cyclic garbage whatever the input size."""

    @pytest.mark.parametrize("outcome, code", [("ok", 0), ("user", 1), ("internal", 2)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_on_every_exit(self, monkeypatch, capsys, outcome, code,
                                             enabled):
        during = []

        def command(args):
            during.append(gc.isenabled())
            if outcome == "user":
                raise cli_mod.RstError("bad input")
            if outcome == "internal":
                raise RuntimeError("bug")
            return 0

        monkeypatch.setattr(cli_mod, "cmd_dwa_sim", command)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["dwa-sim", "losses.csv"]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]

    @pytest.fixture()
    def corpora(self, tmp_path):
        """Small and four-times-larger inputs for every streaming command,
        plus a segmenter model trained on the small corpus."""
        rng = random.Random(5)
        paths = {}
        for name, count in (("small", 5), ("large", 20)):
            docs = []
            for i in range(count):
                n = rng.randint(2, 30)
                docs.append(make_document(f"{name}_news_{i}", random_tree(rng, n),
                                          random_edus(rng, n), genre="news", sents=[0]))
            path = tmp_path / f"{name}.jsonl"
            write_corpus(docs, path)
            rs3 = tmp_path / f"{name}_rs3"
            rs3.mkdir()
            for doc in docs:
                (rs3 / f"{doc.doc_id}.rs3").write_bytes(serialize_rs3(doc))
            paths[name] = path
            paths[f"{name}_rs3"] = rs3
        paths["model"] = tmp_path / "seg.npz"
        assert main(["train-segmenter", str(paths["small"]), "-o", str(paths["model"]),
                     "--epochs", "1"]) == 0
        return paths

    @pytest.mark.parametrize("command", ["convert", "stats", "segment", "parse", "eval"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, corpora, tmp_path,
                                                         capsys, command):
        def argv(size):
            corpus = str(corpora[size])
            out = str(tmp_path / f"{size}_{command}.out")
            return {
                "convert": ["convert", str(corpora[f"{size}_rs3"]), "-o", out],
                "stats": ["stats", corpus, "--by-genre"],
                "segment": ["segment", str(corpora["model"]), corpus, "-o", out],
                "parse": ["parse", corpus, "-o", out, "--oracle", "--beam", "2"],
                "eval": ["eval", corpus, corpus],
            }[command]

        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            found = []
            for size in ("small", "small", "large"):  # the first run warms up imports
                assert main(argv(size)) == 0
                found.append(gc.collect())
        finally:
            if was:
                gc.enable()
        assert found[1] == found[2] > 0
