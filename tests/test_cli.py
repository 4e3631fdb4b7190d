import csv
import io
import random

import pytest

from rstkit.cli import main
from rstkit.core import Corpus, EduSpan
from rstkit.treebank import read_canonical, serialize_rs3, write_canonical

from helpers import make_document, random_edus, random_tree


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
    write_canonical(Corpus.from_documents("gold", docs), path)
    return path


def _with_repeated_line(path, tmp_path, index=0):
    """Copy of a canonical file with line ``index`` written twice."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    copy = tmp_path / f"dup_{path.name}"
    copy.write_text("".join(lines + [lines[index]]), encoding="utf-8")
    return copy


class TestConvert:
    def test_rs3_directory_to_canonical(self, rs3_dir, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert main(["convert", str(rs3_dir), "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trees extracted" in printed
        corpus = read_canonical(out)
        assert len(corpus) == 3
        assert {d.genre for d in corpus.documents} == {"news"}

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
        corpus = read_canonical(out)
        assert len(corpus) == forest_corpus.n_kept

    def test_canonical_input_remap_only(self, gold_file, tmp_path):
        out = tmp_path / "remapped.jsonl"
        assert main(["preprocess", str(gold_file), "-o", str(out)]) == 0
        assert len(read_canonical(out)) == 4


class TestDumpRemapTable:
    def test_prints_rules(self, capsys):
        assert main(["dump-remap-table"]) == 0
        out = capsys.readouterr().out
        assert "antithesis\tattribution" in out
        assert "background_NS\telaboration_SN" in out


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
        write_canonical(Corpus.from_documents("c", [doc]), path)
        assert main(["stats", str(path)]) == 1  # boundaries required
        assert main(["stats", str(path), "--no-spanned"]) == 0

    @pytest.mark.parametrize("by_genre", [[], ["--by-genre"]])
    def test_repeated_id_is_a_user_error(self, gold_file, tmp_path, by_genre, capsys):
        dup = _with_repeated_line(gold_file, tmp_path)
        assert main(["stats", str(dup), *by_genre]) == 1
        assert "doc0" in capsys.readouterr().err


class TestSegmenterCommands:
    def test_train_then_segment(self, tmp_path, capsys):
        # A corpus whose EDU boundaries always follow commas is learnable
        # by the comma features alone.
        from rstkit.core import Token, DocumentRecord

        docs = []
        for i in range(6):
            words = []
            for j in range(4):
                words.extend([f"w{j}a", f"w{j}b", ","])
            tokens = tuple(Token(w, 4 * k, k) for k, w in enumerate(words))
            edus = tuple(EduSpan(3 * j, 3 * j + 2) for j in range(4))
            docs.append(
                DocumentRecord(
                    doc_id=f"t{i}", genre="g", lang="en", tokens=tokens, edus=edus
                )
            )
        train_path = tmp_path / "train.jsonl"
        write_canonical(Corpus.from_documents("c", docs), train_path)
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
        segmented = read_canonical(out_path)
        gold = read_canonical(train_path)
        for doc in segmented.documents:
            assert doc.tree is None
            assert doc.edus == gold.get(doc.doc_id).edus  # perfectly learnable

    @pytest.mark.parametrize("flag", [["--epochs", "0"], ["--epochs", "-1"],
                                      ["--buckets", "0"], ["--buckets", "-3"]])
    def test_non_positive_settings_are_user_errors(self, gold_file, tmp_path, flag,
                                                   capsys):
        out = tmp_path / "model.npz"
        assert main(["train-segmenter", str(gold_file), "-o", str(out), *flag]) == 1
        assert f"{flag[0][2:]} must be >= 1, got {flag[1]}" in capsys.readouterr().err
        assert not out.exists()

    def test_segment_rejects_repeated_input_id(self, gold_file, tmp_path, capsys):
        model = tmp_path / "model.npz"
        assert main(["train-segmenter", str(gold_file), "-o", str(model),
                     "--epochs", "1", "--buckets", "8"]) == 0
        dup = _with_repeated_line(gold_file, tmp_path)
        assert main(["segment", str(model), str(dup), "-o", str(tmp_path / "s")]) == 1
        assert "duplicate document id doc0" in capsys.readouterr().err


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

    def test_parse_requires_exactly_one_mode(self, gold_file, tmp_path):
        assert (
            main(["parse", str(gold_file), "-o", str(tmp_path / "x"), "--oracle",
                  "--baseline", "joint_NN"])
            == 1
        )
        assert main(["parse", str(gold_file), "-o", str(tmp_path / "x")]) == 1

    def test_parse_rejects_repeated_input_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=2)
        assert main(["parse", str(dup), "-o", str(tmp_path / "x"), "--oracle"]) == 1
        assert "duplicate document id doc2" in capsys.readouterr().err

    def test_eval_rejects_repeated_gold_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=1)
        assert main(["eval", str(dup), str(gold_file)]) == 1
        assert "duplicate document id doc1" in capsys.readouterr().err

    def test_eval_rejects_repeated_prediction_id(self, gold_file, tmp_path, capsys):
        dup = _with_repeated_line(gold_file, tmp_path, index=3)
        assert main(["eval", str(gold_file), str(dup)]) == 1
        assert "duplicate document id doc3" in capsys.readouterr().err

    def test_eval_rejects_prediction_without_gold(self, gold_file, tmp_path, capsys):
        lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
        gold = tmp_path / "gold_part.jsonl"
        gold.write_text("".join(lines[1:]), encoding="utf-8")
        assert main(["eval", str(gold), str(gold_file)]) == 1
        assert "doc0" in capsys.readouterr().err
        # --genre skips documents of other genres, predictions included
        assert main(["eval", str(gold_file), str(gold), "--genre", "news"]) == 0

    def test_mismatched_edus_need_end_to_end(self, gold_file, tmp_path, capsys):
        gold = read_canonical(gold_file)
        docs = []
        for doc in gold.documents:
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
        for gold_doc, pred_doc in zip(gold.documents, docs):
            rebuilt.append(
                DocumentRecord(
                    doc_id=gold_doc.doc_id,
                    genre=gold_doc.genre,
                    lang=gold_doc.lang,
                    tokens=gold_doc.tokens,
                    edus=pred_doc.edus,
                    tree=pred_doc.tree,
                    sentence_boundaries=gold_doc.sentence_boundaries,
                    split=gold_doc.split,
                )
            )
        write_canonical(Corpus.from_documents("pred", rebuilt), pred_path)
        assert main(["eval", str(gold_file), str(pred_path)]) == 1
        capsys.readouterr()
        assert main(["eval", str(gold_file), str(pred_path), "--end-to-end"]) == 0
        assert "Segm." in capsys.readouterr().out


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
        out_path = tmp_path / "weights.csv"
        assert main(["dwa-sim", str(losses), "-b", "1", "-o", str(out_path)]) == 0
        assert out_path.exists()

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
