"""Seeded mutation test of the line-based input formats.

Each case starts from a valid file of one of the seven formats read line by
line (canonical corpus, ``--sents``, score dump, ``--split-map``,
``--inventory``, ``--remap`` rules and the ``dwa-sim`` loss log), mutates
one line, and runs the command that reads it through ``cli.main`` in
process.  The command must exit 0 or 1, never 2; on exit 1 it prints one
line of at most 300 bytes, ``rstkit: error: <path>: line N: ...``, naming
the mutated line, and leaves no output file.

A mutation cuts a line at a random byte (the line keeps at least one byte,
so it is cut, not removed), repeats a line, or replaces a line by ``[]``,
``null`` or a Cyrillic word.  A value mutation changes one value of a
canonical line (a token offset, an EDU bound or a sentence boundary) or of
a score line (a score, an index or the length of the vector) to ``NaN``,
``Infinity``, ``1e400``, ``-1``, ``1.5``, ``true``, ``null``, ``"3"``,
``[]`` or an index out of range.
"""

import json
import random
import re

import pytest

from rstkit.cli import main
from rstkit.core import DocumentRecord
from rstkit.decoder import OracleProvider
from rstkit.preprocess import default_rrt_remap_table
from rstkit.treebank import encode_record

from helpers import random_edus, random_tree, serialize_rs3

SEED = 2024
ROUNDS = 16  # cases per format and mutation, about 2 s in all
WORDS = ("the", "Привет", "мир", ",", "discourse", "«", "связь", "»", "don't", ".")
# labels the default remap rules rewrite, so a bad replacement gets applied
LABELS = ("background_NS", "cause_NS", "elaboration_SN", "joint_NN", "restatement_SN")
REPLACEMENTS = (b"[]", b"null", "Привет".encode("utf-8"))


def _documents(rng):
    docs = []
    for i in range(3):
        n = rng.randint(3, 5)
        edus = random_edus(rng, n)
        texts = [rng.choice(WORDS) for _ in range(edus[-1].last_token + 1)]
        starts, offset = [], 0
        for text in texts:
            starts.append(offset)
            offset += len(text) + 1
        docs.append(DocumentRecord(
            doc_id=f"GUM_news_{i}", genre="news", lang="ru", tokens=tuple(texts),
            char_starts=tuple(starts), edus=edus, tree=random_tree(rng, n, LABELS),
            sentence_boundaries=(0,),
        ))
    return docs


def _score_lines(doc, labels):
    provider = OracleProvider(doc.tree, labels)
    n = len(doc.edus)
    for start in range(n):
        for end in range(start + 2, n + 1):
            yield {"doc": doc.doc_id, "kind": "split", "start": start, "end": end,
                   "scores": provider.split_scores(start, end)}
            for split in range(start + 1, end):
                left, right = [start, split], [split, end]
                yield {"doc": doc.doc_id, "kind": "label", "left": left,
                       "right": right, "scores": provider.label_scores(left, right)}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid file of each format, and the command that reads it: its
    argv with ``FILE`` for the file and ``OUT`` for the output, if any."""
    work = tmp_path_factory.mktemp("valid")
    rng = random.Random(SEED)
    docs = _documents(rng)
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(f"{encode_record(d)}\n" for d in docs), encoding="utf-8")
    labels = sorted({node.label.merged for d in docs for node in d.tree.internal_nodes()})
    inventory = work / "labels.txt"
    inventory.write_text("".join(f"{label}\n" for label in labels), encoding="utf-8")
    rs3 = work / "rs3"
    rs3.mkdir()
    for doc in docs:
        (rs3 / f"{doc.doc_id}.rs3").write_bytes(serialize_rs3(doc))
    losses = ["a,b,c"] + [",".join(f"{rng.uniform(0.5, 20):.3f}" for _ in range(3))
                          for _ in range(30)]
    return {
        "canonical": ("".join(f"{encode_record(d)}\n" for d in docs),
                      ["preprocess", "FILE", "-o", "OUT"]),
        "sents": ("".join(f"{d.doc_id}\t0 {len(d.tokens) // 2}\n" for d in docs),
                  ["stats", str(corpus), "--sents", "FILE"]),
        "scores": ("".join(f"{json.dumps(line, ensure_ascii=False)}\n"
                           for d in docs for line in _score_lines(d, labels)),
                   ["parse", str(corpus), "-o", "OUT", "--scores", "FILE",
                    "--inventory", str(inventory), "--beam", "2"]),
        "split-map": ("# id\tsplit\n" + "".join(f"{d.doc_id}\t{s}\n" for d, s in
                                                zip(docs, ("train", "dev", "test"))),
                      ["convert", str(rs3), "-o", "OUT", "--split-map", "FILE"]),
        "inventory": ("".join(f"{label}\n" for label in labels),
                      ["parse", str(corpus), "-o", "OUT", "--oracle", "--inventory",
                       "FILE"]),
        "remap": (default_rrt_remap_table().as_text(),
                  ["preprocess", str(corpus), "-o", "OUT", "--remap", "FILE"]),
        "losses": ("".join(f"{row}\n" for row in losses),
                   ["dwa-sim", "FILE", "-o", "OUT"]),
    }


def _mutate(rng, data: bytes, kind: str) -> tuple[bytes, int]:
    """``data`` with one line mutated, and the 1-based number of the line
    an error should name."""
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    line = lines[i].rstrip(b"\n")
    if kind == "cut":
        lines[i] = line[: rng.randrange(1, len(line))] + b"\n"
        return b"".join(lines), i + 1
    if kind == "repeat":
        lines.insert(i + 1, lines[i])
        return b"".join(lines), i + 2
    lines[i] = rng.choice(REPLACEMENTS) + b"\n"
    return b"".join(lines), i + 1


@pytest.mark.parametrize("kind", ["cut", "repeat", "replace"])
@pytest.mark.parametrize("fmt", ["canonical", "sents", "scores", "split-map",
                                 "inventory", "remap", "losses"])
def test_a_mutated_line_exits_one_naming_it_or_passes(inputs, fmt, kind, tmp_path,
                                                      capsys):
    text, argv = inputs[fmt]
    rng = random.Random(f"{SEED}:{fmt}:{kind}")
    for round_ in range(ROUNDS):
        data, line = _mutate(rng, text.encode("utf-8"), kind)
        path = tmp_path / f"{fmt}_{round_}.in"
        path.write_bytes(data)
        out = tmp_path / f"{fmt}_{round_}.out"
        code = main([{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv])
        err = capsys.readouterr().err
        case = f"{fmt} {kind} line {line}: {data.splitlines()[line - 1]!r}"
        assert code in (0, 1), f"{case}\n{err}"
        if code == 1:
            assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300, case
            prefix = f"rstkit: error: {re.escape(str(path))}: line {line}: "
            assert re.match(prefix, err), f"{case}\n{err}"
            assert not out.exists(), case


VALUES = ("NaN", "Infinity", "1e400", "-1", "1.5", "true", "null", '"3"', "[]")
VALUE_ROUNDS = 150  # cases per format, about 0.6 s in all


def _mutate_value(rng, data: bytes, fmt: str) -> tuple[bytes, int]:
    """``data`` with one value of one line changed, and the 1-based number
    of that line."""
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    obj = json.loads(lines[i])
    if fmt == "canonical":
        n = len(obj["tokens"])
        holder, key = rng.choice([(pair, 1) for pair in obj["tokens"]]
                                 + [(edu, k) for edu in obj["edus"] for k in (0, 1)]
                                 + [(obj["sents"], k) for k in range(len(obj["sents"]))])
    else:
        n = obj["end"] if obj["kind"] == "split" else obj["right"][1]
        vector = obj["scores"]
        if rng.random() < 0.2:  # the vector's length
            if vector and rng.random() < 0.5:
                vector.pop(rng.randrange(len(vector)))
            else:
                vector.insert(rng.randrange(len(vector) + 1), 0.0)
            lines[i] = f"{json.dumps(obj, ensure_ascii=False)}\n".encode("utf-8")
            return b"".join(lines), i + 1
        indices = ([(obj, "start"), (obj, "end")] if obj["kind"] == "split"
                   else [(obj[side], k) for side in ("left", "right") for k in (0, 1)])
        holder, key = rng.choice([(vector, k) for k in range(len(vector))] + indices)
    # and indices at and past the end of the document's tokens or EDUs
    value = rng.choice(VALUES + (str(n), str(n + 1), str(2**63)))
    holder[key] = "\x00"
    text = json.dumps(obj, ensure_ascii=False).replace('"\\u0000"', value)
    lines[i] = f"{text}\n".encode("utf-8")
    return b"".join(lines), i + 1


@pytest.mark.parametrize("fmt", ["canonical", "scores"])
def test_a_mutated_value_exits_one_naming_its_line_or_passes(inputs, fmt, tmp_path,
                                                             capsys):
    text, argv = inputs[fmt]
    rng = random.Random(f"{SEED}:{fmt}:value")
    for round_ in range(VALUE_ROUNDS):
        data, line = _mutate_value(rng, text.encode("utf-8"), fmt)
        path = tmp_path / f"{fmt}_{round_}.in"
        path.write_bytes(data)
        out = tmp_path / f"{fmt}_{round_}.out"
        code = main([{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv])
        err = capsys.readouterr().err
        case = f"{fmt} value line {line}: {data.splitlines()[line - 1]!r}"
        assert code in (0, 1), f"{case}\n{err}"
        if code == 1:
            assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300, case
            named = [f"rstkit: error: {path}: line {line}: "]
            if fmt == "scores":
                # Decoding the document finds a label vector that is not as
                # long as the inventory, and a range that no line holds.
                doc = json.loads(data.splitlines()[line - 1])["doc"]
                named.append(f"rstkit: error: {path}: {doc}: ")
            assert err.startswith(tuple(named)), f"{case}\n{err}"
            assert not out.exists(), case
