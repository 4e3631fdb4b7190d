"""A seeded fuzzer for ``.rs3`` input.

Each case writes one well-formed ``.rs3`` file from ``helpers``, applies one
or two seeded mutations to it and runs ``convert`` or ``preprocess`` on it
through ``cli.main``, in process.  Whatever the input, the command exits 0
or 1, never 2 (an internal error).  An exit 1 leaves no output file and
prints one line of at most 300 bytes that names the input path.
"""

import copy
import random
import xml.etree.ElementTree as ET

import pytest

from rstkit.cli import main

from helpers import serialize_rs3, workload_document

CASES = 600  # 5,000 seeds found no crash


def _nodes(root):
    return [node for node in root.iter() if node.tag in ("segment", "group")]


def drop_node(rng, root):
    root.find("body").remove(rng.choice(_nodes(root)))


def duplicate_node(rng, root):
    node = copy.deepcopy(rng.choice(_nodes(root)))
    if rng.random() < 0.5:  # under a fresh id, or under its own
        node.set("id", str(1 + max(int(n.get("id")) for n in _nodes(root))))
    root.find("body").append(node)


def dangling_parent(rng, root):
    rng.choice(_nodes(root)).set("parent", "999999")


def undeclared_relname(rng, root):
    node = rng.choice(_nodes(root))
    node.set("parent", rng.choice(_nodes(root)).get("id"))
    node.set("relname", "undeclared")


def parent_cycle(rng, root):
    a, b = rng.sample(_nodes(root), 2)
    a.set("parent", b.get("id"))
    b.set("parent", a.get("id"))
    for node in (a, b):
        node.set("relname", rng.choice(("span", node.get("relname") or "span")))


def empty_segment(rng, root):
    rng.choice(root.findall("body/segment")).text = rng.choice(("", " ", None))


STRUCTURAL = (drop_node, duplicate_node, dangling_parent, undeclared_relname,
              parent_cycle, empty_segment)


def truncated(rng, data: bytes) -> bytes:
    return data[:rng.randrange(len(data))]


BAD_UTF8 = (b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80")  # a surrogate


def bad_utf8(rng, data: bytes) -> bytes:
    at = rng.randrange(data.index(b"<segment"), len(data))
    return data[:at] + rng.choice(BAD_UTF8) + data[at:]


def mutated(seed: int) -> tuple[bytes, list[str]]:
    """A seeded ``.rs3`` file with one or two mutations, and their names."""
    rng = random.Random(seed)
    doc = workload_document(rng, "GUM_news_fuzz", rng.randint(2, 12))
    root = ET.fromstring(serialize_rs3(doc))
    names = []
    for mutation in rng.sample(STRUCTURAL, rng.choice((0, 1, 1, 2))):
        mutation(rng, root)
        names.append(mutation.__name__)
    data = ET.tostring(root, encoding="utf-8", xml_declaration=True)
    if not names or rng.random() < 0.3:
        mutation = rng.choice((truncated, bad_utf8))
        data = mutation(rng, data)
        names.append(mutation.__name__)
    return data, names


def _run(tmp_path, data: bytes, command: str, capsys):
    path = tmp_path / "GUM_news_fuzz.rs3"
    path.write_bytes(data)
    out = tmp_path / "out.jsonl"
    if out.exists():
        out.unlink()
    code = main([command, str(path), "-o", str(out)])
    return code, capsys.readouterr().err, path, out


def _check(code, err, path, out, names):
    assert code in (0, 1), (names, err)
    if code == 0:
        assert out.exists()
        return
    assert not out.exists(), names
    assert err.count("\n") == 1 and err.endswith("\n"), (names, err)
    assert len(err.encode("utf-8")) <= 300, (names, err)
    assert str(path) in err, (names, err)


def test_mutated_rs3_exits_0_or_1_with_one_short_line(tmp_path, capsys):
    for seed in range(CASES):
        data, names = mutated(seed)
        command = ("convert", "preprocess")[seed % 2]
        _check(*_run(tmp_path, data, command, capsys), [seed, command, *names])


@pytest.mark.parametrize("mutation", [*STRUCTURAL, truncated, bad_utf8],
                         ids=lambda mutation: mutation.__name__)
def test_each_mutation_alone_is_a_user_error_or_a_document(mutation, tmp_path, capsys):
    for seed in range(12):
        rng = random.Random(seed)
        doc = workload_document(rng, "GUM_news_fuzz", rng.randint(2, 12))
        data = serialize_rs3(doc)
        if mutation in STRUCTURAL:
            root = ET.fromstring(data)
            mutation(rng, root)
            data = ET.tostring(root, encoding="utf-8", xml_declaration=True)
        else:
            data = mutation(rng, data)
        _check(*_run(tmp_path, data, "convert", capsys), [seed, mutation.__name__])
