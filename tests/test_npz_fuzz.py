"""A seeded fuzzer for the ``.npz`` models that ``segment`` reads.

Each case writes the archive that ``save_model`` writes for a small seeded
segmenter, applies one or two seeded mutations to its arrays or to the
archive itself, and runs ``segment`` with it through ``cli.main``, in
process.  Whatever the model, the command exits 0 or 1, never 2 (an
internal error).  An exit 1 leaves no output file and prints one line of
at most 300 bytes that names the model path.
"""

import gc
import io
import random
import warnings
import zipfile

import numpy as np
import pytest

from rstkit.cli import main
from rstkit.crf import CrfModel, HashedWindowFeatures, save_model

from helpers import workload_document, write_corpus

CASES = 400
N_BUCKETS = 8
FLOAT_BLOCKS = ("emission", "transition", "start", "stop")


def model_arrays(rng: random.Random) -> dict[str, np.ndarray]:
    """The members of a valid model archive, by key."""
    extractor = HashedWindowFeatures(N_BUCKETS)
    rows = np.random.default_rng(rng.randrange(2**32))
    model = CrfModel(("B", "I"), rows.normal(size=(2, extractor.dim)),
                     rows.normal(size=(2, 2)), rows.normal(size=2), rows.normal(size=2))
    buffer = io.BytesIO()
    save_model(model, buffer, extractor)
    buffer.seek(0)
    with np.load(buffer) as data:
        return dict(data)


def drop_key(rng, arrays):
    del arrays[rng.choice(sorted(arrays))]


def wrong_dtype(rng, arrays):
    key = rng.choice(sorted(arrays))
    a = arrays[key]
    kind = rng.choice(("int", "complex", "str"))
    if kind == "str":
        arrays[key] = a.astype(str)
    elif a.dtype.kind == "U":
        arrays[key] = np.ones(a.shape, dtype=kind)
    else:
        a = np.nan_to_num(a, nan=0.0, posinf=0.0, neginf=0.0)  # a cast to int warns
        arrays[key] = a.real.astype(kind) if kind == "int" else a + 0.5j


def wrong_shape(rng, arrays):
    key = rng.choice(sorted(arrays))
    a = arrays[key]
    arrays[key] = rng.choice((a.reshape(-1)[: max(a.size - 1, 0)], np.stack([a, a]),
                              a[None], a.reshape(-1)))


def not_finite(rng, arrays):
    keys = [k for k in FLOAT_BLOCKS if k in arrays and arrays[k].dtype.kind == "f"
            and arrays[k].size]  # an earlier mutation may have taken them all
    if keys:
        key = rng.choice(keys)
        arrays[key] = arrays[key].copy()
        arrays[key].flat[rng.randrange(arrays[key].size)] = rng.choice(
            (np.nan, np.inf, -np.inf))


def label_count(rng, arrays):
    labels = rng.choice((["B"], ["B", "I", "O"]))
    arrays["labels"] = np.array(labels)
    if rng.random() < 0.5:  # blocks that fit the labels, so later checks run
        n, width = len(labels), HashedWindowFeatures(N_BUCKETS).dim
        for key, shape in zip(FLOAT_BLOCKS, ((n, width), (n, n), n, n)):
            if key in arrays:
                arrays[key] = np.resize(arrays[key], shape)


def bad_version(rng, arrays):
    arrays["version"] = rng.choice((np.array(2), np.array([1, 1])))


def bad_buckets(rng, arrays):
    arrays["n_buckets"] = rng.choice((np.array(0), np.array(-N_BUCKETS), np.array(0.5),
                                      np.array(N_BUCKETS + 0.5), np.array(N_BUCKETS + 1)))


ARRAY_MUTATIONS = (drop_key, wrong_dtype, wrong_shape, not_finite, label_count,
                   bad_version, bad_buckets)


def truncated(rng, data: bytes) -> bytes:
    return data[:rng.randrange(len(data))]


def not_a_zip(rng, data: bytes) -> bytes:
    npy = io.BytesIO()
    np.save(npy, np.arange(3.0))
    return rng.choice((b"", b"not a model\n", npy.getvalue(), data[::-1]))


def member_not_npy(rng, data: bytes) -> bytes:
    """A member renamed without ``.npy``, or an ``.npy`` member of other bytes."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as old, zipfile.ZipFile(out, "w") as new:
        victim = rng.choice(old.namelist())
        for name in old.namelist():
            body = old.read(name)
            if name == victim:
                if rng.random() < 0.5:
                    name = name.removesuffix(".npy")
                else:
                    body = rng.choice((b"", b"\x93NUMPY garbage", body[: len(body) // 2]))
            new.writestr(name, body)
    return out.getvalue()


ARCHIVE_MUTATIONS = (truncated, not_a_zip, member_not_npy)


def archive(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def mutated(seed: int) -> tuple[bytes, list[str]]:
    """A seeded model archive with one or two mutations, and their names."""
    rng = random.Random(seed)
    arrays = model_arrays(rng)
    names = []
    for mutation in rng.sample(ARRAY_MUTATIONS, rng.choice((0, 1, 1, 2))):
        mutation(rng, arrays)
        names.append(mutation.__name__)
    data = archive(arrays)
    if not names or rng.random() < 0.3:
        mutation = rng.choice(ARCHIVE_MUTATIONS)
        data = mutation(rng, data)
        names.append(mutation.__name__)
    return data, names


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = random.Random(5)
    path = tmp_path_factory.mktemp("npz_fuzz") / "test.jsonl"
    write_corpus([workload_document(rng, f"d{i}", rng.randint(1, 6), split="test")
                  for i in range(3)], path)
    return path


def _run(tmp_path, data: bytes, corpus, capsys):
    path = tmp_path / "seg.npz"
    path.write_bytes(data)
    out = tmp_path / "segd.jsonl"
    if out.exists():
        out.unlink()
    code = main(["segment", str(path), str(corpus), "-o", str(out)])
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


def test_mutated_model_exits_0_or_1_with_one_short_line(tmp_path, corpus, capsys):
    for seed in range(CASES):
        data, names = mutated(seed)
        _check(*_run(tmp_path, data, corpus, capsys), [seed, *names])


@pytest.mark.parametrize("mutation", [*ARRAY_MUTATIONS, *ARCHIVE_MUTATIONS],
                         ids=lambda mutation: mutation.__name__)
def test_each_mutation_alone_is_a_user_error_or_a_model(mutation, tmp_path, corpus, capsys):
    for seed in range(12):
        rng = random.Random(seed)
        arrays = model_arrays(rng)
        if mutation in ARRAY_MUTATIONS:
            mutation(rng, arrays)
            data = archive(arrays)
        else:
            data = mutation(rng, archive(arrays))
        _check(*_run(tmp_path, data, corpus, capsys), [seed, mutation.__name__])


# Regression tests: what the fuzzer found, one case each.


def _segment(tmp_path, corpus, capsys, arrays=None, data=None):
    code, err, path, out = _run(tmp_path, archive(arrays) if data is None else data,
                                corpus, capsys)
    _check(code, err, path, out, [])
    return code, err


def test_member_that_is_not_npy_is_a_user_error(tmp_path, corpus, capsys):
    # np.load hands such a member over as bytes, which crashed with exit 2
    data = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(archive(model_arrays(random.Random(0))))) as old, \
            zipfile.ZipFile(data, "w") as new:
        for name in old.namelist():
            new.writestr(name, b"not an array" if name == "start.npy" else old.read(name))
    code, err = _segment(tmp_path, corpus, capsys, data=data.getvalue())
    assert code == 1 and "member 'start' is not an .npy array" in err


def test_an_archive_that_fails_to_open_leaves_no_file_open(tmp_path, corpus, capsys):
    data = archive(model_arrays(random.Random(0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _segment(tmp_path, corpus, capsys, data=data[: len(data) // 2])
        gc.collect()
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("key", FLOAT_BLOCKS)
def test_complex_blocks_are_rejected_not_cast(key, tmp_path, corpus, capsys):
    # a complex block once segmented with its imaginary parts dropped
    arrays = model_arrays(random.Random(0))
    arrays[key] = arrays[key] + 0.5j
    code, err = _segment(tmp_path, corpus, capsys, arrays)
    assert code == 1 and "Cannot cast array data from dtype('complex128')" in err


@pytest.mark.parametrize("key, value", [("version", np.array([1])),
                                        ("n_buckets", np.array(N_BUCKETS + 0.5))])
def test_scalars_must_be_one_integer(key, value, tmp_path, corpus, capsys):
    # version [1] and n_buckets 8.5 were once read as 1 and 8
    arrays = model_arrays(random.Random(0))
    arrays[key] = value
    code, err = _segment(tmp_path, corpus, capsys, arrays)
    assert code == 1 and f"{key} must be one integer, got {value.dtype}" in err
