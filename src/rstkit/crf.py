"""Linear-chain CRF for EDU boundary labeling.

Tokens are tagged with a {B, I} scheme (every token belongs to some EDU, so
there is no O tag); the document-initial token is always a boundary.  The
chain scores a path as

    score(y | X) = start[y_0] + sum_t x_t . W[y_t]
                 + sum_{t>0} T[y_{t-1}, y_t] + stop[y_T]

and all probability computations run in log space: the partition function
comes from the forward algorithm with log-sum-exp, never from probability-
space sums, so long documents do not underflow.  Forward, backward and
Viterbi are one associative scan over the per-token transition matrices
(Hillis-Steele doubling, O(log T) numpy calls), in the log-sum-exp and the
max-plus semiring respectively.

Features are SparseFeatures: fixed-width index and value rows that give
emission scores and the emission gradient without building the matrix.
HashedWindowFeatures builds them: it hashes a lexical window (current,
previous, next token) and adds punctuation indicators, eight entries per token,
computed once per distinct token; comma features matter because Russian
EDUs lean heavily on commas.
"""

from __future__ import annotations

import math
import re
import zipfile
import zlib
from typing import Iterable, Sequence

import numpy as np

from .core import DocumentRecord, EduSpan, RstError, _Value

__all__ = [
    "CrfModel",
    "TrainConfig",
    "HashedWindowFeatures",
    "SparseFeatures",
    "viterbi",
    "log_likelihood",
    "train",
    "labels_to_edus",
    "edus_to_labels",
    "document_labels",
    "dataset_from_corpus",
    "save_model",
    "load_model",
]

DEFAULT_LABELS = ("B", "I")


class CrfModel(_Value):
    """Parameters of a linear-chain CRF: ``emission`` is ``[labels,
    feature_dim]``, ``transition`` ``[labels, labels]`` (from -> to),
    ``start`` and ``stop`` ``[labels]``.  A single writer may mutate
    them, so a model compares by identity and is unhashable."""

    __slots__ = _fields = ("labels", "emission", "transition", "start", "stop")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __eq__ = object.__eq__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, labels: Sequence[str], emission: np.ndarray,
                 transition: np.ndarray, start: np.ndarray, stop: np.ndarray) -> None:
        labels = tuple(labels)
        n = len(labels)
        if n < 2:
            raise RstError("label set must have at least two labels")
        if emission.ndim != 2 or emission.shape[0] != n:
            raise RstError("emission weights must be [labels, features]")
        if transition.shape != (n, n):
            raise RstError("transition matrix must be [labels, labels]")
        if start.shape != (n,) or stop.shape != (n,):
            raise RstError("start/stop must be [labels]")
        for arr in (emission, transition, start, stop):
            if not np.all(np.isfinite(arr)):
                raise RstError("model parameters must be finite")
        self._fill(locals())

    @property
    def feature_dim(self) -> int:
        return self.emission.shape[1]

    @classmethod
    def create(cls, feature_dim: int) -> "CrfModel":
        """Zero-initialized model over :data:`DEFAULT_LABELS`."""
        n = len(DEFAULT_LABELS)
        return cls(DEFAULT_LABELS, np.zeros((n, feature_dim)), np.zeros((n, n)),
                   np.zeros(n), np.zeros(n))

    def clone(self) -> "CrfModel":
        return CrfModel(
            self.labels,
            self.emission.copy(),
            self.transition.copy(),
            self.start.copy(),
            self.stop.copy(),
        )


def _check_features(model: CrfModel, features: SparseFeatures) -> None:
    if not isinstance(features, SparseFeatures):
        raise RstError(
            f"features must be SparseFeatures, got {type(features).__name__}"
        )
    if features.shape[1] != model.feature_dim:
        raise RstError(
            f"features must be [seq_len, {model.feature_dim}], "
            f"got {features.shape}"
        )
    if features.shape[0] < 1:
        raise RstError("sequence must have at least one position")


def _gold_indices(model: CrfModel, gold: Sequence[str], seq_len: int) -> np.ndarray:
    if len(gold) != seq_len:
        raise RstError(f"gold length {len(gold)} != sequence length {seq_len}")
    index = {label: i for i, label in enumerate(model.labels)}
    try:
        return np.fromiter(map(index.__getitem__, gold), np.intp, seq_len)
    except KeyError as exc:
        raise RstError(f"unknown label {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# Inference: one associative scan in two semirings
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, overwriting ``a``."""
    m = a.max(axis=axis, keepdims=True)
    a -= m
    np.exp(a, out=a)
    out = a.sum(axis=axis, keepdims=True)
    np.log(out, out=out)
    out += m
    return out.squeeze(axis)


def _log_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product in the log semiring: log(exp(a) @ exp(b))."""
    return _logsumexp(a[:, :, None, :] + b[None, :, :, :], 1)


def _max_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product in the max-plus semiring."""
    return (a[:, :, None, :] + b[None, :, :, :]).max(axis=1)


def _scan(mats: np.ndarray, combine, reverse: bool = False) -> np.ndarray:
    """Inclusive products ``mats[..., 0] .. mats[..., t]`` for every t, or
    with ``reverse`` ``mats[..., t] .. mats[..., -1]``, under an associative
    batched ``combine``: Hillis-Steele doubling, ceil(log2 n) combines.

    ``mats`` is ``[L, L, n]``, a batch of n matrices along the last axis, so
    that every reduction runs over contiguous memory.
    """
    out = mats.copy()
    step = 1
    while step < out.shape[-1]:
        if reverse:
            out[..., :-step] = combine(out[..., :-step], out[..., step:])
        else:
            out[..., step:] = combine(out[..., :-step], out[..., step:])
        step *= 2
    return out


def _step_matrices(model: CrfModel, emissions: np.ndarray) -> np.ndarray:
    """``[L, L, seq_len]``: matrix t > 0 is ``T[i, j] + e_t[j]``; matrix 0
    has every row equal to ``start + e_0``, so row 0 of the product of
    matrices 0..t is the forward vector at t."""
    mats = model.transition[:, :, None] + emissions[None, :, :]
    mats[:, :, 0] = model.start + emissions[:, 0]
    return mats


def viterbi(model: CrfModel, features: SparseFeatures) -> list[str]:
    """Highest-scoring label path; ties resolve to the lower label index."""
    _check_features(model, features)
    mats = _step_matrices(model, features.scores(model.emission))
    v = _scan(mats, _max_matmul)[0]  # [labels, seq_len]
    # back[t][j]: best label at t before label j at t + 1 (first max = lowest)
    back = np.argmax(v[:, None, :-1] + model.transition[:, :, None], axis=0).T.tolist()
    label = int(np.argmax(v[:, -1] + model.stop))
    path = [label]
    for row in reversed(back):
        label = row[label]
        path.append(label)
    return [model.labels[i] for i in reversed(path)]


def log_likelihood(
    model: CrfModel, features: SparseFeatures, gold: Sequence[str]
) -> tuple[float, list[np.ndarray]]:
    """log p(gold | features) and its exact gradient, one block per
    parameter in the order emission, transition, start, stop.

    The forward and backward vectors are log-semiring scans, so the
    partition function never leaves log space; gradients are observed
    counts minus expected counts from the forward-backward marginals.
    """
    _check_features(model, features)
    emissions = features.scores(model.emission)  # [labels, seq_len]
    n, seq_len = emissions.shape
    gold_idx = _gold_indices(model, gold, seq_len)

    mats = _step_matrices(model, emissions)
    alpha = _scan(mats, _log_matmul)[0]
    # beta[i, t]: log-sum over label paths from label i at t to the stop
    final = np.broadcast_to(model.stop[:, None, None], (n, n, 1))
    beta = _scan(
        np.concatenate([mats[:, :, 1:], final], axis=2), _log_matmul, reverse=True
    )[:, 0]
    log_z = float(_logsumexp(alpha[:, -1] + model.stop, 0))

    steps = np.arange(seq_len)
    gold_score = float(
        model.start[gold_idx[0]]
        + emissions[gold_idx, steps].sum()
        + model.transition[gold_idx[:-1], gold_idx[1:]].sum()
        + model.stop[gold_idx[-1]]
    )

    # Unary marginals p(y_t = l) and residuals (observed - expected).
    unary = np.exp(alpha + beta - log_z)  # [labels, seq_len]
    residual = -unary
    residual[gold_idx, steps] += 1.0

    grad_emission = features.backprop(residual)
    grad_start = residual[:, 0].copy()
    grad_stop = -unary[:, -1]
    grad_stop[gold_idx[-1]] += 1.0
    # Pairwise marginals p(y_{t-1} = i, y_t = j), summed over t.
    pairwise = np.exp(alpha[:, None, :-1] + mats[:, :, 1:] + beta[None, :, 1:] - log_z)
    grad_transition = -pairwise.sum(axis=2)
    np.add.at(grad_transition, (gold_idx[:-1], gold_idx[1:]), 1.0)

    return gold_score - log_z, [grad_emission, grad_transition, grad_start, grad_stop]


class TrainConfig(_Value):
    __slots__ = _fields = ("epochs", "learning_rate", "l2", "seed")

    def __init__(self, epochs: int = 100, learning_rate: float = 0.2,
                 l2: float = 0.0, seed: int = 13) -> None:
        if epochs < 1:
            raise RstError(f"epochs must be >= 1, got {epochs}")
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise RstError(f"learning rate must be finite and > 0, got {learning_rate}")
        if not (math.isfinite(l2) and l2 >= 0):
            raise RstError(f"l2 must be finite and >= 0, got {l2}")
        self._fill(locals())


class _Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, shapes: list[tuple[int, ...]], learning_rate: float) -> None:
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            v += (1 - self.BETA2) * g * g
            step = m / (1 - self.BETA1**self.t)  # learning_rate * m_hat
            step *= self.learning_rate
            den = v / (1 - self.BETA2**self.t)  # sqrt(v_hat) + EPS
            np.sqrt(den, out=den)
            den += self.EPS
            step /= den
            p -= step


def train(
    model: CrfModel,
    dataset: Sequence[tuple[SparseFeatures, Sequence[str]]],
    config: TrainConfig = TrainConfig(),
) -> tuple[CrfModel, list[float]]:
    """Minimize the per-sequence negative log-likelihood with Adam.

    Updates are applied sequence by sequence in a seeded shuffle order, so
    runs with the same seed produce bit-identical loss curves.  Returns the
    trained model (a copy; the input model is untouched) and the curve of
    mean NLL per epoch.
    """
    if not dataset:
        raise RstError("no training sequences")
    model = model.clone()
    params = [model.emission, model.transition, model.start, model.stop]
    opt = _Adam([p.shape for p in params], config.learning_rate)
    rng = np.random.default_rng(config.seed)
    curve = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        for i in order:
            features, gold = dataset[i]
            ll, grads = log_likelihood(model, features, gold)
            total += -ll
            opt.step(params, [-g + config.l2 * p for g, p in zip(grads, params)])
        curve.append(total / len(dataset))
    return model, curve


# ---------------------------------------------------------------------------
# Labels <-> EDU spans
# ---------------------------------------------------------------------------


def labels_to_edus(labels: Sequence[str]) -> tuple[EduSpan, ...]:
    """Convert a {B, I} sequence to EDU spans.

    A span starts at every B and at token 0 regardless of its label (the
    document-initial boundary is forced), so the output always partitions
    the token range.
    """
    for label in labels:
        if label not in ("B", "I"):
            raise RstError(f"labels must be 'B' or 'I', got {label!r}")
    if not labels:
        return ()
    starts = [0] + [t for t in range(1, len(labels)) if labels[t] == "B"]
    ends = [s - 1 for s in starts[1:]] + [len(labels) - 1]
    return tuple(EduSpan(s, e) for s, e in zip(starts, ends))


def edus_to_labels(edus: Sequence[EduSpan], n_tokens: int) -> list[str]:
    starts = {edu.first_token for edu in edus}
    return ["B" if t in starts else "I" for t in range(n_tokens)]


def document_labels(doc: DocumentRecord) -> list[str]:
    """Gold {B, I} labels of a document's EDU segmentation."""
    return edus_to_labels(doc.edus, len(doc.tokens))


def dataset_from_corpus(
    corpus_docs: Iterable[DocumentRecord], extractor: HashedWindowFeatures
) -> list[tuple[SparseFeatures, list[str]]]:
    return [(extractor(doc.tokens), document_labels(doc)) for doc in corpus_docs]


# ---------------------------------------------------------------------------
# Feature extractors
# ---------------------------------------------------------------------------


def _buckets(prefix: str, words: list[bytes], n_buckets: int) -> list[int]:
    """CRC32 of ``prefix + word`` modulo ``n_buckets``, for every word; the
    prefix's CRC is the running start value of each word's CRC."""
    start = zlib.crc32(prefix.encode("utf-8"))
    return [zlib.crc32(w, start) % n_buckets for w in words]


_SENT_FINAL = {".", "!", "?", ";", ":"}
_alnum = re.compile(r"[^\W_]").search  # finds a character that str.isalnum accepts


class SparseFeatures(_Value):
    """Fixed-width sparse rows of a ``[seq_len, dim]`` feature matrix.

    Row t holds ``vals[t, j]`` at column ``idx[t, j]``; a column repeated
    within a row adds up (``idx`` int32 and ``vals`` float64, both
    ``[seq_len, k]``).  Emission scores and the emission gradient are the
    only operations inference needs, so the matrix is never built.
    Instances compare and hash by identity.
    """

    __slots__ = _fields = ("idx", "vals", "dim")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, idx: np.ndarray, vals: np.ndarray, dim: int) -> None:
        if idx.ndim != 2 or idx.shape != vals.shape:
            raise RstError("sparse idx and vals must be equal [seq_len, k]")
        if not np.issubdtype(idx.dtype, np.integer):
            raise RstError(f"sparse idx must be integers, got {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise RstError(f"sparse feature index outside [0, {dim})")
        self._fill(locals())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.idx.shape[0], self.dim)

    @property
    def nbytes(self) -> int:
        return self.idx.nbytes + self.vals.nbytes

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """``weights @ features.T``: ``[labels, seq_len]`` for ``[labels, dim]``."""
        return np.einsum("ltk,tk->lt", weights[:, self.idx], self.vals)

    def backprop(self, residual: np.ndarray) -> np.ndarray:
        """``residual @ features``: ``[labels, dim]`` for ``[labels, seq_len]``."""
        n_labels = residual.shape[0]
        cols = self.idx + self.dim * np.arange(n_labels)[:, None, None]
        weights = residual[:, :, None] * self.vals
        flat = np.bincount(
            cols.ravel(), weights.ravel(), minlength=n_labels * self.dim
        )
        return flat.reshape(n_labels, self.dim)


class HashedWindowFeatures(_Value):
    """Sparse lexical window features, hashed into a fixed dimension.

    Per token: hashed one-hot buckets for the lowercased current, previous
    and next tokens (three disjoint bucket ranges) plus indicator features
    for punctuation class, comma, preceding comma, sentence-final
    punctuation and initial capitalization, as SparseFeatures rows of
    width 8 (96 bytes per token), each computed once per distinct token and
    gathered by position.  Deterministic for a fixed configuration (CRC32
    hashing, no process salt).
    """

    __slots__ = _fields = ("n_buckets",)

    N_FLAGS = 5

    def __init__(self, n_buckets: int = 1024) -> None:
        self._fill(locals())
        if n_buckets < 1:
            raise RstError(f"buckets must be >= 1, got {n_buckets}")
        if self.dim > np.iinfo(np.int32).max:
            raise RstError(f"buckets must be < 2**31 / 3, got {n_buckets}")

    @property
    def dim(self) -> int:
        return 3 * self.n_buckets + self.N_FLAGS

    def __call__(self, tokens: Sequence[str]) -> SparseFeatures:
        n, nb = len(tokens), self.n_buckets
        words = list(dict.fromkeys(tokens))  # distinct, in first-occurrence order
        index = dict(zip(words, range(len(words))))
        # each token's word index, after <s> (len(words)) and before </s> (+ 1)
        seq = np.empty(n + 2, dtype=np.intp)
        seq[0], seq[-1] = len(words), len(words) + 1
        seq[1:-1] = np.fromiter(map(index.__getitem__, tokens), np.intp, n)
        keys = [x.lower().encode("utf-8") for x in words] + [b"<s>", b"</s>"]
        table = np.array([_buckets(p, keys, nb) for p in ("c=", "p=", "n=")], np.int32)
        table += np.arange(3, dtype=np.int32)[:, None] * nb  # disjoint bucket ranges
        idx = np.empty((n, 3 + self.N_FLAGS), dtype=np.int32)
        idx[:, 0] = table[0, seq[1:-1]]
        idx[:, 1] = table[1, seq[:-2]]
        idx[:, 2] = table[2, seq[2:]]
        idx[:, 3:] = np.arange(3 * nb, 3 * nb + self.N_FLAGS)
        flags = np.array([[_alnum(x) is None for x in words], [x == "," for x in words],
                          [x in _SENT_FINAL for x in words],
                          [x[:1].isupper() for x in words]], dtype=bool)
        vals = np.zeros(idx.shape)
        vals[:, :3] = 1.0
        vals[:, [3, 4, 6, 7]] = flags[:, seq[1:-1]].T
        vals[1:, 5] = vals[:-1, 4]  # previous token is a comma
        return SparseFeatures(idx, vals, self.dim)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def save_model(model: CrfModel, path, extractor: HashedWindowFeatures) -> None:
    """Persist a model and the extractor it was trained with as a versioned
    NPZ archive.

    ``path`` is a binary file object or a file name, to which ``np.savez``
    appends ``.npz`` when it lacks that suffix.

    Keys: ``version`` (int), ``labels`` (string array), the four float64
    parameter blocks in row-major order and ``n_buckets`` (int), so that
    segmentation can rebuild identical features.
    """
    np.savez(
        path,
        version=np.array(_FORMAT_VERSION),
        labels=np.array(model.labels),
        emission=model.emission.astype(np.float64),
        transition=model.transition.astype(np.float64),
        start=model.start.astype(np.float64),
        stop=model.stop.astype(np.float64),
        n_buckets=np.array(extractor.n_buckets),
    )


def _member(data, key: str) -> np.ndarray:
    value = data[key]
    if not isinstance(value, np.ndarray):  # np.load gives other members as bytes
        raise RstError(f"member {key!r} is not an .npy array")
    return value


def _integer(data, key: str) -> int:
    value = _member(data, key)
    if value.shape != () or value.dtype.kind not in "iu":
        raise RstError(f"{key} must be one integer, got {value.dtype} {value.shape}")
    return int(value)


def load_model(path) -> tuple[CrfModel, HashedWindowFeatures]:
    """Read a model and its extractor that :func:`save_model` wrote to the
    file ``path``.

    Raises RstError naming ``path`` when the file is not a model archive,
    lacks a key, holds a member that is not an ``.npy`` array, a parameter
    block that does not cast safely to float64 or a ``version`` or
    ``n_buckets`` that is not one integer, or stores an ``n_buckets`` whose
    feature width differs from the emission weights'.
    """
    try:  # np.load(path) leaks the file it opens when the zip reader fails
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            version = _integer(data, "version")
            if version != _FORMAT_VERSION:
                raise RstError(f"unsupported model format version {version}")
            model = CrfModel(tuple(str(x) for x in _member(data, "labels")), *(
                _member(data, key).astype(np.float64, casting="safe")
                for key in ("emission", "transition", "start", "stop")))
            extractor = HashedWindowFeatures(_integer(data, "n_buckets"))
    except (RstError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise RstError(f"{path}: cannot read model: {exc}") from None
    if extractor.dim != model.feature_dim:
        raise RstError(
            f"{path}: n_buckets {extractor.n_buckets} gives {extractor.dim} "
            f"features, but emission has {model.feature_dim}"
        )
    return model, extractor
