"""Linear-chain CRF for EDU boundary labeling.

Tokens are tagged with a {B, I} scheme (every token belongs to some EDU, so
there is no O tag); the document-initial token is always a boundary.  The
chain scores a path as

    score(y | X) = start[y_0] + sum_t x_t . W[y_t]
                 + sum_{t>0} T[y_{t-1}, y_t] + stop[y_T]

and all probability computations run in log space: the partition function
comes from the forward algorithm with log-sum-exp, never from probability-
space sums, so long documents do not underflow.

Feature extraction is a pluggable contract (tokens -> [seq_len, dim] float
matrix).  The shipped extractor hashes a lexical window (current, previous,
next token) and adds punctuation indicators; comma features matter because
Russian EDUs lean heavily on commas.  Externally computed dense vectors
(e.g. dumps from a neural encoder) plug in through PrecomputedFeatures.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from .core import DimensionMismatch, DocumentRecord, EduSpan, RstError

__all__ = [
    "CrfModel",
    "CrfGradients",
    "TrainConfig",
    "DimensionMismatch",
    "EmptyDataset",
    "FeatureExtractor",
    "HashedWindowFeatures",
    "PrecomputedFeatures",
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


class EmptyDataset(RstError):
    """Training was invoked without any sequences."""


class FeatureExtractor(Protocol):
    def __call__(self, tokens: Sequence[str]) -> np.ndarray: ...


@dataclass
class CrfModel:
    """Parameters of a linear-chain CRF; a single writer may mutate them."""

    labels: tuple[str, ...]
    emission: np.ndarray  # [num_labels, feature_dim]
    transition: np.ndarray  # [num_labels, num_labels], from -> to
    start: np.ndarray  # [num_labels]
    stop: np.ndarray  # [num_labels]

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        n = len(self.labels)
        if n < 2:
            raise DimensionMismatch("label set must have at least two labels")
        if self.emission.ndim != 2 or self.emission.shape[0] != n:
            raise DimensionMismatch("emission weights must be [labels, features]")
        if self.transition.shape != (n, n):
            raise DimensionMismatch("transition matrix must be [labels, labels]")
        if self.start.shape != (n,) or self.stop.shape != (n,):
            raise DimensionMismatch("start/stop must be [labels]")
        for arr in (self.emission, self.transition, self.start, self.stop):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch("model parameters must be finite")

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.emission.shape[1]

    @classmethod
    def create(
        cls,
        feature_dim: int,
        labels: Sequence[str] = DEFAULT_LABELS,
        seed: int | None = None,
        scale: float = 0.0,
    ) -> "CrfModel":
        """Zero-initialized model, or small random weights when scale > 0."""
        n = len(labels)
        if scale > 0.0:
            rng = np.random.default_rng(seed)
            draw = lambda *shape: rng.normal(0.0, scale, shape)
        else:
            draw = lambda *shape: np.zeros(shape)
        return cls(
            labels=tuple(labels),
            emission=draw(n, feature_dim),
            transition=draw(n, n),
            start=draw(n),
            stop=draw(n),
        )

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise DimensionMismatch(f"unknown label {name!r}") from None

    def clone(self) -> "CrfModel":
        return CrfModel(
            self.labels,
            self.emission.copy(),
            self.transition.copy(),
            self.start.copy(),
            self.stop.copy(),
        )


@dataclass(frozen=True)
class CrfGradients:
    """Gradient of the log-likelihood w.r.t. every parameter block."""

    emission: np.ndarray
    transition: np.ndarray
    start: np.ndarray
    stop: np.ndarray


def _check_features(model: CrfModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"features must be [seq_len, {model.feature_dim}], "
            f"got {features.shape}"
        )
    if features.shape[0] < 1:
        raise DimensionMismatch("sequence must have at least one position")
    return features


def _gold_indices(model: CrfModel, gold: Sequence[str], seq_len: int) -> np.ndarray:
    if len(gold) != seq_len:
        raise DimensionMismatch(
            f"gold length {len(gold)} != sequence length {seq_len}"
        )
    return np.array([model.label_index(g) for g in gold], dtype=int)


def viterbi(model: CrfModel, features: np.ndarray) -> list[str]:
    """Highest-scoring label path; ties resolve to the lower label index."""
    features = _check_features(model, features)
    emissions = features @ model.emission.T  # [seq_len, labels]
    seq_len = emissions.shape[0]
    v = model.start + emissions[0]
    back = np.zeros((seq_len, model.num_labels), dtype=int)
    for t in range(1, seq_len):
        scores = v[:, None] + model.transition  # prev x cur
        back[t] = np.argmax(scores, axis=0)  # first max = lowest prev index
        v = scores[back[t], np.arange(model.num_labels)] + emissions[t]
    v = v + model.stop
    path = np.zeros(seq_len, dtype=int)
    path[-1] = int(np.argmax(v))
    for t in range(seq_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return [model.labels[i] for i in path]


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def log_likelihood(
    model: CrfModel, features: np.ndarray, gold: Sequence[str]
) -> tuple[float, CrfGradients]:
    """log p(gold | features) and its exact gradient.

    The partition function is computed by the forward algorithm in log
    space; gradients are observed counts minus expected counts from the
    forward-backward marginals.
    """
    features = _check_features(model, features)
    emissions = features @ model.emission.T
    seq_len, n = emissions.shape
    gold_idx = _gold_indices(model, gold, seq_len)

    # Forward/backward in log space.
    alpha = np.zeros((seq_len, n))
    alpha[0] = model.start + emissions[0]
    for t in range(1, seq_len):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + model.transition, 0) + emissions[t]
    log_z = float(_logsumexp((alpha[-1] + model.stop)[None, :], 1)[0])

    beta = np.zeros((seq_len, n))
    beta[-1] = model.stop
    for t in range(seq_len - 2, -1, -1):
        beta[t] = _logsumexp(
            model.transition + emissions[t + 1][None, :] + beta[t + 1][None, :], 1
        )

    gold_score = float(model.start[gold_idx[0]] + emissions[0, gold_idx[0]])
    for t in range(1, seq_len):
        gold_score += float(
            model.transition[gold_idx[t - 1], gold_idx[t]] + emissions[t, gold_idx[t]]
        )
    gold_score += float(model.stop[gold_idx[-1]])

    # Unary marginals p(y_t = l) and residuals (observed - expected).
    unary = np.exp(alpha + beta - log_z)  # [seq_len, labels]
    residual = -unary
    residual[np.arange(seq_len), gold_idx] += 1.0

    grad_emission = residual.T @ features
    grad_start = residual[0].copy()
    grad_stop = -unary[-1]
    grad_stop[gold_idx[-1]] += 1.0
    grad_transition = np.zeros((n, n))
    for t in range(1, seq_len):
        pairwise = np.exp(
            alpha[t - 1][:, None]
            + model.transition
            + emissions[t][None, :]
            + beta[t][None, :]
            - log_z
        )
        grad_transition -= pairwise
        grad_transition[gold_idx[t - 1], gold_idx[t]] += 1.0

    return gold_score - log_z, CrfGradients(
        grad_emission, grad_transition, grad_start, grad_stop
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.2
    l2: float = 0.0
    seed: int = 13

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise RstError(f"epochs must be >= 1, got {self.epochs}")


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
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.BETA1 * self.m[i] + (1 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1 - self.BETA2) * g * g
            m_hat = self.m[i] / (1 - self.BETA1**self.t)
            v_hat = self.v[i] / (1 - self.BETA2**self.t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


def train(
    model: CrfModel,
    dataset: Sequence[tuple[np.ndarray, Sequence[str]]],
    config: TrainConfig = TrainConfig(),
) -> tuple[CrfModel, list[float]]:
    """Minimize the per-sequence negative log-likelihood with Adam.

    Updates are applied sequence by sequence in a seeded shuffle order, so
    runs with the same seed produce bit-identical loss curves.  Returns the
    trained model (a copy; the input model is untouched) and the curve of
    mean NLL per epoch.
    """
    if not dataset:
        raise EmptyDataset("no training sequences")
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
            steps = [
                -grads.emission + config.l2 * model.emission,
                -grads.transition + config.l2 * model.transition,
                -grads.start + config.l2 * model.start,
                -grads.stop + config.l2 * model.stop,
            ]
            opt.step(params, steps)
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
            raise ValueError(f"labels must be 'B' or 'I', got {label!r}")
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
    corpus_docs: Iterable[DocumentRecord], extractor: FeatureExtractor
) -> list[tuple[np.ndarray, list[str]]]:
    return [
        (extractor(doc.token_texts()), document_labels(doc)) for doc in corpus_docs
    ]


# ---------------------------------------------------------------------------
# Feature extractors
# ---------------------------------------------------------------------------


def _bucket(value: str, n_buckets: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % n_buckets


_SENT_FINAL = {".", "!", "?", ";", ":"}


@dataclass(frozen=True)
class HashedWindowFeatures:
    """Sparse lexical window features, hashed into a fixed dimension.

    Per token: hashed one-hot buckets for the lowercased current, previous
    and next tokens (three disjoint bucket ranges) plus indicator features
    for punctuation class, comma, preceding comma, sentence-final
    punctuation and initial capitalization.  Deterministic for a fixed
    configuration (CRC32 hashing, no process salt).
    """

    n_buckets: int = 1024

    N_FLAGS = 5

    def __post_init__(self) -> None:
        if self.n_buckets < 1:
            raise RstError(f"buckets must be >= 1, got {self.n_buckets}")

    @property
    def dim(self) -> int:
        return 3 * self.n_buckets + self.N_FLAGS

    def __call__(self, tokens: Sequence[str]) -> np.ndarray:
        n = len(tokens)
        out = np.zeros((n, self.dim))
        lowered = [t.lower() for t in tokens]
        for i, token in enumerate(tokens):
            out[i, _bucket("c=" + lowered[i], self.n_buckets)] = 1.0
            prev_text = lowered[i - 1] if i > 0 else "<s>"
            next_text = lowered[i + 1] if i + 1 < n else "</s>"
            out[i, self.n_buckets + _bucket("p=" + prev_text, self.n_buckets)] = 1.0
            out[i, 2 * self.n_buckets + _bucket("n=" + next_text, self.n_buckets)] = 1.0
            flags = 3 * self.n_buckets
            is_punct = not any(ch.isalnum() for ch in token)
            out[i, flags + 0] = 1.0 if is_punct else 0.0
            out[i, flags + 1] = 1.0 if token == "," else 0.0
            out[i, flags + 2] = 1.0 if i > 0 and tokens[i - 1] == "," else 0.0
            out[i, flags + 3] = 1.0 if token in _SENT_FINAL else 0.0
            out[i, flags + 4] = 1.0 if token[:1].isupper() else 0.0
        return out


class PrecomputedFeatures:
    """Hook for externally supplied dense vectors, keyed by document id."""

    def __init__(self, matrices: dict[str, np.ndarray]) -> None:
        self.matrices = {k: np.asarray(v, dtype=float) for k, v in matrices.items()}

    def for_document(self, doc_id: str, n_tokens: int) -> np.ndarray:
        try:
            matrix = self.matrices[doc_id]
        except KeyError:
            raise DimensionMismatch(f"no feature matrix for document {doc_id}") from None
        if matrix.shape[0] != n_tokens:
            raise DimensionMismatch(
                f"{doc_id}: feature matrix has {matrix.shape[0]} rows, "
                f"document has {n_tokens} tokens"
            )
        return matrix


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

_FORMAT_VERSION = 1


def save_model(
    model: CrfModel, path, extractor: HashedWindowFeatures | None = None
) -> None:
    """Persist a model as a versioned NPZ archive.

    Keys: ``version`` (int), ``labels`` (string array) and the four float64
    parameter blocks in row-major order; ``n_buckets`` is stored when the
    model was trained with the hashed-window extractor so that segmentation
    can rebuild identical features.
    """
    payload = {
        "version": np.array(_FORMAT_VERSION),
        "labels": np.array(model.labels),
        "emission": model.emission.astype(np.float64),
        "transition": model.transition.astype(np.float64),
        "start": model.start.astype(np.float64),
        "stop": model.stop.astype(np.float64),
    }
    if extractor is not None:
        payload["n_buckets"] = np.array(extractor.n_buckets)
    np.savez(path, **payload)


def load_model(path) -> tuple[CrfModel, HashedWindowFeatures | None]:
    """Read a model written by :func:`save_model`.

    Raises RstError naming ``path`` when the file is not a model archive,
    lacks a key, or stores an ``n_buckets`` whose feature width differs
    from the emission weights'.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != _FORMAT_VERSION:
                raise RstError(f"unsupported model format version {version}")
            model = CrfModel(
                labels=tuple(str(x) for x in data["labels"]),
                emission=data["emission"],
                transition=data["transition"],
                start=data["start"],
                stop=data["stop"],
            )
            extractor = (
                HashedWindowFeatures(int(data["n_buckets"]))
                if "n_buckets" in data
                else None
            )
    except (RstError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise RstError(f"{path}: cannot read model: {exc}") from None
    if extractor is not None and extractor.dim != model.feature_dim:
        raise RstError(
            f"{path}: n_buckets {extractor.n_buckets} gives {extractor.dim} "
            f"features, but emission has {model.feature_dim}"
        )
    return model, extractor
