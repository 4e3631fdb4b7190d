"""Deterministic synthetic inputs for the pipeline benchmark.

Everything here is a pure function of the seed and the scale: the same
seed gives byte-identical files.  The corpus has GUM 9.1's shape (12
genres, about 124 EDUs per tree, a median near 1,000 tokens, n-ary
multinuclear nodes) but none of its text.  Words come from a Zipfian
vocabulary, and EDU ends carry punctuation and discourse markers often
enough that the CRF segmenter has something to learn.

The generator writes the ``.rs3`` XML and the canonical JSON-lines files
itself, so a change to rstkit's serializers cannot change the inputs.  The
one exception is the score dump, whose key set is "what greedy and beam-16
ask for": it is recorded by running rstkit's decoder over a provider whose
answers are a fixed function of (seed, document, query).
"""

from __future__ import annotations

import json
import math
import random
import statistics
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

GENRES = (
    "academic", "bio", "conversation", "fiction", "interview", "news",
    "reddit", "speech", "textbook", "vlog", "voyage", "whow",
)
# Relation names by rough GUM frequency; the two sets are disjoint so the
# rs3 relations table gives each name exactly one type.
RST_RELATIONS = (
    "elaboration", "attribution", "explanation", "context", "purpose",
    "condition", "concession", "evaluation", "causal", "adversative",
    "restatement", "topic", "organization", "mode",
)
MULTINUC_RELATIONS = ("joint", "sequence", "same-unit", "contrast", "list")
MARKERS = (
    "and", "but", "because", "which", "that", "when", "if", "so", "while",
    "although", "to", "who", "since", "after", "before", "or", "as", "until",
)
SENT_FINAL = (".", ".", ".", ".", "?", "!")

# Beam-scores: how strongly the synthetic scorer prefers the gold decision
# over unit-variance noise.  Strong enough that beam search finds trees
# close to gold, weak enough that greedy and beam disagree.
SPLIT_BONUS = 3.5
LABEL_BONUS = 4.0
SCORE_DIGITS = 6


@dataclass
class Doc:
    doc_id: str
    genre: str
    edu_tokens: list[list[str]]  # tokens of each EDU, punctuation split off
    tree: tuple  # ("leaf", i) | ("node", relation, nuc, children)
    sent_starts: list[int] = field(default_factory=list)  # token indices

    @property
    def n_edus(self) -> int:
        return len(self.edu_tokens)

    @property
    def n_tokens(self) -> int:
        return sum(len(e) for e in self.edu_tokens)

    def tokens(self) -> list[tuple[str, int]]:
        """(text, char_start) pairs, offsets into the EDU texts joined by spaces."""
        out = []
        offset = 0
        for edu in self.edu_tokens:
            text = edu_text(edu)
            pos = 0
            for tok in edu:
                pos = text.index(tok, pos)
                out.append((tok, offset + pos))
                pos += len(tok)
            offset += len(text) + 1
        return out

    def edus(self) -> list[tuple[int, int]]:
        spans, start = [], 0
        for edu in self.edu_tokens:
            spans.append((start, start + len(edu) - 1))
            start += len(edu)
        return spans


def edu_text(tokens: list[str]) -> str:
    """Words joined by spaces with punctuation glued to the previous word."""
    parts: list[str] = []
    for tok in tokens:
        if parts and not tok[0].isalnum():
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Vocabulary and text
# ---------------------------------------------------------------------------

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen = set(MARKERS)
    while len(words) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Text:
    def __init__(self, rng: random.Random, vocab: list[str]) -> None:
        self.rng = rng
        self.vocab = vocab
        vocab_size = len(vocab)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(vocab_size)]
        total = sum(weights)
        acc, self.cum = 0.0, []
        for w in weights:
            acc += w / total
            self.cum.append(acc)

    def word(self) -> str:
        return self.vocab[min(len(self.vocab) - 1, _bisect(self.cum, self.rng.random()))]

    def edu(self, sentence_initial: bool, sentence_final: bool) -> list[str]:
        rng = self.rng
        n_words = max(1, min(30, int(rng.expovariate(1 / 6.0)) + 2))
        words = [self.word() for _ in range(n_words)]
        if not sentence_initial and rng.random() < 0.55:
            words[0] = rng.choice(MARKERS)
        elif rng.random() < 0.04:
            words[0] = rng.choice(MARKERS)
        if sentence_initial:
            words[0] = words[0].capitalize()
        tokens: list[str] = []
        for i, w in enumerate(words):
            tokens.append(w)
            if 0 < i < n_words - 1 and rng.random() < 0.04:
                tokens.append(",")
        if sentence_final:
            tokens.append(rng.choice(SENT_FINAL))
        elif rng.random() < 0.55:
            tokens.append(",")
        return tokens


def _bisect(cum: list[float], x: float) -> int:
    lo, hi = 0, len(cum)
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def _relation(rng: random.Random, names: tuple[str, ...]) -> str:
    weights = [1.0 / (i + 1) for i in range(len(names))]
    return rng.choices(names, weights)[0]


def _build(rng: random.Random, units: list[tuple]) -> tuple:
    """Random RST tree over consecutive units (leaves or finished subtrees)."""
    if len(units) == 1:
        return units[0]
    k = len(units)
    if rng.random() < 0.12:
        m = min(k, rng.choice((2, 2, 3, 3, 4, 5)))
        cuts = sorted(rng.sample(range(1, k), m - 1))
        bounds = [0, *cuts, k]
        children = [_build(rng, units[a:b]) for a, b in zip(bounds, bounds[1:])]
        return ("node", _relation(rng, MULTINUC_RELATIONS), "NN", children)
    if rng.random() < 0.6:
        split = 1 if rng.random() < 0.35 else k - 1
    else:
        split = rng.randint(1, k - 1)
    nuc = "NS" if rng.random() < 0.7 else "SN"
    children = [_build(rng, units[:split]), _build(rng, units[split:])]
    return ("node", _relation(rng, RST_RELATIONS), nuc, children)


def _doc_tree(rng: random.Random, sentences: list[list[int]]) -> tuple:
    # Most sentences become subtrees of their own, as in real treebanks;
    # the rest are left for the document-level tree to split freely.
    units: list[tuple] = []
    for edus in sentences:
        leaves = [("leaf", i) for i in edus]
        if len(leaves) > 1 and rng.random() < 0.75:
            units.append(_build(rng, leaves))
        else:
            units.extend(leaves)
    return _build(rng, units)


def binarized(tree: tuple) -> str:
    """Canonical bracketed string of the right-branching binarization."""
    if tree[0] == "leaf":
        return f"#{tree[1]}"
    _, rel, nuc, children = tree
    label = f"{rel}_{nuc}"
    acc = binarized(children[-1])
    for child in reversed(children[:-1]):
        acc = f"({label} {binarized(child)} {acc})"
    return acc


def tree_labels(tree: tuple) -> set[str]:
    if tree[0] == "leaf":
        return set()
    _, rel, nuc, children = tree
    out = {f"{rel}_{nuc}"}
    for child in children:
        out |= tree_labels(child)
    return out


def internal_count(tree: tuple) -> int:
    """Internal nodes after binarization (rstkit's 'relation pairs')."""
    if tree[0] == "leaf":
        return 0
    children = tree[3]
    return len(children) - 1 + sum(internal_count(c) for c in children)


def gold_nodes(tree: tuple) -> dict[tuple[int, int], tuple[int, str]]:
    """Binarized gold decisions: half-open EDU range -> (split, label)."""
    out: dict[tuple[int, int], tuple[int, str]] = {}

    def span(node) -> tuple[int, int]:
        if node[0] == "leaf":
            return node[1], node[1] + 1
        _, rel, nuc, children = node
        spans = [span(c) for c in children]
        end = spans[-1][1]
        for s in reversed(spans[:-1]):
            out[(s[0], end)] = (s[1], f"{rel}_{nuc}")
        return spans[0][0], end

    span(tree)
    return out


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


def _sizes(rng: random.Random, n_docs: int, total: int, lo: int = 20, hi: int = 450
           ) -> list[int]:
    """Document sizes (EDUs) within [lo, hi] that sum to exactly ``total``.

    The sizes are evenly spaced quantiles of a lognormal, so every seed gets
    the same multiset of sizes, in its own order: work that grows faster
    than linearly with document size then does not vary with the seed."""
    normal = statistics.NormalDist(0.0, 0.35)
    raw = [math.exp(normal.inv_cdf((i + 0.5) / n_docs)) for i in range(n_docs)]
    scale = total / sum(raw)
    sizes = [min(hi, max(lo, round(r * scale))) for r in raw]
    i = 0
    while sum(sizes) != total:
        step = 1 if sum(sizes) < total else -1
        j = i % n_docs
        if lo <= sizes[j] + step <= hi:
            sizes[j] += step
        i += 1
    rng.shuffle(sizes)
    return sizes


def make_docs(seed: int, tag: str, n_docs: int, total_edus: int) -> list[Doc]:
    # One vocabulary per seed, shared by every corpus made from it, so that
    # a segmenter trained on one corpus meets the same words in another.
    vocab = _vocabulary(random.Random(zlib.crc32(f"{seed}:vocabulary".encode())), 6000)
    rng = random.Random(zlib.crc32(f"{seed}:{tag}".encode()))
    text = _Text(rng, vocab)
    docs = []
    for i, n_edus in enumerate(_sizes(rng, n_docs, total_edus)):
        genre = GENRES[i % len(GENRES)]
        sentences: list[list[int]] = []
        edu_tokens: list[list[str]] = []
        sent_starts: list[int] = []
        n_tokens = 0
        while len(edu_tokens) < n_edus:
            size = min(n_edus - len(edu_tokens), rng.choice((1, 1, 2, 2, 2, 3, 3, 4)))
            sentence = []
            sent_starts.append(n_tokens)
            for j in range(size):
                tokens = text.edu(j == 0, j == size - 1)
                sentence.append(len(edu_tokens))
                edu_tokens.append(tokens)
                n_tokens += len(tokens)
            sentences.append(sentence)
        doc_id = f"GUM_{genre}_{tag}{i:03d}"
        docs.append(Doc(doc_id, genre, edu_tokens, _doc_tree(rng, sentences), sent_starts))
    return docs


def shape(docs: list[Doc]) -> dict:
    return {
        "docs": len(docs),
        "edus": sum(d.n_edus for d in docs),
        "edus_per_tree": round(sum(d.n_edus for d in docs) / len(docs), 1),
        "median_tokens": statistics.median(d.n_tokens for d in docs),
        "tokens": sum(d.n_tokens for d in docs),
    }


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def rs3_bytes(doc: Doc) -> bytes:
    """GUM-style rs3: span groups for mononuclear nodes, multinuc groups
    for n-ary nodes; satellites and the nucleus hang off the span group."""
    segments: list[str] = []
    groups: list[str] = []
    next_id = doc.n_edus + 1

    def emit(node, parent: str | None, relname: str | None) -> None:
        nonlocal next_id
        attach = f' parent="{parent}" relname="{relname}"' if parent else ""
        if node[0] == "leaf":
            segments.append(
                f'<segment id="{node[1] + 1}"{attach}>'
                f"{escape(edu_text(doc.edu_tokens[node[1]]))}</segment>"
            )
            return
        _, rel, nuc, children = node
        gid = str(next_id)
        next_id += 1
        kind = "multinuc" if nuc == "NN" else "span"
        groups.append(f'<group id="{gid}" type="{kind}"{attach}/>')
        if nuc == "NN":
            for child in children:
                emit(child, gid, rel)
        else:
            nucleus, satellite = children if nuc == "NS" else children[::-1]
            emit(nucleus, gid, "span")
            emit(satellite, gid, rel)

    emit(doc.tree, None, None)
    segments.sort(key=lambda s: int(s.split('"')[1]))
    rels = [f'<rel name="{r}" type="rst"/>' for r in RST_RELATIONS]
    rels += [f'<rel name="{r}" type="multinuc"/>' for r in MULTINUC_RELATIONS]
    body = "\n".join(segments + groups)
    xml = (
        '<?xml version="1.0" encoding="utf-8"?>\n<rst>\n<header>\n<relations>\n'
        + "\n".join(rels)
        + "\n</relations>\n</header>\n<body>\n"
        + body
        + "\n</body>\n</rst>\n"
    )
    return xml.encode("utf-8")


def canonical_line(doc: Doc, split: str) -> str:
    obj = {
        "id": doc.doc_id,
        "genre": doc.genre,
        "lang": "en",
        "tokens": [[t, c] for t, c in doc.tokens()],
        "edus": [list(e) for e in doc.edus()],
        "tree": binarized(doc.tree),
        "sents": doc.sent_starts,
        "split": split,
    }
    return json.dumps(obj, ensure_ascii=False) + "\n"


def write_canonical(docs: list[Doc], path: Path, split: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in sorted(docs, key=lambda d: d.doc_id):
            fh.write(canonical_line(doc, split))


def write_sents(docs: list[Doc], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"{doc.doc_id}\t{' '.join(map(str, doc.sent_starts))}\n")


def inventory(docs: list[Doc]) -> list[str]:
    labels: set[str] = set()
    for doc in docs:
        labels |= tree_labels(doc.tree)
    return sorted(labels)


# ---------------------------------------------------------------------------
# Score dump
# ---------------------------------------------------------------------------


NOISE_POOL = 1 << 20


class _Noise:
    """Unit normal noise as a fixed function of (seed, document, query): a
    slice of one seeded pool that starts at a hash of the query."""

    def __init__(self, seed: int) -> None:
        import numpy as np

        self.np = np
        self.pool = np.random.default_rng(seed).standard_normal(NOISE_POOL + 4096)

    def log_probs(self, doc_id: str, key: tuple, size: int, gold: int | None,
                  bonus: float):
        """Rounded log-softmax of the noise, with ``bonus`` added at ``gold``."""
        np = self.np
        start = zlib.crc32(f"{doc_id}|{key}".encode()) % NOISE_POOL
        values = self.pool[start : start + size].copy()
        if gold is not None:
            values[gold] += bonus
        top = values.max()
        values -= top + np.log(np.exp(values - top).sum())
        return np.round(values, SCORE_DIGITS)


def write_score_dump(
    seed: int, docs: list[Doc], labels: list[str], path: Path, beam: int
) -> dict:
    """Record the split/label queries of greedy and beam decoding and dump
    exactly those entries.  Returns the number of entries of each kind."""
    from rstkit.decoder import DecodeConfig, ScoreProvider, decode

    label_index = {name: i for i, name in enumerate(labels)}
    noise = _Noise(seed)

    class Recording(ScoreProvider):
        def __init__(self, doc: Doc) -> None:
            self.doc_id = doc.doc_id
            self.gold = gold_nodes(doc.tree)
            self.splits: dict[tuple[int, int], object] = {}  # numpy vectors
            self.labels: dict[tuple, object] = {}

        def split_scores(self, start, end):
            key = (start, end)
            if key not in self.splits:
                gold = self.gold.get(key)
                self.splits[key] = noise.log_probs(
                    self.doc_id, ("split", *key), end - start - 1,
                    None if gold is None else gold[0] - start - 1, SPLIT_BONUS)
            return self.splits[key]

        def label_scores(self, left, right):
            key = (tuple(left), tuple(right))
            if key not in self.labels:
                gold = self.gold.get((left[0], right[1]))
                self.labels[key] = noise.log_probs(
                    self.doc_id, ("label", *key), len(labels),
                    label_index[gold[1]] if gold and gold[0] == right[0] else None,
                    LABEL_BONUS)
            return self.labels[key]

    counts = {"split": 0, "label": 0}
    with open(path, "w", encoding="utf-8") as fh:
        for doc in sorted(docs, key=lambda d: d.doc_id):
            provider = Recording(doc)
            for width in (1, beam):
                strategy = "beam" if width > 1 else "greedy"
                decode(doc.n_edus, provider, DecodeConfig(tuple(labels), strategy, width))
            for (start, end), scores in sorted(provider.splits.items()):
                fh.write(json.dumps({"doc": doc.doc_id, "kind": "split", "start": start,
                                     "end": end, "scores": scores.tolist()}) + "\n")
            for (left, right), scores in sorted(provider.labels.items()):
                fh.write(json.dumps({"doc": doc.doc_id, "kind": "label", "left": list(left),
                                     "right": list(right), "scores": scores.tolist()}) + "\n")
            counts["split"] += len(provider.splits)
            counts["label"] += len(provider.labels)
    return counts
