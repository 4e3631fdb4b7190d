"""In-process span tracing of rstkit, from outside the package.

``Tracer.install()`` replaces module-level functions and a few methods of
rstkit with wrappers that record a span per call: name, start, end, parent
span and the document being processed.  Nothing under ``src/`` changes;
``uninstall()`` puts every original back.  Spans are kept in memory and
written out by ``write()`` when the run ends.

A span's self time is its duration minus the time covered by its direct
children.  Self times per layer plus the CLI's own self time add up to the
traced stage's wall time by construction.

Every public function defined in a layer module is wrapped as
``<layer>.<function>``.  On top of that, methods and private functions that
carry the interesting work get their own names (see ``_extra_hooks``).  A
hook whose target no longer exists is skipped and listed in ``missing``,
so the benchmark keeps running when the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("treebank", "preprocess", "core", "crf", "decoder", "metrics")
# Thin entry points whose spans count toward the function they wrap.
RENAMED = {
    "treebank.read_canonical": "treebank.iter_canonical",
    "treebank.read_rs3_file": "treebank.parse_rs3",
    "treebank.write_record": "treebank.write_canonical",
    "metrics.genre_breakdown": "metrics.corpus_stats",
}

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, doc)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.doc_latency: dict[str, list[float]] = defaultdict(list)
        self.stage = ""
        self.doc: str | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time, ...]
        self._restore: list[tuple] = []
        self._distinct: set = set()
        self._greedy_score: float | None = None

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [len(self.spans) - 1, _now(), 0.0, name, parent]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        index, start, child, name, parent = frame
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.doc)
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn, on_result=None):
        # enter()/exit() inlined: provider queries make this the hot path.
        spans, stack, self_time, calls = self.spans, self._stack, self.self_time, self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    spans[index] = (name, start, end, parent[0], tracer.doc)
                else:
                    spans[index] = (name, start, end, -1, tracer.doc)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def run_stage(self, stage: str, call) -> None:
        """Run one CLI stage under a root span named ``cli.<stage>``."""
        self.stage, self.doc, self._distinct = stage, None, set()
        frame = self.enter(f"cli.{stage}")
        try:
            call()
        finally:
            self.exit(frame)
            self.doc = None

    # -- hooks --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_function(self, module, attr: str, name: str, on_result=None) -> None:
        """Wrap a module function and every rstkit alias of it."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.span(name, fn, on_result)
        for mod in _rstkit_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, key, wrapper)

    def _wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.span(name, raw.__func__, on_result)))
        else:
            self._patch(cls, attr, self.span(name, raw, on_result))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"rstkit.{layer}")
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(value)
                ):
                    name = f"{layer}.{attr}"
                    self._wrap_function(module, attr, RENAMED.get(name, name))
        self._extra_hooks()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _extra_hooks(self) -> None:
        from rstkit import core, crf, decoder, treebank

        # Streaming reads: a span per record read, and the document's
        # latency from the moment the CLI receives it until it asks for the
        # next one.
        original_iter = treebank.iter_canonical
        tracer = self

        def iter_canonical(path):
            records = original_iter(path)
            try:
                while True:
                    frame = tracer.enter("treebank.iter_canonical")
                    try:
                        doc = next(records)
                        tracer.doc = doc.doc_id
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    handed = _now()
                    yield doc
                    tracer.doc_latency[tracer.stage].append(_now() - handed)
            finally:
                records.close()

        for mod in _rstkit_modules():
            if getattr(mod, "iter_canonical", None) is original_iter:
                self._patch(mod, "iter_canonical", iter_canonical)

        self._wrap_method(core.Corpus, "from_documents", "core.corpus_validate")
        self._wrap_method(core.Corpus, "__post_init__", "core.corpus_validate")
        self._wrap_method(core.DocumentRecord, "__post_init__", "core.record_validate")
        self._wrap_method(crf.HashedWindowFeatures, "__call__", "crf.features",
                          self._count_features)
        self._wrap_method(decoder.ScoreTable, "load", "decoder.score_table_load")
        self._wrap_function(decoder, "_greedy_decisions", "decoder.greedy",
                            self._note_greedy)
        self._wrap_function(decoder, "_beam_decisions", "decoder.beam", self._note_beam)
        for cls in _subclasses(decoder.ScoreProvider):
            if cls.__module__.startswith("rstkit."):
                self._wrap_method(cls, "split_scores", "decoder.provider", self._count_split)
                self._wrap_method(cls, "label_scores", "decoder.provider", self._count_label)

    # -- counters -----------------------------------------------------------

    def _count_features(self, args, result) -> None:
        self.counts["crf.feature_bytes"] += result.nbytes
        self.counts["crf.feature_tokens"] += result.shape[0]

    def _count_split(self, args, result) -> None:
        _, start, end = args
        self.counts["decoder.split_queries"] += 1
        key = ("s", self.doc, start, end)
        if key not in self._distinct:
            self._distinct.add(key)
            self.counts["decoder.distinct_split_ranges"] += 1

    def _count_label(self, args, result) -> None:
        _, left, right = args
        self.counts["decoder.label_queries"] += 1
        key = ("l", self.doc, tuple(left), tuple(right))
        if key not in self._distinct:
            self._distinct.add(key)
            self.counts["decoder.distinct_label_pairs"] += 1

    def _note_greedy(self, args, result) -> None:
        self._greedy_score = result[1]

    def _note_beam(self, args, result) -> None:
        # decode() keeps the greedy tree when it outscores the beam's best.
        if self._greedy_score is not None and self._greedy_score > result[1]:
            self.counts["decoder.greedy_fallback_docs"] += 1

    # -- output -------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def stage_breakdown(self) -> dict[str, dict[str, float]]:
        """Per stage: wall time, CLI self time and self time of each layer."""
        out: dict[str, dict[str, float]] = {}
        roots: dict[int, str] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent == -1 and name.startswith("cli."):
                roots[i] = name.split(".", 1)[1]
                out[roots[i]] = {"wall_s": end - start}
        # Walk spans in creation order: a parent is always created first.
        root_of: list[int] = []
        child_time = [0.0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            root_of.append(i if parent == -1 else root_of[parent])
            if parent != -1:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if root_of[i] not in roots:
                continue
            row = out[roots[root_of[i]]]
            key = "cli_self_s" if parent == -1 else name.split(".", 1)[0] + "_s"
            row[key] = row.get(key, 0.0) + (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}) + "\n")


def _rstkit_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rstkit" or n.startswith("rstkit."))]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
