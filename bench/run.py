#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rstkit CLI pipeline.

Run from the repository root:

    python3 bench/run.py --workload treebank-gum --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py):

* ``treebank-gum``  convert -> stats --by-genre --sents -> parse --oracle
                    -> eval --by-genre, over 213 GUM-shaped .rs3 files;
* ``segmenter``     train-segmenter -> segment -> parse --baseline
                    -> eval --end-to-end;
* ``beam-scores``   parse --scores (greedy) -> parse --scores --beam 16
                    -> eval, over a seeded score dump.

``--trace 0`` runs the chain as subprocesses, one stage at a time, repeating
it while ``--seconds`` allow.  Each stage's wall time and peak RSS come
from ``os.wait4``.  The machine's speed drifts by tens of percent over
seconds to minutes, so every stage is bracketed by a fixed calibration on
the same CPU, and times are reported at the calibration's reference speed
(see end_to_end_metrics); raw wall times go to the report line.
``--trace 1`` runs the chain in this process three times: untraced, with
spans recorded around rstkit's functions (spans.py), and untraced again.
It reports self time per layer, counters, per-document latency and the
tracing overhead.  Either way every output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when a stage or a check failed.

``--smoke`` shrinks the inputs so that the whole harness runs in seconds.
Inputs are written under ``.bench_work/`` in the repository root and
deleted afterwards; the traced run leaves its spans in
``.bench_work/<workload>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))
# Stages run pinned to one CPU (see main), where a second BLAS thread could
# only compete with the first.
BLAS_THREADS = 1
SETUP_RUNS = 7  # `rstkit --version` runs before the first repetition
# The calibration's time at the reference speed; see calibrate().  Timed
# 2026 on a 2-vCPU x86-64 VM with Python 3.11, it turns normalised times
# back into seconds at that machine's usual speed.
CAL_REF_S = 0.21
FIXED_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "LC_ALL": "C.UTF-8",
}
# The benchmark process itself runs the traced chain, so it pins the same
# threads before numpy is first imported.
os.environ.update({k: v for k, v in FIXED_ENV.items() if k != "PYTHONPATH"})

# Per-layer metrics, reported by --trace 1 (0 where a workload does not
# reach the layer).  Span times are self times: a span's duration minus
# that of the spans it contains.
STAGES = ("convert", "stats", "train", "segment", "parse", "parse_beam", "eval")
LAYER_SPANS = {
    "treebank.parse_rs3_s": "treebank.parse_rs3",
    "treebank.extract_forest_s": "treebank.extract_forest",
    "treebank.tokenize_s": "treebank.tokenize",
    "treebank.binarize_s": "treebank.binarize",
    "treebank.write_canonical_s": "treebank.write_canonical",
    "treebank.iter_canonical_s": "treebank.iter_canonical",
    "core.corpus_validate_s": "core.corpus_validate",
    "core.record_validate_s": "core.record_validate",
    "preprocess.preprocess_corpus_self_s": "preprocess.preprocess_corpus",
    "metrics.corpus_stats_s": "metrics.corpus_stats",
    "metrics.parseval_s": "metrics.parseval",
    "metrics.end_to_end_eval_s": "metrics.end_to_end_eval",
    "crf.features_s": "crf.features",
    "crf.log_likelihood_s": "crf.log_likelihood",
    "crf.viterbi_s": "crf.viterbi",
    "decoder.greedy_s": "decoder.greedy",
    "decoder.beam_s": "decoder.beam",
    "decoder.provider_s": "decoder.provider",
    "decoder.score_table_load_s": "decoder.score_table_load",
}
COUNTERS = (
    "decoder.split_queries", "decoder.distinct_split_ranges",
    "decoder.label_queries", "decoder.distinct_label_pairs",
    "decoder.greedy_fallback_docs",
)
LATENCY_STAGES = ("segment", "parse_beam")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Subprocess stages
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ("PATH", "HOME", "TMPDIR") if k in os.environ}
    env.update(FIXED_ENV)
    return env


def run_cli(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int, str]:
    """Run ``rstkit <argv>``; returns wall seconds, peak RSS in MB, exit
    code and stdout."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rstkit.cli", *argv],
            cwd=cwd, env=child_env(), stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"rstkit {' '.join(argv)} exited {proc.returncode}:\n"
                         + err_path.read_text(encoding="utf-8", errors="replace"))
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text("utf-8")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed piece of Python work that shares no code
    with rstkit: generating and JSON-decoding a small corpus.  It runs
    gen.py, so a change there must re-time CAL_REF_S."""
    import gen

    started = time.perf_counter()
    for doc in gen.make_docs(0, "calibration", 12, 4000):
        json.loads(gen.canonical_line(doc, "train"))
    return time.perf_counter() - started


def untraced(wl, work: Path, seconds: float, smoke: bool) -> dict:
    log = work / "logs"
    log.mkdir()
    run_cli(["--version"], work, log / "warmup")  # compiles bytecode once
    calibrate()
    setup = []
    before = calibrate()
    for _ in range(SETUP_RUNS):
        wall = run_cli(["--version"], work, log / "version")[0]
        after = calibrate()
        setup.append((wall, (before + after) / 2))
        before = after
    reps: list[dict] = []
    checks: dict[str, str | None] = {}
    stage_runs = stage_failures = 0
    first_digest = None
    started = time.perf_counter()
    while True:
        # Calibrations bracket every stage; a stage's wall time is divided
        # by the mean of the two around it.
        rep = {"times": {}, "cal": {}, "rss": {}, "stdout": {}}
        before = calibrate()
        for stage in wl.stages:
            wall, rss, code, stdout = run_cli(stage.argv, work, log / stage.key)
            after = calibrate()
            rep["cal"][stage.key], before = (before + after) / 2, after
            stage_runs += 1
            stage_failures += code != 0
            rep["times"][stage.key], rep["rss"][stage.key] = wall, rss
            rep["stdout"][stage.key] = stdout
            if code != 0:
                return {"reps": reps, "setup": setup, "checks": checks, "crashed": True,
                        "stage_runs": stage_runs, "stage_failures": stage_failures}
        outputs = [work / o for stage in wl.stages for o in stage.outputs]
        if not reps:
            checks.update(wl.check(work, rep["stdout"]))
            first_digest = digest(outputs)
        else:
            same = digest(outputs) == first_digest
            checks[f"repetition {len(reps) + 1} repeats the outputs"] = (
                None if same else "outputs changed between identical runs")
        reps.append(rep)
        # Stop before a repetition that would end after --seconds.
        elapsed = time.perf_counter() - started
        if smoke or elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return {"reps": reps, "setup": setup, "checks": checks, "crashed": False,
            "stage_runs": stage_runs, "stage_failures": stage_failures}


def end_to_end_metrics(wl, res: dict) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, every stage metric for the report).

    Times are normalised to the reference speed: each wall time is divided
    by the mean of the calibrations run just before and after it on the
    same CPU and multiplied by CAL_REF_S; the median over repetitions is
    reported.  The raw best and median wall times go to the report."""
    from workloads import eval_scores

    reps = res["reps"]
    med = statistics.median
    norm = {s.key: med(r["times"][s.key] / r["cal"][s.key] for r in reps) * CAL_REF_S
            for s in wl.stages}
    quality = eval_scores(reps[0]["stdout"]["eval"])
    metrics = {
        "setup_s": (med(w / c for w, c in res["setup"]) * CAL_REF_S, "s"),
        "pipeline_s": (sum(norm.values()), "s"),
        "peak_rss_mb": (med(max(r["rss"].values()) for r in reps), "MB"),
        "focus_stage_s": (norm[wl.focus], "s"),
        "parse_s": (norm["parse"], "s"),
        "eval_s": (norm["eval"], "s"),
        "quality_f1": (quality[wl.quality], "%"),
    }
    report = {f"{k}_s": (v, "s") for k, v in norm.items()}
    for s in wl.stages:
        walls = [r["times"][s.key] for r in reps]
        report[f"{s.key}_wall_best_s"] = (min(walls), "s")
        report[f"{s.key}_wall_median_s"] = (med(walls), "s")
    report["pipeline_wall_median_s"] = (med(sum(r["times"].values()) for r in reps), "s")
    report["setup_wall_median_s"] = (med(w for w, _ in res["setup"]), "s")
    cals = [c for r in reps for c in r["cal"].values()]
    report["calibration_median_s"] = (med(cals), "s")
    report.update({k: (v, "%") for k, v in quality.items()})
    report["repetitions"] = (len(reps), "count")
    return metrics, report


# ---------------------------------------------------------------------------
# In-process stages (traced run)
# ---------------------------------------------------------------------------


def in_process(argv: list[str], work: Path) -> tuple[int, str]:
    from rstkit import cli

    buffer = io.StringIO()
    previous = Path.cwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return code, buffer.getvalue()


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value): the highest whole percentile with at least ten values
    above it, by nearest rank; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    p = (100 * (n - 10)) // n
    return float(p), ordered[max(0, -(-p * n // 100) - 1)]


def traced(wl, work: Path, trace_path: Path) -> dict:
    """Untraced pass (outputs, checks), traced pass, untraced pass again.
    The overhead compares the traced pass with the faster untraced one, so
    one-off warm-up costs of the first pass do not hide it."""
    from spans import LAYERS, Tracer

    stage_runs = stage_failures = 0
    stdout: dict[str, str] = {}

    def untraced_pass() -> float:
        nonlocal stage_runs, stage_failures
        started = time.perf_counter()
        for stage in wl.stages:
            code, stdout[stage.key] = in_process(stage.argv, work)
            stage_runs += 1
            stage_failures += code != 0
        return time.perf_counter() - started

    untraced_s = untraced_pass()
    if stage_failures:
        return {"stage_runs": stage_runs, "stage_failures": stage_failures, "checks": {},
                "metrics": {}}
    checks = wl.check(work, stdout)

    tracer = Tracer()
    tracer.install()
    try:
        for stage in wl.stages:
            codes = []
            tracer.run_stage(stage.key, lambda: codes.append(in_process(stage.argv, work)[0]))
            stage_runs += 1
            stage_failures += codes != [0]
    finally:
        tracer.uninstall()
    untraced_s = min(untraced_s, untraced_pass())
    breakdown = tracer.stage_breakdown()
    traced_s = sum(row["wall_s"] for row in breakdown.values())
    tracer.write(trace_path)
    if tracer.missing:
        print(f"trace: hooks not found: {', '.join(tracer.missing)}", file=sys.stderr)

    metrics: dict[str, tuple[float, str]] = {}
    layer_self = tracer.layer_self()
    for layer in ("cli", *LAYERS):
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (tracer.self_time.get(span, 0.0), "s")
    metrics["crf.log_likelihood_calls"] = (tracer.calls.get("crf.log_likelihood", 0), "count")
    tokens = tracer.counts.get("crf.feature_tokens", 0)
    metrics["crf.feature_bytes_per_token"] = (
        tracer.counts["crf.feature_bytes"] / tokens if tokens else 0.0, "B")
    metrics["crf.train_peak_mb"] = (train_peak_mb(wl, work), "MB")
    from workloads import eval_scores

    metrics["crf.seg_f1"] = (eval_scores(stdout["eval"]).get("seg_f1", 0.0), "%")
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for stage in STAGES:
        row = breakdown.get(stage, {})
        metrics[f"cli.{stage}.wall_s"] = (row.get("wall_s", 0.0), "s")
        metrics[f"cli.{stage}.self_s"] = (row.get("cli_self_s", 0.0), "s")
    report: dict[str, tuple[float, str]] = {}
    for stage in LATENCY_STAGES:
        latencies = [x * 1000 for x in tracer.doc_latency.get(stage, [])]
        p, tail = tail_percentile(latencies) if latencies else (0.0, 0.0)
        metrics[f"{stage}.doc_ms_p50"] = (statistics.median(latencies) if latencies else 0.0,
                                          "ms")
        metrics[f"{stage}.doc_ms_tail"] = (tail, "ms")
        report[f"{stage}.doc_tail_percentile"] = (p, "%")
        report[f"{stage}.docs"] = (len(latencies), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    report["trace.spans"] = (len(tracer.spans), "count")
    for stage, row in breakdown.items():
        parts = sum(v for k, v in row.items() if k != "wall_s")
        checks[f"{stage}: layer and CLI self times add up to the traced wall time"] = (
            None if abs(parts - row["wall_s"]) <= 1e-6 * row["wall_s"]
            else f"{parts} s != {row['wall_s']} s")
    return {"stage_runs": stage_runs, "stage_failures": stage_failures, "checks": checks,
            "metrics": metrics, "report": report, "breakdown": breakdown}


def train_peak_mb(wl, work: Path) -> float:
    """Peak traced Python/numpy allocation of one training epoch, in MB.
    Measured apart from the timed and traced runs: tracemalloc is slow."""
    import tracemalloc

    stage = next((s for s in wl.stages if s.key == "train"), None)
    if stage is None:
        return 0.0
    argv = list(stage.argv)
    argv[argv.index("--epochs") + 1] = "1"
    argv[argv.index("-o") + 1] = "tracemalloc.npz"
    tracemalloc.start()
    try:
        in_process(argv, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "PYTHONHASHSEED": FIXED_ENV["PYTHONHASHSEED"],
        "seed": seed,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so that run_cli stops the running stage
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (SRC / "rstkit" / "cli.py").is_file():
        print(f"rstkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every stage it starts, so that a stage
    # and the calibration before it run on the same, equally busy, core.
    os.sched_setaffinity(0, {PINNED_CPU})

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        wl = WORKLOADS[args.workload](work, args.seed, "smoke" if args.smoke else "full")
        setup_inputs_s = time.perf_counter() - started
        if args.trace:
            res = traced(wl, work, WORK_ROOT / f"{args.workload}.trace.jsonl")
            metrics, report = res["metrics"], res.get("report", {})
        else:
            res = untraced(wl, work, args.seconds, args.smoke)
            metrics, report = ({}, {}) if res["crashed"] else end_to_end_metrics(wl, res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_checks = {k: v for k, v in res["checks"].items() if v is not None}
    attempted = res["stage_runs"] + len(res["checks"])
    failed = res["stage_failures"] + len(failed_checks)
    correct = failed == 0 and bool(metrics)
    report.update({"failed_frac": (failed / attempted, "ratio"),
                   "input_generation_s": (setup_inputs_s, "s")})
    print(json.dumps({"workload": wl.name, "trace": args.trace, "input": wl.size,
                      "environment": environment(args.seed),
                      "failed_checks": failed_checks,
                      "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                      "stage_breakdown_s": res.get("breakdown", {})}))
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for stage, row in res.get("breakdown", {}).items():
        parts = ", ".join(f"{k[:-2]} {v:.3f}" for k, v in row.items() if k != "wall_s")
        print(f"  {stage}: traced wall {row['wall_s']:.3f} s = {parts}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
