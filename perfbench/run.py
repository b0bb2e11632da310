#!/usr/bin/env python3
"""Benchmark runner for finquot: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify-long --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; finquot is imported from its `src/`.
Workloads (see workloads.py): certify-long, corpus-r8, profile-scan.  One
process, one thread, closed loop.  The run repeats whole passes over the
seeded inputs while the next pass is expected to end within `--seconds`
(at least one pass).

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends half the
time untraced and half with layer spans (tracing.py), and prints the
per-layer metrics.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
report every metric with its unit, the sample counts, the environment and
the output digest.  Results and spans go to perfbench/out/.

The run exits 1 when an output is wrong (including a golden-digest
mismatch), and 2 without a result when finquot cannot be imported from the
checkout.  `--smoke` shrinks every workload to a few seconds for the
benchmark's own test; it skips the golden check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
DEFAULT_SEED = 0
MODULES = ("cli", "errors", "groups", "profiler", "serialize", "witness")

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no golden check")
    return parser.parse_args(argv)


def import_finquot() -> SimpleNamespace:
    """A fresh import of finquot from the checkout's src/."""
    for name in [m for m in sys.modules if m == "finquot" or m.startswith("finquot.")]:
        del sys.modules[name]
    package = importlib.import_module("finquot")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"finquot was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"finquot.{m}") for m in MODULES})


def set_up(args):
    """Import, GroupSpec construction and input generation, timed several
    times; returns the median and the last set-up's modules and workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # free the previous import's modules outside the timed part
        start = time.perf_counter()
        fq = import_finquot()
        workload = WORKLOADS[args.workload](fq, args.seed, args.smoke, OUT)
        times.append(time.perf_counter() - start)
    return statistics.median(times), fq, workload


def run_passes(workload, budget_s: float, tracer=None) -> list:
    """Whole passes while the next one is expected to end within budget_s."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        res = workload.run_pass(tracer)
        res.wall = time.perf_counter() - t0
        passes.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget_s:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between order statistics; 0.0 for
    no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest(outputs: list[str]) -> str:
    return hashlib.sha256(("\n".join(outputs) + "\n").encode("utf-8")).hexdigest()


def end_to_end(passes: list, setup_s: float) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the ones only reported."""
    walls = [p.wall for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    verify = [x for p in passes for x in p.verify]
    completed = sum(p.completed for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        # passes repeat the same ops, so this is ops per pass over the median pass
        "throughput_ops_s": (completed / len(passes) / statistics.median(walls), "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = {
        "latency_samples": (len(latencies), "count"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    if verify:
        reported["verify_p50_ms"] = (1e3 * percentile(verify, 0.5), "ms")
        reported["verify_samples"] = (len(verify), "count")
    return metrics, reported


def git_sha() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(budgets_env: str | None) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "FINQUOT_BUDGETS": "removed" if budgets_env is not None else "unset",
    }


def golden_status(args, value: str) -> str:
    if args.smoke:
        return "not-checked (smoke)"
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    if golden["seed"] is not None and golden["seed"] != args.seed:
        return f"not-checked (golden is for seed {golden['seed']})"
    return "match" if value == golden["sha256"] else f"mismatch (golden {golden['sha256']})"


def expected_names(trace: int) -> dict:
    """Metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    budgets_env = os.environ.pop("FINQUOT_BUDGETS", None)
    sys.path.insert(0, SRC)
    try:
        setup_s, fq, workload = set_up(args)
    except ImportError as exc:
        print(f"perfbench: cannot import finquot from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    problems: list[str] = []
    if args.trace:
        untraced = run_passes(workload, args.seconds / 2)
        tracer = Tracer(fq)
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced, traced, tracer = run_passes(workload, args.seconds), [], None
    passes = untraced + traced

    metrics, reported = end_to_end(untraced, setup_s)
    digests = {digest(p.outputs) for p in passes}
    value = digest(passes[0].outputs)
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} different digests")
    for p in passes:
        problems.extend(p.problems)
    status = golden_status(args, value)
    if status.startswith("mismatch"):
        problems.append(f"golden digest {status}")

    layers = {}
    if tracer is not None:
        layers, repeat = layer_metrics(tracer, [p.wall for p in traced], metrics["wall_s"][0])
        if not repeat:
            problems.append("per-layer counts differ between traced passes")
        if tracer.probe_mismatches:
            problems.append(f"{tracer.probe_mismatches} probes did not reproduce rec.hom")

    emitted = layers if args.trace else metrics
    if expected_names(args.trace) != {k: unit for k, (_, unit) in emitted.items()}:
        problems.append("emitted metrics differ from BENCHMARK.json")

    env = environment(budgets_env)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes untraced={len(untraced)} traced={len(traced)} attempted={attempted} "
          f"completed={sum(p.completed for p in passes)} failed={failed}")
    for group in (metrics, reported, layers):
        for name, (val, unit) in group.items():
            print(f"metric {name} {val:.6g} {unit}")
    print(f"digest sha256={value} golden={status}")
    for problem in problems[:20]:
        print(f"problem {problem}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in emitted.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "args": vars(args), "env": env, "digest": value, "golden": status,
                   "end_to_end": metrics, "reported": reported, "per_layer": layers,
                   "pass_walls": [p.wall for p in passes], "problems": problems}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
