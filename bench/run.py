"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload bound --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The untraced run (``--trace 0``)
repeats verdict passes for about ``--seconds`` seconds and reports the
end-to-end metrics named in BENCHMARK.json, times in reference seconds
(refclock.py); the traced run
(``--trace 1``) alternates untraced and traced passes and reports the
per-layer metrics, writing its spans to ``.bench_out/``.  Lines before
the last describe the run; the last line is one JSON object.  The exit
status is 0 when every outcome passed its check, 1 when one did not,
and 2 when the benchmark cannot run here.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from refclock import Clock
from tracer import GROUPING, AllocTracer, NullTracer, Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
# the layer boundaries the workloads wrap in spans
LAYER_SPANS = (
    "semigroup.closure",
    "collisions.pair_statuses",
    "injection.verify_injective",
    "injection.strict_gap",
    "dfa.suffix_free",
    "dfa.is_minimal",
    "search.search_max",
    "search.canonicalize",
)


def _fresh_import():
    for name in [m for m in sys.modules if m == "sfsyn" or m.startswith("sfsyn.")]:
        del sys.modules[name]
    return importlib.import_module("sfsyn")


def _run_pass(workload, tracer, tally: Tally, clock: Clock | None = None) -> tuple[float, float]:
    """One verdict pass, checked afterwards; returns its start and end."""
    start = time.perf_counter()
    with tracer.span("pass"):
        outcome = workload.run_pass(tracer, tally)
    end = time.perf_counter()
    if clock:
        clock.cut()
    workload.check(outcome, tally)
    return start, end


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _exact(value: float):
    return int(value) if float(value).is_integer() else value


def _timed_run(workload, tally: Tally, seconds: float, clock: Clock) -> tuple[dict, list[float], list[float]]:
    tracer = NullTracer()
    raw: list[float] = []
    passes: list[float] = []
    jobs: list[float] = []
    started = time.perf_counter()
    while True:
        first_job = len(tally.jobs)
        start, end = _run_pass(workload, tracer, tally, clock)
        raw.append(end - start)
        passes.append(clock.scaled(start, end))
        jobs.extend(clock.scaled(s, e) for s, e in tally.jobs[first_job:])
        # stop at the pass boundary nearest the time budget
        if time.perf_counter() - started + statistics.median(raw) / 2 >= seconds:
            break
    if len(jobs) >= 100:
        # a 90th percentile with at least ten samples beyond it
        print(f"job_p90_ms: {statistics.quantiles(jobs, n=10)[8] * 1e3:.4f} ms over {len(jobs)} jobs")
    metrics = {
        "verdict_s": statistics.median(passes),
        "job_p50_ms": statistics.median(jobs) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, passes, raw


def _traced_passes(workload, tally: Tally, seconds: float, clock: Clock) -> tuple[Tracer, list[float], list[float]]:
    """Alternate untraced and traced passes (each traced one followed by
    the workload's probe) until the time budget is spent."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while True:
        start, end = _run_pass(workload, NullTracer(), tally, clock)
        untraced.append(clock.scaled(start, end))
        start, end = _run_pass(workload, tracer, tally, clock)
        traced.append(clock.scaled(start, end))
        workload.probe(tracer)
        step = (statistics.median(untraced) + statistics.median(traced)) / 2
        if time.perf_counter() - started + step >= seconds:
            break
    return tracer, untraced, traced


def _layer_metrics(workload, tally: Tally, totals: dict, untraced: list[float], traced: list[float]) -> dict:
    passes = len(untraced) + len(traced)
    alloc = AllocTracer("semigroup.closure")
    if "semigroup.closure" in totals:
        # one more pass, with tracemalloc inside the closure spans only
        _run_pass(workload, alloc, tally)
        passes += 1

    def per_pass(total: float):
        return _exact(total / len(traced))

    def count(name: str):
        return _exact(tally.counts[name] / passes)

    metrics: dict = {}
    for name in LAYER_SPANS:
        row = totals.get(name, {"calls": 0, "busy_s": 0.0})
        metrics[f"{name}.calls"] = per_pass(row["calls"])
        metrics[f"{name}.busy_s"] = row["busy_s"] / len(traced)
    for name in (
        "semigroup.closure.elements",
        "collisions.pair_statuses.elements",
        "injection.verify_injective.elements",
        "search.visited",
        "search.selections",
        "search.terminal_selections",
        "search.pruned_selections",
        "search.extensions",
        "search.level1_size",
        "search.level2_size",
    ):
        metrics[name] = count(name)
    c = tally.counts
    metrics["semigroup.closure.alloc_peak_mb"] = alloc.peak_bytes / 2**20
    metrics["injection.rewired_share"] = _share(c["injection.rewired"], c["injection.verify_injective.elements"])
    metrics["dfa.suffix_free.violation_share"] = _share(c["dfa.suffix_free.violations"], c["dfa.suffix_free.checked"])
    metrics["search.rejected_share"] = _share(c["search.rejected_selections"], c["search.selections"])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    uncovered = sum(totals.get(name, {"self_s": 0.0})["self_s"] for name in GROUPING)
    metrics["trace.uncovered_s"] = uncovered / len(traced)
    return metrics


def _machine() -> str:
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (
        f"nproc={os.cpu_count()} ram_gb={ram_gb:.1f} "
        f"python={platform.python_version()} platform={platform.platform()}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smoke-size inputs, for bench/selftest.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "sfsyn" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/sfsyn package or no BENCHMARK.json; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    print(f"machine: {_machine()}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    tally = Tally()
    with Clock() as clock:
        setups: list[float] = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            sf = _fresh_import()
            workload = WORKLOADS[args.workload](sf, args.seed, args.smoke)
            end = time.perf_counter()
            clock.cut()
            setups.append(clock.scaled(start, end))
        if args.trace:
            tracer, untraced, passes = _traced_passes(workload, tally, args.seconds, clock)
        else:
            metrics, passes, raw = _timed_run(workload, tally, args.seconds, clock)
    print(f"inputs: sha256={hashlib.sha256(workload.inputs().encode()).hexdigest()}")
    print(f"setup_s: {' '.join(f'{s:.4f}' for s in setups)}")

    if args.trace:
        totals = tracer.totals(clock.scaled)
        metrics = _layer_metrics(workload, tally, totals, untraced, passes)
        group = "per_layer"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print("span                          calls/pass   busy_s/pass   self_s/pass")
        for name, row in sorted(totals.items()):
            print(
                f"  {name:28s}{row['calls'] / len(passes):10.1f}"
                f"{row['busy_s'] / len(passes):14.6f}{row['self_s'] / len(passes):14.6f}"
            )
    else:
        print(f"wall_s per pass: {' '.join(f'{p:.4f}' for p in raw)}")
        metrics["setup_s"] = statistics.median(setups)
        group = "end_to_end"
        elements = tally.counts["semigroup.closure.elements"] / len(passes)
        dfas = tally.counts["dfa.suffix_free.checked"] / len(passes)
        print(f"jobs: {len(tally.jobs)}")
        if elements:
            print(f"elements_per_s: {elements / metrics['verdict_s']:.1f} 1/s")
        if dfas > 1:
            print(f"dfas_per_s: {dfas / metrics['verdict_s']:.1f} 1/s")
    print(f"passes: {len(passes)} times_s: {' '.join(f'{p:.4f}' for p in passes)}")
    low, high = clock.scale_range()
    print(f"clock: {len(clock.segments)} segments, scales {low:.3f} to {high:.3f}")
    digest = getattr(workload, "digest", None)
    if digest is not None:
        print(f"corpus digest: {json.dumps(digest, sort_keys=True)}")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    for problem in tally.problems[:20]:
        print(f"FAIL {problem}")

    names = {m["name"]: m["unit"] for m in spec[group]}
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
