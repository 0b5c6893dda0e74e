"""Two-clock TPC-H and serving benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch_exchange --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate run that reports the per-layer metrics
(quarter-windows untraced, traced, traced, untraced, so the tracing
overhead shows).
``--workload all`` runs every workload in its own process.  The last line
of standard output is one JSON object; the lines before it are a
readable summary.  The exit code is 1 if any result differed from the
reference interpreter, any query failed, or a simulated time differed
from the one committed in ``simclock.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from layers import SIM_PHASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metric -> unit.  The unit names the clock: ``wall_ms``,
#: ``cpu_ms`` (process CPU) or ``sim_ms`` (the cost model's clock).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "wall_ms",
    "latency_p90_ms": "wall_ms",
    "throughput_qps": "1/s",
    "sim_ms_per_query": "sim_ms",
    "cpu_ms_per_query": "cpu_ms",
    "peak_rss_mb": "MB",
}

ALL_QUERY_IDS = (1, 3, 4, 6, 12, 14, 19)

#: Per-layer metric -> unit; everything is per completed query unless
#: the name says otherwise.  ``cpu_ms`` is thread CPU self time.
PER_LAYER = {
    "optimizer.lower_ms": "wall_ms",
    "executor.driver_self_ms": "wall_ms",
    "executor.mpi_jobs": "count",
    "kernels.build_calls": "count",
    "kernels.build_rows_per_call": "rows",
    "kernels.radix_share": "ratio",
    "kernels.build_cpu_ms": "cpu_ms",
    "kernels.probe_cpu_ms": "cpu_ms",
    "functions.scalar_calls": "count",
    "functions.batch_cpu_ms": "cpu_ms",
    "mpi.put_calls": "count",
    "mpi.put_rows": "rows",
    "mpi.put_cpu_ms": "cpu_ms",
    "mpi.rendezvous_calls": "count",
    "mpi.rendezvous_wait_ms": "wall_ms",
    "mpi.win_create_calls": "count",
    "mpi.win_create_ms": "wall_ms",
    "mpi.cluster_run_ms": "wall_ms",
    "serving.submit_ms": "wall_ms",
    "serving.queue_wait_ms": "wall_ms",
    "serving.steps": "count",
    **{f"sim.{phase}_ms": "sim_ms" for phase in SIM_PHASES},
    "fidelity.wall_over_sim": "ratio",
    "interpreter.ref_ms": "wall_ms",
    **{f"query.q{q}.p50_ms": "wall_ms" for q in ALL_QUERY_IDS},
    **{f"query.q{q}.ref_ratio": "ratio" for q in ALL_QUERY_IDS},
    "trace.untraced_qps": "1/s",
    "trace.traced_qps": "1/s",
    "trace.overhead_pct": "%",
}

#: Reference-interpreter timings per query in a ``--trace 1`` run.
REF_REPEATS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the TPC-H data, query order and tenants")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds of measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def mix_mean(per_query: Iterable[list[float]]) -> float:
    """Mean over the mix's queries of each query's median value.

    Each query weighs the same whatever mix a window completed, and a
    value that repeats exactly stays exact (a mean of equal floats can
    differ in its last digit), so simulated times repeat bit for bit.
    """
    return statistics.fmean(statistics.median(values) for values in per_query)


def tail_samples(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - 1 - int(q / 100.0 * (n - 1))


def end_to_end(window, setup_s: float) -> dict[str, float]:
    done = window.completed
    latencies = [s.latency * 1e3 for s in done]
    per_query_sim: dict[int, list[float]] = {}
    for s in done:
        per_query_sim.setdefault(s.query, []).append(s.report.simulated_time * 1e3)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "throughput_qps": len(done) / window.wall,
        "sim_ms_per_query": mix_mean(per_query_sim.values()),
        "cpu_ms_per_query": window.cpu * 1e3 / len(done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench, untraced, traced, tracer, ref_s: dict[int, float]) -> dict[str, float]:
    from layers import layer_metrics

    metrics = layer_metrics(tracer, len(traced.completed))
    per_query: dict[int, list[dict[str, float]]] = {}
    for s in untraced.completed + traced.completed:
        per_query.setdefault(s.query, []).append(s.report.phase_breakdown())
    for phase in SIM_PHASES:
        metrics[f"sim.{phase}_ms"] = mix_mean(
            [split.get(phase, 0.0) * 1e3 for split in splits]
            for splits in per_query.values()
        )
    base = untraced.completed
    metrics["fidelity.wall_over_sim"] = (
        sum(s.latency for s in base) / sum(s.report.simulated_time for s in base)
    )
    metrics["interpreter.ref_ms"] = statistics.fmean(ref_s.values()) * 1e3
    for q in ALL_QUERY_IDS:
        lat = [s.latency for s in base if s.query == q]
        p50 = float(np.percentile(lat, 50)) if lat else 0.0
        metrics[f"query.q{q}.p50_ms"] = p50 * 1e3
        metrics[f"query.q{q}.ref_ratio"] = p50 / ref_s[q] if q in ref_s and lat else 0.0
    untraced_qps = len(untraced.completed) / untraced.wall
    traced_qps = len(traced.completed) / traced.wall
    metrics["trace.untraced_qps"] = untraced_qps
    metrics["trace.traced_qps"] = traced_qps
    metrics["trace.overhead_pct"] = (1.0 - traced_qps / untraced_qps) * 100.0
    return metrics


def reference_seconds(bench) -> dict[int, float]:
    """Median wall seconds of ``run_logical_plan`` per query (the oracle)."""
    from repro.relational.interpreter import run_logical_plan

    result = {}
    for q, plan in bench.plans.items():
        walls = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            run_logical_plan(plan, bench.catalog)
            walls.append(time.perf_counter() - t0)
        result[q] = statistics.median(walls)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import simclock
    from layers import install_probes
    from tracer import Tracer
    from workloads import WORKLOADS, Bench, Window, query_cycles

    workload = WORKLOADS[name]
    bench = Bench(workload, seed)
    cycles = query_cycles(workload.queries, seed)
    windows = []
    try:
        if not trace:
            setup_s = statistics.median(bench.setup() for _ in range(SETUPS))
            windows.append(bench.window(seconds, cycles))
        else:
            bench.setup()
            tracer = Tracer()
            # Untraced and traced quarter-windows alternate (ABBA), so a
            # drift in host speed cancels out of the tracing overhead.
            parts: dict[bool, list] = {False: [], True: []}
            for traced in (False, True, True, False):
                if traced:
                    install_probes(tracer)
                try:
                    parts[traced].append(bench.window(
                        seconds / 4, cycles, tag=tracer.set_query if traced else None
                    ))
                finally:
                    tracer.restore()
            windows = [Window.merged(parts[False]), Window.merged(parts[True])]
            ref_s = reference_seconds(bench)
    finally:
        bench.teardown()

    failures = [
        f"warm-up result of Q{q} differs from the reference interpreter"
        for q in bench.warmup_failures
    ]
    attempted = failed = 0
    for window in windows:
        bench.check(window)
        errors = [s for s in window.samples if s.error is not None]
        attempted += len(window.samples)
        failed += len(errors)
        failures += sorted({f"Q{s.query}: {s.error}" for s in errors})
    committed = None if workload.serving else simclock.expected(name, seed)
    tripwire = [] if workload.serving else simclock.tripwire(bench.sim_seen, committed)
    failures += tripwire
    labels = ("untraced", "traced") if trace else ("timed",)
    failures += [
        f"no query of the {label} window completed"
        for window, label in zip(windows, labels) if not window.completed
    ]

    units = PER_LAYER if trace else END_TO_END
    metrics: dict[str, float] = {}
    if all(window.completed for window in windows):
        computed = (
            per_layer(bench, windows[0], windows[1], tracer, ref_s) if trace
            else end_to_end(windows[0], setup_s)
        )
        metrics = {key: computed[key] for key in units}
    if trace:
        tracer.write_chrome_trace(HERE / "out" / f"trace-{name}-seed{seed}.json")
    correct = not failures

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for window, label in zip(windows, labels):
        n = len(window.completed)
        print(f"  {label} window: {n} queries in {window.wall:.2f} s "
              f"({tail_samples(n, 90) if n else 0} samples beyond p90)")
    print(f"  error_rate {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    if workload.serving:
        sims = sorted(f"Q{q}: {len(v)} distinct" for q, v in bench.sim_seen.items())
        print(f"  simulated clock (not gated on serving): {', '.join(sims)}")
    elif tripwire:
        print("  simulated clock: changed")
    elif committed is None:
        print(f"  simulated clock: repeats exactly (no committed times for seed {seed})")
    else:
        print("  simulated clock: repeats exactly and matches simclock.json")
    for problem in failures:
        print(f"  FAIL {problem}")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.4f} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:  # the run died before its result line
            results[name] = None
            code = code or 1
    print(json.dumps(results))
    return code


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
