"""The benchmark's layer probes: which public calls are timed, and the
per-layer metrics derived from their spans.

Each probe wraps one public entry point of a layer (see README.md for the
map from each metric to the end-to-end metric it should move):

========================  ==================================================
layer                     wrapped calls
========================  ==================================================
relational.optimizer      ``lower_to_modularis``
core.executor             ``ModularisQuery.execution`` (one span per step),
                          ``ModularisQuery.result_frame``
core.kernels              ``HashJoinBuild.from_rows``,
                          ``RadixJoinBuild.from_rows``, and the probe
                          function ``select_join_kernel`` hands out
core.functions            ``TupleFunction.__call__`` (counted only),
                          ``TupleFunction.apply_batch``
mpi                       ``WindowSet.put``, ``CommWorld.rendezvous``,
                          ``SimComm.win_create``, ``SimCluster.run``
serving                   ``Server.submit`` and the wait until its query's
                          first execution step
========================  ==================================================
"""

from __future__ import annotations

from typing import Callable

from tracer import Tracer, self_times

__all__ = ["install_probes", "layer_metrics", "SIM_PHASES"]

#: Simulated phases reported as ``sim.<phase>_ms``: every phase that
#: ``ExecutionReport.phase_breakdown()`` shows for the benchmark's plans.
SIM_PHASES = (
    "network_partition",
    "local_partition",
    "local_histogram",
    "global_histogram",
    "build_probe",
    "aggregation",
    "materialize",
)


def install_probes(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    from repro.core import functions
    from repro.core.kernels import hash_join, radix_join
    from repro.mpi import cluster, comm
    from repro.relational.optimizer import planner
    from repro.serving import server

    tracer.patch_function(
        planner.lower_to_modularis,
        tracer.wrap("optimizer.lower", planner.lower_to_modularis),
        prefix="repro",
    )

    def execution(original: Callable) -> Callable:
        def traced(self, *args, **kwargs):
            return tracer.steps(
                original(self, *args, **kwargs),
                "executor.step",
                queued=tracer.inside("serving.submit"),
            )

        return traced

    tracer.patch_method(planner.ModularisQuery, "execution", execution)
    tracer.patch_method(
        planner.ModularisQuery, "result_frame",
        lambda f: tracer.wrap("executor.result_frame", f),
    )

    def cluster_run(original: Callable) -> Callable:
        def traced(self, spmd_fn, *args, **kwargs):
            token = tracer.begin("mpi.cluster_run")
            query = tracer.current_query()

            def rank_fn(ctx):
                tracer.adopt(token[0], query)
                return spmd_fn(ctx)

            try:
                return original(self, rank_fn, *args, **kwargs)
            finally:
                tracer.finish(token)

        return traced

    tracer.patch_method(cluster.SimCluster, "run", cluster_run)
    tracer.patch_method(
        comm.WindowSet, "put",
        lambda f: tracer.wrap("mpi.put", f, rows=lambda a: len(a[3])),
    )
    tracer.patch_method(
        comm.CommWorld, "rendezvous", lambda f: tracer.wrap("mpi.rendezvous", f)
    )
    tracer.patch_method(
        comm.SimComm, "win_create", lambda f: tracer.wrap("mpi.win_create", f)
    )

    build_rows = lambda a: len(a[1])  # noqa: E731 - from_rows(cls, left, key)
    tracer.patch_method(
        hash_join.HashJoinBuild, "from_rows",
        lambda f: tracer.wrap("kernels.build_hash", f, rows=build_rows),
    )
    tracer.patch_method(
        radix_join.RadixJoinBuild, "from_rows",
        lambda f: tracer.wrap("kernels.build_radix", f, rows=build_rows),
    )
    traced_probes: dict[Callable, Callable] = {}
    select = radix_join.select_join_kernel

    def select_join_kernel(*args, **kwargs):
        label, build, probe = select(*args, **kwargs)
        traced = traced_probes.get(probe)
        if traced is None:
            traced = traced_probes[probe] = tracer.wrap("kernels.probe", probe)
        return label, build, traced

    tracer.patch_function(select, select_join_kernel, prefix="repro")

    tracer.patch_method(
        functions.TupleFunction, "__call__",
        lambda f: tracer.counting("functions.scalar_call", f),
    )
    tracer.patch_method(
        functions.TupleFunction, "apply_batch",
        lambda f: tracer.wrap("functions.apply_batch", f),
    )
    tracer.patch_method(
        server.Server, "submit", lambda f: tracer.wrap("serving.submit", f)
    )


def layer_metrics(tracer: Tracer, n_queries: int) -> dict[str, float]:
    """Per-query layer metrics from one traced window of ``n_queries``.

    Times are in milliseconds; ``*_cpu_ms`` are thread CPU self time,
    every other ``*_ms`` is wall time.  Self time excludes same-thread
    child spans (see :func:`tracer.self_times`).
    """
    spans = tracer.spans
    wall_self = self_times(spans, "wall")
    cpu_self = self_times(spans, "cpu")
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    wall_total: dict[str, float] = {}
    wall_excl: dict[str, float] = {}
    cpu_excl: dict[str, float] = {}
    served_queries = {s.query for s in spans if s.name == "serving.submit"}
    serving_steps = 0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.rows
        wall_total[s.name] = wall_total.get(s.name, 0.0) + (s.end - s.start)
        wall_excl[s.name] = wall_excl.get(s.name, 0.0) + wall_self[s.sid]
        cpu_excl[s.name] = cpu_excl.get(s.name, 0.0) + cpu_self[s.sid]
        if s.name == "executor.step" and s.query in served_queries:
            serving_steps += 1

    n = max(n_queries, 1)

    def per_query(table: dict, *names: str, scale: float = 1.0) -> float:
        return sum(table.get(name, 0) for name in names) * scale / n

    builds = calls.get("kernels.build_hash", 0) + calls.get("kernels.build_radix", 0)
    build_rows = rows.get("kernels.build_hash", 0) + rows.get("kernels.build_radix", 0)
    return {
        "optimizer.lower_ms": per_query(wall_excl, "optimizer.lower", scale=1e3),
        "executor.driver_self_ms": per_query(
            wall_excl, "executor.step", "executor.result_frame", scale=1e3
        ),
        "executor.mpi_jobs": per_query(calls, "mpi.cluster_run"),
        "kernels.build_calls": builds / n,
        "kernels.build_rows_per_call": build_rows / builds if builds else 0.0,
        "kernels.radix_share": (
            calls.get("kernels.build_radix", 0) / builds if builds else 0.0
        ),
        "kernels.build_cpu_ms": per_query(
            cpu_excl, "kernels.build_hash", "kernels.build_radix", scale=1e3
        ),
        "kernels.probe_cpu_ms": per_query(cpu_excl, "kernels.probe", scale=1e3),
        "functions.scalar_calls": tracer.count("functions.scalar_call") / n,
        "functions.batch_cpu_ms": per_query(
            cpu_excl, "functions.apply_batch", scale=1e3
        ),
        "mpi.put_calls": per_query(calls, "mpi.put"),
        "mpi.put_rows": per_query(rows, "mpi.put"),
        "mpi.put_cpu_ms": per_query(cpu_excl, "mpi.put", scale=1e3),
        "mpi.rendezvous_calls": per_query(calls, "mpi.rendezvous"),
        "mpi.rendezvous_wait_ms": per_query(wall_total, "mpi.rendezvous", scale=1e3),
        "mpi.win_create_calls": per_query(calls, "mpi.win_create"),
        "mpi.win_create_ms": per_query(wall_total, "mpi.win_create", scale=1e3),
        "mpi.cluster_run_ms": per_query(wall_total, "mpi.cluster_run", scale=1e3),
        "serving.submit_ms": per_query(wall_excl, "serving.submit", scale=1e3),
        "serving.queue_wait_ms": per_query(
            wall_total, "serving.queue_wait", scale=1e3
        ),
        "serving.steps": serving_steps / n,
    }
