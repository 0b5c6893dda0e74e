"""Tests of the benchmark's own arithmetic and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
import simclock
from tracer import Span, Tracer, covered, self_times
from workloads import WORKLOADS, query_cycles, until


# -- sample counts ----------------------------------------------------------------


def test_tail_samples_counts_values_strictly_beyond_the_percentile():
    for n in (10, 11, 100, 101, 250):
        values = list(range(n))
        cut = np.percentile(values, 90)
        assert run.tail_samples(n, 90) == sum(1 for v in values if v > cut)
    assert run.tail_samples(101, 90) == 10


# -- self-time arithmetic --------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (5, 6)]) == 3
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5  # overlap counted once
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3  # clipped at both ends
    assert covered(0, 10, [(11, 12), (-3, -1)]) == 0  # outside
    assert covered(0, 10, [(2, 8), (3, 4)]) == 6  # nested


def _span(sid, parent, thread, start, end, cpu=None, name="x"):
    cpu_start, cpu_end = cpu if cpu is not None else (start, end)
    return Span(sid, name, parent, thread, None, start, end, cpu_start, cpu_end)


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        _span(1, None, 7, 0.0, 10.0),
        _span(2, 1, 7, 1.0, 3.0),
        _span(3, 1, 7, 2.0, 5.0),   # overlaps span 2: 1..5 covered = 4
        _span(4, 2, 7, 1.5, 2.5),   # grandchild: only reduces span 2
        _span(5, 1, 8, 0.0, 10.0),  # another thread: a concurrent rank
    ]
    wall = self_times(spans, "wall")
    assert wall[1] == pytest.approx(6.0)
    assert wall[2] == pytest.approx(1.0)
    assert wall[3] == pytest.approx(3.0)
    assert wall[4] == pytest.approx(1.0)
    assert wall[5] == pytest.approx(10.0)


def test_self_time_on_the_cpu_clock_uses_cpu_intervals():
    spans = [
        _span(1, None, 1, 0.0, 10.0, cpu=(100.0, 104.0)),
        _span(2, 1, 1, 2.0, 8.0, cpu=(101.0, 102.5)),
    ]
    cpu = self_times(spans, "cpu")
    assert cpu[1] == pytest.approx(2.5)
    assert cpu[2] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        self_times(spans, "sim")


def test_self_times_sum_to_root_duration_on_one_thread():
    rng = random.Random(3)
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(rng.randint(100, 2000))))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    outer()
    wall = self_times(tracer.spans, "wall")
    root = next(s for s in tracer.spans if s.name == "outer")
    assert sum(wall.values()) == pytest.approx(root.end - root.start, rel=1e-9)


# -- tracer ----------------------------------------------------------------------


def test_wrapped_calls_nest_and_carry_rows_and_query():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda data: len(data), rows=lambda args: len(args[0]))
    root = tracer.wrap("root", lambda: leaf([1, 2, 3]))
    tracer.set_query(42)
    root()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["leaf"].parent == by_name["root"].sid
    assert by_name["root"].parent is None
    assert by_name["leaf"].rows == 3
    assert {s.query for s in tracer.spans} == {42}


def test_adopted_thread_names_the_spawning_span_as_parent():
    tracer = Tracer()
    work = tracer.wrap("rank_work", lambda: None)
    tracer.set_query(5)
    token = tracer.begin("cluster")
    query = tracer.current_query()

    def rank():
        tracer.adopt(token[0], query)
        work()

    thread = threading.Thread(target=rank)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.finish(token)
    child = next(s for s in tracer.spans if s.name == "rank_work")
    assert child.parent == token[0]
    assert child.query == 5
    assert child.thread != threading.get_ident()


def test_steps_wraps_each_next_and_returns_the_generator_value():
    tracer = Tracer()
    closed = []

    def gen():
        try:
            yield 1
            yield 2
            return "report"
        finally:
            closed.append(True)

    tracer.set_query(9)
    steps = tracer.steps(gen(), "step", queued=True)
    tracer.set_query(None)
    time.sleep(0.01)  # queued before its first step

    def advance():
        return next(steps)

    with ThreadPoolExecutor(1) as pool:  # advanced on another thread
        assert pool.submit(advance).result(timeout=10) == 1
    assert next(steps) == 2
    with pytest.raises(StopIteration) as done:
        next(steps)
    assert done.value.value == "report"
    assert [s.name for s in tracer.spans].count("step") == 3
    (wait,) = [s for s in tracer.spans if s.name == "serving.queue_wait"]
    assert wait.end - wait.start >= 0.01
    assert {s.query for s in tracer.spans} == {9}
    assert closed == [True]


def test_closing_steps_closes_the_inner_generator():
    tracer = Tracer()
    closed = []

    def gen():
        try:
            while True:
                yield 0
        finally:
            closed.append(True)

    steps = tracer.steps(gen(), "step", queued=False)
    next(steps)
    steps.close()
    assert closed == [True]


def test_counting_is_exact_across_threads_and_rereads():
    tracer = Tracer()
    fn = tracer.counting("calls", lambda x: x)

    def hammer():
        for i in range(5000):
            fn(i)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tracer.count("calls") == 20000
    assert tracer.count("calls") == 20000
    assert tracer.count("never") == 0


class _Target:
    def method(self):
        return "method"

    @classmethod
    def build(cls, rows):
        return (cls, rows)


def test_patches_are_restored_including_classmethods():
    tracer = Tracer()
    original_method = _Target.__dict__["method"]
    original_build = _Target.__dict__["build"]
    tracer.patch_method(_Target, "method", lambda f: tracer.wrap("m", f))
    tracer.patch_method(
        _Target, "build", lambda f: tracer.wrap("b", f, rows=lambda a: len(a[1]))
    )
    assert _Target().method() == "method"
    assert _Target.build([1, 2]) == (_Target, [1, 2])
    assert [(s.name, s.rows) for s in tracer.spans] == [("m", 0), ("b", 2)]
    tracer.restore()
    assert _Target.__dict__["method"] is original_method
    assert _Target.__dict__["build"] is original_build


# -- the benchmark's declared contract --------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_query_cycles_are_seeded_permutations():
    def take(seed, n=10):
        cycles = query_cycles((4, 12, 14, 19), seed)
        return [next(cycles) for _ in range(n)]

    assert take(7) == take(7)
    assert take(7) != take(8)
    assert all(sorted(cycle) == [4, 12, 14, 19] for cycle in take(7))


def test_until_finishes_the_cycle_under_way_and_starts_no_new_one():
    assert list(until(time.perf_counter() - 1, iter([[1, 2]]))) == []
    items = until(time.perf_counter() + 0.05, iter([[1, 2, 3], [4, 5, 6]]))
    assert next(items) == 1
    time.sleep(0.1)  # the window closes mid-cycle
    assert list(items) == [2, 3]


def test_patch_function_rebinds_every_importer_and_restores():
    import types

    def original():
        return "original"

    home = types.ModuleType("probe_home")
    user = types.ModuleType("probe_home.user")
    home.original = user.original = original
    sys.modules.update({"probe_home": home, "probe_home.user": user})
    try:
        tracer = Tracer()
        tracer.patch_function(original, lambda: "patched", prefix="probe_home")
        assert home.original() == user.original() == "patched"
        tracer.restore()
        assert home.original is user.original is original
        with pytest.raises(LookupError):
            tracer.patch_function(original, original, prefix="no_such_package")
    finally:
        del sys.modules["probe_home"], sys.modules["probe_home.user"]


def test_mix_mean_weighs_queries_equally_and_keeps_repeated_values_exact():
    x = 0.1 + 0.2  # not exactly representable: n copies do not sum to n*x
    assert run.mix_mean([[x] * n for n in (3, 7, 10)]) == x
    assert run.mix_mean([[1.0] * 9, [3.0]]) == 2.0


# -- simulated-clock tripwire ------------------------------------------------------


def test_tripwire_fails_a_simulated_time_other_than_the_committed_one():
    committed = {"q4": (1.5).hex(), "q12": (2.0).hex()}
    assert simclock.tripwire({4: {(1.5).hex()}, 12: {(2.0).hex()}}, committed) == []
    moved = (1.5 + 2**-40).hex()  # a last-bits change still counts
    problems = simclock.tripwire({4: {moved}, 12: {(2.0).hex()}}, committed)
    assert len(problems) == 1 and problems[0].startswith("Q4: simulated time")
    assert simclock.tripwire({6: {(1.0).hex()}}, committed)  # no committed time


def test_tripwire_fails_two_simulated_times_in_one_run_even_without_a_record():
    assert simclock.tripwire({4: {(1.0).hex(), (1.25).hex()}}, None)
    assert simclock.tripwire({4: {(1.0).hex()}}, None) == []


def test_simclock_json_commits_every_direct_query_for_every_seed():
    table = json.loads(simclock.PATH.read_text())
    direct = {name: w for name, w in WORKLOADS.items() if not w.serving}
    assert set(table) == set(direct)
    for name, workload in direct.items():
        assert set(table[name]) == {str(seed) for seed in simclock.SEEDS}
        for seed in simclock.SEEDS:
            entry = simclock.expected(name, seed)
            assert set(entry) == {f"q{q}" for q in workload.queries}
            assert all(float.fromhex(v) > 0 for v in entry.values())
