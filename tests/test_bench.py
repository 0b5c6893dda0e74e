"""Tests for the benchmark harness: tables, SLOC counting, experiments."""

from repro.bench.harness import ResultTable, Row
from repro.bench.sloc import (
    JOIN_PLAN_OPERATORS,
    PLATFORM_OPERATORS,
    module_sloc,
    operator_sloc_table,
)


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t", ("x",), ("y",))
        table.add({"x": 1}, {"y": 2.0})
        table.add({"x": 2}, {"y": 4.0})
        assert table.column("x") == [1, 2]
        assert table.column("y") == [2.0, 4.0]

    def test_render_contains_headers_and_values(self):
        table = ResultTable("My title", ("cfg",), ("metric",))
        table.add({"cfg": "fast"}, {"metric": 1.25})
        text = table.render()
        assert "My title" in text
        assert "cfg" in text and "metric" in text
        assert "fast" in text and "1.25" in text

    def test_render_empty(self):
        table = ResultTable("empty", ("a",), ("b",))
        assert "empty" in table.render()

    def test_row_get(self):
        row = Row({"a": 1}, {"b": 2.0})
        assert row.get("a") == 1 and row.get("b") == 2.0


class TestSloc:
    def test_counts_code_not_docs(self):
        import repro.bench.sloc as sloc_module

        # The module itself has a long docstring; SLOC excludes it.
        total_lines = len(open(sloc_module.__file__).read().splitlines())
        assert 0 < module_sloc(sloc_module) < total_lines

    def test_operator_table_complete(self):
        rows = operator_sloc_table()
        assert {r.abbreviation for r in rows} == set(JOIN_PLAN_OPERATORS)
        assert all(r.sloc > 0 for r in rows)

    def test_exchange_is_largest(self):
        rows = {r.abbreviation: r.sloc for r in operator_sloc_table()}
        assert rows["EX"] == max(rows.values())

    def test_platform_operators_subset(self):
        assert set(PLATFORM_OPERATORS) <= set(JOIN_PLAN_OPERATORS)


class TestExperimentsSmoke:
    """Fast smoke runs of every experiment at tiny scale."""

    def test_fig6(self):
        from repro.bench.experiments import Fig6Config, run_fig6

        breakdown, totals = run_fig6(
            Fig6Config(n_tuples=1 << 12, machines=(2, 4), breakdown_machines=(4,))
        )
        assert len(totals.rows) == 2
        assert len(breakdown.rows) == 3

    def test_fig7(self):
        from repro.bench.experiments import Fig7Config, run_fig7

        left, right = run_fig7(
            Fig7Config(n_tuples=1 << 12, machines=(2,), cardinalities=(1, 2))
        )
        assert len(left.rows) == 1
        assert len(right.rows) == 2

    def test_fig8(self):
        from repro.bench.experiments import Fig8Config, run_fig8

        a, bc, d = run_fig8(
            Fig8Config(
                n_tuples=1 << 10,
                machines=(2,),
                output_scales=(1, 2),
                join_counts=(2,),
                sweep_machines=2,
            )
        )
        assert len(a.rows) == 1 and len(bc.rows) == 2 and len(d.rows) == 1

    def test_fig9(self):
        from repro.bench.experiments import Fig9Config, run_fig9

        table = run_fig9(Fig9Config(scale_factor=0.005, machines=2))
        assert table.column("query") == ["Q4", "Q12", "Q14", "Q19"]
        assert all(r > 1 for r in table.column("presto_vs_modularis"))

    def test_micro(self):
        from repro.bench.experiments import MicroConfig, run_micro

        table = run_micro(MicroConfig(n_integers=1 << 14))
        ratios = dict(zip(table.column("mode"), table.column("vs_raw")))
        assert ratios["interpreted"] > ratios["fused"] > ratios["raw_loop"]

    def test_table1(self):
        from repro.bench.experiments import run_table1

        per_op, summary = run_table1()
        assert len(per_op.rows) == 16
        assert len(summary.rows) >= 5

    def test_broadcast_crossover(self):
        from repro.bench.experiments import BroadcastConfig, run_broadcast_crossover

        table = run_broadcast_crossover(
            BroadcastConfig(big_rows=1 << 12, small_fractions=(0.1, 2.0), machines=2)
        )
        speedups = table.column("broadcast_speedup")
        assert speedups[0] > speedups[1]

    def test_scaleout(self):
        from repro.bench.experiments import ScalingConfig, run_scaleout

        table = run_scaleout(ScalingConfig(n_tuples=1 << 12, machines=(2, 4)))
        assert table.column("speedup")[0] == 1.0
        assert table.column("efficiency")[1] < 1.0

    def test_skew(self):
        from repro.bench.experiments import SkewConfig, run_skew

        table = run_skew(
            SkewConfig(n_tuples=1 << 12, machines=4, head_fractions=(0.0, 0.75))
        )
        imbalance = table.column("imbalance")
        assert imbalance[1] > imbalance[0]


class TestSmokeProbes:
    """``make bench-smoke`` probes use only the ``RunOptions`` surface."""

    def test_micro_and_profiler_probes_emit_no_deprecation_warning(self):
        import warnings

        from repro.bench.smoke import _micro, _profiler_overhead

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert set(_micro(1 << 10, repeats=1)) == {"fused", "interpreted"}
            overhead = _profiler_overhead(1 << 10, repeats=1)
        assert overhead["disabled_seconds"] > 0
