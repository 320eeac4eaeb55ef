"""Tests for the chaos harness (``repro.experiments.chaos``) and its CLI."""

import pytest

from repro.cli import main
from repro.experiments.chaos import (
    format_chaos_table,
    run_chaos_sweep,
)
from repro.obs.bench import write_bench_files
from repro.obs.export import load_bench, validate_run
from repro.perf.parallel import env_default_workers

SMALL_SCENARIO = dict(
    num_readers=6,
    num_tags=40,
    side=25.0,
    lambda_interference=10.0,
    lambda_interrogation=6.0,
    seed=11,
)

#: Small enough for CI, sharded enough (16 target cells at side 200) that
#: the scale chaos leg exercises a genuinely multi-cell fault world.
SCALE_SMALL_SCENARIO = dict(
    num_readers=60,
    num_tags=600,
    side=200.0,
    lambda_interference=10.0,
    lambda_interrogation=5.0,
    seed=5,
)


def _pinned(metrics):
    """The machine- and worker-count-independent metric subset."""
    return {
        k: v for k, v in metrics.items()
        if not k.endswith(("_s", "_by_name"))
        # dispatch telemetry, present only on parallel runs
        and not k.startswith(("pool_", "relay_"))
        and k != "histograms"  # wall-clock distributions, machine-local
    }


@pytest.fixture(scope="module")
def sweep_records():
    """One small sweep shared by the schema/content assertions."""
    return run_chaos_sweep(
        solvers=("ghc",),
        fail_rates=(0.0, 0.2),
        miss_rates=(0.0, 0.2),
        scenario_kwargs=SMALL_SCENARIO,
        max_slots=512,
    )


class TestSweep:
    def test_grid_shape_and_schema(self, sweep_records):
        assert len(sweep_records) == 4  # 1 solver x 2 fail x 2 miss
        for record in sweep_records:
            validate_run(record)
            assert record["bench"] == "chaos"
            assert record["solver"] == "ghc"
            assert record["scenario"]["fault_seed"] == 97

    def test_fault_free_point_matches_baseline(self, sweep_records):
        free = next(
            r["metrics"]
            for r in sweep_records
            if r["metrics"]["fault_fail_rate"] == 0.0
            and r["metrics"]["fault_miss_rate"] == 0.0
        )
        assert free["slowdown"] == 1.0
        assert free["coverage_fraction"] == 1.0
        assert free["outcome"] == "complete"

    def test_faulted_points_slow_but_live(self, sweep_records):
        for record in sweep_records:
            m = record["metrics"]
            if m["fault_fail_rate"] == 0.0 and m["fault_miss_rate"] == 0.0:
                continue
            assert m["slowdown"] >= 1.0
            if m["outcome"] == "complete":
                assert m["coverage_fraction"] == 1.0

    def test_records_are_reproducible(self, sweep_records):
        again = run_chaos_sweep(
            solvers=("ghc",),
            fail_rates=(0.0, 0.2),
            miss_rates=(0.0, 0.2),
            scenario_kwargs=SMALL_SCENARIO,
            max_slots=512,
        )
        for a, b in zip(sweep_records, again):
            assert a["label"] == b["label"]
            m_a = {k: v for k, v in a["metrics"].items()
                   if not k.endswith(("_s", "_by_name"))
                   and k != "histograms"}
            m_b = {k: v for k, v in b["metrics"].items()
                   if not k.endswith(("_s", "_by_name"))
                   and k != "histograms"}
            assert m_a == m_b

    def test_table_lists_every_record(self, sweep_records):
        table = format_chaos_table(sweep_records)
        assert table.count("ghc") == len(sweep_records)
        assert "coverage" in table and "outcome" in table

    def test_table_handles_empty(self):
        assert "(no chaos records)" in format_chaos_table([])

    def test_forkless_pooled_sweep_matches_serial(self, monkeypatch):
        """Without fork a ``workers=2`` sweep maps its grid serially in
        process and reproduces the serial records."""
        from repro.perf import parallel as parallel_module
        from repro.perf import pool as pool_module

        kwargs = dict(
            solvers=("ghc",),
            fail_rates=(0.0, 0.2),
            miss_rates=(0.0, 0.2),
            max_slots=512,
        )
        serial = run_chaos_sweep(**kwargs)
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", True)
        forkless = run_chaos_sweep(workers=2, **kwargs)
        assert len(forkless) == len(serial) == 4
        for got, want in zip(forkless, serial):
            assert got["label"] == want["label"]
            assert _pinned(got["metrics"]) == _pinned(want["metrics"])


@pytest.mark.chaos_smoke
def test_chaos_smoke_end_to_end(tmp_path):
    """Sweep -> BENCH_chaos.json -> load_bench round trip, schema-valid.
    The CI leg re-runs this under ``REPRO_WORKERS=2``, which maps the fault
    grid on the worker pool; a parallel leg additionally re-runs the grid
    serially and diffs the pinned counters."""
    workers = env_default_workers(None)
    kwargs = dict(
        solvers=("ghc",),
        fail_rates=(0.0, 0.1),
        miss_rates=(0.0,),
        scenario_kwargs=SMALL_SCENARIO,
        max_slots=512,
    )
    records = run_chaos_sweep(workers=workers, **kwargs)
    if workers is not None and workers > 1:
        serial = run_chaos_sweep(workers=None, **kwargs)
        for par, ser in zip(records, serial):
            assert _pinned(par["metrics"]) == _pinned(ser["metrics"])
    path = write_bench_files({"chaos": records}, tmp_path)["chaos"]
    assert path == tmp_path / "BENCH_chaos.json"
    data = load_bench(path)
    assert len(data["runs"]) == len(records)
    for run in data["runs"]:
        validate_run(run)
    # appends, never rewrites
    write_bench_files({"chaos": records[:1]}, tmp_path)
    assert len(load_bench(path)["runs"]) == len(records) + 1


@pytest.mark.chaos_smoke
def test_scale_chaos_smoke_end_to_end(tmp_path):
    """Sharded sweep -> BENCH_chaos.json round trip, schema-valid.  The CI
    leg re-runs this under ``REPRO_WORKERS=2``; a parallel leg additionally
    re-runs the grid serially and diffs the pinned counters, certifying
    that the sharded fault draws are worker-count-independent."""
    workers = env_default_workers(None)
    kwargs = dict(
        solvers=("ghc",),
        fail_rates=(0.0, 0.1),
        miss_rates=(0.0,),
        scenario_kwargs=SCALE_SMALL_SCENARIO,
        shard_cells=16,
        max_slots=512,
    )
    records = run_chaos_sweep(workers=workers, **kwargs)
    assert [r["label"] for r in records] == ["s_ghc_f0_m0", "s_ghc_f0.1_m0"]
    for record in records:
        validate_run(record)
        assert record["bench"] == "chaos"
        assert record["scenario"]["shard_cells"] == 16
        m = record["metrics"]
        assert m["coverage_fraction"] == 1.0
        assert m["outcome"] == "complete"
        assert m["slowdown"] >= 1.0
    assert records[0]["metrics"]["slowdown"] == 1.0  # fault-free baseline
    if workers is not None and workers > 1:
        serial = run_chaos_sweep(workers=None, **kwargs)
        for par, ser in zip(records, serial):
            assert _pinned(par["metrics"]) == _pinned(ser["metrics"])
    path = write_bench_files({"chaos": records}, tmp_path)["chaos"]
    data = load_bench(path)
    assert len(data["runs"]) == len(records)
    for run in data["runs"]:
        validate_run(run)


class TestCLI:
    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        code = main([
            "chaos", "--dry-run",
            "--solvers", "ghc",
            "--fail-rates", "0", "0.1",
            "--miss-rates", "0",
            "--readers", "6", "--tags", "40", "--side", "25",
            "--lambda-r", "6",
            "--max-slots", "512",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "ghc" in out
        assert not (tmp_path / "BENCH_chaos.json").exists()

    def test_writes_bench_file(self, tmp_path, capsys):
        code = main([
            "chaos",
            "--solvers", "ghc",
            "--fail-rates", "0",
            "--miss-rates", "0",
            "--readers", "6", "--tags", "40", "--side", "25",
            "--lambda-r", "6",
            "--max-slots", "512",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        data = load_bench(tmp_path / "BENCH_chaos.json")
        assert len(data["runs"]) == 1
        assert "appended 1 chaos runs" in capsys.readouterr().out

    def test_scale_dry_run_writes_nothing(self, tmp_path, capsys):
        code = main([
            "chaos", "--scale", "--dry-run",
            "--fail-rates", "0",
            "--miss-rates", "0",
            "--readers", "60", "--tags", "600", "--side", "200",
            "--seed", "5", "--shard-cells", "16",
            "--max-slots", "512",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scale chaos sweep (sharded)" in out
        assert "ghc" in out  # --scale defaults to the scale solver set
        assert not (tmp_path / "BENCH_chaos.json").exists()

    def test_shard_cells_requires_scale(self, tmp_path, capsys):
        code = main([
            "chaos", "--shard-cells", "16", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--shard-cells requires --scale" in capsys.readouterr().err
