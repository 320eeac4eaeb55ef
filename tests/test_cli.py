"""Tests for the rfid-sched CLI."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main


class TestListSolvers:
    def test_lists_builtins(self, capsys):
        assert main(["list-solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("ptas", "centralized", "distributed", "exact"):
            assert name in out


class TestSolve:
    def test_oneshot_default(self, capsys):
        rc = main(
            [
                "solve",
                "--readers", "12", "--tags", "100", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "one-shot (ptas)" in out
        assert "weight=" in out

    def test_schedule_mode(self, capsys):
        rc = main(
            [
                "solve", "--solver", "centralized", "--schedule",
                "--readers", "12", "--tags", "100", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "covering schedule:" in out
        assert "complete=True" in out

    def test_schedule_with_linklayer(self, capsys):
        rc = main(
            [
                "solve", "--schedule", "--linklayer", "aloha",
                "--readers", "10", "--tags", "80", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "1",
            ]
        )
        assert rc == 0
        assert "micro-slots" in capsys.readouterr().out

    def test_colorwave_schedule(self, capsys):
        rc = main(
            [
                "solve", "--solver", "colorwave", "--schedule",
                "--readers", "10", "--tags", "80", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "1",
            ]
        )
        assert rc == 0
        assert "covering schedule:" in capsys.readouterr().out

    def test_colorwave_schedule_rejects_linklayer(self, capsys):
        rc = main(
            [
                "solve", "--solver", "colorwave", "--schedule",
                "--linklayer", "aloha",
                "--readers", "10", "--tags", "80", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "1",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--linklayer requires a one-shot solver" in captured.err
        assert "micro-slots" not in captured.out

    def test_oneshot_rejects_linklayer(self, capsys):
        rc = main(
            [
                "solve", "--linklayer", "aloha",
                "--readers", "10", "--tags", "80", "--seed", "1",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--linklayer requires a one-shot solver run with --schedule" in (
            captured.err
        )
        assert "one-shot (" not in captured.out

    def test_unknown_solver_raises(self):
        with pytest.raises(KeyError):
            main(["solve", "--solver", "nope", "--readers", "5", "--tags", "10"])


class TestCoverage:
    def test_report_printed(self, capsys):
        rc = main(
            [
                "coverage", "--readers", "10", "--tags", "80", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "2",
                "--samples", "2000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "monitored region M" in out
        assert "RRc-exposed overlap" in out
        assert "coverable tags" in out


class TestRender:
    def test_map_and_summary_printed(self, capsys):
        rc = main(
            [
                "render", "--readers", "10", "--tags", "80", "--side", "40",
                "--lambda-R", "8", "--lambda-r", "5", "--seed", "2",
                "--width", "50", "--solver", "centralized",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "R=active reader" in out
        assert "covering schedule:" in out
        assert "fairness" in out


class TestSweep:
    def test_custom_sweep_runs(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--param", "lambda_r", "--values", "3", "6",
                "--algos", "centralized", "random",
                "--readers", "10", "--tags", "80", "--side", "40",
                "--seeds", "0", "--save", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "custom sweep" in printed
        assert out.exists()
        from repro.io import load_sweep

        loaded = load_sweep(out)
        assert loaded.metrics == ["centralized", "random"]

    def test_mcs_metric(self, capsys):
        rc = main(
            [
                "sweep", "--param", "lambda_R", "--values", "8", "--fixed", "5",
                "--metric", "mcs_size", "--algos", "centralized",
                "--readers", "10", "--tags", "80", "--side", "40", "--seeds", "0",
            ]
        )
        assert rc == 0
        assert "mcs_size vs lambda_R" in capsys.readouterr().out


class TestFigure:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestGracefulShutdown:
    """SIGTERM mid-sweep: handler installed by ``_graceful_signals`` turns
    the signal into an orderly unwind — sinks flushed, pools closed, a
    partial-run marker on stderr, exit code 128+signum — and the atomic
    per-record BENCH append means the aborted sweep leaves no torn file."""

    def test_sigterm_mid_chaos_exits_143_without_bench_file(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        # a grid heavy enough that the signal always lands mid-sweep
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "chaos",
                "--solvers", "ghc",
                "--readers", "200", "--tags", "4000", "--side", "100",
                "--max-slots", "8192",
                "--out-dir", str(tmp_path),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(tmp_path),
        )
        try:
            banner = proc.stdout.readline()  # handler is live once work prints
            assert "chaos sweep" in banner
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM
        assert "partial run: interrupted by SIGTERM" in err
        # the aborted sweep never reached its merge: no torn BENCH file
        assert not (tmp_path / "BENCH_chaos.json").exists()
