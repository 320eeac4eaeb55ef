"""Tests for the BENCH trajectory auditor and the ``bench compare`` CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.compare import (
    ACCEPTED_DRIFT,
    DEFAULT_BENCH_FILES,
    audit_against,
    audit_trajectory,
    load_committed_bench,
    run_compare,
)

REPO = Path(__file__).resolve().parent.parent


def _run(label="L", solver="s", bench="mcs", sets=10, wall=0.01, version="1",
         **metrics):
    """A minimal run record (enough for the auditor, not schema-complete)."""
    return {
        "bench": bench,
        "label": label,
        "solver": solver,
        "scenario": {},
        "metrics": {"sets_evaluated": sets, **metrics},
        "wall_clock_s": wall,
        "repro_version": version,
        "schema_version": 1,
    }


def _doc(*runs, bench="mcs"):
    return {
        "format": "repro.bench",
        "version": 1,
        "benchmark": bench,
        "runs": list(runs),
    }


class TestAuditTrajectory:
    def test_identical_counters_are_clean(self):
        doc = _doc(_run(sets=10), _run(sets=10), _run(sets=10))
        assert audit_trajectory(doc) == []

    def test_counter_drift_is_an_error(self):
        doc = _doc(_run(sets=10), _run(sets=11))
        findings = audit_trajectory(doc)
        assert [f.kind for f in findings] == ["counter_drift"]
        assert findings[0].severity == "error"
        assert "sets_evaluated" in findings[0].detail

    def test_allowlisted_label_downgrades_to_warning(self):
        doc = _doc(_run(sets=10), _run(sets=11))
        findings = audit_trajectory(doc, allow_labels=["L"])
        assert [f.severity for f in findings] == ["warning"]

    def test_disappearing_counter_is_drift(self):
        base = _run(sets=10, slots_to_completion=3)
        nxt = _run(sets=10)
        findings = audit_trajectory(_doc(base, nxt))
        assert [f.kind for f in findings] == ["counter_drift"]
        assert "disappeared" in findings[0].detail

    def test_groups_are_independent(self):
        doc = _doc(
            _run(label="a", sets=10),
            _run(label="b", sets=99),
            _run(label="a", sets=10),
            _run(label="b", sets=99),
        )
        assert audit_trajectory(doc) == []

    def test_wall_regression_is_warning_by_default(self):
        doc = _doc(_run(wall=0.2), _run(sets=10, wall=0.9))
        findings = audit_trajectory(doc)
        assert [(f.kind, f.severity) for f in findings] == [
            ("wall_regression", "warning")
        ]
        strict = audit_trajectory(doc, strict_wall=True)
        assert [f.severity for f in strict] == ["error"]

    def test_wall_floor_swallows_fast_runs(self):
        # 4x slower but under the absolute floor: micro-benchmark jitter.
        doc = _doc(_run(wall=0.01), _run(wall=0.04))
        assert audit_trajectory(doc) == []


class TestAuditAgainst:
    def test_appended_identical_run_is_clean(self):
        committed = _doc(_run(sets=10))
        working = _doc(_run(sets=10), _run(sets=10, wall=0.5))
        assert audit_against(committed, working) == []

    def test_appended_drifted_run_is_an_error(self):
        committed = _doc(_run(sets=10))
        working = _doc(_run(sets=10), _run(sets=12))
        findings = audit_against(committed, working)
        assert [(f.kind, f.severity) for f in findings] == [
            ("counter_drift", "error")
        ]

    def test_history_rewrite_is_an_error(self):
        committed = _doc(_run(sets=10), _run(sets=10))
        working = _doc(_run(sets=11), _run(sets=11))
        findings = audit_against(committed, working)
        assert [f.kind for f in findings] == ["history_rewrite"]

    def test_truncated_history_is_a_rewrite(self):
        committed = _doc(_run(sets=10), _run(sets=10))
        working = _doc(_run(sets=10))
        assert [f.kind for f in audit_against(committed, working)] == [
            "history_rewrite"
        ]

    def test_new_label_starts_a_fresh_trajectory(self):
        committed = _doc(_run(label="old", sets=10))
        working = _doc(_run(label="old", sets=10), _run(label="new", sets=77))
        assert audit_against(committed, working) == []


class TestAcceptedDrift:
    """A pinned re-baseline passes only as its one exact transition."""

    KEY = ("mcs", "q_sparse_r12t100", "ptas", "sets_evaluated")

    def _runs(self, *sets):
        bench, label, solver, _ = self.KEY
        return [_run(label=label, solver=solver, bench=bench, sets=n)
                for n in sets]

    def test_listed_transition_passes(self):
        old, new = ACCEPTED_DRIFT[self.KEY]
        assert audit_trajectory(_doc(*self._runs(old, new, new))) == []
        committed = _doc(*self._runs(old))
        assert audit_against(committed, _doc(*self._runs(old, new))) == []

    def test_third_value_errors(self):
        old, new = ACCEPTED_DRIFT[self.KEY]
        findings = audit_trajectory(_doc(*self._runs(old, new, new - 1)))
        assert [(f.kind, f.severity) for f in findings] == [
            ("counter_drift", "error")
        ]
        committed = _doc(*self._runs(old))
        findings = audit_against(committed, _doc(*self._runs(old, new + 1)))
        assert [(f.kind, f.severity) for f in findings] == [
            ("counter_drift", "error")
        ]

    def test_revert_errors_against_committed(self):
        old, new = ACCEPTED_DRIFT[self.KEY]
        committed = _doc(*self._runs(old, new))
        findings = audit_against(committed, _doc(*self._runs(old, new, old)))
        assert [(f.kind, f.severity) for f in findings] == [
            ("counter_drift", "error")
        ]

    def test_other_groups_and_counters_stay_strict(self):
        old, new = ACCEPTED_DRIFT[self.KEY]
        other = _doc(_run(label="q_sparse_r12t100", solver="ghc", sets=old),
                     _run(label="q_sparse_r12t100", solver="ghc", sets=new))
        assert [f.severity for f in audit_trajectory(other)] == ["error"]
        bench, label, solver, _ = self.KEY
        slots = _doc(
            _run(label=label, solver=solver, sets=old,
                 slots_to_completion=old),
            _run(label=label, solver=solver, sets=new,
                 slots_to_completion=new),
        )
        findings = audit_trajectory(slots)
        assert ["slots_to_completion" in f.detail for f in findings] == [True]


class TestCommittedRepoTrajectories:
    """The acceptance bar: the committed BENCH files audit clean."""

    @pytest.mark.parametrize("name", DEFAULT_BENCH_FILES)
    def test_committed_file_audits_clean(self, name):
        data = json.loads((REPO / name).read_text())
        errors = [
            f for f in audit_trajectory(data) if f.severity == "error"
        ]
        assert errors == [], [f.format() for f in errors]

    def test_run_compare_exits_zero_on_committed_files(self):
        code, report = run_compare([REPO / name for name in DEFAULT_BENCH_FILES])
        assert code == 0, report
        assert "0 error(s)" in report

    def test_load_committed_bench_reads_head(self):
        committed = load_committed_bench(REPO / "BENCH_mcs.json", rev="HEAD")
        if committed is None:
            pytest.skip("not a git checkout with BENCH_mcs.json at HEAD")
        assert committed["benchmark"] == "mcs"
        assert committed["runs"]

    def test_load_committed_bench_outside_git_is_none(self, tmp_path):
        path = tmp_path / "BENCH_mcs.json"
        shutil.copy(REPO / "BENCH_mcs.json", path)
        assert load_committed_bench(path, rev="HEAD") is None


class TestCompareCli:
    def _perturbed_copy(self, tmp_path):
        """A copy of the committed mcs trajectory with one work counter
        nudged — the acceptance scenario for a non-zero exit."""
        path = tmp_path / "BENCH_mcs.json"
        data = json.loads((REPO / "BENCH_mcs.json").read_text())
        data["runs"][-1]["metrics"]["sets_evaluated"] += 1
        path.write_text(json.dumps(data))
        return path

    def test_exit_zero_on_committed_files(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["bench", "compare"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_perturbed_sets_evaluated_exits_nonzero(self, tmp_path, capsys):
        path = self._perturbed_copy(tmp_path)
        assert main(["bench", "compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "sets_evaluated" in out

    def test_allow_flag_downgrades_to_exit_zero(self, tmp_path, capsys):
        path = self._perturbed_copy(tmp_path)
        label = json.loads(path.read_text())["runs"][-1]["label"]
        assert main(["bench", "compare", str(path), "--allow", label]) == 0
        assert "WARNING" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["bench", "compare", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_schema_invalid_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_mcs.json"
        bad.write_text(json.dumps({"format": "wrong", "runs": []}))
        assert main(["bench", "compare", str(bad)]) == 2
        capsys.readouterr()

    def test_against_head_committed_on_clean_checkout(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        if load_committed_bench(REPO / "BENCH_mcs.json") is None:
            pytest.skip("not a git checkout")
        assert main(["bench", "compare", "--against", "HEAD-committed"]) == 0
        capsys.readouterr()

    def test_bench_subcommand_grammar_is_untouched(self, tmp_path, capsys):
        """The compare interception must not break ``bench --dry-run``."""
        assert main([
            "bench", "--quick", "--dry-run", "--out-dir", str(tmp_path)
        ]) == 0
        assert "dry run" in capsys.readouterr().out
