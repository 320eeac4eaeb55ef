"""BENCH trajectory auditor: the machine check behind ``bench compare``.

The BENCH files accumulate one run record per measured run across PRs but,
until this module, nothing ever read them back.  The auditor loads one or
more trajectories, groups runs by ``(bench, label, solver)`` and flags:

* **counter drift** — the pinned-seed work counters of a group
  (:data:`WORK_COUNTERS`: ``sets_evaluated``, ``slots_to_completion``,
  ``tags_per_slot``, …) must be bit-identical across every run of the
  group, whatever library version produced it, unless the label is
  explicitly allowlisted or the difference is one pinned
  :data:`ACCEPTED_DRIFT` transition;
* **wall-clock regression** — the group's newest run taking more than
  ``max_wall_ratio`` × the best earlier run (ignored below an absolute
  ``wall_floor_s`` so micro-benchmark jitter cannot flake the gate);
* **history rewrite** — in ``--against`` mode, the committed runs must be
  an exact prefix of the working-tree runs (the files are append-only).

Exit-code contract of ``rfid-sched bench compare`` (documented in
``docs/observability.md``): **0** clean (warnings allowed), **1** at least
one error-severity finding (counter drift, history rewrite, or — with
``--strict-wall`` — a wall regression), **2** unreadable or schema-invalid
input.  CI runs the quick matrix and then
``bench compare --against HEAD-committed`` as the drift gate, so a perf PR
cannot silently change the search work of a pinned scenario.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.export import validate_bench

PathLike = Union[str, Path]

#: BENCH files audited when ``bench compare`` is given no paths.
DEFAULT_BENCH_FILES: Tuple[str, ...] = (
    "BENCH_oneshot.json",
    "BENCH_mcs.json",
    "BENCH_chaos.json",
    "BENCH_scale.json",
)

#: Pinned work counters per bench family: deterministic given the scenario
#: seed, so they must be bit-identical across library versions for the same
#: ``(bench, label, solver)`` group.  Wall-clock fields are deliberately
#: absent — they vary with the host and are checked by ratio instead.
WORK_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "oneshot": ("weight", "active_readers", "feasible", "sets_evaluated"),
    "mcs": (
        "slots_to_completion",
        "tags_read",
        "tags_per_slot",
        "sets_evaluated",
        "rrc_blocked",
        "rtc_silenced",
        "complete",
    ),
    "chaos": (
        "slots_to_completion",
        "tags_read",
        "tags_per_slot",
        "sets_evaluated",
        "outcome",
        "coverage_fraction",
        "slowdown",
        "complete",
    ),
    "scale": (
        "slots",
        "tags_read",
        "tags_per_slot",
        "sets_evaluated",
        "rrc_blocked",
        "rtc_silenced",
        "complete",
        "shard_cells",
        "shard_halo_readers",
        "shard_boundary_repairs",
    ),
}

#: Reviewed counter re-baselines: ``(bench, label, solver, counter)`` ->
#: the one exact ``(old, new)`` transition the drift check accepts.  Any
#: other difference — a third value, or a revert from new to old — still
#: errors.
ACCEPTED_DRIFT: Dict[Tuple[str, str, str, str], Tuple[object, object]] = {
    # The schedule context became unconditional: PTAS prunes retired
    # readers on every greedy schedule, so its search work shrinks while
    # every output counter stays put.
    ("mcs", "q_sparse_r12t100", "ptas", "sets_evaluated"): (64, 48),
    ("mcs", "q_mid_r16t150", "ptas", "sets_evaluated"): (110, 98),
    ("mcs", "q_dense_r20t200", "ptas", "sets_evaluated"): (108, 106),
    ("mcs", "p_lR8_r50t1200", "ptas", "sets_evaluated"): (1650, 1548),
    ("mcs", "p_lR10_r50t1200", "ptas", "sets_evaluated"): (1176, 952),
    ("mcs", "p_lR14_r50t1200", "ptas", "sets_evaluated"): (3610, 3586),
    ("chaos", "ptas_f0_m0", "ptas", "sets_evaluated"): (296, 246),
    ("chaos", "ptas_f0.1_m0", "ptas", "sets_evaluated"): (348, 304),
}

#: A trajectory group: one pinned scenario point under one solver.
GroupKey = Tuple[str, str, str]


@dataclass(frozen=True)
class Finding:
    """One auditor verdict about one trajectory group.

    ``kind`` is ``counter_drift``, ``wall_regression`` or
    ``history_rewrite``; ``severity`` is
    ``"error"`` (fails the gate) or ``"warning"`` (reported, exit 0).
    """

    kind: str
    severity: str
    bench: str
    label: str
    solver: str
    detail: str

    def format(self) -> str:
        """One human-readable report line."""
        return (
            f"{self.severity.upper()}: {self.kind} in "
            f"({self.bench}, {self.label}, {self.solver}): {self.detail}"
        )


def group_runs(data: dict) -> Dict[GroupKey, List[dict]]:
    """Runs of a BENCH document keyed by ``(bench, label, solver)``, in
    trajectory (append) order within each group."""
    groups: Dict[GroupKey, List[dict]] = {}
    for run in data["runs"]:
        key = (run["bench"], run["label"], run["solver"])
        groups.setdefault(key, []).append(run)
    return groups


def _diff_counters(
    key: GroupKey, baseline: dict, run: dict, allow_labels
) -> List[Finding]:
    """Counter-drift findings of *run* versus *baseline* (same group)."""
    bench, label, solver = key
    severity = "warning" if label in allow_labels else "error"
    findings = []
    for field in WORK_COUNTERS.get(bench, ()):
        if field not in baseline["metrics"]:
            continue
        base = baseline["metrics"][field]
        if field not in run["metrics"]:
            findings.append(
                Finding(
                    kind="counter_drift",
                    severity=severity,
                    bench=bench,
                    label=label,
                    solver=solver,
                    detail=f"{field} disappeared (baseline {base!r}, "
                    f"baseline version {baseline['repro_version']}, run "
                    f"version {run['repro_version']})",
                )
            )
        elif run["metrics"][field] != base and ACCEPTED_DRIFT.get(
            (bench, label, solver, field)
        ) != (base, run["metrics"][field]):
            findings.append(
                Finding(
                    kind="counter_drift",
                    severity=severity,
                    bench=bench,
                    label=label,
                    solver=solver,
                    detail=f"{field}: {base!r} -> {run['metrics'][field]!r} "
                    f"(versions {baseline['repro_version']} -> "
                    f"{run['repro_version']})",
                )
            )
    return findings


def _wall_finding(
    key: GroupKey,
    runs: Sequence[dict],
    max_wall_ratio: float,
    wall_floor_s: float,
    strict_wall: bool,
) -> List[Finding]:
    """Wall-clock regression finding for a group's newest run, if any."""
    if len(runs) < 2:
        return []
    bench, label, solver = key
    latest = float(runs[-1]["wall_clock_s"])
    best = min(float(r["wall_clock_s"]) for r in runs[:-1])
    if latest <= wall_floor_s or latest <= best * max_wall_ratio:
        return []
    return [
        Finding(
            kind="wall_regression",
            severity="error" if strict_wall else "warning",
            bench=bench,
            label=label,
            solver=solver,
            detail=f"wall_clock_s {latest:.4f} > {max_wall_ratio:g}x best "
            f"earlier run ({best:.4f})",
        )
    ]


def audit_trajectory(
    data: dict,
    allow_labels: Sequence[str] = (),
    max_wall_ratio: float = 1.5,
    wall_floor_s: float = 0.05,
    strict_wall: bool = False,
) -> List[Finding]:
    """Audit one BENCH document internally: every run of every group is
    compared against the group's first run for counter drift, and the
    newest run against the best earlier one for wall-clock."""
    findings: List[Finding] = []
    allow = set(allow_labels)
    for key, runs in group_runs(data).items():
        baseline = runs[0]
        for run in runs[1:]:
            findings.extend(_diff_counters(key, baseline, run, allow))
        findings.extend(
            _wall_finding(key, runs, max_wall_ratio, wall_floor_s, strict_wall)
        )
    return findings


def audit_against(
    committed: dict,
    working: dict,
    allow_labels: Sequence[str] = (),
) -> List[Finding]:
    """Audit a working-tree BENCH document against its committed version.

    The committed runs must be an exact prefix of the working runs
    (append-only contract); every appended run is then compared against the
    *last* committed run of its group for counter drift.  Appended runs
    whose group has no committed history (a new label) are accepted — that
    is the sanctioned way to change a scenario point.
    """
    findings: List[Finding] = []
    allow = set(allow_labels)
    committed_runs = committed["runs"]
    working_runs = working["runs"]
    prefix_ok = len(working_runs) >= len(committed_runs) and all(
        a == b for a, b in zip(committed_runs, working_runs)
    )
    if not prefix_ok:
        findings.append(
            Finding(
                kind="history_rewrite",
                severity="error",
                bench=committed.get("benchmark", "?"),
                label="*",
                solver="*",
                detail=f"committed runs ({len(committed_runs)}) are not a "
                f"prefix of the working-tree runs ({len(working_runs)}); "
                "BENCH files are append-only",
            )
        )
        return findings
    baselines = {
        key: runs[-1] for key, runs in group_runs(committed).items()
    }
    for run in working_runs[len(committed_runs):]:
        key = (run["bench"], run["label"], run["solver"])
        baseline = baselines.get(key)
        if baseline is None:
            continue  # new label/solver: its own fresh trajectory
        findings.extend(_diff_counters(key, baseline, run, allow))
    return findings


def load_committed_bench(path: PathLike, rev: str = "HEAD") -> Optional[dict]:
    """The committed version of *path* at git revision *rev*, validated, or
    ``None`` when the file is not tracked at that revision (or the
    directory is not a git checkout)."""
    p = Path(path).resolve()
    try:
        proc = subprocess.run(
            ["git", "-C", str(p.parent), "show", f"{rev}:./{p.name}"],
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    data = json.loads(proc.stdout)
    validate_bench(data)
    return data


def run_compare(
    paths: Sequence[PathLike],
    against: Optional[str] = None,
    allow_labels: Sequence[str] = (),
    max_wall_ratio: float = 1.5,
    wall_floor_s: float = 0.05,
    strict_wall: bool = False,
) -> Tuple[int, str]:
    """Audit the BENCH files at *paths*; returns ``(exit_code, report)``.

    Without *against*, each file is audited internally
    (:func:`audit_trajectory`).  With *against* (``"HEAD-committed"``, or
    any git revision optionally suffixed ``-committed``), each working-tree
    file is additionally checked against its committed version
    (:func:`audit_against`).  Exit codes follow the module
    contract: 0 clean, 1 error findings, 2 unreadable input.
    """
    lines: List[str] = []
    findings: List[Finding] = []
    rev = None
    if against is not None:
        rev = against[: -len("-committed")] if against.endswith("-committed") else against
    if not paths:
        return 0, "bench compare: no BENCH files to audit"
    for path in paths:
        p = Path(path)
        try:
            data = json.loads(p.read_text())
            validate_bench(data)
        except (OSError, ValueError) as exc:
            return 2, f"bench compare: cannot read {p}: {exc}"
        groups = group_runs(data)
        file_findings = audit_trajectory(
            data,
            allow_labels=allow_labels,
            max_wall_ratio=max_wall_ratio,
            wall_floor_s=wall_floor_s,
            strict_wall=strict_wall,
        )
        if rev is not None:
            committed = load_committed_bench(p, rev)
            if committed is not None:
                file_findings.extend(
                    audit_against(committed, data, allow_labels=allow_labels)
                )
            else:
                lines.append(
                    f"{p.name}: not tracked at {rev} — treated as a fresh "
                    "trajectory"
                )
        errors = sum(1 for f in file_findings if f.severity == "error")
        status = "DRIFT" if errors else "ok"
        lines.append(
            f"{p.name}: {len(groups)} groups, {len(data['runs'])} runs — "
            f"{status}"
        )
        findings.extend(file_findings)
    for finding in findings:
        lines.append("  " + finding.format())
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    lines.append(
        f"bench compare: {n_err} error(s), {n_warn} warning(s) across "
        f"{len(paths)} file(s)"
    )
    return (1 if n_err else 0), "\n".join(lines)
