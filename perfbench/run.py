#!/usr/bin/env python3
"""Outside-in scheduling benchmark.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload dense_ghc [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with no instrumentation but
one slot-solve timestamp, plus peak RSS from a fresh process in its own
untimed pass.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer breakdown.  Every schedule is checked by the
independent certificate in ``certify.py`` and by the determinism gate; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count schedule slots.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy is imported: one BLAS/OpenMP thread, and
# no REPRO_* override reaching the program (backend and workers are passed
# explicitly by the workloads).
for _var in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_POOL_DEADLINE"):
    os.environ.pop(_var, None)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A single run of one instance longer than this counts as timed out.
RUN_LIMIT_S = 60.0
#: No new run starts after this much wall time, so the process ends well
#: inside three minutes whatever ``--seconds`` asks for.
HARD_STOP_S = 120.0

#: End-to-end metrics: (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "schedule_s": ("s", "lower"),
    "slots": ("count", "lower"),
    "coverage": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "certified_share": ("ratio", "higher"),
}


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def git_rev() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository (git
    is kept from searching above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    import numpy

    from repro.perf.backends import resolve_backend, use_backend
    from workloads import BACKEND, WORKERS

    with use_backend(BACKEND):
        backend = resolve_backend()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "backend": backend,
        "workers": WORKERS,
    }


class Ledger:
    """Runs per instance, each instance's reference outputs and
    certificate, and the slot tally behind ``attempted``/``failed``.

    The first run of an instance is its reference: it is certified, and
    every later run of the instance (traced or not, in this process or the
    memory pass) must reproduce its fingerprint exactly."""

    def __init__(self) -> None:
        self.runs = defaultdict(list)
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, slots: int, why: str) -> None:
        self.failed += slots
        self.problems.append(why)

    def record(self, run, label: str = "run") -> bool:
        """Tally *run*; returns whether it matched its reference."""
        ref = self.reference.get(run.seed)
        if ref is None:
            cert = run.certify()
            ref = self.reference[run.seed] = (run, cert)
            for why in cert.reasons():
                say(f"certificate rejects seed {run.seed}: {why}")
        ref_run, cert = ref
        self.attempted += run.slots
        if run.fingerprint != ref_run.fingerprint:
            self.fail(run.slots, f"seed {run.seed}: {label} differs from the first run")
            return False
        if run.wall_s > RUN_LIMIT_S:
            self.fail(run.slots, f"seed {run.seed}: {label} took {run.wall_s:.1f} s")
            return False
        if not cert.ok:
            self.fail(cert.failed_slots, f"seed {run.seed}: certificate rejected")
        self.runs[run.seed].append(run)
        return True

    def record_error(self, seed: int, label: str) -> None:
        ref = self.reference.get(seed)
        slots = ref[0].slots if ref else 1
        self.attempted += slots
        self.fail(slots, f"seed {seed}: {label} raised")
        traceback.print_exc(file=sys.stderr)

    def check_fingerprint(self, seed: int, fingerprint: str, label: str) -> None:
        ref = self.reference.get(seed)
        if ref is not None and ref[0].fingerprint != fingerprint:
            self.fail(ref[0].slots, f"seed {seed}: {label} differs from the first run")


def cycle(seeds, seconds: float, step) -> None:
    """Call ``step(seed)`` over *seeds* round-robin: every instance at least
    once, then more while the next call is expected to end within
    *seconds* of the start."""
    start = time.perf_counter()
    durations = []
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        if i >= len(seeds) and elapsed + statistics.median(durations) > seconds:
            break
        gc.collect()
        t = time.perf_counter()
        step(seeds[i % len(seeds)])
        durations.append(time.perf_counter() - t)
        i += 1


def instance_median(ledger: Ledger, attr: str) -> float:
    """Median over instances of each instance's median *attr*: robust to
    one slow instance or one disturbed run."""
    per_seed = [
        statistics.median(getattr(r, attr) for r in runs)
        for runs in ledger.runs.values()
        if runs
    ]
    return statistics.median(per_seed) if per_seed else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def memory_pass(workload_name: str, seed: int):
    """Peak RSS (MB) and fingerprint of one run of *seed* in a fresh
    process, or ``(None, None)`` if that process failed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload_name, "--seed", str(seed), "--memory-pass",
    ]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return None, None
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None, None
    data = json.loads(out.stdout.strip().splitlines()[-1])
    return data["peak_rss_mb"], data["fingerprint"]


def run_memory_pass(workload, seed: int) -> int:
    from workloads import Probe

    run = workload.run(seed, Probe())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak_mb, "fingerprint": run.fingerprint}))
    return 0


def untraced(workload, seeds, seconds: float, ledger: Ledger) -> dict:
    from workloads import Probe

    peak_mb, fingerprint = memory_pass(workload.name, seeds[0])
    if peak_mb is None:
        ledger.problems.append("memory pass failed")
    workload.warm_up()

    def step(seed):
        try:
            run = workload.run(seed, Probe())
        except Exception:
            ledger.record_error(seed, "run")
            return
        ledger.record(run)

    cycle(seeds, seconds, step)
    if fingerprint is not None:
        ledger.check_fingerprint(seeds[0], fingerprint, "memory pass")

    refs = [ledger.reference[s] for s in seeds if s in ledger.reference]
    read = sum(run.tags_read for run, _ in refs)
    coverable = sum(cert.coverable[1] for _, cert in refs)
    return {
        "setup_s": instance_median(ledger, "setup_s"),
        "schedule_s": instance_median(ledger, "schedule_s"),
        "slots": mean(run.slots for run, _ in refs),
        "coverage": read / coverable if coverable else 0.0,
        "peak_rss_mb": peak_mb or 0.0,
    }


def traced(workload, seeds, seconds: float, ledger: Ledger) -> dict:
    from repro.obs import recording
    from layers import (
        PER_LAYER,
        CountingCollector,
        LayerClock,
        layer_metrics,
        layer_patches,
    )
    from workloads import WORKERS, Probe

    per_seed = defaultdict(list)
    counters = {}
    workload.warm_up()

    def step(seed):
        try:
            plain = workload.run(seed, Probe())
        except Exception:
            ledger.record_error(seed, "untraced run")
            return
        if not ledger.record(plain):
            return
        clock, probe, collector = LayerClock(), Probe(every_slot=True), CountingCollector()
        try:
            with layer_patches(clock), recording(collector):
                run = workload.run(seed, probe, clock)
        except Exception:
            ledger.record_error(seed, "traced run")
            return
        if not ledger.record(run, "traced run"):
            return
        summary = collector.summary()
        work = (
            summary.get("sets_evaluated"),
            clock.items["kernel"],
            summary.get("shard_boundary_repairs"),
            tuple(summary.get("tags_per_slot", ())),
        )
        if counters.setdefault(seed, work) != work:
            ledger.fail(run.slots, f"seed {seed}: traced work counters differ")
            return
        per_seed[seed].append(
            layer_metrics(
                clock, summary, collector.events, run.wall_s, plain.wall_s,
                run.slot_entries, run.end, WORKERS,
            )
        )

    cycle(seeds, seconds, step)
    medians = [
        {k: statistics.median(m[k] for m in runs) for k in PER_LAYER}
        for runs in per_seed.values()
        if runs
    ]
    return {k: mean(m[k] for m in medians) for k in PER_LAYER}


def print_layers(values: dict) -> None:
    from layers import PER_LAYER

    say(f"{'per-layer metric':<26}{'value':>16}  unit   should move")
    for name, (unit, _better, moves) in PER_LAYER.items():
        say(f"{name:<26}{values[name]:>16.6g}  {unit:<6} {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only check that the certificate rejects corrupted schedules")
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, certificate_self_test

    if args.self_test:
        problems, slots = certificate_self_test()
        say(f"certificate self-test on {slots} slots: {'; '.join(problems) or 'ok'}")
        return 1 if problems else 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.memory_pass:
        return run_memory_pass(workload, seed)

    say(f"host {json.dumps(host_fingerprint(), sort_keys=True)}")
    seeds = workload.instance_seeds(seed)
    say(f"workload {workload.name}: {workload.why}")
    say(f"seed {seed} -> instance seeds {seeds}; held-out seed {workload.held_out_seed}")
    problems, st_slots = certificate_self_test()
    say(f"certificate self-test on {st_slots} slots: {'; '.join(problems) or 'ok'}")

    ledger = Ledger()
    if args.trace:
        values = traced(workload, seeds, args.seconds, ledger)
    else:
        values = untraced(workload, seeds, args.seconds, ledger)
    failed_share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    values["certified_share"] = 1.0 - failed_share

    for s in seeds:
        if s not in ledger.reference:
            continue
        run, cert = ledger.reference[s]
        runs = ledger.runs[s]
        say(
            f"instance seed {s}: {run.outcome}, {run.slots} slots, read "
            f"{run.tags_read}/{cert.coverable[1]} coverable, {len(runs)} runs, "
            f"setup_s {statistics.median(r.setup_s for r in runs) if runs else 0:.4f}, "
            f"schedule_s {statistics.median(r.schedule_s for r in runs) if runs else 0:.4f}, "
            f"certificate {'ok' if cert.ok else 'REJECTED'}, {run.summary}"
        )
    for why in ledger.problems:
        say(f"problem: {why}")
    say(f"failed_share {ledger.failed}/{ledger.attempted} = {failed_share:.6f}")

    if args.trace:
        from layers import PER_LAYER

        print_layers(values)
        units = {k: unit for k, (unit, _, _) in PER_LAYER.items()}
    else:
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
        for k, unit in units.items():
            say(f"{k:<16}{values[k]:>16.6f} {unit}")

    correct = not problems and not ledger.problems and ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
