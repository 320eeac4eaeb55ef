"""Independent schedule certificate.

Every check here is re-derived from reader coordinates, interference radii
``R``, interrogation radii ``gamma`` and tag coordinates alone, straight
from the paper's definitions.  Nothing is taken from the program's packed
coverage masks, weight kernels or shard partition:

* a reader is *silenced* (RTc) when it lies inside another active reader's
  interference disk, ``|v_i - v_j| <= R_j``;
* every credited tag was unread and lies in the interrogation region of
  exactly one active reader, which is not silenced (Definition 1, in the
  generalised form the hill-climbing baseline needs for infeasible sets);
* without faults the credited tags are exactly the unread tags so covered;
  under faults (failed activations, missed reads) they are a subset;
* for solvers that promise feasible sets, every active pair satisfies
  ``|v_i - v_j| > max(R_i, R_j)`` (Definition 2), so no reader is silenced;
* a run that reports ``complete`` leaves no coverable tag unread.

Distances are compared with a relative tolerance band ``EPS``: the program
computes squared distances through the ``|a|^2 + |b|^2 - 2ab`` expansion,
this module by direct differences, and the two may round a point lying on
a disk boundary differently.  A tag or pair inside the band is accepted
either way; outside it the two computations cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Relative width of the boundary band on squared distances.
EPS = 1e-9


class TagIndex:
    """Tags sorted by x, for strip queries around one disk at a time."""

    def __init__(self, tag_positions: np.ndarray) -> None:
        pos = np.asarray(tag_positions, dtype=np.float64)
        self.order = np.argsort(pos[:, 0], kind="stable")
        self.xs = pos[self.order, 0]
        self.ys = pos[self.order, 1]
        self.num_tags = len(pos)

    def disk(self, cx: float, cy: float, r: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(surely_inside, possibly_inside)`` tag ids of the closed disk of
        radius *r* at ``(cx, cy)``, under the :data:`EPS` band."""
        lo = np.searchsorted(self.xs, cx - r * (1 + EPS), side="left")
        hi = np.searchsorted(self.xs, cx + r * (1 + EPS), side="right")
        dx = self.xs[lo:hi] - cx
        dy = self.ys[lo:hi] - cy
        d2 = dx * dx + dy * dy
        r2 = r * r
        ids = self.order[lo:hi]
        return ids[d2 <= r2 * (1 - EPS)], ids[d2 <= r2 * (1 + EPS)]

    def cover(
        self, centers: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-tag ``(lower, upper)`` bounds on how many of the disks cover
        it (they differ only inside the boundary band), and for each tag
        the index of a disk possibly covering it (-1 if none) — the unique
        one wherever the upper bound is 1."""
        n = self.num_tags
        lo = np.zeros(n, dtype=np.int64)
        hi = np.zeros(n, dtype=np.int64)
        owner = np.full(n, -1, dtype=np.int64)
        for i, ((cx, cy), r) in enumerate(zip(centers, radii)):
            sure, maybe = self.disk(float(cx), float(cy), float(r))
            lo[sure] += 1
            hi[maybe] += 1
            owner[maybe] = i
        return lo, hi, owner


@dataclass(frozen=True)
class Deployment:
    """Coordinates and radii of one deployment: everything the certificate
    reads about the world."""

    reader_positions: np.ndarray
    interference_radii: np.ndarray
    interrogation_radii: np.ndarray
    tag_positions: np.ndarray

    def coverable_bounds(self, index: Optional[TagIndex] = None) -> Tuple[int, int]:
        """``(lower, upper)`` bounds on the number of tags inside at least
        one interrogation region."""
        index = index or TagIndex(self.tag_positions)
        lo, hi, _ = index.cover(self.reader_positions, self.interrogation_radii)
        return int((lo > 0).sum()), int((hi > 0).sum())


@dataclass
class Certificate:
    """Verdict over one schedule: per-slot rejections and run-level faults."""

    slots: int = 0
    rejected: List[Tuple[int, str]] = field(default_factory=list)
    run_errors: List[str] = field(default_factory=list)
    coverable: Tuple[int, int] = (0, 0)
    credited: int = 0

    @property
    def failed_slots(self) -> int:
        """Slots that count as failed: each rejected slot, or every slot
        when a run-level check failed."""
        if self.run_errors:
            return max(self.slots, 1)
        return len({s for s, _ in self.rejected})

    @property
    def ok(self) -> bool:
        return not self.rejected and not self.run_errors

    def reasons(self) -> List[str]:
        return [f"slot {s}: {why}" for s, why in self.rejected] + self.run_errors


def _pairs(dep: Deployment, active: np.ndarray):
    """Squared distances between active readers and their ``R`` (diagonal
    at infinity)."""
    pos = dep.reader_positions[active]
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return d2, dep.interference_radii[active]


def certify_slots(
    dep: Deployment,
    slots: Sequence[Tuple[np.ndarray, np.ndarray]],
    faults: bool,
    feasible: bool,
    complete: Optional[bool] = None,
    tags_read_total: Optional[int] = None,
    index: Optional[TagIndex] = None,
) -> Certificate:
    """Certify a schedule given as ``(active readers, credited tags)`` per
    slot, in slot order.  *faults* relaxes "credited == well-covered" to
    "credited is a subset"; *feasible* requires every active set to be a
    feasible scheduling set.  *complete* and *tags_read_total*, when given,
    are the run's own claims and are checked too."""
    index = index or TagIndex(dep.tag_positions)
    cert = Certificate(slots=len(slots))
    cover_lo, cover_hi, _ = index.cover(dep.reader_positions, dep.interrogation_radii)
    cert.coverable = (int((cover_lo > 0).sum()), int((cover_hi > 0).sum()))
    # tags inside no interrogation region can never be read; a tag in the
    # boundary band starts unread and is settled by the slot checks
    unread = cover_hi > 0
    n = len(dep.reader_positions)
    for s, (active, credited) in enumerate(slots):
        active = np.asarray(active, dtype=np.int64)
        credited = np.asarray(credited, dtype=np.int64)
        if len(np.unique(active)) != len(active) or (
            len(active) and (active.min() < 0 or active.max() >= n)
        ):
            cert.rejected.append((s, "active set has repeated or unknown readers"))
            continue
        if len(np.unique(credited)) != len(credited) or (
            len(credited)
            and (credited.min() < 0 or credited.max() >= index.num_tags)
        ):
            cert.rejected.append((s, "credited tags repeated or unknown"))
            continue
        d2, R = _pairs(dep, active)
        if feasible:
            rmax2 = np.maximum(R[:, None], R[None, :]) ** 2
            bad = int((d2 <= rmax2 * (1 - EPS)).sum() // 2)
            if bad:
                cert.rejected.append((s, f"{bad} active pairs within max(R_i, R_j)"))
        # reader i is silenced when it lies in active reader j's disk
        silenced_sure = (d2 <= (R[None, :] ** 2) * (1 - EPS)).any(axis=1)
        silenced_maybe = (d2 <= (R[None, :] ** 2) * (1 + EPS)).any(axis=1)
        lo, hi, owner = index.cover(
            dep.reader_positions[active], dep.interrogation_radii[active]
        )
        if len(credited):
            if not unread[credited].all():
                cert.rejected.append((s, "credited tag was already read"))
            c_lo, c_hi, c_owner = lo[credited], hi[credited], owner[credited]
            if not ((c_lo <= 1) & (c_hi >= 1)).all():
                cert.rejected.append(
                    (s, "credited tag not covered by exactly one active reader")
                )
            elif ((c_hi == 1) & silenced_sure[np.maximum(c_owner, 0)]).any():
                cert.rejected.append((s, "credited tag of a silenced reader"))
        if not faults:
            once = unread & (lo == 1) & (hi == 1)
            sure = np.flatnonzero(once)
            sure = sure[~silenced_maybe[owner[sure]]]
            missing = np.setdiff1d(sure, credited)
            if len(missing):
                cert.rejected.append(
                    (s, f"{len(missing)} well-covered unread tags not credited")
                )
        if len(credited):
            unread[credited] = False
            cert.credited += int(len(credited))
    if tags_read_total is not None and tags_read_total != cert.credited:
        cert.run_errors.append(
            f"tags_read_total {tags_read_total} != credited sum {cert.credited}"
        )
    if complete:
        left = np.flatnonzero(unread & (cover_lo > 0))
        if len(left):
            cert.run_errors.append(
                f"claims complete with {len(left)} coverable tags unread"
            )
    return cert


def certify_total(
    dep: Deployment,
    slot_reads: Sequence[int],
    tags_read_total: int,
    complete: bool,
    index: Optional[TagIndex] = None,
) -> Certificate:
    """Certificate for a schedule whose slots keep counts, not ids: the
    per-slot counts sum to the total and, for a complete run, the total
    equals the independently counted coverable tags."""
    cert = Certificate(slots=len(slot_reads))
    cert.coverable = dep.coverable_bounds(index)
    cert.credited = int(sum(slot_reads))
    if cert.credited != tags_read_total:
        cert.run_errors.append(
            f"slot reads sum {cert.credited} != tags_read_total {tags_read_total}"
        )
    lo, hi = cert.coverable
    if complete and not lo <= tags_read_total <= hi:
        cert.run_errors.append(
            f"complete run read {tags_read_total} tags, coverable count is {lo}..{hi}"
        )
    if tags_read_total > hi:
        cert.run_errors.append(f"read {tags_read_total} tags, only {hi} coverable")
    return cert


def self_test(
    dep: Deployment, slots: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> List[str]:
    """Check that the certificate rejects corrupted copies of a fault-free,
    feasible schedule it accepts, one rule at a time: a reader injected
    that silences a reader owning credited tags (RTc rule), a reader
    injected that is itself silenced and reads nothing (feasibility rule
    only), a tag credited although no active reader covers it, a
    well-covered tag left uncredited, and a slot credited twice.  Returns
    the failures; empty when the certificate behaves."""
    index = TagIndex(dep.tag_positions)
    if not certify_slots(dep, slots, faults=False, feasible=True, index=index).ok:
        return ["reference schedule is not certified"]
    s = next((i for i, (a, c) in enumerate(slots) if len(a) and len(c)), None)
    if s is None:
        return ["reference schedule has no slot to corrupt"]
    active, credited = (np.asarray(x, dtype=np.int64) for x in slots[s])
    problems: List[str] = []

    def accepted(corrupt_slot, faults: bool, feasible: bool) -> bool:
        bad = list(slots)
        bad[s] = corrupt_slot
        return certify_slots(dep, bad, faults=faults, feasible=feasible, index=index).ok

    pos, R, gamma = dep.reader_positions, dep.interference_radii, dep.interrogation_radii
    d2 = ((pos[:, None, :] - pos[None, active, :]) ** 2).sum(axis=-1)
    lo, _, owner = index.cover(pos[active], gamma[active])
    owns = np.zeros(len(active), dtype=bool)
    owns[owner[credited]] = True
    outside = np.setdiff1d(np.arange(len(pos)), active)

    def injectable(mask):
        """The active set plus the first reader outside it matching *mask*
        whose interrogation disk holds no credited tag, so that no coverage
        rule can object to it; None when there is no such reader."""
        for k in outside[mask[outside]]:
            if not np.isin(index.disk(*pos[k], gamma[k])[1], credited).any():
                return np.sort(np.append(active, k))
        return None

    silences_owner = (d2[:, owns] < 0.8 * R[:, None] ** 2).any(axis=1)
    silenced_only = (d2 < 0.8 * R[None, active] ** 2).any(axis=1) & (
        d2 > 1.2 * R[:, None] ** 2
    ).all(axis=1)
    rtc = injectable(silences_owner)
    if rtc is None:
        problems.append("no reader silencing a credited reader to inject")
    elif accepted((rtc, credited), faults=True, feasible=False):
        problems.append("accepted tags credited to a silenced reader")
    mute = injectable(silenced_only)
    if mute is None:
        problems.append("no silenced reader to inject")
    elif accepted((mute, credited), faults=True, feasible=True):
        problems.append("accepted an infeasible active set")
    elif not accepted((mute, credited), faults=True, feasible=False):
        problems.append("rejected a silenced reader that reads nothing")

    repeated = list(slots[: s + 1]) + [slots[s]] + list(slots[s + 1:])
    if certify_slots(dep, repeated, faults=True, feasible=True, index=index).ok:
        problems.append("accepted tags credited again in a later slot")

    # a coverable tag still unread at slot s that no active reader covers,
    # credited in slot s of the schedule cut after slot s (a later slot may
    # read it legitimately)
    unread = index.cover(pos, gamma)[0] > 0
    for _, earlier in slots[:s]:
        unread[np.asarray(earlier, dtype=np.int64)] = False
    stray = np.flatnonzero(unread & (lo == 0))
    prefix = list(slots[:s]) + [(active, np.append(credited, stray[:1]))]
    if not len(stray):
        problems.append("no uncovered tag to credit")
    elif certify_slots(dep, prefix, faults=True, feasible=True, index=index).ok:
        problems.append("accepted a credited tag no active reader covers")

    if accepted((active, credited[1:]), faults=False, feasible=True):
        problems.append("accepted a fault-free slot with a well-covered tag dropped")
    return problems
