"""Live progress line and post-hoc run reports from a trace.

Two consumers of the same event stream, at opposite ends of a run's life:

* :class:`ProgressLine` — an enabled :class:`~repro.obs.events.Recorder`
  that repaints a one-line status (``\\r``-terminated) on every completed
  slot, so a long ``rfid-sched trace run --progress`` or chaos schedule can
  be watched from the terminal without streaming the full event log.  It is
  meant to ride inside a :class:`~repro.obs.sink.TeeRecorder` next to the
  real trace recorder; it aggregates nothing the report does not recompute.
* :func:`render_report` / :func:`write_report` — fold a finished trace
  (live event objects, or dicts loaded from a
  :class:`~repro.obs.sink.JsonlSink` file) into a human-readable run
  summary: the slot timeline (tags read and solve wall per slot), the
  per-cell solve heatmap of a sharded run (the seconds of each
  ``shard.solve`` span, summed per cell, see :mod:`repro.shard.runtime`;
  a lockstep GHC climb times all its cells in one span, so it reports one
  line for every such climb, not split per cell),
  pool health (dispatches, respawns, relay drops), fault tallies, and the
  p50/p90/p99 histogram table of :mod:`repro.obs.metrics`.  ``write_report``
  picks plain text or a self-contained HTML page by the output suffix.

The report is advisory, like every wall-clock quantity in this repo: it
renders what happened, it gates nothing.  ``rfid-sched report --trace``
is the CLI entry point (see ``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
import html as _html
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.obs.collectors import RunCollector
from repro.obs.events import (
    EVENT_TYPES,
    ReaderFailed,
    Recorder,
    RelayClipped,
    ScheduleDegraded,
    SlotEnd,
    SpanEnd,
    SpanStart,
)

PathLike = Union[str, Path]

_EVENT_BY_NAME = {cls.__name__: cls for cls in EVENT_TYPES}

#: Width of the ASCII bars in the text report's timeline and heatmap.
BAR_WIDTH = 30


def revive_event(d: dict):
    """Reconstruct the event object a JSONL line was serialised from.

    Inverse of :func:`repro.obs.sink.event_to_dict` for every class in
    :data:`~repro.obs.events.EVENT_TYPES` (span ``attrs`` pairs come back
    as the original tuple-of-pairs).  Returns ``None`` for events outside
    the taxonomy — report folding skips what it cannot type — and drops
    fields the class no longer has, so traces written by older versions
    (removed event classes, removed fields) still load.
    """
    cls = _EVENT_BY_NAME.get(d.get("event"))
    if cls is None:
        return None
    names = {f.name for f in dataclasses.fields(cls)}
    fields = {k: v for k, v in d.items() if k in names}
    if "attrs" in fields:
        fields["attrs"] = tuple(
            (str(k), v) for k, v in (tuple(p) for p in fields["attrs"])
        )
    return cls(**fields)


class ProgressLine(Recorder):
    """One-line live status, repainted per completed slot.

    Writes ``\\r``-terminated updates to *stream* (default ``sys.stderr``)
    so the line overwrites itself on a TTY; :meth:`close` finishes with a
    newline so the last state survives.  When *stream* is not a TTY the
    recorder stays silent unless *force* is set — piping a traced run
    through a file must not interleave control characters with real output.
    """

    enabled = True

    def __init__(
        self, stream: Optional[TextIO] = None, force: bool = False
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self.active = bool(force or (callable(isatty) and isatty()))
        self.slots = 0
        self.tags_read = 0
        self.faults = 0
        self.relay_dropped = 0
        self._t0 = time.perf_counter()
        self._painted = False

    def emit(self, event) -> None:
        """Fold *event* into the tallies; repaint on ``SlotEnd``."""
        if isinstance(event, SlotEnd):
            self.slots += 1
            self.tags_read += event.tags_read
            self._paint()
        elif isinstance(event, (ReaderFailed, ScheduleDegraded)):
            self.faults += 1
        elif isinstance(event, RelayClipped):
            self.relay_dropped += event.dropped_events

    def _paint(self) -> None:
        if not self.active:
            return
        elapsed = time.perf_counter() - self._t0
        line = (
            f"slot {self.slots} | tags read {self.tags_read} | "
            f"faults {self.faults} | elapsed {elapsed:.1f}s"
        )
        if self.relay_dropped:
            line += f" | relay dropped {self.relay_dropped}"
        self.stream.write("\r" + line.ljust(78))
        self.stream.flush()
        self._painted = True

    def close(self) -> None:
        """Terminate the status line with a newline (if ever painted)."""
        if self.active and self._painted:
            self.stream.write("\n")
            self.stream.flush()


# ----------------------------------------------------------------------
# report folding


def _fold(events: Iterable) -> dict:
    """Fold an event stream into the report's data model."""
    collector = RunCollector()
    cells: Dict[int, Tuple[int, float]] = {}  # cell -> (solves, total_s)
    open_cells: Dict[int, int] = {}  # open shard.solve span id -> cell
    # lockstep climbs: one shard.solve span over many cells (no "cell")
    lockstep = (0, 0, 0.0)  # (climbs, cells climbed, total_s)
    open_lockstep: Dict[int, int] = {}  # open span id -> cells
    for raw in events:
        event = revive_event(raw) if isinstance(raw, dict) else raw
        if event is None:
            continue
        collector.emit(event)
        if isinstance(event, SpanStart) and event.name == "shard.solve":
            attrs = dict(event.attrs)
            if attrs.get("cell") is not None:
                open_cells[event.span_id] = int(attrs["cell"])
            else:
                open_lockstep[event.span_id] = int(attrs.get("cells", 0))
        elif isinstance(event, SpanEnd) and event.span_id in open_cells:
            cell = open_cells.pop(event.span_id)
            count, total = cells.get(cell, (0, 0.0))
            cells[cell] = (count + 1, total + event.seconds)
        elif isinstance(event, SpanEnd) and event.span_id in open_lockstep:
            climbs, climbed, total = lockstep
            lockstep = (
                climbs + 1,
                climbed + open_lockstep.pop(event.span_id),
                total + event.seconds,
            )
    return {
        "collector": collector,
        "cells": dict(sorted(cells.items())),
        "lockstep": lockstep if lockstep[0] else None,
    }


def _lockstep_note(lockstep: Tuple[int, int, float]) -> str:
    """The heatmap's line for lockstep GHC climbs."""
    climbs, climbed, total = lockstep
    return (
        f"lockstep GHC: {climbs} climbs over {climbed} cell solves, "
        f"total {total * 1e3:.2f} ms (each climb solves all its cells at "
        f"once, so its time is not split per cell)"
    )


def _bar(value: float, peak: float, width: int = BAR_WIDTH) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if value > 0 else 0, round(width * value / peak))


def _timeline_rows(folded: dict) -> List[Tuple[int, int, float]]:
    collector = folded["collector"]
    return [
        (slot, tags, solve_s)
        for slot, (tags, solve_s) in enumerate(
            zip(collector.tags_per_slot, collector.solve_s_per_slot)
        )
    ]


def render_report(events: Iterable, title: str = "run report") -> str:
    """Render an event stream as a plain-text run report.

    *events* may be live event objects or dicts from
    :func:`~repro.obs.sink.load_jsonl`; unknown event names are skipped.
    Sections appear only when their events did (a serial, fault-free trace
    reports a timeline and histograms, nothing else), mirroring the
    BENCH record shape discipline of
    :meth:`~repro.obs.collectors.RunCollector.summary`.
    """
    folded = _fold(events)
    collector: RunCollector = folded["collector"]
    lines: List[str] = [title, "=" * len(title)]
    complete = collector.schedule_complete
    lines.append(
        f"slots: {collector.counters['slots']}"
        + ("" if complete is None else f", complete={complete}")
        + f" | tags read: {collector.counters['tags_read']}"
        + f" | solver calls: {collector.counters['solver_calls']}"
    )

    rows = _timeline_rows(folded)
    if rows:
        lines += ["", "slot timeline", "-------------"]
        peak_tags = max(tags for _, tags, _ in rows)
        for slot, tags, solve_s in rows:
            lines.append(
                f"  slot {slot:>3}  tags {tags:>5}  "
                f"solve {solve_s * 1e3:8.2f} ms  {_bar(tags, peak_tags)}"
            )

    cells, lockstep = folded["cells"], folded["lockstep"]
    if cells or lockstep:
        lines += ["", "per-cell solve heatmap", "----------------------"]
        if lockstep:
            lines.append("  " + _lockstep_note(lockstep))
        peak = max([total for _, total in cells.values()] + [0.0])
        for cell, (count, total) in cells.items():
            mean_ms = (total / count) * 1e3 if count else 0.0
            lines.append(
                f"  cell {cell:>3}  solves {count:>4}  "
                f"total {total * 1e3:8.2f} ms  mean {mean_ms:7.2f} ms  "
                f"{_bar(total, peak)}"
            )

    if collector._pool_events_seen:
        pc = collector.pool_counters
        lines += ["", "pool health", "-----------"]
        lines.append(
            f"  spawns {pc['pool_spawns']} | tasks {pc['pool_tasks']} | "
            f"payload {pc['pool_payload_bytes']} B | "
            f"respawns {pc['pool_respawns']} | "
            f"deadline hits {pc['pool_deadline_hits']} | "
            f"relay dropped events {pc['relay_dropped_events']}"
        )

    if collector._fault_events_seen:
        fc = collector.fault_counters
        lines += ["", "faults", "------"]
        lines.append(
            f"  readers failed {fc['readers_failed']} | "
            f"reads missed {fc['reads_missed']} | "
            f"deadline misses {fc['solver_deadline_misses']} | "
            f"degradations {fc['schedule_degradations']}"
        )

    histograms = collector.metrics.histogram_summaries()
    if histograms:
        lines += ["", "histograms (p50 / p90 / p99)", "-" * 28]
        for name, summary in histograms.items():
            lines.append(
                f"  {name:<18} n={summary['count']:<6} "
                f"p50={summary['p50']:.6g}  p90={summary['p90']:.6g}  "
                f"p99={summary['p99']:.6g}"
            )
    return "\n".join(lines) + "\n"


def render_report_html(events: Iterable, title: str = "run report") -> str:
    """Render an event stream as a self-contained HTML page.

    Same sections and folding as :func:`render_report`; no external
    assets, so the file opens anywhere the trace travels.
    """
    folded = _fold(events)
    collector: RunCollector = folded["collector"]

    def esc(value) -> str:
        return _html.escape(str(value))

    def table(
        headers: List[str], rows: List[List[str]], raw_last: bool = False
    ) -> str:
        head = "".join(f"<th>{esc(h)}</th>" for h in headers)
        body = "".join(
            "<tr>"
            + "".join(
                f"<td>{cell if raw_last and i == len(row) - 1 else esc(cell)}</td>"
                for i, cell in enumerate(row)
            )
            + "</tr>"
            for row in rows
        )
        return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"

    def heat(value: float, peak: float) -> str:
        return (
            f"<span class='heat' style='width:"
            f"{round(200 * value / peak)}px'></span>"
        )

    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{esc(title)}</title>",
        "<style>body{font-family:monospace;margin:2em;}"
        "table{border-collapse:collapse;margin:0.5em 0;}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right;}"
        "th{background:#eee;}"
        ".heat{background:#c33;display:inline-block;height:0.8em;}"
        "</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        f"<p>slots: {collector.counters['slots']}"
        + (
            ""
            if collector.schedule_complete is None
            else f", complete={collector.schedule_complete}"
        )
        + f" | tags read: {collector.counters['tags_read']}"
        + f" | solver calls: {collector.counters['solver_calls']}</p>",
    ]

    rows = _timeline_rows(folded)
    if rows:
        peak_tags = max(tags for _, tags, _ in rows) or 1
        parts.append("<h2>slot timeline</h2>")
        parts.append(
            table(
                ["slot", "tags", "solve (ms)", ""],
                [
                    [
                        str(slot),
                        str(tags),
                        f"{solve_s * 1e3:.2f}",
                        heat(tags, peak_tags),
                    ]
                    for slot, tags, solve_s in rows
                ],
                raw_last=True,
            )
        )

    cells, lockstep = folded["cells"], folded["lockstep"]
    if cells or lockstep:
        parts.append("<h2>per-cell solve heatmap</h2>")
    if lockstep:
        parts.append(f"<p>{esc(_lockstep_note(lockstep))}</p>")
    if cells:
        peak = max(total for _, total in cells.values()) or 1.0
        parts.append(
            table(
                ["cell", "solves", "total (ms)", "mean (ms)", ""],
                [
                    [
                        str(cell),
                        str(count),
                        f"{total * 1e3:.2f}",
                        f"{(total / count) * 1e3:.2f}" if count else "0",
                        heat(total, peak),
                    ]
                    for cell, (count, total) in cells.items()
                ],
                raw_last=True,
            )
        )

    if collector._pool_events_seen:
        pc = collector.pool_counters
        parts.append("<h2>pool health</h2>")
        parts.append(
            table(
                list(pc), [[str(pc[k]) for k in pc]]
            )
        )

    if collector._fault_events_seen:
        fc = collector.fault_counters
        parts.append("<h2>faults</h2>")
        parts.append(table(list(fc), [[str(fc[k]) for k in fc]]))

    histograms = collector.metrics.histogram_summaries()
    if histograms:
        parts.append("<h2>histograms</h2>")
        parts.append(
            table(
                ["name", "count", "p50", "p90", "p99"],
                [
                    [
                        name,
                        str(s["count"]),
                        f"{s['p50']:.6g}",
                        f"{s['p90']:.6g}",
                        f"{s['p99']:.6g}",
                    ]
                    for name, s in histograms.items()
                ],
            )
        )
    parts.append("</body></html>")
    return "".join(parts)


def write_report(
    events: Iterable, path: PathLike, title: str = "run report"
) -> Path:
    """Write a report of *events* to *path*: HTML when the suffix is
    ``.html``/``.htm``, plain text otherwise.  Returns the path."""
    p = Path(path)
    if p.suffix.lower() in (".html", ".htm"):
        p.write_text(render_report_html(events, title=title))
    else:
        p.write_text(render_report(events, title=title))
    return p
