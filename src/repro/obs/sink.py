"""Streaming JSONL event sink and Chrome trace-event export.

Two ways out of the process for a trace:

* :class:`JsonlSink` — an enabled recorder that serialises every event to
  one JSON line and writes through a bounded buffer, so a paper-scale or
  chaos run can be followed live with ``tail -f`` while the sink's memory
  stays constant;
* :func:`chrome_trace` / :func:`write_chrome_trace` — convert an event
  stream (in-memory events or loaded JSONL lines) to the Chrome
  trace-event format, so a schedule's timeline opens in ``chrome://tracing``
  or https://ui.perfetto.dev (the ``rfid-sched trace`` subcommand).

JSONL line format (documented in ``docs/observability.md``): one JSON
object per event, in emission order::

    {"event": "SpanStart", "span_id": 1, "parent_id": null, "name": "mcs.run", ...}
    {"event": "SlotStart", "slot": 0, "unread_tags": 77}

``event`` is the event class name; the remaining keys are the dataclass
fields verbatim.  Span ``attrs`` pairs become two-element lists under JSON.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.obs.events import Recorder

PathLike = Union[str, Path]


def _json_default(obj):
    """Best-effort JSON fallback: unwrap NumPy scalars, stringify the rest."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return repr(obj)


def event_to_dict(event) -> dict:
    """One event as the JSONL payload: ``{"event": <class name>, **fields}``."""
    if dataclasses.is_dataclass(event) and not isinstance(event, type):
        payload = dataclasses.asdict(event)
    else:
        payload = dict(vars(event)) if hasattr(event, "__dict__") else {}
    return {"event": type(event).__name__, **payload}


class JsonlSink(Recorder):
    """Enabled recorder streaming every event to a JSONL file.

    The buffer is bounded *and* time-bounded: lines are flushed to disk
    whenever ``buffer_events`` of them accumulate, whenever
    ``flush_interval_s`` seconds have passed since the last flush (checked
    on emit — a run quieter than the buffer size still streams, so
    ``tail -f`` observes it live rather than only at :meth:`close`), and
    again on :meth:`close`.  Memory use is constant in the run length.
    ``flush_interval_s=None`` disables the time trigger (size-only
    flushing, the pre-interval behaviour); ``0`` flushes every event.
    Usable as a context manager; :attr:`events_written` counts all events
    serialised so far (flushed or still buffered).
    """

    enabled = True

    def __init__(
        self,
        path: PathLike,
        buffer_events: int = 256,
        flush_interval_s: Optional[float] = 0.5,
    ) -> None:
        if buffer_events <= 0:
            raise ValueError(
                f"buffer_events must be positive, got {buffer_events}"
            )
        if flush_interval_s is not None and flush_interval_s < 0:
            raise ValueError(
                f"flush_interval_s must be non-negative, got {flush_interval_s}"
            )
        self.path = Path(path)
        self.buffer_events = int(buffer_events)
        self.flush_interval_s = flush_interval_s
        self.events_written = 0
        self._buf: List[str] = []
        self._fh = open(self.path, "w")
        self._last_flush = time.monotonic()

    def emit(self, event) -> None:
        """Serialise *event* to one buffered JSON line, flushing the buffer
        to disk whenever it reaches ``buffer_events`` lines or the
        ``flush_interval_s`` line interval has elapsed."""
        self._buf.append(json.dumps(event_to_dict(event), default=_json_default))
        self.events_written += 1
        if len(self._buf) >= self.buffer_events or (
            self.flush_interval_s is not None
            and time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        """Write the buffered lines through to the file."""
        if self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf = []
        self._fh.flush()
        self._last_flush = time.monotonic()

    def close(self) -> None:
        """Flush and close the underlying file."""
        self.flush()
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class TeeRecorder(Recorder):
    """Fan one event stream out to several recorders.

    Lets a run aggregate (:class:`~repro.obs.collectors.RunCollector`) and
    stream (:class:`JsonlSink`) at the same time; ``enabled`` iff any child
    is, and disabled children are skipped per event.
    """

    def __init__(self, *recorders: Recorder) -> None:
        self.recorders = tuple(recorders)
        self.enabled = any(r.enabled for r in self.recorders)

    def emit(self, event) -> None:
        """Forward *event* to every enabled child recorder."""
        for rec in self.recorders:
            if rec.enabled:
                rec.emit(event)


def load_jsonl(path: PathLike) -> List[dict]:
    """Read a :class:`JsonlSink` file back into a list of event dicts."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


#: Lane (``tid``) of the parent process in exported Chrome traces; relayed
#: worker spans get lanes allocated upwards from here.
MAIN_LANE = 1


def chrome_trace(events: Iterable) -> dict:
    """Convert an event stream to a Chrome trace-event document.

    *events* may be live event objects (e.g. ``TraceRecorder.events``) or
    dicts loaded from a JSONL sink file.  Spans become ``B``/``E`` duration
    pairs with micro-second timestamps relative to the earliest span; every
    non-span event becomes an instant (``i``) event stamped at the last
    seen span timestamp and attributed to the innermost open span via
    ``args.span`` / ``args.span_id`` — fault events therefore attach to
    their enclosing ``mcs.slot`` span.

    Relayed worker spans (a ``relay_pid`` attribute stamped by
    :func:`repro.obs.relay.replay_events`) are drawn on their own lane: one
    ``tid`` per worker pid, named via ``thread_name`` metadata, so a
    ``trace run --workers N`` timeline shows the parent dispatch row above
    N concurrent worker rows.  The result opens directly in
    ``chrome://tracing`` or Perfetto.
    """
    dicts = [e if isinstance(e, dict) else event_to_dict(e) for e in events]
    span_ts = [
        float(d["t"])
        for d in dicts
        if d.get("event") in ("SpanStart", "SpanEnd")
    ]
    t0: Optional[float] = min(span_ts) if span_ts else None
    entries: List[dict] = []
    open_spans: List[tuple] = []  # (span_id, name) innermost last
    lanes: dict = {}  # worker pid -> (tid, display name)
    span_lane: dict = {}  # span_id -> tid (so E pairs with its B's lane)
    last_ts = 0.0
    for i, d in enumerate(dicts):
        kind = d.get("event")
        if kind == "SpanStart":
            ts = (float(d["t"]) - t0) * 1e6 if t0 is not None else float(i)
            last_ts = max(last_ts, ts)
            args = {str(k): v for k, v in (tuple(p) for p in d.get("attrs", ()))}
            args["span_id"] = d["span_id"]
            if d.get("parent_id") is not None:
                args["parent_id"] = d["parent_id"]
            tid = MAIN_LANE
            if "relay_pid" in args:
                pid = args["relay_pid"]
                if pid not in lanes:
                    label = f"worker pid {pid}"
                    lanes[pid] = (MAIN_LANE + 1 + len(lanes), label)
                tid = lanes[pid][0]
            span_lane[d["span_id"]] = tid
            entries.append(
                {"name": d["name"], "cat": "span", "ph": "B", "ts": ts,
                 "pid": 1, "tid": tid, "args": args}
            )
            open_spans.append((d["span_id"], d["name"]))
        elif kind == "SpanEnd":
            ts = (float(d["t"]) - t0) * 1e6 if t0 is not None else float(i)
            last_ts = max(last_ts, ts)
            if open_spans and open_spans[-1][0] == d["span_id"]:
                open_spans.pop()
            entries.append(
                {"name": d["name"], "cat": "span", "ph": "E", "ts": ts,
                 "pid": 1, "tid": span_lane.get(d["span_id"], MAIN_LANE),
                 "args": {"span_id": d["span_id"]}}
            )
        else:
            args = {k: v for k, v in d.items() if k != "event"}
            if open_spans:
                args["span_id"], args["span"] = open_spans[-1]
            entries.append(
                {"name": kind or "event", "cat": "event", "ph": "i", "s": "t",
                 "ts": last_ts, "pid": 1, "tid": MAIN_LANE, "args": args}
            )
    meta: List[dict] = []
    if lanes:
        # lane-naming metadata only when worker lanes exist, so serial
        # traces keep exactly their historical entry list
        meta.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": MAIN_LANE,
             "ts": 0.0, "args": {"name": "main"}}
        )
        for tid, label in sorted(lanes.values()):
            meta.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "ts": 0.0, "args": {"name": label}}
            )
    return {"traceEvents": meta + entries, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable, path: PathLike) -> Path:
    """Write :func:`chrome_trace` of *events* to *path*; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(chrome_trace(events), default=_json_default) + "\n")
    return p
