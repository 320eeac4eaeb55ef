"""Cross-process trace relay: worker events piggybacked on result payloads.

Forked :class:`~repro.perf.pool.WorkerPool` workers (sharded cell solves,
sweep points, bench jobs) emit trace events into their own copy of the
process-wide recorder, which dies with the worker.  The pool's per-task
relay closes that gap in three steps:

1. **Capture** — :func:`capture_relay` installs a :class:`RelayRecorder`
   around the worker-side callable.  The buffer is *bounded*
   (:data:`RELAY_MAX_EVENTS`): once full, further events are tallied in
   ``dropped_events`` instead of stored, so a pathological trace volume can
   never wedge a dispatch or blow up the result pickle.
2. **Ship** — :func:`relay_payload` snapshots the buffer into a picklable
   tuple ``(events, dropped_events, pid)`` that rides back on the worker's
   ordinary result payload.
3. **Replay** — the parent calls :func:`replay_events` while the
   dispatch's ``pool.dispatch`` span is open.  Worker span ids are
   *rebased* onto fresh ids from the parent's counter (forked workers
   clone the counter, so their raw ids collide with the parent's),
   internal parent/child structure is preserved, and any span whose
   parent is unknown to the payload — the worker-side roots — is
   re-parented under the parent's innermost open span.  Relayed
   ``SpanStart`` events gain a ``relay_pid`` attribute, which the Chrome
   exporter in :mod:`repro.obs.sink` turns into per-worker lanes.

Worker timestamps need no rebasing: ``time.perf_counter`` reads
``CLOCK_MONOTONIC``, which is system-wide on Linux, so parent and child
clocks agree across ``fork``.

Clipping is loud, never silent: replay re-balances the tree (ends whose
starts were clipped are counted as dropped; starts whose ends were clipped
get a synthesised end at the payload's last timestamp, so B/E stay
balanced) and emits one :class:`~repro.obs.events.RelayClipped` event per
clipped payload, aggregated into the ``relay_dropped_events`` metric by
:class:`~repro.obs.collectors.RunCollector`.

Null-recorder discipline: the relay is only engaged when the parent's
recorder was enabled at dispatch time — with telemetry off, workers never
install a buffer and no payload is built (booby-trapped by
``tests/test_obs_relay.py``).
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.obs.events import (
    RelayClipped,
    Recorder,
    SpanEnd,
    SpanStart,
)
from repro.obs.spans import next_span_id

#: Default per-dispatch event cap of a worker-side relay buffer.  Sized for
#: the deepest realistic per-payload trace (one cell solve's solver spans
#: plus candidate-evaluation events) with two orders of magnitude headroom.
RELAY_MAX_EVENTS = 4096

#: A shipped relay payload: ``(events, dropped_events, worker_pid)``.
RelayPayload = Tuple[Tuple[object, ...], int, int]


class RelayRecorder(Recorder):
    """Bounded worker-side event buffer for the cross-process relay.

    An enabled recorder that retains up to ``max_events`` events verbatim
    and tallies the overflow in :attr:`dropped_events` — the worker-side
    half of the relay contract.  Unlike
    :class:`~repro.obs.events.TraceRecorder` it exists to be *shipped*:
    :func:`relay_payload` snapshots it into the picklable tuple that rides
    back on the dispatch result.
    """

    enabled = True

    def __init__(self, max_events: int = RELAY_MAX_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.events: List[object] = []
        self.max_events = int(max_events)
        self.dropped_events = 0

    def emit(self, event) -> None:
        """Buffer *event*, or tally it in :attr:`dropped_events` once the
        ``max_events`` cap is reached — telemetry never wedges a dispatch."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)


def relay_payload(recorder: RelayRecorder) -> RelayPayload:
    """Snapshot *recorder* into the picklable relay tuple
    ``(events, dropped_events, pid)`` shipped back to the parent."""
    return tuple(recorder.events), recorder.dropped_events, os.getpid()


def replay_events(payload: Optional[RelayPayload], rec) -> int:
    """Replay a shipped worker payload into the parent recorder *rec*.

    Span ids are rebased onto fresh parent-side ids
    (:func:`~repro.obs.spans.next_span_id`); spans whose parent id is not
    part of the payload — the worker-side roots — are re-parented under the
    parent's innermost open span (:func:`~repro.obs.spans.current_span_id`),
    so the caller must invoke this *inside* the owning ``pool.dispatch``
    span.  Every relayed ``SpanStart`` gains a ``relay_pid`` attribute
    (worker pid; omitted when the payload was captured in this very
    process) — the lane key of the Chrome exporter.

    The replayed stream is guaranteed B/E-balanced even when the worker
    buffer clipped: ends without a relayed start are counted as dropped,
    starts without a relayed end get a synthesised ``SpanEnd`` at the
    payload's last seen timestamp.  When anything was dropped, one
    :class:`~repro.obs.events.RelayClipped` event is emitted.  Returns the
    total dropped count (0 for ``payload=None`` or a clean payload).
    """
    if payload is None:
        return 0
    from repro.obs.spans import current_span_id

    events, dropped, pid = payload
    parent = current_span_id()
    extra: Tuple[Tuple[str, object], ...] = (
        (("relay_pid", int(pid)),) if pid != os.getpid() else ()
    )
    idmap = {}
    open_starts = {}  # new id -> rebased SpanStart, insertion-ordered
    last_t: Optional[float] = None
    for event in events:
        if isinstance(event, SpanStart):
            new_id = next_span_id()
            idmap[event.span_id] = new_id
            mapped_parent = (
                idmap[event.parent_id]
                if event.parent_id in idmap
                else parent
            )
            rebased = SpanStart(
                span_id=new_id,
                parent_id=mapped_parent,
                name=event.name,
                t=event.t,
                attrs=event.attrs + extra,
            )
            rec.emit(rebased)
            open_starts[new_id] = rebased
            last_t = event.t if last_t is None else max(last_t, event.t)
        elif isinstance(event, SpanEnd):
            new_id = idmap.get(event.span_id)
            if new_id is None:
                # the matching start was clipped in the worker buffer;
                # relaying the end would unbalance the parent stream
                dropped += 1
                continue
            rec.emit(
                SpanEnd(
                    span_id=new_id,
                    name=event.name,
                    t=event.t,
                    seconds=event.seconds,
                )
            )
            open_starts.pop(new_id, None)
            last_t = event.t if last_t is None else max(last_t, event.t)
        else:
            rec.emit(event)
    # Re-balance spans whose ends were clipped: close them innermost-first
    # at the last timestamp the payload saw.
    for new_id, start in reversed(list(open_starts.items())):
        t = start.t if last_t is None else last_t
        rec.emit(
            SpanEnd(
                span_id=new_id,
                name=start.name,
                t=t,
                seconds=max(0.0, t - start.t),
            )
        )
    if dropped:
        rec.emit(RelayClipped(dropped_events=int(dropped)))
    return int(dropped)


def capture_relay(fn, payload, max_events: int = RELAY_MAX_EVENTS):
    """Run ``fn(payload)`` under a fresh :class:`RelayRecorder` and return
    ``(result, relay_payload)`` — the worker-side helper
    :meth:`~repro.perf.pool.WorkerPool.map` calls when the parent asked for
    the relay."""
    from repro.obs.events import recording

    local = RelayRecorder(max_events=max_events)
    with recording(local):
        result = fn(payload)
    return result, relay_payload(local)


def relayed_from(recorder) -> int:
    """Total worker events dropped at relay buffer caps, as visible in a
    recorded stream: the sum over :class:`~repro.obs.events.RelayClipped`
    events in *recorder*'s retained list (0 for recorders without one)."""
    events = getattr(recorder, "events", ())
    return sum(
        e.dropped_events for e in events if isinstance(e, RelayClipped)
    )
