"""Event queue: the simulator's clock and dispatch loop.

A minimal but strict discrete-event core: events are ``(time, seq, kind,
payload)`` records in a binary heap, fired by calling handler ``kind`` of
the queue's handler table with ``payload``.  The monotonically increasing
``seq`` makes simultaneous events fire in scheduling order, which keeps
runs fully deterministic for a fixed seed.

Two ways in:

- :meth:`EventQueue.post` pushes a typed record: an integer ``kind``
  obtained once from :meth:`EventQueue.register` and a payload.  This is
  the engine's hot path (arrivals, window ticks, warm-ups, stage
  completions): no handle, no closure per event;
- :meth:`EventQueue.schedule` pushes a :class:`TimerHandle` that can be
  cancelled before it fires, for a zero-argument callback;
  :meth:`EventQueue.post_cancellable` does the same for a typed record.
  ``cancel()`` deletes the entry lazily: dead entries are skipped on pop
  and compacted away once they outnumber live ones, so callers can
  retract keep-alive expiry timers instead of leaving them to fire as
  no-ops.

:meth:`EventQueue.reserve` hands out a contiguous block of sequence
numbers up front, letting a *streamed* event source (the engine's
self-rescheduling arrival and window-tick chains) push events lazily while
preserving the exact tie-breaking order a pre-pushed schedule would have
had.  Heap size then stays proportional to the number of *live* events,
not to trace length.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

#: Minimum number of cancelled entries before a compaction can trigger.
COMPACT_MIN_DEAD = 16

# Handler kind of a plain callback (:meth:`EventQueue.schedule`).
_CALL = 0

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = math.inf


def _call(callback: Callable[[], None]) -> None:
    callback()


class TimerHandle:
    """A scheduled event that can be cancelled before it fires.

    Its heap record is ``(time, seq, None, handle)``; the handle holds the
    event's real ``kind`` and ``payload`` until it fires or is cancelled.
    """

    __slots__ = ("time", "seq", "kind", "payload", "_queue")

    def __init__(
        self, time: float, seq: int, kind: int, payload: Any, queue: "EventQueue"
    ) -> None:
        self.time = time
        self.seq = seq
        self.kind: int | None = kind
        self.payload = payload
        self._queue: EventQueue | None = queue

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self.kind is not None

    def cancel(self) -> bool:
        """Retract the event; returns ``True`` if it was still pending.

        Cancelling an already-fired or already-cancelled event is a no-op.
        The heap entry is deleted lazily: it is skipped when it reaches the
        top, and bulk-compacted when dead entries dominate the heap.
        """
        if self.kind is None:
            return False
        self.kind = self.payload = None
        queue, self._queue = self._queue, None
        if queue is not None:
            queue._note_cancel()
        return True


class EventQueue:
    """Time-ordered queue of typed event records with deterministic ties."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int | None, Any]] = []
        # Kind _CALL (0) runs a plain callback; register() appends the rest.
        self._handlers: list[Callable[[Any], None]] = [_call]
        self._seq = 0
        self._dead = 0
        #: Current simulation time (seconds).
        self.now = 0.0
        self.processed = 0  # events fired over the queue's lifetime
        self.compactions = 0  # dead-entry sweeps (introspection for tests)

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap entry count, including cancelled-but-not-yet-swept ones."""
        return len(self._heap)

    def register(self, handler: Callable[[Any], None]) -> int:
        """Add ``handler`` to the handler table; returns its event kind."""
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def post(
        self, time: float, kind: int, payload: Any, *, seq: int | None = None
    ) -> None:
        """Push a typed record: ``handler[kind](payload)`` fires at ``time``.

        Times in the past are clamped to *now*, as in :meth:`schedule`.
        ``seq`` may name a slot previously obtained from :meth:`reserve`.
        """
        if not -_INF < time < _INF:  # also rejects NaN
            raise ValueError(f"event time must be finite, got {time}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        now = self.now
        _heappush(self._heap, (time if time > now else now, seq, kind, payload))

    def post_cancellable(
        self, time: float, kind: int, payload: Any, *, seq: int | None = None
    ) -> TimerHandle:
        """Like :meth:`post`, but returns a handle that can cancel the event."""
        if not -_INF < time < _INF:
            raise ValueError(f"event time must be finite, got {time}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        handle = TimerHandle(max(time, self.now), seq, kind, payload, self)
        _heappush(self._heap, (handle.time, seq, None, handle))
        return handle

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        seq: int | None = None,
    ) -> TimerHandle:
        """Schedule ``callback`` at absolute ``time``; returns its handle.

        Events scheduled in the past are clamped to *now* — a late pre-warm
        request simply starts immediately, as on the real platform.  ``seq``
        may name a slot previously obtained from :meth:`reserve`; by default
        the next fresh sequence number is used.
        """
        return self.post_cancellable(time, _CALL, callback, seq=seq)

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self.now + delay, callback)

    def reserve(self, n: int) -> int:
        """Reserve ``n`` consecutive sequence numbers; returns the first.

        A streamed event source (one event scheduling its successor) can
        claim its tie-breaking slots up front, so lazily pushed events sort
        against other producers exactly as if the whole stream had been
        pre-pushed at reservation time.
        """
        if n < 0:
            raise ValueError(f"reservation size must be >= 0, got {n}")
        start = self._seq
        self._seq += n
        return start

    # ------------------------------------------------------------- internals
    def _note_cancel(self) -> None:
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (in place: the run loop
        holds a reference to it)."""
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is not None or e[3].kind is not None]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1

    def _prune_head(self) -> None:
        """Drop cancelled entries sitting at the top of the heap."""
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].kind is None:
            _heappop(heap)
            self._dead -= 1

    def next_time(self) -> float | None:
        """Time of the earliest live pending event, or ``None`` if empty.

        Lets an external pacer (the live serving façade) decide whether
        stepping would cross a horizon without actually firing anything.
        """
        self._prune_head()
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------ run
    def step(self) -> bool:
        """Fire the earliest live event; returns False when none remain."""
        heap = self._heap
        while heap:
            time, _, kind, payload = _heappop(heap)
            if kind is None:  # a handle: fire its event unless cancelled
                handle = payload
                kind = handle.kind
                if kind is None:
                    self._dead -= 1
                    continue
                payload = handle.payload
                handle.kind = handle.payload = handle._queue = None
            self.now = time
            self.processed += 1
            self._handlers[kind](payload)
            return True
        return False

    def run_until(self, horizon: float) -> None:
        """Fire events in order until the queue empties or passes ``horizon``."""
        # The body of step(), inlined: this loop fires nearly every event
        # of an offline run.
        heap = self._heap
        handlers = self._handlers
        while heap and heap[0][0] <= horizon:
            time, _, kind, payload = _heappop(heap)
            if kind is None:
                handle = payload
                kind = handle.kind
                if kind is None:
                    self._dead -= 1
                    continue
                payload = handle.payload
                handle.kind = handle.payload = handle._queue = None
            self.now = time
            self.processed += 1
            handlers[kind](payload)
        if horizon > self.now:
            self.now = horizon

    def run(self, max_events: int = 50_000_000) -> None:
        """Drain the queue completely (bounded as a runaway backstop)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(f"event budget of {max_events} exhausted")
