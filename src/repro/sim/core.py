"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: *processes* are
Python generators that yield :class:`Event` objects and are resumed when
those events fire.  Time is a virtual microsecond clock (a plain float),
which is what lets the flash model, the FTLs and the mini-DBMS share one
deterministic notion of latency.

The paper's evaluation platform is a real-time Linux-kernel flash emulator
with ~1 microsecond precision; this kernel plays the same role with exactly
reproducible timing (see DESIGN.md section 2).

Scheduling is split across two structures with one total order:

* a binary heap of ``(time, seq, event)`` for events in the future, and
* a FIFO *fast lane* (a deque) for **immediate** events — zero-delay
  timeouts, ``succeed``/``fail`` calls, process starts and resumptions —
  which would otherwise pay a heap push + pop just to fire at the
  current time.  Most events in a flash/DBMS rig are immediate (resource
  grants, store hand-offs, completion events), so this is the kernel's
  hot path.

Both lanes share the global ``seq`` counter and the dispatcher always
picks the lowest ``(time, seq)`` across them, so the firing order is
**bit-identical** to a single heap ordered by ``(time, seq)`` — the
determinism tests pin this with golden runs recorded against the
pre-fast-lane kernel.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Simulator",
    "WaitQueue",
]

_UNSET = object()


class Interrupt(Exception):
    """Thrown into a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it, and once the simulator processes it every
    registered callback runs exactly once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (it may not have
        been processed yet)."""
        return self._value is not _UNSET

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._value is not _UNSET:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        # Scheduled here rather than through Simulator._schedule: a timeout
        # is the one event born with a delay, and every record operation
        # charges its CPU time with one.
        seq = sim._seq = sim._seq + 1
        if delay == 0.0:
            sim._fast.append((seq, self))
        else:
            heapq.heappush(sim._queue, (sim._now + delay, seq, self))


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` objects; each yield suspends the
    process until the event fires, at which point the event's value is sent
    back into the generator (or its exception thrown in).
    """

    __slots__ = ("_generator", "_waiting_on", "_pending_resume",
                 "_send", "_throw", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        # Bound methods resolved once: each attribute access would build a
        # fresh bound-method object, and these run once per resumption.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self._waiting_on: Optional[Event] = None
        # A live fast-lane resumption entry (see _schedule_resume); kept
        # so interrupt() can cancel it.  The start-up resume below is
        # deliberately *not* cancellable: interrupting a process that has
        # not run yet starts it first, then interrupts — the pre-fast-lane
        # semantics.
        self._pending_resume: Optional[list] = None
        # Kick off the process at the current simulation time, without
        # allocating a bootstrap Event.
        sim._schedule_resume(self, True, None)

    @property
    def is_alive(self) -> bool:
        return self._value is _UNSET

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        if self._waiting_on is not None and self._waiting_on.callbacks is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            self._waiting_on = None
        if self._pending_resume is not None:
            # The process was about to resume from an already-processed
            # event; the interrupt supersedes that value.
            self._pending_resume[1] = None
            self._pending_resume = None
        wakeup = Event(self.sim)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        self.sim._schedule(wakeup)
        wakeup.callbacks.append(self._resume_cb)

    def _resume(self, event: Optional[Event], ok: bool = True,
                value: Any = None) -> None:
        """Send the fired ``event``'s value into the generator.  A
        fast-lane resume entry passes ``event=None`` with the ``(ok,
        value)`` it carries: one frame either way."""
        if event is not None:
            ok = event._ok
            value = event._value
        self._waiting_on = None
        sim = self.sim
        try:
            if ok:
                target = self._send(value)
            else:
                target = self._throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An uncaught interrupt terminates the process abnormally.
            self._ok = False
            self._value = exc
            sim._schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            sim._schedule(self)
            if not self.callbacks:
                raise
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            raise TypeError(
                f"process yielded {target!r}; processes must yield Event objects"
            ) from None
        if callbacks is None:
            # Already processed: resume at the current time via the fast
            # lane, carrying the value directly — no proxy Event.
            self._pending_resume = sim._schedule_resume(
                self, target._ok, target._value
            )
        else:
            callbacks.append(self._resume_cb)
            self._waiting_on = target


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._fired: dict = {}
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._on_fire(event)
            else:
                event.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self._detach_losers(event)
            self.fail(event._value)
            return
        self._fired[event] = event._value
        if self._satisfied():
            self._detach_losers(event)
            self.succeed(dict(self._fired))

    def _detach_losers(self, firing: Event) -> None:
        """Remove our callback from children that have not fired yet.

        Once the condition has its value, the losing children's
        ``_on_fire`` references are dead weight: on long-lived events
        (e.g. an event raced against a timeout in a loop) they would
        otherwise accumulate without bound."""
        on_fire = self._on_fire
        for child in self._events:
            if child is firing:
                continue
            callbacks = child.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(on_fire)
                except ValueError:
                    pass

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any child event fires; value maps event -> value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) >= 1


class AllOf(_Condition):
    """Fires once all child events have fired; value maps event -> value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) == len(self._events)


# States of a parked episode (see WaitQueue).
_PARKED, _NOTIFIED, _WOKEN, _DONE = range(4)


class _Parked:
    """One parked episode: a process waiting on a :class:`WaitQueue`.

    ``when``/``seq`` is the current deadline key.  ``lead`` is the heap
    entry that will fire it (lazily re-pushed to the current key);
    ``tail`` the entry that carries the episode to ``far_when``/
    ``far_seq``, the latest key it ever had (see WaitQueue)."""

    __slots__ = ("event", "recheck", "state", "when", "seq",
                 "far_when", "far_seq", "lead", "tail")

    def __init__(self, event: Event, recheck):
        self.event = event
        self.recheck = recheck
        self.state = _PARKED
        self.lead = self.tail = None


class _Deadline:
    """A heap entry standing in for a parked episode's ``Timeout``."""

    __slots__ = ("callbacks", "parked", "when", "seq")


class _Hop:
    """A fast-lane entry carrying one broadcast's herd."""

    __slots__ = ("callbacks", "batch")


class WaitQueue:
    """Processes parked on one broadcast condition, with a deadline each.

    ``yield queue.park(recheck, delay)`` suspends the caller until
    :meth:`notify_all` wakes it (value ``True``) or ``delay`` passes
    first (value ``False``).  It replaces the loop::

        while blocked():
            woken = sim.event(); waiters.append(woken)
            fired = yield sim.any_of([woken, sim.timeout(delay)])
            if woken not in fired: break      # deadline

    with a bit-identical schedule at a fraction of the events:

    * ``notify_all`` schedules one fast-lane entry for the whole herd;
      dispatching it schedules a second, which visits the herd in park
      order.  These are exactly the slots where the loop's per-waiter
      ``woken`` events fire, then their ``AnyOf``s — each set is
      scheduled back to back, so nothing interleaves inside it.
    * At its slot, a waiter's ``recheck()`` decides what the loop would
      do next.  ``None``: the parked event fires inline, resuming the
      process exactly where the ``AnyOf`` callback did.  A delay: the
      loop would park again, so the waiter re-parks in place at the
      queue's tail, its generator never resumed, its deadline moved to
      ``(now + delay, next seq)`` — the key a fresh ``Timeout`` would
      take at that moment.  ``recheck`` must run the loop's side effects
      in the loop's order.
    * Each episode keeps one heap entry, re-armed lazily: a stale entry
      that pops re-pushes at the current key, and a re-arm that lands
      *earlier* than the pushed entry (an absolute deadline recomputed
      as ``now + (deadline - now)`` may round one ulp low) is pushed at
      once.  A deadline fires the event with ``False`` one hop later, as
      the ``AnyOf`` did.  The episode's last entry pops at the latest key
      it ever had, where the loop's last dead ``Timeout`` popped, so a
      drained simulator ends on the same clock.
    * A parked process that is interrupted is dropped at its next visit
      and never re-armed.
    """

    __slots__ = ("sim", "_parked", "_expire_cbs", "_woken_cbs",
                 "_wake_cbs")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._parked: deque = deque()
        # Shared one-callback lists: the dispatcher only iterates them.
        self._expire_cbs = [self._expire]
        self._woken_cbs = [self._woken]
        self._wake_cbs = [self._wake]

    def park(self, recheck, delay: float) -> Event:
        """Event that fires ``True`` on a wake-up ``recheck`` lets
        through, or ``False`` once ``delay`` passes first."""
        parked = _Parked(Event(self.sim), recheck)
        self._arm(parked, delay)
        self._parked.append(parked)
        return parked.event

    def notify_all(self) -> None:
        """Wake every process parked right now (no-op when none is)."""
        parked = self._parked
        if not parked:
            return
        batch = list(parked)
        parked.clear()
        for waiter in batch:
            waiter.state = _NOTIFIED
        hop = _Hop()
        hop.callbacks = self._woken_cbs
        hop.batch = batch
        self.sim._schedule(hop)

    def _arm(self, parked: _Parked, delay: float) -> None:
        if not delay > 0:
            raise ValueError(f"park delay must be positive, got {delay}")
        sim = self.sim
        sim._seq += 1
        when = sim._now + delay
        seq = parked.seq = sim._seq
        parked.when = when
        # The fresh seq outranks every pushed key, so comparing times
        # orders the keys.
        lead = parked.lead
        if lead is None or when < lead.when:
            lead = parked.lead = self._push(_Deadline(), parked, when, seq)
        if parked.tail is None or when >= parked.far_when:
            parked.far_when = when
            parked.far_seq = seq
            parked.tail = lead

    def _push(self, entry: _Deadline, parked: _Parked, when: float,
              seq: int) -> _Deadline:
        entry.callbacks = self._expire_cbs
        entry.parked = parked
        entry.when = when
        entry.seq = seq
        heapq.heappush(self.sim._queue, (when, seq, entry))
        return entry

    def _expire(self, entry: _Deadline) -> None:
        parked = entry.parked
        if entry is parked.lead:
            if entry.seq != parked.seq:
                # Re-armed since this push: move on to the current key.
                self._push(entry, parked, parked.when, parked.seq)
                return
            parked.lead = None
            state = parked.state
            if state is _PARKED or state is _NOTIFIED:
                if state is _PARKED:
                    self._parked.remove(parked)
                parked.state = _DONE
                if parked.event.callbacks:  # else: interrupted, dropped
                    parked.event.succeed(False)
        if entry is parked.tail and entry.when < parked.far_when:
            # Only the clock is left to match: a later seq at the same
            # time would pop as the same no-op.
            self._push(entry, parked, parked.far_when, parked.far_seq)

    def _woken(self, hop: _Hop) -> None:
        """First hop: the slots of the loop's ``woken`` events."""
        woken = []
        for parked in hop.batch:
            if parked.state is not _NOTIFIED:
                continue  # its deadline fired first
            if parked.event.callbacks:
                parked.state = _WOKEN
                woken.append(parked)
            else:
                parked.state = _DONE
                parked.lead = None
        if woken:
            hop.callbacks = self._wake_cbs
            hop.batch = woken
            self.sim._schedule(hop)

    def _wake(self, hop: _Hop) -> None:
        """Second hop: the slots of the loop's ``AnyOf``s, in park order."""
        for parked in hop.batch:
            event = parked.event
            callbacks = event.callbacks
            if not callbacks:  # interrupted since the broadcast
                parked.state = _DONE
                parked.lead = None
                continue
            delay = parked.recheck()
            if delay is None:
                parked.state = _DONE
                parked.lead = None
                event._value = True
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
            else:
                parked.state = _PARKED
                self._parked.append(parked)
                self._arm(parked, delay)


class Simulator:
    """The event loop: a future heap plus an immediate FIFO fast lane.

    Entries carry a global sequence number; the dispatcher always fires
    the lowest ``(time, seq)`` across both lanes, which makes the order
    identical to the classic single-heap implementation.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list = []   # (when, seq, event) heap — future events
        self._fast: deque = deque()  # immediate lane, see _schedule
        self._seq = 0
        #: Events dispatched so far — the stack benchmark divides this by
        #: host seconds to get the events/sec figure.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by project convention)."""
        return self._now

    # -- event constructors -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling / running ------------------------------------------------

    def _schedule(self, event: Event) -> None:
        """Queue ``event`` to fire at the current time.

        Immediate events take the FIFO fast lane: the heap's ordering work
        would be wasted on them.  Sequence numbers keep the two lanes in
        one total order; :class:`Timeout` pushes its own future entries.
        """
        self._seq += 1
        self._fast.append((self._seq, event))

    def _schedule_resume(self, process: Process, ok: bool, value: Any) -> list:
        """Fast-lane entry resuming ``process`` directly with ``(ok,
        value)`` — the no-allocation replacement for the old proxy Event
        used when a process yields an already-processed event.  Returns
        the (mutable) entry so :meth:`Process.interrupt` can cancel it by
        nulling the process slot."""
        self._seq += 1
        entry = [self._seq, process, ok, value]
        self._fast.append(entry)
        return entry

    def _fast_head_is_next(self) -> bool:
        """True when the fast lane holds the lowest (time, seq) entry."""
        if not self._fast:
            return False
        if not self._queue:
            return True
        head = self._queue[0]
        return head[0] > self._now or head[1] > self._fast[0][0]

    def step(self) -> None:
        """Process the single next event (lowest (time, seq) across lanes)."""
        self.events_processed += 1
        if self._fast_head_is_next():
            entry = self._fast.popleft()
            if len(entry) == 2:
                event = entry[1]
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
            else:
                process = entry[1]
                if process is not None:
                    process._pending_resume = None
                    process._resume(None, entry[2], entry[3])
            return
        when, __, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or simulated time reaches ``until``.

        This is the hot loop of every bench: the dispatch logic of
        :meth:`step` is inlined here (locals bound once, no per-event
        method call), firing identically ordered events.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        queue = self._queue
        fast = self._fast
        heappop = heapq.heappop
        limit = math.inf if until is None else until
        # ``_now`` only advances at heap pops inside this very loop, so a
        # local mirror is safe and saves an attribute load per event.
        now = self._now
        dispatched = 0
        try:
            while True:
                if fast:
                    head = queue[0] if queue else None
                    if head is None or head[0] > now \
                            or head[1] > fast[0][0]:
                        entry = fast.popleft()
                        dispatched += 1
                        if len(entry) == 2:
                            event = entry[1]
                            callbacks, event.callbacks = event.callbacks, None
                            for callback in callbacks:
                                callback(event)
                        else:
                            process = entry[1]
                            if process is not None:
                                process._pending_resume = None
                                process._resume(None, entry[2], entry[3])
                        continue
                elif not queue:
                    break
                when = queue[0][0]
                if when > limit:
                    self._now = until
                    return
                __, __, event = heappop(queue)
                self._now = now = when
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
        finally:
            self.events_processed += dispatched
        if until is not None:
            self._now = until

    def run_process(self, generator: Generator) -> Any:
        """Run a process to completion and return its value.

        Steps the simulation only until *this* process finishes — other
        processes (e.g. perpetually polling background writers) may still
        have pending events afterwards; resume them with :meth:`run`.
        """
        proc = self.process(generator)
        step = self.step
        while proc._value is _UNSET and (self._queue or self._fast):
            step()
        if proc._value is _UNSET:
            raise RuntimeError("process did not finish (deadlock?)")
        if not proc._ok:
            raise proc._value
        return proc.value
