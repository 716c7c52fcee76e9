"""Unit tests for the DES kernel (repro.sim.core)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    AnyOf,
    Interrupt,
    Resource,
    Simulator,
    WaitQueue,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        yield sim.timeout(7.5)
        return sim.now

    assert sim.run_process(proc()) == 12.5
    assert sim.now == 12.5


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(0)
        order.append(name)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert order == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1, value="hello")
        return value

    assert sim.run_process(proc()) == "hello"


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3)
        gate.succeed(42)

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(3, 42)]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    proc = sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert proc.value == "caught boom"


def test_process_return_value_propagates_through_subprocess():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return "inner-done"

    def outer():
        result = yield sim.process(inner())
        return result + "!"

    assert sim.run_process(outer()) == "inner-done!"


def test_yield_from_composition():
    sim = Simulator()

    def step(delay):
        yield sim.timeout(delay)
        return delay * 10

    def whole():
        a = yield from step(1)
        b = yield from step(2)
        return a + b

    assert sim.run_process(whole()) == 30
    assert sim.now == 3


def test_waiting_on_already_processed_event():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")

    def late_waiter():
        yield sim.timeout(5)
        value = yield gate
        return value

    assert sim.run_process(late_waiter()) == "early"
    assert sim.now == 5


def test_exception_in_process_propagates_from_run_process():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_process(bad())


def test_run_until_stops_the_clock():
    sim = Simulator()
    hits = []

    def ticker():
        while True:
            yield sim.timeout(10)
            hits.append(sim.now)

    sim.process(ticker())
    sim.run(until=35)
    assert hits == [10, 20, 30]
    assert sim.now == 35


def test_run_until_past_raises():
    sim = Simulator()
    sim.run_process(iter_timeout(sim, 10))
    with pytest.raises(ValueError):
        sim.run(until=5)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(100, value="slow")
        fired = yield AnyOf(sim, [fast, slow])
        return list(fired.values())

    assert sim.run_process(proc()) == ["fast"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        first = sim.timeout(1, value=1)
        second = sim.timeout(5, value=2)
        fired = yield sim.all_of([first, second])
        return sorted(fired.values()), sim.now

    values, when = sim.run_process(proc())
    assert values == [1, 2]
    assert when == 5


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def interrupter(target):
        yield sim.timeout(3)
        target.interrupt("wake-up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(3, "wake-up")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_anyof_detaches_callbacks_from_losing_events():
    """A long-lived event raced against timeouts in a loop must not
    accumulate one dead condition callback per race (the leak)."""
    sim = Simulator()
    gate = sim.event()

    def racer():
        for __ in range(50):
            fired = yield AnyOf(sim, [gate, sim.timeout(1)])
            assert gate not in fired

    sim.run_process(racer())
    assert gate.callbacks == []


def test_anyof_detaches_losers_on_failure():
    sim = Simulator()
    survivor = sim.event()

    def proc():
        doomed = sim.event()
        condition = AnyOf(sim, [survivor, doomed])
        doomed.fail(ValueError("boom"))
        try:
            yield condition
        except ValueError:
            return "failed"

    assert sim.run_process(proc()) == "failed"
    assert survivor.callbacks == []


def test_determinism_same_seed_same_schedule():
    def build_and_run():
        sim = Simulator()
        rng = random.Random(7)
        trace = []

        def worker(name):
            for __ in range(5):
                yield sim.timeout(rng.randint(1, 9))
                trace.append((sim.now, name))

        for i in range(3):
            sim.process(worker(f"w{i}"))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# -- golden-run determinism ---------------------------------------------------
#
# The scenario below exercises every scheduling path of the kernel; the
# constants were captured once and must never change: any kernel
# optimization (fast lane, proxy elimination, dispatch inlining, ...)
# has to fire the exact same events in the exact same order at the exact
# same simulated times.  If an intentional *semantic* change ever breaks
# this, recapture the constants and justify the diff in review.

KERNEL_GOLDEN_NOW = 1000.0
KERNEL_GOLDEN_LOG = [
    (1.0, 'w2:slept'),
    (1.0, 'jitter'),
    (1.0, 'w2:acquired'),
    (2.0, 'jitter'),
    (2.0, "race=['fast']"),
    (4.0, 'w0:slept'),
    (4.0, 'w1:slept'),
    (4.0, 'jitter'),
    (4.0, 'w0:acquired'),
    (4.0, 'w2:zero'),
    (5.0, 'g0:gate=open'),
    (5.0, 'g1:gate=open'),
    (5.0, 'r0:got=first'),
    (5.0, 'r1:got=second'),
    (5.0, 'g0:again=open'),
    (5.0, 'g1:again=open'),
    (6.0, 'jitter'),
    (6.0, 'caught:boom'),
    (6.0, "all=['a', 'b']"),
    (6.0, 'jitter'),
    (7.0, 'interrupted:now'),
    (7.0, 'w1:acquired'),
    (7.0, 'w0:zero'),
    (8.0, 'jitter'),
    (10.0, 'w1:zero'),
]


def kernel_scenario():
    """A deterministic scenario exercising every scheduling path of the
    kernel: zero-delay and delayed timeouts, succeed/fail events, yields
    on already-processed events, AnyOf/AllOf, interrupts, FIFO resources
    and events handed a value in order.  Returns the exact (time, tag)
    firing order."""
    sim = Simulator()
    log = []
    gate = sim.event()
    resource = Resource(sim, capacity=1)
    mailboxes = [sim.event(), sim.event()]

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, f"{name}:slept"))
        yield resource.request()
        log.append((sim.now, f"{name}:acquired"))
        yield sim.timeout(3)
        resource.release()
        yield sim.timeout(0)
        log.append((sim.now, f"{name}:zero"))

    def opener():
        yield sim.timeout(5)
        gate.succeed("open")
        mailboxes[0].succeed("first")
        mailboxes[1].succeed("second")

    def gate_waiter(name):
        value = yield gate
        log.append((sim.now, f"{name}:gate={value}"))
        # gate is already processed from here on: the re-yield path
        again = yield gate
        log.append((sim.now, f"{name}:again={again}"))

    def mailbox_reader(name, mailbox):
        item = yield mailbox
        log.append((sim.now, f"{name}:got={item}"))

    def racer():
        fast = sim.timeout(2, value="fast")
        slow = sim.timeout(50, value="slow")
        fired = yield AnyOf(sim, [fast, slow])
        log.append((sim.now, f"race={sorted(fired.values())}"))
        both = yield sim.all_of([sim.timeout(1, value="a"),
                                 sim.timeout(4, value="b")])
        log.append((sim.now, f"all={sorted(both.values())}"))

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            log.append((sim.now, f"interrupted:{exc.cause}"))

    def interrupter(target):
        yield sim.timeout(7)
        target.interrupt("now")

    def failer():
        yield sim.timeout(6)
        doomed = sim.event()
        doomed.fail(ValueError("boom"))
        try:
            yield doomed
        except ValueError as exc:
            log.append((sim.now, f"caught:{exc}"))

    for index, delay in enumerate((4, 4, 1)):
        sim.process(worker(f"w{index}", delay))
    sim.process(opener())
    sim.process(gate_waiter("g0"))
    sim.process(gate_waiter("g1"))
    sim.process(mailbox_reader("r0", mailboxes[0]))
    sim.process(mailbox_reader("r1", mailboxes[1]))
    sim.process(racer())
    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.process(failer())
    rng = random.Random(13)

    def jitter():
        for __ in range(6):
            yield sim.timeout(rng.choice((0, 1, 2)))
            log.append((sim.now, "jitter"))

    sim.process(jitter())
    sim.run()
    return sim.now, log


def test_kernel_golden_run_matches_recorded_schedule():
    now, log = kernel_scenario()
    assert now == KERNEL_GOLDEN_NOW
    assert log == KERNEL_GOLDEN_LOG


def test_kernel_golden_run_is_repeatable():
    assert kernel_scenario() == kernel_scenario()


def test_events_processed_counts_dispatches():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        yield sim.timeout(1)

    sim.run_process(proc())
    # startup resume + zero-delay timeout + delayed timeout
    assert sim.events_processed == 3


# -- WaitQueue: bit-identical to the AnyOf re-wait loop it replaces -----------


def herd_scenario(spec, use_queue):
    """Parkers wait on one broadcast condition, run either through the
    ``Event`` + ``Timeout`` + ``AnyOf`` re-wait loop or a ``WaitQueue``.

    The condition is a shared level: broadcasters lower it, every parker
    that gets through raises it (and may broadcast itself), so a wakeup's
    outcome depends on who ran before it in the herd.  Relative deadlines
    end the wait (the buffer pool's shape); absolute ones loop until the
    remaining time is spent (the front end's).  Returns the
    ``(now, pid, outcome, level)`` log, the drained clock and the number
    of events dispatched.
    """
    sim = Simulator()
    queue = WaitQueue(sim)
    waiters = []  # the loop's per-waiter wake events
    level = [spec["level"]]
    log = []

    def broadcast():
        if use_queue:
            queue.notify_all()
            return
        woken, waiters[:] = list(waiters), []
        for event in woken:
            event.succeed()

    def parker(pid, start, threshold, span, absolute, bump, chain):
        def blocked():
            return level[0] > threshold

        try:
            yield sim.timeout(start)
            deadline_at = sim.now + span

            def wait_left():
                return deadline_at - sim.now if absolute else span

            def recheck():
                if not blocked():
                    return None
                left = wait_left()
                return left if left > 0 else None

            while blocked():
                left = wait_left()
                if left <= 0:
                    log.append((sim.now, pid, "expired", level[0]))
                    return
                if use_queue:
                    woke = yield queue.park(recheck, left)
                else:
                    woken = sim.event()
                    waiters.append(woken)
                    fired = yield sim.any_of([woken, sim.timeout(left)])
                    woke = woken in fired
                    if not woke:
                        try:
                            waiters.remove(woken)
                        except ValueError:
                            pass
                if not woke:
                    log.append((sim.now, pid, "deadline", level[0]))
                    if not absolute:
                        return
            level[0] += bump
            log.append((sim.now, pid, "through", level[0]))
            if chain:
                broadcast()
        except Interrupt:
            log.append((sim.now, pid, "interrupted", level[0]))

    def broadcaster(times):
        for when, drop in times:
            yield sim.timeout(when)
            level[0] -= drop
            broadcast()

    def interrupter(procs, when, pid):
        yield sim.timeout(when)
        if procs[pid].is_alive and pid not in interrupted:
            interrupted.add(pid)  # one interrupt per process
            procs[pid].interrupt("stop")

    interrupted = set()
    procs = [sim.process(parker(pid, *args))
             for pid, args in enumerate(spec["parkers"])]
    for times in spec["broadcasts"]:
        sim.process(broadcaster(times))
    for when, pid in spec["interrupts"]:
        sim.process(interrupter(procs, when, pid % len(procs)))
    sim.run()
    return log, sim.now, sim.events_processed


# Whole times collide (a deadline on a broadcast's timestamp); tenths
# make ``now + (deadline - now)`` round off an ulp from ``deadline``.
_time = st.integers(0, 6) | st.integers(0, 60).map(lambda n: n / 10)
_parker = st.tuples(
    _time,                                                # start
    st.integers(0, 6),                                    # threshold
    st.integers(1, 25) | st.integers(1, 30).map(lambda n: n / 10),  # span
    st.booleans(),                                        # absolute
    st.integers(0, 3),                                    # bump
    st.booleans(),                                        # chain
)
_herd = st.fixed_dictionaries({
    "level": st.integers(0, 12),
    "parkers": st.lists(_parker, min_size=1, max_size=7),
    "broadcasts": st.lists(
        st.lists(st.tuples(_time, st.integers(0, 3)), max_size=6),
        max_size=3),
    "interrupts": st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=2),
})


def _spec(level, parkers, *broadcasters):
    return {"level": level, "parkers": list(parkers),
            "broadcasts": [list(times) for times in broadcasters],
            "interrupts": []}


@settings(max_examples=300, deadline=None)
@given(_herd)
# Re-parked, then through: the drained clock ends on the last re-park's
# dead deadline (11), not the first (10).
@example(_spec(5, [(0, 3, 10, False, 0, False)], [(1, 1), (1, 1)]))
# The re-park at 0.2 recomputes 0.9 as 0.8999999999999999: that deadline
# fires first, ahead of the broadcast at 0.9 scheduled before the park.
@example(_spec(5, [(0, 0, 0.9, True, 0, False)], [(0.9, 1)], [(0.2, 0)]))
def test_wait_queue_replays_the_anyof_rewait_loop(spec):
    assert herd_scenario(spec, use_queue=True)[:2] \
        == herd_scenario(spec, use_queue=False)[:2]


def test_wait_queue_collapses_a_herd_into_two_hops():
    spec = _spec(9, [(0, 0, 50, False, 0, False)] * 8, [(1, 1)] * 8)
    log, now, events = herd_scenario(spec, use_queue=True)
    loop_log, loop_now, loop_events = herd_scenario(spec, use_queue=False)
    assert (log, now) == (loop_log, loop_now)
    # Each of eight broadcasts re-parks all eight parkers: the loop pays
    # a wake event, an AnyOf and a dead Timeout per re-park, the queue two
    # hops per broadcast and one deadline entry per parker.
    assert events < loop_events / 3


def test_notify_all_on_empty_queue_schedules_nothing():
    sim = Simulator()
    WaitQueue(sim).notify_all()
    sim.run()
    assert sim.events_processed == 0
    assert sim.now == 0


@pytest.mark.parametrize("between_hops", [False, True])
def test_interrupted_parked_process_is_never_rearmed(between_hops):
    sim = Simulator()
    queue = WaitQueue(sim)
    rechecks = []
    log = []

    def recheck():
        rechecks.append(sim.now)
        return 10  # would park again forever

    def parker():
        try:
            yield queue.park(recheck, 10)
        except Interrupt:
            log.append(("interrupted", sim.now))

    def driver(target):
        yield sim.timeout(3)
        if between_hops:
            # Resumes after the broadcast's first hop, before its second.
            queue.notify_all()
            yield sim.timeout(0)
        target.interrupt()
        queue.notify_all()
        yield sim.timeout(4)
        queue.notify_all()

    sim.process(driver(sim.process(parker())))
    sim.run()
    assert log == [("interrupted", 3)]
    assert rechecks == []
    # Only the deadline pushed at park time is left: it pops as a no-op.
    assert sim.now == 10


def test_park_rejects_a_non_positive_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        WaitQueue(sim).park(lambda: None, 0)
