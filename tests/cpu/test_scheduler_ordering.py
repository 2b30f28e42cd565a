"""Same-timestamp ordering around burst completion.

When a burst finishes, its ``done`` waiters run and then the core re-picks,
all at one virtual instant.  These tests pin the ``(time, label)`` trace of
the edge cases where other work shares that instant: an event already due,
an urgent process start, ``run(until=done)``, an interrupted waiter and a
second idle core.
"""

import pytest

from repro.calibration import default_calibration
from repro.cpu.scheduler import CPU
from repro.errors import InterruptError
from repro.sim.core import Environment


def at(time, label):
    return (pytest.approx(time, rel=1e-12, abs=1e-15), label)


@pytest.fixture
def switch(calib):
    """Cost of the first switch onto an idle core (one runnable thread)."""
    return calib.context_switch_cost(1)


def test_event_due_at_burst_end_runs_before_the_waiter(env, cpu, switch):
    t = cpu.thread("t")
    d = 1e-3
    end = (0.0 + switch) + d
    trace = []

    def worker(env):
        yield t.run(d)
        trace.append((env.now, "t done"))
        yield t.run(d)
        trace.append((env.now, "t done again"))

    def observer(env):
        # Queued after the quantum timer, at the very same instant.
        yield env.timeout(d / 2)
        tick = env.schedule_at(end)
        tick.callbacks.append(lambda _: trace.append((env.now, "tick")))

    env.process(worker(env))
    env.process(observer(env))
    env.run()
    assert trace == [at(end, "tick"), at(end, "t done"), at(end + d, "t done again")]
    assert cpu.counters.context_switches == 1


def test_process_spawned_by_waiter_starts_before_the_repick(env, cpu, switch, calib):
    t, u = cpu.thread("t"), cpu.thread("u")
    d = 1e-3
    end = (0.0 + switch) + d
    trace = []

    def child(env):
        # The core has not re-picked yet: it still counts as busy.
        trace.append((env.now, f"child runnable={cpu.runnable_count}"))
        yield u.run(d)
        trace.append((env.now, "u done"))

    def worker(env):
        yield t.run(d)
        trace.append((env.now, "t done"))
        env.process(child(env))

    env.process(worker(env))
    env.run()
    u_end = (end + calib.context_switch_cost(1)) + d
    assert trace == [at(end, "t done"), at(end, "child runnable=1"), at(u_end, "u done")]
    assert cpu.counters.voluntary_switches == 2


def test_run_until_done_stops_and_the_core_resumes_later(env, cpu, switch, calib):
    t, u = cpu.thread("t"), cpu.thread("u")
    d = 1e-3
    trace = []

    def waiter(env, event, label):
        yield event
        trace.append((env.now, label))

    t_done = t.run(d)
    u_done = u.run(2 * d)
    env.process(waiter(env, t_done, "t done"))
    env.process(waiter(env, u_done, "u done"))
    env.run(until=0.0)  # start the waiters so they park ahead of the stop
    end = (0.0 + calib.context_switch_cost(2)) + d
    assert env.run(until=t_done) is None
    assert env.now == pytest.approx(end)
    assert trace == [at(end, "t done")]

    env.run()
    u_end = (end + calib.context_switch_cost(1)) + 2 * d
    assert trace == [at(end, "t done"), at(u_end, "u done")]
    assert cpu.counters.context_switches == 2


def test_waiter_interrupted_while_parked_on_done(env, cpu, switch):
    t = cpu.thread("t")
    d = 1e-3
    end = (0.0 + switch) + d
    trace = []

    def worker(env):
        done = t.run(d)
        try:
            yield done
        except InterruptError as exc:
            trace.append((env.now, f"interrupted {exc.cause}"))
        yield done
        trace.append((env.now, "t done"))
        yield t.run(d)
        trace.append((env.now, "t done again"))

    def interrupter(env, victim):
        yield env.timeout(d / 2)
        victim.interrupt("poke")

    victim = env.process(worker(env))
    env.process(interrupter(env, victim))
    env.run()
    assert trace == [
        at(d / 2, "interrupted poke"),
        at(end, "t done"),
        at(end + d, "t done again"),
    ]
    assert cpu.counters.context_switches == 1


def test_sticky_repick_wins_over_a_woken_idle_core():
    env = Environment()
    calib = default_calibration(cores=2)
    cpu = CPU(env, calib)
    t = cpu.thread("t")
    d = 1e-3
    end = (0.0 + calib.context_switch_cost(1)) + d
    trace = []

    def worker(env):
        yield t.run(d)
        trace.append((env.now, "t done"))
        # The other core is idle and gets woken; the finishing core must
        # still keep the thread without a second switch.
        yield t.run(d)
        trace.append((env.now, "t done again"))

    env.process(worker(env))
    env.run()
    assert trace == [at(end, "t done"), at(end + d, "t done again")]
    assert cpu.counters.context_switches == 1
