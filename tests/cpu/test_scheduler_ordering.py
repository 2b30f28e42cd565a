"""Same-timestamp ordering around burst completion.

When a burst finishes, its ``done`` waiters run and then the core re-picks,
all at one virtual instant.  These tests pin the ``(time, label)`` trace of
the edge cases where other work shares that instant: an event already due,
an urgent process start, ``run(until=done)``, an interrupted waiter and a
second idle core.

A core also finishes a burst in place, without its quantum timer, when
that timer would be the next event popped.  The second half pins the
limits of that run-ahead: the stop time of ``run(until=t)``, ``step()``,
a heap head at the very finish time, and a connection that closes while
the spin writer runs on callbacks.
"""

import pytest

from repro.calibration import default_calibration
from repro.cpu.scheduler import CPU
from repro.errors import InterruptError
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.servers.singlet import SingleThreadedServer
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


def _back_to_back(env, cpu, trace, bursts=40, d=37e-6):
    """One thread issuing ``bursts`` uncontended bursts, each traced."""
    t = cpu.thread("t")

    def worker(env):
        for i in range(bursts):
            yield t.run(d)
            trace.append((env.now, f"burst {i}"))

    return env.process(worker(env))


def test_run_ahead_never_passes_run_until():
    env = Environment()
    cpu = CPU(env, default_calibration())
    trace = []
    _back_to_back(env, cpu, trace)
    for stop in (1e-4, 2.5e-4, 7.77e-4):
        env.run(until=stop)
        assert env.now == stop
        assert trace and all(time <= stop for time, _ in trace)
    env.run()
    assert len(trace) == 40


def _sliced_state(slices):
    env = Environment()
    calib = default_calibration()
    cpu = CPU(env, calib)
    trace = []
    _back_to_back(env, cpu, trace)
    # A contending thread makes the core switch between threads.
    u = cpu.thread("u")

    def other(env):
        for i in range(6):
            yield env.timeout(1.7e-4)
            yield u.run(2.3e-4)
            trace.append((env.now, f"u {i}"))

    env.process(other(env))
    until = 4e-3
    for k in range(1, slices + 1):
        env.run(until=until * k / slices)
    counters = cpu.counters
    return (
        env.now,
        trace,
        counters.busy_user,
        counters.busy_system,
        counters.context_switches,
        counters.bursts,
        env.events_processed,
    )


def test_sliced_run_ends_in_the_state_of_one_unsliced_run():
    one = _sliced_state(1)
    # Every run-ahead the slice boundaries block shows up as a pushed
    # timer instead, so the count of kernel events must not move either.
    assert _sliced_state(32) == one
    assert len(one[1]) == 46


def test_step_never_runs_ahead():
    env = Environment()
    cpu = CPU(env, default_calibration())
    trace = []
    proc = _back_to_back(env, cpu, trace, bursts=5)
    steps = 0
    while proc.is_alive:
        due = env.peek()
        env.step()
        steps += 1
        # step() pops exactly the heap head: the clock never jumps past it.
        assert env.now == due
    assert len(trace) == 5
    # Core start, process start, wake-up pick and switch timer, then one
    # quantum timer per burst: every completion went through the heap.
    assert steps == 4 + 5


def test_burst_ending_at_the_heap_head_is_pushed_not_run_inline(env, cpu, switch):
    t = cpu.thread("t")
    d = 1e-3
    end = (0.0 + switch) + d
    trace = []
    dones = []
    # Queued before the burst even starts, at exactly its finish time: it
    # holds the smaller sequence number, so it must run before the burst
    # completes, not merely before the burst's waiters.
    tick = env.schedule_at(end)
    tick.callbacks.append(
        lambda _: trace.append((env.now, f"tick, done={dones[0].triggered}"))
    )

    def worker(env):
        dones.append(t.run(d))
        yield dones[0]
        trace.append((env.now, "t done"))

    env.process(worker(env))
    env.run()
    assert trace == [at(end, "tick, done=False"), at(end, "t done")]


def test_run_until_an_uncontended_done_stops_at_its_end(env, cpu, switch, calib):
    t = cpu.thread("t")
    d = 1e-3
    trace = []
    dones = []

    def worker(env):
        for label, length in (("first", d), ("second", 2 * d), ("third", d)):
            dones.append(t.run(length))
            yield dones[-1]
            trace.append((env.now, label))

    env.process(worker(env))
    env.run(until=0.0)  # start the worker: the first burst is submitted
    first_end = (0.0 + switch) + d
    second_end = first_end + 2 * d
    assert env.run(until=dones[0]) is None
    assert env.now == pytest.approx(first_end, rel=1e-12)
    # Nothing else is queued, so the second burst runs ahead; the run
    # still stops in its waiter slot, before the core's re-pick.
    assert env.run(until=dones[1]) is None
    assert env.now == pytest.approx(second_end, rel=1e-12)
    assert trace == [at(first_end, "first"), at(second_end, "second")]
    assert cpu.counters.bursts == 3
    assert cpu.counters.busy_user == pytest.approx(3 * d, rel=1e-12)
    env.run()
    assert trace[-1] == at(second_end + d, "third")
    assert cpu.counters.context_switches == 1


def _close_mid_spin(close_at):
    """SingleT-Async spinning a 100 KB response until its client leaves."""
    env = Environment()
    calib = default_calibration()
    cpu = CPU(env, calib)
    server = SingleThreadedServer(env, cpu)
    conn = Connection(env, Link.lan(calib), calib)
    aborted = []
    abort_connection = server._abort_connection

    def record_abort(connection):
        # The core that ran the failing write has not re-picked yet when
        # the error reaches the server in that burst's waiter slot.
        aborted.append((env.now, cpu.runnable_count))
        abort_connection(connection)

    server._abort_connection = record_abort
    server.attach(conn)
    conn.send_request(Request(env, "x", 100 * 1024))

    def client(env):
        yield env.timeout(close_at)
        conn.close()

    env.process(client(env))
    env.run(until=0.01)
    return aborted, server.stats.requests_aborted, conn.stats.write_calls


# The abort times below were recorded with the generator-driven spin loop
# that the callback writer replaced.
@pytest.mark.parametrize(
    "close_at, aborted_at, write_calls",
    [
        # Parked on a full buffer: the close wakes the writer at once.
        (1.652e-3, (1.652e-3, 0), 2),
        # A write burst is on the CPU: the error surfaces when it ends.
        (1.708e-3, (0.0017128317766166717, 1), 3),
    ],
)
def test_close_mid_spin_reaches_the_server_at_the_same_time(close_at, aborted_at, write_calls):
    aborted, aborts, writes = _close_mid_spin(close_at)
    assert aborted == [(pytest.approx(aborted_at[0], rel=1e-12), aborted_at[1])]
    assert aborts == 1
    assert writes == write_calls
