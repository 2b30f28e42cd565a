"""Spin-writer trains: where the in-place write → burst → write loop stops.

A spin writer whose bursts would each be the next event popped runs its
writes as one loop, without the heap, and commits its counters when the
loop leaves.  It must leave at the first instant anything could observe
it.  One test per exit pins what an observer sees there to values
recorded with the per-write path (one heap-driven callback per write):

* an event at the heap head in the middle of a spin, and one at the
  very instant a burst ends;
* ``run(until=t)`` stopping in the middle of a spin;
* another thread's burst queued on the CPU (sTomcat-Async, 1 and 2
  cores, and a contender under a 20 µs slice that trains exhaust);
* a second core idling, which every submitted burst would wake;
* a request tracer, which must see every per-write mark;
* fault hooks on the connection;
* a close in the middle of a spin;
* the connection leaving the flow-level fast path.

The run-end conservation audit (:mod:`tests.conservation`) runs over every
server that spins, on one and two cores and with a 20 µs time slice.

Everything here is marked ``tcpfast``: with ``REPRO_TCP_FASTPATH=0`` the
same expectations must hold on the per-segment TCP path.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU
from repro.experiments.micro import MicroConfig, make_server
from repro.metrics.tracing import RequestTracer
from repro.net.link import Link
from repro.net.messages import Request
from repro.net.tcp import Connection, fastpath_enabled
from repro.servers.singlet import SingleThreadedServer
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams
from repro.workload.mixes import FixedMix
from repro.workload.population import build_population
from tests.conservation import audit_connections, audit_cpu

pytestmark = pytest.mark.tcpfast

LARGE = 100 * 1024

#: The servers that write responses with ``naive_spin_write``.
SPIN_SERVERS = ("SingleT-Async", "sTomcat-Async", "sTomcat-Async-Fix", "Staged-SEDA")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def _model(server, clients, **calibration):
    """``run_micro``'s model of ``server`` and its clients, left open."""
    calib = dataclasses.replace(DEFAULT_CALIBRATION, **calibration)
    env = Environment()
    cpu = CPU(env, calib)
    config = MicroConfig(server, clients, response_size=LARGE, calibration=calib)
    srv = make_server(server, env, cpu, config)
    population = build_population(
        env,
        srv,
        size=clients,
        mix=FixedMix(LARGE),
        link=Link.lan(calib),
        calibration=calib,
        seeds=SeedStreams(1),
        ramp_up=0.02,
    )
    return env, cpu, srv, population.connections


def _state(env, cpu, server, connections):
    """Everything the model counts; kernel events are left out."""
    c = cpu.counters
    return (
        env.now,
        c.bursts,
        c.syscalls,
        c.busy_user,
        c.busy_system,
        c.context_switches,
        c.voluntary_switches,
        c.involuntary_switches,
        server.stats.requests_completed,
        server.stats.responses_written,
        [
            (s.write_calls, s.zero_writes, s.bytes_written, s.bytes_delivered, s.acks_received)
            for s in (conn.stats for conn in connections)
        ],
    )


def _one_spin(tracer=False, faults=None):
    """SingleT-Async on one core writing one 100 KB response."""
    env = Environment()
    calib = DEFAULT_CALIBRATION
    cpu = CPU(env, calib)
    server = SingleThreadedServer(env, cpu)
    if tracer:
        server.tracer = RequestTracer(env)
    conn = Connection(env, Link.lan(calib), calib, faults=faults)
    server.attach(conn)
    request = Request(env, "x", LARGE)
    conn.send_request(request)
    return env, cpu, server, conn, request


# The write-spin of _one_spin runs from 1.5408 ms (the response is
# computed) to 2.5719 ms (the last byte is in the buffer), ~12 µs a write.
SPIN_START = 1.5408e-3


def test_train_stops_at_the_heap_head():
    env, cpu, _server, conn, request = _one_spin()
    seen = []

    def look(_event):
        c = cpu.counters
        s = conn.stats  # brings the lazy TCP plan up to now
        seen.append(
            (
                env.now,
                s.write_calls,
                s.zero_writes,
                s.bytes_written,
                request.write_calls,
                request.zero_writes,
                c.bursts,
                c.syscalls,
                c.busy_user + c.busy_system,
                conn.buffer.used,
                s.bytes_delivered,
                s.acks_received,
            )
        )

    # Observers dropped into the spin at instants no write lands on.
    for k in range(40):
        env.schedule_at(SPIN_START + k * 27.7e-6).callbacks.append(look)
    env.run(until=0.01)
    assert len(seen) == 40
    assert seen[20][1:8] == (38, 8, 56392, 38, 8, 41, 39)
    assert _digest(seen) == "682ee1363c5dd453"
    assert (request.write_calls, request.zero_writes) == (85, 21)
    assert request.completed_at == pytest.approx(0.002646555776616672, rel=1e-12)


def test_train_stops_before_an_event_at_its_burst_end():
    env, _cpu, server, _conn, request = _one_spin(tracer=True)
    env.run(until=0.01)
    times = [e.time for e in server.tracer.trace(request).events if e.name == "write"]
    env, _cpu, _server, _conn, request = _one_spin()
    seen = []
    # Each write lands exactly where the previous burst (or a wait) ends.
    # An event queued for that instant long before holds the smaller
    # sequence number, so it runs before the write: strictly before the
    # heap head is the only place a burst may end in place.
    for t in times:
        env.schedule_at(t).callbacks.append(lambda _e: seen.append(request.write_calls))
    env.run(until=0.01)
    assert len(times) == request.write_calls == 85
    assert seen == list(range(85))


def _sliced(slices):
    env, cpu, server, connections = _model("SingleT-Async", 8)
    until = 0.05
    for k in range(1, slices + 1):
        stop = until * k / slices
        env.run(until=stop)
        # No train runs past the stop time of the run it is in.
        assert env.now == stop
    return _state(env, cpu, server, connections), env.events_processed


def test_run_until_in_mid_train_equals_one_unsliced_run():
    one = _sliced(1)
    # Slice ends fall inside spins: each train must stop there, and the
    # burst it leaves for the heap must not change the event count.
    assert _sliced(32) == one
    assert _digest(one[0]) == "1fb3c71cb774beab"


@pytest.mark.parametrize(
    "cores, expected",
    [(1, "6e52d559a4619e9b"), (2, "0a298998c1964bbe")],
)
def test_train_stops_for_another_threads_queued_burst(cores, expected):
    # sTomcat-Async: the reactor thread hands requests to workers while
    # a worker spins, so the spinning thread meets queued bursts.
    env, cpu, server, connections = _model("sTomcat-Async", 24, cores=cores)
    env.run(until=0.03)
    state = _state(env, cpu, server, connections)
    assert state[5] > 0  # context switches: the threads did contend
    assert _digest(state) == expected


def _contend_with_short_slices(at):
    """The spin of _one_spin under a 20 µs slice; another thread's 30 µs
    burst arrives at ``at``, where in-place bursts have used up the
    spinning thread's slice many times over."""
    env = Environment()
    calib = dataclasses.replace(DEFAULT_CALIBRATION, time_slice=20e-6)
    cpu = CPU(env, calib)
    server = SingleThreadedServer(env, cpu)
    conn = Connection(env, Link.lan(calib), calib)
    server.attach(conn)
    request = Request(env, "x", LARGE)
    conn.send_request(request)
    other = cpu.thread("other")
    trace = []

    def contender(env):
        yield env.timeout(at)
        trace.append((env.now, request.write_calls))
        yield other.run(30e-6)
        trace.append((env.now, request.write_calls))

    env.process(contender(env))
    env.run(until=0.01)
    c = cpu.counters
    return trace, request.write_calls, request.completed_at, c.voluntary_switches, c.involuntary_switches


@pytest.mark.parametrize(
    "at, expected",
    [
        (1.9e-3, ([(1.9e-3, 19), (0.001963574780855877, 21)], 84, 0.0026583764461094762, 3, 2)),
        (2.2e-3, ([(2.2e-3, 47), (0.002265950780855877, 49)], 77, 0.0026671924461094754, 3, 2)),
    ],
)
def test_train_leaves_the_slice_a_per_write_spin_would(at, expected):
    # The core's re-pick keeps the spinning thread while its slice lasts
    # and refreshes an exhausted one; a train must do the same, or the
    # contender's burst takes the core at a different write.
    assert _contend_with_short_slices(at) == expected


def test_train_stops_where_a_burst_would_wake_an_idle_core():
    # On two cores the second core idles; every burst the spin submits
    # wakes it with a pick timer that finds nothing to run.  The model's
    # outcome is the same either way, but those timers are kernel events
    # (perfbench counts them per request), so no burst runs in place.
    env = Environment()
    calib = dataclasses.replace(DEFAULT_CALIBRATION, cores=2)
    cpu = CPU(env, calib)
    server = SingleThreadedServer(env, cpu)
    conn = Connection(env, Link.lan(calib), calib)
    server.attach(conn)
    request = Request(env, "x", LARGE)
    conn.send_request(request)
    env.run(until=0.01)
    assert (request.write_calls, cpu.counters.bursts) == (85, 88)
    assert request.completed_at == pytest.approx(0.002646555776616672, rel=1e-12)
    # Per-segment delivery and ACK timers add kernel events off the
    # flow-level fast path (REPRO_TCP_FASTPATH=0).
    assert env.events_processed == (186 if fastpath_enabled() else 335)


def test_traced_spin_marks_every_write():
    env, _cpu, server, _conn, request = _one_spin(tracer=True)
    env.run(until=0.01)
    events = [(e.time, e.name, e.detail) for e in server.tracer.trace(request).events]
    writes = [e for e in events if e[1] == "write"]
    assert len(writes) == request.write_calls == 85
    assert sum(1 for e in writes if e[2] == "0B") == request.zero_writes == 21
    assert writes[0][2] == "16384B"
    assert _digest(events) == "683068995a069f22"


class _SlowSegments:
    """Duck-typed connection fault hooks: every 7th segment is late."""

    def __init__(self):
        self.chunks = 0

    def chunk_delay(self, nbytes):
        self.chunks += 1
        return 150e-6 if self.chunks % 7 == 0 else 0.0

    def on_request_arrival(self):
        return False

    def on_bytes_delivered(self, nbytes):
        return False


def test_faulted_connection_spins_on_the_segment_path():
    env, cpu, _server, conn, request = _one_spin(faults=_SlowSegments())
    env.run(until=0.01)
    assert (request.write_calls, request.zero_writes) == (95, 34)
    assert request.completed_at == pytest.approx(0.002895727776616671, rel=1e-12)
    assert _digest(_state(env, cpu, _server, [conn])) == "3650c3ade9944e14"


def _close_in_train(close_at):
    env, cpu, server, conn, request = _one_spin()
    aborted = []
    abort_connection = server._abort_connection

    def record_abort(connection):
        aborted.append((env.now, cpu.runnable_count))
        abort_connection(connection)

    server._abort_connection = record_abort

    def close(_event):
        conn.close()

    env.schedule_at(close_at).callbacks.append(close)
    env.run(until=0.01)
    return aborted, request.write_calls, cpu.counters.bursts


# Close instants inside runs of back-to-back writes, each pinned to the
# abort time, the write count and the CPU burst count.
@pytest.mark.parametrize(
    "close_at, expected",
    [
        (1.7100e-3, ([(0.0017128317766166717, 1)], 3, 6)),
        (1.9500e-3, ([(0.0019512037766166715, 1)], 24, 27)),
        (2.3000e-3, ([(0.0023071637766166734, 1)], 58, 61)),
        (2.5000e-3, ([(0.0025015397766166734, 0)], 78, 81)),
    ],
)
def test_close_in_mid_train(close_at, expected):
    aborted, writes, bursts = _close_in_train(close_at)
    assert (aborted, writes, bursts) == expected


def test_train_stops_when_the_connection_leaves_the_fast_path():
    env, cpu, server, conn, request = _one_spin()

    def leave(_event):
        if conn._fp_active:
            # What a write with no open transfer does: apply what is due,
            # then turn the rest of the plan into per-segment events.
            conn._fp_advance()
            conn._fp_materialize()

    env.schedule_at(SPIN_START + 0.3e-3).callbacks.append(leave)
    env.run(until=0.01)
    assert not conn._fp_active
    assert (request.write_calls, request.zero_writes) == (85, 21)
    assert request.completed_at == pytest.approx(0.002646555776616672, rel=1e-12)
    assert _digest(_state(env, cpu, server, [conn])) == "a9a72824aa5605b5"


_AUDIT_SETUPS = {"1c": {}, "2c": {"cores": 2}, "20us": {"time_slice": 20e-6}}


@pytest.fixture(scope="module")
def audited_runs():
    """Every spin server in every audit setup, run for 0.3 s."""
    runs = {}
    for server in SPIN_SERVERS:
        for setup, calibration in _AUDIT_SETUPS.items():
            env, cpu, srv, connections = _model(server, 24, **calibration)
            env.run(until=0.3)
            runs[server, setup] = (env, cpu, srv, connections)
    return runs


@pytest.mark.parametrize("setup", sorted(_AUDIT_SETUPS))
@pytest.mark.parametrize("server", SPIN_SERVERS)
def test_run_end_connection_conservation(audited_runs, server, setup):
    _env, _cpu, srv, connections = audited_runs[server, setup]
    assert srv.stats.responses_written > 0
    assert audit_connections(connections) == []


@pytest.mark.parametrize("setup", sorted(_AUDIT_SETUPS))
@pytest.mark.parametrize("server", SPIN_SERVERS)
def test_run_end_cpu_law(audited_runs, server, setup):
    env, cpu, _srv, _connections = audited_runs[server, setup]
    assert audit_cpu(env, cpu) == []
