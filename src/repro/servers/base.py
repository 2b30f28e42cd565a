"""Common machinery shared by all simulated server architectures.

A *server* in this package is a software architecture running on a
simulated :class:`~repro.cpu.scheduler.CPU` and serving requests arriving
over :class:`~repro.net.tcp.Connection` objects.  Concrete subclasses model
the architectures the paper studies:

=====================  ======================================  ===========
Class                  Paper name                              Switch/req
=====================  ======================================  ===========
ThreadedServer         sTomcat-Sync (Tomcat 7 connector)       0 (user)
ReactorServer          sTomcat-Async (Tomcat 8 connector)      4
ReactorFixServer       sTomcat-Async-Fix                       2
SingleThreadedServer   SingleT-Async                           0
NettyServer            NettyServer (Netty v4 style)            ~0
HybridServer           HybridNetty (the paper's contribution)  ~0
=====================  ======================================  ===========

The *application* that computes responses is pluggable (see
:class:`Application`) so the same architectures serve both the
micro-benchmarks (fixed-size in-memory responses) and the RUBBoS n-tier
macro-benchmark (Tomcat tier calling a MySQL tier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.scheduler import CPU, SimThread
from repro.errors import ConnectionClosedError, ServerError
from repro.net.messages import Request
from repro.net.tcp import Connection
from repro.resilience.admission import AdaptiveLimiter
from repro.resilience.policy import AdmissionConfig
from repro.sim.core import Environment, Event, ReusableEvent

__all__ = [
    "Application",
    "ComputeApplication",
    "BaseServer",
    "ServerLimits",
    "ServerStats",
    "naive_spin_write",
]


class Application:
    """Business logic run by a server for each request.

    Subclasses override :meth:`service`, a generator that yields simulation
    events (CPU bursts, downstream I/O) and returns the response size in
    bytes.  The *thread* argument is the server thread the work is charged
    to; blocking inside ``service`` blocks that thread (which is precisely
    the architectural property the paper studies).
    """

    def service(
        self, server: "BaseServer", thread: SimThread, request: Request
    ) -> Generator[object, object, int]:
        """Process ``request``; returns the response size in bytes."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator function


class ComputeApplication(Application):
    """Pure in-memory computation, as in the paper's micro-benchmarks.

    The server performs "some simple computation before responding with
    0.1 KB / 10 KB / 100 KB of in-memory data"; the CPU demand scales with
    the response size (content generation cost).
    """

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration

    def service(self, server, thread, request):
        yield thread.run(self.calibration.request_cpu_cost(request.response_size))
        return request.response_size


@dataclass(frozen=True)
class ServerLimits:
    """Graceful-degradation knobs for a server under overload.

    ``None`` for a knob means unlimited (the historical behaviour).  When
    ``max_inflight`` is exceeded the server *sheds load*: instead of
    running the application it immediately writes a tiny
    ``rejection_size``-byte error response (think HTTP 503), which the
    client-side retry policy can recognise and back off from.
    """

    #: Maximum requests allowed in service concurrently; extra requests
    #: receive a rejection response instead of being processed.
    max_inflight: Optional[int] = None
    #: Maximum attached connections; further connects are refused (closed).
    max_connections: Optional[int] = None
    #: Size in bytes of the rejection response written to shed requests.
    rejection_size: int = 128
    #: Adaptive (AIMD) admission control: when set, the admission gate
    #: uses a latency-discovered concurrency limit instead of the static
    #: ``max_inflight`` (see :mod:`repro.resilience.admission`).
    adaptive: Optional[AdmissionConfig] = None

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServerError(f"max_inflight must be >= 1, got {self.max_inflight!r}")
        if self.max_connections is not None and self.max_connections < 1:
            raise ServerError(
                f"max_connections must be >= 1, got {self.max_connections!r}"
            )
        if self.rejection_size < 1:
            raise ServerError(f"rejection_size must be >= 1, got {self.rejection_size!r}")


class ServerStats:
    """Aggregate counters maintained by every server."""

    __slots__ = (
        "requests_started",
        "requests_completed",
        "responses_written",
        "spin_jumpouts",
        "reclassifications",
        "requests_rejected",
        "requests_aborted",
        "requests_expired",
        "connections_refused",
    )

    def __init__(self) -> None:
        self.requests_started = 0
        self.requests_completed = 0
        self.responses_written = 0
        #: Times a bounded (Netty-style) write loop gave up and deferred.
        self.spin_jumpouts = 0
        #: Times the hybrid classifier moved a request type between paths.
        self.reclassifications = 0
        #: Requests shed with a rejection response (ServerLimits.max_inflight).
        self.requests_rejected = 0
        #: Requests abandoned mid-service because their connection closed.
        self.requests_aborted = 0
        #: Requests refused because their propagated deadline had already
        #: passed on arrival (cheap rejection instead of doomed service).
        self.requests_expired = 0
        #: Connections refused at attach (ServerLimits.max_connections).
        self.connections_refused = 0


class BaseServer:
    """Base class: connection registry plus shared read/write helpers."""

    #: Architecture label used in reports; subclasses override.
    architecture = "base"

    def __init__(
        self,
        env: Environment,
        cpu: CPU,
        app: Optional[Application] = None,
        calibration: Optional[Calibration] = None,
        name: str = "",
        limits: Optional[ServerLimits] = None,
    ):
        self.env = env
        self.cpu = cpu
        self.calibration = calibration or cpu.calibration
        self.app = app or ComputeApplication(self.calibration)
        self.name = name or self.architecture
        self.connections: List[Connection] = []
        #: The same connections as a set, for the double-attach check
        #: (``connections`` is only ever appended to).
        self._attached: Set[Connection] = set()
        self.stats = ServerStats()
        #: Optional :class:`~repro.metrics.tracing.RequestTracer`; when
        #: set, the server marks request-lifecycle milestones on it.
        self.tracer = None
        #: AIMD limiter backing ``ServerLimits.adaptive`` (None otherwise);
        #: created by the ``limits`` setter so post-construction assignment
        #: (run_micro's pattern) arms it too.
        self._limiter: Optional[AdaptiveLimiter] = None
        #: Optional :class:`ServerLimits`; ``None`` disables shedding.
        self.limits = limits
        #: Requests currently admitted into application service.
        self._inflight = 0
        #: True while a crash window holds this instance down: new
        #: connection attempts are refused (closed immediately, like a
        #: connection reset against a dead port).  Only the crash–restart
        #: fault machinery flips this; the default path just reads one
        #: attribute per attach.
        self.down = False
        #: Most recent request being served per connection, for abort
        #: accounting when a connection dies mid-request.
        self._active: Dict[Connection, Request] = {}

    @property
    def limits(self) -> Optional[ServerLimits]:
        """Active :class:`ServerLimits` (``None`` disables shedding)."""
        return self._limits

    @limits.setter
    def limits(self, value: Optional[ServerLimits]) -> None:
        self._limits = value
        if value is not None and value.adaptive is not None:
            self._limiter = AdaptiveLimiter(self.env, value.adaptive)
        else:
            self._limiter = None

    @property
    def limiter(self) -> Optional[AdaptiveLimiter]:
        """The adaptive admission limiter, when one is configured."""
        return self._limiter

    def _trace(self, request: Request, milestone: str, detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.mark(request, milestone, detail)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def attach(self, connection: Connection) -> None:
        """Accept an established connection and start serving it.

        When :class:`ServerLimits` caps ``max_connections`` and the cap is
        reached, the connection is *refused*: closed immediately (the
        client observes the close) and counted, not raised — refusal is an
        expected overload outcome, not a programming error.
        """
        if connection in self._attached:
            raise ServerError("connection already attached")
        if self.down:
            # Crashed instance: nothing is listening, the SYN is answered
            # with a reset.  Counted as a refusal like the cap path below.
            self.stats.connections_refused += 1
            connection.close()
            return
        if (
            self.limits is not None
            and self.limits.max_connections is not None
            and len(self.connections) >= self.limits.max_connections
        ):
            self.stats.connections_refused += 1
            connection.close()
            return
        self.connections.append(connection)
        self._attached.add(connection)
        self._on_attach(connection)

    def _on_attach(self, connection: Connection) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared request-handling steps
    # ------------------------------------------------------------------
    def _read_request(self, thread: SimThread, connection: Connection):
        """Read + parse one pending request; charged to ``thread``.

        Generator; returns the request (or ``None`` if inbox was empty).
        """
        request = connection.read_request()
        if request is None:
            return None
        yield thread.syscall(
            bytes_copied=request.request_size,
            extra_kernel=self.calibration.tx_kernel_cost(request.request_size),
        )
        request.service_started_at = self.env.now
        self.stats.requests_started += 1
        self._active[connection] = request
        self._trace(request, "read", thread.name)
        return request

    def _write_costs(self, written: int) -> Tuple[float, float]:
        """``(user, system)`` CPU cost of one non-blocking ``socket.write()``.

        User side: syscall crossing plus JVM NIO bookkeeping.  Kernel
        side: syscall entry, user→kernel copy, and the TX path for the
        segments produced.
        """
        calib = self.calibration
        return (
            calib.syscall_user_cost + calib.nio_write_user_cost,
            calib.syscall_kernel_cost
            + calib.copy_cost_per_byte * written
            + calib.tx_kernel_cost(written),
        )

    def _charge_write(
        self,
        thread: SimThread,
        written: int,
        done: Optional[Event] = None,
        at_tail: bool = False,
    ):
        """Charge one non-blocking ``socket.write()`` call to ``thread``.

        Counts the syscall and submits its burst (:meth:`_write_costs`);
        returns the burst-completion event.  ``done`` and ``at_tail`` pass
        through to :meth:`SimThread.run_split`.
        """
        self.cpu.counters.syscalls += 1
        user, system = self._write_costs(written)
        return thread.run_split(user, system, done=done, at_tail=at_tail)

    def _admit(self, request: Request) -> Optional[int]:
        """Load-shedding gate: ``None`` admits, else the rejection size.

        Order matters: an *expired* deadline is refused first (even on an
        otherwise unlimited server — the cheap-rejection contract of
        deadline propagation), then the concurrency cap is enforced
        (static ``max_inflight`` or the adaptive limiter's current
        estimate).  With neither a deadline nor limits configured this
        performs no metadata writes and no counter updates, keeping the
        default path untouched.
        """
        limits = self._limits
        if request.deadline is not None and self.env.now >= request.deadline:
            self.stats.requests_expired += 1
            request.metadata["rejected"] = True
            request.metadata["expired"] = True
            self._trace(request, "expired")
            return limits.rejection_size if limits is not None else 128
        if limits is None:
            return None
        if self._limiter is not None:
            cap: Optional[int] = self._limiter.limit
        else:
            cap = limits.max_inflight
        if cap is None:
            return None
        if self._inflight >= cap:
            self.stats.requests_rejected += 1
            request.metadata["rejected"] = True
            self._trace(request, "rejected")
            return limits.rejection_size
        self._inflight += 1
        request.metadata["admitted"] = True
        return None

    def _service(self, thread: SimThread, request: Request):
        """Run the application logic; returns the response size.

        Under :class:`ServerLimits` the request first passes the admission
        gate; a shed request skips the application entirely and gets the
        small rejection response instead.
        """
        rejection_size = self._admit(request)
        if rejection_size is not None:
            self._trace(request, "computed", thread.name)
            return rejection_size
        response_size = yield from self.app.service(self, thread, request)
        if response_size is None:
            response_size = request.response_size
        self._trace(request, "computed", thread.name)
        return response_size

    def _finish(self, request: Request) -> None:
        if request.metadata.pop("admitted", None):
            self._inflight = max(0, self._inflight - 1)
            if self._limiter is not None and request.service_started_at is not None:
                self._limiter.on_complete(self.env.now - request.service_started_at)
        self.stats.requests_completed += 1
        self._trace(request, "response-written")

    def _abort(self, request: Optional[Request]) -> None:
        """Account for a request abandoned because its connection died.

        Releases the admission slot (if the request held one) and counts
        the abort — unless the response actually reached the client before
        the close, in which case nothing was lost.
        """
        if request is None:
            return
        admitted = request.metadata.pop("admitted", None)
        if admitted:
            self._inflight = max(0, self._inflight - 1)
        if request.completed_at is not None:
            return
        if admitted and self._limiter is not None:
            self._limiter.on_failure()
        self.stats.requests_aborted += 1
        request.metadata["aborted"] = True
        self._trace(request, "aborted")

    def _abort_connection(self, connection: Connection) -> None:
        """Per-connection cleanup when a close interrupts service.

        Servers call this from their ``ConnectionClosedError`` handlers so
        a mid-request disconnect is accounted as an abort instead of
        silently vanishing (extends the PR-1 accounting fix).
        """
        self._abort(self._active.pop(connection, None))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} conns={len(self.connections)}>"


def naive_spin_write(
    server: BaseServer,
    thread: SimThread,
    connection: Connection,
    request: Request,
    response_size: int,
) -> Generator[object, object, None]:
    """The naive asynchronous write path (the write-spin of Section IV).

    The handler runs the response to completion before returning to the
    event loop: it calls non-blocking ``write`` in a loop, and when the
    send buffer is full it waits for writability *of this one connection*
    — exactly the behaviour that (a) issues ~``response/ACK-granularity``
    syscalls for large responses and (b) occupies the handling thread for
    the whole wait-ACK drain, serialising the single-threaded server when
    network latency is non-zero (Figure 7).

    The loop always retries after a successful partial write and only
    waits once it observes a zero return, so both the non-zero and the
    zero ("spin") writes of the paper's Table IV occur.  The spin count
    is a digest-pinned observable (it *is* Table IV): the simulator may
    thin the kernel's event stream beneath this loop, never the loop's
    own syscall pattern.

    A response that fits the send buffer costs one write and one burst,
    waited on here.  A larger one is handed to :class:`_SpinWriter`, which
    issues every further write from callbacks, most of them in trains
    that run write → burst → write in one loop; this generator resumes
    once, when the last burst completes (or the connection closes).
    """
    transfer = connection.open_transfer(response_size, request)
    if response_size > 0:
        written = connection.try_write(response_size, request)
        if server.tracer is not None:
            server._trace(request, "write", f"{written}B")
        if written == response_size:
            yield server._charge_write(thread, written)
        else:
            yield _SpinWriter(server, thread, connection, request, response_size, written).done
    server.stats.responses_written += 1
    # The handler does NOT wait for delivery: once the last byte is in the
    # kernel buffer the handler returns; delivery completes asynchronously
    # and the transfer marks the request completed at the client.
    del transfer


class _SpinWriter:
    """The rest of one :func:`naive_spin_write` loop, as a callback machine.

    Issues the same writes, traces and CPU bursts, at the same instants
    and in the same order, as the generator loop it stands in for, but
    without a generator resume per write.  Each call of :meth:`_spin`
    runs a *train*: write, burst, write, ... in one loop, for as long as
    each burst can run in place (:meth:`~repro.cpu.scheduler._Core.run_in_place`:
    the core that just finished the writer's burst would take the next one
    at once, alone, and its end would be the next event of the active
    run).  The train leaves at the first instant something could observe
    it: the heap head or the run's stop time, another thread's queued
    burst or an idle core (all three checked by the core).  It does not
    run at all with a request tracer, or on a connection that closed or
    is off the flow-level fast path (fault hooks keep a connection off it
    from birth), which keeps the per-write path as the reference there.
    On leaving, it commits its write and burst counters in one step and
    hands over to the callback states below, the same ones a write takes
    outside a train:

    * a burst the CPU runs completes ``step``, whose only waiter is
      :meth:`_burst_done`; the CPU delivers it in the finished burst's
      waiter slot (:meth:`Environment.succeed_then`), where the next
      train starts;
    * the last burst completes ``done``, the event the server's generator
      waits on, so the generator resumes in that same slot;
    * a zero write whose wait is not yet satisfied parks on the
      connection and resumes in :meth:`_wake`;
    * a write on a closed connection fails ``done`` in place
      (:meth:`Environment.fail_now`), where the generator would have
      raised :class:`ConnectionClosedError`.

    Two same-instant hops are skipped where nothing could observe them:
    after a zero write, a wait that is already satisfied (the connection
    is open, the buffer has space, nothing is due now and no other burst
    is queued on the CPU, whose re-pick must take it first) continues in
    place; and a wake-up, the tail of its dispatch, lets an idle core
    pick the next burst inline (``at_tail``).
    """

    __slots__ = (
        "server",
        "thread",
        "connection",
        "request",
        "remaining",
        "written",
        "done",
        "step",
        "burst_done_cb",
        "wake_cb",
    )

    def __init__(
        self,
        server: BaseServer,
        thread: SimThread,
        connection: Connection,
        request: Request,
        response_size: int,
        written: int,
    ):
        env = server.env
        self.server = server
        self.thread = thread
        self.connection = connection
        self.request = request
        self.remaining = response_size - written
        self.written = written
        self.done = Event(env)
        self.step = ReusableEvent(env)
        self.burst_done_cb = self._burst_done
        self.wake_cb = self._wake
        self._submit(False)

    def _submit(self, at_tail: bool) -> None:
        """Hand the burst of the latest write to the CPU."""
        if self.remaining:
            done = self.step.rearm()
            done.callbacks.append(self.burst_done_cb)
        else:
            done = self.done
        self.server._charge_write(self.thread, self.written, done, at_tail)

    def _burst_done(self, _event: Event) -> None:
        self._spin(False)

    def _wake(self, _event: Event) -> None:
        self._spin(True)

    def _spin(self, woken: bool) -> None:
        """Run one train: write until a write must wait or go to the CPU.

        Called in the waiter slot of the burst that just finished, or by
        the wake-up that ends a wait (``woken``).  The loop body is the
        one per-write step: the same code issues a write inside a train
        and the write that leaves it.
        """
        server = self.server
        connection = self.connection
        thread = self.thread
        request = self.request
        remaining = self.remaining
        written = self.written
        calls = zero_writes = nbytes = in_place = 0
        # A wake-up ends a wait; a finished zero write may still need one.
        check_wait = not woken
        at_tail = woken
        closed = wait = False
        while True:
            if check_wait and written == 0:
                env = server.env
                if (
                    connection.closed
                    or not connection.writable
                    or thread.cpu._queued
                    or env.due_by(env._now)
                ):
                    wait = True
                    break
            check_wait = True
            if connection.closed:
                closed = True
                break
            written = connection.copy_in(remaining)
            calls += 1
            if written:
                nbytes += written
                remaining -= written
            else:
                zero_writes += 1
            if server.tracer is not None:
                server._trace(request, "write", f"{written}B")
            elif remaining and connection._fp_active:
                core = thread.core
                if core is not None and core.run_in_place(
                    thread, *server._write_costs(written)
                ):
                    in_place += 1
                    at_tail = False
                    continue
            break
        self.remaining = remaining
        self.written = written
        if calls:
            connection.count_writes(request, calls, zero_writes, nbytes)
        if in_place:
            counters = thread.cpu.counters
            counters.bursts += in_place
            counters.syscalls += in_place
        if wait:
            connection.wait_writable().callbacks.append(self.wake_cb)
        elif closed:
            server.env.fail_now(
                self.done, ConnectionClosedError(f"connection #{connection.id} is closed")
            )
        else:
            self._submit(at_tail)
        if woken and in_place:
            # The first in-place burst took the idle core: make the
            # re-pick its _finish would have made after this waiter slot.
            thread.core.end_in_place()
