"""Multi-core CPU scheduler with context-switch accounting.

This is the substrate on which every simulated server runs.  Threads submit
CPU *bursts*; the scheduler runs bursts over ``cores`` cores with CFS-like
semantics:

* a thread **keeps its core** across consecutive bursts until it blocks
  (no runnable burst of its own at pick time) or its time slice expires —
  so a synchronous worker thread that reads, computes and writes in
  sequence does it all in one scheduling quantum, like a real kernel
  thread;
* a context switch is charged whenever a core starts running a *different*
  thread, with a cost that grows with the runnable-thread count (cache/TLB
  pollution, after Li et al. 2007);
* user-space work is inflated by a cache-footprint factor that grows with
  the number of live threads — why thread-per-connection servers degrade
  at very high concurrency (the right-hand side of the paper's Figure 2
  crossovers);
* every microsecond is charged to user or system time, and voluntary vs
  involuntary switches are counted separately (collectl's view).

Because the reactor→worker dispatches of the asynchronous Tomcat
architecture are modelled as real thread handoffs, the paper's Table II
(4 / 2 / 0 / 0 user-space switches per request) *emerges* from this
scheduler rather than being hard-coded.

Each core is a callback state machine driven by pooled timers, not a
generator process.  A burst whose completion is the only thing due at its
instant costs at most one heap event, its quantum timer: the ``done``
waiters and the core's re-pick run inline through
:meth:`Environment.succeed_then`, which falls back to queued delivery
whenever inline delivery could be observed.  When that timer would also
be the very next event popped (:meth:`Environment.schedule_unless_next`),
the core skips it and finishes the burst in place (see
``docs/architecture.md`` §2).  Under the same rule a callback writer runs
its next burst in place from the waiter slot, without submitting it at
all (:meth:`_Core.run_in_place`, the spin writer's trains, §4).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpu.accounting import CPUCounters, CPUSnapshot
from repro.errors import SimulationError
from repro.sim.core import PRIORITY_URGENT, Environment, Event

__all__ = ["CPU", "SimThread"]


class _Burst:
    """One submitted unit of CPU work (possibly sliced across quanta)."""

    __slots__ = ("thread", "remaining_user", "remaining_system", "done", "token")

    def __init__(self, thread: "SimThread", user: float, system: float, done: Event):
        self.thread = thread
        self.remaining_user = user
        self.remaining_system = system
        self.done = done
        #: Current ready-queue entry (a one-slot list, cleared on take so
        #: stale deque entries are skipped); ``None`` while not queued.
        self.token: Optional[list] = None


class _Core:
    """One core's dispatch state machine, driven by pooled timer callbacks.

    ``_pick`` chooses the next burst (or parks the core on the idle list),
    the optional switch-cost timer leads to ``_run_quantum``, and the
    quantum timer leads to ``_finish``, which either re-queues a preempted
    burst or completes it and re-picks at the same instant.

    Each of the three always runs as the last action of its dispatch, so
    the quantum timer ``_run_quantum`` is about to push is the next event
    popped exactly when :meth:`Environment.schedule_unless_next` finds it
    next in line and pushes nothing.  Then the core runs ahead instead:
    it moves the clock to the finish time and calls ``_finish`` itself,
    in the ``_run_ahead`` loop rather than by recursion, since finishing
    leads straight back to ``_run_quantum``.
    """

    __slots__ = (
        "cpu",
        "last_thread",
        "busy",
        "slice_left",
        "last_preempted",
        "burst",
        "pick_cb",
        "run_cb",
        "finish_cb",
        "ahead_at",
        "running_ahead",
        "charged_until",
        "repick_seq",
    )

    def __init__(self, cpu: "CPU", time_slice: float):
        self.cpu = cpu
        self.last_thread: Optional[SimThread] = None
        self.busy = False
        self.slice_left = time_slice
        self.last_preempted = False
        #: The burst this core is running (``None`` while idle).
        self.burst: Optional[_Burst] = None
        # One bound method each, reused for every timer (cf. Process._resume_cb).
        self.pick_cb = self._pick
        self.run_cb = self._run_quantum
        self.finish_cb = self._finish
        #: Finish time of the burst to complete in place (``None`` if none).
        self.ahead_at: Optional[float] = None
        #: True while ``_run_ahead`` is on the stack.
        self.running_ahead = False
        #: End of the switch or quantum whose CPU time is already charged.
        #: Time is charged when a switch or quantum starts, so while this
        #: lies after ``now`` the counters are ahead of the clock by the
        #: difference (the run-end CPU law reads it).
        self.charged_until = cpu.env.now
        #: Sequence reserved for the re-pick owed after in-place bursts
        #: that began on this core while it idled (:meth:`run_in_place`).
        self.repick_seq = 0

    def _pick(self, _event: Optional[Event]) -> None:
        cpu = self.cpu
        # Sticky: the last thread keeps its core while its time slice has
        # budget left and it has a queued burst — the behaviour of a kernel
        # thread that issues back-to-back work without blocking.
        thread = self.last_thread
        if thread is not None and thread.alive and self.slice_left > 0:
            burst = thread._pending
            if burst is not None and burst.token is not None:
                # Invalidate the ready-queue entry (lazy removal).
                burst.token[0] = None
                burst.token = None
                cpu._queued -= 1
                self.busy = True
                self.burst = burst
                self._run_quantum(None)
                return
        burst = cpu._pop_ready()
        if burst is None:
            self.busy = False
            cpu._idle_cores.append(self)
            return
        self.busy = True
        self.burst = burst
        calib = cpu.calibration
        if thread is not burst.thread:
            cost = calib.context_switch_cost(cpu.runnable_count)
            counters = cpu.counters
            counters.context_switches += 1
            if self.last_preempted:
                counters.involuntary_switches += 1
            else:
                counters.voluntary_switches += 1
            counters.switch_time += cost
            counters.busy_system += cost
            self.last_thread = burst.thread
            self.slice_left = calib.time_slice
            if cost > 0:
                env = cpu.env
                self.charged_until = env._now + cost
                env.pooled_timeout(cost).callbacks.append(self.run_cb)
                return
        else:
            # Same thread re-picked from the queue: fresh slice, no switch
            # cost.
            self.slice_left = calib.time_slice
        self._run_quantum(None)

    def _run_quantum(self, _event: Optional[Event]) -> None:
        """Run one quantum (to completion if nobody else is waiting)."""
        cpu = self.cpu
        burst = self.burst
        remaining_system = burst.remaining_system
        remaining_user = burst.remaining_user
        if cpu._queued > 0:
            quantum = min(
                remaining_user + remaining_system, self.slice_left, cpu.calibration.time_slice
            )
        else:
            quantum = remaining_user + remaining_system
        # Consume system work first, then user work (each part is the min
        # of what is left and what the quantum still covers).
        sys_part = quantum if quantum < remaining_system else remaining_system
        burst.remaining_system = remaining_system - sys_part
        user_quantum = quantum - sys_part
        user_part = user_quantum if user_quantum < remaining_user else remaining_user
        burst.remaining_user = remaining_user - user_part
        counters = cpu.counters
        counters.busy_user += user_part
        counters.busy_system += sys_part
        self.slice_left -= quantum
        env = cpu.env
        self.charged_until = env._now + quantum
        if quantum <= 0:
            self._finish(None)
            return
        fire_at = env.schedule_unless_next(quantum, self.finish_cb)
        if fire_at is not None:
            self.ahead_at = fire_at
            if not self.running_ahead:
                self._run_ahead()

    def _run_ahead(self) -> None:
        """Finish bursts in place while their timers would pop next."""
        env = self.cpu.env
        self.running_ahead = True
        try:
            while self.ahead_at is not None:
                env._now = self.ahead_at
                self.ahead_at = None
                self._finish(None)
        finally:
            self.running_ahead = False

    def _finish(self, _event: Optional[Event]) -> None:
        burst = self.burst
        self.burst = None
        if burst.remaining_user + burst.remaining_system > 1e-15:
            # Expired slice: the thread goes to the back of the queue and
            # loses its core.
            self.cpu._enqueue(burst)
            self.last_preempted = True
            self.slice_left = 0.0
            self._pick(None)
        else:
            thread = burst.thread
            thread._pending = None
            thread.core = self
            self.last_preempted = False
            # Waiters resume (and may resubmit) before this core re-picks,
            # so a thread that issues back-to-back bursts keeps the core
            # without a switch.
            self.cpu.env.succeed_then(burst.done, self.pick_cb)

    def run_in_place(self, thread: "SimThread", user: float, system: float) -> bool:
        """Run ``thread``'s next burst to its end now, without submitting it.

        For a callback writer at the tail of its dispatch: in the waiter
        slot of this core's ``_finish``, or in a wake-up while this core
        idles.  There, the burst ``thread.run_split(user, system)`` would
        submit is one this core takes at once, runs in one quantum and
        finishes in place, when no other burst is queued, no other core
        idles, this core last ran ``thread`` and is running nothing else,
        and the burst would end strictly before the heap head and no later
        than the active run's stop time (the run-ahead rule of
        :meth:`Environment.schedule_unless_next`).  Then this charges the
        burst's time as ``_submit``, ``_pick`` and ``_run_quantum`` would,
        with the same float expressions, moves the clock to its end and
        returns True; the caller counts the burst and its syscall.
        Otherwise it changes nothing and returns False, and the caller
        submits the burst.

        An idle core taken this way owes the re-pick its ``_finish`` would
        have made: the caller runs :meth:`end_in_place` once it has no
        more in-place bursts to run.
        """
        cpu = self.cpu
        idle = cpu._idle_cores
        # A closed thread is no core's last thread (_unregister_thread).
        if cpu._queued or self.burst is not None or self.last_thread is not thread:
            return False
        if self.busy:
            if idle:
                return False
        elif len(idle) != 1 or idle[0] is not self:
            return False
        user = user * cpu._footprint
        slowdown = cpu.slowdown
        if slowdown != 1.0:
            user *= slowdown
            system *= slowdown
        quantum = user + system
        env = cpu.env
        end = env._now + quantum
        queue = env._queue
        if quantum <= 0.0 or (queue and queue[0][0] <= end) or end > env._stop_time:
            return False
        sys_part = quantum if quantum < system else system
        user_quantum = quantum - sys_part
        user_part = user_quantum if user_quantum < user else user
        if (user - user_part) + (system - sys_part) > 1e-15:
            return False
        if not self.busy:
            idle.pop()
            self.busy = True
            # The sequence the burst's ``succeed_then`` would reserve.
            self.repick_seq = next(env._eid)
        counters = cpu.counters
        counters.busy_user += user_part
        counters.busy_system += sys_part
        # The re-pick: sticky while the slice lasts, else a fresh slice.
        slice_left = self.slice_left
        if not slice_left > 0:
            slice_left = cpu.calibration.time_slice
        self.slice_left = slice_left - quantum
        self.charged_until = end
        env._now = end
        return True

    def end_in_place(self) -> None:
        """Re-pick after in-place bursts that began on this idle core."""
        self.cpu.env._follow_up(self.repick_seq, self.pick_cb, None)


class SimThread:
    """A schedulable thread identity on a simulated :class:`CPU`.

    A thread may have at most one outstanding burst at a time (it is a
    thread, not a pool); submitting a second burst while one is pending is
    a modelling bug and raises :class:`SimulationError`.
    """

    _ids = 0

    def __init__(self, cpu: "CPU", name: str = ""):
        SimThread._ids += 1
        self.cpu = cpu
        self.name = name or f"thread-{SimThread._ids}"
        self.alive = True
        self._pending: Optional[_Burst] = None
        #: The core that completed this thread's latest burst.
        self.core: Optional[_Core] = None
        cpu._register_thread(self)

    # ------------------------------------------------------------------
    def run(self, duration: float, kind: str = "user") -> Event:
        """Submit a CPU burst; the returned event succeeds when it is done.

        ``kind`` is ``"user"`` or ``"system"``.
        """
        if kind == "user":
            return self.run_split(duration, 0.0)
        if kind == "system":
            return self.run_split(0.0, duration)
        raise ValueError(f"unknown burst kind {kind!r}")

    def run_split(
        self,
        user: float,
        system: float,
        *,
        done: Optional[Event] = None,
        at_tail: bool = False,
    ) -> Event:
        """Submit a burst with an explicit (user, system) time split.

        Callback-driven callers may pass ``done``, an untriggered event to
        complete instead of a fresh one, and ``at_tail=True`` when this
        call is the last action of the current dispatch: an idle core then
        picks the burst inline when its pick timer would pop next anyway.
        """
        if not self.alive:
            raise SimulationError(f"thread {self.name!r} is closed")
        if user < 0 or system < 0:
            raise ValueError("burst durations must be >= 0")
        if self._pending is not None:
            raise SimulationError(
                f"thread {self.name!r} already has an outstanding burst"
            )
        return self.cpu._submit(self, user, system, done, at_tail)

    def syscall(self, bytes_copied: int = 0, extra_kernel: float = 0.0) -> Event:
        """Execute one syscall: fixed user+kernel crossing cost plus a
        per-byte kernel copy cost.  Increments the syscall counter."""
        user, system = self.cpu.calibration.syscall_cost(bytes_copied)
        self.cpu.counters.syscalls += 1
        return self.run_split(user, system + extra_kernel)

    def close(self) -> None:
        """Mark the thread dead (removes it from the live-thread count)."""
        if self.alive:
            self.alive = False
            self.cpu._unregister_thread(self)

    def __repr__(self) -> str:
        return f"<SimThread {self.name!r} {'alive' if self.alive else 'closed'}>"


class CPU:
    """A multi-core CPU with sticky round-robin scheduling and accounting."""

    def __init__(
        self,
        env: Environment,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "cpu",
    ):
        self.env = env
        self.calibration = calibration
        self.name = name
        self.cores = calibration.cores
        self.counters = CPUCounters()
        self.live_threads = 0
        #: User-work multiplier for the current live-thread count (see
        #: :meth:`Calibration.thread_footprint_factor`), kept current by the
        #: thread registry instead of being recomputed per burst.
        self._footprint = calibration.thread_footprint_factor(0)
        #: Gray-failure hook: every submitted burst is stretched by this
        #: factor (1.0 = healthy).  Set by
        #: :class:`~repro.faults.plan.DegradeWindow` injection to model a
        #: slow-but-alive instance (thermal throttling, failing disk,
        #: memory pressure) whose work all takes longer while the node
        #: still answers health checks.
        self.slowdown = 1.0
        self._ready: Deque[_Burst] = deque()
        self._queued = 0
        self._cores: List[_Core] = [
            _Core(self, calibration.time_slice) for _ in range(self.cores)
        ]
        self._idle_cores: List[_Core] = []
        for core in self._cores:
            # Each core makes its first pick at an urgent start event, the
            # slot a newly started process would take.
            start = env.pooled_schedule_at(env.now, priority=PRIORITY_URGENT)
            start.callbacks.append(core.pick_cb)

    # ------------------------------------------------------------------
    # Thread registry
    # ------------------------------------------------------------------
    def thread(self, name: str = "") -> SimThread:
        """Create a new live thread on this CPU."""
        return SimThread(self, name)

    def _register_thread(self, thread: SimThread) -> None:
        self.live_threads += 1
        self._footprint = self.calibration.thread_footprint_factor(self.live_threads)

    def _unregister_thread(self, thread: SimThread) -> None:
        self.live_threads -= 1
        self._footprint = self.calibration.thread_footprint_factor(self.live_threads)
        # Drop stale last-thread references so a dead thread's identity
        # cannot suppress a future context-switch count.
        for core in self._cores:
            if core.last_thread is thread:
                core.last_thread = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runnable_count(self) -> int:
        """Bursts ready or running right now."""
        return self._queued + sum(1 for c in self._cores if c.busy)

    def snapshot(self) -> CPUSnapshot:
        """Capture counters at the current virtual time."""
        return CPUSnapshot(time=self.env.now, counters=self.counters.copy())

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _submit(
        self,
        thread: SimThread,
        user: float,
        system: float,
        done: Optional[Event] = None,
        at_tail: bool = False,
    ) -> Event:
        env = self.env
        if done is None:
            done = Event(env)
        user = user * self._footprint
        if self.slowdown != 1.0:
            # Gray failure in effect: all work on this CPU is stretched.
            user *= self.slowdown
            system *= self.slowdown
        self.counters.bursts += 1
        if user + system <= 0.0:
            # Zero-length burst: complete immediately without a core.
            done.succeed()
            return done
        burst = _Burst(thread, user, system, done)
        thread._pending = burst
        self._enqueue(burst)
        if self._idle_cores:
            core = self._idle_cores.pop()
            if at_tail and not env.due_by(env._now):
                core._pick(None)
            else:
                env.pooled_timeout(0.0).callbacks.append(core.pick_cb)
        return done

    def _enqueue(self, burst: _Burst) -> None:
        token = [burst]
        burst.token = token
        self._ready.append(token)
        self._queued += 1

    def _pop_ready(self) -> Optional[_Burst]:
        """Next queued burst in FIFO order (skipping stale entries)."""
        while self._ready:
            token = self._ready.popleft()
            burst = token[0]
            if burst is not None:
                burst.token = None
                self._queued -= 1
                return burst
        return None

    def __repr__(self) -> str:
        return (
            f"<CPU {self.name!r} cores={self.cores} runnable={self.runnable_count} "
            f"switches={self.counters.context_switches}>"
        )
