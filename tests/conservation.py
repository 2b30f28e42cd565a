"""Run-end conservation audit for the connection and CPU layers.

Fast paths skip work while nothing observes it: the flow-level TCP plan
applies ACKs lazily, CPU cores finish uncontended bursts in place and the
spin writer runs whole write trains without the heap.  Whatever they skip,
the books must balance once the run ends.  The functions below check the
laws that hold for every correct run and return the violations as
readable strings, so a test asserts an empty list and a failure names
every broken law.
"""

from __future__ import annotations

from typing import List

#: Slack for the CPU law: ``busy_user``/``busy_system`` are sums of
#: thousands of float charges, so they carry rounding error of this order.
CPU_LAW_SLACK = 1e-9


def audit(env, cpu, connections) -> List[str]:
    """Violations of the connection laws and of the CPU law."""
    return audit_connections(connections) + audit_cpu(env, cpu)


def audit_connections(connections) -> List[str]:
    """Per connection, after a final fast-path advance to ``env.now``:

    * ``bytes_written - buffer.used <= bytes_delivered <= bytes_written``:
      a byte leaves the buffer only once its ACK is back, so everything
      no longer buffered was delivered, and nothing is delivered twice;
    * ``_unsent + _in_flight == buffer.used``: every buffered byte is
      either waiting for the congestion window or on the wire.
    """
    problems: List[str] = []
    for conn in connections:
        if conn._fp_active:
            conn._fp_advance()
        stats = conn._stats
        used = conn.buffer.used
        written = stats.bytes_written
        delivered = stats.bytes_delivered
        if not written - used <= delivered <= written:
            problems.append(
                f"connection #{conn.id}: delivered {delivered} outside "
                f"[written {written} - buffered {used}, written]"
            )
        if conn._unsent + conn._in_flight != used:
            problems.append(
                f"connection #{conn.id}: unsent {conn._unsent} + in flight "
                f"{conn._in_flight} != buffered {used}"
            )
    return problems


def audit_cpu(env, cpu) -> List[str]:
    """Busy time charged for work that has run fits in the elapsed time.

    ``busy - unelapsed <= cores * now``, where ``unelapsed`` is the part of
    each core's charged quantum (or switch) that lies after ``now``
    (``_Core.charged_until``): a core charges a quantum's CPU time when
    the quantum starts, so a run that stops mid-quantum has charged time
    that has not elapsed yet.
    """
    counters = cpu.counters
    now = env.now
    unelapsed = sum(max(0.0, core.charged_until - now) for core in cpu._cores)
    busy = counters.busy_user + counters.busy_system
    if busy - unelapsed > cpu.cores * now + CPU_LAW_SLACK:
        return [
            f"cpu {cpu.name!r}: busy {busy!r} - unelapsed {unelapsed!r} > "
            f"{cpu.cores} cores x {now!r}"
        ]
    return []
