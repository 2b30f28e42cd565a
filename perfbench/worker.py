"""One run of one benchmark workload, in the interpreter that runs this file.

    python3 -I perfbench/worker.py --workload writespin --seed 1 --trace 0

``run.py`` starts this script once per measured run, so every run pays
the import and model construction a user pays.  It calls the public entry
point named by the workload, reads the layers' own counters from the
instances it collected, and prints one JSON record as its last line.

Nothing under ``src/`` is edited: the counters are read from outside by
wrapping the constructors of the layer classes in this process only.
With ``--trace 1`` the entry point runs under ``cProfile`` and the record
also carries host self time and call counts per ``repro`` layer.

The speed of a shared 2-core Intel Xeon VM swings up to ~1.8x within
seconds, so every timing is also given corrected to a reference speed: a
fixed chunk of pure-Python event-queue work (``Speedometer``) is timed
before set-up and between ``SLICES`` equal slices of simulated time, and
each slice's host time is scaled by the speed measured around it.  Running
``Environment.run`` in slices leaves every simulated output unchanged;
``run.py`` checks that.  The speedometer's own memory is subtracted from
the peak resident memory reported.
"""

import heapq
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REPRO_DIR = str(SRC / "repro") + os.sep

#: Equal slices of simulated time an untraced run is timed in.
SLICES = 32
#: Host seconds one speedometer sample takes at the reference speed (a
#: 2-core Intel Xeon host at the fast end of its swings); corrected
#: timings are in seconds of that reference host.
REFERENCE_SAMPLE_S = 0.004

#: ``repro.net`` modules -> layer; the rest of ``repro.net`` is ``net.other``.
NET_LAYERS = {
    "tcp.py": "net.tcp",
    "buffer.py": "net.tcp",
    "link.py": "net.tcp",
    "selector.py": "net.selector",
}


def layer_of(filename: str) -> str:
    """The ``repro`` layer a source file belongs to (``other`` outside it)."""
    if not filename.startswith(REPRO_DIR):
        return "other"
    parts = filename[len(REPRO_DIR):].split(os.sep)
    if parts[0] == "net":
        return NET_LAYERS.get(parts[-1], "net.other")
    if len(parts) == 1:
        return parts[0][: -len(".py")]
    return parts[0]


def attribute(stats: dict) -> dict:
    """Self time and calls per layer from ``pstats.Stats(...).stats``.

    Time spent in a builtin or a standard-library function is charged to
    the layer of the function that called it (split by the profiler's
    per-caller self time), so ``heapq`` and generator ``send`` count where
    the simulator uses them.  Calls count the layer's own functions only.
    """
    layers: dict = {}

    def charge(layer: str, self_s: float, calls: int) -> None:
        entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += calls

    for (filename, _line, _name), (_cc, calls, self_s, _ct, callers) in stats.items():
        if filename.startswith(REPRO_DIR):
            charge(layer_of(filename), self_s, calls)
            continue
        for caller, caller_stats in callers.items():
            charge(layer_of(caller[0]), caller_stats[2], 0)
        # Self time the profiler could not split by caller (the root frame).
        charge("other", self_s - sum(c[2] for c in callers.values()), 0)
    return layers


class Speedometer:
    """Measures the host's momentary speed on fixed event-queue work.

    The work resembles the simulator's hot loop (heap pops and pushes, a
    generator ``send``, attribute and dict updates on slotted objects spread
    over a few MB) but uses none of its code, so a change to the simulator
    cannot move it.  It allocates no object the garbage collector tracks:
    a sample that triggered collections would be timed on the simulator's
    heap, not on the host's speed.
    """

    class _Slot:
        __slots__ = ("due", "hits")

        def __init__(self, due):
            self.due = due
            self.hits = 0

    OPERATIONS = 3000
    SLOTS = 1 << 16

    def __init__(self) -> None:
        self._heap = [i * 1e-4 for i in range(1 << 14)]
        self._slots = [self._Slot(i * 1e-4) for i in range(self.SLOTS)]
        self._send = self._consumer({}).send
        self._send(None)
        self.speed()  # warm up

    @staticmethod
    def _consumer(counts):
        total = 0.0
        while True:
            slot = yield total
            total += slot.due
            slot.hits += 1
            counts[slot.hits & 7] = counts.get(slot.hits & 7, 0) + 1

    def speed(self) -> float:
        """Reference time over measured time of one sample (above 1: faster)."""
        heap, slots, mask, send = self._heap, self._slots, self.SLOTS - 1, self._send
        start = time.perf_counter()
        for k in range(self.OPERATIONS):
            due = heapq.heappop(heap)
            slot = slots[(k * 2654435761) & mask]
            slot.due = due
            send(slot)
            heapq.heappush(heap, due + (k * 40503 & 4095) * 1e-6)
        return REFERENCE_SAMPLE_S / (time.perf_counter() - start)


class Probe:
    """Collects the layer instances a run builds and times ``Environment.run``.

    With a ``speedometer``, a run to a numeric ``until`` is executed in
    ``SLICES`` slices with a speed sample between slices.
    """

    def __init__(self, repro, speedometer=None) -> None:
        self.classes = {
            name: getattr(repro, name)
            for name in ("Environment", "CPU", "Connection", "Selector", "RunRecorder")
        }
        self.instances = {name: [] for name in self.classes}
        #: ``perf_counter`` at the first ``Environment.run`` call.
        self.first_event = None
        #: Host seconds spent inside ``Environment.run``.
        self.run_s = 0.0
        #: The same, corrected to the reference speed.
        self.run_ref_s = 0.0
        #: Host speed sampled at the first ``Environment.run`` call.
        self.first_speed = None
        self.speedometer = speedometer

    def install(self) -> None:
        for name, cls in self.classes.items():
            cls.__init__ = self._collecting(cls.__init__, self.instances[name])
        environment = self.classes["Environment"]
        original_run = environment.run
        probe = self

        def run(env, until=None):
            start = time.perf_counter()
            if probe.first_event is None:
                probe.first_event = start
            if probe.speedometer is None:
                try:
                    return original_run(env, until)
                finally:
                    probe.run_s += time.perf_counter() - start
            probe.timed_slices(env, original_run, until)
            return None

        environment.run = run

    def timed_slices(self, env, original_run, until: float) -> None:
        begin = env.now
        speed = self.speedometer.speed()
        if self.first_speed is None:
            self.first_speed = speed
        for k in range(1, SLICES + 1):
            stop = until if k == SLICES else begin + (until - begin) * k / SLICES
            start = time.perf_counter()
            original_run(env, stop)
            elapsed = time.perf_counter() - start
            after = self.speedometer.speed()
            self.run_s += elapsed
            self.run_ref_s += elapsed * (speed + after) / 2
            speed = after

    @staticmethod
    def _collecting(init, bucket: list):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            bucket.append(self)

        return __init__

    def requests(self) -> int:
        """Simulated requests completed over the whole run, warm-up included."""
        return sum(r.total_seen for r in self.instances["RunRecorder"])

    def counts(self) -> dict:
        """Work each layer did, read from its public counters."""
        cpus = self.instances["CPU"]
        connections = self.instances["Connection"]
        return {
            "events": sum(e.events_processed for e in self.instances["Environment"]),
            "bursts": sum(c.counters.bursts for c in cpus),
            "switches": sum(c.counters.context_switches for c in cpus),
            "acks": sum(c.stats.acks_received for c in connections),
            "write_calls": sum(c.stats.write_calls for c in connections),
            "polls": sum(s.polls for s in self.instances["Selector"]),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    before = peak_rss_mb()
    speedometer = Speedometer()
    speedometer_mb = peak_rss_mb() - before
    start_speed = speedometer.speed()
    start = time.perf_counter()
    import repro

    imported = time.perf_counter()
    probe = Probe(repro, None if args.trace else speedometer)
    probe.install()
    entry, config = workloads.build(repro, args.workload, args.seed)
    record = {}
    if args.trace:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = entry(config)
        profiler.disable()
        record["layers"] = attribute(pstats.Stats(profiler).stats)
        record["speed"] = (start_speed + speedometer.speed()) / 2
    else:
        result = entry(config)
        setup_speed = (start_speed + probe.first_speed) / 2
        record["setup_ref_s"] = (probe.first_event - start) * setup_speed
        record["run_ref_s"] = probe.run_ref_s
    record.update(
        outputs=workloads.outputs(args.workload, result, probe),
        counts=probe.counts(),
        import_s=imported - start,
        build_s=probe.first_event - imported,
        setup_s=probe.first_event - start,
        run_s=probe.run_s,
        # The speedometer's memory is fixed from its construction on.
        peak_rss_mb=peak_rss_mb() - speedometer_mb,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
