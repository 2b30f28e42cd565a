"""End-to-end benchmark of the simulator: host cost of a fixed amount of simulated work.

    python3 perfbench/run.py --workload writespin --seed 1 --seconds 20 --trace 0

Runs ``worker.py`` in a fresh single-threaded interpreter again and again
until ``--seconds`` have passed, checks every run's simulated outputs, and
prints one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (medians over the runs):
  ``sim_req_per_s``, ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics, from pairs of one untraced run
  (counts, set-up split) and one run under ``cProfile`` (self time and
  calls per layer).

A run fails when it raises, or when its simulated outputs differ from the
pinned reference (``reference.json``), from the other runs of the same
seed, or (traced) from its untraced pair.  See ``README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: Fewest measured runs a benchmark run takes, however short ``--seconds``.
MIN_RUNS = 3
#: Host seconds one worker may take before it is killed and counted failed.
WORKER_TIMEOUT_S = 120

#: Per-layer counts (``Probe.counts`` key -> metric name).
COUNT_METRICS = {
    "events": "sim.events_per_req",
    "bursts": "cpu.bursts_per_req",
    "switches": "cpu.switches_per_req",
    "acks": "net.tcp.acks_per_req",
    "write_calls": "net.tcp.write_calls_per_req",
    "polls": "net.selector.polls_per_req",
}
#: Layers whose host self time per request is reported.
SELF_TIME_LAYERS = (
    "sim",
    "cpu",
    "net.tcp",
    "net.selector",
    "servers",
    "workload",
    "ntier",
    "metrics",
    "calibration",
)
#: Layers whose profiled calls per request are reported.
CALL_LAYERS = ("sim", "cpu", "net.tcp")


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def workload_env() -> "tuple[dict, list]":
    """Environment for the workload processes and the ``REPRO_*`` names cleared.

    Every ``REPRO_*`` switch is removed so the default serial path users run
    is measured, and ``PYTHON*`` variables so nothing alters the interpreter.
    """
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith(("REPRO_", "PYTHON")))
    for name in cleared:
        del env[name]
    return env, [k for k in cleared if k.startswith("REPRO_")]


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(workload: str, seed: int, trace: int, env: dict):
    """One worker run: its JSON record, or ``None`` if it failed to finish."""
    command = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"# worker timed out after {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"# worker printed no record:\n{proc.stdout[-2000:]}", file=sys.stderr)
        return None


def problems(record: dict, pinned, baseline) -> list:
    """Why ``record`` is not a correct run (empty when it is).

    ``pinned`` is the reference outputs for this workload and seed (or
    ``None`` when the seed has none); ``baseline`` is another run of the
    same seed that every run must equal exactly (or ``None``).
    """
    found = []
    outputs = record["outputs"]
    if pinned is not None:
        differ = sorted(k for k in set(pinned) | set(outputs) if pinned.get(k) != outputs.get(k))
        if differ:
            found.append(f"outputs differ from the pinned reference: {', '.join(differ)}")
    if baseline is not None:
        for part in ("outputs", "counts"):
            differ = sorted(k for k in baseline[part] if baseline[part][k] != record[part].get(k))
            if differ:
                found.append(f"{part} differ between runs of one seed: {', '.join(differ)}")
    if outputs["completed"] <= 0:
        found.append("no request completed")
    if outputs["rejected"] or outputs["failed"]:
        found.append(f"{outputs['rejected']} rejected, {outputs['failed']} failed requests")
    return found


class Tally:
    """Attempted and failed worker runs, checked against one baseline run."""

    def __init__(self, pinned) -> None:
        self.pinned = pinned
        self.baseline = None
        self.attempted = 0
        self.failed = 0

    def accept(self, record, baseline=None) -> bool:
        """Count one attempt; True when ``record`` is a correct run."""
        self.attempted += 1
        if record is None:
            self.failed += 1
            return False
        found = problems(record, self.pinned, baseline or self.baseline)
        if found:
            self.failed += 1
            print("# run counted failed: " + "; ".join(found), file=sys.stderr)
            return False
        if self.baseline is None:
            self.baseline = record
        return True

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def measure(workload: str, seed: int, seconds: float, env: dict, tally: Tally) -> dict:
    """Untraced runs until ``seconds`` pass; the end-to-end metrics."""
    runs = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or tally.attempted < MIN_RUNS:
        record = spawn(workload, seed, 0, env)
        if tally.accept(record):
            runs.append(record)
    if not runs:
        return {}
    raw_rate = statistics.median(r["outputs"]["requests"] / r["run_s"] for r in runs)
    raw_setup = statistics.median(r["setup_s"] for r in runs)
    print(f"# uncorrected host timings: sim_req_per_s {raw_rate:.6g} 1/s, setup_s {raw_setup:.6g} s")
    return {
        "sim_req_per_s": (
            statistics.median(r["outputs"]["requests"] / r["run_ref_s"] for r in runs),
            "1/s",
        ),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def measure_layers(workload: str, seed: int, seconds: float, env: dict, tally: Tally) -> dict:
    """Pairs of untraced and traced runs until ``seconds`` pass; per-layer metrics."""
    pairs = []
    deadline = time.monotonic() + seconds
    while not pairs or time.monotonic() < deadline:
        if tally.failed >= MIN_RUNS and not pairs:
            break
        plain = spawn(workload, seed, 0, env)
        if not tally.accept(plain):
            continue
        traced = spawn(workload, seed, 1, env)
        if tally.accept(traced, baseline=plain):
            pairs.append((plain, traced))
    if not pairs:
        return {}
    requests = pairs[0][0]["outputs"]["requests"]
    metrics = {
        name: (pairs[0][0]["counts"][key] / requests, "1/req")
        for key, name in COUNT_METRICS.items()
    }

    def layer(traced, name, field):
        return traced["layers"].get(name, {}).get(field, 0)

    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_us_per_req"] = (
            statistics.median(
                layer(t, name, "self_s") * t["speed"] * 1e6 / requests for _, t in pairs
            ),
            "us/req",
        )
    for name in CALL_LAYERS:
        metrics[f"{name}.calls_per_req"] = (layer(pairs[0][1], name, "calls") / requests, "1/req")
    for part in ("import", "build"):
        metrics[f"setup.{part}_s"] = (
            statistics.median(p[f"{part}_s"] * p["setup_ref_s"] / p["setup_s"] for p, _ in pairs),
            "s",
        )
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["run_s"] * t["speed"] / p["run_ref_s"] for p, t in pairs),
        "ratio",
    )
    print_shares(pairs[-1][1]["layers"])
    return metrics


def print_shares(layers: dict) -> None:
    total = sum(v["self_s"] for v in layers.values()) or 1.0
    ranked = sorted(layers.items(), key=lambda item: -item[1]["self_s"])
    shares = ", ".join(f"{name} {100 * v['self_s'] / total:.1f}%" for name, v in ranked)
    print(f"# traced self-time shares: {shares}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    env, cleared = workload_env()
    print(f"# host: {json.dumps(host_info())}")
    print(f"# REPRO_* switches cleared for the workload processes: {cleared or 'none set'}")
    # Compile the package once so no measured run pays for bytecode.
    subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"],
        cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    tally = Tally(load_reference().get(args.workload, {}).get(str(args.seed)))
    run = measure_layers if args.trace else measure
    metrics = run(args.workload, args.seed, args.seconds, env, tally)
    print(f"# failed_ratio: {tally.failed_ratio:.4f} ratio ({tally.failed} of {tally.attempted} runs)")
    if not metrics:
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
