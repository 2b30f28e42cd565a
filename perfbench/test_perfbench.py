"""Tests of the benchmark itself (no simulation is run).

    python3 -m pytest perfbench -q
"""

import copy
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402


def _record(workload="writespin", seed="1"):
    outputs = copy.deepcopy(run.load_reference()[workload][seed])
    counts = dict.fromkeys(("events", "bursts", "switches", "acks", "write_calls", "polls"), 7)
    return {"outputs": outputs, "counts": counts}


def test_pinned_outputs_pass():
    tally = run.Tally(run.load_reference()["writespin"]["1"])
    assert tally.accept(_record())
    assert (tally.attempted, tally.failed) == (1, 0)


def test_perturbed_output_counts_run_failed():
    tally = run.Tally(run.load_reference()["rubbos"]["1"])
    assert tally.accept(_record("rubbos"))
    perturbed = _record("rubbos")
    perturbed["outputs"]["utilization.tomcat"] += 1e-12
    assert not tally.accept(perturbed)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_ratio == 0.5


def test_unpinned_seed_must_repeat_exactly():
    tally = run.Tally(None)
    assert tally.accept(_record())
    other = _record()
    other["counts"]["acks"] += 1
    assert not tally.accept(other)
    assert tally.failed == 1


def test_crashed_run_counts_failed():
    tally = run.Tally(None)
    assert not tally.accept(None)
    assert tally.failed_ratio == 1.0


def test_builtin_time_charged_to_calling_layer():
    sim = (worker.REPRO_DIR + os.path.join("sim", "core.py"), 10, "run")
    tcp = (worker.REPRO_DIR + os.path.join("net", "tcp.py"), 20, "_pump")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    stats = {
        sim: (1, 1, 0.5, 2.0, {}),
        tcp: (4, 4, 0.25, 0.75, {sim: (4, 4, 0.25, 0.75)}),
        heappop: (9, 9, 0.5, 0.5, {sim: (6, 6, 0.375, 0.375), tcp: (3, 3, 0.125, 0.125)}),
    }
    layers = worker.attribute(stats)
    assert layers["sim"] == {"self_s": 0.875, "calls": 1}
    assert layers["net.tcp"] == {"self_s": 0.375, "calls": 4}
    assert layers["other"]["self_s"] == 0.0


def test_layer_of_splits_net_and_top_level_modules():
    assert worker.layer_of(worker.REPRO_DIR + os.path.join("net", "buffer.py")) == "net.tcp"
    assert worker.layer_of(worker.REPRO_DIR + os.path.join("net", "selector.py")) == "net.selector"
    assert worker.layer_of(worker.REPRO_DIR + "calibration.py") == "calibration"
    assert worker.layer_of(worker.REPRO_DIR + os.path.join("ntier", "pool.py")) == "ntier"
    assert worker.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_speedometer_allocates_nothing_the_collector_tracks():
    speedometer = worker.Speedometer()
    gc.disable()
    try:
        before = gc.get_count()[0]
        speedometer.speed()
        # One tracked object per operation would add thousands.
        assert gc.get_count()[0] - before < 10
    finally:
        gc.enable()


def test_without_the_simulator_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "writespin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except json.JSONDecodeError:
            continue
        raise AssertionError(f"printed a result: {line}")
