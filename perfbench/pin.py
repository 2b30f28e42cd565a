"""Record the simulated outputs ``run.py`` checks every run against.

    python3 perfbench/pin.py --seeds 0-31

Runs each workload once per seed and writes ``reference.json``.  Re-pin
only for a change that is meant to alter the simulated model; a change
that only makes the simulator faster must reproduce these outputs exactly.
"""

import argparse
import json
import sys

from run import REFERENCE, spawn, workload_env
from workloads import WORKLOADS


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)
    env, _ = workload_env()
    reference = {}
    for name in WORKLOADS:
        reference[name] = {}
        for seed in args.seeds:
            record = spawn(name, seed, 0, env)
            if record is None:
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            reference[name][str(seed)] = record["outputs"]
            print(f"{name} seed {seed}: {record['outputs']['requests']} requests", flush=True)
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
