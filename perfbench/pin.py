"""Regenerate pins.json: each agent's [empirical, total, gain_sum] (see
run.agent_values) for every workload and seeds 0..SEEDS-1.

Run from the root of a checkout whose results are known to be right:

    python3 perfbench/pin.py

Pins are the benchmark's correctness reference. Regenerate them only when a
change to the program's results is intended and explained.
"""
import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

SEEDS = 64


def main():
    root = os.getcwd()
    src, bneverify = run.find_program(root)
    pins = {}
    work = os.path.join(root, ".bench_work", f"pin_{os.getpid()}")
    try:
        for name in sorted(WORKLOADS):
            table = {}
            for seed in range(SEEDS):
                job = run.Job(WORKLOADS[name], bneverify,
                              os.path.join(work, name, str(seed)), seed, src,
                              {})
                sample = run.run_verify(job)
                if not sample.ok:
                    sys.exit(f"{name} seed {seed}: {sample.problems}")
                table[str(seed)] = run.agent_values(sample.outputs)
                shutil.rmtree(job.work)
            pins[name] = table
            print(f"{name}: pinned seeds 0..{SEEDS - 1}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.PINS, "w", encoding="utf-8") as fh:
        fh.write(format_pins(pins))


def format_pins(pins):
    """JSON with one line per workload and seed, so diffs stay readable."""
    blocks = []
    for name in sorted(pins):
        rows = [f'  "{seed}": {json.dumps(pins[name][seed])}'
                for seed in sorted(pins[name], key=int)]
        blocks.append(f'"{name}": {{\n' + ",\n".join(rows) + "\n }")
    return "{\n " + ",\n ".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
