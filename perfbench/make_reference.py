"""Recompute OVERLOAD_REFERENCE in workloads.py (takes about two minutes).

    python3 perfbench/make_reference.py [--commands 1000]

Runs the overload-serve command pair at seeds 1000000 onwards and prints, per
policy, the pooled p_hat and the standard deviation of one command's p_hat.
Only needed when the model itself changes; a new stream layout that keeps
the law should still agree with the recorded reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
from pathlib import Path

import run
import workloads

FIRST_SEED = 1_000_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commands", type=int, default=1000)
    args = parser.parse_args()
    modules = run.load_program()
    workload = workloads.OverloadServe()
    samples: dict[str, list[tuple[int, int]]] = {policy: [] for policy in workload.POLICIES}
    workdir = run.ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        runner = run.Runner(modules, Path(scratch))
        for seed in range(FIRST_SEED, FIRST_SEED + args.commands):
            outcome, _ = runner.op(workload, seed)
            for policy, data in zip(workload.POLICIES, outcome.outputs):
                row = dict(zip(workloads.SIMULATE_HEADER.split(","),
                               workloads.csv_rows(data, workloads.SIMULATE_HEADER)[0]))
                samples[policy].append((int(row["reports"]), int(row["failures"])))
    reference = {}
    for policy, pairs in samples.items():
        reports = sum(r for r, _ in pairs)
        failures = sum(f for _, f in pairs)
        reference[policy] = {
            "p_hat": round(failures / reports, 7),
            "sd_command": round(statistics.stdev(f / r for r, f in pairs), 7),
            "commands": len(pairs),
        }
    print(json.dumps(reference, indent=4))


if __name__ == "__main__":
    main()
