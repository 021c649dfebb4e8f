"""Record golden.json: the reference outputs every benchmark pass is
checked against.

Usage, from the root of a checkout: python3 perfbench/record_golden.py

Runs one untraced pass of each workload at seed 0 and stores, per sweep
CSV, a SHA-256 per row (scalar CSVs) or per file (trajectory CSVs), and per
oracle roster the model value, estimate and standard error.  Re-record only
on a commit whose outputs are known to be right.
"""

import json
import os
import shutil
import sys

import run
import workloads

SEED = 0


def main():
    src = os.path.join(os.getcwd(), "src")
    golden = {"seed": SEED, "sweeps": {}, "oracle": {}}
    for workload in workloads.WORKLOADS + ("selftest",):
        pass_dir = os.path.join(run.WORK, f"golden-{workload}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        result = run.run_pass(workload, SEED, pass_dir, False, src)
        if result is None or any(result["exits"]):
            sys.exit(f"{workload}: pass failed")
        out_dir = os.path.join(pass_dir, "out")
        if workload == "oracle":
            for i in range(len(workloads.ORACLE_RUNS)):
                row = workloads.read_oracle(
                    os.path.join(out_dir, str(i), "oracle_comparison.csv"))
                golden["oracle"][str(i)] = workloads.oracle_digest(row)
        else:
            golden["sweeps"][workload] = {
                spec["name"]: {
                    fname: workloads.sweep_digest(
                        os.path.join(out_dir, spec["name"], fname),
                        "trajectory" not in spec["outputs"])
                    for fname in sorted(os.listdir(
                        os.path.join(out_dir, spec["name"])))}
                for spec in workloads.SWEEPS[workload]}
        shutil.rmtree(pass_dir)
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
