"""Self-test of the benchmark harness on a tiny case (N=30, horizon 100).

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is produced with its unit,
that a corrupted golden value is counted as one failed operation per pass,
that removing the tracer's wrappers restores the original functions, and
that the benchmark refuses to run without the program's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import run
import tracer

SEED = 3


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    return ok


def metric_units(root, golden):
    ok = True
    for trace in (0, 1):
        units = run.declared_units(trace)
        attempted, failed, values, _ = run.measure(
            "selftest", SEED, 0, trace, root, golden)
        final = run.result(attempted, failed, values, units)
        printed = {n: m["unit"] for n, m in final["metrics"].items()}
        ok &= check(final["correct"] and printed == units,
                    f"trace {trace}: all {len(units)} metrics with units, "
                    f"{failed} of {attempted} operations failed")
    return ok


def corrupted_golden(root, golden):
    bad = copy.deepcopy(golden)
    rows = bad["sweeps"]["selftest"]["tiny_cost"]["tiny_cost.csv"]["rows"]
    rows["0.1"] = "0" * 64
    attempted, failed, _, (passes, _) = run.measure(
        "selftest", SEED, 0, 0, root, bad)
    return check(failed == passes and attempted == 5 * passes,
                 f"one corrupted row fails once per pass: {failed} of "
                 f"{attempted} over {passes} passes")


def wrappers_removed(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from virusgame import cli, dynamics, equilibrium, experiments, oracle, risk

    modules = (cli, dynamics, equilibrium, experiments, oracle, risk)
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    t.install()
    patched = sum(vars(m)[k] is not v
                  for m, snap in zip(modules, before) for k, v in snap.items())
    t.uninstall()
    restored = all(vars(m)[k] is v
                   for m, snap in zip(modules, before) for k, v in snap.items())
    return check(patched == 12 and restored,
                 f"{patched} wrapped names restored after uninstall")


def refuses_without_sources():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.HERE, os.pardir, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    return check(proc.returncode != 0 and proc.stdout == "",
                 f"without src/ exits {proc.returncode}, prints no result")


def main():
    root = os.getcwd()
    with open(os.path.join(run.HERE, "golden.json")) as fh:
        golden = json.load(fh)
    results = [metric_units(root, golden), corrupted_golden(root, golden),
               wrappers_removed(root), refuses_without_sources()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
