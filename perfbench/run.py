"""virusgame benchmark: runs one workload through ``virusgame.cli.main`` for
a fixed time and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads are defined in ``workloads.py``.  Each pass is a fresh
interpreter (``worker.py``), so the risk-table cache starts cold as it does
for every CLI call.  Passes run one after another, closed loop, until
``--seconds`` have elapsed and at least ``MIN_PASSES`` have run; this
process starts no threads, and the thread pool inside ``experiments.run``
is the program's own.  Every pass's outputs are checked against
``golden.json``.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over passes: ``wall_s`` (first ``cli.main`` call to the return of the last),
``setup_s`` (importing virusgame and writing the inputs in the fresh
process) and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced
passes alternate; the result holds the per-layer metrics of ``tracer.py``
(medians over traced passes), the traced wall time, the tracing overhead
(the median over neighbouring untraced/traced pairs of traced minus
untraced wall time) and, to judge that overhead against, the range of the
untraced wall times.  The spans of the run's traced
passes are written to ``perfbench/.work/spans-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits with code 2,
printing no result, when the checkout has no ``src/virusgame``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
MIN_PASSES = {0: 3, 1: 4}
DEADLINE_S = 170  # a run, whatever the machine's speed, ends within 180 s


def run_pass(workload, seed, pass_dir, traced, src, timeout=DEADLINE_S):
    """Run one pass in a fresh interpreter; return its result, or None if
    the worker died, timed out or wrote nothing."""
    os.makedirs(pass_dir)
    job = {"workload": workload, "seed": seed, "pass_dir": pass_dir,
           "trace": traced, "src": src}
    log = os.path.join(pass_dir, "worker.log")
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 json.dumps(job)],
                stdout=fh, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
    path = os.path.join(pass_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        with open(log) as fh:
            sys.stderr.write(fh.read())
        return None
    with open(path) as fh:
        return json.load(fh)


def csv_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir)
               for f in files if f.endswith(".csv"))


def environment():
    from importlib.metadata import version

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy")}


def measure(workload, seed, seconds, trace, root, golden):
    """Run passes; return (attempted, failed, metrics, pass counts)."""
    src = os.path.join(root, "src")
    run_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    plain, traced, spans = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    try:
        for n in itertools.count():
            elapsed = time.monotonic() - start
            if ((n >= MIN_PASSES[trace] and elapsed >= seconds)
                    or elapsed >= DEADLINE_S - 10):
                break
            is_traced = bool(trace) and n % 2 == 1
            pass_dir = os.path.join(run_dir, str(n))
            result = run_pass(workload, seed, pass_dir, is_traced, src,
                              timeout=DEADLINE_S - elapsed)
            out_dir = os.path.join(pass_dir, "out")
            a, f, problems = workloads.check(
                workload, seed, out_dir, result and result["exits"], golden)
            attempted += a
            failed += f
            for line in problems:
                print(f"pass {n}: {line}", file=sys.stderr)
            if result is not None:
                result["pass"] = n
                if os.path.dirname(result["virusgame_file"]) != os.path.join(
                        src, "virusgame"):
                    raise SystemExit(f"pass imported "
                                     f"{result['virusgame_file']}, not the "
                                     f"checkout's {src}")
                print(f"pass {n}{' traced' if is_traced else ''}: "
                      f"setup_s={result['setup_s']:.4f} "
                      f"wall_s={result['wall_s']:.4f}", file=sys.stderr)
                if is_traced:
                    layers = tracer.layer_metrics(result["spans"])
                    layers["experiments.csv_bytes"] = csv_bytes(out_dir)
                    result["layers"] = layers
                    spans.append(result.pop("spans"))
                    traced.append(result)
                else:
                    plain.append(result)
            shutil.rmtree(pass_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace and spans:
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"spans-{workload}.json"),
                  "w") as fh:
            json.dump(spans, fh)
    metrics = {}
    if not trace and plain:
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in plain)
    if trace and plain and traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["trace.wall_s"] = statistics.median(
            r["wall_s"] for r in traced)
        # pass 2i is untraced and 2i+1 traced; pairing neighbours keeps
        # slow drift of the host out of the difference
        pairs = [(r["wall_s"], t["wall_s"]) for r in plain for t in traced
                 if t["pass"] == r["pass"] + 1]
        metrics["trace.overhead_s"] = statistics.median(
            t - u for u, t in pairs) if pairs else 0.0
        untraced = [r["wall_s"] for r in plain]
        metrics["trace.untraced_range_s"] = max(untraced) - min(untraced)
    return attempted, failed, metrics, (len(plain), len(traced))


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in declared[section]}


def result(attempted, failed, values, units):
    """The final JSON object; a declared metric that was not measured makes
    the result incorrect."""
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
    return {"correct": failed == 0 and not missing,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "virusgame",
                                       "__init__.py")):
        print(f"error: no src/virusgame under {root}; run from the root of a "
              "virusgame checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    units = declared_units(args.trace)

    attempted, failed, values, (n_plain, n_traced) = measure(
        args.workload, args.seed, args.seconds, args.trace, root, golden)
    print(f"workload={args.workload} seed={args.seed} passes={n_plain} "
          f"traced_passes={n_traced} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted if attempted else 0.0:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    final = result(attempted, failed, values, units)
    for name, metric in final["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
