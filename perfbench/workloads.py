"""The benchmark's three workloads: the input files each writes, the CLI
calls it makes, and the check of what those calls wrote.

Sizes are scaled down from the builtin figure studies so that one pass (a
fresh interpreter running every call of a workload once) takes a few
seconds on two cores; the rosters are the builtin ones.

* ``pstar-vs-n``: the fig6 study (Section IV roster) at N = 100, 160, 220,
  280 and 340 with horizon 200.  Every point builds its own risk table and
  the two largest need two batch chunks each, so the batch RK4 kernel does
  nearly all the work and the table cache is never hit.
* ``pstar-vs-cost``: the fig8 study, one N = 200 roster swept over the 18
  builtin update costs.  One table is useful; the thread pool races the
  table cache and builds it once per worker.  The cache and the solver
  dominate.
* ``oracle``: ``virusgame oracle`` on the FIG3 roster, N = 50 at
  k = 0, 10, 25 (1000 reps each, about 11 events per rep) and N = 200 at
  k = 40 (100 reps to horizon 100, about 640 events per rep).  Per-event
  bookkeeping dominates both rosters; per-rep set-up is a visible share
  only of the short N = 50 reps.  Its calls also run the scalar
  ``integrate`` and the quadrature for the model value.  The seed changes
  how many events the oracle draws: by a few percent at N = 200.

The seed permutes the order of every sweep's values (the CSVs come back
sorted, so the golden files do not depend on it) and seeds the oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

SECTION_IV = {
    "n_sources": 50, "beta": 1e-4, "gamma": 1e-3, "delta": 0.1,
    "delta_s": 0.1, "lambda_influence": 1e-4, "x0": 0.0, "s0": 10.0,
    "infection_cost": 1.0, "update_cost": 0.1,
    "threshold_dist": {"kind": "exponential", "params": {"mean": 100.0}},
}
FIG3 = {
    "n_nodes": 100, "n_sources": 50, "beta": 1e-3, "gamma": 1e-3,
    "delta": 0.1, "delta_s": 0.1, "lambda_influence": 5e-6, "x0": 0.0,
    "s0": 5.0, "infection_cost": 1.0, "update_cost": 0.1,
}


def _spec(name, config, param, values, outputs):
    return {"name": name, "config": config,
            "sweep": {"param": param, "values": list(values)},
            "outputs": list(outputs)}


SWEEPS = {
    "pstar-vs-n": [
        _spec("fig6_pstar_vs_n", {**SECTION_IV, "horizon": 200.0},
              "n_nodes", (100.0, 160.0, 220.0, 280.0, 340.0), ("p_star",)),
    ],
    "pstar-vs-cost": [
        _spec("fig8_pstar_vs_cost",
              {**SECTION_IV, "n_nodes": 200, "horizon": 200.0},
              "update_cost", (round(0.05 * i, 2) for i in range(1, 19)),
              ("p_star", "u_c_star")),
    ],
    # the harness self-test's tiny case (N=30, horizon 100); not a workload
    "selftest": [
        _spec("tiny_cost", {**SECTION_IV, "n_nodes": 30, "horizon": 100.0},
              "update_cost", (0.05, 0.1, 0.2), ("p_star", "u_c_star")),
        _spec("tiny_trajectory", {**FIG3, "n_nodes": 30, "horizon": 100.0},
              "p", (0.1, 0.5), ("trajectory",)),
    ],
}

# (roster, config, k_protected, reps); the roster names the per-layer metrics
ORACLE_RUNS = [
    ("n50", {**FIG3, "n_nodes": 50, "horizon": 400.0, "dt": 0.5}, k, 1000)
    for k in (0, 10, 25)
] + [("n200", {**FIG3, "n_nodes": 200, "horizon": 100.0, "dt": 0.5}, 40, 100)]

WORKLOADS = ("pstar-vs-n", "pstar-vs-cost", "oracle")


def build_inputs(workload, seed, in_dir, out_dir):
    """Write the workload's input files; return the calls to make as
    ``(argv, label)`` pairs."""
    os.makedirs(in_dir, exist_ok=True)
    rng = random.Random(seed)
    calls = []
    if workload == "oracle":
        for i, (roster, config, k, reps) in enumerate(ORACLE_RUNS):
            path = os.path.join(in_dir, f"oracle_{i}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            calls.append((["oracle", "--config", path, "--reps", str(reps),
                           "--seed", str(seed % 2**32), "--k-protected",
                           str(k), "--out", os.path.join(out_dir, str(i))],
                          roster))
        return calls
    for spec in SWEEPS[workload]:
        spec = dict(spec, sweep=dict(spec["sweep"]))
        values = list(spec["sweep"]["values"])
        rng.shuffle(values)
        spec["sweep"]["values"] = values
        path = os.path.join(in_dir, f"{spec['name']}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        calls.append((["sweep", "--spec", path, "--out",
                       os.path.join(out_dir, spec["name"])], spec["name"]))
    return calls


# --- output checks ------------------------------------------------------------


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(path, scalar):
    """Golden form of one CSV: a hash per row keyed by its sweep value for
    scalar CSVs, one hash for a trajectory CSV."""
    with open(path, newline="") as fh:
        text = fh.read()
    if not scalar:
        return {"file": _sha(text)}
    header, *rows = text.splitlines(keepends=True)
    return {"header": _sha(header),
            "rows": {row.split(",", 1)[0]: _sha(row) for row in rows}}


def read_oracle(path):
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return row


def oracle_digest(row):
    return {"model": row["model"], "estimate": float(row["empirical"]),
            "std_error": float(row["std_error"])}


def check(workload, seed, out_dir, exits, golden):
    """Count (attempted, failed) operations and list the failures.

    An operation is one sweep point (a scalar CSV row or a trajectory file)
    or one oracle roster.  It fails when its call raised or exited nonzero,
    or when its output differs from the golden reference.  ``exits`` is None
    when the pass died before reporting, which fails every operation.
    """
    exits = dict(enumerate(exits or ()))
    attempted = failed = 0
    problems = []
    if workload == "oracle":
        for i, (roster, config, k, reps) in enumerate(ORACLE_RUNS):
            attempted += 1
            ref = golden["oracle"][str(i)]
            code = exits.get(i, -1)
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                row = read_oracle(os.path.join(out_dir, str(i),
                                               "oracle_comparison.csv"))
                echoed = (int(row["k_protected"]), int(row["n_reps"]),
                          int(row["seed"]))
                if echoed != (k, reps, seed % 2**32):
                    raise ValueError(f"echoed inputs {echoed}")
                if row["model"] != ref["model"]:
                    raise ValueError(f"model {row['model']} != {ref['model']}")
                est, se = float(row["empirical"]), float(row["std_error"])
                tol = 5.0 * math.hypot(se, ref["std_error"])
                if not abs(est - ref["estimate"]) <= tol:
                    raise ValueError(f"estimate {est} vs reference "
                                     f"{ref['estimate']} beyond {tol}")
            except (OSError, KeyError, ValueError) as exc:
                failed += 1
                problems.append(f"oracle roster {i} ({roster}, k={k}): {exc}")
        return attempted, failed, problems

    for i, spec in enumerate(SWEEPS[workload]):
        spec_dir = os.path.join(out_dir, spec["name"])
        for fname, ref in golden["sweeps"][workload][spec["name"]].items():
            path = os.path.join(spec_dir, fname)
            points = list(ref["rows"]) if "rows" in ref else [fname]
            attempted += len(points)
            code = exits.get(i, -1)
            if code != 0:
                failed += len(points)
                problems.append(f"{spec['name']}: exit code {code}")
                continue
            try:
                got = sweep_digest(path, "rows" in ref)
            except (OSError, ValueError) as exc:
                failed += len(points)
                problems.append(f"{fname}: {exc}")
                continue
            if "file" in ref:
                if got != ref:
                    failed += 1
                    problems.append(f"{fname}: differs from golden")
                continue
            bad = [p for p in points if got["rows"].get(p) != ref["rows"][p]]
            extra = set(got["rows"]) - set(points)
            if got["header"] != ref["header"]:
                bad = points
            failed += len(bad) + len(extra)
            attempted += len(extra)
            problems += [f"{fname}: row {p} differs from golden"
                         for p in sorted(set(bad) | extra)]
    return attempted, failed, problems
