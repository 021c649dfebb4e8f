"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public functions at the names through which the package
calls them (a module that did ``from .dynamics import integrate`` holds its
own reference, so each such namespace is patched separately).  Every call
becomes a span with its thread id and parent span; nothing is written until
the pass ends and ``spans`` is dumped.  ``uninstall`` puts every original
function back.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import statistics
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, **attrs):
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                "name": name, "tid": threading.get_ident(),
                "start": time.perf_counter(), "end": None, "attrs": attrs}
        stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()

    def patch(self, module, attr, name, describe=None):
        """Replace ``module.attr`` by a wrapper that records a span named
        ``name``; ``describe(bound_args, result)`` adds attributes after the
        span has closed, so it costs the span nothing."""
        original = getattr(module, attr)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"].update(describe(bound.arguments, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self):
        """Wrap every layer entry point the CLI reaches."""
        from virusgame import cli, equilibrium, experiments, oracle, risk

        for module in (experiments, cli):
            self.patch(module, "integrate", "dynamics.integrate",
                       lambda a, r: {"steps": len(r) - 1})
        for module in (experiments, equilibrium, cli):
            self.patch(module, "risk_profile", "risk.risk_profile",
                       _table_key)
        self.patch(risk, "batch_extinction_stats",
                   "dynamics.batch_extinction_stats", _batch_attrs)
        for module in (experiments, cli):
            self.patch(module, "infection_probability",
                       "risk.infection_probability")
        self.patch(oracle, "simulate_ctmc", "oracle.simulate_ctmc",
                   lambda a, r: {"events": len(r.events),
                                 "truncated": bool(r.truncated)})
        self.patch(equilibrium, "mixed_ne", "equilibrium.mixed_ne")
        self.patch(equilibrium, "critical_update_cost",
                   "equilibrium.critical_update_cost")
        self.patch(cli, "run", "experiments.run",
                   lambda a, r: {"points": len(a["spec"].sweep[1])})

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _table_key(args, result):
    # update and infection costs do not enter the dynamics, so two calls
    # that differ only in cost describe the same table
    params = dataclasses.replace(args["params"], infection_cost=0.0,
                                 update_cost=0.0)
    key = (params, args["dist"], args["horizon"], args["dt"],
           args["extinction_epsilon"])
    return {"key": repr(key)}


def _batch_attrs(args, result):
    return {"columns": len(args["k_values"]),
            "steps": int(round(args["horizon"] / args["dt"])),
            "truncated": int(result[2].sum())}


# --- per-layer metrics from one pass's spans ---------------------------------


def _duration(span):
    return span["end"] - span["start"]


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers for one traced pass.

    Self time is a span's duration minus its direct children in the same
    thread.  ``experiments.run`` hands its points to pool threads, so its
    children are the top-level spans of other threads that start inside it,
    and its self time is the part of its interval none of them covers.

    ``dynamics.batch_extinction_stats.nominal_column_steps_per_s`` is
    computed, not counted: columns x horizon/dt over busy time.  A batch
    that stops before its horizon did fewer steps than this assumes.
    """
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(_duration(s) for s in named(name))

    def self_time(name):
        return sum(_duration(s) - sum(_duration(c)
                                      for c in children.get(s["id"], ()))
                   for s in named(name))

    m = {}
    batch = named("dynamics.batch_extinction_stats")
    columns = sum(s["attrs"]["columns"] for s in batch)
    column_steps = sum(s["attrs"]["columns"] * s["attrs"]["steps"]
                       for s in batch)
    m["dynamics.batch_extinction_stats.calls"] = len(batch)
    m["dynamics.batch_extinction_stats.columns"] = columns
    m["dynamics.batch_extinction_stats.busy_s"] = busy(
        "dynamics.batch_extinction_stats")
    m["dynamics.batch_extinction_stats.nominal_column_steps_per_s"] = _ratio(
        column_steps, busy("dynamics.batch_extinction_stats"))
    m["dynamics.batch_extinction_stats.truncated_fraction"] = _ratio(
        sum(s["attrs"]["truncated"] for s in batch), columns)

    integ = named("dynamics.integrate")
    steps = sum(s["attrs"]["steps"] for s in integ)
    m["dynamics.integrate.calls"] = len(integ)
    m["dynamics.integrate.steps"] = steps
    m["dynamics.integrate.busy_s"] = busy("dynamics.integrate")
    m["dynamics.integrate.steps_per_s"] = _ratio(
        steps, busy("dynamics.integrate"))

    tables = named("risk.risk_profile")
    built = [s for s in tables
             if any(c["name"] == "dynamics.batch_extinction_stats"
                    for c in children.get(s["id"], ()))]
    distinct = len({s["attrs"]["key"] for s in tables})
    m["risk.risk_profile.calls"] = len(tables)
    m["risk.risk_profile.tables_built"] = len(built)
    m["risk.risk_profile.distinct_tables"] = distinct
    m["risk.risk_profile.useful_ratio"] = _ratio(distinct, len(built))
    m["risk.risk_profile.self_s"] = self_time("risk.risk_profile")
    m["risk.infection_probability.calls"] = len(
        named("risk.infection_probability"))
    m["risk.infection_probability.busy_s"] = busy("risk.infection_probability")

    solves = named("equilibrium.mixed_ne")
    m["equilibrium.mixed_ne.calls"] = len(solves)
    m["equilibrium.mixed_ne.busy_s"] = busy("equilibrium.mixed_ne")
    m["equilibrium.mixed_ne.solve_s.p50"] = (
        statistics.median(_duration(s) for s in solves) if solves else 0.0)
    m["equilibrium.critical_update_cost.calls"] = len(
        named("equilibrium.critical_update_cost"))
    m["equilibrium.critical_update_cost.self_s"] = self_time(
        "equilibrium.critical_update_cost")

    spans_by_id = {s["id"]: s for s in spans}

    def call_label(span):
        while span["parent"] is not None:
            span = spans_by_id[span["parent"]]
        return span["attrs"].get("label")

    for label in ("n50", "n200"):
        reps = [s for s in named("oracle.simulate_ctmc") if call_label(s) == label]
        busy_s = sum(_duration(s) for s in reps)
        events = sum(s["attrs"]["events"] for s in reps)
        m[f"oracle.{label}.simulate_ctmc.calls"] = len(reps)
        m[f"oracle.{label}.events"] = events
        m[f"oracle.{label}.events_per_s"] = _ratio(events, busy_s)
        m[f"oracle.{label}.reps_per_s"] = _ratio(len(reps), busy_s)
        m[f"oracle.{label}.truncated_reps"] = sum(
            s["attrs"]["truncated"] for s in reps)

    runs = named("experiments.run")
    run_self = overlap = 0.0
    for run in runs:
        inside = [s for s in spans
                  if (s["parent"] == run["id"])
                  or (s["parent"] is None and s["tid"] != run["tid"]
                      and run["start"] <= s["start"] <= run["end"])]
        covered = _union_length(
            (max(s["start"], run["start"]), min(s["end"], run["end"]))
            for s in inside)
        run_self += _duration(run) - covered
        overlap += sum(_duration(s) for s in inside)
    m["experiments.run.busy_s"] = busy("experiments.run")
    m["experiments.run.self_s"] = run_self
    m["experiments.run.overlap"] = _ratio(overlap, busy("experiments.run"))
    m["experiments.points"] = sum(s["attrs"]["points"] for s in runs)
    m["cli.main.self_s"] = self_time("cli.main")
    return m
