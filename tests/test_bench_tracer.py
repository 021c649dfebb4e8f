"""The benchmark's span tracer (perfbench/tracer.py) wraps the package's
layer entry points by module and name.  A renamed entry point, or a
renamed parameter that a span reads, fails here and not only in a traced
benchmark run."""

import dataclasses
import importlib.util
import json
import pathlib

from virusgame import cli, dynamics, equilibrium, experiments, oracle, risk

TRACER = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
          / "tracer.py")

MODULES = (cli, dynamics, equilibrium, experiments, oracle, risk)

# (module, name) of every function the tracer wraps
TARGETS = {
    (experiments, "integrate"), (cli, "integrate"),
    (experiments, "risk_profile"), (equilibrium, "risk_profile"),
    (cli, "risk_profile"), (risk, "batch_extinction_stats"),
    (experiments, "infection_probability"), (cli, "infection_probability"),
    (oracle, "simulate_ctmc"), (equilibrium, "mixed_ne"),
    (equilibrium, "critical_update_cost"), (cli, "run"),
}


def new_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_wraps_the_targets_and_uninstall_restores_them():
    before = [dict(vars(m)) for m in MODULES]
    tracer = new_tracer()
    tracer.install()
    try:
        wrapped = {(m.__name__, name) for m, names in zip(MODULES, before)
                   for name, value in names.items()
                   if vars(m)[name] is not value}
    finally:
        tracer.uninstall()
    assert wrapped == {(m.__name__, name) for m, name in TARGETS}
    assert len(TARGETS) == 12
    for m, names in zip(MODULES, before):
        assert all(vars(m)[name] is value for name, value in names.items())


def test_traced_calls_record_their_spans(tmp_path, capsys):
    # a roster no other test uses, so its tables are not in the cache
    config = dict(dataclasses.asdict(dynamics.DEFAULT_PARAMS),
                  beta=1.2345e-4, horizon=10.0)
    spec = {"name": "traced", "config": config,
            "sweep": {"param": "n_nodes", "values": [10, 20]},
            "outputs": ["p_star", "t_f"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    tracer = new_tracer()
    tracer.install()
    try:
        assert cli.main(["sweep", "--spec", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        oracle.simulate_ctmc(dynamics.DEFAULT_PARAMS, dynamics.DEFAULT_DIST,
                             0, 1, horizon=10.0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = {}
    for span in tracer.spans:
        assert span["end"] is not None
        spans.setdefault(span["name"], []).append(span["attrs"])
    assert spans["experiments.run"] == [{"points": 2}]
    # the N=10 table is the tail of the N=20 one: one 21-column build
    assert ([a["columns"] for a in spans["dynamics.batch_extinction_stats"]]
            == [21])
    assert [a["steps"] for a in spans["dynamics.integrate"]] == [100, 100]
    assert len(spans["risk.risk_profile"]) >= 2
    assert len(spans["equilibrium.mixed_ne"]) == 2
    (sim,) = spans["oracle.simulate_ctmc"]
    assert sim["events"] >= 0 and sim["truncated"] is False
