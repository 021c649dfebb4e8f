import json
import math

import numpy as np
import pytest

from virusgame.cli import EXIT_CONFIG, _load_spec, main
from virusgame.config import ConfigError, RunConfig, parse_config
from virusgame.dynamics import (DEFAULT_DIST, batch_extinction_stats,
                                integrate)
from virusgame.experiments import (builtin_suite, fig8_ratio_variants,
                                   get_builtin)
from virusgame.oracle import mean_infected_path, simulate_ctmc
from virusgame.risk import risk_profile

SMALL_CONFIG = {
    "n_nodes": 30, "n_sources": 10, "beta": 1e-3, "gamma": 1e-3,
    "delta": 0.1, "delta_s": 0.1, "lambda_influence": 5e-6,
    "x0": 0.0, "s0": 3.0, "infection_cost": 1.0, "update_cost": 0.1,
    "horizon": 300.0, "dt": 0.1,
}


@pytest.mark.parametrize("override", [
    {"dt": math.nan},
    {"dt": math.inf},
    {"horizon": math.nan},
    {"horizon": math.inf},
    {"extinction_epsilon": math.nan},
    {"extinction_epsilon": math.inf},
    {"extinction_epsilon": 0.0},
    {"extinction_epsilon": -1e-3},
    {"n_nodes": 50.7},
    {"n_sources": 10.5},
    {"n_nodes": math.nan},
    {"n_sources": math.inf},
    {"threshold_dist": {"kind": ["exponential"]}},
    {"threshold_dist": {"kind": {"exponential": True}}},
    {"threshold_dist": {"kind": 1}},
    {"threshold_dist": 5},
    {"threshold_dist": {"kind": "exponential",
                        "params": {"mean": 100.0, "bogus": 1.0}}},
    {"threshold_dist": {"kind": "uniform", "params": {"lo": 0.0}}},
    {"n_sources": 0},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_invalid_settings_refused(override):
    with pytest.raises(ConfigError):
        parse_config({**SMALL_CONFIG, **override})


@pytest.mark.parametrize("override", [
    {"n_nodes": "50"},
    {"n_nodes": True},
    {"n_sources": True},
    {"beta": "1e-3"},
    {"update_cost": False},
    {"x0": None},
    {"dt": "0.5"},
    {"horizon": "100"},
    {"extinction_epsilon": True},
    {"threshold_dist": {"kind": "exponential", "params": {"mean": "100"}}},
    {"threshold_dist": {"kind": "uniform", "params": {"lo": 0.0, "hi": True}}},
], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
def test_non_numbers_refused(override):
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config({**SMALL_CONFIG, **override})


@pytest.mark.parametrize("params", [5, ["mean"], "mean"])
def test_non_object_dist_params_refused(params):
    with pytest.raises(ConfigError, match="params must be an object"):
        parse_config({**SMALL_CONFIG, "threshold_dist": {
            "kind": "exponential", "params": params}})


def test_integer_too_large_for_float_refused():
    with pytest.raises(ConfigError, match="beta is out of range"):
        parse_config({**SMALL_CONFIG, "beta": 10 ** 400})


def test_cli_string_numbers_exit_config(tmp_path, capsys):
    path = tmp_path / "strings.json"
    path.write_text(json.dumps({
        "n_nodes": "50", "n_sources": True, "beta": "1e-3", "dt": "0.5",
        "horizon": "100"}))
    assert main(["dump-config", "--config", str(path)]) == EXIT_CONFIG == 1
    assert "n_nodes must be a number, got '50'" in capsys.readouterr().err


def test_whole_float_counts_accepted():
    cfg = parse_config({**SMALL_CONFIG, "n_nodes": 50.0, "n_sources": 10.0})
    assert cfg.params.n_nodes == 50 and isinstance(cfg.params.n_nodes, int)
    assert cfg.params.n_sources == 10


def test_valid_settings_kept():
    cfg = parse_config({**SMALL_CONFIG, "extinction_epsilon": 1e-4})
    assert (cfg.dt, cfg.horizon, cfg.extinction_epsilon) == (0.1, 300.0, 1e-4)


@pytest.mark.parametrize("command", [
    ["dump-config"],
    ["simulate", "--out", "unused"],
    ["oracle", "--reps", "100", "--seed", "1", "--out", "unused"],
])
def test_cli_nan_dt_exits_config(tmp_path, capsys, command):
    path = tmp_path / "nan_dt.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "dt": math.nan}))
    argv = command[:1] + ["--config", str(path)] + command[1:]
    assert main(argv) == EXIT_CONFIG == 1
    assert "dt must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("dt,horizon", [(0.3, 1.0), (0.7, 10.0), (0.1, 0.35)])
def test_horizon_not_whole_steps_refused(dt, horizon):
    with pytest.raises(ConfigError, match="whole number of steps"):
        parse_config({**SMALL_CONFIG, "dt": dt, "horizon": horizon})


def test_cli_horizon_not_whole_steps_exits_config(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "dt": 0.3, "horizon": 1.0}))
    assert main(["simulate", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == EXIT_CONFIG
    assert "horizon 1 is not a whole number of steps of dt=0.3" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_overflowing_step_count_refused():
    with pytest.raises(ConfigError, match="not a finite number of steps"):
        parse_config({**SMALL_CONFIG, "horizon": 1e300, "dt": 1e-10})


def test_cli_overflowing_step_count_exits_config(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "horizon": 1e300,
                                "dt": 1e-10}))
    assert main(["dump-config", "--config", str(path)]) == EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "horizon 1e+300 over dt=1e-10 is not a finite number of steps" in err


def test_builtin_grids_accepted():
    for spec in builtin_suite():
        doc = {**SMALL_CONFIG, "dt": spec.config.dt,
               "horizon": spec.config.horizon}
        assert parse_config(doc).horizon == spec.config.horizon


def test_defaults_are_the_section_iv_builtin():
    """An empty config is the run of the Section IV studies."""
    assert parse_config({}) == get_builtin("fig6_pstar_vs_n").config


@pytest.mark.parametrize("settings", [
    {"dt": math.nan},
    {"dt": 0.3, "horizon": 1.0},
    {"extinction_epsilon": 0.0},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_run_config_refused_when_built(settings):
    with pytest.raises(ValueError):
        RunConfig(**settings)


@pytest.mark.parametrize("key, value", [
    ("dt", "0.1"), ("horizon", True), ("extinction_epsilon", "1e-3"),
    ("horizon", "10"), ("dt", True)])
def test_run_config_refuses_a_setting_that_is_not_a_number(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        RunConfig(**{key: value})


SMALL_PARAMS = parse_config(SMALL_CONFIG).params

# each engine entry on SMALL_PARAMS, called with the run settings it takes
ENGINES = {
    "integrate": lambda h, dt, eps: integrate(
        SMALL_PARAMS, 0.0, DEFAULT_DIST, h, dt, eps),
    "batch_extinction_stats": lambda h, dt, eps: batch_extinction_stats(
        SMALL_PARAMS, np.arange(3), DEFAULT_DIST, h, dt, eps),
    "risk_profile": lambda h, dt, eps: risk_profile(
        SMALL_PARAMS, DEFAULT_DIST, h, dt, eps),
    "mean_infected_path": lambda h, dt, eps: mean_infected_path(
        SMALL_PARAMS, DEFAULT_DIST, 0, 1, 0, h, dt),
    "simulate_ctmc": lambda h, dt, eps: simulate_ctmc(
        SMALL_PARAMS, DEFAULT_DIST, 0, 0, h),
}
NOT_NUMBERS = {"horizon": "10", "dt": True, "extinction_epsilon": "1e-3"}


@pytest.mark.parametrize("engine, key", [
    *((engine, key) for engine in ("integrate", "batch_extinction_stats",
                                   "risk_profile") for key in NOT_NUMBERS),
    ("mean_infected_path", "horizon"), ("mean_infected_path", "dt"),
    ("simulate_ctmc", "horizon")])
def test_engines_refuse_what_a_config_refuses(engine, key):
    run = {"horizon": 10.0, "dt": 0.1, "extinction_epsilon": 1e-3,
           key: NOT_NUMBERS[key]}
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        ENGINES[engine](run["horizon"], run["dt"], run["extinction_epsilon"])


@pytest.mark.parametrize("key", ["dt", "horizon"])
def test_nan_setting_reads_the_same_from_json_and_python(key):
    with pytest.raises(ConfigError) as from_json:
        parse_config({**SMALL_CONFIG, key: math.nan})
    with pytest.raises(ValueError) as from_python:
        RunConfig(**{key: math.nan})
    assert str(from_json.value) == str(from_python.value)


SPECS = builtin_suite() + fig8_ratio_variants()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_builtin_config_round_trips(spec):
    assert parse_config(json.loads(spec.config.dump())) == spec.config


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_builtin_spec_file_loads_to_the_builtin(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": spec.name, "config": spec.config.to_dict(),
        "sweep": {"param": spec.sweep[0], "values": list(spec.sweep[1])},
        "outputs": list(spec.outputs)}))
    assert _load_spec(str(path)) == spec
