import dataclasses
import json
import math
import warnings

import pytest

from virusgame import oracle
from virusgame.cli import main
from virusgame.config import parse_config
from virusgame.dynamics import SystemParams, ThresholdDistribution
from virusgame.experiments import _fmt

EXP100 = ThresholdDistribution.exponential(100.0)

SMALL = SystemParams(n_nodes=30, n_sources=10, beta=1e-3, gamma=1e-3,
                     delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                     x0=0.0, s0=3.0, infection_cost=1.0, update_cost=0.1)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_non_finite_horizon_refused(horizon):
    with pytest.raises(ValueError, match="finite"):
        oracle.simulate_ctmc(SMALL, EXP100, 0, seed=0, horizon=horizon)


# with a 5-event cap, about a fifth of these replications are cut short
CAPPED_CONFIG = {"n_nodes": 30, "n_sources": 10, "s0": 3.0, "horizon": 200.0,
                 "dt": 0.5}
CAPPED = parse_config(CAPPED_CONFIG)


@pytest.fixture
def capped(monkeypatch):
    """Cap every replication at 5 events; return how many of the 100
    replications seeded [3, rep] stop at it.

    The count comes from replications run here, not from the ones under
    test: forked replication processes inherit the patched cap, but
    anything they record stays in their own memory."""
    monkeypatch.setattr(oracle, "EVENT_CAP", 5)
    return sum(oracle.simulate_ctmc(CAPPED.params, CAPPED.dist, 0, [3, rep],
                                    200.0).truncated for rep in range(100))


def test_truncated_reps_are_reported(capped):
    with pytest.warns(RuntimeWarning) as record:
        oracle.empirical_infection_probability(CAPPED.params, CAPPED.dist, 0,
                                               n_reps=100, seed=3,
                                               horizon=200.0)
    assert 0 < capped < 100
    assert len(record) == 1
    assert str(record[0].message).startswith(
        f"{capped} of 100 replications hit the event cap")


def test_mean_path_reports_truncated_reps(capped):
    assert 0 < capped < 100
    with pytest.warns(RuntimeWarning, match=f"^{capped} of 100 replications "
                      "hit the event cap"):
        oracle.mean_infected_path(CAPPED.params, CAPPED.dist, 0, n_reps=100,
                                  seed=3, horizon=200.0, dt=1.0)


def test_no_warning_without_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle.empirical_infection_probability(SMALL, EXP100, 0, n_reps=100,
                                               seed=3, horizon=50.0)


def test_cli_oracle_shows_truncation_on_stderr(capped, tmp_path, capsys):
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(CAPPED_CONFIG))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--reps", "100",
                 "--seed", "3", "--out", str(out)]) == 0
    assert 0 < capped < 100
    assert (f"warning: {capped} of 100 replications hit the event cap"
            in capsys.readouterr().err)

    # the CSV holds the library's estimate, and no trace of the warning
    with pytest.warns(RuntimeWarning):
        estimate, std_error = oracle.empirical_infection_probability(
            CAPPED.params, CAPPED.dist, 0, 100, 3, horizon=200.0)
    lines = (out / "oracle_comparison.csv").read_text().splitlines()
    assert lines[0] == ("k_protected,n_reps,seed,empirical,std_error,model,"
                        "abs_diff")
    assert len(lines) == 2
    assert lines[1].split(",")[:5] == ["0", "100", "3", _fmt(estimate),
                                       _fmt(std_error)]


# (change to SMALL, seed, horizon, message): a start every replication
# refuses
BAD_STARTS = [
    ({"x0": 2.5}, 3, 50.0, "x0 must be a whole number, got 2.5"),
    ({"s0": 2.5}, 3, 50.0, "s0 must be a whole number, got 2.5"),
    ({}, -1, 50.0, "negative"),
    ({}, 3, 0.0, "horizon must be positive and finite"),
    ({}, 3, -5.0, "horizon must be positive and finite"),
]


@pytest.mark.parametrize("change, seed, horizon, match", BAD_STARTS,
                         ids=["x0", "s0", "seed", "horizon0", "horizon-5"])
@pytest.mark.parametrize("k", [SMALL.n_nodes - 1, SMALL.n_nodes])
def test_estimate_refuses_bad_start_at_every_k(k, change, seed, horizon,
                                               match):
    """With every node protected no replication can infect one, yet the
    start is refused as at k < n_nodes, with the same message."""
    params = dataclasses.replace(SMALL, **change)
    with pytest.raises(ValueError, match=match):
        oracle.empirical_infection_probability(params, EXP100, k, 100, seed,
                                               horizon=horizon)


def test_estimate_with_every_node_protected_is_zero():
    whole = dataclasses.replace(SMALL, x0=2.0)
    for k in (SMALL.n_nodes, float(SMALL.n_nodes)):
        assert oracle.empirical_infection_probability(
            whole, EXP100, k, 100, 3, horizon=50.0) == (0.0, 0.0)


@pytest.mark.parametrize("k", [CAPPED.params.n_nodes - 1,
                               CAPPED.params.n_nodes])
def test_cli_oracle_refuses_fractional_start_at_every_k(k, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CAPPED_CONFIG, "x0": 2.5}))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--reps", "100",
                 "--seed", "3", "--k-protected", str(k),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: x0 must be a whole number, got 2.5" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_mean_path_refuses_horizon_not_whole_steps():
    # the grid would otherwise stop at t = 0.9
    with pytest.raises(ValueError, match="whole number of steps"):
        oracle.mean_infected_path(SMALL, EXP100, 0, n_reps=1, seed=0,
                                  horizon=1.0, dt=0.3)


def test_mean_path_refuses_no_replications():
    with pytest.raises(ValueError, match="at least 1 replication"):
        oracle.mean_infected_path(SMALL, EXP100, 0, n_reps=0, seed=0,
                                  horizon=1.0, dt=0.5)


@pytest.mark.parametrize("field", ["x0", "s0"])
def test_cli_oracle_refuses_fractional_start(field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CAPPED_CONFIG, field: 2.5}))
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--reps", "100",
                 "--seed", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {field} must be a whole number, got 2.5" in err
    assert "Traceback" not in err
    assert not out.exists()
