import dataclasses
import threading
from collections import OrderedDict

import numpy as np
import pytest

from virusgame import experiments, risk
from virusgame.config import RunConfig
from virusgame.dynamics import SystemParams, ThresholdDistribution
from virusgame.experiments import (ExperimentSpec, MAX_TRAJECTORY_ROWS,
                                   builtin_suite, fig8_ratio_variants,
                                   get_builtin, run)
from virusgame.risk import CACHE_SIZE

EXP100 = ThresholdDistribution.exponential(100.0)

SMALL = SystemParams(n_nodes=30, n_sources=10, beta=1e-3, gamma=1e-3,
                     delta=0.1, delta_s=0.1, lambda_influence=5e-6,
                     x0=0.0, s0=3.0, infection_cost=1.0, update_cost=0.1)


def small_spec(**overrides):
    """A spec on SMALL; a dt, horizon or extinction_epsilon override goes
    to its RunConfig."""
    settings = {key: overrides.pop(key)
                for key in ("dt", "horizon", "extinction_epsilon")
                if key in overrides}
    config = RunConfig(SMALL, EXP100, **{"horizon": 300.0, "dt": 0.1,
                                         **settings})
    kwargs = dict(name="toy", config=config, sweep=("p", (0.1, 0.5)),
                  outputs=("infection_probability",))
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpecValidation:
    def test_unknown_sweep_param(self):
        with pytest.raises(ValueError):
            small_spec(sweep=("bogus", (0.1,)))

    def test_unknown_output(self):
        with pytest.raises(ValueError):
            small_spec(outputs=("nonsense",))

    def test_empty_outputs(self):
        with pytest.raises(ValueError, match="nonempty"):
            small_spec(outputs=())

    def test_duplicate_output(self):
        with pytest.raises(ValueError, match="'p_star' is listed twice"):
            small_spec(outputs=("p_star", "t_f", "p_star"))

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            small_spec(sweep=("p", ()))

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b",
                                      "/abs", "a\0b"])
    def test_name_must_be_a_plain_file_name(self, name):
        with pytest.raises(ValueError, match="not a plain file name"):
            small_spec(name=name)

    @pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
    def test_extinction_epsilon_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="extinction_epsilon"):
            small_spec(extinction_epsilon=eps)

    @pytest.mark.parametrize("horizon, dt", [
        (float("nan"), -1.0), (float("nan"), 0.1), (300.0, float("nan")),
        (300.0, 0.0), (300.0, -1.0), (1.0, 2.0), (float("inf"), 0.1),
        (1.0, 0.3)])
    def test_step_must_fit_the_horizon(self, horizon, dt):
        with pytest.raises(ValueError, match="dt"):
            small_spec(horizon=horizon, dt=dt)

    @pytest.mark.parametrize("sweep, match", [
        (("n_nodes", (30.0, 30.9)), "whole number, got 30.9"),
        (("n_sources", (10.5,)), "whole number"),
        (("n_nodes", (1.0,)), "n_nodes must be >= 2"),
        (("p", (0.5, 1.5)), r"must lie in \[0,1\]"),
        (("k_protected", (10.0, 31.0)), r"n_nodes=30\]"),
        (("x0", (31.0,)), "x0 cannot exceed n_nodes"),
        (("p", ("0.1",)), "sweep value of p must be a number, got '0.1'"),
        (("p", (True,)), "sweep value of p must be a number, got True")])
    def test_each_sweep_value_refused_when_built(self, sweep, match):
        with pytest.raises(ValueError, match=match):
            small_spec(sweep=sweep)

    @pytest.mark.parametrize("sweep", [
        ("p", (0.1, 0.1000000001)), ("p", (0.5, 0.1, 0.5)),
        ("n_nodes", (20, 20.0))])
    def test_sweep_values_that_print_alike_refused(self, sweep):
        # they would share one CSV row key or one trajectory file name
        with pytest.raises(ValueError, match="both print as"):
            small_spec(sweep=sweep)


class TestRun:
    def test_rows_sorted_by_sweep_value(self):
        spec = small_spec(sweep=("p", (0.5, 0.1, 0.3)))
        rows = run(spec)
        assert [r["p"] for r in rows] == [0.1, 0.3, 0.5]

    def test_protection_lowers_infection_probability(self):
        rows = run(small_spec())
        assert rows[0]["infection_probability"] > rows[1]["infection_probability"]

    def test_trajectory_ordering_in_p_sweep(self):
        spec = small_spec(outputs=("trajectory",), sweep=("p", (0.1, 0.5)))
        rows = run(spec)
        lo, hi = rows[0]["trajectory"], rows[1]["trajectory"]
        assert (hi.x <= lo.x + 1e-9).all()

    def test_scalar_csv_layout(self, tmp_path):
        spec = small_spec(outputs=("infection_probability", "t_f"))
        rows = run(spec, out_dir=str(tmp_path))
        text = (tmp_path / "toy.csv").read_text().splitlines()
        assert text[0] == "p,infection_probability,t_f"
        assert len(text) == len(rows) + 1
        first = text[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[1]) == pytest.approx(
            rows[0]["infection_probability"], rel=1e-8)

    def test_trajectory_csv_layout(self, tmp_path):
        spec = small_spec(outputs=("trajectory",), sweep=("p", (0.5,)))
        run(spec, out_dir=str(tmp_path))
        path = tmp_path / "toy__p_0.5.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,s,x_bar"
        assert len(lines) - 1 <= MAX_TRAJECTORY_ROWS
        cells = lines[1].split(",")
        assert len(cells) == 4
        assert float(cells[0]) == 0.0

    def test_reruns_byte_identical(self, tmp_path):
        spec = small_spec(outputs=("infection_probability", "p_star"))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run(spec, out_dir=str(a_dir))
        run(spec, out_dir=str(b_dir))
        assert (a_dir / "toy.csv").read_bytes() == (b_dir / "toy.csv").read_bytes()

    def test_parameter_sweep_runs_at_equilibrium(self):
        spec = small_spec(sweep=("update_cost", (0.02, 0.2)),
                          outputs=("p_star",))
        rows = run(spec)
        assert rows[0]["p_star"] >= rows[1]["p_star"]
        for row in rows:
            assert 0.0 <= row["p_star"] <= 1.0

    def test_sweep_starts_no_threads(self, monkeypatch):
        before = threading.active_count()
        seen = []
        read = experiments.risk_profile

        def spy(*args, **kwargs):
            seen.append(threading.active_count())
            return read(*args, **kwargs)

        monkeypatch.setattr(experiments, "risk_profile", spy)
        run(small_spec(sweep=("n_nodes", (20.0, 30.0, 40.0)),
                       outputs=("p_star", "psi"), horizon=100.0))
        assert seen and set(seen) == {before}

    def test_sweep_larger_than_cache_builds_each_table_once(self, monkeypatch):
        calls = []
        build = risk.batch_extinction_stats

        def spy(params, k_values, *args, **kwargs):
            calls.append(len(set(params)))
            return build(params, k_values, *args, **kwargs)

        monkeypatch.setattr(risk, "batch_extinction_stats", spy)
        monkeypatch.setattr(risk, "_CACHE", OrderedDict())
        betas = tuple(1.2345e-4 * (1 + i) for i in range(CACHE_SIZE + 1))
        spec = small_spec(sweep=("beta", betas), outputs=("p_star",),
                          horizon=1.0)
        rows = run(spec)
        assert len(rows) == CACHE_SIZE + 1
        assert calls == [CACHE_SIZE, 1]

    def test_sweep_over_n_steps_each_cap_once(self, monkeypatch):
        caps = []
        build = risk.batch_extinction_stats

        def spy(params, k_values, *args, **kwargs):
            caps.extend(p.n_nodes - k for p, k in zip(params, k_values))
            return build(params, k_values, *args, **kwargs)

        monkeypatch.setattr(risk, "batch_extinction_stats", spy)
        monkeypatch.setattr(risk, "_CACHE", OrderedDict())
        # two chunks, each of which grows the roster's one table
        n_values = tuple(float(n) for n in range(2, CACHE_SIZE + 4))
        spec = small_spec(sweep=("n_nodes", n_values), outputs=("p_star",),
                          horizon=1.25, dt=0.25)
        assert len(run(spec)) == CACHE_SIZE + 2
        assert sorted(caps) == list(range(CACHE_SIZE + 4))

    def test_invalid_p_value_raises(self):
        with pytest.raises(ValueError):
            run(small_spec(sweep=("p", (1.5,))))


class TestBuiltinSuite:
    def test_names_unique_and_lookup(self):
        suite = builtin_suite()
        names = [s.name for s in suite]
        assert len(names) == 7
        assert len(set(names)) == 7
        assert get_builtin("fig6_pstar_vs_n").name == "fig6_pstar_vs_n"
        with pytest.raises(KeyError):
            get_builtin("nope")

    def test_fig3_roster(self):
        spec = get_builtin("fig3_infection")
        b = spec.config.params
        assert (b.n_nodes, b.n_sources) == (100, 50)
        assert b.beta == b.gamma == 1e-3
        assert b.delta == b.delta_s == 0.1
        assert b.lambda_influence == 5e-6
        assert (b.x0, b.s0) == (0.0, 5.0)
        assert spec.sweep == ("p", (0.01, 0.1, 0.5))
        assert spec.outputs == ("trajectory",)

    def test_fig5_roster(self):
        spec = get_builtin("fig5_infection_prob")
        assert spec.config.params.lambda_influence == 1e-4
        assert spec.config.params.beta == 1e-3
        assert spec.sweep[0] == "p"
        assert "infection_probability" in spec.outputs

    def test_equilibrium_study_roster(self):
        spec = get_builtin("fig6_pstar_vs_n")
        b = spec.config.params
        assert (b.n_nodes, b.n_sources, b.s0) == (500, 50, 10.0)
        assert (b.beta, b.gamma) == (1e-4, 1e-3)
        assert b.lambda_influence == 1e-4
        assert spec.sweep[0] == "n_nodes"
        assert spec.sweep[1][0] == 100.0 and spec.sweep[1][-1] == 1000.0

    def test_fig8_grid(self):
        spec = get_builtin("fig8_pstar_vs_cost")
        costs = spec.sweep[1]
        assert costs[0] == 0.05 and costs[-1] == 0.9
        assert np.allclose(np.diff(costs), 0.05)
        assert spec.outputs == ("p_star", "u_c_star")

    def test_fig8_variants(self):
        variants = fig8_ratio_variants()
        assert [v.config.params.beta for v in variants] == [1e-4, 2e-4, 3e-4]
        assert len({v.name for v in variants}) == 3

    def test_fig9_roster(self):
        spec = get_builtin("fig9_x_vs_cost")
        assert spec.config.params.n_nodes == 100
        assert spec.sweep == ("update_cost", (0.05, 0.1, 0.2, 0.4))
        assert "trajectory" in spec.outputs
