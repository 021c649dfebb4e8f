import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

from virusgame import risk
from virusgame.dynamics import (SystemParams, ThresholdDistribution,
                                Trajectory, batch_extinction_stats, integrate)
from virusgame.risk import (infection_probability, remaining_risk,
                            risk_profile, risk_profiles)

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

EXP100 = ThresholdDistribution.exponential(100.0)


# FIG3 with beta*N above delta from N=20 on: its tables hold columns that
# go extinct and columns that truncate
CAP_ROSTER = dataclasses.replace(FIG3, beta=5e-3, lambda_influence=1e-3)


def _batch_widths(monkeypatch):
    """The column count of every batch the risk cache runs from now on."""
    widths = []
    build = risk.batch_extinction_stats

    def spy(params, k_values, *args, **kwargs):
        widths.append(len(k_values))
        return build(params, k_values, *args, **kwargs)

    monkeypatch.setattr(risk, "batch_extinction_stats", spy)
    return widths


def _cold(monkeypatch, params, dist):
    """params' table at horizon 200, built from an empty cache."""
    monkeypatch.setattr(risk, "_CACHE", OrderedDict())
    return risk_profile(params, dist, horizon=200.0)


def _after(monkeypatch, first, then, dist=EXP100):
    """then's table read right after first's was built from an empty
    cache, the widths of the batches that read ran, and then's table
    built from an empty cache."""
    cold = _cold(monkeypatch, then, dist)
    _cold(monkeypatch, first, dist)
    widths = _batch_widths(monkeypatch)
    return risk_profile(then, dist, horizon=200.0), widths, cold


def _flat_trajectory(x, s, horizon, n, extinct=None):
    t = np.linspace(0.0, horizon, n)
    return Trajectory(t=t, x=np.full(n, x), s=np.full(n, s),
                      x_bar=np.full(n, x), extinction_time=extinct)


class TestInfectionProbability:
    def test_all_zero_trajectory(self):
        traj = _flat_trajectory(0.0, 0.0, 100.0, 1001, extinct=0.0)
        risk = infection_probability(traj, FIG3)
        assert risk.p_infect == 0.0
        assert risk.hazard_integral == 0.0

    def test_constant_source_closed_form(self):
        # X = 0, S = s_bar held over [0, T]: p = 1 - exp(-gamma*s_bar*T)
        s_bar, horizon = 3.0, 50.0
        traj = _flat_trajectory(0.0, s_bar, horizon, 5001)
        risk = infection_probability(traj, FIG3)
        assert risk.truncated
        assert risk.p_infect == pytest.approx(
            1.0 - np.exp(-FIG3.gamma * s_bar * horizon), rel=1e-9)

    def test_truncated_uses_horizon(self):
        traj = integrate(FIG3, 0.0, EXP100, horizon=100.0, dt=0.1)
        risk = infection_probability(traj, FIG3)
        assert risk.truncated
        assert risk.t_f == pytest.approx(100.0)

    def test_quadrature_refinement(self):
        coarse = infection_probability(
            integrate(FIG3, 10.0, EXP100, horizon=300.0, dt=0.1), FIG3)
        fine = infection_probability(
            integrate(FIG3, 10.0, EXP100, horizon=300.0, dt=0.05), FIG3)
        assert abs(coarse.p_infect - fine.p_infect) < 1e-3

    def test_empty_trajectory_rejected(self):
        empty = Trajectory(t=np.array([]), x=np.array([]), s=np.array([]),
                           x_bar=np.array([]), extinction_time=None)
        with pytest.raises(ValueError):
            infection_probability(empty, FIG3)

    def test_negative_samples_rejected(self):
        traj = _flat_trajectory(-1.0, 0.0, 10.0, 11)
        for read in (infection_probability, remaining_risk):
            with pytest.raises(ValueError, match="negative samples"):
                read(traj, FIG3)

    def test_extinction_off_the_grid_rejected(self):
        traj = _flat_trajectory(1.0, 0.0, 10.0, 11, extinct=2.5)
        for read in (infection_probability, remaining_risk):
            with pytest.raises(ValueError, match="not a sample time"):
                read(traj, FIG3)

    def test_uneven_grid_rejected(self):
        # one step of 1 then one of 2: read as two steps of 1, the hazard
        # integral would be 0.002 where the trapezoid over the grid is 0.003
        traj = Trajectory(t=np.array([0.0, 1.0, 3.0]), x=np.zeros(3),
                          s=np.ones(3), x_bar=np.zeros(3),
                          extinction_time=None)
        for read in (infection_probability, remaining_risk):
            with pytest.raises(ValueError, match="not uniform"):
                read(traj, FIG3)

    def test_no_contact_no_risk(self):
        params = dataclasses.replace(FIG3, beta=0.0, gamma=0.0)
        traj = integrate(params, 0.0, EXP100, horizon=100.0, dt=0.1)
        assert infection_probability(traj, params).p_infect == 0.0


class TestRemainingRisk:
    def test_starts_at_total_and_vanishes(self):
        traj = integrate(FIG3, 10.0, EXP100)
        total = infection_probability(traj, FIG3).p_infect
        rr = remaining_risk(traj, FIG3)
        assert rr[0] == pytest.approx(total, rel=1e-9)
        assert rr[-1] == pytest.approx(0.0, abs=1e-12)
        assert (np.diff(rr) <= 1e-12).all()


class TestRiskProfile:
    def test_fully_protected_is_riskless(self):
        table = risk_profile(FIG3, EXP100, horizon=200.0)
        assert table[FIG3.n_nodes] == 0.0

    def test_monotone_nonincreasing_fig3(self):
        table = risk_profile(FIG3, EXP100)
        assert (np.diff(table) <= 1e-10).all()
        assert (table >= 0.0).all() and (table <= 1.0).all()

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(beta=5e-4), dict(beta=2e-3), dict(gamma=5e-4), dict(gamma=2e-3),
        dict(delta=0.05), dict(delta=0.2), dict(delta_s=0.05),
        dict(delta_s=0.2), dict(s0=2.0), dict(s0=10.0), dict(x0=3.0),
        dict(n_nodes=40), dict(n_nodes=60), dict(n_sources=20),
        dict(lambda_influence=1e-4), dict(lambda_influence=1e-3),
        dict(beta=2e-3, delta=0.05), dict(gamma=2e-3, s0=8.0),
        dict(beta=5e-4, gamma=2e-3, delta_s=0.05),
    ])
    def test_monotone_on_parameter_grid(self, overrides):
        small = dataclasses.replace(FIG3, n_nodes=30, **{
            k: v for k, v in overrides.items() if k != "n_nodes"})
        if "n_nodes" in overrides:
            small = dataclasses.replace(small, n_nodes=overrides["n_nodes"])
        table = risk_profile(small, EXP100, horizon=400.0)
        assert (np.diff(table) <= 1e-9).all()

    def test_matches_scalar_pipeline(self):
        table = risk_profile(FIG3, EXP100, horizon=300.0)
        for k in [0, 10, 50, 99]:
            traj = integrate(FIG3, float(k), EXP100, horizon=300.0, dt=0.1)
            direct = infection_probability(traj, FIG3).p_infect
            assert table[k] == direct

    def test_memoized_across_costs(self, monkeypatch):
        a = risk_profile(FIG3, EXP100, horizon=200.0)
        widths = _batch_widths(monkeypatch)
        b = risk_profile(dataclasses.replace(FIG3, update_cost=0.7),
                         EXP100, horizon=200.0)
        assert widths == []
        assert a.tobytes() == b.tobytes()

    def test_tables_are_read_only(self):
        table = risk_profile(FIG3, EXP100, horizon=200.0)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0

    def test_stacked_build_matches_lone_builds(self, monkeypatch):
        # at horizon 200 the N=20 and N=40 tables go extinct while N=150 is
        # supercritical and truncates at the horizon; the beta=2e-3 table
        # is a second roster
        rosters = [dataclasses.replace(FIG3, n_nodes=n) for n in (20, 150, 40)]
        rosters.append(dataclasses.replace(FIG3, n_nodes=30, beta=2e-3))
        lone = [_cold(monkeypatch, p, EXP100) for p in rosters]
        _, _, truncated, _ = batch_extinction_stats(
            rosters[1], np.arange(151), EXP100, horizon=200.0)
        assert truncated.any()

        monkeypatch.setattr(risk, "_CACHE", OrderedDict())
        widths = _batch_widths(monkeypatch)
        # a duplicate that differs only in cost is built once, and the
        # N=20 and N=40 tables are tails of the N=150 one
        stacked = risk_profiles(
            rosters + [dataclasses.replace(rosters[0], update_cost=0.7)],
            EXP100, horizon=200.0)
        assert widths == [151 + 31]
        for got, want in zip(stacked, lone + lone[:1]):
            assert got.tobytes() == want.tobytes()
        again = risk_profile(rosters[2], EXP100, horizon=200.0)
        assert widths == [182]
        assert again.tobytes() == lone[2].tobytes()

    @pytest.mark.parametrize("first,then,dist,want", [
        # a smaller N is a tail slice of the cached table
        (40, 20, EXP100, []),
        # a larger N steps only its missing caps
        (20, 40, EXP100, [20]),
        (20, 40, ThresholdDistribution.uniform(0.0, 40.0), [20]),
        (20, 40, ThresholdDistribution.weibull(0.7, 50.0), [20]),
    ], ids=["smaller", "larger-exponential", "larger-uniform",
            "larger-weibull"])
    def test_another_n_of_a_cached_roster(self, first, then, dist, want,
                                          monkeypatch):
        got, widths, cold = _after(
            monkeypatch, *(dataclasses.replace(CAP_ROSTER, n_nodes=n)
                           for n in (first, then)), dist)
        assert widths == want
        assert got.tobytes() == cold.tobytes()

    def test_one_call_steps_shared_caps_once(self, monkeypatch):
        monkeypatch.setattr(risk, "_CACHE", OrderedDict())
        widths = _batch_widths(monkeypatch)
        risk_profiles([dataclasses.replace(CAP_ROSTER, n_nodes=n)
                       for n in (20, 40)], EXP100, horizon=10.0)
        assert widths == [41]

    @pytest.mark.parametrize("name", ["x0", "s0", "beta", "gamma", "delta",
                                      "lambda_influence"])
    def test_signed_zeros_share_a_table(self, name, monkeypatch):
        """The cache key compares floats with ==, so a -0.0 reads the table
        of a 0.0; the two tables are the same bits."""
        got, widths, cold = _after(
            monkeypatch, *(dataclasses.replace(CAP_ROSTER, n_nodes=10,
                                               **{name: z})
                           for z in (0.0, -0.0)))
        assert widths == []
        assert got.tobytes() == cold.tobytes()

    def test_cache_evicts_the_least_recently_used_roster(self, monkeypatch):
        monkeypatch.setattr(risk, "_CACHE", OrderedDict())
        rosters = [dataclasses.replace(CAP_ROSTER, n_nodes=2, beta=1e-3 * i)
                   for i in range(risk.CACHE_SIZE + 1)]
        for p in rosters[:-1]:
            risk_profile(p, EXP100, horizon=1.0)
        risk_profile(rosters[0], EXP100, horizon=1.0)  # now roster 1 is LRU
        risk_profile(rosters[-1], EXP100, horizon=1.0)
        assert len(risk._CACHE) == risk.CACHE_SIZE
        widths = _batch_widths(monkeypatch)
        for p in (rosters[0], rosters[2], rosters[-1]):
            risk_profile(p, EXP100, horizon=1.0)
        assert widths == []
        risk_profile(rosters[1], EXP100, horizon=1.0)
        assert widths == [3]
