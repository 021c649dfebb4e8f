import dataclasses

import numpy as np
import pytest

from virusgame import oracle
from virusgame.dynamics import SystemParams, ThresholdDistribution, integrate
from virusgame.oracle import (empirical_infection_probability,
                              mean_infected_path, simulate_ctmc)

EXP100 = ThresholdDistribution.exponential(100.0)

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

SMALL = dataclasses.replace(FIG3, n_nodes=30, n_sources=10, s0=3.0)


def scaled_params(n):
    """Supercritical system whose pairwise rates shrink as 1/N, so the
    mean-field limit is exact as N grows."""
    return SystemParams(n_nodes=n, n_sources=50, beta=0.15 / n,
                        gamma=0.05 / n, delta=0.1, delta_s=0.1,
                        lambda_influence=5e-6, x0=float(max(2, n // 12)),
                        s0=5.0, infection_cost=1.0, update_cost=0.1)


class TestSimulateCtmc:
    def test_deterministic_given_seed(self):
        a = simulate_ctmc(SMALL, EXP100, 5, seed=123, horizon=120.0)
        b = simulate_ctmc(SMALL, EXP100, 5, seed=123, horizon=120.0)
        assert a.events == b.events
        np.testing.assert_array_equal(a.x_path, b.x_path)
        np.testing.assert_array_equal(a.ever_infected, b.ever_infected)

    def test_seed_changes_realization(self):
        a = simulate_ctmc(SMALL, EXP100, 0, seed=1, horizon=120.0)
        b = simulate_ctmc(SMALL, EXP100, 0, seed=2, horizon=120.0)
        assert a.events != b.events

    def test_no_contact_no_infections(self):
        calm = dataclasses.replace(SMALL, beta=0.0, gamma=0.0, x0=2.0)
        res = simulate_ctmc(calm, EXP100, 0, seed=5, horizon=200.0)
        assert not any(e[1] == "infect" for e in res.events)
        assert res.cumulative_infections == 2

    def test_counts_stay_in_bounds(self):
        for seed in range(5):
            res = simulate_ctmc(SMALL, EXP100, 8, seed=seed, horizon=150.0)
            assert res.x_path.min() >= 0
            assert res.x_path.max() <= SMALL.n_nodes - 8
            assert res.s_path.min() >= 0
            assert res.s_path.max() <= SMALL.n_sources

    def test_cumulative_matches_infect_events(self):
        res = simulate_ctmc(SMALL, EXP100, 0, seed=9, horizon=150.0)
        infects = sum(1 for e in res.events if e[1] == "infect")
        assert res.cumulative_infections == infects  # x0 = 0

    def test_protected_nodes_never_infected(self):
        res = simulate_ctmc(SMALL, EXP100, 12, seed=4, horizon=150.0)
        assert not res.ever_infected[:12].any()
        for _, kind, entity in res.events:
            if kind == "infect":
                assert entity >= 12

    def test_instant_thresholds_activate_all_sources(self):
        # hazard 1/mean = 1000: each source activates at rate 5e4
        dist = ThresholdDistribution.exponential(1e-3)
        eager = dataclasses.replace(SMALL, x0=2.0, s0=0.0, delta_s=0.0,
                                    lambda_influence=50.0, beta=0.0,
                                    gamma=0.0, delta=0.0)
        res = simulate_ctmc(eager, dist, 0, seed=3, horizon=50.0)
        assert res.s_path[-1] == eager.n_sources
        acts = sum(1 for e in res.events if e[1] == "src_activate")
        assert acts == eager.n_sources

    @pytest.mark.parametrize("dist, x0", [
        (ThresholdDistribution.uniform(0.0, 1e-9), 2.0),
        (ThresholdDistribution.weibull(0.5, 10.0), 0.0),
    ], ids=["uniform", "weibull"])
    def test_hazard_saturated_from_the_start_activates_no_source(self, dist,
                                                                 x0):
        """A hazard that is +inf at x0 (uniform with x0 >= hi, Weibull with
        shape < 1 at x0 = 0) is replaced by the last finite value, 0.0,
        while it stays +inf, as integrate does: with no infections neither
        the chain nor the ODE activates a source."""
        calm = dataclasses.replace(SMALL, x0=x0, beta=0.0, gamma=0.0,
                                   lambda_influence=50.0)
        res = simulate_ctmc(calm, dist, 0, seed=3, horizon=50.0)
        assert not any(e[1] == "src_activate" for e in res.events)
        assert res.s_path.max() == calm.s0
        ode = integrate(calm, 0.0, dist, horizon=50.0, dt=0.1)
        assert ode.hazard_saturated
        assert ode.s.max() == calm.s0

    def test_whole_float_counts_are_ints(self):
        whole = dataclasses.replace(SMALL, x0=2.0, s0=3.0)
        a = simulate_ctmc(whole, EXP100, 10.0, seed=6, horizon=120.0)
        b = simulate_ctmc(whole, EXP100, 10, seed=6, horizon=120.0)
        assert a.events == b.events
        np.testing.assert_array_equal(a.x_path, b.x_path)
        assert a.x_path[0] == 2 and a.s_path[0] == 3

    def test_fractional_k_protected_refused(self):
        with pytest.raises(ValueError,
                           match="k_protected must be a whole number"):
            simulate_ctmc(SMALL, EXP100, 2.5, seed=0, horizon=10.0)

    @pytest.mark.parametrize("field", ["x0", "s0"])
    @pytest.mark.parametrize("value", [2.5, 3.5])
    def test_fractional_start_refused(self, field, value):
        """The ODE starts at the fractional value itself; the chain would
        start elsewhere, so it refuses."""
        params = dataclasses.replace(SMALL, **{field: value})
        with pytest.raises(ValueError,
                           match=f"{field} must be a whole number"):
            simulate_ctmc(params, EXP100, 0, seed=0, horizon=10.0)

    def test_event_times_increase(self):
        res = simulate_ctmc(SMALL, EXP100, 0, seed=11, horizon=150.0)
        ts = [e[0] for e in res.events]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert (np.diff(res.times) > 0).all()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_ctmc(SMALL, EXP100, -1, seed=0, horizon=10.0)
        with pytest.raises(ValueError):
            simulate_ctmc(SMALL, EXP100, 0, seed=0, horizon=0.0)

    def test_event_cap_truncates(self, monkeypatch):
        monkeypatch.setattr(oracle, "EVENT_CAP", 10)
        busy = dataclasses.replace(SMALL, beta=0.02, x0=5.0)
        res = simulate_ctmc(busy, EXP100, 0, seed=0, horizon=1000.0)
        assert res.truncated
        assert len(res.events) == 10


class TestEmpiricalInfectionProbability:
    def test_full_protection_is_zero(self):
        est, se = empirical_infection_probability(
            SMALL, EXP100, SMALL.n_nodes, n_reps=100, seed=0, horizon=50.0)
        assert est == 0.0 and se == 0.0

    def test_rejects_too_few_reps(self):
        with pytest.raises(ValueError):
            empirical_infection_probability(SMALL, EXP100, 0, n_reps=99,
                                            seed=0, horizon=50.0)

    def test_estimate_and_error_sane(self):
        est, se = empirical_infection_probability(
            SMALL, EXP100, 0, n_reps=200, seed=21, horizon=200.0)
        assert 0.0 < est < 1.0
        assert 0.0 < se < 0.1

    def test_protection_lowers_estimate(self):
        lo, _ = empirical_infection_probability(
            SMALL, EXP100, 0, n_reps=200, seed=13, horizon=200.0)
        hi, _ = empirical_infection_probability(
            SMALL, EXP100, 20, n_reps=200, seed=13, horizon=200.0)
        assert hi < lo


class TestMeanFieldAgreement:
    def test_mean_path_grid(self):
        t, xbar = mean_infected_path(SMALL, EXP100, 0, n_reps=50, seed=2,
                                     horizon=100.0, dt=1.0)
        assert len(t) == 101
        assert (xbar >= 0.0).all()

    def test_convergence_in_system_size(self):
        """Replication-mean paths approach the ODE as N grows (rates scaled
        1/N so the deterministic limit is fixed)."""
        errors = []
        for n in (25, 50, 100):
            params = scaled_params(n)
            t, emp = mean_infected_path(params, EXP100, 0, n_reps=2000,
                                        seed=11, horizon=100.0, dt=1.0)
            ode = integrate(params, 0.0, EXP100, horizon=100.0, dt=0.1)
            model = np.interp(t, ode.t, ode.x)
            scale = max(model.max(), 1.0)
            errors.append(np.abs(emp - model).max() / scale)
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 0.15

    def test_source_activation_follows_the_ode(self):
        """Where activation matters (lambda = 0.05 against delta_s = 0.1,
        not the 5e-6 of the checks above) the replication means of x and s
        lie within 5 standard errors of the ODE at t = 5, 10, ..., 50.

        Exponential thresholds only: their hazard is the constant 1/mean,
        so every rate is linear in the counts and the ODE is the chain's
        mean-field limit (Kurtz 1970).  With uniform(0, 40) thresholds the
        hazard 1/(40 - cum) is nonlinear in an integer count of order 10,
        which is not a mean-field limit: the mean of h(cum) is not h of the
        mean, and the chain's mean s reads about 4 at t = 50 against the
        ODE's 1.46."""
        params = SystemParams(n_nodes=200, n_sources=50, beta=2e-4,
                              gamma=2e-3, delta=0.1, delta_s=0.1,
                              lambda_influence=0.05, x0=5.0, s0=0.0,
                              infection_cost=1.0, update_cost=0.1)
        dist = ThresholdDistribution.exponential(20.0)
        t_grid = np.arange(1, 11) * 5.0
        n_reps = 1000
        paths = np.empty((n_reps, 2, len(t_grid)))
        for rep in range(n_reps):
            res = simulate_ctmc(params, dist, 0, [0, rep], horizon=50.0)
            idx = np.searchsorted(res.times, t_grid, side="right") - 1
            paths[rep] = res.x_path[idx], res.s_path[idx]
        ode = integrate(params, 0.0, dist, horizon=50.0, dt=0.1)
        at = np.rint(t_grid / 0.1).astype(int)
        model = np.array([ode.x[at], ode.s[at]])
        std_error = paths.std(axis=0, ddof=1) / np.sqrt(n_reps)
        z = np.abs(paths.mean(axis=0) - model) / std_error
        assert z.max() < 5.0, z.round(2)
