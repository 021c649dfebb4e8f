import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virusgame.dynamics import (DEFAULT_DIST, DEFAULT_PARAMS, SystemParams,
                                ThresholdDistribution, _ActivationRate,
                                batch_extinction_stats, integrate, step_count)
from virusgame.risk import infection_probability, risk_profile

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

EXP100 = ThresholdDistribution.exponential(100.0)

SOURCE_OVERSHOOT = SystemParams(n_nodes=2, n_sources=1, beta=0.0, gamma=1e-4,
                                delta=0.0, delta_s=0.0, lambda_influence=1.0,
                                x0=0.0, s0=1e-12, infection_cost=1.0,
                                update_cost=0.1)
WEIBULL_LOW = ThresholdDistribution.weibull(0.8, 5.0)
# FIG3 with beta*N above delta from N=20 on: its tables hold columns that
# go extinct and columns that truncate
CAP_ROSTER = dataclasses.replace(FIG3, beta=5e-3, lambda_influence=1e-3)


class TestThresholdDistribution:
    @pytest.mark.parametrize("dist", [
        ThresholdDistribution.exponential(10.0),
        ThresholdDistribution.uniform(2.0, 7.0),
        ThresholdDistribution.weibull(2.0, 5.0),
    ])
    def test_hazard_nonnegative_below_saturation(self, dist):
        x = np.linspace(0.0, 20.0, 200)
        h = np.asarray(dist.hazard(x))
        ok = np.isfinite(h)
        assert (h[ok] >= 0.0).all()

    def test_exponential_constant_hazard(self):
        dist = ThresholdDistribution.exponential(4.0)
        for x in [0.0, 1.0, 17.3, 1e4]:
            assert dist.hazard(x) == pytest.approx(0.25)

    def test_uniform_saturates(self):
        dist = ThresholdDistribution.uniform(0.0, 5.0)
        assert np.isinf(dist.hazard(5.0))
        assert np.isinf(dist.hazard(9.0))
        assert dist.hazard(4.0) == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThresholdDistribution.exponential(0.0)
        with pytest.raises(ValueError):
            ThresholdDistribution.uniform(3.0, 3.0)
        with pytest.raises(ValueError):
            ThresholdDistribution.weibull(-1.0, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        for make in (lambda: ThresholdDistribution.exponential(bad),
                     lambda: ThresholdDistribution.uniform(0.0, bad),
                     lambda: ThresholdDistribution.uniform(bad, 1.0),
                     lambda: ThresholdDistribution.weibull(bad, 2.0),
                     lambda: ThresholdDistribution.weibull(2.0, bad)):
            with pytest.raises(ValueError):
                make()

    # direct construction refuses what the classmethods refuse
    @pytest.mark.parametrize("kind, params, message", [
        ("exponential", (-1.0,), "mean must be positive"),
        ("uniform", (5.0, 1.0), "requires hi > lo"),
        ("weibull", (0.0, 1.0), "shape and scale must be positive"),
        ("gamma", (1.0,), "unknown threshold distribution kind 'gamma'"),
        ("exponential", (1.0, 2.0), "exponential takes 1 parameter"),
        ("exponential", "5", "sequence of numbers"),
        ("uniform", "05", "sequence of numbers"),
        ("exponential", 100.0, "sequence of numbers"),
        ("exponential", None, "sequence of numbers"),
        ("exponential", (True,), "sequence of numbers"),
        ("weibull", (2.0, False), "sequence of numbers"),
        ("exponential", (None,), "sequence of numbers"),
        ("exponential", ("100",), "sequence of numbers"),
        ("exponential", np.array(100.0), "sequence of numbers"),
        ("exponential", (10**400,), "sequence of numbers"),
        ("weibull", [2.0, [5.0]], "sequence of numbers"),
    ])
    def test_direct_construction_refused(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            ThresholdDistribution(kind, params)

    @pytest.mark.parametrize("params", [[100.0], (100,), np.array([100.0])])
    def test_params_stored_as_a_tuple_of_floats(self, params):
        dist = ThresholdDistribution("exponential", params)
        assert type(dist.params) is tuple and dist.params == (100.0,)
        assert all(type(v) is float for v in dist.params)
        assert dist == EXP100 and hash(dist) == hash(EXP100)
        np.testing.assert_array_equal(risk_profile(FIG3, dist, horizon=10.0),
                                      risk_profile(FIG3, EXP100, horizon=10.0))

    @pytest.mark.parametrize("make", [
        lambda: ThresholdDistribution.exponential("100"),
        lambda: ThresholdDistribution.uniform(0.0, None),
        lambda: ThresholdDistribution.weibull(True, 5.0)])
    def test_constructors_refuse_non_numbers(self, make):
        with pytest.raises(ValueError, match="sequence of numbers"):
            make()


class TestSystemParams:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            dataclasses.replace(FIG3, beta=-1e-3)

    def test_rejects_excess_initials(self):
        with pytest.raises(ValueError):
            dataclasses.replace(FIG3, x0=101.0)
        with pytest.raises(ValueError):
            dataclasses.replace(FIG3, s0=51.0)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            dataclasses.replace(FIG3, n_nodes=1)

    @pytest.mark.parametrize("field, value", [
        ("n_nodes", 30.5), ("n_sources", 2.5)])
    def test_rejects_fractional_counts(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be a whole number, got {value}"):
            dataclasses.replace(FIG3, **{field: value})

    def test_integral_float_counts_are_stored_as_ints(self):
        params = dataclasses.replace(FIG3, n_nodes=30.0, n_sources=10.0,
                                     s0=1.0)
        assert type(params.n_nodes) is type(params.n_sources) is int
        assert (params.n_nodes, params.n_sources) == (30, 10)
        assert len(risk_profile(params, EXP100, horizon=10.0)) == 31

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        for field in dataclasses.fields(SystemParams):
            with pytest.raises(ValueError, match=field.name):
                dataclasses.replace(FIG3, **{field.name: bad})


def first_step_slopes(params, k, dist=EXP100, dt=1e-6):
    """(dx, ds, dx_bar) at t=0, read off one RK4 step of length dt."""
    traj = integrate(params, k, dist, horizon=dt, dt=dt)
    return tuple((v[1] - v[0]) / dt for v in (traj.x, traj.s, traj.x_bar))


class TestRightHandSide:
    def test_all_quiet_no_motion(self):
        params = dataclasses.replace(FIG3, lambda_influence=0.0, x0=0.0,
                                     s0=0.0)
        traj = integrate(params, 0.0, EXP100, horizon=10.0, dt=0.1)
        for v in (traj.x, traj.s, traj.x_bar):
            assert np.all(v == 0.0)

    def test_direct_substitution(self):
        # X = 0, S = 5: the only inflow is gamma * S * N = 0.5
        dx, _, dxb = first_step_slopes(FIG3, 0.0)
        assert dx == pytest.approx(0.5, rel=1e-5)
        assert dxb == pytest.approx(0.5, rel=1e-5)

    def test_initial_slope_matches_source_forcing(self):
        # at t=0 with X(0)=0 the only inflow is source contacts
        for k in [0.0, 10.0, 50.0]:
            dx, _, _ = first_step_slopes(FIG3, k)
            assert dx == pytest.approx(
                FIG3.gamma * FIG3.s0 * (FIG3.n_nodes - k), rel=1e-5)

    def test_k_out_of_range(self):
        for k in (-1.0, FIG3.n_nodes + 1.0):
            with pytest.raises(ValueError):
                integrate(FIG3, k, EXP100, horizon=10.0)
            with pytest.raises(ValueError):
                batch_extinction_stats(FIG3, np.array([0.0, k]), EXP100,
                                       horizon=10.0)

    def test_saturated_hazard_uses_fallback(self):
        # x_bar starts past the uniform(0, 5) support, so the hazard is
        # saturated from the first stage on and the fallback (no earlier
        # finite value: 0) leaves pure source decay
        dist = ThresholdDistribution.uniform(0.0, 5.0)
        params = dataclasses.replace(FIG3, x0=10.0, s0=1.0,
                                     lambda_influence=1e-2)
        traj = integrate(params, 0.0, dist, horizon=50.0, dt=0.1)
        assert traj.hazard_saturated
        np.testing.assert_allclose(traj.s, np.exp(-FIG3.delta_s * traj.t),
                                   rtol=1e-8)


class TestIntegrate:
    def test_zero_initials_zero_influence(self):
        params = dataclasses.replace(FIG3, lambda_influence=0.0, s0=0.0, x0=0.0)
        traj = integrate(params, 0.0, EXP100, horizon=50.0, dt=0.1)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.s == 0.0)
        assert traj.extinction_time == 0.0

    def test_full_protection_pure_decay(self):
        params = dataclasses.replace(FIG3, x0=10.0, s0=0.0)
        traj = integrate(params, 100.0, EXP100, horizon=150.0, dt=0.1)
        np.testing.assert_allclose(traj.x, 10.0 * np.exp(-0.1 * traj.t),
                                   atol=1e-8)
        assert np.allclose(traj.x_bar, 10.0)
        assert traj.extinction_time is not None

    def test_protection_lowers_peak_and_speeds_decay(self):
        trajs = {p: integrate(FIG3, p * FIG3.n_nodes, EXP100) for p in (0.01, 0.1, 0.5)}
        assert trajs[0.01].x.max() > trajs[0.1].x.max() > trajs[0.5].x.max()
        # extinction, when reached, comes sooner with more protection
        assert trajs[0.5].extinction_time < trajs[0.1].extinction_time

    def test_boundedness_and_cumulative_monotone(self):
        for k in [0.0, 20.0, 60.0]:
            traj = integrate(FIG3, k, EXP100, horizon=300.0, dt=0.1)
            assert (traj.x >= 0.0).all()
            assert (traj.x <= FIG3.n_nodes - k + 1e-12).all()
            assert (traj.s >= 0.0).all()
            assert (traj.s <= FIG3.n_sources + 1e-12).all()
            assert (np.diff(traj.x_bar) >= -1e-12).all()

    def test_step_halving_peak_stable(self):
        coarse = integrate(FIG3, 10.0, EXP100, horizon=300.0, dt=0.1)
        fine = integrate(FIG3, 10.0, EXP100, horizon=300.0, dt=0.05)
        rel = abs(coarse.x.max() - fine.x.max()) / fine.x.max()
        assert rel < 0.005

    def test_exponential_hazard_closed_form_sources(self):
        # beta = gamma = 0 decouples S; constant hazard gives a linear ODE
        mean, lam = 50.0, 1e-2
        params = dataclasses.replace(FIG3, beta=0.0, gamma=0.0,
                                     lambda_influence=lam)
        dist = ThresholdDistribution.exponential(mean)
        traj = integrate(params, 0.0, dist, horizon=100.0, dt=0.1)
        rate = params.delta_s + lam / mean
        s_inf = lam / mean * params.n_sources / rate
        exact = s_inf + (params.s0 - s_inf) * np.exp(-rate * traj.t)
        np.testing.assert_allclose(traj.s, exact, atol=1e-8)

    @pytest.mark.parametrize("dist", [
        EXP100, ThresholdDistribution.weibull(2.0, 500.0)])
    @pytest.mark.parametrize("params", [
        FIG3,
        dataclasses.replace(FIG3, n_nodes=60, s0=3.0),
        dataclasses.replace(FIG3, beta=5e-4, gamma=2e-3),
        dataclasses.replace(FIG3, delta=0.05, delta_s=0.2),
    ])
    def test_protection_monotonicity_pointwise(self, params, dist):
        ks = [0.0, 5.0, 15.0, 40.0]
        trajs = [integrate(params, k, dist, horizon=200.0, dt=0.1) for k in ks]
        for lo, hi in zip(trajs, trajs[1:]):
            assert (hi.x <= lo.x + 1e-9).all()

    def test_hazard_saturation_flagged(self):
        dist = ThresholdDistribution.uniform(0.0, 5.0)
        params = dataclasses.replace(FIG3, lambda_influence=1e-2)
        traj = integrate(params, 0.0, dist, horizon=200.0, dt=0.1)
        assert traj.hazard_saturated
        assert traj.x_bar[-1] > 5.0

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            integrate(FIG3, 0.0, EXP100, horizon=0.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate(FIG3, 0.0, EXP100, horizon=1.0, dt=2.0)

    def test_horizon_must_be_whole_number_of_steps(self):
        # 1.0 / 0.3 would stop at t = 0.9
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate(FIG3, 0.0, EXP100, horizon=1.0, dt=0.3)
        with pytest.raises(ValueError, match="whole number of steps"):
            batch_extinction_stats(FIG3, np.arange(3), EXP100, horizon=1.0,
                                   dt=0.3)

    def test_non_finite_state_raises(self):
        blowup = dataclasses.replace(FIG3, beta=1e300, gamma=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite state at step 1 "):
                integrate(blowup, 0.0, EXP100, horizon=10.0)


# every (dt, horizon) pair of the builtin studies, the benchmark workloads,
# the CLI defaults and the tests
GRIDS = [(dt, h) for dt in (0.05, 0.1, 0.5)
         for h in (10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0,
                   600.0, 1000.0)]


@pytest.mark.parametrize("dt,horizon", GRIDS)
def test_step_count_accepts_grid(dt, horizon):
    assert step_count(horizon, dt) == round(horizon / dt)


@pytest.mark.parametrize("dt,horizon", [(1e-10, 1e300), (1e-300, 1e10)])
def test_step_count_refuses_an_overflowing_count(dt, horizon):
    with pytest.raises(ValueError, match="not a finite number of steps"):
        step_count(horizon, dt)


class TestBatchExtinctionStats:
    def test_non_finite_state_names_column_and_table(self):
        small = dataclasses.replace(FIG3, n_nodes=20)
        blowup = dataclasses.replace(FIG3, n_nodes=30, beta=1e300, gamma=1e300)
        params = [small] * 21 + [blowup] * 31
        k = np.concatenate([np.arange(21), np.arange(31)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError,
                               match="k_protected=0 in the table with n_nodes=30"):
                batch_extinction_stats(params, k, EXP100, horizon=10.0)

    def test_one_parameter_set_per_column(self):
        with pytest.raises(ValueError):
            batch_extinction_stats([FIG3] * 3, np.arange(4), EXP100,
                                   horizon=10.0)

    def test_k_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            batch_extinction_stats(FIG3, np.arange(4.0).reshape(2, 2), EXP100,
                                   horizon=10.0)

    @pytest.mark.parametrize("dist", [
        DEFAULT_DIST, ThresholdDistribution.weibull(2.0, 5.0)])
    def test_zero_columns(self, dist):
        got = batch_extinction_stats(DEFAULT_PARAMS, np.array([]), dist)
        assert [(a.dtype, a.shape) for a in got] == [
            (np.float64, (0,)), (np.float64, (0,)), (bool, (0,)),
            (bool, (0,))]

    @pytest.mark.parametrize("params,dist,horizon", [
        # x and s fall below eps/2 early on, then the source regrows x
        # past its first peak at t = 36.1
        (SystemParams(n_nodes=40, n_sources=10, beta=1e-3, gamma=1e-3,
                      delta=1.0, delta_s=25.0, lambda_influence=1e-2,
                      x0=0.0, s0=0.0, infection_cost=1.0, update_cost=0.1),
         ThresholdDistribution.exponential(1.0), 50.0),
        # x still rising at the horizon, t_f = 10
        (SystemParams(n_nodes=10, n_sources=10, beta=0.0, gamma=1e-3,
                      delta=0.1, delta_s=25.0, lambda_influence=1e-4,
                      x0=0.0, s0=0.0, infection_cost=1.0, update_cost=0.1),
         EXP100, 10.0),
        # a Weibull(0.8) hazard grows without bound as x_bar nears 0, so
        # with lambda = 1 the RK4 stages overshoot the source and a step
        # could lower x_bar: t_f = 0.2 at H = 0.2, truncated at H = 5.7
        (SOURCE_OVERSHOOT, WEIBULL_LOW, 0.2),
        (SOURCE_OVERSHOOT, WEIBULL_LOW, 5.7),
    ])
    def test_t_f_is_the_trajectorys(self, params, dist, horizon):
        """t_f is the first sample at or after the peak of x where
        x <= eps, however low x dips before the peak; a column that never
        gets there is truncated, with t_f = horizon."""
        t_f, integral, truncated, _ = batch_extinction_stats(
            params, np.array([0.0]), dist, horizon=horizon)
        traj = integrate(params, 0.0, dist, horizon=horizon)
        want = traj.extinction_time
        assert truncated[0] == (want is None)
        assert t_f[0] == (horizon if want is None else want)
        risk = infection_probability(traj, params)
        assert integral[0] == risk.hazard_integral

    @pytest.mark.parametrize("dist", [
        EXP100, ThresholdDistribution.uniform(0.0, 40.0),
        ThresholdDistribution.weibull(0.7, 50.0),
        ThresholdDistribution.weibull(2.5, 300.0)])
    def test_column_depends_on_n_minus_k_only(self, dist):
        """n_nodes and k enter a column only as the cap N - k: the table
        for N=20 is the last 21 entries of the table for N=40, bit for bit,
        built alone or stacked."""
        small, big = (dataclasses.replace(CAP_ROSTER, n_nodes=n)
                      for n in (20, 40))
        lone = [batch_extinction_stats(p, np.arange(p.n_nodes + 1), dist,
                                       horizon=200.0) for p in (small, big)]
        stacked = batch_extinction_stats(
            [small] * 21 + [big] * 41,
            np.concatenate([np.arange(21), np.arange(41)]), dist,
            horizon=200.0)
        for got, a, b in zip(stacked, *lone):
            assert got.tobytes() == np.concatenate([a, b]).tobytes()
            assert a.tobytes() == b[20:].tobytes()


@st.composite
def one_column(draw):
    """A one-column batch whose decay rates keep RK4 stable: delta*dt <= 1,
    delta_s*dt <= 1, and lambda <= 1e-2, which keeps the activation rate
    lambda*h small beside 1/dt even where a uniform or Weibull hazard
    grows without bound."""
    dt = draw(st.sampled_from([0.1, 0.5]))
    n = draw(st.integers(2, 60))
    n_s = draw(st.integers(1, 50))
    rate = st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])
    params = SystemParams(
        n_nodes=n, n_sources=n_s, beta=draw(rate), gamma=draw(rate),
        delta=draw(st.floats(0.0, 1.0 / dt)),
        delta_s=draw(st.floats(0.0, 1.0 / dt)),
        lambda_influence=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        x0=draw(st.sampled_from([0.0, 0.5, 2.0])),
        s0=draw(st.sampled_from([0.0, 1.0, float(n_s)])),
        infection_cost=1.0, update_cost=0.1)
    dist = draw(st.sampled_from([
        ThresholdDistribution.exponential(1.0), EXP100,
        ThresholdDistribution.uniform(0.0, 5.0),
        ThresholdDistribution.weibull(0.8, 5.0),
        ThresholdDistribution.weibull(2.0, 500.0)]))
    k = float(draw(st.integers(0, n)))
    return params, k, dist, dt * draw(st.integers(1, 200)), dt


@settings(max_examples=100, derandomize=True, deadline=None)
@given(one_column())
def test_batch_column_matches_integrate(case):
    params, k, dist, horizon, dt = case
    t_f, integral, truncated, _ = batch_extinction_stats(
        params, np.array([k]), dist, horizon=horizon, dt=dt)
    traj = integrate(params, k, dist, horizon=horizon, dt=dt)
    want = traj.extinction_time
    assert truncated[0] == (want is None)
    assert t_f[0] == (horizon if want is None else want)
    assert integral[0] == infection_probability(traj, params).hazard_integral


# With s0 = 0 and lambda = 0, s stays 0 and x is logistic:
# dx/dt = x*(r - beta*x) with r = beta*(N - k) - delta, so
#   x(t) = r*x0*e^(rt) / (r + beta*x0*(e^(rt) - 1)),
# the hazard integral of beta*x is H(t) = ln(1 + beta*x0*(e^(rt) - 1)/r),
# and x_bar = x + (delta/beta)*H, as x_bar' - x' = delta*x.
LOGISTIC = SystemParams(n_nodes=300, n_sources=10, beta=1e-3, gamma=1e-3,
                        delta=0.2, delta_s=0.1, lambda_influence=0.0,
                        x0=10.0, s0=0.0, infection_cost=1.0,
                        update_cost=0.1)


def _logistic(k, t):
    """Exact (x, x_bar, H) of LOGISTIC at protection k and times t."""
    p = LOGISTIC
    r = p.beta * (p.n_nodes - k) - p.delta
    grow = np.expm1(r * np.asarray(t))
    x = r * p.x0 * (grow + 1.0) / (r + p.beta * p.x0 * grow)
    hazard = np.log1p(p.beta * p.x0 * grow / r)
    return x, x + p.delta / p.beta * hazard, hazard


class TestExactLogistic:
    """Accuracy against the exact logistic solution, at dt = 0.2, 0.1 and
    0.05.  RK4 makes the state's error fall about 16-fold per halving of
    dt (its 4th order), and the trapezoid of the hazard makes P_i's fall
    about 4-fold (its 2nd order); each ratio must lie within 12.5% of
    that.  P_i is compared with 1 - exp(-H(t_f)) at the sampled t_f.
    Measured at dt = 0.1: state errors 6.1e-10 (r = -0.1) and 9.9e-9
    (r = +0.1), P_i errors 8.3e-7 and 3.4e-10 (P_i is near 1 there); the
    bounds below are about twice those."""

    # (k, horizon, state bound, P_i bound at dt = 0.1); r = -0.1 goes
    # extinct at t_f = 91.2, r = +0.1 settles at x = 100 and truncates
    CASES = {"subcritical": (200.0, 200.0, 1.5e-9, 1.7e-6),
             "supercritical": (0.0, 100.0, 2e-8, 7e-10)}
    DTS = (0.2, 0.1, 0.05)

    @staticmethod
    def _ratios(errors):
        return [a / b for a, b in zip(errors, errors[1:])]

    @pytest.mark.parametrize("case", CASES)
    def test_integrate(self, case):
        k, horizon, state_bound, p_bound = self.CASES[case]
        state_err, p_err = [], []
        for dt in self.DTS:
            traj = integrate(LOGISTIC, k, EXP100, horizon=horizon, dt=dt)
            assert not traj.s.any()
            x, x_bar, _ = _logistic(k, traj.t)
            state_err.append(max(np.abs(traj.x - x).max(),
                                 np.abs(traj.x_bar - x_bar).max()))
            risk = infection_probability(traj, LOGISTIC)
            assert risk.truncated == (case == "supercritical")
            want = -np.expm1(-_logistic(k, risk.t_f)[2])
            p_err.append(abs(risk.p_infect - want))
        assert state_err[1] < state_bound and p_err[1] < p_bound
        for ratio in self._ratios(state_err):
            assert 14.0 < ratio < 18.0
        for ratio in self._ratios(p_err):
            assert 3.5 < ratio < 4.5

    @pytest.mark.parametrize("case", CASES)
    def test_batch_column(self, case):
        k, horizon, _, p_bound = self.CASES[case]
        p_err = []
        for dt in self.DTS:
            t_f, integral, truncated, _ = batch_extinction_stats(
                LOGISTIC, np.array([k]), EXP100, horizon=horizon, dt=dt)
            assert truncated[0] == (case == "supercritical")
            want = -np.expm1(-_logistic(k, t_f[0])[2])
            p_err.append(abs(-np.expm1(-integral[0]) - want))
        assert p_err[1] < p_bound
        for ratio in self._ratios(p_err):
            assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")])
def test_bad_extinction_epsilon_refused(eps):
    with pytest.raises(ValueError, match="extinction_epsilon"):
        integrate(FIG3, 0.0, EXP100, horizon=10.0, extinction_epsilon=eps)
    with pytest.raises(ValueError, match="extinction_epsilon"):
        batch_extinction_stats(FIG3, np.arange(3), EXP100, horizon=10.0,
                               extinction_epsilon=eps)


# the activation rate lambda * h(x_bar) of both ODE loops and the oracle
RATE_DISTS = [EXP100, ThresholdDistribution.uniform(2.0, 7.0),
              WEIBULL_LOW, ThresholdDistribution.weibull(2.0, 5.0)]
RATE_LAM = 3e-3
# -0.0, 0.0, a negative value, NaN, lo and hi of the uniform, a point past
# hi and random points, unsorted so saturation and recovery interleave
RATE_GRID = np.concatenate([
    [-0.0, 0.0, -1.5, np.nan, 2.0, 7.0, 9.5, 1e-300],
    np.random.default_rng(26).uniform(-2.0, 12.0, 60)])


def _bits(v):
    return np.float64(v).tobytes()


class TestActivationRate:
    @pytest.mark.parametrize("dist", RATE_DISTS)
    def test_both_forms_are_lambda_times_the_hazard(self, dist):
        # one rate of each form over the whole grid: its saturated points
        # must not leak into a finite one.  of takes one lambda per column,
        # as _Stepper passes it
        at = _ActivationRate(dist, RATE_LAM).at
        of = _ActivationRate(dist, np.array([RATE_LAM])).of
        checked = 0
        for x in RATE_GRID:
            want = RATE_LAM * dist.hazard(np.array([x]))[0]
            got_at, got_of = at(x), of(np.array([x]))[0]
            if np.isfinite(want):
                assert _bits(got_at) == _bits(got_of) == _bits(want), x
                assert type(got_at) is float
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("dist", RATE_DISTS)
    def test_saturated_hazard_keeps_the_last_finite_value(self, dist):
        rate = _ActivationRate(dist, RATE_LAM)
        last = 0.0  # before any finite hazard
        for x in RATE_GRID:
            h = dist.hazard(np.array([x]))[0]
            was = bool(rate.saturated[0])
            got = rate.at(x)
            if np.isfinite(h):
                last = h
                assert bool(rate.saturated[0]) == was
            else:
                assert rate.saturated[0]
            assert _bits(got) == _bits(RATE_LAM * last), x

    def test_saturated_columns_are_marked_one_by_one(self):
        dist = ThresholdDistribution.uniform(2.0, 7.0)
        rate = _ActivationRate(dist, np.full(3, RATE_LAM), 3)
        got = rate.of(np.array([3.0, 7.0, 1.0]))
        np.testing.assert_array_equal(got, [RATE_LAM / 4.0, 0.0, 0.0])
        np.testing.assert_array_equal(rate.saturated, [False, True, False])
        # column 0 saturates with 1/4 kept; column 1 recovers
        got = rate.of(np.array([8.0, 6.0, 1.0]))
        np.testing.assert_array_equal(got, [RATE_LAM / 4.0, RATE_LAM, 0.0])
        np.testing.assert_array_equal(rate.saturated, [True, True, False])
        # a NaN hazard beside finite ones counts as saturated too
        got = rate.of(np.array([3.0, 6.5, np.nan]))
        np.testing.assert_array_equal(got, [RATE_LAM / 4.0, 2 * RATE_LAM, 0.0])
        np.testing.assert_array_equal(rate.saturated, [True, True, True])

    @pytest.mark.parametrize("dist", RATE_DISTS)
    def test_constant_only_for_exponential_at_nonnegative_x_bar(
            self, dist, monkeypatch):
        rate = _ActivationRate(dist, RATE_LAM)
        if dist.kind == "exponential":
            assert rate.const == RATE_LAM * (1.0 / dist.params[0])
        else:
            assert rate.const is None
        calls = []
        hazard = ThresholdDistribution.hazard

        def spy(self, x):
            calls.append(1)
            return hazard(self, x)

        monkeypatch.setattr(ThresholdDistribution, "hazard", spy)
        rates = _ActivationRate(dist, np.full(2, RATE_LAM), 2)
        for x in RATE_GRID:
            constant = rate.const is not None and x >= 0.0
            for form, arg, const in ((rate.at, x, rate.const),
                                     (rates.of, np.array([abs(x), x]),
                                      rates.const)):
                calls.clear()
                got = form(arg)
                assert (not calls) == constant, x
                if constant:
                    assert got is const

    def test_overflowing_constant_saturates(self):
        # 1/mean overflows: no constant, and the +inf hazard never
        # activates a source, so s decays from s0 = 10 at delta_s = 0.1
        assert _ActivationRate(
            ThresholdDistribution.exponential(1e-310), 1.0).const is None
        traj = integrate(DEFAULT_PARAMS, 0,
                         ThresholdDistribution.exponential(1e-310),
                         horizon=10.0)
        assert traj.hazard_saturated
        assert traj.s[-1] == 3.6787944120235534
