import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import binom

from virusgame import equilibrium as eq
from virusgame.dynamics import SystemParams, ThresholdDistribution
from virusgame.equilibrium import gap_table
from virusgame.risk import risk_profile, risk_profiles

EXP100 = ThresholdDistribution.exponential(100.0)

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

SECTION_IV = SystemParams(n_nodes=500, n_sources=50, beta=1e-4, gamma=1e-3,
                          delta=0.1, delta_s=0.1, lambda_influence=1e-4,
                          x0=0.0, s0=10.0, infection_cost=1.0, update_cost=0.1)


def small_params(**overrides):
    base = SystemParams(n_nodes=5, n_sources=5, beta=0.0, gamma=0.0,
                        delta=0.1, delta_s=0.1, lambda_influence=0.0,
                        x0=0.0, s0=0.0, infection_cost=1.0, update_cost=0.5)
    return dataclasses.replace(base, **overrides)


def table_for_gaps(gaps, update_cost):
    """Risk table whose indifference gaps at I_c = 1 equal `gaps` (padded
    with a riskless last entry for k = N)."""
    return np.append(np.asarray(gaps) + update_cost, 0.0)


def bernstein_scan(gaps, n_points):
    """Independent dense evaluation of the expected-gap polynomial."""
    m = len(gaps) - 1
    p = np.linspace(0.0, 1.0, n_points)
    vals = np.zeros_like(p)
    for k, g in enumerate(gaps):
        vals += binom.pmf(k, m, p) * g
    return p, vals


def random_param_sets(count, seed):
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        n = int(rng.integers(20, 61))
        sets.append(SystemParams(
            n_nodes=n, n_sources=int(rng.integers(5, 31)),
            beta=float(rng.uniform(1e-4, 3e-3)),
            gamma=float(rng.uniform(1e-4, 3e-3)),
            delta=float(rng.uniform(0.05, 0.3)),
            delta_s=float(rng.uniform(0.05, 0.3)),
            lambda_influence=float(rng.uniform(0.0, 1e-3)),
            x0=0.0, s0=float(rng.integers(1, 6)),
            infection_cost=1.0,
            update_cost=float(rng.uniform(0.02, 0.3))))
    return sets


PMF_SIZES = (0, 1, 2, 5, 199, 499, 999)
PMF_EDGE_PS = (0.0, 1.0, 1e-300, 1.0 - 1e-16)
PMF_PS = np.concatenate([PMF_EDGE_PS, np.linspace(0.0, 1.0, 101)])


class TestBinomPmf:
    """The numpy kernel against scipy.stats.binom, kept as the reference."""

    @pytest.mark.parametrize("m", PMF_SIZES)
    def test_column_matches_scipy(self, m):
        weights = eq._binom_pmf(m, PMF_PS[:, None])
        assert weights.shape == (len(PMF_PS), m + 1)
        expected = binom.pmf(np.arange(m + 1), m, PMF_PS[:, None])
        np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", PMF_SIZES)
    def test_scalar_matches_column_row(self, m):
        column = eq._binom_pmf(m, PMF_PS[:, None])
        for row, p in zip(column, PMF_PS):
            weights = eq._binom_pmf(m, p)
            assert weights.shape == (m + 1,)
            np.testing.assert_array_equal(weights, row)

    @pytest.mark.parametrize("m", PMF_SIZES)
    def test_log_choose_rounds_exact_coefficients_once(self, m):
        expected = [math.log(math.comb(m, k)) for k in range(m + 1)]
        row = eq._log_choose(m)
        np.testing.assert_array_equal(row, expected)
        assert not row.flags.writeable

    @pytest.mark.parametrize("m", (1, 5, 999))
    def test_edges_are_one_hot(self, m):
        one_hot = np.zeros(m + 1)
        one_hot[0] = 1.0
        np.testing.assert_array_equal(eq._binom_pmf(m, 0.0), one_hot)
        np.testing.assert_array_equal(eq._binom_pmf(m, 1.0), one_hot[::-1])

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in PMF_SIZES:
                eq._binom_pmf(m, PMF_PS[:, None])
                for p in PMF_EDGE_PS:
                    eq._binom_pmf(m, p)


def _run_fresh(code, *args):
    """stdout of code run in a fresh interpreter that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(eq.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    """scipy is a test dependency only; importing it costs about a second
    of every CLI call's start-up."""
    code = ("import sys, virusgame, virusgame.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _run_fresh(code).strip() == "[]"


def test_only_the_oracle_loads_numpy_random(tmp_path):
    """numpy.random brings secrets, hashlib and OpenSSL, some 6 MB of every
    process that loads it: a sweep and an equilibrium never do, and the
    first oracle replication does."""
    config = {"n_nodes": 20, "n_sources": 5, "beta": 1e-3, "gamma": 1e-3,
              "delta": 0.1, "delta_s": 0.1, "lambda_influence": 5e-6,
              "x0": 0.0, "s0": 2.0, "infection_cost": 1.0,
              "update_cost": 0.1, "horizon": 50.0, "dt": 0.1}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "tiny", "config": config,
        "sweep": {"param": "p", "values": [0.1, 0.5]},
        "outputs": ["infection_probability", "p_star"]}))
    code = textwrap.dedent("""\
        import sys, virusgame, virusgame.cli
        from virusgame.config import load_config
        config, spec, out = sys.argv[1:]
        assert virusgame.cli.main(["sweep", "--spec", spec, "--out", out]) == 0
        assert virusgame.cli.main(["equilibrium", "--config", config]) == 0
        print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
        cfg = load_config(config)
        virusgame.simulate_ctmc(cfg.params, cfg.dist, 0, 1, 10.0)
        print("numpy.random" in sys.modules)
        """)
    lines = _run_fresh(code, str(config_path), str(spec_path),
                       str(tmp_path / "out")).splitlines()
    assert lines[-2:] == ["[]", "True"]


class TestPureNE:
    def test_cost_dominates_nobody_updates(self):
        params = small_params(update_cost=1.5)
        risk = np.linspace(1.0, 0.0, 6)
        assert eq.pure_ne(risk, params) == eq.Pure(0)

    def test_no_contact_nobody_updates(self):
        params = dataclasses.replace(FIG3, beta=0.0, gamma=0.0)
        risk = risk_profile(params, EXP100, horizon=200.0)
        assert eq.pure_ne(risk, params) == eq.Pure(0)

    def test_everyone_updates_when_risk_always_wins(self):
        params = small_params(update_cost=0.01)
        risk = np.full(6, 0.9)
        assert eq.pure_ne(risk, params) == eq.Pure(5)

    def test_fig3_crossing_verified_by_both_conditions(self):
        risk = risk_profile(FIG3, EXP100)
        psi = eq.pure_ne(risk, FIG3).psi
        n = FIG3.n_nodes

        def stay(k):  # payoff of a non-updater facing k updaters
            return -float(risk[k]) * FIG3.infection_cost
        update = -FIG3.update_cost  # an updater's payoff, whatever k is

        # brute-force check of both equilibrium conditions over every k
        for k in range(n + 1):
            cond1 = k == 0 or stay(k - 1) <= update
            cond2 = k == n or stay(k) >= update
            assert (cond1 and cond2) == (k == psi)

    def test_non_monotone_table_rejected(self):
        params = small_params(update_cost=0.5)
        risk = np.array([0.9, 0.2, 0.8, 0.1, 0.05, 0.0])
        with pytest.raises(RuntimeError, match="uniqueness"):
            eq.pure_ne(risk, params)

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            eq.pure_ne(np.array([0.5, 0.4]), small_params())


class TestMixedNE:
    def test_constant_positive_gap_everyone_updates(self):
        params = small_params(update_cost=0.1)
        risk = np.full(6, 0.4)  # gap = +0.3 at every k
        result = eq.mixed_ne(risk, params)
        assert result == eq.NoInteriorEquilibrium(1)

    def test_constant_negative_gap_nobody_updates(self):
        params = small_params(update_cost=0.5)
        risk = np.full(6, 0.2)
        assert eq.mixed_ne(risk, params) == eq.NoInteriorEquilibrium(0)

    def test_hand_built_gap_against_dense_scan(self):
        gaps = np.array([0.3, 0.1, -0.1, -0.3, -0.5])
        params = small_params(update_cost=0.5)
        risk = table_for_gaps(gaps, 0.5)
        result = eq.mixed_ne(risk, params)
        assert isinstance(result, eq.FullyMixed)
        assert abs(result.residual) <= 1e-9

        p_grid, vals = bernstein_scan(gaps, 1_000_000)
        p_oracle = p_grid[np.argmin(np.abs(vals))]
        assert result.p_star == pytest.approx(p_oracle, abs=1e-5)

    def test_single_sign_change_on_scan(self):
        risk = risk_profile(FIG3, EXP100)
        gaps = gap_table(risk, FIG3)[:FIG3.n_nodes]
        _, vals = bernstein_scan(gaps, 1000)
        signs = np.sign(vals[vals != 0.0])
        assert (np.diff(signs) != 0).sum() == 1

    def test_root_in_first_nonpositive_cell_of_dense_scan(self):
        """The binary search picks the cell the 1000-point scan would."""
        rng = np.random.default_rng(20261018)
        solved = 0
        while solved < 200:
            n = int(rng.integers(2, 81))
            gaps = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
            if rng.random() < 0.5:
                gaps = np.round(gaps, 1)  # flat runs: ties in the table
            if not gaps[0] > 0 > gaps[-1]:
                continue
            params = small_params(n_nodes=n)
            risk = table_for_gaps(gaps, 0.5)
            result = eq.mixed_ne(risk, params)
            assert isinstance(result, eq.FullyMixed)
            p_grid, vals = bernstein_scan(gap_table(risk, params)[:n], 1000)
            idx = int(np.flatnonzero(vals <= 0)[0])
            assert p_grid[idx - 1] <= result.p_star <= p_grid[idx], gaps
            solved += 1

    def test_boundary_reasons_give_gap_sign(self):
        up = eq.mixed_ne(np.full(6, 0.4), small_params(update_cost=0.1))
        assert "gap at p=1 is 0.3 >= 0" in up.reason
        down = eq.mixed_ne(np.full(6, 0.2), small_params(update_cost=0.5))
        assert "gap at p=0 is -0.3 <= 0" in down.reason

    def test_nonmonotone_polynomial_detected(self):
        # gap dips negative then recovers: sign pattern -,+ must be refused
        gaps = np.array([0.5, -2.0, -2.0, 2.5, -0.6])
        params = small_params(update_cost=0.5)
        with pytest.raises(RuntimeError, match="not monotone"):
            eq.mixed_ne(table_for_gaps(gaps, 0.5), params)

    def test_rising_table_with_interior_root_refused(self):
        # the polynomial still changes sign once, but the table rises at k=2
        gaps = np.array([0.3, 0.1, 0.11, -0.3, -0.5])
        with pytest.raises(RuntimeError, match=r"gap\[2\] > gap\[1\]"):
            eq.mixed_ne(table_for_gaps(gaps, 0.5), small_params())

    def test_residual_tolerance_met_on_real_table(self):
        risk = risk_profile(FIG3, EXP100)
        result = eq.mixed_ne(risk, FIG3)
        assert isinstance(result, eq.FullyMixed)
        assert abs(result.residual) <= 1e-9
        assert 0.0 < result.p_star < 1.0


@pytest.mark.parametrize("solve", [
    eq.pure_ne, eq.mixed_ne, partial(eq.mixer_nonmixer_ne, 0, 0)],
    ids=["pure", "mixed", "mixer"])
def test_non_finite_risk_refused(solve):
    risk = np.array([0.9, np.nan, 0.5, 0.4, 0.3, 0.0])
    with pytest.raises(ValueError, match="k=1 is not finite"):
        solve(risk, small_params())


# float.hex of (p_star, residual), recorded with the solver that scanned all
# 1000 grid points; the binary search over the same grid must match them
SOLVER_GOLDEN = {
    "fig3_mixed": ("0x1.e697c27f9d990p-2", "-0x1.bda0bee6e0000p-31"),
    "section_iv_n200_h200_mixed":
        ("0x1.7dad097b425ecp-1", "-0x1.f66d93d1fe889p-39"),
    "fig3_cost0.08_mixer_5_10":
        ("0x1.4cfe0419a028ep-1", "0x1.e508ae82bff0cp-34"),
}


def _solver_case(name):
    if name == "fig3_mixed":
        return eq.mixed_ne(risk_profile(FIG3, EXP100), FIG3)
    if name == "section_iv_n200_h200_mixed":
        params = dataclasses.replace(SECTION_IV, n_nodes=200)
        return eq.mixed_ne(risk_profile(params, EXP100, horizon=200.0),
                           params)
    params = dataclasses.replace(FIG3, update_cost=0.08)
    return eq.mixer_nonmixer_ne(5, 10, risk_profile(params, EXP100), params)


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDEN))
def test_solver_bits_are_pinned(name):
    result = _solver_case(name)
    assert (result.p_star.hex(), result.residual.hex()) == SOLVER_GOLDEN[name]


class TestMixerNonMixer:
    def test_no_pure_players_reduces_to_fully_mixed(self):
        risk = risk_profile(FIG3, EXP100)
        mixed = eq.mixed_ne(risk, FIG3)
        mixer = eq.mixer_nonmixer_ne(0, 0, risk, FIG3)
        assert isinstance(mixer, eq.MixerProfile)
        assert abs(mixer.p_star - mixed.p_star) <= 1e-9

    def test_reduction_on_random_parameter_sets(self):
        sets = random_param_sets(5, seed=20240817)
        for params, risk in zip(sets, risk_profiles(sets, EXP100,
                                                    horizon=400.0)):
            mixed = eq.mixed_ne(risk, params)
            mixer = eq.mixer_nonmixer_ne(0, 0, risk, params)
            if isinstance(mixed, eq.NoInteriorEquilibrium):
                assert isinstance(mixer, eq.NoInteriorEquilibrium)
                assert mixer.boundary == mixed.boundary
            else:
                assert abs(mixer.p_star - mixed.p_star) <= 1e-9

    def test_rejection_constraints_small_grid(self):
        params = dataclasses.replace(FIG3, n_nodes=30)
        risk = risk_profile(params, EXP100, horizon=400.0)
        psi = eq.pure_ne(risk, params).psi
        for n_u in range(0, 12):
            for n_nu in range(0, 12):
                result = eq.mixer_nonmixer_ne(n_u, n_nu, risk, params)
                feasible = n_u < psi and n_u + n_nu <= params.n_nodes - 2
                if not feasible:
                    assert isinstance(result, eq.NoInteriorEquilibrium)
                    assert result.reason != ""
        # n_u + n_nu = N - 1 and N leave fewer than two mixers; psi = 0
        # above, so a cheaper update (same table) puts every n_u below psi
        cheap = dataclasses.replace(params, update_cost=0.05)
        assert eq.pure_ne(risk, cheap).psi >= 12
        for n_u in range(0, 12):
            for n_nu in (params.n_nodes - 1 - n_u, params.n_nodes - n_u):
                result = eq.mixer_nonmixer_ne(n_u, n_nu, risk, cheap)
                assert isinstance(result, eq.NoInteriorEquilibrium)
                assert "fewer than two mixers" in result.reason

    def test_interior_profile_within_constraints(self):
        params = dataclasses.replace(FIG3, update_cost=0.08)
        risk = risk_profile(params, EXP100)
        psi = eq.pure_ne(risk, params).psi
        assert psi > 5
        result = eq.mixer_nonmixer_ne(5, 10, risk, params)
        assert isinstance(result, eq.MixerProfile)
        assert abs(result.residual) <= 1e-9
        assert not result.stability_violation

    def test_invalid_counts_rejected(self):
        risk = np.linspace(1.0, 0.0, 6)
        with pytest.raises(ValueError):
            eq.mixer_nonmixer_ne(-1, 0, risk, small_params())
        with pytest.raises(ValueError):
            eq.mixer_nonmixer_ne(3, 4, risk, small_params())


class TestEpidemicThreshold:
    def test_subthreshold_dies_out(self):
        params = dataclasses.replace(FIG3, beta=1e-4)
        tau_c, dies = eq.epidemic_threshold(params)
        assert tau_c == pytest.approx(1.0 / 99.0)
        assert dies

    def test_smallest_graph(self):
        params = small_params(n_nodes=2)
        tau_c, _ = eq.epidemic_threshold(params)
        assert tau_c == 1.0

    def test_boundary_is_strict(self):
        params = dataclasses.replace(FIG3, n_nodes=1001, beta=1e-4, delta=0.1)
        _, dies = eq.epidemic_threshold(params)
        assert not dies  # beta/delta == tau_c exactly: survives

    def test_zero_curing_convention(self):
        params = dataclasses.replace(FIG3, delta=0.0)
        _, dies = eq.epidemic_threshold(params)
        assert not dies
        calm = dataclasses.replace(FIG3, delta=0.0, beta=0.0)
        _, dies = eq.epidemic_threshold(calm)
        assert dies


class TestCostGain:
    def test_endpoints(self):
        assert eq.cost_gain(0.0) == 1.0
        assert eq.cost_gain(1.0) == 0.0

    def test_identity(self):
        rng = np.random.default_rng(3)
        for p in rng.uniform(0.0, 1.0, 100):
            assert eq.cost_gain(p) + p == 1.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            eq.cost_gain(1.5)


class TestCriticalUpdateCost:
    def test_free_infection_means_zero(self):
        params = dataclasses.replace(FIG3, infection_cost=0.0)
        assert eq.critical_update_cost(params, EXP100, 200.0, 0.1) == 0.0

    def test_certain_infection_costs_full_price(self):
        # supercritical with a seed infection: P_i(0) saturates at 1
        params = dataclasses.replace(FIG3, beta=5e-3, x0=5.0)
        u_star = eq.critical_update_cost(params, EXP100, 1000.0, 0.1)
        assert u_star == pytest.approx(params.infection_cost, abs=1e-6)

    def test_equilibrium_flips_at_critical_cost(self):
        u_star = eq.critical_update_cost(FIG3, EXP100, 1000.0, 0.1)
        risk = risk_profile(FIG3, EXP100)
        below = dataclasses.replace(FIG3, update_cost=u_star - 1e-6)
        above = dataclasses.replace(FIG3, update_cost=u_star + 1e-6)
        assert not isinstance(eq.mixed_ne(risk, below), eq.NoInteriorEquilibrium)
        assert eq.mixed_ne(risk, above) == eq.NoInteriorEquilibrium(0)

    def test_increases_with_contact_ratio(self):
        rosters = [dataclasses.replace(FIG3, beta=beta)
                   for beta in (5e-4, 1e-3, 2e-3)]
        # one batch builds the three tables; each call below reads its own
        risk_profiles(rosters, EXP100, 1000.0, 0.1)
        values = [eq.critical_update_cost(params, EXP100, 1000.0, 0.1)
                  for params in rosters]
        assert values[0] < values[1] < values[2]
