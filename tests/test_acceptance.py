"""Acceptance gate: ten numbered criteria, one printed verdict per criterion.

Each test computes its verdict, records a PASS/FAIL line (shown in the
terminal summary), and then asserts it.  Soft targets are reported inside
the line but only assert when the criterion states them as hard.
"""

import dataclasses
import json

import numpy as np
from scipy.stats import binom

from conftest import ACCEPTANCE_LINES
from virusgame import equilibrium as eq
from virusgame.cli import main as cli_main
from virusgame.dynamics import SystemParams, ThresholdDistribution, integrate
from virusgame.experiments import (FIG8_BETA_RATIOS, fig8_ratio_variants,
                                   get_builtin, run)
from virusgame.equilibrium import gap_table
from virusgame.oracle import (empirical_infection_probability,
                              mean_infected_path)
from virusgame.risk import (infection_probability, remaining_risk,
                            risk_profile, risk_profiles)

EXP100 = ThresholdDistribution.exponential(100.0)

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

SECTION_IV = SystemParams(n_nodes=500, n_sources=50, beta=1e-4, gamma=1e-3,
                          delta=0.1, delta_s=0.1, lambda_influence=1e-4,
                          x0=0.0, s0=10.0, infection_cost=1.0, update_cost=0.1)


def record(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_ode_oracle_agreement():
    params = dataclasses.replace(FIG3, n_nodes=50)
    horizon = 400.0
    t, emp = mean_infected_path(params, EXP100, 0, n_reps=2000, seed=42,
                                horizon=horizon, dt=1.0)
    ode = integrate(params, 0.0, EXP100, horizon=horizon, dt=0.1)
    model = np.interp(t, ode.t, ode.x)
    peak = int(np.argmax(model))
    rel_peak = abs(emp[peak] - model[peak]) / model[peak]
    max_abs = float(np.abs(emp - model).max())
    ok = rel_peak <= 0.10 and max_abs <= 0.1 * params.n_nodes
    record(1, ok, f"N=50 mean CTMC path vs ODE: peak rel err {rel_peak:.3f} "
           f"(<=0.10), max abs err {max_abs:.3f} (<=5.0), 2000 reps")


def test_criterion_02_fully_mixed_target():
    table = risk_profile(SECTION_IV, EXP100)
    result = eq.mixed_ne(table, SECTION_IV)
    interior = isinstance(result, eq.FullyMixed)
    residual_ok = interior and abs(result.residual) <= 1e-9

    # uniqueness: single sign change of the expected gap on a 1000-point scan
    gaps = gap_table(table, SECTION_IV)[:SECTION_IV.n_nodes]
    grid = np.linspace(0.0, 1.0, 1000)
    m = len(gaps) - 1
    vals = np.zeros_like(grid)
    for k, g in enumerate(gaps):
        vals += binom.pmf(k, m, grid) * g
    signs = np.sign(vals[vals != 0.0])
    unique = (np.diff(signs) != 0).sum() == 1

    p_star = result.p_star if interior else float("nan")
    soft_hit = interior and abs(p_star - 0.29) <= 0.05
    ok = interior and residual_ok and unique
    record(2, ok, f"N=500 mixed NE: interior={interior}, "
           f"|residual|<=1e-9={residual_ok}, unique sign change={unique}; "
           f"p*={p_star:.4f} (soft target 0.29+/-0.05: "
           f"{'hit' if soft_hit else 'missed'})")


def test_criterion_03_mixer_nonmixer():
    # rejection sweep: 20x20 grid at N = 60 spanning both constraints
    small = dataclasses.replace(FIG3, n_nodes=60)
    table60 = risk_profile(small, EXP100, horizon=400.0)
    psi = eq.pure_ne(table60, small).psi
    grid = list(range(0, 60, 3))  # 20 values covering 0..57
    rejections_ok = True
    for n_u in grid:
        for n_nu in grid:
            if n_u + n_nu > small.n_nodes:
                continue
            result = eq.mixer_nonmixer_ne(n_u, n_nu, table60, small)
            infeasible = n_u >= psi or n_u + n_nu > small.n_nodes - 2
            if infeasible and not (isinstance(result, eq.NoInteriorEquilibrium)
                                   and result.reason):
                rejections_ok = False

    table = risk_profile(SECTION_IV, EXP100)
    result = eq.mixer_nonmixer_ne(50, 70, table, SECTION_IV)
    interior = isinstance(result, eq.MixerProfile)
    p_star = result.p_star if interior else float("nan")
    soft_hit = interior and abs(p_star - 0.19) <= 0.05
    ok = rejections_ok and interior
    record(3, ok, f"mixer/non-mixer: rejection grid at N=60 "
           f"{'clean' if rejections_ok else 'violated'} (psi={psi}); "
           f"N=500 (n_u=50, n_nu=70) interior={interior}, p*={p_star:.4f} "
           f"(soft target 0.19+/-0.05: {'hit' if soft_hit else 'missed'}); "
           f"non-interior result: {result!r}" if not interior else
           f"mixer/non-mixer: rejection grid clean (psi={psi}); "
           f"p*={p_star:.4f} (soft 0.19+/-0.05 "
           f"{'hit' if soft_hit else 'missed'})")


def test_criterion_04_mixer_reduces_to_mixed():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    agree = True
    sets = [SystemParams(
        n_nodes=int(rng.integers(20, 61)),
        n_sources=int(rng.integers(5, 31)),
        beta=float(rng.uniform(1e-4, 3e-3)),
        gamma=float(rng.uniform(1e-4, 3e-3)),
        delta=float(rng.uniform(0.05, 0.3)),
        delta_s=float(rng.uniform(0.05, 0.3)),
        lambda_influence=float(rng.uniform(0.0, 1e-3)),
        x0=0.0, s0=float(rng.integers(1, 6)),
        infection_cost=1.0, update_cost=float(rng.uniform(0.02, 0.3)))
        for _ in range(20)]
    # one batch steps all 20 tables: a batch step costs nearly the same at
    # one column and at hundreds
    tables = risk_profiles(sets, EXP100, horizon=400.0)
    for params, table in zip(sets, tables):
        mixed = eq.mixed_ne(table, params)
        mixer = eq.mixer_nonmixer_ne(0, 0, table, params)
        if isinstance(mixed, eq.NoInteriorEquilibrium):
            if not (isinstance(mixer, eq.NoInteriorEquilibrium)
                    and mixer.boundary == mixed.boundary):
                agree = False
        else:
            diff = abs(mixer.p_star - mixed.p_star)
            worst = max(worst, diff)
            if diff > 1e-9:
                agree = False
    record(4, agree, f"mixer_nonmixer_ne(0,0) vs mixed_ne on 20 random "
           f"parameter sets: max |delta p*| = {worst:.2e} (<=1e-9)")


def test_criterion_05_monotonicity_suite():
    # P_i(k) nonincreasing
    table = risk_profile(FIG3, EXP100)
    risk_mono = bool((np.diff(table) <= 1e-10).all())

    # p* nondecreasing in N over the fig6 grid
    rows = run(get_builtin("fig6_pstar_vs_n"))
    p_by_n = [row["p_star"] for row in rows]
    n_mono = bool((np.diff(p_by_n) >= -1e-12).all())

    # p* nonincreasing in U_c, hitting exactly 0 at the computed U_c*
    base = get_builtin("fig8_pstar_vs_cost").config.params
    table_iv = risk_profile(base, EXP100)
    p_by_cost = []
    for cost in np.arange(0.05, 0.91, 0.05):
        params = dataclasses.replace(base, update_cost=float(cost))
        result = eq.mixed_ne(table_iv, params)
        p_by_cost.append(result.p_star if isinstance(result, eq.FullyMixed)
                         else float(result.boundary))
    cost_mono = bool((np.diff(p_by_cost) <= 1e-12).all())
    u_star = eq.critical_update_cost(base, EXP100)
    at_star = eq.mixed_ne(table_iv,
                          dataclasses.replace(base, update_cost=u_star))
    zero_at_star = (isinstance(at_star, eq.NoInteriorEquilibrium)
                    and at_star.boundary == 0)

    # U_c* increasing across three transmission/curing ratios
    variants = [spec.config.params for spec in fig8_ratio_variants()]
    # one batch builds the three tables; each call below reads its own
    risk_profiles(variants, EXP100)
    u_stars = [eq.critical_update_cost(params, EXP100) for params in variants]
    ratio_mono = u_stars[0] < u_stars[1] < u_stars[2]

    ok = risk_mono and n_mono and cost_mono and zero_at_star and ratio_mono
    record(5, ok, f"monotonicity: P_i(k) nonincr={risk_mono}; p* nondecr in N="
           f"{n_mono} ({p_by_n[0]:.3f}->{p_by_n[-1]:.3f}); p* nonincr in "
           f"U_c={cost_mono}, p*=0 at U_c*={u_star:.4f}: {zero_at_star}; "
           f"U_c* incr across beta ratios {FIG8_BETA_RATIOS}: {ratio_mono} "
           f"({', '.join(f'{u:.3f}' for u in u_stars)})")


def test_criterion_06_epidemic_threshold():
    rng = np.random.default_rng(6)
    grid_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 2001))
        beta = float(rng.uniform(1e-5, 1e-2))
        delta = float(rng.uniform(1e-3, 1.0))
        params = dataclasses.replace(FIG3, n_nodes=n, beta=beta, delta=delta,
                                     x0=0.0, s0=min(5.0, 50.0))
        _, dies = eq.epidemic_threshold(params)
        if dies != (delta / beta + 1.0 - n > 0):
            grid_ok = False

    # sub-threshold Fig3-style run (p = 0.1) goes extinct within the horizon
    tau_c, dies = eq.epidemic_threshold(FIG3)
    traj = integrate(FIG3, 10.0, EXP100)
    extinct = traj.extinction_time is not None
    ok = grid_ok and dies and extinct
    record(6, ok, f"threshold: 100-point randomized sign check "
           f"{'clean' if grid_ok else 'violated'}; Fig3-style beta/delta="
           f"{FIG3.beta / FIG3.delta:.3g} < tau_c={tau_c:.3g}, dies_out={dies}, "
           f"ODE extinction at t={traj.extinction_time}")


def test_criterion_07_gain_identity():
    rng = np.random.default_rng(7)
    ps = rng.uniform(0.0, 1.0, 1000)
    exact = all(eq.cost_gain(float(p)) == 1.0 - float(p) for p in ps)
    record(7, exact, "cost_gain(p) == 1 - p exactly for 1000 random p")


def test_criterion_08_figure_regression():
    details = []
    strict = True
    for name in ("fig3_infection", "fig4_sources"):
        rows = run(get_builtin(name))
        peaks = [row["trajectory"].x.max() for row in rows]
        finals = [row["trajectory"].s[-1] for row in rows]
        peak_dec = peaks[0] > peaks[1] > peaks[2]
        final_dec = finals[0] > finals[1] > finals[2]
        strict = strict and peak_dec and final_dec
        details.append(f"{name}: peakX strict decr={peak_dec}, "
                       f"terminal S strict decr={final_dec}")

    fig5 = get_builtin("fig5_infection_prob").config
    traj = integrate(fig5.params, 0.495 * fig5.params.n_nodes, fig5.dist,
                     horizon=fig5.horizon, dt=fig5.dt)
    rr = remaining_risk(traj, fig5.params)
    below = np.nonzero(rr < 1e-3)[0]
    vanished = len(below) > 0
    t_vanish = traj.t[below[0]] if vanished else float("nan")
    strict = strict and vanished
    details.append(f"fig5 p=0.495 running risk < 1e-3 at t={t_vanish:.1f} "
                   f"(reference time 230 reported, not asserted)")
    record(8, strict, "; ".join(details))


def test_criterion_09_cli_determinism(tmp_path):
    config = {
        "n_nodes": 30, "n_sources": 10, "beta": 1e-3, "gamma": 1e-3,
        "delta": 0.1, "delta_s": 0.1, "lambda_influence": 5e-6,
        "x0": 0.0, "s0": 3.0, "infection_cost": 1.0, "update_cost": 0.1,
        "horizon": 300.0, "dt": 0.1,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "toy", "config": config,
        "sweep": {"param": "p", "values": [0.1, 0.5]},
        "outputs": ["infection_probability", "p_star"]}))

    checks = {}

    def twice(label, argv, rel):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}_{tag}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            paths.append(out / rel)
        checks[label] = paths[0].read_bytes() == paths[1].read_bytes()

    twice("simulate", ["simulate", "--config", str(cfg), "--p", "0.2"],
          "trajectory.csv")
    twice("sweep", ["sweep", "--spec", str(spec)], "toy.csv")
    twice("oracle", ["oracle", "--config", str(cfg), "--reps", "100",
                     "--seed", "3"], "oracle_comparison.csv")
    ok = all(checks.values())
    record(9, ok, "CLI re-runs byte-identical: " +
           ", ".join(f"{k}={v}" for k, v in checks.items()))


def test_criterion_10_oracle_infection_probability():
    params = dataclasses.replace(FIG3, n_nodes=50)
    zs = {}
    for k in (0, 10, 25):
        emp, se = empirical_infection_probability(params, EXP100, k,
                                                  n_reps=2000, seed=7,
                                                  horizon=400.0)
        traj = integrate(params, float(k), EXP100, horizon=400.0, dt=0.1)
        model = infection_probability(traj, params).p_infect
        zs[k] = abs(emp - model) / se if se > 0 else 0.0
    ok = all(z <= 3.0 for z in zs.values())
    record(10, ok, "empirical vs model P_i within 3 SE at N=50: " +
           ", ".join(f"k={k}: z={z:.2f}" for k, z in zs.items()))
