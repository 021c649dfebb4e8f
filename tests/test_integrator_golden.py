"""Byte-identity of the RK4 integrator.

Every array ``integrate`` returns, and the 4-tuple of
``batch_extinction_stats``, is hashed over a small case matrix and compared
with a recorded SHA-256.  The digests pin every bit of every sample, the
sign of a zero included, so any change to the grouping of a floating-point
expression, to the clipping of the state or to when the hazard falls back
shows up here.  The matrix covers the three threshold kinds, protected and
unprotected populations, a nonzero initial infection, a saturating uniform
hazard, signed-zero initial values, a stiff case (delta * dt = 10) in
which an RK4 stage drives the cumulative count below zero, and stacked
multi-table batches whose columns go extinct, truncate at the horizon and
saturate, and whose tables share or differ in their source constants.
The CSV files of every builtin sweep, the three fig8 ratio variants
included, and of two ``virusgame simulate`` runs are hashed as well.  A
plain per-step RK4, one step and one bookkeeping update at a time, serves
as the reference for both integrators on a wider set of random cases.
"""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from virusgame import risk
from virusgame.cli import main
from virusgame.dynamics import (SystemParams, ThresholdDistribution,
                                _column_constants, batch_extinction_stats,
                                integrate)
from virusgame.experiments import builtin_suite, fig8_ratio_variants, run

FIG3 = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)
SECTION_IV = SystemParams(n_nodes=60, n_sources=50, beta=1e-4, gamma=1e-3,
                          delta=0.1, delta_s=0.1, lambda_influence=1e-4,
                          x0=0.0, s0=10.0, infection_cost=1.0,
                          update_cost=0.1)
# delta * dt = 10: the third RK4 stage of the first step overshoots x below
# zero, so the fourth stage sees a negative cumulative count
STIFF = dataclasses.replace(FIG3, delta=100.0, beta=0.1,
                            lambda_influence=1e-2)
# sources cross a uniform(0, 5) threshold range and the hazard saturates
SATURATING = dataclasses.replace(FIG3, lambda_influence=1e-2)
# -0.0 initials: integrate's clip keeps the sign of a zero and the batch
# clip does not, and trajectory CSVs print it
SIGNED_ZERO = dataclasses.replace(FIG3, x0=-0.0, s0=-0.0)

EXP100 = ThresholdDistribution.exponential(100.0)
UNIF = ThresholdDistribution.uniform(0.0, 50.0)
UNIF5 = ThresholdDistribution.uniform(0.0, 5.0)
WEIB = ThresholdDistribution.weibull(2.0, 500.0)
WEIB_LOW = ThresholdDistribution.weibull(0.8, 50.0)

# name -> (params, k_protected, dist, horizon, dt)
INTEGRATE_CASES = {
    "exp_k0": (FIG3, 0.0, EXP100, 300.0, 0.1),
    "exp_x0_k30": (dataclasses.replace(FIG3, x0=5.0), 30.0, EXP100, 300.0,
                   0.1),
    "uniform_k10": (dataclasses.replace(FIG3, lambda_influence=1e-3), 10.0,
                    UNIF, 300.0, 0.1),
    "uniform_saturated": (SATURATING, 0.0, UNIF5, 200.0, 0.1),
    "weibull_k0": (FIG3, 0.0, WEIB, 1000.0, 0.1),
    "weibull_x0_k40": (dataclasses.replace(FIG3, x0=3.0), 40.0, WEIB_LOW,
                       400.0, 0.05),
    "exp_dt_half": (dataclasses.replace(FIG3, n_nodes=50), 10.0, EXP100,
                    400.0, 0.5),
    "stiff_negative_stage": (STIFF, 0.0, EXP100, 20.0, 0.1),
    "signed_zero_initials": (SIGNED_ZERO, 20.0, EXP100, 50.0, 0.1),
}

# name -> (params per column, k_values, dist, horizon, dt)
BATCH_CASES = {
    # a subcritical table that goes extinct, a supercritical one with
    # truncated columns and a stiff one, side by side
    "stacked_exp": (
        [SECTION_IV] * 61 + [dataclasses.replace(FIG3, n_nodes=30,
                                                 beta=1e-2)] * 31
        + [dataclasses.replace(SECTION_IV, n_nodes=20, x0=2.0)] * 21
        + [STIFF] * 11,
        np.concatenate([np.arange(61), np.arange(31), np.arange(21),
                        np.arange(0, 101, 10)]),
        EXP100, 400.0, 0.1),
    "stacked_weibull": (
        [dataclasses.replace(FIG3, n_nodes=30)] * 31
        + [dataclasses.replace(FIG3, n_nodes=50, beta=5e-3)] * 51,
        np.concatenate([np.arange(31), np.arange(51)]),
        WEIB, 600.0, 0.1),
    "saturating_uniform": (
        SATURATING, np.arange(0, 101, 5), UNIF5, 200.0, 0.1),
    "signed_zero_initials": (
        SIGNED_ZERO, np.arange(0, 101, 25), EXP100, 50.0, 0.1),
    # three tables of one set of source constants: two go extinct at
    # different steps, and the supercritical one truncates at the horizon
    "one_source_group": (
        [dataclasses.replace(SECTION_IV, n_nodes=20)] * 21 + [SECTION_IV] * 61
        + [dataclasses.replace(SECTION_IV, n_nodes=30, beta=1e-2)] * 31,
        np.concatenate([np.arange(21), np.arange(61), np.arange(31)]),
        EXP100, 400.0, 0.1),
    # a negative x_bar stage in the first block: the exponential hazard
    # falls back to the distribution's
    "stiff_alone": (STIFF, np.arange(0, 101, 10), EXP100, 100.0, 0.1),
    # two tables that differ in s0 only
    "s0_differs": (
        [SECTION_IV] * 61 + [dataclasses.replace(SECTION_IV, s0=5.0)] * 61,
        np.concatenate([np.arange(61), np.arange(61)]),
        EXP100, 400.0, 0.1),
}

INTEGRATE_GOLDEN = {
    "exp_k0":
        "3f60e85122cf79aa5753b212874c0e31a9c37ac77fda84e6d264fc4ab38bbae1",
    "exp_x0_k30":
        "a55b625658fbd571809eb5baa7cce0486c61263cbf4f279f8d4368e154192708",
    "uniform_k10":
        "fba617f2949cc354e6c512afe07be751ff402980f4c9fccb53ad7b5d6a495c93",
    "uniform_saturated":
        "b0594da9d30dd44a8c504dfebd2965c8d49caea204f419e4a033fc0990542074",
    "weibull_k0":
        "9e2b42fb400d30eed3dce2ec28ea14bd31e56afacc205a5d2f7c6f688f41380b",
    "weibull_x0_k40":
        "6338fd17513720964a48572d2b549ca53b74b2582b7773dd5978fd29f319ea4c",
    "exp_dt_half":
        "c78026ec6132e9ddb4b16e192e125e6d2ae297c22c23d457fb825e739e532933",
    "stiff_negative_stage":
        "707773cccafc4408b36d895f18d5d7363554c70c84542c15a79ef6de1a8a63e0",
    "signed_zero_initials":
        "9c5fe0578eb1fd418b9df462790c9b6002251d7a6ebf61a23301167722fc0a2b",
}

BATCH_GOLDEN = {
    "stacked_exp":
        "fb773adf523a5174125b6e561d09171e89de239573568afd2c28144357dd7b6b",
    "stacked_weibull":
        "98a272171c984d072d19e562e70b5e7410f0494efaa6edb5cb19317ba2875546",
    "saturating_uniform":
        "88f38c6a1eac01968080c681eb8bcff214ae0506e1b8158ec93e6911aed1a2e0",
    "signed_zero_initials":
        "7e157784cc417edc72effe38f4ba548cc80a0950cb8af6f62ed23b02c550bb2c",
    "one_source_group":
        "c894fd468365841263ae698ea4b7f0a6112f1ff86ce37bc5529d3273440a6b74",
    "stiff_alone":
        "e30add4c463da071b1d475283297ff68a94fb8b40ffeb308414e66e03f59c7c1",
    "s0_differs":
        "b25fc0cb97796a349d0c8e7b85cb0c425a291ae294ffc581080fb2ef35902650",
}


def _hash(h, arr):
    arr = np.asarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def integrate_digest(name):
    params, k, dist, horizon, dt = INTEGRATE_CASES[name]
    traj = integrate(params, k, dist, horizon=horizon, dt=dt)
    h = hashlib.sha256()
    for arr in (traj.t, traj.x, traj.s, traj.x_bar):
        _hash(h, arr)
    h.update(repr((traj.extinction_time, traj.hazard_saturated)).encode())
    return h.hexdigest()


def batch_result(name):
    params, k, dist, horizon, dt = BATCH_CASES[name]
    return batch_extinction_stats(params, k, dist, horizon=horizon, dt=dt)


def batch_digest(name):
    h = hashlib.sha256()
    for arr in batch_result(name):
        _hash(h, arr)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(INTEGRATE_CASES))
def test_integrate_is_pinned(name):
    assert integrate_digest(name) == INTEGRATE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_extinction_stats_is_pinned(name):
    assert batch_digest(name) == BATCH_GOLDEN[name]


def test_matrix_covers_truncation_saturation_and_extinction():
    t_f, _, truncated, _ = batch_result("stacked_exp")
    assert truncated.any() and not truncated.all()
    assert (t_f[~truncated] < 400.0).all()
    assert batch_result("saturating_uniform")[3].any()
    params, k, dist, horizon, dt = INTEGRATE_CASES["uniform_saturated"]
    assert integrate(params, k, dist, horizon=horizon, dt=dt).hazard_saturated


def test_stiff_case_drives_a_stage_below_zero(monkeypatch):
    """The stiff case is only a check of the hazard fallback if some RK4
    stage really evaluates the hazard at a negative cumulative count."""
    seen = []
    hazard = ThresholdDistribution.hazard

    def spy(self, x):
        seen.append(float(np.min(x)))
        return hazard(self, x)

    monkeypatch.setattr(ThresholdDistribution, "hazard", spy)
    params, k, dist, horizon, dt = INTEGRATE_CASES["stiff_negative_stage"]
    integrate(params, k, dist, horizon=horizon, dt=dt)
    assert min(seen) < 0.0


@pytest.mark.parametrize("name,evaluated", [
    ("one_source_group", False),
    ("stiff_alone", True),
    ("s0_differs", False),
])
def test_hazard_fallback_taken(name, evaluated, monkeypatch):
    """Which exponential batches evaluate the distribution's hazard:
    STIFF's negative x_bar stage does, a batch whose x_bar never dips
    below zero steps with the constant 1/mean and never does."""
    calls = []
    hazard = ThresholdDistribution.hazard

    def spy(self, x):
        calls.append(1)
        return hazard(self, x)

    monkeypatch.setattr(ThresholdDistribution, "hazard", spy)
    batch_result(name)
    assert bool(calls) == evaluated


class _ReferenceHazard:
    """Per-column hazard that freezes at the last finite value."""

    def __init__(self, dist, n_cols):
        self.dist, self.last = dist, np.zeros(n_cols)
        self.saturated = np.zeros(n_cols, dtype=bool)

    def __call__(self, x_bar):
        h = np.asarray(self.dist.hazard(x_bar), dtype=float)
        bad = ~np.isfinite(h)
        self.saturated |= bad
        self.last = h = np.where(bad, self.last, h)
        return h


def _reference_step(x, s, xb, dt, p, k, hazard):
    def rhs(x_, s_, xb_):
        pool = np.maximum(p.n_nodes - k - x_, 0.0)
        force = (p.beta * x_ + p.gamma * s_) * pool
        return (-p.delta * x_ + force,
                -p.delta_s * s_
                + p.lambda_influence * hazard(xb_) * (p.n_sources - s_), force)

    k1 = rhs(x, s, xb)
    k2 = rhs(*(v + 0.5 * dt * d for v, d in zip((x, s, xb), k1)))
    k3 = rhs(*(v + 0.5 * dt * d for v, d in zip((x, s, xb), k2)))
    k4 = rhs(*(v + dt * d for v, d in zip((x, s, xb), k3)))
    return tuple(v + dt / 6.0 * (a + 2 * b + 2 * c + e)
                 for v, a, b, c, e in zip((x, s, xb), k1, k2, k3, k4))


def reference_integrate(params, k, dist, horizon, dt, eps=1e-3):
    n_steps = int(round(horizon / dt))
    t = np.arange(n_steps + 1) * dt
    out = np.empty((3, n_steps + 1))
    out[:, 0] = params.x0, params.s0, params.x0
    x_hi = max(params.n_nodes - k, params.x0)
    hazard = _ReferenceHazard(dist, 1)
    cx, cs, cxb = (np.array([v]) for v in out[:, 0])
    for i in range(1, n_steps + 1):
        cx, cs, cxb = _reference_step(cx, cs, cxb, dt, params,
                                      np.array([float(k)]), hazard)
        cx = np.clip(cx, 0.0, x_hi)
        cs = np.clip(cs, 0.0, params.n_sources)
        cxb = np.maximum(cxb, out[2, i - 1])
        out[:, i] = cx[0], cs[0], cxb[0]
    x = out[0]
    below = np.nonzero(x[np.argmax(x):] <= eps)[0]
    t_f = float(t[np.argmax(x) + below[0]]) if below.size else None
    return t, out, t_f, bool(hazard.saturated.any())


def reference_batch(params, k, dist, horizon, dt, eps=1e-3):
    c = _column_constants(params, np.asarray(k, dtype=float))
    x_hi, n = np.maximum(c.n_nodes - c.k, c.x0), len(c.k)
    x, s, xb = c.x0.copy(), c.s0.copy(), c.x0.copy()
    hazard = _ReferenceHazard(dist, n)
    run_max, cum = x.copy(), np.zeros(n)
    cand_t = np.where(x <= eps, 0.0, np.nan)
    cand_h, g_prev = cand_t.copy(), c.beta * x + c.gamma * s
    for i in range(1, int(round(horizon / dt)) + 1):
        x, s, nxb = _reference_step(x, s, xb, dt, c, c.k, hazard)
        x, s = np.clip(x, 0.0, x_hi), np.clip(s, 0.0, c.n_sources)
        xb = np.maximum(nxb, xb)
        g = c.beta * x + c.gamma * s
        cum = cum + 0.5 * dt * (g_prev + g)
        g_prev = g
        new_max = x > run_max
        run_max = np.maximum(run_max, x)
        cand_t[new_max] = np.nan
        hit = (x <= eps) & np.isnan(cand_t)
        cand_t[hit], cand_h[hit] = i * dt, cum[hit]
    late = np.isnan(cand_t)
    return (np.where(late, horizon, cand_t), np.where(late, cum, cand_h),
            late, hazard.saturated)


def _random_case(rnd):
    def roster():
        n, ns = rnd.choice([3, 10, 40]), rnd.choice([1, 10, 50])
        return SystemParams(
            n_nodes=n, n_sources=ns, beta=rnd.choice([0.0, 1e-3, 1e-2, 0.1]),
            gamma=rnd.choice([0.0, 1e-3, 1e-2]),
            delta=rnd.choice([0.0, 0.1, 1.0, 30.0]),
            delta_s=rnd.choice([0.0, 0.1, 25.0]),
            lambda_influence=rnd.choice([0.0, 1e-4, 1e-2, 1.0]),
            x0=rnd.choice([0.0, -0.0, 0.5, 3.0]),
            s0=rnd.choice([0.0, 1.0, 1.0 * ns]), infection_cost=1.0,
            update_cost=0.1)
    dist = rnd.choice([ThresholdDistribution.exponential(100.0),
                       ThresholdDistribution.exponential(1.0),
                       ThresholdDistribution.uniform(0.0, 5.0),
                       ThresholdDistribution.weibull(0.8, 5.0),
                       ThresholdDistribution.weibull(2.0, 500.0)])
    tables = [roster() for _ in range(rnd.choice([1, 2, 3]))]
    params = [p for p in tables for _ in range(p.n_nodes + 1)]
    k = np.concatenate([np.arange(p.n_nodes + 1) for p in tables])
    return params, k, dist, rnd.choice([10.0, 20.0, 50.0]), rnd.choice(
        [0.1, 0.5])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_matches_per_step_reference():
    rnd = random.Random(2026)
    for _ in range(25):
        params, k, dist, horizon, dt = _random_case(rnd)
        with np.errstate(all="ignore"):
            got = batch_extinction_stats(params, k, dist, horizon=horizon,
                                         dt=dt)
            want = reference_batch(params, k, dist, horizon, dt)
            assert all(map(_same, got, want)), (params[0], dist, horizon, dt)
        # k = 0, integral, fractional, and k = N: no pool, x_hi = x0
        n = float(k[-1])
        for kp in (0.0, n // 2, 0.37 * n, n):
            with np.errstate(all="ignore"):
                traj = integrate(params[-1], kp, dist, horizon=horizon, dt=dt)
                t, states, t_f, sat = reference_integrate(
                    params[-1], kp, dist, horizon, dt)
            assert _same(np.array([traj.t, traj.x, traj.s, traj.x_bar]),
                         np.vstack([t, states])), (params[-1], kp, dist)
            assert (traj.extinction_time, traj.hazard_saturated) == (t_f, sat)


# CSV bytes of every builtin sweep and the three fig8 ratio variants, the
# 18 files `virusgame sweep` writes for them, and of `virusgame simulate` at
# a fractional protection count.  fig3, fig4 and fig9 write integrate's
# trajectories; fig5 reads P_i from one; fig6, fig7 and fig8 pin the mixed
# solver's p* on Section IV tables, fig6 and fig7 the largest batch of the
# builtins: one table over the caps 0..1000 at horizon 1000, whose tail
# slices are the tables of N = 100..900
SWEEP_CSV_GOLDEN = {
    "fig3_infection":
        "448225d1e43c45bd697aec3b02bc6358a6297e53375f32a8c1364ffb30104498",
    "fig4_sources":
        "76a66a6b900f59e9b8087708f826eaaac7d4fceb449727f7a4282e404bb8080e",
    "fig5_infection_prob":
        "8a944f3815627104708ab1594e9eb058452af41a95b2d92d4b24f77577520592",
    "fig6_pstar_vs_n":
        "4e513d8d539a18f35eca01d6eabe261a574f4bba9f5bfe648cdd61aa9173aebd",
    "fig7_gain":
        "9eab4f9f1b385bb85ea421c1b6d7460d6b72b1c14ae93c1537ad7b5653080be2",
    "fig8_pstar_vs_cost":
        "41aba8026a5a8b7276db97ac08091e16fbec8330cf68f10fad7ccd0978f21af0",
    "fig8_pstar_vs_cost_beta_0.0001":
        "e27c225b43ed4c16e527d4c85a000a87d3eb694063e03945c99518532cab63d6",
    "fig8_pstar_vs_cost_beta_0.0002":
        "da0d5821403c71fa2f3f20b2df770935df8fc6ee34b70d2b2a4472a1e0a4c22e",
    "fig8_pstar_vs_cost_beta_0.0003":
        "03519b0db047795e1a00a1c25e69112726c8de48b8f202293ae293cf7871c6c9",
    "fig9_x_vs_cost":
        "2096f9fb6e85136a521068fc82374978fb0aa7cfd464bd4bdbdfa882620ef29b",
}

BUILTINS = {spec.name: spec
            for spec in builtin_suite() + fig8_ratio_variants()}

SIMULATE_CONFIGS = {
    "exponential": dict(dataclasses.asdict(FIG3), threshold_dist={
        "kind": "exponential", "params": {"mean": 100.0}}),
    "weibull": dict(dataclasses.asdict(FIG3), lambda_influence=1e-4,
                    threshold_dist={"kind": "weibull", "params": {
                        "shape": 2.0, "scale": 500.0}}),
}
SIMULATE_P = "0.333"  # k_protected = 33.3

SIMULATE_CSV_GOLDEN = {
    "exponential":
        "8de2d25d2c49775561b98a029284471dbaa13c10a8a69e1537b62171b42827b2",
    "weibull":
        "9f34d4ff023f6a57cc390a091fd8751cde1d7d8a59f5d362153f58c93439a08d",
}


def _files_digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_sweep_csvs_are_pinned(name, tmp_path, monkeypatch):
    # every table a builtin sweep reads comes from one batch, or from the
    # cache
    calls = []
    build = risk.batch_extinction_stats

    def spy(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(risk, "batch_extinction_stats", spy)
    run(BUILTINS[name], str(tmp_path))
    assert _files_digest(tmp_path) == SWEEP_CSV_GOLDEN[name]
    assert len(calls) <= 1


@pytest.mark.parametrize("kind", sorted(SIMULATE_CONFIGS))
def test_simulate_csv_is_pinned(kind, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIMULATE_CONFIGS[kind]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--p", SIMULATE_P,
                 "--out", str(out)]) == 0
    assert _files_digest(out) == SIMULATE_CSV_GOLDEN[kind]
