"""Mean-field dynamics of the infection / source-activation system.

The system couples three quantities:

  X(t)     infected node count (SIS with curing rate delta)
  S(t)     active virus-source count, driven by a threshold activation
           process on the cumulative infection count
  Xbar(t)  cumulative infections (infection inflow, no curing)

and is integrated with a fixed-step RK4 scheme so results are bit-for-bit
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Optional

import numpy as np

DEFAULT_DT = 0.1
DEFAULT_HORIZON = 1000.0
DEFAULT_EXTINCTION_EPSILON = 1e-3


@dataclass(frozen=True)
class ThresholdDistribution:
    """Distribution of source activation thresholds.

    Supported kinds: exponential(mean), uniform(lo, hi), weibull(shape, scale).
    Exposes the c.d.f., density and hazard f/(1-F); the hazard is what the
    source ODE consumes.  Where F saturates (F = 1) the hazard is returned
    as +inf and the integrator substitutes the last finite value.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.params):
            raise ValueError(
                f"{self.kind} threshold parameters must be finite")

    @classmethod
    def exponential(cls, mean: float) -> "ThresholdDistribution":
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return cls("exponential", (float(mean),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ThresholdDistribution":
        if not hi > lo:
            raise ValueError("uniform requires hi > lo")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "ThresholdDistribution":
        if shape <= 0 or scale <= 0:
            raise ValueError("weibull shape and scale must be positive")
        return cls("weibull", (float(shape), float(scale)))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            (m,) = self.params
            return np.where(x < 0, 0.0, -np.expm1(-np.maximum(x, 0.0) / m))
        if self.kind == "uniform":
            lo, hi = self.params
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        if self.kind == "weibull":
            k, s = self.params
            return np.where(x < 0, 0.0, -np.expm1(-((np.maximum(x, 0.0) / s) ** k)))
        raise ValueError(f"unknown threshold distribution kind {self.kind!r}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            (m,) = self.params
            return np.where(x < 0, 0.0, np.exp(-np.maximum(x, 0.0) / m) / m)
        if self.kind == "uniform":
            lo, hi = self.params
            return np.where((x >= lo) & (x < hi), 1.0 / (hi - lo), 0.0)
        if self.kind == "weibull":
            k, s = self.params
            xp = np.maximum(x, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                dens = (k / s) * (xp / s) ** (k - 1.0) * np.exp(-((xp / s) ** k))
            return np.where(x < 0, 0.0, dens)
        raise ValueError(f"unknown threshold distribution kind {self.kind!r}")

    def hazard(self, x):
        """Activation hazard f(x)/(1-F(x)); +inf where F has saturated."""
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            (m,) = self.params
            out = np.where(x < 0, 0.0, 1.0 / m)
        elif self.kind == "uniform":
            lo, hi = self.params
            with np.errstate(divide="ignore"):
                interior = 1.0 / (hi - x)
            out = np.where(x < lo, 0.0, np.where(x >= hi, np.inf, interior))
        elif self.kind == "weibull":
            k, s = self.params
            xp = np.maximum(x, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                h = (k / s) * (xp / s) ** (k - 1.0)
            out = np.where(x < 0, 0.0, h)
        else:
            raise ValueError(f"unknown threshold distribution kind {self.kind!r}")
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "exponential":
            (m,) = self.params
            return rng.exponential(m, size)
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size)
        if self.kind == "weibull":
            k, s = self.params
            return s * rng.weibull(k, size)
        raise ValueError(f"unknown threshold distribution kind {self.kind!r}")


DEFAULT_DIST = ThresholdDistribution.exponential(100.0)


@dataclass(frozen=True)
class SystemParams:
    """All model constants: populations, contact/curing rates, costs."""

    n_nodes: int
    n_sources: int
    beta: float
    gamma: float
    delta: float
    delta_s: float
    lambda_influence: float
    x0: float
    s0: float
    infection_cost: float
    update_cost: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.n_sources < 1:
            raise ValueError("n_sources must be a positive integer")
        for name in ("beta", "gamma", "delta", "delta_s", "lambda_influence",
                     "x0", "s0", "infection_cost", "update_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.x0 > self.n_nodes:
            raise ValueError("x0 cannot exceed n_nodes")
        if self.s0 > self.n_sources:
            raise ValueError("s0 cannot exceed n_sources")


@dataclass(frozen=True)
class SystemState:
    x: float
    s: float
    x_bar: float
    t: float


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution plus extinction metadata.

    extinction_time is the first sample time at or after the peak of x
    where x <= the extinction epsilon; None if never reached (truncated).
    """

    t: np.ndarray
    x: np.ndarray
    s: np.ndarray
    x_bar: np.ndarray
    k_protected: float
    extinction_time: Optional[float]
    hazard_saturated: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @property
    def truncated(self) -> bool:
        return self.extinction_time is None

    def state(self, i: int) -> SystemState:
        return SystemState(float(self.x[i]), float(self.s[i]),
                           float(self.x_bar[i]), float(self.t[i]))


def derivatives(state: SystemState, params: SystemParams, k_protected: float,
                dist: ThresholdDistribution, fallback_hazard: float = 0.0):
    """Right-hand side (dx, ds, dx_bar) of the coupled system.

    The susceptible pool N - k - x is floored at zero so a fully protected
    population gives pure exponential decay of any residual infection.
    If the hazard is undefined (F saturated) the fallback value is used;
    `integrate` supplies the last finite hazard as fallback.
    """
    if not 0 <= k_protected <= params.n_nodes:
        raise ValueError("k_protected must lie in [0, n_nodes]")
    h = float(dist.hazard(state.x_bar))
    if not math.isfinite(h):
        h = fallback_hazard
    pool = max(params.n_nodes - k_protected - state.x, 0.0)
    force = (params.beta * state.x + params.gamma * state.s) * pool
    dx = -params.delta * state.x + force
    ds = (-params.delta_s * state.s
          + params.lambda_influence * h * (params.n_sources - state.s))
    return dx, ds, force


class _SaturatingHazard:
    """Vectorised hazard that freezes at the last finite value per column."""

    def __init__(self, dist: ThresholdDistribution, n_cols: int):
        self.dist = dist
        self.last = np.zeros(n_cols)
        self.saturated = np.zeros(n_cols, dtype=bool)

    def __call__(self, x_bar: np.ndarray) -> np.ndarray:
        h = np.asarray(self.dist.hazard(x_bar), dtype=float)
        if h.ndim == 0:
            h = np.full_like(x_bar, float(h))
        bad = ~np.isfinite(h)
        if bad.any():
            self.saturated |= bad
            h = np.where(bad, self.last, h)
        self.last = h
        return h

    def keep(self, mask: np.ndarray) -> None:
        """Drop the columns where mask is False."""
        self.last = self.last[mask]
        self.saturated = self.saturated[mask]


def _rk4_step(x, s, xb, dt, params, k, hazard):
    def rhs(x_, s_, xb_):
        pool = np.maximum(params.n_nodes - k - x_, 0.0)
        force = (params.beta * x_ + params.gamma * s_) * pool
        dx = -params.delta * x_ + force
        ds = (-params.delta_s * s_
              + params.lambda_influence * hazard(xb_) * (params.n_sources - s_))
        return dx, ds, force

    k1 = rhs(x, s, xb)
    k2 = rhs(x + 0.5 * dt * k1[0], s + 0.5 * dt * k1[1], xb + 0.5 * dt * k1[2])
    k3 = rhs(x + 0.5 * dt * k2[0], s + 0.5 * dt * k2[1], xb + 0.5 * dt * k2[2])
    k4 = rhs(x + dt * k3[0], s + dt * k3[1], xb + dt * k3[2])
    nx = x + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    ns = s + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    nxb = xb + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return nx, ns, nxb


def integrate(params: SystemParams, k_protected: float,
              dist: ThresholdDistribution = DEFAULT_DIST,
              horizon: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
              extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON) -> Trajectory:
    """Fixed-step RK4 integration over [0, horizon] at a given protection level.

    States are clamped to their admissible ranges after every step; the
    cumulative count is kept nondecreasing.  Raises on non-finite state.
    """
    if horizon <= 0 or dt <= 0 or dt > horizon:
        raise ValueError("require 0 < dt <= horizon")
    if not 0 <= k_protected <= params.n_nodes:
        raise ValueError("k_protected must lie in [0, n_nodes]")

    n_steps = int(round(horizon / dt))
    t = np.arange(n_steps + 1) * dt
    x = np.empty(n_steps + 1)
    s = np.empty(n_steps + 1)
    xb = np.empty(n_steps + 1)
    x[0], s[0], xb[0] = params.x0, params.s0, params.x0

    x_hi = max(params.n_nodes - k_protected, params.x0)
    k = np.array([float(k_protected)])
    hazard = _SaturatingHazard(dist, 1)
    cx, cs, cxb = np.array([x[0]]), np.array([s[0]]), np.array([xb[0]])
    for i in range(1, n_steps + 1):
        cx, cs, cxb = _rk4_step(cx, cs, cxb, dt, params, k, hazard)
        cx = np.clip(cx, 0.0, x_hi)
        cs = np.clip(cs, 0.0, params.n_sources)
        cxb = np.maximum(cxb, xb[i - 1])
        if not (np.isfinite(cx) & np.isfinite(cs) & np.isfinite(cxb)).all():
            raise RuntimeError(
                f"non-finite state at step {i} (t={i * dt:g}): "
                f"x={cx[0]!r} s={cs[0]!r} x_bar={cxb[0]!r}")
        x[i], s[i], xb[i] = cx[0], cs[0], cxb[0]

    i_peak = int(np.argmax(x))
    below = np.nonzero(x[i_peak:] <= extinction_epsilon)[0]
    extinction = float(t[i_peak + below[0]]) if below.size else None
    return Trajectory(t=t, x=x, s=s, x_bar=xb, k_protected=float(k_protected),
                      extinction_time=extinction,
                      hazard_saturated=bool(hazard.saturated.any()))


# the SystemParams fields the right-hand side and initial state read
_COLUMN_FIELDS = ("n_nodes", "n_sources", "beta", "gamma", "delta", "delta_s",
                  "lambda_influence", "x0", "s0")


def _column_constants(params, k: np.ndarray) -> SimpleNamespace:
    """Per-column model constants, protection level, table id and index.

    ``params`` is one parameter set for every column or one per column;
    columns with equal parameter sets share a table id.
    """
    if isinstance(params, SystemParams):
        tables, table = [params], np.zeros(len(k), dtype=int)
    else:
        if len(params) != len(k):
            raise ValueError("need one parameter set per k_protected value")
        ids = {}
        table = np.array([ids.setdefault(p, len(ids)) for p in params],
                         dtype=int)
        tables = list(ids)
    cols = {name: np.array([getattr(p, name) for p in tables],
                           dtype=float)[table]
            for name in _COLUMN_FIELDS}
    return SimpleNamespace(**cols, k=k, table=table, col=np.arange(len(k)))


def _stoppable(c: SimpleNamespace, x, s, h_now, cand_t, eps) -> np.ndarray:
    """Columns whose whole table is provably extinct and cannot regrow
    above epsilon: every column of it has an extinction candidate, sits
    below eps/2, is subcritical and sees too little forcing to restart."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s_cap = np.where(c.delta_s > 0,
                         np.maximum(s, c.lambda_influence * h_now
                                    * c.n_sources / c.delta_s),
                         c.n_sources)
    s_cap = np.minimum(s_cap, c.n_sources)
    pool = np.maximum(c.n_nodes - c.k, 0.0)
    ok = (~np.isnan(cand_t) & (x <= 0.5 * eps)
          & ((c.beta * pool <= 0.95 * c.delta) | (x <= 0))
          & ((c.gamma * s_cap + c.beta * x) * pool <= 0.5 * c.delta * eps))
    return ~np.isin(c.table, c.table[~ok])


def batch_extinction_stats(params, k_values: np.ndarray,
                           dist: ThresholdDistribution,
                           horizon: float = DEFAULT_HORIZON,
                           dt: float = DEFAULT_DT,
                           extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON):
    """Integrate once for many protection levels; return per-column
    extinction time, accumulated infection hazard integral (trapezoid of
    beta*X + gamma*S over [0, t_f]) and truncation/saturation flags.

    ``params`` is one SystemParams for every column, or a sequence with one
    per column.  Columns with equal parameter sets form one table; the
    columns of several tables are integrated side by side, each with its
    own constants.  This is the engine behind the k -> P_i(k) risk tables;
    trajectories are not stored.  A table stops early once all its columns
    are provably extinct and cannot regrow; its columns then leave the
    batch, so each table comes out bit-identical to a call of its own.
    """
    if horizon <= 0 or dt <= 0 or dt > horizon:
        raise ValueError("require 0 < dt <= horizon")
    k = np.asarray(k_values, dtype=float)
    c = _column_constants(params, k)
    if ((k < 0) | (k > c.n_nodes)).any():
        raise ValueError("k_protected values must lie in [0, n_nodes]")
    n_cols = len(k)
    n_steps = int(round(horizon / dt))
    eps = extinction_epsilon

    x, s, xb = c.x0.copy(), c.s0.copy(), c.x0.copy()
    c.x_hi = np.maximum(c.n_nodes - k, c.x0)
    hazard = _SaturatingHazard(dist, n_cols)

    run_max = x.copy()
    cand_t = np.where(x <= eps, 0.0, np.nan)
    cand_h = cand_t.copy()
    cum = np.zeros(n_cols)
    g_prev = c.beta * x + c.gamma * s

    t_f = np.empty(n_cols)
    integral = np.empty(n_cols)
    truncated = np.zeros(n_cols, dtype=bool)
    saturated = np.zeros(n_cols, dtype=bool)
    for i in range(1, n_steps + 1):
        x, s, xb = _rk4_step(x, s, xb, dt, c, c.k, hazard)
        x = np.clip(x, 0.0, c.x_hi)
        s = np.clip(s, 0.0, c.n_sources)
        if not (np.isfinite(x).all() and np.isfinite(s).all()
                and np.isfinite(xb).all()):
            bad = int(np.nonzero(~np.isfinite(x) | ~np.isfinite(s)
                                 | ~np.isfinite(xb))[0][0])
            raise RuntimeError(
                f"non-finite state at step {i} (t={i * dt:g}) "
                f"for k_protected={c.k[bad]:g} "
                f"in the table with n_nodes={c.n_nodes[bad]:g}")
        g = c.beta * x + c.gamma * s
        cum += 0.5 * dt * (g_prev + g)
        g_prev = g

        # a new running maximum invalidates any earlier extinction candidate
        new_max = x > run_max
        run_max = np.maximum(run_max, x)
        cand_t[new_max] = np.nan
        hit = (x <= eps) & np.isnan(cand_t)
        cand_t[hit] = i * dt
        cand_h[hit] = cum[hit]

        if i % 50 == 0:
            done = _stoppable(c, x, s, hazard.last, cand_t, eps)
            if done.any():
                cols = c.col[done]
                t_f[cols] = cand_t[done]
                integral[cols] = cand_h[done]
                saturated[cols] = hazard.saturated[done]
                keep = ~done
                x, s, xb, run_max, cand_t, cand_h, cum, g_prev = (
                    a[keep] for a in (x, s, xb, run_max, cand_t, cand_h,
                                      cum, g_prev))
                hazard.keep(keep)
                c = SimpleNamespace(**{n: v[keep] for n, v in vars(c).items()})
                if not keep.any():
                    break

    late = np.isnan(cand_t)
    truncated[c.col] = late
    t_f[c.col] = np.where(late, horizon, cand_t)
    integral[c.col] = np.where(late, cum, cand_h)
    saturated[c.col] = hazard.saturated
    return t_f, integral, truncated, saturated
