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


# parameter names of each threshold distribution kind, in order
THRESHOLD_PARAMS = {
    "exponential": ("mean",),
    "uniform": ("lo", "hi"),
    "weibull": ("shape", "scale"),
}


@dataclass(frozen=True)
class ThresholdDistribution:
    """Distribution of source activation thresholds.

    Supported kinds: exponential(mean), uniform(lo, hi), weibull(shape, scale).
    Exposes the hazard f/(1-F), which is what the source ODE consumes, and
    a sampler for the oracle.  Where F saturates (F = 1) the hazard is
    returned as +inf and the integrator substitutes the last finite value.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in THRESHOLD_PARAMS:
            raise ValueError(
                f"unknown threshold distribution kind {self.kind!r}")
        names = THRESHOLD_PARAMS[self.kind]
        if len(self.params) != len(names):
            raise ValueError(f"{self.kind} takes {len(names)} parameter(s): "
                             f"{', '.join(names)}")
        if not all(math.isfinite(v) for v in self.params):
            raise ValueError(
                f"{self.kind} threshold parameters must be finite")
        if self.kind == "exponential" and not self.params[0] > 0:
            raise ValueError("exponential mean must be positive")
        if self.kind == "uniform" and not self.params[1] > self.params[0]:
            raise ValueError("uniform requires hi > lo")
        if self.kind == "weibull" and not min(self.params) > 0:
            raise ValueError("weibull shape and scale must be positive")

    @classmethod
    def exponential(cls, mean: float) -> "ThresholdDistribution":
        return cls("exponential", (float(mean),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ThresholdDistribution":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "ThresholdDistribution":
        return cls("weibull", (float(shape), float(scale)))

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
        else:
            k, s = self.params
            xp = np.maximum(x, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                h = (k / s) * (xp / s) ** (k - 1.0)
            out = np.where(x < 0, 0.0, h)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """size thresholds as an array, or one as a float when size is None;
        either way one 64-bit-word draw per threshold."""
        if self.kind == "exponential":
            (m,) = self.params
            return rng.exponential(m, size)
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size)
        k, s = self.params
        return s * rng.weibull(k, size)


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


# field names of SystemParams, in declaration order
PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))

# the Section IV roster: a config's defaults and the equilibrium studies' base
DEFAULT_PARAMS = SystemParams(n_nodes=500, n_sources=50, beta=1e-4,
                              gamma=1e-3, delta=0.1, delta_s=0.1,
                              lambda_influence=1e-4, x0=0.0, s0=10.0,
                              infection_cost=1.0, update_cost=0.1)
DEFAULT_DIST = ThresholdDistribution.exponential(100.0)


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
    extinction_time: Optional[float]
    hazard_saturated: bool = False

    def __len__(self) -> int:
        return len(self.t)


_STOP_EVERY = 50  # steps between two early-stop checks
_BLOCK_BYTES = 1 << 19  # budget of the per-block bookkeeping buffer


def step_count(horizon: float, dt: float) -> int:
    """Number of RK4 steps that span [0, horizon]; refuses a dt that does
    not fit the horizon a whole number of times."""
    if not 0 < dt <= horizon < math.inf:
        raise ValueError("require 0 < dt <= horizon < inf")
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon:g} is not a whole number of "
                         f"steps of dt={dt:g}")
    return n_steps


def check_epsilon(extinction_epsilon: float) -> None:
    """Refuse an extinction epsilon that is not finite and positive."""
    if not 0.0 < extinction_epsilon < math.inf:
        raise ValueError(f"extinction_epsilon must be finite and positive, "
                         f"got {extinction_epsilon!r}")


def _constant_hazard(dist: ThresholdDistribution) -> Optional[float]:
    """The hazard wherever x_bar >= 0 if it is a finite constant there
    (exponential thresholds: 1/mean), else None."""
    h = 1.0 / dist.params[0] if dist.kind == "exponential" else math.inf
    return h if math.isfinite(h) else None


class _SourceSplit(Exception):
    """A stage saw some x_bar < 0, where the hazard is 0, not the constant
    the shared source steps with."""


class _Stepper:
    """Fixed-step RK4 for a stack of columns of the state (x, s, x_bar),
    the engine of ``batch_extinction_stats``.

    A state is a (3, n) array; stages go into buffers allocated once per
    column set, and each operation groups its operands as the per-column
    formula does, so a column is bit-identical alone or stacked.  The
    exponential hazard is the constant 1/mean where every column has
    x_bar >= 0 (else ``dist.hazard`` is evaluated); a saturated (+inf)
    hazard keeps the last finite value ``c.h_last`` and sets
    ``c.saturated``.

    A constant hazard leaves ds/dt = -delta_s*s + (lambda*h)*(n_s - s)
    reading neither x nor k, so columns with the same source constants
    carry one s.  When every column does, s steps as a Python float and
    only the rows (x, x_bar) as arrays, until a stage with some x_bar < 0
    (a zero hazard there) splits the source; the block is then redone, and
    the rest of the call run, with a source per column.
    """

    def __init__(self, c: SimpleNamespace, dist: ThresholdDistribution,
                 dt: float):
        self.dist = dist
        self.dt, self.half, self.sixth = dt, 0.5 * dt, dt / 6.0
        self.h_exp = _constant_hazard(dist)
        src = np.array([c.n_sources, c.delta_s, c.lambda_influence, c.s0])
        bits = src.view(np.int64)
        self.shared = self.h_exp is not None and (bits == bits[:, :1]).all()
        if self.shared:  # -delta_s, lambda*h and n_s as floats
            n_s, delta_s, lam = src[:3, 0].tolist()
            self.source = (-delta_s, lam * self.h_exp, n_s)
        c.h_last, c.saturated = np.zeros(len(c.k)), np.zeros(len(c.k), bool)
        self.keep(c, slice(None))

    def keep(self, c: SimpleNamespace, mask) -> None:
        """Run the columns of c (constants, hazard state) where mask holds."""
        self.c = c = SimpleNamespace(**{k: v[mask] for k, v in vars(c).items()})
        n, m = len(c.k), 2 if self.shared else 3  # state rows in arrays
        self.rates = np.array([[c.beta, c.gamma], [-c.delta, -c.delta_s]])
        self.caps = np.array([c.n_nodes - c.k, c.n_sources])
        # bounds of the clipped rows: x, and s where it is per column
        self.hi = np.array([np.maximum(c.n_nodes - c.k, c.x0),
                            c.n_sources])[:m - 1]
        self.h_const = np.full(n, self.h_exp or 0.0)
        self.lam_h = c.lambda_influence * self.h_const
        self.prod, self.room = np.empty((2, 2, n)), np.empty((2, n))
        self.lamh, self.stage = np.empty(n), np.empty((m, n))
        self.views = (self.prod[0, 0], self.prod[0, 1], self.prod[1],
                      self.room[0], self.room[1])
        if self.shared:
            c.h_last, self.rhs = self.h_const, self._rhs_shared
            # beta, gamma, -delta and N - k
            self.x_rates = (*self.rates[0], self.rates[1, 0], self.caps[0])
            # derivatives (dx, dx_bar = force) of the rows (x, x_bar)
            self.k1, self.kj = ((d, d[0], d[1]) for d in np.empty((2, 2, n)))
        else:
            self.rhs = self._rhs
            # derivatives (dx, ds, dx_bar = force, activation term) and
            # views into them
            self.k1, self.kj = ((d[:3], d[2], d[3], d[2:], d[:2])
                                for d in np.empty((2, 4, n)))

    def _lam_hazard(self, x_bar: np.ndarray) -> np.ndarray:
        if self.h_exp is not None and x_bar.min(initial=0.0) >= 0.0:
            self.c.h_last = self.h_const
            return self.lam_h
        h = np.asarray(self.dist.hazard(x_bar), dtype=float)
        bad = ~np.isfinite(h)
        if bad.any():
            self.c.saturated |= bad
            h = np.where(bad, self.c.h_last, h)
        self.c.h_last = h
        return np.multiply(self.c.lambda_influence, h, out=self.lamh)

    def _rhs(self, y: np.ndarray, s: float, d: tuple) -> float:
        """d = (dx, ds, dx_bar = force) at the state y, where
        force = (beta*x + gamma*s) * max(N-k-x, 0), dx = -delta*x + force
        and ds = -delta_s*s + (lambda*h)*(n_s-s); s is per column, so the
        float source s stays 0.0."""
        _, force, act, tail, head = d
        bx, gs, decay, pool, free_s = self.views
        xs = y[:2]
        np.multiply(self.rates, xs, out=self.prod)  # [[bx, gs], decay]
        np.subtract(self.caps, xs, out=self.room)  # [N - k - x, n_s - s]
        np.maximum(pool, 0.0, out=pool)
        np.add(bx, gs, out=force)
        np.multiply(force, pool, out=force)
        np.multiply(self._lam_hazard(y[2]), free_s, out=act)
        np.add(decay, tail, out=head)
        return 0.0

    def _rhs_shared(self, y: np.ndarray, s: float, d: tuple) -> float:
        """d = (dx, force) as in ``_rhs`` at the rows y = (x, x_bar) and the
        shared source s; returns ds."""
        x, x_bar = y
        if not x_bar.min() >= 0.0:
            raise _SourceSplit
        _, dx, force = d
        _, gs, _, pool, _ = self.views
        beta, gamma, neg_delta, cap = self.x_rates
        np.multiply(beta, x, out=force)
        np.multiply(gamma, s, out=gs)
        np.add(force, gs, out=force)
        np.subtract(cap, x, out=pool)
        np.maximum(pool, 0.0, out=pool)
        np.multiply(force, pool, out=force)
        np.multiply(neg_delta, x, out=dx)
        np.add(dx, force, out=dx)
        neg_delta_s, lam_h, n_s = self.source
        return neg_delta_s * s + lam_h * (n_s - s)

    def step(self, y0: np.ndarray, out: np.ndarray, s: float) -> float:
        """Write the clipped rows one step after y0 into out and return the
        shared source one step after s."""
        y, acc, d = self.stage, self.k1[0], self.kj[0]
        b_acc = b = self.rhs(y0, s, self.k1)
        k = acc                                 # k1, then k2 and k3
        for c, w in ((self.half, 2.0), (self.half, 2.0), (self.dt, 1.0)):
            np.multiply(k, c, out=y)
            np.add(y0, y, out=y)
            b = self.rhs(y, s + b * c, self.kj)  # k2, k3, k4
            # acc = ((k1 + 2k2) + 2k3) + k4
            np.add(acc, d if w == 1.0 else np.multiply(d, w, out=y), out=acc)
            b_acc, k = b_acc + b * w, d
        np.multiply(acc, self.sixth, out=acc)
        np.add(y0, acc, out=out)
        # np.clip's bits (NaN stays, -0.0 becomes 0.0) in two cheaper calls
        ends = out[:len(self.hi)]
        np.maximum(ends, 0.0, out=ends)
        np.minimum(ends, self.hi, out=ends)
        s = s + b_acc * self.sixth
        return 0.0 if s <= 0.0 else min(s, self.source[2])

    def advance(self, states: np.ndarray, i0: int) -> None:
        """Step states[0] into states[1:] (steps i0+1, i0+2, ...); raise
        RuntimeError at the first state that is not finite."""
        if self.shared:
            try:
                path = [float(states[0, 1, 0])]
                for j in range(1, len(states)):
                    path.append(self.step(states[j - 1, ::2],
                                          states[j, ::2], path[-1]))
                states[1:, 1] = np.array(path[1:])[:, None]
            except _SourceSplit:  # redo the block, a source per column
                self.shared = False
                self.keep(self.c, slice(None))
        if not self.shared:
            for j in range(1, len(states)):
                self.step(states[j - 1], states[j], 0.0)
        if not np.isfinite(states[1:]).all():
            j, col = np.argwhere(~np.isfinite(states[1:]).all(axis=1))[0]
            i = i0 + 1 + j
            raise RuntimeError(
                f"non-finite state at step {i} (t={i * self.dt:g}) for "
                f"k_protected={self.c.k[col]:g} in the table with "
                f"n_nodes={self.c.n_nodes[col]:g}")


def integrate(params: SystemParams, k_protected: float,
              dist: ThresholdDistribution = DEFAULT_DIST,
              horizon: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
              extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON) -> Trajectory:
    """Fixed-step RK4 integration over [0, horizon] at a given protection
    level, keeping every step.  States are clamped to their admissible
    ranges and the cumulative count kept nondecreasing.

    One recorded column steps in Python floats: a ``_Stepper`` step costs
    some 46 numpy calls whatever its column count, many times the
    arithmetic of one column.  Every operation groups its operands as
    ``_Stepper`` does, the hazard falls back and saturates as there, and
    the clip keeps the sign of a zero as ``np.clip`` does with scalar
    bounds."""
    n_steps = step_count(horizon, dt)
    check_epsilon(extinction_epsilon)
    k = float(k_protected)
    if not 0.0 <= k <= params.n_nodes:
        raise ValueError("k_protected must lie in [0, n_nodes]")
    beta, gamma = float(params.beta), float(params.gamma)
    neg_delta, neg_delta_s = -float(params.delta), -float(params.delta_s)
    lam, n_s = float(params.lambda_influence), float(params.n_sources)
    cap = float(params.n_nodes) - k
    x_hi = max(cap, float(params.x0))
    h_exp = _constant_hazard(dist)
    lam_h = None if h_exp is None else lam * h_exp
    one = np.empty(1)  # the hazard's argument, as in a one-column stack
    h_last, saturated = 0.0, False

    def lam_hazard(xb: float) -> float:
        nonlocal h_last, saturated
        one[0] = xb
        h = float(dist.hazard(one)[0])
        if not math.isfinite(h):
            saturated, h = True, h_last
        h_last = h
        return lam * h

    def rhs(x: float, s: float, xb: float) -> tuple:
        # as np.maximum: NaN stays NaN, and cap - x is never -0.0 (cap >= +0)
        force = (beta * x + gamma * s) * max(cap - x, 0.0)
        act = (lam_h if lam_h is not None and xb >= 0.0
               else lam_hazard(xb)) * (n_s - s)
        return neg_delta * x + force, neg_delta_s * s + act, force

    half, sixth = 0.5 * dt, dt / 6.0
    hist = np.empty((3, n_steps + 1))
    hx, hs, hxb = hist
    x = hx[0] = float(params.x0)
    s = hs[0] = float(params.s0)
    xb = hxb[0] = x
    for i0 in range(0, n_steps, _STOP_EVERY):  # stop soon after a blow-up
        i1 = min(i0 + _STOP_EVERY, n_steps)
        for i in range(i0 + 1, i1 + 1):
            a1, b1, c1 = rhs(x, s, xb)
            a2, b2, c2 = rhs(x + a1 * half, s + b1 * half, xb + c1 * half)
            a3, b3, c3 = rhs(x + a2 * half, s + b2 * half, xb + c2 * half)
            a4, b4, c4 = rhs(x + a3 * dt, s + b3 * dt, xb + c3 * dt)
            # y + (((k1 + k2*2) + k3*2) + k4) * (dt/6), then the clip
            x = x + (((a1 + a2 * 2.0) + a3 * 2.0) + a4) * sixth
            s = s + (((b1 + b2 * 2.0) + b3 * 2.0) + b4) * sixth
            nxb = xb + (((c1 + c2 * 2.0) + c3 * 2.0) + c4) * sixth
            x = 0.0 if x < 0.0 else x_hi if x > x_hi else x
            s = 0.0 if s < 0.0 else n_s if s > n_s else s
            if nxb > xb or nxb != nxb:  # np.maximum(nxb, xb)
                xb = nxb
            hx[i], hs[i], hxb[i] = x, s, xb
        bad = ~np.isfinite(hist[:, i0 + 1:i1 + 1]).all(axis=0)
        if bad.any():
            i = i0 + 1 + int(np.argmax(bad))
            raise RuntimeError(
                f"non-finite state at step {i} (t={i * dt:g}) for "
                f"k_protected={k:g} in the table with "
                f"n_nodes={params.n_nodes:g}")
    t = np.arange(n_steps + 1) * dt

    i_peak = int(np.argmax(hx))
    below = np.nonzero(hx[i_peak:] <= extinction_epsilon)[0]
    extinction = float(t[i_peak + below[0]]) if below.size else None
    return Trajectory(t=t, x=hx, s=hs, x_bar=hxb, extinction_time=extinction,
                      hazard_saturated=saturated)


# the SystemParams fields the right-hand side and initial state read
_COLUMN_FIELDS = ("n_nodes", "n_sources", "beta", "gamma", "delta", "delta_s",
                  "lambda_influence", "x0", "s0")


def _column_constants(params, k: np.ndarray) -> SimpleNamespace:
    """Per-column model constants, protection level k, table id and index.
    ``params`` is one parameter set for every column or one per column;
    columns with equal parameter sets share a table id."""
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
    if not ((k >= 0) & (k <= cols["n_nodes"])).all():
        raise ValueError("k_protected must lie in [0, n_nodes]")
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


# floats a batch block holds per column and step: the state (x, s, x_bar),
# g = beta*x + gamma*s and the running trapezoid of g
_SLOTS = 5


def batch_extinction_stats(params, k_values: np.ndarray,
                           dist: ThresholdDistribution,
                           horizon: float = DEFAULT_HORIZON,
                           dt: float = DEFAULT_DT,
                           extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON):
    """Integrate once for many protection levels; return per-column
    extinction time, accumulated infection hazard integral (trapezoid of
    beta*X + gamma*S over [0, t_f]) and truncation/saturation flags.

    ``params`` is one SystemParams for every column, or one per column;
    columns with equal parameter sets form a table, and the tables run side
    by side.  This is the engine behind the k -> P_i(k) risk tables; no
    trajectory is kept.  After each block of steps the trapezoid, running
    maximum and extinction candidates catch up on all its steps at once.
    Every 50 steps, a table whose columns are all provably extinct
    for good stops and leaves the batch, so each table is bit-identical to
    a call of its own.
    """
    n_steps = step_count(horizon, dt)
    check_epsilon(extinction_epsilon)
    k_values = np.asarray(k_values, dtype=float)
    if k_values.ndim != 1:
        raise ValueError(f"k_values must be one-dimensional, got shape "
                         f"{k_values.shape}")
    c = _column_constants(params, k_values)
    n_cols = len(c.k)
    eps = extinction_epsilon
    stepper = _Stepper(c, dist, dt)

    # steps per block: the largest divisor of _STOP_EVERY whose buffer fits
    rows = next(b for b in (50, 25, 10, 5, 2, 1)
                if (b + 1) * _SLOTS * 8 * n_cols <= _BLOCK_BYTES or b == 1)
    # row 0 holds the values after the previous block; the state is stored
    # by step, as _Stepper steps it, and g and its trapezoid by slot, so no
    # operation reads and writes overlapping memory
    states = np.empty((rows + 1, 3, n_cols))
    book = np.empty((2, rows + 1, n_cols))
    states[0] = c.x0, c.s0, c.x0
    book[:, 0] = c.beta * c.x0 + c.gamma * c.s0, np.zeros(n_cols)
    run_max = c.x0.copy()
    # extinction candidates and results, for every column
    cand_t = np.where(c.x0 <= eps, 0.0, np.nan)
    cand_h, saturated = cand_t.copy(), np.zeros(n_cols, dtype=bool)
    for i0 in range(0, n_steps, rows):
        b = min(rows, n_steps - i0)
        stepper.advance(states[:b + 1], i0)
        c = stepper.c
        x, g, run = states[1:b + 1, 0], book[0, :b + 1], book[1, :b + 1]
        # trapezoid, summed step by step (row 0 holds the sum so far):
        # cum_i = cum_{i-1} + 0.5*dt*(g_{i-1} + g_i)
        np.multiply(c.beta, x, out=g[1:])
        np.multiply(c.gamma, states[1:b + 1, 1], out=run[1:])
        np.add(g[1:], run[1:], out=g[1:])
        np.add(g[:-1], g[1:], out=run[1:])
        np.multiply(0.5 * dt, run[1:], out=run[1:])
        for j in range(1, b + 1):
            np.add(run[j - 1], run[j], out=run[j])
        # x sets a new running maximum in this block iff the block maximum
        # beats the old one; its first occurrence is the last new maximum,
        # which drops the extinction candidate.  The candidate is the first
        # step at or after the last new maximum with x <= eps.
        top = x.max(axis=0)
        rising = top > run_max
        np.maximum(run_max, top, out=run_max)
        low = x <= eps
        cand_t[c.col[rising]] = np.nan
        w = np.flatnonzero(np.isnan(cand_t[c.col]) & low.any(axis=0))
        if w.size:
            start = np.where(rising[w], np.argmax(x[:, w], axis=0), 0)
            hit = low[:, w] & (np.arange(b)[:, None] >= start)
            found = hit.any(axis=0)
            first, w = np.argmax(hit, axis=0)[found], w[found]
            cand_t[c.col[w]] = (i0 + 1 + first) * dt
            cand_h[c.col[w]] = run[first + 1, w]
        states[0], book[:, 0] = states[b], book[:, b]

        if (i0 + b) % _STOP_EVERY == 0:
            done = _stoppable(c, states[0, 0], states[0, 1], c.h_last,
                              cand_t[c.col], eps)
            if done.any():
                saturated[c.col[done]] = c.saturated[done]
                stepper.keep(c, ~done)
                states, book = states[:, :, ~done], book[:, :, ~done]
                run_max = run_max[~done]
                if done.all():
                    break

    c = stepper.c
    saturated[c.col] = c.saturated
    late = np.isnan(cand_t)
    cand_h[c.col] = np.where(late[c.col], book[1, 0], cand_h[c.col])
    return np.where(late, horizon, cand_t), cand_h, late, saturated
