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
import numbers
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


def real(name: str, value) -> float:
    """value as a float; a bool, a string, None or another value that is
    not a real number is refused, not converted, as is an int past float's
    range, each with ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of range: {exc}") from exc


@dataclass(frozen=True)
class ThresholdDistribution:
    """Distribution of source activation thresholds.

    Supported kinds: exponential(mean), uniform(lo, hi), weibull(shape, scale).
    Exposes the hazard f/(1-F): lambda times it is an inactive source's
    activation rate, in the source ODE and the oracle alike
    (``_ActivationRate``).  Where F saturates (F = 1) the hazard is
    returned as +inf, and the rate substitutes the last finite value.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in THRESHOLD_PARAMS:
            raise ValueError(
                f"unknown threshold distribution kind {self.kind!r}")
        # stored as a tuple of floats, hashable as a cache key: [100.0] and
        # (100,) are kept as (100.0,); what real() refuses is refused, and
        # so is a 0-d array, which iterates no entries
        params = self.params
        refused = ValueError(f"{self.kind} threshold parameters must be a "
                             f"sequence of numbers, got {params!r}")
        if (not isinstance(params, (tuple, list, np.ndarray))
                or isinstance(params, np.ndarray) and params.ndim == 0):
            raise refused
        try:
            params = tuple(real(self.kind, v) for v in params)
        except ValueError:
            raise refused from None
        object.__setattr__(self, "params", params)
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
        return cls("exponential", (mean,))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ThresholdDistribution":
        return cls("uniform", (lo, hi))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "ThresholdDistribution":
        return cls("weibull", (shape, scale))

    def hazard(self, x):
        """Activation hazard f(x)/(1-F(x)), as a float array of x's shape;
        +inf where F has saturated."""
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
        return out


def whole_count(name: str, value) -> int:
    """value as an int: what real() refuses is refused, and so is a
    fractional or non-finite value; 150.0 is taken as 150."""
    if not real(name, value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SystemParams:
    """All model constants: populations, contact/curing rates, costs.
    Each field is stored as a float (real()), the two counts then as ints,
    and each must be finite and in range, from JSON or in Python."""

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
            value = real(f.name, getattr(self, f.name))
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, value)
        for name in ("n_nodes", "n_sources"):
            # a count sizes tables and ranges: 100.0 is stored as 100
            count = whole_count(name, getattr(self, name))
            object.__setattr__(self, name, count)
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


# most steps in a batch block: keeps the block buffer of a narrow batch,
# and the process's peak memory, below what _BLOCK_BYTES alone allows
_BLOCK_STEPS = 50
_BLOCK_BYTES = 1 << 19  # budget of the per-block bookkeeping buffer


def step_count(horizon: float, dt: float) -> int:
    """Number of RK4 steps that span [0, horizon]; refuses a dt that does
    not fit the horizon a whole number of times."""
    if not 0 < dt <= horizon < math.inf:
        raise ValueError("require 0 < dt <= horizon < inf")
    ratio = horizon / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {horizon:g} over dt={dt:g} is not a "
                         f"finite number of steps")
    n_steps = round(ratio)
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon:g} is not a whole number of "
                         f"steps of dt={dt:g}")
    return n_steps


def check_epsilon(extinction_epsilon: float) -> None:
    """Refuse an extinction epsilon that is not finite and positive."""
    if not 0.0 < extinction_epsilon < math.inf:
        raise ValueError(f"extinction_epsilon must be finite and positive, "
                         f"got {extinction_epsilon!r}")


def _non_finite(i: int, dt: float, k: float, n_nodes: float) -> RuntimeError:
    """The error for a state first not finite at step i of column k."""
    return RuntimeError(f"non-finite state at step {i} (t={i * dt:g}) for "
                        f"k_protected={k:g} in the table with "
                        f"n_nodes={n_nodes:g}")


class _ActivationRate:
    """lambda * h(x_bar), an inactive source's activation rate, in n
    columns (lam a float or one per column), for both ODE loops and the
    oracle.  ``const`` is lambda * (1/mean) for an exponential threshold
    (None if 1/mean overflows), the rate wherever x_bar >= 0; elsewhere
    ``_hazard`` gives ``dist.hazard``, a non-finite (saturated) entry
    replaced by its column's last finite value (0.0 before any) and
    marked in ``saturated``.  ``of`` takes n entries, ``at`` one float
    (n = 1).  The sign and finiteness tests read the entry the C method
    ``argmin`` or ``argmax`` points at, at a fraction of ``ndarray.min``'s
    cost: the first NaN if any, so the sign test is False on a NaN as on
    a negative entry, and True on -0.0.
    """

    def __init__(self, dist: ThresholdDistribution, lam, n: int = 1):
        self.dist, self.lam = dist, lam
        h = 1.0 / dist.params[0] if dist.kind == "exponential" else math.inf
        self.const = lam * h if math.isfinite(h) else None
        self.saturated = np.zeros(n, bool)
        self.last, self.out, self.one = np.zeros(n), np.empty(n), np.empty(1)

    def of(self, x_bar: np.ndarray):
        """The rate at each of the n entries of x_bar."""
        const = self.const
        if const is not None and x_bar[x_bar.argmin()] >= 0.0:
            return const
        return np.multiply(self.lam, self._hazard(x_bar), self.out)

    def at(self, x_bar: float) -> float:
        """The rate at x_bar, as a float, for n = 1."""
        const = self.const
        if const is not None and x_bar >= 0.0:
            return const
        self.one[0] = x_bar
        return self.lam * float(self._hazard(self.one)[0])

    def _hazard(self, x_bar: np.ndarray) -> np.ndarray:
        """dist.hazard(x_bar) under the saturation rule."""
        h = self.dist.hazard(x_bar)
        # h is never below 0: argmax points at a NaN or +inf if any
        if not math.isfinite(h[h.argmax()]):
            bad = ~np.isfinite(h)
            self.saturated |= bad
            h = np.where(bad, self.last, h)
        self.last = h
        return h


class _Stepper:
    """Fixed-step RK4 for a stack of columns of the state (x, s, x_bar),
    the engine of ``batch_extinction_stats``.

    A state is a (3, n) array; stages go into buffers allocated once per
    column set, and each operation groups its operands as the per-column
    formula does, so a column is bit-identical alone or stacked.  Each
    stage takes its activation rate from ``rate.of``, whose ``saturated``
    marks the columns whose hazard saturated.
    """

    def __init__(self, c: SimpleNamespace, dist: ThresholdDistribution,
                 dt: float):
        self.c, self.dt = c, dt
        # at least one column, for argmin: batch_extinction_stats returns
        # before it builds a stepper for none
        n = len(c.k)
        self.rate = _ActivationRate(dist, c.lambda_influence, n)
        self.rates = np.array([[c.beta, c.gamma], [-c.delta, -c.delta_s]])
        self.caps = np.array([c.n_nodes - c.k, c.n_sources])
        # bounds of the clipped rows x and s
        self.hi = np.array([np.maximum(c.n_nodes - c.k, c.x0), c.n_sources])
        self.prod, self.room = np.empty((2, 2, n)), np.empty((2, n))
        self.stage = np.empty((3, n))
        # derivatives (dx, ds, dx_bar = force, activation term) of k1,
        # which then gathers the step's slope, and of k2, k3, k4 in turn
        d1, d = self.derivs = np.empty((2, 4, n))
        # scalar operands as 0-d arrays: numpy runs the loop it runs for a
        # Python float, without converting the float on every call
        self.zero, self.two, half, whole, self.sixth = map(
            np.array, (0.0, 2.0, 0.5 * dt, dt, dt / 6.0))
        # per stage: the slope that leads from y0 to its point and the step
        # along it (none for k1, taken at y0), whether its slope counts
        # twice, and the rows it writes: force, activation term,
        # (force, act), (dx, ds)
        self.stages = tuple(
            (lead, step, twice, r[2], r[3], r[2:], r[:2])
            for lead, step, twice, r in (
                (None, None, False, d1), (d1[:3], half, True, d),
                (d[:3], half, True, d), (d[:3], whole, False, d)))

    def advance(self, states: np.ndarray, i0: int) -> None:
        """Step states[0] into states[1:] (steps i0+1, i0+2, ...), each
        state clipped and x_bar kept nondecreasing; raise RuntimeError at
        the first state that is not finite.

        A stage writes the derivative (dx, ds, dx_bar = force) at its point,
        where force = (beta*x + gamma*s) * max(N-k-x, 0), dx = -delta*x +
        force and ds = -delta_s*s + (lambda*h)*(n_s-s); k1's rows gather
        ((k1 + 2k2) + 2k3) + k4.  The ufuncs and views are bound once a
        block, with no method call or tuple of views per stage.  np.add,
        np.multiply and np.subtract take ``out`` positionally, which skips
        numpy's keyword handling; np.maximum and np.minimum keep ``out=``,
        as numpy 2.4 deprecates a positional one there."""
        add, mul, sub = np.add, np.multiply, np.subtract
        maximum, minimum = np.maximum, np.minimum
        rates, caps, hi, y = self.rates, self.caps, self.hi, self.stage
        prod, room, stages = self.prod, self.room, self.stages
        bx, gs, decay = prod[0, 0], prod[0, 1], prod[1]
        pool, free_s = room
        y_xs, y_xb = y[:2], y[2]
        acc, d = self.derivs[:, :3]
        rate = self.rate.of
        zero, two, sixth = self.zero, self.two, self.sixth
        y0 = states[0]
        xs0, xb0 = y0[:2], y0[2]
        for j in range(1, len(states)):
            xs, xb = xs0, xb0
            for lead, step, twice, force, act, tail, head in stages:
                if lead is not None:
                    mul(lead, step, y)
                    add(y0, y, y)
                    xs, xb = y_xs, y_xb
                mul(rates, xs, prod)            # [[bx, gs], decay]
                sub(caps, xs, room)             # [N - k - x, n_s - s]
                maximum(pool, zero, out=pool)
                add(bx, gs, force)
                mul(force, pool, force)
                mul(rate(xb), free_s, act)
                add(decay, tail, head)
                if lead is not None:
                    add(acc, mul(d, two, y) if twice else d, acc)
            mul(acc, sixth, acc)
            out = states[j]
            add(y0, acc, out)
            # np.clip's bits (NaN stays, -0.0 becomes 0.0) in two cheaper calls
            ends, xb1 = out[:2], out[2]
            maximum(ends, zero, out=ends)
            minimum(ends, hi, out=ends)
            maximum(xb1, xb0, out=xb1)
            y0, xs0, xb0 = out, ends, xb1
        if not np.isfinite(states[1:]).all():
            j, col = np.argwhere(~np.isfinite(states[1:]).all(axis=1))[0]
            raise _non_finite(i0 + 1 + j, self.dt, self.c.k[col],
                              self.c.n_nodes[col])


def integrate(params: SystemParams, k_protected: float,
              dist: ThresholdDistribution = DEFAULT_DIST,
              horizon: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
              extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON) -> Trajectory:
    """Fixed-step RK4 integration over [0, horizon] at a given protection
    level, keeping every step.  States are clamped to their admissible
    ranges and the cumulative count kept nondecreasing; a state that is
    not finite raises RuntimeError, naming its first step, once the
    horizon is reached.

    One recorded column steps in Python floats: a ``_Stepper`` step costs
    44 ufunc calls and four ``argmin``s whatever its column count, about
    12 times the float loop's step on one column.  Every operation groups
    its operands as ``_Stepper`` does, the activation rate is
    ``_ActivationRate.at``, the float form of ``_Stepper``'s, and the clip
    keeps the sign of a zero as ``np.clip`` does with scalar bounds."""
    n_steps = step_count(horizon, dt)
    check_epsilon(extinction_epsilon)
    k = float(k_protected)
    if not 0.0 <= k <= params.n_nodes:
        raise ValueError("k_protected must lie in [0, n_nodes]")
    beta, gamma = params.beta, params.gamma
    neg_delta, neg_delta_s = -params.delta, -params.delta_s
    n_s = float(params.n_sources)
    cap = float(params.n_nodes) - k
    x_hi = max(cap, params.x0)
    rate = _ActivationRate(dist, params.lambda_influence)
    at = rate.at

    def rhs(x: float, s: float, xb: float) -> tuple:
        # as np.maximum: NaN stays NaN, and cap - x is never -0.0 (cap >= +0)
        force = (beta * x + gamma * s) * max(cap - x, 0.0)
        return (neg_delta * x + force, neg_delta_s * s + at(xb) * (n_s - s),
                force)

    half, sixth = 0.5 * dt, dt / 6.0
    hist = np.empty((3, n_steps + 1))
    hx, hs, hxb = hist
    x = hx[0] = params.x0
    s = hs[0] = params.s0
    xb = hxb[0] = x
    for i in range(1, n_steps + 1):
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
    bad = ~np.isfinite(hist).all(axis=0)
    if bad.any():
        raise _non_finite(int(np.argmax(bad)), dt, k, params.n_nodes)
    t = np.arange(n_steps + 1) * dt

    i_peak = int(np.argmax(hx))
    below = np.nonzero(hx[i_peak:] <= extinction_epsilon)[0]
    extinction = float(t[i_peak + below[0]]) if below.size else None
    return Trajectory(t=t, x=hx, s=hs, x_bar=hxb, extinction_time=extinction,
                      hazard_saturated=bool(rate.saturated[0]))


# the SystemParams fields the right-hand side and initial state read;
# ``risk`` keys a roster's table on those after n_nodes
_COLUMN_FIELDS = ("n_nodes", "n_sources", "beta", "gamma", "delta", "delta_s",
                  "lambda_influence", "x0", "s0")


def _column_constants(params, k: np.ndarray) -> SimpleNamespace:
    """Per-column model constants and protection level k.  ``params`` is
    one parameter set for every column or one per column."""
    if isinstance(params, SystemParams):
        params = [params] * len(k)
    elif len(params) != len(k):
        raise ValueError("need one parameter set per k_protected value")
    cols = {name: np.array([getattr(p, name) for p in params], dtype=float)
            for name in _COLUMN_FIELDS}
    if not ((k >= 0) & (k <= cols["n_nodes"])).all():
        raise ValueError("k_protected must lie in [0, n_nodes]")
    return SimpleNamespace(**cols, k=k)


def trapezoid(g: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Running trapezoid of g, sampled every dt along axis 0, continuing
    the sum in out[0]: out[i] = out[i-1] + (0.5*dt)*(g[i-1] + g[i]), added
    row after row.  The one quadrature of the hazard beta*X + gamma*S, for
    risk tables and trajectories alike.  Returns out."""
    np.add(g[:-1], g[1:], out=out[1:])
    np.multiply(0.5 * dt, out[1:], out=out[1:])
    return np.add.accumulate(out, axis=0, out=out)


# floats a batch block holds per column and step: the state (x, s, x_bar),
# g = beta*x + gamma*s and the running trapezoid of g
_SLOTS = 5


def batch_extinction_stats(params, k_values: np.ndarray,
                           dist: ThresholdDistribution,
                           horizon: float = DEFAULT_HORIZON,
                           dt: float = DEFAULT_DT,
                           extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON):
    """Integrate once for many protection levels; return per-column
    extinction time t_f, accumulated infection hazard integral (trapezoid
    of beta*X + gamma*S over [0, t_f]) and truncation/saturation flags.

    t_f is ``Trajectory``'s extinction time: the first sample time at or
    after the peak of x where x <= the extinction epsilon; a column that
    never gets there is truncated, with t_f = horizon.

    ``params`` is one SystemParams for every column, or one per column.
    Every column given is stepped, side by side to the horizon, each
    bit-identical to a call of its own.  n_nodes and k enter a column only
    as the cap N - k, so ``risk`` serves the table of a smaller N as the
    tail of a larger one.  This is the engine behind the k -> P_i(k) risk
    tables; no trajectory is kept.  After each block of steps the
    trapezoid, running maximum and extinction candidates catch up on all
    its steps at once.
    """
    n_steps = step_count(horizon, dt)
    check_epsilon(extinction_epsilon)
    k_values = np.asarray(k_values, dtype=float)
    if k_values.ndim != 1:
        raise ValueError(f"k_values must be one-dimensional, got shape "
                         f"{k_values.shape}")
    c = _column_constants(params, k_values)
    if not len(c.k):
        return np.empty(0), np.empty(0), np.zeros(0, bool), np.zeros(0, bool)
    n_cols = len(c.k)
    eps = extinction_epsilon
    stepper = _Stepper(c, dist, dt)

    # steps per block: as many as the buffer budget holds, at least one
    rows = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (_SLOTS * 8 * n_cols) - 1))
    # row 0 holds the values after the previous block; the state is stored
    # by step, as _Stepper steps it, and g and its trapezoid by slot, so no
    # operation reads and writes overlapping memory
    states = np.empty((rows + 1, 3, n_cols))
    book = np.empty((2, rows + 1, n_cols))
    states[0] = c.x0, c.s0, c.x0
    book[:, 0] = c.beta * c.x0 + c.gamma * c.s0, np.zeros(n_cols)
    run_max = c.x0.copy()
    # extinction candidates: time and hazard integral
    cand_t = np.where(c.x0 <= eps, 0.0, np.nan)
    cand_h = cand_t.copy()
    for i0 in range(0, n_steps, rows):
        b = min(rows, n_steps - i0)
        stepper.advance(states[:b + 1], i0)
        x, g, run = states[1:b + 1, 0], book[0, :b + 1], book[1, :b + 1]
        # g = beta*x + gamma*s, and its trapezoid continued from row 0
        np.multiply(c.beta, x, out=g[1:])
        np.multiply(c.gamma, states[1:b + 1, 1], out=run[1:])
        np.add(g[1:], run[1:], out=g[1:])
        trapezoid(g, dt, run)
        # x sets a new running maximum in this block iff the block maximum
        # beats the old one; its first occurrence is the last new maximum,
        # which drops the extinction candidate.  The candidate is the first
        # step at or after the last new maximum with x <= eps.
        top = x.max(axis=0)
        rising = top > run_max
        np.maximum(run_max, top, out=run_max)
        low = x <= eps
        cand_t[rising] = np.nan
        w = np.flatnonzero(np.isnan(cand_t) & low.any(axis=0))
        if w.size:
            start = np.where(rising[w], np.argmax(x[:, w], axis=0), 0)
            hit = low[:, w] & (np.arange(b)[:, None] >= start)
            found = hit.any(axis=0)
            first, w = np.argmax(hit, axis=0)[found], w[found]
            cand_t[w] = (i0 + 1 + first) * dt
            cand_h[w] = run[first + 1, w]
        states[0], book[:, 0] = states[b], book[:, b]

    late = np.isnan(cand_t)
    return (np.where(late, horizon, cand_t), np.where(late, book[1, 0], cand_h),
            late, stepper.rate.saturated)
