"""Nash equilibrium solvers and derived economic quantities.

All solvers work off the indifference gap D(k) = I_c * P_i(k) - U_c over a
complete risk table.  Mixed equilibria are roots of a Bernstein-form
polynomial in the activation probability.  The solver checks that the gap
is nonincreasing, which makes the polynomial monotone, so bisection finds
its one root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .dynamics import (DEFAULT_DIST, DEFAULT_DT, DEFAULT_EXTINCTION_EPSILON,
                       DEFAULT_HORIZON, SystemParams, ThresholdDistribution)
from .risk import risk_profile

RESIDUAL_TOL = 1e-9
INTERVAL_TOL = 1e-12
_SCAN_POINTS = 1000


@dataclass(frozen=True)
class Pure:
    psi: int


@dataclass(frozen=True)
class FullyMixed:
    p_star: float
    residual: float


@dataclass(frozen=True)
class MixerProfile:
    n_u: int
    n_nu: int
    p_star: float
    residual: float
    stability_violation: bool = False


@dataclass(frozen=True)
class NoInteriorEquilibrium:
    boundary: int  # 0: nobody updates, 1: everybody updates
    # why the boundary was returned; a diagnostic, not part of the result
    reason: str = field(default="", compare=False)


EquilibriumResult = Union[Pure, FullyMixed, MixerProfile, NoInteriorEquilibrium]


def gap_table(risk: np.ndarray, params: SystemParams) -> np.ndarray:
    """Indifference gap I_c * P_i(k) - U_c over the whole risk table:
    positive where a non-updater facing k updaters would rather update.

    The table must cover k = 0..N with finite entries."""
    risk = np.asarray(risk, dtype=float)
    if len(risk) < params.n_nodes + 1:
        raise ValueError("risk table must cover k = 0..N")
    bad = np.flatnonzero(~np.isfinite(risk))
    if bad.size:
        raise ValueError(f"risk table entry at k={bad[0]} is not finite")
    return params.infection_cost * risk - params.update_cost


def pure_ne(risk: np.ndarray, params: SystemParams) -> Pure:
    """Unique pure equilibrium count of updaters, by exhaustive scan.

    k is an equilibrium iff a non-updater facing k-1 updaters prefers to
    update (gap(k-1) >= 0) and one facing k prefers not to (gap(k) <= 0);
    boundaries use only the applicable condition.  The first k with
    gap(k) <= 0, or N if there is none, always qualifies.
    """
    n = params.n_nodes
    gap = gap_table(risk, params)
    hits = [k for k in range(n + 1)
            if (k == 0 or gap[k - 1] >= 0) and (k == n or gap[k] <= 0)]
    if len(hits) > 1:
        raise RuntimeError(
            f"pure NE uniqueness violated (candidates {hits}); "
            "risk table is not monotone")
    return Pure(hits[0])


@lru_cache(maxsize=16)
def _log_choose(m: int) -> np.ndarray:
    """log C(m, k) for k = 0..m, read-only.

    Each C(m, k) is an exact integer (C(m, k+1) = C(m, k)(m-k)/(k+1)), so
    each log is rounded once; differences of lgamma values near
    lgamma(m+1) would carry that term's rounding into every weight of the
    row.  Cached because one solve asks for the same m about fifty times
    (about ten grid probes, then about forty bisection steps)."""
    row = np.empty(m + 1)
    c = 1
    for k in range(m + 1):
        row[k] = math.log(c)
        c = c * (m - k) // (k + 1)
    row.flags.writeable = False
    return row


def _binom_pmf(m: int, p) -> np.ndarray:
    """Binomial(m, p) weights for k = 0..m, in log space.

    0 * log 0 counts as 0, so p = 0 and p = 1 give exact one-hot weights."""
    k = np.arange(m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(k == 0, 0.0, k * np.log(p))
        misses = np.where(k == m, 0.0, (m - k) * np.log1p(-p))
        return np.exp(_log_choose(m) + hits + misses)


def _bernstein_gap(gap: np.ndarray, p: float) -> float:
    """Expected gap of a focal node against len(gap)-1 opponents mixing
    at p: sum_k C(m, k) p^k (1-p)^(m-k) gap[k] with m = len(gap) - 1."""
    return float(_binom_pmf(len(gap) - 1, p) @ gap)


def _solve_bernstein(gap: np.ndarray):
    """Root of the expected-gap polynomial; returns (p, residual) or a
    NoInteriorEquilibrium when the gap has one sign at both ends.

    The polynomial's derivative is m * sum_k (gap[k+1] - gap[k]) *
    B_{k,m-1}(p) (Lorentz 1953), so a nonincreasing gap table gives a
    nonincreasing polynomial; a table that rises anywhere is refused.  A
    binary search finds the first point of a _SCAN_POINTS grid where the
    polynomial is <= 0, and bisection narrows that cell to the root."""
    f0 = _bernstein_gap(gap, 0.0)
    f1 = _bernstein_gap(gap, 1.0)
    if f0 <= 0:
        return NoInteriorEquilibrium(
            0, reason=f"expected gap at p=0 is {f0:.6g} <= 0: updating "
            "does not pay even when nobody else updates")
    if f1 >= 0:
        return NoInteriorEquilibrium(
            1, reason=f"expected gap at p=1 is {f1:.6g} >= 0: updating "
            "pays even when everybody else updates")
    rises = np.flatnonzero(np.diff(gap) > 0)
    if rises.size:
        k = int(rises[0]) + 1
        raise RuntimeError(
            "expected-gap polynomial is not monotone: the gap table rises, "
            f"gap[{k}] > gap[{k - 1}]")

    grid = np.linspace(0.0, 1.0, _SCAN_POINTS)
    i, j = 0, len(grid) - 1  # gap > 0 at grid[i], <= 0 at grid[j]
    while j - i > 1:
        mid = (i + j) // 2
        if _bernstein_gap(gap, grid[mid]) > 0:
            i = mid
        else:
            j = mid
    lo, hi = grid[i], grid[j]
    while hi - lo > INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        fm = _bernstein_gap(gap, mid)
        if abs(fm) <= RESIDUAL_TOL:
            return float(mid), fm
        if fm > 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return float(mid), _bernstein_gap(gap, mid)


def mixed_ne(risk: np.ndarray, params: SystemParams) -> EquilibriumResult:
    """Symmetric fully mixed equilibrium activation probability."""
    # a focal node faces k = 0..N-1 updating opponents
    sol = _solve_bernstein(gap_table(risk, params)[:params.n_nodes])
    if isinstance(sol, NoInteriorEquilibrium):
        return sol
    p, res = sol
    return FullyMixed(p_star=p, residual=res)


def mixer_nonmixer_ne(n_u: int, n_nu: int, risk: np.ndarray,
                      params: SystemParams) -> EquilibriumResult:
    """Equilibrium when n_u players always update, n_nu never do, and the
    rest mix.  Feasible only for n_u < psi and n_u + n_nu <= N - 2."""
    n = params.n_nodes
    if n_u < 0 or n_nu < 0 or n_u + n_nu > n:
        raise ValueError("require n_u, n_nu >= 0 and n_u + n_nu <= N")
    full_gap = gap_table(risk, params)

    psi = pure_ne(risk, params).psi
    if n_u >= psi:
        return NoInteriorEquilibrium(
            0, reason=f"n_u={n_u} >= psi={psi}: committed updaters already "
            "cover the pure equilibrium")
    if n_u + n_nu > n - 2:
        return NoInteriorEquilibrium(
            0, reason=f"n_u + n_nu = {n_u + n_nu} > N - 2 = {n - 2}: "
            "fewer than two mixers")

    m = n - n_u - n_nu  # mixers
    sol = _solve_bernstein(full_gap[n_u:n_u + m])  # focal mixer, m-1 opponents
    if isinstance(sol, NoInteriorEquilibrium):
        return sol
    p, res = sol

    # stability of the committed updaters: switching to mix must not pay,
    # i.e. the expected gap seen by a deviating pure-U player stays >= 0
    violation = (n_u > 0 and
                 _bernstein_gap(full_gap[n_u - 1:n_u + m], p) < -RESIDUAL_TOL)
    return MixerProfile(n_u=n_u, n_nu=n_nu, p_star=p, residual=res,
                        stability_violation=violation)


def epidemic_threshold(params: SystemParams):
    """Complete-graph epidemic threshold 1/(N-1) and the die-out verdict."""
    tau_c = 1.0 / (params.n_nodes - 1)
    if params.delta > 0:
        dies_out = params.beta / params.delta < tau_c
    else:
        # infinite transmission/curing ratio unless there is no transmission
        dies_out = params.beta == 0
    return tau_c, dies_out


def cost_gain(p_star: float) -> float:
    """Fractional saving in total update spend at equilibrium; the
    (U_c N - p U_c N) / (U_c N) expression simplifies to 1 - p exactly."""
    if not 0.0 <= p_star <= 1.0:
        raise ValueError("p_star must lie in [0, 1]")
    return 1.0 - p_star


def critical_update_cost(params: SystemParams,
                         dist: ThresholdDistribution = DEFAULT_DIST,
                         horizon: float = DEFAULT_HORIZON,
                         dt: float = DEFAULT_DT,
                         extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON
                         ) -> float:
    """Smallest update cost at which nobody is willing to update.

    The mixed solver hits the nobody-updates boundary exactly when the gap
    at zero updaters is nonpositive, so the critical cost is I_c * P_i(0).
    """
    risk = risk_profile(params, dist, horizon=horizon, dt=dt,
                        extinction_epsilon=extinction_epsilon)
    return params.infection_cost * float(risk[0])
