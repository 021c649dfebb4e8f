"""Infection probability over the epidemic lifetime.

A susceptible node accrues infection hazard beta*X(t) + gamma*S(t); the
probability of being infected at least once before virus extinction is
1 - exp(-integral of that hazard over [0, t_f]).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .dynamics import (DEFAULT_DIST, DEFAULT_DT, DEFAULT_EXTINCTION_EPSILON,
                       DEFAULT_HORIZON, SystemParams, ThresholdDistribution,
                       Trajectory, batch_extinction_stats, trapezoid)

CACHE_SIZE = 64  # risk tables kept for reuse

# risk tables by (cost-free params, dist, horizon, dt, epsilon), least
# recently used first
_CACHE: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class InfectionRisk:
    p_infect: float
    hazard_integral: float
    t_f: float
    truncated: bool = False


def _hazard_mass(traj: Trajectory, params: SystemParams):
    """(i_f, truncated, cum): the sample index of t_f, the end of the
    epidemic, and the trapezoid integral of the hazard beta*X + gamma*S
    from 0 to every sample, summed as a risk table sums it.

    t_f is the extinction time, which must be a sample time; if the
    trajectory never went extinct it is the horizon end, and truncated is
    set.  Negative samples are refused, and so is a grid whose steps are
    not all positive and equal (within step_count's 1e-9 of the end).
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    if (traj.x < 0).any() or (traj.s < 0).any():
        raise ValueError("trajectory contains negative samples")
    truncated = traj.extinction_time is None
    t_f = traj.t[-1] if truncated else traj.extinction_time
    hits = np.flatnonzero(traj.t == t_f)
    if not hits.size:
        raise ValueError(f"extinction_time {t_f!r} is not a sample time")
    steps = np.diff(traj.t)
    dt = steps[0] if steps.size else 0.0
    if not ((steps > 0) & (np.abs(steps - dt) <= 1e-9 * traj.t[-1])).all():
        raise ValueError("trajectory time grid is not uniform")
    cum = trapezoid(params.beta * traj.x + params.gamma * traj.s, dt,
                    np.zeros(len(traj)))
    return int(hits[0]), truncated, cum


def infection_probability(traj: Trajectory, params: SystemParams) -> InfectionRisk:
    """P(infected before extinction) by trapezoidal quadrature of the hazard
    over [0, t_f]; flagged truncated when t_f is the horizon end.  Equal,
    bit for bit, to the risk table's entry for the same k."""
    i_f, truncated, cum = _hazard_mass(traj, params)
    integral = float(cum[i_f])
    return InfectionRisk(p_infect=float(-np.expm1(-integral)),
                         hazard_integral=integral, t_f=float(traj.t[i_f]),
                         truncated=truncated)


def remaining_risk(traj: Trajectory, params: SystemParams) -> np.ndarray:
    """Per-sample probability of being infected between t and t_f.

    Starts at the full infection probability and decays to zero as the
    remaining hazard mass vanishes; samples past t_f are exactly zero.
    """
    i_f, _, cum = _hazard_mass(traj, params)
    tail = cum[i_f] - cum
    tail[i_f + 1:] = 0.0
    return -np.expm1(-tail)


def risk_profile(params: SystemParams,
                 dist: ThresholdDistribution = DEFAULT_DIST,
                 horizon: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
                 extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON) -> np.ndarray:
    """Table P_i(k) for k = 0..N updaters, memoized per parameter set.

    Equilibrium solvers and cost sweeps all read from this table; the
    update/infection costs do not enter the dynamics, so the cache also
    serves every cost variation of the same rate parameters.
    """
    return risk_profiles([params], dist, horizon, dt, extinction_epsilon)[0]


def risk_profiles(params_list: Sequence[SystemParams],
                  dist: ThresholdDistribution = DEFAULT_DIST,
                  horizon: float = DEFAULT_HORIZON, dt: float = DEFAULT_DT,
                  extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON
                  ) -> List[np.ndarray]:
    """The risk_profile table of every parameter set in params_list.

    Tables already in the cache are served from it; every missing one is
    built in a single stacked batch integration and then cached.  Each is
    bit-identical to a build of its own.
    """
    keys = [(dataclasses.replace(p, infection_cost=0.0, update_cost=0.0),
             dist, horizon, dt, extinction_epsilon) for p in params_list]
    found = {}
    for key in keys:
        if key in _CACHE:
            _CACHE.move_to_end(key)
            found[key] = _CACHE[key]
    missing = [key for key in dict.fromkeys(keys) if key not in found]
    if missing:
        sizes = [key[0].n_nodes + 1 for key in missing]
        _, integral, _, _ = batch_extinction_stats(
            [key[0] for key, n in zip(missing, sizes) for _ in range(n)],
            np.concatenate([np.arange(n) for n in sizes]), dist,
            horizon=horizon, dt=dt, extinction_epsilon=extinction_epsilon)
        start = 0
        for key, n in zip(missing, sizes):
            table = -np.expm1(-integral[start:start + n])
            table.flags.writeable = False
            found[key], start = table, start + n
        for key in missing:
            _CACHE[key] = found[key]
        while len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)
    return [found[key] for key in keys]
