"""Infection probability over the epidemic lifetime.

A susceptible node accrues infection hazard beta*X(t) + gamma*S(t); the
probability of being infected at least once before virus extinction is
1 - exp(-integral of that hazard over [0, t_f]).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .dynamics import (_COLUMN_FIELDS, DEFAULT_DIST, DEFAULT_DT,
                       DEFAULT_EXTINCTION_EPSILON, DEFAULT_HORIZON,
                       SystemParams, ThresholdDistribution, Trajectory,
                       batch_extinction_stats, check_epsilon, step_count,
                       trapezoid)

CACHE_SIZE = 64  # risk tables kept for reuse

# risk tables by (roster without n_nodes and costs, dist, horizon, dt,
# epsilon), each at the largest N asked for so far; least recently used
# first
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
    """Table P_i(k) for k = 0..N updaters, a read-only tail slice of its
    roster's cached table.

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

    An entry depends on n_nodes and k only through the cap N - k, so the
    table of N is the tail of the table of any larger N on the same roster
    (every other constant of the dynamics).  The cache keeps one table per
    roster, at the largest N asked for so far, and serves a smaller N as
    its last N + 1 entries.  A larger N steps only the missing caps, at
    that N, and prepends them; every roster that grows goes into a single
    batch integration.  Each table is bit-identical to a build of its own.
    """
    # checked before the cache is read: True would find a table of 1.0
    step_count(horizon, dt)
    check_epsilon(extinction_epsilon)
    keys = [(tuple(getattr(p, name) for name in _COLUMN_FIELDS[1:]), dist,
             horizon, dt, extinction_epsilon) for p in params_list]
    # each roster at the largest N asked for
    widest = dict(sorted(zip(keys, params_list), key=lambda kp: kp[1].n_nodes))
    found = {key: _CACHE.get(key, np.empty(0)) for key in widest}
    # (key, roster at its largest N, caps it lacks)
    grow = [(key, p, p.n_nodes + 1 - len(found[key]))
            for key, p in widest.items() if p.n_nodes >= len(found[key])]
    if grow:
        # the k values before the per-column list: numpy refuses at once an
        # N too large for an array, where the list would fill memory first
        k_values = np.concatenate([np.arange(n) for _, _, n in grow])
        _, integral, _, _ = batch_extinction_stats(
            [p for _, p, n in grow for _ in range(n)], k_values, dist,
            horizon=horizon, dt=dt, extinction_epsilon=extinction_epsilon)
        start = 0
        for key, _, n in grow:
            table = np.concatenate([-np.expm1(-integral[start:start + n]),
                                    found[key]])
            table.flags.writeable = False
            found[key], start = table, start + n
    for key, table in found.items():
        _CACHE[key] = table
        _CACHE.move_to_end(key)
    while len(_CACHE) > CACHE_SIZE:
        _CACHE.popitem(last=False)
    return [found[key][len(found[key]) - p.n_nodes - 1:]
            for key, p in zip(keys, params_list)]
