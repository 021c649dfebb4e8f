"""Seeded byte-identity of the Gillespie oracle.

Every field of ``simulate_ctmc``'s result is hashed over a small case
matrix and compared with a recorded SHA-256.  The digests pin the exact
event sequence a seed produces, so any change to the order of RNG draws,
to how a draw maps to a node or source, or to the float expression of a
rate shows up here.  A plain rescanning implementation of the same chain
serves as the reference on a wider set of random cases; it draws its
indices with ``Generator.integers``, against which the oracle's own index
draw is also checked directly.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from virusgame import oracle
from virusgame.dynamics import SystemParams, ThresholdDistribution
from virusgame.oracle import (EVENT_CAP, EVENT_CURE, EVENT_INFECT,
                              EVENT_SRC_ACTIVATE, EVENT_SRC_DEACTIVATE,
                              SimulationResult, _index_draw, simulate_ctmc)

BASE = SystemParams(n_nodes=30, n_sources=10, beta=1e-3, gamma=1e-3,
                    delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                    x0=0.0, s0=3.0, infection_cost=1.0, update_cost=0.1)

EXP100 = ThresholdDistribution.exponential(100.0)
EXP3 = ThresholdDistribution.exponential(3.0)
UNIF = ThresholdDistribution.uniform(1.0, 8.0)
WEIB = ThresholdDistribution.weibull(1.5, 4.0)
# hazard 1000: a source activates about as soon as the influence allows
INSTANT = ThresholdDistribution.exponential(1e-3)

# supercritical: infections keep coming until the horizon
BUSY = dataclasses.replace(BASE, beta=0.01)
# sources activate fast enough to be seen
LIVELY = dataclasses.replace(BASE, beta=4e-3, lambda_influence=0.05)

# name -> (params, dist, k_protected, seed, horizon, event cap or None for
# oracle.EVENT_CAP)
CASES = {
    "exp100_k0": (BUSY, EXP100, 0, 7, 150.0, None),
    "exp100_x0_k8": (dataclasses.replace(BUSY, x0=2.0), EXP100, 8, 13, 150.0,
                     None),
    "exp3_x0": (dataclasses.replace(LIVELY, x0=4.0), EXP3, 0, 5, 200.0, None),
    "uniform_k5": (dataclasses.replace(LIVELY, beta=0.01, x0=2.0), UNIF, 5,
                   3, 200.0, None),
    "weibull_x0_k10": (dataclasses.replace(LIVELY, x0=3.0), WEIB, 10, 9,
                       200.0, None),
    "instant_activation": (dataclasses.replace(
        BASE, x0=2.0, s0=0.0, delta_s=0.0, lambda_influence=50.0, beta=0.0,
        gamma=0.0, delta=0.0), INSTANT, 0, 3, 50.0, None),
    "instant_cycling": (dataclasses.replace(
        BASE, x0=1.0, s0=2.0, lambda_influence=0.5), INSTANT, 4, 13, 60.0,
        None),
    "event_cap": (dataclasses.replace(BASE, beta=0.02, x0=5.0), EXP100, 0, 0,
                  1000.0, 25),
}

GOLDEN = {
    "exp100_k0":
        "bcde10e2d398214bb182e6c6286e90c3ab5fd423a8bc7775c0f1a6ecd696aea9",
    "exp100_x0_k8":
        "60c535df9275785b379912b449fbcb89e07ad29e3ace25b343ca55e1adc3df1f",
    "exp3_x0":
        "6b1021ebe7754a48ba846a4440411c0b5a36889c5356124a187ef4c923c912a5",
    "uniform_k5":
        "0cbfcd5b7f84c167607750797f3a46b1f5efad3915dda0faa38c9a6a5e0acfcc",
    "weibull_x0_k10":
        "125a729f640b9ac97142670b9df240980ba173f0d2d49c8a2d55b9c2358b710d",
    "instant_activation":
        "e8d43f9219a21d60f964f01bb01eb68f12f858914e36402ea5609f7e5c0fb995",
    "instant_cycling":
        "c1603009f87198923f47cbe9a1e03903547d18dd563a7e11b95ad6f1b73225e0",
    "event_cap":
        "dcbbd61b4442162b23f5f8c54d76e08d16d385fb353fb60c5d4a310c0b119a7d",
}


def _run(name, monkeypatch):
    params, dist, k, seed, horizon, cap = CASES[name]
    monkeypatch.setattr(oracle, "EVENT_CAP", EVENT_CAP if cap is None else cap)
    return simulate_ctmc(params, dist, k, seed=seed, horizon=horizon)


def _digest(res):
    h = hashlib.sha256()
    h.update(repr(res.events).encode())
    for arr in (res.times, res.x_path, res.s_path, res.ever_infected):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((res.cumulative_infections, res.truncated)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_result_is_pinned(name, monkeypatch):
    assert _digest(_run(name, monkeypatch)) == GOLDEN[name]


def test_matrix_covers_every_event_kind_and_truncation(monkeypatch):
    results = {name: _run(name, monkeypatch) for name in CASES}
    kinds = {kind for res in results.values() for _, kind, _ in res.events}
    assert kinds == {EVENT_INFECT, EVENT_CURE, EVENT_SRC_ACTIVATE,
                     EVENT_SRC_DEACTIVATE}
    assert results["event_cap"].truncated
    assert not any(res.truncated for name, res in results.items()
                   if name != "event_cap")


def reference_ctmc(params, dist, k_protected, seed, horizon, event_cap):
    """The direct method with no state kept between events: every rate and
    candidate set is recomputed from the node and source arrays, and the
    hazard from the cumulative count, keeping the last finite value."""
    rng = np.random.default_rng(seed)
    n, ns = params.n_nodes, params.n_sources
    node = np.zeros(n, dtype=np.int8)       # 0 susceptible, 1 infected
    node[:k_protected] = 2                  # 2 protected
    x0 = min(int(params.x0), n - k_protected)
    node[k_protected:k_protected + x0] = 1
    active = np.zeros(ns, dtype=bool)
    s0 = int(params.s0)
    active[:s0] = True
    ever_infected = np.zeros(n, dtype=bool)
    cum, t, events, times, x_path, s_path = x0, 0.0, [], [0.0], [x0], [s0]
    h, truncated = 0.0, False
    while True:
        x, s = int((node == 1).sum()), int(active.sum())
        susceptible = np.flatnonzero(node == 0)
        inactive = np.flatnonzero(~active)
        h_cum = float(dist.hazard(cum))
        h = h_cum if np.isfinite(h_cum) else h
        r_inf = (params.beta * x + params.gamma * s) * len(susceptible)
        r_cure = params.delta * x
        r_deact = params.delta_s * s
        r_act = params.lambda_influence * h * len(inactive)
        total = r_inf + r_cure + r_deact + r_act
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        if len(events) >= event_cap:
            truncated = True
            break
        u = rng.uniform(0.0, total)
        if u < r_inf:
            target = int(susceptible[rng.integers(len(susceptible))])
            node[target] = 1
            ever_infected[target] = True
            cum += 1
            kind = EVENT_INFECT
        elif u < r_inf + r_cure:
            infected = np.flatnonzero(node == 1)
            target = int(infected[rng.integers(len(infected))])
            node[target] = 0
            kind = EVENT_CURE
        elif u < r_inf + r_cure + r_deact:
            on = np.flatnonzero(active)
            target = int(on[rng.integers(len(on))])
            active[target] = False
            kind = EVENT_SRC_DEACTIVATE
        else:
            target = int(inactive[rng.integers(len(inactive))])
            active[target] = True
            kind = EVENT_SRC_ACTIVATE
        events.append((t, kind, target))
        times.append(t)
        x_path.append(int((node == 1).sum()))
        s_path.append(int(active.sum()))
    return SimulationResult(events=events, times=np.array(times),
                            x_path=np.array(x_path), s_path=np.array(s_path),
                            ever_infected=ever_infected,
                            cumulative_infections=cum, truncated=truncated)


def _random_case(rnd):
    n, ns = rnd.choice([5, 20, 40]), rnd.choice([1, 5, 20])
    params = SystemParams(
        n_nodes=n, n_sources=ns, beta=rnd.choice([0.0, 1e-3, 0.01]),
        gamma=rnd.choice([0.0, 1e-3, 0.01]), delta=rnd.choice([0.0, 0.1]),
        delta_s=rnd.choice([0.0, 0.1, 0.5]),
        lambda_influence=rnd.choice([5e-6, 0.05, 1.0]),
        x0=float(min(n, rnd.choice([0, 1, 4]))),
        s0=float(min(ns, rnd.choice([0, 2, 5]))),
        infection_cost=1.0, update_cost=0.1)
    dist = rnd.choice([EXP100, EXP3, UNIF, WEIB, INSTANT])
    k = rnd.choice([0, 1, n // 3, n])
    return (params, dist, k, [rnd.randrange(2**32), 0],
            rnd.choice([20.0, 150.0]), rnd.choice([EVENT_CAP, 40]))


def test_matches_rescanning_reference(monkeypatch):
    rnd = random.Random(2024)
    for _ in range(120):
        case = _random_case(rnd)
        params, dist, k, seed, horizon, cap = case
        monkeypatch.setattr(oracle, "EVENT_CAP", cap)
        got = simulate_ctmc(params, dist, k, seed, horizon)
        assert _digest(got) == _digest(reference_ctmc(*case)), case


# 1 draws nothing; 3 * 2**30 rejects a quarter of its words; 2**32 takes a
# word as it is
INDEX_BOUNDS = [1, 2, 3, 5, 64, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1,
                2**32]


@pytest.mark.parametrize("seed", range(6))
def test_index_draw_matches_generator_integers(seed):
    """The oracle's three draws give the bits of the Generator methods they
    stand for: _index_draw those of integers, and, in between, its time
    and reaction draws those of exponential and random."""
    pick = random.Random(seed)
    for rep in range(4):
        mine = np.random.default_rng([seed, rep])
        ref = np.random.default_rng([seed, rep])
        draw = _index_draw(mine)
        raw = mine.bit_generator.random_raw
        for _ in range(1500):
            n = pick.choice(INDEX_BOUNDS)
            assert draw(n) == ref.integers(n), (seed, rep, n)
            # 64-bit-word draws in between leave the spare half-word alone
            other = pick.randrange(3)
            if other == 0:
                assert ((raw() >> 11) * 2**-53).hex() == ref.random().hex()
            elif other == 1:
                scale = 10.0 ** pick.uniform(-300.0, 300.0)
                assert ((scale * mine.standard_exponential()).hex()
                        == ref.exponential(scale).hex()), scale
