"""Exact-event stochastic simulation of the node/source process.

Serves as the independent check on the mean-field ODEs and on the
infection-probability quadrature: a Gillespie-style continuous-time Markov
chain over individual nodes and sources.

Sources follow the ODE's activation law: each inactive source activates at
rate lambda * h(cum), where h = f/(1 - F) is the threshold distribution's
hazard and cum the cumulative infection count, the chain's x_bar.  The
rate is the ODE's own, ``dynamics._ActivationRate``.  cum changes only at
infection events, so the rate is constant between events and the direct
method stays exact.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
from bisect import insort
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dynamics import (SystemParams, ThresholdDistribution, _ActivationRate,
                       step_count, whole_count)

EVENT_INFECT = "infect"
EVENT_CURE = "cure"
EVENT_SRC_ACTIVATE = "src_activate"
EVENT_SRC_DEACTIVATE = "src_deactivate"

# events one replication may draw before it stops, truncated, short of the
# horizon
EVENT_CAP = 1_000_000


def _index_draw(rng: np.random.Generator):
    """draw(n), the index Generator.integers(n) would return, read from
    the raw 64-bit words of rng's PCG64 bit generator.

    numpy draws a bounded index below 2**32 from one 32-bit word at a time
    (Lemire's multiply-and-reject): the word times n, rejected while its
    low 32 bits fall below (2**32 - n) % n, gives the index in its high
    32 bits.  PCG64 serves 32-bit words as the low then the high half of a
    64-bit word, keeping the high half for the next call; draw keeps that
    spare half itself, and returns 0 for n = 1 without drawing.

    Preconditions: n lies in 1..2**32, and rng is fresh and serves no
    other 32-bit draws, whose spare half-word would be rng's own and not
    draw's.  exponential, standard_exponential, random and random_raw
    read whole 64-bit words, so they may interleave freely.
    """
    raw = rng.bit_generator.random_raw
    spare = None

    def draw(n: int) -> int:
        nonlocal spare
        if n == 1:
            return 0
        while True:
            if spare is None:
                word = raw()
                spare = word >> 32
                word &= 0xFFFFFFFF
            else:
                word, spare = spare, None
            m = word * n
            if m & 0xFFFFFFFF >= (0x100000000 - n) % n:
                return m >> 32

    return draw


@dataclass
class SimulationResult:
    """One replication: event log, sampled path and per-node outcome."""

    events: List[Tuple[float, str, int]]
    times: np.ndarray          # time after each event (t=0 included)
    x_path: np.ndarray         # infected count after each event
    s_path: np.ndarray         # active source count after each event
    ever_infected: np.ndarray  # bool per node (protected nodes stay False)
    cumulative_infections: int
    truncated: bool = False

    def x_at(self, t_grid: np.ndarray) -> np.ndarray:
        """Sample the piecewise-constant infected count on a time grid."""
        idx = np.searchsorted(self.times, t_grid, side="right") - 1
        return self.x_path[np.maximum(idx, 0)]


def _start(params: SystemParams, k_protected, seed, horizon: float):
    """A replication's checked start: k_protected, x0 (clipped to the N - k
    unprotected nodes) and s0 as ints, and the generator seeded with seed.
    Refuses a fractional count, a k_protected outside 0..n_nodes, a horizon
    that is not positive and finite, and a seed numpy refuses."""
    k_protected = whole_count("k_protected", k_protected)
    if not 0 <= k_protected <= params.n_nodes:
        raise ValueError("k_protected must lie in 0..n_nodes")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    x0 = min(whole_count("x0", params.x0), params.n_nodes - k_protected)
    s0 = whole_count("s0", params.s0)
    # imported here: numpy.random brings secrets, hashlib and OpenSSL, some
    # 6 MB that no command but the oracle needs
    from numpy.random import default_rng
    return k_protected, x0, s0, default_rng(seed)


def simulate_ctmc(params: SystemParams, dist: ThresholdDistribution,
                  k_protected: int, seed, horizon: float) -> SimulationResult:
    """Gillespie direct-method simulation of the full agent system.

    Reactions: susceptible nodes are infected at rate beta*X + gamma*S each,
    infected nodes cure at rate delta, active sources deactivate at rate
    delta_s, and inactive sources activate at rate lambda*h(cum) each, the
    ODE's law: ``_ActivationRate.at``, as in ``integrate``, read again at
    each infection event unless it is the exponential constant.
    k_protected, x0 and s0 must be whole (10.0 is taken as 10), and x0 is
    clipped to the N - k unprotected nodes, which the ODE does not do.  A
    replication stops, flagged truncated, once it has drawn EVENT_CAP
    events short of the horizon.  Deterministic given the seed.

    The node and source sets are kept between events as sorted lists, so
    an event costs O(log) lookups plus a list shift instead of rescans of
    every node and source.  Draw i of a set picks its i-th smallest member,
    as a boolean-mask scan would.  Each event makes three draws, each the
    bits a Generator method would return from the same words, without its
    per-call argument handling: the time since the last event as
    (1/total) * standard_exponential(), which is how exponential(1/total)
    scales it; its reaction as total times the top 53 bits of one raw
    64-bit word over 2**53, which is random(); and its member with
    _index_draw, which returns the index integers would.

    numpy.random is imported by the first call, not with this module, so
    no other command loads it.  _replicate runs replication 0 in the
    calling process before it forks, so every forked child inherits it.
    """
    k_protected, x0, s0, rng = _start(params, k_protected, seed, horizon)
    n = params.n_nodes
    exponential = rng.standard_exponential
    raw = rng.bit_generator.random_raw
    draw = _index_draw(rng)

    infected = list(range(k_protected, k_protected + x0))
    susceptible = list(range(k_protected + x0, n))
    active = list(range(s0))
    inactive = list(range(s0, params.n_sources))
    # the four set sizes, kept as ints: the loop reads each every event
    x, n_sus, s, n_inact = x0, len(susceptible), s0, len(inactive)

    beta, gamma = params.beta, params.gamma
    delta, delta_s = params.delta, params.delta_s
    rate = _ActivationRate(dist, float(params.lambda_influence))
    const, at = rate.const, rate.at  # locals, read every infection event

    event_cap = EVENT_CAP  # a local: the event loop reads it every event
    ever_infected = np.zeros(n, dtype=bool)
    cum = x0
    lam_h = at(cum)
    t = 0.0
    events: List[Tuple[float, str, int]] = []
    times = [0.0]
    x_path = [x0]
    s_path = [s0]
    truncated = False

    while True:
        r_inf = (beta * x + gamma * s) * n_sus
        r_cure = delta * x
        r_deact = delta_s * s
        r_act = lam_h * n_inact
        total = r_inf + r_cure + r_deact + r_act
        if total <= 0:
            break
        t += (1.0 / total) * exponential()
        if t >= horizon:
            break
        if len(events) >= event_cap:
            truncated = True
            break

        # rng.uniform(0.0, total) computes 0.0 + total * rng.random(), and
        # random() is a raw word's top 53 bits over 2**53: the same double
        u = total * ((raw() >> 11) * 2**-53)
        if u < r_inf:
            target = susceptible.pop(draw(n_sus))
            insort(infected, target)
            n_sus -= 1
            x += 1
            ever_infected[target] = True
            cum += 1
            if const is None:
                lam_h = at(cum)
            events.append((t, EVENT_INFECT, target))
        elif u < r_inf + r_cure:
            target = infected.pop(draw(x))
            insort(susceptible, target)
            x -= 1
            n_sus += 1
            events.append((t, EVENT_CURE, target))
        elif u < r_inf + r_cure + r_deact:
            target = active.pop(draw(s))
            insort(inactive, target)
            s -= 1
            n_inact += 1
            events.append((t, EVENT_SRC_DEACTIVATE, target))
        else:
            target = inactive.pop(draw(n_inact))
            insort(active, target)
            n_inact -= 1
            s += 1
            events.append((t, EVENT_SRC_ACTIVATE, target))

        times.append(t)
        x_path.append(x)
        s_path.append(s)

    return SimulationResult(events=events, times=np.array(times),
                            x_path=np.array(x_path), s_path=np.array(s_path),
                            ever_infected=ever_infected,
                            cumulative_infections=cum, truncated=truncated)


def _run_chunk(work, reps: range):
    """work(rep) for each rep in order: the rows as a float64 array of
    len(reps) rows, and how many of the reps were truncated."""
    rows, truncated = [], 0
    for rep in reps:
        row, cut = work(rep)
        rows.append(row)
        truncated += cut
    return np.array(rows, dtype=np.float64).reshape(len(reps), -1), truncated


def _child(work, lo: int, hi: int, fd: int) -> None:
    """Run the chunk of reps lo..hi-1 in a forked child and write one
    pickle to fd: the chunk's (rows, truncated), or the exception it
    raised.  Exits 0 once the write is complete; never returns."""
    code = 1
    try:
        try:
            blob = pickle.dumps(_run_chunk(work, range(lo, hi)))
        # anything, interrupts included, goes back to the caller, which
        # raises it; this process ends below either way
        except BaseException as exc:
            try:
                blob = pickle.dumps(exc)
                pickle.loads(blob)
            except Exception:
                blob = pickle.dumps(RuntimeError(
                    f"{type(exc).__name__}: {exc}"))
        with open(fd, "wb") as fh:
            fh.write(blob)
        code = 0
    finally:
        os._exit(code)


def _replicate(work, n_reps: int) -> np.ndarray:
    """Run work(rep) for rep in range(n_reps) on every usable core.

    work returns one replication's row (a float or a 1-D array) and whether
    it was truncated.  Rep 0 runs in this process before anything else, so
    a start that every rep refuses raises here before any fork, and the
    forked children inherit the numpy.random that rep 0 loads.  The reps
    are then split into contiguous chunks, one per usable core; this
    process runs the rest of the first chunk and a forked child each of
    the others, sending its rows back through a pipe.  Returns the rows as
    an (n_reps, width) float64 array in rep order, and warns once
    (RuntimeWarning) when some reps were truncated: their partial outcomes
    are still in the rows.  A row depends only on its rep, so the result
    is bit-identical to one process running the reps in order.

    The whole range runs in this process when one core is usable, when
    fork is unavailable, or when other threads are running (forking them
    is unsafe).  An exception in a child is raised here with its type and
    message, and a child that dies is a RuntimeError naming its exit
    status.  No child outlives the call.
    """
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    workers = min(workers, n_reps)
    bounds = [n_reps * i // workers for i in range(workers + 1)]
    chunks = [_run_chunk(work, range(1))]
    children = []  # (pid, read end of its pipe), in rep order
    reaped = set()
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(work, lo, hi, w)
            os.close(w)
            children.append((pid, r))
        if bounds[1] > 1:
            chunks.append(_run_chunk(work, range(1, bounds[1])))
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                blob = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0:
                raise RuntimeError(f"oracle replication process {pid} "
                                   f"exited with status {status}")
            reply = pickle.loads(blob)
            if isinstance(reply, BaseException):
                raise reply
            chunks.append(reply)
    finally:
        for pid, r in children:
            os.close(r)
            if pid not in reaped:
                # imported here: its enum tables hold some 40 KB for the
                # life of every process that imports this module
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    truncated = sum(int(cut) for _, cut in chunks)
    if truncated:
        warnings.warn(
            f"{truncated} of {n_reps} replications hit the event cap before "
            "the horizon; their partial outcomes are included in the average",
            RuntimeWarning, stacklevel=3)
    return np.concatenate([rows for rows, _ in chunks])


def empirical_infection_probability(params: SystemParams,
                                    dist: ThresholdDistribution,
                                    k_protected: int, n_reps: int, seed,
                                    horizon: float):
    """Fraction of unprotected nodes ever infected, averaged over seeded
    replications, with the standard error of that mean across replications.

    A replication that hits the event cap counts with its partial outcome,
    and a RuntimeWarning names how many did.  With every node protected
    the result is (0.0, 0.0), once the start passes the checks every
    replication makes.  n_reps must be whole (150.0 is taken as 150).
    """
    n_reps = whole_count("n_reps", n_reps)
    if n_reps < 100:
        raise ValueError("need at least 100 replications")
    n_exposed = params.n_nodes - k_protected
    if n_exposed == 0:
        # nothing to simulate: check the start as replication 0 would
        _start(params, k_protected, [seed, 0], horizon)
        return 0.0, 0.0

    def fraction(rep):
        res = simulate_ctmc(params, dist, k_protected, [seed, rep], horizon)
        return res.ever_infected.sum() / n_exposed, res.truncated

    fractions = _replicate(fraction, n_reps)[:, 0]
    estimate = float(fractions.mean())
    std_error = float(fractions.std(ddof=1) / np.sqrt(n_reps))
    return estimate, std_error


def mean_infected_path(params: SystemParams, dist: ThresholdDistribution,
                       k_protected: int, n_reps: int, seed,
                       horizon: float, dt: float):
    """Replication-mean infected count on a uniform grid (the ODE check);
    n_reps must be whole (150.0 is taken as 150)."""
    n_reps = whole_count("n_reps", n_reps)
    if n_reps < 1:
        raise ValueError("need at least 1 replication")
    t_grid = np.arange(step_count(horizon, dt) + 1) * dt

    def path(rep):
        res = simulate_ctmc(params, dist, k_protected, [seed, rep], horizon)
        return res.x_at(t_grid), res.truncated

    # numpy sums axis 0 row after row, in rep order, as one loop would
    return t_grid, _replicate(path, n_reps).sum(axis=0) / n_reps
