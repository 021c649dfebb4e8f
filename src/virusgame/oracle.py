"""Exact-event stochastic simulation of the node/source process.

Serves as the independent check on the mean-field ODEs and on the
infection-probability quadrature: a Gillespie-style continuous-time Markov
chain over individual nodes and sources.

Agent-level source activation: each source draws a threshold from the
configured distribution; once the cumulative infection count crosses it the
source activates after an exponential delay with the influence rate.  A
deactivated source redraws a fresh threshold and may be influenced again.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import warnings
from bisect import insort
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
# numpy loads numpy.random on first use; load it with this module instead,
# so a run's first replication does not pay for the import
from numpy.random import default_rng

from .dynamics import SystemParams, ThresholdDistribution, step_count

EVENT_INFECT = "infect"
EVENT_CURE = "cure"
EVENT_SRC_ACTIVATE = "src_activate"
EVENT_SRC_DEACTIVATE = "src_deactivate"

DEFAULT_EVENT_CAP = 1_000_000


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
    draw's.  exponential, random and the threshold samplers read whole
    64-bit words, so they may interleave freely.
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


def simulate_ctmc(params: SystemParams, dist: ThresholdDistribution,
                  k_protected: int, seed, horizon: float,
                  event_cap: int = DEFAULT_EVENT_CAP) -> SimulationResult:
    """Gillespie direct-method simulation of the full agent system.

    Reactions: susceptible nodes are infected at rate beta*X + gamma*S each,
    infected nodes cure at rate delta, active sources deactivate at rate
    delta_s, and threshold-crossed inactive sources activate at the
    influence rate.  Deterministic given the seed.

    The node and source sets are kept between events as sorted lists, and
    the inactive sources still below their threshold wait in a heap keyed
    by threshold, so an event costs O(log) lookups plus a list shift
    instead of rescans of every node and source.  Draw i of a set picks its
    i-th smallest member, as a boolean-mask scan would.

    Each event draws its waiting time with rng.exponential, its reaction
    with rng.random and its member with _index_draw, which returns the
    index Generator.integers would from the same words; a deactivated
    source redraws its threshold as a scalar.
    """
    if not 0 <= k_protected <= params.n_nodes:
        raise ValueError("k_protected must lie in 0..n_nodes")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be positive and finite")
    rng = default_rng(seed)
    draw = _index_draw(rng)

    n, ns = params.n_nodes, params.n_sources
    x0 = min(int(round(params.x0)), n - k_protected)
    infected = list(range(k_protected, k_protected + x0))
    susceptible = list(range(k_protected + x0, n))

    s0 = min(int(round(params.s0)), ns)
    active = list(range(s0))
    theta = dist.sample(rng, ns).tolist()
    crossed = []          # inactive, threshold <= cum: may activate
    waiting = []          # inactive, threshold > cum: heap of (theta, id)
    for src in range(s0, ns):
        if theta[src] <= x0:
            crossed.append(src)
        else:
            waiting.append((theta[src], src))
    heapq.heapify(waiting)

    beta, gamma, delta = params.beta, params.gamma, params.delta
    delta_s, lam = params.delta_s, params.lambda_influence
    ever_infected = np.zeros(n, dtype=bool)
    cum = x0
    t = 0.0
    events: List[Tuple[float, str, int]] = []
    times = [0.0]
    x_path = [x0]
    s_path = [s0]
    truncated = False

    while True:
        x = len(infected)
        s = len(active)
        r_inf = (beta * x + gamma * s) * len(susceptible)
        r_cure = delta * x
        r_deact = delta_s * s
        r_act = lam * len(crossed)
        total = r_inf + r_cure + r_deact + r_act
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        if len(events) >= event_cap:
            truncated = True
            break

        # rng.uniform(0.0, total) computes 0.0 + total * rng.random(); the
        # product alone is the same double from the same draw, without
        # uniform's argument checks
        u = total * rng.random()
        if u < r_inf:
            target = susceptible.pop(draw(len(susceptible)))
            insort(infected, target)
            ever_infected[target] = True
            cum += 1
            while waiting and waiting[0][0] <= cum:
                insort(crossed, heapq.heappop(waiting)[1])
            events.append((t, EVENT_INFECT, target))
        elif u < r_inf + r_cure:
            target = infected.pop(draw(len(infected)))
            insort(susceptible, target)
            events.append((t, EVENT_CURE, target))
        elif u < r_inf + r_cure + r_deact:
            target = active.pop(draw(len(active)))
            redrawn = dist.sample(rng)
            if redrawn <= cum:
                insort(crossed, target)
            else:
                heapq.heappush(waiting, (redrawn, target))
            events.append((t, EVENT_SRC_DEACTIVATE, target))
        else:
            target = crossed.pop(draw(len(crossed)))
            insort(active, target)
            events.append((t, EVENT_SRC_ACTIVATE, target))

        times.append(t)
        x_path.append(len(infected))
        s_path.append(len(active))

    return SimulationResult(events=events, times=np.array(times),
                            x_path=np.array(x_path), s_path=np.array(s_path),
                            ever_infected=ever_infected,
                            cumulative_infections=cum, truncated=truncated)


def _warn_truncated(truncated: int, n_reps: int) -> None:
    """Say when replications stopped at the event cap before the horizon:
    their partial outcomes are still averaged in."""
    if truncated:
        warnings.warn(
            f"{truncated} of {n_reps} replications hit the event cap before "
            "the horizon; their partial outcomes are included in the average",
            RuntimeWarning, stacklevel=3)


def _run_chunk(work, reps: range):
    """work(rep) for each rep in order: the rows as a float64 array of
    len(reps) rows, and how many of the reps were truncated."""
    rows, truncated = [], 0
    for rep in reps:
        row, cut = work(rep)
        rows.append(row)
        truncated += cut
    return np.array(rows, dtype=np.float64).reshape(len(reps), -1), truncated


def _child(work, reps: range, fd: int) -> None:
    """Run one chunk in a forked child and write it to fd: three int64
    (0, truncation count, row width) then the rows, or (1, 0, 0) then the
    pickled exception.  Exits 0 once the write is complete; never returns."""
    code = 1
    try:
        try:
            rows, truncated = _run_chunk(work, reps)
            payload = (np.array([0, truncated, rows.shape[1]], np.int64)
                       .tobytes() + rows.tobytes())
        # anything, interrupts included, goes back to the caller, which
        # raises it; this process ends below either way
        except BaseException as exc:
            import pickle
            try:
                blob = pickle.dumps(exc)
                pickle.loads(blob)
            except Exception:
                blob = pickle.dumps(RuntimeError(
                    f"{type(exc).__name__}: {exc}"))
            payload = np.array([1, 0, 0], np.int64).tobytes() + blob
        with open(fd, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _replicate(work, n_reps: int, workers=None):
    """Run work(rep) for rep in range(n_reps) on every usable core.

    work returns one replication's row (a float or a 1-D array) and whether
    it was truncated.  The reps are split into contiguous chunks, one per
    worker; this process runs the first chunk and a forked child each of
    the others, sending its rows back through a pipe.  Returns the rows as
    an (n_reps, width) float64 array in rep order, and the truncation
    count.  A row depends only on its rep, so the result is bit-identical
    to one process running the reps in order.

    workers defaults to the usable cores.  The whole range runs in this
    process when that leaves one chunk, when fork is unavailable, or when
    other threads are running (forking them is unsafe).  An exception in a
    child is raised here with its type and message, and a child that dies
    is a RuntimeError naming its exit status.  No child outlives the call.
    """
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:
            workers = os.cpu_count() or 1
    workers = min(workers, n_reps)
    if (workers <= 1 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return _run_chunk(work, range(n_reps))

    bounds = [n_reps * i // workers for i in range(workers + 1)]
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
                _child(work, range(lo, hi), w)
            os.close(w)
            children.append((pid, r))
        chunks = [_run_chunk(work, range(bounds[1]))]
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                payload = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0:
                raise RuntimeError(f"oracle replication process {pid} "
                                   f"exited with status {status}")
            failed, truncated, width = np.frombuffer(payload[:24], np.int64)
            if failed:
                import pickle
                raise pickle.loads(payload[24:])
            chunks.append((np.frombuffer(payload[24:], np.float64)
                           .reshape(-1, width), truncated))
    finally:
        for pid, r in children:
            os.close(r)
            if pid not in reaped:
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return (np.concatenate([rows for rows, _ in chunks]),
            sum(int(truncated) for _, truncated in chunks))


def empirical_infection_probability(params: SystemParams,
                                    dist: ThresholdDistribution,
                                    k_protected: int, n_reps: int, seed,
                                    horizon: float = 400.0):
    """Fraction of unprotected nodes ever infected, averaged over seeded
    replications, with the standard error of that mean across replications.

    A replication that hits the event cap counts with its partial outcome,
    and a RuntimeWarning names how many did.
    """
    if n_reps < 100:
        raise ValueError("need at least 100 replications")
    n_exposed = params.n_nodes - k_protected
    if n_exposed == 0:
        return 0.0, 0.0

    def fraction(rep):
        res = simulate_ctmc(params, dist, k_protected, [seed, rep], horizon)
        return res.ever_infected.sum() / n_exposed, res.truncated

    rows, truncated = _replicate(fraction, n_reps)
    _warn_truncated(truncated, n_reps)
    fractions = rows[:, 0]
    estimate = float(fractions.mean())
    std_error = float(fractions.std(ddof=1) / np.sqrt(n_reps))
    return estimate, std_error


def mean_infected_path(params: SystemParams, dist: ThresholdDistribution,
                       k_protected: int, n_reps: int, seed,
                       horizon: float, dt: float):
    """Replication-mean infected count on a uniform grid (the ODE check)."""
    if n_reps < 1:
        raise ValueError("need at least 1 replication")
    t_grid = np.arange(step_count(horizon, dt) + 1) * dt

    def path(rep):
        res = simulate_ctmc(params, dist, k_protected, [seed, rep], horizon)
        return res.x_at(t_grid), res.truncated

    rows, truncated = _replicate(path, n_reps)
    _warn_truncated(truncated, n_reps)
    # summed one rep at a time, in rep order, as a single loop would
    acc = np.zeros_like(t_grid)
    for row in rows:
        acc += row
    return t_grid, acc / n_reps
