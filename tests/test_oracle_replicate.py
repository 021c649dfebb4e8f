"""The oracle's replications split across forked processes: same bits as
one process, errors carried back, and no process left behind."""

import dataclasses
import os
import pickle
import threading
import time

import numpy as np
import pytest

from virusgame import oracle
from virusgame.dynamics import SystemParams, ThresholdDistribution

EXP100 = ThresholdDistribution.exponential(100.0)

N50 = SystemParams(n_nodes=50, n_sources=50, beta=1e-3, gamma=1e-3,
                   delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                   x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes n cores usable, so the replications split into n
    chunks (fewer when there are fewer reps)."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)

    return use


def reference_estimate(params, k, n_reps, seed, horizon):
    """empirical_infection_probability as one loop in one process."""
    fractions = np.empty(n_reps)
    for rep in range(n_reps):
        res = oracle.simulate_ctmc(params, EXP100, k, [seed, rep], horizon)
        fractions[rep] = res.ever_infected.sum() / (params.n_nodes - k)
    return (float(fractions.mean()),
            float(fractions.std(ddof=1) / np.sqrt(n_reps)))


def reference_path(params, n_reps, seed, horizon, dt):
    """mean_infected_path as one loop in one process."""
    t_grid = np.arange(round(horizon / dt) + 1) * dt
    acc = np.zeros_like(t_grid)
    for rep in range(n_reps):
        res = oracle.simulate_ctmc(params, EXP100, 0, [seed, rep], horizon)
        acc += res.x_at(t_grid)
    return acc / n_reps


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimate_bits_do_not_depend_on_workers(cores, workers):
    expected = reference_estimate(N50, 10, 101, 5, 400.0)
    cores(workers)
    got = oracle.empirical_infection_probability(N50, EXP100, 10, 101, 5,
                                                 horizon=400.0)
    assert got == expected


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mean_path_bits_do_not_depend_on_workers(cores, workers):
    expected = reference_path(N50, 101, 9, 200.0, 1.0)
    cores(workers)
    _, got = oracle.mean_infected_path(N50, EXP100, 0, 101, 9,
                                       horizon=200.0, dt=1.0)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_rows_in_rep_order_and_truncations_summed(cores, workers):
    cores(workers)
    with pytest.warns(RuntimeWarning) as record:
        rows = oracle._replicate(lambda rep: ([rep, -rep], rep % 3 == 0), 101)
    np.testing.assert_array_equal(rows, [[r, -r] for r in range(101)])
    assert rows.dtype == np.float64
    assert len(record) == 1
    assert str(record[0].message).startswith("34 of 101 replications")


def test_more_workers_than_reps(cores):
    cores(8)
    with pytest.warns(RuntimeWarning, match="^2 of 2 replications"):
        rows = oracle._replicate(lambda rep: (rep, True), 2)
    np.testing.assert_array_equal(rows, [[0.0], [1.0]])


def test_one_rep(cores):
    cores(2)
    np.testing.assert_array_equal(
        oracle._replicate(lambda rep: ([rep, 7], False), 1), [[0.0, 7.0]])


def test_whole_float_reps_run_as_ints(cores):
    cores(2)
    assert (oracle.empirical_infection_probability(N50, EXP100, 10, 150.0, 5,
                                                   horizon=400.0)
            == oracle.empirical_infection_probability(N50, EXP100, 10, 150, 5,
                                                      horizon=400.0))
    paths = [oracle.mean_infected_path(N50, EXP100, 0, n, 9, horizon=200.0,
                                       dt=1.0)[1] for n in (3.0, 3)]
    assert paths[0].tobytes() == paths[1].tobytes()


def _no_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("estimate", [True, False])
def test_fractional_reps_refused_before_any_fork(cores, monkeypatch,
                                                 estimate):
    cores(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(ValueError,
                       match="n_reps must be a whole number, got 100.5"):
        if estimate:
            oracle.empirical_infection_probability(N50, EXP100, 10, 100.5, 5,
                                                   horizon=400.0)
        else:
            oracle.mean_infected_path(N50, EXP100, 0, 100.5, 9,
                                      horizon=200.0, dt=1.0)


@pytest.mark.parametrize("n_reps", ["150", True])
@pytest.mark.parametrize("estimate", [True, False])
def test_reps_that_are_not_numbers_refused_before_any_fork(
        cores, monkeypatch, estimate, n_reps):
    cores(2)
    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(ValueError, match="n_reps must be a number"):
        if estimate:
            oracle.empirical_infection_probability(N50, EXP100, 10, n_reps, 5,
                                                   horizon=400.0)
        else:
            oracle.mean_infected_path(N50, EXP100, 0, n_reps, 9,
                                      horizon=200.0, dt=1.0)


def test_child_sends_back_an_error_in_its_chunk_bounds():
    """A chunk whose bounds make no range raises inside the child's
    handler: the error comes back through the pipe and the child exits 0,
    and never returns into the caller's code."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            oracle._child(lambda rep: (rep, False), 75.0, 150.0, w)
        finally:
            os._exit(99)
    os.close(w)
    with open(r, "rb") as fh:
        blob = fh.read()
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    reply = pickle.loads(blob)
    assert isinstance(reply, TypeError)


def pids_of_reps(n_reps):
    rows = oracle._replicate(lambda rep: (os.getpid(), False), n_reps)
    return rows[:, 0].astype(int)


def test_chunks_after_the_first_run_in_children(cores):
    cores(2)
    pids = pids_of_reps(100)
    assert (pids[:50] == os.getpid()).all()
    assert len(set(pids[50:])) == 1 and pids[50] != os.getpid()


def test_in_process_while_other_threads_run(cores):
    cores(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        pids = pids_of_reps(100)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert (pids == os.getpid()).all()


def test_in_process_without_fork(cores, monkeypatch):
    cores(2)
    monkeypatch.delattr(os, "fork")
    assert (pids_of_reps(100) == os.getpid()).all()


def fail_from(first_bad):
    def work(rep):
        if rep >= first_bad:
            raise ValueError(f"rep {rep} refused")
        return rep, False
    return work


def test_child_error_raised_with_its_type_and_message(cores):
    cores(2)
    with pytest.raises(ValueError, match=r"^rep 60 refused$"):
        oracle._replicate(fail_from(60), 100)


def test_first_failing_rep_wins_across_children(cores):
    cores(3)
    # chunks 33..65 and 66..99 both fail; rep order decides which is raised
    with pytest.raises(ValueError, match=r"^rep 60 refused$"):
        oracle._replicate(fail_from(60), 100)


class TwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_child_error_that_cannot_travel_becomes_runtime_error(cores):
    cores(2)

    class Local(Exception):
        pass

    for exc, text in [(Local("local failure"), "Local: local failure"),
                      (TwoArgs("one", "two"), "TwoArgs: one and two")]:
        def work(rep, exc=exc):
            if rep >= 50:
                raise exc
            return rep, False

        with pytest.raises(RuntimeError, match=f"^{text}$"):
            oracle._replicate(work, 100)


def test_dead_child_is_a_runtime_error(cores):
    cores(2)

    def work(rep):
        if rep >= 50:
            os._exit(7)
        return rep, False

    with pytest.raises(RuntimeError, match="exited with status 7"):
        oracle._replicate(work, 100)


def test_parent_error_kills_and_reaps_children(cores):
    cores(2)

    # rep 0 runs before the fork; rep 1 fails after it
    def work(rep):
        if rep == 1:
            raise KeyError("parent chunk")
        if rep > 1:
            time.sleep(60)  # a child would outlive the test without a kill
        return rep, False

    start = time.monotonic()
    with pytest.raises(KeyError, match="parent chunk"):
        oracle._replicate(work, 100)
    assert time.monotonic() - start < 30


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made from now on, as a one-item list."""
    count = [0]
    real = os.fork

    def fork():
        count[0] += 1
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return count


BAD_STARTS = [
    ({"x0": 2.5}, 0, 3, "x0 must be a whole number, got 2.5"),
    ({"s0": 2.5}, 0, 3, "s0 must be a whole number, got 2.5"),
    ({}, 2.5, 3, "k_protected must be a whole number, got 2.5"),
    ({}, 0, -1, "negative"),
]


@pytest.mark.parametrize("change, k, seed, match", BAD_STARTS,
                         ids=["x0", "s0", "k_protected", "seed"])
@pytest.mark.parametrize("entry", ["estimate", "mean_path"])
def test_bad_start_refused_before_any_fork(cores, forks, entry, change, k,
                                           seed, match):
    cores(2)
    params = dataclasses.replace(N50, **change)
    with pytest.raises(ValueError, match=match):
        if entry == "estimate":
            oracle.empirical_infection_probability(params, EXP100, k, 100,
                                                   seed, horizon=50.0)
        else:
            oracle.mean_infected_path(params, EXP100, k, 100, seed,
                                      horizon=50.0, dt=1.0)
    assert forks == [0]
