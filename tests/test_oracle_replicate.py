"""The oracle's replications split across forked processes: same bits as
one process, errors carried back, and no process left behind."""

import functools
import os
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
def with_workers(monkeypatch):
    """Run the public functions' replications on a given number of
    workers."""
    real = oracle._replicate

    def use(workers):
        monkeypatch.setattr(oracle, "_replicate",
                            functools.partial(real, workers=workers))

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
def test_estimate_bits_do_not_depend_on_workers(with_workers, workers):
    expected = reference_estimate(N50, 10, 101, 5, 400.0)
    with_workers(workers)
    got = oracle.empirical_infection_probability(N50, EXP100, 10, 101, 5,
                                                 horizon=400.0)
    assert got == expected


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mean_path_bits_do_not_depend_on_workers(with_workers, workers):
    expected = reference_path(N50, 101, 9, 200.0, 1.0)
    with_workers(workers)
    _, got = oracle.mean_infected_path(N50, EXP100, 0, 101, 9,
                                       horizon=200.0, dt=1.0)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_rows_in_rep_order_and_truncations_summed(workers):
    rows, truncated = oracle._replicate(
        lambda rep: ([rep, -rep], rep % 3 == 0), 101, workers=workers)
    np.testing.assert_array_equal(rows, [[r, -r] for r in range(101)])
    assert rows.dtype == np.float64
    assert truncated == 34


def test_more_workers_than_reps():
    rows, truncated = oracle._replicate(lambda rep: (rep, True), 2,
                                        workers=8)
    np.testing.assert_array_equal(rows, [[0.0], [1.0]])
    assert truncated == 2


def pids_of_reps(n_reps, workers):
    rows, _ = oracle._replicate(lambda rep: (os.getpid(), False), n_reps,
                                workers=workers)
    return rows[:, 0].astype(int)


def test_chunks_after_the_first_run_in_children():
    pids = pids_of_reps(100, 2)
    assert (pids[:50] == os.getpid()).all()
    assert len(set(pids[50:])) == 1 and pids[50] != os.getpid()


def test_in_process_while_other_threads_run():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        pids = pids_of_reps(100, 2)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert (pids == os.getpid()).all()


def test_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert (pids_of_reps(100, 2) == os.getpid()).all()


def fail_from(first_bad):
    def work(rep):
        if rep >= first_bad:
            raise ValueError(f"rep {rep} refused")
        return rep, False
    return work


def test_child_error_raised_with_its_type_and_message():
    with pytest.raises(ValueError, match=r"^rep 60 refused$"):
        oracle._replicate(fail_from(60), 100, workers=2)


def test_first_failing_rep_wins_across_children():
    # chunks 33..65 and 66..99 both fail; rep order decides which is raised
    with pytest.raises(ValueError, match=r"^rep 60 refused$"):
        oracle._replicate(fail_from(60), 100, workers=3)


class TwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_child_error_that_cannot_travel_becomes_runtime_error():
    class Local(Exception):
        pass

    for exc, text in [(Local("local failure"), "Local: local failure"),
                      (TwoArgs("one", "two"), "TwoArgs: one and two")]:
        def work(rep, exc=exc):
            if rep >= 50:
                raise exc
            return rep, False

        with pytest.raises(RuntimeError, match=f"^{text}$"):
            oracle._replicate(work, 100, workers=2)


def test_dead_child_is_a_runtime_error():
    def work(rep):
        if rep >= 50:
            os._exit(7)
        return rep, False

    with pytest.raises(RuntimeError, match="exited with status 7"):
        oracle._replicate(work, 100, workers=2)


def test_parent_error_kills_and_reaps_children():
    def work(rep):
        if rep == 0:
            raise KeyError("parent chunk")
        time.sleep(60)  # a child would outlive the test without a kill
        return rep, False

    start = time.monotonic()
    with pytest.raises(KeyError, match="parent chunk"):
        oracle._replicate(work, 100, workers=2)
    assert time.monotonic() - start < 30
