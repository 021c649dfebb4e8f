"""The indifference gap D(k) = I_c * P_i(k) - U_c (equilibrium.gap_table),
which every equilibrium solver reads."""

import dataclasses

import numpy as np
import pytest

from virusgame.dynamics import SystemParams
from virusgame.equilibrium import gap_table

PARAMS = SystemParams(n_nodes=10, n_sources=5, beta=1e-3, gamma=1e-3,
                      delta=0.1, delta_s=0.1, lambda_influence=1e-4,
                      x0=0.0, s0=2.0, infection_cost=1.0, update_cost=0.1)

RISK = np.linspace(1.0, 0.0, 11)  # P_i(k) = 1 - k/10


def test_gap_sign_convention():
    # gap > 0: updating beats staying exposed
    gaps = gap_table(RISK, PARAMS)
    assert gaps[0] == pytest.approx(0.9)
    assert gaps[10] == pytest.approx(-0.1)


def test_cost_dominates_risk():
    pricey = dataclasses.replace(PARAMS, update_cost=1.5)
    assert (gap_table(RISK, pricey) <= 0).all()


def test_no_infection_cost_flat_gap():
    free = dataclasses.replace(PARAMS, infection_cost=0.0)
    for gap in gap_table(RISK, free):
        assert gap == pytest.approx(-0.1)


def test_gap_monotone_with_risk():
    gaps = gap_table(RISK, PARAMS)
    assert (np.diff(gaps) <= 0).all()
