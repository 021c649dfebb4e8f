"""Simulation and equilibrium toolkit for the network virus-protection game."""

from .dynamics import SystemParams, ThresholdDistribution, Trajectory, integrate
from .equilibrium import (EquilibriumResult, FullyMixed, MixerProfile,
                          NoInteriorEquilibrium, Pure, cost_gain,
                          critical_update_cost, epidemic_threshold, mixed_ne,
                          mixer_nonmixer_ne, pure_ne)
from .oracle import empirical_infection_probability, simulate_ctmc
from .risk import InfectionRisk, infection_probability, remaining_risk, risk_profile

__all__ = [
    "SystemParams", "ThresholdDistribution", "Trajectory", "integrate",
    "InfectionRisk", "infection_probability", "remaining_risk", "risk_profile",
    "EquilibriumResult", "Pure", "FullyMixed", "MixerProfile",
    "NoInteriorEquilibrium", "pure_ne", "mixed_ne", "mixer_nonmixer_ne",
    "epidemic_threshold", "cost_gain", "critical_update_cost",
    "simulate_ctmc", "empirical_infection_probability",
]

__version__ = "0.1.0"
