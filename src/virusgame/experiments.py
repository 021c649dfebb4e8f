"""Declarative parameter-sweep experiments with CSV output.

Each experiment sweeps one parameter of the model (or the activation
probability p / protection count directly), runs the requested pipeline for
every value and writes deterministic CSV files: trajectories as
``t,x,s,x_bar`` and scalar sweeps as ``<sweep_param>,<output>,...`` with
floats rendered at 9 significant digits.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import equilibrium as eq
from .dynamics import (DEFAULT_DIST, DEFAULT_DT, DEFAULT_EXTINCTION_EPSILON,
                       DEFAULT_HORIZON, DEFAULT_PARAMS, PARAM_FIELDS,
                       SystemParams, ThresholdDistribution, Trajectory,
                       check_epsilon, integrate, step_count)
from .risk import (CACHE_SIZE, infection_probability, risk_profile,
                   risk_profiles)

MAX_TRAJECTORY_ROWS = 2000

# sweep names that are not SystemParams fields but directly set protection
_SPECIAL_SWEEPS = ("p", "k_protected")

_SCALAR_OUTPUTS = ("infection_probability", "p_star", "psi", "gain",
                   "u_c_star", "t_f")
_VALID_OUTPUTS = _SCALAR_OUTPUTS + ("trajectory",)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: SystemParams
    dist: ThresholdDistribution
    sweep: Tuple[str, Tuple[float, ...]]
    outputs: Tuple[str, ...]
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON

    def __post_init__(self):
        # the name becomes a file name inside the output directory
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c and c in self.name
                       for c in ("/", os.sep, os.altsep, "\0"))):
            raise ValueError(f"spec name {self.name!r} is not a plain file "
                             f"name")
        param, values = self.sweep
        if param not in PARAM_FIELDS and param not in _SPECIAL_SWEEPS:
            raise ValueError(f"unknown sweep parameter {param!r}")
        if len(values) == 0:
            raise ValueError("sweep value list must be nonempty")
        for out in self.outputs:
            if out not in _VALID_OUTPUTS:
                raise ValueError(f"unknown output {out!r}")
        check_epsilon(self.extinction_epsilon)
        step_count(self.horizon, self.dt)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _apply_sweep(base: SystemParams, param: str, value):
    """Returns (params, k_protected or None); None means the point runs at
    its equilibrium."""
    if param == "p":
        if not 0.0 <= value <= 1.0:
            raise ValueError("activation probability sweep values must lie in [0,1]")
        return base, value * base.n_nodes
    if param == "k_protected":
        if not 0 <= value <= base.n_nodes:
            raise ValueError(f"k_protected sweep values must lie in "
                             f"[0, n_nodes={base.n_nodes}]")
        return base, float(value)
    if param in ("n_nodes", "n_sources"):
        value = int(value)
    return dataclasses.replace(base, **{param: value}), None


_EQUILIBRIUM_OUTPUTS = ("p_star", "psi", "gain", "u_c_star")


def _needs_table(spec: ExperimentSpec) -> bool:
    """Equilibrium outputs read a risk table, and so does every sweep over a
    model parameter, whose trajectories run at the equilibrium."""
    return (spec.sweep[0] not in _SPECIAL_SWEEPS
            or any(o in _EQUILIBRIUM_OUTPUTS for o in spec.outputs))


def _table(spec: ExperimentSpec, params: SystemParams) -> np.ndarray:
    return risk_profile(params, spec.dist, horizon=spec.horizon, dt=spec.dt,
                        extinction_epsilon=spec.extinction_epsilon)


def _equilibrium_p(spec: ExperimentSpec, params: SystemParams) -> float:
    result = eq.mixed_ne(_table(spec, params), params)
    if isinstance(result, eq.NoInteriorEquilibrium):
        return float(result.boundary)
    return result.p_star


def _run_point(spec: ExperimentSpec, value, params: SystemParams,
               k: Optional[float]) -> Dict[str, object]:
    row: Dict[str, object] = {spec.sweep[0]: value}

    p_star: Optional[float] = None
    if k is None:
        # sweeps over model parameters run the trajectory at equilibrium
        p_star = _equilibrium_p(spec, params)
        k = p_star * params.n_nodes

    traj: Optional[Trajectory] = None
    if any(o in ("trajectory", "infection_probability", "t_f")
           for o in spec.outputs):
        traj = integrate(params, k, spec.dist, horizon=spec.horizon,
                         dt=spec.dt,
                         extinction_epsilon=spec.extinction_epsilon)

    for out in spec.outputs:
        if out == "trajectory":
            row["trajectory"] = traj
        elif out == "infection_probability":
            row["infection_probability"] = infection_probability(traj, params).p_infect
        elif out == "t_f":
            row["t_f"] = (traj.extinction_time if traj.extinction_time is not None
                          else spec.horizon)
        elif out == "p_star":
            if p_star is None:
                p_star = _equilibrium_p(spec, params)
            row["p_star"] = p_star
        elif out == "gain":
            if p_star is None:
                p_star = _equilibrium_p(spec, params)
            row["gain"] = eq.cost_gain(p_star)
        elif out == "psi":
            row["psi"] = eq.pure_ne(_table(spec, params), params).psi
        elif out == "u_c_star":
            row["u_c_star"] = eq.critical_update_cost(
                params, spec.dist, spec.horizon, spec.dt,
                spec.extinction_epsilon)
    return row


def _write_csv(path: str, header, rows) -> None:
    """Write a header line and one line per row, each value through _fmt."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trajectory_csv(path: str, traj: Trajectory, stride: int = 1) -> None:
    """Write every stride-th sample of traj as a t,x,s,x_bar row."""
    _write_csv(path, ("t", "x", "s", "x_bar"),
               zip(*(v[::stride] for v in (traj.t, traj.x, traj.s, traj.x_bar))))


def run(spec: ExperimentSpec,
        out_dir: Optional[str] = None) -> List[Dict[str, object]]:
    """Execute the sweep; rows come back sorted by sweep value.  Every risk
    table the sweep reads is built up front in one stacked batch and cached
    (one batch per CACHE_SIZE points), then the points run one after
    another in this thread and read their tables from the cache.  When
    out_dir is given, CSV files are written there.
    """
    param, values = spec.sweep
    points = [_apply_sweep(spec.base, param, v) for v in values]
    order = sorted(range(len(values)), key=lambda i: values[i])
    needs_table = _needs_table(spec)
    # a block reads no more tables than the cache holds, so each table is
    # still cached when its points read it
    block = CACHE_SIZE if needs_table else len(order)
    rows = []
    for lo in range(0, len(order), block):
        chunk = order[lo:lo + block]
        if needs_table:
            risk_profiles([points[i][0] for i in chunk], spec.dist,
                          horizon=spec.horizon, dt=spec.dt,
                          extinction_epsilon=spec.extinction_epsilon)
        rows += [_run_point(spec, values[i], *points[i]) for i in chunk]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        scalar_cols = [o for o in spec.outputs if o != "trajectory"]
        if scalar_cols:
            cols = [param] + scalar_cols
            _write_csv(os.path.join(out_dir, f"{spec.name}.csv"), cols,
                       ([row[c] for c in cols] for row in rows))
        if "trajectory" in spec.outputs:
            for row in rows:
                fname = f"{spec.name}__{param}_{_fmt(row[param])}.csv"
                traj = row["trajectory"]  # at most MAX_TRAJECTORY_ROWS rows
                _write_trajectory_csv(os.path.join(out_dir, fname), traj,
                                      -(-len(traj) // MAX_TRAJECTORY_ROWS))
    return rows


# --- builtin suite -----------------------------------------------------------
#
# Parameter rosters follow the corresponding figure captions; sweep grids for
# the equilibrium studies are evenly spaced over the plotted axis ranges.
# The early-epidemic figures use Weibull(2) thresholds so source interest
# responds to virus popularity; the equilibrium studies keep the exponential
# default (constant influence hazard), where the threshold scale is
# essentially inert at the configured influence rates.

_FIG3_BASE = SystemParams(n_nodes=100, n_sources=50, beta=1e-3, gamma=1e-3,
                          delta=1e-1, delta_s=1e-1, lambda_influence=5e-6,
                          x0=0.0, s0=5.0, infection_cost=1.0, update_cost=0.1)

_FIG5_BASE = dataclasses.replace(_FIG3_BASE, lambda_influence=1e-4)

_FIG9_BASE = dataclasses.replace(DEFAULT_PARAMS, n_nodes=100)

_POPULARITY_DIST = ThresholdDistribution.weibull(2.0, 500.0)


def builtin_suite() -> List[ExperimentSpec]:
    """The seven named studies behind the qualitative figure claims."""
    n_grid = tuple(float(n) for n in range(100, 1001, 100))
    cost_grid = tuple(round(0.05 * i, 2) for i in range(1, 19))  # 0.05..0.90
    return [
        ExperimentSpec(name="fig3_infection", base=_FIG3_BASE,
                       dist=_POPULARITY_DIST, sweep=("p", (0.01, 0.1, 0.5)),
                       outputs=("trajectory",)),
        ExperimentSpec(name="fig4_sources", base=_FIG3_BASE,
                       dist=_POPULARITY_DIST, sweep=("p", (0.01, 0.1, 0.5)),
                       outputs=("trajectory",)),
        ExperimentSpec(name="fig5_infection_prob", base=_FIG5_BASE,
                       dist=_POPULARITY_DIST,
                       sweep=("p", (0.3, 0.4, 0.495)),
                       outputs=("infection_probability", "t_f")),
        ExperimentSpec(name="fig6_pstar_vs_n", base=DEFAULT_PARAMS,
                       dist=DEFAULT_DIST, sweep=("n_nodes", n_grid),
                       outputs=("p_star",)),
        ExperimentSpec(name="fig7_gain", base=DEFAULT_PARAMS,
                       dist=DEFAULT_DIST, sweep=("n_nodes", n_grid),
                       outputs=("p_star", "gain")),
        ExperimentSpec(name="fig8_pstar_vs_cost", base=DEFAULT_PARAMS,
                       dist=DEFAULT_DIST, sweep=("update_cost", cost_grid),
                       outputs=("p_star", "u_c_star")),
        ExperimentSpec(name="fig9_x_vs_cost", base=_FIG9_BASE,
                       dist=DEFAULT_DIST,
                       sweep=("update_cost", (0.05, 0.1, 0.2, 0.4)),
                       outputs=("trajectory", "t_f")),
    ]


# transmission/curing ratios for the update-cost study; the figure caption
# does not pin them down, so three spaced ratios are used
FIG8_BETA_RATIOS = (1e-4, 2e-4, 3e-4)


def fig8_ratio_variants() -> List[ExperimentSpec]:
    """The update-cost sweep at three transmission/curing ratios."""
    base_spec = [s for s in builtin_suite() if s.name == "fig8_pstar_vs_cost"][0]
    variants = []
    for beta in FIG8_BETA_RATIOS:
        base = dataclasses.replace(base_spec.base, beta=beta)
        variants.append(dataclasses.replace(
            base_spec, name=f"fig8_pstar_vs_cost_beta_{_fmt(beta)}", base=base))
    return variants


def get_builtin(name: str) -> ExperimentSpec:
    for spec in builtin_suite():
        if spec.name == name:
            return spec
    raise KeyError(f"no builtin experiment named {name!r}")
