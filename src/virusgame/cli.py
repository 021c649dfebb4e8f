"""Command-line entry point.

Subcommands:
  simulate     integrate the mean-field system and write a trajectory CSV
  equilibrium  solve for a pure / mixed / mixer equilibrium, print key=value
  sweep        run a builtin or file-defined experiment, write its CSVs
  oracle       compare the stochastic simulation against the ODE prediction
  dump-config  print the normalized JSON form of a config file

Exit codes: 0 success, 1 configuration/usage error (any input a command
refuses, or an output it cannot write), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Optional, Sequence

from . import equilibrium as eq
from .config import ConfigError, load_config, parse_config
from .dynamics import integrate, protected_count
from .experiments import (ExperimentSpec, _fmt, _write_csv,
                          _write_trajectory_csv, builtin_suite, get_builtin,
                          run)
from .oracle import empirical_infection_probability
from .risk import infection_probability, risk_profile

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="virusgame")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="integrate and write trajectory CSV")
    sim.add_argument("--config", required=True)
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--k-protected", type=float, default=0.0)
    group.add_argument("--p", type=float, default=None)
    sim.add_argument("--out", required=True)

    eqp = sub.add_parser("equilibrium", help="solve an equilibrium")
    eqp.add_argument("--config", required=True)
    eqp.add_argument("--mode", choices=["pure", "mixed", "mixer"],
                     default="mixed")
    eqp.add_argument("--n-u", type=int, default=0)
    eqp.add_argument("--n-nu", type=int, default=0)

    swp = sub.add_parser("sweep", help="run an experiment spec")
    swp.add_argument("--spec", required=True,
                     help="builtin name or JSON spec file")
    swp.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="stochastic vs ODE comparison")
    orc.add_argument("--config", required=True)
    orc.add_argument("--reps", type=int, required=True)
    orc.add_argument("--seed", type=int, required=True)
    orc.add_argument("--k-protected", type=int, default=0)
    orc.add_argument("--out", required=True)

    dmp = sub.add_parser("dump-config", help="print normalized config JSON")
    dmp.add_argument("--config", required=True)
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    k = protected_count(cfg.params, args.k_protected, args.p)
    traj = integrate(cfg.params, k, cfg.dist, horizon=cfg.horizon, dt=cfg.dt,
                     extinction_epsilon=cfg.extinction_epsilon)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    _write_trajectory_csv(path, traj)
    print(path)
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    n, n_u, n_nu = cfg.params.n_nodes, args.n_u, args.n_nu
    if args.mode == "mixer" and not 0 <= min(n_u, n_nu) <= n_u + n_nu <= n:
        raise ConfigError(f"--n-u and --n-nu must be nonnegative with n_u + "
                          f"n_nu <= n_nodes={n}, got {n_u} + {n_nu}")
    table = risk_profile(cfg.params, cfg.dist, horizon=cfg.horizon, dt=cfg.dt,
                         extinction_epsilon=cfg.extinction_epsilon)
    if args.mode == "pure":
        result = eq.pure_ne(table, cfg.params)
        print(f"psi={result.psi}")
        return EXIT_OK
    if args.mode == "mixed":
        result = eq.mixed_ne(table, cfg.params)
        if isinstance(result, eq.NoInteriorEquilibrium):
            print(f"p_star={_fmt(float(result.boundary))} residual=0 "
                  f"boundary={result.boundary}")
        else:
            print(f"p_star={_fmt(result.p_star)} residual={_fmt(result.residual)}")
        return EXIT_OK
    result = eq.mixer_nonmixer_ne(args.n_u, args.n_nu, table, cfg.params)
    if isinstance(result, eq.NoInteriorEquilibrium):
        print(f"rejected=1 boundary={result.boundary} "
              f"reason={result.reason.replace(' ', '_')}")
    else:
        print(f"p_star={_fmt(result.p_star)} residual={_fmt(result.residual)} "
              f"n_u={result.n_u} n_nu={result.n_nu} "
              f"stability_violation={int(result.stability_violation)}")
    return EXIT_OK


def _load_spec(ref: str) -> ExperimentSpec:
    try:
        return get_builtin(ref)
    except KeyError:
        pass
    try:
        with open(ref) as fh:
            doc = json.load(fh)
    except OSError as exc:
        names = ", ".join(s.name for s in builtin_suite())
        raise ConfigError(
            f"{ref!r} is neither a builtin spec ({names}) nor a readable "
            f"file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {ref}: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise ConfigError("a spec must be a JSON object")
        config = parse_config(doc.get("config", {}))
        sweep = doc["sweep"]
        values, outputs = sweep["values"], doc["outputs"]
        for key, value in (("sweep.values", values), ("outputs", outputs)):
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be an array, got {value!r}")
        return ExperimentSpec(name=doc["name"], config=config,
                              sweep=(sweep["param"], tuple(values)),
                              outputs=tuple(outputs))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment spec {ref}: {exc}") from exc


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    run(spec, out_dir=args.out)
    print(os.path.join(args.out, f"{spec.name}.csv")
          if any(o != "trajectory" for o in spec.outputs) else args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    k = args.k_protected
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate, std_error = empirical_infection_probability(
            cfg.params, cfg.dist, k, args.reps, args.seed, horizon=cfg.horizon)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    traj = integrate(cfg.params, k, cfg.dist, horizon=cfg.horizon, dt=cfg.dt,
                     extinction_epsilon=cfg.extinction_epsilon)
    model = infection_probability(traj, cfg.params).p_infect
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "oracle_comparison.csv")
    _write_csv(path, ("k_protected", "n_reps", "seed", "empirical",
                      "std_error", "model", "abs_diff"),
               [(k, args.reps, args.seed, estimate, std_error, model,
                 abs(estimate - model))])
    print(path)
    return EXIT_OK


def _cmd_dump_config(args) -> int:
    cfg = load_config(args.config)
    print(cfg.dump())
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibrium": _cmd_equilibrium,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "dump-config": _cmd_dump_config,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    # a ValueError (ConfigError is one) is a bad config, spec or option, or
    # input an engine refuses; an OSError is most often an unwritable --out
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
