"""JSON run configuration: flat keys mirroring the model parameters plus
integrator settings and a threshold distribution block."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dynamics import (DEFAULT_DIST, DEFAULT_DT, DEFAULT_EXTINCTION_EPSILON,
                       DEFAULT_HORIZON, DEFAULT_PARAMS, PARAM_FIELDS,
                       THRESHOLD_PARAMS, SystemParams, ThresholdDistribution,
                       step_count)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    dist: ThresholdDistribution
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON

    def to_dict(self) -> dict:
        doc = {key: getattr(self.params, key) for key in PARAM_FIELDS}
        doc["threshold_dist"] = {
            "kind": self.dist.kind,
            "params": dict(zip(THRESHOLD_PARAMS[self.dist.kind],
                               self.dist.params)),
        }
        doc["dt"] = self.dt
        doc["horizon"] = self.horizon
        doc["extinction_epsilon"] = self.extinction_epsilon
        return doc

    def dump(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _parse_dist(block) -> ThresholdDistribution:
    if not isinstance(block, dict):
        raise ConfigError("threshold_dist must be an object")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in THRESHOLD_PARAMS:
        raise ConfigError(f"unknown threshold_dist kind {kind!r}")
    raw = block.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError("threshold_dist.params must be an object")
    expected = THRESHOLD_PARAMS[kind]
    unknown = set(raw) - set(expected)
    if unknown:
        raise ConfigError(f"unknown threshold_dist params: {sorted(unknown)}")
    missing = set(expected) - set(raw)
    if missing:
        raise ConfigError(f"missing threshold_dist params: {sorted(missing)}")
    return _refusing(getattr(ThresholdDistribution, kind),
                     *(_number(f"threshold_dist.params.{name}", raw[name])
                       for name in expected))


def _refusing(make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _number(key, value) -> float:
    """A JSON number as a float; strings, booleans and null are refused,
    not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} is out of range: {exc}") from exc


def _count(key, value) -> int:
    """A node or source count: an integer, or a float with no fraction."""
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(number)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = set(PARAM_FIELDS) | {"threshold_dist", "dt", "horizon",
                                   "extinction_epsilon"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    values = {key: doc.get(key, getattr(DEFAULT_PARAMS, key))
              for key in PARAM_FIELDS}
    params = _refusing(
        SystemParams, n_nodes=_count("n_nodes", values["n_nodes"]),
        n_sources=_count("n_sources", values["n_sources"]),
        **{k: _number(k, values[k]) for k in PARAM_FIELDS
           if k not in ("n_nodes", "n_sources")})

    dist = (_parse_dist(doc["threshold_dist"]) if "threshold_dist" in doc
            else DEFAULT_DIST)
    dt = _number("dt", doc.get("dt", DEFAULT_DT))
    horizon = _number("horizon", doc.get("horizon", DEFAULT_HORIZON))
    eps = _number("extinction_epsilon",
                  doc.get("extinction_epsilon", DEFAULT_EXTINCTION_EPSILON))
    for key, value in (("dt", dt), ("horizon", horizon),
                       ("extinction_epsilon", eps)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    _refusing(step_count, horizon, dt)
    if eps <= 0:
        raise ConfigError("extinction_epsilon must be positive")
    return RunConfig(params=params, dist=dist, dt=dt, horizon=horizon,
                     extinction_epsilon=eps)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)
