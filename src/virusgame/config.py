"""Run settings (RunConfig) and their JSON form: flat keys mirroring the
model parameters plus integrator settings and a threshold distribution
block."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dynamics import (DEFAULT_DIST, DEFAULT_DT, DEFAULT_EXTINCTION_EPSILON,
                       DEFAULT_HORIZON, DEFAULT_PARAMS, PARAM_FIELDS,
                       THRESHOLD_PARAMS, SystemParams, ThresholdDistribution,
                       check_epsilon, real, step_count)


class ConfigError(ValueError):
    pass


# the integrator settings, each a flat number in a config
_SETTINGS = ("dt", "horizon", "extinction_epsilon")


@dataclass(frozen=True)
class RunConfig:
    """A roster, its threshold distribution and the integrator settings.
    RunConfig() is the Section IV studies' run; step_count and check_epsilon
    refuse a bad setting when built, and each is then stored as a float."""

    params: SystemParams = DEFAULT_PARAMS
    dist: ThresholdDistribution = DEFAULT_DIST
    dt: float = DEFAULT_DT
    horizon: float = DEFAULT_HORIZON
    extinction_epsilon: float = DEFAULT_EXTINCTION_EPSILON

    def __post_init__(self):
        step_count(self.horizon, self.dt)
        check_epsilon(self.extinction_epsilon)
        for key in _SETTINGS:
            object.__setattr__(self, key, float(getattr(self, key)))

    def to_dict(self) -> dict:
        doc = {key: getattr(self.params, key) for key in PARAM_FIELDS}
        doc["threshold_dist"] = {
            "kind": self.dist.kind,
            "params": dict(zip(THRESHOLD_PARAMS[self.dist.kind],
                               self.dist.params)),
        }
        doc.update((key, getattr(self, key)) for key in _SETTINGS)
        return doc

    def dump(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _parse_dist(block) -> ThresholdDistribution:
    if not isinstance(block, dict):
        raise ValueError("threshold_dist must be an object")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in THRESHOLD_PARAMS:
        raise ValueError(f"unknown threshold_dist kind {kind!r}")
    raw = block.get("params", {})
    if not isinstance(raw, dict):
        raise ValueError("threshold_dist.params must be an object")
    expected = THRESHOLD_PARAMS[kind]
    unknown = set(raw) - set(expected)
    if unknown:
        raise ValueError(f"unknown threshold_dist params: {sorted(unknown)}")
    missing = set(expected) - set(raw)
    if missing:
        raise ValueError(f"missing threshold_dist params: {sorted(missing)}")
    return getattr(ThresholdDistribution, kind)(
        *(real(f"threshold_dist.params.{name}", raw[name])
          for name in expected))


def parse_config(doc: dict) -> RunConfig:
    """The RunConfig of a JSON object; a missing key takes RunConfig's
    default.  The types it builds check the values as given, and what they
    refuse (ValueError) is raised as a ConfigError."""
    try:
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(doc) - {*PARAM_FIELDS, "threshold_dist", *_SETTINGS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        params = SystemParams(**{
            key: doc.get(key, getattr(RunConfig.params, key))
            for key in PARAM_FIELDS})
        dist = (_parse_dist(doc["threshold_dist"]) if "threshold_dist" in doc
                else RunConfig.dist)
        return RunConfig(params, dist, **{key: doc[key] for key in _SETTINGS
                                          if key in doc})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)
