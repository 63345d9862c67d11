"""Declarative run configuration.

A run is fully described by one YAML file; every omitted key falls back to
the defaults below, so a bare run reproduces the standard pipeline
(Gompertz baseline a=0.3, K=1200; neural ODE with hidden widths
[128, 128, 64, 64] trained 500 epochs at lr 0.01; UDE with two [10, 10]
networks trained through the lr schedule 0.01/0.005/0.001 for
1000/1000/500 epochs; forecasts at 90/80/70% training fractions). A key
the loader does not know, at the top level or inside a section, is an
error that names it (`neural_ode.epochs`, `subjcts`), so a misspelling
never falls back to a default unnoticed. So is a value of the wrong kind
or out of range (`seed: 1.7`, `solver_steps: 0`, a forecast fraction
outside (0, 1), two fractions with the same percent label, an empty
schedule, a learning rate, Gompertz parameter or basis K that is not
positive, a negative lambda): it fails at load, not in a stage.

The file is parsed by libyaml's C parser (`yaml.CSafeLoader`: the safe
constructor and resolver of `yaml.SafeLoader`) where PyYAML was built
with it, and by the pure-Python `yaml.SafeLoader` otherwise.

Example:

    data: data/tumor_volumes.csv
    subjects: [1, 2]
    out_dir: out
    seed: 123
    neural_ode:
      schedule: [[0.01, 500]]
    recover:
      K: 1200.0
      K_by_subject: {2: 2100.0}
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import yaml

from .models import (
    DEFAULT_NEURAL_ODE_HIDDEN,
    DEFAULT_NEURAL_ODE_SCHEDULE,
    DEFAULT_UDE_HIDDEN,
    DEFAULT_UDE_SCHEDULE,
    TrainConfig,
)

__all__ = ["RunConfig", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    data_path: str = "data/tumor_volumes.csv"
    subjects: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    out_dir: str = "out"
    seed: int = 123
    n_collocation: int = 21
    solver_steps: int = 100
    gompertz_a: float = 0.3
    gompertz_K: float = 1200.0
    node_hidden: tuple[int, ...] = DEFAULT_NEURAL_ODE_HIDDEN
    node_schedule: tuple[tuple[float, int], ...] = DEFAULT_NEURAL_ODE_SCHEDULE
    ude_hidden: tuple[int, ...] = DEFAULT_UDE_HIDDEN
    ude_schedule: tuple[tuple[float, int], ...] = DEFAULT_UDE_SCHEDULE
    fractions: tuple[float, ...] = (0.9, 0.8, 0.7)
    recover_n_samples: int = 101
    recover_lambda: float | None = None  # None = data-driven default
    sig_figs: int = 3
    basis_K_default: float = 1200.0
    basis_K_by_subject: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(int(s) for s in self.subjects))
        if not self.subjects:
            raise ValueError("at least one subject id is required")
        if len(set(self.subjects)) != len(self.subjects):
            raise ValueError(f"duplicate subject ids in {self.subjects}")
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if not self.fractions:
            raise ValueError("at least one forecast fraction is required")

    def node_config(self) -> TrainConfig:
        return TrainConfig(
            schedule=self.node_schedule,
            seed=self.seed,
            solver_steps=self.solver_steps,
            hidden=self.node_hidden,
        )

    def ude_config(self) -> TrainConfig:
        return TrainConfig(
            schedule=self.ude_schedule,
            seed=self.seed,
            solver_steps=self.solver_steps,
            hidden=self.ude_hidden,
        )

    def basis_K(self, subject_id: int) -> float:
        return float(self.basis_K_by_subject.get(int(subject_id), self.basis_K_default))


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _int(value, low=None) -> int:
    """An integral number (2 or 2.0, not 2.5, "2" or true), at least `low`."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"must be >= {low}, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite number (not a string or a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _float(value)
    if value <= 0:
        raise ValueError(f"must be > 0, got {value!r}")
    return value


def _at_least(low):
    return lambda value: _int(value, low)


def _widths(values):
    return tuple(_int(w, 1) for w in values)


def _schedule(stages):
    schedule = tuple((_positive(lr), _int(epochs, 1)) for lr, epochs in stages)
    if not schedule:
        raise ValueError("must have at least one [learning_rate, epochs] stage")
    return schedule


def _fractions(values):
    fractions = tuple(_float(f) for f in values)
    if not all(0.0 < f < 1.0 for f in fractions):
        raise ValueError(f"must lie in (0, 1), got {list(values)}")
    # each cell's artifacts are named by its percent label
    if len({int(round(100 * f)) for f in fractions}) != len(fractions):
        raise ValueError(f"two fractions round to the same percent, got {list(values)}")
    return fractions


def _lambda(value):
    if value == "auto":
        return None
    if isinstance(value, str):
        raise ValueError(f"must be a number or 'auto', got {value!r}")
    lam = _float(value)
    if lam < 0:
        raise ValueError(f"must be >= 0, got {value!r}")
    return lam


def _K_by_subject(mapping):
    if not isinstance(mapping, dict):
        raise ValueError(f"must map subject ids to K, got {mapping!r}")
    return {_int(k): _positive(v) for k, v in mapping.items()}


# YAML key, as (key,) or (section, key) -> (RunConfig field, conversion)
_KEYS = {
    ("data",): ("data_path", _text),
    ("subjects",): ("subjects", lambda ids: tuple(_int(i) for i in ids)),
    ("out_dir",): ("out_dir", _text),
    ("seed",): ("seed", _int),
    ("n_collocation",): ("n_collocation", _at_least(2)),
    ("solver_steps",): ("solver_steps", _at_least(1)),
    ("gompertz", "a"): ("gompertz_a", _positive),
    ("gompertz", "K"): ("gompertz_K", _positive),
    ("neural_ode", "hidden"): ("node_hidden", _widths),
    ("neural_ode", "schedule"): ("node_schedule", _schedule),
    ("ude", "hidden"): ("ude_hidden", _widths),
    ("ude", "schedule"): ("ude_schedule", _schedule),
    ("forecast", "fractions"): ("fractions", _fractions),
    ("recover", "n_samples"): ("recover_n_samples", _at_least(10)),
    ("recover", "lambda"): ("recover_lambda", _lambda),
    ("recover", "sig_figs"): ("sig_figs", _at_least(1)),
    ("recover", "K"): ("basis_K_default", _positive),
    ("recover", "K_by_subject"): ("basis_K_by_subject", _K_by_subject),
}
_SECTIONS = {key[0] for key in _KEYS if len(key) == 2}

# the C parser where PyYAML has it, with the same safe constructor and resolver
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path=None, **overrides) -> RunConfig:
    """Build a RunConfig from a YAML file plus keyword overrides.

    Overrides (e.g. subjects=..., out_dir=..., seed=...) win over the file,
    which wins over the defaults; a null value counts as omitted. Raises
    ValueError naming every key the file sets that the loader does not
    know, or the first key whose value is of the wrong kind or range; a
    file that is not YAML raises ValueError too.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                raw = yaml.load(fh, Loader=_LOADER) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"config file is not valid YAML: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config root must be a mapping, got {type(raw).__name__}")

    items = []
    for key, value in raw.items():
        if key not in _SECTIONS:
            items.append(((key,), value))
        elif value is not None:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key} must be a mapping, got {type(value).__name__}")
            items += [((key, sub), v) for sub, v in value.items()]
    unknown = [".".join(map(str, key)) for key, _ in items if key not in _KEYS]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    kwargs: dict[str, Any] = {}
    for key, value in items:
        if value is not None:
            name, convert = _KEYS[key]
            try:
                kwargs[name] = convert(value)
            except (TypeError, ValueError) as exc:  # TypeError: e.g. a number where a list belongs
                raise ValueError(f"config key {'.'.join(key)}: {exc}") from None
    kwargs.update(overrides)
    return RunConfig(**kwargs)
