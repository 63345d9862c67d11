"""Declarative run configuration.

A run is fully described by one YAML file; every omitted key falls back to
the defaults below, so a bare run reproduces the standard pipeline
(Gompertz baseline a=0.3, K=1200; neural ODE with hidden widths
[128, 128, 64, 64] trained 500 epochs at lr 0.01; UDE with two [10, 10]
networks trained through the lr schedule 0.01/0.005/0.001 for
1000/1000/500 epochs; forecasts at 90/80/70% training fractions). A key
the loader does not know, at the top level or inside a section, is an
error that names it (`neural_ode.epochs`, `subjcts`), so a misspelling
never falls back to a default unnoticed.

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
    time_input: bool = False
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
            time_input=self.time_input,
        )

    def ude_config(self) -> TrainConfig:
        return TrainConfig(
            schedule=self.ude_schedule,
            seed=self.seed,
            solver_steps=self.solver_steps,
            hidden=self.ude_hidden,
            time_input=self.time_input,
        )

    def basis_K(self, subject_id: int) -> float:
        return float(self.basis_K_by_subject.get(int(subject_id), self.basis_K_default))


def _schedule(stages):
    return tuple(tuple(s) for s in stages)


def _lambda(value):
    if isinstance(value, str):
        if value != "auto":
            raise ValueError(f"recover.lambda must be a number or 'auto', got {value!r}")
        return None
    return float(value)


# YAML key, as (key,) or (section, key) -> (RunConfig field, conversion)
_KEYS = {
    ("data",): ("data_path", str),
    ("subjects",): ("subjects", tuple),
    ("out_dir",): ("out_dir", str),
    ("seed",): ("seed", int),
    ("n_collocation",): ("n_collocation", int),
    ("solver_steps",): ("solver_steps", int),
    ("time_input",): ("time_input", bool),
    ("gompertz", "a"): ("gompertz_a", float),
    ("gompertz", "K"): ("gompertz_K", float),
    ("neural_ode", "hidden"): ("node_hidden", tuple),
    ("neural_ode", "schedule"): ("node_schedule", _schedule),
    ("ude", "hidden"): ("ude_hidden", tuple),
    ("ude", "schedule"): ("ude_schedule", _schedule),
    ("forecast", "fractions"): ("fractions", tuple),
    ("recover", "n_samples"): ("recover_n_samples", int),
    ("recover", "lambda"): ("recover_lambda", _lambda),
    ("recover", "sig_figs"): ("sig_figs", int),
    ("recover", "K"): ("basis_K_default", float),
    ("recover", "K_by_subject"): ("basis_K_by_subject", lambda m: {int(k): float(v) for k, v in m.items()}),
}
_SECTIONS = {key[0] for key in _KEYS if len(key) == 2}


def load_config(path=None, **overrides) -> RunConfig:
    """Build a RunConfig from a YAML file plus keyword overrides.

    Overrides (e.g. subjects=..., out_dir=..., seed=...) win over the file,
    which wins over the defaults; a null value counts as omitted. Raises
    ValueError naming every key the file sets that the loader does not know.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
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
            kwargs[name] = convert(value)
    kwargs.update(overrides)
    return RunConfig(**kwargs)
