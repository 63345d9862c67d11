"""Declarative run configuration.

A run is fully described by one YAML file; every omitted key falls back to
the defaults below (Gompertz baseline a=0.3, K=1200; neural ODE with hidden
widths [128, 128, 64, 64] trained 500 epochs at lr 0.01; UDE with two
[10, 10] networks trained through the lr schedule 0.01/0.005/0.001 for
1000/1000/500 epochs; forecasts at 90/80/70% training fractions). Recovery
always uses the data-driven L1 weight, 3 significant figures and basis
K=1200 for a subject `recover.K_by_subject` does not list; none of these
is a key. `configs/default.yaml` sets these values plus that mapping. A
key the loader does not know, at the top level or inside a section, is an
error that names it (`neural_ode.epochs`, `subjcts`, `recover.lambda`), so
a misspelling never falls back to a default unnoticed. So is a value of
the wrong kind or out of range (`seed: 1.7`, `solver_steps: 0`, a forecast
fraction whose percent label, which names its cell's files, is not in
1..99 or whose cell keeps under 2 of the `n_collocation` points to train
on, two fractions with the same label, an empty schedule, a learning rate,
Gompertz parameter or basis K that is not a finite positive number): it
fails where the RunConfig is built, from a file or in Python, naming its
YAML key, not in a stage. With a label in 1..99, every forecast cell of a
pipeline series (tau from 0 to 1) splits.

The file is parsed by libyaml's C parser (`yaml.CSafeLoader`: the safe
constructor and resolver of `yaml.SafeLoader`) where PyYAML was built
with it, and by the pure-Python `yaml.SafeLoader` otherwise. Under either,
a key given twice in one mapping is an error naming it and its line, not
a silent last-one-wins.

Example:

    data: data/tumor_volumes.csv
    subjects: [1, 2]
    out_dir: out
    seed: 123
    neural_ode:
      schedule: [[0.01, 500]]
    recover:
      K_by_subject: {2: 2100.0}
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .forecast import SplitSpec, split
from .models import TrainConfig
from .neuralnet import as_int, as_positive

__all__ = ["RunConfig", "load_config"]

_BASIS_K = 1200.0  # the recovery basis K of a subject `recover.K_by_subject` does not list


@dataclass(frozen=True)
class RunConfig:
    data_path: str = "data/tumor_volumes.csv"
    subjects: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    out_dir: str = "out"
    seed: int = TrainConfig.seed
    n_collocation: int = 21
    solver_steps: int = TrainConfig.solver_steps
    gompertz_a: float = 0.3
    gompertz_K: float = 1200.0
    node_hidden: tuple[int, ...] = TrainConfig.neural_ode_defaults().hidden
    node_schedule: tuple[tuple[float, int], ...] = TrainConfig.neural_ode_defaults().schedule
    ude_hidden: tuple[int, ...] = TrainConfig.ude_defaults().hidden
    ude_schedule: tuple[tuple[float, int], ...] = TrainConfig.ude_defaults().schedule
    fractions: tuple[float, ...] = (0.9, 0.8, 0.7)
    recover_n_samples: int = 101
    basis_K_by_subject: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for key, (name, convert) in _KEYS.items():
            try:
                object.__setattr__(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError) as exc:  # TypeError: e.g. a number where a list belongs
                raise ValueError(f"config key {'.'.join(key)}: {exc}") from None
        # a cell trains on the collocation points its split keeps, and a fit needs 2
        taus = [(float(t), 0.0) for t in np.linspace(0.0, 1.0, self.n_collocation)]
        for fraction in self.fractions:
            if len(split(taus, SplitSpec(fraction))[0]) < 2:
                kept = f"keeps 1 of the {self.n_collocation} points to train on"
                raise ValueError(f"config key forecast.fractions: {fraction} {kept}")

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
        return float(self.basis_K_by_subject.get(int(subject_id), _BASIS_K))


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _int(value, low=None) -> int:
    """An integral number (2, 2.0 or a numpy integer; not 2.5, "2" or true), at least `low`."""
    n = as_int(value, "the value")
    if low is not None and n < low:
        raise ValueError(f"must be >= {low}, got {value!r}")
    return n


def _float(value) -> float:
    """A finite number (not a string, a boolean or an integer beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    return as_positive(value, "the value")


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
    if not fractions:
        raise ValueError("at least one forecast fraction is required")
    if not all(0.0 < f < 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1), got {list(values)}")
    # each cell's artifacts are named by its percent label; with a label in
    # 1..99, tau = 0 is always a training point and tau = 1 a test point
    labels = [round(100 * f) for f in fractions]
    if not all(1 <= label <= 99 for label in labels):
        raise ValueError(f"fractions must round to a percent in 1..99, got {list(values)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"two fractions round to the same percent, got {list(values)}")
    return fractions


def _subjects(ids):
    subjects = tuple(_int(i) for i in ids)
    if not subjects:
        raise ValueError("at least one subject id is required")
    if len(set(subjects)) != len(subjects):
        raise ValueError(f"duplicate subject ids in {subjects}")
    return subjects


def _K_by_subject(mapping):
    if not isinstance(mapping, dict):
        raise ValueError(f"must map subject ids to K, got {mapping!r}")
    return {_int(k): _positive(v) for k, v in mapping.items()}


# YAML key, as (key,) or (section, key) -> (RunConfig field, conversion)
_KEYS = {
    ("data",): ("data_path", _text),
    ("subjects",): ("subjects", _subjects),
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
    ("recover", "K_by_subject"): ("basis_K_by_subject", _K_by_subject),
}
_SECTIONS = {key[0] for key in _KEYS if len(key) == 2}


def _unique_keys(base):
    """`base`, where a key given twice in one mapping (`1` and `1.0` too) is
    an error naming it and its line; a key a merge (`<<`) brings in is not."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            seen = []  # not a set: an unhashable key is the base class's error
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node, deep=deep)
                    if key in seen:
                        line = key_node.start_mark.line + 1
                        raise ValueError(f"config key {key}: given twice, the second time on line {line}")
                    seen.append(key)
            return super().construct_mapping(node, deep)

    return Loader


# the C parser where PyYAML has it, with the same safe constructor and resolver
_LOADER = _unique_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path=None, **overrides) -> RunConfig:
    """Build a RunConfig from a YAML file plus keyword overrides.

    Overrides (e.g. subjects=..., out_dir=..., seed=...) win over the file,
    which wins over the defaults; a null value counts as omitted. Raises
    ValueError naming every key the file sets that the loader does not
    know; `RunConfig` raises it for the first key whose value is of the
    wrong kind or range. A file that is not YAML raises ValueError too.
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

    kwargs = {_KEYS[key][0]: value for key, value in items if value is not None}
    kwargs.update(overrides)
    return RunConfig(**kwargs)
