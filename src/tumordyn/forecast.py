"""Train on a leading fraction of the series and forecast the remainder.

The split happens in normalized time on the collocation grid. A forecast is
one continuous solve over the full span started from the training initial
condition, so the predicted curve is C0-continuous across the split by
construction; the held-out error is the normalized MSE on the test points.
The cells of one trainable variant train as one batch (`models.train_batch`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    DynamicsModel,
    GompertzModel,
    TrainConfig,
    TrainReport,
    loss as model_loss,
    solve,
    train,  # noqa: F401 - part of this module's namespace, traced by the benchmark
    train_batch,
)
from .odeint import GompertzParams, Trajectory

__all__ = [
    "SplitSpec",
    "ForecastResult",
    "SuiteRow",
    "split",
    "forecast",
    "forecast_suite",
    "write_suite_csv",
    "write_cell_csv",
]

_SPLIT_EPS = 1e-9  # absorbs float dust when comparing grid taus to the fraction


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class ForecastResult:
    variant: str
    model: DynamicsModel
    train_loss: float
    test_mse: float
    trajectory: Trajectory
    split_tau: float
    report: TrainReport | None = None


@dataclass(frozen=True)
class SuiteRow:
    variant: str
    fraction: float
    train_loss: float
    test_mse: float
    error: str | None = None


def split(data, spec: SplitSpec):
    """Partition (tau, v) points: train has tau <= train_fraction."""
    train_part = [(t, v) for t, v in data if t <= spec.train_fraction + _SPLIT_EPS]
    test_part = [(t, v) for t, v in data if t > spec.train_fraction + _SPLIT_EPS]
    if not train_part or not test_part:
        raise ValueError(
            f"split at {spec.train_fraction} leaves an empty partition "
            f"({len(train_part)} train, {len(test_part)} test)"
        )
    return train_part, test_part


def _forecast_cells(variant: str, data, fractions, config: TrainConfig, gompertz=None) -> list:
    """A ForecastResult per training fraction, or the exception its cell
    raised; the cells of a trainable variant train as one batch."""
    cells: list = []
    for fraction in fractions:
        try:
            cells.append(split(data, SplitSpec(train_fraction=fraction)))
        except ValueError as exc:
            cells.append(exc)
    ready = [k for k, cell in enumerate(cells) if not isinstance(cell, Exception)]
    if variant == "gompertz":
        if gompertz is None:
            raise ValueError("the gompertz variant needs explicit GompertzParams")
        fits = [(GompertzModel(gompertz), None)] * len(ready)
    else:
        fits = train_batch(variant, [cells[k][0] for k in ready], config)
    for k, fit in zip(ready, fits):
        try:
            cells[k] = fit if isinstance(fit, Exception) else _result(variant, data, cells[k], fit, fractions[k], config)
        except (ArithmeticError, ValueError) as exc:
            cells[k] = exc
    return cells


def _result(variant, data, cell, fit, fraction, config) -> ForecastResult:
    """Solve a fitted cell across the full span and score the test points."""
    (train_part, test_part), (model, report) = cell, fit
    train_loss = model_loss(model, train_part, config) if report is None else report.best_loss
    trajectory = solve(model, train_part[0][1], (data[0][0], data[-1][0]), config.solver_steps)
    test_taus = np.array([t for t, _ in test_part])
    test_values = np.array([v for _, v in test_part])
    predicted = np.interp(test_taus, trajectory.times, trajectory.states)
    return ForecastResult(
        variant=variant,
        model=model,
        train_loss=train_loss,
        test_mse=float(np.mean((predicted - test_values) ** 2)),
        trajectory=trajectory,
        split_tau=fraction,
        report=report,
    )


def forecast(
    variant: str,
    data,
    spec: SplitSpec,
    config: TrainConfig,
    gompertz: GompertzParams | None = None,
) -> ForecastResult:
    """Fit on the training partition, then solve across the full span.

    The Gompertz variant is not trained; it forecasts with the supplied
    fixed parameters. This is one cell of `forecast_suite`.
    """
    (outcome,) = _forecast_cells(variant, data, [spec.train_fraction], config, gompertz)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def forecast_suite(
    data,
    variants,
    fractions,
    configs: dict[str, TrainConfig],
    gompertz: GompertzParams | None = None,
    on_cell=None,
) -> list[SuiteRow]:
    """Evaluate every (variant, fraction) cell; failures become error rows.

    Rows come back sorted by (variant, fraction). The cells of a trainable
    variant share one initialization, drawn once from the config's seed,
    and train as one batch, each cell with the bits it gets alone; repeated
    runs are identical. A cell that fails, in training or after, leaves the
    others untouched. `on_cell`, when given, receives (variant, fraction,
    ForecastResult) after each successful cell; its exceptions count as
    that cell's failure.
    """
    rows = []
    cells = sorted(fractions)
    for variant in sorted(variants):
        try:
            outcomes = _forecast_cells(variant, data, cells, configs[variant], gompertz)
        except Exception as exc:  # noqa: BLE001 - a variant-wide failure fails each of its cells
            outcomes = [exc] * len(cells)
        for fraction, outcome in zip(cells, outcomes):
            if on_cell is not None and not isinstance(outcome, Exception):
                try:
                    on_cell(variant, fraction, outcome)
                except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                    outcome = exc
            if isinstance(outcome, Exception):
                rows.append(SuiteRow(variant, fraction, math.nan, math.nan, error=str(outcome)))
            else:
                rows.append(SuiteRow(variant, fraction, outcome.train_loss, outcome.test_mse))
    return rows


def write_suite_csv(rows, subject_id: int, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "variant", "fraction", "train_loss", "test_mse"])
        for row in rows:
            writer.writerow(
                [subject_id, row.variant, repr(row.fraction), repr(row.train_loss), repr(row.test_mse)]
            )


def write_cell_csv(result: ForecastResult, data, path) -> None:
    """Per-cell plot data: target vs prediction with the test region flagged."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "v_true", "v_pred", "is_test"])
        for tau, v in data:
            pred = float(np.interp(tau, result.trajectory.times, result.trajectory.states))
            writer.writerow(
                [repr(tau), repr(v), repr(pred), int(tau > result.split_tau + _SPLIT_EPS)]
            )
