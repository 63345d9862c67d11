"""Train on a leading fraction of the series and forecast the remainder.

The split happens in normalized time on the collocation grid. A forecast is
one continuous solve over the full span started from the training initial
condition, so the predicted curve is C0-continuous across the split by
construction; the held-out error is the normalized MSE on the test points.
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
    train,
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


def forecast(
    variant: str,
    data,
    spec: SplitSpec,
    config: TrainConfig,
    gompertz: GompertzParams | None = None,
) -> ForecastResult:
    """Fit on the training partition, then solve across the full span.

    The Gompertz variant is not trained; it forecasts with the supplied
    fixed parameters.
    """
    train_part, test_part = split(data, spec)
    report = None
    if variant == "gompertz":
        if gompertz is None:
            raise ValueError("the gompertz variant needs explicit GompertzParams")
        model: DynamicsModel = GompertzModel(gompertz)
        train_loss = model_loss(model, train_part, config)
    else:
        model, report = train(variant, train_part, config)
        train_loss = report.best_loss

    v0 = train_part[0][1]
    t_first = data[0][0]
    t_last = data[-1][0]
    trajectory = solve(model, v0, (t_first, t_last), config.solver_steps)

    test_taus = np.array([t for t, _ in test_part])
    test_values = np.array([v for _, v in test_part])
    predicted = np.interp(test_taus, trajectory.times, trajectory.states)
    test_mse = float(np.mean((predicted - test_values) ** 2))

    return ForecastResult(
        variant=variant,
        model=model,
        train_loss=train_loss,
        test_mse=test_mse,
        trajectory=trajectory,
        split_tau=spec.train_fraction,
        report=report,
    )


def forecast_suite(
    data,
    variants,
    fractions,
    configs: dict[str, TrainConfig],
    gompertz: GompertzParams | None = None,
    on_cell=None,
) -> list[SuiteRow]:
    """Evaluate every (variant, fraction) cell; failures become error rows.

    Rows come back sorted by (variant, fraction). Each cell trains from its
    own seeded initialization, so repeated runs are identical. `on_cell`,
    when given, receives (variant, fraction, ForecastResult) after each
    successful cell; its exceptions count as that cell's failure.
    """
    rows = []
    for variant in sorted(variants):
        for fraction in sorted(fractions):
            spec = SplitSpec(train_fraction=fraction)
            try:
                result = forecast(variant, data, spec, configs[variant], gompertz=gompertz)
                if on_cell is not None:
                    on_cell(variant, fraction, result)
                rows.append(SuiteRow(variant, fraction, result.train_loss, result.test_mse))
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                rows.append(SuiteRow(variant, fraction, math.nan, math.nan, error=str(exc)))
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
