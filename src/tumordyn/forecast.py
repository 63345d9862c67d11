"""Train on a leading fraction of the series and forecast the remainder.

The split happens in normalized time on the collocation grid. A forecast is
one continuous solve over the full span started from the training initial
condition, so the predicted curve is C0-continuous across the split by
construction; the held-out error is the normalized MSE on the test points.
A cell trains on the RK4 grid its forecast is solved on, so its training
loss is its forecast's error at its training points.
Cells take one path: `cli._cell_parts` splits the series at each fraction,
`models.train_batch` trains the training parts, and `score` solves and
scores each fitted cell, raising its failure; `cli.stage_forecast` turns
each cell into a row of `forecast.csv` (a failed cell is a row of nan
losses) and writes the cell's own table, whose test points are `split`'s.
`run-all` batches cells across subjects; `forecast` is one cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import DynamicsModel, TrainConfig, TrainReport, solve, train
from .odeint import Trajectory

__all__ = [
    "SplitSpec",
    "ForecastResult",
    "split",
    "score",
    "forecast",
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
    model: DynamicsModel
    test_mse: float
    trajectory: Trajectory
    report: TrainReport

    @property
    def train_loss(self) -> float:
        return self.report.best_loss


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


def score(data, fraction: float, fit, solver_steps: int) -> ForecastResult:
    """Solve a fitted cell across the full span and score its test points.

    `fit` is the (model, report) pair trained on the cell's training part;
    the solve starts from that part's first point.
    """
    train_part, test_part = split(data, SplitSpec(train_fraction=fraction))
    model, report = fit
    trajectory = solve(model, train_part[0][1], (data[0][0], data[-1][0]), solver_steps)
    test_taus = np.array([t for t, _ in test_part])
    test_values = np.array([v for _, v in test_part])
    predicted = np.interp(test_taus, trajectory.times, trajectory.states)
    return ForecastResult(
        model=model,
        test_mse=float(np.mean((predicted - test_values) ** 2)),
        trajectory=trajectory,
        report=report,
    )


def forecast(variant: str, data, spec: SplitSpec, config: TrainConfig) -> ForecastResult:
    """Fit on the training partition, then solve across the full span.

    This is one cell of the path `run-all` takes; the cell's failure is
    raised.
    """
    fit = train(variant, split(data, spec)[0], config)
    return score(data, spec.train_fraction, fit, config.solver_steps)
