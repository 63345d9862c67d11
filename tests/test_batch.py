"""Fits trained together as one batch give each member's solo bits."""

import math
from dataclasses import replace

import numpy as np
import pytest

import tumordyn.models as models
from conftest import make_collocation_data
from tumordyn.forecast import SplitSpec, forecast, forecast_suite, write_cell_csv
from tumordyn.models import (
    TrainConfig,
    TrainingError,
    init_model,
    model_theta,
    solve,
    train,
    train_batch,
)
from tumordyn.neuralnet import mlp_apply, unpack_layers
from tumordyn.odeint import rk4_states

VARIANTS = ["neural_ode", "ude"]


def config(time_input=False, seed=5):
    return TrainConfig(schedule=((0.02, 3), (0.01, 2)), seed=seed, solver_steps=17, hidden=(5, 4), time_input=time_input)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_fit(got, want):
    (model, report), (want_model, want_report) = got, want
    assert bits(model_theta(model)) == bits(model_theta(want_model))
    assert bits(report.loss_history) == bits(want_report.loss_history)
    assert bits([report.initial_loss, report.best_loss]) == bits([want_report.initial_loss, want_report.best_loss])
    assert report.best_epoch == want_report.best_epoch


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("time_input", [False, True])
def test_member_solve_equals_reference_per_point_solves(variant, time_input):
    """The stacked right-hand side against one network call per stage."""
    cfg = config(time_input)
    model = init_model(variant, cfg)
    rng = np.random.default_rng(3)
    thetas = [model_theta(model) + 0.1 * rng.standard_normal(model_theta(model).size) for _ in range(3)]
    spans, v0 = [(0.0, 0.6), (0.1, 0.9), (0.0, 1.0)], [0.05, 0.2, 0.1]
    n = 17
    times = np.column_stack([np.linspace(a, b, n + 1) for a, b in spans])
    h = np.array([(b - a) / n for a, b in spans])
    batched = np.array(rk4_states(models._make_rhs(model, np.stack(thetas)), np.array(v0), times, h))
    for b, theta in enumerate(thetas):
        nets = models._networks(model, theta)

        def f(t, v):
            x = np.array([v, t]) if time_input else np.array([v])
            y = [float(mlp_apply(layers, x)[0]) for layers in nets]
            return y[0] if variant == "neural_ode" else y[0] * v * y[1]

        assert bits(batched[:, b]) == bits(rk4_states(f, v0[b], times[:, b], float(h[b])))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("time_input", [False, True])
def test_batch_member_equals_solo_fit(variant, time_input):
    data, _, _ = make_collocation_data(21)
    other, _, _ = make_collocation_data(13)
    # different spans, starts and target counts, so every member has its own grid
    datasets = [data[:9], data[:15], other, data[2:]]
    cfg = config(time_input)
    fits = train_batch(variant, datasets, cfg)
    for part, fit in zip(datasets, fits):
        alone = train(variant, part, cfg)
        assert_same_fit(fit, alone)
        got = solve(fit[0], part[0][1], (0.0, 1.0), 40).states
        assert bits(got) == bits(solve(alone[0], part[0][1], (0.0, 1.0), 40).states)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_failing_members_leave_the_batch():
    data, _, _ = make_collocation_data(11)
    datasets = [
        data,
        [(t, 1.7e308) for t, _ in data],  # the solve overflows at step 5
        data[:8],
        data[:1] + [(t, 1e200) for t, _ in data[1:]],  # the first loss overflows
        data[:1],  # too short to train on
    ]
    cfg = TrainConfig(schedule=((0.05, 3),), seed=7, solver_steps=12, hidden=(3,))
    fits = train_batch("ude", datasets, cfg)
    causes = []
    for part, fit in zip(datasets, fits):
        try:
            alone = train("ude", part, cfg)
        except (TrainingError, ValueError) as exc:
            assert_same_error(fit, exc)
            causes.append(type(exc.__cause__).__name__)
        else:
            assert_same_fit(fit, alone)
            causes.append(None)
    assert causes == [None, "DivergenceError", None, "GradientError", "NoneType"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_suite_cells_equal_solo_forecasts(variant):
    data, _, _ = make_collocation_data(21)
    cfg = config(time_input=variant == "ude")
    results = {}
    rows = forecast_suite(data, [variant], [0.9, 0.6, 0.75], {variant: cfg}, on_cell=lambda v, f, r: results.setdefault(f, r))
    for row in rows:
        alone = forecast(variant, data, SplitSpec(row.fraction), cfg)
        assert row.error is None
        assert bits([row.train_loss, row.test_mse]) == bits([alone.train_loss, alone.test_mse])
        assert bits(results[row.fraction].trajectory.states) == bits(alone.trajectory.states)


@pytest.mark.parametrize("variant", VARIANTS)
def test_diverging_cell_fails_alone(variant, monkeypatch, tmp_path):
    data, _, _ = make_collocation_data(21)
    real = models._collocation

    def poisoned(part, cfg):
        # the 0.9 cell (19 training points) starts its solves from NaN
        grid = real(part, cfg)
        return replace(grid, targets=[math.nan] + grid.targets[1:]) if len(part) == 19 else grid

    monkeypatch.setattr(models, "_collocation", poisoned)
    cfg = config()

    def write_to(directory):
        directory.mkdir()
        return lambda v, fraction, result: write_cell_csv(result, data, directory / f"{fraction}.csv")

    rows = forecast_suite(data, [variant], [0.7, 0.8, 0.9], {variant: cfg}, on_cell=write_to(tmp_path / "suite"))
    solo_write = write_to(tmp_path / "solo")
    for row in rows:
        try:
            alone = forecast(variant, data, SplitSpec(row.fraction), cfg)
        except TrainingError as exc:
            assert row.fraction == 0.9 and "non-finite state at step 1" in str(exc)
            assert row.error == str(exc)
            assert math.isnan(row.train_loss) and math.isnan(row.test_mse)
            continue
        assert row.error is None
        assert bits([row.train_loss, row.test_mse]) == bits([alone.train_loss, alone.test_mse])
        solo_write(variant, row.fraction, alone)
        name = f"{row.fraction}.csv"
        assert (tmp_path / "suite" / name).read_bytes() == (tmp_path / "solo" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "suite").iterdir()) == ["0.7.csv", "0.8.csv"]


def test_initialization_is_drawn_once_per_batch(monkeypatch):
    calls = []
    real = models.init_model
    monkeypatch.setattr(models, "init_model", lambda *a: calls.append(a) or real(*a))
    data, _, _ = make_collocation_data(11)
    forecast_suite(data, ["ude"], [0.5, 0.7, 0.9], {"ude": config()})
    assert len(calls) == 1
