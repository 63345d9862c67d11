"""Fits trained together as one batch give each member's solo bits."""

import math
from dataclasses import replace

import numpy as np
import pytest

import tumordyn.models as models
from conftest import bits, forecast_cells, make_collocation_data, make_growth_series, reference_forward
from tumordyn import cli
from tumordyn.config import RunConfig
from tumordyn.forecast import SplitSpec, forecast
from tumordyn.models import (
    TrainConfig,
    TrainingError,
    init_model,
    model_theta,
    solve,
    train,
    train_batch,
)
from tumordyn.neuralnet import unpack_layers
from tumordyn.odeint import rk4_states

VARIANTS = ["neural_ode", "ude"]


def config():
    return TrainConfig(schedule=((0.02, 3), (0.01, 2)), seed=5, solver_steps=17, hidden=(5, 4))


def assert_same_fit(got, want):
    (model, report), (want_model, want_report) = got, want
    assert bits(model_theta(model)) == bits(model_theta(want_model))
    assert bits(report.loss_history) == bits(want_report.loss_history)
    assert bits([report.initial_loss, report.best_loss]) == bits([want_report.initial_loss, want_report.best_loss])
    assert report.best_epoch == want_report.best_epoch


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)


@pytest.mark.parametrize(
    "variant, hidden",
    # the (5, 4) cases keep the bare variant as their id
    [
        pytest.param(variant, hidden, id=f"{label}{variant}")
        for label, hidden in [("", (5, 4)), ("no-hidden-", ()), ("default-", None)]
        for variant in VARIANTS
    ],
)
def test_member_solve_equals_reference_per_point_solves(variant, hidden):
    """The stacked right-hand side against one network call per stage, with
    narrow layers, no hidden layer and the variant's default widths (None)."""
    model = init_model(variant, replace(config(), hidden=hidden))
    rng = np.random.default_rng(3)
    thetas = [model_theta(model) + 0.1 * rng.standard_normal(model_theta(model).size) for _ in range(3)]
    v0 = [0.05, 0.2, 0.1]
    n = 17
    times, h = np.linspace(0.0, 1.0, n + 1), 1.0 / n
    batched = np.array(rk4_states(models._make_rhs(model, np.stack(thetas)), np.array(v0), times, h))
    for b, theta in enumerate(thetas):
        nets = [unpack_layers(model.arch, part) for part in theta.reshape(len(model.nets), -1)]

        def f(v):
            y = [float(reference_forward(layers, np.array([v]))[0]) for layers in nets]
            return y[0] if variant == "neural_ode" else y[0] * v * y[1]

        assert bits(batched[:, b]) == bits(rk4_states(f, v0[b], times, h))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "cfg",
    # the narrow config gives bitwise different weight gradients when a
    # member's stage states are a strided view and a solo fit's are not
    [
        config(),
        TrainConfig(schedule=((0.05, 3),), seed=7, solver_steps=12, hidden=(3,)),
        TrainConfig(schedule=((0.05, 3),), seed=7, solver_steps=12, hidden=()),
    ],
    ids=["wide", "narrow", "no-hidden"],
)
def test_batch_member_equals_solo_fit(variant, cfg):
    data, _, _ = make_collocation_data(21)
    other, _, _ = make_collocation_data(13)
    # different point counts, last points and initial values, all solved on
    # the one grid
    datasets = [data[:9], data[:15], other, [(t, 0.8 * v + 0.1) for t, v in data[:18]]]
    fits = train_batch(variant, datasets, cfg)
    for part, fit in zip(datasets, fits):
        alone = train(variant, part, cfg)
        assert_same_fit(fit, alone)
        got = solve(fit[0], part[0][1], (0.0, 1.0), 40).states
        assert bits(got) == bits(solve(alone[0], part[0][1], (0.0, 1.0), 40).states)


def test_points_off_the_training_grid_fail_their_member():
    # training solves every member over tau in [0, 1] from the first point
    data, _, _ = make_collocation_data(21)
    late = data[2:]
    long = data + [(1.05, data[-1][1])]
    fits = train_batch("ude", [data[:9], late, long], config())
    assert_same_fit(fits[0], train("ude", data[:9], config()))
    for part, fit, span in [(late, fits[1], "[0.1, 1.0]"), (long, fits[2], "[0.0, 1.05]")]:
        with pytest.raises(ValueError, match="must start at tau = 0 and end by tau = 1") as err:
            train("ude", part, config())
        assert span in str(err.value)
        assert_same_error(fit, err.value)


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
    cfg = config()
    fractions = [0.6, 0.75, 0.9]
    for fraction, outcome in zip(fractions, forecast_cells(variant, data, fractions, cfg)):
        alone = forecast(variant, data, SplitSpec(fraction), cfg)
        assert not isinstance(outcome, Exception)
        assert bits([outcome.train_loss, outcome.test_mse]) == bits([alone.train_loss, alone.test_mse])
        assert bits(outcome.trajectory.states) == bits(alone.trajectory.states)


def cell_table(out, fraction, result, cfg) -> bytes:
    """The bytes of a scored cell's table, as `cli.stage_forecast` writes it
    for the 21-point series of `make_collocation_data`."""
    config = RunConfig(out_dir=str(out), n_collocation=21, solver_steps=cfg.solver_steps, fractions=(fraction,))
    ctx = cli._prepare_subject(config, make_growth_series())
    cli.stage_forecast(config, ctx, {"neural_ode": [], "ude": [(result.model, result.report)]})
    return (ctx.out_dir / f"forecast_ude_{round(fraction * 100)}.csv").read_bytes()


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
    fractions = [0.7, 0.8, 0.9]
    for fraction, outcome in zip(fractions, forecast_cells(variant, data, fractions, cfg)):
        try:
            alone = forecast(variant, data, SplitSpec(fraction), cfg)
        except TrainingError as exc:
            assert fraction == 0.9 and "non-finite state at step 1" in str(exc)
            assert_same_error(outcome, exc)
            continue
        assert bits([outcome.train_loss, outcome.test_mse]) == bits([alone.train_loss, alone.test_mse])
        suite = cell_table(tmp_path / "suite", fraction, outcome, cfg)
        assert suite == cell_table(tmp_path / "solo", fraction, alone, cfg)


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_final_loss_fails_its_member_alone(variant, monkeypatch):
    data, _, _ = make_collocation_data(21)
    parts = [data[:11], data[:15], data]
    cfg = config()
    solo = [train(variant, part, cfg) for part in parts]
    real = models._CollocationLoss.values

    def poisoned(self, thetas):
        # only the final evaluation takes values: the 15-point member's reads NaN
        return [math.nan if len(grid.targets) == 15 else v for grid, v in zip(self.grids, real(self, thetas))]

    monkeypatch.setattr(models._CollocationLoss, "values", poisoned)
    first, failed, last = train_batch(variant, parts, cfg)
    assert isinstance(failed, TrainingError)
    assert str(failed) == f"{variant} training produced a non-finite final loss"
    assert failed.__cause__ is None  # the finite-check's failure, not a diverging solve's
    report = solo[1][1]
    assert bits([failed.initial_loss, *failed.history]) == bits([report.initial_loss, *report.loss_history[:-1]])
    assert_same_fit(first, solo[0])
    assert_same_fit(last, solo[2])


def test_initialization_is_drawn_once_per_batch(monkeypatch):
    calls = []
    real = models.init_model
    monkeypatch.setattr(models, "init_model", lambda *a: calls.append(a) or real(*a))
    data, _, _ = make_collocation_data(11)
    forecast_cells("ude", data, [0.5, 0.7, 0.9], config())
    assert len(calls) == 1
