import math

import numpy as np
import pytest

from conftest import forecast_cells, make_collocation_data, make_growth_series
from tumordyn import cli
from tumordyn.config import RunConfig
from tumordyn.forecast import SplitSpec, forecast, score, split
from tumordyn.models import TrainConfig, TrainReport, solve, GompertzModel
from tumordyn.odeint import GompertzParams, gompertz_exact

TINY = TrainConfig(schedule=((0.01, 2),), seed=7, solver_steps=20, hidden=(3,))

NORM_GOMPERTZ = GompertzParams(a=3.0, K=1.0)


def gompertz_data(n=21, v0=0.05):
    taus = np.linspace(0.0, 1.0, n)
    return [(float(t), float(gompertz_exact(t, v0, NORM_GOMPERTZ))) for t in taus]


class TestSplit:
    def test_21_points_at_090(self):
        data = [(t, 0.0) for t in np.linspace(0.0, 1.0, 21)]
        train_part, test_part = split(data, SplitSpec(0.9))
        assert len(train_part) == 19
        assert len(test_part) == 2

    def test_two_points_at_half(self):
        train_part, test_part = split([(0.25, 1.0), (0.75, 2.0)], SplitSpec(0.5))
        assert train_part == [(0.25, 1.0)]
        assert test_part == [(0.75, 2.0)]

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0)
        with pytest.raises(ValueError):
            SplitSpec(0.0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            split([(0.25, 1.0), (0.75, 2.0)], SplitSpec(0.8))


class TestForecast:
    def test_gompertz_truth_in_model_class(self):
        # scoring alone: the true law, handed to score as a fitted cell
        data = gompertz_data()
        report = TrainReport(initial_loss=0.0, best_loss=0.0, best_epoch=0, loss_history=(0.0,))
        result = score(data, 0.9, (GompertzModel(NORM_GOMPERTZ), report), 200)
        assert result.test_mse < 1e-8

    def test_trajectory_is_one_continuous_solve(self):
        data, _, _ = make_collocation_data(21)
        result = forecast("neural_ode", data, SplitSpec(0.9), TINY)
        # an independent prefix solve with proportional steps lands on the
        # same value at the split point
        prefix = solve(result.model, data[0][1], (0.0, 0.9), 18)
        full_at_split = float(np.interp(0.9, result.trajectory.times, result.trajectory.states))
        assert abs(full_at_split - prefix.states[-1]) <= 1e-12 * max(1.0, abs(full_at_split))

    def test_forecast_spans_full_range(self):
        data, _, _ = make_collocation_data(21)
        result = forecast("neural_ode", data, SplitSpec(0.7), TINY)
        assert (result.trajectory.times[0], result.trajectory.times[-1]) == (0.0, 1.0)

    def test_trained_variant_smoke(self):
        data, _, _ = make_collocation_data(11)
        result = forecast("neural_ode", data, SplitSpec(0.6), TINY)
        assert result.train_loss == result.report.best_loss
        assert math.isfinite(result.test_mse)


class TestForecastSuite:
    """One variant's cells, trained and scored as `run-all` does."""

    def test_deterministic(self):
        data, _, _ = make_collocation_data(11)
        runs = [forecast_cells("neural_ode", data, [0.6, 0.8], TINY) for _ in range(2)]
        got = [[(r.train_loss, r.test_mse, r.trajectory.states.tolist()) for r in run] for run in runs]
        assert got[0] == got[1]

    def test_cell_failure_recorded_and_suite_continues(self):
        data, _, _ = make_collocation_data(11)
        # the 0.05 cell trains on one point, which training rejects
        failed, scored = forecast_cells("neural_ode", data, [0.05, 0.9], TINY)
        assert isinstance(failed, ValueError) and "need at least 2 collocation points" in str(failed)
        assert math.isfinite(scored.test_mse)

    @pytest.mark.parametrize("variant", ["neural_ode", "ude"])
    def test_train_loss_is_the_forecast_error_at_training_points(self, variant):
        # a cell trains on the grid its forecast is solved on, so its loss is
        # the error of that forecast at the training points; that holds too
        # for a series that ends before tau = 1, whose grid is still [0, 1]
        data, _, _ = make_collocation_data(21)
        cfg = TrainConfig(schedule=((0.01, 3),), seed=7, solver_steps=20, hidden=(3,))
        for series, fractions in ((data, [0.7, 0.8, 0.9]), (data[:17], [0.6])):
            for fraction, result in zip(fractions, forecast_cells(variant, series, fractions, cfg)):
                train_part, _ = split(series, SplitSpec(fraction))
                taus, values = np.array(train_part).T
                predicted = np.interp(taus, result.trajectory.times, result.trajectory.states)
                assert result.train_loss == pytest.approx(np.mean((predicted - values) ** 2), rel=1e-12, abs=0.0)


class TestExports:
    """A cell's rows in the tables `cli.stage_forecast` writes."""

    @staticmethod
    def stage(tmp_path, fractions, fits):
        """Score and write the cells of `fits`, per variant in sorted-fraction
        order, on the pipeline's 21-point series; returns (rows, out_dir)."""
        config = RunConfig(out_dir=str(tmp_path), n_collocation=21, solver_steps=20, fractions=fractions)
        ctx = cli._prepare_subject(config, make_growth_series())
        assert ctx.data == make_collocation_data(21)[0]
        return cli.stage_forecast(config, ctx, fits), ctx.out_dir

    def test_suite_csv(self, tmp_path):
        data, _, _ = make_collocation_data(21)
        fit = forecast("ude", data, SplitSpec(0.9), TINY)
        failed = ValueError("failed")
        fits = {"neural_ode": [failed, failed], "ude": [failed, (fit.model, fit.report)]}
        rows, out = self.stage(tmp_path, (0.9, 0.8), fits)
        assert (out / "forecast.csv").read_text().splitlines() == [
            "subject,variant,fraction,train_loss,test_mse",
            "1,neural_ode,0.8,nan,nan",  # a failed cell
            "1,neural_ode,0.9,nan,nan",
            "1,ude,0.8,nan,nan",
            f"1,ude,0.9,{fit.train_loss!r},{fit.test_mse!r}",
        ]
        assert rows[3]["test_mse"] == fit.test_mse

    def test_cell_csv_flags_test_points(self, tmp_path):
        data, _, _ = make_collocation_data(21)
        result = forecast("neural_ode", data, SplitSpec(0.9), TINY)
        fits = {"neural_ode": [(result.model, result.report)], "ude": [ValueError("failed")]}
        _, out = self.stage(tmp_path, (0.9,), fits)
        lines = (out / "forecast_neural_ode_90.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,v_true,v_pred,is_test"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(flag) for *_, flag in rows] == [0] * 19 + [1] * 2  # the two points beyond tau = 0.9
        assert [(float(tau), float(v)) for tau, v, _, _ in rows] == data
        predicted = [float(np.interp(tau, result.trajectory.times, result.trajectory.states)) for tau, _ in data]
        assert [float(pred) for _, _, pred, _ in rows] == predicted
        assert not (out / "forecast_ude_90.csv").exists()
