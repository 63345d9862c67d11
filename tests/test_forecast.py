import math

import numpy as np
import pytest

from conftest import make_collocation_data
from tumordyn.forecast import ForecastResult, SplitSpec, forecast, forecast_suite, split, write_cell_csv, write_suite_csv
from tumordyn.models import TrainConfig, solve, GompertzModel
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
        data = gompertz_data()
        config = TrainConfig(schedule=((0.01, 1),), seed=7, solver_steps=200)
        result = forecast("gompertz", data, SplitSpec(0.9), config, gompertz=NORM_GOMPERTZ)
        assert result.test_mse < 1e-8
        assert result.train_loss < 1e-8

    def test_trajectory_is_one_continuous_solve(self):
        data = gompertz_data()
        config = TrainConfig(schedule=((0.01, 1),), seed=7, solver_steps=100)
        result = forecast("gompertz", data, SplitSpec(0.9), config, gompertz=NORM_GOMPERTZ)
        # an independent prefix solve with proportional steps lands on the
        # same value at the split point
        prefix = solve(GompertzModel(NORM_GOMPERTZ), data[0][1], (0.0, 0.9), 90)
        full_at_split = float(np.interp(0.9, result.trajectory.times, result.trajectory.states))
        assert abs(full_at_split - prefix.states[-1]) <= 1e-12 * max(1.0, abs(full_at_split))

    def test_forecast_spans_full_range(self):
        data = gompertz_data()
        result = forecast("gompertz", data, SplitSpec(0.7), TINY, gompertz=NORM_GOMPERTZ)
        assert result.trajectory.span == (0.0, 1.0)
        assert result.split_tau == 0.7

    def test_gompertz_variant_requires_params(self):
        with pytest.raises(ValueError):
            forecast("gompertz", gompertz_data(), SplitSpec(0.9), TINY)

    def test_trained_variant_smoke(self):
        data, _, _ = make_collocation_data(11)
        result = forecast("neural_ode", data, SplitSpec(0.6), TINY)
        assert result.report is not None
        assert result.train_loss == result.report.best_loss
        assert math.isfinite(result.test_mse)


class TestForecastSuite:
    def configs(self):
        return {"neural_ode": TINY, "gompertz": TINY}

    def test_cross_product_rows_sorted(self):
        data = gompertz_data()
        rows = forecast_suite(
            data, ["neural_ode", "gompertz"], [0.9, 0.5, 0.7], self.configs(), gompertz=NORM_GOMPERTZ
        )
        assert len(rows) == 6
        assert [(r.variant, r.fraction) for r in rows] == [
            ("gompertz", 0.5),
            ("gompertz", 0.7),
            ("gompertz", 0.9),
            ("neural_ode", 0.5),
            ("neural_ode", 0.7),
            ("neural_ode", 0.9),
        ]

    def test_deterministic(self):
        data, _, _ = make_collocation_data(11)
        rows1 = forecast_suite(data, ["neural_ode"], [0.6, 0.8], {"neural_ode": TINY})
        rows2 = forecast_suite(data, ["neural_ode"], [0.6, 0.8], {"neural_ode": TINY})
        assert rows1 == rows2

    def test_cell_failure_recorded_and_suite_continues(self):
        data = gompertz_data()
        rows = forecast_suite(
            data, ["gompertz", "bogus"], [0.9], self.configs(), gompertz=NORM_GOMPERTZ
        )
        by_variant = {r.variant: r for r in rows}
        assert by_variant["bogus"].error is not None
        assert math.isnan(by_variant["bogus"].test_mse)
        assert by_variant["gompertz"].error is None
        assert by_variant["gompertz"].test_mse < 1e-8


class TestExports:
    def test_suite_csv(self, tmp_path):
        data = gompertz_data()
        rows = forecast_suite(data, ["gompertz"], [0.9], {"gompertz": TINY}, gompertz=NORM_GOMPERTZ)
        path = tmp_path / "suite.csv"
        write_suite_csv(rows, 1, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "subject,variant,fraction,train_loss,test_mse"
        assert len(lines) == 2

    def test_cell_csv_flags_test_points(self, tmp_path):
        data = gompertz_data()
        result = forecast("gompertz", data, SplitSpec(0.9), TINY, gompertz=NORM_GOMPERTZ)
        path = tmp_path / "cell.csv"
        write_cell_csv(result, data, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,v_true,v_pred,is_test"
        flags = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(flags) == 2  # the two points beyond tau = 0.9
