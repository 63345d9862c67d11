"""Shared fixtures: a canonical growth series and oracle helpers."""

import numpy as np
import pytest

from tumordyn import dataio, models
from tumordyn.forecast import SplitSpec, score, split

# One subject's worth of sigmoid-shaped measurements: span 22-32 days,
# volumes climbing from ~80 to ~1000 mm^3.
SERIES_TIMES = [22.0, 24.0, 26.0, 28.0, 30.0, 32.0]
SERIES_VOLUMES = [80.0, 150.0, 400.0, 750.0, 950.0, 1000.0]


def make_growth_series(subject_id: int = 1) -> dataio.TumorSeries:
    return dataio.TumorSeries(subject_id, np.array(SERIES_TIMES), np.array(SERIES_VOLUMES))


def make_collocation_data(n: int = 21):
    """Pipeline-faithful normalized collocation data for the series above.

    Returns (data, norm_map, sigmoid_fit) with data a list of (tau, v)
    pairs, v min-max normalized.
    """
    series = make_growth_series()
    norm_map = dataio.make_norm_map(series)
    fit = dataio.fit_sigmoid(series, norm_map)
    samples = dataio.sample_interpolant(fit, n)
    data = [(tau, float(norm_map.normalize_v(v))) for tau, v in samples]
    return data, norm_map, fit


def forecast_cells(variant, data, fractions, config):
    """One variant's forecast cells, trained and scored by the calls `run-all`
    makes: per fraction, its ForecastResult or the exception that failed it."""
    parts = [split(data, SplitSpec(fraction))[0] for fraction in fractions]
    outcomes = []
    for fraction, fit in zip(fractions, models.train_batch(variant, parts, config)):
        try:
            if isinstance(fit, Exception):
                raise fit
            outcomes.append(score(data, fraction, fit, config.solver_steps))
        except Exception as exc:  # noqa: BLE001 - a cell fails alone, as in `cli.stage_forecast`
            outcomes.append(exc)
    return outcomes


def reference_forward(layers, x: np.ndarray) -> np.ndarray:
    """One network, given by the layers `unpack_layers` makes of its flat
    vector, on one input vector x: a matrix-vector product per layer, tanh
    on the hidden layers. The oracle for `mlp_batch`, written apart from it."""
    h = np.asarray(x, dtype=float)
    for i, (WT, b) in enumerate(layers):
        h = WT.T @ h + b[0]
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h


def bits(x) -> bytes:
    """The float64 bytes of a number or an array, for bitwise comparisons."""
    return np.asarray(x, dtype=float).tobytes()


def central_difference_gradient(loss_fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Finite-difference oracle; loss_fn must accept a plain ndarray."""
    g = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        g[i] = (float(np.asarray(loss_fn(up)).reshape(())) - float(np.asarray(loss_fn(down)).reshape(()))) / (
            2.0 * h
        )
    return g


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Per-coordinate relative error with an absolute floor in the denominator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


SAMPLE_CSV = """\
# sample measurement snapshot
id,time_days,volume_mm3
1,22,80
1,24,150
1,26,400
1,28,750
1,30,950
1,32,1000
2,20,120
2,23,260
2,26,700
2,29,1300
2,31,1560
2,33,1640
"""


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "tumor_volumes.csv"
    path.write_text(SAMPLE_CSV, encoding="utf-8")
    return path
