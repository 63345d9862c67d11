"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities (run with -s or -rA to see them).

The training-backed criteria are marked slow; `pytest -m "not slow"`
skips them for quick iteration.
"""

import json
import time

import numpy as np
import pytest

from conftest import SAMPLE_CSV, central_difference_gradient, make_collocation_data, max_relative_error
from tumordyn.cli import run_all
from tumordyn.config import load_config
from tumordyn.forecast import SplitSpec, forecast
from tumordyn.models import NeuralODEModel, TrainConfig, make_loss_fn, train
from tumordyn.neuralnet import MLPArch, init_params, value_and_grad
from tumordyn.odeint import GompertzParams, gompertz_exact, gompertz_rhs, solve_fixed_grid
from tumordyn.symrec import (
    BasisSet,
    build_design_matrix,
    sample_physical_derivatives,
    sparse_regress,
)

BASIS = BasisSet(K=1200.0)


@pytest.fixture(scope="module")
def subject_data():
    data, norm_map, _ = make_collocation_data(21)
    return data, norm_map


@pytest.fixture(scope="module")
def trained_node(subject_data):
    data, _ = subject_data
    return train("neural_ode", data, TrainConfig.neural_ode_defaults())


@pytest.fixture(scope="module")
def trained_ude(subject_data):
    data, _ = subject_data
    return train("ude", data, TrainConfig.ude_defaults())


def test_criterion_1_integrator_oracle():
    p = GompertzParams(a=0.3, K=1200.0)
    start = time.perf_counter()
    traj = solve_fixed_grid(lambda v: gompertz_rhs(v, p), 50.0, 0.0, 10.0, 1000)
    elapsed = time.perf_counter() - start
    exact = gompertz_exact(traj.times, 50.0, p)
    max_rel = float(np.max(np.abs(traj.states - exact) / exact))
    assert max_rel <= 1e-8

    errors = []
    for n in (100, 200, 400):
        t = solve_fixed_grid(lambda v: gompertz_rhs(v, p), 50.0, 0.0, 10.0, n)
        errors.append(abs(t.states[-1] - gompertz_exact(10.0, 50.0, p)))
    orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
    assert all(3.8 <= o <= 4.2 for o in orders)
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 [PASS] RK4 vs analytic: max rel err {max_rel:.2e} <= 1e-8, "
        f"orders {[round(o, 2) for o in orders]} in 4.0+-0.2, runtime {elapsed:.3f}s < 1s"
    )


def test_criterion_2_gradient_oracle():
    # a (1, 10, 10, 1) network solved with 8 RK4 steps of h = 0.1 from
    # v0 = 0.1, compared with 5 targets at every second solution node
    arch = MLPArch((1, 10, 10, 1))
    data = list(zip(np.linspace(0.0, 0.8, 5).tolist(), np.linspace(0.1, 0.9, 5).tolist()))
    config = TrainConfig(schedule=((0.01, 1),), solver_steps=8)

    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        params = init_params(arch, seed)
        loss_fn = make_loss_fn(NeuralODEModel(params), data, config)
        _, g_adj = value_and_grad(loss_fn, params.theta)
        g_fd = central_difference_gradient(loss_fn, params.theta)
        worst = max(worst, max_relative_error(g_adj, g_fd))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 2 [PASS] discrete adjoint vs central differences over 20 seeds: "
        f"max rel err {worst:.2e} < 1e-5, runtime {elapsed:.1f}s < 10s"
    )


@pytest.mark.slow
def test_criterion_3_neural_ode_fit(trained_node):
    _, report = trained_node
    reduction = report.initial_loss / report.best_loss
    assert report.best_loss <= 1e-2
    assert len(report.loss_history) <= 500
    assert reduction >= 1e3
    print(
        f"ACCEPTANCE 3 [PASS] neural ODE fit: best loss {report.best_loss:.3e} <= 1e-2 "
        f"within {len(report.loss_history)} epochs, reduction {reduction:.0f}x >= 1000x"
    )


@pytest.mark.slow
def test_criterion_4_ude_fit(trained_ude):
    _, report = trained_ude
    reduction = report.initial_loss / report.best_loss
    assert reduction >= 1e3
    assert report.best_loss <= 5e-2
    print(
        f"ACCEPTANCE 4 [PASS] UDE fit: best loss {report.best_loss:.3e} <= 5e-2, "
        f"reduction {reduction:.0f}x >= 1000x across the 3-stage schedule"
    )


@pytest.mark.slow
def test_criterion_5_forecast_pattern(subject_data):
    data, _ = subject_data
    node_90 = forecast("neural_ode", data, SplitSpec(0.9), TrainConfig.neural_ode_defaults())
    ude_90 = forecast("ude", data, SplitSpec(0.9), TrainConfig.ude_defaults())
    ude_70 = forecast("ude", data, SplitSpec(0.7), TrainConfig.ude_defaults())
    assert node_90.test_mse <= 0.1
    assert ude_70.test_mse >= ude_90.test_mse
    print(
        f"ACCEPTANCE 5 [PASS] forecasts: neural ODE 90-10 test MSE {node_90.test_mse:.3e} <= 0.1; "
        f"UDE 70-30 ({ude_70.test_mse:.3e}) >= UDE 90-10 ({ude_90.test_mse:.3e})"
    )


def test_criterion_6_sparse_recovery_oracle():
    start = time.perf_counter()
    V = np.linspace(50.0, 1150.0, 101)
    Phi = BASIS.evaluate(V)
    beta_true = np.array([0.0, -7.88, 11.1, 0.0])
    y = Phi @ beta_true
    fit = sparse_regress(Phi, y)
    elapsed = time.perf_counter() - start
    assert fit.active_set == (2, 3)
    assert fit.beta[0] == 0.0 and fit.beta[3] == 0.0
    assert fit.beta[1] == pytest.approx(-7.88, rel=0.01)
    assert fit.beta[2] == pytest.approx(11.1, rel=0.01)
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 6 [PASS] sparse recovery oracle: beta2 {fit.beta[1]:.4f}, beta3 {fit.beta[2]:.4f} "
        f"within 1% of (-7.88, 11.1), phi1/phi4 zeroed, runtime {elapsed:.3f}s < 1s"
    )


@pytest.mark.slow
def test_criterion_7_sign_structure(subject_data, trained_node, trained_ude):
    data, norm_map = subject_data
    v0 = data[0][1]
    outcomes = {}
    for name, (model, _) in (("neural_ode", trained_node), ("ude", trained_ude)):
        samples = sample_physical_derivatives(model, norm_map, 101, v0=v0)
        Phi, y = build_design_matrix(samples, BASIS)
        fit = sparse_regress(Phi, y)
        assert fit.active_set == (2, 3), f"{name}: active set {fit.active_set}"
        b2, b3 = fit.beta[1], fit.beta[2]
        assert b2 < 0 < b3, f"{name}: signs ({b2}, {b3})"
        assert abs(b3) > abs(b2), f"{name}: magnitudes ({b2}, {b3})"
        outcomes[name] = (b2, b3)
    print(
        "ACCEPTANCE 7 [PASS] recovered sign structure {phi2, phi3} with beta2 < 0 < beta3: "
        + ", ".join(f"{k}: ({v[0]:.2f}, {v[1]:.2f})" for k, v in outcomes.items())
    )


def test_criterion_8_gompertz_self_identification():
    # physical target dV/dt = 0.3 V ln(1200/V): normalized over a 10-day
    # window and a [0, 1200] volume range, the same dynamics read
    # a_norm = 3.0, K_norm = 1.0
    from tumordyn.dataio import NormalizationMap
    from tumordyn.models import GompertzModel

    norm_map = NormalizationMap(t_min=22.0, t_max=32.0, v_min=0.0, v_max=1200.0)
    model = GompertzModel(GompertzParams(a=0.3 * norm_map.t_scale, K=1.0))
    samples = sample_physical_derivatives(model, norm_map, 101, v0=50.0 / 1200.0)
    Phi, y = build_design_matrix(samples, BASIS)
    fit = sparse_regress(Phi, y)
    assert set(fit.active_set) <= {2}
    assert fit.beta[1] == pytest.approx(0.3, rel=0.02)
    print(
        f"ACCEPTANCE 8 [PASS] Gompertz self-identification: active set {fit.active_set} ⊆ {{phi2}}, "
        f"chain-rule-scaled rate {fit.beta[1]:.4f} within 2% of 0.3"
    )


@pytest.mark.slow
def test_criterion_9_run_all_determinism(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(SAMPLE_CSV, encoding="utf-8")
    cfg_text = f"""\
data: {csv_path}
subjects: [1, 2]
n_collocation: 11
solver_steps: 30
neural_ode: {{hidden: [6], schedule: [[0.01, 4]]}}
ude: {{hidden: [4], schedule: [[0.01, 3], [0.005, 2]]}}
forecast: {{fractions: [0.8, 0.6]}}
recover: {{n_samples: 20}}
"""
    outputs = []
    for run in ("run1", "run2"):
        cfg_path = tmp_path / f"{run}.yaml"
        cfg_path.write_text(cfg_text + f"out_dir: {tmp_path / run}\n")
        run_all(load_config(cfg_path))
        blobs = {}
        for path in sorted((tmp_path / run).rglob("*")):
            if path.suffix in (".csv", ".json", ".svg") and path.name != "timings.json":
                blobs[str(path.relative_to(tmp_path / run))] = path.read_bytes()
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    print(
        f"ACCEPTANCE 9 [PASS] run-all determinism: {len(outputs[0])} artifacts byte-identical "
        "across two executions"
    )
