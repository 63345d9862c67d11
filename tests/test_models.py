import json
import math

import numpy as np
import pytest

from conftest import bits, central_difference_gradient, make_collocation_data, max_relative_error, reference_forward
from tumordyn.config import RunConfig
from tumordyn.models import (
    GompertzModel,
    NeuralODEModel,
    TrainConfig,
    TrainingError,
    UDEModel,
    init_model,
    load_model,
    make_loss_fn,
    model_theta,
    model_with_theta,
    rhs,
    save_model,
    solve,
    train,
)
from tumordyn.neuralnet import GradientError, MLPArch, MLPParams, init_params, params_to_blob, value_and_grad
from tumordyn.odeint import GompertzParams, gompertz_exact, gompertz_rhs
from tumordyn.symrec import BasisSet

TINY = TrainConfig(schedule=((0.01, 3),), seed=7, solver_steps=20, hidden=(4,))


def constant_network(value: float, hidden=(4,)) -> MLPParams:
    """Zero weights everywhere, output bias set so the net outputs `value`."""
    arch = MLPArch((1, *hidden, 1))
    theta = np.zeros(arch.n_params)
    theta[-1] = value
    return MLPParams(arch, theta)


def flat_data(v: float, n: int = 11):
    return [(t, v) for t in np.linspace(0.0, 1.0, n)]


# each network variant at its default widths and with no hidden layer
WIDTHS = [
    pytest.param("neural_ode", None, id="neural_ode"),
    pytest.param("ude", None, id="ude"),
    pytest.param("neural_ode", (), id="neural_ode-no-hidden"),
    pytest.param("ude", (), id="ude-no-hidden"),
]


class TestRhs:
    def test_ude_zero_first_factor(self):
        model = UDEModel(constant_network(0.0), init_params(MLPArch((1, 4, 1)), 3))
        for v in [0.1, 0.5, 1.0]:
            assert rhs(model, v) == 0.0

    def test_neural_ode_zero_params_flat_trajectory(self):
        arch = MLPArch((1, 4, 1))
        model = NeuralODEModel(MLPParams(arch, np.zeros(arch.n_params)))
        traj = solve(model, 0.3, (0.0, 1.0), 10)
        assert np.all(traj.states == 0.3)

    def test_ude_constant_networks_reproduce_gompertz_pointwise(self):
        a, K = 0.3, 1.2
        for v in [0.2, 0.5, 0.9]:
            model = UDEModel(constant_network(a), constant_network(math.log(K / v)))
            assert rhs(model, v) == pytest.approx(gompertz_rhs(v, GompertzParams(a, K)), rel=1e-12)

    def test_gompertz_variant_delegates(self):
        model = GompertzModel(GompertzParams(0.3, 1200.0))
        assert rhs(model, 600.0) == pytest.approx(gompertz_rhs(600.0, GompertzParams(0.3, 1200.0)))
        with pytest.raises(ValueError):
            rhs(model, -1.0)

    def test_ude_structure_vanishes_at_zero_state(self):
        model = init_model("ude", TINY)
        assert rhs(model, 0.0) == 0.0

    @pytest.mark.parametrize("variant", ["neural_ode", "ude"])
    def test_batched_matches_pointwise(self, variant):
        model = init_model(variant, TrainConfig(schedule=((0.01, 1),), hidden=(5, 5)))
        v = np.linspace(-0.2, 1.3, 7)
        batched = rhs(model, v)
        assert batched.shape == (7,)
        for vi, fi in zip(v, batched):
            assert fi == pytest.approx(rhs(model, float(vi)), rel=1e-13, abs=1e-15)

    def test_networks_must_map_one_to_one(self):
        two_in = init_params(MLPArch((2, 4, 1)), 3)
        with pytest.raises(ValueError, match="1 -> 1"):
            NeuralODEModel(two_in)
        with pytest.raises(ValueError, match="1 -> 1"):
            UDEModel(two_in, two_in)

    def test_ude_networks_must_share_one_architecture(self):
        with pytest.raises(ValueError, match=r"^ude networks must share one architecture, got \(1, 4, 1\) and \(1, 5, 1\)$"):
            UDEModel(init_params(MLPArch((1, 4, 1)), 3), init_params(MLPArch((1, 5, 1)), 3))

    def test_gompertz_batched_rejects_nonpositive(self):
        model = GompertzModel(GompertzParams(0.3, 1200.0))
        assert np.allclose(rhs(model, np.array([100.0, 600.0])), [gompertz_rhs(V, model.params) for V in (100.0, 600.0)])
        with pytest.raises(ValueError):
            rhs(model, np.array([100.0, 0.0]))

    @pytest.mark.parametrize("variant, hidden", WIDTHS)
    def test_rhs_equals_linearization_f_bitwise(self, variant, hidden):
        # recovery samples `rhs`; its bits are those of the linearization's f
        from tumordyn.models import _networks, _rhs_linearization

        model = init_model(variant, TrainConfig(schedule=((0.01, 1),), seed=3, hidden=hidden))
        v = np.linspace(-0.05, 1.05, 101)
        f, _, _ = _rhs_linearization(model, _networks(model, model_theta(model)), v)
        assert rhs(model, v).tobytes() == f.tobytes()

    @pytest.mark.parametrize("variant, hidden", WIDTHS)
    def test_float_rhs_is_one_stack_member_and_a_matmul_pass_bitwise(self, variant, hidden):
        # a float solve's f: a Python float with the bits of the member
        # solve's f and of a pass whose first product is a one-term matmul
        from tumordyn.models import _make_rhs, _networks

        model = init_model(variant, TrainConfig(schedule=((0.01, 1),), seed=4, hidden=hidden))
        theta = model_theta(model)
        f, member_f, layers = _make_rhs(model), _make_rhs(model, theta[None]), _networks(model, theta)
        for v in np.random.default_rng(5).uniform(-1.0, 2.0, 300).tolist():
            z = np.matmul(np.array([[v]]), layers[0][0]) + layers[0][1]
            for WT, b in layers[1:]:
                z = np.matmul(np.tanh(z), WT) + b
            y = z.ravel().tolist()
            got = f(v)
            assert type(got) is float
            assert bits(got) == bits(member_f(np.array([v]))) == bits(y[0] if variant == "neural_ode" else y[0] * v * y[1])

    def test_ude_factorization(self):
        from tumordyn.neuralnet import unpack_layers

        model = init_model("ude", TINY)
        nn1 = unpack_layers(model.nn1.arch, model.nn1.theta)
        nn2 = unpack_layers(model.nn2.arch, model.nn2.theta)
        for v in [0.1, 0.4, 0.8]:
            n1, n2 = (float(reference_forward(layers, np.array([v]))[0]) for layers in (nn1, nn2))
            expected = n1 * v * n2
            assert rhs(model, v) == pytest.approx(expected, rel=1e-14)


class TestLoss:
    def test_exact_reproduction_gives_zero(self):
        arch = MLPArch((1, 4, 1))
        model = NeuralODEModel(MLPParams(arch, np.zeros(arch.n_params)))
        assert make_loss_fn(model, flat_data(0.5), TINY)(model_theta(model)) == 0.0

    def test_single_point_perturbation(self):
        arch = MLPArch((1, 4, 1))
        model = NeuralODEModel(MLPParams(arch, np.zeros(arch.n_params)))
        delta = 0.013
        data = flat_data(0.5)
        data[7] = (data[7][0], 0.5 + delta)
        assert make_loss_fn(model, data, TINY)(model_theta(model)) == pytest.approx(delta**2 / len(data), rel=1e-12)

    @pytest.mark.parametrize("variant", ["neural_ode", "ude"])
    def test_loss_fn_and_gradient_value_equal_loss_bitwise(self, variant):
        data, _, _ = make_collocation_data(11)
        template = init_model(variant, TINY)
        theta = model_theta(template) + 0.01 * np.cos(np.arange(model_theta(template).size))
        model = model_with_theta(template, theta)
        expected = make_loss_fn(model, data, TINY)(model_theta(model))
        loss_fn = make_loss_fn(template, data, TINY)
        assert loss_fn(theta) == expected
        assert value_and_grad(loss_fn, theta)[0] == expected

    def test_requires_sorted_data(self):
        model = init_model("neural_ode", TINY)
        with pytest.raises(ValueError):
            make_loss_fn(model, [(0.5, 0.1), (0.2, 0.3)], TINY)


class TestSolve:
    def test_gompertz_physical_matches_exact(self):
        p = GompertzParams(0.3, 1200.0)
        traj = solve(GompertzModel(p), 80.0, (22.0, 32.0), 1000)
        exact = gompertz_exact(traj.times - 22.0, 80.0, p)
        assert np.max(np.abs(traj.states - exact) / exact) < 1e-8

    def test_starts_exactly_at_v0(self):
        model = init_model("neural_ode", TINY)
        traj = solve(model, 0.123, (0.0, 1.0), 10)
        assert traj.states[0] == 0.123

    def test_gompertz_state_floor_counts_events(self):
        from tumordyn.models import _make_rhs

        counter = [0]
        f = _make_rhs(GompertzModel(GompertzParams(3.0, 1.0)), clamp_counter=counter)
        out = f(-1e-15)  # transient overshoot below zero
        assert counter[0] == 1
        assert math.isfinite(out)

    def test_initial_state_floors_by_variant(self):
        from tumordyn.models import initial_state

        gomp = GompertzModel(GompertzParams(0.3, 1200.0))
        ude = init_model("ude", TINY)
        node = init_model("neural_ode", TINY)
        assert initial_state(gomp, -0.5) == 1e-12
        assert initial_state(ude, -0.002) == 1e-3  # v=0 is a UDE equilibrium
        assert initial_state(node, -0.002) == -0.002
        assert initial_state(ude, 0.4) == 0.4

    def test_ude_solve_escapes_nonpositive_start(self):
        model = init_model("ude", TINY)
        traj = solve(model, -0.002, (0.0, 1.0), 20)
        assert traj.states[0] > 0.0


class TestTrainConfig:
    def test_zero_epoch_stage_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule=((0.01, 0),))

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule=((-0.01, 10),))

    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule=())

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TrainConfig(schedule=((0.01, 2.5),)), "must be an integer"),
            (lambda: TrainConfig(schedule=((0.01, True),)), "must be an integer"),
            (lambda: TrainConfig(schedule=((0.01, 2),), hidden=(3.7,)), "must be an integer"),
            (lambda: TrainConfig(schedule=((0.01, 2),), solver_steps=10.5), "must be an integer"),
            (lambda: TrainConfig(schedule=((0.01, 2),), seed=1.5), "must be an integer"),
            (lambda: MLPArch((1, 3.7, 1)), "must be an integer"),
            (lambda: MLPArch((1, np.True_, 1)), "must be an integer"),
            (lambda: RunConfig(seed=np.float64(2.5)), "must be an integer"),
            # learning rates and the basis K are finite positive numbers
            (lambda: TrainConfig(schedule=((math.nan, 2),)), "must be a finite positive number"),
            (lambda: TrainConfig(schedule=((0.01, 2), (math.inf, 2))), "must be a finite positive number"),
            (lambda: TrainConfig(schedule=((True, 2),)), "must be a finite positive number"),
            (lambda: TrainConfig(schedule=(("0.01", 2),)), "must be a finite positive number"),
            (lambda: BasisSet(math.nan), "must be a finite positive number"),
            (lambda: BasisSet(True), "must be a finite positive number"),
        ],
        ids=[
            "epochs", "bool-epochs", "hidden", "solver_steps", "seed", "arch", "numpy-bool-arch", "run-config",
            "nan-rate", "inf-rate", "bool-rate", "string-rate", "nan-basis-K", "bool-basis-K",
        ],
    )
    def test_non_integral_count_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_integral_numbers_of_every_kind_are_accepted(self):
        counts = dict(seed=7.0, solver_steps=np.int32(10), hidden=(3.0, np.uint8(4)))
        cfg = TrainConfig(schedule=((0.01, np.int64(2)),), **counts)
        assert (cfg.schedule, cfg.seed, cfg.solver_steps, cfg.hidden) == (((0.01, 2),), 7, 10, (3, 4))
        assert all(type(n) is int for n in (cfg.schedule[0][1], cfg.seed, cfg.solver_steps, *cfg.hidden))
        assert MLPArch((1, np.int64(3), 2.0, 1)).layer_widths == (1, 3, 2, 1)
        assert RunConfig(seed=np.int64(5), ude_hidden=(np.int16(6),)).seed == 5

    def test_defaults_mirror_configuration(self):
        node = TrainConfig.neural_ode_defaults()
        assert node.schedule == ((0.01, 500),)
        assert node.hidden == (128, 128, 64, 64)
        ude = TrainConfig.ude_defaults()
        assert ude.schedule == ((0.01, 1000), (0.005, 1000), (0.001, 500))
        assert ude.hidden == (10, 10)
        assert node.seed == ude.seed == 123


class TestTrain:
    def test_deterministic_reports_and_params(self):
        data, _, _ = make_collocation_data(11)
        m1, r1 = train("neural_ode", data, TINY)
        m2, r2 = train("neural_ode", data, TINY)
        assert r1.loss_history == r2.loss_history
        assert r1.initial_loss == r2.initial_loss
        assert np.array_equal(model_theta(m1), model_theta(m2))

    def test_report_invariants(self):
        data, _, _ = make_collocation_data(11)
        _, report = train("ude", data, TINY)
        assert len(report.loss_history) == sum(epochs for _, epochs in TINY.schedule)
        assert report.final_loss == report.loss_history[-1]
        assert report.best_loss == min(report.initial_loss, min(report.loss_history))

    def test_returned_model_achieves_best_loss(self):
        data, _, _ = make_collocation_data(11)
        model, report = train("neural_ode", data, TINY)
        assert make_loss_fn(model, data, TINY)(model_theta(model)) == pytest.approx(report.best_loss, rel=1e-12)

    def test_divergence_becomes_training_error(self):
        data, _, _ = make_collocation_data(11)
        wild = TrainConfig(schedule=((1e6, 4),), seed=7, solver_steps=20, hidden=(4,))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as err:
                train("ude", data, wild)
        assert hasattr(err.value, "history")

    def test_non_finite_gradient_becomes_training_error(self, monkeypatch):
        import tumordyn.models as models_module

        data, _, _ = make_collocation_data(11)
        real_adjoint = models_module.rk4_adjoint
        monkeypatch.setattr(models_module, "rk4_adjoint", lambda *a: real_adjoint(*a) * np.nan)
        with pytest.raises(TrainingError) as err:
            train("ude", data, TINY)
        assert isinstance(err.value.__cause__, GradientError)
        assert err.value.history == ()

    def test_ude_loss_gradient_matches_finite_differences(self):
        data, _, _ = make_collocation_data(11)
        worst = 0.0
        for seed in range(3):
            cfg = TrainConfig(schedule=((0.01, 1),), seed=seed, solver_steps=20, hidden=(6, 6))
            template = init_model("ude", cfg)
            loss_fn = make_loss_fn(template, data, cfg)
            theta = model_theta(template)
            _, g_adj = value_and_grad(loss_fn, theta)
            g_fd = central_difference_gradient(loss_fn, theta)
            worst = max(worst, max_relative_error(g_adj, g_fd))
        assert worst < 1e-5

    @pytest.mark.parametrize("variant", ["neural_ode", "ude"])
    def test_gradient_without_hidden_layer_matches_finite_differences(self, variant):
        data, _, _ = make_collocation_data(11)
        cfg = TrainConfig(schedule=((0.01, 1),), seed=2, solver_steps=20, hidden=())
        template = init_model(variant, cfg)
        loss_fn = make_loss_fn(template, data, cfg)
        theta = model_theta(template) + 0.1
        _, g_adj = value_and_grad(loss_fn, theta)
        assert max_relative_error(g_adj, central_difference_gradient(loss_fn, theta)) < 1e-5

    def test_unknown_variant(self):
        data, _, _ = make_collocation_data(11)
        with pytest.raises(ValueError):
            train("gompertz", data, TINY)

    def test_loss_gradient_matches_finite_differences(self):
        data, _, _ = make_collocation_data(11)
        template = init_model("neural_ode", TINY)
        loss_fn = make_loss_fn(template, data, TINY)
        worst = 0.0
        for seed in range(5):
            theta = model_theta(init_model("neural_ode", TrainConfig(
                schedule=((0.01, 1),), seed=seed, hidden=(4,))))
            _, g_ad = value_and_grad(loss_fn, theta)
            g_fd = central_difference_gradient(loss_fn, theta)
            worst = max(worst, max_relative_error(g_ad, g_fd))
        assert worst < 1e-5


class TestThetaHelpers:
    def test_round_trip(self):
        model = init_model("ude", TINY)
        theta = model_theta(model)
        assert theta.size == model.nn1.arch.n_params + model.nn2.arch.n_params
        rebuilt = model_with_theta(model, theta)
        assert np.array_equal(model_theta(rebuilt), theta)

    def test_gompertz_has_no_theta(self):
        with pytest.raises(ValueError):
            model_theta(GompertzModel(GompertzParams(0.3, 1200.0)))


class TestCheckpoints:
    @pytest.mark.parametrize("variant", ["neural_ode", "ude"])
    def test_network_round_trip(self, tmp_path, variant):
        model = init_model(variant, TINY)
        path = tmp_path / "model.json"
        save_model(model, path, seed=7)
        loaded = load_model(path)
        assert loaded.variant == variant
        assert np.array_equal(model_theta(loaded), model_theta(model))
        assert json.loads(path.read_text())["time_input"] is False

    @pytest.mark.parametrize("value", [True, "false", None])
    def test_time_input_other_than_false_rejected(self, tmp_path, value):
        blob = {
            "format": "tumordyn-model-v1",
            "variant": "neural_ode",
            "time_input": value,
            "networks": [params_to_blob(init_params(MLPArch((2, 4, 1)), 3))],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="time_input"):
            load_model(path)

    def test_gompertz_has_no_checkpoint(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(GompertzModel(GompertzParams(0.3, 1200.0)), tmp_path / "model.json")

    def test_gompertz_checkpoint_is_an_unknown_variant(self, tmp_path):
        # Gompertz parameters in float.hex, as a network checkpoint stores its floats
        blob = {"format": "tumordyn-model-v1", "variant": "gompertz", "a": "0x1.3333333333333p-2", "K": "0x1.2cp+10"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="unknown variant 'gompertz'"):
            load_model(path)
