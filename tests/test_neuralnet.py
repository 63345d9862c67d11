import json

import numpy as np
import pytest

from conftest import central_difference_gradient, max_relative_error
from tumordyn.models import NeuralODEModel, TrainConfig, make_loss_fn
from tumordyn.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    GradientError,
    MLPArch,
    MLPParams,
    Xoshiro256StarStar,
    adam_update,
    floats_from_hex,
    init_params,
    mlp_apply,
    mlp_batch,
    mlp_input_derivative,
    mlp_vjp,
    params_from_blob,
    params_to_blob,
    unpack_layers,
    value_and_grad,
)


class TestXoshiro:
    def test_deterministic(self):
        a = Xoshiro256StarStar(123).uniforms(50)
        b = Xoshiro256StarStar(123).uniforms(50)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(Xoshiro256StarStar(1).uniforms(20), Xoshiro256StarStar(2).uniforms(20))

    def test_known_answers(self):
        # the first draws of seed 123 and of a seed above 2**63, and draw
        # 1004 of seed 123, pinned from the scalar reference implementation
        u = Xoshiro256StarStar(123).uniforms(1004)
        assert [x.hex() for x in u[:4]] == [
            "0x1.92d47d0e8d034p-3",
            "0x1.f06bc78ecada9p-1",
            "0x1.dea8ad1b0fca8p-2",
            "0x1.041014cd567c0p-3",
        ]
        assert u[-1].hex() == "0x1.c09247a8a45fap-1"
        assert [x.hex() for x in Xoshiro256StarStar(2**63 + 5).uniforms(3)] == [
            "0x1.683266180071cp-3",
            "0x1.c38d5d24daf70p-1",
            "0x1.09232ab8fbe44p-3",
        ]

    @pytest.mark.parametrize("seed", [0, 3, 123, 901, 2**63 + 5])
    def test_equals_scalar_reference(self, seed):
        mask = (1 << 64) - 1

        def rotl(x, k):
            return ((x << k) | (x >> (64 - k))) & mask

        rng = Xoshiro256StarStar(seed)
        s0, s1, s2, s3 = rng._s
        want = []
        for _ in range(2000):
            want.append((rotl((s1 * 5) & mask, 7) * 9 & mask) >> 11)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = rotl(s3, 45)
        assert rng.uniforms(2000).tobytes() == np.array([w * 2.0**-53 for w in want]).tobytes()

    def test_draws_continue_the_stream(self):
        rng = Xoshiro256StarStar(901)
        parts = np.concatenate([rng.uniforms(3), rng.uniforms(0), rng.uniforms(5)])
        assert parts.tobytes() == Xoshiro256StarStar(901).uniforms(8).tobytes()

    def test_range_and_spread(self):
        u = Xoshiro256StarStar(7).uniforms(4000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.02


class TestInit:
    def test_bit_reproducible(self):
        arch = MLPArch((1, 10, 10, 1))
        assert np.array_equal(init_params(arch, 123).theta, init_params(arch, 123).theta)

    def test_param_count(self):
        # (1+1)*10 + (10+1)*10 + (10+1)*1
        assert MLPArch((1, 10, 10, 1)).n_params == 141
        assert init_params(MLPArch((1, 10, 10, 1)), 0).theta.size == 141

    def test_biases_zero(self):
        params = init_params(MLPArch((3, 8, 2)), 42)
        for _, b in unpack_layers(params.arch, params.theta):
            assert np.all(b == 0.0)

    def test_glorot_variance(self):
        params = init_params(MLPArch((128, 128, 64)), 5)
        for W, _ in unpack_layers(params.arch, params.theta):
            fan_out, fan_in = W.shape
            target = 2.0 / (fan_in + fan_out)
            assert np.var(W) == pytest.approx(target, rel=0.20)

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            MLPArch((5,))
        with pytest.raises(ValueError):
            MLPArch((1, 0, 1))
        with pytest.raises(ValueError):
            MLPParams(MLPArch((1, 2, 1)), np.zeros(3))


class TestForward:
    def test_zero_params_zero_output(self):
        params = MLPParams(MLPArch((2, 5, 3)), np.zeros(MLPArch((2, 5, 3)).n_params))
        layers = unpack_layers(params.arch, params.theta)
        assert np.array_equal(mlp_apply(layers, np.array([1.3, -2.0])), np.zeros(3))

    def test_single_layer_is_affine(self):
        params = MLPParams(MLPArch((1, 1)), np.array([2.0, 3.0]))  # weight 2, bias 3
        assert mlp_apply(unpack_layers(params.arch, params.theta), np.array([4.0])) == pytest.approx([11.0])

    def test_hidden_activations_bound_output(self):
        # with tanh hiddens in (-1, 1), |output| < sum|W_last| + |b_last|
        params = init_params(MLPArch((1, 50, 1)), 9)
        layers = unpack_layers(params.arch, params.theta)
        W_last, b_last = layers[-1]
        bound = np.sum(np.abs(W_last)) + np.abs(b_last[0])
        for x in (-1e6, -3.0, 0.0, 3.0, 1e6):
            assert abs(mlp_apply(layers, np.array([x]))[0]) < bound


class TestBatch:
    def test_rows_match_single_vector_evaluation(self):
        params = init_params(MLPArch((2, 7, 5, 3)), 4)
        layers = unpack_layers(params.arch, params.theta)
        X = np.linspace(-1.5, 2.0, 12).reshape(6, 2)
        Y, acts = mlp_batch(layers, X)
        assert Y.shape == (6, 3) and len(acts) == 3
        for x, y in zip(X, Y):
            assert np.allclose(y, mlp_apply(layers, x), rtol=1e-14, atol=1e-15)

    def test_input_derivative_matches_finite_differences(self):
        params = init_params(MLPArch((2, 6, 6, 2)), 8)
        layers = unpack_layers(params.arch, params.theta)
        X = np.array([[0.3, -1.0], [-0.7, 0.2], [1.1, 0.5]])
        d, _ = mlp_input_derivative(layers, mlp_batch(layers, X)[1])
        step = np.array([1e-6, 0.0])
        fd = (mlp_batch(layers, X + step)[0] - mlp_batch(layers, X - step)[0]) / 2e-6
        assert max_relative_error(d, fd) < 1e-6

    def test_single_layer_input_derivative_is_the_weight_column(self):
        params = MLPParams(MLPArch((2, 1)), np.array([2.0, -3.0, 0.5]))
        layers = unpack_layers(params.arch, params.theta)
        d, slopes = mlp_input_derivative(layers, mlp_batch(layers, np.zeros((4, 2)))[1])
        assert np.array_equal(d, np.full((4, 1), 2.0)) and slopes == []


class TestGrad:
    def test_matches_finite_differences_on_forward_square(self):
        arch = MLPArch((1, 6, 6, 1))
        params = init_params(arch, 11)
        X = np.array([[0.7], [-0.2]])

        def loss_fn(th):
            out = mlp_batch(unpack_layers(arch, th), X)[0]
            return float(np.sum(out * out))

        out, acts = mlp_batch(unpack_layers(arch, params.theta), X)
        _, slopes = mlp_input_derivative(unpack_layers(arch, params.theta), acts)
        g = mlp_vjp(unpack_layers(arch, params.theta), acts, slopes, 2.0 * out)
        g_fd = central_difference_gradient(loss_fn, params.theta)
        assert max_relative_error(g, g_fd) < 1e-6

    def test_matches_finite_differences_through_unrolled_solve(self):
        # the discrete adjoint through an 8-step RK4 solve, 20 seeds
        arch = MLPArch((1, 10, 10, 1))
        data = list(zip(np.linspace(0.0, 0.8, 5).tolist(), np.linspace(0.1, 0.9, 5).tolist()))
        config = TrainConfig(schedule=((0.01, 1),), solver_steps=8)

        worst = 0.0
        for seed in range(20):
            params = init_params(arch, seed)
            loss_fn = make_loss_fn(NeuralODEModel(params), data, config)
            _, g_adj = value_and_grad(loss_fn, params.theta)
            g_fd = central_difference_gradient(loss_fn, params.theta)
            worst = max(worst, max_relative_error(g_adj, g_fd))
        assert worst < 1e-5

    def test_non_finite_gradient_raises(self):
        class Loss:
            def value_and_grad(self, theta):
                return 1.0, np.array([0.0, np.inf, np.nan])

        with pytest.raises(GradientError, match="2 of 3"):
            value_and_grad(Loss(), np.zeros(3))

    def test_non_finite_loss_raises(self):
        class Loss:
            def value_and_grad(self, theta):
                return np.nan, np.zeros(3)

        with pytest.raises(GradientError):
            value_and_grad(Loss(), np.zeros(3))


class TestAdam:
    def test_zero_gradient_from_rest_keeps_params(self):
        params = init_params(MLPArch((1, 3, 1)), 2)
        state = AdamState.fresh(params.theta.size, learning_rate=0.01)
        new_theta, new_state = adam_update(params.theta, np.zeros_like(params.theta), state)
        assert np.array_equal(new_theta, params.theta)
        assert new_state.step_count == 1

    def test_zero_gradient_decays_moments(self):
        params = init_params(MLPArch((1, 3, 1)), 2)
        state = AdamState.fresh(params.theta.size, learning_rate=0.01)
        g = np.ones_like(params.theta)
        _, state1 = adam_update(params.theta, g, state)
        _, state2 = adam_update(params.theta, np.zeros_like(g), state1)
        assert np.allclose(state2.m, ADAM_BETA1 * state1.m)
        assert np.allclose(state2.v, ADAM_BETA2 * state1.v)
        assert state2.step_count == 2

    def test_first_step_closed_form(self):
        theta = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -4.0, 0.0])
        state = AdamState.fresh(3, learning_rate=0.01)
        new_theta, new_state = adam_update(theta, g, state)
        # after bias correction: m_hat = g, v_hat = g^2
        expected = theta - 0.01 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(new_theta, expected, rtol=0, atol=1e-15)
        assert new_state.step_count == 1

    def test_deterministic(self):
        theta = np.linspace(-1, 1, 7)
        g = np.linspace(0.5, -0.5, 7)
        s = AdamState.fresh(7, 0.005)
        out1 = adam_update(theta, g, s)
        out2 = adam_update(theta, g, s)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1].m, out2[1].m)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_update(np.zeros(3), np.zeros(4), AdamState.fresh(3, 0.01))


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        params = init_params(MLPArch((1, 10, 10, 1)), 123)
        loaded = params_from_blob(json.loads(json.dumps(params_to_blob(params, seed=123))))
        assert loaded.arch == params.arch
        assert np.array_equal(loaded.theta, params.theta)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            params_from_blob({"format": "something-else"})

    @pytest.mark.parametrize("entry", [1.5, 0, None, True, ["0x1p+0"]])
    def test_rejects_a_theta_entry_that_is_not_a_string(self, entry):
        blob = params_to_blob(init_params(MLPArch((1, 3, 1)), 7), seed=7)
        blob["theta_hex"][4] = entry
        with pytest.raises(ValueError, match="float.hex"):
            params_from_blob(blob)
        with pytest.raises(ValueError, match="float.hex"):
            floats_from_hex(["0x1p+0", entry])
