import math

import numpy as np
import pytest

from conftest import make_growth_series
from tumordyn import cli
from tumordyn.config import RunConfig
from tumordyn.odeint import (
    DivergenceError,
    GompertzParams,
    Trajectory,
    gompertz_exact,
    gompertz_rhs,
    rk4_adjoint,
    rk4_states,
    solve_fixed_grid,
)

P = GompertzParams(a=0.3, K=1200.0)


class TestGompertzRhs:
    def test_zero_at_carrying_capacity(self):
        assert gompertz_rhs(1200.0, P) == 0.0

    def test_value_at_K_over_e(self):
        # a * (K/e) * ln(e) = 0.3 * 1200 / e
        v = 1200.0 / math.e
        assert gompertz_rhs(v, P) == pytest.approx(0.3 * v, rel=1e-14)
        assert gompertz_rhs(v, P) == pytest.approx(132.4366, rel=1e-6)

    def test_negative_above_capacity(self):
        assert gompertz_rhs(2400.0, P) < 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gompertz_rhs(0.0, P)
        with pytest.raises(ValueError):
            gompertz_rhs(-5.0, P)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GompertzParams(a=-0.1, K=1200.0)
        with pytest.raises(ValueError):
            GompertzParams(a=0.3, K=0.0)
        for bad in (math.inf, math.nan, True, "0.3"):
            with pytest.raises(ValueError):
                GompertzParams(a=bad, K=1200.0)
            with pytest.raises(ValueError):
                GompertzParams(a=0.3, K=bad)


class TestGompertzExact:
    def test_initial_condition(self):
        assert gompertz_exact(0.0, 50.0, P) == pytest.approx(50.0, rel=1e-15)

    def test_long_time_limit_is_K(self):
        t = 1e3 / P.a
        assert gompertz_exact(t, 50.0, P) == pytest.approx(P.K, rel=1e-9)

    def test_equilibrium(self):
        for t in [0.0, 1.0, 55.5]:
            assert gompertz_exact(t, P.K, P) == pytest.approx(P.K, rel=1e-15)


class TestIntegrateRk4:
    def test_zero_rhs_constant(self):
        traj = solve_fixed_grid(lambda v: 0.0, 7.0, 0.0, 3.0, 10)
        assert np.all(traj.states == 7.0)
        assert traj.times.size == 11

    def test_matches_analytic_gompertz(self):
        traj = solve_fixed_grid(lambda v: gompertz_rhs(v, P), 50.0, 0.0, 10.0, 1000)
        exact = gompertz_exact(traj.times, 50.0, P)
        assert np.max(np.abs(traj.states - exact) / exact) <= 1e-8

    def test_fourth_order_convergence(self):
        errors = []
        for n in (100, 200, 400):
            traj = solve_fixed_grid(lambda v: gompertz_rhs(v, P), 50.0, 0.0, 10.0, n)
            errors.append(abs(traj.states[-1] - gompertz_exact(10.0, 50.0, P)))
        for e_coarse, e_fine in zip(errors, errors[1:]):
            order = math.log2(e_coarse / e_fine)
            assert 3.8 <= order <= 4.2

    def test_divergence_error_reports_step(self):
        def rhs(v):
            return math.nan if v > 100.0 else v

        with pytest.raises(DivergenceError) as err:
            solve_fixed_grid(rhs, 10.0, 0.0, 5.0, 100)
        assert err.value.step >= 1

    def test_bad_arguments(self):
        for n_steps in (0, 1.5, True, "3"):
            with pytest.raises(ValueError, match="n_steps"):
                solve_fixed_grid(lambda v: 0.0, 1.0, 0.0, 1.0, n_steps)
        with pytest.raises(ValueError):
            solve_fixed_grid(lambda v: 0.0, 1.0, 1.0, 0.0, 10)

    def test_monotone_and_bounded_below_capacity(self):
        traj = solve_fixed_grid(lambda v: gompertz_rhs(v, P), 50.0, 0.0, 40.0, 4000)
        assert np.all(np.diff(traj.states) > 0)
        assert np.all(traj.states <= P.K * (1 + 1e-9))

    def test_started_at_capacity_stays(self):
        traj = solve_fixed_grid(lambda v: gompertz_rhs(v, P), P.K, 0.0, 10.0, 100)
        assert np.max(np.abs(traj.states - P.K)) <= 1e-12 * P.K


class TestAdjoint:
    def test_records_four_stages_per_step(self):
        stages = []
        states = rk4_states(lambda v: -v, 1.0, [0.0, 0.5, 1.0], 0.5, stages)
        assert len(states) == 3 and len(stages) == 8
        # y, y + h/2 k1, y + h/2 k2, y + h k3 for the first step from y = 1
        assert stages[:4] == [1.0, 0.75, 0.8125, 0.59375]
        assert stages[4] == states[1]

    def test_linear_growth_rate_derivative_is_exact(self):
        # dv/dt = lam * v: RK4 multiplies by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
        # per step (z = lam h), so d v_n / d lam = v0 n R^(n-1) R'(z) h, and
        # the stage cotangents times df/dlam = stage state must sum to that
        lam, h, n, v0 = -1.3, 0.1, 12, 2.0
        times = np.linspace(0.0, n * h, n + 1)
        stages = []
        states = rk4_states(lambda v: lam * v, v0, times, h, stages)
        z = lam * h
        R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        dR = 1 + z + z**2 / 2 + z**3 / 6
        assert states[-1] == pytest.approx(v0 * R**n, rel=1e-14)
        seed = np.zeros(n + 1)
        seed[-1] = 1.0
        cot = rk4_adjoint(seed, np.full(4 * n, lam), h)
        dv_dlam = float(cot @ np.array(stages))
        assert dv_dlam == pytest.approx(v0 * n * R ** (n - 1) * dR * h, rel=1e-13)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            rk4_adjoint(np.zeros(3), np.zeros(4), 0.1)


class TestMemberSolve:
    """A (B,) state steps B independent solves, each bitwise its own."""

    @staticmethod
    def logistic(v):
        return 3.0 * v * (1.0 - v)

    def test_each_member_equals_its_float_solve(self):
        v0 = np.array([0.1, 0.02, 0.3])
        n = 13
        times, h = np.linspace(0.0, 0.8, n + 1), 0.8 / n
        stages = []
        states = np.array(rk4_states(self.logistic, v0, times, h, stages))
        for b in range(3):
            own_stages = []
            own = rk4_states(self.logistic, float(v0[b]), times, h, own_stages)
            assert states[:, b].tobytes() == np.array(own).tobytes()
            assert np.array(stages)[:, b].tobytes() == np.array(own_stages).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_names_the_member(self):
        def f(v):
            return v * v  # dv/dt = v^2 blows up at t = 1 / v0

        n = 40
        times, h = np.linspace(0.0, 1.0, n + 1), 1.0 / n
        v0 = np.array([0.5, 1e153, 1e152])
        with pytest.raises(DivergenceError) as err:
            rk4_states(f, v0, times, h)
        assert err.value.member == 1
        with pytest.raises(DivergenceError) as alone:
            rk4_states(f, float(v0[1]), times, h)
        assert alone.value.member is None
        assert (str(err.value), err.value.step, err.value.t) == (str(alone.value), alone.value.step, alone.value.t)


class TestEvalAt:
    """Forecasts read a trajectory between its nodes with np.interp."""

    def setup_method(self):
        self.traj = Trajectory(times=[0.0, 1.0, 2.0], states=[10.0, 20.0, 40.0])

    def test_exact_at_node(self):
        assert np.interp(1.0, self.traj.times, self.traj.states) == 20.0

    def test_midpoint_mean(self):
        assert np.interp(0.5, self.traj.times, self.traj.states) == 15.0
        assert np.interp(1.5, self.traj.times, self.traj.states) == 30.0


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 0.0], states=[1.0, 2.0])
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], states=[1.0, math.inf])
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], states=[1.0])

    def test_csv_export(self, tmp_path):
        # a trajectory's table, as the `gompertz` stage writes it: one row a node
        config = RunConfig(out_dir=str(tmp_path), solver_steps=2)
        ctx = cli._prepare_subject(config, make_growth_series())
        cli.stage_gompertz(config, ctx)
        lines = (ctx.out_dir / "gompertz.csv").read_text().strip().splitlines()
        assert lines[0] == "t,state"
        assert [float(line.split(",")[0]) for line in lines[1:]] == [22.0, 27.0, 32.0]
