import itertools
import math

import numpy as np
import pytest

from tumordyn.dataio import NormalizationMap
from tumordyn.models import GompertzModel
from tumordyn.odeint import GompertzParams
from tumordyn.symrec import (
    BasisSet,
    SparseFit,
    build_design_matrix,
    default_lambda,
    format_expression,
    sample_physical_derivatives,
    sparse_regress,
)

BASIS = BasisSet(K=1200.0)
V_GRID = np.linspace(50.0, 1150.0, 101)

# normalized-space Gompertz whose physical image is dV/dt = 0.3 V ln(1200/V):
# v = V / 1200 over a 10-day window, so a_norm = 0.3 * 10
NORM_MODEL = GompertzModel(GompertzParams(a=3.0, K=1.0))
MAP_10_DAYS = NormalizationMap(t_min=22.0, t_max=32.0, v_min=0.0, v_max=1200.0)
MAP_20_DAYS = NormalizationMap(t_min=22.0, t_max=42.0, v_min=0.0, v_max=1200.0)


class TestSamplePhysicalDerivatives:
    def test_gompertz_pairs_satisfy_growth_law(self):
        samples = sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 50, v0=50.0 / 1200.0)
        for V, dVdt in samples:
            expected = 0.3 * V * math.log(1200.0 / V)
            assert dVdt == pytest.approx(expected, rel=1e-6)

    def test_chain_rule_halves_with_doubled_time_span(self):
        a = sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 20, v0=0.05)
        b = sample_physical_derivatives(NORM_MODEL, MAP_20_DAYS, 20, v0=0.05)
        for (Va, da), (Vb, db) in zip(a, b):
            assert Va == pytest.approx(Vb, rel=1e-12)
            assert db == pytest.approx(da / 2.0, rel=1e-12)

    def test_sample_count_and_range(self):
        samples = sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 10, v0=0.05)
        assert len(samples) == 10
        for V, _ in samples:
            assert MAP_10_DAYS.v_min <= V <= MAP_10_DAYS.v_max

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 9, v0=0.05)
        for n in (10.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, n, v0=0.05)
        for steps in (True, 2.5):
            with pytest.raises(ValueError, match="solver_steps must be an integer"):
                sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 10, v0=0.05, solver_steps=steps)
        for steps in (0, -1):
            with pytest.raises(ValueError, match="solver_steps"):
                sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 10, v0=0.05, solver_steps=steps)


class TestDesignMatrix:
    def test_terms_vanish_at_capacity(self):
        Phi, y = build_design_matrix([(1200.0, 5.0)], BASIS)
        assert Phi[0, 1] == 0.0  # V ln(K/V)
        assert Phi[0, 2] == 0.0  # V (1 - V/K)
        assert y[0] == 5.0

    def test_values_at_half_capacity(self):
        Phi, _ = build_design_matrix([(600.0, 0.0)], BASIS)
        assert Phi[0, 2] == pytest.approx(300.0, rel=1e-14)
        assert Phi[0, 1] == pytest.approx(600.0 * math.log(2.0), rel=1e-14)
        assert Phi[0, 1] == pytest.approx(415.888, rel=1e-5)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            build_design_matrix([(0.0, 1.0)], BASIS)

    def test_exact_rank_deficiency(self):
        # phi3 = phi1 - phi4 / K identically
        Phi = BASIS.evaluate(V_GRID)
        assert np.allclose(Phi[:, 2], Phi[:, 0] - Phi[:, 3] / BASIS.K, rtol=1e-14)


class TestSparseRegress:
    def test_single_term_round_trip(self):
        Phi = BASIS.evaluate(V_GRID)
        y = 5.0 * Phi[:, 1]
        fit = sparse_regress(Phi, y)
        assert fit.active_set == (2,)
        assert fit.beta[1] == pytest.approx(5.0, abs=1e-3)

    def test_lambda_zero_matches_least_squares(self):
        # Phi is rank 3 for any sample set (phi3 aliases phi1 and phi4), so
        # the least-squares solution is pinned down by the solver's
        # minimum-norm convention in its scaled coordinates; the closed-form
        # oracle applies the same convention via the pseudoinverse.
        V = np.array([100.0, 400.0, 700.0, 1000.0])
        Phi = BASIS.evaluate(V)
        y = np.array([30.0, 110.0, 90.0, 20.0])
        fit = sparse_regress(Phi, y, lam=0.0, threshold_rel=0.0)
        norms = np.linalg.norm(Phi, axis=0)
        beta_ls = np.linalg.pinv(Phi / norms) @ y / norms
        assert np.max(np.abs(fit.beta - beta_ls)) < 1e-8
        # every least-squares minimizer shares the residual
        resid_lstsq = np.linalg.norm(Phi @ np.linalg.lstsq(Phi, y, rcond=None)[0] - y)
        assert fit.residual_norm == pytest.approx(resid_lstsq, rel=1e-12)

    def test_zero_targets_zero_solution(self):
        Phi = BASIS.evaluate(V_GRID)
        fit = sparse_regress(Phi, np.zeros(V_GRID.size))
        assert np.all(fit.beta == 0.0)
        assert fit.active_set == ()

    @pytest.mark.parametrize(
        "beta_true",
        [
            (0.0, 4.0, 0.0, 0.0),
            (0.0, 0.0, 6.0, 0.0),
            (2.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.004),
            (0.0, -7.88, 11.1, 0.0),
            (1.5, 3.0, 0.0, 0.0),
            (0.0, 2.0, 0.0, 0.003),
        ],
    )
    def test_round_trip_identifiable_supports(self, beta_true):
        # note: supports with two members of {phi1, phi3, phi4} are excluded,
        # those alias each other exactly through phi3 = phi1 - phi4/K
        beta_true = np.array(beta_true)
        Phi = BASIS.evaluate(V_GRID)
        y = Phi @ beta_true
        fit = sparse_regress(Phi, y)
        expected_active = tuple(int(i) + 1 for i in np.nonzero(beta_true)[0])
        assert fit.active_set == expected_active
        for i in np.nonzero(beta_true)[0]:
            assert fit.beta[i] == pytest.approx(beta_true[i], rel=0.01)

    def test_lambda_path_monotone(self):
        Phi = BASIS.evaluate(V_GRID)
        y = Phi @ np.array([0.0, -7.88, 11.1, 0.0])
        lam_max = float(np.max(np.abs((Phi / np.linalg.norm(Phi, axis=0)).T @ y)))
        lams = [1e-5 * lam_max, 1e-4 * lam_max, 1e-3 * lam_max, 1e-2 * lam_max, 1e-1 * lam_max]
        fits = [sparse_regress(Phi, y, lam=l) for l in lams]
        l1_norms = [np.sum(np.abs(f.beta * np.linalg.norm(Phi, axis=0))) for f in fits]
        residuals = [f.residual_norm for f in fits]
        for a, b in zip(l1_norms, l1_norms[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12
        for a, b in zip(residuals, residuals[1:]):
            assert b >= a * (1 - 1e-9) - 1e-12

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            sparse_regress(BASIS.evaluate(np.array([100.0, 200.0])), np.zeros(2))

    def test_default_lambda_scale(self):
        Phi = BASIS.evaluate(V_GRID)
        y = Phi @ np.array([0.0, 1.0, 0.0, 0.0])
        lam = default_lambda(Phi, y)
        assert 0 < lam < float(np.max(np.abs((Phi / np.linalg.norm(Phi, axis=0)).T @ y)))

    def test_noisy_near_aliased_design_is_solved(self):
        # FISTA stopped unconverged after 50,000 iterations on this design:
        # over a narrow V range every pair of terms is nearly collinear
        rng = np.random.default_rng(1)
        V = np.sort(rng.uniform(485.0, 771.0, 101))
        Phi = BASIS.evaluate(V)
        y = Phi @ np.array([0.33, -1.30, 0.91, 4.5e-4])
        y = y * (1.0 + 1e-3 * rng.standard_normal(V.size))
        fit = sparse_regress(Phi, y, threshold_rel=0.0)
        assert_kkt(Phi, y, fit)

    def test_near_constant_volume_is_solved(self):
        # a network that barely grows samples V over 0.1 mm^3: the Gram
        # matrix of {phi1, phi2, phi3} is then singular in floating point,
        # though the columns are not
        rng = np.random.default_rng(2)
        Phi = BASIS.evaluate(np.linspace(80.0, 80.1, 101))
        y = Phi @ np.array([0.0, -1.8e-3, 0.0, 6e-5]) + 1e-6 * rng.standard_normal(101)
        fit = sparse_regress(Phi, y, threshold_rel=0.0)
        assert_kkt(Phi, y, fit)

    @pytest.mark.parametrize("seed", range(20))
    def test_kkt_on_noisy_designs(self, seed):
        # V spans between 0.2 and 1000 mm^3; the narrowest make every pair
        # of terms nearly collinear, as a network that barely grows does
        rng = np.random.default_rng(100 + seed)
        width = 10.0 ** rng.uniform(-0.7, 3.0)
        lo = rng.uniform(20.0, 1190.0 - width)
        V = np.linspace(lo, lo + width, 101)
        Phi = BASIS.evaluate(V)
        beta = rng.standard_normal(4) * np.array([1.0, 1.0, 1.0, 1e-3]) * rng.integers(0, 2, 4)
        y = Phi @ beta + 0.01 * np.std(Phi @ beta + V) * rng.standard_normal(V.size)
        fit = sparse_regress(Phi, y, threshold_rel=0.0)
        assert_kkt(Phi, y, fit)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_reference_enumeration(self, seed):
        # noisy basis designs (the basis is aliased: phi3 = phi1 - phi4 / K),
        # the same with two identical columns, and Gaussian designs of other
        # widths, each at lam = 0, the default lam and multiples of it
        rng = np.random.default_rng(900 + seed)
        width = 10.0 ** rng.uniform(-0.7, 3.0)
        lo = rng.uniform(20.0, 1190.0 - width)
        Phi = BASIS.evaluate(np.linspace(lo, lo + width, 101))
        if seed % 4 == 1:
            Phi[:, 2] = Phi[:, 1]
        elif seed % 4 == 2:
            Phi = rng.standard_normal((30, 1 + seed % 6))
        beta = rng.standard_normal(Phi.shape[1]) * rng.integers(0, 2, Phi.shape[1])
        y = Phi @ beta + 0.01 * (1.0 + np.std(Phi @ beta)) * rng.standard_normal(Phi.shape[0])
        lam0 = default_lambda(Phi, y)
        for lam in [0.0, None, 0.1 * lam0, 30.0 * lam0, 1e4 * lam0]:
            got, want = sparse_regress(Phi, y, lam), reference_sparse_regress(Phi, y, lam)
            assert got.beta.tobytes() == want.beta.tobytes()
            assert got.active_set == want.active_set
            assert got.residual_norm.hex() == want.residual_norm.hex()

    def test_tie_goes_to_the_lower_index(self):
        # columns 2 and 3 are identical, so every split of their weight has
        # the same objective; the tie rule puts it all on column 2
        Phi = BASIS.evaluate(V_GRID)
        Phi = np.column_stack([Phi[:, 0], Phi[:, 1], Phi[:, 1], Phi[:, 3]])
        y = Phi @ np.array([0.0, 2.0, 2.0, 0.0]) + np.sin(V_GRID)
        first, second = sparse_regress(Phi, y), sparse_regress(Phi, y)
        assert first.beta[1] != 0.0
        assert first.beta[2] == 0.0
        assert first.beta.tobytes() == second.beta.tobytes()


def reference_sparse_regress(Phi, y, lam=None, threshold_rel=1e-3):
    """The plain enumeration: every (support, sign) candidate is scored, then
    kept only if its signs match. The oracle for the bits of `sparse_regress`,
    which tests sign consistency first and scores only what it keeps."""
    n, p = Phi.shape
    lam = default_lambda(Phi, y) if lam is None else lam
    norms = np.linalg.norm(Phi, axis=0)
    norms[norms == 0] = 1.0
    X = Phi / norms
    y_scale = float(np.max(np.abs(y))) or 1.0
    ys = y / y_scale
    lam_s = lam / y_scale
    if lam_s == 0:
        b = np.linalg.lstsq(X, ys, rcond=None)[0]
    else:
        best, b = float(ys @ ys), np.zeros(p)
        for S in (S for k in range(1, p + 1) for S in itertools.combinations(range(p), k)):
            XS = X[:, S]
            U, sv, Vt = np.linalg.svd(XS, full_matrices=False)
            if sv[-1] <= sv[0] * n * np.finfo(float).eps:
                continue
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(S))))
            coords = ((U.T @ ys) / sv)[:, None] - 0.5 * lam_s * (Vt @ signs.T) / sv[:, None] ** 2
            for bS, s in zip((Vt.T @ coords).T, signs):
                r = XS @ bS - ys
                objective = float(r @ r) + lam_s * float(np.sum(np.abs(bS)))
                if np.array_equal(np.sign(bS), s) and objective < best:
                    best, b = objective, np.zeros(p)
                    b[list(S)] = bS
    beta = b * y_scale / norms
    peak = np.max(np.abs(beta))
    if peak > 0:
        beta[np.abs(beta) < threshold_rel * peak] = 0.0
    active = tuple(int(i) + 1 for i in np.nonzero(beta)[0])
    return SparseFit(beta=beta, active_set=active, residual_norm=float(np.linalg.norm(Phi @ beta - y)), lam=lam)


def assert_kkt(Phi, y, fit):
    """The lasso optimality conditions in the solver's scaled coordinates:
    unit-norm columns X, targets y / max|y| and the penalty scaled alike."""
    norms = np.linalg.norm(Phi, axis=0)
    y_scale = np.max(np.abs(y))
    X, lam = Phi / norms, fit.lam / y_scale
    b = fit.beta * norms / y_scale
    corr = X.T @ (y / y_scale - X @ b)
    active = b != 0
    assert np.all(np.abs(corr[active] - 0.5 * lam * np.sign(b[active])) <= 1e-8 * lam)
    assert np.all(np.abs(corr[~active]) <= 0.5 * lam * (1.0 + 1e-8))


class TestGompertzSelfIdentification:
    def test_recovers_scaled_growth_rate(self):
        samples = sample_physical_derivatives(NORM_MODEL, MAP_10_DAYS, 101, v0=50.0 / 1200.0)
        Phi, y = build_design_matrix(samples, BASIS)
        fit = sparse_regress(Phi, y)
        assert set(fit.active_set) <= {2}
        # normalized rate 3.0 over a 10-day window: physical rate 0.3 / day
        assert fit.beta[1] == pytest.approx(0.3, rel=0.02)
        assert fit.beta[1] * MAP_10_DAYS.t_scale == pytest.approx(NORM_MODEL.params.a, rel=0.02)


class TestFormatExpression:
    def test_paper_style_pair(self):
        fit = SparseFit(beta=np.array([0.0, -7.88, 11.1, 0.0]), active_set=(2, 3), residual_norm=0.0, lam=0.0)
        assert (
            format_expression(fit, BASIS)
            == "dV/dt ≈ -7.88*V*log(1200/V) + 11.1*V*(1 - V/1200)"
        )

    def test_zero_fit(self):
        fit = SparseFit(beta=np.zeros(4), active_set=(), residual_norm=0.0, lam=0.0)
        assert format_expression(fit, BASIS) == "dV/dt ≈ 0"

    def test_single_linear_term_pads_digits(self):
        fit = SparseFit(beta=np.array([2.0, 0.0, 0.0, 0.0]), active_set=(1,), residual_norm=0.0, lam=0.0)
        assert format_expression(fit, BASIS) == "dV/dt ≈ 2.00*V"

    def test_quadratic_term_rendering(self):
        fit = SparseFit(beta=np.array([0.0, 0.0, 0.0, -0.5]), active_set=(4,), residual_norm=0.0, lam=0.0)
        assert format_expression(fit, BASIS) == "dV/dt ≈ -0.500*V^2"

    def test_non_integer_capacity(self):
        basis = BasisSet(K=900.5)
        fit = SparseFit(beta=np.array([0.0, 1.0, 0.0, 0.0]), active_set=(2,), residual_norm=0.0, lam=0.0)
        assert "log(900.5/V)" in format_expression(fit, basis)
