"""Sparse recovery of closed-form dynamics from a trained model.

The learned derivative is sampled along the solved trajectory, mapped back
to physical units with the affine chain rule, and regressed onto four
growth-law basis functions

    phi1(V) = V            phi2(V) = V * ln(K / V)
    phi3(V) = V * (1 - V/K)   phi4(V) = V^2

with an L1 penalty, solved exactly over internally rescaled columns. Note
phi3 = phi1 - phi4 / K exactly, so the design matrix has rank 3 and the
penalty (not least squares alone) is what selects among aliased supports.
Basis indices are 1-based throughout, matching the phi numbering.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import NormalizationMap
from .models import DynamicsModel, TrainConfig, rhs, solve
from .neuralnet import as_int, as_positive

__all__ = [
    "BasisSet",
    "SparseFit",
    "sample_physical_derivatives",
    "build_design_matrix",
    "sparse_regress",
    "format_expression",
]


@dataclass(frozen=True)
class BasisSet:
    """The four candidate growth terms, tied to one carrying capacity K."""

    K: float

    def __post_init__(self):
        object.__setattr__(self, "K", as_positive(self.K, "carrying capacity K"))

    def evaluate(self, V: np.ndarray) -> np.ndarray:
        """Rows of the design matrix; requires V > 0 for the log term."""
        V = np.asarray(V, dtype=float)
        if np.any(V <= 0):
            raise ValueError(f"basis evaluation requires V > 0, got min {V.min()}")
        return np.column_stack([V, V * np.log(self.K / V), V * (1.0 - V / self.K), V * V])

    def term_strings(self) -> list[str]:
        K = self.K
        k_str = str(int(K)) if float(K).is_integer() else repr(float(K))
        return ["V", f"V*log({k_str}/V)", f"V*(1 - V/{k_str})", "V^2"]


@dataclass(frozen=True)
class SparseFit:
    """L1-regularized coefficients; inactive entries are exactly zero.

    active_set holds 1-based basis indices (phi1..phi4) whose coefficient
    survived thresholding.
    """

    beta: np.ndarray
    active_set: tuple[int, ...]
    residual_norm: float
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "active_set", tuple(int(i) for i in self.active_set))


def sample_physical_derivatives(
    model: DynamicsModel,
    norm_map: NormalizationMap,
    n: int,
    v0: float,
    *,
    solver_steps: int = TrainConfig.solver_steps,
) -> list[tuple[float, float]]:
    """(V mm^3, dV/dt mm^3/day) pairs along the model's solved trajectory.

    The model is solved over the normalized span from v0; at n uniform tau
    points the state (interpolated linearly between solution nodes) and its
    model derivative, all n in one batched evaluation, are denormalized
    with dV/dt = (v_scale / t_scale) * dv/dtau and V = v_min + v * v_scale.
    """
    n = as_int(n, "n")
    if n < 10:
        raise ValueError(f"need at least 10 samples for a stable regression, got {n}")
    solver_steps = as_int(solver_steps, "solver_steps")
    if solver_steps < 1:
        raise ValueError(f"solver_steps must be >= 1, got {solver_steps}")
    trajectory = solve(model, v0, (0.0, 1.0), solver_steps)
    taus = np.linspace(0.0, 1.0, n)
    v = np.interp(taus, trajectory.times, trajectory.states)
    dv = rhs(model, v)
    scale = norm_map.v_scale / norm_map.t_scale
    return list(zip(norm_map.denormalize_v(v).tolist(), (scale * dv).tolist()))


def build_design_matrix(samples, basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack basis rows Phi[i, j] = phi_j(V_i) and targets y[i] = (dV/dt)_i."""
    V = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    return basis.evaluate(V), y


def default_lambda(Phi: np.ndarray, y: np.ndarray) -> float:
    """1e-3 * ||Phi_scaled^T y||_inf / n with unit-norm columns."""
    norms = np.linalg.norm(Phi, axis=0)
    norms[norms == 0] = 1.0
    return 1e-3 * float(np.max(np.abs((Phi / norms).T @ y))) / Phi.shape[0]


@functools.cache
def _sign_patterns(k: int) -> np.ndarray:
    """Every sign vector of length k, (2^k, k), +1 before -1 in each place;
    read-only, so every call shares one array."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    signs.flags.writeable = False
    return signs


def sparse_regress(
    Phi: np.ndarray,
    y: np.ndarray,
    lam: float | None = None,
    *,
    threshold_rel: float = 1e-3,
) -> SparseFit:
    """Minimize ||X c - y||^2 + lam * ||c||_1 exactly, X being Phi with
    unit-norm columns and c the coefficients in those units.

    The targets are also rescaled to unit magnitude internally (lam with
    them), then the solution is mapped back; coefficients below
    threshold_rel of the largest are zeroed exactly. lam of None picks
    `default_lambda`.

    The lasso is solved by enumeration: for every support S of linearly
    independent columns and every sign vector s on it, the stationarity
    condition gives c_S = (X_S^T X_S)^-1 (X_S^T y - (lam/2) s), which is
    kept only if sign(c_S) = s. Some lasso solution has independent active
    columns (Tibshirani, arXiv 1206.0313), so the least objective over
    these candidates and c = 0 is the optimum. Ties, which the aliased
    basis allows (see the module docstring), go to the fewest terms, then
    the lowest indices. With lam = 0 the result is the least-squares
    solution of minimum norm in the rescaled coordinates.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = Phi.shape
    if n < p:
        raise ValueError(f"need at least {p} samples, got {n}")
    if not np.all(np.isfinite(Phi)) or not np.all(np.isfinite(y)):
        raise ValueError("design matrix and targets must be finite")
    if lam is None:
        lam = default_lambda(Phi, y)
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")

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
            if sv[-1] <= sv[0] * n * np.finfo(float).eps:  # dependent columns
                continue
            signs = _sign_patterns(len(S))
            # (X_S^T X_S)^-1 (X_S^T y - (lam/2) s) through the SVD, whose
            # error grows with the condition of X_S, not of its Gram matrix
            coords = ((U.T @ ys) / sv)[:, None] - 0.5 * lam_s * (Vt @ signs.T) / sv[:, None] ** 2
            candidates = (Vt.T @ coords).T  # row j solves for sign vector signs[j]
            for j in np.flatnonzero((np.sign(candidates) == signs).all(axis=1)):
                bS = candidates[j]
                r = XS @ bS - ys
                objective = float(r @ r) + lam_s * float(np.sum(np.abs(bS)))
                if objective < best:
                    best, b = objective, np.zeros(p)
                    b[list(S)] = bS

    beta = b * y_scale / norms
    peak = np.max(np.abs(beta))
    if peak > 0:
        beta[np.abs(beta) < threshold_rel * peak] = 0.0
    active = tuple(int(i) + 1 for i in np.nonzero(beta)[0])
    residual = float(np.linalg.norm(Phi @ beta - y))
    return SparseFit(beta=beta, active_set=active, residual_norm=residual, lam=float(lam))


def _significant(x: float) -> str:
    """Positional rendering of |x| at 3 significant figures, keeping
    trailing zeros (2 -> '2.00'); the decimals follow the rounded value
    (9.996 -> '10.0')."""
    if x == 0:
        return "0.00"
    rounded = float(f"{abs(x):.3g}")
    return f"{rounded:.{max(2 - math.floor(math.log10(rounded)), 0)}f}"


def format_expression(fit: SparseFit, basis: BasisSet) -> str:
    """Render the active terms as `dV/dt ≈ ...` in basis order, at 3 significant figures."""
    terms = basis.term_strings()
    parts = []
    for i in fit.active_set:
        c = fit.beta[i - 1]
        c_str = _significant(c)
        if not parts:
            parts.append(("-" if c < 0 else "") + f"{c_str}*{terms[i - 1]}")
        else:
            parts.append(("- " if c < 0 else "+ ") + f"{c_str}*{terms[i - 1]}")
    if not parts:
        return "dV/dt ≈ 0"
    return "dV/dt ≈ " + " ".join(parts)
