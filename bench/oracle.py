"""Reference numerics written apart from tumordyn, and the output checks.

Nothing here imports the package: the MLP, the RK4 solve, the collocation
loss, the closed-form Gompertz solution and the logistic least-squares fit
are re-derived from the documented formats and equations, so a check fails
when the program's result differs from an independent computation rather
than from a stored copy of an earlier run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

UDE_INITIAL_FLOOR = 1e-3  # documented floor of the UDE initial state


class CheckError(AssertionError):
    """An output disagrees with its independent recomputation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# --- files --------------------------------------------------------------


def _reject_constant(name: str):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    """Parse a JSON file, refusing NaN and +-Infinity."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except CheckError as exc:
        raise CheckError(f"{path}: {exc}") from None


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- networks in the tumordyn-mlp-v1 layout ----------------------------


def unpack(widths, theta):
    """(W, b) per layer; weights row-major (fan_out, fan_in), then bias."""
    layers, offset = [], 0
    for fi, fo in zip(widths[:-1], widths[1:]):
        W = np.asarray(theta[offset : offset + fo * fi], dtype=float).reshape(fo, fi)
        offset += fo * fi
        b = np.asarray(theta[offset : offset + fo], dtype=float)
        offset += fo
        layers.append((W, b))
    if offset != len(theta):
        raise CheckError(f"theta has {len(theta)} entries, widths {widths} need {offset}")
    return layers


def mlp(layers, x: np.ndarray) -> np.ndarray:
    """Scalar-input tanh MLP evaluated on a batch of inputs, shape (n,)."""
    h = np.asarray(x, dtype=float).reshape(1, -1)
    for i, (W, b) in enumerate(layers):
        h = W @ h + b[:, None]
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h[0]


def load_checkpoint(path: Path) -> dict:
    """Decode a tumordyn-model-v1 file into {'variant', 'nets': [(widths, theta)]}."""
    blob = strict_json(path)
    require(blob.get("format") == "tumordyn-model-v1", f"{path}: format {blob.get('format')!r}")
    require(not blob.get("time_input", False), f"{path}: time_input models are not benchmarked")
    nets = []
    for net in blob["networks"]:
        require(net.get("format") == "tumordyn-mlp-v1", f"{path}: network format {net.get('format')!r}")
        nets.append((tuple(net["layer_widths"]), np.array([float.fromhex(h) for h in net["theta_hex"]])))
    return {"variant": blob["variant"], "nets": nets}


def rhs_fn(variant: str, nets):
    """Float right-hand side dv/dtau of a neural ODE or UDE checkpoint."""
    layers = [unpack(w, th) for w, th in nets]
    if variant == "neural_ode":
        (net,) = layers
        return lambda v: float(mlp(net, np.array([v]))[0])
    if variant == "ude":
        n1, n2 = layers
        return lambda v: float(mlp(n1, np.array([v]))[0]) * v * float(mlp(n2, np.array([v]))[0])
    raise CheckError(f"unexpected variant {variant!r}")


def initial_state(variant: str, v0: float) -> float:
    return max(v0, UDE_INITIAL_FLOOR) if variant == "ude" else v0


def rk4(f, v0: float, t0: float, t1: float, steps: int):
    """Classical fixed-step RK4 for an autonomous scalar ODE; (times, states)."""
    h = (t1 - t0) / steps
    states = np.empty(steps + 1)
    v = states[0] = v0
    for i in range(steps):
        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(v):
            raise CheckError(f"reference solve diverged at step {i + 1}")
        states[i + 1] = v
    return np.linspace(t0, t1, steps + 1), states


def collocation_loss(variant: str, nets, taus, values, steps: int) -> float:
    """Normalized MSE of the solved trajectory at the collocation points."""
    f = rhs_fn(variant, nets)
    times, states = rk4(f, initial_state(variant, float(values[0])), float(taus[0]), float(taus[-1]), steps)
    return float(np.mean((np.interp(taus, times, states) - values) ** 2))


# --- growth laws --------------------------------------------------------


def gompertz_exact(t, V0: float, a: float, K: float, t0: float):
    return K * np.exp(np.log(V0 / K) * np.exp(-a * (np.asarray(t, dtype=float) - t0)))


def basis(V, K: float) -> np.ndarray:
    """phi1..phi4 = V, V ln(K/V), V (1 - V/K), V^2, one row per state."""
    V = np.asarray(V, dtype=float)
    return np.column_stack([V, V * np.log(K / V), V * (1.0 - V / K), V * V])


def lasso_slack(Phi, y, beta) -> float:
    """Distance the documented L1 fit keeps from least squares on its support.

    The recovery minimizes ||Phi b - y||^2 + lam sum_j w_j |b_j| with
    column norms w and the documented default lam = 1e-3 ||(Phi/w)^T y||_inf
    / n. On its active set A the optimality condition
    Phi_A^T (y - Phi b) = (lam / 2) w_A sign(b_A) places the fit
    (lam / 2) Phi_A (Phi_A^T Phi_A)^-1 w_A sign(b_A) away from least squares
    on A. Terms outside A are taken to be exact zeros of the L1 fit.
    """
    w = np.linalg.norm(Phi, axis=0)
    lam = 1e-3 * float(np.max(np.abs((Phi / w).T @ y))) / len(y)
    active = np.nonzero(beta)[0]
    PA = Phi[:, active]
    shift = PA @ np.linalg.solve(PA.T @ PA, 0.5 * lam * w[active] * np.sign(beta[active]))
    return float(np.linalg.norm(shift))


# --- logistic interpolant ------------------------------------------------


def expit(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def logistic(p, tau):
    A, B, k, tau0 = p
    return A + B * expit(k * (np.asarray(tau, dtype=float) - tau0))


def fit_logistic(tau, V, iters: int = 500):
    """Least-squares A + B / (1 + exp(-k (tau - tau0))) by damped Gauss-Newton.

    Started where the documented method starts (A = min V, B = range V,
    k = 10, tau0 = 0.5) and run until no damped step lowers the SSE.
    """
    tau = np.asarray(tau, dtype=float)
    V = np.asarray(V, dtype=float)
    p = np.array([V.min(), V.max() - V.min(), 10.0, 0.5])

    def resid_jac(p):
        A, B, k, t0 = p
        s = expit(k * (tau - t0))
        ds = s * (1.0 - s)
        return A + B * s - V, np.column_stack([np.ones_like(tau), s, B * ds * (tau - t0), -B * ds * k])

    r, J = resid_jac(p)
    sse = float(r @ r)
    mu = 1e-3
    for _ in range(iters):
        JTJ, g = J.T @ J, J.T @ r
        D = np.diag(np.maximum(np.diag(JTJ), 1e-30))
        while mu <= 1e12:
            try:
                step = np.linalg.solve(JTJ + mu * D, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            r_new, J_new = resid_jac(p + step)
            sse_new = float(r_new @ r_new)
            if sse_new < sse:
                p, r, J, sse = p + step, r_new, J_new, sse_new
                mu = max(mu / 10.0, 1e-12)
                break
            mu *= 10.0
        else:
            break
    A, B, k, t0 = p
    if B < 0 and k < 0:
        A, B, k = A + B, -B, -k
    return np.array([A, B, k, t0]), sse
