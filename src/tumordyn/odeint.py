"""Fixed-step explicit ODE integration for scalar dynamics.

One RK4 kernel (`rk4_states`) serves every solve: the standalone solver
and the training loss both step through it, and it can record the input of
every stage so `rk4_adjoint` can later sweep back through the same discrete
steps. That sweep is exact for the discrete solve
("discretise-then-optimise"), not an approximation of a continuous adjoint.
The kernel steps either one float state or a vector of independent member
states at once, each member on its own grid; every member's states are
bitwise those of its own float solve, because the RK4 arithmetic is
elementwise.

The Gompertz growth law and its closed-form solution live here too: the
exact solution is the oracle every solver test is measured against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GompertzParams",
    "Trajectory",
    "DivergenceError",
    "gompertz_rhs",
    "gompertz_exact",
    "rk4_step",
    "rk4_states",
    "rk4_adjoint",
    "solve_fixed_grid",
    "integrate_rk4",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class GompertzParams:
    """Gompertz growth law dV/dt = a * V * ln(K / V).

    a is the intrinsic growth rate (1 / time unit of the integration
    variable), K the carrying capacity in the units of the state. Both are
    interpreted in whatever unit system the state is solved in.
    """

    a: float
    K: float

    def __post_init__(self):
        if not (self.a > 0 and self.K > 0):
            raise ValueError(f"Gompertz parameters must be positive, got a={self.a}, K={self.K}")


@dataclass(frozen=True)
class Trajectory:
    """Solution nodes of one integration; immutable after construction."""

    times: np.ndarray
    states: np.ndarray
    clamp_events: int = 0  # times the state had to be floored before a log

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.times.shape != self.states.shape:
            raise ValueError("times and states must have equal length")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


class DivergenceError(ArithmeticError):
    """Raised when the integrated state turns non-finite.

    In a member solve (see `rk4_states`), `member` is the index of the
    member whose state turned non-finite and `t` is that member's time; it
    is None for a float solve. The message is the same either way.
    """

    def __init__(self, step: int, t: float, member: int | None = None):
        self.step = step
        self.t = t
        self.member = member
        super().__init__(f"non-finite state at step {step} (t={t:g})")


def gompertz_rhs(V: float, p: GompertzParams) -> float:
    """a * V * ln(K / V); requires V > 0."""
    if V <= 0:
        raise ValueError(f"Gompertz rhs requires V > 0, got V={V}")
    return p.a * V * math.log(p.K / V)


def gompertz_exact(t, V0: float, p: GompertzParams):
    """Closed-form solution K * exp(ln(V0/K) * exp(-a t)); vectorized in t."""
    if V0 <= 0:
        raise ValueError(f"initial state must be positive, got V0={V0}")
    return p.K * np.exp(np.log(V0 / p.K) * np.exp(-p.a * np.asarray(t, dtype=float)))


def rk4_step(f, t, y, h, stages=None):
    """One classical 4th-order Runge-Kutta step for dy/dt = f(t, y).

    If `stages` is a list, the (time, state) input of each of the four
    stages is appended to it, in stage order.
    """
    half = 0.5 * h
    t_mid = t + half
    k1 = f(t, y)
    y2 = y + half * k1
    k2 = f(t_mid, y2)
    y3 = y + half * k2
    k3 = f(t_mid, y3)
    y4 = y + h * k3
    k4 = f(t + h, y4)
    if stages is not None:
        stages.extend(((t, y), (t_mid, y2), (t_mid, y3), (t + h, y4)))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_states(f, v0, times, h, stages=None) -> list:
    """States at `times` (uniformly spaced by h) of dv/dt = f(t, v) from v0.

    A float v0 gives one solve and a list of float states. A (B,) array v0
    gives B member solves stepped together: member b starts at v0[b] and
    steps by h[b] along column b of `times` (n + 1, B), f maps (B,) times
    and states to (B,) values, and each state is a (B,) array whose entry b
    is bitwise what member b's own float solve gives.

    Raises DivergenceError at the first non-finite state; in a member solve
    it names the lowest-numbered member that turned non-finite at that step.
    `stages` is passed on to `rk4_step`, so it collects 4 (time, state)
    pairs per step.
    """
    times = np.asarray(times, dtype=float)
    scalar = np.ndim(v0) == 0
    rows = times.tolist() if scalar else list(times)
    v = float(v0) if scalar else np.asarray(v0, dtype=float)
    states = [v]
    for i in range(len(rows) - 1):
        v = rk4_step(f, rows[i], v, h, stages)
        if scalar:
            if not math.isfinite(v):
                raise DivergenceError(step=i + 1, t=rows[i + 1])
        elif not np.isfinite(v).all():
            member = int(np.argmin(np.isfinite(v)))
            raise DivergenceError(step=i + 1, t=float(rows[i + 1][member]), member=member)
        states.append(v)
    return states


def rk4_adjoint(state_cotangents, stage_jacobians, h: float) -> np.ndarray:
    """Reverse sweep through a scalar RK4 solve recorded by `rk4_states`.

    state_cotangents[i] is the direct derivative of a scalar loss with
    respect to state i (n + 1 entries); stage_jacobians holds df/dy at each
    of the 4 n recorded stage inputs. Returns the derivative of the loss
    with respect to each stage's value f, in the same order, so the
    gradient with respect to any parameter of f is the sum over stages of
    this cotangent times df/dparameter.
    """
    a_bar = np.asarray(state_cotangents, dtype=float).tolist()
    jac = np.asarray(stage_jacobians, dtype=float).tolist()
    n = len(a_bar) - 1
    if len(jac) != 4 * n:
        raise ValueError(f"{n} steps need {4 * n} stage Jacobians, got {len(jac)}")
    out = [0.0] * (4 * n)
    w1, w2, half = h / 6.0, h / 3.0, 0.5 * h
    # step i maps y to y + h/6 (k1 + 2 k2 + 2 k3 + k4) with k_s = f(y_s),
    # y_1 = y, y_2 = y + h/2 k1, y_3 = y + h/2 k2, y_4 = y + h k3; `a` is
    # the total cotangent of the step's output state
    a = a_bar[n]
    for i in range(n - 1, -1, -1):
        j1, j2, j3, j4 = jac[4 * i : 4 * i + 4]
        k4_bar = w1 * a
        y4_bar = k4_bar * j4
        k3_bar = w2 * a + h * y4_bar
        y3_bar = k3_bar * j3
        k2_bar = w2 * a + half * y3_bar
        y2_bar = k2_bar * j2
        k1_bar = w1 * a + half * y2_bar
        out[4 * i : 4 * i + 4] = (k1_bar, k2_bar, k3_bar, k4_bar)
        a = a_bar[i] + a + k1_bar * j1 + y2_bar + y3_bar + y4_bar
    return np.array(out)


def solve_fixed_grid(f, v0: float, t0: float, t1: float, n_steps: int) -> Trajectory:
    """Integrate dv/dt = f(t, v) over [t0, t1] with n_steps RK4 steps."""
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n_steps = int(n_steps)
    times = np.linspace(t0, t1, n_steps + 1)
    return Trajectory(times, rk4_states(f, v0, times, (t1 - t0) / n_steps))


def integrate_rk4(rhs, V0: float, t0: float, t1: float, n_steps: int) -> Trajectory:
    """Fixed-step RK4 for an autonomous scalar field dV/dt = rhs(V)."""
    return solve_fixed_grid(lambda t, v: rhs(v), V0, t0, t1, n_steps)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "state"])
        for t, s in zip(trajectory.times, trajectory.states):
            writer.writerow([repr(float(t)), repr(float(s))])
