"""Fixed-step explicit ODE integration for scalar dynamics.

Every growth law here is autonomous, dv/dt = f(v). One function,
`rk4_states`, holds the RK4 step and serves every solve: the standalone
solver and the training loss both step through it, and it can record
every stage's input state so `rk4_adjoint` can later sweep back through
the same discrete steps. That sweep is exact for the discrete solve
("discretise-then-optimise"), not an approximation of a continuous adjoint.
The kernel steps either one float state or a vector of independent member
states at once, all on one grid; every member's states are bitwise those
of its own float solve, because the RK4 arithmetic is elementwise.

The Gompertz growth law and its closed-form solution live here too: the
exact solution is the oracle every solver test is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neuralnet import as_int, as_positive

__all__ = [
    "GompertzParams",
    "Trajectory",
    "DivergenceError",
    "gompertz_rhs",
    "gompertz_exact",
    "rk4_states",
    "rk4_adjoint",
    "solve_fixed_grid",
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
        object.__setattr__(self, "a", as_positive(self.a, "Gompertz a"))
        object.__setattr__(self, "K", as_positive(self.K, "Gompertz K"))


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


class DivergenceError(ArithmeticError):
    """Raised when the integrated state turns non-finite.

    `t` is the grid's time at that step. In a member solve (see
    `rk4_states`), `member` is the index of the member whose state turned
    non-finite; it is None for a float solve. The message is the same
    either way.
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


def rk4_states(f, v0, times, h, stages=None) -> list:
    """Classical RK4 states at `times` (spaced by h) of dv/dt = f(v) from v0.

    A float v0 gives one solve and a list of float states. A (B,) array v0
    gives B member solves stepped together on the same `times`: member b
    starts at v0[b], f maps (B,) states to (B,) values, and each state is a
    (B,) array whose entry b is bitwise what member b's own float solve
    gives.

    Raises DivergenceError, with its time from `times`, at the first
    non-finite state; in a member solve it names the lowest-numbered member
    that turned non-finite at that step. If `stages` is a list, each step
    appends the input states of its four stages to it, in stage order.
    """
    times = np.asarray(times, dtype=float)
    scalar = np.ndim(v0) == 0
    v = float(v0) if scalar else np.asarray(v0, dtype=float)
    half = 0.5 * h
    states = [v]
    for i in range(1, len(times)):
        k1 = f(v)
        v2 = v + half * k1
        k2 = f(v2)
        v3 = v + half * k2
        k3 = f(v3)
        v4 = v + h * k3
        k4 = f(v4)
        if stages is not None:
            stages.extend((v, v2, v3, v4))
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (math.isfinite(v) if scalar else np.isfinite(v).all()):
            member = None if scalar else int(np.argmin(np.isfinite(v)))
            raise DivergenceError(step=i, t=float(times[i]), member=member)
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
    """Integrate dv/dt = f(v) over [t0, t1] with n_steps RK4 steps."""
    n_steps = as_int(n_steps, "n_steps")
    if n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    times = np.linspace(t0, t1, n_steps + 1)
    return Trajectory(times, rk4_states(f, v0, times, (t1 - t0) / n_steps))
