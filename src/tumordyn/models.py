"""Dynamics model variants and their full-batch training loop.

Three right-hand sides over the normalized state v(tau):

  * Gompertz:   a * v * ln(K / v) with fixed parameters
  * Neural ODE: one tanh MLP mapping v (optionally [v, tau]) to dv/dtau
  * UDE:        nn1(v) * v * nn2(v), a Gompertz-shaped product whose rate
                and saturation factors are learned networks

Training minimizes the mean squared error between the RK4-solved
trajectory, interpolated at the collocation times, and the normalized
target volumes. Gradients are exact for the discrete solve: the float RK4
pass that computes the loss records every stage input; one batched network
pass over those inputs gives each stage's df/dv, a reverse sweep through
the RK4 stages (`odeint.rk4_adjoint`) gives each stage's cotangent, and
one batched vector-Jacobian product through the networks turns those into
d loss / d theta. Losses are reported on the normalized scale.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .neuralnet import (
    AdamState,
    GradientError,
    MLPArch,
    MLPParams,
    Xoshiro256StarStar,
    adam_update,
    init_params_from_stream,
    mlp_apply,
    mlp_batch,
    mlp_input_derivative,
    mlp_vjp,
    params_from_blob,
    params_to_blob,
    unpack_layers,
    value_and_grad,
)
from .odeint import (
    DivergenceError,
    GompertzParams,
    Trajectory,
    gompertz_rhs,
    rk4_adjoint,
    rk4_states,
    solve_fixed_grid,
)

__all__ = [
    "GompertzModel",
    "NeuralODEModel",
    "UDEModel",
    "DynamicsModel",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "DEFAULT_NEURAL_ODE_HIDDEN",
    "DEFAULT_UDE_HIDDEN",
    "DEFAULT_NEURAL_ODE_SCHEDULE",
    "DEFAULT_UDE_SCHEDULE",
    "variant_name",
    "rhs",
    "solve",
    "loss",
    "make_loss_fn",
    "model_theta",
    "model_with_theta",
    "init_model",
    "initial_state",
    "train",
    "save_model",
    "load_model",
    "write_report_csv",
]

DEFAULT_NEURAL_ODE_HIDDEN = (128, 128, 64, 64)
DEFAULT_UDE_HIDDEN = (10, 10)
DEFAULT_NEURAL_ODE_SCHEDULE = ((0.01, 500),)
DEFAULT_UDE_SCHEDULE = ((0.01, 1000), (0.005, 1000), (0.001, 500))

_STATE_FLOOR = 1e-12  # Gompertz solves floor the state here before the log

# The UDE rhs is proportional to v, so v = 0 is an invariant equilibrium:
# a solve started at or below zero can never reach positive targets. The
# sigmoid interpolant can undershoot the smallest measurement, putting the
# normalized initial value slightly below zero, so data-derived initial
# states are floored here.
_UDE_INITIAL_FLOOR = 1e-3


@dataclass(frozen=True)
class GompertzModel:
    params: GompertzParams


@dataclass(frozen=True)
class NeuralODEModel:
    mlp: MLPParams
    time_input: bool = False

    def __post_init__(self):
        expected = 2 if self.time_input else 1
        if self.mlp.arch.in_width != expected or self.mlp.arch.out_width != 1:
            raise ValueError(
                f"neural ODE network must map {expected} -> 1, got {self.mlp.arch.layer_widths}"
            )


@dataclass(frozen=True)
class UDEModel:
    nn1: MLPParams
    nn2: MLPParams
    time_input: bool = False

    def __post_init__(self):
        expected = 2 if self.time_input else 1
        for name, net in (("nn1", self.nn1), ("nn2", self.nn2)):
            if net.arch.in_width != expected or net.arch.out_width != 1:
                raise ValueError(
                    f"UDE {name} must map {expected} -> 1, got {net.arch.layer_widths}"
                )


DynamicsModel = Union[GompertzModel, NeuralODEModel, UDEModel]


def variant_name(model: DynamicsModel) -> str:
    if isinstance(model, GompertzModel):
        return "gompertz"
    if isinstance(model, NeuralODEModel):
        return "neural_ode"
    if isinstance(model, UDEModel):
        return "ude"
    raise TypeError(f"not a dynamics model: {model!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule plus the discretization knobs shared by a run.

    `schedule` is a sequence of (learning_rate, epochs) stages run back to
    back; Adam moments are reset at each stage boundary. `hidden` of None
    picks the variant default.
    """

    schedule: tuple[tuple[float, int], ...]
    seed: int = 123
    solver_steps: int = 100
    hidden: tuple[int, ...] | None = None
    time_input: bool = False

    def __post_init__(self):
        schedule = tuple((float(lr), int(ep)) for lr, ep in self.schedule)
        object.__setattr__(self, "schedule", schedule)
        if self.hidden is not None:
            object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if not schedule:
            raise ValueError("schedule must have at least one (learning_rate, epochs) stage")
        for lr, ep in schedule:
            if lr <= 0:
                raise ValueError(f"learning rates must be positive, got {lr}")
            if ep < 1:
                raise ValueError(f"every stage needs at least 1 epoch, got {ep}")
        if self.solver_steps < 1:
            raise ValueError(f"solver_steps must be >= 1, got {self.solver_steps}")

    @property
    def total_epochs(self) -> int:
        return sum(ep for _, ep in self.schedule)

    @classmethod
    def neural_ode_defaults(cls, **overrides) -> "TrainConfig":
        base = dict(schedule=DEFAULT_NEURAL_ODE_SCHEDULE, seed=123, hidden=DEFAULT_NEURAL_ODE_HIDDEN)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def ude_defaults(cls, **overrides) -> "TrainConfig":
        base = dict(schedule=DEFAULT_UDE_SCHEDULE, seed=123, hidden=DEFAULT_UDE_HIDDEN)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch loss trace; losses are normalized-scale MSE.

    loss_history[i] is the loss after update i+1, so final_loss is the loss
    of the last-epoch parameters while best_loss belongs to the parameters
    actually returned by train().
    """

    initial_loss: float
    final_loss: float
    best_loss: float
    best_epoch: int
    loss_history: tuple[float, ...]
    wall_time: float

    def __post_init__(self):
        object.__setattr__(self, "loss_history", tuple(self.loss_history))
        if self.loss_history and self.final_loss != self.loss_history[-1]:
            raise ValueError("final_loss must equal the last history entry")


class TrainingError(RuntimeError):
    """Raised on a non-finite loss; carries the history up to that point."""

    def __init__(self, message: str, history=(), initial_loss=None):
        self.history = tuple(history)
        self.initial_loss = initial_loss
        super().__init__(message)


# --- right-hand sides -------------------------------------------------


def _networks(model, theta=None):
    """Layer lists of the model's networks, from `theta` if given."""
    if isinstance(model, NeuralODEModel):
        net_theta = model.mlp.theta if theta is None else theta
        return [unpack_layers(model.mlp.arch, net_theta)]
    if theta is None:
        th1, th2 = model.nn1.theta, model.nn2.theta
    else:
        n1 = model.nn1.arch.n_params
        th1, th2 = theta[:n1], theta[n1:]
    return [unpack_layers(model.nn1.arch, th1), unpack_layers(model.nn2.arch, th2)]


def _make_rhs(model: DynamicsModel, theta=None, clamp_counter=None):
    """Build the float right-hand side f(t, v) of a model.

    When `theta` (a flat vector) is given it overrides the stored network
    parameters, which is how the training loss rebuilds the networks from
    the optimizer's current iterate. `clamp_counter`, a one-element list,
    enables the state floor for Gompertz solves and counts how often it
    fires.
    """
    if isinstance(model, GompertzModel):
        p = model.params

        def f(t, v):
            if clamp_counter is not None and v < _STATE_FLOOR:
                clamp_counter[0] += 1
                v = _STATE_FLOOR
            return gompertz_rhs(v, p)

        return f

    if isinstance(model, NeuralODEModel):
        (layers,) = _networks(model, theta)
        if model.time_input:
            return lambda t, v: float(mlp_apply(layers, np.array([v, t]))[0])
        return lambda t, v: float(mlp_apply(layers, np.array([v]))[0])

    if isinstance(model, UDEModel):
        layers1, layers2 = _networks(model, theta)
        time_input = model.time_input

        def f(t, v):
            x = np.array([v, t]) if time_input else np.array([v])
            return float(mlp_apply(layers1, x)[0]) * v * float(mlp_apply(layers2, x)[0])

        return f

    raise TypeError(f"not a dynamics model: {model!r}")


def _network_batch(model, nets, v: np.ndarray, tau: np.ndarray):
    """One `mlp_batch` pass per network over the points (v[i], tau[i])."""
    X = np.column_stack([v, tau]) if model.time_input else v[:, None]
    return [mlp_batch(layers, X) for layers in nets]


def rhs(model: DynamicsModel, v, tau=0.0):
    """dv/dtau at states v and times tau, scalars or arrays of one shape.

    Array inputs are evaluated in one batched network pass; scalar inputs
    give a float.
    """
    if isinstance(model, GompertzModel):
        if np.ndim(v) == 0:
            return gompertz_rhs(v, model.params)
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise ValueError(f"Gompertz rhs requires V > 0, got min V={v.min()}")
        return model.params.a * v * np.log(model.params.K / v)
    if not isinstance(model, (NeuralODEModel, UDEModel)):
        raise TypeError(f"not a dynamics model: {model!r}")
    v_arr, tau_arr = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(tau, dtype=float))
    flat_v = v_arr.ravel()
    outs = [y[:, 0] for y, _ in _network_batch(model, _networks(model), flat_v, tau_arr.ravel())]
    dv = outs[0] if isinstance(model, NeuralODEModel) else outs[0] * flat_v * outs[1]
    return float(dv[0]) if v_arr.ndim == 0 else dv.reshape(v_arr.shape)


def _rhs_linearization(model, nets, v: np.ndarray, tau: np.ndarray):
    """df/dv at each point (v[i], tau[i]), and the map from cotangents on
    the f values there to the flat gradient with respect to theta."""
    passes = _network_batch(model, nets, v, tau)
    if isinstance(model, NeuralODEModel):
        (layers,), ((_, acts),) = nets, passes
        jac = mlp_input_derivative(layers, acts)[:, 0]
        return jac, lambda c: mlp_vjp(layers, acts, c[:, None])
    # f = n1 * v * n2, so df/dv = n1' v n2 + n1 n2 + n1 v n2'
    (layers1, layers2), ((y1, acts1), (y2, acts2)) = nets, passes
    n1, n2 = y1[:, 0], y2[:, 0]
    d1 = mlp_input_derivative(layers1, acts1)[:, 0]
    d2 = mlp_input_derivative(layers2, acts2)[:, 0]
    jac = d1 * v * n2 + n1 * n2 + n1 * v * d2

    def vjp(c):
        return np.concatenate(
            [mlp_vjp(layers1, acts1, (c * v * n2)[:, None]), mlp_vjp(layers2, acts2, (c * n1 * v)[:, None])]
        )

    return jac, vjp


def initial_state(model: DynamicsModel, v0: float) -> float:
    """Variant-appropriate initial state for solves started from data.

    The Gompertz log and the UDE's v-proportional structure both make
    v = 0 untraversable, so initial values at or below zero are floored to
    a small positive state; the neural ODE takes v0 as given.
    """
    if isinstance(model, GompertzModel):
        return max(v0, _STATE_FLOOR)
    if isinstance(model, UDEModel):
        return max(v0, _UDE_INITIAL_FLOOR)
    return v0


def solve(model: DynamicsModel, v0: float, tau_span: tuple[float, float], steps: int) -> Trajectory:
    """RK4-solve the model; Gompertz solves floor the state before the log."""
    counter = [0] if isinstance(model, GompertzModel) else None
    f = _make_rhs(model, clamp_counter=counter)
    traj = solve_fixed_grid(f, initial_state(model, v0), tau_span[0], tau_span[1], steps)
    if counter is not None and counter[0]:
        traj = replace(traj, clamp_events=counter[0])
    return traj


# --- collocation loss --------------------------------------------------


@dataclass(frozen=True)
class _Collocation:
    """Checked collocation data and the RK4 grid that resolves it.

    Target j is compared with (1 - weights[j]) * state[index[j]] +
    weights[j] * state[index[j] + 1] of the solve on `times`.
    """

    times: np.ndarray
    h: float
    targets: list
    index: list
    weights: list


def _collocation(data, config: TrainConfig) -> _Collocation:
    taus = np.array([t for t, _ in data], dtype=float)
    values = np.array([v for _, v in data], dtype=float)
    if taus.size < 2:
        raise ValueError(f"need at least 2 collocation points, got {taus.size}")
    if not np.all(np.diff(taus) > 0):
        raise ValueError("collocation points must be sorted by strictly increasing tau")
    if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(values))):
        raise ValueError("collocation data must be finite")
    n_steps = config.solver_steps
    t0, t1 = taus[0], taus[-1]
    times = np.linspace(t0, t1, n_steps + 1)
    idx = np.clip(np.searchsorted(times, taus, side="right") - 1, 0, n_steps - 1)
    weights = [float((tau - times[j]) / (times[j + 1] - times[j])) for j, tau in zip(idx, taus)]
    return _Collocation(times, float((t1 - t0) / n_steps), values.tolist(), idx.tolist(), weights)


def _collocation_loss(model: DynamicsModel, theta, grid: _Collocation, stages=None):
    """(loss, residuals) of the float RK4 solve against the targets.

    Raises DivergenceError exactly like the standalone solver. `stages`
    collects the solve's stage inputs (see `odeint.rk4_step`).
    """
    f = _make_rhs(model, theta, clamp_counter=[0])
    states = rk4_states(f, initial_state(model, grid.targets[0]), grid.times, grid.h, stages)
    residuals = [
        (1.0 - w) * states[j] + w * states[j + 1] - target
        for j, w, target in zip(grid.index, grid.weights, grid.targets)
    ]
    return sum(d * d for d in residuals) * (1.0 / len(residuals)), residuals


class _CollocationLoss:
    """The collocation loss as a function of the flat parameter vector.

    Calling it gives the loss; `value_and_grad` also gives its exact
    gradient by the discrete adjoint described in the module docstring.
    """

    def __init__(self, model: DynamicsModel, grid: _Collocation):
        self.model = model
        self.grid = grid

    def __call__(self, theta: np.ndarray) -> float:
        return _collocation_loss(self.model, theta, self.grid)[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        grid = self.grid
        stages: list = []
        value, residuals = _collocation_loss(self.model, theta, grid, stages)
        g = (2.0 / len(residuals)) * np.array(residuals)
        w = np.array(grid.weights)
        state_bar = np.zeros(len(grid.times))
        np.add.at(state_bar, grid.index, (1.0 - w) * g)
        np.add.at(state_bar, np.array(grid.index) + 1, w * g)
        stage_t, stage_v = np.array(stages).T
        jac, vjp = _rhs_linearization(self.model, _networks(self.model, theta), stage_v, stage_t)
        return value, vjp(rk4_adjoint(state_bar, jac, grid.h))


def make_loss_fn(model: DynamicsModel, data, config: TrainConfig) -> _CollocationLoss:
    """Loss as a function of the flat parameter vector, with its gradient
    available through `neuralnet.value_and_grad`."""
    if isinstance(model, GompertzModel):
        raise ValueError("the Gompertz variant has no trainable parameters")
    return _CollocationLoss(model, _collocation(data, config))


def loss(model: DynamicsModel, data, config: TrainConfig) -> float:
    """Normalized MSE of the model's solved trajectory against `data`."""
    return _collocation_loss(model, None, _collocation(data, config))[0]


# --- parameter vector helpers ------------------------------------------


def model_theta(model: DynamicsModel) -> np.ndarray:
    if isinstance(model, NeuralODEModel):
        return model.mlp.theta.copy()
    if isinstance(model, UDEModel):
        return np.concatenate([model.nn1.theta, model.nn2.theta])
    raise ValueError(f"{variant_name(model)} has no trainable parameter vector")


def model_with_theta(model: DynamicsModel, theta: np.ndarray) -> DynamicsModel:
    if isinstance(model, NeuralODEModel):
        return NeuralODEModel(MLPParams(model.mlp.arch, theta), model.time_input)
    if isinstance(model, UDEModel):
        n1 = model.nn1.arch.n_params
        return UDEModel(
            MLPParams(model.nn1.arch, theta[:n1]),
            MLPParams(model.nn2.arch, theta[n1:]),
            model.time_input,
        )
    raise ValueError(f"{variant_name(model)} has no trainable parameter vector")


def init_model(variant: str, config: TrainConfig) -> DynamicsModel:
    """Seeded Glorot initialization; UDE networks share one xoshiro stream."""
    rng = Xoshiro256StarStar(config.seed)
    in_width = 2 if config.time_input else 1
    if variant == "neural_ode":
        hidden = config.hidden if config.hidden is not None else DEFAULT_NEURAL_ODE_HIDDEN
        arch = MLPArch((in_width, *hidden, 1))
        return NeuralODEModel(init_params_from_stream(arch, rng), config.time_input)
    if variant == "ude":
        hidden = config.hidden if config.hidden is not None else DEFAULT_UDE_HIDDEN
        arch = MLPArch((in_width, *hidden, 1))
        nn1 = init_params_from_stream(arch, rng)
        nn2 = init_params_from_stream(arch, rng)
        return UDEModel(nn1, nn2, config.time_input)
    raise ValueError(f"unknown trainable variant {variant!r} (expected 'neural_ode' or 'ude')")


def train(variant: str, data, config: TrainConfig) -> tuple[DynamicsModel, TrainReport]:
    """Full-batch Adam over the schedule; returns the best parameters seen.

    The loss history has one entry per epoch: the loss of the parameters
    produced by that epoch's update. Raises TrainingError if the loss turns
    non-finite at any point.
    """
    template = init_model(variant, config)
    theta = model_theta(template)
    loss_fn = make_loss_fn(template, data, config)

    history: list[float] = []
    initial_loss = None
    best_loss = np.inf
    best_theta = theta
    best_epoch = 0
    eval_index = 0
    start = time.perf_counter()

    for lr, epochs in config.schedule:
        state = AdamState.fresh(theta.size, lr)
        for _ in range(epochs):
            try:
                current, g = value_and_grad(loss_fn, theta)
            except (GradientError, DivergenceError) as exc:
                raise TrainingError(
                    f"{variant} training failed at epoch {eval_index}: {exc}",
                    history=history,
                    initial_loss=initial_loss,
                ) from exc
            if initial_loss is None:
                initial_loss = current
            else:
                history.append(current)
            if current < best_loss:
                best_loss, best_theta, best_epoch = current, theta, eval_index
            eval_index += 1
            theta, state = adam_update(theta, g, state)

    try:
        final = loss_fn(theta)
    except DivergenceError:
        final = math.nan
    if not math.isfinite(final):
        raise TrainingError(
            f"{variant} training produced a non-finite final loss",
            history=history,
            initial_loss=initial_loss,
        )
    history.append(final)
    if final < best_loss:
        best_loss, best_theta, best_epoch = final, theta, eval_index

    report = TrainReport(
        initial_loss=initial_loss,
        final_loss=history[-1],
        best_loss=best_loss,
        best_epoch=best_epoch,
        loss_history=tuple(history),
        wall_time=time.perf_counter() - start,
    )
    return model_with_theta(template, best_theta), report


# --- checkpoints --------------------------------------------------------


def save_model(model: DynamicsModel, path, seed=None) -> None:
    """Write a bit-exact JSON checkpoint (floats stored as float.hex)."""
    blob: dict = {"format": "tumordyn-model-v1", "variant": variant_name(model)}
    if isinstance(model, GompertzModel):
        blob["a"] = float(model.params.a).hex()
        blob["K"] = float(model.params.K).hex()
    else:
        blob["time_input"] = model.time_input
        if isinstance(model, NeuralODEModel):
            blob["networks"] = [params_to_blob(model.mlp, seed)]
        else:
            blob["networks"] = [params_to_blob(model.nn1, seed), params_to_blob(model.nn2, seed)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, allow_nan=False)


def load_model(path) -> DynamicsModel:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if blob.get("format") != "tumordyn-model-v1":
        raise ValueError(f"unrecognized checkpoint format: {blob.get('format')!r}")
    variant = blob["variant"]
    if variant == "gompertz":
        return GompertzModel(GompertzParams(float.fromhex(blob["a"]), float.fromhex(blob["K"])))
    nets = [params_from_blob(b) for b in blob["networks"]]
    if variant == "neural_ode":
        return NeuralODEModel(nets[0], blob.get("time_input", False))
    if variant == "ude":
        return UDEModel(nets[0], nets[1], blob.get("time_input", False))
    raise ValueError(f"unknown variant {variant!r} in checkpoint")


def write_report_csv(report: TrainReport, path) -> None:
    """Epoch/loss trace; epoch 0 is the loss before any update."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        writer.writerow([0, repr(report.initial_loss)])
        for i, value in enumerate(report.loss_history, start=1):
            writer.writerow([i, repr(value)])
