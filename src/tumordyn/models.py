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

Fits of one variant and config on several datasets train as one batch
(`train_batch`): every evaluation solves all members' losses in one member
RK4 solve, with each stage's networks evaluated as one stack; the reverse
sweeps and Adam steps stay per member. Each member's results are bitwise
those of its own `train`, which is the batch of one.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .neuralnet import (
    AdamState,
    GradientError,
    MLPArch,
    MLPParams,
    Xoshiro256StarStar,
    adam_update,
    floats_from_hex,
    init_params_from_stream,
    mlp_apply,
    mlp_batch,
    mlp_input_derivative,
    mlp_vjp,
    params_from_blob,
    params_to_blob,
    stack_layers,
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
    "train_batch",
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
        if self.nn1.arch != self.nn2.arch:
            raise ValueError(
                "UDE networks must share one architecture, got "
                f"{self.nn1.arch.layer_widths} and {self.nn2.arch.layer_widths}"
            )


DynamicsModel = GompertzModel | NeuralODEModel | UDEModel


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
    """Build the right-hand side f(t, v) of a model.

    When `theta` is given it overrides the stored network parameters, which
    is how the training loss rebuilds the networks from the optimizer's
    iterates. A flat vector gives a float f(t, v). A stack of B vectors
    (B, n_params) gives the right-hand sides of B members at once, mapping
    (B,) times and states to (B,) values, each bitwise what the member's
    own float f gives. `clamp_counter`, a one-element list, enables the
    state floor for Gompertz solves and counts how often it fires.
    """
    if isinstance(model, GompertzModel):
        p = model.params

        def f(t, v):
            if clamp_counter is not None and v < _STATE_FLOOR:
                clamp_counter[0] += 1
                v = _STATE_FLOOR
            return gompertz_rhs(v, p)

        return f

    if not isinstance(model, (NeuralODEModel, UDEModel)):
        raise TypeError(f"not a dynamics model: {model!r}")
    thetas = model_theta(model) if theta is None else theta
    lead = thetas.shape[:-1]
    # the networks of a model share one architecture, so they run as one stack
    n_nets = 1 if isinstance(model, NeuralODEModel) else 2
    arch = model.mlp.arch if n_nets == 1 else model.nn1.arch
    layers = stack_layers(arch, thetas.reshape(*lead, n_nets, arch.n_params))
    x = np.zeros((*lead, 1, arch.in_width, 1))
    time_input = model.time_input

    def f(t, v):
        x[..., 0, 0, 0] = v
        if time_input:
            x[..., 0, 1, 0] = t
        y = mlp_apply(layers, x)[..., 0, 0]
        return y[..., 0] if n_nets == 1 else y[..., 0] * v * y[..., 1]

    if lead:
        return f
    return lambda t, v: float(f(t, v))


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


def _collocation_mse(states, grid: _Collocation):
    """(loss, residuals) of one solve's float states against the targets."""
    residuals = [
        (1.0 - w) * states[j] + w * states[j + 1] - target
        for j, w, target in zip(grid.index, grid.weights, grid.targets)
    ]
    return sum(d * d for d in residuals) * (1.0 / len(residuals)), residuals


class _CollocationLoss:
    """Collocation losses of members that share one model structure.

    Member b solves the model with its own parameters against grids[b].
    All members are one RK4 solve: a float solve for a single member, a
    member solve (`odeint.rk4_states`) for several. It raises
    DivergenceError exactly like the standalone solver, naming the member.
    Called on one flat vector, a one-member loss gives its loss, and
    `value_and_grad` also its exact gradient by the discrete adjoint
    described in the module docstring.
    """

    def __init__(self, model: DynamicsModel, grids):
        self.model = model
        self.grids = list(grids)

    def _solve(self, thetas, stages=None) -> list[list[float]]:
        """Each member's states; thetas[b] of None means the model's own."""
        model, grids = self.model, self.grids
        if len(grids) == 1:
            # the clamp counter enables the Gompertz state floor
            f = _make_rhs(model, thetas[0], clamp_counter=[0])
            grid = grids[0]
            return [rk4_states(f, initial_state(model, grid.targets[0]), grid.times, grid.h, stages)]
        f = _make_rhs(model, np.stack(thetas))
        v0 = np.array([initial_state(model, grid.targets[0]) for grid in grids])
        times = np.column_stack([grid.times for grid in grids])
        h = np.array([grid.h for grid in grids])
        return np.array(rk4_states(f, v0, times, h, stages)).T.tolist()

    def values(self, thetas) -> list[float]:
        """Each member's loss at its parameters thetas[b]."""
        return [_collocation_mse(states, grid)[0] for states, grid in zip(self._solve(thetas), self.grids)]

    def linearize(self, thetas) -> list["_Linearization"]:
        """Each member's recorded solve at its parameters thetas[b]."""
        stages: list = []
        solved = self._solve(thetas, stages)
        recorded = np.array(stages).reshape(len(stages), 2, len(self.grids))
        return [
            _Linearization(self.model, grid, *_collocation_mse(states, grid), recorded[:, 0, b], recorded[:, 1, b])
            for b, (states, grid) in enumerate(zip(solved, self.grids))
        ]

    def __call__(self, theta) -> float:
        return self.values([theta])[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self.linearize([theta])[0].value_and_grad(theta)


class _Linearization:
    """One member's recorded solve: its loss and stage inputs.

    `value_and_grad(theta)`, at the parameters the solve was made with,
    completes the exact gradient with the reverse sweep.
    """

    def __init__(self, model, grid: _Collocation, value: float, residuals, stage_t, stage_v):
        self.model = model
        self.grid = grid
        self.value = value
        self.residuals = residuals
        self.stage_t = stage_t
        self.stage_v = stage_v

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        grid = self.grid
        g = (2.0 / len(self.residuals)) * np.array(self.residuals)
        w = np.array(grid.weights)
        state_bar = np.zeros(len(grid.times))
        np.add.at(state_bar, grid.index, (1.0 - w) * g)
        np.add.at(state_bar, np.array(grid.index) + 1, w * g)
        jac, vjp = _rhs_linearization(self.model, _networks(self.model, theta), self.stage_v, self.stage_t)
        return self.value, vjp(rk4_adjoint(state_bar, jac, grid.h))


def make_loss_fn(model: DynamicsModel, data, config: TrainConfig) -> _CollocationLoss:
    """Loss as a function of the flat parameter vector, with its gradient
    available through `neuralnet.value_and_grad`."""
    if isinstance(model, GompertzModel):
        raise ValueError("the Gompertz variant has no trainable parameters")
    return _CollocationLoss(model, [_collocation(data, config)])


def loss(model: DynamicsModel, data, config: TrainConfig) -> float:
    """Normalized MSE of the model's solved trajectory against `data`."""
    return _CollocationLoss(model, [_collocation(data, config)])(None)


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


class _Member:
    """One member's parameters, Adam state and loss trace in `train_batch`."""

    def __init__(self, grid: _Collocation, theta: np.ndarray):
        self.grid, self.theta, self.adam = grid, theta, None
        self.history: list[float] = []
        self.initial_loss = self.best_theta = None
        self.best_loss, self.best_epoch = math.inf, 0

    def record(self, value: float, eval_index: int) -> None:
        """Log the loss of the current parameters (evaluation eval_index)."""
        if self.initial_loss is None:
            self.initial_loss = value
        else:
            self.history.append(value)
        if value < self.best_loss:
            self.best_loss, self.best_theta, self.best_epoch = value, self.theta, eval_index


def train(variant: str, data, config: TrainConfig) -> tuple[DynamicsModel, TrainReport]:
    """Full-batch Adam over the schedule; returns the best parameters seen.

    The loss history has one entry per epoch: the loss of the parameters
    produced by that epoch's update. Raises TrainingError if the loss turns
    non-finite at any point. This is `train_batch` on one dataset.
    """
    (outcome,) = train_batch(variant, [data], config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def train_batch(variant: str, datasets, config: TrainConfig) -> list:
    """`train` on each dataset, with all members trained together.

    Every member starts from the one seeded initialization. Each epoch
    solves all members' losses as one member solve; the reverse sweeps and
    Adam steps stay per member. Returns, per dataset, what `train` returns
    for it alone, bitwise, or the TrainingError or ValueError it would
    raise: a member that fails leaves the batch and the others go on.
    """
    template = init_model(variant, config)
    theta = model_theta(template)
    outcomes: list = [None] * len(datasets)
    members: dict[int, _Member] = {}
    for i, data in enumerate(datasets):
        try:
            members[i] = _Member(_collocation(data, config), theta)
        except ValueError as exc:
            outcomes[i] = exc

    def fail(i: int, message: str, cause: Exception | None) -> None:
        member = members.pop(i)
        error = TrainingError(message, history=member.history, initial_loss=member.initial_loss)
        error.__cause__ = cause
        outcomes[i] = error

    def evaluate(method: str, message) -> dict:
        """`method` of the live members' loss, by member; a member whose
        solve diverges fails with message(exc) and the rest are solved again."""
        while members:
            keys = list(members)
            batch = _CollocationLoss(template, [members[i].grid for i in keys])
            try:
                return dict(zip(keys, getattr(batch, method)([members[i].theta for i in keys])))
            except DivergenceError as exc:
                fail(keys[exc.member or 0], message(exc), exc)
        return {}

    eval_index = 0
    start = time.perf_counter()
    for lr, epochs in config.schedule:
        for member in members.values():
            member.adam = AdamState.fresh(theta.size, lr)
        for _ in range(epochs):
            prefix = f"{variant} training failed at epoch {eval_index}: "
            for i, linearization in evaluate("linearize", lambda exc: prefix + str(exc)).items():
                member = members[i]
                try:
                    value, g = value_and_grad(linearization, member.theta)
                except GradientError as exc:
                    fail(i, prefix + str(exc), exc)
                    continue
                member.record(value, eval_index)
                member.theta, member.adam = adam_update(member.theta, g, member.adam)
            eval_index += 1

    non_finite = f"{variant} training produced a non-finite final loss"
    for i, final in evaluate("values", lambda exc: non_finite).items():
        member = members[i]
        if not math.isfinite(final):
            fail(i, non_finite, None)
            continue
        member.record(final, eval_index)
        report = TrainReport(
            initial_loss=member.initial_loss,
            final_loss=member.history[-1],
            best_loss=member.best_loss,
            best_epoch=member.best_epoch,
            loss_history=tuple(member.history),
            wall_time=time.perf_counter() - start,
        )
        outcomes[i] = (model_with_theta(template, member.best_theta), report)
    return outcomes


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
    """Read a `save_model` checkpoint; raises ValueError for a file that is
    not one, including one with a non-finite number."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("format") != "tumordyn-model-v1":
        raise ValueError("not a tumordyn-model-v1 checkpoint")
    variant = blob.get("variant")
    if variant == "gompertz":
        a, K = floats_from_hex([blob.get("a"), blob.get("K")])
        return GompertzModel(GompertzParams(float(a), float(K)))
    if variant not in ("neural_ode", "ude"):
        raise ValueError(f"unknown variant {variant!r} in checkpoint")
    n_nets = 1 if variant == "neural_ode" else 2
    networks, time_input = blob.get("networks"), blob.get("time_input", False)
    if not (isinstance(networks, list) and len(networks) == n_nets and isinstance(time_input, bool)):
        raise ValueError(f"a {variant} checkpoint needs {n_nets} networks and a boolean time_input")
    nets = [params_from_blob(b) for b in networks]
    return NeuralODEModel(nets[0], time_input) if n_nets == 1 else UDEModel(*nets, time_input)


def write_report_csv(report: TrainReport, path) -> None:
    """Epoch/loss trace; epoch 0 is the loss before any update."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        writer.writerow([0, repr(report.initial_loss)])
        for i, value in enumerate(report.loss_history, start=1):
            writer.writerow([i, repr(value)])
