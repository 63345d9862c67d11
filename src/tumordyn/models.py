"""Dynamics model variants and their full-batch training loop.

Three autonomous right-hand sides f(v) over the normalized state v(tau):

  * Gompertz:   a * v * ln(K / v) with fixed parameters
  * Neural ODE: one tanh MLP mapping v to dv/dtau
  * UDE:        nn1(v) * v * nn2(v), a Gompertz-shaped product whose rate
                and saturation factors are learned networks

Each class states its variant's facts once: its name (`variant`), the
floor of a starting state (`floor`) and, for the two network variants that
train and have checkpoints, their networks (`nets`), shared `arch`, and
f, df/dv and output cotangents in terms of the networks' outputs. The
networks of a model always run as one stack, through the one forward pass
(`neuralnet.mlp_pass`), and their outputs are indexed on the leading axis,
so one formula serves a list of floats and an (n_nets, ...) array. A solve
builds its networks' pass once (`_make_rhs`) and runs every RK4 stage in
that pass's hidden-layer arrays: each stage of a float solve is one run on
the bare state and plain Python arithmetic on its outputs.

Training minimizes the mean squared error between the RK4-solved
trajectory, interpolated at the collocation times, and the normalized
target volumes. Every training solve steps one grid, `solver_steps` steps
over tau in [0, 1], the grid forecasts, written trajectories and recovered
laws are solved on. Gradients are exact for the discrete solve: the float RK4
pass that computes the loss records the state entering every stage; one
pass of the stacked networks over those states gives each stage's df/dv, a
reverse sweep through the RK4 stages (`odeint.rk4_adjoint`) gives each
stage's cotangent, and one batched vector-Jacobian product through the
stack turns those into d loss / d theta. Losses are reported on the
normalized scale.

Fits of one variant and config on several datasets train as one batch
(`train_batch`): every evaluation solves all members' losses in one member
RK4 solve, with each stage's networks evaluated as one stack; the reverse
sweeps and Adam steps stay per member. Each member's results are bitwise
those of its own `train`, which is the batch of one. `train_batch` is the
one way the pipeline trains: full fits and forecast cells alike are its
members.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .neuralnet import (
    AdamState,
    GradientError,
    MLPArch,
    MLPParams,
    Xoshiro256StarStar,
    adam_update,
    as_int,
    as_positive,
    init_params_from_stream,
    mlp_batch,
    mlp_input_derivative,
    mlp_pass,
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
    "rhs",
    "solve",
    "make_loss_fn",
    "model_theta",
    "model_with_theta",
    "init_model",
    "initial_state",
    "train",
    "train_batch",
    "save_model",
    "load_model",
]

@dataclass(frozen=True)
class GompertzModel:
    params: GompertzParams
    variant = "gompertz"
    floor = 1e-12  # Gompertz solves also floor the state here before the log


class _NetworkModel:
    """A variant built from tanh networks: `nets`, its MLPParams in order,
    each mapping 1 -> 1, all of one architecture `arch`. With y its
    networks' outputs at states v and dy their derivatives, indexed on the
    leading axis (y[k] is network k's output: a float in a float solve,
    an array over states or members otherwise), it gives f
    (`f_from_outputs`), df/dv (`df_dv`), and the cotangents on the outputs
    from a cotangent c on f (`cotangents`)."""

    def __post_init__(self):
        for net in self.nets:
            if net.arch.layer_widths[0] != 1 or net.arch.layer_widths[-1] != 1:
                raise ValueError(f"{self.variant} networks must map 1 -> 1, got {net.arch.layer_widths}")
        if any(net.arch != self.arch for net in self.nets):
            widths = " and ".join(str(net.arch.layer_widths) for net in self.nets)
            raise ValueError(f"{self.variant} networks must share one architecture, got {widths}")

    @property
    def arch(self) -> MLPArch:
        return self.nets[0].arch


@dataclass(frozen=True)
class NeuralODEModel(_NetworkModel):
    mlp: MLPParams
    variant = "neural_ode"
    floor = -math.inf  # no floor: the neural ODE takes v0 as given

    @property
    def nets(self) -> tuple[MLPParams, ...]:
        return (self.mlp,)

    def f_from_outputs(self, y, v):
        return y[0]

    def df_dv(self, y, dy, v):
        return dy[0]

    def cotangents(self, y, v, c):
        return (c,)


@dataclass(frozen=True)
class UDEModel(_NetworkModel):
    nn1: MLPParams
    nn2: MLPParams
    variant = "ude"
    # f is proportional to v, so no solve started at v <= 0 reaches positive
    # targets, and the sigmoid interpolant can undershoot the smallest
    # measurement, putting the normalized initial value slightly below zero
    floor = 1e-3

    @property
    def nets(self) -> tuple[MLPParams, ...]:
        return (self.nn1, self.nn2)

    def f_from_outputs(self, y, v):
        return y[0] * v * y[1]

    def df_dv(self, y, dy, v):
        # f = n1 * v * n2, so df/dv = n1' v n2 + n1 n2 + n1 v n2'
        return dy[0] * v * y[1] + y[0] * y[1] + y[0] * v * dy[1]

    def cotangents(self, y, v, c):
        return (c * v * y[1], c * y[0] * v)


DynamicsModel = GompertzModel | NeuralODEModel | UDEModel

# trainable variant name -> (class, network count)
_TRAINABLE = {"neural_ode": (NeuralODEModel, 1), "ude": (UDEModel, 2)}


def _trainable(model):
    """`model` if it is built from networks; ValueError otherwise."""
    if not isinstance(model, _NetworkModel):
        raise ValueError(f"{type(model).__name__} has no networks to train or save")
    return model


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule plus the discretization knobs shared by a run.

    `schedule` is a sequence of (learning_rate, epochs) stages run back to
    back; Adam moments are reset at each stage boundary. `hidden` of None
    picks the variant default, the widths of `neural_ode_defaults` or
    `ude_defaults`.
    """

    schedule: tuple[tuple[float, int], ...]
    seed: int = 123
    solver_steps: int = 20
    hidden: tuple[int, ...] | None = None

    def __post_init__(self):
        schedule = tuple(
            (as_positive(lr, "a learning rate"), as_int(ep, "an epoch count")) for lr, ep in self.schedule
        )
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "solver_steps", as_int(self.solver_steps, "solver_steps"))
        if self.hidden is not None:
            object.__setattr__(self, "hidden", tuple(as_int(w, "a hidden width") for w in self.hidden))
        if not schedule:
            raise ValueError("schedule must have at least one (learning_rate, epochs) stage")
        for _, ep in schedule:
            if ep < 1:
                raise ValueError(f"every stage needs at least 1 epoch, got {ep}")
        if self.solver_steps < 1:
            raise ValueError(f"solver_steps must be >= 1, got {self.solver_steps}")

    @classmethod
    def neural_ode_defaults(cls) -> "TrainConfig":
        return cls(schedule=((0.01, 500),), hidden=(128, 128, 64, 64))

    @classmethod
    def ude_defaults(cls) -> "TrainConfig":
        return cls(schedule=((0.01, 1000), (0.005, 1000), (0.001, 500)), hidden=(10, 10))


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch loss trace; losses are normalized-scale MSE.

    loss_history[i] is the loss after update i+1, so final_loss is the loss
    of the last-epoch parameters while best_loss belongs to the parameters
    actually returned by train().
    """

    initial_loss: float
    best_loss: float
    best_epoch: int
    loss_history: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "loss_history", tuple(self.loss_history))

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1]


class TrainingError(RuntimeError):
    """Raised on a non-finite loss; carries the history up to that point."""

    def __init__(self, message: str, history=(), initial_loss=None):
        self.history = tuple(history)
        self.initial_loss = initial_loss
        super().__init__(message)


# --- right-hand sides -------------------------------------------------


def _networks(model, theta):
    """The model's networks as one stack of layers, from `theta` (..., n_nets * n_params)."""
    return unpack_layers(model.arch, theta.reshape(*theta.shape[:-1], len(model.nets), -1))


def _make_rhs(model: DynamicsModel, theta=None, clamp_counter=None):
    """Build the right-hand side f(v) of a model.

    When `theta` is given it overrides the stored network parameters, which
    is how the training loss rebuilds the networks from the optimizer's
    iterates. A flat vector gives a float f(v): one network pass on the
    bare state and Python-float arithmetic on its outputs. A stack of B vectors
    (B, n_params) gives the right-hand sides of B members at once, mapping
    (B,) states to (B,) values, each bitwise what the member's own float f
    gives. Either f runs every call in the hidden-layer arrays of one pass
    built here, so an f serves one solve at a time. `clamp_counter`, a
    one-element list, enables the state floor for Gompertz solves and counts
    how often it fires.
    """
    if isinstance(model, GompertzModel):
        p, floor = model.params, model.floor

        def f(v):
            if clamp_counter is not None and v < floor:
                clamp_counter[0] += 1
                v = floor
            return gompertz_rhs(v, p)

        return f

    thetas = model_theta(model) if theta is None else theta
    lead = thetas.shape[:-1]
    layers, f_from_outputs = _networks(model, thetas), model.f_from_outputs
    run, _ = mlp_pass(layers, (*lead, 1, 1, 1) if lead else ())
    if not lead:
        return lambda v: f_from_outputs(run(v).ravel().tolist(), v)

    def f(v):
        # one row per member, broadcast over its networks; the outputs are
        # new at every stage, so the f values they give may be kept
        return f_from_outputs(run(v.reshape(*lead, 1, 1, 1))[..., 0, 0].T, v)

    return f


def rhs(model: DynamicsModel, v):
    """dv/dtau at states v, a scalar or an array.

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
    v_arr = np.asarray(v, dtype=float)
    flat = v_arr.ravel()
    y, _ = mlp_batch(_networks(model, model_theta(model)), flat[:, None])
    dv = model.f_from_outputs(y[..., 0], flat)
    return float(dv[0]) if v_arr.ndim == 0 else dv.reshape(v_arr.shape)


def _rhs_linearization(model, layers, v: np.ndarray):
    """f and df/dv at each state v[i] of a model with stacked networks `layers`,
    and the map from cotangents on those f values to d/d theta."""
    y, acts = mlp_batch(layers, v[:, None])
    dy, slopes = mlp_input_derivative(layers, acts)
    y, dy = y[..., 0], dy[..., 0]  # (n_nets, N)

    def vjp(c):
        G = np.stack(model.cotangents(y, v, c))[..., None]
        return mlp_vjp(layers, acts, slopes, G).ravel()

    return model.f_from_outputs(y, v), model.df_dv(y, dy, v), vjp


def initial_state(model: DynamicsModel, v0: float) -> float:
    """Variant-appropriate initial state for solves started from data.

    The Gompertz log and the UDE's v-proportional structure both make
    v = 0 untraversable, so each floors initial values to a small positive
    state (`model.floor`); the neural ODE takes v0 as given.
    """
    return max(v0, model.floor)


def solve(model: DynamicsModel, v0: float, tau_span: tuple[float, float], steps: int) -> Trajectory:
    """RK4-solve the model; Gompertz solves floor the state before the log."""
    counter = [0]
    traj = solve_fixed_grid(_make_rhs(model, clamp_counter=counter), initial_state(model, v0), *tau_span, steps)
    return replace(traj, clamp_events=counter[0]) if counter[0] else traj


# --- collocation loss --------------------------------------------------


@dataclass(frozen=True)
class _Collocation:
    """Checked collocation data of one member: its points lie in tau in
    [0, 1], the first at tau = 0, where the member's solve starts.

    Target j is compared with (1 - weights[j]) * state[index[j]] +
    weights[j] * state[index[j] + 1] of the solve on the training grid.
    """

    targets: list
    index: list
    weights: list


def _training_grid(config: TrainConfig) -> np.ndarray:
    """The RK4 grid of every training solve: `solver_steps` steps over tau in [0, 1]."""
    return np.linspace(0.0, 1.0, config.solver_steps + 1)


def _collocation(data, config: TrainConfig) -> _Collocation:
    taus = np.array([t for t, _ in data], dtype=float)
    values = np.array([v for _, v in data], dtype=float)
    if taus.size < 2:
        raise ValueError(f"need at least 2 collocation points, got {taus.size}")
    if not np.all(np.diff(taus) > 0):
        raise ValueError("collocation points must be sorted by strictly increasing tau")
    if not (np.all(np.isfinite(taus)) and np.all(np.isfinite(values))):
        raise ValueError("collocation data must be finite")
    if taus[0] != 0.0 or taus[-1] > 1.0:
        span = f"[{float(taus[0])}, {float(taus[-1])}]"
        raise ValueError(f"collocation points must start at tau = 0 and end by tau = 1, got {span}")
    times = _training_grid(config)
    idx = np.clip(np.searchsorted(times, taus, side="right") - 1, 0, config.solver_steps - 1)
    weights = [float((tau - times[j]) / (times[j + 1] - times[j])) for j, tau in zip(idx, taus)]
    return _Collocation(values.tolist(), idx.tolist(), weights)


def _collocation_mse(states, grid: _Collocation):
    """(loss, residuals) of one solve's float states against the targets."""
    residuals = [
        (1.0 - w) * states[j] + w * states[j + 1] - target
        for j, w, target in zip(grid.index, grid.weights, grid.targets)
    ]
    return sum(d * d for d in residuals) * (1.0 / len(residuals)), residuals


class _CollocationLoss:
    """Collocation losses of members that share one model structure and config.

    Member b solves the model with its own parameters on the training grid
    and is scored against grids[b]. All members are one RK4 solve: a float
    solve for a single member, a member solve (`odeint.rk4_states`) for
    several. It raises DivergenceError exactly like the standalone solver,
    naming the member. Called on one flat vector, a one-member loss gives
    its loss, and `value_and_grad` also its exact gradient by the discrete
    adjoint described in the module docstring.
    """

    def __init__(self, model: DynamicsModel, grids, config: TrainConfig):
        self.model, self.grids = model, list(grids)
        self.times, self.h = _training_grid(config), 1.0 / config.solver_steps

    def _solve(self, thetas, stages=None) -> list[list[float]]:
        """Each member's states at its parameters thetas[b]."""
        model, grids = self.model, self.grids
        if len(grids) == 1:
            v0 = initial_state(model, grids[0].targets[0])
            return [rk4_states(_make_rhs(model, thetas[0]), v0, self.times, self.h, stages)]
        v0 = np.array([initial_state(model, grid.targets[0]) for grid in grids])
        return np.array(rk4_states(_make_rhs(model, np.stack(thetas)), v0, self.times, self.h, stages)).T.tolist()

    def values(self, thetas) -> list[float]:
        """Each member's loss at its parameters thetas[b]."""
        return [_collocation_mse(states, grid)[0] for states, grid in zip(self._solve(thetas), self.grids)]

    def linearize(self, thetas) -> list["_Linearization"]:
        """Each member's recorded solve at its parameters thetas[b]."""
        stages: list = []
        solved = self._solve(thetas, stages)
        recorded = np.array(stages).reshape(len(stages), len(self.grids))
        # a contiguous copy for every member: the bits of the weight gradient
        # in `mlp_vjp` depend on the memory layout of the stage states
        return [
            _Linearization(self, grid, *_collocation_mse(states, grid), np.ascontiguousarray(recorded[:, b]))
            for b, (states, grid) in enumerate(zip(solved, self.grids))
        ]

    def __call__(self, theta) -> float:
        return self.values([theta])[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self.linearize([theta])[0].value_and_grad(theta)


class _Linearization:
    """One member's recorded solve by `loss`: its loss and stage states.

    `value_and_grad(theta)`, at the parameters the solve was made with,
    completes the exact gradient with the reverse sweep.
    """

    def __init__(self, loss: _CollocationLoss, grid: _Collocation, value: float, residuals, stage_v):
        self.loss, self.grid, self.value, self.residuals, self.stage_v = loss, grid, value, residuals, stage_v

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        grid, model = self.grid, self.loss.model
        g = (2.0 / len(self.residuals)) * np.array(self.residuals)
        w = np.array(grid.weights)
        state_bar = np.zeros(len(self.loss.times))
        np.add.at(state_bar, grid.index, (1.0 - w) * g)
        np.add.at(state_bar, np.array(grid.index) + 1, w * g)
        _, jac, vjp = _rhs_linearization(model, _networks(model, theta), self.stage_v)
        return self.value, vjp(rk4_adjoint(state_bar, jac, self.loss.h))


def make_loss_fn(model: DynamicsModel, data, config: TrainConfig) -> _CollocationLoss:
    """Loss as a function of the flat parameter vector, with its gradient
    available through `neuralnet.value_and_grad`. The data's taus lie in
    [0, 1], the first at tau = 0, and are solved on `_training_grid`."""
    return _CollocationLoss(_trainable(model), [_collocation(data, config)], config)


# --- parameter vector helpers ------------------------------------------


def model_theta(model: DynamicsModel) -> np.ndarray:
    return np.concatenate([net.theta for net in _trainable(model).nets])


def model_with_theta(model: DynamicsModel, theta: np.ndarray) -> DynamicsModel:
    parts = theta.reshape(len(_trainable(model).nets), -1)
    return type(model)(*(MLPParams(model.arch, part) for part in parts))


def init_model(variant: str, config: TrainConfig) -> DynamicsModel:
    """Seeded Glorot initialization; UDE networks share one xoshiro stream."""
    if variant not in _TRAINABLE:
        raise ValueError(f"unknown trainable variant {variant!r} (expected 'neural_ode' or 'ude')")
    cls, n_nets = _TRAINABLE[variant]
    defaults = TrainConfig.neural_ode_defaults if variant == "neural_ode" else TrainConfig.ude_defaults
    arch = MLPArch((1, *(config.hidden if config.hidden is not None else defaults().hidden), 1))
    rng = Xoshiro256StarStar(config.seed)
    return cls(*(init_params_from_stream(arch, rng) for _ in range(n_nets)))


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
    template = model_with_theta(template, theta)  # one copy of the initial parameters, not two
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
            batch = _CollocationLoss(template, [members[i].grid for i in keys], config)
            try:
                return dict(zip(keys, getattr(batch, method)([members[i].theta for i in keys])))
            except DivergenceError as exc:
                fail(keys[exc.member or 0], message(exc), exc)
        return {}

    eval_index = 0
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
            best_loss=member.best_loss,
            best_epoch=member.best_epoch,
            loss_history=tuple(member.history),
        )
        outcomes[i] = (model_with_theta(template, member.best_theta), report)
    return outcomes


# --- checkpoints --------------------------------------------------------


def save_model(model: DynamicsModel, path, seed=None) -> None:
    """Write a bit-exact JSON checkpoint of a network model (floats stored
    as float.hex); a Gompertz model has none and raises ValueError."""
    blob = {
        "format": "tumordyn-model-v1",
        "variant": _trainable(model).variant,
        "time_input": False,  # a format field: every model is autonomous
        "networks": [params_to_blob(net, seed) for net in model.nets],
    }
    # json.dumps without an indent runs the C encoder; json.dump never does
    text = json.dumps(blob, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> DynamicsModel:
    """Read a `save_model` checkpoint; raises ValueError for a file that is
    not one, including one with a non-finite number."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("format") != "tumordyn-model-v1":
        raise ValueError("not a tumordyn-model-v1 checkpoint")
    variant = blob.get("variant")
    if not isinstance(variant, str) or variant not in _TRAINABLE:
        raise ValueError(f"unknown variant {variant!r} in checkpoint")
    if blob.get("time_input", False) is not False:
        raise ValueError(f"time_input must be false (models are autonomous), got {blob['time_input']!r}")
    cls, n_nets = _TRAINABLE[variant]
    networks = blob.get("networks")
    if not (isinstance(networks, list) and len(networks) == n_nets):
        raise ValueError(f"a {variant} checkpoint needs {n_nets} networks")
    return cls(*(params_from_blob(b) for b in networks))
