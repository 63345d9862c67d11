"""Small tanh multilayer perceptrons with deterministic training machinery.

Parameters live in one flat vector per network (weights then bias for each
consecutive layer pair, in order), initialization is Glorot-uniform drawn
from a seeded xoshiro256** stream so runs are bit-reproducible, and updates
use a plain full-batch Adam. One forward pass evaluates a network on
every row of an input batch: `mlp_pass` builds it for one input shape,
allocating each hidden layer's array once, and every run of it writes
into those arrays, so a solve that evaluates its networks at every RK4
stage builds it once; `mlp_batch` builds and runs it for one input. A
layer of input width 1 is an outer product, a broadcast multiply with the
bits of the one-term matmul, so one input state may be a Python float.
Its layers come from `unpack_layers`, which also takes parameter vectors
stacked on leading axes: networks of one architecture then run as one
stack, each with the bits of its own pass. The derivative of a pass with
respect to the first input (`mlp_input_derivative`) and the
vector-Jacobian product with respect to the parameters (`mlp_vjp`) reuse
that pass's activations, and the VJP reuses the tanh slopes the
derivative computed.
Losses built on these supply their own exact gradient to `value_and_grad`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Xoshiro256StarStar",
    "MLPArch",
    "MLPParams",
    "AdamState",
    "GradientError",
    "as_int",
    "as_positive",
    "init_params",
    "init_params_from_stream",
    "unpack_layers",
    "mlp_pass",
    "mlp_batch",
    "mlp_input_derivative",
    "mlp_vjp",
    "value_and_grad",
    "adam_update",
    "params_to_blob",
    "params_from_blob",
]

_MASK64 = (1 << 64) - 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Xoshiro256StarStar:
    """xoshiro256** PRNG (Blackman & Vigna), state seeded via splitmix64."""

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._s = state

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniform doubles in [0, 1), each from 53 random bits.

        The state walk stays in Python ints; the ** scrambler and the
        conversion to doubles run on all n outputs at once as uint64
        arithmetic, which wraps modulo 2**64 like the masked ints would.
        """
        s0, s1, s2, s3 = self._s
        x = np.empty(n, dtype=np.uint64)  # s1 of each step, the scrambler's input
        for k in range(n):
            x[k] = s1
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotate left by 45
        self._s = [s0, s1, s2, s3]
        x *= np.uint64(5)
        x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
        return (x >> np.uint64(11)) * 2.0**-53


def as_int(value, name: str) -> int:
    """`value`, a Python or numpy integer or an integral float, as an int;
    ValueError naming `name` for anything else, a boolean included."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if isinstance(value, (bool, np.bool_)) or not (integral or isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_positive(value, name: str) -> float:
    """`value`, a finite positive Python or numpy real number, as a float;
    ValueError naming `name` for anything else, a boolean or a string included."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class MLPArch:
    """Layer widths, input first and output last; tanh on hidden layers."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(as_int(w, "a layer width") for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be >= 1, got {widths}")

    @property
    def n_params(self) -> int:
        ws = self.layer_widths
        return sum((ws[i] + 1) * ws[i + 1] for i in range(len(ws) - 1))


@dataclass(frozen=True)
class MLPParams:
    """Architecture plus the flat parameter vector it indexes into."""

    arch: MLPArch
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1 or theta.size != self.arch.n_params:
            raise ValueError(
                f"theta has {theta.size} entries, architecture {self.arch.layer_widths} "
                f"needs {self.arch.n_params}"
            )


@dataclass(frozen=True)
class AdamState:
    """Adam optimizer moments; step_count drives bias correction."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.m.shape != self.v.shape or self.step_count < 0:
            raise ValueError("inconsistent Adam state")

    @classmethod
    def fresh(cls, n_params: int, learning_rate: float) -> "AdamState":
        return cls(learning_rate=learning_rate, m=np.zeros(n_params), v=np.zeros(n_params))


class GradientError(ArithmeticError):
    """Raised when a loss or its gradient is not finite."""


def init_params_from_stream(arch: MLPArch, rng: Xoshiro256StarStar) -> MLPParams:
    """Glorot-uniform weights drawn from `rng` in layer order; zero biases."""
    pieces = []
    ws = arch.layer_widths
    for i in range(len(ws) - 1):
        fi, fo = ws[i], ws[i + 1]
        limit = np.sqrt(6.0 / (fi + fo))
        pieces.append(limit * (2.0 * rng.uniforms(fo * fi) - 1.0))
        pieces.append(np.zeros(fo))
    return MLPParams(arch, np.concatenate(pieces))


def init_params(arch: MLPArch, seed: int) -> MLPParams:
    return init_params_from_stream(arch, Xoshiro256StarStar(seed))


def unpack_layers(arch: MLPArch, thetas: np.ndarray):
    """(W^T, b) per layer of parameter vectors on leading axes.

    For thetas (*lead, n_params), W^T is (*lead, fi, fo), the transposed
    (fo, fi) weight block of each network, and b is (*lead, 1, fo). A
    stack runs in one `mlp_batch` pass, each network bitwise as alone.
    Every W^T that enters a matmul is a view of thetas: its memory layout
    decides the bits of the product. The biases and a width-1 input layer's
    W^T enter only elementwise arithmetic, which has the same bits in any
    layout, so they are contiguous copies, on which that arithmetic is cheaper.
    """
    lead, ws = thetas.shape[:-1], arch.layer_widths
    layers, start = [], 0
    for i, (fi, fo) in enumerate(zip(ws, ws[1:])):
        w_stop = start + fo * fi
        WT = np.swapaxes(thetas[..., start:w_stop].reshape(*lead, fo, fi), -1, -2)
        start = w_stop + fo
        b = np.ascontiguousarray(thetas[..., None, w_stop:start])
        layers.append((np.ascontiguousarray(WT) if i == 0 and fi == 1 else WT, b))
    return layers


def mlp_pass(layers, shape: tuple[int, ...]):
    """The networks' forward pass on inputs X (..., N, in_width) of `shape`.

    Returns (run, hidden): `hidden` holds one array per hidden layer,
    allocated here once, and run(X) writes each hidden layer's product, bias
    add and tanh into its array, then returns the output layer's affine map
    (..., N, out_width), a new array on every run. The leading axes of X and
    of the layers broadcast. A first layer of input width 1 is the outer
    product X * W^T, which has the bits of the one-term matmul, so X may be
    one state as a Python float (shape ()); the outputs are then
    (..., 1, out_width). Each run overwrites the last run's activations.
    """
    ops = [np.multiply if layers[0][0].shape[-2] == 1 else np.matmul] + [np.matmul] * (len(layers) - 1)
    plan = []
    for op, (WT, b) in zip(ops, layers[:-1]):
        if op is np.multiply:
            shape = np.broadcast_shapes(shape, WT.shape)
        else:
            shape = (*np.broadcast_shapes(shape[:-2], WT.shape[:-2]), shape[-2], WT.shape[-1])
        plan.append((op, WT, b, np.empty(shape)))
    out_op, (out_WT, out_b) = ops[-1], layers[-1]

    def run(X):
        # ufunc outputs passed by position: a keyword costs more per call
        for op, WT, b, h in plan:
            X = op(X, WT, h)
            np.add(X, b, X)
            np.tanh(X, X)
        z = out_op(X, out_WT)
        z += out_b
        return z

    return run, [h for *_, h in plan]


def mlp_batch(layers, X: np.ndarray | float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the networks on every row of X in one pass, built for X
    alone (`mlp_pass`). Returns the outputs and the input of every layer (X,
    then each hidden activation), which `mlp_input_derivative` and `mlp_vjp`
    take back. Here and in those two, arithmetic on (..., N, width) arrays
    is done in place, so a pass holds few such temporaries at once.
    """
    run, hidden = mlp_pass(layers, np.shape(X))
    return run(X), [X, *hidden]


def mlp_input_derivative(layers, acts) -> tuple[np.ndarray, list[np.ndarray]]:
    """d output / d X[..., 0] for every row of a `mlp_batch` pass, shaped
    like its outputs, and the tanh slope 1 - h * h at every hidden
    activation h, which `mlp_vjp` takes so that each slope is computed once."""
    WT0 = layers[0][0]
    lead = np.broadcast_shapes(acts[0].shape[:-2], WT0.shape[:-2])
    d = np.broadcast_to(WT0[..., :1, :], (*lead, acts[0].shape[-2], WT0.shape[-1]))
    slopes = []
    for (WT, _), h in zip(layers[1:], acts[1:]):
        s = np.multiply(h, h)
        slopes.append(np.subtract(1.0, s, out=s))
        d = s * d
        d = np.matmul(d, WT)
    return d, slopes


def mlp_vjp(layers, acts, slopes, G: np.ndarray) -> np.ndarray:
    """Flat gradient of sum(G * outputs) for a `mlp_batch` pass.

    G (..., N, out_width) is the cotangent on the outputs; the result
    (..., n_params) is laid out like the parameters and sums over rows.
    `slopes` are those of `mlp_input_derivative`. The sweep empties `acts`
    and `slopes` as it passes each layer, so every (..., N, width) array
    is freed as soon as it is used: a pass is swept once.
    """
    pieces = []
    for i in range(len(layers) - 1, -1, -1):
        pieces.append(G.sum(axis=-2))
        dW = np.matmul(np.swapaxes(G, -1, -2), acts.pop())
        pieces.append(dW.reshape(*dW.shape[:-2], -1))
        if i:
            G = np.matmul(G, np.swapaxes(layers[i][0], -1, -2))
            G *= slopes.pop()
    return np.concatenate(pieces[::-1], axis=-1)


def value_and_grad(loss_fn, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (loss_fn(theta), d loss_fn / d theta).

    loss_fn supplies its own exact gradient through a
    `value_and_grad(theta)` method, as the collocation losses built by
    `models.make_loss_fn` do. Raises GradientError if the loss or any
    gradient entry is not finite.
    """
    theta = np.asarray(theta, dtype=float)
    value, g = loss_fn.value_and_grad(theta)
    value = float(value)
    if not np.isfinite(value):
        raise GradientError(f"non-finite loss {value}")
    bad = np.count_nonzero(~np.isfinite(g))
    if bad:
        raise GradientError(f"non-finite gradient in {bad} of {g.size} entries")
    return value, g


def adam_update(theta: np.ndarray, g: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step on a raw parameter vector."""
    if theta.shape != g.shape or theta.shape != state.m.shape:
        raise ValueError("theta, gradient, and Adam moments must have equal length")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_theta = theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_theta, replace(state, m=m, v=v, step_count=t)


# --- checkpoint format -----------------------------------------------
#
# JSON with float64 entries serialized through float.hex() so a checkpoint
# round-trips bit-exactly:
#   {"format": "tumordyn-mlp-v1", "layer_widths": [...],
#    "seed": <int or null>, "theta_hex": ["0x1.5p+3", ...]}
# `params_from_blob`, the one decoder, checks every field and every weight.


def params_to_blob(params: MLPParams, seed=None) -> dict:
    return {
        "format": "tumordyn-mlp-v1",
        "layer_widths": list(params.arch.layer_widths),
        "seed": seed,
        "theta_hex": list(map(float.hex, params.theta.tolist())),
    }


def params_from_blob(blob) -> MLPParams:
    """Inverse of `params_to_blob`; raises ValueError for anything else."""
    if not isinstance(blob, dict) or blob.get("format") != "tumordyn-mlp-v1":
        raise ValueError("not a tumordyn-mlp-v1 network")
    widths = blob.get("layer_widths")
    if not (isinstance(widths, list) and all(type(w) is int for w in widths)):
        raise ValueError(f"layer_widths must be a list of integers, got {widths!r}")
    arch = MLPArch(tuple(widths))
    items = blob.get("theta_hex")
    if not isinstance(items, list):
        raise ValueError("expected a list of float.hex() strings")
    try:
        theta = np.fromiter(map(float.fromhex, items), float, len(items))
    except TypeError:  # an entry that is not a string
        raise ValueError("expected a list of float.hex() strings") from None
    except OverflowError:
        raise ValueError("a float.hex() value is out of range") from None
    if not np.all(np.isfinite(theta)):
        raise ValueError("checkpoint values must be finite")
    return MLPParams(arch, theta)
