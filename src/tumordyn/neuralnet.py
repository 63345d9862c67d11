"""Small tanh multilayer perceptrons with deterministic training machinery.

Parameters live in one flat vector per network (weights then bias for each
consecutive layer pair, in order), initialization is Glorot-uniform drawn
from a seeded xoshiro256** stream so runs are bit-reproducible, and updates
use a plain full-batch Adam. Inside the ODE solver a network is evaluated
on one input vector; `stack_layers` lets `mlp_apply` evaluate several
networks of one architecture at once, each on its own input, with the
same bits as one at a time. A network can also be run on a whole batch of
inputs at once (`mlp_batch`); its derivative with respect to the first
input (`mlp_input_derivative`) and the vector-Jacobian product with
respect to its parameters (`mlp_vjp`) then reuse that pass's activations,
and the VJP reuses the tanh slopes the derivative computed.
Losses built on these supply their own exact gradient to `value_and_grad`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Xoshiro256StarStar",
    "MLPArch",
    "MLPParams",
    "AdamState",
    "GradientError",
    "init_params",
    "init_params_from_stream",
    "unpack_layers",
    "stack_layers",
    "mlp_apply",
    "mlp_batch",
    "mlp_input_derivative",
    "mlp_vjp",
    "value_and_grad",
    "adam_update",
    "params_to_blob",
    "params_from_blob",
    "floats_from_hex",
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


@dataclass(frozen=True)
class MLPArch:
    """Layer widths, input first and output last; tanh on hidden layers."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be >= 1, got {widths}")

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_params(self) -> int:
        ws = self.layer_widths
        return sum((ws[i] + 1) * ws[i + 1] for i in range(len(ws) - 1))

    def layout(self):
        """(weight_start, weight_stop, bias_stop, (fan_out, fan_in)) per layer."""
        spans = []
        offset = 0
        ws = self.layer_widths
        for i in range(len(ws) - 1):
            fi, fo = ws[i], ws[i + 1]
            w_stop = offset + fo * fi
            b_stop = w_stop + fo
            spans.append((offset, w_stop, b_stop, (fo, fi)))
            offset = b_stop
        return spans


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


def unpack_layers(arch: MLPArch, theta: np.ndarray):
    """Split a flat parameter vector into (W, b) views per layer."""
    return [
        (theta[w_start:w_stop].reshape(shape), theta[w_stop:b_stop])
        for w_start, w_stop, b_stop, shape in arch.layout()
    ]


def stack_layers(arch: MLPArch, thetas: np.ndarray):
    """(W, b) views per layer of parameter vectors stacked on leading axes.

    For thetas of shape (*lead, n_params), W has shape (*lead, fo, fi) and
    b (*lead, fo, 1), so `mlp_apply` runs every network at once on column
    inputs (*lead, fi, 1). Each network's slice goes through the same
    matrix-vector product as `unpack_layers` on its own vector, so the
    outputs are bitwise equal.
    """
    lead = thetas.shape[:-1]
    return [
        (thetas[..., w_start:w_stop].reshape(*lead, *shape), thetas[..., w_stop:b_stop, None])
        for w_start, w_stop, b_stop, shape in arch.layout()
    ]


def mlp_apply(layers, x: np.ndarray) -> np.ndarray:
    """Affine + tanh per hidden layer, affine only on the output layer.

    Takes the layers of `unpack_layers` with an input vector, or those of
    `stack_layers` with column inputs.
    """
    h = x
    for W, b in layers[:-1]:
        h = np.tanh(W @ h + b)
    W, b = layers[-1]
    return W @ h + b


def mlp_batch(layers, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network on every row of X (N, in_width) in one pass.

    Returns the outputs (N, out_width) and the input of every layer (X,
    then each hidden activation), which `mlp_input_derivative` and
    `mlp_vjp` take back. Here and in those two, arithmetic on (N, width)
    arrays is done in place, so a pass holds few such temporaries at once.
    """
    acts = [X]
    for W, b in layers[:-1]:
        z = np.matmul(acts[-1], W.T)
        z += b
        acts.append(np.tanh(z, out=z))
    W, b = layers[-1]
    return np.matmul(acts[-1], W.T) + b, acts


def mlp_input_derivative(layers, acts) -> tuple[np.ndarray, list[np.ndarray]]:
    """d output / d X[:, 0] for every row of a `mlp_batch` pass, (N,
    out_width), and the tanh slope 1 - h * h at every hidden activation h,
    which `mlp_vjp` takes so that each slope is computed once."""
    W0 = layers[0][0]
    d = np.broadcast_to(W0[:, 0], (acts[0].shape[0], W0.shape[0]))
    slopes = []
    for (W, _), h in zip(layers[1:], acts[1:]):
        s = np.multiply(h, h)
        slopes.append(np.subtract(1.0, s, out=s))
        d = s * d
        d = np.matmul(d, W.T)
    return d, slopes


def mlp_vjp(layers, acts, slopes, G: np.ndarray) -> np.ndarray:
    """Flat gradient of sum(G * outputs) for a `mlp_batch` pass.

    G (N, out_width) is the cotangent on the outputs; the result is laid
    out like the parameter vector and sums the contributions of all rows.
    `slopes` are those of `mlp_input_derivative`. The sweep empties `acts`
    and `slopes` as it passes each layer, so every (N, width) array is
    freed as soon as it is used: a pass is swept once.
    """
    pieces = []
    for i in range(len(layers) - 1, -1, -1):
        pieces.append(G.sum(axis=0))
        pieces.append(np.matmul(G.T, acts.pop()).ravel())
        if i:
            G = np.matmul(G, layers[i][0])
            G *= slopes.pop()
    return np.concatenate(pieces[::-1])


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


def params_to_blob(params: MLPParams, seed=None) -> dict:
    return {
        "format": "tumordyn-mlp-v1",
        "layer_widths": list(params.arch.layer_widths),
        "seed": seed,
        "theta_hex": [float(x).hex() for x in params.theta],
    }


def floats_from_hex(items) -> np.ndarray:
    """Finite floats from a list of float.hex() strings; ValueError otherwise."""
    if not isinstance(items, list):
        raise ValueError("expected a list of float.hex() strings")
    try:
        values = np.fromiter(map(float.fromhex, items), float, len(items))
    except TypeError:  # an entry that is not a string
        raise ValueError("expected a list of float.hex() strings") from None
    except OverflowError:
        raise ValueError("a float.hex() value is out of range") from None
    if not np.all(np.isfinite(values)):
        raise ValueError("checkpoint values must be finite")
    return values


def params_from_blob(blob) -> MLPParams:
    """Inverse of `params_to_blob`; raises ValueError for anything else."""
    if not isinstance(blob, dict) or blob.get("format") != "tumordyn-mlp-v1":
        raise ValueError("not a tumordyn-mlp-v1 network")
    widths = blob.get("layer_widths")
    if not (isinstance(widths, list) and all(type(w) is int for w in widths)):
        raise ValueError(f"layer_widths must be a list of integers, got {widths!r}")
    return MLPParams(MLPArch(tuple(widths)), floats_from_hex(blob.get("theta_hex")))

