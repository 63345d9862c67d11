"""Seeded workload inputs: caliper cohorts, run configs and checkpoints.

Every input is a pure function of the workload seed. The program sees only
the files written here plus the same seed on its command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from oracle import fit_logistic, mlp, unpack

# Defaults of the pipeline (README "Command line"); a workload shortens every
# schedule stage by one common factor and keeps widths and learning rates.
NODE_HIDDEN = (128, 128, 64, 64)
UDE_HIDDEN = (10, 10)
NODE_SCHEDULE = ((0.01, 500),)
UDE_SCHEDULE = ((0.01, 1000), (0.005, 1000), (0.001, 500))
FRACTIONS = (0.7, 0.8, 0.9)
N_COLLOCATION = 21
SOLVER_STEPS = 100
GOMPERTZ_A, GOMPERTZ_K = 0.3, 1200.0
N_POINTS = 8  # caliper measurements per subject
INFLECTION = (0.25, 0.4)  # where in its span a series inflects
DIAMETER_NOISE = 0.02  # log-normal caliper error


def shorten(schedule, factor: int):
    return tuple((lr, epochs // factor) for lr, epochs in schedule)


@dataclass(frozen=True)
class Subject:
    """One generated series, its Gompertz parameters and its min-max map."""

    sid: int
    times: tuple[float, ...]
    volumes: tuple[float, ...]
    a: float
    K: float

    @property
    def t_min(self) -> float:
        return self.times[0]

    @property
    def t_scale(self) -> float:
        return self.times[-1] - self.times[0]

    @property
    def v_min(self) -> float:
        return min(self.volumes)

    @property
    def v_scale(self) -> float:
        return max(self.volumes) - min(self.volumes)

    @property
    def taus(self) -> np.ndarray:
        return (np.array(self.times) - self.t_min) / self.t_scale


def _draw_subject(rng, sid: int) -> Subject:
    K = round(float(rng.uniform(900.0, 2000.0)), 1)
    V0 = float(rng.uniform(40.0, 120.0))
    t0 = round(float(rng.uniform(18.0, 24.0)), 1)
    days = np.round(t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(2.0, 4.0, N_POINTS - 1))]), 1)
    # V(t) = K exp(-c exp(-a (t - t0))) inflects where c exp(-a (t - t0)) = 1
    a = float(math.log(math.log(K / V0)) / (rng.uniform(*INFLECTION) * (days[-1] - t0)))
    true_v = K * np.exp(np.log(V0 / K) * np.exp(-a * (days - t0)))
    ratio = rng.uniform(1.2, 1.8)
    w = np.cbrt(6.0 * true_v / (np.pi * ratio)) * np.exp(DIAMETER_NOISE * rng.standard_normal(N_POINTS))
    L = ratio * np.cbrt(6.0 * true_v / (np.pi * ratio)) * np.exp(DIAMETER_NOISE * rng.standard_normal(N_POINTS))
    w, L = np.round(np.minimum(w, L), 1), np.round(np.maximum(w, L), 1)
    volumes = [float(f"{v:.1f}") for v in (np.pi / 6.0) * w * w * L]
    times = [float(f"{t:.1f}") for t in days]
    return Subject(sid, tuple(times), tuple(volumes), a, K)


def _sigmoid_shaped(s: Subject) -> bool:
    """The least-squares logistic exists and inflects inside the span.

    Noise can make a series look linear or concave; its best logistic then
    runs off to an inflection far outside the data, and no interpolant is
    defined. Such draws are not growth curves and are redrawn.
    """
    (A, B, k, tau0), _ = fit_logistic(s.taus, s.volumes, iters=2000)
    return B > 0 and 1.0 < k < 50.0 and 0.15 < tau0 < 0.85


def make_cohort(seed: int, n_subjects: int) -> list[Subject]:
    """Gompertz growth read through noisy calipers, volume (pi/6) w^2 L.

    Each subject draws a carrying capacity K, a start volume and day, gaps
    of 2-4 days, where in its span the growth inflects (which sets the rate
    a) and an aspect ratio L/w; both diameters carry log-normal noise and
    are read to 0.1 mm. Draws that are not sigmoid-shaped are redrawn.
    """
    rng = np.random.default_rng(seed)
    cohort = []
    for sid in range(1, n_subjects + 1):
        s = _draw_subject(rng, sid)
        while not _sigmoid_shaped(s):
            s = _draw_subject(rng, sid)
        cohort.append(s)
    return cohort


def write_cohort_csv(cohort: list[Subject], path: Path) -> None:
    """Write the CSV the pipeline reads."""
    lines = ["# generated caliper cohort: ellipsoid volumes (pi/6) w^2 L in mm^3", "id,time_days,volume_mm3"]
    for s in cohort:
        lines += [f"{s.sid},{t:.1f},{v:.1f}" for t, v in zip(s.times, s.volumes)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, *, data: Path, out: Path, seed: int, subjects, factor: int, K_by_subject=None) -> dict:
    """Write the run YAML; returns the RunConfig fields it must resolve to."""
    node_schedule = shorten(NODE_SCHEDULE, factor)
    ude_schedule = shorten(UDE_SCHEDULE, factor)
    doc = {
        "data": str(data),
        "subjects": list(subjects),
        "out_dir": str(out),
        "seed": seed,
        "n_collocation": N_COLLOCATION,
        "solver_steps": SOLVER_STEPS,
        "gompertz": {"a": GOMPERTZ_A, "K": GOMPERTZ_K},
        "neural_ode": {"hidden": list(NODE_HIDDEN), "schedule": [list(s) for s in node_schedule]},
        "ude": {"hidden": list(UDE_HIDDEN), "schedule": [list(s) for s in ude_schedule]},
        "forecast": {"fractions": list(FRACTIONS)},
        "recover": {"K_by_subject": dict(K_by_subject or {})},
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return {
        "data_path": str(data),
        "subjects": tuple(subjects),
        "out_dir": str(out),
        "seed": seed,
        "n_collocation": N_COLLOCATION,
        "solver_steps": SOLVER_STEPS,
        "gompertz_a": GOMPERTZ_A,
        "gompertz_K": GOMPERTZ_K,
        "node_hidden": NODE_HIDDEN,
        "node_schedule": node_schedule,
        "ude_hidden": UDE_HIDDEN,
        "ude_schedule": ude_schedule,
        "fractions": FRACTIONS,
        "basis_K_by_subject": dict(K_by_subject or {}),
    }


def guard_config(resolved, intended: dict) -> None:
    """Refuse a config whose resolved fields differ from the intended ones.

    The loader ignores unknown keys, so a misspelled key would silently
    fall back to a default (the 2,500-epoch UDE schedule, all subjects).
    """
    for name, want in intended.items():
        got = getattr(resolved, name)
        if isinstance(want, tuple):
            got = tuple(tuple(g) if isinstance(g, (list, tuple)) else g for g in got)
        if got != want:
            raise SystemExit(f"config guard: {name} resolved to {got!r}, intended {want!r}")


# --- checkpoints with known dynamics ------------------------------------


def _hidden_layers(rng, widths):
    """Random tanh layers; the first is steep enough to resolve [0, 1]."""
    thetas = []
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        limit = 6.0 if i == 0 else 2.0 * math.sqrt(6.0 / (fi + fo))
        thetas += [rng.uniform(-limit, limit, fo * fi), rng.uniform(-2.0, 2.0, fo)]
    return thetas


def fit_network(rng, widths, v_grid, target, draws: int = 1) -> np.ndarray:
    """Seeded hidden layers, output layer by least squares on the grid.

    Of `draws` hidden-layer draws the one with the smallest maximum error
    on the grid is kept. Returns the flat theta.
    """
    best, best_err = None, math.inf
    for _ in range(draws):
        hidden = _hidden_layers(rng, widths[:-1])
        h = v_grid.reshape(1, -1)
        for W, b in unpack(widths[:-1], np.concatenate(hidden)):
            h = np.tanh(W @ h + b[:, None])
        coef, *_ = np.linalg.lstsq(np.vstack([h, np.ones_like(v_grid)]).T, target, rcond=None)
        theta = np.concatenate(hidden + [coef[:-1], coef[-1:]])
        err = float(np.max(np.abs(mlp(unpack(widths, theta), v_grid) - target)))
        if err < best_err:
            best, best_err = theta, err
    return best


def node_law(s: Subject, V):
    """Gompertz dV/dt = a V ln(K/V), the neural-ODE checkpoints' dynamics."""
    return s.a * V * np.log(s.K / V)


def ude_law(s: Subject, alpha: float, V):
    """alpha V [ln(K/v_min) (1 - V/K) / (1 - v_min/K) - ln(K/V)].

    A UDE's normalized right-hand side is proportional to v, so its physical
    law must vanish at V = v_min. This one does, is positive up to K, where
    it saturates, and is -alpha phi2 + alpha ln(K/v_min) / (1 - v_min/K) phi3
    in the recovery basis.
    """
    return alpha * V * (math.log(s.K / s.v_min) * (1.0 - V / s.K) / (1.0 - s.v_min / s.K) - np.log(s.K / V))


def _v_high(s: Subject) -> float:
    return 1.05 * max(1.0, (s.K - s.v_min) / s.v_scale)


def build_checkpoints(s: Subject, rng, out_dir: Path, seed: int) -> float:
    """Write neural_ode.ckpt.json and ude.ckpt.json for one subject.

    Hidden layers are drawn from `rng`; each output layer is the least-
    squares fit of the normalized law dv/dtau = (t_scale / v_scale) dV/dt on
    a grid of states. Returns the UDE law's alpha.
    """
    rate = s.t_scale / s.v_scale
    grid = np.linspace(-0.5 * s.v_min / s.v_scale, _v_high(s), 400)
    node_theta = fit_network(rng, (1, *NODE_HIDDEN, 1), grid, rate * node_law(s, s.v_min + s.v_scale * grid))

    # growth rate in tau near v = 0 of 10-14, so the solve from the floored
    # initial state saturates inside [0, 1] and samples the whole law
    alpha = float(rng.uniform(10.0, 14.0)) / (s.t_scale * (1.0 - s.v_min * math.log(s.K / s.v_min) / (s.K - s.v_min)))
    v = np.linspace(1e-4, _v_high(s), 400)
    per_v = rate * ude_law(s, alpha, s.v_min + s.v_scale * v) / v
    saturation = 1.0 + 0.5 * v
    nn1 = fit_network(rng, (1, *UDE_HIDDEN, 1), v, per_v / saturation, draws=16)
    nn2 = fit_network(rng, (1, *UDE_HIDDEN, 1), v, saturation, draws=4)

    for variant, nets in (("neural_ode", [(NODE_HIDDEN, node_theta)]), ("ude", [(UDE_HIDDEN, nn1), (UDE_HIDDEN, nn2)])):
        blob = {
            "format": "tumordyn-model-v1",
            "variant": variant,
            "time_input": False,
            "networks": [
                {"format": "tumordyn-mlp-v1", "layer_widths": [1, *hidden, 1], "seed": seed, "theta_hex": [float(t).hex() for t in theta]}
                for hidden, theta in nets
            ],
        }
        (out_dir / f"{variant}.ckpt.json").write_text(json.dumps(blob, indent=1), encoding="utf-8")
    return alpha
