"""Measurement ingestion, normalization, and sigmoid interpolation.

Input CSV schema (UTF-8, `#` starts a comment line):

    id,time_days,volume_mm3
    1,22,80.0
    1,27,400.0
    ...

One row per caliper measurement. Times are days, volumes mm^3. Subjects are
identified by the integer `id` column. Numbers are written in ASCII without
`_` separators, which Python's int() and float() would also read.

The sigmoid interpolant is a four-parameter logistic fitted over normalized
time, V(tau) = A + B / (1 + exp(-k (tau - tau0))), which serves as the
smooth training target between sparse measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .neuralnet import as_int

__all__ = [
    "TumorSeries",
    "NormalizationMap",
    "SigmoidFit",
    "CsvFormatError",
    "SubjectNotFoundError",
    "SigmoidFitError",
    "load_series",
    "load_cohort",
    "make_norm_map",
    "fit_sigmoid",
    "sample_interpolant",
]


class CsvFormatError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SubjectNotFoundError(LookupError):
    pass


class SigmoidFitError(RuntimeError):
    """Fit did not converge; carries the best parameters reached."""

    def __init__(self, message: str, best=None, iterations: int = 0):
        self.best = best
        self.iterations = iterations
        super().__init__(message)


@dataclass(frozen=True)
class TumorSeries:
    """One subject's measured (time, volume) points in physical units."""

    subject_id: int
    times: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        volumes = np.asarray(self.volumes, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "volumes", volumes)
        if times.shape != volumes.shape or times.ndim != 1:
            raise ValueError("times and volumes must be 1-d and equally long")
        if times.size < 4:
            raise ValueError(f"need at least 4 measurements, got {times.size}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("measurement times must be strictly increasing")
        if not np.all(volumes > 0):
            raise ValueError("volumes must be positive")


@dataclass(frozen=True)
class NormalizationMap:
    """Affine min-max scalers between physical units and [0, 1]."""

    t_min: float
    t_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        if not (self.t_max > self.t_min):
            raise ValueError(f"degenerate time range [{self.t_min}, {self.t_max}]")
        if not (self.v_max > self.v_min):
            raise ValueError(f"degenerate volume range [{self.v_min}, {self.v_max}]")

    def normalize_t(self, t):
        return (np.asarray(t, dtype=float) - self.t_min) / (self.t_max - self.t_min)

    def denormalize_t(self, tau):
        return self.t_min + np.asarray(tau, dtype=float) * (self.t_max - self.t_min)

    def normalize_v(self, v):
        return (np.asarray(v, dtype=float) - self.v_min) / (self.v_max - self.v_min)

    def denormalize_v(self, nu):
        return self.v_min + np.asarray(nu, dtype=float) * (self.v_max - self.v_min)

    @property
    def t_scale(self) -> float:
        return self.t_max - self.t_min

    @property
    def v_scale(self) -> float:
        return self.v_max - self.v_min


def _expit(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class SigmoidFit:
    """Four-parameter logistic over normalized time, volumes in mm^3."""

    A: float
    B: float
    k: float
    tau0: float
    sse: float

    def value(self, tau):
        return self.A + self.B * _expit(self.k * (np.asarray(tau, dtype=float) - self.tau0))


_HEADER = ["id", "time_days", "volume_mm3"]


def load_series(path, subject_id: int) -> TumorSeries:
    """Read one subject's rows, sorted by time.

    A row whose fields do not parse or are not finite, in any subject, and a
    duplicated time of this subject raise CsvFormatError naming the line.
    An absent subject raises SubjectNotFoundError, and a series TumorSeries
    rejects (fewer than 4 points, a volume <= 0) ValueError.
    """
    (outcome,) = load_cohort(path, [subject_id])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def load_cohort(path, subject_ids) -> list:
    """`load_series` for each subject id from one parse of the file.

    Returns, per id, its TumorSeries or the exception `load_series` would
    raise for it; a fault in the file as a whole (a bad header or row) is
    every subject's exception, as is a file that cannot be read.
    """
    try:
        rows = _read_rows(path)
    except (OSError, ValueError) as exc:
        return [exc] * len(subject_ids)
    outcomes: list = []
    for subject_id in subject_ids:
        try:
            outcomes.append(_series(rows, subject_id))
        except (LookupError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def _read_rows(path) -> dict[int, list]:
    """Every subject's (line_no, time, volume) rows, in file order."""
    rows: dict[int, list] = {}
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if not header_seen:
                if parts != _HEADER:
                    raise CsvFormatError(line_no, f"expected header {','.join(_HEADER)!r}, got {line!r}")
                header_seen = True
                continue
            if len(parts) != 3:
                raise CsvFormatError(line_no, f"expected 3 fields, got {len(parts)}")
            # int() and float() also read "1_000" and non-ASCII digits
            if not line.isascii() or "_" in line:
                raise CsvFormatError(line_no, f"'_' or a non-ASCII character in {line!r}")
            try:
                sid = int(parts[0])
            except ValueError:
                raise CsvFormatError(line_no, f"bad subject id {parts[0]!r}") from None
            try:
                t = float(parts[1])
                v = float(parts[2])
            except ValueError:
                raise CsvFormatError(line_no, f"bad numeric value in {line!r}") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise CsvFormatError(line_no, f"non-finite value in {line!r}")
            rows.setdefault(sid, []).append((line_no, t, v))
    if not header_seen:
        raise CsvFormatError(1, "file has no header row")
    return rows


def _series(rows: dict[int, list], subject_id: int) -> TumorSeries:
    if subject_id not in rows:
        raise SubjectNotFoundError(f"subject {subject_id} not present (available: {sorted(rows)})")
    ordered = sorted(rows[subject_id], key=lambda r: r[1])
    for (_, t_a, _), (ln_b, t_b, _) in zip(ordered, ordered[1:]):
        if t_a == t_b:
            raise CsvFormatError(ln_b, f"duplicated time point {t_b} for subject {subject_id}")
    times = np.array([r[1] for r in ordered])
    volumes = np.array([r[2] for r in ordered])
    return TumorSeries(subject_id=subject_id, times=times, volumes=volumes)


def make_norm_map(series: TumorSeries) -> NormalizationMap:
    """Min-max map: time over [first, last], volume over [min, max]."""
    return NormalizationMap(
        t_min=float(series.times[0]),
        t_max=float(series.times[-1]),
        v_min=float(series.volumes.min()),
        v_max=float(series.volumes.max()),
    )


def _sigmoid_residual(p, tau, V):
    """Residuals of the logistic at parameters p, and its logistic values s."""
    A, B, k, tau0 = p
    s = _expit(k * (tau - tau0))
    return A + B * s - V, s


def _sigmoid_jacobian(p, tau, s):
    """d residual / d (A, B, k, tau0) from the logistic values s at p."""
    _, B, k, tau0 = p
    ds = s * (1.0 - s)
    return np.column_stack([np.ones_like(tau), s, B * ds * (tau - tau0), -B * ds * k])


# `fit_sigmoid`'s Levenberg-Marquardt iteration limit and convergence tolerances
_LM_MAX_ITER, _LM_GRAD_TOL, _LM_STEP_TOL = 200, 1e-10, 1e-14


def fit_sigmoid(series: TumorSeries, norm_map: NormalizationMap) -> SigmoidFit:
    """Least-squares logistic fit via Levenberg-Marquardt damping.

    Fits physical volumes against normalized time, starting from
    A = min(V), B = range(V), k = 10, tau0 = 0.5. Converges on gradient
    norm <= _LM_GRAD_TOL or on a negligible accepted step; a full damping
    stall (no descent direction representable) also counts as converged
    since the iterate is then at the numerical optimum.
    """
    tau = norm_map.normalize_t(series.times)
    V = series.volumes
    if V.max() == V.min():
        raise SigmoidFitError("constant-volume data: sigmoid amplitude is unidentifiable")

    p = np.array([V.min(), V.max() - V.min(), 10.0, 0.5])
    r, s = _sigmoid_residual(p, tau, V)
    J = _sigmoid_jacobian(p, tau, s)
    sse = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    while iterations < _LM_MAX_ITER:
        iterations += 1
        g = J.T @ r
        if np.max(np.abs(g)) <= _LM_GRAD_TOL:
            converged = True
            break
        JTJ = J.T @ J
        damping = np.diag(np.maximum(np.diag(JTJ), 1e-30))
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(JTJ + lam * damping, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new, s = _sigmoid_residual(p_new, tau, V)
            sse_new = float(r_new @ r_new)
            if sse_new < sse:  # only an accepted trial needs its Jacobian
                p, r, J, sse = p_new, r_new, _sigmoid_jacobian(p_new, tau, s), sse_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            converged = True  # damping exhausted: numerical optimum reached
            break
        if np.linalg.norm(step) <= _LM_STEP_TOL * (1.0 + np.linalg.norm(p)):
            converged = True
            break

    A, B, k, tau0 = p
    if B < 0 and k < 0:
        # mirrored parameterization of the same curve; canonicalize
        A, B, k = A + B, -B, -k
    fit = SigmoidFit(A=float(A), B=float(B), k=float(k), tau0=float(tau0), sse=sse)
    if not converged:
        raise SigmoidFitError(
            f"no convergence after {iterations} iterations (sse={sse:g})",
            best=fit,
            iterations=iterations,
        )
    if B <= 0 or k <= 0 or not (0.0 <= tau0 <= 1.0):
        raise SigmoidFitError(
            f"fit left the admissible region (A={A:g}, B={B:g}, k={k:g}, tau0={tau0:g}); "
            "data is not sigmoid-growth shaped",
            best=fit,
            iterations=iterations,
        )
    return fit


def sample_interpolant(fit: SigmoidFit, n: int) -> list[tuple[float, float]]:
    """n (tau, volume) samples uniform over tau in [0, 1], volume in mm^3."""
    n = as_int(n, "n")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    taus = np.linspace(0.0, 1.0, n)
    values = fit.value(taus)
    return [(float(t), float(v)) for t, v in zip(taus, values)]
