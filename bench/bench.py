"""The tumordyn benchmark: three seeded workloads through the public CLI.

    python3 bench/bench.py --workload run_all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run builds the workload's inputs
from --seed, imports the package from ./src, repeats whole rounds of the
workload until --seconds are spent, checks every round's outputs against
independent recomputations (oracle.py), and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics,
from a run with spans around the package's public functions (spans.py).
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
from oracle import CheckError, close, read_csv, require, strict_json
from spans import STAGES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SECONDS, SETUP_MIN, SETUP_MAX = 2.0, 3, 25  # set-up is repeated; its median is reported
FACTOR = 100  # every workload shortens each schedule stage by this factor
MODULES = ("autodiff", "cli", "config", "dataio", "forecast", "models", "neuralnet", "odeint", "svgplot", "symrec")


def import_package() -> dict:
    """(Re-)import tumordyn from ./src; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "tumordyn" or m.startswith("tumordyn.")]:
        del sys.modules[name]
    importlib.import_module("tumordyn.cli")
    mods = {name: sys.modules.get(f"tumordyn.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"imported tumordyn from {origin}, not from {SRC}")
    return mods


def call_cli(mods, argv) -> tuple[int, str]:
    """Run tumordyn.cli.main in-process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods["cli"].main([str(a) for a in argv])
    return rc, err.getvalue()


def dir_bytes(path: Path, skip=()) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file() and p.name not in skip)


# --- shared output checks --------------------------------------------------


def check_json_files(out: Path) -> None:
    for path in out.rglob("*.json"):
        strict_json(path)


def own_data(s: inputs.Subject):
    """Normalized collocation targets from the benchmark's own logistic fit."""
    p, _ = oracle.fit_logistic(s.taus, s.volumes)
    taus = np.linspace(0.0, 1.0, inputs.N_COLLOCATION)
    return taus, (oracle.logistic(p, taus) - s.v_min) / s.v_scale


def check_interpolant(s: inputs.Subject, d: Path) -> None:
    """interpolant.csv samples the least-squares logistic of the series."""
    rows = read_csv(d / "interpolant.csv")
    taus, values = own_data(s)
    require(len(rows) == len(taus), f"{d}: {len(rows)} interpolant rows")
    for r, tau, v in zip(rows, taus, values):
        require(close(float(r["tau"]), tau, 1e-12, 1e-15), f"{d}: interpolant tau {r['tau']}")
        require(close(float(r["time_days"]), s.t_min + tau * s.t_scale, 1e-12), f"{d}: interpolant time {r['time_days']}")
        require(
            abs(float(r["volume_mm3"]) - (s.v_min + v * s.v_scale)) <= 1e-6 * s.v_scale,
            f"{d}: interpolant volume {r['volume_mm3']} is not the least-squares logistic",
        )


def check_gompertz(s: inputs.Subject, d: Path) -> None:
    """gompertz.csv follows the closed-form solution from its first state.

    The tolerance is twice the error of the benchmark's own RK4 with the
    same steps, so it allows the method's discretization error and no more.
    """
    rows = read_csv(d / "gompertz.csv")
    t = np.array([float(r["t"]) for r in rows])
    V = np.array([float(r["state"]) for r in rows])
    require(len(rows) == inputs.SOLVER_STEPS + 1, f"{d}: {len(rows)} gompertz rows")
    require(close(t[0], s.t_min, 1e-12) and close(t[-1], s.times[-1], 1e-12), f"{d}: gompertz span {t[0]}..{t[-1]}")
    a, K = inputs.GOMPERTZ_A, inputs.GOMPERTZ_K
    exact = oracle.gompertz_exact(t, V[0], a, K, t[0])
    _, own = oracle.rk4(lambda v: a * v * np.log(K / v), V[0], t[0], t[-1], inputs.SOLVER_STEPS)
    err, own_err = (float(np.max(np.abs(x - exact) / exact)) for x in (V, own))
    require(err <= 2.0 * own_err + 1e-12, f"{d}: gompertz.csv departs from the closed form by {err:.2e} (RK4: {own_err:.2e})")


def check_fit(s: inputs.Subject, d: Path, variant: str, epochs: int, best_loss=None) -> None:
    """Loss trace shape, and the checkpoint's loss recomputed independently."""
    rows = read_csv(d / f"{variant}_fit.csv")
    require([int(r["epoch"]) for r in rows] == list(range(epochs + 1)), f"{d}: {variant} loss epochs")
    losses = [float(r["loss"]) for r in rows]
    require(min(losses) < losses[0], f"{d}: {variant} loss never fell below epoch 0")
    if best_loss is not None:
        require(best_loss == min(losses), f"{d}: {variant} best_loss {best_loss} is not the trace minimum")
    ckpt = oracle.load_checkpoint(d / f"{variant}.ckpt.json")
    require(ckpt["variant"] == variant, f"{d}: checkpoint variant {ckpt['variant']}")
    taus, values = own_data(s)
    loss = oracle.collocation_loss(variant, ckpt["nets"], taus, values, inputs.SOLVER_STEPS)
    require(close(loss, min(losses), 1e-6), f"{d}: {variant} checkpoint loss {loss!r} != reported best {min(losses)!r}")


# --- workloads -------------------------------------------------------------


class Workload:
    """One seeded workload; a round is one pass of its entry points."""

    n_subjects = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.csv, self.yaml, self.out = work / "cohort.csv", work / "run.yaml", work / "out"

    def setup(self) -> None:
        self.cohort = inputs.make_cohort(self.seed, self.n_subjects)
        inputs.write_cohort_csv(self.cohort, self.csv)
        self.intended = inputs.write_config(
            self.yaml, data=self.csv, out=self.out, seed=self.seed,
            subjects=[s.sid for s in self.cohort], factor=FACTOR, K_by_subject=self.basis_K(),
        )

    def basis_K(self):
        return {}

    def guard(self, mods) -> None:
        inputs.guard_config(mods["config"].load_config(str(self.yaml)), self.intended)

    def prepare(self, mods) -> None:
        """Untimed work between set-up and the first round."""

    def reset(self) -> set:
        """Clear program outputs; returns the names of files to keep."""
        shutil.rmtree(self.out, ignore_errors=True)
        return set()

    def layer_extras(self) -> dict:
        """Per-layer metrics read from the program's own outputs."""
        return {f"cli.stage.{k}.s": 0.0 for k in STAGES}

    @property
    def epochs(self) -> dict:
        return {v: sum(ep for _, ep in self.intended[f"{k}_schedule"]) for v, k in (("neural_ode", "node"), ("ude", "ude"))}


class RunAll(Workload):
    """`tumordyn run-all` on two subjects at default widths.

    Its operations are the fits and forecast cells. The two recoveries per
    subject run and are timed but not counted: FISTA stops unconverged on
    some seeds' briefly trained UDEs (see CHANGES.md), and an operation that
    fails on some seeds only cannot be compared between sets of runs.
    """

    n_subjects = 2
    unconverged = 0

    def run(self, mods) -> tuple[int, int]:
        _, err = call_cli(mods, ["run-all", "--config", self.yaml, "--seed", self.seed])
        failed = 0
        for s in self.cohort:
            path = self.out / f"subject_{s.sid}" / "summary.json"
            if not path.exists():
                raise CheckError(f"run-all wrote no {path}: {err.strip()}")
            summary = strict_json(path)
            stages = {e["stage"] for e in summary["errors"]}
            require(not stages & {"interpolate", "gompertz"}, f"{path}: {summary['errors']}")
            failed += len(stages & {"train-node", "train-ude"})
            cells = summary.get("forecast") or []
            failed += 6 if "forecast" in stages else sum(1 for c in cells if c["error"] is not None)
            self.unconverged += len(stages & {"recover-neural_ode", "recover-ude"})
        return 8 * len(self.cohort), failed

    def check(self) -> None:
        check_json_files(self.out)
        for s in self.cohort:
            d = self.out / f"subject_{s.sid}"
            summary = strict_json(d / "summary.json")
            stages = {e["stage"] for e in summary["errors"]}
            sig = summary["sigmoid"]
            p = (sig["A"], sig["B"], sig["k"], sig["tau0"])
            sse = float(np.sum((oracle.logistic(p, s.taus) - np.array(s.volumes)) ** 2))
            require(close(sig["sse"], sse, 1e-9), f"{d}: sigmoid sse {sig['sse']!r}, recomputed {sse!r}")
            check_interpolant(s, d)
            check_gompertz(s, d)
            for variant, stage in (("neural_ode", "train-node"), ("ude", "train-ude")):
                if stage not in stages:
                    check_fit(s, d, variant, self.epochs[variant], summary[variant]["best_loss"])
            for row in read_csv(d / "forecast.csv"):
                if row["test_mse"] == "nan":
                    continue
                pct = int(round(float(row["fraction"]) * 100))
                cells = read_csv(d / f"forecast_{row['variant']}_{pct}.csv")
                test = [(float(c["v_pred"]) - float(c["v_true"])) ** 2 for c in cells if c["is_test"] == "1"]
                require(test and close(float(row["test_mse"]), float(np.mean(test)), 1e-12),
                        f"{d}: forecast {row['variant']} {pct}% test_mse {row['test_mse']} != recomputed")

    def layer_extras(self) -> dict:
        totals = dict.fromkeys(STAGES, 0.0)
        for s in self.cohort:
            for stage, seconds in strict_json(self.out / f"subject_{s.sid}" / "timings.json").items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return {f"cli.stage.{k}.s": v for k, v in totals.items()}


class TrainUDE(Workload):
    """`tumordyn train-ude`: one UDE fit through the shortened schedule."""

    def prepare(self, mods) -> None:
        """The tape gradient at the initial theta matches central differences."""
        s = self.cohort[0]
        models = mods["models"]
        config = mods["config"].load_config(str(self.yaml)).ude_config()
        taus, values = own_data(s)
        template = models.init_model("ude", config)
        theta0 = models.model_theta(template)
        loss_fn = models.make_loss_fn(template, list(zip(taus.tolist(), values.tolist())), config)
        value, grad = mods["neuralnet"].value_and_grad(loss_fn, theta0)
        n1 = theta0.size // 2
        widths = (1, *inputs.UDE_HIDDEN, 1)

        def own_loss(theta):
            return oracle.collocation_loss("ude", [(widths, theta[:n1]), (widths, theta[n1:])], taus, values, inputs.SOLVER_STEPS)

        require(close(value, own_loss(theta0), 1e-9), f"initial loss {value!r} != recomputed {own_loss(theta0)!r}")
        for i in np.random.default_rng(self.seed).choice(theta0.size, 16, replace=False):
            h = 1e-6 * max(1.0, abs(theta0[i]))
            up, down = theta0.copy(), theta0.copy()
            up[i] += h
            down[i] -= h
            fd = (own_loss(up) - own_loss(down)) / (2.0 * h)
            require(close(grad[i], fd, 1e-5, 1e-8), f"gradient[{i}] = {grad[i]!r}, central difference {fd!r}")

    def run(self, mods) -> tuple[int, int]:
        rc, _ = call_cli(mods, ["train-ude", "--config", self.yaml, "--subject", 1, "--seed", self.seed])
        return 1, int(rc != 0)

    def check(self) -> None:
        s = self.cohort[0]
        d = self.out / "subject_1"
        check_json_files(self.out)
        check_fit(s, d, "ude", self.epochs["ude"])
        ckpt = oracle.load_checkpoint(d / "ude.ckpt.json")
        _, values = own_data(s)
        _, states = oracle.rk4(oracle.rhs_fn("ude", ckpt["nets"]), oracle.initial_state("ude", values[0]), 0.0, 1.0, inputs.SOLVER_STEPS)
        traj = read_csv(d / "ude_traj.csv")
        got = np.array([float(r["state"]) for r in traj])
        want = s.v_min + s.v_scale * states
        require(got.shape == want.shape and np.allclose(got, want, rtol=1e-6, atol=1e-9 * s.v_scale), f"{d}: ude_traj.csv differs from the checkpoint's solve")


class RecoverCohort(Workload):
    """interpolate, gompertz and recover for every subject of a cohort."""

    n_subjects = 24

    def basis_K(self):
        return {s.sid: s.K for s in self.cohort}

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng([self.seed, 1])
        self.alphas = {}
        for s in self.cohort:
            d = self.out / f"subject_{s.sid}"
            d.mkdir(parents=True, exist_ok=True)
            self.alphas[s.sid] = inputs.build_checkpoints(s, rng, d, self.seed)

    def reset(self) -> set:
        keep = {"neural_ode.ckpt.json", "ude.ckpt.json"}
        for path in self.out.rglob("*"):
            if path.is_file() and path.name not in keep:
                path.unlink()
        return keep

    def run(self, mods) -> tuple[int, int]:
        failed = 0
        for s in self.cohort:
            for command in ("interpolate", "gompertz", "recover"):
                rc, _ = call_cli(mods, [command, "--config", self.yaml, "--subject", s.sid, "--seed", self.seed])
                failed += rc != 0
        return 3 * len(self.cohort), failed

    def check(self) -> None:
        for s in self.cohort:
            d = self.out / f"subject_{s.sid}"
            check_interpolant(s, d)
            check_gompertz(s, d)
            beta = np.array([float(r["coefficient"]) for r in read_csv(d / "recovered_neural_ode.csv")])
            require(list(np.nonzero(beta)[0]) == [1], f"{d}: neural ODE recovery {beta} is not the single phi2 term")
            require(abs(beta[1] - s.a) <= 0.01 * s.a, f"{d}: phi2 coefficient {beta[1]!r}, generator a = {s.a!r}")
            self.check_ude(s, d)

    def check_ude(self, s: inputs.Subject, d: Path) -> None:
        """The recovered law matches the generator's along the trajectory.

        The recovery regresses the network's derivative, which misses the
        law by the network's own fit error e. Least squares onto basis terms
        that span the law moves the fit by at most |e|, and the L1 penalty
        and thresholding by at most their slack (oracle.lasso_slack); the
        tolerance doubles both.
        """
        beta = np.array([float(r["coefficient"]) for r in read_csv(d / "recovered_ude.csv")])
        f = oracle.rhs_fn("ude", oracle.load_checkpoint(d / "ude.ckpt.json")["nets"])
        v0 = (float(read_csv(d / "interpolant.csv")[0]["volume_mm3"]) - s.v_min) / s.v_scale
        times, states = oracle.rk4(f, oracle.initial_state("ude", v0), 0.0, 1.0, inputs.SOLVER_STEPS)
        v = np.interp(np.linspace(0.0, 1.0, 101), times, states)
        V = s.v_min + s.v_scale * v
        law = inputs.ude_law(s, self.alphas[s.sid], V)
        net = (s.v_scale / s.t_scale) * np.array([f(x) for x in v])
        Phi = oracle.basis(V, s.K)
        miss = np.linalg.norm(Phi @ beta - law)
        tol = 2.0 * (np.linalg.norm(net - law) + oracle.lasso_slack(Phi, net, beta))
        require(miss <= tol, f"{d}: UDE recovery misses the generator law by {miss:.3g} (tolerance {tol:.3g})")


WORKLOADS = {"run_all": RunAll, "train_ude": TrainUDE, "recover_cohort": RecoverCohort}


# --- measurement -------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's resident high-water mark.

    VmHWM belongs to the process image; ru_maxrss is not used where VmHWM
    exists, because Linux carries it over from the parent through fork and
    exec, so it would read the caller's peak whenever that is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(workload: Workload, mods: dict, seconds: float, tracer: Tracer | None):
    """Whole rounds until the next one would end past `seconds`."""
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        keep = workload.reset()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            n, bad = workload.run(mods)
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
            if tracer is not None:
                tracer.uninstall()
        attempted, failed = attempted + n, failed + bad
        workload.check()
        record = {"wall_s": wall, "cpu_s": cpu}
        if tracer is not None:
            record.update(tracer.layer_metrics())
            record.update(workload.layer_extras())
            record["cli.artifact_bytes"] = dir_bytes(workload.out, skip=keep)
        rounds.append(record)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tumordyn" / "__init__.py").is_file():
        print(f"no tumordyn sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    setups = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        work.mkdir(parents=True)
        mods = import_package()
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.setup()
        setups.append(time.perf_counter() - t0)

    tracer = Tracer(mods) if args.trace else None
    correct = True
    try:
        workload.guard(mods)
        workload.prepare(mods)
        rounds, attempted, failed = measure(workload, mods, args.seconds, tracer)
    except CheckError as exc:
        print(f"[{args.workload}] check failed: {exc}", file=sys.stderr)
        correct, rounds, attempted, failed = False, [], 1, 0

    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    for name in rounds[0] if rounds else ():
        values[name] = statistics.median(r[name] for r in rounds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted} if correct else {}
    if tracer is not None:
        if tracer.missing:
            print(f"[{args.workload}] not traced (absent): {', '.join(tracer.missing)}")
        if rounds:
            print(f"[{args.workload}] traced wall_s per round: {statistics.median(r['wall_s'] for r in rounds)!r}")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"[{args.workload}] seed {args.seed}: {attempted} operations, {failed} failed; round wall_s: {walls}")
    if getattr(workload, "unconverged", 0):
        print(f"[{args.workload}] recoveries left out, not converged: {workload.unconverged}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
