"""Reference figures for bench/README.md: single calls and longer pipelines.

    python3 bench/reference.py [--pipelines]

Prints the machine fingerprint, then the median time of one
`value_and_grad` for each variant at default widths (split into the tape
forward and `backward`, with the tape's node count) and of one
`adam_update`. With --pipelines it also times, on the seed-1 cohorts of
bench.py, `run-all` on two subjects with every stage at 1/50 (3 runs) and
`train-ude` with stages at 1/10 (4 runs), each in a fresh process.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
from bench import ROOT, SRC, WORK, import_package, own_data
from spans import count_nodes

REPEATS = 15


def fingerprint() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return (
        f"{os.cpu_count()} cores, {platform.processor() or platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}, BLAS threads 1, git {rev or 'unknown'}"
    )


def single_calls(mods) -> None:
    models, neuralnet, autodiff = mods["models"], mods["neuralnet"], mods["autodiff"]
    s = inputs.make_cohort(1, 1)[0]
    taus, values = own_data(s)
    data = list(zip(taus.tolist(), values.tolist()))
    for variant, hidden in (("ude", inputs.UDE_HIDDEN), ("neural_ode", inputs.NODE_HIDDEN)):
        config = models.TrainConfig(schedule=((0.01, 1),), hidden=hidden)
        template = models.init_model(variant, config)
        theta = models.model_theta(template)
        loss_fn = models.make_loss_fn(template, data, config)
        total, forward, backward = [], [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            neuralnet.value_and_grad(loss_fn, theta)
            total.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            root = loss_fn(autodiff.Var(theta, op="theta"))
            t1 = time.perf_counter()
            autodiff.backward(root)
            forward.append(t1 - t0)
            backward.append(time.perf_counter() - t1)
        state = neuralnet.AdamState.fresh(theta.size, 0.01)
        grad = np.ones_like(theta)
        adam = []
        for _ in range(200):
            t0 = time.perf_counter()
            neuralnet.adam_update(theta, grad, state)
            adam.append(time.perf_counter() - t0)
        print(
            f"{variant}: {theta.size} parameters; value_and_grad {1e3 * statistics.median(total):.1f} ms, "
            f"{count_nodes(root)} tape nodes; forward {1e3 * statistics.median(forward):.1f} ms, "
            f"backward {1e3 * statistics.median(backward):.1f} ms; adam_update {1e6 * statistics.median(adam):.1f} us"
        )


_CHILD = """
import sys, time
sys.path.insert(0, {bench!r})
sys.path.insert(0, {src!r})
from bench import peak_rss_mb
from tumordyn.cli import main
t0 = time.perf_counter()
rc = main({argv!r})
print(rc, time.perf_counter() - t0, peak_rss_mb())
"""


def pipelines() -> None:
    for label, n_subjects, factor, command, runs in (
        ("run-all, 2 subjects, stages at 1/50", 2, 50, "run-all", 3),
        ("train-ude, 1 subject, stages at 1/10", 1, 10, "train-ude", 4),
    ):
        work = WORK / "reference"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cohort = inputs.make_cohort(1, n_subjects)
        inputs.write_cohort_csv(cohort, work / "cohort.csv")
        inputs.write_config(
            work / "run.yaml", data=work / "cohort.csv", out=work / "out", seed=1,
            subjects=[s.sid for s in cohort], factor=factor,
        )
        argv = [command, "--config", str(work / "run.yaml"), "--seed", "1"]
        results = []
        for _ in range(runs):
            child = subprocess.run(
                [sys.executable, "-c", _CHILD.format(bench=str(ROOT / "bench"), src=str(SRC), argv=argv)],
                capture_output=True, text=True, check=True,
            )
            rc, wall, rss = child.stdout.strip().splitlines()[-1].split()
            results.append((float(wall), float(rss), rc))
        walls = ", ".join(f"{w:.1f}" for w, _, _ in results)
        print(f"{label}: wall {walls} s over {runs} runs; peak RSS {max(r for _, r, _ in results):.0f} MB; exit codes {[c for *_, c in results]}")
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pipelines", action="store_true", help="also time the longer CLI runs")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    print(fingerprint())
    single_calls(import_package())
    if args.pipelines:
        pipelines()
    return 0


if __name__ == "__main__":
    sys.exit(main())
