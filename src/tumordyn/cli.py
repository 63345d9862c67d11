"""Command-line pipeline: fit, train, forecast, and recover per subject.

Subcommands:

    interpolate   fit the sigmoid interpolant and write its samples/plot
    gompertz      solve the fixed-parameter Gompertz baseline
    train-node    train the neural ODE on the interpolated series
    train-ude     train the Gompertz-structured UDE
    forecast      train and score the train-fraction forecast cells
    recover       sparse symbolic recovery from saved model checkpoints
    run-all       everything above for every configured subject, plus
                  aggregate tables

Common flags, before or after the command: --config <yaml>, --subject <id>,
--out <dir>, --seed <int>, --data <csv>. Artifacts land in
<out>/subject_<id>/; `run-all` adds <out>/table_results.csv and
<out>/forecast_summary.csv. Every SVG plot has a CSV twin carrying the same
numbers. Exit code is 0 only if the config loaded and every stage succeeded.

Every CSV artifact is written by this module's `_write_csv`, in one
dialect: UTF-8, the csv module's default dialect, a header row, and floats
as `repr`. Each stage states its table's columns next to its file name.

Every fit and forecast cell trains through `models.train_batch`. A cell's
training part comes from `_cell_parts`, and `stage_forecast` scores each
trained cell with `forecast.score`, the one place a cell's failure becomes
its error row; the commands differ only in which fits share a batch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, models, symrec
from .forecast import SplitSpec, score, split
from .config import RunConfig, load_config
from .odeint import GompertzParams
from .svgplot import PlotStyle, emit_plot

__all__ = ["run_all", "main", "emit_plot"]

_CURVE_SAMPLES = 101  # dense grid for plotted curves


@dataclass
class _SubjectContext:
    subject_id: int
    series: dataio.TumorSeries
    norm_map: dataio.NormalizationMap
    sigmoid: dataio.SigmoidFit
    data: list[tuple[float, float]]  # normalized (tau, v) collocation points
    out_dir: Path


def _prepare_subject(config: RunConfig, series: dataio.TumorSeries) -> _SubjectContext:
    norm_map = dataio.make_norm_map(series)
    sigmoid = dataio.fit_sigmoid(series, norm_map)
    samples = dataio.sample_interpolant(sigmoid, config.n_collocation)
    data = [(tau, float(norm_map.normalize_v(v))) for tau, v in samples]
    out_dir = Path(config.out_dir) / f"subject_{series.subject_id}"
    out_dir.mkdir(parents=True, exist_ok=True)
    return _SubjectContext(series.subject_id, series, norm_map, sigmoid, data, out_dir)


def _physical_targets(ctx: _SubjectContext):
    taus = np.array([t for t, _ in ctx.data])
    volumes = ctx.norm_map.denormalize_v(np.array([v for _, v in ctx.data]))
    return taus, volumes


def _plot_against_target(
    ctx: _SubjectContext, name: str, label: str, predicted, title: str, split_x=None
) -> None:
    """Plot `predicted`, a volume per collocation point, against the
    interpolated target as <name>.svg."""
    taus, target_volumes = _physical_targets(ctx)
    emit_plot(
        ctx.out_dir / f"{name}.svg",
        list(ctx.norm_map.denormalize_t(taus)),
        [(label, list(predicted)), ("interpolated target", list(target_volumes))],
        PlotStyle(title, "time [days]", "volume [mm^3]", split_x=split_x),
    )


def _write_csv(path, header, rows) -> None:
    """Write one artifact table, the only way an artifact CSV is written:
    UTF-8, the csv module's default dialect, a header row, and each float
    (numpy's included) as the `repr` of a Python float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)


def _cell_parts(config: RunConfig, data) -> list:
    """The training part of each forecast cell, in sorted-fraction order."""
    return [split(data, SplitSpec(fraction))[0] for fraction in sorted(config.fractions)]


def _train_members(config: RunConfig, variant: str, jobs) -> list[tuple[list, float]]:
    """Train every dataset of every job as one `models.train_batch`.

    Returns, per job, the training outcome of each of its datasets, and its
    share of the batch's wall time, in proportion to its number of
    datasets. An exception from the batch as a whole is every member's
    outcome.
    """
    datasets = [data for job in jobs for data in job]
    start = time.perf_counter()
    try:
        train_config = config.node_config() if variant == "neural_ode" else config.ude_config()
        outcomes = models.train_batch(variant, datasets, train_config)
    except Exception as exc:  # noqa: BLE001 - a batch-wide failure fails each member
        outcomes = [exc] * len(datasets)
    seconds = time.perf_counter() - start
    shares, k = [], 0
    for job in jobs:
        shares.append((outcomes[k : k + len(job)], seconds * len(job) / len(datasets)))
        k += len(job)
    return shares


# --- stages -------------------------------------------------------------


def stage_interpolate(config: RunConfig, ctx: _SubjectContext) -> dict:
    samples = dataio.sample_interpolant(ctx.sigmoid, config.n_collocation)
    rows = [(tau, ctx.norm_map.denormalize_t(tau), v) for tau, v in samples]
    _write_csv(ctx.out_dir / "interpolant.csv", ["tau", "time_days", "volume_mm3"], rows)
    dense = dataio.sample_interpolant(ctx.sigmoid, _CURVE_SAMPLES)
    times = [float(ctx.norm_map.denormalize_t(t)) for t, _ in dense]
    emit_plot(
        ctx.out_dir / "interpolant.svg",
        times,
        [("sigmoid interpolant", [v for _, v in dense])],
        PlotStyle("Tumor volume interpolation", "time [days]", "volume [mm^3]"),
        scatter=("measured", ctx.series.times, ctx.series.volumes),
    )
    s = ctx.sigmoid
    return {"A": s.A, "B": s.B, "k": s.k, "tau0": s.tau0, "sse": s.sse}


def stage_gompertz(config: RunConfig, ctx: _SubjectContext) -> dict:
    params = GompertzParams(config.gompertz_a, config.gompertz_K)
    model = models.GompertzModel(params)
    v0 = float(ctx.sigmoid.value(0.0))
    t_min, t_max = ctx.norm_map.t_min, ctx.norm_map.t_max
    traj = models.solve(model, v0, (t_min, t_max), config.solver_steps)
    _write_csv(ctx.out_dir / "gompertz.csv", ["t", "state"], zip(traj.times, traj.states))

    taus, target_volumes = _physical_targets(ctx)
    predicted = np.interp(ctx.norm_map.denormalize_t(taus), traj.times, traj.states)
    mse_physical = float(np.mean((predicted - target_volumes) ** 2))
    mse_normalized = mse_physical / ctx.norm_map.v_scale**2
    _plot_against_target(ctx, "gompertz", "Gompertz model", predicted, "Gompertz baseline")
    return {
        "a": params.a,
        "K": params.K,
        "loss_normalized": mse_normalized,
        "loss_physical": mse_physical,
        "clamp_events": traj.clamp_events,
    }


def _write_fit(config: RunConfig, ctx: _SubjectContext, variant: str, fit):
    """Write a full fit's artifacts; `fit` is its training outcome, and an
    exception there is raised here."""
    if isinstance(fit, Exception):
        raise fit
    model, report = fit
    # epoch 0 is the loss before any update
    losses = (report.initial_loss, *report.loss_history)
    _write_csv(ctx.out_dir / f"{variant}_fit.csv", ["epoch", "loss"], enumerate(losses))
    models.save_model(model, ctx.out_dir / f"{variant}.ckpt.json", seed=config.seed)

    traj = models.solve(model, ctx.data[0][1], (0.0, 1.0), config.solver_steps)
    states = ctx.norm_map.denormalize_v(traj.states)
    times = ctx.norm_map.denormalize_t(traj.times)
    _write_csv(ctx.out_dir / f"{variant}_traj.csv", ["t", "state"], zip(times, states))

    taus, _ = _physical_targets(ctx)
    predicted = np.interp(taus, traj.times, states)
    label = "Neural ODE" if variant == "neural_ode" else "UDE"
    _plot_against_target(ctx, variant, label, predicted, f"{label} fit")
    physical_scale = ctx.norm_map.v_scale**2
    chunk = {
        "initial_loss": report.initial_loss,
        "final_loss": report.final_loss,
        "best_loss": report.best_loss,
        "best_epoch": report.best_epoch,
        "initial_loss_physical": report.initial_loss * physical_scale,
        "final_loss_physical": report.final_loss * physical_scale,
        "best_loss_physical": report.best_loss * physical_scale,
        "epochs": len(report.loss_history),
    }
    return model, chunk


def stage_forecast(config: RunConfig, ctx: _SubjectContext, fits: dict) -> list[dict]:
    """Score and write both variants' forecast cells; returns their rows.

    fits[variant] holds the training outcome of each cell `_cell_parts`
    lists, in its order: a (model, report) pair, or the exception training
    gave, which fails the cell as a scoring error does.
    """
    taus, _ = _physical_targets(ctx)
    rows = []
    for variant in ("neural_ode", "ude"):
        for fraction, fit in zip(sorted(config.fractions), fits[variant]):
            # a failed cell's losses are null in summary.json and nan in forecast.csv
            row = {"variant": variant, "fraction": fraction, "train_loss": None, "test_mse": None, "error": None}
            try:
                if isinstance(fit, Exception):
                    raise fit
                result = score(ctx.data, fraction, fit, config.solver_steps)
                pct = int(round(fraction * 100))
                states = np.interp(taus, result.trajectory.times, result.trajectory.states)
                test_taus = {tau for tau, _ in split(ctx.data, SplitSpec(fraction))[1]}
                cell = [(tau, v, pred, int(tau in test_taus)) for (tau, v), pred in zip(ctx.data, states)]
                _write_csv(ctx.out_dir / f"forecast_{variant}_{pct}.csv", ["tau", "v_true", "v_pred", "is_test"], cell)
                _plot_against_target(
                    ctx,
                    f"forecast_{variant}_{pct}",
                    "forecast",
                    ctx.norm_map.denormalize_v(states),
                    f"{variant} forecast, {pct}% training window",
                    split_x=float(ctx.norm_map.denormalize_t(fraction)),
                )
                row.update(train_loss=result.train_loss, test_mse=result.test_mse)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                row["error"] = str(exc)
            rows.append(row)
    header = ["subject", "variant", "fraction", "train_loss", "test_mse"]
    table = [[ctx.subject_id] + [math.nan if r[key] is None else r[key] for key in header[1:]] for r in rows]
    _write_csv(ctx.out_dir / "forecast.csv", header, table)
    return rows


def stage_recover(config: RunConfig, ctx: _SubjectContext, variant: str, model) -> dict:
    basis = symrec.BasisSet(config.basis_K(ctx.subject_id))
    fit, expression = symrec.recover(
        model,
        ctx.norm_map,
        basis,
        v0=ctx.data[0][1],
        n_samples=config.recover_n_samples,
        solver_steps=config.solver_steps,
    )
    rows = enumerate(fit.beta, start=1)
    _write_csv(ctx.out_dir / f"recovered_{variant}.csv", ["basis_index", "coefficient"], rows)
    print(f"[subject {ctx.subject_id}] {variant}: {expression}")
    return {
        "expression": expression,
        "beta": [float(b) for b in fit.beta],
        "active_set": list(fit.active_set),
        "lambda": fit.lam,
        "residual_norm": fit.residual_norm,
        "K": basis.K,
    }


# --- orchestration -------------------------------------------------------


class _SubjectRun:
    """One subject's summary and stage times, filled stage by stage."""

    def __init__(self, ctx: _SubjectContext):
        self.ctx = ctx
        self.summary: dict = {"subject": ctx.subject_id, "errors": []}
        self.timings: dict = {}

    def stage(self, name: str, fn, batch_seconds: float = 0.0):
        """fn(), with an exception recorded as the stage's error. The
        stage's time is fn's wall time plus `batch_seconds`, this subject's
        share of a training batch run before it."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - stage isolation is the contract
            self.summary["errors"].append({"stage": name, "error": f"{type(exc).__name__}: {exc}"})
            result = None
        self.timings[name] = batch_seconds + time.perf_counter() - start
        return result


def _run_pipeline(config: RunConfig, contexts) -> list[dict]:
    """Every stage for every prepared subject; returns their summaries.

    Training is stage-major. Each subject's full fit and forecast cells of
    one variant are one job. The UDE's narrow forward is bound by per-call
    overhead, so all subjects' UDE jobs train as one batch; the neural
    ODE's wide forward is bound by arithmetic, so each subject's trains as
    a batch of its own. Every member keeps the bits of its solo fit.
    """
    runs = [_SubjectRun(ctx) for ctx in contexts]
    for run in runs:
        run.summary["sigmoid"] = run.stage("interpolate", lambda: stage_interpolate(config, run.ctx))
        run.summary["gompertz"] = run.stage("gompertz", lambda: stage_gompertz(config, run.ctx))
    jobs = [[run.ctx.data] + _cell_parts(config, run.ctx.data) for run in runs]
    ude_fits = _train_members(config, "ude", jobs)
    for run, job, ude_fit in zip(runs, jobs, ude_fits):
        node_fit = _train_members(config, "neural_ode", [job])[0]
        _finish_subject(config, run, {"neural_ode": node_fit, "ude": ude_fit})
        del node_fit  # so the next subject's batch trains without these networks alive
    return [run.summary for run in runs]


def _finish_subject(config: RunConfig, run: _SubjectRun, trained: dict) -> None:
    """Write a subject's fits, forecast cells, recoveries and reports.

    trained[variant] is the subject's job outcome from `_train_members`:
    the full fit's outcome, then each forecast cell's, and the job's share of
    the batch time, which counts toward the variant's training stage.
    """
    ctx, summary = run.ctx, run.summary
    fitted: dict[str, models.DynamicsModel] = {}
    for variant, stage_name in (("neural_ode", "train-node"), ("ude", "train-ude")):
        (full, *_), seconds = trained[variant]
        result = run.stage(stage_name, lambda: _write_fit(config, ctx, variant, full), seconds)
        if result is not None:
            fitted[variant], result = result
        summary[variant] = result
    cell_fits = {variant: outcomes[1:] for variant, (outcomes, _) in trained.items()}
    summary["forecast"] = run.stage("forecast", lambda: stage_forecast(config, ctx, cell_fits))

    summary["recovered"] = {}
    for variant in ("neural_ode", "ude"):
        if variant in fitted:
            summary["recovered"][variant] = run.stage(
                f"recover-{variant}",
                lambda: stage_recover(config, ctx, variant, fitted[variant]),
            )
        else:
            summary["errors"].append(
                {"stage": f"recover-{variant}", "error": f"skipped: {variant} training failed"}
            )
            summary["recovered"][variant] = None

    with open(ctx.out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
    with open(ctx.out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(run.timings, fh, indent=2, sort_keys=True, allow_nan=False)


def run_all(config: RunConfig) -> list[dict]:
    """Every stage for every configured subject, stage-major, plus
    aggregate tables; returns the subjects' summaries in config order.

    The CSV is parsed once. A subject that cannot be prepared (absent, or
    its series unusable) gets a `prepare` error and the others run on; a
    failed stage is recorded in the summary and later independent stages
    still run. Stage wall times go to timings.json, not the summary.
    """
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    summaries, contexts = {}, []
    for sid, series in zip(config.subjects, dataio.load_cohort(config.data_path, config.subjects)):
        try:
            if isinstance(series, Exception):
                raise series
            contexts.append(_prepare_subject(config, series))
        except Exception as exc:  # noqa: BLE001 - subject isolation
            summaries[sid] = {"subject": sid, "errors": [{"stage": "prepare", "error": f"{type(exc).__name__}: {exc}"}]}
    for summary in _run_pipeline(config, contexts):
        summaries[summary["subject"]] = summary
    ordered = [summaries[sid] for sid in config.subjects]

    # per subject: best losses and recovered expressions, and the held-out
    # MSE of each cell, where a missing or failed cell is an empty field
    pcts = [int(round(f * 100)) for f in config.fractions]
    results, forecasts = [], []
    for s in ordered:
        fits, rec = [s.get(v) for v in ("neural_ode", "ude")], s.get("recovered") or {}
        expressions = [(rec.get(v) or {}).get("expression", "") for v in ("neural_ode", "ude")]
        results.append([s["subject"], *(fit["best_loss"] if fit else "" for fit in fits), *expressions])
        cells = {(r["variant"], int(round(r["fraction"] * 100))): r["test_mse"] for r in s.get("forecast") or []}
        mses = [cells.get((v, pct)) for v in ("neural_ode", "ude") for pct in pcts]
        forecasts.append([s["subject"], config.basis_K(s["subject"])] + ["" if m is None else m for m in mses])
    header = ["subject", "node_loss", "ude_loss", "node_expression", "ude_expression"]
    _write_csv(out_root / "table_results.csv", header, results)
    header = ["subject", "K"] + [f"{v}_{pct}" for v in ("neural_ode", "ude") for pct in pcts]
    _write_csv(out_root / "forecast_summary.csv", header, forecasts)
    return ordered


# --- entry point ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tumordyn", description=__doc__.split("\n\n")[0])
    commands = ("interpolate", "gompertz", "train-node", "train-ude", "forecast", "recover", "run-all")
    parser.add_argument("command", choices=commands)
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--subject", type=int, help="subject id")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="PRNG seed")
    parser.add_argument("--data", help="input CSV path")
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.data is not None:
        overrides["data_path"] = args.data
    if args.subject is not None:
        overrides["subjects"] = (args.subject,)
    return load_config(args.config, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        config = _config_from_args(args)
        if command == "run-all":
            summaries = run_all(config)
            failures = [
                (s["subject"], e["stage"], e["error"]) for s in summaries for e in s["errors"]
            ]
            for sid, stage_name, err in failures:
                print(f"[subject {sid} / {stage_name}] {err}", file=sys.stderr)
            return 1 if failures else 0

        subject_id = args.subject if args.subject is not None else config.subjects[0]
        ctx = _prepare_subject(config, dataio.load_series(config.data_path, subject_id))
        if command == "interpolate":
            stage_interpolate(config, ctx)
        elif command == "gompertz":
            stage_gompertz(config, ctx)
        elif command in ("train-node", "train-ude"):
            variant = "neural_ode" if command == "train-node" else "ude"
            outcomes, _ = _train_members(config, variant, [[ctx.data]])[0]
            _write_fit(config, ctx, variant, outcomes[0])
        elif command == "forecast":
            job = _cell_parts(config, ctx.data)
            fits = {v: _train_members(config, v, [job])[0][0] for v in ("neural_ode", "ude")}
            rows = stage_forecast(config, ctx, fits)
            errs = [r for r in rows if r["error"] is not None]
            for r in errs:
                print(f"[{command} / {r['variant']}@{r['fraction']}] {r['error']}", file=sys.stderr)
            if errs:
                return 1
        elif command == "recover":
            for variant in ("neural_ode", "ude"):
                ckpt = ctx.out_dir / f"{variant}.ckpt.json"
                if not ckpt.exists():
                    print(
                        f"[{command}] missing checkpoint {ckpt}; run train-node/train-ude first",
                        file=sys.stderr,
                    )
                    return 1
                model = models.load_model(ckpt)
                if model.variant != variant:
                    print(f"[{command}] {ckpt} holds a {model.variant} checkpoint", file=sys.stderr)
                    return 1
                stage_recover(config, ctx, variant, model)
        return 0
    except Exception as exc:  # noqa: BLE001 - single place that maps errors to exit codes
        print(f"[{command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
