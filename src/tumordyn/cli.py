"""Command-line pipeline: fit, train, forecast, and recover per subject.

Subcommands:

    interpolate   fit the sigmoid interpolant and write its samples/plot
    gompertz      solve the fixed-parameter Gompertz baseline
    train-node    train the neural ODE on the interpolated series
    train-ude     train the Gompertz-structured UDE
    forecast      run the train-fraction forecast suite
    recover       sparse symbolic recovery from saved model checkpoints
    run-all       everything above for every configured subject, plus
                  aggregate tables

Common flags, before or after the command: --config <yaml>, --subject <id>,
--out <dir>, --seed <int>, --data <csv>. Artifacts land in
<out>/subject_<id>/; `run-all` adds <out>/table_results.csv and
<out>/forecast_summary.csv. Every SVG plot has a CSV twin carrying the same
numbers. Exit code is 0 only if every stage succeeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, models, symrec
from .forecast import score_cells, split_cells, suite_rows, write_cell_csv, write_suite_csv
from .config import RunConfig, load_config
from .odeint import GompertzParams, Trajectory, write_trajectory_csv
from .svgplot import PlotStyle, emit_plot

__all__ = ["run_subject", "run_all", "main", "emit_plot"]

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


def _train_config(config: RunConfig, variant: str):
    return config.node_config() if variant == "neural_ode" else config.ude_config()


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
        outcomes = models.train_batch(variant, datasets, _train_config(config, variant))
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
    dataio.write_interpolant_csv(ctx.sigmoid, config.n_collocation, ctx.norm_map, ctx.out_dir / "interpolant.csv")
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
    write_trajectory_csv(traj, ctx.out_dir / "gompertz.csv")

    taus, target_volumes = _physical_targets(ctx)
    predicted = np.interp(ctx.norm_map.denormalize_t(taus), traj.times, traj.states)
    mse_physical = float(np.mean((predicted - target_volumes) ** 2))
    mse_normalized = mse_physical / ctx.norm_map.v_scale**2

    emit_plot(
        ctx.out_dir / "gompertz.svg",
        list(ctx.norm_map.denormalize_t(taus)),
        [
            ("Gompertz model", list(predicted)),
            ("interpolated target", list(target_volumes)),
        ],
        PlotStyle("Gompertz baseline", "time [days]", "volume [mm^3]"),
    )
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
    models.write_report_csv(report, ctx.out_dir / f"{variant}_fit.csv")
    models.save_model(model, ctx.out_dir / f"{variant}.ckpt.json", seed=config.seed)

    traj = models.solve(model, ctx.data[0][1], (0.0, 1.0), config.solver_steps)
    physical = Trajectory(
        ctx.norm_map.denormalize_t(traj.times), ctx.norm_map.denormalize_v(traj.states)
    )
    write_trajectory_csv(physical, ctx.out_dir / f"{variant}_traj.csv")

    taus, target_volumes = _physical_targets(ctx)
    predicted = np.interp(taus, traj.times, ctx.norm_map.denormalize_v(traj.states))
    label = "Neural ODE" if variant == "neural_ode" else "UDE"
    emit_plot(
        ctx.out_dir / f"{variant}.svg",
        list(ctx.norm_map.denormalize_t(taus)),
        [(label, list(predicted)), ("interpolated target", list(target_volumes))],
        PlotStyle(f"{label} fit", "time [days]", "volume [mm^3]"),
    )
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


def stage_forecast(config: RunConfig, ctx: _SubjectContext, cells, fits: dict) -> list[dict]:
    """Score and write both variants' forecast cells.

    `cells` is `split_cells` of the sorted fractions, and fits[variant]
    holds the training outcome of each cell that split.
    """

    def write_cell_artifacts(variant, fraction, result):
        pct = int(round(fraction * 100))
        write_cell_csv(result, ctx.data, ctx.out_dir / f"forecast_{variant}_{pct}.csv")
        taus, target_volumes = _physical_targets(ctx)
        predicted = ctx.norm_map.denormalize_v(
            np.interp(taus, result.trajectory.times, result.trajectory.states)
        )
        emit_plot(
            ctx.out_dir / f"forecast_{variant}_{pct}.svg",
            list(ctx.norm_map.denormalize_t(taus)),
            [("forecast", list(predicted)), ("interpolated target", list(target_volumes))],
            PlotStyle(
                f"{variant} forecast, {pct}% training window",
                "time [days]",
                "volume [mm^3]",
                split_x=float(ctx.norm_map.denormalize_t(fraction)),
            ),
        )

    fractions = sorted(config.fractions)
    rows = []
    for variant in ("neural_ode", "ude"):
        outcomes = score_cells(variant, ctx.data, fractions, cells, fits[variant], _train_config(config, variant))
        rows += suite_rows(variant, fractions, outcomes, on_cell=write_cell_artifacts)
    write_suite_csv(rows, ctx.subject_id, ctx.out_dir / "forecast.csv")
    # a failed cell's losses are NaN in forecast.csv and null in summary.json
    return [
        {
            "variant": r.variant,
            "fraction": r.fraction,
            "train_loss": None if r.error else r.train_loss,
            "test_mse": None if r.error else r.test_mse,
            "error": r.error,
        }
        for r in rows
    ]


def stage_recover(config: RunConfig, ctx: _SubjectContext, variant: str, model) -> dict:
    basis = symrec.BasisSet(config.basis_K(ctx.subject_id))
    fit, expression = symrec.recover(
        model,
        ctx.norm_map,
        basis,
        v0=ctx.data[0][1],
        n_samples=config.recover_n_samples,
        lam=config.recover_lambda,
        sig_figs=config.sig_figs,
        solver_steps=config.solver_steps,
    )
    symrec.write_fit_csv(fit, ctx.out_dir / f"recovered_{variant}.csv")
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
    fractions = sorted(config.fractions)
    cells = [split_cells(run.ctx.data, fractions) for run in runs]
    jobs = [[run.ctx.data] + _train_parts(subject_cells) for run, subject_cells in zip(runs, cells)]
    ude_fits = _train_members(config, "ude", jobs)
    for run, subject_cells, job, ude_fit in zip(runs, cells, jobs, ude_fits):
        node_fit = _train_members(config, "neural_ode", [job])[0]
        _finish_subject(config, run, subject_cells, {"neural_ode": node_fit, "ude": ude_fit})
        del node_fit  # so the next subject's batch trains without these networks alive
    return [run.summary for run in runs]


def _train_parts(cells) -> list:
    """The training partition of each `split_cells` cell that split."""
    return [cell[0] for cell in cells if not isinstance(cell, Exception)]


def _finish_subject(config: RunConfig, run: _SubjectRun, cells, trained: dict) -> None:
    """Write a subject's fits, forecast cells, recoveries and reports.

    trained[variant] is the subject's job outcome from `_train_members`:
    the full fit's outcome, then each split cell's, and the job's share of
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
    summary["forecast"] = run.stage("forecast", lambda: stage_forecast(config, ctx, cells, cell_fits))

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


def run_subject(config: RunConfig, subject_id: int) -> dict:
    """Execute the full pipeline for one subject and write its report.

    Stage failures are recorded in the summary and later independent
    stages still run; an unknown subject raises before any work happens.
    Returns the summary dict (also written to summary.json; stage wall
    times go to timings.json so the summary stays run-to-run identical).
    This is `run_all`'s pipeline on a cohort of one.
    """
    ctx = _prepare_subject(config, dataio.load_series(config.data_path, subject_id))
    (summary,) = _run_pipeline(config, [ctx])
    return summary


def write_results_table(summaries, path) -> None:
    """Per-subject best losses and recovered expressions."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "node_loss", "ude_loss", "node_expression", "ude_expression"])
        for s in summaries:
            node = s.get("neural_ode") or {}
            ude = s.get("ude") or {}
            rec = s.get("recovered") or {}
            writer.writerow(
                [
                    s["subject"],
                    repr(node.get("best_loss")) if node else "",
                    repr(ude.get("best_loss")) if ude else "",
                    (rec.get("neural_ode") or {}).get("expression", ""),
                    (rec.get("ude") or {}).get("expression", ""),
                ]
            )


def write_forecast_summary(config: RunConfig, summaries, path) -> None:
    """Held-out MSE per subject, variant and training fraction; a missing
    or failed cell is an empty field."""
    pcts = [int(round(f * 100)) for f in config.fractions]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["subject", "K"]
        for variant in ("neural_ode", "ude"):
            header += [f"{variant}_{pct}" for pct in pcts]
        writer.writerow(header)
        for s in summaries:
            row = [s["subject"], repr(config.basis_K(s["subject"]))]
            cells = {
                (r["variant"], int(round(r["fraction"] * 100))): r["test_mse"]
                for r in (s.get("forecast") or [])
            }
            for variant in ("neural_ode", "ude"):
                for pct in pcts:
                    value = cells.get((variant, pct))
                    row.append("" if value is None else repr(value))
            writer.writerow(row)


def run_all(config: RunConfig) -> list[dict]:
    """`run_subject` for every configured subject, stage-major, plus
    aggregate tables.

    The CSV is parsed once. A subject that cannot be prepared (absent, or
    its series unusable) gets a `prepare` error and the others run on.
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

    write_results_table(ordered, out_root / "table_results.csv")
    write_forecast_summary(config, ordered, out_root / "forecast_summary.csv")
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
    config = _config_from_args(args)
    command = args.command

    try:
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
            cells = split_cells(ctx.data, sorted(config.fractions))
            job = _train_parts(cells)
            fits = {v: _train_members(config, v, [job])[0][0] for v in ("neural_ode", "ude")}
            rows = stage_forecast(config, ctx, cells, fits)
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
                stage_recover(config, ctx, variant, models.load_model(ckpt))
        return 0
    except Exception as exc:  # noqa: BLE001 - single place that maps errors to exit codes
        print(f"[{command}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
