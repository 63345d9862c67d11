import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import tumordyn.cli
import tumordyn.config
import tumordyn.dataio
import tumordyn.models
from conftest import SAMPLE_CSV
from tumordyn.cli import main, run_all
from tumordyn.config import RunConfig, load_config
from tumordyn.dataio import load_series, make_norm_map
from tumordyn.svgplot import PlotStyle, emit_plot

TINY_YAML = """\
data: {data}
subjects: [1]
out_dir: {out}
seed: 123
n_collocation: 11
solver_steps: 30
neural_ode:
  hidden: [6]
  schedule: [[0.01, 3]]
ude:
  hidden: [4]
  schedule: [[0.01, 2], [0.005, 2]]
forecast:
  fractions: [0.8, 0.6]
recover:
  n_samples: 20
"""


@pytest.fixture
def tiny_config(tmp_path, sample_csv):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(TINY_YAML.format(data=sample_csv, out=tmp_path / "out"))
    return cfg_path


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.node_config().schedule == ((0.01, 500),)
        assert cfg.ude_config().schedule == ((0.01, 1000), (0.005, 1000), (0.001, 500))
        assert cfg.basis_K(5) == 1200.0

    def test_yaml_round_trip(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.subjects == (1,)
        assert cfg.node_config().hidden == (6,)
        assert cfg.ude_config().schedule == ((0.01, 2), (0.005, 2))
        assert cfg.fractions == (0.8, 0.6)
        assert cfg.recover_n_samples == 20

    def test_overrides_win(self, tiny_config):
        cfg = load_config(tiny_config, seed=7, subjects=(1,))
        assert cfg.seed == 7

    def test_per_subject_K(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("recover:\n  K_by_subject: {2: 2100.0}\n")
        cfg = load_config(path)
        assert cfg.basis_K(1) == 1200.0  # a subject the mapping does not list
        assert cfg.basis_K(2) == 2100.0

    def test_unknown_keys_named(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.yaml"
        loaders = [getattr(yaml, name) for name in ("SafeLoader", "CSafeLoader") if hasattr(yaml, name)]
        for text, keys in [
            ("subjcts: [3]\nneural_ode:\n  epochs: 10\n  hidden: [4]\nrecover: {n_samples: 20, k: 1}\n",
             "subjcts, neural_ode.epochs, recover.k"),
            ("seed: 3\ntime_input: false\n", "time_input"),  # a key older configs carried
            # recovery settings that became constants: the L1 weight, the figures and the fallback K
            ("recover: {lambda: auto, sig_figs: 3, K: 1200.0}\n", "recover.lambda, recover.sig_figs, recover.K"),
        ]:
            path.write_text(text)
            for loader in loaders:
                monkeypatch.setattr(tumordyn.config, "_LOADER", tumordyn.config._unique_keys(loader))
                with pytest.raises(ValueError) as err:
                    load_config(path)
                assert str(err.value) == f"unknown config keys: {keys}"

    def test_section_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("ude: [4, 4]\n")
        with pytest.raises(ValueError, match="ude"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("seed: 1.7\n", "seed"),
            ("solver_steps: 0\n", "solver_steps"),
            ("n_collocation: 1\n", "n_collocation"),
            ("forecast: {fractions: [1.5]}\n", "forecast.fractions"),
            ("recover: {n_samples: 9}\n", "recover.n_samples"),
            ("data: [a, b]\n", "data"),
            ("neural_ode: {schedule: []}\n", "neural_ode.schedule"),
            ("ude: {schedule: [[0.01, 5], [0.0, 5]]}\n", "ude.schedule"),
            ("gompertz: {a: 0}\n", "gompertz.a"),
            ("gompertz: {K: -1200.0}\n", "gompertz.K"),
            ("recover: {K_by_subject: {2: -2100.0}}\n", "recover.K_by_subject"),
            # both cells would write forecast_<variant>_70.*, the second over the first
            ("forecast: {fractions: [0.7, 0.704]}\n", "forecast.fractions"),
            ("forecast: {fractions: [0.5, 0.9, 0.5]}\n", "forecast.fractions"),
            ("forecast: {fractions: []}\n", "forecast.fractions"),
            # a cell is named by its percent label, which must lie in 1..99
            ("forecast: {fractions: [0.8, 0.004]}\n", "forecast.fractions"),
            ("forecast: {fractions: [0.996]}\n", "forecast.fractions"),
            ("forecast: {fractions: [0.9999999999]}\n", "forecast.fractions"),
            ("ude: {schedule: [[.nan, 5]]}\n", "ude.schedule"),
            # an integer beyond the float range is no finite number either
            pytest.param("forecast: {fractions: [0.5, 1%s]}\n" % ("0" * 400), "forecast.fractions", id="fraction-1e400"),
        ],
    )
    def test_bad_value_fails_at_load_naming_its_key(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(f"config key {key}: ")

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("node_schedule", (), "neural_ode.schedule"),
            ("ude_schedule", ((0.0, 5),), "ude.schedule"),
            ("solver_steps", 0, "solver_steps"),
            ("gompertz_a", -1.0, "gompertz.a"),
            ("n_collocation", 1, "n_collocation"),
            ("recover_n_samples", 5, "recover.n_samples"),
            ("node_hidden", (0,), "neural_ode.hidden"),
            ("seed", 1.7, "seed"),
        ],
    )
    def test_bad_value_fails_however_built(self, field, value, key):
        for build in (RunConfig, lambda **kwargs: load_config(None, **kwargs)):
            with pytest.raises(ValueError) as err:
                build(**{field: value})
            assert str(err.value).startswith(f"config key {key}: ")

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", ["default", "cohort"])
    def test_c_and_python_yaml_loaders_agree(self, tmp_path, monkeypatch, name):
        if name == "default":
            path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
        else:  # a 24-subject cohort with a K per subject and shortened schedules
            path = tmp_path / "cohort.yaml"
            subjects = list(range(101, 125))
            path.write_text(
                f"data: {tmp_path / 'cohort.csv'}\nsubjects: {subjects}\nout_dir: {tmp_path / 'out'}\n"
                "seed: 41\nneural_ode:\n  schedule: [[0.01, 5]]\nude:\n  schedule:\n"
                "  - [0.01, 10]\n  - [0.005, 10]\n  - [0.001, 5]\nrecover:\n  K_by_subject:\n"
                + "".join(f"    {sid}: {900.0 + 45.5 * i!r}\n" for i, sid in enumerate(subjects))
            )
        configs = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(tumordyn.config, "_LOADER", tumordyn.config._unique_keys(loader))
            configs.append(load_config(path))
        assert configs[0] == configs[1]
        if name == "cohort":
            assert len(configs[0].subjects) == 24 and configs[0].basis_K(124) == 900.0 + 45.5 * 23

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("seed: 1\nseed: 7\n", "seed", 2),
            # the second section would replace the first, schedule and all
            ("neural_ode: {schedule: [[0.01, 5]]}\nneural_ode: {hidden: [4]}\n", "neural_ode", 2),
            ("recover: {K_by_subject: {1: 1200.0, 1.0: 900.0}}\n", "1.0", 1),
            ("ude:\n  hidden: [4]\n  schedule: [[0.01, 5]]\n  hidden: [6]\n", "hidden", 4),
        ],
    )
    def test_repeated_key_fails_naming_it_and_its_line(self, tmp_path, monkeypatch, loader, text, key, line):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(tumordyn.config, "_LOADER", tumordyn.config._unique_keys(getattr(yaml, loader)))
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"config key {key}: given twice, the second time on line {line}"

    def test_merged_key_may_be_overridden(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("neural_ode: &n {hidden: [4], schedule: [[0.01, 5]]}\nude: {<<: *n, hidden: [3]}\n")
        cfg = load_config(path)
        assert (cfg.ude_hidden, cfg.ude_schedule) == ((3,), ((0.01, 5),))

    def test_integral_values_load(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 7.0\nsolver_steps: 1\nforecast: {fractions: [0.5]}\n")
        cfg = load_config(path)
        assert (cfg.seed, cfg.solver_steps, cfg.fractions) == (7, 1, (0.5,))
        assert type(cfg.seed) is int

    def test_shipped_config_loads(self):
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.yaml")
        assert cfg == RunConfig(basis_K_by_subject=cfg.basis_K_by_subject)
        assert cfg.basis_K(2) == 2100.0

    def test_empty_subjects_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(subjects=())

    @pytest.mark.parametrize(
        "fractions, message",
        [
            ((0.7, 0.704), "same percent"),
            ((1.5,), r"lie in \(0, 1\)"),
            ((), "at least one"),
            # of the 11 collocation taus only tau = 0 lies at or below 0.05
            ((0.05, 0.8), r"^config key forecast\.fractions: 0\.05 keeps 1 of the 11 points to train on$"),
        ],
    )
    def test_fractions_checked_however_built(self, fractions, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(fractions=fractions, n_collocation=11)
        with pytest.raises(ValueError, match=message):
            load_config(None, fractions=fractions, n_collocation=11)


class TestEmitPlot:
    STYLE = PlotStyle("demo", "x [u]", "y [u]")

    def test_two_point_series_single_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(path, [0.0, 1.0], [("a", [1.0, 2.0])], self.STYLE)
        text = path.read_text()
        polylines = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", text)
        assert len(polylines) == 1
        assert len(polylines[0].split()) == 2

    def test_two_series_two_polylines_and_legend(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(path, [0.0, 0.5, 1.0], [("a", [1, 2, 3]), ("b", [3, 2, 1])], self.STYLE)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert text.count('class="legend"') == 2

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (p1, p2):
            emit_plot(p, [0.0, 1.0, 2.0], [("s", [5.0, 1.0, 4.0])], self.STYLE)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot(tmp_path / "p.svg", [0.0, 1.0], [], self.STYLE)
        with pytest.raises(ValueError):
            emit_plot(tmp_path / "p.svg", [], [("a", [])], self.STYLE)

    def test_scatter_draws_circles_not_polylines(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(
            path,
            [0.0, 1.0],
            [("line", [1.0, 2.0])],
            self.STYLE,
            scatter=("pts", [0.2, 0.8], [1.5, 1.8]),
        )
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<circle") >= 2
        assert text.count('class="legend"') == 2

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot(tmp_path / "p.svg", [0.0, 1.0], [("a", [1.0])], self.STYLE)

    def test_axis_labels_present(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(path, [0.0, 1.0], [("a", [1.0, 2.0])], self.STYLE)
        text = path.read_text()
        assert "x [u]" in text and "y [u]" in text


class TestRunSubject:
    """`run_all` on the one-subject config."""

    def test_artifacts_and_summary(self, tiny_config):
        cfg = load_config(tiny_config)
        (summary,) = run_all(cfg)
        assert summary["errors"] == []
        sdir = (tiny_config.parent / "out") / "subject_1"

        # three trajectory plots plus the interpolation plot
        for name in ("gompertz.svg", "neural_ode.svg", "ude.svg", "interpolant.svg"):
            assert (sdir / name).exists(), name
        # two recovered expressions
        assert summary["recovered"]["neural_ode"]["expression"].startswith("dV/dt")
        assert summary["recovered"]["ude"]["expression"].startswith("dV/dt")
        # 2 variants x 2 fractions forecast rows
        assert len(summary["forecast"]) == 4
        forecast_lines = (sdir / "forecast.csv").read_text().strip().splitlines()
        assert len(forecast_lines) == 5
        # checkpoints round-trip
        assert (sdir / "neural_ode.ckpt.json").exists()
        assert (sdir / "ude.ckpt.json").exists()
        # summary on disk matches the returned one
        on_disk = json.loads((sdir / "summary.json").read_text())
        assert on_disk["subject"] == 1
        assert "wall" not in json.dumps(on_disk)  # timings live elsewhere
        assert (sdir / "timings.json").exists()

    def test_physical_losses_scale_by_volume_range(self, tiny_config, sample_csv):
        (summary,) = run_all(load_config(tiny_config))
        scale = make_norm_map(load_series(sample_csv, 1)).v_scale ** 2
        for variant in ("neural_ode", "ude"):
            fit = summary[variant]
            for name in ("initial_loss", "final_loss", "best_loss"):
                assert fit[f"{name}_physical"] == fit[name] * scale

    def test_failed_forecast_cell_is_strict_json_null(self, tiny_config, monkeypatch):
        real_write = tumordyn.cli._write_csv

        def failing_write(path, header, rows):
            if path.name == "forecast_ude_60.csv":
                raise RuntimeError("injected cell failure")
            return real_write(path, header, rows)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(tumordyn.cli, "_write_csv", failing_write)
        out = tiny_config.parent / "out"
        run_all(load_config(tiny_config))
        summary = json.loads((out / "subject_1" / "summary.json").read_text(), parse_constant=reject)
        cells = {(r["variant"], r["fraction"]): r for r in summary["forecast"]}
        failed = cells[("ude", 0.6)]
        assert "injected cell failure" in failed["error"]
        assert failed["train_loss"] is None and failed["test_mse"] is None
        assert all(r["error"] is None and math.isfinite(r["test_mse"]) for k, r in cells.items() if k != ("ude", 0.6))
        suite = (out / "subject_1" / "forecast.csv").read_text().splitlines()
        assert "1,ude,0.6,nan,nan" in suite
        wide = (out / "forecast_summary.csv").read_text().splitlines()
        assert wide[0] == "subject,K,neural_ode_80,neural_ode_60,ude_80,ude_60"
        assert wide[1].endswith(",")  # the failed ude_60 cell is an empty field
        assert wide[1].split(",")[4] != ""

    def test_unknown_subject_fails_before_training(self, tiny_config):
        (summary,) = run_all(load_config(tiny_config, subjects=(99,)))
        assert [e["stage"] for e in summary["errors"]] == ["prepare"]
        assert summary["errors"][0]["error"].startswith("SubjectNotFoundError")
        assert sorted(set(summary) - {"errors"}) == ["subject"]
        assert not (tiny_config.parent / "out" / "subject_99").exists()

    def test_rerun_is_byte_identical(self, tiny_config):
        cfg = load_config(tiny_config)
        sdir = (tiny_config.parent / "out") / "subject_1"
        run_all(cfg)
        first = {p.name: p.read_bytes() for p in sdir.iterdir() if p.suffix in (".csv", ".json", ".svg")}
        del first["timings.json"]
        run_all(cfg)
        for name, blob in first.items():
            assert (sdir / name).read_bytes() == blob, name

    def test_ude_failure_leaves_node_outputs_intact(self, tiny_config, monkeypatch):
        cfg = load_config(tiny_config)
        real_train_batch = tumordyn.models.train_batch

        def failing_train_batch(variant, datasets, config):
            if variant == "ude":
                raise RuntimeError("injected failure")
            return real_train_batch(variant, datasets, config)

        monkeypatch.setattr(tumordyn.models, "train_batch", failing_train_batch)
        (summary,) = run_all(cfg)
        stages_with_errors = {e["stage"] for e in summary["errors"]}
        assert "train-ude" in stages_with_errors
        assert "recover-ude" in stages_with_errors
        assert summary["neural_ode"] is not None
        assert summary["recovered"]["neural_ode"]["expression"].startswith("dV/dt")
        sdir = (tiny_config.parent / "out") / "subject_1"
        assert (sdir / "neural_ode.svg").exists()
        assert not (sdir / "ude.ckpt.json").exists()


class TestRunAll:
    def test_aggregate_tables(self, tmp_path, sample_csv):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(
            TINY_YAML.format(data=sample_csv, out=tmp_path / "out").replace(
                "subjects: [1]", "subjects: [1, 2]"
            )
        )
        cfg = load_config(cfg_path)
        summaries = run_all(cfg)
        assert len(summaries) == 2
        table = (tmp_path / "out" / "table_results.csv").read_text().strip().splitlines()
        assert table[0] == "subject,node_loss,ude_loss,node_expression,ude_expression"
        assert len(table) == 3
        wide = (tmp_path / "out" / "forecast_summary.csv").read_text().strip().splitlines()
        assert wide[0] == "subject,K,neural_ode_80,neural_ode_60,ude_80,ude_60"
        assert len(wide) == 3

    def test_subject_failure_isolated(self, tmp_path, sample_csv):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(
            TINY_YAML.format(data=sample_csv, out=tmp_path / "out").replace(
                "subjects: [1]", "subjects: [1, 99]"
            )
        )
        summaries = run_all(load_config(cfg_path))
        by_subject = {s["subject"]: s for s in summaries}
        assert by_subject[1]["errors"] == []
        assert by_subject[99]["errors"][0]["stage"] == "prepare"


def write_config(tmp_path, sample_csv, name, subjects):
    path = tmp_path / f"{name}.yaml"
    text = TINY_YAML.format(data=sample_csv, out=tmp_path / name)
    path.write_text(text.replace("subjects: [1]", f"subjects: {list(subjects)}"))
    return load_config(path)


def subject_artifacts(out, sid) -> dict:
    """Every deterministic artifact of one subject, by file name."""
    sdir = out / f"subject_{sid}"
    return {
        p.name: p.read_bytes()
        for p in sorted(sdir.iterdir())
        if p.suffix in (".csv", ".json", ".svg") and p.name != "timings.json"
    }


def run_artifacts(out) -> dict:
    """Every deterministic artifact of a run, by path under `out`."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.suffix in (".csv", ".json", ".svg") and p.name != "timings.json"
    }


# the physical-time column of each table that has one
TIME_COLUMNS = {"interpolant.csv": "time_days", "gompertz.csv": "t", "neural_ode_traj.csv": "t", "ude_traj.csv": "t"}


def csv_column(blob: bytes, column: str) -> np.ndarray:
    header, *rows = blob.decode().splitlines()
    k = header.split(",").index(column)
    return np.array([float(row.split(",")[k]) for row in rows])


def json_leaves(x) -> list:
    if isinstance(x, dict):
        return [leaf for key in sorted(x) for leaf in json_leaves(x[key])]
    if isinstance(x, list):
        return [leaf for item in x for leaf in json_leaves(item)]
    return [x]


def table_cells(blob: bytes, name: str) -> list:
    """The leaves of a JSON summary or the cells of a CSV table, in order,
    each number as a float."""
    if name.endswith(".json"):
        items = json_leaves(json.loads(blob))
    else:
        items = [cell for row in blob.decode().splitlines() for cell in row.split(",")]
    cells = []
    for item in items:
        try:
            cells.append(item if isinstance(item, bool) else float(item))
        except (TypeError, ValueError):  # None or text
            cells.append(item)
    return cells


class TestStageMajor:
    """run-all trains by variant across subjects; each subject's files are
    those of its run alone, in either cohort order and CSV row order, and a
    new time origin moves only their physical times."""

    def test_cohort_artifacts_equal_runs_alone(self, tmp_path, sample_csv):
        run_all(write_config(tmp_path, sample_csv, "both", [1, 2]))
        run_all(write_config(tmp_path, sample_csv, "reversed", [2, 1]))
        for sid in (1, 2):
            run_all(write_config(tmp_path, sample_csv, f"alone_{sid}", [sid]))
            together = subject_artifacts(tmp_path / "both", sid)
            assert len(together) == 24
            assert together == subject_artifacts(tmp_path / f"alone_{sid}", sid)
            assert together == subject_artifacts(tmp_path / "reversed", sid)
            timings = json.loads((tmp_path / "both" / f"subject_{sid}" / "timings.json").read_text())
            assert sorted(timings) == sorted(
                ["interpolate", "gompertz", "train-node", "train-ude", "forecast", "recover-neural_ode", "recover-ude"]
            )

    def test_data_row_order_changes_no_artifact(self, tmp_path, sample_csv):
        lines = SAMPLE_CSV.splitlines()
        rows = lines[2:]  # after the comment and the header; subject 1 first
        # the two subjects interleave, and each one's times are out of order
        shuffled = [rows[i] for i in (8, 3, 0, 11, 6, 5, 1, 9, 4, 7, 2, 10)]
        shuffled_csv = tmp_path / "shuffled.csv"
        shuffled_csv.write_text("\n".join(lines[:2] + shuffled) + "\n", encoding="utf-8")
        run_all(write_config(tmp_path, sample_csv, "sorted", [1, 2]))
        run_all(write_config(tmp_path, shuffled_csv, "shuffled", [1, 2]))
        artifacts = [run_artifacts(tmp_path / name) for name in ("sorted", "shuffled")]
        assert len(artifacts[0]) == 50
        assert artifacts[0] == artifacts[1]

    def test_time_origin_moves_only_physical_time(self, tmp_path):
        # every fit, forecast and recovered law is computed in normalized time
        lines = SAMPLE_CSV.splitlines()

        def run(c):
            rows = [f"{i},{float(t) + c!r},{v}" for i, t, v in (row.split(",") for row in lines[2:])]
            (tmp_path / f"{c}.csv").write_text("\n".join(lines[:2] + rows) + "\n")
            run_all(write_config(tmp_path, tmp_path / f"{c}.csv", f"out_{c}", [1, 2]))
            return run_artifacts(tmp_path / f"out_{c}")

        base = run(0.0)
        tables = [name for name in base if Path(name).name in TIME_COLUMNS]
        untimed = [name for name in base if not name.endswith(".svg") and name not in tables]
        assert (len(tables), len(untimed)) == (8, 26)
        for c in (1000.0, 0.37):
            shifted = run(c)
            for name in tables:
                column = TIME_COLUMNS[Path(name).name]
                assert np.abs(csv_column(shifted[name], column) - csv_column(base[name], column) - c).max() <= 1e-9
            if c == 1000.0:  # a shift of the integer times by 1000 is exact
                assert [name for name in untimed if shifted[name] != base[name]] == []
                continue
            for name in untimed:
                if not name.endswith(".ckpt.json"):
                    ours, theirs = table_cells(base[name], name), table_cells(shifted[name], name)
                    assert [type(x) for x in ours] == [type(x) for x in theirs], name
                    for x, y in zip(ours, theirs):
                        assert y == (pytest.approx(x, rel=1e-6, abs=0.0) if isinstance(x, float) else x), name

    def test_diverging_ude_member_fails_only_its_own_output(self, tmp_path, sample_csv, monkeypatch):
        cfg = write_config(tmp_path, sample_csv, "probe", [1, 2])
        data = {sid: tumordyn.cli._prepare_subject(cfg, load_series(sample_csv, sid)).data for sid in (1, 2)}
        # subject 2's UDE full fit and subject 1's 60% UDE cell (7 points)
        # start their solves from NaN
        poisoned_parts = [data[2], data[1][:7]]
        real = tumordyn.models._collocation

        def poisoned(part, config):
            grid = real(part, config)
            if config.hidden == (4,) and part in poisoned_parts:
                return replace(grid, targets=[math.nan] + grid.targets[1:])
            return grid

        monkeypatch.setattr(tumordyn.models, "_collocation", poisoned)
        summaries = {s["subject"]: s for s in run_all(write_config(tmp_path, sample_csv, "both", [1, 2]))}
        one, two = summaries[1], summaries[2]
        assert one["errors"] == []
        assert [(r["variant"], r["fraction"]) for r in one["forecast"] if r["error"]] == [("ude", 0.6)]
        assert "non-finite state at step 1" in one["forecast"][2]["error"]
        assert [e["stage"] for e in two["errors"]] == ["train-ude", "recover-ude"]
        assert "non-finite state at step 1" in two["errors"][0]["error"]
        assert all(r["error"] is None for r in two["forecast"])
        for sid in (1, 2):
            alone = run_all(write_config(tmp_path, sample_csv, f"alone_{sid}", [sid]))[0]
            assert alone == summaries[sid]
            assert subject_artifacts(tmp_path / "both", sid) == subject_artifacts(tmp_path / f"alone_{sid}", sid)

    def test_batches_per_variant(self, tmp_path, sample_csv, monkeypatch):
        calls = []
        real = tumordyn.models.train_batch

        def spy(variant, datasets, config):
            calls.append((variant, len(datasets)))
            return real(variant, datasets, config)

        monkeypatch.setattr(tumordyn.models, "train_batch", spy)
        cfg = write_config(tmp_path, sample_csv, "out", [1, 2])
        run_all(cfg)
        # one UDE batch of both subjects' full fits and cells, then one
        # neural-ODE batch per subject
        assert calls == [("ude", 6), ("neural_ode", 3), ("neural_ode", 3)]
        calls.clear()
        args = ["--config", str(tmp_path / "out.yaml"), "--subject", "2"]
        assert main(["train-ude", *args]) == 0
        assert main(["forecast", *args]) == 0
        assert calls == [("ude", 1), ("neural_ode", 2), ("ude", 2)]

    def test_batch_time_is_split_by_members(self, tiny_config, monkeypatch):
        ticks = iter([10.0, 18.0])
        monkeypatch.setattr(tumordyn.cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(tumordyn.models, "train_batch", lambda variant, datasets, config: list(datasets))
        jobs = [["a", "b", "c"], [], ["d"]]
        shares = tumordyn.cli._train_members(load_config(tiny_config), "ude", jobs)
        assert shares == [(["a", "b", "c"], 6.0), ([], 0.0), (["d"], 2.0)]

    def test_csv_parsed_once(self, tmp_path, sample_csv, monkeypatch):
        calls = []
        real = tumordyn.dataio._read_rows
        monkeypatch.setattr(tumordyn.dataio, "_read_rows", lambda path: calls.append(path) or real(path))
        summaries = run_all(write_config(tmp_path, sample_csv, "out", [2, 99, 1]))
        assert len(calls) == 1
        assert [s["subject"] for s in summaries] == [2, 99, 1]
        assert [[e["stage"] for e in s["errors"]] for s in summaries] == [[], ["prepare"], []]

    def test_bad_csv_line_fails_every_subject_naming_it(self, tmp_path, sample_csv, capsys):
        lines = sample_csv.read_text().splitlines()
        lines[4] = "1,26,four hundred"
        sample_csv.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, sample_csv, "out", [1, 2])
        summaries = run_all(cfg)
        for s in summaries:
            assert s["errors"] == [{"stage": "prepare", "error": "CsvFormatError: line 5: bad numeric value in '1,26,four hundred'"}]
        assert main(["run-all", "--config", str(tmp_path / "out.yaml")]) == 1
        assert capsys.readouterr().err.count("line 5") == 2


class TestMain:
    def test_interpolate_exit_zero(self, tiny_config, capsys):
        assert main(["interpolate", "--config", str(tiny_config), "--subject", "1"]) == 0

    def test_flags_before_or_after_the_command(self, tiny_config, capsys):
        parse = tumordyn.cli._build_parser().parse_args
        flags = ["--config", str(tiny_config), "--subject", "1", "--seed", "5"]
        assert parse(["recover", *flags]) == parse([*flags, "recover"]) == parse([*flags[:2], "recover", *flags[2:]])
        assert main([*flags, "interpolate"]) == 0
        with pytest.raises(SystemExit):
            parse(["train", *flags])  # not a command

    def test_unknown_subject_exit_one(self, tiny_config, capsys):
        code = main(["interpolate", "--config", str(tiny_config), "--subject", "42"])
        assert code == 1
        assert "interpolate" in capsys.readouterr().err

    def test_recover_needs_checkpoints(self, tiny_config, capsys):
        code = main(["recover", "--config", str(tiny_config), "--subject", "1"])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_train_then_recover(self, tiny_config, capsys):
        assert main(["train-node", "--config", str(tiny_config)]) == 0
        assert main(["train-ude", "--config", str(tiny_config)]) == 0
        assert main(["recover", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert out.count("dV/dt") == 2

    def test_recover_refuses_a_swapped_checkpoint(self, tiny_config, capsys):
        assert main(["train-node", "--config", str(tiny_config)]) == 0
        assert main(["train-ude", "--config", str(tiny_config)]) == 0
        out_dir = tiny_config.parent / "out" / "subject_1"
        node, ude = out_dir / "neural_ode.ckpt.json", out_dir / "ude.ckpt.json"
        node_text = node.read_text()
        node.write_text(ude.read_text())
        ude.write_text(node_text)
        capsys.readouterr()
        assert main(["recover", "--config", str(tiny_config)]) == 1
        assert capsys.readouterr().err == f"[recover] {node} holds a ude checkpoint\n"
        assert not (out_dir / "recovered_neural_ode.csv").exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("seed: 1.5\n", "ValueError: config key seed: "),
            (None, "FileNotFoundError: "),  # no config file at the path given
        ],
    )
    def test_config_that_fails_to_load_exit_one(self, tmp_path, capsys, text, error):
        path = tmp_path / "run.yaml"
        if text is not None:
            path.write_text(text)
        for command in ("interpolate", "run-all"):
            assert main([command, "--config", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"[{command}] {error}")


class TestOneWriter:
    def test_every_csv_artifact_goes_through_write_csv(self, tiny_config, monkeypatch):
        written = []
        real_write = tumordyn.cli._write_csv

        def recording_write(path, header, rows):
            written.append(Path(path))
            return real_write(path, header, rows)

        monkeypatch.setattr(tumordyn.cli, "_write_csv", recording_write)
        out = tiny_config.parent / "out"
        run_all(load_config(tiny_config))
        for command, out_dir in [
            ("forecast", "forecast"),
            ("train-node", "fits"),
            ("train-ude", "fits"),
            ("recover", "fits"),
            ("interpolate", "interpolate"),
            ("gompertz", "gompertz"),
        ]:
            assert main([command, "--config", str(tiny_config), "--out", str(out / out_dir)]) == 0
        assert len(written) == len(set(written))
        assert set(written) == set(out.rglob("*.csv"))
        # a recovered law's table: one coefficient a basis function
        recovered = list(out.rglob("recovered_*.csv"))
        assert len(recovered) == 4  # run-all's and recover's, two variants each
        for path in recovered:
            lines = path.read_text().splitlines()
            assert lines[0] == "basis_index,coefficient"
            assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
