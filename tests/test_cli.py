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
from tumordyn.cli import main, run_all, run_subject
from tumordyn.config import RunConfig, load_config
from tumordyn.dataio import SubjectNotFoundError, load_series, make_norm_map
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
  K: 1200.0
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
        path.write_text("recover:\n  K: 1000.0\n  K_by_subject: {2: 2100.0}\n")
        cfg = load_config(path)
        assert cfg.basis_K(1) == 1000.0
        assert cfg.basis_K(2) == 2100.0

    def test_bad_lambda(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("recover:\n  lambda: sometimes\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_keys_named(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text, keys in [
            ("subjcts: [3]\nneural_ode:\n  epochs: 10\n  hidden: [4]\nrecover: {K: 900.0, k: 1}\n",
             "subjcts, neural_ode.epochs, recover.k"),
            ("seed: 3\ntime_input: false\n", "time_input"),  # a key older configs carried
        ]:
            path.write_text(text)
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
            ("recover: {sig_figs: 0}\n", "recover.sig_figs"),
            ("data: [a, b]\n", "data"),
            ("neural_ode: {schedule: []}\n", "neural_ode.schedule"),
            ("ude: {schedule: [[0.01, 5], [0.0, 5]]}\n", "ude.schedule"),
            ("gompertz: {a: 0}\n", "gompertz.a"),
            ("gompertz: {K: -1200.0}\n", "gompertz.K"),
            ("recover: {K: 0.0}\n", "recover.K"),
            ("recover: {K_by_subject: {2: -2100.0}}\n", "recover.K_by_subject"),
            ("recover: {lambda: -0.1}\n", "recover.lambda"),
            # both cells would write forecast_<variant>_70.*, the second over the first
            ("forecast: {fractions: [0.7, 0.704]}\n", "forecast.fractions"),
            ("forecast: {fractions: [0.5, 0.9, 0.5]}\n", "forecast.fractions"),
        ],
    )
    def test_bad_value_fails_at_load_naming_its_key(self, tmp_path, text, key):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_config(path)
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
            monkeypatch.setattr(tumordyn.config, "_LOADER", loader)
            configs.append(load_config(path))
        assert configs[0] == configs[1]
        if name == "cohort":
            assert len(configs[0].subjects) == 24 and configs[0].basis_K(124) == 900.0 + 45.5 * 23

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
    def test_artifacts_and_summary(self, tiny_config):
        cfg = load_config(tiny_config)
        summary = run_subject(cfg, 1)
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
        summary = run_subject(load_config(tiny_config), 1)
        scale = make_norm_map(load_series(sample_csv, 1)).v_scale ** 2
        for variant in ("neural_ode", "ude"):
            fit = summary[variant]
            for name in ("initial_loss", "final_loss", "best_loss"):
                assert fit[f"{name}_physical"] == fit[name] * scale

    def test_failed_forecast_cell_is_strict_json_null(self, tiny_config, monkeypatch):
        real_write = tumordyn.cli.write_cell_csv

        def failing_write(result, data, path):
            if path.name == "forecast_ude_60.csv":
                raise RuntimeError("injected cell failure")
            return real_write(result, data, path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(tumordyn.cli, "write_cell_csv", failing_write)
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
        cfg = load_config(tiny_config)
        with pytest.raises(SubjectNotFoundError):
            run_subject(cfg, 99)

    def test_rerun_is_byte_identical(self, tiny_config):
        cfg = load_config(tiny_config)
        sdir = (tiny_config.parent / "out") / "subject_1"
        run_subject(cfg, 1)
        first = {p.name: p.read_bytes() for p in sdir.iterdir() if p.suffix in (".csv", ".json", ".svg")}
        del first["timings.json"]
        run_subject(cfg, 1)
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
        summary = run_subject(cfg, 1)
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


class TestStageMajor:
    """run-all trains by variant across subjects; each subject's files are
    those of its run alone."""

    def test_cohort_artifacts_equal_runs_alone(self, tmp_path, sample_csv):
        run_all(write_config(tmp_path, sample_csv, "both", [1, 2]))
        for sid in (1, 2):
            run_all(write_config(tmp_path, sample_csv, f"alone_{sid}", [sid]))
            together = subject_artifacts(tmp_path / "both", sid)
            assert len(together) == 24
            assert together == subject_artifacts(tmp_path / f"alone_{sid}", sid)
            timings = json.loads((tmp_path / "both" / f"subject_{sid}" / "timings.json").read_text())
            assert sorted(timings) == sorted(
                ["interpolate", "gompertz", "train-node", "train-ude", "forecast", "recover-neural_ode", "recover-ude"]
            )

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
