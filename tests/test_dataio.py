import numpy as np
import pytest

from conftest import make_growth_series
from tumordyn import cli
from tumordyn.config import RunConfig
from tumordyn.dataio import (
    CsvFormatError,
    NormalizationMap,
    SigmoidFit,
    SigmoidFitError,
    SubjectNotFoundError,
    TumorSeries,
    fit_sigmoid,
    load_cohort,
    load_series,
    make_norm_map,
    sample_interpolant,
)


class TestTumorSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TumorSeries(1, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few
        with pytest.raises(ValueError):
            TumorSeries(1, [1, 2, 2, 3], [1, 2, 3, 4])  # not strictly increasing
        with pytest.raises(ValueError):
            TumorSeries(1, [1, 2, 3, 4], [1, -2, 3, 4])  # non-positive volume


class TestLoadSeries:
    def test_identity_read_back(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n1,22,80\n1,27,400\n1,30,800\n1,32,1000\n")
        s = load_series(path, 1)
        assert list(s.times) == [22, 27, 30, 32]
        assert list(s.volumes) == [80, 400, 800, 1000]

    def test_rows_sorted_by_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n1,30,800\n1,22,80\n1,32,1000\n1,27,400\n")
        s = load_series(path, 1)
        assert list(s.times) == [22, 27, 30, 32]
        assert list(s.volumes) == [80, 400, 800, 1000]

    def test_missing_subject(self, sample_csv):
        with pytest.raises(SubjectNotFoundError):
            load_series(sample_csv, 99)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n1,22,80\n1,27,abc\n1,30,800\n1,32,1000\n")
        with pytest.raises(CsvFormatError) as err:
            load_series(path, 1)
        assert err.value.line_no == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "rows, bad_line",
        [
            ("1,22,80\n1,27,400\n1,2,inf\n1,32,1000\n", 4),
            ("1,22,80\n1,nan,400\n1,30,800\n1,32,1000\n", 3),
            ("1,22,80\n1,27,400\n1,30,-inf\n1,32,1000\n", 4),
            # numbers Python's int() and float() read but the CSV format has not
            ("1,2_2,80\n1,27,400\n1,30,800\n1,32,1000\n", 2),
            ("1,22,80\n1,24,1_50\n1,30,800\n1,32,1000\n", 3),
            ("1,22,80\n1,27,400\n\uff11,30,800\n1,32,1000\n", 4),
            ("1,22,80\n1,27,400\n1,30,800\n1,\u0663\u0662,1000\n", 5),
        ],
    )
    def test_non_finite_field_names_line(self, tmp_path, rows, bad_line):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n" + rows, encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            load_series(path, 1)
        assert err.value.line_no == bad_line
        assert f"line {bad_line}" in str(err.value)

    def test_comments_ignored(self, sample_csv):
        s = load_series(sample_csv, 1)
        assert s.times.size == 6

    def test_duplicate_time_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n1,22,80\n1,22,90\n1,30,800\n1,32,1000\n")
        with pytest.raises(CsvFormatError):
            load_series(path, 1)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,22,80\n1,27,400\n")
        with pytest.raises(CsvFormatError):
            load_series(path, 1)


class TestLoadCohort:
    def test_each_subject_as_load_series_gives_it(self, tmp_path, sample_csv):
        path = tmp_path / "d.csv"
        # subject 3 has a duplicated time and subject 4 too few points
        path.write_text(
            sample_csv.read_text() + "3,10,50\n3,12,60\n3,12,70\n3,14,80\n4,10,50\n4,12,60\n"
        )
        ids = [2, 99, 1, 3, 4]
        for sid, got in zip(ids, load_cohort(path, ids)):
            try:
                want = load_series(path, sid)
            except (LookupError, ValueError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                assert got.subject_id == sid
                assert np.array_equal(got.times, want.times) and np.array_equal(got.volumes, want.volumes)
        assert [type(o).__name__ for o in load_cohort(path, ids)] == [
            "TumorSeries", "SubjectNotFoundError", "TumorSeries", "CsvFormatError", "ValueError"
        ]

    def test_bad_row_is_every_subjects_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,time_days,volume_mm3\n1,22,80\n2,27,abc\n")
        outcomes = load_cohort(path, [1, 2, 5])
        assert all(isinstance(o, CsvFormatError) and o.line_no == 3 for o in outcomes)

    def test_unreadable_file_is_every_subjects_error(self, tmp_path):
        outcomes = load_cohort(tmp_path / "absent.csv", [1, 2])
        assert all(isinstance(o, FileNotFoundError) for o in outcomes)


class TestNormalizationMap:
    def setup_method(self):
        self.series = TumorSeries(1, [22.0, 27.0, 30.0, 32.0], [80.0, 400.0, 800.0, 1000.0])
        self.norm_map = make_norm_map(self.series)

    def test_endpoints(self):
        assert self.norm_map.normalize_t(22.0) == 0.0
        assert self.norm_map.normalize_t(32.0) == 1.0

    def test_midpoint(self):
        assert self.norm_map.normalize_t(27.0) == 0.5

    def test_round_trips(self):
        for x in [123.4, 80.0, 999.0]:
            assert self.norm_map.denormalize_v(self.norm_map.normalize_v(x)) == pytest.approx(x, abs=1e-12)
        for t in [22.0, 25.3, 32.0]:
            assert self.norm_map.denormalize_t(self.norm_map.normalize_t(t)) == pytest.approx(t, abs=1e-12)

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            NormalizationMap(t_min=22.0, t_max=22.0, v_min=0.0, v_max=1.0)
        with pytest.raises(ValueError):
            make_norm_map(TumorSeries(1, [1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0]))


class TestFitSigmoid:
    def test_recovers_generating_parameters(self):
        A, B, k, tau0 = 50.0, 1000.0, 8.0, 0.5
        taus = np.linspace(0.0, 1.0, 10)
        times = 22.0 + 10.0 * taus
        volumes = A + B / (1.0 + np.exp(-k * (taus - tau0)))
        series = TumorSeries(1, times, volumes)
        fit = fit_sigmoid(series, make_norm_map(series))
        assert fit.A == pytest.approx(A, rel=1e-6)
        assert fit.B == pytest.approx(B, rel=1e-6)
        assert fit.k == pytest.approx(k, rel=1e-6)
        assert fit.tau0 == pytest.approx(tau0, rel=1e-6)
        assert fit.sse < 1e-12

    def test_monotone_on_monotone_data(self):
        series = make_growth_series()
        fit = fit_sigmoid(series, make_norm_map(series))
        values = [v for _, v in sample_interpolant(fit, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_constant_data_is_a_fit_error(self):
        series = TumorSeries(1, [1.0, 2.0, 3.0, 4.0], [50.0, 50.0, 50.0, 50.0])
        norm_map = NormalizationMap(t_min=1.0, t_max=4.0, v_min=0.0, v_max=100.0)
        with pytest.raises(SigmoidFitError):
            fit_sigmoid(series, norm_map)


class TestSampleInterpolant:
    FIT = SigmoidFit(A=50.0, B=1000.0, k=8.0, tau0=0.5, sse=0.0)

    def test_two_points_are_endpoints(self):
        pts = sample_interpolant(self.FIT, 2)
        assert [t for t, _ in pts] == [0.0, 1.0]

    def test_21_points_spacing(self):
        pts = sample_interpolant(self.FIT, 21)
        taus = [t for t, _ in pts]
        assert len(pts) == 21
        assert np.allclose(np.diff(taus), 0.05)

    def test_strictly_increasing_and_bounded(self):
        pts = sample_interpolant(self.FIT, 50)
        values = [v for _, v in pts]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(self.FIT.A <= v <= self.FIT.A + self.FIT.B for v in values)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            sample_interpolant(self.FIT, 1)
        for n in (2.9, True, np.bool_(True)):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample_interpolant(self.FIT, n)

    def test_csv_export(self, tmp_path):
        # the interpolant's table, as the `interpolate` stage writes it
        config = RunConfig(out_dir=str(tmp_path), n_collocation=5)
        ctx = cli._prepare_subject(config, make_growth_series())
        cli.stage_interpolate(config, ctx)
        lines = (ctx.out_dir / "interpolant.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,time_days,volume_mm3"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert [(tau, v) for tau, _, v in rows] == sample_interpolant(ctx.sigmoid, 5)
        assert [t for _, t, _ in rows] == [22.0, 24.5, 27.0, 29.5, 32.0]
