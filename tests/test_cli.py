"""End-to-end checks of the batch CLI, driven through main() with real files."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import funcevt
from funcevt.cli import _write_limit_json, main
from funcevt.estimators import EstimatorCurves
from funcevt.harness import (
    ExperimentConfig,
    config_hash,
    load_config,
    load_report,
    report_csv,
    save_config,
)
from funcevt.path_model import (
    MarginalModel,
    ParetoPaths,
    PathSample,
    make_grid,
    pareto_transform,
    read_csv,
)
from funcevt.process_sim import KernelSpec
from funcevt.tail_process import build_tail_field


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def written(doc):
    buf = io.StringIO()
    _write_limit_json(doc, buf)
    return buf.getvalue()


def dumped(doc):
    lists = {name: a.tolist() for name, a in doc["functionals"].items()}
    return json.dumps({**doc, "functionals": lists}, indent=2, sort_keys=True) + "\n"


class Discard:
    """A text sink that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)


class TestSimulateEstimate:
    def test_round_trip(self, tmp_path, capsys):
        sample = str(tmp_path / "sample.csv")
        curves = str(tmp_path / "curves.csv")
        rc, out = run(
            capsys,
            ["simulate", "--family", "pareto-gbm", "--n", "400",
             "--grid", "3", "--seed", "1", "--out", sample],
        )
        assert rc == 0
        assert "wrote 400 x 3 pareto-gbm sample" in out

        rc, out = run(capsys, ["estimate", "--in", sample, "--k", "40",
                               "--out", curves])
        assert rc == 0
        assert "wrote curves for 3 grid points" in out
        header, rows = read_csv(curves, "curves")
        assert header.split(",") == list(EstimatorCurves.COLUMNS)
        gamma_plus = rows[:, 1]
        assert gamma_plus.shape == (3,)
        # gbm paths are heavy tailed with index 1 at every t
        assert np.all(gamma_plus > 0.2)

    def test_unknown_family_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--family", "weibull", "--n", "10",
                  "--grid", "2", "--out", str(tmp_path / "x.csv")])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_data_errors_exit_cleanly(self, tmp_path, capsys):
        # a window narrower than the grid spacing is a user mistake, not
        # a traceback
        in_path, _ = _pareto_csv(tmp_path, m=51)
        rc = main(["diagnose", "--in", in_path, "--s", "0.5",
                   "--delta", "0.01", "--v", "2", "--K", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")

    def test_missing_input_file_exits_cleanly(self, tmp_path, capsys):
        rc = main(["estimate", "--in", str(tmp_path / "nope.csv"),
                   "--k", "5", "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")


# per numeric option, a command whose value for it breaks its rule and
# whose other arguments are valid; {paths} is a sample CSV, {out} the output
BAD_NUMBERS = {
    "n": ("--n", "simulate --family pareto-gbm --n 0 --grid 2 --out {out}"),
    "grid": ("--grid", "simulate --family pareto-gbm --n 5 --grid 0 --out {out}"),
    "seed-simulate": (
        "--seed", "simulate --family pareto-gbm --n 5 --grid 2 --seed -1 --out {out}"
    ),
    "k": ("--k", "estimate --in {paths} --k 0 --out {out}"),
    "xgrid": ("--xgrid", "tailproc --in {paths} --k 10 --xgrid -2 --out {out}"),
    "c-zero": ("--c", "tailproc --in {paths} --k 10 --c 0 --out {out}"),
    "c-negative": ("--c", "tailproc --in {paths} --k 10 --c -1 --out {out}"),
    "c-nan": ("--c", "tailproc --in {paths} --k 10 --c nan --out {out}"),
    "tgrid": ("--tgrid", "limit --family pareto-gbm --tgrid 0 --xgrid 8 --draws 5 --out {out}"),
    "draws-negative": ("--draws", "limit --family pareto-gbm --xgrid 8 --draws -3 --out {out}"),
    "draws-zero": ("--draws", "limit --family pareto-gbm --xgrid 8 --draws 0 --out {out}"),
    "draws-one": ("--draws", "limit --family pareto-gbm --xgrid 8 --draws 1 --out {out}"),
    "seed-limit": (
        "--seed", "limit --family pareto-gbm --xgrid 8 --draws 5 --seed -3 --out {out}"
    ),
    "xmax": ("--xmax", "limit --family pareto-gbm --xgrid 8 --xmax inf --draws 5 --out {out}"),
    "workers": ("--workers", "experiment --config {paths} --workers 0"),
}


@pytest.mark.parametrize("flag", ["--lambda", "--df"])
def test_infinite_kernel_parameter_exits_one(flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(["simulate", "--family", "moving-max", "--n", "5", "--grid", "2",
               "--kernel", "t", flag, "inf", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: kernel ")
    assert not out.exists()


@pytest.mark.parametrize("n, grid, expected", [(2000, 51, "4.85e+08"), (500, 11, "1.07e+08")])
def test_huge_student_t_draw_exits_one(n, grid, expected, tmp_path, capsys, monkeypatch):
    def no_draws(seed):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    out = tmp_path / "t.csv"
    rc = main(["simulate", "--family", "moving-max", "--kernel", "t", "--n", str(n),
               "--grid", str(grid), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: moving-max draw expects {expected} Poisson points")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BAD_NUMBERS)
def test_numeric_option_out_of_range_exits_one(name, tmp_path, capsys):
    flag, command = BAD_NUMBERS[name]
    paths, _ = _pareto_csv(tmp_path)
    out = tmp_path / "out"
    rc = main(command.format(paths=paths, out=out).split())
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n"])
def test_empty_csv_gives_only_the_data_error(text, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    rc = main(["estimate", "--in", str(empty), "--k", "5", "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: paths CSV {str(empty)!r} has no data rows\n"


def _pareto_csv(tmp_path, n=80, m=5, seed=11):
    """iid unit Pareto columns written through the library's own writer."""
    rng = np.random.default_rng(seed)
    grid = make_grid(m=m)
    paths = ParetoPaths(grid, 1.0 / rng.random((n, m)))
    path = str(tmp_path / "zeta.csv")
    paths.to_csv(path)
    return path, paths


class TestTailproc:
    def test_field_matches_library(self, tmp_path, capsys):
        in_path, paths = _pareto_csv(tmp_path)
        out_path = str(tmp_path / "field.csv")
        rc, out = run(capsys, ["tailproc", "--in", in_path, "--k", "10",
                               "--xgrid", "8", "--out", out_path])
        assert rc == 0
        assert "wrote 5 x 8 tail field to" in out

        with open(out_path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("t,")

        field = build_tail_field(paths, 10, n_x=8)
        header_x = np.array([float(v) for v in lines[0].split(",")[1:]])
        np.testing.assert_allclose(header_x, field.x_grid, rtol=1e-15)
        row = np.array([float(v) for v in lines[2].split(",")])
        assert row[0] == pytest.approx(0.25)
        np.testing.assert_allclose(row[1:], field.values[1], rtol=1e-15)

    @pytest.mark.parametrize("k", ["0", "-5", "400"])
    def test_k_out_of_range_exits_one(self, tmp_path, capsys, k):
        # k = 0 used to divide by zero in the default level grid
        in_path, _ = _pareto_csv(tmp_path)
        rc = main(["tailproc", "--in", in_path, "--k", k, "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "k must be in [1, n-1]" in capsys.readouterr().err


def _field_csv_text(field):
    """The text `funcevt tailproc` writes for field."""
    lines = ["t," + ",".join("%.17g" % x for x in field.x_grid)]
    lines += ["%.17g," % t + ",".join("%.17g" % v for v in row)
              for t, row in zip(field.t_grid.points, field.values)]
    return "\n".join(lines) + "\n"


class TestTransform:
    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    def test_simulate_transform_tailproc_diagnose(self, tmp_path, capsys, family):
        paths, zeta, field = (tmp_path / name for name in ("paths.csv", "zeta.csv", "field.csv"))
        main(["simulate", "--family", family, "--n", "300", "--grid", "5", "--seed", "3",
              "--out", str(paths)])
        rc, out = run(capsys, ["transform", "--family", family, "--in", str(paths),
                               "--out", str(zeta)])
        assert rc == 0
        assert f"wrote 300 x 5 Pareto-scale sample to {zeta}" in out

        want = pareto_transform(PathSample.from_csv(paths, family), MarginalModel(family))
        want.to_csv(tmp_path / "want.csv")
        assert zeta.read_bytes() == (tmp_path / "want.csv").read_bytes()

        rc, _ = run(capsys, ["tailproc", "--in", str(zeta), "--k", "20", "--xgrid", "8",
                             "--out", str(field)])
        assert rc == 0
        assert field.read_text() == _field_csv_text(build_tail_field(want, 20, n_x=8))

        rc, out = run(capsys, ["diagnose", "--in", str(zeta), "--s", "0", "--delta", "0.5",
                               "--v", "2", "--K", "1"])
        assert rc == 0
        assert out.startswith("conditioning paths: ")

    def test_unknown_family_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["transform", "--family", "weibull", "--in", str(tmp_path / "paths.csv"),
                  "--out", str(tmp_path / "zeta.csv")])

    @pytest.mark.parametrize("bad", ["0", "-1.5", "nan", "inf"])
    def test_bad_value_exits_one(self, tmp_path, capsys, bad):
        paths, zeta = tmp_path / "paths.csv", tmp_path / "zeta.csv"
        paths.write_text(f"0,0.5\n1.0,2.0\n3.0,{bad}\n")
        rc = main(["transform", "--family", "moving-max", "--in", str(paths), "--out", str(zeta)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: path values must be ")
        assert not zeta.exists()


class TestDiagnose:
    def test_hand_counts(self, tmp_path, capsys):
        # two conditioning paths above v = 2 at s = 0.5, one of which moves
        # by more than K * delta in ratio terms over the window
        grid = make_grid(points=(0.5, 0.52))
        paths = ParetoPaths(
            grid, np.array([[10.0, 10.2], [10.0, 12.0], [1.5, 1.4]])
        )
        in_path = str(tmp_path / "hand.csv")
        paths.to_csv(in_path)
        rc, out = run(
            capsys,
            ["diagnose", "--in", in_path, "--s", "0.5", "--delta", "0.05",
             "--v", "2", "--K", "1", "--variant", "ratio"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "conditioning paths: 2 of 3"
        assert lines[1] == "outside small-oscillation set: 1"
        assert lines[2] == "estimate: 0.5"
        # threshold = K (log 1/delta)^-3
        assert lines[3] == "increment threshold: %.6g" % math.log(20.0) ** -3
        assert lines[4].startswith("reference bound: ")


class TestNu:
    def test_rect_single_time(self, capsys):
        rc, out = run(capsys, ["nu", "--family", "moving-max",
                               "--t", "0", "--x", "2"])
        assert rc == 0
        assert out.strip() == "0.5"

    def test_moving_max_intersection(self, capsys):
        rc, out = run(capsys, ["nu", "--family", "moving-max", "--t", "0.25",
                               "--x", "1", "--s", "0.75", "--y", "1"])
        assert rc == 0
        # the double-exp oracle is exact; allow for the 12 printed digits
        assert float(out) == pytest.approx(math.exp(-0.25), rel=1e-11)

    def test_gbm_intersection(self, capsys):
        rc, out = run(capsys, ["nu", "--family", "pareto-gbm", "--t", "0",
                               "--x", "1", "--s", "1", "--y", "1"])
        assert rc == 0
        assert float(out) == pytest.approx(2.0 * ndtr(-0.5), rel=1e-10)

    def test_student_t_intersection(self, capsys):
        # f(u + 0.5)/2 < f(u) for the t_3 kernel, so C_{0.5,2} lies inside
        # C_{0,1} and the intersection carries its mass 1/2
        rc, out = run(capsys, ["nu", "--family", "moving-max", "--kernel", "t",
                               "--t", "0", "--x", "1", "--s", "0.5", "--y", "2"])
        assert rc == 0
        assert out.strip() == "0.5"

    @pytest.mark.parametrize("kernel", ["dexp", "t"])
    @pytest.mark.parametrize(
        "levels",
        [("1", "1e-320"), ("1e-320", "1"), ("inf", "1")],
        ids=["subnormal-y", "subnormal-x", "infinite-x"],
    )
    def test_unrepresentable_level_exits_one(self, capsys, kernel, levels):
        # 1/1e-320 overflows and 1/inf is 0: these printed nan, inf and 0
        x, y = levels
        rc = main(["nu", "--family", "moving-max", "--kernel", kernel, "--t", "0",
                   "--x", x, "--s", "0.5", "--y", y])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: level must be")

    @pytest.mark.parametrize("half", [["--s", "0.5"], ["--y", "2"]], ids=["s-only", "y-only"])
    def test_half_an_intersection_exits_one(self, capsys, half):
        # one of --s/--y used to be dropped, printing the single-cell mass
        rc = main(["nu", "--family", "pareto-gbm", "--t", "0", "--x", "2", *half])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "--s and --y" in captured.err


class TestLimit:
    def test_json_document(self, tmp_path, capsys):
        out_path = str(tmp_path / "limit.json")
        rc, out = run(
            capsys,
            ["limit", "--family", "moving-max", "--tgrid", "2",
             "--xgrid", "16", "--xmax", "100", "--draws", "64",
             "--seed", "3", "--out", out_path],
        )
        assert rc == 0
        assert "wrote 64 limit functional draws" in out
        with open(out_path) as fh:
            doc = json.load(fh)
        assert doc["family"] == "moving-max"
        assert doc["t"] == [0.0, 1.0]
        assert doc["draws"] == 64
        for name in ("moment1", "moment2", "index", "location", "scale"):
            assert len(doc["variance"][name]) == 2
            arr = np.asarray(doc["functionals"][name])
            assert arr.shape == (64, 2)
        assert len(doc["covariance_moments"]) == 2
        assert all(v > 0.0 for v in doc["variance"]["moment1"])

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    def test_file_is_json_dumps_bytes(self, tmp_path, family):
        out_path = tmp_path / "limit.json"
        rc = main(["limit", "--family", family, "--tgrid", "3", "--xgrid", "32",
                   "--xmax", "1e3", "--draws", "50", "--seed", "2",
                   "--out", str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_writer_matches_json_dumps(self):
        rng = np.random.default_rng(4)
        arrays = {name: rng.standard_normal((5, 3)) for name in ("index", "scale")}
        doc = {"family": "pareto-gbm", "variance": {"index": [1.5, math.nan]},
               "functionals": arrays}
        assert written(doc) == dumped(doc)

    @pytest.mark.parametrize("shape", [(5, 1), (1, 1)], ids=["one-column", "one-value"])
    def test_writer_matches_json_dumps_on_edge_shapes(self, shape):
        rng = np.random.default_rng(5)
        doc = {"draws": shape[0], "functionals": {
            "index": rng.standard_normal((4, 2)), "scale": rng.standard_normal(shape)}}
        assert written(doc) == dumped(doc)

    def test_writer_holds_one_array_at_a_time(self):
        # five functionals of a 10,000-draw, 3-time run: the whole text is
        # about 5 MB, one array's text and floats about 2 MB
        rng = np.random.default_rng(6)
        names = ("moment1", "moment2", "index", "location", "scale")
        doc = {"variance": {name: [1.0, 2.0, 3.0] for name in names},
               "functionals": {name: rng.standard_normal((10_000, 3)) for name in names}}
        tracemalloc.start()
        try:
            _write_limit_json(doc, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_success_writes_nothing_to_stderr(self, tmp_path, capsys):
        out_path = tmp_path / "limit.json"
        rc = main(["limit", "--family", "moving-max", "--tgrid", "3",
                   "--xgrid", "128", "--xmax", "1e4", "--draws", "4",
                   "--seed", "1", "--out", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_indefinite_covariance_exits_one(self, tmp_path, capsys, monkeypatch):
        import funcevt.limit_theory

        monkeypatch.setattr(
            funcevt.limit_theory, "covariance_matrix",
            lambda oracle, t, x: -np.eye(len(t) * x.size),
        )
        out_path = tmp_path / "limit.json"
        rc = main(["limit", "--family", "pareto-gbm", "--tgrid", "3",
                   "--xgrid", "16", "--draws", "4", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "3 x 16" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    def test_overflowing_levels_exit_one(self, tmp_path, capsys):
        # the functional weights overflow at x_max 1e308, and Cholesky
        # would pass the NaN covariance on to NaN draws
        out_path = tmp_path / "limit.json"
        rc = main(["limit", "--family", "moving-max", "--xmax", "1e308", "--xgrid", "8",
                   "--tgrid", "2", "--draws", "4", "--out", str(out_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: limit covariance on the 2 x 8 (time x level) grid, "
            "x_max 1e+308, is not finite\n")
        assert not out_path.exists()


# configs that must end in "error: ..." and exit 1, never a traceback
# or a silently coerced run
BAD_CONFIGS = {
    "unknown-key": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "colour": 1}',
    "string-int": '{"kind": "quantile", "family": "pareto-gbm", "n": "200", "k": 20}',
    "top-level-list": '[{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20}]',
    "one-element-pair": '{"kind": "tailcov", "family": "pareto-gbm", "n": 200, "k": 20, "pairs": [[0.5]]}',
    "malformed-json": '{"kind": "quantile", "family": ',
    "bool-reps": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "reps": true}',
    "bool-float": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "alpha": false}',
    "string-in-schedule": '{"kind": "consistency", "family": "moving-max", "schedule": [[100, "10"]]}',
    "missing-family": '{"kind": "quantile", "n": 200, "k": 20}',
    "negative-seed": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "seed": -1}',
    "negative-floor": '{"kind": "normality", "family": "moving-max", "n": 200, "k": 20, "value_floor": -3}',
    "nan-floor": '{"kind": "normality", "family": "moving-max", "n": 200, "k": 20, "value_floor": NaN}',
    "zero-alpha": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "alpha": 0}',
    "overflowing-alpha": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 10, "reps": 20, "alpha": 1e200}',
    "nan-alpha": '{"kind": "quantile", "family": "pareto-gbm", "n": 200, "k": 20, "alpha": NaN}',
    "nan-beta": '{"kind": "normality", "family": "pareto-gbm", "n": 200, "k": 20, "beta": NaN}',
    "infinite-beta": '{"kind": "quantile", "family": "moving-max", "n": 200, "k": 20, "beta": Infinity}',
    "gbm-bad-kernel": '{"kind": "tailcov", "family": "pareto-gbm", "n": 200, "k": 20, "pairs": [[0, 1]], "kernel_rate": -1}',
}

# what `funcevt experiment` prints and writes to a .csv out for the tailcov
# config of `test_report_format_follows_the_suffix_of_out`
TAILCOV_CSV = """\
t,mean,var,var_limit,ks
0.5,0.75614035087719311,0.039456008771929854,0.7236736098317631,nan
0.75,0.44491228070175409,0.019199906432748524,0.66500554210202911,nan
"""

# configs whose every replication is flagged: k = 1 leaves the estimators
# no second order statistic
ALL_FLAGGED_CONFIGS = {
    "normality-k1": ExperimentConfig(
        kind="normality", family="pareto-gbm", n=100, k=1, reps=4, seed=1, m=3
    ),
    "consistency-k1": ExperimentConfig(
        kind="consistency", family="pareto-gbm", reps=4, seed=1, m=3,
        schedule=((200, 1), (400, 1)),
    ),
}


class TestExperiment:
    def _oscillation_cfg(self, K, out=""):
        # moving-max oscillation run whose estimate is exactly zero when K
        # is the kernel's own log-Lipschitz bound, and far above zero when
        # K is made absurdly small
        return ExperimentConfig(
            kind="oscillation",
            family="moving-max",
            n=500,
            k=1,
            reps=1,
            seed=5,
            m=201,
            v=20.0,
            K=K,
            variant="ratio",
            out=out,
        )

    def test_check_passes(self, tmp_path, capsys):
        kernel = KernelSpec()
        cfg = self._oscillation_cfg(
            kernel.oscillation_constant(cfg_delta := math.exp(-4.0)),
            out=str(tmp_path / "report.csv"),
        )
        assert cfg.delta == pytest.approx(cfg_delta)
        cfg_path = str(tmp_path / "cfg.json")
        save_config(cfg, cfg_path)
        rc, out = run(capsys, ["experiment", "--config", cfg_path,
                               "--workers", "1", "--check"])
        assert rc == 0
        lines = out.splitlines()
        assert "wrote report to" in lines[0]
        assert lines[1] == "t,mean,var,var_limit,ks"
        assert "PASS all checks passed" in out
        assert (tmp_path / "report.csv").exists()

    def test_check_fails_with_tiny_threshold(self, tmp_path, capsys):
        cfg = self._oscillation_cfg(1e-3)
        cfg_path = str(tmp_path / "cfg.json")
        save_config(cfg, cfg_path)
        rc, out = run(capsys, ["experiment", "--config", cfg_path,
                               "--workers", "1", "--check"])
        assert rc == 2
        assert "FAIL" in out

    def test_worker_env_is_ignored(self, tmp_path, capsys, monkeypatch):
        cfg_path = str(tmp_path / "cfg.json")
        save_config(self._oscillation_cfg(1e-3), cfg_path)
        monkeypatch.setenv("FUNCEVT_WORKERS", "abc")
        rc = main(["experiment", "--config", cfg_path])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ALL_FLAGGED_CONFIGS)
    def test_all_flagged_run_fails_its_check(self, tmp_path, capsys, name):
        cfg_path = str(tmp_path / "cfg.json")
        save_config(ALL_FLAGGED_CONFIGS[name], cfg_path)
        rc = main(["experiment", "--config", cfg_path, "--workers", "1", "--check"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "FAIL all 4 replications flagged" in out
        assert "PASS" not in out
        assert "Traceback" not in out + err

    @pytest.mark.filterwarnings("error")
    def test_one_replication_tailcov_fails_its_check(self, tmp_path, capsys):
        # one replication has no sample covariance: a NaN row, no warning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"kind": "tailcov", "family": "moving-max", "n": 200, '
                            '"k": 10, "reps": 1, "pairs": [[0, 0.5]]}')
        rc = main(["experiment", "--config", str(cfg_path), "--workers", "1", "--check"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out.splitlines()[1].startswith("0.5,nan,nan,0.778")
        assert "FAIL gap=0.5: |cov - nu| = nan is not finite" in out
        assert "PASS" not in out and err == ""

    @pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_config_exits_one(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        rc = main(["experiment", "--config", str(cfg_path), "--workers", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("bound_exponent", 4.0), ("value_floor", 100.0), ("trunc_tol", 1e-3), ("fmt", "json"),
    ])
    def test_removed_key_is_an_unknown_key(self, tmp_path, capsys, key, value):
        # the pareto-gbm bound exponent is a constant of the second-order
        # condition, not an experiment setting; the moving-max floor and
        # truncation tolerance follow from the kind, and the report format
        # from the suffix of out
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kind": "normality", "family": "pareto-gbm", "n": 200, "k": 20, key: value}
        ))
        rc = main(["experiment", "--config", str(cfg_path), "--workers", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"

    def test_report_format_follows_the_suffix_of_out(self, tmp_path, capsys):
        # a .json out used to get CSV text, which load_report then refused
        doc = {"kind": "tailcov", "family": "pareto-gbm", "n": 300, "k": 30, "reps": 20,
               "seed": 1, "pairs": [[0, 0.5], [0.25, 1]]}
        for suffix in ("csv", "json"):
            out_path = tmp_path / f"r.{suffix}"
            cfg_path = tmp_path / f"{suffix}.json"
            cfg_path.write_text(json.dumps({**doc, "out": str(out_path)}))
            rc, out = run(capsys, ["experiment", "--config", str(cfg_path)])
            assert rc == 0
            assert out == f"wrote report to {out_path}\n" + TAILCOV_CSV
        assert (tmp_path / "r.csv").read_text() == TAILCOV_CSV
        report = load_report(tmp_path / "r.json")
        assert report.schema == 4
        assert report.config_hash == config_hash(load_config(tmp_path / "json.json"))
        assert report_csv(report) == TAILCOV_CSV

    def test_printed_table_is_the_exported_csv(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        cfg = ExperimentConfig(
            kind="tailcov", family="pareto-gbm", n=300, k=30, reps=20, seed=1,
            pairs=((0.0, 0.5), (0.25, 1.0)), out=str(out_path),
        )
        cfg_path = str(tmp_path / "cfg.json")
        save_config(cfg, cfg_path)
        rc, out = run(capsys, ["experiment", "--config", cfg_path,
                               "--workers", "1", "--check"])
        assert rc in (0, 2)
        table = out_path.read_text()
        assert table.count("\n") == 3
        head, verdicts = out.split(table)
        assert head == f"wrote report to {out_path}\n"
        assert verdicts.splitlines()
        for line in verdicts.splitlines():
            assert line.startswith("PASS " if rc == 0 else "FAIL ")

    def test_no_check_returns_zero_either_way(self, tmp_path, capsys):
        cfg = self._oscillation_cfg(1e-3)
        cfg_path = str(tmp_path / "cfg.json")
        save_config(cfg, cfg_path)
        rc, out = run(capsys, ["experiment", "--config", cfg_path,
                               "--workers", "1"])
        assert rc == 0
        assert "FAIL" not in out


def test_cli_import_leaves_slow_scipy_modules_unloaded(tmp_path):
    # and so do `funcevt nu` and `funcevt limit` for every oracle, all of
    # them closed forms (the limit functionals' tail coefficient is a
    # closed form too), and a checked normality experiment (its KS
    # statistic and critical value come from scipy.special)
    loaded = (
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
        "'scipy.stats') if m in sys.modules)); "
    )
    student = "'--kernel', 't', "
    limit = "".join(
        f"funcevt.cli.main(['limit', '--family', {family!r}, {kernel}'--tgrid', '2', "
        f"'--xgrid', '16', '--draws', '4', '--out', {str(tmp_path / 'l.json')!r}]); "
        for family, kernel in (("moving-max", ""), ("moving-max", student), ("pareto-gbm", ""))
    )
    limit += (
        f"funcevt.cli.main(['nu', '--family', 'moving-max', {student}'--t', '0', "
        "'--x', '1', '--s', '0.5', '--y', '2']); "
    )
    cfg_path = str(tmp_path / "cfg.json")
    save_config(ExperimentConfig(kind="normality", family="moving-max", n=500, k=50,
                                 reps=10, seed=3, m=3), cfg_path)
    experiment = (
        f"funcevt.cli.main(['experiment', '--config', {cfg_path!r}, "
        "'--workers', '1', '--check']); "
    )
    code = "import sys, funcevt.cli; " + loaded + limit + loaded + experiment + loaded
    env = {**os.environ, "PYTHONPATH": str(Path(funcevt.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120, env=env,
    )
    lines = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert lines == ["[]", "[]", "[]"]  # after the import, the limit and nu runs, the experiment
    assert "PASS " in out.stdout or "FAIL " in out.stdout  # --check ran
