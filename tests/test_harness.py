import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from funcevt import harness, path_model
from funcevt.estimators import estimate_curves
from funcevt.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ReplicationSet,
    StatsReport,
    check_report,
    config_hash,
    export_report,
    grid_for,
    ks_critical,
    load_config,
    load_report,
    run_experiment,
    run_replications,
    save_config,
    standardize,
    summarize,
    worker_count,
)
from funcevt.limit_theory import TrueFunctions
from funcevt.path_model import DataError, marginal_model_for, pareto_top, pareto_transform
from funcevt.process_sim import KernelSpec, SimConfig, simulate_pareto_gbm
from funcevt.tail_process import build_tail_field, tail_quantile_stat


def small_normality(**kw):
    base = dict(kind="normality", family="pareto-gbm", n=200, k=20, reps=6, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(DataError):
            ExperimentConfig(kind="power", family="pareto-gbm", n=10, k=2)
        with pytest.raises(DataError):
            ExperimentConfig(kind="normality", family="cauchy", n=10, k=2)
        with pytest.raises(DataError):
            small_normality(statistic="mean")
        with pytest.raises(DataError):
            small_normality(reps=0)
        with pytest.raises(DataError):
            small_normality(k=200)

    def test_consistency_schedule_rules(self):
        def consistency(schedule):
            return ExperimentConfig(
                kind="consistency", family="moving-max", reps=2, schedule=schedule
            )

        consistency(((100, 10), (400, 20)))
        with pytest.raises(DataError):
            consistency(())
        with pytest.raises(DataError):
            consistency(((100, 100),))
        with pytest.raises(DataError):
            consistency(((400, 20), (100, 10)))
        with pytest.raises(DataError):
            consistency(((100, 20), (400, 10)))
        with pytest.raises(DataError):
            # k/n must fall
            consistency(((100, 10), (400, 40)))

    def test_tailcov_needs_pairs(self):
        with pytest.raises(DataError):
            ExperimentConfig(kind="tailcov", family="moving-max", n=100, k=10)

    @pytest.mark.parametrize("bad", [
        dict(s=0.99), dict(delta=2.0), dict(v=1.0), dict(K=0.0), dict(beta=0.5),
        dict(variant="x"),
    ], ids=lambda bad: next(iter(bad)))
    def test_bad_oscillation_window_fails_when_built(self, bad):
        # not later, inside the first replicate
        base = dict(kind="oscillation", family="moving-max", n=200, k=1, m=11, v=5.0)
        with pytest.raises(DataError):
            ExperimentConfig(**{**base, **bad})

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            kind="tailcov",
            family="moving-max",
            n=100,
            k=10,
            reps=3,
            pairs=((0.0, 0.5), (0.25, 0.75)),
        )
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    @pytest.mark.parametrize("key, value", [
        ("c", 1.0), ("fmt", "yaml"), ("fmt", "json"), ("value_floor", 30.0), ("trunc_tol", 1e-3),
    ])
    def test_removed_key_is_an_unknown_key(self, key, value):
        doc = small_normality().to_dict()
        assert key not in doc
        with pytest.raises(DataError, match=f"unknown config keys: {key}$"):
            ExperimentConfig.from_dict(dict(doc, **{key: value}))

    def test_hash_sensitive_to_fields(self):
        a = small_normality(seed=1)
        b = small_normality(seed=2)
        assert config_hash(a) != config_hash(b)

    def test_save_load_config(self, tmp_path):
        cfg = small_normality()
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_grid_for_tailcov_sorts_unique_times(self):
        cfg = ExperimentConfig(
            kind="tailcov",
            family="moving-max",
            n=100,
            k=10,
            pairs=((0.5, 0.0), (0.25, 0.5)),
        )
        assert grid_for(cfg).points.tolist() == [0.0, 0.25, 0.5]

    def test_grid_for_times_and_m(self):
        cfg = small_normality(times=(0.1, 0.9))
        assert grid_for(cfg).points.tolist() == [0.1, 0.9]
        assert grid_for(small_normality(m=3)).points.tolist() == [0.0, 0.5, 1.0]


class TestWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(2, 1000) == 2

    def test_default_is_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(None, 1000) == 1

    @pytest.mark.parametrize("env", ["abc", "2.5", "0", "-3"])
    def test_environment_is_not_read(self, monkeypatch, env):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("FUNCEVT_WORKERS", env)
        assert worker_count(None, 1000) == 1
        assert worker_count(2, 1000) == 2

    def test_nonpositive_argument_is_a_data_error(self):
        for workers in (0, -3):
            with pytest.raises(DataError):
                worker_count(workers, 10)

    @pytest.mark.parametrize("workers", [2.7, 2.0, True, "2"])
    def test_non_integral_argument_is_a_data_error(self, workers):
        # int() used to truncate 2.7 to 2 and take True as 1
        with pytest.raises(DataError, match="worker count must be an integer"):
            worker_count(workers, 10)

    def test_numpy_integer_gives_the_python_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for workers in (1, 2, 3, 64):
            got = worker_count(np.int64(workers), 1000)
            assert got == worker_count(workers, 1000)
            assert type(got) is int

    def test_pool_capped_at_reps_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(64, reps=1000) == 4
        assert worker_count(64, reps=3) == 3
        assert worker_count(2, reps=1000) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(8, reps=10) == 1


class TestReplications:
    def test_deterministic(self):
        cfg = small_normality()
        a = run_replications(cfg)
        b = run_replications(cfg)
        np.testing.assert_array_equal(a.arrays["hill"], b.arrays["hill"])
        np.testing.assert_array_equal(a.flagged, b.flagged)

    def test_worker_count_invariant(self):
        cfg = small_normality()
        serial = run_replications(cfg, workers=1)
        parallel = run_replications(cfg, workers=3)
        for key in serial.arrays:
            np.testing.assert_array_equal(serial.arrays[key], parallel.arrays[key])

    def test_seed_derivation_documented(self):
        # child streams come from SeedSequence(master).spawn(reps)
        cfg = small_normality(reps=3)
        repset = run_replications(cfg)
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        sample = simulate_pareto_gbm(grid_for(cfg), SimConfig(n=cfg.n, seed=children[1]))
        curves = estimate_curves(sample, cfg.k)
        np.testing.assert_array_equal(repset.arrays["hill"][1], curves.gamma_plus)

    def test_single_rep_pipeline(self):
        report = run_experiment(small_normality(reps=1))
        assert report.used == 1
        assert math.isnan(report.var[0])


class TestStandardize:
    def test_arithmetic(self):
        cfg = small_normality(reps=4)
        repset = run_replications(cfg)
        truth = TrueFunctions("pareto-gbm")
        std = standardize(repset, truth)
        rk = math.sqrt(cfg.k)
        v = cfg.n / cfg.k
        # at t = 0 the true location and scale both equal n/k
        np.testing.assert_allclose(std.hill, rk * (repset.arrays["hill"] - 1.0))
        np.testing.assert_allclose(
            std.location, rk * (repset.arrays["location"] - v) / v
        )
        np.testing.assert_allclose(std.scale, rk * (repset.arrays["scale"] / v - 1.0))
        assert std.used + std.flagged == cfg.reps

    def test_only_normality_kind(self):
        cfg = ExperimentConfig(
            kind="quantile", family="pareto-gbm", n=100, k=10, reps=2, alpha=1.0
        )
        repset = run_replications(cfg)
        with pytest.raises(DataError):
            standardize(repset, TrueFunctions("pareto-gbm"))


def unflagged(cfg, rows):
    """A replication set of cfg with rows unflagged replications and no arrays."""
    return ReplicationSet(cfg, {}, np.zeros(rows, dtype=bool))


class TestSummarize:
    def test_columns_match_numpy(self):
        cfg = small_normality(reps=5)
        rng = np.random.default_rng(0)
        errors = rng.standard_normal((5, 3))
        t = np.array([0.0, 0.5, 1.0])
        rep = summarize(unflagged(cfg, 5), t, errors, 1.0)
        np.testing.assert_allclose(rep.mean, errors.mean(axis=0))
        np.testing.assert_allclose(rep.var, errors.var(axis=0, ddof=1))
        np.testing.assert_allclose(rep.var_limit, 1.0)
        assert rep.config_hash == config_hash(cfg)

    def test_ks_column_is_ks_statistic(self):
        cfg = small_normality(reps=5)
        rng = np.random.default_rng(1)
        errors = rng.standard_normal((400, 1))
        rep = summarize(unflagged(cfg, 400), np.array([0.0]), errors, 1.0)
        want = stats.kstest(errors[:, 0], "norm").statistic
        assert rep.ks[0] == want
        assert rep.ks[0] < ks_critical(400)

    @pytest.mark.parametrize("n", [2, 3, 57, 1000])
    def test_ks_column_equals_scipy_kstest_bitwise(self, n):
        # scipy.stats.kstest is the reference for summarize's two
        # one-sided maxima, on ties, scaled limits and a NaN column too;
        # where the limit is not positive the column is NaN
        cfg = small_normality(reps=5)
        rng = np.random.default_rng(n)
        errors = rng.standard_normal((n, 4)) * 1.7
        errors[: n // 2, 1] = errors[0, 1]
        errors[-1, 3] = np.nan
        for var_limit in ([1.0, 0.3, 2.89, 1.0], [1.0, 0.0, -1.0, 2.89]):
            rep = summarize(unflagged(cfg, n), np.arange(4.0), errors, np.array(var_limit))
            for j, vl in enumerate(var_limit):
                if vl <= 0.0:
                    assert math.isnan(rep.ks[j])
                    continue
                want = stats.kstest(errors[:, j], "norm", args=(0.0, math.sqrt(vl)))
                assert np.float64(rep.ks[j]).tobytes() == np.float64(want.statistic).tobytes()

    def test_zero_var_limit_gives_nan_ks(self):
        cfg = small_normality(reps=5)
        errors = np.zeros((10, 1))
        rep = summarize(unflagged(cfg, 10), np.array([0.0]), errors, 0.0)
        assert math.isnan(rep.ks[0])
        assert rep.var[0] == 0.0

    def test_ks_critical_value(self):
        # kstwobign upper 1% point is about 1.628
        assert ks_critical(100) == pytest.approx(0.1628, abs=2e-3)
        for alpha in (0.001, 0.01, 0.05):
            assert ks_critical(100, alpha) == float(stats.kstwobign.isf(alpha)) / 10.0


ROW = "0.5,0.1,1.2,1,0.03"
# (format, file text for csv or an edit of a valid report document for json)
MALFORMED_REPORTS = {
    "csv-three-columns": ("csv", "t,mean,var\n0.5,0.1,1.2\n"),
    "csv-no-header": ("csv", ROW + "\n"),
    "csv-empty-file": ("csv", ""),
    "csv-short-row": ("csv", f"{CSV_HEADER}\n{ROW}\n0.5,0.1,1.2,1\n"),
    "csv-three-column-rows": ("csv", f"{CSV_HEADER}\n0.5,0.1,1.2\n0.6,0.1,1.1\n"),
    "csv-text-cell": ("csv", f"{CSV_HEADER}\n0.5,0.1,x,1,0.03\n"),
    "json-list": ("json", lambda doc: [doc]),
    "json-no-statistic": ("json", lambda doc: {k: v for k, v in doc.items() if k != "statistic"}),
    "json-no-schema": ("json", lambda doc: {k: v for k, v in doc.items() if k != "schema"}),
    "json-no-ks-column": ("json", lambda doc: {**doc, "rows": {
        k: v for k, v in doc["rows"].items() if k != "ks"}}),
    "json-rows-a-list": ("json", lambda doc: {**doc, "rows": list(doc["rows"].values())}),
    "json-invalid": ("json", lambda doc: "not json"),
}


class TestExportLoad:
    def test_csv_round_trip(self, tmp_path):
        report = run_experiment(small_normality(reps=3))
        p = tmp_path / "report.csv"
        export_report(report, p)
        text = p.read_text().splitlines()
        assert text[0] == CSV_HEADER
        back = load_report(p)
        np.testing.assert_array_equal(back.t, report.t)
        np.testing.assert_array_equal(back.mean, report.mean)

    def test_header_only_csv(self, tmp_path):
        report = StatsReport(
            "normality",
            "hill",
            np.empty(0),
            np.empty(0),
            np.empty(0),
            np.empty(0),
            np.empty(0),
            0,
            0,
            0,
            {},
            "",
        )
        p = tmp_path / "empty.csv"
        export_report(report, p)
        back = load_report(p)
        assert back.t.size == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
    def test_malformed_file_is_a_data_error(self, case, tmp_path):
        fmt, bad = MALFORMED_REPORTS[case]
        p = tmp_path / f"report.{fmt}"
        if fmt == "csv":
            p.write_text(bad)
        else:
            one_row = [np.array([v]) for v in (0.5, 0.1, 1.2, 1.0, 0.03)]
            export_report(StatsReport("normality", "hill", *one_row, 3, 3, 0, {}, ""), p)
            doc = bad(json.loads(p.read_text()))
            p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(DataError, match="report"):
            load_report(p)

    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_normality(reps=3))
        p = tmp_path / "report.json"
        export_report(report, p)
        doc = json.loads(p.read_text())
        assert "SeedSequence" in doc["seed_derivation"]
        back = load_report(p)
        assert back.kind == report.kind
        assert back.config_hash == report.config_hash
        np.testing.assert_allclose(back.var, report.var)
        assert back.config == report.config
        assert doc["schema"] == back.schema == 4
        for key in ("bound_exponent", "value_floor", "trunc_tol", "fmt"):
            assert key not in doc["config"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_exact(self, fmt, data):
        # any float a row can hold, nan included (numpy's own nan, which
        # is what the ks column holds); CSV keeps only the rows
        size = data.draw(st.integers(0, 5))
        number = st.one_of(st.floats(allow_nan=False), st.just(math.nan))
        rows = [np.array(data.draw(st.lists(number, min_size=size, max_size=size)),
                         dtype=float) for _ in range(5)]
        echo = st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text()),
            max_size=4,
        )
        counts = [data.draw(st.integers(0, 10**6)) for _ in range(3)]
        report = StatsReport("tailcov", "w", *rows, *counts, data.draw(echo),
                             data.draw(st.text(max_size=16)), data.draw(echo))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, f"report.{fmt}")
            export_report(report, path)
            back = load_report(path)
        for name in ("t", "mean", "var", "var_limit", "ks"):
            assert getattr(back, name).tobytes() == getattr(report, name).tobytes()
        if fmt == "json":
            for name in ("kind", "statistic", "reps", "used", "flagged", "config",
                         "config_hash", "extra", "schema"):
                assert getattr(back, name) == getattr(report, name)


def hand_report(kind, statistic="hill", t=(0.0,), mean=(0.0,), var=(1.0,),
                var_limit=(1.0,), ks=(0.01,), used=500, extra=None):
    arr = lambda v: np.asarray(v, dtype=float)
    return StatsReport(
        kind, statistic, arr(t), arr(mean), arr(var), arr(var_limit), arr(ks),
        used, used, 0, {}, "", extra or {},
    )


class TestCheckReport:
    def test_normality_pass_and_var_fail(self):
        ok, msgs = check_report(hand_report("normality", var=(1.0,)))
        assert ok and msgs == ["all checks passed"]
        ok, msgs = check_report(hand_report("normality", var=(0.5,)))
        assert not ok and "outside" in msgs[0]

    def test_normality_ks_gate_only_for_hill(self):
        bad_ks = hand_report("normality", statistic="hill", ks=(0.5,))
        assert not check_report(bad_ks)[0]
        biased = hand_report("normality", statistic="index", var=(2.0,), ks=(0.5,))
        assert check_report(biased)[0]

    def test_consistency_median_rule(self):
        good = hand_report("consistency", extra={"median_sup": [0.3, 0.2, 0.1]})
        bad = hand_report("consistency", extra={"median_sup": [0.3, 0.35, 0.1]})
        assert check_report(good)[0]
        assert not check_report(bad)[0]

    def test_tailcov_band(self):
        good = hand_report("tailcov", mean=(0.75,), var_limit=(0.78,))
        bad = hand_report("tailcov", mean=(0.6,), var_limit=(0.78,))
        assert check_report(good)[0]
        assert not check_report(bad)[0]

    def test_quantile_ratio_window(self):
        good = hand_report("quantile", var=(1.1,), var_limit=(1.0,))
        bad = hand_report("quantile", var=(2.0,), var_limit=(1.0,))
        assert check_report(good)[0]
        assert not check_report(bad)[0]

    def test_oscillation_bound(self):
        good = hand_report("oscillation", mean=(0.0,), var_limit=(0.5,))
        bad = hand_report("oscillation", mean=(0.7,), var_limit=(0.5,))
        assert check_report(good)[0]
        assert not check_report(bad)[0]


class TestRunExperimentKinds:
    def test_tailcov_small(self):
        cfg = ExperimentConfig(
            kind="tailcov",
            family="moving-max",
            n=400,
            k=40,
            reps=100,
            seed=3,
            pairs=((0.0, 0.5),),
        )
        rep = run_experiment(cfg)
        assert rep.t[0] == pytest.approx(0.5)
        assert rep.var_limit[0] == pytest.approx(math.exp(-0.25), abs=1e-9)
        assert abs(rep.mean[0] - rep.var_limit[0]) < 0.35

    def test_quantile_small(self):
        cfg = ExperimentConfig(
            kind="quantile",
            family="pareto-gbm",
            n=500,
            k=50,
            reps=60,
            seed=4,
            alpha=1.0,
        )
        rep = run_experiment(cfg)
        assert rep.var_limit[0] == pytest.approx(1.0)
        assert 0.4 < rep.var[0] < 2.0

    def test_oscillation_moving_max_exact_zero(self):
        kernel = KernelSpec()
        delta = math.exp(-4.0)
        cfg = ExperimentConfig(
            kind="oscillation",
            family="moving-max",
            n=500,
            k=1,
            reps=1,
            seed=5,
            m=201,
            v=20.0,
            K=kernel.oscillation_constant(delta),
            variant="ratio",
        )
        rep = run_experiment(cfg)
        assert rep.extra["n_conditioning"] > 0
        assert rep.mean[0] == 0.0
        assert rep.var_limit[0] == 0.0

    def test_consistency_report_shape(self):
        cfg = ExperimentConfig(
            kind="consistency",
            family="moving-max",
            statistic="index",
            reps=5,
            seed=6,
            m=5,
            schedule=((200, 14), (800, 28)),
        )
        rep = run_experiment(cfg)
        assert rep.t.tolist() == [200.0, 800.0]
        assert rep.extra["n"] == [200, 800]
        assert len(rep.extra["median_sup"]) == 2
        assert all(v > 0.0 for v in rep.extra["median_sup"])


# tiny configs covering every kind, and both families for tailcov
TINY_CONFIGS = {
    "normality": dict(kind="normality", family="pareto-gbm", n=200, k=20, reps=4, m=3),
    "consistency": dict(
        kind="consistency", family="moving-max", statistic="scale", reps=3, m=3,
        schedule=((100, 10), (400, 20)),
    ),
    "tailcov-mm": dict(
        kind="tailcov", family="moving-max", n=200, k=20, reps=4,
        pairs=((0.0, 0.5), (0.25, 0.5)),
    ),
    "tailcov-gbm": dict(
        kind="tailcov", family="pareto-gbm", n=200, k=20, reps=4,
        pairs=((0.0, 0.5), (0.25, 0.5)),
    ),
    "quantile": dict(kind="quantile", family="moving-max", n=200, k=20, reps=4, m=3),
    "oscillation": dict(
        kind="oscillation", family="moving-max", n=200, k=1, reps=2, m=201,
        v=5.0, K=2.0, variant="ratio",
    ),
}


@pytest.mark.parametrize("name", TINY_CONFIGS)
def test_exports_bitwise_identical_across_reruns_and_workers(name, tmp_path):
    cfg = ExperimentConfig(seed=12, **TINY_CONFIGS[name])
    exports = []
    for run, workers in enumerate((1, 1, 2)):
        report = run_experiment(cfg, workers=workers)
        for fmt in ("csv", "json"):
            path = tmp_path / f"{run}.{fmt}"
            export_report(report, path)
            exports.append(path.read_bytes())
    assert exports[0:2] == exports[2:4] == exports[4:6]


def pareto_sample(cfg, grid, seed):
    """The whole Pareto-scale sample of one replication of cfg."""
    sample = harness._simulate(cfg, grid, cfg.n, seed, harness._tail_floor(cfg.n, cfg.k))
    return pareto_transform(sample, marginal_model_for(sample))


def reference_tailcov_replicate(cfg, grid, context, seed):
    """The tailcov replicate from the whole Pareto-scale sample (the code
    the top block replaced)."""
    zeta = pareto_sample(cfg, grid, seed)
    return {"w_at_one": build_tail_field(zeta, cfg.k, x_grid=[1.0]).values[:, 0]}, False


def reference_floor_tied(cfg, grid, seed):
    """Whether the (k+1)-th largest raw value of some moving-max column is
    the floor it was simulated at, from the whole sorted columns."""
    floor = harness._tail_floor(cfg.n, cfg.k)
    sample = harness._simulate(cfg, grid, cfg.n, seed, floor)
    kth = np.sort(sample.values, axis=0)[cfg.n - cfg.k - 1]
    return cfg.family == "moving-max" and bool(np.any(kth == floor))


def reference_quantile_replicate(cfg, grid, context, seed):
    """The quantile replicate from the whole Pareto-scale sample."""
    zeta = pareto_sample(cfg, grid, seed)
    q = tail_quantile_stat(zeta, cfg.k, cfg.alpha)
    return {"quantile_stat": q}, reference_floor_tied(cfg, grid, seed) or not np.all(
        np.isfinite(q)
    )


def needs_whole_column(cfg, grid, seed):
    """Whether the top block of some column misses a level it is read at,
    from the whole Pareto-scale sample: then every value is transformed."""
    zeta = pareto_sample(cfg, grid, seed)
    n, k = cfg.n, cfg.k
    big = min(2 * k, n - 1)
    cols = np.sort(zeta.values, axis=0)
    levels = np.minimum(n / k, cols[n - k - 1])
    return big < n - 1 and bool(np.any(cols[n - big - 1] * (1.0 + path_model._TOP_MARGIN) >= levels))


def assert_pareto_top_holds_the_tail(cfg, grid, seed):
    """pareto_top's rows are read-only and ascending, and their values at or
    above min(n/k, the (k+1)-th largest) are those of the sorted whole
    Pareto-scale sample."""
    sample = harness._simulate(cfg, grid, cfg.n, seed, harness._tail_floor(cfg.n, cfg.k))
    top = pareto_top(sample, cfg.k)
    assert not top.flags.writeable
    assert np.all(np.diff(top, axis=1) >= 0.0)
    cols = np.sort(pareto_sample(cfg, grid, seed).values, axis=0).T
    for row, col in zip(top, cols):
        level = min(cfg.n / cfg.k, col[-cfg.k - 1])
        assert row[row >= level].tobytes() == col[col >= level].tobytes()


def top_block_runs(cfg):
    """(payload bytes, flag) of the new and the reference replicate of every
    replication of cfg, and how many of them need the whole column; checks
    `pareto_top` on each replication's sample too."""
    new, ref = (
        (harness._tailcov_replicate, reference_tailcov_replicate)
        if cfg.kind == "tailcov"
        else (harness._quantile_replicate, reference_quantile_replicate)
    )
    grid = grid_for(cfg)
    got, want, whole = [], [], 0
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.reps):
        for out, fn in ((got, new), (want, ref)):
            payload, flag = fn(cfg, grid, None, seed)
            out.append(({key: v.tobytes() for key, v in payload.items()}, flag))
        whole += needs_whole_column(cfg, grid, seed)
        assert_pareto_top_holds_the_tail(cfg, grid, seed)
    return got, want, whole


def top_block_config(kind, family, n, k, reps, seed=None):
    extra = dict(pairs=((0.0, 0.5), (0.25, 0.75))) if kind == "tailcov" else dict(
        m=4, alpha=-1.0
    )
    return ExperimentConfig(
        kind=kind, family=family, n=n, k=k, reps=reps,
        seed=n + k if seed is None else seed, **extra,
    )


# (family, n, k, moving-max floor or None for the kind's own, reps, some
# replication needs the whole column)
TOP_BLOCK_CASES = {
    "mm-acceptance-size": ("moving-max", 5000, 200, None, 4, False),
    "gbm-acceptance-size": ("pareto-gbm", 5000, 200, None, 4, False),
    "mm-small": ("moving-max", 400, 40, None, 20, False),
    "gbm-small": ("pareto-gbm", 400, 40, None, 20, False),
    # fewer than k + 1 values above the floor tie the block's ends
    "mm-floor-ties": ("moving-max", 200, 20, 30.0, 10, True),
    # the block is the 5 largest of 40; 6 values reach n/k = 20 in ~1.6%
    # of the columns
    "gbm-small-k": ("pareto-gbm", 40, 2, None, 100, True),
    # 2k + 1 > n: the block is the whole column
    "gbm-block-is-column": ("pareto-gbm", 7, 4, None, 10, False),
}


@pytest.mark.parametrize("kind", ["tailcov", "quantile"])
@pytest.mark.parametrize("case", TOP_BLOCK_CASES)
def test_top_block_replicates_bitwise_equal_to_whole_sample(kind, case, monkeypatch):
    family, n, k, floor, reps, whole_expected = TOP_BLOCK_CASES[case]
    if floor is not None:
        monkeypatch.setattr(harness, "_tail_floor", lambda n, k: floor)
    got, want, whole = top_block_runs(top_block_config(kind, family, n, k, reps))
    assert got == want
    assert (whole > 0) == whole_expected


def test_pareto_top_partitions_a_fresh_sample_once_at_2k(monkeypatch):
    cfg = top_block_config("tailcov", "pareto-gbm", 5000, 200, 1)
    sample = harness._simulate(cfg, grid_for(cfg), cfg.n, np.random.SeedSequence(7), None)
    calls, partition = [], path_model._partition_columns

    def counted(values, k):
        calls.append(k)
        return partition(values, k)

    monkeypatch.setattr(path_model, "_partition_columns", counted)
    pareto_top(sample, cfg.k)
    assert calls == [400]


def _clamp_count(caught):
    found = (re.match(r"clamped (\d+) tail values", str(w.message)) for w in caught)
    return sum(int(m.group(1)) for m in found if m)


def clamp_runs(cfg):
    """Per replication of cfg: the clamp totals warned by the new and the
    reference replicate, whether their payloads agree, and whether the
    replication needs the whole column."""
    grid = grid_for(cfg)
    new = harness._tailcov_replicate if cfg.kind == "tailcov" else harness._quantile_replicate
    ref = reference_tailcov_replicate if cfg.kind == "tailcov" else reference_quantile_replicate
    runs = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.reps):
        counts, payloads = [], []
        for fn in (new, ref):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                payload, _ = fn(cfg, grid, None, seed)
            counts.append(_clamp_count(caught))
            payloads.append({key: v.tobytes() for key, v in payload.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            whole = needs_whole_column(cfg, grid, seed)
        runs.append((*counts, payloads[0] == payloads[1], whole))
    return runs


@pytest.mark.parametrize("kind", ["tailcov", "quantile"])
@pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
def test_top_block_counts_every_tail_clamp(kind, family, monkeypatch):
    # a floor of 1e-3 clamps every value above ~1000 on the Pareto scale
    monkeypatch.setattr(path_model, "TAIL_FLOOR", 1e-3)
    for got, want, same, _ in clamp_runs(top_block_config(kind, family, 5000, 200, 3)):
        assert got == want > 0
        assert same


@pytest.mark.parametrize("kind", ["tailcov", "quantile"])
@pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
def test_whole_column_fallback_counts_every_tail_clamp(kind, family, monkeypatch):
    # a floor of 0.1 clamps the top tenth of a column at 10 on the Pareto
    # scale, so with k = 2 the lowest of the block's 5 values often ties
    # the 3rd largest, and the whole column, with clamps below the block
    # too, is transformed
    monkeypatch.setattr(path_model, "TAIL_FLOOR", 0.1)
    runs = clamp_runs(top_block_config(kind, family, 40, 2, 10))
    for got, want, same, _ in runs:
        assert got == want > 0
        assert same
    assert any(whole for *_, whole in runs)


# moving-max quantile configs (m 4, alpha -1, seed 5, 400 replications) in
# which some column's (k+1)-th largest value is the floor (n/k)/4 in this
# many replications; before the floor-tie rule none of them was flagged
FLOOR_TIE_CASES = {"n40-k2": (40, 2, 15), "n100-k1": (100, 1, 79)}


@pytest.mark.parametrize("case", FLOOR_TIE_CASES)
def test_quantile_replications_tied_at_the_floor_are_flagged(case):
    n, k, tied = FLOOR_TIE_CASES[case]
    cfg = top_block_config("quantile", "moving-max", n, k, 400, seed=5)
    repset = run_replications(cfg)
    grid = grid_for(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    assert repset.flagged.tolist() == [reference_floor_tied(cfg, grid, s) for s in seeds]
    assert int(repset.flagged.sum()) == tied
    report = run_experiment(cfg, workers=2)
    assert (report.used, report.flagged) == (400 - tied, tied)


FORCED_TIE_CONFIGS = {
    "normality": dict(kind="normality", n=200, k=20, reps=4, m=3),
    "consistency": dict(kind="consistency", reps=3, m=3, schedule=((100, 10), (400, 20))),
    "quantile": dict(kind="quantile", n=200, k=20, reps=4, m=3),
}


@pytest.mark.parametrize("kind", FORCED_TIE_CONFIGS)
def test_forced_floor_tie_flags_moving_max_replications_only(kind, monkeypatch):
    # a floor of 30 leaves a few values above it in a column, fewer than
    # k + 1, so the estimators' columns are not degenerate but read the floor
    gbm = ExperimentConfig(family="pareto-gbm", seed=3, **FORCED_TIE_CONFIGS[kind])
    gbm_flags = run_replications(gbm).flagged.tolist()
    monkeypatch.setattr(harness, "_tail_floor", lambda n, k: 30.0)
    mm = run_replications(ExperimentConfig(family="moving-max", seed=3,
                                           **FORCED_TIE_CONFIGS[kind]))
    assert mm.flagged.all()
    assert run_replications(gbm).flagged.tolist() == gbm_flags
