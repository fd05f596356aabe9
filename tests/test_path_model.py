import math
import os
import tempfile
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats

from funcevt import path_model
from funcevt.estimators import _log_excess_moments, _negative_part, estimate_curves
from funcevt.harness import ExperimentConfig, _tail_floor, run_replications
from funcevt.limit_theory import LimitParams, functional_x_grid
from funcevt.path_model import (
    DataError,
    MarginalModel,
    ParetoPaths,
    PathSample,
    TimeGrid,
    for_row_blocks,
    make_grid,
    marginal_model_for,
    pareto_transform,
    _partition_columns,
    top_block,
)
from funcevt.process_sim import (
    KernelSpec,
    SimConfig,
    SimulationError,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from funcevt.tail_process import (
    _exceedance_counts,
    build_tail_field,
    quantile_stat_from_order_stats,
    tail_quantile_stat,
)


class TestMakeGrid:
    def test_uniform_two_points(self):
        assert make_grid(m=2).points.tolist() == [0.0, 1.0]

    def test_uniform_three_points(self):
        assert make_grid(m=3).points.tolist() == [0.0, 0.5, 1.0]

    def test_single_point(self):
        assert make_grid(m=1).points.tolist() == [0.0]

    def test_explicit_points(self):
        g = make_grid(points=[0.1, 0.4, 0.9])
        assert g.m == 3
        assert g.index_of(0.4) == 1

    def test_non_monotone_rejected(self):
        with pytest.raises(DataError):
            make_grid(points=[0.2, 0.1])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            make_grid(points=[0.0, 1.5])

    def test_index_of_missing_time(self):
        with pytest.raises(DataError):
            make_grid(m=2).index_of(0.3)


class TestMarginalModel:
    def test_moving_max_cdf_at_one(self):
        # F(1) = exp(-1)
        model = MarginalModel("moving-max")
        assert model.tail(0.3, 1.0) == pytest.approx(-math.expm1(-1.0), rel=1e-14)

    def test_moving_max_tail_is_one_minus_cdf(self):
        # F(x) = exp(-1/x)
        model = MarginalModel("moving-max")
        x = np.array([0.5, 1.0, 7.0])
        np.testing.assert_allclose(model.tail(0.0, x), 1.0 - np.exp(-1.0 / x), rtol=1e-14)

    def test_gbm_t0_exact_pareto(self):
        model = MarginalModel("pareto-gbm")
        assert model.tail(0.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert model.tail(0.0, 0.5) == pytest.approx(1.0)

    def test_gbm_tail_vs_mc_oracle(self):
        # independent Monte Carlo route for E min(B(1)/x, 1)
        model = MarginalModel("pareto-gbm")
        rng = np.random.default_rng(1234)
        b = np.exp(rng.standard_normal(1_000_000) - 0.5)
        for x in (2.0, 10.0, 50.0):
            mc = np.minimum(b / x, 1.0)
            se = mc.std(ddof=1) / 1000.0
            assert abs(float(model.tail(1.0, x)) - mc.mean()) < 4.0 * se

    def test_gbm_tail_vs_quadrature_oracle(self):
        # independent route: integrate phi(w) * min(exp(sqrt(t) w - t/2)/x, 1)
        # over w, split at the kink
        model = MarginalModel("pareto-gbm")
        for t in (0.25, 1.0):
            for x in (1.5, 10.0, 1e4):
                kink = (math.log(x) + t / 2.0) / math.sqrt(t)

                def below(w):
                    return stats.norm.pdf(w) * math.exp(math.sqrt(t) * w - t / 2.0) / x

                lo, _ = integrate.quad(below, -40.0, kink)
                hi, _ = integrate.quad(stats.norm.pdf, kink, 40.0)
                assert float(model.tail(t, x)) == pytest.approx(lo + hi, rel=1e-9, abs=1e-13)

    def test_gbm_bracket_on_tail(self):
        # x * tail(x) must sit just below 1 for large x, within 2 x**-M
        # for the bound exponent M = 1.5
        model = MarginalModel("pareto-gbm")
        for x in (100.0, 1000.0):
            xt = x * float(model.tail(1.0, x))
            assert xt <= 1.0 + 1e-12
            assert xt >= 1.0 - 2.0 * x ** -1.5

    def test_negative_x_rejected(self):
        model = MarginalModel("moving-max")
        with pytest.raises(DataError):
            model.tail(0.0, -1.0)


def reference_pareto_transform(sample, model):
    """pareto_transform's values from a row-major (n, m) array, read and
    written one strided column at a time (the loop the column-major layout
    replaced)."""
    vals = np.ascontiguousarray(sample.values)
    out = np.empty_like(vals)
    for j, t in enumerate(sample.grid.points):
        out[:, j] = np.maximum(1.0 / model.tail(t, vals[:, j]), 1.0)
    return out


def _clamp_messages(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught if "clamped" in str(w.message)]


SAMPLES = ("pareto-gbm", "moving-max", "student-t")


def _sample(case):
    """A simulated sample of one of SAMPLES; the student-t moving-max one has
    a raised floor, so long runs of one tied value."""
    grid = make_grid(m=21)
    if case == "pareto-gbm":
        return simulate_pareto_gbm(grid, SimConfig(n=2000, seed=31))
    if case == "moving-max":
        return simulate_moving_max(KernelSpec(), grid, SimConfig(n=1000, seed=32))
    cfg = SimConfig(n=1000, seed=33, value_floor=0.5)
    return simulate_moving_max(KernelSpec("student-t", rate=2.0), make_grid(m=4), cfg)


FOUR_CORES = 4


@pytest.fixture
def threads(monkeypatch):
    """Split every per-time job into up to 4 row blocks on threads, whatever
    its size and the machine's core count."""
    monkeypatch.setattr(path_model, "_PAR_VALUES", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: FOUR_CORES)


def _assert_clamp_case_matches_the_loop(family):
    # 1e300 underflows the tail, in every other column; 1e280 does not
    sample = _sample(family)
    vals = np.array(sample.values)
    vals[::97, ::2] = 1e300
    vals[5, 1] = 1e280
    sample = PathSample(sample.grid, vals, family)
    model = marginal_model_for(sample)
    got, got_msgs = _clamp_messages(pareto_transform, sample, model)
    want, want_msgs = _clamp_messages(reference_pareto_transform, sample, model)
    assert got.values.tobytes() == want.tobytes()
    assert len(want_msgs) == 11 and got_msgs == want_msgs


class TestParetoTransform:
    # tobytes() reads in row-major order whatever the memory layout
    @pytest.mark.parametrize("case", SAMPLES)
    def test_bitwise_equal_to_strided_loop(self, case):
        sample = _sample(case)
        model = marginal_model_for(sample)
        want = reference_pareto_transform(sample, model)
        assert pareto_transform(sample, model).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    def test_bitwise_equal_to_strided_loop_with_tail_clamps(self, family):
        _assert_clamp_case_matches_the_loop(family)

    def test_moving_max_unit_value(self):
        g = make_grid(m=1)
        s = PathSample(g, np.array([[1.0]]), "moving-max")
        z = pareto_transform(s, marginal_model_for(s))
        assert z.values[0, 0] == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_gbm_t0_identity(self):
        g = make_grid(points=[0.0])
        s = PathSample(g, np.array([[5.0], [2.0]]), "pareto-gbm")
        z = pareto_transform(s, marginal_model_for(s))
        np.testing.assert_allclose(z.values[:, 0], [5.0, 2.0], rtol=1e-9)

    def test_close_to_identity_for_large_values(self):
        g = make_grid(m=1)
        s = PathSample(g, np.array([[1e6]]), "moving-max")
        z = pareto_transform(s, marginal_model_for(s))
        assert z.values[0, 0] / 1e6 == pytest.approx(1.0, rel=1e-5)

    def test_strictly_increasing(self):
        g = make_grid(m=1)
        vals = np.linspace(0.3, 50.0, 200)[:, None]
        s = PathSample(g, vals, "moving-max")
        z = pareto_transform(s, marginal_model_for(s))
        assert np.all(np.diff(z.values[:, 0]) > 0.0)

    def test_outputs_at_least_one(self):
        g = make_grid(m=2)
        rng = np.random.default_rng(7)
        s = PathSample(g, rng.uniform(0.01, 5.0, (50, 2)), "moving-max")
        z = pareto_transform(s, marginal_model_for(s))
        assert np.all(z.values >= 1.0)

    def test_overflow_clamped_with_warning(self):
        g = make_grid(m=1)
        s = PathSample(g, np.array([[1e300]]), "moving-max")
        with pytest.warns(RuntimeWarning):
            z = pareto_transform(s, marginal_model_for(s))
        assert np.isfinite(z.values[0, 0])
        assert z.values[0, 0] > 1e200


def _first_columns(sample, m):
    """The sample restricted to its first m times (all of them if fewer)."""
    grid = make_grid(points=sample.grid.points[:m])
    return PathSample(grid, sample.values[:, :m], sample.family)


def _column_kernel_bytes(sample):
    """The bytes of every per-time kernel's output on sample: the Pareto
    transform, and at three k the curves, quantile statistics and field."""
    zeta = pareto_transform(sample, marginal_model_for(sample))
    out = [zeta.values]
    for k in (1, 20, 300):
        c = estimate_curves(sample, k)
        out += [c.gamma_plus, c.gamma_minus, c.u_hat, c.a_hat, c.flag]
        out += [tail_quantile_stat(zeta, k, -1.0), build_tail_field(zeta, k, n_x=16).values]
    return [a.tobytes() for a in out]


def _block_threads():
    """(calling thread, the thread of each block) for a 21-row job that
    for_row_blocks splits as finely as it may."""
    with mock.patch.object(path_model, "_PAR_VALUES", 1), \
            mock.patch.object(os, "cpu_count", lambda: FOUR_CORES):
        blocks = for_row_blocks(lambda lo, hi: threading.get_ident(), 21, 1000)
    return threading.get_ident(), blocks


class TestRowBlocks:
    """Per-time kernels split over threads give the serial bytes."""

    @pytest.mark.parametrize("m", [1, 2, 3, 21])
    @pytest.mark.parametrize("case", SAMPLES)
    def test_kernels_bitwise_equal_to_serial(self, case, m, monkeypatch):
        base = _sample(case)
        monkeypatch.setattr(path_model, "_PAR_VALUES", 1 << 62)
        want = _column_kernel_bytes(_first_columns(base, m))
        monkeypatch.setattr(path_model, "_PAR_VALUES", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: FOUR_CORES)
        # a new sample object, so no top block is memoised yet
        sample = _first_columns(base, m)
        assert _column_kernel_bytes(sample) == want
        # the student-t sample has 4 times
        assert len(for_row_blocks(lambda lo, hi: (lo, hi), sample.m, sample.n)) == min(m, 4, sample.m)

    @pytest.mark.parametrize("case", SAMPLES)
    def test_pareto_transform_bitwise_equal_to_strided_loop(self, case, threads):
        sample = _sample(case)
        model = marginal_model_for(sample)
        want = reference_pareto_transform(sample, model)
        assert pareto_transform(sample, model).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    def test_tail_clamps_match_the_strided_loop(self, family, threads):
        _assert_clamp_case_matches_the_loop(family)

    def test_blocks_cover_the_rows_in_order(self, threads):
        assert for_row_blocks(lambda lo, hi: (lo, hi), 21, 1) == [(0, 5), (5, 10), (10, 15), (15, 21)]
        assert for_row_blocks(lambda lo, hi: (lo, hi), 3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_small_jobs_are_one_call(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: FOUR_CORES)
        n = path_model._PAR_VALUES // 2
        assert for_row_blocks(lambda lo, hi: (lo, hi), 3, n) == [(0, 3)]
        assert len(for_row_blocks(lambda lo, hi: (lo, hi), 4, n)) == 2

    def test_small_jobs_do_not_count_the_cores(self, monkeypatch):
        def no_count():
            raise AssertionError("os.cpu_count() was called")

        monkeypatch.setattr(os, "cpu_count", no_count)
        n = path_model._PAR_VALUES // 2
        assert for_row_blocks(lambda lo, hi: (lo, hi), 3, n) == [(0, 3)]

    def test_clamp_warnings_come_in_column_order(self, threads):
        # a different clamp count in each even column, so order shows
        sample = _sample("pareto-gbm")
        vals = np.array(sample.values)
        for j in range(0, sample.m, 2):
            vals[: j + 1, j] = 1e300
        sample = PathSample(sample.grid, vals, "pareto-gbm")
        model = marginal_model_for(sample)
        got, got_msgs = _clamp_messages(pareto_transform, sample, model)
        want, want_msgs = _clamp_messages(reference_pareto_transform, sample, model)
        assert got.values.tobytes() == want.tobytes()
        assert got_msgs == want_msgs == [
            f"clamped {j + 1} tail values at the 2**-970 floor" for j in range(0, sample.m, 2)
        ]

    def test_an_error_in_a_block_reaches_the_caller(self, threads):
        def block(lo, hi):
            if lo <= 7 < hi:
                raise DataError(f"bad row in [{lo}, {hi})")
            return lo

        with pytest.raises(DataError, match=r"bad row in \[5, 10\)"):
            for_row_blocks(block, 21, 1)

    def test_no_thread_outlives_a_call(self, threads):
        sample = _sample("pareto-gbm")
        before = threading.active_count()
        zeta = pareto_transform(sample, marginal_model_for(sample))
        _partition_columns(sample.values, 20)
        _exceedance_counts(zeta, np.array([1.0, 10.0]))
        assert threading.active_count() == before

    def test_blocks_leave_the_calling_thread_in_the_main_process(self):
        main, blocks = _block_threads()
        assert len(blocks) == FOUR_CORES and main not in blocks

    def test_blocks_run_on_the_worker_thread_in_a_process_pool(self):
        with ProcessPoolExecutor(1) as pool:
            worker, blocks = pool.submit(_block_threads).result(timeout=60)
        assert blocks == [worker]

    def test_process_pool_after_a_threaded_kernel(self, threads):
        # a fork after the threaded kernels finds no live thread, so the
        # warnings-as-errors filters see no warning about forking one
        sample = _sample("pareto-gbm")
        pareto_transform(sample, marginal_model_for(sample))
        cfg = ExperimentConfig(kind="normality", family="pareto-gbm", n=2000, k=50, reps=4, m=3)
        two = run_replications(cfg, workers=2)
        one = run_replications(cfg, workers=1)  # its replicates split their columns
        for key in one.arrays:
            assert two.arrays[key].tobytes() == one.arrays[key].tobytes()


class TestSampleTypes:
    def test_positive_values_required(self):
        g = make_grid(m=2)
        with pytest.raises(DataError):
            PathSample(g, np.array([[1.0, -2.0]]), "synthetic")

    def test_column_count_must_match(self):
        g = make_grid(m=3)
        with pytest.raises(DataError):
            PathSample(g, np.ones((4, 2)), "synthetic")

    def test_pareto_paths_floor(self):
        g = make_grid(m=1)
        with pytest.raises(DataError):
            ParetoPaths(g, np.array([[0.5]]))

    def test_grid_requires_sorted_unique(self):
        with pytest.raises(DataError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))

    def test_csv_round_trip(self, tmp_path):
        g = make_grid(points=[0.0, 1.0 / 3.0, 1.0])
        rng = np.random.default_rng(3)
        s = PathSample(g, rng.uniform(0.5, 20.0, (8, 3)), "synthetic")
        path = tmp_path / "paths.csv"
        s.to_csv(path)
        back = PathSample.from_csv(path)
        np.testing.assert_array_equal(back.values, s.values)
        np.testing.assert_array_equal(back.grid.points, g.points)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_csv_round_trip_is_exact_for_any_positive_values(self, data):
        # both sample types: PathSample values > 0, ParetoPaths values >= 1
        cls, low = data.draw(st.sampled_from([(PathSample, 0.0), (ParetoPaths, 1.0)]))
        points = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(sorted)
        )
        shape = (data.draw(st.integers(1, 6)), len(points))
        values = st.floats(low, exclude_min=low == 0.0, allow_infinity=False)
        s = cls(make_grid(points=points), data.draw(hnp.arrays(float, shape, elements=values)))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "paths.csv")
            s.to_csv(path)
            back = cls.from_csv(path)
        assert back.values.tobytes() == s.values.tobytes()
        assert back.grid.points.tobytes() == s.grid.points.tobytes()

    def test_pareto_csv_round_trip(self, tmp_path):
        g = make_grid(m=2)
        z = ParetoPaths(g, 1.0 + np.abs(np.random.default_rng(4).standard_normal((5, 2))))
        path = tmp_path / "zeta.csv"
        z.to_csv(path)
        back = ParetoPaths.from_csv(path)
        np.testing.assert_array_equal(back.values, z.values)


class TestColumnMajorLayout:
    """Sample values are (n, m) arrays stored column-major."""

    def test_simulated_samples(self):
        grid = make_grid(m=5)
        for sample in (
            simulate_pareto_gbm(grid, SimConfig(n=50, seed=1)),
            simulate_moving_max(KernelSpec(), grid, SimConfig(n=50, seed=2)),
        ):
            assert sample.values.shape == (50, 5)
            assert sample.values.flags.f_contiguous
            assert pareto_transform(sample, marginal_model_for(sample)).values.flags.f_contiguous

    def test_csv_loads(self, tmp_path):
        g = make_grid(m=3)
        vals = 1.0 + np.random.default_rng(5).uniform(0.0, 9.0, (7, 3))
        for cls in (PathSample, ParetoPaths):
            path = tmp_path / f"{cls.__name__}.csv"
            cls(g, vals).to_csv(path)
            back = cls.from_csv(path)
            assert back.values.flags.f_contiguous
            np.testing.assert_array_equal(back.values, vals)

    def test_row_major_array_and_strided_view(self):
        base = 1.0 + np.random.default_rng(6).uniform(0.0, 9.0, (40, 12))
        g = make_grid(m=6)
        for vals in (np.ascontiguousarray(base[:, :6]), base[::2, 1::2]):
            for cls in (PathSample, ParetoPaths):
                s = cls(g, vals)
                assert s.values.flags.f_contiguous
                assert s.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("case", SAMPLES)
    def test_column_kernels_ignore_the_layout(self, case):
        sample = _sample(case)
        vals = sample.values
        c, f = np.array(vals, order="C"), np.array(vals, order="F")
        assert c.flags.c_contiguous and f.flags.f_contiguous
        sc, sf = PathSample(sample.grid, c), PathSample(sample.grid, f)
        for k in (1, 20, 300):
            assert _partition_columns(c, k).tobytes() == _partition_columns(f, k).tobytes()
            for a, b in zip(_log_excess_moments(sc, k), _log_excess_moments(sf, k)):
                assert a.tobytes() == b.tobytes()
        x = np.concatenate((np.geomspace(0.01, 100.0, 17), [np.median(vals)]))
        assert _exceedance_counts(sc, x).tobytes() == _exceedance_counts(sf, x).tobytes()


class TestReadOnlySamples:
    @pytest.mark.parametrize("cls", [PathSample, ParetoPaths])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sample_values_are_read_only_and_the_callers_array_is_not(self, cls, order):
        # either layout is copied: the caller can still write its array
        vals = np.array(1.0 + np.random.default_rng(7).uniform(0.0, 9.0, (40, 6)), order=order)
        sample = cls(make_grid(m=6), vals)
        assert not sample.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sample.values[0, 0] = 2.0
        assert vals.flags.writeable
        vals[0, 0] = 3.0
        assert vals[0, 0] == 3.0

    def test_simulated_and_transformed_samples_are_read_only(self):
        sample = _sample("pareto-gbm")
        zeta = pareto_transform(sample, marginal_model_for(sample))
        assert not sample.values.flags.writeable and not zeta.values.flags.writeable
        top_block(sample, 20)
        assert not sample._top.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_writing_the_callers_array_does_not_change_results(self, order):
        base = _memo_sample("pareto-gbm")
        vals = np.array(base.values, order=order)
        sample = PathSample(base.grid, vals)
        want = [estimate_curves(base, k).gamma.tobytes() for k in (20, 30)]
        assert estimate_curves(sample, 20).gamma.tobytes() == want[0]
        vals *= 2.0
        vals[:, 0] = 1.0
        assert estimate_curves(sample, 30).gamma.tobytes() == want[1]
        assert sample.values.tobytes() == base.values.tobytes()

    def test_read_only_input_is_viewed(self):
        sample = _memo_sample("pareto-gbm")
        assert np.shares_memory(PathSample(sample.grid, sample.values).values, sample.values)


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [2.7, 2.0, True, np.float64(3.0), "3", None])
    def test_non_integral_k_rejected(self, bad):
        sample = _sample("pareto-gbm")
        zeta = pareto_transform(sample, marginal_model_for(sample))
        with pytest.raises(DataError, match="k must be an integer"):
            path_model.check_k(bad, 10)
        with pytest.raises(DataError, match="k must be an integer"):
            estimate_curves(sample, bad)
        with pytest.raises(DataError, match="k must be an integer"):
            tail_quantile_stat(zeta, bad, -1.0)
        with pytest.raises(DataError, match="k must be an integer"):
            build_tail_field(zeta, bad)

    @pytest.mark.parametrize("k", [np.int64(20), np.int32(20), np.uint8(20), 20])
    def test_numpy_integers_accepted(self, k):
        sample = _sample("pareto-gbm")
        assert type(path_model.check_k(k, 100)) is int
        curves = estimate_curves(sample, k)
        assert curves.k == 20 and type(curves.k) is int
        want = estimate_curves(_first_columns(sample, sample.m), 20)
        assert curves.gamma.tobytes() == want.gamma.tobytes()


# each library size as what it builds, and the error its constructor raises
SIZES = {
    "make_grid": (lambda m: make_grid(m=m).points, DataError),
    "SimConfig": (lambda n: simulate_pareto_gbm(make_grid(m=3), SimConfig(n=n, seed=1)).values,
                  SimulationError),
    "LimitParams.constant": (lambda m: LimitParams.constant(m).gamma, DataError),
    "functional_x_grid": (lambda n: functional_x_grid(1e4, n), DataError),
}


@pytest.mark.parametrize("bad", [2.5, 8.9, 10.7, 9.0, True, np.float64(9.0), "9"])
@pytest.mark.parametrize("size", SIZES)
def test_sizes_must_be_integers(size, bad):
    build, error = SIZES[size]
    with pytest.raises(error, match="must be an integer"):
        build(bad)
    want = build(9)
    for good in (np.int64(9), np.int32(9), np.uint8(9)):
        assert build(good).tobytes() == want.tobytes()


def partition_route(values, k):
    """(u_hat, M_1, M_2, the (k+1)-th largest values) of every column of
    values, from one partition at k, as the estimators computed them before
    the top block was memoised."""
    neg = _partition_columns(values, k)
    top = np.sort(-neg[:, : k + 1], axis=1)
    logs = np.log(top)
    excess = logs[:, 1:] - logs[:, :1]
    return top[:, 0].copy(), excess.mean(axis=1), (excess ** 2).mean(axis=1), -neg[:, k]


N_MEMO = 1500


def _memo_sample(case):
    grid = make_grid(m=6)
    if case == "pareto-gbm":
        return simulate_pareto_gbm(grid, SimConfig(n=N_MEMO, seed=41))
    # the floored case has the harness's speed floor at k = 30: the bottom
    # of every column is one tied value
    floor = _tail_floor(N_MEMO, 30) if case == "moving-max-floored" else None
    return simulate_moving_max(KernelSpec(), grid, SimConfig(n=N_MEMO, seed=42, value_floor=floor))


SWEEP = [1, 2, 7, 30, 31, 200, 700, N_MEMO - 1]
ORDERS = {
    "ascending": SWEEP,
    "descending": SWEEP[::-1],
    "random": list(np.random.default_rng(43).permutation(SWEEP)),
}


class TestTopBlock:
    """The memoised top block gives the floats of one partition per call."""

    @pytest.mark.parametrize("route", ["serial", "threads"])
    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("case", ["moving-max", "moving-max-floored", "pareto-gbm"])
    def test_sweep_matches_the_partition_route(self, case, order, route, monkeypatch):
        if route == "threads":
            monkeypatch.setattr(path_model, "_PAR_VALUES", 1)
            monkeypatch.setattr(os, "cpu_count", lambda: FOUR_CORES)
        sample = _memo_sample(case)
        zeta = pareto_transform(sample, marginal_model_for(sample))
        widest = 0
        for k in ORDERS[order]:
            u, m1, m2, _ = partition_route(sample.values, k)
            gm, degenerate = _negative_part(m1, m2)
            curves = estimate_curves(sample, k)
            for got, want in [(curves.u_hat, u), (curves.gamma_plus, m1),
                              (curves.gamma_minus, gm), (curves.gamma, m1 + gm),
                              (curves.a_hat, u * m1 * (1.0 - gm)), (curves.flag, degenerate)]:
                assert got.tobytes() == want.astype(got.dtype).tobytes()
            assert _log_excess_moments(sample, k)[2].tobytes() == m2.tobytes()
            top = partition_route(zeta.values, k)[3]
            for alpha in (-1.0, np.linspace(-2.0, 2.0, zeta.m)):
                want = quantile_stat_from_order_stats(top, zeta.n, k, alpha)
                assert tail_quantile_stat(zeta, k, alpha).tobytes() == want.tobytes()
            # the memo is no wider than twice the largest k so far needs
            widest = max(widest, k)
            for s in (sample, zeta):
                assert k + 1 <= s._top.shape[1] <= min(2 * widest, N_MEMO - 1) + 1
                assert s._top.shape[0] == s.m

    @pytest.mark.parametrize("ks", [(1, 30, N_MEMO - 1), (N_MEMO - 1, 30, 1), (30, 1, 2)])
    def test_block_holds_the_top(self, ks):
        sample = _memo_sample("pareto-gbm")
        for k in ks:
            want = np.ascontiguousarray(np.sort(sample.values, axis=0)[-k - 1:].T)
            top = top_block(sample, k)
            assert top.shape == (sample.m, k + 1)
            # rows ascending, so column 0 is the (k+1)-th largest value
            assert np.ascontiguousarray(top).tobytes() == want.tobytes()
            assert top[:, 0].tobytes() == np.ascontiguousarray(want[:, 0]).tobytes()
            # a read-only view of the memo: writing it raises and changes nothing
            with pytest.raises(ValueError, match="read-only"):
                top[:] = 0.0
            assert np.ascontiguousarray(top_block(sample, k)).tobytes() == want.tobytes()

    def test_partitions_only_when_k_outgrows_the_block(self):
        calls = []
        sample, fresh = _memo_sample("pareto-gbm"), _memo_sample("pareto-gbm")

        def counted(values, k):
            calls.append(k)
            return _partition_columns(values, k)

        with mock.patch.object(path_model, "_partition_columns", counted):
            # the first call selects exactly k, a larger later one 2k
            for k in (20, 29, 40, 41, 63, 92, 136, 200):
                top_block(sample, k)
            assert calls == [20, 58, 126, 272]
            for k in (200, 136, 1, 272):
                top_block(sample, k)
            assert calls == [20, 58, 126, 272]
            top_block(sample, 400)
            assert calls[-1] == 800
            top_block(sample, 1000)
            assert calls[-1] == N_MEMO - 1
        assert sample._top.shape == (sample.m, N_MEMO)
        with mock.patch.object(path_model, "_partition_columns", counted):
            estimate_curves(fresh, 700)  # a cold call selects exactly its k
            for k in (200, 30, 1):
                top_block(fresh, k)
        assert calls == [20, 58, 126, 272, 800, N_MEMO - 1, 700]
