import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from funcevt.estimators import EstimatorCurves, _log_excess_moments, estimate_curves
from funcevt.harness import _tail_floor
from funcevt.path_model import DataError, PathSample, TimeGrid, make_grid, read_csv
from funcevt.process_sim import KernelSpec, SimConfig, simulate_moving_max, simulate_pareto_gbm
from funcevt.limit_theory import TrueFunctions


def read_curves(path, k, n):
    """The curves `EstimatorCurves.to_csv` wrote to path, read through
    `read_csv`; k and n are not in the file."""
    header, rows = read_csv(path, "curves")
    assert header.split(",") == list(EstimatorCurves.COLUMNS)
    return EstimatorCurves(
        TimeGrid(rows[:, 0]), k, n, *rows[:, 1:6].T, rows[:, 6].astype(np.uint8)
    )


def sample_of(values):
    """A sample with the columns of values, one grid point each."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return PathSample(make_grid(m=vals.shape[1]), vals)


def curves_of(values, k):
    """estimate_curves on the columns of values, one grid point each."""
    return estimate_curves(sample_of(values), k)


E = math.e
HAND = [1.0, E, E**2, E**3]


class TestHandExample:
    # top 3 of {1, e, e^2, e^3} with k=2: log-excesses over e are {1, 2}

    def test_first_moment(self):
        assert _log_excess_moments(sample_of(HAND), 2)[1][0] == pytest.approx(1.5, rel=1e-12)

    def test_second_moment(self):
        assert _log_excess_moments(sample_of(HAND), 2)[2][0] == pytest.approx(2.5, rel=1e-12)

    def test_hill(self):
        assert curves_of(HAND, 2).gamma_plus[0] == pytest.approx(1.5, rel=1e-12)

    def test_negative_part(self):
        # 1 - 0.5/(1 - 2.25/2.5) = 1 - 5 = -4
        assert curves_of(HAND, 2).gamma_minus[0] == pytest.approx(-4.0, rel=1e-12)

    def test_moment_estimator(self):
        assert curves_of(HAND, 2).gamma[0] == pytest.approx(-2.5, rel=1e-12)

    def test_location(self):
        assert curves_of(HAND, 2).u_hat[0] == pytest.approx(E, rel=1e-12)

    def test_scale(self):
        # e * 1.5 * (1 + 4) = 7.5 e
        assert curves_of(HAND, 2).a_hat[0] == pytest.approx(7.5 * E, rel=1e-12)


class TestEdgeCases:
    def test_tied_top_values_give_zero_hill(self):
        assert curves_of([1.0, 5.0, 5.0, 5.0], 2).gamma_plus[0] == 0.0

    def test_tied_top_values_degenerate_for_moment(self):
        curves = curves_of([1.0, 5.0, 5.0, 5.0], 2)
        assert curves.flag[0] == 1
        assert math.isnan(curves.gamma_minus[0])

    def test_k_equal_one_degenerate(self):
        # with k = 1 the moment ratio is identically 1
        curves = curves_of([1.0, 2.0, 3.0], 1)
        assert curves.flag[0] == 1
        assert math.isnan(curves.gamma[0])

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            curves_of([1.0, 2.0, 3.0], 3)
        with pytest.raises(DataError):
            curves_of([1.0, 2.0, 3.0], 0)

    def test_negative_values_rejected(self):
        # the estimators read only samples, which hold positive values
        with pytest.raises(DataError, match="must be positive"):
            sample_of([1.0, -2.0, 3.0])

    def test_no_scale_when_hill_zero(self):
        # a constant top has M_1 = M_2 = 0: flagged, with no scale estimate
        curves = curves_of([1.0, 5.0, 5.0, 5.0], 2)
        assert curves.gamma_plus[0] == 0.0 and curves.flag[0] == 1
        assert math.isnan(curves.a_hat[0])

    def test_hill_scale_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.pareto(2.0, 100) + 1.0
        a = curves_of(vals, 20).gamma_plus[0]
        b = curves_of(7.0 * vals, 20).gamma_plus[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_moment_scale_invariance(self):
        rng = np.random.default_rng(1)
        vals = rng.pareto(2.0, 100) + 1.0
        a = curves_of(vals, 20).gamma[0]
        b = curves_of(0.01 * vals, 20).gamma[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_only_top_k_plus_one_matter(self):
        rng = np.random.default_rng(2)
        vals = rng.pareto(1.0, 200) + 1.0
        lo = np.sort(vals)[: 200 - 21]
        changed = np.concatenate([lo * 0.5, np.sort(vals)[200 - 21 :]])
        a, b = curves_of(vals, 20), curves_of(changed, 20)
        assert a.gamma_plus[0] == pytest.approx(b.gamma_plus[0], rel=1e-12)
        assert a.gamma[0] == pytest.approx(b.gamma[0], rel=1e-12)

    def test_rank_based_small_sample(self):
        # top 3 of {0.7, 1.4, 2.8, 5.6} with k=2: excesses over 1.4 are
        # {log 2, log 4}, so the Hill value is 1.5 log 2
        curves = curves_of([0.7, 1.4, 2.8, 5.6], 2)
        assert curves.gamma_plus[0] == pytest.approx(1.5 * math.log(2.0), rel=1e-12)
        assert curves.u_hat[0] == pytest.approx(1.4, rel=1e-12)


class TestConsistencyOnSyntheticLaws:
    def test_hill_on_pure_pareto(self):
        # gamma_plus = 1/alpha for a Pareto(alpha) tail; average over
        # replications to beat the k**-1/2 noise; replication r is column r
        rng = np.random.default_rng(3)
        draws = 1.0 / (1.0 - rng.random((200, 2000)))
        ests = curves_of(draws.T, 100).gamma_plus
        assert np.mean(ests) == pytest.approx(1.0, abs=0.05)

    def test_negative_part_on_pareto(self):
        # Pareto has gamma_minus = 0
        rng = np.random.default_rng(4)
        vals = 1.0 / (1.0 - rng.random(100_000)) ** 0.5
        est = curves_of(vals, 500).gamma_minus[0]
        assert abs(est) < 0.15

    def test_moment_estimator_bounded_support(self):
        # uniform on (0, 1] has gamma = -1
        rng = np.random.default_rng(5)
        vals = rng.random(100_000)
        est = curves_of(vals, 500).gamma[0]
        assert est == pytest.approx(-1.0, abs=0.2)


class TestEstimateCurves:
    def test_columns_match_one_column_runs(self):
        # a column's estimates do not depend on its neighbours, bit for bit
        rng = np.random.default_rng(6)
        g = make_grid(m=3)
        sample = PathSample(g, rng.pareto(1.5, (400, 3)) + 1.0)
        curves = estimate_curves(sample, 40)
        for j in range(3):
            alone = estimate_curves(
                PathSample(make_grid(points=[g.points[j]]), sample.values[:, [j]]), 40
            )
            for name in ("gamma_plus", "gamma_minus", "gamma", "u_hat", "a_hat", "flag"):
                assert bits(getattr(curves, name)[j]) == bits(getattr(alone, name)[0]), name
        assert not curves.flag.any()

    def test_degenerate_column_flagged_not_fatal(self):
        g = make_grid(m=2)
        vals = np.column_stack([np.arange(1.0, 7.0), np.full(6, 3.0)])
        curves = estimate_curves(PathSample(g, vals), 2)
        assert curves.flag.tolist() == [0, 1]
        assert math.isnan(curves.gamma[1])
        assert not math.isnan(curves.gamma[0])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = make_grid(m=4)
        sample = PathSample(g, rng.pareto(1.0, (300, 4)) + 1.0)
        curves = estimate_curves(sample, 30)
        f = tmp_path / "curves.csv"
        curves.to_csv(f)
        back = read_curves(f, k=30, n=300)
        np.testing.assert_array_equal(back.gamma, curves.gamma)
        np.testing.assert_array_equal(back.a_hat, curves.a_hat)
        np.testing.assert_array_equal(back.flag, curves.flag)
        assert back.k == 30 and back.n == 300


class TestOnSimulatedFamilies:
    def test_moving_max_index_curve_near_one(self):
        g = make_grid(m=51)
        n, k = 8000, 200
        sample = simulate_moving_max(
            KernelSpec(), g, SimConfig(n=n, seed=13, value_floor=(n / k) / 4.0)
        )
        curves = estimate_curves(sample, k)
        assert not curves.flag.any()
        assert np.max(np.abs(curves.gamma - 1.0)) < 0.5
        assert np.max(np.abs(curves.gamma_plus - 1.0)) < 0.4

    def test_gbm_scale_curve_tracks_truth(self):
        g = make_grid(m=21)
        n, k = 8000, 200
        sample = simulate_pareto_gbm(g, SimConfig(n=n, seed=14))
        curves = estimate_curves(sample, k)
        truth = TrueFunctions("pareto-gbm")
        a = np.array([truth.scale(t, n / k) for t in g.points])
        assert not curves.flag.any()
        assert np.max(np.abs(curves.a_hat / a - 1.0)) < 0.5


# The per-column estimators as they were before the column kernel: each
# column partitioned on its own, moments by 1-d np.mean.  estimate_curves
# must reproduce them bit for bit.


def reference_top_log_excesses(vals, j, k):
    col = vals[:, j]
    n = col.size
    top = np.sort(np.partition(col, n - k - 1)[n - k - 1 :])
    return np.log(top[1:]) - np.log(top[0]), top[0]


def reference_negative_part(m1, m2):
    """gamma_minus of one column, or None where the column is degenerate."""
    if m2 <= 0.0 or m1 * m1 / m2 >= 1.0:
        return None
    return 1.0 - 0.5 / (1.0 - m1 * m1 / m2)


def reference_curves(sample, k):
    m = sample.m
    gp, gm, g, u, a = (np.empty(m) for _ in range(5))
    flag = np.zeros(m, dtype=np.uint8)
    for j in range(m):
        excess, u_j = reference_top_log_excesses(sample.values, j, k)
        m1 = float(np.mean(excess))
        m2 = float(np.mean(excess ** 2))
        gp[j] = m1
        u[j] = u_j
        gm_j = reference_negative_part(m1, m2)
        if gm_j is None:
            gm[j] = g[j] = a[j] = np.nan
            flag[j] = 1
            continue
        gm[j] = gm_j
        g[j] = m1 + gm_j
        a[j] = u_j * m1 * (1.0 - gm_j)
        if m1 == 0.0:
            a[j] = 0.0
            flag[j] = 1
    return {"gamma_plus": gp, "gamma_minus": gm, "gamma": g, "u_hat": u,
            "a_hat": a, "flag": flag}


def bits(x):
    return np.asarray(x).tobytes()


def family_sample(family, n, m=6, seed=31, floor=None):
    g = make_grid(m=m)
    if family == "moving-max":
        cfg = SimConfig(n=n, seed=seed, value_floor=floor)
        return simulate_moving_max(KernelSpec(), g, cfg)
    return simulate_pareto_gbm(g, SimConfig(n=n, seed=seed))


def tied_sample():
    # columns: distinct values; ties at the top; a constant top of 5
    # (M_1 = M_2 = 0); a constant column; two distinct top values
    base = np.arange(1.0, 13.0)
    cols = [
        base,
        np.r_[base[:8], 9.0, 9.0, 9.0, 12.0],
        np.r_[base[:7], np.full(5, 8.0)],
        np.full(12, 3.0),
        np.r_[base[:10], 11.0, 11.0],
    ]
    return PathSample(make_grid(m=len(cols)), np.column_stack(cols))


def assert_matches_reference(sample, k):
    curves = estimate_curves(sample, k)
    want = reference_curves(sample, k)
    for name, arr in want.items():
        assert bits(getattr(curves, name)) == bits(arr), name
    m2 = _log_excess_moments(sample, k)[2]
    for j in range(sample.m):
        excess, _ = reference_top_log_excesses(sample.values, j, k)
        assert bits(m2[j]) == bits(np.mean(excess ** 2))
    return curves


class TestColumnKernelMatchesReference:
    @pytest.mark.parametrize("family", ["moving-max", "moving-max-floored", "pareto-gbm"])
    @pytest.mark.parametrize("k", [1, 2, 200, 1499])
    def test_families(self, family, k):
        if family == "moving-max-floored":
            # the harness's speed floor: the bottom of every column is one
            # tied value, which the partition must handle as it does others
            sample = family_sample("moving-max", 1500, floor=_tail_floor(1500, k))
        else:
            sample = family_sample(family, 1500)
        assert_matches_reference(sample, k)

    def test_k_above_a_numpy_buffer(self):
        # k = n - 1 > 8192, numpy's default buffer size
        rng = np.random.default_rng(8)
        sample = PathSample(make_grid(m=2), rng.pareto(1.0, (9000, 2)) + 1.0)
        assert_matches_reference(sample, 8999)

    @pytest.mark.parametrize("k", [1, 2, 4, 11])
    def test_ties_constant_tops_and_zero_hill(self, k):
        curves = assert_matches_reference(tied_sample(), k)
        if k == 4:
            # the constant top of column 2 is flagged with M_1 = 0
            assert curves.gamma_plus[2] == 0.0 and curves.flag[2] == 1
        assert curves.flag[3] == 1  # a constant column is always flagged


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 400),
        m=st.integers(1, 4),
        k_share=st.floats(0.0, 0.5),
        c=st.floats(1e-3, 1e3),
    )
    def test_scale_equivariance(self, seed, n, m, k_share, c):
        # logs of c * x differ from logs of x by the rounding of log c, so
        # log-excesses, and the index estimates built on them, agree to a
        # relative 1e-12, or an absolute 1e-12 where an estimate is near 0
        vals = np.random.default_rng(seed).pareto(1.0, (n, m)) + 1.0
        k = 10 + int(k_share * (n - 20))
        g = make_grid(m=m)
        a = estimate_curves(PathSample(g, vals), k)
        b = estimate_curves(PathSample(g, c * vals), k)
        np.testing.assert_array_equal(b.flag, a.flag)
        for name in ("gamma_plus", "gamma"):
            np.testing.assert_allclose(
                getattr(b, name), getattr(a, name), rtol=1e-12, atol=1e-12
            )
        np.testing.assert_allclose(b.u_hat, c * a.u_hat, rtol=1e-12)
        np.testing.assert_allclose(b.a_hat, c * a.a_hat, rtol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_curves_csv_round_trip_is_exact(self, data):
        points = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6, unique=True).map(sorted)
        )
        m = len(points)
        floats = hnp.arrays(float, m, elements=st.floats(allow_subnormal=True))
        arrays = [data.draw(floats) for _ in range(5)]
        flag = data.draw(hnp.arrays(np.uint8, m, elements=st.integers(0, 1)))
        curves = EstimatorCurves(make_grid(points=points), 3, 9, *arrays, flag)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "curves.csv")
            curves.to_csv(path)
            back = read_curves(path, k=3, n=9)
        np.testing.assert_array_equal(back.grid.points, curves.grid.points)
        for name in EstimatorCurves.COLUMNS[1:]:
            np.testing.assert_array_equal(getattr(back, name), getattr(curves, name))
        assert back.flag.dtype == np.uint8
