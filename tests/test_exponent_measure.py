import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from funcevt.exponent_measure import MeasureOracle, covariance_matrix
from funcevt.path_model import MOVING_MAX, PARETO_GBM, DataError, make_grid
from funcevt.process_sim import KernelSpec
from measure_reference import _tail_radius, sup_integral


class TestSupIntegral:
    """The quadrature reference itself, against exact values."""

    def test_single_time_is_inverse_level(self):
        # the kernel integrates to one, so the envelope of one curve is 1/x
        k = KernelSpec("double-exp", rate=1.0)
        for x in (1.0, 2.5):
            val = sup_integral(k, np.array([0.3]), np.array([x]))
            assert val == pytest.approx(1.0 / x, abs=1e-9)

    def test_two_equal_levels_closed_form(self):
        # max of two shifted double-exp bumps: 2 - exp(-rate h / 2)
        k = KernelSpec("double-exp", rate=1.0)
        for h in (0.25, 0.5, 1.0):
            val = sup_integral(k, np.array([0.0, h]), np.array([1.0, 1.0]))
            assert val == pytest.approx(2.0 - math.exp(-0.5 * h), abs=1e-9)

    def test_matches_dense_trapezoid(self):
        k = KernelSpec("double-exp", rate=2.0)
        times = np.array([0.1, 0.6, 0.9])
        levels = np.array([1.0, 3.0, 0.5])
        u = np.linspace(-30.0, 30.0, 2_000_001)
        env = np.max(k.density(times[:, None] + u[None, :]) / levels[:, None], axis=0)
        ref = np.trapezoid(env, u)
        assert sup_integral(k, times, levels) == pytest.approx(ref, abs=1e-6)

    def test_student_kernel_dense_check(self):
        k = KernelSpec("student-t", rate=1.0, df=3.0)
        times = np.array([0.0, 0.5])
        levels = np.array([2.0, 1.0])
        u = np.linspace(-4000.0, 4000.0, 4_000_001)
        env = np.max(k.density(times[:, None] + u[None, :]) / levels[:, None], axis=0)
        ref = np.trapezoid(env, u)
        assert sup_integral(k, times, levels, tol=1e-8) == pytest.approx(ref, abs=1e-5)

    @pytest.mark.parametrize("y", [0.01, 0.019306977288832496])
    def test_student_kernel_converges_at_small_level_ratios(self, y):
        # at (t, s) = (0, 1) and these ratios (the funcevt limit cells of
        # --xgrid 8 --xmax 1e2) f(u + 1)/y >= f(u) everywhere, so
        # C_{0,1} lies inside C_{1,y} and the intersection mass is 1/x = 1,
        # with no warning on the way
        oracle = MeasureOracle.moving_max(KernelSpec("student-t", rate=1.0, df=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle.intersection_mass(0.0, 1.0, 1.0, y) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("df", [1.0, 3.0, 30.0])
    def test_student_tail_radius_equals_scipy_stats(self, df):
        # scipy.stats.t is the reference for the scipy.special form
        kernel = KernelSpec("student-t", rate=0.5, df=df)
        for mass in (0.49, 1e-3, 5e-13):
            want = float(stats.t.isf(mass, df)) / 0.5
            assert _tail_radius(kernel, mass) == want

    def test_input_validation(self):
        k = KernelSpec()
        with pytest.raises(DataError):
            sup_integral(k, np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(DataError):
            sup_integral(k, np.array([0.0]), np.array([-1.0]))


class TestMovingMaxOracle:
    def test_rect_mass(self):
        oracle = MeasureOracle.moving_max()
        assert oracle.rect_mass(0.5, 4.0) == pytest.approx(0.25)
        with pytest.raises(DataError):
            oracle.rect_mass(1.5, 1.0)
        with pytest.raises(DataError):
            oracle.rect_mass(0.5, 0.0)

    def test_same_time_intersection_is_min(self):
        oracle = MeasureOracle.moving_max()
        assert oracle.intersection_mass(0.3, 2.0, 0.3, 5.0) == pytest.approx(0.2)

    def test_analytic_value_at_half_gap(self):
        oracle = MeasureOracle.moving_max()
        got = oracle.intersection_mass(0.25, 1.0, 0.75, 1.0)
        assert got == pytest.approx(math.exp(-0.25), abs=1e-9)

    def test_symmetry_in_cells(self):
        oracle = MeasureOracle.moving_max()
        a = oracle.intersection_mass(0.2, 1.5, 0.9, 3.0)
        b = oracle.intersection_mass(0.9, 3.0, 0.2, 1.5)
        assert a == pytest.approx(b, rel=1e-9)

    def test_intersection_strictly_below_marginals(self):
        oracle = MeasureOracle.moving_max()
        got = oracle.intersection_mass(0.0, 2.0, 1.0, 1.0)
        assert 0.0 < got < min(0.5, 1.0) - 1e-3

    def test_containment_hits_min_marginal(self):
        # at level ratio 4 > e**gap the higher cell swallows the lower one,
        # so the intersection carries the full smaller mass
        oracle = MeasureOracle.moving_max()
        got = oracle.intersection_mass(0.0, 2.0, 1.0, 0.5)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_homogeneity(self):
        oracle = MeasureOracle.moving_max()
        for t, x, s, y in ((0.0, 1.0, 0.5, 1.0), (0.1, 2.0, 0.7, 0.8)):
            base = oracle.intersection_mass(t, x, s, y)
            for r in (1.0, 2.0):
                scaled = oracle.intersection_mass(t, r * x, s, r * y)
                assert abs(scaled - base / r) * r / base < 1e-9


def random_cells(seed, count):
    """Seeded (t, x, s, y) with t != s and levels in [e**-2, e**2]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t, s = rng.uniform(0.0, 1.0, 2)
        x, y = np.exp(rng.uniform(-2.0, 2.0, 2))
        yield float(t), float(x), float(s), float(y)


class TestOracleConstructor:
    @pytest.mark.parametrize("family", ["moving max", "gbm", ""])
    def test_unknown_family_is_a_data_error(self, family):
        with pytest.raises(DataError, match="unknown family"):
            MeasureOracle(family, KernelSpec())

    def test_moving_max_kernel_defaults_to_double_exp(self):
        oracle = MeasureOracle(MOVING_MAX)
        assert oracle == MeasureOracle.moving_max() == MeasureOracle(MOVING_MAX, KernelSpec())
        # two double-exp cells at level 1, half a time unit apart: exp(-1/4)
        mass = oracle.intersection_mass(0.0, 1.0, 0.5, 1.0)
        assert mass == pytest.approx(math.exp(-0.25), abs=1e-12)

    def test_pareto_gbm_drops_a_kernel(self):
        assert MeasureOracle(PARETO_GBM, KernelSpec()) == MeasureOracle.pareto_gbm()
        oracle = MeasureOracle(PARETO_GBM, KernelSpec("student-t", rate=2.0, df=4.0))
        assert oracle == MeasureOracle.pareto_gbm()
        assert oracle.kernel is None


class TestDoubleExpClosedForm:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_matches_quadrature(self, rate):
        k = KernelSpec("double-exp", rate=rate)
        oracle = MeasureOracle.moving_max(k)
        for t, x, s, y in random_cells(int(10 * rate), 40):
            union = sup_integral(k, np.array([t, s]), np.array([x, y]), tol=1e-11)
            want = 1.0 / x + 1.0 / y - union
            assert oracle.intersection_mass(t, x, s, y) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_homogeneity_and_symmetry(self, rate):
        oracle = MeasureOracle.moving_max(KernelSpec("double-exp", rate=rate))
        cells = list(random_cells(7, 50))
        for r in (0.3, 2.0, 17.0):
            for t, x, s, y in cells:
                base = oracle.intersection_mass(t, x, s, y)
                scaled = oracle.intersection_mass(t, r * x, s, r * y)
                assert abs(scaled - base / r) * r / base < 1e-12
        for t, x, s, y in cells:
            assert oracle.intersection_mass(t, x, s, y) == oracle.intersection_mass(
                s, y, t, x
            )

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_bounded_by_marginals_and_containment(self, rate):
        oracle = MeasureOracle.moving_max(KernelSpec("double-exp", rate=rate))
        for t, x, s, y in random_cells(11, 50):
            got = oracle.intersection_mass(t, x, s, y)
            assert 0.0 < got <= min(1.0 / x, 1.0 / y)
            # at level ratio >= e**(rate h) the higher cell contains the lower
            lift = math.exp(rate * abs(t - s))
            for hi, lo in ((x * lift, x), (x * lift * 1.5, x)):
                assert oracle.intersection_mass(t, hi, s, lo) == pytest.approx(
                    1.0 / hi, rel=1e-14
                )
                assert oracle.intersection_mass(t, lo, s, hi) == pytest.approx(
                    1.0 / hi, rel=1e-14
                )


# (df, rate) pairs from the Cauchy-like to the near-Gaussian kernel
STUDENT_KERNELS = [(3.0, 1.0), (1.0, 2.0), (10.0, 0.5), (3.0, 5.0), (0.5, 1.0), (30.0, 3.0)]


class TestStudentTClosedForm:
    @pytest.mark.parametrize("df,rate", STUDENT_KERNELS)
    def test_matches_quadrature(self, df, rate):
        k = KernelSpec("student-t", rate=rate, df=df)
        oracle = MeasureOracle.moving_max(k)
        rng = np.random.default_rng(int(10 * df + rate))
        for _ in range(60):
            t, s = rng.uniform(0.0, 1.0, 2)
            x, y = np.exp(rng.uniform(-3.0, 9.0, 2))
            union = sup_integral(k, np.array([t, s]), np.array([x, y]), tol=1e-11)
            want = 1.0 / x + 1.0 / y - union
            assert abs(oracle.intersection_mass(t, x, s, y) - want) <= 1e-12


class TestBroadcasting:
    @pytest.mark.parametrize(
        "oracle",
        [
            MeasureOracle.moving_max(),
            MeasureOracle.moving_max(KernelSpec("student-t", rate=2.0, df=4.0)),
            MeasureOracle.pareto_gbm(),
        ],
        ids=["double-exp", "student-t", "gbm"],
    )
    def test_array_levels_match_scalar_calls(self, oracle):
        ys = np.array([0.5, 1.0, 4.0])
        for t, s in ((0.1, 0.6), (0.9, 0.3), (0.4, 0.4)):
            got = oracle.intersection_mass(t, 2.0, s, ys)
            assert got.shape == ys.shape
            want = [oracle.intersection_mass(t, 2.0, s, float(y)) for y in ys]
            np.testing.assert_array_equal(got, want)
            assert isinstance(oracle.intersection_mass(t, 2.0, s, 1.0), float)

    def test_nonpositive_level_in_array_rejected(self):
        with pytest.raises(DataError):
            MeasureOracle.moving_max().intersection_mass(0.0, 1.0, 1.0, np.array([1.0, 0.0]))


class TestGbmOracle:
    def test_analytic_value_unit_gap(self):
        oracle = MeasureOracle.pareto_gbm()
        got = oracle.intersection_mass(0.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(2.0 * stats.norm.cdf(-0.5), rel=1e-12)

    def test_analytic_vs_monte_carlo(self):
        # independent cross-check: E[min(B(t)/x, B(s)/y)] by seeded Monte
        # Carlo over the Brownian increments, t < s
        analytic = MeasureOracle.pareto_gbm()
        for (t, x), (s, y) in [
            ((0.0, 1.0), (1.0, 1.0)),
            ((0.25, 2.0), (0.75, 1.0)),
            ((0.0, 0.5), (0.5, 3.0)),
        ]:
            rng = np.random.default_rng(3)
            z1 = rng.standard_normal(400_000)
            z2 = rng.standard_normal(400_000)
            b_t = np.exp(math.sqrt(t) * z1 - 0.5 * t)
            b_s = b_t * np.exp(math.sqrt(s - t) * z2 - 0.5 * (s - t))
            mc = float(np.mean(np.minimum(b_s / y, b_t / x)))
            assert analytic.intersection_mass(t, x, s, y) == pytest.approx(mc, abs=0.01)

    def test_homogeneity_exact(self):
        oracle = MeasureOracle.pareto_gbm()
        for t, x, s, y in ((0.0, 1.0, 1.0, 1.0), (0.2, 3.0, 0.6, 1.5)):
            base = oracle.intersection_mass(t, x, s, y)
            scaled = oracle.intersection_mass(t, 2.0 * x, s, 2.0 * y)
            assert abs(scaled - base / 2.0) * 2.0 / base < 1e-12


def reference_covariance(oracle, times, levels):
    """The covariance matrix one entry at a time, with scalar oracle calls."""
    cells = [(t, x) for t in times for x in levels]
    n = len(cells)
    cov = np.empty((n, n))
    for a, (t, x) in enumerate(cells):
        for b in range(a, n):
            s, y = cells[b]
            if t == s:
                val = min(1.0 / x, 1.0 / y)
            else:
                val = oracle.intersection_mass(t, 1.0, s, y / x) / x
            cov[a, b] = cov[b, a] = val
    return cov


class ConstantOracle:
    """Duck-typed oracle answering one scalar whatever its arguments."""

    def intersection_mass(self, t, x, s, y):
        return 0.125


class TestCovarianceMatrix:
    @pytest.mark.parametrize(
        "oracle,times,levels",
        [
            (MeasureOracle.moving_max(), [0.0, 0.3, 0.5, 1.0], np.geomspace(1.0, 1e3, 9)),
            (
                MeasureOracle.moving_max(KernelSpec("student-t", rate=1.0, df=3.0)),
                [0.0, 0.5],
                np.array([1.0, 2.5]),
            ),
            (MeasureOracle.pareto_gbm(), [0.0, 0.3, 0.5, 1.0], np.geomspace(1.0, 1e3, 9)),
            (ConstantOracle(), [0.0, 0.5, 1.0], np.array([1.0, 2.0, 8.0])),
        ],
        ids=["double-exp", "student-t", "gbm", "constant"],
    )
    def test_matches_scalar_reference(self, oracle, times, levels):
        cov = covariance_matrix(oracle, make_grid(points=times), levels)
        want = reference_covariance(oracle, times, levels)
        np.testing.assert_allclose(cov, want, rtol=1e-10, atol=1e-15)
        np.testing.assert_array_equal(cov, cov.T)


    def test_structure_and_values(self):
        oracle = MeasureOracle.pareto_gbm()
        t_grid = make_grid(points=[0.0, 0.5, 1.0])
        x_grid = np.array([1.0, 2.0])
        cov = covariance_matrix(oracle, t_grid, x_grid)
        assert cov.shape == (6, 6)
        np.testing.assert_allclose(cov, cov.T)
        # diagonal carries the rectangle masses 1/x
        np.testing.assert_allclose(np.diag(cov), [1.0, 0.5] * 3)
        # spot-check an off-diagonal entry against the oracle directly
        want = oracle.intersection_mass(0.0, 1.0, 0.5, 2.0)
        assert cov[0, 3] == pytest.approx(want, rel=1e-9)

    def test_positive_semidefinite(self):
        for oracle in (MeasureOracle.moving_max(), MeasureOracle.pareto_gbm()):
            cov = covariance_matrix(
                oracle, make_grid(points=[0.0, 0.3, 0.9]), np.array([1.0, 2.0, 5.0])
            )
            eig = np.linalg.eigvalsh(cov)
            assert eig.min() >= -1e-10 * eig.max()

    def test_level_validation(self):
        with pytest.raises(DataError):
            covariance_matrix(
                MeasureOracle.pareto_gbm(), make_grid(m=2), np.array([1.0, -2.0])
            )


# Every mass is capped at the smaller marginal mass, so the bound
# 0 < nu <= min(1/x, 1/y) holds with no slack, also where one cell nearly
# contains the other and the formulas round a few ulps above it.
ORACLES = {
    "double-exp": MeasureOracle.moving_max(),
    "double-exp-rate-3": MeasureOracle.moving_max(KernelSpec("double-exp", rate=3.0)),
    "gbm": MeasureOracle.pareto_gbm(),
    "student-t": MeasureOracle.moving_max(KernelSpec("student-t", rate=1.0, df=3.0)),
}


def cells(level_bound):
    """(t, x, s, y, r): times in [0, 1], levels and scale log-uniform."""
    level = st.floats(-level_bound, level_bound).map(math.exp)
    unit = st.floats(0.0, 1.0)
    return st.tuples(unit, level, unit, level, level)


def check_cell(oracle, cell):
    t, x, s, y, r = cell
    nu = oracle.intersection_mass(t, x, s, y)
    scaled = oracle.intersection_mass(t, r * x, s, r * y)
    assert abs(scaled - nu / r) <= 1e-12 * nu / r
    assert oracle.intersection_mass(s, y, t, x) == nu
    assert 0.0 < nu <= min(1.0 / x, 1.0 / y)


class TestOracleProperties:
    @pytest.mark.parametrize("name", ["double-exp", "double-exp-rate-3", "gbm", "student-t"])
    @settings(max_examples=200, deadline=None)
    @given(cell=cells(7.0))
    # a level ratio of the default `funcevt limit` grid where the gbm mass
    # rounded one ulp above 1/y before it was capped
    @example(cell=(0.0, 1.0, 0.5, 419.0918329952596, 1.0))
    def test_closed_forms(self, name, cell):
        check_cell(ORACLES[name], cell)


# negative eigenvalues of a covariance, relative to its largest, that
# count as rounding (the level lists may repeat a level, which makes the
# covariance singular)
EIG_TOL = 1e-8


class TestCovarianceProperties:
    @pytest.mark.parametrize("name", ["double-exp", "gbm", "student-t"])
    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True).map(sorted),
        levels=st.lists(st.floats(-7.0, 7.0).map(math.exp), min_size=1, max_size=6),
    )
    def test_symmetric_and_positive_semidefinite(self, name, times, levels):
        cov = covariance_matrix(ORACLES[name], make_grid(points=times), np.array(levels))
        np.testing.assert_array_equal(cov, cov.T)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -EIG_TOL * eig.max()
