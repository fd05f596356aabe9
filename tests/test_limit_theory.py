import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import kolmogi

from funcevt import limit_theory
from funcevt.exponent_measure import MeasureOracle, covariance_matrix
from funcevt.harness import ExperimentConfig, grid_for, run_replications, standardize
from funcevt.limit_theory import (
    DegenerateCovarianceError,
    LimitField,
    LimitParams,
    TrueFunctions,
    functional_x_grid,
    limit_functionals,
    limit_variances_gm0,
    second_order_bias,
    second_order_check,
    simulate_limit_field,
    simulate_limit_functionals,
)
from funcevt.path_model import MOVING_MAX, PARETO_GBM, DataError, MarginalModel, make_grid


def brute_force_bias(g, rho, x):
    def inner(y):
        val, _ = integrate.quad(lambda u: u ** (rho - 1.0), 1.0, y)
        return val * y ** (g - 1.0)

    val, _ = integrate.quad(inner, 1.0, x, epsabs=1e-11, epsrel=1e-11, limit=200)
    return val


def reference_tail_coef_moment2(g, x_max):
    """2 x_max int_{x_max}^inf ((x**g - 1)/g) x**(g-2) dx by quadrature,
    via w = log(x/x_max)."""
    L = math.log(x_max)

    def f(w):
        kern = L + w if g == 0.0 else math.expm1(g * (L + w)) / g
        return math.exp((g - 1.0) * w) * kern

    val, _ = integrate.quad(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0 * x_max ** g * val


def reference_limit_field(oracle, t_grid, x_grid, draws, seed):
    """simulate_limit_field's values from one (draws x cells) matrix of
    normals multiplied by the Cholesky factor in a single product."""
    factor = np.linalg.cholesky(covariance_matrix(oracle, t_grid, x_grid))
    z = np.random.default_rng(seed).standard_normal((draws, factor.shape[0]))
    return (z @ factor.T).reshape(draws, t_grid.m, len(x_grid))


def reference_limit_functionals(field, params):
    """moment1, moment2 and location of every draw by one loop over the
    times, each a dot product with its level weights plus the tail terms."""
    x = field.x_grid
    mt = field.t_grid.m
    gm = np.broadcast_to(params.gamma_minus, (mt,))
    tw = np.zeros_like(x)
    tw[:-1] += 0.5 * np.diff(x)
    tw[1:] += 0.5 * np.diff(x)
    out = np.empty((3, field.values.shape[0], mt))
    for j in range(mt):
        g = float(gm[j])
        W = field.values[:, j, :]
        w1, wend = W[:, 0], W[:, -1]
        out[0, :, j] = W @ (tw * x ** (g - 1.0)) + wend * x[-1] ** g / (1.0 - g) - w1 / (1.0 - g)
        kern = np.log(x) if g == 0.0 else np.expm1(g * np.log(x)) / g
        out[1, :, j] = (
            2.0 * (W @ (tw * kern * x ** (g - 1.0)))
            + wend * reference_tail_coef_moment2(g, x[-1])
            - 2.0 * w1 / ((1.0 - g) * (1.0 - 2.0 * g))
        )
        out[2, :, j] = w1
    return out


def functional_covariance(oracle, t_grid, x_grid, gamma_minus):
    """C = W' S W, the law simulate_limit_functionals draws from."""
    weights = limit_theory._functional_weights(x_grid, gamma_minus)
    return weights.T @ covariance_matrix(oracle, t_grid, x_grid) @ weights


def assert_covariance_near(fn, C):
    """The sample covariance of moment1, moment2 and location draws is C
    up to 5 standard errors in every entry."""
    draws = fn.moment1.shape[0]
    emp = np.cov(np.hstack([fn.moment1, fn.moment2, fn.location]), rowvar=False)
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C ** 2) / draws)
    assert np.all(np.abs(emp - C) < 5.0 * se)


FIELD_ORACLES = {"double-exp": MeasureOracle(MOVING_MAX), "gbm": MeasureOracle(PARETO_GBM)}

# (times, levels, draws, seed): the limit-mm bench workload, the README's
# default `funcevt limit`, and the two fields of acceptance 08
FIELD_SHAPES = {
    "limit-mm": (3, functional_x_grid(1e4, 128), 10_000, 7),
    "readme-default": (3, functional_x_grid(1e4, 512), 1000, 0),
    "acceptance-08-cov": (3, np.array([1.0, 2.0, 4.0, 8.0]), 10_000, 40),
    "acceptance-08-functionals": (1, functional_x_grid(1e4, 512), 10_000, 40),
}


class TestSecondOrderBias:
    def test_known_values(self):
        assert second_order_bias(0.0, -1.0, math.e) == pytest.approx(1.0 / math.e, rel=1e-12)
        assert second_order_bias(0.0, 0.0, math.e) == pytest.approx(0.5, rel=1e-10)
        assert second_order_bias(-1.0, -math.inf, 10.0) == 0.0

    def test_unit_argument_is_zero(self):
        for g in (0.0, -0.5):
            for r in (0.0, -1.0):
                assert second_order_bias(g, r, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_against_brute_force_grid(self):
        for g in (0.0, -0.5, -1.0):
            for r in (0.0, -0.5, -1.0):
                for x in (0.5, 1.0, 2.0, 10.0):
                    want = brute_force_bias(g, r, x)
                    got = second_order_bias(g, r, x)
                    assert abs(got - want) < 1e-8, (g, r, x)

    def test_vectorised(self):
        x = np.array([0.5, 1.0, 4.0])
        out = second_order_bias(-0.5, -1.0, x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.0, abs=1e-14)

    def test_positive_x_required(self):
        with pytest.raises(DataError):
            second_order_bias(0.0, -1.0, 0.0)


class TestLimitParams:
    def test_constant_builder(self):
        p = LimitParams.constant(4, gamma_plus=1.0)
        assert p.gamma_plus.shape == (4,)
        np.testing.assert_allclose(p.gamma, np.ones(4))

    def test_sign_constraints(self):
        with pytest.raises(DataError):
            LimitParams(np.array([-0.5]), np.array([0.0]))
        with pytest.raises(DataError):
            LimitParams(np.array([0.0]), np.array([0.5]))

    def test_parts_cannot_both_be_nonzero(self):
        with pytest.raises(DataError):
            LimitParams(np.array([1.0]), np.array([-1.0]))


class TestTrueFunctions:
    def test_moving_max_location(self):
        truth = TrueFunctions("moving-max")
        assert truth.location(0.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
        assert truth.scale(0.0, 2.0) == truth.location(0.0, 2.0)
        assert truth.bias_amplitude(0.0, 10.0) == pytest.approx(0.05)
        assert truth.remainder_target(4.0) == pytest.approx(0.75)

    def test_gbm_location_inverts_marginal(self):
        truth = TrueFunctions("pareto-gbm")
        marginal = MarginalModel("pareto-gbm")
        for t, v in ((0.5, 20.0), (1.0, 50.0)):
            u = truth.location(t, v)
            assert float(marginal.tail(t, u)) == pytest.approx(1.0 / v, rel=1e-9)
            assert u < v

    def test_gbm_location_bracket_for_large_v(self):
        # the bracket is asymptotic; it holds from about v = 100 on
        truth = TrueFunctions("pareto-gbm")
        for t, v in ((0.5, 100.0), (1.0, 200.0), (1.0, 1e4)):
            u = truth.location(t, v)
            assert v - v ** -1.5 <= u <= v

    def test_gbm_location_at_time_zero(self):
        truth = TrueFunctions("pareto-gbm")
        assert truth.location(0.0, 7.0) == 7.0

    def test_gbm_targets(self):
        truth = TrueFunctions("pareto-gbm")
        assert truth.remainder_target(3.0) == 0.0
        assert truth.bias_amplitude(0.2, 100.0) == pytest.approx(1e-3)
        truth = TrueFunctions("pareto-gbm", bound_exponent=2.0)
        assert truth.bias_amplitude(0.2, 100.0) == pytest.approx(1e-4)

    def test_v_must_exceed_one(self):
        truth = TrueFunctions("moving-max")
        with pytest.raises(DataError):
            truth.location(0.0, 1.0)

    @pytest.mark.parametrize("exponent", [1.0, 0.5, math.nan, math.inf])
    def test_bound_exponent_outside_one_to_inf_is_a_data_error(self, exponent):
        with pytest.raises(DataError, match="bound_exponent"):
            TrueFunctions("pareto-gbm", bound_exponent=exponent)


class TestFunctionalGrid:
    def test_geometric_from_one(self):
        x = functional_x_grid(x_max=100.0, n=9)
        assert x[0] == pytest.approx(1.0)
        assert x[-1] == pytest.approx(100.0)
        np.testing.assert_allclose(np.diff(np.log(x)), np.log(x[1]), rtol=1e-9)

    def test_validation(self):
        with pytest.raises(DataError):
            functional_x_grid(x_max=0.5)
        with pytest.raises(DataError):
            functional_x_grid(n=4)


class TestSimulateLimitField:
    def test_deterministic_and_zero_mean(self):
        oracle = MeasureOracle(PARETO_GBM)
        g = make_grid(points=[0.0, 1.0])
        x = np.array([1.0, 2.0])
        a = simulate_limit_field(oracle, g, x, draws=4000, seed=5)
        b = simulate_limit_field(oracle, g, x, draws=4000, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.n_draws == 4000
        assert np.abs(a.values.mean(axis=0)).max() < 4.0 / math.sqrt(4000)

    def test_covariance_recovered(self):
        oracle = MeasureOracle(PARETO_GBM)
        g = make_grid(points=[0.0, 0.5])
        x = np.array([1.0, 3.0])
        field = simulate_limit_field(oracle, g, x, draws=20_000, seed=6)
        flat = field.values.reshape(field.n_draws, -1)
        emp = np.cov(flat, rowvar=False)
        assert np.abs(emp - field.cov).max() < 0.06

    @pytest.mark.parametrize("shape", FIELD_SHAPES)
    @pytest.mark.parametrize("name", FIELD_ORACLES)
    def test_blocks_match_one_shot_reference(self, name, shape):
        # exact on these shapes only: OpenBLAS's rows can depend on the
        # row count of the product (at 300 cells 107 of 10,000 differ)
        m, x, draws, seed = FIELD_SHAPES[shape]
        g = make_grid(m=m)
        field = simulate_limit_field(FIELD_ORACLES[name], g, x, draws, seed)
        want = reference_limit_field(FIELD_ORACLES[name], g, x, draws, seed)
        assert field.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_values", [None, 5 * 16])
    def test_draws_are_prefix_stable(self, monkeypatch, block_values):
        if block_values is not None:
            monkeypatch.setattr(limit_theory, "_DRAW_BLOCK_VALUES", block_values)
        oracle = MeasureOracle(MOVING_MAX)
        g = make_grid(m=2)
        x = functional_x_grid(16.0, 8)
        rows = limit_theory._DRAW_BLOCK_VALUES // 16
        big = simulate_limit_field(oracle, g, x, draws=3 * rows + 2, seed=9).values
        for n in (1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 3):
            small = simulate_limit_field(oracle, g, x, draws=n, seed=9).values
            assert small.tobytes() == big[:n].tobytes(), n

    def test_memory_is_the_field_and_one_block(self):
        oracle = MeasureOracle(MOVING_MAX)
        g = make_grid(m=3)
        x = functional_x_grid(1e4, 128)
        tracemalloc.start()
        try:
            field = simulate_limit_field(oracle, g, x, draws=10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * field.values.nbytes

    def test_indefinite_matrix_rejected(self):
        class BrokenOracle:
            def intersection_mass(self, t, x, s, y):
                return -5.0

        g = make_grid(points=[0.0, 1.0])
        with pytest.raises(DegenerateCovarianceError, match=r"2 x 1 \(time x level\)"):
            simulate_limit_field(BrokenOracle(), g, np.array([1.0]), draws=10)


class TestLimitFunctionals:
    @staticmethod
    def field_from_values(x, values):
        g = make_grid(m=values.shape[1])
        return LimitField(g, x, np.eye(x.size), values, 0)

    def test_zero_field_gives_zero(self):
        x = functional_x_grid(x_max=1e4, n=256)
        field = self.field_from_values(x, np.zeros((3, 1, x.size)))
        out = limit_functionals(field, LimitParams.constant(1))
        for arr in (out.moment1, out.moment2, out.index, out.location, out.scale):
            np.testing.assert_array_equal(arr, 0.0)

    @pytest.mark.parametrize("gp,gm", [(1.0, 0.0), (0.0, -0.5)])
    def test_inverse_level_field_annihilates_moments(self, gp, gm):
        # W = 1/x makes both moment functionals vanish for every index,
        # leaving location 1 and scale gamma
        x = functional_x_grid(x_max=1e4, n=512)
        vals = np.broadcast_to(1.0 / x, (2, 1, x.size)).copy()
        field = self.field_from_values(x, vals)
        params = LimitParams(np.array([gp]), np.array([gm]))
        out = limit_functionals(field, params)
        assert np.abs(out.moment1).max() < 1e-3
        assert np.abs(out.moment2).max() < 1e-3
        np.testing.assert_allclose(out.location, 1.0)
        np.testing.assert_allclose(out.scale, gp + gm, atol=2e-3)

    def test_linear_combinations_consistent(self):
        rng = np.random.default_rng(7)
        x = functional_x_grid(x_max=100.0, n=64)
        vals = rng.standard_normal((5, 1, x.size))
        field = self.field_from_values(x, vals)
        out = limit_functionals(field, LimitParams.constant(1, gamma_plus=1.0))
        # at gamma_minus = 0 the index and scale rows are fixed linear
        # combinations of the moment rows and the location row
        np.testing.assert_allclose(
            out.index, -out.moment1 + 0.5 * out.moment2, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            out.scale,
            out.location + 3.0 * out.moment1 - 0.5 * out.moment2,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_variances_match_closed_forms(self):
        oracle = MeasureOracle(PARETO_GBM)
        g = make_grid(m=1)
        x = functional_x_grid(x_max=1e4, n=512)
        field = simulate_limit_field(oracle, g, x, draws=20_000, seed=8)
        out = limit_functionals(field, LimitParams.constant(1, gamma_plus=1.0))
        ref = limit_variances_gm0(1.0)
        assert np.var(out.moment1[:, 0]) == pytest.approx(ref.var_moment1, rel=0.1)
        assert np.var(out.moment2[:, 0]) == pytest.approx(ref.var_moment2, rel=0.1)
        cov = float(np.cov(out.moment1[:, 0], out.moment2[:, 0])[0, 1])
        assert cov == pytest.approx(ref.cov_moments, rel=0.15)
        assert np.var(out.index[:, 0]) == pytest.approx(ref.var_index, rel=0.1)
        assert np.var(out.location[:, 0]) == pytest.approx(ref.var_location, rel=0.1)
        assert np.var(out.scale[:, 0]) == pytest.approx(ref.var_scale, rel=0.1)

    @pytest.mark.parametrize("gm", [(0.0, 0.0), (-0.5, -1e-3)], ids=["gm0", "negative"])
    def test_weights_match_the_loop_reference(self, gm):
        # one matmul with the weights sums in another order than the
        # per-time loop: equal to a few ulps of the largest value
        rng = np.random.default_rng(11)
        x = functional_x_grid(x_max=1e4, n=256)
        field = self.field_from_values(x, rng.standard_normal((7, 2, x.size)))
        params = LimitParams(np.zeros(2), np.array(gm))
        out = limit_functionals(field, params)
        want = reference_limit_functionals(field, params)
        for got, ref in zip((out.moment1, out.moment2, out.location), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("g", [0.0, -1e-12, -1e-3, -0.25, -0.5, -1.0, -3.0])
    @pytest.mark.parametrize("x_max", [10.0, 1e4, 1e8])
    def test_tail_coefficient_matches_quadrature(self, g, x_max):
        want = reference_tail_coef_moment2(g, x_max)
        got = limit_theory._tail_coef_moment2(g, x_max)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_grid_must_start_at_one(self):
        x = np.array([2.0, 4.0, 8.0])
        field = self.field_from_values(x, np.zeros((2, 1, 3)))
        with pytest.raises(DataError):
            limit_functionals(field, LimitParams.constant(1))


class TestSimulateLimitFunctionals:
    @pytest.mark.parametrize("levels", [128, 512])
    @pytest.mark.parametrize("name", FIELD_ORACLES)
    def test_exact_law_matches_gm0_closed_forms(self, name, levels):
        # the law itself, no draws: at gamma_minus = 0 each time's block of
        # C holds the closed-form (co)variances up to the level-grid error
        g = make_grid(m=3)
        x = functional_x_grid(1e4, levels)
        C = functional_covariance(FIELD_ORACLES[name], g, x, np.zeros(3))
        ref = limit_variances_gm0(1.0)
        for j in range(3):
            p, q, u = j, 3 + j, 6 + j
            assert C[p, p] == pytest.approx(ref.var_moment1, rel=0.01)
            assert C[q, q] == pytest.approx(ref.var_moment2, rel=0.01)
            assert C[p, q] == pytest.approx(ref.cov_moments, rel=0.01)
            assert C[u, u] == pytest.approx(ref.var_location, rel=0.01)
            assert abs(C[p, u]) < 0.01 and abs(C[q, u]) < 0.01 * math.sqrt(20.0)

    @pytest.mark.parametrize("g", [-0.1, -0.3, -0.45])
    def test_exact_law_matches_the_moment_estimator_at_negative_gamma(self, g):
        # the law at one time with gamma_plus = 0 and gamma_minus = g < 0:
        # the variances of the moment estimator's index (Dekkers, Einmahl
        # and de Haan 1989) and of the moment-type scale (de Haan and
        # Ferreira 2006, ch. 4).  The index and scale are linear in the
        # moment1, moment2 and location values, so their weights are the
        # functionals of the unit vectors.  The level grid ends at 1e5,
        # where the tail term leaves a relative error below 2e-4; at 1e4
        # it is 9e-4, and at gamma_minus = 0, gamma_plus = 1 the index
        # variance there is 1.9897 against 2
        t, x = make_grid(m=1), functional_x_grid(1e5, 1024)
        C = functional_covariance(FIELD_ORACLES["double-exp"], t, x, np.array([g]))
        unit = limit_theory._functionals_from_moments(
            t, LimitParams(np.zeros(1), np.array([g])), np.eye(3)
        )
        index, scale = unit.index[:, 0], unit.scale[:, 0]
        var_index = (1 - g) ** 2 * (1 - 2 * g) * (1 - g + 6 * g**2) / ((1 - 3 * g) * (1 - 4 * g))
        var_scale = (2 - 16 * g + 51 * g**2 - 69 * g**3 + 50 * g**4 - 24 * g**5) / (
            (1 - 2 * g) * (1 - 3 * g) * (1 - 4 * g)
        )
        assert index @ C @ index == pytest.approx(var_index, rel=1e-3)
        assert scale @ C @ scale == pytest.approx(var_scale, rel=1e-3)
        assert C[2, 2] == pytest.approx(1.0, rel=1e-3)

    def test_field_route_agrees_in_law(self):
        # functionals of field draws have the covariance C the direct
        # route draws from: each entry within 5 standard errors
        oracle = MeasureOracle(PARETO_GBM)
        g = make_grid(m=2)
        x = functional_x_grid(1e3, 32)
        params = LimitParams(np.zeros(2), np.array([0.0, -0.5]))
        field = simulate_limit_field(oracle, g, x, 20_000, seed=12)
        fn = limit_functionals(field, params)
        assert_covariance_near(fn, functional_covariance(oracle, g, x, params.gamma_minus))

    def test_draws_have_the_law_and_the_field_combinations(self):
        oracle = MeasureOracle(MOVING_MAX)
        g = make_grid(m=2)
        x = functional_x_grid(1e3, 32)
        params = LimitParams.constant(2, gamma_plus=1.0)
        fn = simulate_limit_functionals(oracle, g, x, 20_000, 13, params)
        assert_covariance_near(fn, functional_covariance(oracle, g, x, params.gamma_minus))
        np.testing.assert_allclose(fn.index, -fn.moment1 + 0.5 * fn.moment2, atol=1e-12)
        np.testing.assert_allclose(
            fn.scale, fn.location + 3.0 * fn.moment1 - 0.5 * fn.moment2, atol=1e-12
        )

    @pytest.mark.parametrize("block_values", [None, 5 * 6])
    def test_draws_are_prefix_stable(self, monkeypatch, block_values):
        if block_values is not None:
            monkeypatch.setattr(limit_theory, "_DRAW_BLOCK_VALUES", block_values)
        oracle = MeasureOracle(MOVING_MAX)
        g = make_grid(m=2)
        x = functional_x_grid(16.0, 8)
        params = LimitParams.constant(2)
        rows = limit_theory._DRAW_BLOCK_VALUES // 6
        names = ("moment1", "moment2", "index", "location", "scale")

        def run(n):
            fn = simulate_limit_functionals(oracle, g, x, n, 9, params)
            return [getattr(fn, name) for name in names]

        big = run(3 * rows + 2)
        for n in (1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 3):
            for got, want in zip(run(n), big):
                assert got.tobytes() == want[:n].tobytes(), n

    def test_tiny_covariance_change_moves_draws_tiny(self, monkeypatch):
        # the README default pareto-gbm grid, where ulp-level covariance
        # changes once flipped eigenvector signs and moved draws by 0.088;
        # both samplers, the functionals and the field
        g = make_grid(m=3)
        x = functional_x_grid(1e4, 512)
        cov = covariance_matrix(MeasureOracle(PARETO_GBM), g, x)
        noise = np.random.default_rng(14).standard_normal(cov.shape)
        params = LimitParams.constant(3)

        def draws(matrix):
            monkeypatch.setattr(limit_theory, "covariance_matrix", lambda *a: matrix)
            fn = simulate_limit_functionals(None, g, x, 1000, 0, params)
            field = simulate_limit_field(None, g, x, 100, 0)
            return fn.moment1, fn.moment2, fn.location, field.values

        a = draws(cov)
        b = draws(cov + 0.5e-18 * (noise + noise.T))
        for got, want in zip(b, a):
            assert np.abs(got - want).max() < 1e-12

    def test_indefinite_law_rejected_naming_the_grid(self, monkeypatch):
        g = make_grid(m=2)
        x = functional_x_grid(100.0, 8)
        monkeypatch.setattr(
            limit_theory, "covariance_matrix", lambda o, t, x: -np.eye(2 * x.size)
        )
        with pytest.raises(DegenerateCovarianceError, match="2 x 8"):
            simulate_limit_functionals(None, g, x, 10, 0, LimitParams.constant(2))


# each standardized estimator error and the limit functional it tends to
ERROR_LIMITS = {"hill": "moment1", "index": "index", "location": "location", "scale": "scale"}


def errors_and_law(family, seed, law_seed):
    """Standardized normality errors at 11 times (n 5000, k 200, 1,000
    reps) and 20,000 draws of their limit law on the same times."""
    cfg = ExperimentConfig(
        kind="normality", family=family, n=5000, k=200, reps=1000, seed=seed, m=11
    )
    errors = standardize(run_replications(cfg, workers=2), TrueFunctions(family))
    law = simulate_limit_functionals(
        MeasureOracle(family), grid_for(cfg), functional_x_grid(n=256), 20_000, law_seed,
        LimitParams.constant(cfg.m),
    )
    return errors, law


# times whose cross-time covariance is compared, and the largest gap
# allowed between an entry of the hill errors' covariance and the law's,
# in standard errors: with 10 entries, a 4 is about a 0.06% chance
COV_TIMES = (0.0, 0.2, 0.5, 1.0)
COV_Z = 4.0


def _cov_and_var(a):
    """The covariance of a's columns and the variance of each entry's
    estimate, from the products of the centred columns."""
    c = a - a.mean(axis=0)
    products = c[:, :, None] * c[:, None, :]
    return np.cov(a, rowvar=False), products.var(axis=0) / len(a)


def hill_covariance_z(errors, law):
    """(largest |gap| / standard error over the entries, law covariance) of
    the hill errors' and the moment1 draws' covariance at COV_TIMES."""
    idx = [int(np.argmin(np.abs(errors.t - t))) for t in COV_TIMES]
    got, got_var = _cov_and_var(errors.hill[:, idx])
    want, want_var = _cov_and_var(law.moment1[:, idx])
    return float(np.abs((got - want) / np.sqrt(got_var + want_var)).max()), want


@pytest.fixture(scope="module", params=[MOVING_MAX, PARETO_GBM])
def uniform_in_time(request):
    # one replication set and one law per family serve every test below
    return request.param, *errors_and_law(request.param, 2026, 2027)


class TestUniformInTime:
    def test_sup_over_time_of_the_errors_follows_the_limit_law(self, uniform_in_time):
        # the limit is a Gaussian process on [0, 1], not only a Gaussian
        # law at each time: the sup over 11 times of |error| must match the
        # sup of |draw| of the joint law (two-sample KS at the 1% level)
        _, errors, law = uniform_in_time
        draws = law.moment1.shape[0]
        crit = float(kolmogi(0.01)) * math.sqrt((errors.used + draws) / (errors.used * draws))
        for stat, functional in ERROR_LIMITS.items():
            sup_error = np.abs(getattr(errors, stat)).max(axis=1)
            sup_draw = np.abs(getattr(law, functional)).max(axis=1)
            ks = stats.ks_2samp(sup_error, sup_draw).statistic
            assert ks < crit, f"{stat}: KS {ks:.4f} >= {crit:.4f}"

    def test_hill_errors_covary_across_times_as_the_limit_law(self, uniform_in_time):
        family, errors, law = uniform_in_time
        z, want = hill_covariance_z(errors, law)
        assert z < COV_Z, f"covariance gap of {z:.2f} standard errors"
        if family == MOVING_MAX:
            # nu(C_{t,1} n C_{s,1}) = exp(-|t - s|/2) for the default kernel
            closed = np.exp(-np.abs(np.subtract.outer(COV_TIMES, COV_TIMES)) / 2.0)
            np.testing.assert_allclose(want, closed, atol=0.05)


SAMPLERS = {
    "field": lambda x: simulate_limit_field(MeasureOracle(MOVING_MAX), make_grid(m=2), x, 10),
    "functionals": lambda x: simulate_limit_functionals(
        MeasureOracle(MOVING_MAX), make_grid(m=2), x, 10, 0, LimitParams.constant(2)
    ),
}


class TestLevelGridCheck:
    # a repeated level makes the cell covariance singular, a decreasing
    # grid makes the trapezoid weights negative; no grid may warn first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x",
        [[1.0, 2.0, 2.0], [1.0, 0.5, 0.25], [], [[1.0, 2.0], [4.0, 8.0]], [1.0, math.inf]],
        ids=["duplicate", "decreasing", "empty", "2-D", "infinite"],
    )
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_rejected(self, sampler, x):
        with pytest.raises(DataError, match="level grid"):
            SAMPLERS[sampler](np.array(x))


class TestGm0Variances:
    def test_derived_properties(self):
        v = limit_variances_gm0(2.0)
        assert v.var_hill == pytest.approx(4.0)
        assert v.var_index == pytest.approx(5.0)
        assert v.var_scale == pytest.approx(6.0)
        assert v.var_moment2 == 20.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(DataError):
            limit_variances_gm0(-0.5)


class TestSecondOrderCheck:
    def test_moving_max_deviation_shrinks(self):
        truth = TrueFunctions("moving-max")
        r = second_order_check(
            truth,
            v_grid=np.array([1e2, 1e3, 1e4]),
            x_grid=functional_x_grid(x_max=100.0, n=33),
        )
        assert r.max_deviation[0] < 0.01
        assert r.max_deviation[2] < r.max_deviation[1] < r.max_deviation[0]
        assert r.bracket_ok is None

    def test_gbm_time_zero_exact(self):
        truth = TrueFunctions("pareto-gbm")
        r = second_order_check(
            truth,
            v_grid=np.array([100.0]),
            x_grid=np.array([1.0, 2.0, 5.0]),
            times=np.array([0.0]),
        )
        # U is exact at t = 0, so only log-cancellation roundoff remains
        assert r.max_deviation[0] < 1e-10
        assert r.bracket_ok and r.log_bound_ok

    def test_schedule_amplitude_decays(self):
        truth = TrueFunctions("moving-max")
        r = second_order_check(
            truth,
            v_grid=np.array([100.0]),
            x_grid=np.array([1.0, 2.0]),
            schedule=((500, 22), (2000, 44), (8000, 89)),
        )
        assert len(r.schedule) == 3
        assert r.amplitude_decays
        n, k, amp = r.schedule[0]
        assert (n, k) == (500, 22)
        assert amp == pytest.approx(math.sqrt(22) * 22 / 1000.0, rel=1e-12)


def test_package_exports_both_samplers_and_their_error():
    import funcevt

    assert funcevt.simulate_limit_field is simulate_limit_field
    assert funcevt.simulate_limit_functionals is simulate_limit_functionals
    assert funcevt.DegenerateCovarianceError is DegenerateCovarianceError



def _draws(sampler, draws):
    """Pareto-gbm draws of the field ("field") or the index functional
    ("functionals") for a draw count."""
    g, x, oracle = make_grid(m=2), functional_x_grid(10.0, 8), MeasureOracle(PARETO_GBM)
    if sampler == "field":
        return simulate_limit_field(oracle, g, x, draws, seed=1).values
    params = LimitParams.constant(2, 1.0, 0.0)
    return simulate_limit_functionals(oracle, g, x, draws, 1, params).index


@pytest.mark.parametrize("sampler", ["field", "functionals"])
@pytest.mark.parametrize("draws", [2.7, 3.0, True, "3"])
def test_non_integral_draw_count_is_a_data_error(sampler, draws):
    # int() used to truncate 2.7 to 2 draws and take True as 1
    with pytest.raises(DataError, match="draw count must be an integer"):
        _draws(sampler, draws)


@pytest.mark.parametrize("sampler", ["field", "functionals"])
def test_numpy_integer_draw_count_gives_the_python_draws(sampler):
    got, want = _draws(sampler, np.int64(5)), _draws(sampler, 5)
    assert got.shape[0] == 5
    assert got.tobytes() == want.tobytes()
