import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.special import kolmogi

from funcevt import harness, path_model
from funcevt.exponent_measure import MeasureOracle, covariance_matrix
from funcevt.harness import ExperimentConfig
from funcevt.path_model import (
    MOVING_MAX,
    PARETO_GBM,
    DataError,
    ParetoPaths,
    make_grid,
    marginal_model_for,
    pareto_transform,
    _partition_columns,
    top_block_above,
)
from funcevt.process_sim import KernelSpec, SimConfig, simulate_moving_max, simulate_pareto_gbm
from funcevt.tail_process import (
    OscillationConfig,
    TailField,
    _exceedance_counts,
    build_tail_field,
    oscillation_diagnostic,
    tail_quantile_stat,
)


def pareto_column(values):
    vals = np.asarray(values, dtype=float)[:, None]
    return ParetoPaths(make_grid(m=1), vals)


HAND = pareto_column([1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 8.0, 16.0])


class TestExceedanceFraction:
    # the fraction S_{n,t}(x) of the n values at or above x is counts / n

    def test_hand_counts(self):
        frac = _exceedance_counts(HAND, np.array([4.0, 1.0, 100.0]))[0] / HAND.n
        assert frac[0] == pytest.approx(3.0 / 8.0)
        assert frac[1] == pytest.approx(1.0)
        assert frac[2] == 0.0

    def test_threshold_is_inclusive(self):
        frac = _exceedance_counts(HAND, np.array([16.0]))[0] / HAND.n
        assert frac[0] == pytest.approx(1.0 / 8.0)

    def test_vectorised(self):
        out = _exceedance_counts(HAND, np.array([4.0, 8.0]))[0] / HAND.n
        np.testing.assert_allclose(out, [3.0 / 8.0, 2.0 / 8.0])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_brute_force_count_and_monotone(self, data):
        # values and levels share a few exact ties; a nan level counts nothing
        some = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(1.0, 1e6))
        # (a sample of one path has no top block: k must be in [1, n - 1])
        n, m = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 3))
        paths = ParetoPaths(make_grid(m=m), data.draw(hnp.arrays(float, (n, m), elements=some)))
        x = data.draw(hnp.arrays(float, st.integers(0, 12), elements=some | st.just(math.nan)))
        got = _exceedance_counts(paths, x) / n
        ordered = _exceedance_counts(paths, np.sort(x[~np.isnan(x)])) / n
        for j in range(m):
            col = paths.values[:, j]
            want = np.array([np.count_nonzero(col >= level) for level in x]) / n
            assert got[j].tobytes() == want.tobytes()
            assert np.all(np.diff(ordered[j]) <= 0.0)


class TestTailEmpiricalProcess:
    # n=8, k=2 so n/k = 4 and sqrt(k) = sqrt(2)

    def test_hand_values(self):
        w1, w2 = build_tail_field(HAND, 2, x_grid=[1.0, 2.0]).values[0]
        assert w1 == pytest.approx(math.sqrt(2.0) * (4.0 * 3.0 / 8.0 - 1.0))
        assert w2 == pytest.approx(math.sqrt(2.0) * (4.0 * 2.0 / 8.0 - 0.5))

    def test_no_exceedances_gives_minus_inverse_level(self):
        w = build_tail_field(HAND, 2, x_grid=[8.0]).values[0, 0]
        assert w == pytest.approx(-math.sqrt(2.0) / 8.0)

    def test_level_must_be_positive(self):
        with pytest.raises(DataError):
            build_tail_field(HAND, 2, x_grid=[0.0])

    def test_k_range_checked(self):
        with pytest.raises(DataError):
            build_tail_field(HAND, 8, x_grid=[1.0])

    def test_centred_and_scaled_on_iid_pareto(self):
        # on iid standard Pareto the variance of w_n(x) is
        # (1/x)(1 - k/(x n)), close to the 1/x limit
        n, k, reps = 5000, 200, 2000
        rng = np.random.default_rng(17)
        draws = 1.0 / (1.0 - rng.random((reps, n)))
        for x in (1.0, 2.0, 4.0):
            thresh = x * n / k
            frac = np.count_nonzero(draws >= thresh, axis=1) / n
            w = math.sqrt(k) * ((n / k) * frac - 1.0 / x)
            assert abs(w.mean()) < 3.0 * w.std(ddof=1) / math.sqrt(reps)
            assert w.var(ddof=1) == pytest.approx(1.0 / x, rel=0.15)


class TestTailField:
    def test_build_matches_pointwise(self):
        rng = np.random.default_rng(3)
        g = make_grid(m=3)
        paths = ParetoPaths(g, 1.0 / (1.0 - rng.random((500, 3))))
        field = build_tail_field(paths, 50, n_x=16)
        assert field.values.shape == (3, 16)
        alone = ParetoPaths(make_grid(points=[g.points[1]]), paths.values[:, [1]])
        np.testing.assert_allclose(
            field.values[1], build_tail_field(alone, 50, x_grid=field.x_grid).values[0]
        )
        assert field.x_grid[0] == pytest.approx(1.0)
        assert field.x_grid[-1] == pytest.approx(500 / 50)

    def test_default_grid_needs_room(self):
        rng = np.random.default_rng(4)
        paths = ParetoPaths(make_grid(m=1), 1.0 / (1.0 - rng.random((20, 1))))
        with pytest.raises(DataError):
            build_tail_field(paths, 19, c=2.0)
        # the lower end of the grid must be a positive, finite level
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError):
                build_tail_field(paths, 4, c=c)

    def test_field_shape_validation(self):
        with pytest.raises(DataError):
            TailField(make_grid(m=2), np.array([1.0, 2.0]), np.zeros((3, 2)), 10, 2)

    # level grids both routes once took silently: a nan or zero column, or
    # an empty field
    BAD_LEVELS = {
        "nan": [1.0, math.nan],
        "nan-only": [math.nan],
        "inf": [0.5, math.inf],
        "empty": [],
    }

    @pytest.mark.parametrize("case", sorted(BAD_LEVELS))
    @pytest.mark.parametrize("route", ["build_tail_field", "TailField"])
    def test_bad_level_grid_rejected(self, case, route):
        x = np.array(self.BAD_LEVELS[case], dtype=float)
        with pytest.raises(DataError, match="level grid"):
            if route == "build_tail_field":
                build_tail_field(HAND, 2, x_grid=x)
            else:
                TailField(HAND.grid, x, np.zeros((1, x.size)), HAND.n, 2)

    def test_unweighted_sup_shrinks_with_sample_size(self):
        # the uncentred fraction (n/k) S(x n/k) converges to 1/x; its sup
        # distance should drop as k grows
        x_grid = np.exp(np.linspace(0.0, math.log(30.0), 32))
        meds = []
        rng = np.random.default_rng(21)
        for n in (1000, 10_000):
            k = int(math.isqrt(n))
            sups = []
            for _ in range(50):
                paths = ParetoPaths(
                    make_grid(m=1), 1.0 / (1.0 - rng.random((n, 1)))
                )
                field = build_tail_field(paths, k, x_grid=x_grid)
                sups.append(np.max(np.abs(field.values)) / math.sqrt(k))
            meds.append(np.median(sups))
        assert meds[1] < meds[0]


class TestLevelCount:
    @pytest.mark.parametrize("n_x", [2.5, 16.0, True, "16", 0, -3])
    def test_bad_n_x_rejected(self, n_x):
        with pytest.raises(DataError, match="n_x must be"):
            build_tail_field(HAND, 2, n_x=n_x)

    def test_numpy_integer_n_x(self):
        want = build_tail_field(HAND, 2, n_x=5)
        got = build_tail_field(HAND, 2, n_x=np.int32(5))
        assert got.x_grid.tobytes() == want.x_grid.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


class TestTailQuantileStat:
    def test_exact_zero_at_matching_quantile(self):
        paths = pareto_column([1.0, 2.0, 3.0, 4.0])
        out = tail_quantile_stat(paths, 2, 1.0)
        # the third largest is 2, and 2 * (k/n) = 1
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_alpha_zero_kills_statistic(self):
        paths = pareto_column([1.0, 3.0, 9.0, 27.0])
        out = tail_quantile_stat(paths, 2, 0.0)
        assert out[0] == 0.0

    def test_alpha_broadcast_per_time(self):
        rng = np.random.default_rng(5)
        g = make_grid(m=2)
        paths = ParetoPaths(g, 1.0 / (1.0 - rng.random((100, 2))))
        out = tail_quantile_stat(paths, 10, np.array([1.0, 0.0]))
        assert out[1] == 0.0
        assert out[0] != 0.0

    @pytest.mark.parametrize("alpha", [
        np.nan, np.inf, -np.inf, [1.0, np.nan], [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]],
        "a", None, {},
    ])
    def test_bad_alpha_rejected(self, alpha):
        rng = np.random.default_rng(5)
        paths = ParetoPaths(make_grid(m=2), 1.0 / (1.0 - rng.random((100, 2))))
        with pytest.raises(DataError, match="alpha must be"):
            tail_quantile_stat(paths, 10, alpha)

    def test_alpha_scalar_types(self):
        paths = pareto_column([1.0, 3.0, 9.0, 27.0])
        want = tail_quantile_stat(paths, 2, 0.5)
        for alpha in (np.float32(0.5), np.array(0.5), [0.5], np.array([0.5])):
            assert tail_quantile_stat(paths, 2, alpha).tobytes() == want.tobytes()

    def test_asymptotic_variance_on_iid_pareto(self):
        # sqrt(k)((zeta_(n-k) k/n)**alpha - 1) has limit variance alpha**2
        n, k, reps = 5000, 200, 500
        rng = np.random.default_rng(6)
        stats = []
        for _ in range(reps):
            paths = ParetoPaths(make_grid(m=1), 1.0 / (1.0 - rng.random((n, 1))))
            stats.append(tail_quantile_stat(paths, k, 1.0)[0])
        stats = np.asarray(stats)
        assert abs(stats.mean()) < 0.2
        assert stats.var(ddof=1) == pytest.approx(1.0, rel=0.25)


class TestOscillation:
    def test_threshold_and_reference_bound(self):
        cfg = OscillationConfig(s=0.5, delta=math.exp(-4.0), v=50.0, K=16.0)
        assert cfg.threshold == pytest.approx(0.25)
        assert cfg.reference_bound == pytest.approx(4.0 ** -5)

    def test_config_validation(self):
        with pytest.raises(DataError):
            OscillationConfig(s=0.99, delta=0.05, v=2.0, K=1.0)
        with pytest.raises(DataError):
            OscillationConfig(s=0.5, delta=0.0, v=2.0, K=1.0)
        with pytest.raises(DataError):
            OscillationConfig(s=0.5, delta=0.05, v=0.5, K=1.0)
        with pytest.raises(DataError):
            OscillationConfig(s=0.5, delta=0.05, v=2.0, K=1.0, variant="abs")

    def test_hand_counts_both_variants(self):
        g = make_grid(points=[0.5, 0.52])
        vals = np.array([[10.0, 10.2], [10.0, 12.0], [1.5, 1.4]])
        paths = ParetoPaths(g, vals)
        cfg = OscillationConfig(s=0.5, delta=0.05, v=2.0, K=1.0, variant="ratio")
        rep = oscillation_diagnostic(paths, cfg)
        # threshold is (log 20)**-3 = 0.0373: path 1 moves 2%, path 2
        # moves 20%, path 3 never reaches the conditioning level
        assert rep.n_conditioning == 2
        assert rep.n_exceed == 1
        assert rep.estimate == pytest.approx(0.5)
        rep_log = oscillation_diagnostic(
            paths, OscillationConfig(s=0.5, delta=0.05, v=2.0, K=1.0, variant="log")
        )
        assert rep_log.n_exceed == 1

    def test_window_needs_two_grid_points(self):
        paths = pareto_column([2.0, 3.0])
        with pytest.raises(DataError):
            oscillation_diagnostic(
                paths, OscillationConfig(s=0.0, delta=0.05, v=1.5, K=1.0)
            )

    def test_no_conditioning_paths_warns_nan(self):
        g = make_grid(points=[0.5, 0.52])
        paths = ParetoPaths(g, np.array([[1.5, 1.4]]))
        cfg = OscillationConfig(s=0.5, delta=0.05, v=100.0, K=1.0)
        with pytest.warns(RuntimeWarning):
            rep = oscillation_diagnostic(paths, cfg)
        assert rep.n_conditioning == 0
        assert math.isnan(rep.estimate)

    def test_s_must_be_grid_point(self):
        g = make_grid(points=[0.5, 0.52])
        paths = ParetoPaths(g, np.array([[10.0, 10.0]]))
        with pytest.raises(DataError):
            oscillation_diagnostic(
                paths, OscillationConfig(s=0.51, delta=0.05, v=2.0, K=1.0)
            )


# The per-column tail process and quantile statistic as they were before
# the all-times kernels: one comparison count per column and level, one
# partition per column.  The kernels must reproduce them bit for bit.


def reference_exceedance_fraction(paths, j, x):
    col = paths.values[:, j]
    x = np.asarray(x, dtype=float)
    out = np.count_nonzero(col[None, :] >= np.atleast_1d(x)[:, None], axis=1) / col.size
    return out.reshape(x.shape) if x.ndim else float(out[0])


def reference_tail_empirical_process(paths, j, x, k):
    x = np.asarray(x, dtype=float)
    n = paths.n
    frac = reference_exceedance_fraction(paths, j, x * (n / k))
    out = math.sqrt(k) * ((n / k) * frac - 1.0 / x)
    return out if np.ndim(out) else float(out)


def reference_quantile_stat(paths, k, alpha):
    n = paths.n
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (paths.m,))
    out = np.empty(paths.m)
    for j in range(paths.m):
        v = np.partition(paths.values[:, j], n - k - 1)[n - k - 1] * (k / n)
        out[j] = math.sqrt(k) * (v ** alpha[j] - 1.0)
    return out


# the sample-analysis bench's ascending k sweep: 12 values from 20 to 1363
SWEEP_K = tuple(int(round(20 * 10 ** (j / 6))) for j in range(12))


def family_zeta(family, n=1500, m=6, seed=41):
    g = make_grid(m=m)
    if family == "moving-max":
        sample = simulate_moving_max(KernelSpec(), g, SimConfig(n=n, seed=seed))
    else:
        sample = simulate_pareto_gbm(g, SimConfig(n=n, seed=seed))
    return pareto_transform(sample, marginal_model_for(sample))


def tied_zeta():
    # ties at and around the levels x n/k, and a constant column
    vals = np.column_stack([
        np.r_[np.ones(6), 2.0, 2.0, 4.0, 4.0, 4.0, 8.0],
        np.full(12, 3.0),
        np.arange(1.0, 13.0),
    ])
    return ParetoPaths(make_grid(m=3), vals)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    @pytest.mark.parametrize("k", [1, 2, 200, 1499])
    def test_tail_field(self, family, k):
        zeta = family_zeta(family)
        for x_grid in (None, np.array([0.5, 1.0, 1.0 + 1e-12, 3.0])):
            field = build_tail_field(zeta, k, x_grid=x_grid, n_x=16)
            want = np.array([
                reference_tail_empirical_process(zeta, j, field.x_grid, k)
                for j in range(zeta.m)
            ])
            assert field.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    def test_tail_field_reads_the_top_block_of_a_sweep(self, family):
        zeta = family_zeta(family)
        calls = []

        def counted(values, k):
            # only the partitions of the whole sample count
            if values is zeta.values:
                calls.append(k)
            return _partition_columns(values, k)

        with mock.patch.object(path_model, "_partition_columns", counted):
            for k in (20, 100, 300):
                tail_quantile_stat(zeta, k, -1.0)
            swept = list(calls)
            field = build_tail_field(zeta, 200, n_x=16)
            assert calls == swept
            # levels from a quarter of n/k reach below the block: it grows
            low = build_tail_field(zeta, 200, n_x=16, c=0.25)
            assert len(calls) == len(swept) + 1
        for got in (field, low):
            want = np.array([
                reference_tail_empirical_process(zeta, j, got.x_grid, 200)
                for j in range(zeta.m)
            ])
            assert got.values.tobytes() == want.tobytes()

    def test_tail_field_reads_the_memo_after_the_bench_sweep(self):
        zeta = family_zeta("pareto-gbm", n=20_000)
        for k in SWEEP_K:
            tail_quantile_stat(zeta, k, -1.0)
        memo = zeta._top
        # every row of the memo starts below the field's lowest level, n/k
        assert top_block_above(zeta, zeta.n / 200) is memo
        fresh = ParetoPaths(zeta.grid, np.array(zeta.values))
        warm = build_tail_field(zeta, 200, n_x=64)
        assert zeta._top is memo
        assert warm.values.tobytes() == build_tail_field(fresh, 200, n_x=64).values.tobytes()
        # a level no higher than some row's lowest memo value: the block is
        # one value wider than the most any column has at or above it
        level = memo[:, 0].min()
        most = int(np.count_nonzero(zeta.values >= level, axis=0).max())
        block = top_block_above(zeta, level)
        want = np.sort(zeta.values, axis=0)[-most - 1:].T
        assert block.shape == (zeta.m, most + 1) and most + 1 > memo.shape[1]
        assert np.ascontiguousarray(block).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    @pytest.mark.parametrize("k", [1, 2, 200, 1499])
    def test_quantile_stat(self, family, k):
        zeta = family_zeta(family)
        per_point = np.linspace(-2.5, 3.0, zeta.m)
        for alpha in (-1.0, 0.37, per_point):
            got = tail_quantile_stat(zeta, k, alpha)
            assert got.tobytes() == reference_quantile_stat(zeta, k, alpha).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 11])
    def test_ties(self, k):
        zeta = tied_zeta()
        x_grid = np.array([0.25, 1.0, 2.0, 3.0, 4.0, 12.0]) * (k / 12)
        field = build_tail_field(zeta, k, x_grid=x_grid)
        for j in range(zeta.m):
            want = reference_tail_empirical_process(zeta, j, x_grid, k)
            assert field.values[j].tobytes() == want.tobytes()
            x = x_grid * 12 / k
            got = _exceedance_counts(zeta, x)[j] / zeta.n
            assert got.tobytes() == reference_exceedance_fraction(zeta, j, x).tobytes()
        got = tail_quantile_stat(zeta, k, [2.0, -1.0, 0.5])
        assert got.tobytes() == reference_quantile_stat(zeta, k, [2.0, -1.0, 0.5]).tobytes()

    @pytest.mark.parametrize("family", ["moving-max", "pareto-gbm"])
    @pytest.mark.parametrize("k", [1, 2, 200, 1999])
    def test_tailcov_payload(self, family, k):
        cfg = ExperimentConfig(
            kind="tailcov", family=family, n=2000, k=k, reps=2, seed=9,
            pairs=((0.0, 0.5), (0.25, 0.75)),
        )
        grid = harness.grid_for(cfg)
        seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        payload, flagged = harness._tailcov_replicate(cfg, grid, None, seed)
        sample = harness._simulate(cfg, grid, cfg.n, seed, harness._tail_floor(cfg.n, k))
        zeta = pareto_transform(sample, marginal_model_for(sample))
        want = np.array([
            reference_tail_empirical_process(zeta, j, 1.0, k) for j in range(grid.m)
        ])
        assert payload["w_at_one"].tobytes() == want.tobytes()
        assert not flagged


# the sup over (t, x) of w_n against its limit law: 6 times and 8
# geometric levels in [0.5, 4], n 5000, k 200, 1,000 replications of w_n
# against 20,000 draws of the law
SUP_N, SUP_K, SUP_REPS, SUP_DRAWS = 5000, 200, 1000, 20_000
SUP_GRID = make_grid(m=6)
SUP_LEVELS = np.geomspace(0.5, 4.0, 8)


def tail_field_replications(family, seed):
    """SUP_REPS fields of w_n on SUP_GRID x SUP_LEVELS, (SUP_REPS, 6, 8),
    replication r from the r-th spawn of seed.

    Moving-max paths are simulated at the harness's floor, a quarter of
    n/k, below the lowest level's n/(2k)."""
    out = np.empty((SUP_REPS, SUP_GRID.m, SUP_LEVELS.size))
    for r, seed in enumerate(np.random.SeedSequence(seed).spawn(SUP_REPS)):
        if family == MOVING_MAX:
            sim = SimConfig(n=SUP_N, seed=seed, value_floor=harness._tail_floor(SUP_N, SUP_K))
            sample = simulate_moving_max(KernelSpec(), SUP_GRID, sim)
        else:
            sample = simulate_pareto_gbm(SUP_GRID, SimConfig(n=SUP_N, seed=seed))
        zeta = pareto_transform(sample, marginal_model_for(sample))
        out[r] = build_tail_field(zeta, SUP_K, x_grid=SUP_LEVELS).values
    return out


def bridge_law_draws(family, seed):
    """SUP_DRAWS draws, one row of the 48 cells each, of the Gaussian law
    whose covariance is the oracle's less (k/n)/(x y) for every pair of
    cells.  That term is exact: a count of n indicators, each 1 with
    probability k/(n x), gives w_n a covariance of (n/k) P(both) less
    (k/n)/(x y), as for a bridge."""
    cov = covariance_matrix(MeasureOracle(family), SUP_GRID, SUP_LEVELS)
    inv = np.tile(1.0 / SUP_LEVELS, SUP_GRID.m)
    factor = np.linalg.cholesky(cov - (SUP_K / SUP_N) * np.outer(inv, inv))
    return np.random.default_rng(seed).standard_normal((SUP_DRAWS, inv.size)) @ factor.T


@pytest.fixture(scope="module", params=[MOVING_MAX, PARETO_GBM])
def tail_field_sup(request):
    # one replication set and one law per family serve both tests below
    family = request.param
    return tail_field_replications(family, 2206), bridge_law_draws(family, 2207)


class TestTailFieldSup:
    def test_sup_over_time_and_level_follows_the_limit_law(self, tail_field_sup):
        # two-sample KS at the 1% level of max |w_n| over the 48 cells
        # against max |draw| of the bridge-corrected law
        fields, draws = tail_field_sup
        crit = float(kolmogi(0.01)) * math.sqrt((SUP_REPS + SUP_DRAWS) / (SUP_REPS * SUP_DRAWS))
        sup_field = np.abs(fields).max(axis=(1, 2))
        sup_draw = np.abs(draws).max(axis=1)
        ks = stats.ks_2samp(sup_field, sup_draw).statistic
        assert ks < crit, f"KS {ks:.4f} >= {crit:.4f}"

    def test_cell_variance_is_exact(self, tail_field_sup):
        # Var w_n(t, x) = (1/x)(1 - k/(n x)): the variance of a binomial
        # count with p = k/(n x); each cell within 4 standard errors of
        # its estimate (with 48 cells, a 0.3% chance of a wider gap)
        fields, _ = tail_field_sup
        centred = fields - fields.mean(axis=0)
        var = fields.var(axis=0, ddof=1)
        se = np.sqrt((centred ** 2).var(axis=0) / SUP_REPS)
        want = (1.0 / SUP_LEVELS) * (1.0 - SUP_K / (SUP_N * SUP_LEVELS))
        z = np.abs(var - want) / se
        assert z.max() < 4.0, f"variance gap of {z.max():.2f} standard errors"
