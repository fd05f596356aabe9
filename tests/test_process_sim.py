import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from funcevt import process_sim
from funcevt.path_model import MAX_VALUES, DataError, TimeGrid, make_grid
from funcevt.process_sim import (
    DOUBLE_EXP,
    STUDENT_T,
    KernelSpec,
    SimConfig,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from measure_reference import sup_integral


class TestKernelSpec:
    def test_double_exp_density(self):
        k = KernelSpec("double-exp", rate=2.0)
        assert k.density(0.0) == pytest.approx(1.0)
        assert k.density(1.0) == pytest.approx(math.exp(-2.0))

    def test_student_density_integrates_to_one(self):
        k = KernelSpec("student-t", rate=1.5, df=3.0)
        total, _ = integrate.quad(k.density, -np.inf, np.inf)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_double_exp_integrates_to_one(self):
        k = KernelSpec("double-exp", rate=0.7)
        total, _ = integrate.quad(k.density, -np.inf, np.inf)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_tail_mass_at_half_width(self):
        # the kernel mass P{X > L} beyond the half-width, in closed form
        tol = 1e-4
        L = KernelSpec("double-exp", rate=3.0).half_width(tol)
        assert 0.5 * math.exp(-3.0 * L) <= 0.5 * tol**2 * (1.0 + 1e-9)
        L = KernelSpec("student-t", df=2.5).half_width(tol)
        assert special.stdtr(2.5, -L) <= 0.5 * tol**2 * (1.0 + 1e-9)

    @pytest.mark.parametrize("df", [1.0, 2.5, 3.0, 30.0])
    def test_student_tails_equal_scipy_stats(self, df):
        # scipy.stats.t is the reference for the scipy.special form
        k = KernelSpec("student-t", rate=2.0, df=df)
        for tol in (0.5, 1e-3, 1e-6):
            assert k.half_width(tol) == float(stats.t.isf(0.5 * tol**2, df)) / 2.0

    @pytest.mark.parametrize(
        "kernel",
        [KernelSpec("double-exp", rate=2.5), KernelSpec("student-t", rate=1.5, df=2.5)],
        ids=["double-exp", "student-t"],
    )
    def test_density_in_place_is_the_closed_form_bitwise(self, kernel):
        # the closed forms as plain expressions, the floats the in-place
        # ufunc chain and the moving-max samples must keep
        u = np.concatenate([[0.0, -0.0, 1e-300, -5e-324], np.linspace(-40.0, 40.0, 4001)])
        r = kernel.rate
        if kernel.shape == DOUBLE_EXP:
            want = 0.5 * r * np.exp(-r * np.abs(u))
        else:
            d = kernel.df
            logc = special.gammaln(0.5 * (d + 1.0)) - special.gammaln(0.5 * d) - 0.5 * math.log(d * math.pi)
            want = r * np.exp(logc - 0.5 * (d + 1.0) * np.log1p((r * u) * (r * u) / d))
        assert kernel.density(u).tobytes() == want.tobytes()
        out = np.full_like(u, np.nan)
        assert kernel.density(u, out=out) is out
        assert out.tobytes() == want.tobytes()
        block = u.copy()
        kernel.density(block, out=block)
        assert block.tobytes() == want.tobytes()
        assert kernel.density(2.0) == want[np.flatnonzero(u == 2.0)[0]]

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            KernelSpec("box")

    def test_bad_rate_rejected(self):
        with pytest.raises(DataError):
            KernelSpec("double-exp", rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(DataError):
            KernelSpec("double-exp", rate=rate)

    @pytest.mark.parametrize("df", [0.0, math.inf, math.nan])
    def test_bad_df_rejected(self, df):
        with pytest.raises(DataError):
            KernelSpec("student-t", df=df)

    def test_oscillation_constant_dominates_ratio_bound(self):
        k = KernelSpec("double-exp", rate=1.0)
        K = k.oscillation_constant(0.1)
        for delta in (0.1, 0.05, 1e-3):
            assert math.expm1(k.log_lipschitz * delta) <= K * math.log(1 / delta) ** -3


class TestMovingMax:
    # a path from a forced point set {(x_j, y_j)} is max_j f(t + x_j) / y_j

    def test_forced_single_point(self):
        g = make_grid(points=[0.0, 0.5, 1.0])
        k = KernelSpec("double-exp", rate=1.0)
        vals = k.density(g.points + 0.0) / 1.0
        np.testing.assert_allclose(vals, 0.5 * np.exp(-g.points), rtol=1e-14)

    def test_forced_two_points_take_max(self):
        g = make_grid(points=[0.0, 1.0])
        k = KernelSpec("double-exp", rate=1.0)
        vals = np.maximum(k.density(g.points + 0.0) / 1.0, k.density(g.points - 1.0) / 0.25)
        # second point contributes f(t-1)/0.25 = 2 exp(-|t-1|)
        np.testing.assert_allclose(vals, [2.0 * math.exp(-1.0), 2.0], rtol=1e-14)

    def test_deterministic_given_seed(self):
        g = make_grid(m=5)
        k = KernelSpec()
        a = simulate_moving_max(k, g, SimConfig(n=40, seed=11))
        b = simulate_moving_max(k, g, SimConfig(n=40, seed=11))
        c = simulate_moving_max(k, g, SimConfig(n=40, seed=12))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_marginal_is_frechet(self):
        g = make_grid(points=[0.0, 0.3, 1.0])
        sample = simulate_moving_max(KernelSpec(), g, SimConfig(n=10_000, seed=2))
        for j in range(3):
            d = stats.kstest(sample.values[:, j], lambda x: np.exp(-1.0 / x))
            assert d.statistic < 0.02

    def test_marginal_free_of_kernel_choice(self):
        # heavy-tailed kernel needs a wide Poisson window, so relax the
        # truncation budget and raise the floor to keep the point count down
        g = make_grid(m=1)
        sample = simulate_moving_max(
            KernelSpec("student-t", rate=2.0, df=6.0),
            g,
            SimConfig(n=8000, seed=3, trunc_tol=1e-3, value_floor=0.1),
        )
        d = stats.kstest(sample.values[:, 0], lambda x: np.exp(-1.0 / x))
        assert d.statistic < 0.02

    def test_hill_estimate_near_one(self):
        # Frechet marginals have tail index 1
        sample = simulate_moving_max(
            KernelSpec(), make_grid(m=1), SimConfig(n=10_000, seed=4)
        )
        top = np.sort(sample.values[:, 0])[-101:]
        hill = np.mean(np.log(top[1:]) - math.log(top[0]))
        assert abs(hill - 1.0) < 0.3

    def test_pathwise_oscillation_ratio_bound(self):
        # log f is Lipschitz, so neighbouring values move by at most
        # exp(c delta) - 1 relative, clamping included
        g = make_grid(m=21)
        k = KernelSpec("double-exp", rate=1.0)
        sample = simulate_moving_max(k, g, SimConfig(n=200, seed=5))
        v = sample.values
        ratio = np.abs(np.diff(v, axis=1)) / v[:, :-1]
        assert ratio.max() <= math.expm1(k.log_lipschitz * 0.05) + 1e-12

    def test_value_floor_is_lower_bound(self):
        g = make_grid(m=3)
        sample = simulate_moving_max(
            KernelSpec(), g, SimConfig(n=100, seed=6, value_floor=2.0)
        )
        assert sample.values.min() >= 2.0

    def test_config_validation(self):
        with pytest.raises(DataError):
            SimConfig(n=0)
        with pytest.raises(DataError):
            SimConfig(n=5, trunc_tol=2.0)
        with pytest.raises(DataError):
            SimConfig(n=5, value_floor=-1.0)

    def test_simulation_errors_are_data_errors(self):
        # bad input of any kind is a DataError, as the CLI and the harness catch
        with pytest.raises(DataError, match="^n must be >= 1$"):
            SimConfig(n=0)
        with pytest.raises(DataError, match="^kernel rate must be positive and finite$"):
            KernelSpec(rate=0.0)

    @pytest.mark.parametrize(
        "seed",
        [
            np.random.default_rng(1),
            np.random.PCG64(1),
            np.random.Philox(1),
            np.random.Generator(np.random.MT19937(1)),
        ],
        ids=["generator", "pcg64", "philox", "mt19937-generator"],
    )
    def test_generator_seeds_are_refused(self, seed):
        # the moving-max ys are drawn by moving a fresh PCG64 past the xs
        # and back; a caller's generator would also make the sample depend
        # on its state
        with pytest.raises(DataError, match="not a generator"):
            SimConfig(n=5, seed=seed)
        for ok in (3, np.int64(3), [3, 1], np.random.SeedSequence(3)):
            SimConfig(n=5, seed=ok)

    @pytest.mark.parametrize("seed", [-1, 1.5, "abc", [3, -1], [1.5]])
    def test_seeds_numpy_refuses_are_refused_when_built(self, seed):
        # not at the first draw, as numpy's ValueError or TypeError
        with pytest.raises(DataError, match="^seed must be a non-negative integer"):
            SimConfig(n=5, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("trunc_tol", "abc"), ("trunc_tol", None), ("trunc_tol", "0.5"), ("trunc_tol", True),
        ("trunc_tol", [1]), ("trunc_tol", math.nan), ("trunc_tol", 1j),
        ("value_floor", [1]), ("value_floor", True), ("value_floor", "2"),
        ("value_floor", math.inf), ("value_floor", -math.inf),
    ])
    def test_tolerance_and_floor_must_be_finite_reals(self, field, value):
        # not float(value): it parses strings, takes bools and raises
        # ValueError or TypeError for the rest
        with pytest.raises(DataError, match=f"^{field} must be a finite real number, got "):
            SimConfig(n=5, **{field: value})

    def test_tolerance_and_floor_keep_numpy_reals_and_their_ranges(self):
        cfg = SimConfig(n=5, trunc_tol=np.float32(1e-3), value_floor=np.int64(2))
        assert (cfg.trunc_tol, cfg.value_floor) == (np.float32(1e-3), 2)
        with pytest.raises(DataError, match=r"^trunc_tol must be in \(0, 1\)$"):
            SimConfig(n=5, trunc_tol=1)
        with pytest.raises(DataError, match="^value_floor must be positive$"):
            SimConfig(n=5, value_floor=0)

    def test_sizes_beyond_numpy_are_refused_before_a_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a value was drawn")

        assert SimConfig(n=MAX_VALUES).n == MAX_VALUES
        with pytest.raises(DataError, match=f"^n must be at most {MAX_VALUES}, "):
            SimConfig(n=MAX_VALUES + 1)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        cfg = SimConfig(n=MAX_VALUES // 2 + 1, value_floor=1e300)
        for simulate in (simulate_pareto_gbm, partial(simulate_moving_max, KernelSpec())):
            with pytest.raises(DataError, match=rf"^n \* m must be at most {MAX_VALUES}, "):
                simulate(make_grid(m=2), cfg)


def _draws(kernel, grid, cfg):
    """simulate_moving_max's floor and Poisson draws: per-path point counts,
    then the points' x and y, in draw order."""
    n = int(cfg.n)
    L = kernel.half_width(cfg.trunc_tol)
    floor = cfg.value_floor if cfg.value_floor is not None else (
        process_sim._default_floor(n, grid.m, cfg.trunc_tol)
    )
    y_max = kernel.peak_height / float(floor)
    intensity = (2.0 * L + 1.0) * y_max

    rng = np.random.default_rng(cfg.seed)
    counts = rng.poisson(intensity, n)
    total = int(counts.sum())
    xs = rng.uniform(-(L + 1.0), L, total)
    ys = y_max * (1.0 - rng.random(total))
    return floor, counts, xs, ys


def reference_moving_max(kernel, grid, cfg):
    """simulate_moving_max's values and per-path point counts, from every
    drawn point, with the chunks planned one path at a time (the loop the
    vectorised plan replaced, before the point prefilter)."""
    n = int(cfg.n)
    m = grid.m
    floor, counts, xs, ys = _draws(kernel, grid, cfg)

    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    vals = np.full((n, m), float(floor))

    budget = max(1, process_sim._CHUNK_VALUES // max(m, 1))
    i = 0
    while i < n:
        j = i
        pts = 0
        while j < n and (pts == 0 or pts + counts[j] <= budget):
            pts += int(counts[j])
            j += 1
        if pts:
            sl = slice(starts[i], starts[j])
            dens = kernel.density(grid.points[None, :] + xs[sl, None])
            dens /= ys[sl, None]
            nz = np.flatnonzero(counts[i:j])
            loc = (starts[i:j][nz] - starts[i]).astype(np.int64)
            red = np.maximum.reduceat(dens, loc, axis=0)
            vals[i + nz] = np.maximum(red, floor)
        i = j
    return vals, counts


def survivors(kernel, grid, cfg):
    """Per path, the drawn points the simulator's density blocks should
    hold, and the x of each such point in draw order: those whose largest
    value over the whole grid reaches the floor less the prefilter's
    margin, and those with -x within the grid's span, which the prefilter
    keeps unseen."""
    floor, counts, xs, ys = _draws(kernel, grid, cfg)
    peak = (kernel.density(grid.points[None, :] + xs[:, None]) / ys[:, None]).max(axis=1)
    inside = (grid.points[0] <= -xs) & (-xs <= grid.points[-1])
    keep = inside | (peak >= float(floor) * (1.0 - process_sim._PREFILTER_MARGIN))
    return np.bincount(np.repeat(np.arange(cfg.n), counts)[keep], minlength=cfg.n), xs[keep]


# (kernel, m, n, value_floor, seed, density values per time block or None);
# the blocks are small because only ~5% of the points survive the prefilter
CHUNK_CASES = {
    "tailcov-size": ("double-exp", 4, 5000, 6.25, 11, None),
    "default-floor-m51": ("double-exp", 51, 500, None, 12, 51 * 4000),
    "student-t-raised-floor": ("student-t", 21, 800, 20.0, 13, 21 * 20),
    "mostly-empty-paths": ("double-exp", 4, 3000, 60.0, 14, None),
    "points-over-budget": ("double-exp", 4, 400, 0.5, 15, 4 * 6),
}


class TestMovingMaxChunks:
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_bitwise_equal_to_per_path_plan(self, case, monkeypatch):
        shape, m, n, floor, seed, chunk_values = CHUNK_CASES[case]
        if chunk_values is not None:
            monkeypatch.setattr(process_sim, "_CHUNK_VALUES", chunk_values)
        kernel, grid = KernelSpec(shape), make_grid(m=m)
        cfg = SimConfig(n=n, seed=seed, value_floor=floor)
        want, _ = reference_moving_max(kernel, grid, cfg)
        kept, _ = survivors(kernel, grid, cfg)
        step = max(1, process_sim._CHUNK_VALUES // kept.sum())  # times per block
        if case in ("default-floor-m51", "student-t-raised-floor"):
            assert -(-m // step) >= 3  # at least three time blocks
        if case == "mostly-empty-paths":
            assert np.mean(kept == 0) > 0.5
        if case == "points-over-budget":
            assert kept.sum() > process_sim._CHUNK_VALUES  # one time per block
        got = simulate_moving_max(kernel, grid, cfg).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("times", [1, 4])
    def test_time_blocks_stay_within_budget(self, times, monkeypatch):
        # at floor 0.25 about six points per path survive the prefilter; a
        # budget of one value fewer than the kept points gives one time per
        # block, one more than four times them gives blocks of four times
        # and a last block of one
        kernel, grid = KernelSpec(), make_grid(m=21)
        cfg = SimConfig(n=1000, seed=16, value_floor=0.25)
        _, xs = survivors(kernel, grid, cfg)
        budget = xs.size - 1 if times == 1 else times * xs.size + 1
        monkeypatch.setattr(process_sim, "_CHUNK_VALUES", budget)
        blocks = []
        density = KernelSpec.density

        def recording(self, u, out=None):
            if np.ndim(u) == 2:
                blocks.append(np.array(u))
            return density(self, u, out=out)

        monkeypatch.setattr(KernelSpec, "density", recording)
        simulate_moving_max(kernel, grid, cfg)
        assert [b.shape[0] for b in blocks] == [times] * (20 // times) + [1]
        assert all(b.size <= max(budget, xs.size) for b in blocks)
        # every grid time once, in order, against every kept point
        want = grid.points[:, None] + xs
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from((DOUBLE_EXP, STUDENT_T)),
        rate=st.floats(0.5, 4.0),
        m=st.integers(1, 51),
        n=st.integers(1, 40),
        floor=st.floats(0.2, 80.0),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 40),
    )
    def test_bitwise_equal_to_reference_property(self, shape, rate, m, n, floor, seed, budget):
        # trunc_tol 1e-3 keeps the student-t window, and so the draw, small
        kernel, grid = KernelSpec(shape, rate), make_grid(m=m)
        cfg = SimConfig(n=n, seed=seed, trunc_tol=1e-3, value_floor=floor)
        with mock.patch.object(process_sim, "_CHUNK_VALUES", budget * m):
            got = simulate_moving_max(kernel, grid, cfg).values
        want, _ = reference_moving_max(kernel, grid, cfg)
        assert got.tobytes() == want.tobytes()

    def test_memory_peak_at_cli_default_floor(self):
        # ~1.4M points at m = 51: one unchunked density block would need
        # ~0.57 GB per temporary; chunks cap each temporary at 32 MB
        kernel, grid = KernelSpec(), make_grid(m=51)
        tracemalloc.start()
        try:
            simulate_moving_max(kernel, grid, SimConfig(n=2000, seed=17))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 150e6


# (kernel, m, n, value_floor, seed); draws of about 2,600 to 2,900 points
POINT_BLOCK_CASES = {
    "double-exp-tailcov-floor": (DOUBLE_EXP, 4, 600, 6.25, 21),
    "double-exp-default-floor": (DOUBLE_EXP, 11, 5, None, 22),
    "student-t-raised-floor": (STUDENT_T, 21, 60, 2.0, 23),
}


class TestMovingMaxPointBlocks:
    """The points are drawn and prefiltered in blocks of `_CHUNK_VALUES`
    points, the ys after moving the generator past the rest of the xs, and
    every float stays the one the whole draw gives."""

    @pytest.mark.parametrize("block", [1, 3, 1000, None])  # None: one block
    @pytest.mark.parametrize("case", sorted(POINT_BLOCK_CASES))
    def test_bitwise_equal_to_the_whole_draw(self, case, block, monkeypatch):
        shape, m, n, floor, seed = POINT_BLOCK_CASES[case]
        kernel, grid = KernelSpec(shape), make_grid(m=m)
        trunc_tol = 1e-3 if shape == STUDENT_T else 1e-6
        # an int seed and two children of its SeedSequence, as the harness spawns
        for child in (seed, *np.random.SeedSequence(seed).spawn(2)):
            cfg = SimConfig(n=n, seed=child, trunc_tol=trunc_tol, value_floor=floor)
            total = int(_draws(kernel, grid, cfg)[1].sum())
            assert 1000 < total < 10_000
            want, _ = reference_moving_max(kernel, grid, cfg)
            monkeypatch.setattr(process_sim, "_CHUNK_VALUES", block or total)
            got = simulate_moving_max(kernel, grid, cfg).values
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()

    def test_no_kept_point(self):
        # at a floor far above every kernel peak no point is kept, so no
        # path starts and every value is the floor
        cfg = SimConfig(n=3, seed=1, value_floor=1e9)
        sample = simulate_moving_max(KernelSpec(), make_grid(m=4), cfg)
        assert np.all(sample.values == 1e9)

    def test_memory_peak_grows_with_kept_points_not_drawn_ones(self):
        # n 6000 x m 11 at the default floor draws ~4.3M points, more than
        # two blocks; a whole-set draw held ~40 bytes per point, 172 MB
        kernel, grid = KernelSpec(), make_grid(m=11)
        tracemalloc.start()
        try:
            simulate_moving_max(kernel, grid, SimConfig(n=6000, seed=34))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6


# student-t moving-max draws at the CLI's default floor and tolerance (L is
# 13,016) that expect more than 2**26 Poisson points
HUGE_DRAWS = {"n2000-m51": (2000, 51, "4.85e+08"), "n500-m11": (500, 11, "1.07e+08")}


@pytest.mark.parametrize("case", HUGE_DRAWS)
def test_huge_draw_is_refused_before_drawing(case, monkeypatch):
    n, m, expected = HUGE_DRAWS[case]

    def no_draws(seed):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(DataError) as err:
        simulate_moving_max(KernelSpec(STUDENT_T), make_grid(m=m), SimConfig(n=n))
    msg = str(err.value)
    assert f"expects {expected} Poisson points, more than 2**26" in msg
    assert "truncation tolerance 1e-06" in msg
    floor = process_sim._default_floor(n, m, 1e-6)
    assert f"value floor {floor:.6g}" in msg


def test_harness_sized_double_exp_draw_stays_under_the_budget():
    # at the harness's lowest floor, 1, a double-exp draw expects (2L + 1)/2
    # points per path, below 29
    grid = make_grid(m=3)
    L = KernelSpec().half_width(SimConfig(n=1).trunc_tol)
    assert (2.0 * L + 1.0) * KernelSpec().peak_height < 29.0
    n = 2 ** 26 // 29
    with mock.patch.object(np.random, "default_rng", side_effect=RuntimeError("drawn")):
        with pytest.raises(RuntimeError, match="drawn"):
            simulate_moving_max(KernelSpec(), grid, SimConfig(n=n, value_floor=1.0))


def reference_pareto_gbm(grid, cfg):
    """simulate_pareto_gbm's values from a row-major (n, m) array and one
    cumsum along each path (the code the in-place column-major update
    replaced)."""
    n = int(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    y = 1.0 / (1.0 - rng.random(n))
    z = rng.standard_normal((n, grid.m))
    dt = np.diff(grid.points, prepend=0.0)
    w = np.cumsum(z * np.sqrt(dt), axis=1)
    b = np.exp(w - 0.5 * grid.points)
    return y[:, None] * b


# grids for the bitwise check: uniform sizes, and uneven grids from 0 and from
# above 0 (a first increment over [0, t_0])
GBM_GRIDS = {
    "m1": dict(m=1),
    "m2": dict(m=2),
    "m4": dict(m=4),
    "m101": dict(m=101),
    "uneven-from-0": dict(points=[0.0, 1e-6, 0.013, 0.5, 0.51, 0.97, 1.0]),
    "uneven-from-0.02": dict(points=[0.02, 0.3, 0.31, 0.8]),
}


class TestParetoGbm:
    # tobytes() reads in row-major order whatever the memory layout, so
    # equal bytes mean equal values, bit for bit, at every (path, time)
    @pytest.mark.parametrize("grid", sorted(GBM_GRIDS))
    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_bitwise_equal_to_row_major_cumsum(self, grid, seed):
        grid, cfg = make_grid(**GBM_GRIDS[grid]), SimConfig(n=3000, seed=seed)
        got = simulate_pareto_gbm(grid, cfg).values
        assert got.tobytes() == reference_pareto_gbm(grid, cfg).tobytes()

    def test_time_zero_is_pure_pareto(self):
        g = make_grid(points=[0.0, 0.5])
        sample = simulate_pareto_gbm(g, SimConfig(n=5000, seed=7))
        y = sample.values[:, 0]
        assert y.min() >= 1.0
        d = stats.kstest(y, lambda x: 1.0 - 1.0 / x)
        assert d.statistic < 0.025

    def test_profile_has_unit_mean(self):
        g = make_grid(points=[0.0, 1.0])
        sample = simulate_pareto_gbm(g, SimConfig(n=100_000, seed=8))
        b = sample.values[:, 1] / sample.values[:, 0]
        se = b.std(ddof=1) / math.sqrt(b.size)
        assert abs(b.mean() - 1.0) < 3.0 * se

    def test_profile_sup_is_moderate(self):
        g = make_grid(m=11)
        sample = simulate_pareto_gbm(g, SimConfig(n=20_000, seed=9))
        b = sample.values / sample.values[:, :1]
        assert 1.0 < b.max(axis=1).mean() < 3.0

    def test_log_increments_independent(self):
        g = make_grid(m=5)
        sample = simulate_pareto_gbm(g, SimConfig(n=20_000, seed=10))
        inc = np.diff(np.log(sample.values), axis=1)
        corr = np.corrcoef(inc, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.025

    def test_deterministic_given_seed(self):
        g = make_grid(m=3)
        a = simulate_pareto_gbm(g, SimConfig(n=50, seed=1))
        b = simulate_pareto_gbm(g, SimConfig(n=50, seed=1))
        np.testing.assert_array_equal(a.values, b.values)


# Max-stability: P{max_i xi_i(t_j) <= n x_j for all j} against its limit
# exp(-integral of max_j f(t_j + u)/x_j du) for the moving-max family and
# exp(-E max_j B(t_j)/x_j) for the pareto-gbm family, with E by a seeded
# Monte Carlo of 400,000 profiles.  Replicate r is seeded by the r-th
# child of SeedSequence(seed), and the standard error of the hit share p
# is sqrt(max(p (1 - p), 1/reps) / reps).


class TestEmpiricalMaxCheck:
    def test_moving_max_single_time_levels(self):
        # Frechet marginals are max-stable, so the empirical probability
        # is unbiased at every n: P{max <= n x} = exp(-1/x) exactly
        grid, n, reps = TimeGrid(np.array([0.5])), 50, 500
        for x, seed in ((2.0, 1), (1.0, 2)):
            levels = np.array([x])
            limit = math.exp(-sup_integral(KernelSpec(), grid.points, levels, tol=1e-10))
            assert limit == pytest.approx(math.exp(-1.0 / x), rel=1e-9)
            # a floor of n x / 50 (at least 1) never reaches the level n x
            cfg = dict(n=n, value_floor=max(1.0, n * x / 50.0))
            hits = sum(
                np.all(simulate_moving_max(KernelSpec(), grid, SimConfig(seed=child, **cfg))
                       .values.max(axis=0) <= n * levels)
                for child in np.random.SeedSequence(seed).spawn(reps)
            )
            emp = hits / reps
            se = math.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps)
            assert abs(emp - limit) < 4.0 * se + 0.01

    def test_gbm_two_times(self):
        # E max(B(0), B(1)) = 2 Phi(1/2), so the limit is exp(-2 Phi(1/2))
        grid, levels, n, reps = TimeGrid(np.array([0.0, 1.0])), np.array([1.0, 1.0]), 2000, 400
        z = np.random.default_rng([3, 1]).standard_normal((400_000, grid.m))
        w = np.cumsum(z * np.sqrt(np.diff(grid.points, prepend=0.0)), axis=1)
        b = np.exp(w - 0.5 * grid.points)
        limit = math.exp(-float(np.mean((b / levels).max(axis=1))))
        assert limit == pytest.approx(math.exp(-2.0 * stats.norm.cdf(0.5)), abs=5e-3)
        hits = sum(
            np.all(simulate_pareto_gbm(grid, SimConfig(n=n, seed=child)).values.max(axis=0)
                   <= n * levels)
            for child in np.random.SeedSequence(3).spawn(reps)
        )
        emp = hits / reps
        se = math.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps)
        assert abs(emp - limit) < 4.0 * se + 0.01
