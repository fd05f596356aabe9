import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from funcevt import process_sim
from funcevt.path_model import make_grid
from funcevt.process_sim import (
    DOUBLE_EXP,
    STUDENT_T,
    KernelSpec,
    SimConfig,
    SimulationError,
    empirical_max_check,
    moving_max_from_points,
    simulate_moving_max,
    simulate_pareto_gbm,
)


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
        for k in (KernelSpec("double-exp", rate=3.0), KernelSpec("student-t", df=2.5)):
            tol = 1e-4
            assert k.tail_mass(k.half_width(tol)) <= 0.5 * tol**2 * (1.0 + 1e-9)

    def test_bad_shape_rejected(self):
        with pytest.raises(SimulationError):
            KernelSpec("box")

    def test_bad_rate_rejected(self):
        with pytest.raises(SimulationError):
            KernelSpec("double-exp", rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(SimulationError):
            KernelSpec("double-exp", rate=rate)

    @pytest.mark.parametrize("df", [0.0, math.inf, math.nan])
    def test_bad_df_rejected(self, df):
        with pytest.raises(SimulationError):
            KernelSpec("student-t", df=df)

    def test_oscillation_constant_dominates_ratio_bound(self):
        k = KernelSpec("double-exp", rate=1.0)
        K = k.oscillation_constant(0.1)
        for delta in (0.1, 0.05, 1e-3):
            assert math.expm1(k.log_lipschitz * delta) <= K * math.log(1 / delta) ** -3


class TestMovingMax:
    def test_forced_single_point(self):
        g = make_grid(points=[0.0, 0.5, 1.0])
        k = KernelSpec("double-exp", rate=1.0)
        vals = moving_max_from_points(k, g, xs=[0.0], ys=[1.0])
        np.testing.assert_allclose(vals, 0.5 * np.exp(-g.points), rtol=1e-14)

    def test_forced_two_points_take_max(self):
        g = make_grid(points=[0.0, 1.0])
        k = KernelSpec("double-exp", rate=1.0)
        vals = moving_max_from_points(k, g, xs=[0.0, -1.0], ys=[1.0, 0.25])
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
        with pytest.raises(SimulationError):
            SimConfig(n=0)
        with pytest.raises(SimulationError):
            SimConfig(n=5, trunc_tol=2.0)
        with pytest.raises(SimulationError):
            SimConfig(n=5, value_floor=-1.0)


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


def survivor_counts(kernel, grid, cfg):
    """Per path, the drawn points the simulator's density blocks should
    hold: those whose largest value over the whole grid reaches the floor
    less the prefilter's margin, and those with -x within the grid's span,
    which the prefilter keeps unseen."""
    floor, counts, xs, ys = _draws(kernel, grid, cfg)
    peak = (kernel.density(grid.points[None, :] + xs[:, None]) / ys[:, None]).max(axis=1)
    inside = (grid.points[0] <= -xs) & (-xs <= grid.points[-1])
    keep = inside | (peak >= float(floor) * (1.0 - process_sim._PREFILTER_MARGIN))
    return np.bincount(np.repeat(np.arange(cfg.n), counts)[keep], minlength=cfg.n)


# (kernel, m, n, value_floor, seed, density values per chunk or None); the
# chunk sizes are small because only ~5% of the points survive the prefilter
CHUNK_CASES = {
    "tailcov-size": ("double-exp", 4, 5000, 6.25, 11, None),
    "default-floor-m51": ("double-exp", 51, 500, None, 12, 51 * 4000),
    "student-t-raised-floor": ("student-t", 21, 800, 20.0, 13, 21 * 20),
    "mostly-empty-paths": ("double-exp", 4, 3000, 60.0, 14, None),
    "paths-over-budget": ("double-exp", 4, 400, 0.5, 15, 4 * 6),
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
        kept = survivor_counts(kernel, grid, cfg)
        budget = max(1, process_sim._CHUNK_VALUES // m)
        if case in ("default-floor-m51", "student-t-raised-floor"):
            assert kept.sum() > 2 * budget  # at least three chunks
        if case == "mostly-empty-paths":
            assert np.mean(kept == 0) > 0.5
        if case == "paths-over-budget":
            assert np.any(kept > budget) and np.any((kept > 0) & (kept <= budget // 2))
        got = simulate_moving_max(kernel, grid, cfg).values
        assert got.tobytes() == want.tobytes()

    def test_chunks_stay_within_budget(self, monkeypatch):
        # a small budget makes paths below, between and above budget/2 and
        # budget; at floor 0.25 about six points per path survive the prefilter
        monkeypatch.setattr(process_sim, "_CHUNK_VALUES", 4 * 9)
        kernel, grid = KernelSpec(), make_grid(m=4)
        cfg = SimConfig(n=3000, seed=16, value_floor=0.25)
        kept = survivor_counts(kernel, grid, cfg)
        budget = 9
        assert np.any(kept > budget)
        rows = []
        density = KernelSpec.density

        def recording(self, u):
            if np.ndim(u) == 2:
                rows.append(np.shape(u)[0])
            return density(self, u)

        monkeypatch.setattr(KernelSpec, "density", recording)
        simulate_moving_max(kernel, grid, cfg)
        assert sum(rows) == kept.sum()
        oversized = sorted(r for r in rows if r > budget)
        assert oversized == sorted(kept[kept > budget])

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


class TestParetoGbm:
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


class TestEmpiricalMaxCheck:
    def test_moving_max_single_time_levels(self):
        # Frechet marginals are max-stable, so the empirical probability
        # is unbiased at every n: P{max <= n x} = exp(-1/x) exactly
        for x, seed in ((2.0, 1), (1.0, 2)):
            rep = empirical_max_check(
                "moving-max", [0.5], [x], n=50, reps=500, seed=seed
            )
            assert rep.limit == pytest.approx(math.exp(-1.0 / x), rel=1e-9)
            assert rep.abs_error < 4.0 * rep.se + 0.01

    def test_gbm_two_times(self):
        # E max(B(0), B(1)) = 2 Phi(1/2), so the limit is exp(-2 Phi(1/2))
        rep = empirical_max_check("pareto-gbm", [0.0, 1.0], [1.0, 1.0], n=2000, reps=400, seed=3)
        assert rep.limit == pytest.approx(math.exp(-2.0 * stats.norm.cdf(0.5)), abs=5e-3)
        assert rep.abs_error < 4.0 * rep.se + 0.01

    def test_input_validation(self):
        with pytest.raises(SimulationError):
            empirical_max_check("moving-max", [0.0, 1.0], [1.0], n=10, reps=2)
        with pytest.raises(SimulationError):
            empirical_max_check("moving-max", [0.0], [-1.0], n=10, reps=2)
        with pytest.raises(SimulationError):
            empirical_max_check("weibull", [0.0], [1.0], n=10, reps=2)
