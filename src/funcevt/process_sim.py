"""Simulators for the two example process families.

Moving-maximum Poisson process
    xi(t) = sup_j f(t + X_j) / Y_j over points (X_j, Y_j) of a unit-rate
    Poisson process on R x (0, inf), with a smoothing kernel f that
    integrates to one.  Marginals are standard Frechet.  Simulation
    truncates the point set to a window X in [-(L+1), L] and Y in
    (0, y_max]; both cut-offs are derived from the truncation tolerance
    so that every simulated value above a documented floor is exact.
    Both kernels are unimodal at 0, so one density value per point shows
    whether the point can lift any path value above the floor; only the
    points that can are evaluated on the whole grid.

Pareto times geometric Brownian motion
    xi(t) = Y * exp(W(t) - t/2) with Y standard Pareto independent of
    the Wiener process W.  Exact given the grid (no truncation).

Both simulators are deterministic functions of (config, grid): draws
come from a single numpy Generator seeded by the config, in a fixed
order that does not depend on internal chunking.  Replication-level
parallelism is the harness's job; per-replication streams there are
split from the master seed with numpy's SeedSequence spawning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from funcevt.path_model import MOVING_MAX, PARETO_GBM, PathSample, TimeGrid

DOUBLE_EXP = "double-exp"
STUDENT_T = "student-t"


# draws of the seeded Monte Carlo limit in `empirical_max_check`
_LIMIT_DRAWS = 400_000

# density values per chunk of `simulate_moving_max` (32 MB of float64)
_CHUNK_VALUES = 4_000_000

# relative margin below the floor within which `simulate_moving_max`
# keeps a point whose peak value on the grid would drop it
_PREFILTER_MARGIN = 1e-12


class SimulationError(ValueError):
    """Invalid simulation configuration (bad trunc_tol, kernel, floor, ...)."""


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel of the moving-maximum family.

    shape is "double-exp", f(x) = (rate/2) exp(-rate|x|), or
    "student-t", f(x) = rate * t_df(rate x), both integrating to one.
    """

    shape: str = DOUBLE_EXP
    rate: float = 1.0
    df: float = 3.0

    def __post_init__(self):
        if self.shape not in (DOUBLE_EXP, STUDENT_T):
            raise SimulationError(f"unknown kernel shape {self.shape!r}")
        if not 0.0 < self.rate < math.inf:
            raise SimulationError("kernel rate must be positive and finite")
        if self.shape == STUDENT_T and not 0.0 < self.df < math.inf:
            raise SimulationError("kernel df must be positive and finite")

    def density(self, u):
        u = np.asarray(u, dtype=float)
        if self.shape == DOUBLE_EXP:
            return 0.5 * self.rate * np.exp(-self.rate * np.abs(u))
        d = self.df
        logc = (
            special.gammaln(0.5 * (d + 1.0))
            - special.gammaln(0.5 * d)
            - 0.5 * math.log(d * math.pi)
        )
        x = self.rate * u
        return self.rate * np.exp(logc - 0.5 * (d + 1.0) * np.log1p(x * x / d))

    @property
    def peak_height(self) -> float:
        return float(self.density(0.0))

    def tail_mass(self, L):
        """P{X > L} for the kernel density."""
        if self.shape == DOUBLE_EXP:
            return 0.5 * math.exp(-self.rate * L)
        from scipy.stats import t as student

        return float(student.sf(self.rate * L, self.df))

    def half_width(self, trunc_tol) -> float:
        """Smallest window half-width L meeting the truncation tolerance.

        Points with |X| > L are dropped; dropping them perturbs some
        sup_t xi(t) by more than trunc_tol with probability at most
        trunc_tol once the kernel tail mass beyond L is <= trunc_tol**2 / 2.
        """
        eps = float(trunc_tol)
        if not 0.0 < eps < 1.0:
            raise SimulationError("trunc_tol must be in (0, 1)")
        if self.shape == DOUBLE_EXP:
            exact = math.log(1.0 / eps ** 2) / self.rate
            generous = math.log(2.0 / (self.rate * eps ** 2)) / self.rate
            return max(exact, generous)
        from scipy.stats import t as student

        return float(student.isf(0.5 * eps ** 2, self.df)) / self.rate

    @property
    def log_lipschitz(self) -> float:
        """sup_u |d/du log f(u)|."""
        if self.shape == DOUBLE_EXP:
            return self.rate
        return self.rate * (self.df + 1.0) / (2.0 * math.sqrt(self.df))

    def oscillation_constant(self, delta0) -> float:
        """Constant K with sup_{|t-s|<=delta} |f(t)-f(s)|/f(s) <= K (log 1/delta)^-3
        for every delta in (0, delta0].

        Uses |f(t)-f(s)|/f(s) <= exp(c delta) - 1 with c the Lipschitz
        constant of log f, then maximises (exp(c delta)-1)(log 1/delta)^3
        over the range.
        """
        delta0 = float(delta0)
        if not 0.0 < delta0 < 1.0:
            raise SimulationError("delta0 must be in (0, 1)")
        c = self.log_lipschitz
        deltas = np.exp(np.linspace(math.log(1e-12), math.log(delta0), 4001))
        vals = np.expm1(c * deltas) * np.log(1.0 / deltas) ** 3
        return float(vals.max()) * (1.0 + 1e-9)


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, seed, and truncation controls.

    trunc_tol : probability budget for any truncation effect; it sets
        the half-width of the moving-max Poisson window
        (`KernelSpec.half_width`).
    value_floor : values at or below this floor may be reported as the
        floor itself; defaults to a level that every path exceeds
        everywhere with probability >= 1 - trunc_tol.  Raising it above
        the default is a speed knob for statistics that only read the
        upper tail.
    """

    n: int
    seed: object = 0
    trunc_tol: float = 1e-6
    value_floor: float | None = None

    def __post_init__(self):
        if int(self.n) < 1:
            raise SimulationError("n must be >= 1")
        if not 0.0 < float(self.trunc_tol) < 1.0:
            raise SimulationError("trunc_tol must be in (0, 1)")
        if self.value_floor is not None and not float(self.value_floor) > 0.0:
            raise SimulationError("value_floor must be positive")


def _default_floor(n, m, trunc_tol):
    # P{xi(t) <= v} = exp(-1/v); a union bound over n*m grid values
    # keeps every value above the floor with probability >= 1 - trunc_tol
    return 1.0 / math.log(max(float(n) * float(m) / float(trunc_tol), 8.0))


def moving_max_from_points(kernel, grid, xs, ys):
    """One moving-max path from an explicit point set.

    Returns sup_j f(t + x_j) / y_j on the grid; useful for forced-point
    checks and tiny deterministic examples.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise SimulationError("xs and ys must be equal-length 1-d arrays")
    if np.any(ys <= 0.0):
        raise SimulationError("point heights ys must be positive")
    vals = kernel.density(grid.points[None, :] + xs[:, None]) / ys[:, None]
    return vals.max(axis=0)


def simulate_moving_max(kernel, grid, cfg) -> PathSample:
    """Simulate n independent moving-max paths on the grid.

    The Poisson point set is restricted to X in [-(L+1), L] (so the
    kernel argument t + X covers [-L, L] for every t in [0, 1]) and to
    Y in (0, y_max] with y_max = f_max / floor.  Retained points
    reproduce every path value above the floor exactly; values that
    would fall below are reported as the floor.

    Only points that can reach the floor are evaluated on the grid.  The
    kernel is unimodal at 0, so the largest value of f(t + x)/y over the
    grid is at the grid point nearest -x: an end point of the grid when
    -x lies outside its span.  A point whose value there is below the
    floor, less a relative margin of 1e-12 for the last bits of the
    density, is dropped; points with -x inside the span are kept.  A
    path value is the floor or a max over its points, and a max is exact,
    so the sample is the same floats as evaluating every point.  The
    draws and their order do not change.
    """
    n = int(cfg.n)
    m = grid.m
    L = kernel.half_width(cfg.trunc_tol)
    floor = cfg.value_floor if cfg.value_floor is not None else _default_floor(
        n, m, cfg.trunc_tol
    )
    y_max = kernel.peak_height / float(floor)
    intensity = (2.0 * L + 1.0) * y_max

    rng = np.random.default_rng(cfg.seed)
    counts = rng.poisson(intensity, n)
    xs = rng.uniform(-(L + 1.0), L, int(counts.sum()))
    ys = y_max * (1.0 - rng.random(xs.size))  # uniform on (0, y_max]

    # Prefilter (see the docstring): distance from -x to the grid's span,
    # |t + x| at the nearer end point as rounded in the density call below
    # (rounding keeps the sign of t + x), or 0 inside the span
    near = np.maximum(np.maximum(grid.points[0] + xs, -(grid.points[-1] + xs)), 0.0)
    keep = kernel.density(near) / ys >= float(floor) * (1.0 - _PREFILTER_MARGIN)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    kept = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    starts = kept[offsets]  # the survivors' offsets per path
    counts = np.diff(starts)
    total = int(starts[-1])
    xs, ys = xs[keep], ys[keep]

    vals = np.full((n, m), float(floor))

    # Chunks of consecutive non-empty paths hold at most `budget` points,
    # unless one path alone holds more.  Cutting at every multiple of
    # budget/2 of the point offsets, and around every path of more than
    # budget/2 points, leaves chunks that are one such path or whose path
    # starts span < budget/2 and whose last path holds <= budget/2.
    budget = max(1, _CHUNK_VALUES // max(m, 1))
    nz = np.flatnonzero(counts)
    first = starts[nz]
    big = np.flatnonzero(2 * counts[nz] > budget)
    cuts = np.unique(np.concatenate((
        [0, nz.size], big, big + 1,
        np.searchsorted(2 * first, np.arange(budget, 2 * total, budget)),
    )))
    for a, b in zip(cuts[:-1], cuts[1:]):
        sl = slice(first[a], starts[nz[b - 1] + 1])
        dens = kernel.density(grid.points[None, :] + xs[sl, None])
        dens /= ys[sl, None]
        red = np.maximum.reduceat(dens, first[a:b] - first[a], axis=0)
        vals[nz[a:b]] = np.maximum(red, floor)
    return PathSample(grid, vals, MOVING_MAX)


def simulate_pareto_gbm(grid, cfg) -> PathSample:
    """Simulate n paths xi(t) = Y exp(W(t) - t/2), Y standard Pareto."""
    n = int(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    y = 1.0 / (1.0 - rng.random(n))
    z = rng.standard_normal((n, grid.m))
    dt = np.diff(grid.points, prepend=0.0)
    w = np.cumsum(z * np.sqrt(dt), axis=1)
    b = np.exp(w - 0.5 * grid.points)
    return PathSample(grid, y[:, None] * b, PARETO_GBM)


@dataclass(frozen=True)
class MaxCheckReport:
    """Empirical vs limiting joint law of normalised componentwise maxima."""

    family: str
    times: np.ndarray
    levels: np.ndarray
    n: int
    reps: int
    empirical: float
    limit: float
    se: float

    @property
    def abs_error(self) -> float:
        return abs(self.empirical - self.limit)


def empirical_max_check(
    family,
    times,
    levels,
    n,
    reps,
    seed=0,
    kernel=None,
    trunc_tol=1e-6,
) -> MaxCheckReport:
    """Check P{max_i xi_i(t_j) <= n x_j for all j} against its limit.

    The limit is exp(-integral of max_j f(t_j + u)/x_j du) for the
    moving-max family and exp(-E max_j B(t_j)/x_j) for the pareto-gbm
    family (expectation by a seeded Monte Carlo oracle).
    """
    times = np.asarray(times, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if times.shape != levels.shape or times.ndim != 1 or times.size == 0:
        raise SimulationError("times and levels must be equal-length 1-d arrays")
    if np.any(levels <= 0.0):
        raise SimulationError("levels must be positive")
    grid = TimeGrid(times)
    n = int(n)
    reps = int(reps)

    if family == MOVING_MAX:
        if kernel is None:
            kernel = KernelSpec()
        from funcevt.exponent_measure import sup_integral

        limit = math.exp(-sup_integral(kernel, times, levels, tol=1e-10))
    elif family == PARETO_GBM:
        rng = np.random.default_rng([int(seed), 1])
        z = rng.standard_normal((_LIMIT_DRAWS, grid.m))
        dt = np.diff(grid.points, prepend=0.0)
        w = np.cumsum(z * np.sqrt(dt), axis=1)
        b = np.exp(w - 0.5 * grid.points)
        limit = math.exp(-float(np.mean((b / levels[None, :]).max(axis=1))))
    else:
        raise SimulationError(f"unknown family {family!r}")

    seeds = np.random.SeedSequence(int(seed)).spawn(reps)
    hits = 0
    for r in range(reps):
        if family == MOVING_MAX:
            floor = max(1.0, n * float(levels.min()) / 50.0)
            sample = simulate_moving_max(
                kernel,
                grid,
                SimConfig(n=n, seed=seeds[r], trunc_tol=trunc_tol, value_floor=floor),
            )
        else:
            sample = simulate_pareto_gbm(grid, SimConfig(n=n, seed=seeds[r]))
        colmax = sample.values.max(axis=0)
        hits += int(np.all(colmax <= n * levels))
    emp = hits / reps
    se = math.sqrt(max(emp * (1.0 - emp), 1.0 / reps) / reps)
    return MaxCheckReport(
        family, times, levels, n, reps, float(emp), float(limit), float(se)
    )
