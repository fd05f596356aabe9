"""Simulators for the two example process families.

Moving-maximum Poisson process
    xi(t) = sup_j f(t + X_j) / Y_j over points (X_j, Y_j) of a unit-rate
    Poisson process on R x (0, inf), with a smoothing kernel f of unit
    mass.  Marginals are standard Frechet.  Simulation
    truncates the point set to a window X in [-(L+1), L] and Y in
    (0, y_max]; both cut-offs are derived from the truncation tolerance
    so that every simulated value above a documented floor is exact.
    Both kernels are unimodal at 0, so one density value per point shows
    whether the point can lift any path value above the floor; only the
    points that can are evaluated on the whole grid, one block of grid
    times at a time.

Pareto times geometric Brownian motion
    xi(t) = Y * exp(W(t) - t/2) with Y standard Pareto independent of
    the Wiener process W.  Exact given the grid (no truncation).

Both simulators are deterministic functions of (config, grid): draws
come from a single numpy Generator seeded by the config, in a fixed
order that does not depend on the size of the moving-max time blocks.
Replication-level parallelism is the harness's job; per-replication
streams there are split from the master seed with numpy's SeedSequence
spawning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from funcevt.path_model import MOVING_MAX, PARETO_GBM, PathSample

DOUBLE_EXP = "double-exp"
STUDENT_T = "student-t"


# density values per block of grid times in `simulate_moving_max` (16 MB
# of float64), or the kept points of one time when they are more
_CHUNK_VALUES = 2_000_000

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
        return -float(special.stdtrit(self.df, 0.5 * eps ** 2)) / self.rate

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

    The kept points are evaluated one block of consecutive grid times at
    a time, with as many times per block as fit in `_CHUNK_VALUES`
    density values, and at least one; each path's max is taken along its
    contiguous run of kept points in every row.
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
    pid = np.repeat(np.arange(n), counts)[keep]  # the path of each kept point
    xs, ys = xs[keep], ys[keep]
    first = np.flatnonzero(np.diff(pid, prepend=-1))  # where each non-empty path starts

    vals = np.full((m, n), float(floor))  # one row per time: column-major paths
    step = max(1, _CHUNK_VALUES // max(xs.size, 1))
    for j in range(0, m if xs.size else 0, step):
        dens = kernel.density(grid.points[j : j + step, None] + xs)
        dens /= ys
        red = np.maximum.reduceat(dens, first, axis=1)
        vals[j : j + step, pid[first]] = np.maximum(red, floor)
    return PathSample(grid, vals.T, MOVING_MAX)


def simulate_pareto_gbm(grid, cfg) -> PathSample:
    """Simulate n paths xi(t) = Y exp(W(t) - t/2), Y standard Pareto."""
    n = int(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    y = 1.0 / (1.0 - rng.random(n))
    z = rng.standard_normal((n, grid.m))
    dt = np.diff(grid.points, prepend=0.0)
    # one (m, n) array, one row per time, worked on in place: the increments
    # sqrt(dt) Z, then W(t_j) = W(t_{j-1}) + increment j, the sums that a
    # cumsum along each path adds in the same order
    w = np.multiply(z.T, np.sqrt(dt)[:, None], order="C")
    del z
    for j in range(1, grid.m):
        w[j] += w[j - 1]
    w -= 0.5 * grid.points[:, None]
    np.exp(w, out=w)
    w *= y
    return PathSample(grid, w.T, PARETO_GBM)
