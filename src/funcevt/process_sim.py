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
come from one numpy Generator seeded by the config, and no value depends
on the size of the moving-max point or time blocks.
Replication-level parallelism is the harness's job; per-replication
streams there are split from the master seed with numpy's SeedSequence
spawning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from funcevt.path_model import MOVING_MAX, PARETO_GBM, DataError, PathSample, check_int

DOUBLE_EXP = "double-exp"
STUDENT_T = "student-t"


# Poisson points drawn and prefiltered per block in `simulate_moving_max`,
# and density values per block of grid times (16 MB of float64), or the
# kept points of one time when they are more
_CHUNK_VALUES = 2_000_000

# most Poisson points `simulate_moving_max` expects to draw; a larger draw
# is refused before it starts.  Memory is bounded by the point blocks, so
# this bounds the time spent drawing and filtering
_MAX_POINTS = 1 << 26

# relative margin below the floor within which `simulate_moving_max`
# keeps a point whose peak value on the grid would drop it
_PREFILTER_MARGIN = 1e-12


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
            raise DataError(f"unknown kernel shape {self.shape!r}")
        if not 0.0 < self.rate < math.inf:
            raise DataError("kernel rate must be positive and finite")
        if self.shape == STUDENT_T and not 0.0 < self.df < math.inf:
            raise DataError("kernel df must be positive and finite")

    def density(self, u, out=None):
        """f(u) = scale exp(h(u)), one ufunc at a time in out when it is
        given (out may be u): h(u) = -rate |u|, or, for the student-t
        kernel, logc - (d + 1)/2 log1p((rate u)^2 / d)."""
        u = np.asarray(u, dtype=float)
        f = np.empty_like(u) if out is None else out
        if self.shape == DOUBLE_EXP:
            scale = 0.5 * self.rate
            np.abs(u, out=f)
            np.multiply(f, -self.rate, out=f)
        else:
            scale = self.rate
            d = self.df
            logc = (
                special.gammaln(0.5 * (d + 1.0))
                - special.gammaln(0.5 * d)
                - 0.5 * math.log(d * math.pi)
            )
            np.multiply(u, self.rate, out=f)
            np.multiply(f, f, out=f)
            np.divide(f, d, out=f)
            np.log1p(f, out=f)
            np.multiply(f, 0.5 * (d + 1.0), out=f)
            np.subtract(logc, f, out=f)
        np.exp(f, out=f)
        np.multiply(f, scale, out=f)
        return f

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
            raise DataError("trunc_tol must be in (0, 1)")
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
            raise DataError("delta0 must be in (0, 1)")
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
    seed : a non-negative int, a sequence of them or a SeedSequence,
        checked here, not at the first draw.  A Generator or BitGenerator
        is refused: the sample would depend on its state, and the
        moving-max draw steps its own PCG64 back and forth.

    `funcevt simulate` takes both defaults; the experiment harness sets
    value_floor from each kind's sizes and flags ties at it.
    """

    n: int
    seed: object = 0
    trunc_tol: float = 1e-6
    value_floor: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_int(self.n, "n"))
        if self.n < 1:
            raise DataError("n must be >= 1")
        if isinstance(self.seed, (np.random.Generator, np.random.BitGenerator)):
            raise DataError("seed must be an int or a SeedSequence, not a generator")
        if not isinstance(self.seed, np.random.SeedSequence):
            try:
                np.random.SeedSequence(self.seed)
            except (TypeError, ValueError):
                raise DataError("seed must be a non-negative integer, a sequence of them "
                                f"or a SeedSequence, got {self.seed!r}") from None
        if not 0.0 < float(self.trunc_tol) < 1.0:
            raise DataError("trunc_tol must be in (0, 1)")
        if self.value_floor is not None and not float(self.value_floor) > 0.0:
            raise DataError("value_floor must be positive")


def _default_floor(n, m, trunc_tol):
    # P{xi(t) <= v} = exp(-1/v); a union bound over n*m grid values
    # keeps every value above the floor with probability >= 1 - trunc_tol
    return 1.0 / math.log(max(float(n) * float(m) / float(trunc_tol), 8.0))


def _kept_points(kernel, grid, rng, total, L, y_max, floor):
    """x, y and draw index of the total moving-max points that pass the
    prefilter of `simulate_moving_max`, drawn in blocks of at most
    `_CHUNK_VALUES`.  The xs come from rng in order and the ys follow them
    in its stream, so each block's ys are drawn after moving rng's PCG64
    past the rest of the xs, and it moves back for the next block's xs:
    each double is one 64-bit output, and the state steps mod 2**128."""
    bits = rng.bit_generator
    size = max(1, min(total, _CHUNK_VALUES))
    near_buf, y_buf = np.empty(size), np.empty(size)
    threshold = float(floor) * (1.0 - _PREFILTER_MARGIN)
    kept = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))]
    for start in range(0, total, size):
        x = rng.uniform(-(L + 1.0), L, min(size, total - start))
        near, y = near_buf[: x.size], y_buf[: x.size]
        # distance from -x to the grid's span, |t + x| at the nearer end
        # point as rounded in the grid's density call (rounding keeps the
        # sign of t + x, and -t_end - x is -(t_end + x) up to the sign of a
        # zero, which f ignores), or 0 inside the span; y holds -t_end - x
        # until the ys are drawn into it
        np.add(x, grid.points[0], out=near)
        np.subtract(-grid.points[-1], x, out=y)
        np.maximum(near, y, out=near)
        np.maximum(near, 0.0, out=near)
        bits.advance(total - x.size)
        rng.random(out=y)
        bits.advance((1 << 128) - total)
        np.subtract(1.0, y, out=y)
        np.multiply(y, y_max, out=y)  # uniform on (0, y_max]
        kernel.density(near, out=near)
        np.divide(near, y, out=near)
        keep = np.flatnonzero(near >= threshold)
        kept.append((x.take(keep), y.take(keep), keep + start))
    return tuple(map(np.concatenate, zip(*kept)))


def simulate_moving_max(kernel, grid, cfg) -> PathSample:
    """Simulate n independent moving-max paths on the grid.

    The Poisson point set is restricted to X in [-(L+1), L] (so the
    kernel argument t + X covers [-L, L] for every t in [0, 1]) and to
    Y in (0, y_max] with y_max = f_max / floor.  Retained points
    reproduce every path value above the floor exactly; values that
    would fall below are reported as the floor.  A draw that expects more
    than 2**26 points, (2L + 1) y_max n, raises DataError before
    any of them is drawn.

    Only points that can reach the floor are evaluated on the grid.  The
    kernel is unimodal at 0, so the largest value of f(t + x)/y over the
    grid is at the grid point nearest -x: an end point of the grid when
    -x lies outside its span.  A point whose value there is below the
    floor, less a relative margin of 1e-12 for the last bits of the
    density, is dropped; points with -x inside the span are kept.  A
    path value is the floor or a max over its points, and a max is exact,
    so the sample is the same floats as evaluating every point.  The
    draws and their order do not change.

    The points are drawn and prefiltered in blocks of at most
    `_CHUNK_VALUES` (`_kept_points`), so memory grows with the kept
    points, not the drawn ones.  The kept points are evaluated one block
    of consecutive grid times at a time, with as many times per block as
    fit in `_CHUNK_VALUES` density values, and at least one; each path's
    max is taken along its contiguous run of kept points in every row.
    """
    n = cfg.n
    m = grid.m
    L = kernel.half_width(cfg.trunc_tol)
    floor = cfg.value_floor if cfg.value_floor is not None else _default_floor(
        n, m, cfg.trunc_tol
    )
    y_max = kernel.peak_height / float(floor)
    intensity = (2.0 * L + 1.0) * y_max
    if intensity * n > _MAX_POINTS:
        raise DataError(
            f"moving-max draw expects {intensity * n:.3g} Poisson points, more than "
            f"2**26, at value floor {floor:.6g} and truncation tolerance {cfg.trunc_tol:g}"
        )

    rng = np.random.default_rng(cfg.seed)
    counts = rng.poisson(intensity, n)
    xs, ys, drawn_at = _kept_points(kernel, grid, rng, int(counts.sum()), L, y_max, floor)
    # the path of each kept point, and where each non-empty path starts
    pid = counts.cumsum().searchsorted(drawn_at, side="right")
    starts = np.empty(pid.size, dtype=bool)
    starts[:1] = True  # none if no point is kept
    np.not_equal(pid[1:], pid[:-1], out=starts[1:])
    first = np.flatnonzero(starts)

    vals = np.full((m, n), float(floor))  # one row per time: column-major paths
    step = max(1, _CHUNK_VALUES // max(xs.size, 1))
    for j in range(0, m if xs.size else 0, step):
        dens = kernel.density(grid.points[j : j + step, None] + xs)
        dens /= ys
        red = np.maximum.reduceat(dens, first, axis=1)
        vals[j : j + step, pid[first]] = np.maximum(red, floor)
    vals.flags.writeable = False  # viewed, not copied, by the sample
    return PathSample(grid, vals.T, MOVING_MAX)


def simulate_pareto_gbm(grid, cfg) -> PathSample:
    """Simulate n paths xi(t) = Y exp(W(t) - t/2), Y standard Pareto."""
    n = cfg.n
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
    w.flags.writeable = False  # viewed, not copied, by the sample
    return PathSample(grid, w.T, PARETO_GBM)
