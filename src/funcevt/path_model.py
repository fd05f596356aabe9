"""Time grids, sampled process paths, and marginal distribution models.

A path sample holds n independent realisations of a positive process
observed on a common grid of m time points in [0, 1].  The marginal
model knows the per-time distribution of the process and turns raw
paths into standard-Pareto scale via zeta = 1/(1 - F_t(xi)), which is
what every tail statistic downstream consumes.

Two families are supported:

* ``moving-max``: a moving-maximum Poisson process whose one-dimensional
  marginals are standard Frechet, F_t(x) = exp(-1/x), for any smoothing
  kernel of unit mass.
* ``pareto-gbm``: xi(t) = Y * B(t) with Y standard Pareto and B a
  geometric Brownian motion with unit drift correction, B(t) =
  exp(W(t) - t/2).  The marginal tail is E[min(B(t)/x, 1)]; splitting
  the expectation at B = x gives an exact two-term normal-cdf formula.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Positive floor used when a numerically evaluated tail underflows to 0;
# keeps zeta = 1/tail finite (about 1e292 at the floor).
TAIL_FLOOR = 2.0 ** -970

# An (m, n) per-time job of at least this many values (2 MB of float64) is
# split over threads: numpy's ufuncs, ndtr, sort and partition release the
# GIL, so the rows of different blocks are computed at the same time.
_PAR_VALUES = 1 << 18

MOVING_MAX = "moving-max"
PARETO_GBM = "pareto-gbm"
FAMILIES = (MOVING_MAX, PARETO_GBM)


class DataError(ValueError):
    """Malformed grid, sample, or CSV input."""


def check_k(k, n) -> int:
    """k as an int; DataError unless 1 <= k <= n - 1."""
    k = int(k)
    if not 1 <= k <= n - 1:
        raise DataError(f"k must be in [1, n-1], got k={k}, n={n}")
    return k


def check_levels(x_grid) -> np.ndarray:
    """The level grid as a float array; DataError unless it is 1-D,
    non-empty, finite, positive and strictly increasing."""
    x = np.asarray(x_grid, dtype=float)
    if (x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x))
            or x[0] <= 0.0 or np.any(np.diff(x) <= 0.0)):
        raise DataError(
            "level grid must be 1-D, non-empty, finite, positive and strictly increasing"
        )
    return x


def for_row_blocks(fn, m, n):
    """[fn(lo, hi), ...] over contiguous blocks [lo, hi) of the m rows of an
    (m, n) job, in row order.

    The blocks run on min(os.cpu_count(), m, m n // _PAR_VALUES) threads,
    all joined before this returns; a smaller job, or one in a process-pool
    worker (whose pool already fills the cores), is one plain fn(0, m) call.
    fn must write only rows lo to hi - 1 of arrays its caller allocated, so
    every row's floats are the same for any split, and must not warn: a
    warning raised in a thread would interleave differently from run to run.
    An exception from a block is raised here.
    """
    parts = min(os.cpu_count() or 1, m, m * n // _PAR_VALUES)
    if parts <= 1 or multiprocessing.parent_process() is not None:
        return [fn(0, m)]
    bounds = [m * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [f.result() for f in futures]


def partition_columns(values, k):
    """(neg, check_k(k, n)): the negated columns of values (n x m) as the
    rows of a new C-contiguous array, each partitioned so that its k + 1
    largest values come first, the (k+1)-th largest at index k.
    Contiguous rows partition faster, and negated ones much faster where
    the bottom of a column is one tied value, as the moving-max floor is;
    for column-major values, as samples store them, the negation is one
    straight pass.  Blocks of columns are split by `for_row_blocks`."""
    n, m = values.shape
    k = check_k(k, n)
    neg = np.empty((m, n))

    def block(lo, hi):
        rows = np.negative(values.T[lo:hi], out=neg[lo:hi])
        rows.partition(k, axis=1)

    for_row_blocks(block, m, n)
    return neg, k


def _as_grid_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise DataError("grid needs a non-empty 1-d array of time points")
    if not np.all(np.isfinite(pts)):
        raise DataError("grid points must be finite")
    if pts[0] < 0.0 or pts[-1] > 1.0:
        raise DataError("grid points must lie in [0, 1]")
    if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
        raise DataError("grid points must be strictly increasing")
    return pts


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points in [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_grid_points(self.points))

    @property
    def m(self) -> int:
        return self.points.size

    def __len__(self) -> int:
        return self.points.size

    def index_of(self, t, tol=1e-9):
        """Index of the grid point equal to t (within tol)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) > tol:
            raise DataError(f"t={t} is not a grid point")
        return i


def make_grid(m=None, points=None) -> TimeGrid:
    """Build a time grid.

    Parameters
    ----------
    m : int, optional
        Number of uniform points on [0, 1]; m = 1 gives the single
        point {0}.
    points : array_like, optional
        Explicit grid points; overrides m.
    """
    if points is not None:
        return TimeGrid(np.asarray(points, dtype=float))
    if m is None:
        raise DataError("either m or points is required")
    m = int(m)
    if m < 1:
        raise DataError("m must be >= 1")
    if m == 1:
        return TimeGrid(np.array([0.0]))
    return TimeGrid(np.linspace(0.0, 1.0, m))


def _check_values(values, grid, minimum, what):
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2:
        raise DataError(f"{what} values must be a 2-d array (paths x times)")
    if vals.shape[1] != grid.m:
        raise DataError(
            f"{what} has {vals.shape[1]} columns but the grid has {grid.m} points"
        )
    if not np.all(np.isfinite(vals)):
        raise DataError(f"{what} values must be finite")
    if np.any(vals < minimum) or (minimum == 0.0 and np.any(vals == 0.0)):
        bound = "positive" if minimum == 0.0 else f">= {minimum}"
        raise DataError(f"{what} values must be {bound}")
    # column-major: every per-time kernel reads one contiguous column; this
    # copies only input that arrives row-major, such as a CSV load
    return np.asfortranarray(vals)


def _write_csv(path, grid, values):
    header = ",".join(f"{t:.17g}" for t in grid.points)
    np.savetxt(path, values, delimiter=",", fmt="%.17g", header=header, comments="")


def _read_csv(path):
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a DataError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot parse paths CSV {path!r}: {exc}") from exc
    if raw.shape[0] < 2:
        raise DataError(f"paths CSV {path!r} has no data rows")
    grid = TimeGrid(raw[0])
    return grid, raw[1:]


@dataclass(frozen=True)
class PathSample:
    """n paths of a positive process on a common time grid; values (n x m)
    is stored column-major, so each time's column is contiguous."""

    grid: TimeGrid
    values: np.ndarray
    family: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.values, self.grid, 0.0, "path")
        )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path):
        """Write grid header row plus one row per path, 17 significant digits."""
        _write_csv(path, self.grid, self.values)

    @classmethod
    def from_csv(cls, path, family="synthetic"):
        grid, values = _read_csv(path)
        return cls(grid, values, family)


@dataclass(frozen=True)
class ParetoPaths:
    """Paths standardised to the Pareto scale, zeta = 1/(1 - F_t(xi)) >= 1;
    values is stored column-major, as in `PathSample`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.values, self.grid, 1.0, "pareto")
        )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path):
        _write_csv(path, self.grid, self.values)

    @classmethod
    def from_csv(cls, path):
        grid, values = _read_csv(path)
        return cls(grid, values)


@dataclass
class MarginalModel:
    """Per-time marginal distribution of a process family: standard
    Frechet for "moving-max" (any unit-mass kernel), or "pareto-gbm"."""

    family: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}")

    def tail(self, t, x):
        """Upper tail 1 - F_t(x), vectorised over x.

        Underflowing values are clamped at a 2**-970 floor so the
        Pareto transform stays finite; a RuntimeWarning counts clamps.
        """
        out, clamped = self._floored_tail(t, x)
        if clamped:
            _warn_clamped(clamped)
        return out if out.ndim else float(out)

    def _floored_tail(self, t, x):
        """(tail, clamped): `tail`'s values as an array, and how many of
        them were clamped at the floor, without a warning."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise DataError("tail is defined for x > 0")
        if self.family == MOVING_MAX:
            out = -np.expm1(-1.0 / x)
        else:
            out = self._gbm_tail(float(t), x)
        clamped = int(np.count_nonzero(out < TAIL_FLOOR))
        if clamped:
            out = np.maximum(out, TAIL_FLOOR)
        return out, clamped

    def _gbm_tail(self, t, x):
        # 1 - F_t(x) = E[min(B(t)/x, 1)] with B(t) = exp(sqrt(t) Z - t/2).
        # Split at B = x: P(B >= x) + E[B/x; B < x], each a normal cdf.
        if t < 0.0:
            raise DataError("t must be >= 0")
        if t == 0.0:
            return np.minimum(1.0, 1.0 / x)
        s = np.sqrt(t)
        z = (np.log(x) + 0.5 * t) / s
        return ndtr(-z) + ndtr(z - s) / x


def _warn_clamped(clamped):
    """The RuntimeWarning that counts tail clamps, attributed to the line
    that called the caller."""
    warnings.warn(
        f"clamped {clamped} tail values at the 2**-970 floor",
        RuntimeWarning,
        stacklevel=3,
    )


def marginal_model_for(sample) -> MarginalModel:
    """Marginal model matching a simulated sample's family."""
    if sample.family not in FAMILIES:
        raise DataError(
            f"sample family {sample.family!r} has no built-in marginal model"
        )
    return MarginalModel(sample.family)


def pareto_scale(model, t, x):
    """zeta = 1/(1 - F_t(x)) of the raw values x (an array) at time t, at
    least 1: floating point can land a hair under 1 when F is near 0."""
    return _zeta_from_tail(model.tail(t, x))


def _zeta_from_tail(tail, out=None):
    zeta = np.divide(1.0, tail, out=out)
    return np.maximum(zeta, 1.0, out=zeta)


def pareto_transform(sample, model) -> ParetoPaths:
    """Standardise a path sample to the Pareto scale.

    Applies the `pareto_scale` formula column by column using the marginal
    model, on blocks of columns split by `for_row_blocks`; the tail-clamp warnings
    come after, in column order.  Output values are >= 1.
    """
    n, m = sample.values.shape
    points = sample.grid.points
    out = np.empty((m, n))  # one contiguous row per time

    def block(lo, hi):
        clamps = []
        for j in range(lo, hi):
            tail, clamped = model._floored_tail(points[j], sample.values[:, j])
            _zeta_from_tail(tail, out=out[j])
            clamps.append(clamped)
        return clamps

    for clamps in for_row_blocks(block, m, n):
        for clamped in clamps:
            if clamped:
                _warn_clamped(clamped)
    return ParetoPaths(sample.grid, out.T)
