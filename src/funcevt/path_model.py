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
  That formula needs scipy.special's ndtr, imported on the first
  pareto-gbm tail rather than with this module: it takes about 0.2 s,
  and nothing on the moving-max route uses it.
"""

from __future__ import annotations

import json
import multiprocessing
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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

# the most float64 values one numpy array can hold: its size in bytes
# must fit in numpy's index type
MAX_VALUES = np.iinfo(np.intp).max // 8


class DataError(ValueError):
    """Malformed grid, sample, configuration, CSV or JSON input."""


def check_int(value, what) -> int:
    """value as an int; DataError unless it is an integer (a numpy one too),
    not a bool or a float, which int() would silently truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_size(value, what) -> int:
    """value as an int; DataError unless it is an integer from 1 to
    `MAX_VALUES`.  A larger size would fail in numpy with a ValueError;
    a smaller one that memory cannot hold fails with a MemoryError."""
    value = check_int(value, what)
    if value < 1:
        raise DataError(f"{what} must be >= 1")
    if value > MAX_VALUES:
        raise DataError(f"{what} must be at most {MAX_VALUES}, the most float64 values "
                        f"a numpy array can hold, got {value}")
    return value


def check_k(k, n) -> int:
    """k as an int; DataError unless it is an integer with 1 <= k <= n - 1."""
    k = check_int(k, "k")
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


def write_csv(fh, header, rows):
    """Write the header line, then each row of rows, a 2-d array, as its
    values in "%.17g" joined by commas, one line and one write per row:
    the bytes np.savetxt writes with that fmt, delimiter "," and comments ""."""
    fh.write(header + "\n")
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        fh.write(line % tuple(row.tolist()))


def read_csv(path, what):
    """(header, rows): the first line of the CSV file at path, without its
    newline, and the other lines as a 2-d float array, (0, 1) if there
    are none; DataError naming what if the file cannot be read or parsed."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            header = fh.readline().rstrip("\n")
            # no rows is for the caller to judge
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return header, np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot parse {what} CSV {path!r}: {exc}") from exc


def write_json(fh, doc):
    """Write doc as JSON, indented by 2 with sorted keys, and a newline."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def read_json(path, what):
    """The JSON document in the file at path; DataError naming what if it
    is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError(f"{what} {path} is not valid JSON: {exc}") from None


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
    parts = m * n // _PAR_VALUES
    if parts > 1:  # os.cpu_count() is a sysfs read: only for jobs that may split
        parts = min(os.cpu_count() or 1, m, parts)
    if parts <= 1 or multiprocessing.parent_process() is not None:
        return [fn(0, m)]
    bounds = [m * i // parts for i in range(parts + 1)]
    with ThreadPoolExecutor(parts) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [f.result() for f in futures]


def _partition_columns(values, k):
    """The negated columns of values (n x m) as the rows of a new
    C-contiguous array, each partitioned so that its k + 1 largest values
    come first, the (k+1)-th largest at index k.  Contiguous rows
    partition faster, and negated ones much faster where the bottom of a
    column is one tied value, as the moving-max floor is; for column-major
    values, as samples store them, the negation is one straight pass.
    Blocks of columns are split by `for_row_blocks`."""
    n, m = values.shape
    neg = np.empty((m, n))

    def block(lo, hi):
        rows = np.negative(values.T[lo:hi], out=neg[lo:hi])
        rows.partition(k, axis=1)

    for_row_blocks(block, m, n)
    return neg


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
    if check_size(m, "m") == 1:
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
    if vals.size:  # a NaN makes both extremes NaN
        lo, hi = vals.min(), vals.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError(f"{what} values must be finite")
        if lo < minimum or lo == 0.0:
            bound = "positive" if minimum == 0.0 else f">= {minimum}"
            raise DataError(f"{what} values must be {bound}")
    # column-major: every per-time kernel reads one contiguous column.  The
    # sample's values are read-only, so an array the caller can still write
    # is copied; a read-only one (as the simulators and pareto_transform
    # pass) is viewed, and one that arrives row-major, such as a CSV load,
    # is copied once by the reordering
    out = np.asfortranarray(vals)
    if out.flags.writeable and np.may_share_memory(out, values):
        out = out.copy(order="F")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Paths:
    """n paths on a common time grid; values (n x m) is stored column-major,
    so each time's column is contiguous, and read-only, so the sorted top
    block that `top_block` memoises here cannot go stale."""

    grid: TimeGrid
    values: np.ndarray
    _top: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path):
        """Write grid header row plus one row per path, 17 significant digits."""
        with open(path, "w") as fh:
            write_csv(fh, ",".join(f"{t:.17g}" for t in self.grid.points), self.values)

    @classmethod
    def from_csv(cls, path, *fields):
        """The sample `to_csv` wrote to path; fields after the values (a
        PathSample's family) are passed on to the constructor."""
        header, values = read_csv(path, "paths")
        if values.shape[0] == 0:
            raise DataError(f"paths CSV {path!r} has no data rows")
        try:
            points = [float(t) for t in header.split(",")]
        except ValueError as exc:
            raise DataError(f"cannot parse paths CSV {path!r}: {exc}") from None
        return cls(TimeGrid(points), values, *fields)


@dataclass(frozen=True)
class PathSample(_Paths):
    """n paths of a positive process on a common time grid."""

    family: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.values, self.grid, 0.0, "path")
        )


@dataclass(frozen=True)
class ParetoPaths(_Paths):
    """Paths standardised to the Pareto scale, zeta = 1/(1 - F_t(xi)) >= 1."""

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_values(self.values, self.grid, 1.0, "pareto")
        )


def top_block(paths, k):
    """The k + 1 largest values of every column of a sample, as a read-only
    (m, k + 1) view: row j holds column j's in ascending order, so column 0
    is xi_{n-k,n}(t_j).

    Memoised on the sample, sorted: a hit is one slice of the memo.  A miss
    partitions the columns once, at K = k on the sample's first call and
    at K = min(2k, n - 1) on a later one, and keeps the K + 1 largest
    values of each column, sorted, so a later call with k <= K partitions
    nothing.  A descending k sweep partitions the sample once, an
    ascending one about log2(k_max / k_min) + 2 times, and the memo holds
    at most (min(2 k_max, n - 1) + 1) m floats.
    """
    n = paths.n
    k = check_k(k, n)
    block = paths._top  # (m, K + 1): row j, column j's K + 1 largest values, ascending
    if block is None or block.shape[1] <= k:
        width = k if block is None else min(2 * k, n - 1)
        neg = _partition_columns(paths.values, width)[:, : width + 1]
        neg.sort(axis=1)  # the values, descending
        block = np.negative(neg[:, ::-1])  # ascending
        block.flags.writeable = False
        object.__setattr__(paths, "_top", block)
    return block[:, block.shape[1] - k - 1 :]


def top_block_above(paths, level):
    """A read-only block of ascending rows, as `top_block` gives, that holds
    every value of each column at or above level and one more: the
    sample's memo itself when each of its rows starts below level, as no
    value outside it is larger, else the `top_block` one value wider than
    the most any column has at or above level."""
    block = paths._top
    if block is not None and np.all(block[:, 0] < level):
        return block
    most = int(np.count_nonzero(paths.values >= level, axis=0).max())
    return top_block(paths, min(max(most, 1), paths.n - 1))


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
        _warn_clamped([clamped])
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
        from scipy.special import ndtr

        s = np.sqrt(t)
        z = (np.log(x) + 0.5 * t) / s
        return ndtr(-z) + ndtr(z - s) / x


def _warn_clamped(clamps):
    """One RuntimeWarning for each nonzero count of tail clamps, in order,
    attributed to the line that called the caller."""
    for clamped in clamps:
        if clamped:
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


def _pareto_rows(model, points, rows):
    """(zeta, clamps): the Pareto scale of every row of rows (m x width),
    row j's values taken at time points[j], as a new (m x width) array,
    and the number of tail values clamped in each row, without a warning
    (see `_warn_clamped`).  Blocks of rows are split by `for_row_blocks`,
    after scipy.special is imported here, so no block's thread imports it."""
    m, width = rows.shape
    out = np.empty((m, width))
    if model.family == PARETO_GBM:
        import scipy.special  # noqa: F401

    def block(lo, hi):
        clamps = []
        for j in range(lo, hi):
            tail, clamped = model._floored_tail(points[j], rows[j])
            # zeta = 1/tail, at least 1: floating point can land a hair
            # under 1 when F is near 0
            np.maximum(np.divide(1.0, tail, out=out[j]), 1.0, out=out[j])
            clamps.append(clamped)
        return clamps

    return out, [c for clamps in for_row_blocks(block, m, width) for c in clamps]


def pareto_transform(sample, model) -> ParetoPaths:
    """Standardise a path sample to the Pareto scale.

    zeta = 1/(1 - F_t(xi)) of every value, one `_pareto_rows` row per time;
    the tail-clamp warnings come after, in column order.  Output values
    are >= 1.
    """
    zeta, clamps = _pareto_rows(model, sample.grid.points, sample.values.T)
    _warn_clamped(clamps)
    zeta.flags.writeable = False  # viewed, not copied, by the sample
    return ParetoPaths(sample.grid, zeta.T)


# relative margin of the lowest value of `pareto_top`'s block below its levels
_TOP_MARGIN = 1e-9


def pareto_top(sample, k):
    """The Pareto scale of every value of each column at or above n/k and
    of its k + 1 largest, as read-only ascending rows, one per grid time:
    the floats `pareto_transform` gives, the (k+1)-th largest at -k - 1.

    Only each column's min(2k, n - 1) + 1 largest raw values, from
    `top_block`, are transformed while the transform of the lowest stays
    below n/k and the (k+1)-th largest by `_TOP_MARGIN`: the transform is
    increasing, so no other value reaches them.  Else the whole columns
    are.  Rounding may break that order, so the rows are sorted; the
    clamps of the returned block are warned once.
    """
    n = sample.n
    k = check_k(k, n)
    model = marginal_model_for(sample)
    for big in (min(2 * k, n - 1), n - 1):
        top, clamps = _pareto_rows(model, sample.grid.points, top_block(sample, big))
        lowest = top[:, 0] * (1.0 + _TOP_MARGIN)
        top.sort(axis=1)
        if big == n - 1 or np.all(lowest < np.minimum(n / k, top[:, -k - 1])):
            break
    _warn_clamped(clamps)
    top.flags.writeable = False
    return top
