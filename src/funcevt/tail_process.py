"""Tail empirical process and related sample diagnostics.

For Pareto-standardised paths zeta_i the tail fraction at level x is

    S_{n,t}(x) = (1/n) #{i : zeta_i(t) >= x}

and the tail empirical process, with k upper order statistics in play,

    w_n(t, x) = sqrt(k) ((n/k) S_{n,t}(x n/k) - 1/x),

which converges to the Gaussian field W(C_{t,x}) of the exponent
measure.  This module also provides a quantile-ratio statistic and an
empirical oscillation diagnostic for the negligible set condition on
path increments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from funcevt.path_model import (
    DataError,
    TimeGrid,
    check_k,
    check_levels,
    for_row_blocks,
    partition_columns,
)


def _exceedance_counts(values, x):
    """#{i : values[i, j] >= x_l} as an (m, x.size) integer array: one sort per
    column (a straight copy for column-major values, as samples store them),
    then one search of the sorted column for all levels; blocks of columns
    are split by `for_row_blocks`."""
    n, m = values.shape
    cols = np.empty((m, n))  # a copy, sorted in place
    counts = np.empty((m, x.size), dtype=np.intp)

    def block(lo, hi):
        rows = cols[lo:hi]
        rows[...] = values.T[lo:hi]
        rows.sort(axis=1)
        for j in range(lo, hi):
            counts[j] = n - np.searchsorted(cols[j], x)

    for_row_blocks(block, m, n)
    return counts


def tail_process_from_counts(counts, x, n, k):
    """w_n(t, x) = sqrt(k)((n/k) S - 1/x) with S = counts/n, where counts
    holds the number of the n values at or above x n/k; broadcasts."""
    return math.sqrt(k) * ((n / k) * (counts / n) - 1.0 / x)


@dataclass(frozen=True)
class TailField:
    """w_n evaluated on a time grid times a level grid."""

    t_grid: TimeGrid
    x_grid: np.ndarray
    values: np.ndarray  # (m_t, m_x)
    n: int
    k: int

    def __post_init__(self):
        x = check_levels(self.x_grid)
        object.__setattr__(self, "x_grid", x)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.t_grid.m, x.size):
            raise DataError("values shape must be (m_t, m_x)")
        object.__setattr__(self, "values", v)


def build_tail_field(paths, k, x_grid=None, n_x=64, c=1.0) -> TailField:
    """Evaluate w_n on the full time grid and a geometric level grid.

    The default level grid is geometric from c to n/k with n_x points;
    a given one must be 1-D, non-empty, finite, positive and strictly
    increasing.
    """
    n = paths.n
    k = check_k(k, n)
    if x_grid is None:
        hi = n / k
        if not 0.0 < c < hi:  # false for a nan c too
            raise DataError(
                f"need 0 < c < n/k = {hi:g} for the default level grid, got c={c!r}"
            )
        x_grid = np.exp(np.linspace(math.log(c), math.log(hi), int(n_x)))
    x = check_levels(x_grid)
    counts = _exceedance_counts(paths.values, x * (n / k))
    return TailField(paths.grid, x, tail_process_from_counts(counts, x, n, k), n, k)


def tail_quantile_stat(paths, k, alpha):
    """sqrt(k)((zeta_{n-k,n}(t) k/n)**alpha - 1) for each grid point.

    alpha may be a scalar or a per-grid-point array.
    """
    neg, k = partition_columns(paths.values, k)
    return quantile_stat_from_order_stats(-neg[:, k], paths.n, k, alpha)


def quantile_stat_from_order_stats(top, n, k, alpha):
    """sqrt(k)((top k/n)**alpha - 1) from the (k+1)-th largest value top of
    each of n-value columns; alpha is a scalar or one exponent per column."""
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), top.shape)
    v = top * (k / n)
    # one scalar pow per grid point, not a vectorised **: numpy's SIMD
    # power differs from pow in the last bit for about 5% of inputs, and
    # reports built on this statistic are compared bitwise
    powers = np.array([vj ** aj for vj, aj in zip(v, alpha)])
    return math.sqrt(k) * (powers - 1.0)


@dataclass(frozen=True)
class OscillationConfig:
    """Window, threshold, and conditioning level for the oscillation check.

    The diagnostic estimates, over paths with sup_{[s, s+delta]} zeta >= v,
    how often the path leaves the small-oscillation set: increments from
    s exceeding K (log 1/delta)**-3, measured on the ratio scale
    |h(t) - h(s)|/h(s) or the log scale |log h(t) - log h(s)|.
    """

    s: float
    delta: float
    v: float
    K: float
    beta: float = 0.25
    variant: str = "log"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise DataError("delta must be in (0, 1)")
        if not 0.0 <= self.s <= 1.0 - self.delta:
            raise DataError("need 0 <= s <= 1 - delta")
        if not self.v > 1.0:
            raise DataError("conditioning level v must be > 1")
        if not self.K > 0.0:
            raise DataError("K must be positive")
        if not 0.0 <= self.beta < 0.5:
            raise DataError("beta must be in [0, 1/2)")
        if self.variant not in ("ratio", "log"):
            raise DataError("variant must be 'ratio' or 'log'")

    @property
    def threshold(self) -> float:
        return self.K * math.log(1.0 / self.delta) ** -3

    @property
    def reference_bound(self) -> float:
        """(log 1/delta) ** -(2+2 beta)/(1-2 beta), the comparison rate."""
        expo = (2.0 + 2.0 * self.beta) / (1.0 - 2.0 * self.beta)
        return math.log(1.0 / self.delta) ** -expo


@dataclass(frozen=True)
class OscillationReport:
    config: OscillationConfig
    n_paths: int
    n_conditioning: int
    n_exceed: int
    estimate: float
    threshold: float
    reference_bound: float


def oscillation_diagnostic(paths, cfg) -> OscillationReport:
    """Empirical probability of leaving the small-oscillation set.

    Membership is checked on the grid restriction of [s, s + delta];
    at least two grid points must fall in the window, and s must be a
    grid point (the base of the increments).
    """
    pts = paths.grid.points
    base = paths.grid.index_of(cfg.s)
    in_window = np.flatnonzero(
        (pts >= cfg.s - 1e-12) & (pts <= cfg.s + cfg.delta + 1e-12)
    )
    if in_window.size < 2:
        raise DataError(
            f"only {in_window.size} grid points in [s, s+delta]; need >= 2"
        )
    window = paths.values[:, in_window]
    at_s = paths.values[:, base]
    cond = window.max(axis=1) >= cfg.v
    n_cond = int(np.count_nonzero(cond))
    if n_cond == 0:
        warnings.warn("no paths meet the conditioning level", RuntimeWarning)
        return OscillationReport(
            cfg, paths.n, 0, 0, math.nan, cfg.threshold, cfg.reference_bound
        )
    if cfg.variant == "ratio":
        dev = np.abs(window[cond] - at_s[cond, None]) / at_s[cond, None]
    else:
        dev = np.abs(np.log(window[cond]) - np.log(at_s[cond, None]))
    exceed = int(np.count_nonzero(dev.max(axis=1) > cfg.threshold))
    return OscillationReport(
        cfg,
        paths.n,
        n_cond,
        exceed,
        exceed / n_cond,
        cfg.threshold,
        cfg.reference_bound,
    )
