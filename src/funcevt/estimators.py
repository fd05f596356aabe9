"""Pointwise extreme-value index, location, and scale estimators.

All estimators use, at each time-grid column of a path sample, the top
k + 1 order statistics xi_{n-k,n} <= ... <= xi_{n,n}.  The building
block is the r-th log-excess moment

    M_r = (1/k) sum_{i=0..k-1} (log xi_{n-i,n} - log xi_{n-k,n})**r.

From it:

    positive part      gamma_plus  = M_1                     (Hill)
    negative part      gamma_minus = 1 - (1 - M_1**2/M_2)**-1 / 2
    index              gamma       = gamma_plus + gamma_minus
    location           u_hat       = xi_{n-k,n}
    scale              a_hat       = u_hat * gamma_plus * (1 - gamma_minus)

One kernel computes u_hat and the moments of every column from the
ascending rows of the sample's memoised top block (`path_model.top_block`),
so a sweep over k partitions the sample only when k outgrows the memo.
estimate_curves runs it on the whole grid and flags degenerate columns
(M_2 <= 0 or M_1**2/M_2 >= 1) instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from funcevt.path_model import TimeGrid, top_block, write_csv


def _log_excess_moments(sample, k):
    """u_hat and the log-excess moments M_1, M_2 of every column of a
    sample, whose values are positive, as length-m arrays."""
    top = top_block(sample, k)  # ascending rows: top[:, 0] = xi_{n-k,n}
    logs = np.log(top)
    # a C-contiguous row sums pairwise exactly as the 1-d np.mean of one
    # column does, so a column's moments do not depend on its neighbours
    excess = logs[:, 1:] - logs[:, :1]
    # u_hat is a copy, so the curves do not keep the sample's memo alive
    return top[:, 0].copy(), excess.mean(axis=1), (excess ** 2).mean(axis=1)


def _negative_part(m1, m2):
    """gamma_minus of every column (nan where degenerate) and the degenerate
    mask; a nan moment compares false, so its column is not flagged."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = m1 * m1 / m2
        degenerate = (m2 <= 0.0) | (ratio >= 1.0)
        gm = np.where(degenerate, np.nan, 1.0 - 0.5 / (1.0 - ratio))
    return gm, degenerate


@dataclass(frozen=True)
class EstimatorCurves:
    """Estimates of all five quantities as curves over the time grid.

    flag is 1 where the column was degenerate (gamma_minus, gamma and
    a_hat are nan there).
    """

    grid: TimeGrid
    k: int
    n: int
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    gamma: np.ndarray
    u_hat: np.ndarray
    a_hat: np.ndarray
    flag: np.ndarray

    COLUMNS = ("t", "gamma_plus", "gamma_minus", "gamma", "u_hat", "a_hat", "flag")

    def to_csv(self, path):
        cols = [self.grid.points] + [getattr(self, c) for c in self.COLUMNS[1:]]
        with open(path, "w") as fh:
            # the uint8 flag is written as a float
            write_csv(fh, ",".join(self.COLUMNS), np.column_stack(cols))


def estimate_curves(sample, k) -> EstimatorCurves:
    """Evaluate all estimators on every grid column of a sample."""
    u, m1, m2 = _log_excess_moments(sample, k)
    gm, degenerate = _negative_part(m1, m2)
    a = u * m1 * (1.0 - gm)
    flag = degenerate.astype(np.uint8)
    return EstimatorCurves(sample.grid, int(k), sample.n, m1, gm, m1 + gm, u, a, flag)
