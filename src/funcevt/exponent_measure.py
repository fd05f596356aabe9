"""Exponent-measure oracles for the two process families.

The exponent measure nu of a standardised max-domain process assigns to
the exceedance set C_{t,x} = {h : h(t) >= x} the mass nu(C_{t,x}) = 1/x,
and the covariance of the limiting Gaussian field is
E W(C_{t,x}) W(C_{s,y}) = nu(C_{t,x} n C_{s,y}).  The oracles here
evaluate those intersection masses:

* moving-max family: nu(C_{t,x} n C_{s,y}) = integral of
  min(f(t+u)/x, f(s+u)/y) du.  For the double-exponential kernel the
  integrand is a single exponential on each of four pieces of the line,
  so the mass is exact in closed form (see `_double_exp_mass`).  Two
  student-t curves cross at most twice, at the roots of one quadratic,
  and between crossings the min is one curve, so the mass is a sum of at
  most three t-CDF differences (see `_student_t_mass`).
* pareto-gbm family: nu(C_{t,x} n C_{s,y}) = E[min(B(t)/x, B(s)/y)].
  Writing B(t) = B(s) R with R = exp(W(t)-W(s) - (t-s)/2) independent
  of B(s), the factor B(s) slips out of the min with unit expectation,
  leaving a single lognormal expectation with an explicit kink, so the
  evaluation is exact in terms of the normal CDF.

`MeasureOracle.intersection_mass` broadcasts over its two levels.  Every
oracle is homogeneous, nu(r A) = nu(A)/r, and drives the covariance
matrices of the limit field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

from funcevt.path_model import FAMILIES, MOVING_MAX, PARETO_GBM, DataError
from funcevt.process_sim import DOUBLE_EXP, KernelSpec


def _student_t_crossings(df, alpha, beta, log_ratio):
    """Both roots z of exp(log_ratio) t_df(alpha + z) = t_df(beta + z).

    The ratio of two shifted t densities is a power of a ratio of
    quadratics, so two weighted curves meet at the roots of
    nu + (alpha + z)^2 = k (nu + (beta + z)^2), k = exp(log_ratio)^(2/(nu+1)).
    Broadcasts over its arguments; the roots are stacked on a new first
    axis and are not finite where the quadratic has no real root.
    """
    k = np.exp(log_ratio / (0.5 * (df + 1.0)))
    qa = 1.0 - k
    qb = 2.0 * (alpha - k * beta)
    qc = alpha * alpha - k * beta * beta + df * qa
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        return np.stack([q / qa, qc / q])


def _double_exp_mass(rate, h, x, y):
    """nu(C_{t,x} n C_{t+h,y}) for f(u) = (rate/2) exp(-rate|u|), h > 0.

    With a = 1/x, b = 1/y and e = exp(-rate h), the integrand
    min(a f(v), b f(v+h)) is a single exponential on each of v < -h,
    (-h, c), (c, 0) and v > 0, where c is the crossing point
    (log(x/y) - rate h)/(2 rate) clamped to [-h, 0].  Broadcasts over x
    and y.
    """
    a, b = 1.0 / x, 1.0 / y
    e = math.exp(-rate * h)
    c = np.clip((np.log(x / y) - rate * h) / (2.0 * rate), -h, 0.0)
    return 0.5 * (
        np.minimum(a, b * e)
        + np.minimum(a * e, b)
        + a * (np.exp(rate * c) - e)
        + b * (np.exp(-rate * (c + h)) - e)
    )


def _gbm_mass(h, x, y):
    """nu(C_{t,x} n C_{t+h,y}) for pareto-gbm via the normal CDF, h > 0."""
    r = math.sqrt(h)
    zstar = (np.log(x / y) + 0.5 * h) / r
    return ndtr(zstar - r) / x + ndtr(-zstar) / y


def _student_t_mass(kernel, h, x, y):
    """nu(C_{t,x} n C_{t+h,y}) for f(u) = rate t_df(rate u), h > 0.

    In z = rate (t + u) the two curves are t_df(z)/x and t_df(z + b)/y,
    b = rate h.  Between consecutive crossings (at most two, from
    `_student_t_crossings`) one curve lies below the other, so the integral
    of the min there is the smaller of the two t-CDF differences.  Each
    difference is taken in the tail its segment lies in.  Broadcasts
    over x and y.
    """
    df, b = kernel.df, kernel.rate * h
    roots = _student_t_crossings(df, 0.0, b, np.log(y) - np.log(x))
    cuts = np.sort(np.where(np.isfinite(roots), roots, np.inf), axis=0)
    ends = np.full((1,) + cuts.shape[1:], np.inf)
    lo, hi = np.concatenate([-ends, cuts]), np.concatenate([cuts, ends])

    def cdf_diff(lo, hi):
        flip = lo > -hi  # midpoint right of the mode
        return stdtr(df, np.where(flip, -lo, hi)) - stdtr(df, np.where(flip, -hi, lo))

    return np.minimum(cdf_diff(lo, hi) / x, cdf_diff(lo + b, hi + b) / y).sum(axis=0)


@dataclass(frozen=True)
class MeasureOracle:
    """Evaluates exceedance-set masses of the exponent measure.

    `MeasureOracle(family, kernel)` takes the moving-max kernel, by
    default `KernelSpec()`; pareto-gbm has none and drops a kernel given
    to it.
    """

    family: str
    kernel: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}")
        if self.family == PARETO_GBM:
            object.__setattr__(self, "kernel", None)
        elif self.kernel is None:
            object.__setattr__(self, "kernel", KernelSpec())

    def _check_point(self, t, x):
        if not 0.0 <= t <= 1.0:
            raise DataError("time must be in [0, 1]")
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            if not np.all((x > 0.0) & np.isfinite(x) & np.isfinite(1.0 / x)):
                raise DataError("level must be positive and finite, with a finite reciprocal")

    def rect_mass(self, t, x) -> float:
        """nu(C_{t,x}) = 1/x."""
        self._check_point(t, x)
        return 1.0 / x

    def intersection_mass(self, t, x, s, y):
        """nu(C_{t,x} n C_{s,y}), broadcast over the levels x and y.

        Returns a float for scalar levels and an array otherwise.  Every
        mass is capped at min(1/x, 1/y), which it equals exactly once one
        cell contains the other: where one nearly contains the other the
        formulas round a few ulps above it.
        """
        self._check_point(t, x)
        self._check_point(s, y)
        if s < t:
            t, x, s, y = s, y, t, x
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        cap = np.minimum(1.0 / x, 1.0 / y)
        h = s - t
        if h == 0.0:
            out = cap
        elif self.family == MOVING_MAX and self.kernel.shape == DOUBLE_EXP:
            out = _double_exp_mass(self.kernel.rate, h, x, y)
        elif self.family == PARETO_GBM:
            out = _gbm_mass(h, x, y)
        else:
            out = _student_t_mass(self.kernel, h, x, y)
        out = np.minimum(out, cap)
        return float(out) if out.ndim == 0 else out


def covariance_matrix(oracle, t_grid, x_grid) -> np.ndarray:
    """Covariance of the limit field over cells (t_i, x_j), row-major in (i, j).

    Exploits homogeneity: for a fixed time pair, nu depends on levels
    only through their ratio, so each time pair takes one oracle call
    over the distinct level ratios (keyed by the log-ratio rounded to
    12 digits), scattered back as nu(t, x, s, y) = (1/x) nu(t, 1, s, y/x).
    """
    ts = np.asarray(t_grid.points if hasattr(t_grid, "points") else t_grid, float)
    xs = np.asarray(x_grid, dtype=float)
    if np.any(xs <= 0.0):
        raise DataError("levels must be positive")
    mt, mx = ts.size, xs.size
    ratio = xs[None, :] / xs[:, None]  # [j, l] = x_l / x_j
    keys = np.round(np.log(ratio), 12).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    distinct = ratio.ravel()[first]
    cov = np.empty((mt, mx, mt, mx))
    for i in range(mt):
        cov[i, :, i, :] = 1.0 / np.maximum.outer(xs, xs)
        for l in range(i + 1, mt):
            mass = oracle.intersection_mass(ts[i], 1.0, ts[l], distinct)
            mass = np.broadcast_to(mass, distinct.shape)[which].reshape(mx, mx)
            block = mass / xs[:, None]
            cov[i, :, l, :] = block
            cov[l, :, i, :] = block.T
    return cov.reshape(mt * mx, mt * mx)
