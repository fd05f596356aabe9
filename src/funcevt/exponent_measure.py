"""Exponent-measure oracles for the two process families.

The exponent measure nu of a standardised max-domain process assigns to
the exceedance set C_{t,x} = {h : h(t) >= x} the mass nu(C_{t,x}) = 1/x,
and the covariance of the limiting Gaussian field is
E W(C_{t,x}) W(C_{s,y}) = nu(C_{t,x} n C_{s,y}).  The oracles here
evaluate those intersection masses:

* moving-max family: nu(C_{t,x} n C_{s,y}) = integral of
  min(f(t+u)/x, f(s+u)/y) du.  For the double-exponential kernel the
  integrand is a single exponential on each of four pieces of the line,
  so the mass is exact in closed form (see `_double_exp_mass`).  The
  student-t kernel goes through `sup_integral`, segmented adaptive
  quadrature of the envelope max(f(t+u)/x, f(s+u)/y).
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
from scipy.special import ndtr, stdtrit

from funcevt.path_model import MOVING_MAX, PARETO_GBM, DataError
from funcevt.process_sim import DOUBLE_EXP, KernelSpec


# absolute tolerance of the student-t kernel's union quadrature
_QUAD_TOL = 1e-11


def _tail_radius(kernel, mass):
    """Radius R with kernel tail mass beyond R at most `mass`."""
    if mass >= 0.5:
        return 0.0
    if kernel.shape == DOUBLE_EXP:
        return math.log(0.5 / mass) / kernel.rate
    return -float(stdtrit(kernel.df, mass)) / kernel.rate


def _crossings(kernel, times, inv):
    """Points u where two curves inv_j f(t_j + u) meet, over all pairs.

    Both kernel shapes meet a second curve in closed form: the
    double-exp log-densities are piecewise linear, so two curves cross
    at most once between their peaks, and for the student-t kernel the
    ratio of the two curves is a power of a ratio of quadratics, so
    they meet at the roots of one quadratic.
    """
    a, b = np.triu_indices(len(times), k=1)
    ta, tb = times[a], times[b]
    log_ratio = np.log(inv[a]) - np.log(inv[b])
    if kernel.shape == DOUBLE_EXP:
        # |t_a + u| - |t_b + u| = log(inv_a / inv_b) / rate between the peaks
        d = log_ratio / kernel.rate
        inside = np.abs(d) < np.abs(tb - ta)
        return -0.5 * (ta + tb + d * np.sign(tb - ta))[inside]
    # with z = rate u: nu + (alpha + z)^2 = k (nu + (beta + z)^2)
    nu = kernel.df
    alpha, beta = kernel.rate * ta, kernel.rate * tb
    k = np.exp(log_ratio / (0.5 * (nu + 1.0)))
    qa = 1.0 - k
    qb = 2.0 * (alpha - k * beta)
    qc = alpha * alpha - k * beta * beta + nu * qa
    disc = qb * qb - 4.0 * qa * qc
    real = disc >= 0.0
    qa, qb, qc = qa[real], qb[real], qc[real]
    q = -0.5 * (qb + np.copysign(np.sqrt(disc[real]), qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate([q / qa, qc / q])
    return roots[np.isfinite(roots)] / kernel.rate


def sup_integral(kernel, times, levels, tol=1e-10):
    """integral over u of max_j f(t_j + u) / x_j du.

    Splits the line at kernel peaks and at the points where two curves
    cross on the envelope (found in closed form by `_crossings`), then
    applies adaptive quadrature per smooth segment.  Kinks in the far
    tails, where every curve has mass below tol / 20, are left inside
    the outer two segments, which run to infinity: quad does not
    converge on a heavy-tailed kernel's mass at one end of a segment
    cut far out.
    """
    # here, not at module level: it is slow to import
    from scipy import integrate

    times = np.asarray(times, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if times.shape != levels.shape or times.ndim != 1:
        raise DataError("times and levels must be matching 1-d arrays")
    if np.any(levels <= 0.0):
        raise DataError("levels must be positive")

    inv = 1.0 / levels

    def curves(u):
        return inv[:, None] * kernel.density(times[:, None] + np.atleast_1d(u)[None, :])

    def envelope(u):
        return np.max(curves(u), axis=0).reshape(np.shape(u))

    # a crossing is a kink only where the two curves it joins are the
    # envelope; a third curve above both leaves the envelope smooth there
    cross = _crossings(kernel, times, inv)
    vals = curves(cross)
    top = np.sort(vals, axis=0)[-2:]
    kinks = cross[top[0] >= top[-1] * (1.0 - 1e-9)]

    radius = _tail_radius(kernel, tol * float(levels.min()) / 20.0)
    lo = -radius - float(times.max())
    hi = radius - float(times.min())
    breaks = set(float(-t) for t in times) | set(kinks.tolist())
    edges = sorted(b for b in breaks if lo < b < hi)
    cuts = [-math.inf] + edges + [math.inf]
    total = 0.0
    eps = tol / (4.0 * max(len(cuts) - 1, 1))
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = integrate.quad(
            lambda u: float(envelope(u)), a, b, epsabs=eps, epsrel=1e-12, limit=200
        )
        total += val
    return total


def _double_exp_mass(rate, h, x, y):
    """nu(C_{t,x} n C_{t+h,y}) for f(u) = (rate/2) exp(-rate|u|), h > 0.

    With a = 1/x, b = 1/y and e = exp(-rate h), the integrand
    min(a f(v), b f(v+h)) is a single exponential on each of v < -h,
    (-h, c), (c, 0) and v > 0, where c is the crossing point
    (log(x/y) - rate h)/(2 rate) clipped to [-h, 0].  Broadcasts over x
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


@dataclass(frozen=True)
class MeasureOracle:
    """Evaluates exceedance-set masses of the exponent measure.

    Build with `MeasureOracle.moving_max(kernel)` or
    `MeasureOracle.pareto_gbm()`.
    """

    family: str
    kernel: object = None

    @classmethod
    def moving_max(cls, kernel=None):
        if kernel is None:
            kernel = KernelSpec()
        return cls(MOVING_MAX, kernel=kernel)

    @classmethod
    def pareto_gbm(cls):
        return cls(PARETO_GBM)

    def _check_point(self, t, x):
        if not 0.0 <= t <= 1.0:
            raise DataError("time must be in [0, 1]")
        if not np.all(np.asarray(x) > 0.0):
            raise DataError("level must be positive")

    def rect_mass(self, t, x) -> float:
        """nu(C_{t,x}) = 1/x."""
        self._check_point(t, x)
        return 1.0 / x

    def intersection_mass(self, t, x, s, y):
        """nu(C_{t,x} n C_{s,y}), broadcast over the levels x and y.

        Returns a float for scalar levels and an array otherwise.  Every
        mass is capped at min(1/x, 1/y), which it equals exactly once one
        cell contains the other: where one nearly contains the other the
        formulas and the quadrature round a few ulps above it.
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
            out = np.array(
                [self._scalar_mass(t, xi, s, yi) for xi, yi in zip(x.flat, y.flat)]
            ).reshape(x.shape)
        out = np.minimum(out, cap)
        return float(out) if out.ndim == 0 else out

    def _scalar_mass(self, t, x, s, y) -> float:
        """One mass by quadrature of the union (student-t kernel), t < s."""
        union = sup_integral(
            self.kernel, np.array([t, s]), np.array([x, y]), tol=_QUAD_TOL
        )
        return 1.0 / x + 1.0 / y - union


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
