"""Quadrature reference for the exponent-measure oracles.

`sup_integral` integrates the envelope of any number of weighted kernel
curves, so the tests can check the closed-form two-cell oracles against
it (nu(A n B) = 1/x + 1/y - nu(A u B)) and use it for unions of more
than two cells.
"""

import math

import numpy as np
from scipy import integrate, special

from funcevt.exponent_measure import _student_t_crossings
from funcevt.path_model import DataError
from funcevt.process_sim import DOUBLE_EXP


def _crossings(kernel, times, inv):
    """Points u where two curves inv_j f(t_j + u) meet, over all pairs.

    The double-exp log-densities are piecewise linear, so two curves
    cross at most once between their peaks; two student-t curves meet
    at the roots of one quadratic.
    """
    a, b = np.triu_indices(len(times), k=1)
    ta, tb = times[a], times[b]
    log_ratio = np.log(inv[a]) - np.log(inv[b])
    if kernel.shape == DOUBLE_EXP:
        # |t_a + u| - |t_b + u| = log(inv_a / inv_b) / rate between the peaks
        d = log_ratio / kernel.rate
        inside = np.abs(d) < np.abs(tb - ta)
        return -0.5 * (ta + tb + d * np.sign(tb - ta))[inside]
    rate = kernel.rate
    roots = _student_t_crossings(kernel.df, rate * ta, rate * tb, log_ratio).ravel()
    return roots[np.isfinite(roots)] / rate


def _tail_radius(kernel, mass):
    """Radius R with kernel tail mass beyond R at most `mass`."""
    if mass >= 0.5:
        return 0.0
    if kernel.shape == DOUBLE_EXP:
        return math.log(0.5 / mass) / kernel.rate
    return -float(special.stdtrit(kernel.df, mass)) / kernel.rate


def sup_integral(kernel, times, levels, tol=1e-10):
    """integral over u of max_j f(t_j + u) / x_j du.

    Splits the line at kernel peaks and at the points where two curves
    cross on the envelope, then applies adaptive quadrature per smooth
    segment.  Kinks in the far tails, where every curve has mass below
    tol / 20, are left inside the outer two segments, which run to
    infinity: quad does not converge on a heavy-tailed kernel's mass at
    one end of a segment cut far out.
    """
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
