"""Limiting Gaussian functionals and the true normalising functions.

The tail empirical process converges to a Gaussian field W indexed by
exceedance cells, with covariance given by the exponent measure.  The
estimator fluctuations converge to functionals of that field; writing
g for the negative part of the index and W_1(t) = W(C_{t,1}),

    moment1(t) = int_1^inf W(C_{t,x}) x**(g-1) dx - W_1(t)/(1-g)
    moment2(t) = 2 int_1^inf W(C_{t,x}) ((x**g - 1)/g) x**(g-1) dx
                 - 2 W_1(t) / ((1-g)(1-2g))
    index(t)   = (gamma_plus - 2(1-g)**2 (1-2g)) moment1
                 + (1-g)**2 (1-2g)**2 moment2 / 2
    location(t) = W_1(t)
    scale(t)   = gamma W_1(t) + (3-4g)(1-g) moment1
                 - (1-g)(1-2g)**2 moment2 / 2

(at g = 0 the kernel (x**g - 1)/g reads as log x).  The integrals are
evaluated on the field's level grid with a conditional-mean correction
for the tail beyond the largest level.  moment1, moment2 and location
are linear in the field, so `simulate_limit_functionals` draws them from
their own 3 m_t-dimensional Gaussian law without building the field.
It and `simulate_limit_field` draw through the Cholesky factor of
their covariance, and take the same level-grid check.

This module also carries the second-order machinery: the bias shape
function H(g, rho, x) = int_1^x y**(g-1) int_1^y u**(rho-1) du dy, the
exact location/scale/bias-amplitude functions of the two families, and
a checker for the documented second-order bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from funcevt.path_model import (
    MOVING_MAX,
    PARETO_GBM,
    DataError,
    MarginalModel,
    TimeGrid,
    check_int,
    check_levels,
)
from funcevt.exponent_measure import covariance_matrix


# normals drawn per block of limit-field or limit-functional draws (1 MB
# of float64), which bounds what the samplers hold beside their draws
_DRAW_BLOCK_VALUES = 1 << 17


class DegenerateCovarianceError(RuntimeError):
    """A limit covariance fails its Cholesky factorisation: the cell
    covariance of `simulate_limit_field` or the functionals' law of
    `simulate_limit_functionals` is not positive definite on its grid."""


def _powm1_over(a, logx):
    """(x**a - 1)/a evaluated stably, with the a = 0 limit log x."""
    if a == 0.0:
        return np.asarray(logx, dtype=float).copy()
    return np.expm1(a * np.asarray(logx, dtype=float)) / a


def second_order_bias(gamma_neg, rho, x):
    """H(g, rho, x) = int_1^x y**(g-1) int_1^y u**(rho-1) du dy.

    Closed form (1/rho)[(x**(g+rho)-1)/(g+rho) - (x**g-1)/g] with the
    continuous limits at g = 0, rho = 0 and g + rho = 0, and H = 0 at
    rho = -inf.  Vectorised over x > 0.
    """
    g = float(gamma_neg)
    r = float(rho)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DataError("x must be positive")
    if r == -math.inf:
        out = np.zeros_like(x)
        return out if out.ndim else float(out)
    logx = np.log(x)
    if r != 0.0:
        out = (_powm1_over(g + r, logx) - _powm1_over(g, logx)) / r
    else:
        # limit rho -> 0: d/da (x**a - 1)/a at a = g, via the stable form
        # (log x)**2 q(w), w = g log x, q(w) = (w e**w - e**w + 1)/w**2
        w = g * logx
        small = np.abs(w) < 1e-4
        q = np.empty_like(w)
        ws = w[small]
        q[small] = 0.5 + ws / 3.0 + ws * ws / 8.0
        wl = w[~small]
        q[~small] = (wl * np.exp(wl) - np.expm1(wl)) / (wl * wl)
        out = logx * logx * q
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LimitParams:
    """Index curves entering the limit functionals.

    gamma_plus >= 0 and gamma_minus <= 0 per grid point, with at most
    one of them nonzero (they are the positive and negative parts of
    the same index curve).
    """

    gamma_plus: np.ndarray
    gamma_minus: np.ndarray

    def __post_init__(self):
        gp = np.atleast_1d(np.asarray(self.gamma_plus, dtype=float))
        gm = np.atleast_1d(np.asarray(self.gamma_minus, dtype=float))
        if gp.shape != gm.shape:
            raise DataError("gamma_plus and gamma_minus must have the same shape")
        if np.any(gp < 0.0) or np.any(gm > 0.0):
            raise DataError("need gamma_plus >= 0 >= gamma_minus")
        if np.any(np.minimum(gp, -gm) > 1e-12):
            raise DataError(
                "gamma_plus and gamma_minus are the positive and negative "
                "parts of one index; at most one may be nonzero per point"
            )
        object.__setattr__(self, "gamma_plus", gp)
        object.__setattr__(self, "gamma_minus", gm)

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma_plus + self.gamma_minus

    @classmethod
    def constant(cls, m, gamma_plus=1.0, gamma_minus=0.0):
        m = check_int(m, "m")
        return cls(np.full(m, float(gamma_plus)), np.full(m, float(gamma_minus)))


@dataclass(frozen=True)
class TrueFunctions:
    """Exact index, location, scale, and bias-amplitude functions.

    Both built-in families have index 1 at every time, so gamma_plus
    is 1, gamma_minus is 0 and the scale is a_t(v) = gamma_plus U_t(v).

    For the moving-max family U_t(v) = -1/log(1 - 1/v) and the
    normalised second-order remainder (log U(vx) - log U(v) - log x)
    equals A(v)(1 - 1/x) + O(v**-2) with A(v) = 1/(2v), so rho = -1
    and the remainder target is 1 - 1/x (a member of the second-order
    equivalence class for this choice of scale).

    For the pareto-gbm family U_t solves 1 - F_t(U) = 1/v numerically;
    the remainder target is 0 with amplitude A(v) = v**-M (rho = -inf),
    and U obeys the bracket v >= U_t(v) >= v - v**-M for large v.
    bound_exponent is that M, a constant of the second-order condition
    with 1 < M < inf; the moving-max family does not read it.
    """

    family: str
    bound_exponent: float = 1.5

    def __post_init__(self):
        if self.family not in (MOVING_MAX, PARETO_GBM):
            raise DataError(f"unknown family {self.family!r}")
        if not 1.0 < self.bound_exponent < math.inf:
            raise DataError(f"need 1 < bound_exponent < inf, got {self.bound_exponent!r}")

    def gamma_plus(self, t=None) -> float:
        return 1.0

    def gamma_minus(self, t=None) -> float:
        return 0.0

    def gamma(self, t=None) -> float:
        return 1.0

    def location(self, t, v):
        """U_t(v), the 1 - 1/v quantile, for v > 1 (vectorised over v)."""
        v = np.asarray(v, dtype=float)
        if np.any(v <= 1.0):
            raise DataError("v must be > 1")
        if self.family == MOVING_MAX:
            out = -1.0 / np.log1p(-1.0 / v)
            return out if out.ndim else float(out)
        t = float(t)
        if t == 0.0:
            return v if v.ndim else float(v)
        flat = np.atleast_1d(v).astype(float)
        out = np.array([self._gbm_location(t, float(vv)) for vv in flat])
        return out.reshape(v.shape) if v.ndim else float(out[0])

    def _gbm_location(self, t, v):
        # here, not at module level: it is slow to import
        from scipy.optimize import brentq

        target = 1.0 / v
        marginal = MarginalModel(PARETO_GBM)

        def f(u):
            return float(marginal.tail(t, u)) - target

        lo, hi = 0.9 * v, v * (1.0 + 1e-7)
        tries = 0
        while f(lo) <= 0.0:
            lo *= 0.5
            tries += 1
            if tries > 60 or lo <= 1e-280:
                raise DataError(f"no bracket for U_t({v}) at t={t}")
        return brentq(f, lo, hi, xtol=max(1e-13 * v, 1e-280), rtol=8.9e-16)

    def scale(self, t, v):
        """a_t(v) = gamma_plus * U_t(v)."""
        return self.gamma_plus(t) * self.location(t, v)

    def bias_amplitude(self, t, v):
        """A_t(v): 1/(2v) for moving-max, v**-M for pareto-gbm."""
        v = np.asarray(v, dtype=float)
        if self.family == MOVING_MAX:
            out = 0.5 / v
        else:
            out = v ** -self.bound_exponent
        return out if out.ndim else float(out)

    def remainder_target(self, x):
        """Limit of (log U(vx) - log U(v) - log x)/A(v)."""
        x = np.asarray(x, dtype=float)
        if self.family == MOVING_MAX:
            out = 1.0 - 1.0 / x
        else:
            out = np.zeros_like(x)
        return out if out.ndim else float(out)


def functional_x_grid(x_max=1e4, n=512) -> np.ndarray:
    """Geometric level grid on [1, x_max] for the limit functionals."""
    if not x_max > 1.0 or check_int(n, "n") < 8:
        raise DataError("need x_max > 1 and n >= 8")
    return np.exp(np.linspace(0.0, math.log(x_max), n))


@dataclass(frozen=True)
class LimitField:
    """Gaussian draws of W(C_{t,x}) over a (time x level) cell grid."""

    t_grid: TimeGrid
    x_grid: np.ndarray
    cov: np.ndarray
    values: np.ndarray  # (draws, m_t, m_x)
    seed: int

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]


def _cholesky_draws(cov, draws, seed, t_grid, x_grid) -> np.ndarray:
    """(draws x width) Gaussian draws z @ L' for the Cholesky factor L of
    the (width x width) covariance of a limit law on a (time x level) grid.

    L is unique and continuous in cov, so a tiny change of cov moves the
    draws by a tiny amount; a cov that Cholesky rejects raises
    DegenerateCovarianceError naming the grid.  The normals are drawn and
    multiplied in blocks of max(1, _DRAW_BLOCK_VALUES // width) rows, the
    last one drawn full size and cut, so every product has the same shape:
    draw i depends on the seed, i and L only, and the first N draws of a
    larger run are the draws of a run of N.  draws must be an integer (a
    numpy one too), else DataError.
    """
    draws = check_int(draws, "draw count")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DegenerateCovarianceError(
            f"limit covariance on the {t_grid.m} x {x_grid.size} (time x level) "
            f"grid, x_max {x_grid[-1]:g}, is not positive definite"
        ) from None
    width = factor.shape[0]
    rows = max(1, _DRAW_BLOCK_VALUES // width)
    rng = np.random.default_rng(seed)
    vals = np.empty((-(-draws // rows) * rows, width))
    for start in range(0, vals.shape[0], rows):
        z = rng.standard_normal((rows, width))
        np.matmul(z, factor.T, out=vals[start : start + rows])
    return vals[:draws]


def simulate_limit_field(oracle, t_grid, x_grid, draws, seed=0) -> LimitField:
    """Draw the limit field on a cell grid from its oracle covariance.

    The draws are `_cholesky_draws` of the covariance, so the first N
    draws of a larger run are the draws of a run of N; a covariance that
    Cholesky rejects raises DegenerateCovarianceError.
    """
    x_grid = check_levels(x_grid)
    cov = covariance_matrix(oracle, t_grid, x_grid)
    vals = _cholesky_draws(cov, draws, seed, t_grid, x_grid)
    return LimitField(t_grid, x_grid, cov, vals.reshape(-1, t_grid.m, x_grid.size), seed)


@dataclass(frozen=True)
class LimitFunctionals:
    """Draws of the limit functionals, each of shape (draws, m_t).

    moment1 and moment2 are the limits of the normalised first and
    second log-excess moment statistics; index, location and scale are
    the limits of sqrt(k)(gamma_hat - gamma), sqrt(k)(u_hat - U)/a and
    sqrt(k)(a_hat/a - 1).
    """

    t_grid: TimeGrid
    moment1: np.ndarray
    moment2: np.ndarray
    index: np.ndarray
    location: np.ndarray
    scale: np.ndarray


def _tail_coef_moment2(g, x_max):
    """2 x_max int_{x_max}^inf ((x**g - 1)/g) x**(g-2) dx for g <= 0, in
    closed form 2 x_max**g ((1-g) (x_max**g - 1)/g + 1) / ((1-g)(1-2g))."""
    powm1 = float(_powm1_over(g, math.log(x_max)))
    return 2.0 * x_max ** g * ((1.0 - g) * powm1 + 1.0) / ((1.0 - g) * (1.0 - 2.0 * g))


def _functional_weights(x_grid, gamma_minus) -> np.ndarray:
    """(cells x 3 m_t) weights taking a field draw to its moment1, moment2
    and location values, in that order, each block of m_t columns by time.

    The level grid must start at 1; integrals over [1, x_max] use the
    trapezoid rule on the grid, plus the integral beyond x_max of the
    conditional-mean tail correction
    E[W(C_{t,x}) | W(C_{t,x_max})] = (x_max/x) W(C_{t,x_max}).  Cells
    are row-major in (time, level), as in `covariance_matrix`.
    """
    x = np.asarray(x_grid, dtype=float)
    if abs(x[0] - 1.0) > 1e-9:
        raise DataError("field level grid must start at 1")
    gm = np.asarray(gamma_minus, dtype=float)
    mt, mx = gm.size, x.size
    logx = np.log(x)
    xm = float(x[-1])

    # trapezoid weights on the level grid
    tw = np.zeros_like(x)
    dx = np.diff(x)
    tw[:-1] += 0.5 * dx
    tw[1:] += 0.5 * dx

    W = np.zeros((mt, mx, 3, mt))
    for j, g in enumerate(gm.tolist()):
        v1 = W[j, :, 0, j]
        v1[:] = tw * x ** (g - 1.0)
        v1[-1] += xm ** g / (1.0 - g)
        v1[0] -= 1.0 / (1.0 - g)
        v2 = W[j, :, 1, j]
        v2[:] = 2.0 * tw * _powm1_over(g, logx) * x ** (g - 1.0)
        v2[-1] += _tail_coef_moment2(g, xm)
        v2[0] -= 2.0 / ((1.0 - g) * (1.0 - 2.0 * g))
        W[j, 0, 2, j] = 1.0
    return W.reshape(mt * mx, 3 * mt)


def _functionals_from_moments(t_grid, params, vals) -> LimitFunctionals:
    """The five functionals from the (draws x 3 m_t) moment1 (P), moment2
    (Q) and location (U) values laid out as the `_functional_weights`
    columns: index and scale are linear in P, Q and U."""
    mt = t_grid.m
    P, Q, U = (np.ascontiguousarray(vals[:, i * mt : (i + 1) * mt]) for i in range(3))
    gp = np.broadcast_to(params.gamma_plus, (mt,))
    g = np.broadcast_to(params.gamma_minus, (mt,))
    G = (gp - 2.0 * (1 - g) ** 2 * (1 - 2 * g)) * P + 0.5 * (
        1 - g
    ) ** 2 * (1 - 2 * g) ** 2 * Q
    A = (
        (gp + g) * U
        + (3.0 - 4.0 * g) * (1.0 - g) * P
        - 0.5 * (1.0 - g) * (1.0 - 2.0 * g) ** 2 * Q
    )
    return LimitFunctionals(t_grid, P, Q, G, U, A)


def limit_functionals(field, params) -> LimitFunctionals:
    """Evaluate the five limit functionals on every draw of a field."""
    mt = field.t_grid.m
    W = _functional_weights(
        field.x_grid, np.broadcast_to(params.gamma_minus, (mt,))
    )
    draws = field.values.shape[0]
    return _functionals_from_moments(
        field.t_grid, params, field.values.reshape(draws, -1) @ W
    )


def simulate_limit_functionals(
    oracle, t_grid, x_grid, draws, seed, params
) -> LimitFunctionals:
    """Draw the limit functionals from their own Gaussian law, no field.

    moment1, moment2 and location are linear in the field, so they are
    jointly Gaussian with covariance C = W' S W, where S is the oracle
    covariance of the cells and W the `_functional_weights`; C is only
    3 m_t square.  The draws are `_cholesky_draws` of C, so a tiny change
    of S moves them by a tiny amount, and the first N draws of a larger
    run are the draws of a run of N.
    """
    x_grid = check_levels(x_grid)
    W = _functional_weights(x_grid, np.broadcast_to(params.gamma_minus, (t_grid.m,)))
    cov = W.T @ (covariance_matrix(oracle, t_grid, x_grid) @ W)
    vals = _cholesky_draws(cov, draws, seed, t_grid, x_grid)
    return _functionals_from_moments(t_grid, params, vals)


@dataclass(frozen=True)
class Gm0Variances:
    """Closed-form limit (co)variances when gamma_minus = 0.

    Derived by the Ito isometry from the Wiener representation of the
    field at fixed t: with E ~ Exp(1),

        moment1  = E[(E - 1) dB]        -> var 1
        moment2  = E[(E**2 - 2) dB]     -> var 20, cov with moment1 = 4
        index    = (gamma - 2) moment1 + moment2 / 2  -> var 1 + gamma**2
        location -> var 1, uncorrelated with both moments
        scale    = gamma location + 3 moment1 - moment2 / 2 -> var 2 + gamma**2
    """

    gamma: float
    var_moment1: float = 1.0
    var_moment2: float = 20.0
    cov_moments: float = 4.0
    var_location: float = 1.0

    @property
    def var_hill(self) -> float:
        return self.gamma ** 2

    @property
    def var_index(self) -> float:
        return 1.0 + self.gamma ** 2

    @property
    def var_scale(self) -> float:
        return 2.0 + self.gamma ** 2


def limit_variances_gm0(gamma) -> Gm0Variances:
    """Closed-form variance record for a nonnegative index (gamma_minus = 0)."""
    gamma = float(gamma)
    if gamma < 0.0:
        raise DataError("gamma_minus = 0 requires gamma >= 0")
    return Gm0Variances(gamma)


@dataclass(frozen=True)
class SecondOrderReport:
    """Second-order remainder and bound checks on (v, x) grids."""

    family: str
    v_grid: np.ndarray
    x_grid: np.ndarray
    times: np.ndarray
    max_deviation: np.ndarray  # per v: max over t, x of |remainder/A - target|
    bracket_ok: object  # pareto-gbm: bool, v >= U >= v - v**-M everywhere
    log_bound_ok: object  # pareto-gbm: bool, the 2 v**-(M+1) deviation bound
    schedule: tuple  # rows (n, k, sqrt(k) sup_t A(n/k))

    @property
    def amplitude_decays(self) -> bool:
        vals = [row[2] for row in self.schedule]
        return all(b < a for a, b in zip(vals, vals[1:]))


def second_order_check(
    truth, v_grid, x_grid, times=None, schedule=()
) -> SecondOrderReport:
    """Evaluate the normalised second-order remainder against its target.

    For every v in v_grid the remainder
    (log U_t(vx) - log U_t(v))/(a_t(v)/U_t(v)) - log x, divided by
    A_t(v), is compared with the family's target function.  For the
    pareto-gbm family the report also checks the location bracket
    v >= U_t(v) >= v - v**-M and the deviation bound
    |log U_t(vx) - log U_t(v) - log x| <= 2 v**-(M+1) + 2 (vx)**-(M+1).

    schedule rows are (n, k) pairs; the report tabulates
    (n, k, sqrt(k) sup_t A_t(n/k)).  The scale term
    sqrt(k) sup_t |a_t/U_t - gamma_plus| is not tabulated: it is
    identically 0 since a_t is defined as gamma_plus U_t.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if times is None:
        times = np.linspace(0.0, 1.0, 5)
    times = np.asarray(times, dtype=float)
    if truth.family == MOVING_MAX:
        times = times[:1]  # location is time-free

    target = truth.remainder_target(x_grid)
    max_dev = np.zeros(v_grid.size)
    bracket_ok = None
    bound_ok = None
    if truth.family == PARETO_GBM:
        bracket_ok = True
        bound_ok = True
        M = truth.bound_exponent
    for iv, v in enumerate(v_grid):
        for t in times:
            u_v = truth.location(t, v)
            u_vx = truth.location(t, v * x_grid)
            rem = np.log(u_vx) - math.log(u_v) - np.log(x_grid)
            dev = np.abs(rem / truth.bias_amplitude(t, v) - target)
            max_dev[iv] = max(max_dev[iv], float(dev.max()))
            if truth.family == PARETO_GBM:
                if not (v >= u_v >= v - v ** -M):
                    bracket_ok = False
                bound = 2.0 * v ** -(M + 1.0) + 2.0 * (v * x_grid) ** -(M + 1.0)
                if np.any(np.abs(rem) > bound):
                    bound_ok = False
    rows = []
    for n, k in schedule:
        vk = n / k
        amp = max(abs(float(truth.bias_amplitude(t, vk))) for t in times)
        rows.append((int(n), int(k), math.sqrt(k) * amp))
    return SecondOrderReport(
        truth.family, v_grid, x_grid, times, max_dev, bracket_ok, bound_ok, tuple(rows)
    )
