"""Equivariant reduction of the first-order system to an ODE in (a, b).

For the scalar ansatz A = a(y) omega, phi = b(y) omega the Kapustin-Witten
residual closes on the two-dimensional span {dy ^ omega, omega-part of the
tangential 2-forms}; solving the two residual components for the derivative
terms yields an autonomous first-order system.  The right-hand side is
machine-derived from the forms engine (no hand transcription): the
coefficient matrices a omega, a' omega, b omega, b' omega go straight into
``forms.FieldAt``, with the derivatives as free values, and
``forms.kw_residual`` is read on them; the exact quadratic polynomial is
read off by differences from integer sample points, so any convention error
elsewhere would surface here as a closure failure.

On top of the system sit
  * the Frobenius-style series at the y = 0 pole (b ~ 1/y forced, the
    connection coefficient a(0) = 1 forced, the quadratic coefficient of a
    left free -- the single shooting parameter), built once by a direct
    recurrence with that parameter open, so that each coefficient is an
    exact polynomial in it,
  * a high-order Taylor-series stepper with blow-up detection that advances
    a batch of trajectories ("lanes") together, its coefficients from one
    Cauchy-product recurrence over all lanes, filled into a time-major
    workspace that the stepper reuses from step to step (made again only
    when lanes leave) in two numpy calls per order; a single initial-value
    run is its one-lane case, and its step coefficients are the dense
    output, and
  * a shooting solver selecting the decaying trajectory (a, b) -> (0, 0):
    a sign k-section over lanes, the bracket ends batched with its first
    pass, until the bracket reaches the smooth regime of the unstable mode,
    then inverse cubic interpolation on it, safeguarded by regula falsi,
    which recovers the closed-form reference solution.  A shooting lane
    leaves its batch as blown up once a proven certificate says that it
    cannot reach SHOOT_Y: with c = a - 1 and z = c + i b the locked system
    reads z' = i (conj(z)^2 - 1), and in the three sectors
    sin 3 arg z >= 1/2 with |z| > sqrt 2 the flow stays in the sector and
    |z|' >= |z|^2 / 2 - 1, so |z| reaches infinity within
    T(|z|) = ln((|z| + sqrt 2) / (|z| - sqrt 2)) / sqrt 2 with the sign of b
    fixed (``_certified_blowup``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from .forms import FieldAt, GeometryConventions, kw_residual

BLOWUP_THRESHOLD = 1e8
_I3 = np.eye(3)
_OFF_DIAGONAL = ~np.eye(3, dtype=bool)

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# The locked system a' = 2ab - 2b, b' = a^2 - 2a - b^2, its coefficients in
# _MONOMIALS order: what derive_reduced_system must find, and the system
# that shooting's blow-up certificate is proven for.
LOCKED_COEFFS = ((0, 0, -2, 0, 2, 0), (0, -2, 0, 1, 0, -1))


class BlowUpError(RuntimeError):
    """The state crossed BLOWUP_THRESHOLD near ``y_blow``; or, when
    ``nonfinite``, a step from ``y_blow`` was not finite, which leaves no
    sign to read off, and ``state`` is the last finite one."""

    def __init__(self, y_blow: float, state, nonfinite: bool = False):
        self.y_blow = y_blow
        self.state = tuple(float(s) for s in state)
        self.nonfinite = nonfinite
        what = "became non-finite" if self.nonfinite else "blew up"
        super().__init__(f"state {what} near y = {y_blow:.6g}")


def _scalar_residuals(conv: GeometryConventions, a, b, da, db) -> list:
    """Per node of the equal-length sequences a, b, da, db: the residual
    components of the scalar ansatz A = a omega, phi = b omega with injected
    derivatives da, db, in longdouble, plus the worst off-span deviation of
    the full residual, the second equation's included; a float triple per
    node, each that of a one-node evaluation."""
    res_t, res_n, res2 = kw_residual(FieldAt(conv, *(
        _I3[..., None] * np.asarray(x, dtype=np.longdouble)
        for x in (a, da, b, db))))
    off = np.asarray(res2, dtype=float)
    for mm in (res_t, res_n):
        diag = np.diagonal(mm, axis1=0, axis2=1)
        off = np.maximum(off, np.abs(mm[_OFF_DIAGONAL]).max(0).astype(float))
        off = np.maximum(off, np.abs(diag - diag[:, :1]).max(1).astype(float))
    return list(zip(res_t[0, 0].astype(float).tolist(),
                    res_n[0, 0].astype(float).tolist(), off.tolist()))


def _quadratic_through_samples(f) -> tuple:
    """Coefficients, in _MONOMIALS order, of the quadratic in (a, b) that
    takes the values f at the points _MONOMIALS: second differences give the
    squares, the first differences the linear terms, the mixed one ab."""
    f00, f10, f01, f20, f11, f02 = f
    c20 = (f20 - 2 * f10 + f00) / 2
    c02 = (f02 - 2 * f01 + f00) / 2
    return (f00, f10 - f00 - c20, f01 - f00 - c02, c20, f11 - f10 - f01 + f00, c02)


@dataclass
class ReducedSystem:
    """Autonomous system a' = f1(a, b), b' = f2(a, b) with exact-rational
    quadratic coefficients over the monomials 1, a, b, a^2, ab, b^2."""

    conv: GeometryConventions
    coeffs_a: tuple  # Fractions, monomial order as in _MONOMIALS
    coeffs_b: tuple
    # the same coefficients as floats, converted once, and stacked as a
    # longdouble (2, 6) matrix for lane arrays
    float_a: tuple = field(init=False, repr=False, compare=False)
    float_b: tuple = field(init=False, repr=False, compare=False)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.float_a = tuple(float(c) for c in self.coeffs_a)
        self.float_b = tuple(float(c) for c in self.coeffs_b)
        self._matrix = np.array([self.float_a, self.float_b],
                                dtype=np.longdouble)

    def rhs(self, a, b):
        """(a', b') at scalars or, elementwise, at arrays."""
        mono = (1.0, a, b, a * a, a * b, b * b)
        da = sum(c * m for c, m in zip(self.float_a, mono))
        db = sum(c * m for c, m in zip(self.float_b, mono))
        return da, db

    def rhs_residual(self, a, b, da, db):
        """How far (da, db) is from satisfying the system at (a, b); at
        arrays, elementwise."""
        fa, fb = self.rhs(a, b)
        return np.maximum(abs(da - fa), abs(db - fb))

    def jacobian(self, a: float, b: float):
        ca, cb = self.float_a, self.float_b
        j = np.empty((2, 2))
        j[0, 0] = ca[1] + 2 * ca[3] * a + ca[4] * b
        j[0, 1] = ca[2] + ca[4] * a + 2 * ca[5] * b
        j[1, 0] = cb[1] + 2 * cb[3] * a + cb[4] * b
        j[1, 1] = cb[2] + cb[4] * a + 2 * cb[5] * b
        return j

    def is_stationary(self, a: float, b: float, tol: float = 1e-12) -> bool:
        da, db = self.rhs(a, b)
        return abs(da) <= tol and abs(db) <= tol


def derive_reduced_system(conv: GeometryConventions) -> ReducedSystem:
    """Reconstruct the exact quadratic right-hand side from engine samples.

    The residual components are affine in (a', b') with unit coefficients;
    evaluating at the integer (a, b) sample points _MONOMIALS, the
    monomials' own exponents, and taking differences recovers the
    polynomial exactly.  A closure failure (residual leaving the scalar
    span, or a nonlinear derivative dependence) raises.
    """
    # one engine evaluation of the affineness and closure probes, the
    # zero-derivative residual at the sample points, (0, 0) first, and the
    # derivatives' slopes at (0, 0)
    probes = ((0.3, -0.7), (1.2, 0.4))
    samples = ([(a, b, d, d) for a, b in probes for d in (0.0, 1.0, 2.0)]
               + [(a, b, 0.0, 0.0) for a, b in _MONOMIALS]
               + [(0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)])
    res = _scalar_residuals(conv, *zip(*samples))
    probed, at_rest, (along_a, along_b) = res[:6], res[6:12], res[12:]
    for i in (0, 3):
        (r_t0, r_n0, off0), (r_t1, r_n1, off1), (r_t2, r_n2, off2) = probed[i:i + 3]
        if max(off0, off1, off2) > 1e-12:
            raise ValueError("calibration inconsistent: residual leaves the scalar span")
        if abs((r_t2 - r_t1) - (r_t1 - r_t0)) > 1e-12 or abs(
            (r_n2 - r_n1) - (r_n1 - r_n0)
        ) > 1e-12:
            raise ValueError("calibration inconsistent: derivative terms not affine")
    # coefficient of the derivative in each component
    slope_n = along_a[1] - at_rest[0][1]
    slope_t = along_b[0] - at_rest[0][0]

    # residual = slope * derivative + inhomogeneous part = 0: a' from the
    # normal component, b' from the tangential one
    sys = ReducedSystem(conv, *(_quadratic_through_samples(
        [Fraction(-r[comp] / slope).limit_denominator(10**6) for r in at_rest])
        for comp, slope in ((1, slope_n), (0, slope_t))))

    # reconstruction must reproduce the engine at non-sample points
    a, b = np.array([0.37, 2.5]), np.array([-1.21, 0.8])
    for r_t, r_n, _ in _scalar_residuals(conv, a, b, *sys.rhs(a, b)):
        if max(abs(r_t), abs(r_n)) > 1e-10:
            raise ValueError("calibration inconsistent: reconstruction mismatch")
    return sys


# ---------------------------------------------------------------------------
# series expansion at the pole
# ---------------------------------------------------------------------------

class IndicialExpansion(NamedTuple):
    """Truncated pole expansion b = 1/y + sum b_k y^k, a = 1 + sum a_k y^k.

    The series forces b_{-1} = 1 (simple pole), a_0 = 1 (any other constant
    feeds a 1/y term into a', i.e. a logarithm), and leaves the quadratic
    coefficient of a free.
    """

    order: int
    a_coeffs: dict  # power -> Fraction, starting at 0
    b_coeffs: dict  # power -> Fraction, starting at -1

    def state(self, y: float):
        a = sum(float(c) * y**k for k, c in self.a_coeffs.items())
        b = sum(float(c) * y**k for k, c in self.b_coeffs.items())
        return a, b


class PoleSeries(NamedTuple):
    """The pole series with its free coefficient p open: each coefficient is
    a polynomial in p, a tuple of Fractions from the constant term up."""

    order: int
    a_polys: dict  # power, as in IndicialExpansion -> polynomial in p
    b_polys: dict

    def at(self, p) -> IndicialExpansion:
        """The series at one value of p, exactly (Horner on Fractions)."""
        p = Fraction(p)

        def value(c):
            out = c[-1]
            for x in c[-2::-1]:
                out = out * p + x
            return out

        return IndicialExpansion(
            self.order, {k: value(c) for k, c in self.a_polys.items()},
            {k: value(c) for k, c in self.b_polys.items()})


def _poly_add(u: tuple, v: tuple) -> tuple:
    return tuple(x + y for x, y in zip_longest(u, v, fillvalue=0))


def _poly_mul(u: tuple, v: tuple) -> tuple:
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return tuple(out)


def indicial_expand(sys: ReducedSystem, order: int) -> PoleSeries:
    """Match the pole series order by order, with the free coefficient p of
    y^2 in a left open; raises on inconsistency.

    At power k the unknowns a_{k+1}, b_{k+1} enter only as (k + 1) x_{k+1}
    on the left and through their products with b_{-1} = 1 on the right.
    So the a-equation (with b_{k+1} = 0) gives a_{k+1} as the rest of that
    power over k + 1 - c_a[4], and the b-equation, with a_{k+1} known, gives
    b_{k+1} as its rest over k + 1 - 2 c_b[5].  Where k + 1 - c_a[4]
    vanishes the rest must vanish too; at k + 1 = 2 (c_a[4] = 2 on the
    derived system) that coefficient is the free one, a_2 = p.  The constant
    a_0 is solved for, not chosen: any other value would feed a 1/y term
    into a', i.e. a logarithm."""
    if order > 8:
        raise ValueError("expansion order limited to 8")
    # consistency at the pole: b' = f2 demands -1 = the b^2 coefficient of f2
    if sys.coeffs_b[5] != -1:
        raise ValueError("series matching inconsistent at order -2 (pole weight)")
    one = {0: (Fraction(1),)}
    a, b = {}, {-1: (Fraction(1),)}

    def known_part(coeffs, k):
        # the y^k coefficient of coeffs . (1, a, b, a^2, ab, b^2) over the
        # coefficients matched so far
        out = (Fraction(0),)
        for c, u, v in zip(coeffs, (one, a, b, a, a, b), (one, one, one, a, b, b)):
            if c != 0:
                for i, x in u.items():
                    if k - i in v:
                        out = _poly_add(out, _poly_mul((c,), _poly_mul(x, v[k - i])))
        return out

    for k in range(-1, order):
        rest, pivot = known_part(sys.coeffs_a, k), k + 1 - sys.coeffs_a[4]
        if pivot != 0:
            a[k + 1] = tuple(x / pivot for x in rest)
        elif any(rest):
            raise ValueError(f"series matching inconsistent at order {k}")
        else:
            a[k + 1] = (Fraction(0), Fraction(1)) if k + 1 == 2 else (Fraction(0),)
        # k + 1 - 2 c_b[5] = k + 3 > 0
        b[k + 1] = tuple(x / (k + 1 - 2 * sys.coeffs_b[5])
                         for x in known_part(sys.coeffs_b, k))
    return PoleSeries(order, a, b)


# ---------------------------------------------------------------------------
# initial-value integration and shooting
# ---------------------------------------------------------------------------

# Taylor-series stepper (Jorba and Zou, Exp. Math. 14 (2005) 99-117).  The
# integrator is hand-rolled rather than delegated: the decaying trajectory is
# a saddle connection, so errors made near the pole are amplified by e^{2y}
# downstream, and meeting a 1e-6 sup-norm over [0.1, 10] requires carrying
# the state in extended precision, which library integrators do not offer.
# The right-hand side is a quadratic polynomial, so a step's Taylor
# coefficients follow exactly from a Cauchy-product recurrence, and a high
# order reaches y = 8 in a few dozen steps.
TAYLOR_ORDER = 28
TAYLOR_EPS = 1e-20  # size of the last two terms, relative to max(1, |a| + |b|)
_H_MIN = 1e-12  # a lane whose step falls below this leaves as non-finite

# how a lane leaves the stepper
_REACHED, _BLOWN, _NONFINITE = "reached", "blow", "non-finite"


def taylor_workspace(dtype, k: int, order: int) -> tuple:
    """The array ``taylor_coefficients`` fills for k lanes to ``order`` in
    dtype, and its views of it for each order n < ``order``: (the factors
    (a, a, b) over times 0..n, the factors (a, b, b) over times n..0, where
    their sums go, the monomials at n, the rows at n + 1)."""
    x = np.zeros((order + 1, 11, k), dtype=dtype)
    x[0, 0] = 1
    t = x.transpose(1, 2, 0)
    return x, tuple(zip([t[1:4, :, :n + 1] for n in range(order)],
                        [t[2:5, :, n::-1] for n in range(order)],
                        x[:-1, 6:11:2], x[:-1, 0:11:2], x[1:, 1:5]))


def taylor_coefficients(matrix, a, b, order: int, work=None) -> np.ndarray:
    """Taylor coefficients to ``order`` of the solutions through the lane
    states (a, b) of a' = c_a . m, b' = c_b . m, where m are the monomials of
    _MONOMIALS and ``matrix`` stacks c_a and c_b; shape (2, k, order + 1).

    With x(t) = sum_n x_n t^n, x_{n+1} is the t^n coefficient of
    c . m(a(t), b(t)) / (n + 1), whose products are Cauchy products of the
    lower coefficients.  ``work``, from ``taylor_workspace`` for this dtype,
    lane count and order (made here when None), is time-major, (order + 1,
    11, k), and each order holds the rows (1|0, a, a, b, b, ., aa, ., ab, .,
    bb): its stride-2 rows are the monomials of _MONOMIALS, and rows 1-3 and
    2-4 over time are the Cauchy factors (a, a, b) and (a, b, b).  The rows
    of ``matrix``, repeated as (a, a, b, b), are divided by n + 1 for every
    order at once, an (order, 4, 6) array; then per order two numpy calls
    fill the workspace: one ``np.vecdot`` of the factors over time into aa,
    ab, bb, and one matmul with that order's rows into the next order.  Per
    lane the arithmetic does not depend on the batch: vecdot is a gufunc,
    and for longdouble it has no BLAS kernel, so each row's sum is its own,
    taken sequentially from time 0 (strided or not); numpy's longdouble
    matmul likewise sums c*m from 0 in monomial order.  On object arrays of
    Fractions it is exact.

    The result is a view of ``work``, valid until the next call on it."""
    if work is None:
        work = taylor_workspace(np.result_type(matrix, a, b), len(a), order)
    x, steps = work
    if x.shape != (order + 1, 11, len(a)):
        raise ValueError(f"workspace of shape {x.shape} for {len(a)} lanes "
                         f"to order {order}")
    x[0, 1:5] = a, a, b, b
    rows = (matrix[[0, 0, 1, 1]]
            / np.arange(1, order + 1).astype(x.dtype)[:, None, None])
    for (left, right, sums, mono, nxt), scaled in zip(steps, rows):
        np.vecdot(left, right, out=sums)
        np.matmul(scaled, mono, out=nxt)
    return x[:, 1:4:2].transpose(1, 2, 0)


def _power_sum(c, t):
    """sum_n c[..., n] t^n, with t broadcast against c[..., 0]: the powers
    t^0..t^N by one running product, then one ``np.vecdot``, each lane's sum
    taken sequentially from n = 0, so per lane it does not depend on the
    batch."""
    powers = np.empty((*t.shape, c.shape[-1]), dtype=c.dtype)
    powers[..., 0] = 1
    powers[..., 1:] = t[..., None]
    return np.vecdot(c, np.multiply.accumulate(powers, axis=-1, out=powers))


def _step_sizes(c) -> list:
    """Per lane, the step at which each of the last two terms of the series
    is TAYLOR_EPS * max(1, |a| + |b|), the smaller of the two; nan where
    those coefficients are not finite."""
    n = c.shape[-1] - 1
    ends = c[:, :, [0, n - 1, n]]
    mag = (np.abs(ends[0]) + np.abs(ends[1])).astype(float)
    out = []
    # Python's float ** per lane: numpy's vectorised power may round
    # differently, and the step sequence must not depend on the batch
    for m0, *last in mag.tolist():
        tol = TAYLOR_EPS * max(1.0, m0)
        out.append(min((tol / m) ** (1.0 / j) if m else math.inf
                       for j, m in zip((n - 1, n), last))
                   if all(map(math.isfinite, last)) else math.nan)
    return out


class IvpResult(NamedTuple):
    """A run's step boundaries, with each step's Taylor coefficients for
    dense output."""

    knots: np.ndarray  # longdouble, the n step boundaries
    coeffs: np.ndarray  # longdouble (n - 1, 2, order + 1), step i from knots[i]
    end: np.ndarray  # longdouble (a, b) at knots[-1]

    @property
    def ys(self) -> np.ndarray:
        return self.knots.astype(float)

    def at(self, y):
        """(a, b) at y from the power sum of the step that holds y (the
        first or the last step beyond the knots); at an array of y, float
        arrays of a and b, each entry bit-identical to the call at that node
        alone.  The nodes are evaluated step by step, each step's
        coefficients read in place."""
        yl = np.asarray(y, dtype=np.longdouble)
        i = np.clip(np.searchsorted(self.knots, yl, side="right") - 1, 0,
                    len(self.coeffs) - 1)
        t = yl - self.knots[i]
        out = np.empty((*yl.shape, 2))
        # np.unique would import numpy.ma, a megabyte, on its first call
        for step in np.flatnonzero(np.bincount(i.ravel())):
            at = i == step
            out[at] = _power_sum(self.coeffs[step], t[at][:, None])
        if out.ndim == 1:
            return float(out[0]), float(out[1])
        return out[..., 0], out[..., 1]


class _LaneRun(NamedTuple):
    ys: np.ndarray  # per lane, where it left the batch
    states: np.ndarray  # shape (2, k), longdouble, the state it left with
    status: list  # _REACHED, _BLOWN or _NONFINITE per lane


_SQRT2 = math.sqrt(2.0)
# Relative margin of each certificate inequality.  The test reads the
# float64 rounding of the longdouble state, a few ulps off in rho, rho^3 and
# T(rho) (T's relative error stays below 1e-11 wherever T < SHOOT_Y, where
# rho - sqrt 2 > 3e-5), so 1e-9 holds the verdict for the exact state.
_CERT_MARGIN = 1e-9


def _certified_blowup(y, s, y_end) -> np.ndarray:
    """Per lane, whether the locked system's flow from the state s (shape
    (2, k)) at y provably blows up before y_end, with the sign of b fixed.

    With c = a - 1 and z = c + i b the system reads z' = i (conj(z)^2 - 1),
    so in polar form rho' = rho^2 sin 3theta - sin theta and theta' =
    rho cos 3theta - cos theta / rho.  In each of the three sectors
    sin 3theta >= 1/2 (around theta = pi/6, 5 pi/6 and 3 pi/2) the region
    rho > sqrt 2 is forward-invariant: rho grows there, and on the sector's
    edges theta' (+-rho sqrt 3 / 2 - cos theta / rho) points inward.  So
    rho' >= rho^2 / 2 - 1 holds from then on, and rho reaches infinity
    before y + T(rho), T(rho) = ln((rho + sqrt 2) / (rho - sqrt 2)) / sqrt 2,
    while b keeps its sign: negative around 3 pi/2, positive in the other
    two.  A lane is certified when rho > sqrt 2, Im z^3 = 3 c^2 b - b^3 >=
    rho^3 / 2 (that is sin 3theta >= 1/2) and y + T(rho) < y_end, each by
    _CERT_MARGIN.  Per lane in Python floats, so that the verdict does not
    depend on the batch."""
    out = []
    for yl, a, b in zip(y.astype(float).tolist(), *s.astype(float).tolist()):
        c = a - 1.0
        r2 = c * c + b * b
        if (r2 > 2.0 * (1.0 + _CERT_MARGIN) and b * (3.0 * c * c - b * b)
                >= (0.5 + _CERT_MARGIN) * r2 * math.sqrt(r2)):
            rho = math.sqrt(r2)
            t = math.log((rho + _SQRT2) / (rho - _SQRT2)) / _SQRT2
            out.append(yl + t * (1.0 + _CERT_MARGIN) < y_end)
        else:
            out.append(False)
    return np.array(out, dtype=bool)


def _taylor_lanes(sys: ReducedSystem, y0: float, states, y1: float,
                  steps=None, certify: bool = False) -> _LaneRun:
    """Advance k lanes (``states`` of shape (2, k)) from y0 to y1 with the
    order-TAYLOR_ORDER Taylor stepper, each lane with its own y and step.

    All live lanes advance in one array step; the coefficients come from
    ``taylor_coefficients`` on the system's longdouble matrix, in one
    workspace that serves every step until a lane leaves.  A lane
    leaves the batch when it reaches y1; as blown, when its |a| + |b|
    crosses BLOWUP_THRESHOLD or, with ``certify`` (the locked system only),
    when ``_certified_blowup`` proves that it cannot reach y1; or, as
    non-finite, when its coefficients or the state they give are not finite
    or its step falls below _H_MIN, keeping its last finite state.  Per lane
    the arithmetic is that of a single trajectory, so a lane's result does
    not depend on its batch.  ``steps`` (two lists, one-lane runs only)
    collects the step boundaries and each step's coefficients.
    """
    if certify and (sys.coeffs_a, sys.coeffs_b) != LOCKED_COEFFS:
        raise ValueError("the blow-up certificate is proven only for the "
                         f"locked coefficients {LOCKED_COEFFS}, got "
                         f"{tuple(map(str, sys.coeffs_a + sys.coeffs_b))}")
    ld = np.longdouble
    s = np.array(states, dtype=ld)
    k = s.shape[1]
    y_end = ld(y1)
    y = np.full(k, ld(y0))
    out = _LaneRun(np.empty(k), np.empty((2, k), dtype=ld), [_REACHED] * k)
    lanes = np.arange(k)  # batch index of each live lane
    live = y < y_end
    work = None
    while True:
        if not live.all():
            gone = lanes[~live]
            out.ys[gone] = y[~live]
            out.states[:, gone] = s[:, ~live]
            lanes, y, s = lanes[live], y[live], s[:, live]
            work = None
        if not lanes.size:
            return out
        if work is None:
            work = taylor_workspace(ld, lanes.size, TAYLOR_ORDER)
        c = taylor_coefficients(sys._matrix, s[0], s[1], TAYLOR_ORDER, work)
        h = np.array(_step_sizes(c), dtype=ld)
        # a step clipped to the end point lands on it exactly: y + (y_end - y)
        # may round below y_end
        last = h >= y_end - y
        h = np.where(last, y_end - y, h)
        s_new = _power_sum(c, h)
        nonfinite = ~((h >= _H_MIN) & np.isfinite(s_new).all(0))
        y = np.where(nonfinite, y, np.where(last, y_end, y + h))
        s = np.where(nonfinite, s, s_new)
        if steps is not None and not nonfinite[0]:
            steps[0].append(y[0])
            steps[1].append(c[:, 0].copy())  # c is overwritten next step

        sf = s.astype(float)
        blown = np.abs(sf[0]) + np.abs(sf[1]) > BLOWUP_THRESHOLD
        if certify:
            blown |= _certified_blowup(y, s, y1)
        for mask, status in ((blown, _BLOWN), (nonfinite, _NONFINITE)):
            for lane in lanes[mask]:
                out.status[lane] = status
        live = ~(blown | nonfinite) & (y < y_end)


def integrate_ivp(sys: ReducedSystem, y0: float, state, y1: float) -> IvpResult:
    """Extended-precision integration of the reduced system (the one-lane
    case of the Taylor stepper); raises BlowUpError when the state norm
    crosses the blow-up threshold or a step turns non-finite."""
    if not 0 < y0 < y1:
        raise ValueError("integration endpoints must be positive and "
                         f"increasing, got {y0!r} -> {y1!r}")
    s = np.array([[state[0]], [state[1]]], dtype=np.longdouble)
    if not np.all(np.isfinite(s.astype(float))):
        raise ValueError("initial state must be finite")
    knots, coeffs = steps = ([np.longdouble(y0)], [])
    run = _taylor_lanes(sys, y0, s, y1, steps)
    if run.status[0] != _REACHED:
        raise BlowUpError(float(run.ys[0]), run.states[:, 0],
                          nonfinite=run.status[0] == _NONFINITE)
    return IvpResult(np.array(knots), np.array(coeffs), run.states[:, 0])


class ShootResult(NamedTuple):
    param: float
    result: IvpResult
    trace: list  # (param, outcome, sign, y where its run ended) per point
    # classification rounds, not runs: the bracket ends', then one per
    # coarse pass; the ends share their run with the first pass
    coarse_passes: int
    falsi_runs: int  # one-lane root-step runs on U
    u_final: float  # U at the returned parameter


def _inverse_cubic(known: dict, lo: float, hi: float):
    """The p where the cubic in U through the two known (p, U) nearest at or
    below lo and the two nearest at or above hi gives U = 0, by Lagrange's
    form in U (inverse interpolation, Brent 1973, ch. 4); None unless there
    are four such points with distinct U."""
    ps = (sorted(p for p in known if p <= lo)[-2:]
          + sorted(p for p in known if p >= hi)[:2])
    us = [known[p] for p in ps]
    if len(set(us)) < 4:
        return None
    return sum(pi * math.prod(uj / (uj - ui) for uj in us if uj != ui)
               for pi, ui in zip(ps, us))


SHOOT_LANES = 15  # interior points classified per coarse pass
SHOOT_Y = 8.0  # where the unstable-mode functional U is read
SHOOT_ORDER = 6  # order of the pole series the shooting starts from
_U_SCALE = math.exp(-2.0 * SHOOT_Y)


def _classify_lanes(sys: ReducedSystem, states, y0: float, y_end: float,
                    steps=None):
    """One batched run from the (2, k) initial ``states``; per lane
    (outcome, sign, y, U): 'blow' with the sign of b at blow-up, 'reached'
    with U = (a - b)(y_end) e^{-2 y_end} and sign -sign(U), or 'non-finite'
    (no sign); y is where the lane's run ended (for a lane certified to
    blow up, where the certificate fired) and U is None unless the lane
    reached y_end.  ``steps`` (one-lane runs only) collects the run's steps
    as in ``_taylor_lanes``."""
    run = _taylor_lanes(sys, y0, states, y_end, steps, certify=True)
    outcomes = []
    for lane, status in enumerate(run.status):
        y = float(run.ys[lane])
        if status == _NONFINITE:
            outcomes.append((_NONFINITE, 0.0, y, None))
        elif status == _BLOWN:
            b = float(run.states[1, lane])
            outcomes.append((_BLOWN, 1.0 if b > 0 else -1.0, y, None))
        else:
            u = float(run.states[0, lane] - run.states[1, lane]) * _U_SCALE
            outcomes.append((_REACHED, 1.0 if u < 0 else -1.0, y, u))
    return outcomes


def shoot_for_decay(sys: ReducedSystem, series: PoleSeries, y0: float = 0.1,
                    bracket=(-1.0, -0.3), y_end: float = 12.0) -> ShootResult:
    """Locate the free series coefficient p whose trajectory decays to the
    stationary point (0, 0), and integrate that trajectory to ``y_end``.

    Linearised at (0, 0) the system is a' = -2b, b' = -2a, so a - b is the
    unstable mode, and the trajectories on either side of the decaying one
    blow up with opposite signs of b.  The search has two phases, each run
    to SHOOT_Y:

    * coarse: while a bracket end blows up before SHOOT_Y, one batched run
      classifies SHOOT_LANES equally spaced interior points by their sign
      and keeps the sub-interval where it changes, a (SHOOT_LANES + 1)-fold
      narrowing; the first pass's points share one run with the bracket
      ends.  The sign is -sign(U) for a lane that reaches SHOOT_Y, and b's
      for a lane that blows up.  A lane is called blown up as soon as it
      provably cannot reach SHOOT_Y (``_certified_blowup``: |z| > sqrt 2,
      sin 3 arg z >= 1/2 and y + T(|z|) < SHOOT_Y for z = a - 1 + i b, a
      forward-invariant sector in which |z| reaches infinity within T and
      b keeps its sign), or at BLOWUP_THRESHOLD;
    * fine: once both ends reach SHOOT_Y, a root step on the smooth
      U(p) = (a - b)(SHOOT_Y) e^{-2 SHOOT_Y}, one one-lane run per step.
      The known (p, U) are those of the last coarse pass's lanes that
      reached SHOOT_Y, of the bracket ends and of each one-lane run.  A step
      takes the inverse cubic through the two known points nearest below
      the bracket and the two nearest above it (``_inverse_cubic``), if
      their U are distinct and its point lies strictly inside the bracket,
      and otherwise the Illinois regula falsi point (Dowell and Jarratt,
      BIT 1971), whose weights every step updates.  The series state is
      formed in float64, so U is piecewise constant in p; the search stops
      once both ends give the same initial state or the next point is not
      strictly inside, and returns the end with the smaller |U|.

    ``series`` is the pole series from ``indicial_expand``, its coefficients
    polynomials in p, evaluated exactly once per classified p; each
    bracket end carries its initial state and the steps of its one-lane run
    (none for an end from a coarse pass).  The returned trajectory resumes
    the chosen end's run: its steps that end below both SHOOT_Y and
    ``y_end`` are those a fresh run from the same state takes (the stepper
    is deterministic per lane, and neither run clipped them), so one
    ``integrate_ivp`` continues from the last of them, with the state
    there, the next step's zeroth coefficients.  A run that turns
    non-finite has no sign and raises, as does a one-lane run that blows up
    before SHOOT_Y.
    The certificate is proven for the locked system only: on a system with
    other coefficients than LOCKED_COEFFS the first run raises ValueError.
    """
    if not (math.isfinite(y0) and 0 < y0 <= 0.2):
        raise ValueError("series initial data is only trusted for "
                         f"0 < y0 <= 0.2, got {y0!r}")
    trace = []

    def state(p):
        return series.at(p).state(y0)

    def record(params, outcomes):
        for p, out in zip(params, outcomes):
            trace.append((p, *out[:3]))
            if out[0] == _NONFINITE:
                raise ValueError(f"shooting run at parameter {p!r} turned "
                                 f"non-finite near y = {out[2]:.6g}")
        return outcomes

    def run(states, steps=None):
        return _classify_lanes(sys, np.array(states).T, y0, SHOOT_Y, steps)

    def no_steps():
        return [np.longdouble(y0)], []

    def interior(lo, hi):
        width = hi - lo
        params = [lo + width * (i / (SHOOT_LANES + 1))
                  for i in range(1, SHOOT_LANES + 1)]
        return params, [state(p) for p in params]

    # the bracket ends run in one batch with the first coarse pass's
    # interior points, which enter the trace only if that pass is made
    lo, hi = bracket
    s_lo, s_hi = state(lo), state(hi)
    w_lo = w_hi = no_steps()
    params, states = interior(lo, hi)
    outcomes = run([s_lo, s_hi, *states])
    out_lo, out_hi = record((lo, hi), outcomes[:2])
    if out_lo[1] == out_hi[1]:
        raise ValueError("decay manifold not bracketed")
    outcomes = outcomes[2:]
    coarse = 1
    known = {}  # p -> U of the last coarse pass's lanes that reached SHOOT_Y
    while _BLOWN in (out_lo[0], out_hi[0]):
        if coarse > 1:
            params, states = interior(lo, hi)
            outcomes = run(states)
        before = (lo, hi)
        coarse += 1
        record(params, outcomes)
        known = {p: out[3] for p, out in zip(params, outcomes)
                 if out[0] == _REACHED}
        for p, s, out in zip(params, states, outcomes):
            if out[1] != out_lo[1]:
                hi, s_hi, out_hi, w_hi = p, s, out, no_steps()
                break
            lo, s_lo, out_lo, w_lo = p, s, out, no_steps()
        if (lo, hi) == before:
            raise ValueError("coarse shooting phase stalled at parameter "
                             f"bracket [{lo!r}, {hi!r}]")

    # Illinois regula falsi, its point replaced by the inverse cubic where
    # that lies inside; u_* are the true U, f_* the weighted ones, and each
    # one-lane run adds its (p, U) to the known ones
    u_lo, u_hi = out_lo[3], out_hi[3]
    f_lo, f_hi = u_lo, u_hi
    known.update({lo: u_lo, hi: u_hi})
    kept = 0  # which end the last step kept: -1 lo, +1 hi
    falsi = 0
    while s_lo != s_hi:
        p = _inverse_cubic(known, lo, hi)
        if p is None or not lo < p < hi:
            p = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < p < hi:
            break
        s = state(p)
        # a point with an end's initial state has that end's U and run
        u, w = {s_lo: (u_lo, w_lo), s_hi: (u_hi, w_hi)}.get(s, (None, None))
        if u is None:
            w = no_steps()
            (out,) = record([p], run([s], w))
            falsi += 1
            if out[0] != _REACHED:
                raise ValueError(
                    f"root-step run at parameter {p!r} blew up near "
                    f"y = {out[2]:.6g}, before y = {SHOOT_Y}")
            u = known[p] = out[3]
        if (u < 0) == (u_lo < 0):
            lo, s_lo, u_lo, f_lo, w_lo = p, s, u, u, w
            if kept == 1:
                f_hi /= 2
            kept = 1
        else:
            hi, s_hi, u_hi, f_hi, w_hi = p, s, u, u, w
            if kept == -1:
                f_lo /= 2
            kept = -1
    param, s, u_final, (knots, coeffs) = (
        (lo, s_lo, u_lo, w_lo) if abs(u_lo) <= abs(u_hi)
        else (hi, s_hi, u_hi, w_hi))

    done = sum(y < min(SHOOT_Y, y_end) for y in knots[1:])
    tail = integrate_ivp(sys, knots[done],
                         coeffs[done][:, 0] if done else s, y_end)
    res = IvpResult(np.array([*knots[:done], *tail.knots]),
                    np.array([*coeffs[:done], *tail.coeffs]), tail.end)
    return ShootResult(param=param, result=res, trace=trace,
                       coarse_passes=coarse, falsi_runs=falsi,
                       u_final=u_final)
