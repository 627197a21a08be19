"""y-profiles of invariant fields and the closed-form reference solutions.

An invariant configuration on S^3 x R+ is a pair of profiles: a 3x3
connection coefficient matrix a(y) (gauge A_y = 0) and a 3x3 tangential
Higgs matrix p(y).  Profiles are sums of scalar functions times constant
matrices.  The scalar functions take a jets.Jet, of y or of several
variables alike, so their derivatives are exact.

The closed-form reference solution has scalar profiles

    a(y) = 6(1+v) / (v^2 + 6v + 6),          v = expm1(2y),
    b(y) = 6(1+v)(2+v) / (v (v^2 + 6v + 6)),

times omega.  It carries the Nahm pole b ~ 1/y at y = 0 and decays like
6 e^{-2y} toward the trivial flat connection; the alternate variant shares b
but has a -> 2, landing on a gauge image of the flat connection instead.
Profiles are evaluated in extended precision (np.longdouble) by default:
near y ~ 1e-3 the residual algebra cancels terms of size b^2 ~ 1e6, which
float64 rounding alone would contaminate at the 1e-10 level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import jets
from .jets import Jet


class MatrixProfile(NamedTuple):
    """Sum of scalar-profile * constant-matrix terms; eval -> (value, d/dy).

    y is a node or an array of nodes, taken in np.longdouble; value and
    d/dy have shape y.shape + (3, 3)."""

    terms: tuple  # ((scalar_fn taking Jet, 3x3 matrix), ...)

    def eval(self, y):
        jy = Jet.var(np.longdouble(y))
        val = None
        der = None
        for fn, mat in self.terms:
            j = fn(jy)
            v = j.f[..., None, None] * mat
            d = j.d[..., None, None] * mat
            val = v if val is None else val + v
            der = d if der is None else der + d
        return val, der


def scaled_matrix_profile(fn, mat) -> MatrixProfile:
    return MatrixProfile(((fn, np.asarray(mat, dtype=float)),))


class InvariantField(NamedTuple):
    """Invariant configuration: connection and Higgs profiles, A_y = 0."""

    connection: MatrixProfile
    higgs: MatrixProfile


# ---------------------------------------------------------------------------
# closed-form reference solutions
# ---------------------------------------------------------------------------

def pole_a(jy):
    """Connection scalar of the reference solution."""
    v = jets.expm1(2 * jy)
    return 6 * (1 + v) / (v * v + 6 * v + 6)


def pole_b(jy):
    """Higgs scalar of the reference solution; simple pole 1/y at y = 0."""
    v = jets.expm1(2 * jy)
    return 6 * (1 + v) * (2 + v) / (v * (v * v + 6 * v + 6))


def pole_a_alt(jy):
    """Connection scalar of the alternate solution (a -> 2 at infinity)."""
    v = jets.expm1(2 * jy)
    return 2 * (v * v + 3 * v + 3) / (v * v + 6 * v + 6)


_I3 = np.eye(3)


def nahm_pole_invariant_solution() -> InvariantField:
    """The closed-form invariant solution: Nahm pole at y = 0, exponential
    decay to the trivial flat connection at infinity."""
    return InvariantField(
        scaled_matrix_profile(pole_a, _I3),
        scaled_matrix_profile(pole_b, _I3),
    )


def nahm_pole_invariant_solution_alt() -> InvariantField:
    """The companion solution sharing the same Higgs profile, whose
    connection tends to the flat-but-nontrivial endpoint a = 2."""
    return InvariantField(
        scaled_matrix_profile(pole_a_alt, _I3),
        scaled_matrix_profile(pole_b, _I3),
    )


def pole_scalars(y, dtype=float):
    """(a, b, a', b') of the reference solution at y (a node or an array of
    nodes), evaluated in extended precision and rounded to dtype.  Residual
    checks take np.longdouble: near the pole their cancellations exceed
    float64 resolution."""
    jy = Jet.var(np.longdouble(y))
    ja = pole_a(jy)
    jb = pole_b(jy)
    return tuple(np.asarray(x, dtype=dtype)[()] for x in (ja.f, jb.f, ja.d, jb.d))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10 y against log10 x, in closed form:
    sum (u - mean u)(v - mean v) / sum (u - mean u)^2."""
    us = [math.log10(x) for x in xs]
    vs = [math.log10(y) for y in ys]
    mu, mv = sum(us) / len(us), sum(vs) / len(vs)
    return (sum((u - mu) * (v - mv) for u, v in zip(us, vs))
            / sum((u - mu) ** 2 for u in us))


def higgs_scale_check(scales=(1e-1, 1e-2, 1e-3)) -> dict:
    """Profile-level scaling-limit check: s * b(s y) at fixed y = 1 converges
    to the pole profile 1/y = 1 with rate O(s^2).  Returns the relative
    errors and the fitted log-log slope."""
    errs = []
    for s in scales:
        jy = Jet.var(np.longdouble(s))
        val = float(s * pole_b(jy).f)
        errs.append(abs(val - 1.0))
    return {"scales": list(scales), "errors": errs,
            "slope": loglog_slope(scales, errs)}
