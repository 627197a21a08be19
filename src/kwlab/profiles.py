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
Profiles are evaluated in extended precision (np.longdouble), and rounded
once for a float64 reader (MatrixProfile.eval): near y ~ 1e-3 the residual
algebra cancels terms of size b^2 ~ 1e6, which float64 rounding alone would
contaminate at the 1e-10 level.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import jets
from .jets import Jet


class MatrixProfile(NamedTuple):
    """Sum of scalar-profile * constant-matrix terms; eval -> (value, d/dy)
    at y (nodes, or the NodeJet that a field's profiles share), matrix axes
    first, in longdouble or rounded to dtype: a lone term of -1, 0 and 1
    rounds its scalar first, as its products are then exact (the same bits,
    signed zeros too, while they round to finite floats); other sums once."""

    terms: tuple  # ((scalar_fn taking Jet, 3x3 matrix), ...)

    def eval(self, y, dtype=None):
        jy = y if isinstance(y, Jet) else NodeJet.var(np.longdouble(y))
        (_, lone), *more = self.terms
        first = None if more or not {*np.ravel(lone)} <= {-1, 0, 1} else dtype
        sums = None
        for fn, mat in self.terms:
            j = fn(jy)
            new = [np.multiply.outer(np.asarray(mat, first),
                                     np.asarray(x, first)) for x in (j.f, j.d)]
            sums = new if sums is None else [s + t for s, t in zip(sums, new)]
        return tuple(np.asarray(s, dtype) for s in sums)


def scaled_matrix_profile(fn, mat) -> MatrixProfile:
    """fn times mat, stored in longdouble (exact) as eval's products take it."""
    return MatrixProfile(((fn, np.asarray(mat, dtype=np.longdouble)),))


class InvariantField(NamedTuple):
    """Invariant configuration: connection and Higgs profiles, A_y = 0."""

    connection: MatrixProfile
    higgs: MatrixProfile


# ---------------------------------------------------------------------------
# closed-form reference solutions
# ---------------------------------------------------------------------------

class NodeJet(Jet):
    """A jet of y that the profiles of one field share, with v = expm1(2y)."""

    @cached_property
    def v(self):
        return jets.expm1(2 * self)


def _v(jy):
    """The jet of v = expm1(2y) from the jet of y: a NodeJet's own, once."""
    return jy.v if isinstance(jy, NodeJet) else jets.expm1(2 * jy)


def pole_a(jy):
    """Connection scalar of the reference solution."""
    v = _v(jy)
    return 6 * (1 + v) / (v * v + 6 * v + 6)


def pole_b(jy):
    """Higgs scalar of the reference solution; simple pole 1/y at y = 0."""
    v = _v(jy)
    return 6 * (1 + v) * (2 + v) / (v * (v * v + 6 * v + 6))


def pole_a_alt(jy):
    """Connection scalar of the alternate solution (a -> 2 at infinity)."""
    v = _v(jy)
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


def pole_scalar(fn, y, dtype=float):
    """(value, d/dy) of the reference solution's scalar fn (pole_a, pole_b) at
    y (a node or nodes), in longdouble rounded to dtype.  Residual checks take
    longdouble: near the pole their cancellations exceed float64's."""
    j = fn(Jet.var(np.longdouble(y)))
    return tuple(np.asarray(x, dtype=dtype)[()] for x in (j.f, j.d))


def pole_scalars(y, dtype=float):
    """(a, b, a', b') of the reference solution at y, as pole_scalar gives them."""
    (a, da), (b, db) = (pole_scalar(fn, y, dtype) for fn in (pole_a, pole_b))
    return a, b, da, db


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10 y against log10 x, in closed form:
    sum (u - mean u)(v - mean v) / sum (u - mean u)^2."""
    us = [math.log10(x) for x in xs]
    vs = [math.log10(y) for y in ys]
    mu, mv = sum(us) / len(us), sum(vs) / len(vs)
    return (sum((u - mu) * (v - mv) for u, v in zip(us, vs))
            / sum((u - mu) ** 2 for u in us))


HIGGS_SCALES = (1e-1, 1e-2, 1e-3)  # the dilations s of higgs_scale_check


def higgs_scale_check() -> dict:
    """Profile-level scaling-limit check: s * b(s y) at fixed y = 1 converges
    to the pole profile 1/y = 1 with rate O(s^2), for s in HIGGS_SCALES.
    Returns the relative errors and the fitted log-log slope."""
    errs = [abs(float(s * pole_scalar(pole_b, s, np.longdouble)[0]) - 1.0)
            for s in HIGGS_SCALES]
    return {"scales": list(HIGGS_SCALES), "errors": errs,
            "slope": loglog_slope(HIGGS_SCALES, errs)}
