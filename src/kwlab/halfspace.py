"""Closed-form model solutions on the flat half-space R^3 x R+.

Two models are provided: the Nahm pole field (A = 0, phi = sum t_i dx_i / y)
and the simplest knot-singular field, with pole weight doubled along the
x3-axis.  Both are exact solutions of the first-order system, verified
pointwise by ``kw_residual_flat``; their coefficients are homogeneous of
degree -1, so they are fixed points of the dilation pullback.

The flat-chart star orientation is a single global sign, fixed by requiring
the Nahm pole field to solve the equations exactly (FLAT_STAR_SIGN below,
volume form dy ^ dx1 ^ dx2 ^ dx3); a regression test locks it.  The same
calibration forces the knot-singular field to be the chart reflection of the
commonly displayed coefficient table: here

    f1 = (x1 t1 + x2 t2)/sqrt(r^2+y^2),   f2 = (x1 t2 - x2 t1)/sqrt(r^2+y^2),
    f3 = (1 + y^2/(r^2+y^2)) t3,
    A  = (x2 dx1 - x1 dx2) (x) t3 / (r^2+y^2),

which is the unique nearby sign assignment solving both equations in the
calibrated orientation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .jets import Dual4
from .su2 import bracket

# orientation sign of the flat 4d star relative to dx1^dx2^dx3^dy; the value
# -1 (volume dy^dx1^dx2^dx3) is the one that annihilates the Nahm pole field
FLAT_STAR_SIGN = -1


@dataclass(frozen=True)
class HalfspacePoint:
    x1: float
    x2: float
    x3: float
    y: float

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)

    def scaled(self, s: float) -> "HalfspacePoint":
        return HalfspacePoint(self.x1 * s, self.x2 * s, self.x3 * s, self.y * s)


@dataclass
class FieldSample:
    """Values and first partials of the coefficient fields at one point.

    A[i][a]  : t_i coefficient of the dx_a connection component (A_y = 0)
    dA[i][a][mu] : partial derivative wrt (x1, x2, x3, y)
    phi, dphi: same layout for the Higgs field.
    """

    A: np.ndarray
    dA: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


@dataclass
class FlatModelField:
    name: str
    evaluator: object
    scale: float = 1.0  # dilation parameter of a pullback wrapper

    def eval(self, p: HalfspacePoint) -> FieldSample:
        if p.y <= 0:
            raise ValueError("boundary evaluation")
        s = self.scale
        if s != 1.0:
            base = self.evaluator(p.scaled(s))
            return FieldSample(base.A * s, base.dA * (s * s),
                               base.phi * s, base.dphi * (s * s))
        return self.evaluator(p)


def _sample_from_duals(A_dual, phi_dual) -> FieldSample:
    A = np.zeros((3, 3), dtype=np.longdouble)
    dA = np.zeros((3, 3, 4), dtype=np.longdouble)
    phi = np.zeros((3, 3), dtype=np.longdouble)
    dphi = np.zeros((3, 3, 4), dtype=np.longdouble)
    for i in range(3):
        for a in range(3):
            A[i, a] = A_dual[i][a].f
            dA[i, a, :] = A_dual[i][a].g
            phi[i, a] = phi_dual[i][a].f
            dphi[i, a, :] = phi_dual[i][a].g
    return FieldSample(A, dA, phi, dphi)


def _dual_zero(x1):
    return x1 * 0


def _nahm_pole_eval(p: HalfspacePoint) -> FieldSample:
    x1, x2, x3, y = Dual4.vars(
        np.longdouble(p.x1), np.longdouble(p.x2), np.longdouble(p.x3), np.longdouble(p.y)
    )
    z = _dual_zero(x1)
    inv_y = 1 / y
    A = [[z, z, z], [z, z, z], [z, z, z]]
    phi = [[inv_y, z, z], [z, inv_y, z], [z, z, inv_y]]
    return _sample_from_duals(A, phi)


def _singular_eval(p: HalfspacePoint) -> FieldSample:
    from . import jets

    x1, x2, x3, y = Dual4.vars(
        np.longdouble(p.x1), np.longdouble(p.x2), np.longdouble(p.x3), np.longdouble(p.y)
    )
    z = _dual_zero(x1)
    R2 = x1 * x1 + x2 * x2 + y * y
    Rt = jets.sqrt(R2)
    inv_y = 1 / y
    # f1 = (x1 t1 + x2 t2)/Rt, f2 = (x1 t2 - x2 t1)/Rt, f3 = (1 + y^2/R2) t3;
    # layout phi_ia[i][a] = t_i coefficient of dx_a
    phi_ia = [
        [x1 / (Rt * y), (-1) * x2 / (Rt * y), z],
        [x2 / (Rt * y), x1 / (Rt * y), z],
        [z, z, (1 + y * y / R2) * inv_y],
    ]
    A_ia = [
        [z, z, z],
        [z, z, z],
        [x2 / R2, (-1) * x1 / R2, z],
    ]
    return _sample_from_duals(A_ia, phi_ia)


def nahm_pole_field() -> FlatModelField:
    """A = 0, phi = sum_i t_i dx_i / y: the basic boundary model."""
    return FlatModelField("nahm-pole", _nahm_pole_eval)


def nahm_singular_field() -> FlatModelField:
    """The simplest knot-singular model: pole weight 2 t3 along the x3-axis
    (f3 -> 2 t3 as r -> 0), abelian connection winding about the axis."""
    return FlatModelField("nahm-singular", _singular_eval)


def scale_pullback(fld: FlatModelField, s: float) -> FlatModelField:
    """Dilation pullback (s A(s p), s phi(s p)); degree -1 fields are fixed."""
    if s <= 0:
        raise ValueError("scale factor must be positive")
    base = fld.evaluator
    return FlatModelField(fld.name, base, scale=fld.scale * s)


# pairs (mu, nu) -> dual pair and sign under the star with volume
# dx1^dx2^dx3^dy; index order (x1, x2, x3, y), final sign FLAT_STAR_SIGN
_STAR_PAIRS = {
    (0, 1): ((2, 3), 1),
    (2, 3): ((0, 1), 1),
    (1, 2): ((0, 3), 1),
    (0, 3): ((1, 2), 1),
    (0, 2): ((1, 3), -1),
    (1, 3): ((0, 2), -1),
}

_PAIRS = tuple(sorted({k for k in _STAR_PAIRS}))


def kw_residual_flat(fld: FlatModelField, p: HalfspacePoint,
                     star_sign: int = FLAT_STAR_SIGN):
    """Pointwise residual norms (eq1, eq2) of the flat-chart system.

    eq1 is |F_A - phi^phi - *d_A phi| over the six 2-form components, eq2 the
    norm of the covariant divergence sum_a (d_a phi_a + [A_a, phi_a]).
    """
    smp = fld.eval(p)
    A = np.concatenate([smp.A, np.zeros((3, 1), dtype=smp.A.dtype)], axis=1)
    phi = np.concatenate([smp.phi, np.zeros((3, 1), dtype=smp.phi.dtype)], axis=1)
    dA = np.concatenate([smp.dA, np.zeros((3, 1, 4), dtype=smp.dA.dtype)], axis=1)
    dphi = np.concatenate([smp.dphi, np.zeros((3, 1, 4), dtype=smp.dphi.dtype)], axis=1)

    F = {}
    dphi2 = {}
    phiphi = {}
    for mu, nu in _PAIRS:
        F[(mu, nu)] = (
            dA[:, nu, mu] - dA[:, mu, nu] + bracket(A[:, mu], A[:, nu])
        )
        dphi2[(mu, nu)] = (
            dphi[:, nu, mu]
            - dphi[:, mu, nu]
            + bracket(A[:, mu], phi[:, nu])
            - bracket(A[:, nu], phi[:, mu])
        )
        phiphi[(mu, nu)] = bracket(phi[:, mu], phi[:, nu])

    res1_sq = 0.0
    for mu, nu in _PAIRS:
        (tm, tn), sgn = _STAR_PAIRS[(mu, nu)]
        r = F[(mu, nu)] - phiphi[(mu, nu)] - star_sign * sgn * dphi2[(tm, tn)]
        res1_sq += 0.5 * float(np.dot(r, r))

    div = sum(dphi[:, a, a] + bracket(A[:, a], phi[:, a]) for a in range(3))
    res2_sq = 0.5 * float(np.dot(div, div))
    return math.sqrt(res1_sq), math.sqrt(res2_sq)


def kw_residual_flat_combined(fld: FlatModelField, p: HalfspacePoint,
                              star_sign: int = FLAT_STAR_SIGN) -> float:
    r1, r2 = kw_residual_flat(fld, p, star_sign)
    return math.hypot(r1, r2)


# ---------------------------------------------------------------------------
# CSV interfaces: points in (x1,x2,x3,y), residuals out
# ---------------------------------------------------------------------------

def read_points_csv(path: str) -> list:
    pts = []
    with open(path) as fh:
        rd = csv.reader(fh)
        for row in rd:
            if not row or row[0].strip().startswith("x1"):
                continue
            x1, x2, x3, y = (float(v) for v in row[:4])
            pts.append(HalfspacePoint(x1, x2, x3, y))
    return pts


def write_residuals_csv(path: str, fld: FlatModelField, pts: list):
    from .report import write_csv

    rows = []
    for p in pts:
        r1, r2 = kw_residual_flat(fld, p)
        rows.append([repr(p.x1), repr(p.x2), repr(p.x3), repr(p.y), repr(r1), repr(r2)])
    write_csv(path, ["x1", "x2", "x3", "y", "res_eq1", "res_eq2"], rows)
