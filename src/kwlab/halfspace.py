"""Closed-form model solutions on the flat half-space R^3 x R+.

Two models are provided: the Nahm pole field (A = 0, phi = sum t_i dx_i / y)
and the simplest knot-singular field, with pole weight doubled along the
x3-axis.  Both are exact solutions of the first-order system, verified
pointwise by ``kw_residual_flat``; their coefficients are homogeneous of
degree -1, so they are fixed points of the dilation pullback.

The residual is ``forms.kw_residual`` on the chart's ``FieldAt``, whose
derivative terms are curl A, curl phi and sum_a d_a phi_a, under the
calibrated conventions: with e_a = dx_a the star signs s1 = s2 = +1 are the
volume form dy ^ dx1 ^ dx2 ^ dx3.  Both models solve under that pair alone;
the pole model pins s2 and the knot-singular model s1.  The same
orientation forces the knot-singular field to be the chart reflection of the
commonly displayed coefficient table: here

    f1 = (x1 t1 + x2 t2)/sqrt(r^2+y^2),   f2 = (x1 t2 - x2 t1)/sqrt(r^2+y^2),
    f3 = (1 + y^2/(r^2+y^2)) t3,
    A  = (x2 dx1 - x1 dx2) (x) t3 / (r^2+y^2),

which is the unique nearby sign assignment solving both equations in the
calibrated orientation.

Everything works on point sets: a (4, n) float array with rows x1, x2, x3, y.
The fields are evaluated in longdouble on array-valued jets.Jet.vars, and the
residuals BLOCK points at a time, so the temporaries stay small for any n.
Each point's arithmetic is the same as for a point on its own.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from . import jets
from .forms import FieldAt, GeometryConventions, residual_norms

# points per residual block: bounds the longdouble (3, 3, 4, BLOCK)
# derivative stacks whatever the number of points
BLOCK = 512

# math.hypot per value: np.hypot can differ from it by one ulp
_hypot = np.vectorize(math.hypot, otypes=[float])


class FieldSample(NamedTuple):
    """Values and first partials of the coefficient fields at n points.

    A[i, a]      : t_i coefficient of the dx_a connection component (A_y = 0),
                   shape (3, 3, n)
    dA[i, a, mu] : partial derivative wrt (x1, x2, x3, y), shape (3, 3, 4, n)
    phi, dphi: same layout for the Higgs field.
    """

    A: np.ndarray
    dA: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


class FlatModelField(NamedTuple):
    name: str
    evaluator: object
    scale: float = 1.0  # dilation parameter of a pullback wrapper

    def eval(self, pts) -> FieldSample:
        pts = np.asarray(pts, dtype=float)
        if not np.all(pts[3] > 0):
            raise ValueError("boundary evaluation")
        s = self.scale
        if s != 1.0:
            base = self.evaluator(pts * s)
            return FieldSample(base.A * s, base.dA * (s * s),
                               base.phi * s, base.dphi * (s * s))
        return self.evaluator(pts)


def _vars(pts):
    return jets.Jet.vars(*np.asarray(pts, dtype=np.longdouble))


def _sample(A_dual, phi_dual) -> FieldSample:
    """Stack 3x3 tables of Jet entries into a FieldSample."""
    def stack(table, part):
        return np.array([[getattr(d, part) for d in row] for row in table])

    return FieldSample(stack(A_dual, "f"), stack(A_dual, "d"),
                       stack(phi_dual, "f"), stack(phi_dual, "d"))


def _nahm_pole_eval(pts) -> FieldSample:
    x1, _, _, y = _vars(pts)
    z = x1 * 0
    inv_y = 1 / y
    return _sample([[z, z, z]] * 3, [[inv_y, z, z], [z, inv_y, z], [z, z, inv_y]])


def _singular_eval(pts) -> FieldSample:
    x1, x2, _, y = _vars(pts)
    z = x1 * 0
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
    A_ia = [[z, z, z], [z, z, z], [x2 / R2, (-1) * x1 / R2, z]]
    return _sample(A_ia, phi_ia)


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
    return FlatModelField(fld.name, fld.evaluator, scale=fld.scale * s)


def sample_points(rng: random.Random, n: int, width: float = 3.0,
                  y_range=(0.3, 3.0), r_min: float = 0.0):
    """Seeded points, uniform in [-width, width]^3 x y_range, drawn until n of
    them have r = hypot(x1, x2) >= r_min.

    Returns every drawn point as a (4, m) array and the mask of the kept
    ones.  Points are drawn one at a time, x1, x2, x3 and then y, each by
    ``rng.uniform``, and no point past the n-th kept one is drawn, so the
    generator can go on to other draws.
    """
    uniform = rng.uniform
    drawn, kept, count = [], [], 0
    while count < n:
        x1, x2 = uniform(-width, width), uniform(-width, width)
        drawn.append((x1, x2, uniform(-width, width), uniform(*y_range)))
        kept.append(math.hypot(x1, x2) >= r_min)
        count += kept[-1]
    return np.array(drawn).reshape(-1, 4).T, np.array(kept, dtype=bool)


def _curl(d):
    # the tangential d of a 1-form from its partials d[i, b, mu], as a dual
    # matrix: entry (i, c) is d_a v_ib - d_b v_ia, with (a, b, c) cyclic
    return np.stack([d[:, b, a] - d[:, a, b]
                     for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)


def _block_residuals(conv: GeometryConventions, fld: FlatModelField, pts):
    smp = fld.eval(pts)
    dA, dphi = smp.dA, smp.dphi
    m = FieldAt(conv, smp.A, dA[:, :, 3], smp.phi, dphi[:, :, 3],
                chart=(_curl(dA), _curl(dphi),
                       dphi[:, 0, 0] + dphi[:, 1, 1] + dphi[:, 2, 2]))
    return np.array(residual_norms(m))


def kw_residual_flat(conv: GeometryConventions, fld: FlatModelField,
                     pts) -> np.ndarray:
    """Pointwise residual norms of the flat-chart system under conv at a
    (4, n) point set, as a (2, n) array with rows (eq1, eq2).

    eq1 is |F_A - phi^phi - *d_A phi| over the six 2-form components, eq2 the
    norm of the covariant divergence sum_a (d_a phi_a + [A_a, phi_a]).
    """
    pts = np.asarray(pts, dtype=float)
    return np.concatenate([np.empty((2, 0))] + [
        _block_residuals(conv, fld, pts[:, i:i + BLOCK])
        for i in range(0, pts.shape[1], BLOCK)], axis=1)


def kw_residual_flat_combined(conv: GeometryConventions, fld: FlatModelField,
                              pts) -> np.ndarray:
    """hypot(eq1, eq2) per point, shape (n,)."""
    return _hypot(*kw_residual_flat(conv, fld, pts))


# ---------------------------------------------------------------------------
# CSV interfaces: points in (x1,x2,x3,y), residuals out
# ---------------------------------------------------------------------------

def read_points_csv(path: str) -> np.ndarray:
    """Points as a (4, n) array; each row four finite numbers, and y > 0."""
    import csv

    pts = []
    with open(path) as fh:
        rd = csv.reader(fh)
        try:
            for row in rd:
                if not row or rd.line_num == 1 and row[0].strip().startswith("x1"):
                    continue
                try:
                    pt = tuple(map(float, row))
                except ValueError:
                    pt = ()
                if not (len(pt) == 4 and all(map(math.isfinite, pt)) and pt[3] > 0):
                    raise ValueError(f"{path}:{rd.line_num}: point coordinates "
                                     "must be finite, with y > 0, four to a row")
                pts.append(pt)
        except csv.Error as e:  # csv's own, such as a field past its size limit
            raise ValueError(f"{path}:{rd.line_num}: {e}") from None
    return np.array(pts, dtype=float).reshape(-1, 4).T


def write_residuals_csv(path: str, conv: GeometryConventions,
                        fld: FlatModelField, pts):
    from .report import write_csv

    rows = [[repr(float(v)) for v in col]
            for col in np.vstack([pts, kw_residual_flat(conv, fld, pts)]).T]
    write_csv(path, ["x1", "x2", "x3", "y", "res_eq1", "res_eq2"], rows)
