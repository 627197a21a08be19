"""Left-invariant su(2)-valued exterior calculus on S^3 x R+.

A tangential invariant 1-form  sum_{i,a} c_ia t_i (x) e_a  is its 3x3
coefficient matrix c over the orthonormal invariant coframe {e_a}; the
identity matrix is omega = sum_i t_i e_i.  A tangential 2-form is the matrix
of its *3-dual 1-form (hat{e}_1 = e2^e3 cyclic), a normal 2-form the matrix
of its dy^e_a coefficients.  Matrices may be stacked along trailing axes,
(3, 3, n) for n nodes or (3, 3, k, n) for k fields, and are then read entry
by entry at every node.

Geometry enters through three discrete constants:

    de_a            = -c_struct * e_b ^ e_c          (a,b,c cyclic)
    *(e_b ^ e_c)    = s1 * dy ^ e_a
    *(dy ^ e_a)     = s2 * e_b ^ e_c

with *3 fixed cyclically on S^3 ( *3(e_b^e_c) = e_a ).  ``FieldAt`` is the
one place where the field algebra lives: the Kapustin-Witten blocks of
coefficient matrices, which the residual, the energy densities, the
perturbation chain, the reduced system and the flat chart of ``halfspace``
all read, and ``FieldAt.of`` the one place that evaluates a field's
profiles for it.  The 3d and 4d Hodge
stars act only inside ``kw_residual``, as these constants.  None of them is
chosen by hand: ``calibrate`` searches the finite set c_struct in {+-1, +-2},
s1, s2 in {+-1} for the unique choice that makes the Ricci curvature of the
frame equal 2g exactly and annihilates the Kapustin-Witten residual of the
closed-form reference solution.

The kernels keep their input's arithmetic.  The exact tables of ``decomp``
run them on int64 matrices at an integer scale: the bracket-wedge of integer
matrices is an integer matrix, so a table compares [v ^ v] = 2 *3(v ^ v)
and never halves it.  ``half_of`` serves the float fields.

The gauge A_y = 0 is assumed throughout, and fields carry no Higgs
component phi_y along dy.  The maximum-principle combination for phi_y,
``taubes_lhs``, is a kernel on values at one point that its caller supplies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .report import CheckReport, make_check
from .su2 import bracket

# nonzero entries of the permutation symbol: (i, j, k, sign)
EPS_TABLE = (
    (0, 1, 2, 1),
    (1, 2, 0, 1),
    (2, 0, 1, 1),
    (1, 0, 2, -1),
    (2, 1, 0, -1),
    (0, 2, 1, -1),
)


def wedge_bracket_matrix(u, v):
    """Coefficient matrix of the bracket-wedge [u ^ v] of two tangential
    1-forms, expressed in the (t_m, hat{e}_c) basis:
    out[m][c] = sum eps_ijm eps_abc u[i][a] v[j][b], summed from 0 in
    EPS_TABLE order into one preallocated array of the first term's dtype,
    so integer input gives an integer result."""
    out = None
    for i, j, m, sij in EPS_TABLE:
        for a, b, c, sab in EPS_TABLE:
            term = sij * sab * u[i][a] * v[j][b]
            if out is None:
                out = np.zeros((3, 3) + np.shape(term), np.asarray(term).dtype)
            out[m, c] += term
            del term  # so that only the next term's temporaries join out
    return out


def half_of(x):
    """x / 2: on floats the IEEE result of x * 0.5; exact on Fractions."""
    return x / 2


def frob_inner(u, v):
    return sum(u[i][a] * v[i][a] for i in range(3) for a in range(3))


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class GeometryConventions(NamedTuple):
    """Structure constant of the coframe and the two Hodge orientation signs."""

    c: int
    s1: int
    s2: int

    def flipped(self) -> "GeometryConventions":
        return GeometryConventions(self.c, -self.s1, -self.s2)


# ---------------------------------------------------------------------------
# the field engine: Kapustin-Witten blocks of coefficient matrices
# ---------------------------------------------------------------------------

def matrix_first(m, dtype=None):
    """(..., 3, 3) -> (3, 3, ...) in dtype (None keeps m's): m[i][a] is then
    entry (i, a) at every node, which is how the kernels index matrices."""
    return np.moveaxis(np.asarray(m, dtype=dtype), (-2, -1), (0, 1))


# FieldAt's matrices by the profile whose value and derivative they are
_PROFILE_OF = {"a": "connection", "n_f": "connection",
               "p": "higgs", "dp": "higgs"}


class FieldAt:
    """A field (A_y = 0) given by its coefficient matrices a, a' (= F_n), p
    and p', matrix axes first and trailing node axes, in any dtype; a
    matrix that no block read needs may be None.  The blocks are formed on
    first use, so a reader forms only the brackets it needs:

        t_f     tangential curvature          d a + aa
        phi2    (1/2)[p ^ p]
        t_dphi  tangential d_A phi             d p + ap
        div     bracket part of d_A * phi      sum_col [a_col, p_col]

    with the convention-free brackets aa = (1/2)[a ^ a] and ap = [a ^ p].
    The geometry gives d a and d p, tangential, as dual matrices, and the
    derivative part d_div of d_A * phi: -c a, -c p and 0 on an invariant
    field, while a flat chart passes its own as ``chart``.
    """

    chart = None
    d_div = 0

    def __init__(self, conv: GeometryConventions, a, da, p, dp, chart=None):
        self.conv, self.chart = conv, chart
        self.a, self.n_f, self.p, self.dp = a, da, p, dp
        if chart is not None:
            self.d_a, self.d_p, self.d_div = chart

    @classmethod
    def of(cls, conv: GeometryConventions, field, y, dtype=None) -> "FieldAt":
        """The field's profiles at y, a node or an array of nodes (y > 0),
        in dtype: None keeps their longdouble (the residual), float rounds
        them to float64 (the energy densities).  Each profile is evaluated
        on the first read of one of its matrices, so a reader of the Higgs
        field alone never evaluates the connection, and the other way
        round."""
        if np.any(np.asarray(y) <= 0):
            raise ValueError("boundary evaluation")
        m = cls.__new__(cls)
        m.conv, m._pending = conv, (field, y, dtype)
        return m

    def __getattr__(self, name):
        # reached only for an attribute not yet set: on a field from ``of``,
        # the first read of a profile's matrix evaluates that profile
        pending, kind = self.__dict__.get("_pending"), _PROFILE_OF.get(name)
        if pending is None or kind is None:
            raise AttributeError(name)
        field, y, dtype = pending
        value, deriv = getattr(field, kind).eval(y)
        names = [k for k, v in _PROFILE_OF.items() if v == kind]
        for key, m in zip(names, (value, deriv)):
            setattr(self, key, matrix_first(m, dtype))
        return getattr(self, name)

    def under(self, conv: GeometryConventions) -> "FieldAt":
        """The same matrices under other conventions, sharing this field's
        convention-free brackets (formed here if they are not yet)."""
        out = FieldAt(conv, self.a, self.n_f, self.p, self.dp, self.chart)
        for name in ("aa", "phi2", "ap", "div"):
            setattr(out, name, getattr(self, name))
        return out

    @cached_property
    def aa(self):
        return half_of(wedge_bracket_matrix(self.a, self.a))

    @cached_property
    def ap(self):
        return wedge_bracket_matrix(self.a, self.p)

    @cached_property
    def d_a(self):
        return self.a * (-self.conv.c)

    @cached_property
    def d_p(self):
        return self.p * (-self.conv.c)

    @cached_property
    def t_f(self):
        return self.d_a + self.aa

    @cached_property
    def phi2(self):
        return half_of(wedge_bracket_matrix(self.p, self.p))

    @cached_property
    def t_dphi(self):
        return self.d_p + self.ap

    @cached_property
    def div(self):
        return sum(bracket(self.a[:, col], self.p[:, col]) for col in range(3))


def kw_residual(m: FieldAt):
    """Kapustin-Witten residual of the field m, in its matrices' precision.

    Returns (res_t, res_n, res2): the tangential and normal matrices of the
    first equation's residual 2-form, matrix axes first, and the norm
    |d_A * phi| of the second equation's residual.  Each node gets the float
    of a one-node evaluation.
    """
    conv = m.conv
    res_t = m.t_f - m.phi2 - m.dp * conv.s2
    res_n = m.n_f - m.t_dphi * conv.s1
    res2_sq = half_of(sum(c * c for c in m.d_div + m.div))
    return res_t, res_n, _sqrt(res2_sq)


def _sqrt(x):
    """x ** 0.5 in float64 as Python takes it of a float: libm pow, which
    np.sqrt does not always match."""
    return np.float_power(np.asarray(x, dtype=float), 0.5)[()]


def kw_residual_norm(conv: GeometryConventions, field, y):
    """Norm of the first-equation residual plus that of the second, at y (a
    node or an array of nodes)."""
    return _residual_norm(FieldAt.of(conv, field, y))


def residual_norms(m: FieldAt):
    """The norms (|eq1|, |eq2|) of the two equations' residuals of m."""
    res_t, res_n, res2 = kw_residual(m)
    norm_sq = half_of(frob_inner(res_t, res_t) + frob_inner(res_n, res_n))
    return _sqrt(norm_sq), res2


def _residual_norm(m: FieldAt):
    return sum(residual_norms(m))


def taubes_lhs(a, p, w, dw, ddw) -> float:
    """Left side of the pointwise maximum-principle identity for phi_y, at
    one point: a and p are the float coefficient matrices of the connection
    and the tangential Higgs field, w, dw and ddw the su(2) values of phi_y
    and its first two y-derivatives.

    In the invariant class |phi_y|^2 is constant on S^3, so the tangential
    Laplacian term drops and only y-derivatives survive:
        -(1/2) d^2/dy^2 |phi_y|^2 + |d_y phi_y|^2 + |nabla_A phi_y|^2
        + 2 |[phi_y, phi_tangential]|^2 .
    Vanishes identically on solutions.
    """
    lap = -0.5 * float(np.dot(dw, dw) + np.dot(w, ddw))
    dy_term = 0.5 * float(np.dot(dw, dw))
    nabla = sum(
        0.5 * float(np.dot(c, c)) for c in (bracket(a[:, k], w) for k in range(3))
    )
    brk = sum(
        float(np.dot(c, c)) for c in (bracket(w, p[:, k]) for k in range(3))
    )
    return lap + dy_term + nabla + brk


# ---------------------------------------------------------------------------
# Ricci curvature of the frame (exact, from the structure constant)
# ---------------------------------------------------------------------------

def ricci_tensor(c: int):
    """Ricci tensor of the invariant metric, computed from the frame bracket
    [E_a, E_b] = c eps_abc E_c through the Koszul formula; exact.  It
    depends on the structure constant alone.  With g = 2 Gamma = c eps, the
    bracket constants, 4 Ric is a sum of integers, divided by 4 once."""
    g = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, s in EPS_TABLE:
        g[i][j][k] = c * s
    n = range(3)
    return np.array([[Fraction(sum(
        g[b][cc][d] * g[a][d][a] - g[a][cc][d] * g[b][d][a]
        - 2 * g[a][b][d] * g[d][cc][a] for a in n for d in n), 4)
        for cc in n] for b in n], dtype=object)


def _is_twice_metric(ric) -> bool:
    return all(ric[i][j] == (2 if i == j else 0) for i in range(3) for j in range(3))


def ricci_check(conv: GeometryConventions) -> CheckReport:
    """Assert Ric = 2g and report the ratio Ric(phi,phi)/|phi|^2 for phi = omega."""
    ric = ricci_tensor(conv.c)
    exact = _is_twice_metric(ric)
    # ratio Ric(phi,phi)/|phi|^2 for phi = omega: sum_a Ric_aa <t_a,t_a> / (3/2)
    num = sum(ric[a][a] * Fraction(1, 2) for a in range(3))
    ratio = float(num / Fraction(3, 2))
    return make_check(
        "ricci",
        "Ricci of the invariant frame equals twice the metric",
        computed=ratio,
        expected=2.0,
        tolerance=0.0,
        provenance="reference",
        extra={"exact": exact},
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

CONVENTION_SET = tuple(
    GeometryConventions(c, s1, s2)
    for c in (1, -1, 2, -2)
    for s1 in (1, -1)
    for s2 in (1, -1)
)


CALIBRATION_TOL = 1e-10  # worst residual of the reference solution


def calibrate() -> GeometryConventions:
    """Search the finite convention set for the unique (c_struct, s1, s2)
    with exact Ric = 2g and vanishing residual on the reference solution.
    The reference field is evaluated, and its convention-free brackets
    formed, once for all the conventions tested."""
    from .profiles import nahm_pole_invariant_solution

    field = FieldAt.of(None, nahm_pole_invariant_solution(),
                       np.geomspace(1e-3, 20.0, 40))
    ricci_ok = {c: _is_twice_metric(ricci_tensor(c))
                for c in dict.fromkeys(conv.c for conv in CONVENTION_SET)}
    winners = [conv for conv in CONVENTION_SET if ricci_ok[conv.c]
               and np.max(_residual_norm(field.under(conv))) < CALIBRATION_TOL]
    if len(winners) != 1:
        raise RuntimeError(
            f"calibration must single out one convention, found {winners}"
        )
    return winners[0]
