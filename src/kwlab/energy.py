"""Energy bookkeeping: norms, boundary terms, the identity chain and bounds.

For invariant fields every integrand is constant on S^3, so L^2 norms reduce
to vol(S^3) * int dy of pointwise densities built from the coefficient
matrices.  The module verifies, with certified quadrature error estimates:

  * the first-order energy balance (bulk square norms against the two
    boundary functionals at y = eps),
  * the completed-square rearrangement of the Higgs derivative terms,
  * the bulk/boundary balance whose two sides separately diverge like 1/eps
    while their combination stabilises to a finite constant c_limit,
  * finiteness and stability of the model curvature constant c_model,
  * the topological charge against its antiderivative oracle (the
    charge-model report check),
  * the weighted-inequality chain on synthetic perturbations of the
    reference solution (slack of every intermediate step), and
  * the resulting curvature-energy bound with explicit engine constants.

Displayed constants that depend on a volume normalisation are never
asserted; the engine computes its own sharp constants (vol(S^3) = 2 pi^2)
and reports them with full provenance.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .forms import (
    EPS_TABLE,
    FieldAt,
    GeometryConventions,
    det3,
    frob_inner,
    kw_residual_norm,
    matrix_first,
    wedge_bracket_matrix,
)
from .profiles import (
    InvariantField,
    MatrixProfile,
    loglog_slope,
    pole_scalars,
    scaled_matrix_profile,
)
from .quadrature import (
    VOL_S3,
    QuadratureSpec,
    exp_nodes,
    integrate_halfline,
    integrate_interval,
    integrate_smooth_from_zero,
    l2_norm_sq,
)
from .report import CheckReport, EnergyReport, make_check
from .su2 import bracket

OMEGA_NORM_SQ = 1.5
_I3 = np.eye(3)

CUTOFF_EPS = (1e-2, 1e-3, 1e-4)  # cutoffs of the reference solution's sweep

# What each identity reads, by keyword: the reference solution's pass above
# the cutoff (at_eps) or from zero (full_line), its cutoff sweep, the constants
IDENTITY_INPUTS = {
    "first-order-balance": ("at_eps",),
    "square-completion": ("at_eps",),
    "bulk-boundary-balance": ("at_eps",),
    "cutoff-limit": ("sweep",),
    "route-match": ("full_line", "sweep"),
    "weighted-bound": ("full_line", "consts"),
}
# the relative gap at which the identities with two sides (the balances and
# route-match) fail; the others gate on fixed criteria
IDENTITY_TOL = 1e-6
_BALANCES = {  # the identities on the cutoff pass: lhs = rhs
    "first-order-balance": "first-order bulk norms equal the two boundary functionals",
    "square-completion": "cross term of the completed square equals the cubic "
                         "boundary term",
    "bulk-boundary-balance": "bulk energy above the cutoff equals the mixed "
                             "boundary term",
}


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------

def _nabla_bar_sq(m: FieldAt):
    """|tangential covariant derivative of phi|^2 from the frame connection."""
    a, p = m.a, m.p
    total = 0.0
    half_c = 0.5 * m.conv.c
    for ai in range(3):
        for b in range(3):
            vec = bracket(a[:, ai], p[:, b])
            for i, j, k, s in EPS_TABLE:
                if i == ai and j == b:
                    vec = vec - half_c * s * p[:, k]
            # np.vecdot runs np.dot's BLAS kernel (fused multiply-adds) at
            # each node; a plain sum of products rounds differently
            total += 0.5 * np.vecdot(vec, vec, axis=0)
    return total


def _f_minus_phi2_sq(m: FieldAt):
    fm = m.t_f - m.phi2
    return 0.5 * (frob_inner(fm, fm) + frob_inner(m.n_f, m.n_f))


def _d_a_phi_sq(m: FieldAt):
    return 0.5 * (frob_inner(m.t_dphi, m.t_dphi) + frob_inner(m.dp, m.dp))


def _d_a_star_sq(m: FieldAt):
    return 0.5 * np.vecdot(m.div, m.div, axis=0)


def _s_sq(m: FieldAt):
    s_mat = m.dp + m.phi2
    return 0.5 * frob_inner(s_mat, s_mat)


_DENSITIES = {
    "F_sq": lambda m: 0.5 * (frob_inner(m.t_f, m.t_f) + frob_inner(m.n_f, m.n_f)),
    "nabla_bar_sq": _nabla_bar_sq,
    "S_sq": _s_sq,
    "phi_sq": lambda m: 0.5 * frob_inner(m.p, m.p),
    "dyphi_sq": lambda m: 0.5 * frob_inner(m.dp, m.dp),
    "phi2_sq": lambda m: 0.5 * frob_inner(m.phi2, m.phi2),
    "F_minus_phi2_sq": _f_minus_phi2_sq,
    "dAphi_sq": _d_a_phi_sq,
    "dAstar_sq": _d_a_star_sq,
    "charge_density": lambda m: -0.5 * frob_inner(m.n_f, m.t_f),
}
DENSITY_KEYS = tuple(_DENSITIES)


def densities(conv: GeometryConventions, field: InvariantField, y,
              keys=DENSITY_KEYS) -> dict:
    """The named pointwise densities at y (a node or an array of nodes), in
    float64."""
    m = FieldAt.of(conv, field, y, float)
    return {k: _DENSITIES[k](m) for k in keys}


def density_rows(conv, field, groups):
    """Integrand of one quadrature pass: row r is the sum of the densities
    named in groups[r], added in that order, and every row comes from one
    evaluation of the field at y (a node or an array of nodes)."""
    keys = tuple(dict.fromkeys(k for g in groups for k in g))

    def f(y):
        d = densities(conv, field, y, keys)
        return np.array([sum(d[k] for k in g) for g in groups])

    return f


def density_fn(conv, field, keys):
    """Sum of the named densities as a function of y."""
    rows = density_rows(conv, field, (keys,))
    return lambda y: rows(y)[0]


_BULK = ("F_sq", "nabla_bar_sq", "S_sq")

# the rows (name -> density keys) of the reference solution's shared passes
FULL_LINE_ROWS = {"F_sq": ("F_sq",), "nabla_bar_sq": ("nabla_bar_sq",),
                  "S_sq": ("S_sq",), "bulk": _BULK,
                  "F_nabla": ("F_sq", "nabla_bar_sq")}
C_MODEL_ROWS = {k: FULL_LINE_ROWS[k] for k in ("F_sq", "S_sq")}
CUTOFF_ROWS = {"first_order": ("F_minus_phi2_sq", "dAphi_sq", "dAstar_sq"),
               "full_grad": ("nabla_bar_sq", "dyphi_sq", "phi2_sq"),
               "completed": ("nabla_bar_sq", "S_sq"), "bulk": _BULK,
               "phi_sq": ("phi_sq",)}
_BALANCE_ROWS = {k: CUTOFF_ROWS[k] for k in ("bulk", "phi_sq")}


def _require_solution(conv, field, eps):
    """Raise unless the field's residual is below 1e-8 at 24 nodes from eps
    (at least 1e-3) to 10."""
    grid = np.geomspace(max(eps, 1e-3), 10.0, 24)
    if not np.max(kw_residual_norm(conv, field, grid)) <= 1e-8:
        raise ValueError("not a solution: identity chain does not apply")


# l2_norm_sq of named density rows of one field, rows[name] = (value, error
# estimate), all from one quadrature pass from zero (eps = 0) or above eps;
# field_norms refuses a non-solution, so a Norms certifies its field solves
Norms = namedtuple("Norms", "field eps rows")


def field_norms(conv, field, spec: QuadratureSpec, rows: dict,
                from_zero: bool = False) -> Norms:
    """One pass over the rows (name -> density keys) of the field.  It
    refuses a field that does not solve the system on the pass's own range
    (_require_solution), unless the field comes as the from-zero Norms whose
    build certified it on the range of every pass (from 1e-3), which spares
    that pass's guard grid a second run.  A row's floats do not depend on
    the other rows, so a check that reads one by name gets the floats of its
    own pass."""
    eps = 0.0 if from_zero else spec.eps
    if isinstance(field, Norms):
        field = field.field
    else:
        _require_solution(conv, field, eps)
    v, e = l2_norm_sq(density_rows(conv, field, tuple(rows.values())), spec,
                      from_zero)
    return Norms(field, eps, dict(zip(rows, zip(v.tolist(), e.tolist()))))


# full_line_norms(conv, field, spec): the FULL_LINE_ROWS from zero
full_line_norms = partial(field_norms, rows=FULL_LINE_ROWS, from_zero=True)


# ---------------------------------------------------------------------------
# boundary functionals at y = eps (S^3 integration is exact: invariant class)
# ---------------------------------------------------------------------------

def boundary_terms(conv: GeometryConventions, field: InvariantField, eps: float):
    """The two boundary functionals of the first-order balance at y = eps,
    with the slice orientation induced by the outward normal -d/dy:

        cubic term  (2/3) int_{S^3} tr phi^3      -> 2 pi^2 det p(eps)
        mixed term  -2  int_{S^3} tr(phi ^ F_A)   -> -2 pi^2 <p, T_F>(eps).
    """
    m = FieldAt.of(conv, field, eps, float)
    cubic = 2.0 * math.pi**2 * float(det3(m.p))
    mixed = -2.0 * math.pi**2 * float(frob_inner(m.p, m.t_f))
    return cubic, mixed


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------

def c_model(full_line: Norms):
    """Curvature constant ||F||_L2 + ||*3 d_y phi + phi^2||_L2 of the
    reference solution, both finite, from the F_sq and S_sq rows of its
    from-zero pass.  Returns (value, relative error estimate, parts)."""
    (f_sq, f_err), (s_sq, s_err) = full_line.rows["F_sq"], full_line.rows["S_sq"]
    val = math.sqrt(f_sq) + math.sqrt(s_sq)
    err = 0.5 * (f_err / max(math.sqrt(f_sq), 1e-30)
                 + s_err / max(math.sqrt(s_sq), 1e-30))
    return val, err, {"F_l2_sq": f_sq, "S_l2_sq": s_sq}


def c_decay(grid_max: float = 25.0) -> float:
    """Envelope constant: sup_{y >= 1} |phi_model| e^{2y}, slightly inflated
    so |phi_model| <= c_decay e^{-2y} holds pointwise on y > 1."""
    ys = np.linspace(1.0, grid_max, 400)
    b = pole_scalars(ys)[1]
    sup = float(np.max(math.sqrt(OMEGA_NORM_SQ) * b * exp_nodes(2.0 * ys)))
    return sup * (1.0 + 1e-9)


def topological_charge(conv: GeometryConventions, a_profile: MatrixProfile,
                       spec: QuadratureSpec):
    """(1 / 4 pi^2) int tr(F_A)^2 by quadrature.  For scalar profiles the
    integrand is a total derivative, which tests use as the oracle."""
    field = InvariantField(a_profile, scaled_matrix_profile(lambda jy: jy * 0, _I3))

    return integrate_smooth_from_zero(
        density_fn(conv, field, ("charge_density",)), spec)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def cutoff_combination(conv, field, eps, spec: QuadratureSpec):
    """(bulk 2|phi|^2 integral, mixed boundary term, stabilising combination,
    quadrature error) at cutoff eps; the first two diverge like 1/eps."""
    sp = spec.with_eps(eps)
    two_phi, err = l2_norm_sq(density_fn(conv, field, ("phi_sq",)), sp)
    two_phi *= 2.0
    _, mixed = boundary_terms(conv, field, eps)
    return two_phi, mixed, mixed - two_phi, 2.0 * err


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    xs = list(map(float, xs))
    t = list(map(float, ys))
    for m in range(1, len(t)):
        for i in range(len(t) - m):
            t[i] = (xs[i + m] * t[i] - xs[i] * t[i + 1]) / (xs[i + m] - xs[i])
    return t[0]


def check_energy_identity(conv: GeometryConventions, ident: str, *,
                          at_eps: Norms | None = None,
                          full_line: Norms | None = None,
                          sweep: CutoffSweep | None = None,
                          consts: BoundConstants | None = None) -> CheckReport:
    """One identity of the energy bookkeeping on a solution field, from its
    IDENTITY_INPUTS only: passes (Norms) and a sweep built from one, which
    certify that the field is a solution."""
    if ident not in IDENTITY_INPUTS:
        raise ValueError(f"unknown identity id {ident!r}")

    if ident in _BALANCES:
        rows = at_eps.rows
        cubic, mixed = boundary_terms(conv, at_eps.field, at_eps.eps)
        if ident == "first-order-balance":
            (lhs, err), rhs = rows["first_order"], cubic + mixed
        elif ident == "square-completion":
            (full_grad, e1), (rhs, e2) = rows["full_grad"], rows["completed"]
            lhs, err = full_grad - cubic, e1 + e2
        else:
            (lhs, err), rhs = _bulk_balance(at_eps), mixed
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        return make_check(
            f"energy-{ident}", _BALANCES[ident],
            computed=gap, expected=0.0, tolerance=IDENTITY_TOL,
            extra={"lhs": lhs, "rhs": rhs, "quad_error": err, "eps": at_eps.eps},
        )

    if ident == "cutoff-limit":
        combos = [row[2] for row in sweep.rows]
        ratio = abs(combos[2] - combos[1]) / max(abs(combos[1] - combos[0]), 1e-30)
        slopes = [loglog_slope(CUTOFF_EPS,
                               [abs(row[comp]) for row in sweep.rows])
                  for comp in range(2)]
        ok = (0.02 <= ratio <= 0.5) and all(abs(s + 1.0) <= 0.05 for s in slopes)
        return make_check(
            "energy-cutoff-limit",
            "divergence cancellation: the combination is Cauchy in eps while "
            "each summand grows like 1/eps",
            computed=ratio, ok=bool(ok),
            extra={"eps": list(CUTOFF_EPS), "combos": combos,
                   "limit": sweep.limit, "summand_slopes": slopes},
        )

    if ident == "route-match":
        direct, err = full_line.rows["bulk"]
        gap = abs(direct - sweep.limit) / max(abs(direct), 1e-30)
        return make_check(
            "energy-route-match",
            "cutoff-limit constant equals the direct full-line energy integral",
            computed=gap, expected=0.0, tolerance=IDENTITY_TOL,
            extra={"limit": sweep.limit, "direct": direct, "quad_error": err},
        )

    if ident == "weighted-bound":
        (lhs, err), (s_sq, e2) = full_line.rows["F_nabla"], full_line.rows["S_sq"]
        lhs += 0.5 * s_sq
        return make_check(
            "energy-weighted-bound",
            "weighted energy with half coefficient on the completed square "
            "stays below the assembled constant",
            computed=lhs, ok=lhs <= consts.C,
            extra={"lhs": lhs, "bound": consts.C, "quad_error": err + 0.5 * e2},
        )

    raise AssertionError("unreachable")


def _bulk_balance(norms: Norms):
    """(bulk energy above eps, quadrature error) of the bulk/boundary
    balance, from the norms' bulk and phi_sq rows."""
    (lhs, err), (two_phi, e2) = norms.rows["bulk"], norms.rows["phi_sq"]
    return lhs + 2.0 * two_phi, err + 2 * e2


def eps_sweep_rows(conv, full_line: Norms, eps_list, spec: QuadratureSpec):
    """Rows (eps, lhs, rhs, gap) of the bulk/boundary balance for CSV export,
    on the field of a from-zero pass, whose build certified it a solution."""
    rows = []
    for eps in eps_list:
        lhs, _ = _bulk_balance(
            field_norms(conv, full_line, spec.with_eps(eps), _BALANCE_ROWS))
        rhs = boundary_terms(conv, full_line.field, eps)[1]
        rows.append((eps, lhs, rhs, lhs - rhs))
    return rows


# rows: (bulk 2|phi|^2, mixed term, combination) per CUTOFF_EPS; limit at eps=0
CutoffSweep = namedtuple("CutoffSweep", "rows limit")


def cutoff_sweep(conv: GeometryConventions, full_line: Norms,
                 spec: QuadratureSpec) -> CutoffSweep:
    """The cutoff sweep of the field of a from-zero pass, whose build
    certified it a solution; one per run, like BoundConstants."""
    rows = tuple(cutoff_combination(conv, full_line.field, e, spec)[:3]
                 for e in CUTOFF_EPS)
    return CutoffSweep(rows, _neville_to_zero(CUTOFF_EPS, [row[2] for row in rows]))


# ---------------------------------------------------------------------------
# the perturbation chain
# ---------------------------------------------------------------------------

# Perturbations per perturbation_chain call: bounds the (3, 3, k, n) stacks
# of the perturbed completed square
BLOCK = 8


def _pow2(x):
    """x ** 2 by libm pow, as Python squares a float.  numpy's x ** 2 is
    x * x, which differs from it in the last bit for about 0.1 % of inputs."""
    return np.float_power(x, 2)


def exp_decay_q(amplitudes, rates, y):
    """(q, q') of the profiles q = amp * y * exp(-rate * y) at the nodes y,
    one row per (amplitude, rate).  The products are formed in the order of
    the profile's jet, so each row is that jet's value."""
    amp = np.asarray(amplitudes, dtype=float)[:, None]
    rate = np.asarray(rates, dtype=float)[:, None]
    e = np.exp(y * -rate)
    ya = y * amp
    return ya * e, ya * (e * -rate) + amp * e


def random_perturbations(rng: random.Random, k: int):
    """k seeded perturbations as amplitudes (k,), rates (k,) and directions
    (k, 3, 3), drawn one perturbation at a time by ``rng.uniform``: the
    amplitude, the rate, then the direction's 9 entries in row-major order."""
    uniform = rng.uniform
    draws = np.array([[uniform(0.05, 0.6), uniform(0.9, 2.5),
                       *(uniform(-1.0, 1.0) for _ in range(9))]
                      for _ in range(k)]).reshape(k, 11)
    return draws[:, 0], draws[:, 1], draws[:, 2:].reshape(k, 3, 3)


def perturbation_chain(conv: GeometryConventions, amplitudes, rates, directions,
                       spec: QuadratureSpec, consts: BoundConstants) -> list:
    """Every intermediate inequality of the weighted-bound chain on the
    synthetic fields phi = phi_model + q(y) m, q = amp * y * exp(-rate * y),
    one per amplitude (k,), rate (k,) and direction m (k, 3, 3); one report
    per perturbation, with the slack of each step.  All slacks must be >= 0
    up to quadrature noise and the discarded boundary term must be <= 0.
    |omega|^2 enters every chain line as w_sq, so for a pure-V1 direction
    the quadratic-projection slacks are exactly zero.  The chain lines that
    share a quadrature layout are rows of one integrand, so the reference
    profiles are evaluated once per layout for the whole block."""
    amp = np.asarray(amplitudes, dtype=float)
    rate = np.asarray(rates, dtype=float)
    m = np.asarray(directions, dtype=float)
    q_ends = exp_decay_q(amp, rate, np.array([1e-8, 30.0]))[0]
    if not np.all(np.abs(q_ends[:, 0]) <= 1e-6):
        raise ValueError("perturbation must vanish at the boundary (rho = O(y))")
    if not np.all(np.abs(q_ends[:, 1]) <= 1e-6):
        raise ValueError("perturbation must decay toward infinity")

    # per-perturbation constants as (k, 1) columns against (k, n) node rows
    trace = np.trace(m, axis1=1, axis2=2)
    gamma = (trace / 3.0)[:, None]
    sgn = np.where(gamma >= 0, 1.0, -1.0)
    m_t = m.transpose(0, 2, 1)
    m_antisym = matrix_first(0.5 * (m - m_t))
    m_symtl = matrix_first(0.5 * (m + m_t) - (trace / 3.0)[:, None, None] * _I3)
    mf = matrix_first(m)
    n1 = gamma * gamma * OMEGA_NORM_SQ
    n2 = 0.5 * frob_inner(m_antisym, m_antisym)[:, None]
    n3 = 0.5 * frob_inner(m_symtl, m_symtl)[:, None]
    w1 = 0.5 * np.trace(wedge_bracket_matrix(mf, mf))[:, None] / 3.0

    w_sq = OMEGA_NORM_SQ
    w_abs = math.sqrt(w_sq)

    def profiles(y):
        """h = b and b' of the model, (n,); q, q', alpha and alpha', (k, n)."""
        _, h, _, dh = pole_scalars(y)
        q, dq = exp_decay_q(amp, rate, y)
        return h, dh, q, dq, gamma * q, gamma * dq

    def abs_g(h, alpha, dalpha):  # |f^{-1} d_y (f alpha)|
        return abs(dalpha + 2.0 * h * alpha + _pow2(alpha))

    # |c|, where c * omega is *3 d_y rho1 + [phi_model, rho1] + (rho ^ rho)^(1);
    # its norm is |c| * w_abs, so it enters the chain as |c| * w_sq
    def mid_norm(h, q, alpha, dalpha):
        return abs(dalpha + 2.0 * h * alpha + _pow2(q) * w1)

    def s_full_norm(h, dh, q, dq):  # |d_y phi + *3 phi^2| of the perturbed fields
        p = _I3[:, :, None, None] * h + mf[..., None] * q  # (3, 3, k, n)
        dp = _I3[:, :, None, None] * dh + mf[..., None] * dq
        return np.sqrt(_s_sq(FieldAt(conv, None, None, p, dp)))

    def near_rows(y):  # the chain on (0, 1]
        h, dh, q, dq, alpha, dalpha = profiles(y)
        s_full = s_full_norm(h, dh, q, dq)
        return np.stack([
            2.0 * abs(h * alpha) * w_sq,
            2.0 * h * abs(alpha) * w_sq,
            _pow2(alpha) * w_sq,
            (sgn * dalpha + 2.0 * h * abs(alpha) + sgn * _pow2(alpha)) * w_sq,
            abs_g(h, alpha, dalpha) * w_sq,
            0.5 * _pow2(q) * (n2 + n3),
            mid_norm(h, q, alpha, dalpha) * w_sq,
            s_full * w_abs,
            _pow2(s_full),
            _pow2(q) * (n1 + n2 + n3),
        ])

    def far_rows(y):  # y > 1
        h, dh, q, dq, alpha, _ = profiles(y)
        return np.stack([2.0 * abs(h * alpha) * w_sq, _pow2(alpha) * w_sq,
                         _pow2(q) * (n1 + n2 + n3),
                         _pow2(s_full_norm(h, dh, q, dq))])

    (line1, line2, rho1_sq_near, wd_int, g_l1, rho23_near, mid_l1, s_full_l1,
     s_full_sq_near, rho_sq_near) = VOL_S3 * integrate_interval(
        near_rows, 0.0, 1.0, panels=32)[0]
    b1 = VOL_S3 * abs(gamma * exp_decay_q(amp, rate, 1.0)[0])[:, 0] * w_sq
    # in line 3 the integral of sgn * alpha' is taken from its boundary
    # values: alpha(0) = 0 and sgn * alpha = |alpha|, so it is b1 itself and
    # cancels the discarded b1, and the step is exactly 0 for sgn = -1
    line3 = line2 + (1.0 + sgn[:, 0]) * rho1_sq_near
    line4 = wd_int + rho1_sq_near
    line5 = g_l1 + rho1_sq_near
    line6 = mid_l1 + rho23_near + rho1_sq_near

    ys = np.linspace(1e-4, 1.0, 200)
    h, _, q, _, alpha, dalpha = profiles(ys)
    min_slack_pointwise = np.min(
        mid_norm(h, q, alpha, dalpha) * w_sq + 0.5 * _pow2(q) * (n2 + n3)
        - abs_g(h, alpha, dalpha) * w_sq, axis=1)

    # model-constant split and the Young step
    c24a, c24b = consts.c24a, consts.c24b
    line7 = c24a + s_full_l1 + rho23_near + rho1_sq_near
    line8 = c24a + c24b + 0.5 * s_full_sq_near + rho23_near + rho1_sq_near

    # far part (y > 1)
    c2, c19 = consts.c_decay, consts.c19
    far_spec = replace(spec, eps=1.0, y_split=2.0)
    far_tr, far_rho1, rho_sq_far, s_full_sq_far = VOL_S3 * integrate_halfline(
        far_rows, far_spec, geometric_head=False)[0]
    step_far_rhs = c19 + 0.5 * far_rho1
    ys = np.linspace(1.0, 12.0, 60)
    env_slack = float(np.min(c2 * exp_nodes(-2.0 * ys) - w_abs * pole_scalars(ys)[1]))

    # assembled final inequality
    c1 = consts.c_pert
    lhs_total = line1 + far_tr
    rhs_total = c1 + (rho_sq_near + rho_sq_far) + 0.5 * (s_full_sq_near + s_full_sq_far)

    columns = {
        "cauchy_schwarz_near": line2 - line1,
        "weighted_derivative": line3 - line2,
        "boundary_discard": line4 - line3,
        "discarded_boundary_term": -b1,
        "signed_to_absolute": line5 - line4,
        "quadratic_projection_pointwise_min": min_slack_pointwise,
        "quadratic_projection_integrated": line6 - line5,
        "model_constant_split": line7 - line6,
        "youngs_inequality": line8 - line7,
        "far_cauchy_schwarz": step_far_rhs - far_tr,
        "far_envelope_min": np.full(len(amp), env_slack),
        "final": rhs_total - lhs_total,
    }
    reports = []
    for j in range(len(amp)):
        steps = {k: float(v[j]) for k, v in columns.items()}
        tol = 1e-9 * max(1.0, abs(float(line5[j])))
        bad = {k: v for k, v in steps.items()
               if k != "discarded_boundary_term" and v < -tol}
        ok = not bad and steps["discarded_boundary_term"] <= tol
        reports.append(make_check(
            "perturbation-chain",
            f"weighted-bound chain on q = {amp[j]:.3f} y exp(-{rate[j]:.3f} y): "
            "slack of every step",
            computed=min(v for k, v in steps.items()
                         if k != "discarded_boundary_term"),
            ok=bool(ok),
            extra={"steps": steps,
                   "constants": {"c19": c19, "c24a": c24a, "c24b": c24b,
                                 "c1": c1, "c_decay": c2}},
        ))
    return reports


# ---------------------------------------------------------------------------
# assembled bound
# ---------------------------------------------------------------------------

class BoundConstants(NamedTuple):
    """Engine constants of the curvature-energy bound.  A run integrates each
    (field, layout) pair once: the reference solution's passes (Norms) and
    the values built from them, these constants and the CutoffSweep, are
    built once per run, and every check that uses one takes that value.
    The one exception: the refined c-model-stability pass evaluates the fine
    layout of the shared from-zero pass (48 panels) again."""

    c_decay: float
    c19: float
    c24a: float
    c24b: float
    c_pert: float         # c19 + c24a + c24b
    c_limit: float        # direct full-line energy of the reference solution
    c_limit_error: float
    C: float              # c_limit + 2 c_pert


def bound_constants(conv: GeometryConventions, full_line: Norms) -> BoundConstants:
    """Engine constants of the curvature-energy bound: the cutoff-limit
    constant of the model (the bulk row of its from-zero pass), the
    perturbation constant, whose c24a reads the model's S_sq density on
    (0, 1], and their combination C = c_limit + 2 c_pert."""
    direct, err = full_line.rows["bulk"]
    c2 = c_decay()
    c19 = 0.5 * VOL_S3 * c2 * c2 * math.exp(-4.0)
    w_abs = math.sqrt(OMEGA_NORM_SQ)
    s_sq_near = VOL_S3 * integrate_interval(
        density_fn(conv, full_line.field, ("S_sq",)), 0.0, 1.0, panels=32)[0]
    c24a = w_abs * math.sqrt(VOL_S3) * math.sqrt(s_sq_near)
    c24b = 0.5 * VOL_S3 * OMEGA_NORM_SQ
    c_pert = c19 + c24a + c24b
    return BoundConstants(
        c_decay=c2, c19=c19, c24a=c24a, c24b=c24b, c_pert=c_pert,
        c_limit=direct, c_limit_error=err, C=direct + 2.0 * c_pert,
    )


def theorem_bound_report(full_line: Norms, consts: BoundConstants) -> EnergyReport:
    """Full accounting of the curvature-energy bound for one solution, from
    its from-zero pass (full_line_norms)."""
    rep = EnergyReport(entries=[])
    (f_sq, f_err), (g_sq, g_err), (s_sq, s_err) = (
        full_line.rows[k] for k in ("F_sq", "nabla_bar_sq", "S_sq"))
    rep.add("curvature_l2_sq", f_sq, f_err, "Yang-Mills energy of the field")
    rep.add("tangential_gradient_l2_sq", g_sq, g_err)
    rep.add("completed_square_l2_sq", s_sq, s_err)
    rep.add("c_limit", consts.c_limit, consts.c_limit_error,
            "cutoff-limit constant of the reference solution")
    rep.add("c_pert", consts.c_pert, 0.0,
            "perturbation constant c19 + c24a + c24b (engine normalisation)")
    rep.add("c_decay", consts.c_decay, 0.0, "envelope constant, y > 1")
    rep.add("bound_constant", consts.C, 0.0, "C = c_limit + 2 c_pert")
    rep.add("bound_slack", consts.C - f_sq, 0.0,
            "must be positive: curvature energy below the bound")
    rep.add("route_total", f_sq + g_sq + s_sq, 0.0,
            "left side of the constant-route identity")
    rep.add("weighted_total", f_sq + g_sq + 0.5 * s_sq, 0.0,
            "weighted variant with half coefficient on the completed square")
    rep.validate_nonnegative()
    return rep
