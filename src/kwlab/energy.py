"""Energy bookkeeping: norms, boundary terms, the identity chain and bounds.

For invariant fields every integrand is constant on S^3, so L^2 norms reduce
to vol(S^3) * int dy of pointwise densities built from the coefficient
matrices.  The module computes, with certified quadrature error estimates,
the numbers of the energy suite's checks, whose entries and pass rules
``cli.suite_energy`` writes:

  * the first-order energy balance (bulk square norms against the two
    boundary functionals at y = eps),
  * the completed-square rearrangement of the Higgs derivative terms,
  * the bulk/boundary balance whose two sides separately diverge like 1/eps
    while their combination stabilises to a finite constant c_limit,
  * finiteness and stability of the model curvature constant c_model,
  * the topological charge, which the charge-model check compares with
    its antiderivative oracle,
  * the weighted-inequality chain on synthetic perturbations of the
    reference solution (slack of every intermediate step), and
  * the resulting curvature-energy bound with explicit engine constants.

Each pass over a field (Norms) is built under one set of conventions and
carries them, so the functions that continue a pass read them from it;
only the functions that build a pass or evaluate a field take conventions.

Displayed constants that depend on a volume normalisation are never
asserted; the engine computes its own sharp constants (vol(S^3) = 2 pi^2)
and returns them, which the reports carry with their provenance.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
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
    pole_b,
    pole_scalar,
    scaled_matrix_profile,
)
from . import quadrature
from .quadrature import (
    VOL_S3,
    doubled_sums,
    halfline_total,
    integrate_halfline,
    tail_bound,
)
from .su2 import bracket

OMEGA_NORM_SQ = 1.5
_I3 = np.eye(3)

CUTOFF_EPS = (1e-2, 1e-3, 1e-4)  # cutoffs of the reference solution's sweep

# What each identity reads, by keyword: the reference solution's pass above
# the cutoff (at_eps) or from zero (full_line), its cutoff sweep, the
# constants.  The balances, lhs = rhs, read the cutoff pass alone
IDENTITY_INPUTS = {
    "first-order-balance": ("at_eps",),
    "square-completion": ("at_eps",),
    "bulk-boundary-balance": ("at_eps",),
    "cutoff-limit": ("sweep",),
    "route-match": ("full_line", "sweep"),
    "weighted-bound": ("full_line", "consts"),
}


# ---------------------------------------------------------------------------
# pointwise densities
# ---------------------------------------------------------------------------

def _nabla_bar_sq(m: FieldAt):
    """|tangential covariant derivative of phi|^2 from the frame connection:
    vec[:, i, j] = [a column i, p column j], every pair in one cross product,
    less the frame term on EPS_TABLE's pairs; half of each |vec[:, i, j]|^2
    is added from 0 in row-major order of (i, j)."""
    p = m.p
    vec = bracket(m.a[:, :, None], p[:, None])
    half_c = 0.5 * m.conv.c
    for i, j, k, s in EPS_TABLE:
        vec[:, i, j] = vec[:, i, j] - half_c * s * p[:, k]
    # np.vecdot runs np.dot's BLAS kernel (fused multiply-adds) at each
    # node; a plain sum of products rounds differently
    sq = 0.5 * np.vecdot(vec, vec, axis=0)
    return np.add.accumulate(sq.reshape(9, *sq.shape[2:]))[-1]


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


def densities(conv: GeometryConventions, field: InvariantField, y, keys) -> dict:
    """The densities named in keys at y (a node or an array of nodes), in
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
_CHARGE = ("charge_density",)  # the from-zero pass's group that charge() reads
_PHI_ROWS = {k: CUTOFF_ROWS[k] for k in ("phi_sq",)}


# the density groups whose body and tail the from-zero pass keeps for the
# passes that share them
_KEPT_GROUPS = tuple(dict.fromkeys((*FULL_LINE_ROWS.values(), _CHARGE,
                                    *CUTOFF_ROWS.values())))


# vol(S^3) * int_eps^inf of named density rows of one field (eps 0: from zero)
# under the conventions conv that built the pass: rows[name] = (value, error
# estimate), and the parts they add up from: parts[density keys] = (head,
# body, tail), the doubled_sums of the head and the body and the tail_bound
# (a from-zero pass keeps every _KEPT_GROUPS group, the head None but for its
# rows' groups and the charge's), and boundary_terms at eps (None from zero).
# A cutoff pass's field is certified
Norms = namedtuple("Norms", "conv field eps rows parts boundary")


def _norms(conv, field, rows: dict, lo, kept: dict, heads_of=()) -> Norms:
    """The rows (name -> density keys) from lo < Y_SPLIT: one pass over the
    head of their groups and heads_of, each added to its group's body and
    tail in `kept`."""
    if not lo < quadrature.Y_SPLIT:
        raise ValueError(f"no head from {lo}: a pass adds its head to the "
                         "body from Y_SPLIT")
    groups = tuple(dict.fromkeys((*rows.values(), *heads_of)))
    heads = doubled_sums(density_rows(conv, field, groups), lo, 0)
    parts = {g: (head, *kept[g][1:]) for g, head in zip(groups, zip(*heads))}
    out = {}
    for name, g in rows.items():
        value, err = halfline_total(parts[g][:2], parts[g][2])
        out[name] = (float(VOL_S3 * value), float(VOL_S3 * err))
    return Norms(conv, field, lo, out, parts,
                 boundary_terms(conv, field, lo) if lo > 0 else None)


def from_zero_pass(conv, field) -> Norms:
    """The FULL_LINE_ROWS and the charge of the field from zero, uncertified
    (the charge needs no solution).  The body and tail are integrated once,
    on every _KEPT_GROUPS group, and kept in the parts for field_norms."""
    rows = density_rows(conv, field, _KEPT_GROUPS)
    bodies = zip(*doubled_sums(rows, 0.0, -1))
    kept = {g: (None, body, tail)
            for g, body, tail in zip(_KEPT_GROUPS, bodies, tail_bound(rows))}
    own = _norms(conv, field, FULL_LINE_ROWS, 0.0, kept, (_CHARGE,))
    return own._replace(parts={**kept, **own.parts})


def certified(from_zero: Norms) -> Norms:
    """The from-zero pass, once the solution guard passes: its field's residual
    is below 1e-8 at 24 nodes from 1e-3 to 10, every pass's range."""
    grid = np.geomspace(1e-3, 10.0, 24)
    if not np.max(kw_residual_norm(from_zero.conv, from_zero.field, grid)) <= 1e-8:
        raise ValueError("not a solution: identity chain does not apply")
    return from_zero


def full_line_norms(conv, field) -> Norms:
    """The field's from-zero pass, certified."""
    return certified(from_zero_pass(conv, field))


def charge(from_zero: Norms):
    """(value, error) of the charge of a from-zero pass's field, unscaled: as
    a row's floats do not depend on the other rows, topological_charge's."""
    head, body, tail = from_zero.parts[_CHARGE]
    return tuple(map(float, halfline_total((head, body), tail)))


def field_norms(full_line: Norms, rows, lo) -> Norms:
    """The rows (name -> density keys, groups of _KEPT_GROUPS) from
    lo < Y_SPLIT of the field that a from-zero pass certified: one pass over
    their head, each added to the body and tail that full_line keeps, as
    integrate_halfline adds its parts.  A row's floats do not depend on the
    other rows, so a check reading one by name gets its own pass's floats."""
    return _norms(full_line.conv, full_line.field, rows, lo, full_line.parts)


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
    cubic = VOL_S3 * float(det3(m.p))
    mixed = -VOL_S3 * float(frob_inner(m.p, m.t_f))
    return cubic, mixed


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------

def c_model(full_line: Norms):
    """Curvature constant ||F||_L2 + ||*3 d_y phi + phi^2||_L2 of the
    reference solution, both finite, from the F_sq and S_sq rows of its
    from-zero pass.  Returns (value, relative error estimate, parts)."""
    (f_sq, f_err), (s_sq, s_err) = full_line.rows["F_sq"], full_line.rows["S_sq"]
    val = _c_value(f_sq, s_sq)
    err = 0.5 * (f_err / max(math.sqrt(f_sq), 1e-30)
                 + s_err / max(math.sqrt(s_sq), 1e-30))
    return val, err, {"F_l2_sq": f_sq, "S_l2_sq": s_sq}


def _c_value(f_sq: float, s_sq: float) -> float:
    return math.sqrt(f_sq) + math.sqrt(s_sq)


def refined_c_model(full_line: Norms) -> float:
    """c_model's value on the from-zero layout of 4 * PANELS panels, twice
    full_line's fine one (c-model-stability), with no error estimate or tail."""
    rows = density_rows(full_line.conv, full_line.field, tuple(C_MODEL_ROWS.values()))
    v = quadrature.integrate_layout(rows, 0.0, 4 * quadrature.PANELS)
    return _c_value(*(VOL_S3 * v).tolist())


def c_decay() -> float:
    """Envelope constant: sup_{y >= 1} |phi_model| e^{2y} on 400 nodes of
    [1, 25], slightly inflated so |phi_model| <= c_decay e^{-2y} holds
    pointwise on y > 1."""
    ys = np.linspace(1.0, 25.0, 400)
    b = pole_scalar(pole_b, ys)[0]
    sup = float(np.max(math.sqrt(OMEGA_NORM_SQ) * b * np.exp(2.0 * ys)))
    return sup * (1.0 + 1e-9)


def topological_charge(conv: GeometryConventions, a_profile: MatrixProfile):
    """(1 / 4 pi^2) int tr(F_A)^2 of a connection alone, by quadrature.  For
    scalar profiles the integrand is a total derivative, the tests' oracle."""
    field = InvariantField(a_profile, scaled_matrix_profile(lambda jy: jy * 0, _I3))

    return integrate_halfline(density_fn(conv, field, ("charge_density",)), 0.0)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    xs = list(map(float, xs))
    t = list(map(float, ys))
    for m in range(1, len(t)):
        for i in range(len(t) - m):
            t[i] = (xs[i + m] * t[i] - xs[i] * t[i + 1]) / (xs[i + m] - xs[i])
    return t[0]


def check_energy_identity(ident: str, *,
                          at_eps: Norms | None = None,
                          full_line: Norms | None = None,
                          sweep: CutoffSweep | None = None,
                          consts: BoundConstants | None = None) -> tuple:
    """One identity of the energy bookkeeping on a solution field, from its
    IDENTITY_INPUTS only: passes (Norms) and a sweep built from one, which
    certify that the field is a solution.  Returns (value, the numbers it
    is built from): the relative gap of a balance or of route-match, the
    ratio of the cutoff combination's increments, or the weighted energy."""
    if ident not in IDENTITY_INPUTS:
        raise ValueError(f"unknown identity id {ident!r}")

    if IDENTITY_INPUTS[ident] == ("at_eps",):
        rows = at_eps.rows
        cubic, mixed = at_eps.boundary
        if ident == "first-order-balance":
            (lhs, err), rhs = rows["first_order"], cubic + mixed
        elif ident == "square-completion":
            (full_grad, e1), (rhs, e2) = rows["full_grad"], rows["completed"]
            lhs, err = full_grad - cubic, e1 + e2
        else:
            (lhs, err), rhs = _bulk_balance(at_eps), mixed
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        return gap, {"lhs": lhs, "rhs": rhs, "quad_error": err, "eps": at_eps.eps}

    if ident == "cutoff-limit":
        combos = [row[2] for row in sweep.rows]
        ratio = abs(combos[2] - combos[1]) / max(abs(combos[1] - combos[0]), 1e-30)
        slopes = [loglog_slope(CUTOFF_EPS,
                               [abs(row[comp]) for row in sweep.rows])
                  for comp in range(2)]
        return ratio, {"eps": list(CUTOFF_EPS), "combos": combos,
                       "limit": sweep.limit, "summand_slopes": slopes}

    if ident == "route-match":
        direct, err = full_line.rows["bulk"]
        gap = abs(direct - sweep.limit) / max(abs(direct), 1e-30)
        return gap, {"limit": sweep.limit, "direct": direct, "quad_error": err}

    (lhs, err), (s_sq, e2) = full_line.rows["F_nabla"], full_line.rows["S_sq"]
    lhs += 0.5 * s_sq
    return lhs, {"lhs": lhs, "bound": consts.C, "quad_error": err + 0.5 * e2}


def _bulk_balance(norms: Norms):
    """(bulk energy above eps, quadrature error) of the bulk/boundary
    balance, from the norms' bulk and phi_sq rows."""
    (lhs, err), (two_phi, e2) = norms.rows["bulk"], norms.rows["phi_sq"]
    return lhs + 2.0 * two_phi, err + 2 * e2


def eps_sweep_rows(full_line: Norms, eps_list):
    """Rows (eps, lhs, rhs, gap) of the bulk/boundary balance for CSV export,
    on the field of a from-zero pass, whose build certified it a solution."""
    rows = []
    for eps in eps_list:
        norms = field_norms(full_line, _BALANCE_ROWS, eps)
        lhs, rhs = _bulk_balance(norms)[0], norms.boundary[1]
        rows.append((eps, lhs, rhs, lhs - rhs))
    return rows


def cutoff_rows(full_line: Norms, cutoffs):
    """The phi_sq pass from each cutoff eps of a from-zero pass's field, and
    per pass (bulk 2|phi|^2 integral, mixed boundary term, stabilising
    combination); the first two diverge like 1/eps."""
    passes = tuple(field_norms(full_line, _PHI_ROWS, eps) for eps in cutoffs)
    two_phi = [2.0 * p.rows["phi_sq"][0] for p in passes]
    mixed = [p.boundary[1] for p in passes]
    return passes, tuple((t, m, m - t) for t, m in zip(two_phi, mixed))


# passes: each CUTOFF_EPS's phi_sq pass, with its (value, error); rows: per
# cutoff (bulk 2|phi|^2, mixed term, combination); limit: the one at eps = 0
CutoffSweep = namedtuple("CutoffSweep", "passes rows limit")


def cutoff_sweep(full_line: Norms) -> CutoffSweep:
    """The CUTOFF_EPS sweep of a from-zero pass's field, once per run."""
    passes, rows = cutoff_rows(full_line, CUTOFF_EPS)
    return CutoffSweep(passes, rows, _neville_to_zero(CUTOFF_EPS, [r[2] for r in rows]))


# ---------------------------------------------------------------------------
# the perturbation chain
# ---------------------------------------------------------------------------

# Perturbations per block of perturbation_chain: bounds the (3, 3, k, n)
# stacks of the perturbed completed square
BLOCK = 8


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


def perturbation_chain(amplitudes, rates, directions,
                       consts: BoundConstants) -> list:
    """Every intermediate inequality of the weighted-bound chain on the
    synthetic fields phi = phi_model + q(y) m, q = amp * y * exp(-rate * y),
    one per amplitude (k,), rate (k,) and direction m (k, 3, 3); per
    perturbation, the slack of each step (name -> float) and the value of
    chain line 5, the scale of its quadrature noise.  The chain holds where
    every slack is >= 0 and the discarded boundary term is <= 0.
    |omega|^2 enters every chain line as w_sq, so for a pure-V1 direction
    the quadratic-projection slacks are exactly zero.  In each block of BLOCK
    perturbations the chain lines that share a quadrature layout are rows of
    one integrand.  The near lines take the head of the from-zero layout,
    (0, 1], and the far lines its body, from 1, both at 2 * PANELS panels
    (the chain reads no error estimate), and the model's h once per layout."""
    amp = np.asarray(amplitudes, dtype=float)
    rate = np.asarray(rates, dtype=float)
    m = np.asarray(directions, dtype=float)
    q_ends = exp_decay_q(amp, rate, np.array([1e-8, 30.0]))[0]
    if not np.all(np.abs(q_ends[:, 0]) <= 1e-6):
        raise ValueError("perturbation must vanish at the boundary (rho = O(y))")
    if not np.all(np.abs(q_ends[:, 1]) <= 1e-6):
        raise ValueError("perturbation must decay toward infinity")
    ys = np.linspace(1.0, 12.0, 60)  # the far envelope: the model's alone
    env_slack = float(np.min(consts.c_decay * np.exp(-2.0 * ys) - math.sqrt(
        OMEGA_NORM_SQ) * pole_scalar(pole_b, ys)[0]))
    model = {}  # the model's (h, h') on the nodes of each layout of a block
    return [out for s in range(0, len(amp), BLOCK) for out in _chain_block(
        amp[s:s + BLOCK], rate[s:s + BLOCK], m[s:s + BLOCK], consts,
        env_slack, model)]


def _chain_block(amp, rate, m, consts: BoundConstants, env_slack, model) -> list:
    """perturbation_chain's (steps, line 5) on one block of perturbations."""
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

    def profiles(y, layout):
        """h = b, b' (n,), once per layout; q, q', alpha and alpha' (k, n)."""
        h, dh = model[layout] = model.get(layout) or pole_scalar(pole_b, y)
        q, dq = exp_decay_q(amp, rate, y)
        return h, dh, q, dq, gamma * q, gamma * dq

    def abs_g(h, alpha, dalpha):  # |f^{-1} d_y (f alpha)|
        return abs(dalpha + 2.0 * h * alpha + alpha * alpha)

    # |c|, where c * omega is *3 d_y rho1 + [phi_model, rho1] + (rho ^ rho)^(1);
    # its norm is |c| * w_abs, so it enters the chain as |c| * w_sq
    def mid_norm(h, q, alpha, dalpha):
        return abs(dalpha + 2.0 * h * alpha + q * q * w1)

    def s_full_norm(h, dh, q, dq):  # |d_y phi + *3 phi^2| of the perturbed fields
        p = _I3[:, :, None, None] * h + mf[..., None] * q  # (3, 3, k, n)
        dp = _I3[:, :, None, None] * dh + mf[..., None] * dq
        return np.sqrt(_s_sq(FieldAt(None, None, None, p, dp)))

    def near_rows(y):  # the chain on (0, 1], the head
        h, dh, q, dq, alpha, dalpha = profiles(y, "near")
        s_full = s_full_norm(h, dh, q, dq)
        return np.stack([
            2.0 * abs(h * alpha) * w_sq,
            2.0 * h * abs(alpha) * w_sq,
            alpha * alpha * w_sq,
            (sgn * dalpha + 2.0 * h * abs(alpha) + sgn * (alpha * alpha)) * w_sq,
            abs_g(h, alpha, dalpha) * w_sq,
            0.5 * (q * q) * (n2 + n3),
            mid_norm(h, q, alpha, dalpha) * w_sq,
            s_full * w_abs,
            s_full * s_full,
            q * q * (n1 + n2 + n3),
        ])

    def far_rows(y):  # y > 1, the body
        h, dh, q, dq, alpha, _ = profiles(y, "far")
        s_full = s_full_norm(h, dh, q, dq)
        return np.stack([2.0 * abs(h * alpha) * w_sq, alpha * alpha * w_sq,
                         q * q * (n1 + n2 + n3), s_full * s_full])

    near, far = quadrature.halfline_edges(0.0, 2 * quadrature.PANELS)
    (line1, line2, rho1_sq_near, wd_int, g_l1, rho23_near, mid_l1, s_full_l1,
     s_full_sq_near, rho_sq_near) = VOL_S3 * quadrature.integrate_panels(
        near_rows, near, quadrature.NODES)
    b1 = VOL_S3 * abs(gamma * exp_decay_q(amp, rate, 1.0)[0])[:, 0] * w_sq
    # in line 3 the integral of sgn * alpha' is taken from its boundary
    # values: alpha(0) = 0 and sgn * alpha = |alpha|, so it is b1 itself and
    # cancels the discarded b1, and the step is exactly 0 for sgn = -1
    line3 = line2 + (1.0 + sgn[:, 0]) * rho1_sq_near
    line4 = wd_int + rho1_sq_near
    line5 = g_l1 + rho1_sq_near
    line6 = mid_l1 + rho23_near + rho1_sq_near

    ys = np.linspace(1e-4, 1.0, 200)
    h, _, q, _, alpha, dalpha = profiles(ys, "grid")
    min_slack_pointwise = np.min(
        mid_norm(h, q, alpha, dalpha) * w_sq + 0.5 * (q * q) * (n2 + n3)
        - abs_g(h, alpha, dalpha) * w_sq, axis=1)

    # model-constant split and the Young step
    c24a, c24b = consts.c24a, consts.c24b
    line7 = c24a + s_full_l1 + rho23_near + rho1_sq_near
    line8 = c24a + c24b + 0.5 * s_full_sq_near + rho23_near + rho1_sq_near

    # far part (y > 1)
    c19 = consts.c19
    far_tr, far_rho1, rho_sq_far, s_full_sq_far = (
        VOL_S3 * quadrature.integrate_panels(far_rows, far, quadrature.NODES))
    step_far_rhs = c19 + 0.5 * far_rho1

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
    return [({k: float(v[j]) for k, v in columns.items()}, float(line5[j]))
            for j in range(len(amp))]


# ---------------------------------------------------------------------------
# assembled bound
# ---------------------------------------------------------------------------

class BoundConstants(NamedTuple):
    """Engine constants of the curvature-energy bound.  A run integrates the
    reference solution's body and tail once and each pass's head once on
    the lab's layout: its passes (Norms) and the values built from them,
    these constants and the CutoffSweep, are built once per run from its
    one certified from-zero pass, and every check that uses one takes that
    value."""

    c_decay: float
    c19: float
    c24a: float
    c24b: float
    c_pert: float         # c19 + c24a + c24b
    c_limit: float        # direct full-line energy of the reference solution
    c_limit_error: float
    C: float              # c_limit + 2 c_pert


def bound_constants(full_line: Norms) -> BoundConstants:
    """Engine constants of the curvature-energy bound: the cutoff-limit
    constant of the model (the bulk row of its from-zero pass), the
    perturbation constant, whose c24a is the model's S_sq density on
    (0, 1] (the fine head sum of that pass's S_sq row), and their
    combination C = c_limit + 2 c_pert."""
    direct, err = full_line.rows["bulk"]
    c2 = c_decay()
    c19 = 0.5 * VOL_S3 * c2 * c2 * math.exp(-4.0)
    w_abs = math.sqrt(OMEGA_NORM_SQ)
    s_sq_near = VOL_S3 * full_line.parts[FULL_LINE_ROWS["S_sq"]][0][1]
    c24a = w_abs * math.sqrt(VOL_S3) * math.sqrt(s_sq_near)
    c24b = 0.5 * VOL_S3 * OMEGA_NORM_SQ
    c_pert = c19 + c24a + c24b
    return BoundConstants(
        c_decay=c2, c19=c19, c24a=c24a, c24b=c24b, c_pert=c_pert,
        c_limit=direct, c_limit_error=err, C=direct + 2.0 * c_pert,
    )


def theorem_bound_report(full_line: Norms, consts: BoundConstants) -> list:
    """Full accounting of the curvature-energy bound for one solution, from
    its from-zero pass (full_line_norms): rows (name, value, error estimate,
    note); ValueError if a norm squared is negative."""
    (f_sq, f_err), (g_sq, g_err), (s_sq, s_err) = (
        full_line.rows[k] for k in ("F_sq", "nabla_bar_sq", "S_sq"))
    rows = [
        ("curvature_l2_sq", f_sq, f_err, "Yang-Mills energy of the field"),
        ("tangential_gradient_l2_sq", g_sq, g_err, ""),
        ("completed_square_l2_sq", s_sq, s_err, ""),
        ("c_limit", consts.c_limit, consts.c_limit_error,
         "cutoff-limit constant of the reference solution"),
        ("c_pert", consts.c_pert, 0.0,
         "perturbation constant c19 + c24a + c24b (engine normalisation)"),
        ("c_decay", consts.c_decay, 0.0, "envelope constant, y > 1"),
        ("bound_constant", consts.C, 0.0, "C = c_limit + 2 c_pert"),
        ("bound_slack", consts.C - f_sq, 0.0,
         "must be positive: curvature energy below the bound"),
        ("route_total", f_sq + g_sq + s_sq, 0.0,
         "left side of the constant-route identity"),
        ("weighted_total", f_sq + g_sq + 0.5 * s_sq, 0.0,
         "weighted variant with half coefficient on the completed square"),
    ]
    for name, value, _, _ in rows:
        if name.endswith("_sq") and value < 0:
            raise ValueError(f"norm-squared entry {name} is negative: {value}")
    return rows
