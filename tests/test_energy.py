"""Energy identities, constants, perturbation chain, bound assembly."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import jet_exp
from kwlab.energy import (
    BLOCK,
    C_MODEL_ROWS,
    CUTOFF_ROWS,
    DENSITY_KEYS,
    OMEGA_NORM_SQ,
    boundary_terms,
    c_decay,
    c_model,
    check_energy_identity,
    cutoff_combination,
    densities,
    density_fn,
    density_rows,
    eps_sweep_rows,
    exp_decay_q,
    field_norms,
    full_line_norms,
    perturbation_chain,
    random_perturbations,
    theorem_bound_report,
    topological_charge,
)
from kwlab.forms import EPS_TABLE, frob_inner, wedge_bracket_matrix
from kwlab.jets import Jet
from kwlab.profiles import (
    InvariantField,
    MatrixProfile,
    nahm_pole_invariant_solution,
    nahm_pole_invariant_solution_alt,
    pole_a,
    pole_a_alt,
    pole_b,
    pole_scalars,
    scaled_matrix_profile,
)
from kwlab.quadrature import (
    VOL_S3,
    QuadratureSpec,
    exp_nodes,
    integrate_halfline,
    integrate_interval,
    integrate_panels,
    l2_norm_sq,
)
from kwlab.report import make_check
from kwlab.su2 import bracket

I3 = np.eye(3)


@pytest.fixture(scope="module")
def model():
    return nahm_pole_invariant_solution()


# ---------------------------------------------------------------------------
# per-perturbation reference: the chain as it ran before the batched one,
# one perturbation at a time, q through its second-order jet and one
# quadrature call per chain line; the batched chain must reproduce it bit
# for bit
# ---------------------------------------------------------------------------

class _RefPerturbation:
    """rho = q(y) * m with q = amp * y * exp(-rate * y) as a jet profile."""

    def __init__(self, amplitude, rate, direction, name="perturbation"):
        self.q_fn = lambda jy: amplitude * jy * jet_exp(-rate * jy)
        self.direction = np.asarray(direction, dtype=float)
        self.name = name

    def q(self, y):
        j = self.q_fn(Jet.var(np.asarray(y, dtype=float)))
        return j.f, j.d

    def field(self) -> InvariantField:
        return InvariantField(
            scaled_matrix_profile(pole_a, I3),
            MatrixProfile([(pole_b, I3), (self.q_fn, self.direction)]),
        )


def _ref_random(rng):
    amp = rng.uniform(0.05, 0.6)
    rate = rng.uniform(0.9, 2.5)
    m = np.array([[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(3)])
    return _RefPerturbation(amp, rate, m, name=f"seeded-{amp:.3f}-{rate:.3f}")


def _pow2(x):
    return np.float_power(x, 2)


def _ref_chain(conv, pert, spec, consts):
    m = pert.direction
    gamma = float(np.trace(m)) / 3.0
    sgn = 1.0 if gamma >= 0 else -1.0
    m_antisym = 0.5 * (m - m.T)
    m_symtl = 0.5 * (m + m.T) - (np.trace(m) / 3.0) * I3
    n1 = gamma * gamma * OMEGA_NORM_SQ
    n2 = 0.5 * float(frob_inner(m_antisym, m_antisym))
    n3 = 0.5 * float(frob_inner(m_symtl, m_symtl))
    w1 = 0.5 * float(np.trace(wedge_bracket_matrix(m, m))) / 3.0

    V = VOL_S3
    w_sq = OMEGA_NORM_SQ
    w_abs = math.sqrt(w_sq)

    def h_of(y):
        return pole_scalars(y)[1]

    def q_of(y):
        return pert.q(y)[0]

    def alpha(y):
        return gamma * q_of(y)

    def dalpha(y):
        return gamma * pert.q(y)[1]

    def g_of(y):  # f^{-1} d_y (f alpha) = alpha' + 2 h alpha + alpha^2
        return dalpha(y) + 2.0 * h_of(y) * alpha(y) + _pow2(alpha(y))

    def s_full_norm(y):  # |d_y phi + *3 phi^2| of the perturbed field
        _, b_, _, db_ = pole_scalars(y)
        q, dq = pert.q(y)
        outer = np.multiply.outer  # matrix axes first
        p = outer(I3, b_) + outer(m, q)
        dp = outer(I3, db_) + outer(m, dq)
        s = dp + 0.5 * wedge_bracket_matrix(p, p)
        return np.sqrt(0.5 * frob_inner(s, s))

    # |c|, where c * omega is *3 d_y rho1 + [phi_model, rho1] + (rho ^ rho)^(1);
    # its norm is |c| * w_abs, so it enters the chain as |c| * w_sq
    def mid_norm(y):
        return abs(dalpha(y) + 2.0 * h_of(y) * alpha(y) + _pow2(q_of(y)) * w1)

    def near(f):
        return V * integrate_interval(f, 0.0, 1.0, panels=32)[0]

    # chain on (0, 1]
    line1 = near(lambda y: 2.0 * abs(h_of(y) * alpha(y)) * w_sq)
    line2 = near(lambda y: 2.0 * h_of(y) * abs(alpha(y)) * w_sq)
    b1 = V * abs(alpha(1.0)) * w_sq
    rho1_sq_near = near(lambda y: _pow2(alpha(y)) * w_sq)
    wd_int = near(lambda y: (sgn * dalpha(y) + 2.0 * h_of(y) * abs(alpha(y))
                             + sgn * _pow2(alpha(y))) * w_sq)
    # in line 3 the integral of sgn * alpha' is taken from its boundary
    # values: alpha(0) = 0 and sgn * alpha = |alpha|, so it is b1 itself and
    # cancels the discarded b1, and the step is exactly 0 for sgn = -1
    line3 = line2 + (1.0 + sgn) * rho1_sq_near
    line4 = wd_int + rho1_sq_near
    line5 = near(lambda y: abs(g_of(y)) * w_sq) + rho1_sq_near
    rho23_near = near(lambda y: 0.5 * _pow2(q_of(y)) * (n2 + n3))
    mid_l1 = near(lambda y: mid_norm(y) * w_sq)
    line6 = mid_l1 + rho23_near + rho1_sq_near

    ys = np.linspace(1e-4, 1.0, 200)
    min_slack_pointwise = float(np.min(
        mid_norm(ys) * w_sq + 0.5 * _pow2(q_of(ys)) * (n2 + n3) - abs(g_of(ys)) * w_sq
    ))

    # model-constant split and the Young step
    c24a, c24b = consts.c24a, consts.c24b
    s_full_l1 = near(lambda y: s_full_norm(y) * w_abs)
    s_full_sq_near = near(lambda y: _pow2(s_full_norm(y)))
    line7 = c24a + s_full_l1 + rho23_near + rho1_sq_near
    line8 = c24a + c24b + 0.5 * s_full_sq_near + rho23_near + rho1_sq_near

    # far part (y > 1)
    c2, c19 = consts.c_decay, consts.c19
    far_spec = replace(spec, eps=1.0, y_split=2.0)

    def far(f):
        return V * integrate_halfline(f, far_spec, geometric_head=False)[0]

    far_tr = far(lambda y: 2.0 * abs(h_of(y) * alpha(y)) * w_sq)
    far_rho1 = far(lambda y: _pow2(alpha(y)) * w_sq)
    step_far_rhs = c19 + 0.5 * far_rho1
    ys = np.linspace(1.0, 12.0, 60)
    env_slack = float(np.min(c2 * exp_nodes(-2.0 * ys) - w_abs * h_of(ys)))

    # assembled final inequality
    c1 = consts.c_pert
    lhs_total = line1 + far_tr
    rho_sq_total = (near(lambda y: _pow2(q_of(y)) * (n1 + n2 + n3))
                    + far(lambda y: _pow2(q_of(y)) * (n1 + n2 + n3)))
    s_full_sq = s_full_sq_near + far(lambda y: _pow2(s_full_norm(y)))
    rhs_total = c1 + rho_sq_total + 0.5 * s_full_sq

    tol = 1e-9 * max(1.0, abs(line5))
    steps = {
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
        "far_envelope_min": env_slack,
        "final": rhs_total - lhs_total,
    }
    bad = {k: v for k, v in steps.items()
           if k != "discarded_boundary_term" and v < -tol}
    ok = not bad and steps["discarded_boundary_term"] <= tol
    return make_check(
        "perturbation-chain",
        f"weighted-bound chain on {pert.name}: slack of every step",
        computed=float(min(v for k, v in steps.items()
                           if k != "discarded_boundary_term")),
        ok=bool(ok),
        extra={"steps": steps,
               "constants": {"c19": c19, "c24a": c24a, "c24b": c24b,
                             "c1": c1, "c_decay": c2}},
    )


def test_boundary_terms_zero_field(conv):
    zero = scaled_matrix_profile(lambda jy: jy * 0, I3)
    field = InvariantField(zero, zero)
    cubic, mixed = boundary_terms(conv, field, 0.3)
    assert cubic == 0.0 and mixed == 0.0


def test_boundary_terms_divergences(conv, model):
    # mixed term diverges like +6 pi^2 / eps, cubic like 2 pi^2 / eps^3
    for eps in (1e-2, 1e-3):
        cubic, mixed = boundary_terms(conv, model, eps)
        assert math.isclose(mixed, 6 * math.pi**2 / eps, rel_tol=5 * eps)
        assert math.isclose(cubic, 2 * math.pi**2 / eps**3, rel_tol=5 * eps)
        assert mixed > 0 and cubic > 0


def test_model_densities_positive_and_bounded_at_pole(conv, model):
    d = densities(conv, model, 1e-5)
    for key in ("F_sq", "nabla_bar_sq", "S_sq"):
        assert 0 <= d[key] < 10.0
    # the Higgs norm itself carries the 1/y^2 divergence
    assert d["phi_sq"] > 1e9


def test_densities_refuse_boundary_evaluation(conv, model):
    # FieldAt.of refuses y <= 0 for every reader, as kw_residual does
    for y in (0.0, np.array([1.0, -0.5])):
        with pytest.raises(ValueError, match="boundary evaluation"):
            densities(conv, model, y)


# ---------------------------------------------------------------------------
# scalar reference: one node at a time, the way the densities were first
# written; the array engine must reproduce it bit for bit
# ---------------------------------------------------------------------------

def _scalar_eval(profile, y):
    jy = Jet.var(np.longdouble(y))
    val = der = None
    for fn, mat in profile.terms:
        j = fn(jy)
        v, d = j.f * mat, j.d * mat
        val = v if val is None else val + v
        der = d if der is None else der + d
    return np.asarray(val, dtype=float), np.asarray(der, dtype=float)


def _scalar_densities(conv, field, y):
    a, da = _scalar_eval(field.connection, y)
    p, dp = _scalar_eval(field.higgs, y)
    t_f = -conv.c * a + 0.5 * wedge_bracket_matrix(a, a)
    n_f = da
    s_mat = dp + 0.5 * wedge_bracket_matrix(p, p)
    nabla = 0.0
    half_c = 0.5 * conv.c
    for ai in range(3):
        for b in range(3):
            vec = bracket(a[:, ai], p[:, b])
            for i, j, k, s in EPS_TABLE:
                if i == ai and j == b:
                    vec = vec - half_c * s * p[:, k]
            nabla += 0.5 * float(np.dot(vec, vec))
    phi2 = 0.5 * wedge_bracket_matrix(p, p)
    fm = t_f - phi2
    t_dphi = -conv.c * p + wedge_bracket_matrix(a, p)
    div = sum(bracket(a[:, col], p[:, col]) for col in range(3))
    return {
        "F_sq": 0.5 * (frob_inner(t_f, t_f) + frob_inner(n_f, n_f)),
        "nabla_bar_sq": nabla,
        "S_sq": 0.5 * frob_inner(s_mat, s_mat),
        "phi_sq": 0.5 * frob_inner(p, p),
        "dyphi_sq": 0.5 * frob_inner(dp, dp),
        "phi2_sq": 0.5 * frob_inner(phi2, phi2),
        "F_minus_phi2_sq": 0.5 * (frob_inner(fm, fm) + frob_inner(n_f, n_f)),
        "dAphi_sq": 0.5 * (frob_inner(t_dphi, t_dphi) + frob_inner(dp, dp)),
        "dAstar_sq": 0.5 * float(np.dot(div, div)),
        "charge_density": -0.5 * frob_inner(n_f, t_f),
    }


def _scalar_panel_sum(values, edges, nodes):
    """Panel by panel, node by node: sum_panels half * sum_k w_k f(y_k)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    out = 0.0
    for panel, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        half = 0.5 * (float(hi) - float(lo))
        total = 0.0
        for k in range(nodes):
            total += w[k] * values[panel * nodes + k]
        out += half * total
    return out


def _panel_nodes(edges, nodes):
    x, _ = np.polynomial.legendre.leggauss(nodes)
    return np.array([0.5 * (float(lo) + float(hi)) + 0.5 * (float(hi) - float(lo)) * xi
                     for lo, hi in zip(edges[:-1], edges[1:]) for xi in x])


_LAYOUTS = {
    "geometric": np.geomspace(1e-3, 1.0, 49),
    "uniform": np.linspace(1.0, 30.0, 49),
    "from-zero": np.linspace(0.0, 1.0, 49),
}
_FIELDS = {
    "model": nahm_pole_invariant_solution,
    "companion": nahm_pole_invariant_solution_alt,
    "perturbed": lambda: _ref_random(random.Random(42)).field(),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("field_name", sorted(_FIELDS))
def test_array_densities_match_scalar_reference(conv, field_name, layout):
    field = _FIELDS[field_name]()
    edges = _LAYOUTS[layout]
    ys = _panel_nodes(edges, 16)
    ref = [_scalar_densities(conv, field, float(y)) for y in ys]
    got = densities(conv, field, ys)
    assert tuple(got) == DENSITY_KEYS and len(DENSITY_KEYS) == 10
    for key in DENSITY_KEYS:
        want = [d[key] for d in ref]
        assert got[key].tolist() == want, key
        assert (integrate_panels(density_fn(conv, field, (key,)), edges, 16)
                == _scalar_panel_sum(want, edges, 16)), key
    keys = ("F_minus_phi2_sq", "dAphi_sq", "dAstar_sq")
    summed = [sum(d[k] for k in keys) for d in ref]
    assert (integrate_panels(density_fn(conv, field, keys), edges, 16)
            == _scalar_panel_sum(summed, edges, 16))
    # key groups as rows of one integrand: each row is its density_fn sum
    groups = (keys, ("phi_sq",), ("F_sq", "nabla_bar_sq", "S_sq"))
    rows = integrate_panels(density_rows(conv, field, groups), edges, 16)
    assert rows.tolist() == [
        integrate_panels(density_fn(conv, field, g), edges, 16) for g in groups]
    # only the keys asked for are computed
    assert set(densities(conv, field, ys, ("phi_sq",))) == {"phi_sq"}


def test_identity_checks_on_model(conv, quad_spec, model):
    at_eps = field_norms(conv, model, quad_spec.with_eps(0.05), CUTOFF_ROWS)
    for ident in ("first-order-balance", "square-completion",
                  "bulk-boundary-balance"):
        rep = check_energy_identity(conv, ident, at_eps=at_eps)
        assert rep.status == "pass", rep
        assert rep.computed <= 1e-6
        assert rep.extra["quad_error"] < 1e-6


def test_identity_rejects_non_solutions(conv, quad_spec):
    # the pass an identity reads refuses the field when it is built
    bad = InvariantField(
        scaled_matrix_profile(lambda jy: jy * 0 + 1.0, I3),
        scaled_matrix_profile(lambda jy: 1 / jy, I3),
    )
    with pytest.raises(ValueError, match="not a solution"):
        field_norms(conv, bad, quad_spec.with_eps(0.05), CUTOFF_ROWS)
    with pytest.raises(ValueError, match="not a solution"):
        full_line_norms(conv, bad, quad_spec)
    with pytest.raises(ValueError, match="unknown identity"):
        check_energy_identity(conv, "nope")


def test_cutoff_limit_and_route(conv, quad_spec, model, full_line, sweep):
    rep = check_energy_identity(conv, "cutoff-limit", sweep=sweep)
    assert rep.status == "pass"
    combos = rep.extra["combos"]
    inc1 = abs(combos[1] - combos[0])
    inc2 = abs(combos[2] - combos[1])
    assert 0.05 <= inc2 / inc1 <= 0.2  # linear shrink in eps
    for slope in rep.extra["summand_slopes"]:
        assert abs(slope + 1.0) <= 0.05

    route = check_energy_identity(conv, "route-match", full_line=full_line,
                                  sweep=sweep)
    assert route.status == "pass" and route.computed <= 1e-6
    # the sweep is the model's cutoff combination at each cutoff
    for eps, row in zip(rep.extra["eps"], sweep.rows):
        assert cutoff_combination(conv, model, eps, quad_spec)[:3] == row


def test_divergence_cancellation_monotone(conv, quad_spec, model):
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        bulk3, _ = l2_norm_sq(
            density_fn(conv, model, ("F_sq", "nabla_bar_sq", "S_sq")),
            quad_spec.with_eps(eps))
        _, _, combo, _ = cutoff_combination(conv, model, eps, quad_spec)
        gaps.append(abs(bulk3 - combo))
    assert all(g < 1e-8 for g in gaps)


def test_c_model_finite_stable(conv, quad_spec, model, full_line):
    val, err, parts = c_model(full_line)
    val2, _, _ = c_model(field_norms(conv, model, quad_spec.refined(),
                                     C_MODEL_ROWS, from_zero=True))
    assert abs(val - val2) / val <= 1e-8
    assert parts["F_l2_sq"] > 0 and parts["S_l2_sq"] > 0
    # second summand equals the norm of the tangential curvature part:
    # for a solution the completed square *is* that part of F
    sq, _ = l2_norm_sq(
        lambda y: 1.5 * (pole_scalars(y)[0] ** 2 - 2 * pole_scalars(y)[0]) ** 2,
        quad_spec, from_zero=True)
    assert math.isclose(parts["S_l2_sq"], sq, rel_tol=1e-10)


_BULK = ("F_sq", "nabla_bar_sq", "S_sq")
_ACCEPTANCE_SPEC = QuadratureSpec()


def _per_producer_passes(conv, field, spec, eps):
    """Every row as each producer integrated it in its own pass, before the
    suite shared one pass per layout: (pass, row name, (value, error))."""
    def own(groups, sp, from_zero):
        v, e = l2_norm_sq(density_rows(conv, field, groups), sp, from_zero)
        return list(zip(v.tolist(), e.tolist()))

    at_eps = spec.with_eps(eps)
    out = [("full_line", "bulk",  # bound_constants' c_limit
            l2_norm_sq(density_fn(conv, field, _BULK), spec, from_zero=True))]
    out += zip(["full_line"], ("bulk",),  # route-match
               own((_BULK,), spec, True))
    out += zip(["full_line"] * 2, ("F_nabla", "S_sq"),  # weighted-bound
               own((("F_sq", "nabla_bar_sq"), ("S_sq",)), spec, True))
    out += zip(["full_line"] * 2, ("F_sq", "S_sq"),  # c_model
               own((("F_sq",), ("S_sq",)), spec, True))
    out += zip(["refined"] * 2, ("F_sq", "S_sq"),  # c_model, refined
               own((("F_sq",), ("S_sq",)), spec.refined(), True))
    out += zip(["full_line"] * 3,  # theorem_bound_report
               ("F_sq", "nabla_bar_sq", "S_sq"),
               own((("F_sq",), ("nabla_bar_sq",), ("S_sq",)), spec, True))
    out.append(("at_eps", "first_order", l2_norm_sq(density_fn(  # first-order
        conv, field, ("F_minus_phi2_sq", "dAphi_sq", "dAstar_sq")), at_eps)))
    out += zip(["at_eps"] * 2, ("full_grad", "completed"),  # square-completion
               own((("nabla_bar_sq", "dyphi_sq", "phi2_sq"),
                    ("nabla_bar_sq", "S_sq")), at_eps, False))
    out += zip(["at_eps"] * 2, ("bulk", "phi_sq"),  # bulk-boundary-balance
               own((_BULK, ("phi_sq",)), at_eps, False))
    return out


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_shared_rows_equal_per_producer_passes_bitwise(conv, model, eps):
    spec = _ACCEPTANCE_SPEC
    full_line = full_line_norms(conv, model, spec)
    shared = {
        "full_line": full_line,
        # the suite's refined pass takes the certified from-zero pass
        "refined": field_norms(conv, full_line, spec.refined(), C_MODEL_ROWS,
                               from_zero=True),
        "at_eps": field_norms(conv, model, spec.with_eps(eps), CUTOFF_ROWS),
    }
    assert shared["at_eps"].eps == eps and shared["full_line"].eps == 0.0
    read = set()
    for pass_, name, (value, error) in _per_producer_passes(conv, model, spec, eps):
        got = shared[pass_].rows[name]
        assert [x.hex() for x in got] == [value.hex(), error.hex()], (pass_, name)
        read.add((pass_, name))
    # every shared row is one that some producer integrated
    assert read == {(p, k) for p, n in shared.items() for k in n.rows}


def test_c_decay_envelope(conv):
    c2 = c_decay()
    assert math.isclose(c2, 6.0 * math.sqrt(1.5), rel_tol=1e-6)
    for y in np.linspace(1.0, 14.0, 100):
        _, b, _, _ = pole_scalars(float(y))
        assert math.sqrt(1.5) * b <= c2 * math.exp(-2.0 * float(y)) * (1 + 1e-12)


def test_charge_oracles(conv, quad_spec):
    q, err = topological_charge(conv, scaled_matrix_profile(pole_a, I3),
                                quad_spec)
    # antiderivative oracle: -(3/2) [a^3/3 - a^2] between the endpoints
    f = lambda a: a**3 / 3 - a**2
    want = -1.5 * (f(0.0) - f(1.0))
    assert abs(q - want) <= 1e-8
    assert abs(q - (-1.0)) <= 1e-8

    q_alt, _ = topological_charge(conv, scaled_matrix_profile(pole_a_alt, I3),
                                  quad_spec)
    want_alt = -1.5 * (f(2.0) - f(1.0))
    assert abs(q_alt - want_alt) <= 1e-8
    assert abs(q_alt + q) <= 1e-8

    zero_charge, _ = topological_charge(
        conv, scaled_matrix_profile(lambda jy: jy * 0 + 0.7, I3), quad_spec)
    assert abs(zero_charge) < 1e-12


def _integrating_factor(h_fn, alpha_fn, y: float, y_max: float = 40.0) -> float:
    """f(y) = exp(-2 int_y^inf h + int_0^y alpha), the positive weight that
    turns d_y + 2h + alpha into f^{-1} d_y f on V1 profiles."""
    tail, _ = integrate_interval(h_fn, y, y_max, panels=48, nodes=16)
    head, _ = integrate_interval(alpha_fn, 0.0, y, panels=24, nodes=16)
    return math.exp(-2.0 * tail + head)


def test_weighted_derivative_identity_fd():
    # d_y rho1 + 2 h rho1 + alpha rho1 = f^{-1} d_y(f rho1) on seeded profiles
    rng = np.random.default_rng(8)
    for _ in range(5):
        lam = float(rng.uniform(0.5, 1.5))
        amp = float(rng.uniform(0.2, 1.0))
        h_fn = lambda y: pole_scalars(y)[1]
        alpha = lambda y: amp * y * np.exp(-lam * y)
        dalpha = lambda y: amp * (1 - lam * y) * np.exp(-lam * y)
        for y in (0.4, 0.9, 1.7):
            lhs = dalpha(y) + 2 * h_fn(y) * alpha(y) + alpha(y) * alpha(y)
            h = 1e-5
            f_of = lambda t: _integrating_factor(h_fn, alpha, t)
            rhs = (f_of(y + h) * alpha(y + h)
                   - f_of(y - h) * alpha(y - h)) / (2 * h) / f_of(y)
            # note: alpha multiplies itself in lhs because rho1 = alpha omega
            assert abs(lhs - rhs) < 1e-6


def test_synthetic_perturbation_validation(conv, quad_spec, consts):
    with pytest.raises(ValueError, match="vanish at the boundary"):
        perturbation_chain(conv, [1e3], [1.0], [I3], quad_spec, consts)
    with pytest.raises(ValueError, match="vanish at the boundary"):
        perturbation_chain(conv, [float("nan")], [1.0], [I3], quad_spec, consts)
    with pytest.raises(ValueError, match="decay toward infinity"):
        perturbation_chain(conv, [0.3, 0.1], [1.2, 0.0], [I3, I3], quad_spec, consts)
    q, dq = exp_decay_q([0.3], [1.2], np.array([1e-6]))
    assert abs(q[0, 0]) < 1e-6 and abs(dq[0, 0] - 0.3) < 1e-5


def _blocked_chains(conv, rng, n, spec, consts):
    """n seeded chains, drawn and run BLOCK at a time as the energy suite
    runs them; returns the reports and the directions."""
    reports, directions = [], []
    for start in range(0, n, BLOCK):
        block = random_perturbations(rng, min(BLOCK, n - start))
        directions.extend(block[2])
        reports.extend(perturbation_chain(conv, *block, spec, consts))
    return reports, directions


def test_chain_pure_v1_spec_case(conv, quad_spec, consts):
    (rep,) = perturbation_chain(conv, [1.0], [1.0], [I3], quad_spec, consts)
    assert rep.status == "pass"
    steps = rep.extra["steps"]
    assert steps["quadratic_projection_integrated"] == 0.0  # no V2/V3 part
    assert steps["quadratic_projection_pointwise_min"] == 0.0
    assert steps["discarded_boundary_term"] <= 0.0
    assert steps["final"] > 0.0


def test_chain_mixed_direction_spec_case(conv, quad_spec, consts):
    m = np.zeros((3, 3))
    m[1, 2], m[2, 1] = 1.0, -1.0        # antisymmetric part
    m[2, 0], m[0, 2] = 1.0, 1.0        # symmetric traceless part
    (rep,) = perturbation_chain(conv, [1.0], [1.0], [m], quad_spec, consts)
    assert rep.status == "pass"
    assert rep.extra["steps"]["quadratic_projection_pointwise_min"] >= 0.0


def test_chain_seeded(conv, quad_spec, consts):
    rng = random.Random(42)
    reports = perturbation_chain(conv, *random_perturbations(rng, 8), quad_spec, consts)
    assert len(reports) == 8
    for rep in reports:
        assert rep.status == "pass", rep.extra["steps"]


def test_chain_weighted_derivative_is_exact(conv, quad_spec, consts):
    # for sgn = -1 the weighted-derivative step is an equality: the integral
    # of sgn * alpha' is the discarded boundary term b1 itself, so no seeded
    # chain of the acceptance seed may report a negative slack for it
    rng = random.Random(42)
    worst, negative = math.inf, 0
    reports, directions = _blocked_chains(conv, rng, 100, quad_spec, consts)
    for rep, m in zip(reports, directions):
        if np.trace(m) < 0:
            negative += 1
            assert rep.extra["steps"]["weighted_derivative"] == 0.0
        worst = min(worst, rep.computed)
    assert negative > 0
    assert worst >= 0.0


def _bits(d):
    return {k: float(v).hex() for k, v in d.items()}


@pytest.mark.parametrize("seed", [7, 42, 1234])
def test_batched_chain_matches_per_perturbation_reference(conv, quad_spec, consts,
                                                          seed):
    rng = random.Random(seed)
    want = [_ref_chain(conv, _ref_random(rng), quad_spec, consts)
            for _ in range(BLOCK + 1)]
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1):
        got, _ = _blocked_chains(conv, random.Random(seed), n, quad_spec, consts)
        assert len(got) == n
        for rep, ref in zip(got, want):
            assert _bits(rep.extra["steps"]) == _bits(ref.extra["steps"])
            assert list(rep.extra["steps"]) == list(ref.extra["steps"])
            assert _bits(rep.extra["constants"]) == _bits(ref.extra["constants"])
            assert (rep.status, rep.computed) == (ref.status, ref.computed)


def test_c24a_matches_closed_form_completed_square(consts):
    # c24a integrates the engine's S_sq density of the reference solution;
    # on phi = b omega it is (b' + b^2)^2 |omega|^2, formed from the scalars
    def s_model_sq(y):
        _, b, _, db = pole_scalars(y)
        return np.float_power(db + np.float_power(b, 2), 2) * OMEGA_NORM_SQ

    s_near = VOL_S3 * integrate_interval(s_model_sq, 0.0, 1.0, panels=32)[0]
    want = math.sqrt(OMEGA_NORM_SQ) * math.sqrt(VOL_S3) * math.sqrt(s_near)
    assert consts.c24a.hex() == want.hex()


def test_theorem_bound_report(full_line, consts):
    rep = theorem_bound_report(full_line, consts)
    f_sq = rep.get("curvature_l2_sq").value
    c_limit = rep.get("c_limit").value
    bound = rep.get("bound_constant").value
    assert 0 < f_sq <= c_limit <= bound
    # slack against the limit constant equals the other route terms
    other = (rep.get("tangential_gradient_l2_sq").value
             + rep.get("completed_square_l2_sq").value)
    assert math.isclose(c_limit - f_sq, other, rel_tol=1e-9)
    assert rep.get("bound_slack").value > 0
    # the weighted variant stays below the bound with the half coefficient
    assert rep.get("weighted_total").value <= bound
    assert rep.get("route_total").value == pytest.approx(c_limit, rel=1e-9)


def test_theorem_bound_flat_endpoint(conv, quad_spec, consts):
    flat = InvariantField(
        scaled_matrix_profile(lambda jy: jy * 0 + 2.0, I3),
        scaled_matrix_profile(lambda jy: jy * 0, I3),
    )
    rep = theorem_bound_report(full_line_norms(conv, flat, quad_spec), consts)
    assert rep.get("curvature_l2_sq").value <= 1e-20
    assert rep.get("bound_constant").value > 0


def test_weighted_bound_identity(conv, full_line, consts):
    rep = check_energy_identity(conv, "weighted-bound", full_line=full_line,
                                consts=consts)
    assert rep.status == "pass"
    assert rep.extra["lhs"] <= rep.extra["bound"]


def test_eps_sweep_rows(conv, quad_spec, full_line):
    rows = eps_sweep_rows(conv, full_line, (1e-1, 1e-2), quad_spec)
    assert len(rows) == 2
    for eps, lhs, rhs, gap in rows:
        assert abs(gap) <= 1e-6 * abs(rhs)


def test_engine_constants_reported(consts):
    assert consts.C == consts.c_limit + 2 * consts.c_pert
    assert consts.c_pert == pytest.approx(consts.c19 + consts.c24a + consts.c24b)
    assert consts.c_decay == c_decay()
    # engine normalisation: the Young constant is (3/4) vol(S^3)
    assert math.isclose(consts.c24b, 0.75 * VOL_S3, rel_tol=1e-15)
