"""Invariant exterior calculus: conventions, curvature, residuals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import OMEGA, jet_exp, one_form_norm_sq, star_vv
from kwlab.decomp import omega_bracket
from kwlab.forms import (
    CONVENTION_SET,
    EPS_TABLE,
    FieldAt,
    GeometryConventions,
    frob_inner,
    kw_residual,
    kw_residual_norm,
    ricci_check,
    ricci_tensor,
    taubes_lhs,
    wedge_bracket_matrix,
)
from kwlab.profiles import (
    InvariantField,
    MatrixProfile,
    nahm_pole_invariant_solution,
    nahm_pole_invariant_solution_alt,
    pole_scalars,
    scaled_matrix_profile,
)
from kwlab.su2 import ad_rotate, bracket

I3 = np.eye(3)
MU1 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=object) * Fraction(1)
ZERO = OMEGA * 0


def _exact_eq(u, v):
    return all(u[i][a] == v[i][a] for i in range(3) for a in range(3))


def test_calibration_unique_golden(conv):
    assert (conv.c, conv.s1, conv.s2) == (2, 1, 1)


def test_calibration_rejects_other_conventions(conv):
    model = nahm_pole_invariant_solution()
    for cand in CONVENTION_SET:
        if cand == conv:
            continue
        ric = ricci_tensor(cand.c)
        ric_ok = all(ric[i][j] == (Fraction(2) if i == j else 0)
                     for i in range(3) for j in range(3))
        if not ric_ok:
            continue
        worst = np.max(kw_residual_norm(cand, model, np.geomspace(1e-2, 5.0, 12)))
        assert worst > 1e-2


def test_shared_field_matches_one_field_per_convention():
    # calibrate's route, one evaluation and one set of convention-free
    # brackets shared by every convention, against a fresh field per
    # convention: the same residual norms, bit for bit
    from kwlab.forms import _residual_norm

    model = nahm_pole_invariant_solution()
    grid = np.geomspace(1e-3, 20.0, 40)
    shared = FieldAt.of(None, model, grid)
    for cand in CONVENTION_SET:
        got = _residual_norm(shared.under(cand))
        want = kw_residual_norm(cand, model, grid)
        assert got.dtype == want.dtype and np.array_equal(got, want), cand


class _Unread:
    """A profile that must not be evaluated."""

    def eval(self, y):
        raise AssertionError("profile evaluated")


def test_field_of_evaluates_only_the_profiles_read(conv):
    model = nahm_pole_invariant_solution()
    ys = np.geomspace(0.01, 5.0, 9)
    full = FieldAt.of(conv, model, ys, float)
    higgs_only = FieldAt.of(conv, InvariantField(_Unread(), model.higgs),
                            ys, float)
    assert np.array_equal(frob_inner(higgs_only.p, higgs_only.p),
                          frob_inner(full.p, full.p))
    assert np.array_equal(higgs_only.dp + higgs_only.phi2, full.dp + full.phi2)
    connection_only = FieldAt.of(
        conv, InvariantField(model.connection, _Unread()), ys, float)
    assert np.array_equal(frob_inner(connection_only.n_f, connection_only.t_f),
                          frob_inner(full.n_f, full.t_f))
    with pytest.raises(AssertionError, match="profile evaluated"):
        connection_only.p
    with pytest.raises(AttributeError):
        full.not_a_block


def _coframe_d(conv, u):
    """d of a constant-coefficient 1-form: the linear part of the tangential
    curvature, which is what FieldAt.t_f adds to the quadratic part."""
    return FieldAt(conv, u, ZERO, None, None).t_f - star_vv(u)


def test_coframe_d_linearity_and_omega(conv):
    assert _exact_eq(_coframe_d(conv, ZERO), ZERO)
    u = MU1 * 3 + OMEGA * Fraction(1, 2)
    assert _exact_eq(_coframe_d(conv, u), _coframe_d(conv, MU1) * 3
                     + _coframe_d(conv, OMEGA) * Fraction(1, 2))

    # d omega = -c (omega ^ omega): compare through the wedge square
    assert _exact_eq(_coframe_d(conv, OMEGA), star_vv(OMEGA) * -conv.c)


def test_coframe_d_mu_has_no_omega_pairing(conv):
    dmu = _coframe_d(conv, MU1)
    assert sum(dmu[i][i] for i in range(3)) == 0
    # consistent with the eigen relation *3[omega, mu1] = mu1
    assert _exact_eq(omega_bracket(MU1), MU1)


def test_wedge_bracket_symmetric_bilinear():
    u = np.array([[1, 2, 0], [0, -1, 3], [2, 0, 1]], dtype=object)
    v = np.array([[0, 1, 1], [1, 0, -2], [0, 4, 0]], dtype=object)
    assert _exact_eq(wedge_bracket_matrix(u, v), wedge_bracket_matrix(v, u))
    assert _exact_eq(wedge_bracket_matrix(u, v + v * 2),
                     wedge_bracket_matrix(u, v) * 3)
    assert _exact_eq(wedge_bracket_matrix(u, ZERO), ZERO)
    # wedge(u, u) = half the bracket wedge
    assert _exact_eq(star_vv(u) * 2, wedge_bracket_matrix(u, u))


def test_star_eigen_examples(conv):
    assert _exact_eq(star_vv(OMEGA), OMEGA)
    assert _exact_eq(wedge_bracket_matrix(OMEGA, MU1), MU1)


def test_star4_involution(conv):
    # kw_residual applies *(e_b ^ e_c) = s1 dy ^ e_a and *(dy ^ e_a) =
    # s2 e_b ^ e_c, so the 4d star squares to s1 s2, which must be 1
    for c in (conv, conv.flipped()):
        assert c.s1 * c.s2 == 1


def test_curvature_examples(conv):
    def curvature_norm_sq(profile, y):
        m = FieldAt(conv, *profile.eval(y), None, None)
        t, n = m.t_f, m.n_f
        return one_form_norm_sq(t) + one_form_norm_sq(n)

    zero_prof = scaled_matrix_profile(lambda jy: jy * 0, I3)
    assert float(curvature_norm_sq(zero_prof, 1.0)) == 0.0

    flat2 = scaled_matrix_profile(lambda jy: jy * 0 + 2, I3)
    assert float(curvature_norm_sq(flat2, 0.7)) < 1e-28

    # the dy ^ omega coefficient of the model curvature
    from kwlab.profiles import pole_a

    prof = scaled_matrix_profile(pole_a, I3)
    for y in (0.2, 1.0, 3.0):
        m = FieldAt(conv, *prof.eval(y), None, None)
        t, n = m.t_f, m.n_f
        u = math.exp(2 * y)
        d = u * u + 4 * u + 1
        want = 12 * (u - u**3) / d**2
        assert math.isclose(float(n[0][0]), want, rel_tol=1e-12)
        # displayed quadratic coefficient a^2 differs from the engine's
        # a^2 - 2a by the coframe-derivative part; both are reported
        a = 6 * u / d
        assert math.isclose(float(t[0][0]), a * a - 2 * a, rel_tol=1e-12)


def test_residual_zero_field_and_boundary_error(conv):
    zero_prof = scaled_matrix_profile(lambda jy: jy * 0, I3)
    field = InvariantField(zero_prof, zero_prof)
    res_t, res_n, r2 = kw_residual(FieldAt.of(conv, field, 1.0))
    assert frob_inner(res_t, res_t) + frob_inner(res_n, res_n) == 0.0 and r2 == 0.0
    with pytest.raises(ValueError, match="boundary evaluation"):
        kw_residual(FieldAt.of(conv, field, 0.0))
    with pytest.raises(ValueError, match="boundary evaluation"):
        kw_residual_norm(conv, field, np.array([1.0, 0.0]))


def test_residual_model_grid(conv):
    model = nahm_pole_invariant_solution()
    assert np.max(kw_residual_norm(conv, model, np.geomspace(1e-3, 30, 300))) < 1e-10


def test_residual_alt_model(conv):
    alt = nahm_pole_invariant_solution_alt()
    assert np.max(kw_residual_norm(conv, alt, np.geomspace(1e-3, 30, 300))) < 1e-10


def _rotated(field, rot) -> InvariantField:
    """A constant adjoint rotation (3x3 orthogonal matrix on the su(2)
    coefficient index) applied to every profile of field."""
    rot = np.asarray(rot, dtype=float)

    def rot_terms(terms):
        return [(fn, rot @ np.asarray(m, dtype=float)) for fn, m in terms]

    return InvariantField(MatrixProfile(rot_terms(field.connection.terms)),
                          MatrixProfile(rot_terms(field.higgs.terms)))


def _random_smooth_field(rng):
    mats = [rng.normal(size=(3, 3)) * 0.4 for _ in range(2)]

    def f1(jy):
        return (jy * 0.3 + 0.2) * jet_exp(-jy)

    def f2(jy):
        return (jy * jy * 0.1 + 0.5) * jet_exp(-2 * jy)

    return InvariantField(
        MatrixProfile([(f1, mats[0])]),
        MatrixProfile([(f2, mats[1])]),
    )


class _FDProfile:
    """Profile wrapper whose derivative comes from central differences."""

    def __init__(self, base, h=1e-5):
        self.base = base
        self.h = h

    def eval(self, y, dtype=float):
        v, _ = self.base.eval(y)
        vp, _ = self.base.eval(y + self.h)
        vm, _ = self.base.eval(y - self.h)
        return v, (vp - vm) / (2 * self.h)


def _scalar_residual_norm(conv, field, y):
    """One node at a time, the way the residual was first written; the
    array engine must reproduce it bit for bit."""
    a, da = field.connection.eval(y)
    p, dp = field.higgs.eval(y)
    t_f = a * (-conv.c) + wedge_bracket_matrix(a, a) * 0.5
    res_t = t_f - wedge_bracket_matrix(p, p) * 0.5 - dp * conv.s2
    res_n = da - (p * (-conv.c) + wedge_bracket_matrix(a, p)) * conv.s1
    div = sum(bracket(a[:, col], p[:, col]) for col in range(3))
    res2 = float(sum(c * c for c in div) / 2) ** 0.5
    norm_sq = (frob_inner(res_t, res_t) + frob_inner(res_n, res_n)) / 2
    return float(norm_sq) ** 0.5 + res2


def test_array_residuals_match_scalar_reference(rng):
    model = nahm_pole_invariant_solution()
    fields = [model, nahm_pole_invariant_solution_alt(),
              _random_smooth_field(rng), _random_smooth_field(rng),
              _rotated(model, np.linalg.qr(rng.normal(size=(3, 3)))[0])]
    grids = (np.geomspace(1e-3, 20.0, 40), np.geomspace(0.05, 10.0, 24))
    for field in fields:
        for conv in CONVENTION_SET:
            for grid in grids:
                want = [_scalar_residual_norm(conv, field, float(y)) for y in grid]
                assert kw_residual_norm(conv, field, grid).tolist() == want
                assert kw_residual_norm(conv, field, float(grid[3])) == want[3]


def test_residual_derivatives_match_finite_differences(conv, rng):
    for _ in range(5):
        field = _random_smooth_field(rng)
        fd_field = InvariantField(_FDProfile(field.connection),
                                  _FDProfile(field.higgs))
        for y in (0.4, 1.1, 2.3):
            exact_t, exact_n, r2a = kw_residual(FieldAt.of(conv, field, y))
            fd_t, fd_n, r2b = kw_residual(FieldAt.of(conv, fd_field, y))
            diff = (np.max(np.abs(np.asarray(exact_t - fd_t, float)))
                    + np.max(np.abs(np.asarray(exact_n - fd_n, float))))
            assert diff < 1e-6
            assert abs(r2a - r2b) < 1e-6


def test_residual_gauge_covariance(conv, rng):
    model = nahm_pole_invariant_solution()
    field = _random_smooth_field(rng)
    for fld in (model, field):
        ys = np.array([0.3, 1.0, 2.5])
        base = kw_residual_norm(conv, fld, ys)
        # rotation matrix from the adjoint action on basis coefficients
        axis, angle = (0.3, -0.5, 0.8), 1.234
        rot = np.array([ad_rotate(axis, angle, row) for row in I3]).T
        after = kw_residual_norm(conv, _rotated(fld, rot), ys)
        assert np.all(np.abs(base - after) <= 1e-12)


def test_ricci_check_calibrated_and_flat(conv):
    rep = ricci_check(conv)
    assert rep.status == "pass" and rep.extra["exact"]
    flat = GeometryConventions(0, 1, 1)
    rep0 = ricci_check(flat)
    assert rep0.status == "fail" and rep0.computed == 0.0
    # Ricci is a multiple of the metric: same ratio on any direction
    ric = ricci_tensor(conv.c)
    assert all(ric[i][i] == Fraction(2) for i in range(3))
    assert all(ric[i][j] == 0 for i in range(3) for j in range(3) if i != j)


T1, T3 = I3[0], I3[2]
ZERO3 = np.zeros(3)


def test_taubes_examples():
    # phi_y = y t3 and y^2 t3 with A = phi = 0: the combination is 0 and -y^2
    for y in (0.9, 1.3):
        assert abs(taubes_lhs(I3 * 0, I3 * 0, y * T3, T3, ZERO3)) < 1e-14
    for y in (0.5, 1.7):
        got = taubes_lhs(I3 * 0, I3 * 0, y * y * T3, 2 * y * T3, 2 * T3)
        assert math.isclose(got, -y * y, rel_tol=1e-12)


def test_taubes_vanishes_on_solutions_with_zero_normal_part():
    for y in np.geomspace(1e-2, 8, 40):
        a, b, _, _ = pole_scalars(y)
        assert taubes_lhs(a * I3, b * I3, ZERO3, ZERO3, ZERO3) == 0.0


def test_taubes_bracket_terms():
    # |nabla_A phi_y|^2 with a = omega, phi_y = t1: (1/2)(|[t2,t1]|^2 + |[t3,t1]|^2)
    assert taubes_lhs(I3, I3 * 0, T1, ZERO3, ZERO3) == 1.0
    # 2 |[phi_y, phi]|^2 with p = omega, phi_y = t1: the same brackets, doubled
    assert taubes_lhs(I3 * 0, I3, T1, ZERO3, ZERO3) == 2.0


def test_taubes_is_invariant_under_one_adjoint_rotation():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a, p = rng.normal(size=(2, 3, 3)) * 0.3
        vecs = rng.normal(size=(3, 3)) * 0.3
        axis, angle = rng.normal(size=3), float(rng.uniform(0, 2 * math.pi))
        rot = np.array([ad_rotate(axis, angle, row) for row in I3]).T
        base = taubes_lhs(a, p, *vecs)
        after = taubes_lhs(rot @ a, rot @ p, *(rot @ v for v in vecs))
        assert abs(base - after) <= 1e-14


def test_eps_table_is_permutation_symbol():
    eps = np.zeros((3, 3, 3))
    for i, j, k, s in EPS_TABLE:
        eps[i, j, k] = s
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = ((i - j) * (j - k) * (k - i)) / 2
                assert eps[i, j, k] == want


def test_dropped_half_reaches_residual_energy_and_reduced_system(monkeypatch):
    """The 1/2 of the bracket squares has one definition, forms.half_of, and
    the residual, the energy densities and the reduced system all read the
    field blocks built with it: dropping it must move all three."""
    from kwlab import forms
    from kwlab.energy import densities
    from kwlab.reduced import derive_reduced_system

    conv = GeometryConventions(2, 1, 1)  # the calibrated conventions
    model = nahm_pole_invariant_solution()
    ys = np.geomspace(1e-2, 5.0, 12)

    def readings():
        return (float(np.max(kw_residual_norm(conv, model, ys))),
                densities(conv, model, ys, ("F_sq",))["F_sq"],
                derive_reduced_system(conv).coeffs_b)

    res, f_sq, coeffs_b = readings()
    assert res < 1e-10
    assert coeffs_b == (0, -2, 0, 1, 0, -1)

    monkeypatch.setattr(forms, "half_of", lambda m: m)
    bad_res, bad_f_sq, bad_coeffs_b = readings()
    assert bad_res > 1.0
    assert np.max(np.abs(bad_f_sq - f_sq) / f_sq) > 0.5
    assert bad_coeffs_b == (0, -2, 0, 2, 0, -2)
