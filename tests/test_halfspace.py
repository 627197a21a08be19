"""Flat half-space models: pointwise values, residuals, dilation behaviour."""

import math

import numpy as np
import pytest

from kwlab.halfspace import (
    FLAT_STAR_SIGN,
    FlatModelField,
    HalfspacePoint,
    kw_residual_flat_combined,
    nahm_pole_field,
    nahm_singular_field,
    read_points_csv,
    scale_pullback,
    write_residuals_csv,
)


def test_flat_star_orientation_locked():
    # the sign that makes the pole model an exact solution; regression value
    assert FLAT_STAR_SIGN == -1
    p = HalfspacePoint(0.7, -0.4, 1.2, 0.8)
    assert kw_residual_flat_combined(nahm_pole_field(), p) < 1e-15
    assert kw_residual_flat_combined(nahm_pole_field(), p, star_sign=1) > 1.0


def test_pole_model_values():
    fld = nahm_pole_field()
    s = fld.eval(HalfspacePoint(0.0, 0.0, 0.0, 1.0))
    assert np.allclose(np.asarray(s.phi, float), np.eye(3))
    assert np.allclose(np.asarray(s.A, float), 0.0)
    # x-independence, 1/y scaling
    s2 = fld.eval(HalfspacePoint(5.0, -3.0, 2.0, 0.5))
    assert np.allclose(np.asarray(s2.phi, float), 2.0 * np.eye(3))


def test_pole_model_residual_seeded():
    fld = nahm_pole_field()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        x1, x2, x3 = rng.uniform(-3, 3, 3)
        y = float(rng.uniform(0.3, 3.0))
        p = HalfspacePoint(float(x1), float(x2), float(x3), y)
        worst = max(worst, kw_residual_flat_combined(fld, p))
    assert worst < 1e-12


def test_singular_model_axis_and_sample_values():
    fld = nahm_singular_field()
    s = fld.eval(HalfspacePoint(0.0, 0.0, 1.7, 0.5))
    # on the axis: A = 0 and the dx3 weight doubles, phi_3 = 2 t3 / y
    assert np.allclose(np.asarray(s.A, float), 0.0)
    assert np.allclose(np.asarray(s.phi, float)[:, :2], 0.0)
    assert math.isclose(float(s.phi[2][2]), 2.0 / 0.5, rel_tol=1e-15)

    s = fld.eval(HalfspacePoint(1.0, 0.0, 0.0, 1.0))
    r2 = math.sqrt(2.0)
    assert math.isclose(float(s.phi[0][0]), 1 / r2, rel_tol=1e-15)
    assert math.isclose(float(s.phi[1][1]), 1 / r2, rel_tol=1e-15)
    assert math.isclose(float(s.phi[2][2]), 1.5, rel_tol=1e-15)
    assert math.isclose(float(s.A[2][1]), -0.5, rel_tol=1e-15)


def test_singular_model_residual_seeded():
    fld = nahm_singular_field()
    rng = np.random.default_rng(321)
    worst, n = 0.0, 0
    while n < 1000:
        x1, x2, x3 = rng.uniform(-3, 3, 3)
        y = float(rng.uniform(0.2, 3.0))
        p = HalfspacePoint(float(x1), float(x2), float(x3), y)
        if p.r < 0.1:
            continue
        worst = max(worst, kw_residual_flat_combined(fld, p))
        n += 1
    assert worst < 1e-10


def test_boundary_evaluation_rejected():
    with pytest.raises(ValueError, match="boundary evaluation"):
        nahm_pole_field().eval(HalfspacePoint(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="positive"):
        scale_pullback(nahm_pole_field(), -1.0)


def test_scale_pullback_fixes_models_exactly():
    rng = np.random.default_rng(7)
    for fld in (nahm_pole_field(), nahm_singular_field()):
        for s in (0.5, 0.25, 4.0):  # powers of two: float ops exact
            pulled = scale_pullback(fld, s)
            for _ in range(10):
                x1, x2, x3 = rng.uniform(-2, 2, 3)
                y = float(rng.uniform(0.3, 2.0))
                p = HalfspacePoint(float(x1), float(x2), float(x3), y)
                a, b = fld.eval(p), pulled.eval(p)
                assert np.array_equal(np.asarray(a.phi, float),
                                      np.asarray(b.phi, float))
                assert np.array_equal(np.asarray(a.A, float),
                                      np.asarray(b.A, float))
        for s in (0.37, 1.9):
            pulled = scale_pullback(fld, s)
            p = HalfspacePoint(0.9, -1.3, 0.4, 0.7)
            a, b = fld.eval(p), pulled.eval(p)
            assert np.allclose(np.asarray(a.phi, float),
                               np.asarray(b.phi, float), rtol=1e-12)


def test_residual_homogeneity_under_pullback():
    # res(pullback_s f)(p) = s^2 res(f)(s p) for any field, here a non-solution
    base = nahm_singular_field()

    def perturbed(p):
        smp = base.evaluator(p)
        smp.phi = smp.phi * 1.1  # break the equation, keep homogeneity
        smp.dphi = smp.dphi * 1.1
        return smp

    fld = FlatModelField("perturbed", perturbed)
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = float(rng.uniform(0.3, 2.5))
        x1, x2, x3 = rng.uniform(-2, 2, 3)
        y = float(rng.uniform(0.4, 2.0))
        p = HalfspacePoint(float(x1), float(x2), float(x3), y)
        if p.r < 0.2 or p.scaled(s).r < 0.2:
            continue
        lhs = kw_residual_flat_combined(scale_pullback(fld, s), p)
        rhs = s * s * kw_residual_flat_combined(fld, p.scaled(s))
        assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_perturbed_pole_field_matches_finite_differences():
    # phi -> phi + y t1 dx1 on top of the pole model; derivatives by FD
    base = nahm_pole_field()

    def perturbed(p):
        smp = base.evaluator(p)
        smp.phi = np.asarray(smp.phi, float)
        smp.dphi = np.asarray(smp.dphi, float)
        smp.phi[0, 0] += p.y
        smp.dphi[0, 0, 3] += 1.0
        return smp

    fld = FlatModelField("pole-plus-linear", perturbed)

    h = 1e-5
    rng = np.random.default_rng(5)
    for _ in range(5):
        x1, x2, x3 = rng.uniform(-1, 1, 3)
        y = float(rng.uniform(0.5, 1.5))
        p = HalfspacePoint(float(x1), float(x2), float(x3), y)

        # finite-difference field: same values, FD derivatives
        def fd_eval(pt):
            smp = fld.eval(pt)
            coords = [pt.x1, pt.x2, pt.x3, pt.y]
            dphi = np.zeros((3, 3, 4))
            dA = np.zeros((3, 3, 4))
            for mu in range(4):
                cp = list(coords)
                cm = list(coords)
                cp[mu] += h
                cm[mu] -= h
                sp = fld.eval(HalfspacePoint(*cp))
                sm = fld.eval(HalfspacePoint(*cm))
                dphi[:, :, mu] = (np.asarray(sp.phi, float)
                                  - np.asarray(sm.phi, float)) / (2 * h)
                dA[:, :, mu] = (np.asarray(sp.A, float)
                                - np.asarray(sm.A, float)) / (2 * h)
            smp.dphi = dphi
            smp.dA = dA
            return smp

        fd_field = FlatModelField("fd", fd_eval)
        r_exact = kw_residual_flat_combined(fld, p)
        r_fd = kw_residual_flat_combined(fd_field, p)
        assert abs(r_exact - r_fd) < 1e-6
        assert r_exact > 1e-3  # genuinely not a solution


def test_residual_gauge_covariance_flat():
    # constant adjoint rotations act on the su(2) coefficient index and
    # leave both residual norms unchanged, also away from solutions
    from kwlab.su2 import ad_rotate

    rot = np.array([ad_rotate((0.2, -0.7, 0.4), 0.93, row) for row in np.eye(3)]).T

    base = nahm_singular_field()

    def spoiled(p):
        smp = base.evaluator(p)
        smp.phi = np.asarray(smp.phi, float) * 1.2
        smp.dphi = np.asarray(smp.dphi, float) * 1.2
        return smp

    for fld in (base, FlatModelField("spoiled", spoiled)):
        def rotated(p, fld=fld):
            smp = fld.eval(p)
            return type(smp)(rot @ np.asarray(smp.A, float),
                             np.einsum("ij,jak->iak", rot,
                                       np.asarray(smp.dA, float)),
                             rot @ np.asarray(smp.phi, float),
                             np.einsum("ij,jak->iak", rot,
                                       np.asarray(smp.dphi, float)))

        rfld = FlatModelField("rotated", rotated)
        for pt in (HalfspacePoint(0.8, -0.5, 1.1, 0.6),
                   HalfspacePoint(-1.2, 0.9, 0.0, 1.4)):
            assert math.isclose(
                kw_residual_flat_combined(fld, pt),
                kw_residual_flat_combined(rfld, pt),
                rel_tol=1e-12, abs_tol=1e-14)


def test_points_csv_roundtrip(tmp_path):
    pts = [HalfspacePoint(0.1, 0.2, 0.3, 0.4), HalfspacePoint(-1, 2, -3, 1.5)]
    out = tmp_path / "residuals.csv"
    write_residuals_csv(str(out), nahm_pole_field(), pts)
    text = out.read_text().splitlines()
    assert text[0] == "x1,x2,x3,y,res_eq1,res_eq2"
    assert len(text) == 3

    pts_file = tmp_path / "points.csv"
    pts_file.write_text("x1,x2,x3,y\n0.1,0.2,0.3,0.4\n-1,2,-3,1.5\n")
    back = read_points_csv(str(pts_file))
    assert back == pts
