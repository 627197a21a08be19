"""Profiles: jet evaluation, array evaluation, scaling limit."""

import math

import numpy as np

from conftest import jet_exp
from kwlab import jets
from kwlab.jets import Jet
from kwlab.profiles import (
    MatrixProfile,
    higgs_scale_check,
    loglog_slope,
    nahm_pole_invariant_solution,
    pole_a,
    pole_a_alt,
    pole_b,
    pole_scalar,
    pole_scalars,
    scaled_matrix_profile,
)


def test_jet_arithmetic_against_closed_forms():
    # value and d/dy of y^2 exp(-3y) at y = 0.7
    y = 0.7
    j = Jet.var(y)
    out = j * j * jet_exp(-3 * j)
    e = math.exp(-3 * y)
    assert math.isclose(out.f, y * y * e, rel_tol=1e-15)
    assert math.isclose(out.d, (2 * y - 3 * y * y) * e, rel_tol=1e-14)
    # the gradient form: partials of x1 / ((x2 + y) sqrt(x1^2 + y^2))
    x1, x2, x3, y = np.array([[0.3, -1.2, 2.0], [0.5, 0.1, 1.7],
                              [0.0, 4.0, -1.0], [0.2, 0.9, 3.1]])
    j1, j2, _, jy = Jet.vars(x1, x2, x3, y)
    out = j1 / ((j2 + jy) * jets.sqrt(j1 * j1 + jy * jy))
    s, r = x2 + y, np.sqrt(x1 * x1 + y * y)
    partials = [y * y / (s * r**3), -x1 / (s * s * r), 0 * y,
                -x1 / (s * s * r) - x1 * y / (s * r**3)]
    assert out.d.shape == (4, 3)
    assert np.allclose(out.f, x1 / (s * r), rtol=1e-15, atol=0)
    assert np.allclose(out.d, partials, rtol=1e-14, atol=0)

    # one rule set: a y-expression gives the same floats on Jet.var(y) as
    # on the y-jet of Jet.vars, whatever the shape and dtype of y
    def expr(j):
        v = jets.expm1(2 * j)
        return (v - 3) * j / (1 + jets.sqrt(j * j + 2)) + 5 / (j + 1) - j / 4

    for dtype in (np.float64, np.longdouble):
        for y in (dtype(0.7), np.geomspace(1e-3, 20.0, 64).astype(dtype)):
            one = expr(Jet.var(y))
            many = expr(Jet.vars(0 * y, 0 * y, 0 * y, y)[3])
            assert many.f.dtype == many.d.dtype == dtype
            assert np.array_equal(one.f, many.f)
            assert np.array_equal(one.d, many.d[3])
            assert not many.d[:3].any()


def test_pole_profiles_limits():
    # b ~ 1/y at the pole, both decay like 6 e^{-2y} at infinity
    a, b, da, db = pole_scalars(1e-4)
    assert math.isclose(b * 1e-4, 1.0, rel_tol=1e-6)
    assert math.isclose(a, 1.0, rel_tol=1e-6)
    a, b, _, _ = pole_scalars(12.0)
    assert math.isclose(a * math.exp(24.0), 6.0, rel_tol=1e-8)
    assert math.isclose(b * math.exp(24.0), 6.0, rel_tol=1e-8)


def test_profile_derivative_matches_finite_differences():
    model = nahm_pole_invariant_solution()
    h = 1e-6
    for y in (0.3, 1.2, 4.0):
        val, der = model.higgs.eval(y)
        vp, _ = model.higgs.eval(y + h)
        vm, _ = model.higgs.eval(y - h)
        fd = (np.asarray(vp, float) - np.asarray(vm, float)) / (2 * h)
        assert np.allclose(np.asarray(der, float), fd, rtol=1e-7, atol=1e-9)


def test_array_evaluation_matches_each_node():
    ys = np.geomspace(1e-3, 20.0, 50)
    model = nahm_pole_invariant_solution()
    val, der = model.higgs.eval(ys)
    # matrix axes first, node axis last
    assert val.shape == der.shape == (3, 3, 50)
    stacked = pole_scalars(ys)
    for i, y in enumerate(ys):
        v, d = model.higgs.eval(float(y))
        assert v.shape == d.shape == (3, 3)
        assert np.array_equal(val[..., i], v) and np.array_equal(der[..., i], d)
        assert [x[i] for x in stacked] == list(pole_scalars(float(y)))


def _same_bits(got, want):
    """Equal shape, dtype, value and sign per entry (longdouble's padding
    bytes are not part of its value)."""
    return all(
        g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)
        and np.array_equal(np.signbit(g), np.signbit(w))
        for g, w in zip(map(np.asarray, got), map(np.asarray, want), strict=True))


def test_pole_scalar_is_pole_scalars_entry_bitwise():
    # one scalar's (value, d/dy) are the floats pole_scalars gives it, and
    # those of both jets rounded to dtype as pole_scalars formed them before
    # it was built from pole_scalar, in float64 and longdouble, at a node
    # and on an array of nodes
    ys = np.geomspace(1e-8, 30.0, 97)
    for y in (ys, 1e-4, 0.7, 12.0):
        jy = Jet.var(np.longdouble(y))
        ja, jb = pole_a(jy), pole_b(jy)
        for dtype in (float, np.longdouble):
            want = tuple(np.asarray(x, dtype=dtype)[()]
                         for x in (ja.f, ja.d, jb.f, jb.d))
            a, b, da, db = pole_scalars(y, dtype)
            got = pole_scalar(pole_a, y, dtype) + pole_scalar(pole_b, y, dtype)
            assert [x.dtype for x in got] == [np.dtype(dtype)] * 4
            assert _same_bits(got, want) and _same_bits((a, da, b, db), want)


def test_longdouble_matrix_profile_equals_float64_matrix_product():
    # scaled_matrix_profile stores its matrix in longdouble; eval gives the
    # bits of the float64 matrix's products, for the identity and a rotated
    # non-identity matrix, alone and in a sum of terms
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    mat = rot @ np.diag([1.5, -0.25, 3.0]) @ rot.T
    ys = np.geomspace(1e-3, 20.0, 768)
    for fn, m in ((pole_b, np.eye(3)), (pole_a_alt, mat), (pole_a, rot)):
        prof = scaled_matrix_profile(fn, m)
        assert prof.terms[0][1].dtype == np.longdouble
        two = MatrixProfile(prof.terms + ((pole_b, m),))
        for y in (ys, 0.37):
            assert _same_bits(prof.eval(y), MatrixProfile(((fn, m),)).eval(y))
            assert _same_bits(two.eval(y), MatrixProfile(
                ((fn, m), (pole_b, m))).eval(y))


def test_scaling_limit_rate():
    out = higgs_scale_check()
    assert abs(out["slope"] - 2.0) <= 0.1
    # relative error at s is s^2/3 to leading order
    assert math.isclose(out["errors"][0], 1e-2 / 3, rel_tol=0.05)


def test_loglog_slope_matches_least_squares():
    # exact on a power law; on seeded scattered data, numpy's least-squares
    # line fit to rounding
    xs = [1e-1, 2e-2, 5e-3, 1e-3]
    assert math.isclose(loglog_slope(xs, [3.0 * x**-1.5 for x in xs]), -1.5,
                        rel_tol=1e-14)
    rng = np.random.default_rng(11)
    for n in (2, 3, 7):
        x = rng.uniform(0.01, 100.0, n)
        y = rng.uniform(0.01, 100.0, n)
        want = np.polyfit(np.log10(x), np.log10(y), 1)[0]
        assert math.isclose(loglog_slope(x, y), want, rel_tol=1e-12,
                            abs_tol=1e-12)
