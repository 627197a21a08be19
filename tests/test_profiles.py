"""Profiles: jet evaluation, array evaluation, scaling limit."""

import math

import numpy as np

from conftest import jet_exp
from kwlab.jets import Jet2
from kwlab.profiles import (
    higgs_scale_check,
    nahm_pole_invariant_solution,
    pole_scalars,
)


def test_jet_arithmetic_against_closed_forms():
    # value and d/dy of y^2 exp(-3y) at y = 0.7
    y = 0.7
    j = Jet2.var(y)
    out = j * j * jet_exp(-3 * j)
    e = math.exp(-3 * y)
    assert math.isclose(out.f, y * y * e, rel_tol=1e-15)
    assert math.isclose(out.d1, (2 * y - 3 * y * y) * e, rel_tol=1e-14)


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
    assert val.shape == der.shape == (50, 3, 3)
    stacked = pole_scalars(ys)
    for i, y in enumerate(ys):
        v, d = model.higgs.eval(float(y))
        assert np.array_equal(val[i], v) and np.array_equal(der[i], d)
        assert [x[i] for x in stacked] == list(pole_scalars(float(y)))


def test_scaling_limit_rate():
    out = higgs_scale_check()
    assert abs(out["slope"] - 2.0) <= 0.1
    # relative error at s is s^2/3 to leading order
    assert math.isclose(out["errors"][0], 1e-2 / 3, rel_tol=0.05)
