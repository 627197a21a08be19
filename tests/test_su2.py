"""Algebra conventions: bracket, inner product, adjoint rotations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwlab.su2 import T1, T2, T3, ad_rotate, bracket, inner, norm, norm_sq

ZERO = T1 * 0


def _pauli_rep(u):
    """Fundamental-representation oracle: t_i = -(i/2) sigma_i."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    mats = [-0.5j * s for s in (s1, s2, s3)]
    return sum(float(c) * m for c, m in zip(u, mats))


def _is_zero(u):
    return all(c == 0 for c in u)


def test_bracket_structure_relations():
    assert np.array_equal(bracket(T1, T2), T3)
    assert np.array_equal(bracket(T2, T3), T1)
    assert np.array_equal(bracket(T3, T1), T2)
    assert np.array_equal(bracket(T1, T1), ZERO)
    assert np.array_equal(bracket(T2, T1), -T3)
    assert bracket(T1, T2).dtype == np.int64


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        m = _pauli_rep(u) @ _pauli_rep(v) - _pauli_rep(v) @ _pauli_rep(u)
        assert np.allclose(m, _pauli_rep(bracket(u, v)), atol=1e-14)


def test_bracket_along_first_axis_keeps_arithmetic():
    rng = np.random.default_rng(6)
    u, v = rng.normal(size=(3, 7)), rng.normal(size=(3, 7))
    for dtype in (float, np.longdouble):
        stack = bracket(u.astype(dtype), v.astype(dtype))
        assert stack.shape == (3, 7) and stack.dtype == dtype
        for k in range(7):
            one = bracket(tuple(u[:, k].astype(dtype)), tuple(v[:, k].astype(dtype)))
            assert np.array_equal(stack[:, k], one) and one.dtype == dtype
    ints = bracket(np.array([[1], [2], [3]]), np.array([[4], [0], [1]]))
    assert ints.dtype == np.int64 and ints[:, 0].tolist() == [2, 11, -8]
    # Fractions, the tests' exact oracle, stay exact
    exact = bracket(np.array([[1], [2], [3]], dtype=object), (Fraction(1, 2), 0, 1))
    assert exact[:, 0].tolist() == [2, Fraction(1, 2), -1]


def test_inner_matches_trace_oracle():
    # <u, v> = -tr(uv) in the fundamental representation
    for u in (T1, T2, T3):
        for v in (T1, T2, T3):
            want = -np.trace(_pauli_rep(u) @ _pauli_rep(v)).real
            assert math.isclose(float(inner(u, v)), want, abs_tol=1e-15)
    assert inner(T1, T1) == Fraction(1, 2)
    assert inner(T1, T2) == 0


def test_omega_norm_downstream():
    # |omega|^2 = sum_i |t_i|^2 = 3/2 under this normalisation
    assert sum(inner(t, t) for t in (T1, T2, T3)) == Fraction(3, 2)


def test_rotation_identity_and_quarter_turn():
    u = np.array([0.3, -1.2, 0.7])
    r = ad_rotate(T2, 0.0, u)
    assert norm(r - u) < 1e-15

    got = ad_rotate(T3, math.pi / 2, T1)
    assert norm(got - T2) < 1e-15


def _expm_taylor(m, terms=60):
    # |m| <= 2 pi here, so the terms after the 60th are below 1e-30
    out = np.eye(len(m))
    term = np.eye(len(m))
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_rotation_matches_expm_oracle():
    rng = np.random.default_rng(11)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for _ in range(20):
        ax = rng.normal(size=3)
        ang = rng.uniform(0, 2 * math.pi)
        n = ax / np.linalg.norm(ax)
        # ad_n acts on coefficients as the cross product n x .
        ad = np.array([[sum(eps[i, j, k] * n[i] for i in range(3))
                        for j in range(3)] for k in range(3)])
        rot = _expm_taylor(ang * ad)
        u = rng.normal(size=3)
        want = rot @ u
        got = ad_rotate(ax, ang, u)
        assert np.allclose(got, want, atol=1e-12)


def test_rotation_preserves_norm_seeded():
    rng = np.random.default_rng(99)
    for _ in range(100):
        axis = rng.normal(size=3)
        angle = float(rng.uniform(0, 2 * math.pi))
        u = rng.normal(size=3)
        assert abs(norm(ad_rotate(axis, angle, u)) - norm(u)) < 1e-13


def test_rotation_of_a_stack_matches_per_sample_calls():
    # a (3, n) stack with n angles, against one call per sample, to a few
    # ulps of |u| (numpy may round cos and sin of an array and of a scalar
    # differently); the norm of a stack is the per-sample norms
    rng = np.random.default_rng(12)
    axis, u = rng.normal(size=(2, 3, 60))
    angle = rng.uniform(0, 2 * math.pi, 60)
    got = ad_rotate(axis, angle, u)
    assert got.shape == (3, 60)
    for k in range(60):
        one = ad_rotate(axis[:, k], angle[k], u[:, k])
        assert one.shape == (3,)
        assert np.abs(got[:, k] - one).max() <= 4 * np.finfo(float).eps * norm(u[:, k])
    assert norm(got).tolist() == [float(norm(got[:, k])) for k in range(60)]


def test_degenerate_axis_rejected():
    with pytest.raises(ValueError, match="degenerate rotation axis"):
        ad_rotate(ZERO, 1.0, T1)
    axis = np.ones((3, 4))
    axis[:, 2] = 0.0
    with pytest.raises(ValueError, match="degenerate rotation axis"):
        ad_rotate(axis, np.ones(4), np.ones((3, 4)))


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
triples = st.tuples(small_fracs, small_fracs, small_fracs).map(
    lambda t: np.array(t, dtype=object))


@given(triples, triples, triples)
@settings(max_examples=150, deadline=None)
def test_jacobi_identity(u, v, w):
    total = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
             + bracket(w, bracket(u, v)))
    assert _is_zero(total)


@given(triples, triples, triples)
@settings(max_examples=150, deadline=None)
def test_ad_invariance(u, v, w):
    assert inner(bracket(w, u), v) + inner(u, bracket(w, v)) == 0


@given(triples, triples)
@settings(max_examples=100, deadline=None)
def test_bracket_bilinear_antisymmetric(u, v):
    assert np.array_equal(bracket(u, v), -bracket(v, u))
    assert np.array_equal(bracket(2 * u, v), 2 * bracket(u, v))


@given(triples)
@settings(max_examples=100, deadline=None)
def test_norm_positive_definite(u):
    assert norm_sq(u) >= 0
    assert (norm_sq(u) == 0) == _is_zero(u)
