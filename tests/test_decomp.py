"""Isotypic splitting: projections, eigen table, quadratic projection claim."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwlab.decomp import (
    MU,
    NU,
    NU_12,
    NU_13,
    appendix_star_table,
    basis,
    decomposition_suite,
    lemma_quadratic_projection,
    omega_bracket,
    omega_bracket_eigencheck,
    project,
    quadratic_projection_slack_sq,
    random_form,
    star_bracket,
    star_vv,
    _random_int_matrix,
)
from kwlab.forms import OMEGA, one_form_norm_sq


def _eq(u, v):
    return all(u[i][a] == v[i][a] for i in range(3) for a in range(3))


def _exact(rows):
    return np.array(rows, dtype=object)


def test_basis_dimensions_and_norms():
    b = basis()
    assert (len(b.v1), len(b.v2), len(b.v3)) == (1, 3, 5)
    assert one_form_norm_sq(OMEGA) == Fraction(3, 2)
    for mu in MU:
        assert one_form_norm_sq(mu) == 1
    for nu in NU + (NU_12, NU_13):
        assert one_form_norm_sq(nu) == 1
    # mutual orthogonality of the three summands on all basis pairs
    for v2 in b.v2:
        assert sum(OMEGA[i][a] * v2[i][a]
                   for i in range(3) for a in range(3)) == 0
        for v3 in b.v3:
            assert sum(v2[i][a] * v3[i][a]
                       for i in range(3) for a in range(3)) == 0


def test_projection_examples():
    assert _eq(project(1, OMEGA), OMEGA)
    assert one_form_norm_sq(project(2, OMEGA)) == 0
    assert _eq(project(2, MU[0]), MU[0])
    assert one_form_norm_sq(project(1, MU[0])) == 0
    with pytest.raises(ValueError):
        project(4, OMEGA)


def _gram_project(i, v):
    """Independent oracle: Gram-matrix projection built from the basis lists."""
    b = basis()
    vecs = (b.v1, b.v2, b.v3)[i - 1]
    n = len(vecs)
    gram = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    inner = lambda x, y: sum(x[r][c] * y[r][c]
                             for r in range(3) for c in range(3))
    for p in range(n):
        rhs[p] = Fraction(inner(vecs[p], v))
        for q in range(n):
            gram[p][q] = Fraction(inner(vecs[p], vecs[q]))
    # exact Gaussian elimination
    m = [row[:] + [rhs[p]] for p, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    coeffs = [m[r][n] for r in range(n)]
    out = vecs[0] * coeffs[0]
    for c, vec in zip(coeffs[1:], vecs[1:]):
        out = out + vec * c
    return out


def test_projection_against_gram_oracle():
    rng = random.Random(99)
    for _ in range(40):
        v = random_form(rng, "mixed")
        for i in (1, 2, 3):
            assert _eq(project(i, v), _gram_project(i, v))
        assert one_form_norm_sq(v) == sum(one_form_norm_sq(project(i, v))
                                          for i in (1, 2, 3))


def test_eigencheck_table():
    checks = omega_bracket_eigencheck()
    assert len(checks) == 9
    assert all(c.status == "pass" for c in checks)


def test_eigen_examples():
    assert _eq(omega_bracket(OMEGA), OMEGA * Fraction(2))
    assert _eq(omega_bracket(MU[1]), MU[1])
    assert _eq(omega_bracket(NU_12), NU_12 * Fraction(-1))


def test_appendix_star_table_all_pass():
    checks = appendix_star_table()
    gating = [c for c in checks if c.status != "info"]
    assert all(c.status == "pass" for c in gating)
    # the engine's recorded orientation signs for the symmetric entries
    signs = [c for c in checks if c.check_id.endswith("-sign")]
    assert signs and all(c.computed == -1.0 for c in signs)


def test_star_table_values():
    t1e1 = _exact([[Fraction(1), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert _eq(star_vv(MU[0]), t1e1)
    # resolution of t1 e1 in the omega / diagonal basis
    res = (OMEGA + NU_12 + NU_13) * Fraction(1, 3)
    assert _eq(t1e1, res)
    assert one_form_norm_sq(project(1, star_bracket(MU[0], MU[1]))) == 0


def test_quadratic_projection_pure_examples():
    rep = lemma_quadratic_projection(MU[0])
    assert rep.passed and rep.extra["pure2"]
    assert Fraction(rep.extra["lhs_sq_times6"]) == 1  # (1/sqrt6)^2 * 6
    rep = lemma_quadratic_projection(NU[2])
    assert rep.passed and rep.extra["pure3"]
    assert Fraction(rep.extra["lhs_sq_times6"]) == 1
    rep = lemma_quadratic_projection(OMEGA)
    assert rep.passed
    assert Fraction(rep.extra["lhs_sq_times6"]) == 0  # pure V1: both sides vanish


def test_quadratic_projection_mixed_coefficients():
    v = MU[0] * Fraction(3) + MU[1] * Fraction(-2) + MU[2] * Fraction(1)
    rep = lemma_quadratic_projection(v)
    # |v|^2 = 14, equality: 6 lhs^2 = 14^2
    assert Fraction(rep.extra["lhs_sq_times6"]) == 196
    assert rep.passed


def test_fast_path_matches_fraction_path():
    rng = random.Random(3)
    for k in range(150):
        rows = _random_int_matrix(rng, ("pure2", "pure3", "mixed")[k % 3])
        l6, b6 = quadratic_projection_slack_sq(rows)
        v = _exact([[Fraction(x) for x in r] for r in rows])
        full = lemma_quadratic_projection(v)
        assert Fraction(full.extra["lhs_sq_times6"]) * 36 == l6
        assert Fraction(full.extra["bound_sq_times6"]) * 36 == b6


def test_projection_commutes_with_omega_bracket(rng):
    for _ in range(30):
        v = rng.normal(size=(3, 3))
        for i in (1, 2, 3):
            left = omega_bracket(project(i, v))
            right = project(i, omega_bracket(v))
            diff = np.max(np.abs(np.asarray(left - right, float)))
            assert diff <= 1e-14


def test_suite_runs_and_rejects_empty():
    rep = decomposition_suite(seed=42, n=300)
    assert rep.status == "pass"
    assert Fraction(rep.extra["worst_slack_sq"]) >= 0
    with pytest.raises(ValueError, match="empty suite"):
        decomposition_suite(seed=1, n=0)


rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(st.lists(rational, min_size=9, max_size=9))
@settings(max_examples=120, deadline=None)
def test_completeness_and_bound_property(coeffs):
    v = _exact([coeffs[0:3], coeffs[3:6], coeffs[6:9]])
    parts = [project(i, v) for i in (1, 2, 3)]
    assert _eq(parts[0] + parts[1] + parts[2], v)
    assert one_form_norm_sq(v) == sum(one_form_norm_sq(p) for p in parts)
    rep = lemma_quadratic_projection(v)
    assert rep.passed
