"""Isotypic splitting: projections, eigen table, quadratic projection claim."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OMEGA, one_form_norm_sq, star_vv, exact_form as _form
from kwlab import decomp, forms
from kwlab.cli import _table_entries, suite_decomposition
from kwlab.config import build_config
from kwlab.decomp import (
    MU,
    NU,
    NU_12,
    NU_13,
    appendix_star_table,
    basis,
    basis_identities,
    decomposition_suite,
    omega_bracket,
    omega_bracket_eigencheck,
    project,
    quadratic_projection_slack_sq,
)
from kwlab.forms import wedge_bracket_matrix
from kwlab.report import CheckReport, make_check

I3 = np.eye(3, dtype=np.int64)


def _eq(u, v):
    return all(u[i][a] == v[i][a] for i in range(3) for a in range(3))


def _exact(rows):
    return np.array(rows, dtype=object)


def project_q(i, v):
    """The projection onto V^i in Fractions: the engine's project6, read
    through ``decomp`` so that a fault injected there reaches it, over 6."""
    return decomp.project6(i, v) * Fraction(1, 6)


KINDS = ("pure2", "pure3", "mixed")  # the kind of suite vector k is KINDS[k % 3]
_MATRIX = np.dtype((np.int64, (3, 3)))


def _random_int_matrix(rng: random.Random, kind: str):
    """Integer coefficient matrix of the requested type, one randint call per
    drawn entry: the per-value draw that the suite's bulk draw reproduces."""
    r = lambda: rng.randint(-27, 27)
    if kind == "mixed":
        return [[r(), r(), r()], [r(), r(), r()], [r(), r(), r()]]
    if kind == "pure2":
        x, y, z = r(), r(), r()
        return [[0, z, -y], [-z, 0, x], [y, -x, 0]]
    if kind == "pure3":
        x, y, z, s, t = r(), r(), r(), r(), r()
        return [[s, z, y], [z, t, x], [y, x, -s - t]]
    raise ValueError(f"unknown kind {kind!r}")


def random_form(rng: random.Random, kind: str = "mixed"):
    """Small random rational coefficient form of the requested type."""
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    if kind == "mixed":
        return _form([[frac() for _ in range(3)] for _ in range(3)])
    if kind == "pure2":
        return MU[0] * frac() + MU[1] * frac() + MU[2] * frac()
    if kind == "pure3":
        return sum((b * frac() for b in (NU[0], NU[1], NU[2], NU_12, NU_13)),
                   start=OMEGA * Fraction(0))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# reference implementations: the quadratic projection claim in Fractions and
# the seeded suite one vector at a time.  Every engine call goes through
# `decomp`'s module bindings, so a fault injected there reaches the
# reference and the int64 suite alike.
# ---------------------------------------------------------------------------

def lemma_quadratic_projection(v) -> CheckReport:
    """Quadratic projection bound: the V1 part of *3(v^v) deviates from
    *3(v1 ^ v1) by at most (|v2|^2 + |v3|^2)/sqrt(6), with exact equality of
    magnitudes on pure V2 or pure V3 input.  All comparisons are made on
    squared quantities so the test stays rational."""
    v = v * Fraction(1)
    v1, v2, v3 = (project_q(i, v) for i in (1, 2, 3))
    lhs_form = project_q(1, star_vv(v)) - star_vv(v1)
    lhs_sq = one_form_norm_sq(lhs_form)  # |(*3(v^v))^(1) - *3(v1^v1)|^2
    n2 = one_form_norm_sq(v2)
    n3 = one_form_norm_sq(v3)
    bound_sq_times6 = (n2 + n3) ** 2     # (rhs * sqrt(6))^2
    lhs_sq_times6 = 6 * lhs_sq

    pure2 = all(x == 0 for x in (one_form_norm_sq(v1), n3))
    pure3 = all(x == 0 for x in (one_form_norm_sq(v1), n2))
    if pure2 or pure3:
        ok = lhs_sq_times6 == (n2 + n3) ** 2
        kind = "equality (pure component)"
    else:
        ok = lhs_sq_times6 <= bound_sq_times6
        kind = "inequality (mixed component)"
    slack_sq = bound_sq_times6 - lhs_sq_times6
    return make_check(
        "lemma-quadratic-projection",
        f"quadratic projection bound, {kind}",
        computed=float(slack_sq),
        ok=bool(ok),
        provenance="reference",
        extra={
            "lhs_sq_times6": str(lhs_sq_times6),
            "bound_sq_times6": str(bound_sq_times6),
            "pure2": pure2,
            "pure3": pure3,
        },
    )


def reference_slack_sq(rows) -> tuple:
    """The quadratic projection claim of one integer matrix (nested lists),
    in Python integers."""
    s = decomp.wedge_bracket_matrix(rows, rows)
    tr_s = int(s[0][0]) + int(s[1][1]) + int(s[2][2])
    tr_v = int(rows[0][0]) + int(rows[1][1]) + int(rows[2][2])
    fro = sum(int(rows[i][a]) ** 2 for i in range(3) for a in range(3))
    return (3 * tr_s - 2 * tr_v * tr_v) ** 2, (3 * fro - tr_v * tr_v) ** 2


def reference_suite(seed: int, n: int) -> tuple:
    """decomposition_suite one vector at a time, in Python integers."""
    if n < 1:
        raise ValueError("empty suite")
    rng = random.Random(seed)
    slack = []
    for k in range(n):
        kind = KINDS[k % 3]
        lhs_sq, bound_sq = reference_slack_sq(_random_int_matrix(rng, kind))
        if kind in ("pure2", "pure3"):
            if lhs_sq != bound_sq:
                return None, None, (k, False)  # the pure-type equality
        elif lhs_sq > bound_sq:
            return None, None, (k, True)  # the projection bound
        else:
            slack.append(bound_sq - lhs_sq)
    return min(slack, default=None), len(slack), None


def test_basis_dimensions_and_norms():
    b = basis()
    assert (len(b.v1), len(b.v2), len(b.v3)) == (1, 3, 5)
    assert all(v.dtype == np.int64 for v in b.v1 + b.v2 + b.v3)
    assert np.array_equal(b.v1[0], I3)
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
    assert np.array_equal(project(1, I3), I3)
    assert not project(2, I3).any()
    assert np.array_equal(project(2, MU[0]), MU[0])
    assert not project(1, MU[0]).any()
    assert _eq(project_q(1, OMEGA), OMEGA)
    with pytest.raises(ValueError):
        project(4, I3)


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
        assert one_form_norm_sq(v) == sum(one_form_norm_sq(project_q(i, v))
                                          for i in (1, 2, 3))


def test_eigencheck_table():
    checks = _table_entries(omega_bracket_eigencheck())
    assert len(checks) == 9
    assert all(c.status == "pass" for c in checks)


def test_eigen_examples():
    assert np.array_equal(omega_bracket(I3), 2 * I3)
    assert np.array_equal(omega_bracket(MU[1]), MU[1])
    assert np.array_equal(omega_bracket(NU_12), -NU_12)
    assert omega_bracket(NU_12).dtype == np.int64


def test_appendix_star_table_all_pass():
    checks = _table_entries(appendix_star_table())
    gating = [c for c in checks if c.status != "info"]
    assert all(c.status == "pass" for c in gating)
    # the engine's recorded orientation signs for the symmetric entries
    signs = [c for c in checks if c.check_id.endswith("-sign")]
    assert signs and all(c.computed == -1.0 for c in signs)


def test_tables_bracket_each_stack_once(monkeypatch):
    # each table's pairs go through the engine as one (3, 3, k) int64 stack;
    # test_integer_tables_match_fraction_oracle checks the entries one by one
    calls = []
    wedge = decomp.wedge_bracket_matrix

    def counted(u, v):
        calls.append((np.shape(u), np.shape(v), np.result_type(u, v)))
        return wedge(u, v)

    monkeypatch.setattr(decomp, "wedge_bracket_matrix", counted)
    omega_bracket_eigencheck()
    appendix_star_table()
    assert calls == [((3, 3), (3, 3, 9), np.int64),
                     ((3, 3, 36), (3, 3, 36), np.int64)]


def test_star_table_values():
    t1e1 = _exact([[Fraction(1), 0, 0], [0, 0, 0], [0, 0, 0]])
    assert _eq(star_vv(_form(MU[0])), t1e1)
    # resolution of t1 e1 in the omega / diagonal basis
    res = (OMEGA + NU_12 + NU_13) * Fraction(1, 3)
    assert _eq(t1e1, res)
    assert one_form_norm_sq(project_q(1, wedge_bracket_matrix(MU[0], MU[1]))) == 0
    # the integer scale of the tables: [v ^ v] = 2 *3(v ^ v)
    assert np.array_equal(wedge_bracket_matrix(MU[0], MU[0]), 2 * np.diag(I3[0]))


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
    rows = [_random_int_matrix(rng, KINDS[k % 3]) for k in range(150)]
    l6, b6 = quadratic_projection_slack_sq(np.array(rows).transpose(1, 2, 0))
    for k, r in enumerate(rows):
        full = lemma_quadratic_projection(_form(r))
        assert Fraction(full.extra["lhs_sq_times6"]) * 36 == l6[k]
        assert Fraction(full.extra["bound_sq_times6"]) * 36 == b6[k]


def test_int64_stack_bound():
    # entries at the bound stay exact; one past it is refused, not wrapped
    v = np.random.default_rng(5).choice([-54, 0, 54], size=(3, 3, 300))
    l6, b6 = quadratic_projection_slack_sq(v)
    for k in range(300):
        assert (l6[k], b6[k]) == reference_slack_sq(v[:, :, k].tolist())
    for bad in (55, -55, -2**63):
        w = v.copy()
        w[1, 2, 7] = bad
        with pytest.raises(ValueError, match="within"):
            quadratic_projection_slack_sq(w)
    with pytest.raises(ValueError, match="within"):
        quadratic_projection_slack_sq(v.astype(float))


def test_projection_commutes_with_omega_bracket(rng):
    for _ in range(30):
        v = rng.normal(size=(3, 3))
        for i in (1, 2, 3):
            left = omega_bracket(project(i, v))
            right = project(i, omega_bracket(v))
            diff = np.max(np.abs(np.asarray(left - right, float)))
            assert diff <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 10**30])
def test_vector_blocks_match_randint_stream(seed):
    # n at the kind cycle and around the block edges, where the leftover
    # values of one block start the next
    for n in (1, 2, 3, 4, 999, 1000, 1001, 2999, 3001):
        rng = random.Random(seed)
        blocks = list(decomp._vector_blocks(seed, n))
        assert np.array_equal(np.concatenate([ks for ks, _ in blocks]), np.arange(n))
        for ks, v in blocks:
            want = np.fromiter((_random_int_matrix(rng, KINDS[k % 3]) for k in ks),
                               _MATRIX, len(ks)).transpose(1, 2, 0)
            assert v.dtype == np.int64 and np.array_equal(v, want)


def test_suite_draws_in_bulk(monkeypatch):
    def per_value_draw(*args):
        raise AssertionError("the suite drew one value at a time")

    calls = []
    getrandbits = random.Random.getrandbits
    monkeypatch.setattr(random.Random, "randint", per_value_draw)
    monkeypatch.setattr(random.Random, "getrandbits",
                        lambda rng, k: calls.append(k) or getrandbits(rng, k))
    # the reference_suite(42, 3001) entry, computed once
    checks = suite_decomposition(build_config({}, {"seed": 42, "n": 3001}))
    assert checks[-1] == make_check(
        "decomposition-suite",
        "3001 seeded vectors through the engine wedge bracket and the "
        "quadratic projection claim; least slack of the 1000 mixed vectors",
        computed=232377.0, ok=True, provenance="derived",
        extra={"n": 3001, "seed": 42, "worst_slack_sq": "232377"})
    # at most one call per block plus the top-ups of short rounds: here no
    # round is short, and the fourth block's one vector (pure2, 3 values)
    # takes values left over from the third
    assert len(calls) == 3
    assert all(k % 32 == 0 for k in calls)


def test_suite_runs_and_rejects_empty():
    least, mixed, failed = decomposition_suite(seed=42, n=300)
    assert failed is None
    assert least >= 0 and mixed == 100
    with pytest.raises(ValueError, match="empty suite"):
        decomposition_suite(seed=1, n=0)


rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@given(st.lists(rational, min_size=9, max_size=9))
@settings(max_examples=120, deadline=None)
def test_completeness_and_bound_property(coeffs):
    v = _exact([coeffs[0:3], coeffs[3:6], coeffs[6:9]])
    parts = [project_q(i, v) for i in (1, 2, 3)]
    assert _eq(parts[0] + parts[1] + parts[2], v)
    assert one_form_norm_sq(v) == sum(one_form_norm_sq(p) for p in parts)
    rep = lemma_quadratic_projection(v)
    assert rep.passed


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_suite_matches_reference(seed):
    # n below the first mixed vector, at the kind cycle and at block edges
    for n in (1, 2, 3, 9, 10, 11, 999, 1000, 1001, 2500):
        assert decomposition_suite(seed, n) == reference_suite(seed, n)


def _flip_one_sign(table):
    (i, j, k, sign), *rest = table
    return ((i, j, k, -sign), *rest)


def _trace_keeping_v3(monkeypatch):
    engine = decomp.project6

    def keeps_trace(i, m):
        return 3 * (m + m.swapaxes(0, 1)) if i == 3 else engine(i, m)

    monkeypatch.setattr(decomp, "project6", keeps_trace)


def _oblique_v1(monkeypatch):
    """V1 tilted to the span of omega + nu_12, V2 and V3 kept: the
    projections stay complementary and idempotent but are not orthogonal."""
    engine = decomp.project6

    def oblique(i, m):
        tilt = 2 * np.multiply.outer(NU_12, m[0][0] + m[1][1] + m[2][2])
        return engine(i, m) + {1: tilt, 2: 0, 3: -tilt}[i]

    monkeypatch.setattr(decomp, "project6", oblique)


# engine faults, each applied through monkeypatch
_FAULTS = {
    "eps-sign": lambda mp: mp.setattr(forms, "EPS_TABLE",
                                      _flip_one_sign(forms.EPS_TABLE)),
    "v3-keeps-trace": _trace_keeping_v3,
    "eigenvalue-off-by-one": lambda mp: mp.setattr(decomp, "EIGENVALUES", (2, 2, -1)),
    "v1-doubled": lambda mp: mp.setattr(
        decomp, "project6", lambda i, m, f=decomp.project6: f(i, m) * (2 if i == 1 else 1)),
    "v1-oblique": _oblique_v1,
}
IDENTITY_IDS = ("decomposition-completeness", "decomposition-idempotence",
                "decomposition-orthogonality", "decomposition-self-adjoint",
                "decomposition-eigen-relation", "decomposition-lemma-gram")
# fault -> (the basis identities that fail, status of decomposition-suite).
# The seeded suite's per-vector claim reads only the wedge bracket: it never
# calls project6 or reads EIGENVALUES, so it passes under every fault but
# eps-sign.  Under v3-keeps-trace it used to fail only through the sampled
# battery that the basis identities replaced.
_LIVENESS = {
    "eps-sign": ({"decomposition-eigen-relation", "decomposition-lemma-gram"},
                 "fail"),
    "v3-keeps-trace": ({"decomposition-completeness", "decomposition-orthogonality",
                        "decomposition-eigen-relation", "decomposition-lemma-gram"},
                       "pass"),
    "eigenvalue-off-by-one": ({"decomposition-eigen-relation"}, "pass"),
    "v1-doubled": ({"decomposition-completeness", "decomposition-idempotence"},
                   "pass"),
    "v1-oblique": ({"decomposition-self-adjoint", "decomposition-eigen-relation",
                    "decomposition-lemma-gram"}, "pass"),
}


@pytest.mark.parametrize("fault", list(_LIVENESS))
def test_suite_is_live(monkeypatch, tmp_path, fault):
    from kwlab import cli

    failing, suite_status = _LIVENESS[fault]
    _FAULTS[fault](monkeypatch)
    out = tmp_path / "decomposition.json"
    assert cli.main(["verify", "--suite", "decomposition", "--n", "1000",
                     "--out", str(out)]) == 1
    status = {c["check_id"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert {cid for cid in IDENTITY_IDS if status[cid] == "fail"} == failing
    assert status["decomposition-suite"] == suite_status
    assert decomposition_suite(42, 1000) == reference_suite(42, 1000)


# ---------------------------------------------------------------------------
# the Fraction oracle of the integer tables: each entry's claim as stated,
# in Fractions, through the engine's kernels (so a fault reaches it too)
# ---------------------------------------------------------------------------

def _te_q(i, sign=1):
    rows = [[0] * 3 for _ in range(3)]
    rows[i][i] = sign
    return _form(rows)


def fraction_star_table() -> dict:
    """check_id -> whether the entry holds, for every gating entry of
    appendix_star_table, on the Fraction forms of the basis."""
    mu, nu = [_form(m) for m in MU], [_form(m) for m in NU]
    nu12, nu13, zero = _form(NU_12), _form(NU_13), OMEGA * 0
    out = {f"star-table-mu{k + 1}": _eq(star_vv(mu[k]), _te_q(k))
           for k in range(3)}
    for cid, v, want in ([(f"star-table-nu{k + 1}", nu[k], _te_q(k, -1))
                          for k in range(3)]
                         + [("star-table-nu12", nu12, _te_q(2, -1)),
                            ("star-table-nu13", nu13, _te_q(1, -1))]):
        out[cid] = _eq(star_vv(v), want)
    for a in range(3):
        for b in range(3):
            if a != b:
                out[f"star-table-mu{a + 1}{b + 1}-perp"] = _eq(
                    project_q(1, wedge_bracket_matrix(mu[a], mu[b])), zero)
    sym = (*nu, nu12, nu13)
    for a in range(5):
        for b in range(5):
            if a != b and {a, b} != {3, 4}:
                out[f"star-table-nu-bracket-{a}{b}-perp"] = _eq(
                    project_q(1, wedge_bracket_matrix(sym[a], sym[b])), zero)
    out["star-table-nu-diag-bracket-v1"] = _eq(
        project_q(1, wedge_bracket_matrix(nu12, nu13)), OMEGA * Fraction(-1, 3))
    out["star-table-te-decomposition"] = _eq(
        _te_q(0), (OMEGA + nu12 + nu13) * Fraction(1, 3))
    for name, v in (("mu1", mu[0]), ("nu1", nu[0]), ("nu12", nu12)):
        out[f"star-table-{name}-v1-magnitude"] = (
            one_form_norm_sq(project_q(1, star_vv(v))) == Fraction(1, 6))
    return out


def fraction_eigen_table() -> dict:
    b = basis()
    return {f"eigen-table-v{i}-{k}": _eq(omega_bracket(_form(v)),
                                         _form(v) * Fraction(lam))
            for i, (vecs, lam) in enumerate(zip(b, decomp.EIGENVALUES), 1)
            for k, v in enumerate(vecs)}


def fraction_basis_identities() -> dict:
    """check_id -> whether the identity holds, for each entry of
    basis_identities, stated on the Fraction unit forms e_k with the
    projections p_i = P_i / 6 and the bilinear forms L and B."""
    units = [_form(row.reshape(3, 3).tolist()) for row in np.eye(9, dtype=int)]
    parts = {i: [project_q(i, e) for e in units] for i in (1, 2, 3)}
    tr = lambda m: m[0][0] + m[1][1] + m[2][2]
    inner = forms.frob_inner
    pairs = [(k, l) for k in range(9) for l in range(9)]

    def gram_holds(k, l):
        u, v = units[k], units[l]
        lam = 3 * tr(wedge_bracket_matrix(u, v)) - 2 * tr(u) * tr(v)
        bil = 3 * inner(u, v) - tr(u) * tr(v)
        return (bil - lam == 6 * inner(parts[3][k], parts[3][l])
                and bil + lam == 6 * inner(parts[2][k], parts[2][l]))

    return {
        "decomposition-completeness": all(
            _eq(parts[1][k] + parts[2][k] + parts[3][k], e)
            for k, e in enumerate(units)),
        "decomposition-idempotence": all(
            _eq(project_q(i, p), p) for i in (1, 2, 3) for p in parts[i]),
        "decomposition-orthogonality": all(
            _eq(project_q(j, p), OMEGA * 0)
            for i in (1, 2, 3) for j in (1, 2, 3) if j != i for p in parts[i]),
        "decomposition-self-adjoint": all(
            inner(units[l], parts[i][k]) == inner(units[k], parts[i][l])
            for i in (1, 2, 3) for k, l in pairs),
        "decomposition-eigen-relation": all(
            _eq(decomp.omega_bracket(p), p * Fraction(lam))
            for i, lam in zip((1, 2, 3), decomp.EIGENVALUES) for p in parts[i]),
        "decomposition-lemma-gram": all(gram_holds(k, l) for k, l in pairs),
    }


def _table_verdicts(checks) -> dict:
    return {c.check_id: c.computed == 1.0 for c in checks if c.gates}


_TABLE_FAULTS = {"none": lambda mp: None, **_FAULTS}


@pytest.mark.parametrize("fault", list(_TABLE_FAULTS))
def test_integer_tables_match_fraction_oracle(monkeypatch, fault):
    # entry by entry the integer tables give the verdicts of the same claims
    # in Fractions, on the working engine (all hold) and under faults (the
    # same entries fail)
    _TABLE_FAULTS[fault](monkeypatch)
    tables = ((appendix_star_table(), fraction_star_table()),
              (omega_bracket_eigencheck(), fraction_eigen_table()),
              (basis_identities(), fraction_basis_identities()))
    for rows, oracle in tables:
        assert _table_verdicts(_table_entries(rows)) == oracle
    verdicts = [ok for _, oracle in tables for ok in oracle.values()]
    assert all(verdicts) == (fault == "none")


def test_decomposition_and_algebra_suites_stay_off_object_arrays(monkeypatch,
                                                                 tmp_path):
    # every kernel call of the two suites takes and returns numeric arrays
    from kwlab import cli, su2

    seen, calls = [], {}

    def watch(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            out = fn(*args)
            seen.extend(np.asarray(x).dtype for x in (*args[-2:], out))
            calls[name] = calls.get(name, 0) + 1
            return out
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((decomp, "wedge_bracket_matrix"), (decomp, "project6"),
                         (su2, "bracket"), (su2, "inner")):
        watch(module, name)
    for suite in ("decomposition", "algebra"):
        assert cli.main(["verify", "--suite", suite, "--n", "300",
                         "--out", str(tmp_path / f"{suite}.json")]) == 0
    # every kernel call is seen, each exactly as often as the two suites
    # make it: the algebra suite's samples are (3, n) stacks and each
    # decomposition table brackets its pairs as one stack
    assert calls == {"wedge_bracket_matrix": 7, "project6": 40,
                     "bracket": 15, "inner": 13}
    assert len(seen) == 3 * 75 and np.dtype(object) not in seen
