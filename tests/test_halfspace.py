"""Flat half-space models: pointwise values, residuals, dilation behaviour."""

import json
import math
import random
from functools import cached_property

import numpy as np
import pytest

from kwlab import halfspace
from kwlab.cli import main, suite_models
from kwlab.config import SuiteConfig
from kwlab.forms import FieldAt, GeometryConventions, calibrate
from kwlab.halfspace import (
    BLOCK,
    FlatModelField,
    kw_residual_flat,
    kw_residual_flat_combined,
    nahm_pole_field,
    nahm_singular_field,
    read_points_csv,
    sample_points,
    scale_pullback,
    write_residuals_csv,
)
from kwlab.jets import Jet, sqrt
from kwlab.su2 import bracket


def _col(*coords):
    """One point as a (4, 1) point set."""
    return np.array(coords, dtype=float).reshape(4, 1)


# ---------------------------------------------------------------------------
# per-point reference: the flat-chart equations written out pair by pair
# (F_mu_nu and a star table), independent of FieldAt, with one longdouble
# Jet per coordinate and one residual call per point
# ---------------------------------------------------------------------------

def _ref_sample(A_dual, phi_dual):
    A = np.zeros((3, 3), dtype=np.longdouble)
    dA = np.zeros((3, 3, 4), dtype=np.longdouble)
    phi = np.zeros((3, 3), dtype=np.longdouble)
    dphi = np.zeros((3, 3, 4), dtype=np.longdouble)
    for i in range(3):
        for a in range(3):
            A[i, a] = A_dual[i][a].f
            dA[i, a, :] = A_dual[i][a].d
            phi[i, a] = phi_dual[i][a].f
            dphi[i, a, :] = phi_dual[i][a].d
    return A, dA, phi, dphi


def _ref_vars(p):
    return Jet.vars(*(np.longdouble(c) for c in p))


def _ref_pole(p):
    x1, x2, x3, y = _ref_vars(p)
    z = x1 * 0
    inv_y = 1 / y
    A = [[z, z, z], [z, z, z], [z, z, z]]
    phi = [[inv_y, z, z], [z, inv_y, z], [z, z, inv_y]]
    return _ref_sample(A, phi)


def _ref_singular(p):
    x1, x2, x3, y = _ref_vars(p)
    z = x1 * 0
    R2 = x1 * x1 + x2 * x2 + y * y
    Rt = sqrt(R2)
    inv_y = 1 / y
    phi_ia = [
        [x1 / (Rt * y), (-1) * x2 / (Rt * y), z],
        [x2 / (Rt * y), x1 / (Rt * y), z],
        [z, z, (1 + y * y / R2) * inv_y],
    ]
    A_ia = [[z, z, z], [z, z, z], [x2 / R2, (-1) * x1 / R2, z]]
    return _ref_sample(A_ia, phi_ia)


# pair -> (star dual pair, sign) under the volume form dx1^dx2^dx3^dy; the
# calibrated orientation, (s1, s2) = (+1, +1), is the volume dy^dx1^dx2^dx3,
# hence the extra -1 below
_REF_PAIRS = {(0, 1): ((2, 3), 1), (2, 3): ((0, 1), 1), (1, 2): ((0, 3), 1),
              (0, 3): ((1, 2), 1), (0, 2): ((1, 3), -1), (1, 3): ((0, 2), -1)}


def _ref_residual(evaluator, p, scale=1.0):
    """(eq1, eq2, hypot) at one point p = (x1, x2, x3, y), Python floats."""
    if scale != 1.0:
        A, dA, phi, dphi = evaluator(tuple(c * scale for c in p))
        A, dA = A * scale, dA * (scale * scale)
        phi, dphi = phi * scale, dphi * (scale * scale)
    else:
        A, dA, phi, dphi = evaluator(p)
    A = np.concatenate([A, np.zeros((3, 1), dtype=A.dtype)], axis=1)
    phi = np.concatenate([phi, np.zeros((3, 1), dtype=phi.dtype)], axis=1)
    dA = np.concatenate([dA, np.zeros((3, 1, 4), dtype=dA.dtype)], axis=1)
    dphi = np.concatenate([dphi, np.zeros((3, 1, 4), dtype=dphi.dtype)], axis=1)
    F, dphi2, phiphi = {}, {}, {}
    for mu, nu in sorted(_REF_PAIRS):
        F[(mu, nu)] = dA[:, nu, mu] - dA[:, mu, nu] + bracket(A[:, mu], A[:, nu])
        dphi2[(mu, nu)] = (dphi[:, nu, mu] - dphi[:, mu, nu]
                           + bracket(A[:, mu], phi[:, nu])
                           - bracket(A[:, nu], phi[:, mu]))
        phiphi[(mu, nu)] = bracket(phi[:, mu], phi[:, nu])
    res1_sq = 0.0
    for mu, nu in sorted(_REF_PAIRS):
        (tm, tn), sgn = _REF_PAIRS[(mu, nu)]
        r = F[(mu, nu)] - phiphi[(mu, nu)] - (-1) * sgn * dphi2[(tm, tn)]
        res1_sq += 0.5 * float(np.dot(r, r))
    div = sum(dphi[:, a, a] + bracket(A[:, a], phi[:, a]) for a in range(3))
    res2_sq = 0.5 * float(np.dot(div, div))
    r1, r2 = math.sqrt(res1_sq), math.sqrt(res2_sq)
    return r1, r2, math.hypot(r1, r2)


def _ref_draws(seed, n, width, y_lo, y_hi, r_min):
    """The point-by-point sampling loop: (drawn points, kept flags)."""
    rng = random.Random(seed)
    drawn, kept = [], []
    while sum(kept) < n:
        x1, x2, x3 = (rng.uniform(-width, width) for _ in range(3))
        y = rng.uniform(y_lo, y_hi)
        drawn.append((x1, x2, x3, y))
        kept.append(math.hypot(x1, x2) >= r_min)
    return drawn, kept, rng


# ---------------------------------------------------------------------------
# array path against one-point calls and the reference
# ---------------------------------------------------------------------------

# the points on either side of each block edge of 2000, and the two ends
_EDGES = sorted({0, 1999} | {k * BLOCK + d
                             for k in (1, 2, 3) for d in (-1, 0)})


@pytest.mark.parametrize("seed", [1, 5, 42])
def test_array_residuals_match_per_point_reference(conv, seed):
    # for both models and their pullbacks: the shorter prefixes, and a
    # one-point call on either side of each block edge, bit for bit against
    # all 2000 points; the flat-chart reference formula to 1e-17
    pts, kept = sample_points(random.Random(seed), 2000, r_min=0.1)
    pts = pts[:, kept]
    cols = [tuple(float(c) for c in col) for col in pts.T]
    for fld, ref in ((nahm_pole_field(), _ref_pole),
                     (nahm_singular_field(), _ref_singular)):
        for s in (1.0, 0.5, 0.25, 2.0):
            field = fld if s == 1.0 else scale_pullback(fld, s)
            full = kw_residual_flat(conv, field, pts)
            comb = kw_residual_flat_combined(conv, field, pts)
            assert full.shape == (2, 2000)
            expect = np.array([_ref_residual(ref, p, s) for p in cols]).T
            assert np.max(np.abs(full - expect[:2])) <= 1e-17
            assert np.max(np.abs(comb - expect[2])) <= 1e-17
            for n in (1, BLOCK - 1, BLOCK, BLOCK + 1):
                got = kw_residual_flat(conv, field, pts[:, :n])
                assert got.shape == (2, n)
                assert got.tobytes() == full[:, :n].tobytes()
                assert (kw_residual_flat_combined(conv, field, pts[:, :n])
                        .tobytes() == comb[:n].tobytes())
            for j in _EDGES:
                one = kw_residual_flat(conv, field, pts[:, j:j + 1])
                assert one.tobytes() == full[:, j:j + 1].tobytes()


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_sampler_keeps_the_point_by_point_stream(seed):
    for width, y_range, r_min, n in ((3.0, (0.3, 3.0), 0.1, 1000),
                                     (3.0, (0.3, 3.0), 0.0, 50),
                                     (2.0, (0.3, 2.0), 0.0, 60),
                                     (3.0, (0.2, 3.0), 0.1, 1000)):
        rng = random.Random(seed)
        pts, kept = sample_points(rng, n, width, y_range, r_min)
        drawn, ref_kept, ref_rng = _ref_draws(seed, n, width, *y_range, r_min)
        assert pts.shape == (4, len(drawn))
        assert pts.T.tolist() == [list(p) for p in drawn]
        assert kept.tolist() == ref_kept and int(kept.sum()) == n
        # nothing drawn past the last kept point: the stream continues alike
        assert rng.random() == ref_rng.random()


def test_empty_point_set(conv):
    assert kw_residual_flat(conv, nahm_pole_field(),
                            np.zeros((4, 0))).shape == (2, 0)
    assert kw_residual_flat_combined(conv, nahm_singular_field(),
                                     np.zeros((4, 0))).shape == (0,)


# ---------------------------------------------------------------------------
# the models
# ---------------------------------------------------------------------------

def test_flat_star_orientation_locked(conv):
    # the flat chart reads the calibrated star signs, and the models solve
    # under no other pair: the pole model pins s2, the singular one s1
    pts, kept = sample_points(random.Random(11), 1, width=1.0,
                              y_range=(0.3, 1.0), r_min=0.1)
    p = pts[:, kept]
    for s1 in (1, -1):
        for s2 in (1, -1):
            cand = GeometryConventions(conv.c, s1, s2)
            worst = max(kw_residual_flat(cand, fld, p)[0, 0]
                        for fld in (nahm_pole_field(), nahm_singular_field()))
            if (s1, s2) == (conv.s1, conv.s2):
                assert worst < 1e-15
            else:
                assert worst > 1.0, (s1, s2)


def test_pole_model_values():
    fld = nahm_pole_field()
    s = fld.eval(_col(0.0, 0.0, 0.0, 1.0))
    assert s.phi.shape == (3, 3, 1) and s.dphi.shape == (3, 3, 4, 1)
    assert s.phi.dtype == np.longdouble
    assert np.allclose(np.asarray(s.phi[..., 0], float), np.eye(3))
    assert np.allclose(np.asarray(s.A, float), 0.0)
    # x-independence, 1/y scaling
    s2 = fld.eval(_col(5.0, -3.0, 2.0, 0.5))
    assert np.allclose(np.asarray(s2.phi[..., 0], float), 2.0 * np.eye(3))


def test_pole_model_residual_seeded(conv):
    fld = nahm_pole_field()
    pts, _ = sample_points(random.Random(123), 1000)
    worst = float(np.max(kw_residual_flat_combined(conv, fld, pts)))
    assert worst < 1e-12


def test_singular_model_axis_and_sample_values():
    fld = nahm_singular_field()
    s = fld.eval(_col(0.0, 0.0, 1.7, 0.5))
    A, phi = np.asarray(s.A[..., 0], float), np.asarray(s.phi[..., 0], float)
    # on the axis: A = 0 and the dx3 weight doubles, phi_3 = 2 t3 / y
    assert np.allclose(A, 0.0)
    assert np.allclose(phi[:, :2], 0.0)
    assert math.isclose(phi[2][2], 2.0 / 0.5, rel_tol=1e-15)

    s = fld.eval(_col(1.0, 0.0, 0.0, 1.0))
    A, phi = np.asarray(s.A[..., 0], float), np.asarray(s.phi[..., 0], float)
    r2 = math.sqrt(2.0)
    assert math.isclose(phi[0][0], 1 / r2, rel_tol=1e-15)
    assert math.isclose(phi[1][1], 1 / r2, rel_tol=1e-15)
    assert math.isclose(phi[2][2], 1.5, rel_tol=1e-15)
    assert math.isclose(A[2][1], -0.5, rel_tol=1e-15)


def test_singular_model_residual_seeded(conv):
    fld = nahm_singular_field()
    pts, kept = sample_points(random.Random(321), 1000,
                              y_range=(0.2, 3.0), r_min=0.1)
    worst = float(np.max(kw_residual_flat_combined(conv, fld, pts[:, kept])))
    assert worst < 1e-10


def test_boundary_evaluation_rejected():
    for y in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="boundary evaluation"):
            nahm_pole_field().eval(_col(1.0, 0.0, 0.0, y))
    with pytest.raises(ValueError, match="positive"):
        scale_pullback(nahm_pole_field(), -1.0)


def test_scale_pullback_fixes_models_exactly():
    rng = random.Random(7)
    for fld in (nahm_pole_field(), nahm_singular_field()):
        for s in (0.5, 0.25, 4.0):  # powers of two: float ops exact
            pulled = scale_pullback(fld, s)
            pts, _ = sample_points(rng, 10, width=2.0, y_range=(0.3, 2.0))
            a, b = fld.eval(pts), pulled.eval(pts)
            assert np.array_equal(np.asarray(a.phi, float),
                                  np.asarray(b.phi, float))
            assert np.array_equal(np.asarray(a.A, float),
                                  np.asarray(b.A, float))
        for s in (0.37, 1.9):
            pulled = scale_pullback(fld, s)
            p = _col(0.9, -1.3, 0.4, 0.7)
            a, b = fld.eval(p), pulled.eval(p)
            assert np.allclose(np.asarray(a.phi, float),
                               np.asarray(b.phi, float), rtol=1e-12)


def test_residual_homogeneity_under_pullback(conv):
    # res(pullback_s f)(p) = s^2 res(f)(s p) for any field, here a non-solution
    base = nahm_singular_field()

    def perturbed(pts):
        smp = base.evaluator(pts)
        # break the equation, keep homogeneity
        return smp._replace(phi=smp.phi * 1.1, dphi=smp.dphi * 1.1)

    fld = FlatModelField("perturbed", perturbed)
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = float(rng.uniform(0.3, 2.5))
        x1, x2, x3 = rng.uniform(-2, 2, 3)
        y = float(rng.uniform(0.4, 2.0))
        if math.hypot(x1, x2) < 0.2 or math.hypot(x1 * s, x2 * s) < 0.2:
            continue
        p = _col(x1, x2, x3, y)
        lhs = kw_residual_flat_combined(conv, scale_pullback(fld, s), p)[0]
        rhs = s * s * kw_residual_flat_combined(conv, fld, p * s)[0]
        assert math.isclose(lhs, rhs, rel_tol=1e-10)


def test_perturbed_pole_field_matches_finite_differences(conv):
    # phi -> phi + y t1 dx1 on top of the pole model; derivatives by FD
    base = nahm_pole_field()

    def perturbed(pts):
        smp = base.evaluator(pts)
        smp = smp._replace(phi=np.asarray(smp.phi, float),
                           dphi=np.asarray(smp.dphi, float))
        smp.phi[0, 0] += pts[3]
        smp.dphi[0, 0, 3] += 1.0
        return smp

    fld = FlatModelField("pole-plus-linear", perturbed)

    h = 1e-5

    # finite-difference field: same values, FD derivatives
    def fd_eval(pts):
        smp = fld.eval(pts)
        dphi = np.zeros((3, 3, 4, pts.shape[1]))
        dA = np.zeros((3, 3, 4, pts.shape[1]))
        for mu in range(4):
            cp, cm = pts.copy(), pts.copy()
            cp[mu] += h
            cm[mu] -= h
            sp, sm = fld.eval(cp), fld.eval(cm)
            dphi[:, :, mu] = (np.asarray(sp.phi, float)
                              - np.asarray(sm.phi, float)) / (2 * h)
            dA[:, :, mu] = (np.asarray(sp.A, float)
                            - np.asarray(sm.A, float)) / (2 * h)
        return smp._replace(dphi=dphi, dA=dA)

    fd_field = FlatModelField("fd", fd_eval)
    pts, _ = sample_points(random.Random(5), 5, width=1.0,
                           y_range=(0.5, 1.5))
    r_exact = kw_residual_flat_combined(conv, fld, pts)
    r_fd = kw_residual_flat_combined(conv, fd_field, pts)
    assert np.all(np.abs(r_exact - r_fd) < 1e-6)
    assert np.all(r_exact > 1e-3)  # genuinely not a solution


def test_residual_gauge_covariance_flat(conv):
    # constant adjoint rotations act on the su(2) coefficient index and
    # leave both residual norms unchanged, also away from solutions
    from kwlab.su2 import ad_rotate

    rot = np.array([ad_rotate((0.2, -0.7, 0.4), 0.93, row) for row in np.eye(3)]).T

    base = nahm_singular_field()

    def spoiled(pts):
        smp = base.evaluator(pts)
        return smp._replace(phi=np.asarray(smp.phi, float) * 1.2,
                            dphi=np.asarray(smp.dphi, float) * 1.2)

    def act(v):
        return np.einsum("ij,j...->i...", rot, np.asarray(v, float))

    pts = np.hstack([_col(0.8, -0.5, 1.1, 0.6), _col(-1.2, 0.9, 0.0, 1.4)])
    for fld in (base, FlatModelField("spoiled", spoiled)):
        def rotated(pts, fld=fld):
            smp = fld.eval(pts)
            return type(smp)(act(smp.A), act(smp.dA), act(smp.phi), act(smp.dphi))

        rfld = FlatModelField("rotated", rotated)
        for a, b in zip(kw_residual_flat_combined(conv, fld, pts),
                        kw_residual_flat_combined(conv, rfld, pts)):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


def _constant_nonabelian_residual(conv):
    # A = t1 dx1 + t2 dx2, phi = 0: F_12 = [t1, t2] = t3 is the only
    # nonzero term, so eq1 = sqrt(|t3|^2) = sqrt(1/2) and eq2 = 0
    def constant(pts):
        n = pts.shape[1]
        A = np.zeros((3, 3, n), dtype=np.longdouble)
        A[0, 0] = A[1, 1] = 1
        zero = np.zeros((3, 3, 4, n), dtype=np.longdouble)
        return halfspace.FieldSample(A, zero, np.zeros_like(A), zero)

    return kw_residual_flat(conv, FlatModelField("constant", constant),
                            np.hstack([_col(0.3, 0.1, -2.0, 0.9),
                                       _col(1.0, 1.0, 1.0, 1.0)]))


def test_constant_nonabelian_connection_residual(conv):
    # the models' connections are abelian, so this is the one flat test of
    # [A, A]
    res = _constant_nonabelian_residual(conv)
    assert res[0].tolist() == [math.sqrt(0.5)] * 2
    assert res[1].tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# the models suite's residual gates are live
# ---------------------------------------------------------------------------

_FLAT_GATES = ("residual-nahm-pole", "residual-nahm-singular",
               "scale-invariance-flat")


def _models_gates():
    checks = suite_models(SuiteConfig(suite="models"))
    return {c.check_id: c.status for c in checks if c.check_id in _FLAT_GATES}


def _models_run(tmp_path, *flags):
    """`verify --suite models`: its exit code and its failing checks."""
    out = tmp_path / "models.json"
    code = main(["verify", "--suite", "models", "--out", str(out), *flags])
    checks = json.loads(out.read_text())["checks"]
    return code, {c["check_id"] for c in checks if c["status"] == "fail"}


def _block(name, fn):
    """fn as FieldAt's cached block `name`."""
    prop = cached_property(fn)
    prop.__set_name__(FieldAt, name)
    return prop


def _bracket_sum(m, rows=False):
    return sum(bracket(m.a[col] if rows else m.a[:, col],
                                 m.p[col] if rows else m.p[:, col])
               for col in range(3))


# engine faults: (FieldAt block, its faulty form)
_ENGINE_FAULTS = {
    "divergence-drops-bracket": ("div", lambda m: 0 * _bracket_sum(m)),
    "divergence-bracket-reads-rows":
        ("div", lambda m: _bracket_sum(m, rows=True)),
    "t-dphi-transposed-bracket":
        ("t_dphi", lambda m: m.d_p + np.swapaxes(m.ap, 0, 1)),
}


@pytest.mark.parametrize("fault", ["star-sign-flipped"] + list(_ENGINE_FAULTS))
def test_flat_residual_gates_are_live(monkeypatch, tmp_path, fault):
    assert set(_models_gates().values()) == {"pass"}
    if fault == "star-sign-flipped":
        code, failed = _models_run(tmp_path, "--flip-star-sign")
        assert failed & set(_FLAT_GATES) == {"residual-nahm-pole",
                                             "residual-nahm-singular"}
    else:
        # every field the report evaluates on S^3 x R+ is scalar, so only
        # the knot-singular model sees these
        name, fn = _ENGINE_FAULTS[fault]
        monkeypatch.setattr(FieldAt, name, _block(name, fn))
        code, failed = _models_run(tmp_path)
        assert failed == {"residual-nahm-singular"}
    assert code == 1


def test_curvature_bracket_fault_fails_only_calibrate(monkeypatch, tmp_path,
                                                      conv):
    # both models have A along t3 only, so [a ^ a] = 0 on them and dropping
    # it from F changes no flat gate; calibrate raises, which fails the
    # models suite, and the constant non-abelian test above sees it
    monkeypatch.setattr(FieldAt, "aa", _block("aa", lambda m: 0))
    with pytest.raises(RuntimeError, match="single out one convention"):
        calibrate()
    assert _models_run(tmp_path) == (1, {"suite-models"})
    pts, kept = sample_points(random.Random(42), 1000, r_min=0.1)
    assert np.max(kw_residual_flat_combined(conv, nahm_pole_field(),
                                            pts)) < 1e-12
    assert np.max(kw_residual_flat_combined(conv, nahm_singular_field(),
                                            pts[:, kept])) < 1e-10
    assert _constant_nonabelian_residual(conv)[0].tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# point CSV
# ---------------------------------------------------------------------------

def test_points_csv_roundtrip(conv, tmp_path):
    pts = np.hstack([_col(0.1, 0.2, 0.3, 0.4), _col(-1, 2, -3, 1.5)])
    out = tmp_path / "residuals.csv"
    write_residuals_csv(str(out), conv, nahm_pole_field(), pts)
    text = out.read_text().splitlines()
    assert text[0] == "x1,x2,x3,y,res_eq1,res_eq2"
    assert len(text) == 3
    assert text[2].startswith("-1.0,2.0,-3.0,1.5,")

    pts_file = tmp_path / "points.csv"
    pts_file.write_text("x1,x2,x3,y\n0.1,0.2,0.3,0.4\n-1,2,-3,1.5\n")
    back = read_points_csv(str(pts_file))
    assert back.shape == (4, 2) and np.array_equal(back, pts)


@pytest.mark.parametrize("row", ["0,0,0,nan", "inf,0,0,1", "0,0,0,inf",
                                 "0,0,0,0", "0,0,0,-1", "0,-inf,0,1",
                                 "0,0,nan,1"])
def test_points_csv_rejects_bad_rows(tmp_path, row):
    pts_file = tmp_path / "points.csv"
    pts_file.write_text(f"x1,x2,x3,y\n0.1,0.2,0.3,0.4\n{row}\n")
    with pytest.raises(ValueError, match=":3: point coordinates must be finite"):
        read_points_csv(str(pts_file))
