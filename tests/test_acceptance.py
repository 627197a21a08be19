"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line in the terminal summary (see conftest).
The full committed configuration (configs/acceptance.cfg) drives criterion
12 and supplies the heavyweight suite run reused by several others.
"""

import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_acceptance
from kwlab import decomp, energy, halfspace, reduced
from kwlab.cli import run_suite
from kwlab.config import build_config, load_config
from kwlab.forms import calibrate, kw_residual_norm
from kwlab.profiles import (
    higgs_scale_check,
    nahm_pole_invariant_solution,
    pole_a,
    pole_a_alt,
    scaled_matrix_profile,
)
from kwlab.report import checks_to_json

CFG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "acceptance.cfg")

I3 = np.eye(3)


def _check(name, ok, detail=""):
    record_acceptance(name, bool(ok), detail)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acceptance_cfg():
    return build_config(load_config(CFG_PATH), {})


@pytest.fixture(scope="module")
def full_run(acceptance_cfg):
    t0 = time.time()
    checks1, code1 = run_suite(acceptance_cfg)
    elapsed = time.time() - t0
    meta = {"suite": acceptance_cfg.suite, "seed": acceptance_cfg.seed}
    blob1 = checks_to_json(checks1, meta)
    checks2, code2 = run_suite(acceptance_cfg)
    blob2 = checks_to_json(checks2, meta)
    by_id = {}
    for c in checks1:
        by_id.setdefault(c.check_id, c)
    return {"checks": checks1, "by_id": by_id, "code": (code1, code2),
            "blobs": (blob1, blob2), "elapsed": elapsed}


def test_criterion_01_model_residuals(conv):
    t0 = time.time()
    rng = random.Random(1)
    flat = halfspace.nahm_pole_field()
    sing = halfspace.nahm_singular_field()
    pts, _ = halfspace.sample_points(rng, 1000)
    worst_pole = float(np.max(
        halfspace.kw_residual_flat_combined(conv, flat, pts)))
    pts, kept = halfspace.sample_points(rng, 1000, y_range=(0.2, 3.0), r_min=0.1)
    worst_sing = float(np.max(halfspace.kw_residual_flat_combined(
        conv, sing, pts[:, kept])))
    model = nahm_pole_invariant_solution()
    worst_inv = np.max(kw_residual_norm(conv, model, np.geomspace(1e-3, 30.0, 300)))
    elapsed = time.time() - t0
    ok = (worst_pole < 1e-12 and worst_sing < 1e-10 and worst_inv < 1e-10
          and elapsed < 10.0)
    _check("criterion-01 model residuals", ok,
           f"pole {worst_pole:.2e}, singular {worst_sing:.2e}, "
           f"invariant {worst_inv:.2e}, {elapsed:.1f}s")


def test_criterion_02_calibration_unique():
    conv = calibrate()  # raises unless exactly one convention passes
    _check("criterion-02 convention calibration", (conv.c, conv.s1, conv.s2)
           == (2, 1, 1), f"locked golden value {(conv.c, conv.s1, conv.s2)}")


def test_criterion_03_decomposition_suite():
    t0 = time.time()
    eig = decomp.omega_bracket_eigencheck()
    table = decomp.appendix_star_table()
    identities = decomp.basis_identities()
    suite = decomp.decomposition_suite(seed=42, n=10000)
    elapsed = time.time() - t0
    ok = (all(c.status == "pass" for c in eig)
          and all(c.passed for c in table)
          and len(identities) == 6
          and all(c.status == "pass" for c in identities)
          and suite.status == "pass"
          and Fraction(suite.extra["worst_slack_sq"]) >= 0
          and elapsed < 30.0)
    _check("criterion-03 decomposition suite", ok,
           "9 eigenvectors, star table, 6 basis identities, n=10000, "
           f"{elapsed:.1f}s")


def test_criterion_04_energy_balance(conv, quad_spec):
    model = nahm_pole_invariant_solution()
    rep = energy.check_energy_identity(
        conv, "bulk-boundary-balance", at_eps=energy.field_norms(
            conv, model, quad_spec.with_eps(0.05), energy.CUTOFF_ROWS))
    ok = rep.status == "pass" and rep.computed <= 1e-6 and (
        "quad_error" in rep.extra)
    _check("criterion-04 bulk/boundary balance at eps=0.05", ok,
           f"relative gap {rep.computed:.2e}, "
           f"error budget {rep.extra['quad_error']:.2e}")


def test_criterion_05_cutoff_limit(conv, full_line, sweep):
    rep = energy.check_energy_identity(conv, "cutoff-limit", sweep=sweep)
    combos = rep.extra["combos"]
    inc1 = abs(combos[1] - combos[0])
    inc2 = abs(combos[2] - combos[1])
    cauchy_linear = 0.05 <= inc2 / inc1 <= 0.2
    slopes_ok = all(abs(s + 1.0) <= 0.05 for s in rep.extra["summand_slopes"])
    route = energy.check_energy_identity(conv, "route-match",
                                         full_line=full_line, sweep=sweep)
    ok = rep.status == "pass" and cauchy_linear and slopes_ok and \
        route.computed <= 1e-6
    _check("criterion-05 divergence cancellation / constant routes", ok,
           f"increment ratio {inc2 / inc1:.3f}, slopes "
           f"{[round(s, 4) for s in rep.extra['summand_slopes']]}, "
           f"route gap {route.computed:.2e}")


def test_criterion_06_model_constant(conv, quad_spec, full_line):
    model = nahm_pole_invariant_solution()
    val, err, parts = energy.c_model(full_line)
    val2, _, _ = energy.c_model(energy.field_norms(
        conv, model, quad_spec.refined(), energy.C_MODEL_ROWS, from_zero=True))
    stable = abs(val - val2) / val <= 1e-8
    env_ok = True
    for key in ("F_sq", "S_sq"):
        dens = energy.density_fn(conv, model, (key,))
        k_const = max(dens(float(y)) * math.exp(4 * float(y))
                      for y in np.linspace(1.0, 5.0, 50)) * 1.5
        env_ok &= all(dens(float(y)) <= k_const * math.exp(-4 * float(y))
                      for y in np.linspace(1.0, 30.0, 200))
    _check("criterion-06 finite stable model constant", stable and env_ok,
           f"value {val:.9f}, refinement agreement "
           f"{abs(val - val2) / val:.2e}, envelope ok")


def test_criterion_07_bound_instance(conv, full_line, consts):
    rep = energy.theorem_bound_report(full_line, consts)
    f_sq = rep.get("curvature_l2_sq").value
    c_limit = rep.get("c_limit").value
    other = (rep.get("tangential_gradient_l2_sq").value
             + rep.get("completed_square_l2_sq").value)
    slack = c_limit - f_sq
    weighted = energy.check_energy_identity(conv, "weighted-bound",
                                            full_line=full_line, consts=consts)
    ok = (slack > 0 and abs(slack - other) <= 1e-6 * c_limit
          and weighted.status == "pass")
    _check("criterion-07 curvature-energy bound instance", ok,
           f"|F|^2 = {f_sq:.6f} <= {c_limit:.6f}, slack {slack:.6f} "
           f"(= other terms), weighted variant ok")


def test_criterion_08_perturbation_chain(full_run, acceptance_cfg):
    rep = full_run["by_id"]["perturbation-chain"]
    ok = (rep.status == "pass"
          and rep.extra["n_pert"] == acceptance_cfg.n_pert == 100
          and rep.extra["failures"] == 0)
    _check("criterion-08 inequality chain on 100 perturbations", ok,
           f"worst minimum slack {rep.computed:.3e}")


def test_criterion_09_solver(conv, full_run):
    by_id = full_run["by_id"]
    ivp = by_id["solver-ivp-match"]
    shootc = by_id["solver-shooting"]
    seriesc = by_id["solver-series-parameter"]
    jac = by_id["solver-jacobian"]
    sysr = reduced.derive_reduced_system(conv)
    exp = reduced.indicial_expand(sysr, 6).at(Fraction(-2, 3))
    series_exact = (exp.b_coeffs[-1] == 1 and exp.b_coeffs[1] == Fraction(-1, 3)
                    and exp.b_coeffs[0] == 0 and exp.b_coeffs[2] == 0)
    ok = (ivp.status == "pass" and ivp.computed <= 1e-6
          and shootc.status == "pass" and shootc.computed <= 1e-4
          and seriesc.status == "pass" and series_exact
          and abs(jac.computed + 2.0) <= 1e-8)
    _check("criterion-09 reduced solver", ok,
           f"ivp {ivp.computed:.2e}, shooting {shootc.computed:.2e}, "
           f"a2 {seriesc.computed:+.10f}, series exact, "
           f"jacobian {jac.computed:+.10f}")


def test_criterion_10_charge(conv, quad_spec):
    q, _ = energy.topological_charge(conv, scaled_matrix_profile(pole_a, I3),
                                     quad_spec)
    f = lambda a: a**3 / 3 - a**2
    want = -1.5 * (f(0.0) - f(1.0))
    q_alt, _ = energy.topological_charge(
        conv, scaled_matrix_profile(pole_a_alt, I3), quad_spec)
    want_alt = -1.5 * (f(2.0) - f(1.0))
    ok = abs(q - want) <= 1e-8 and abs(q_alt - want_alt) <= 1e-8 and \
        abs(q + q_alt) <= 1e-8
    _check("criterion-10 topological charge", ok,
           f"model {q:+.10f}, companion {q_alt:+.10f}")


def test_criterion_11_scaling_limits():
    sc = higgs_scale_check()
    slope_ok = abs(sc["slope"] - 2.0) <= 0.1
    rng = random.Random(2)
    exact = True
    for fld in (halfspace.nahm_pole_field(), halfspace.nahm_singular_field()):
        for s in (0.5, 0.25, 2.0):
            pulled = halfspace.scale_pullback(fld, s)
            pts, _ = halfspace.sample_points(rng, 25, width=2.0, y_range=(0.3, 2.0))
            s0, s1 = fld.eval(pts), pulled.eval(pts)
            exact &= np.array_equal(np.asarray(s0.phi, float),
                                    np.asarray(s1.phi, float))
            exact &= np.array_equal(np.asarray(s0.A, float),
                                    np.asarray(s1.A, float))
    _check("criterion-11 scaling limits", slope_ok and exact,
           f"profile slope {sc['slope']:.4f}, flat models exactly invariant")


def test_criterion_12_determinism_and_interfaces(full_run, acceptance_cfg):
    blob1, blob2 = full_run["blobs"]
    code1, code2 = full_run["code"]
    deterministic = blob1 == blob2
    passed = code1 == 0 and code2 == 0
    fast = full_run["elapsed"] < 300.0

    neg_cfg = build_config(load_config(CFG_PATH), {"suite": "models",
                                                   "flip_star_sign": True})
    neg_checks, neg_code = run_suite(neg_cfg)
    neg_by_id = {c.check_id: c for c in neg_checks}
    negative = neg_code == 1 and neg_by_id["calibrate"].status == "fail"
    _check("criterion-12 determinism and interfaces",
           deterministic and passed and fast and negative,
           f"byte-identical JSON, exit 0, {full_run['elapsed']:.0f}s < 300s, "
           f"negative control exits 1 on check 'calibrate'")


# The tolerance of every gating check of the acceptance report: a constant
# at its check, which a change of the check must change here as well.  The
# per-basis table rows (eigen-table-*, star-table-*) are exact and not listed.
GATE_TOLERANCES = {
    "su2-bracket": 0.0, "su2-inner": 0.0, "su2-rotation": 1e-13,
    "su2-jacobi": 0.0,
    "calibrate": 1e-10, "ricci": 0.0, "residual-invariant-model-alt": 1e-10,
    "residual-nahm-pole": 1e-12, "residual-nahm-singular": 1e-10,
    "scale-invariance-flat": 1e-14, "profile-scaling-rate": 0.1,
    "taubes-combination": 1e-12,
    "decomposition-completeness": 0.0, "decomposition-idempotence": 0.0,
    "decomposition-orthogonality": 0.0, "decomposition-self-adjoint": 0.0,
    "decomposition-eigen-relation": 0.0, "decomposition-lemma-gram": 0.0,
    "decomposition-suite": 0.0,
    "energy-first-order-balance": 1e-6, "energy-square-completion": 1e-6,
    "energy-bulk-boundary-balance": 1e-6, "energy-cutoff-limit": 0.0,
    "energy-route-match": 1e-6, "energy-weighted-bound": 0.0,
    "c-model-stability": 1e-8, "c-model-envelope": 0.0, "charge-model": 1e-8,
    "charge-model-alt": 1e-8, "perturbation-chain": 0.0, "theorem-bound": 1e-6,
    "solver-closure": 0.0, "solver-stationary": 0.0, "solver-jacobian": 1e-8,
    "solver-closed-form-residual": 1e-10, "solver-ivp-match": 1e-6,
    "solver-indicial": 0.0, "solver-shooting": 1e-4,
    # 2 |a_8| y0^6 with a_8 = -34/2835 and y0 = 0.1, computed at its check
    "solver-series-parameter": 2.3985890652557328e-08,
    "solver-decay-envelope": 0.05, "solver-flow-translate": 1e-8,
}
TABLE_ROWS = 46


def test_gate_tolerances_are_pinned(full_run):
    gating = {c.check_id: c.tolerance for c in full_run["checks"] if c.gates}
    rows = {cid: tol for cid, tol in gating.items()
            if cid.startswith(("eigen-table-", "star-table-"))}
    named = {cid: tol for cid, tol in gating.items() if cid not in rows}
    assert named == GATE_TOLERANCES
    assert len(rows) == TABLE_ROWS and set(rows.values()) == {0.0}
