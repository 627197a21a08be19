"""Command-line front end: named verification suites and report emission.

Commands
    verify    run a named suite (algebra / models / decomposition / energy /
              solver / all), emit a JSON check report, exit 0 only if every
              gating check passes
    energy    energy report for the reference solution (constants, bound)
    solve     run the shooting solver, write the recovered profile CSV and a
              JSON log with the parameter trace
    residual  pointwise flat-model residuals over sampled or supplied points
    plotdata  CSV series for desk plots (profiles, integrand densities,
              cutoff sweep)

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 I/O error.  Reports
are deterministic for a fixed configuration (seed included) and written
atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from . import decomp, energy, halfspace, reduced, report, su2
from .config import SUITES, SuiteConfig, build_config, load_config
from .forms import calibrate, kw_residual_norm, ricci_check, taubes_lhs
from .profiles import (
    higgs_scale_check,
    nahm_pole_invariant_solution,
    nahm_pole_invariant_solution_alt,
    pole_scalars,
    scaled_matrix_profile,
)
from .quadrature import QuadratureSpec, exp_nodes
from .report import make_check, write_checks_json, write_csv, write_energy_json

_I3 = np.eye(3)


def _active_conventions(cfg: SuiteConfig):
    conv = calibrate()
    return conv.flipped() if cfg.flip_star_sign else conv


def _guard(checks: list, check_id: str, fn):
    """Run one check producer; an exception fails that check and the suite
    moves on.  The report keeps the message; the exception type and the
    line that raised go to stderr."""
    try:
        out = fn()
    except Exception as e:
        import traceback  # only on failure: it adds to every run's memory

        checks.append(make_check(check_id, f"check raised: {e}", computed=None,
                                 ok=False))
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(f"{check_id}: {type(e).__name__} raised at "
              f"{where.filename}:{where.lineno}: {e}", file=sys.stderr)
        return
    if isinstance(out, list):
        checks.extend(out)
    elif out is not None:
        checks.append(out)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(cfg: SuiteConfig) -> list:
    checks = []
    t1, t2, t3 = su2.T1, su2.T2, su2.T3
    br = su2.bracket(t1, t2)
    checks.append(make_check(
        "su2-bracket", "[t1, t2] = t3 and antisymmetry",
        computed=float(su2.norm_sq(br - t3) + su2.norm_sq(su2.bracket(t1, t1))),
        expected=0.0, tolerance=0.0, provenance="reference"))
    checks.append(make_check(
        "su2-inner", "<t1,t1> = 1/2, <t1,t2> = 0, |omega|^2 = 3/2",
        computed=float(su2.inner(t1, t1)) - 0.5
        + abs(float(su2.inner(t1, t2)))
        + abs(sum(float(su2.inner(t, t)) for t in (t1, t2, t3)) - 1.5),
        expected=0.0, tolerance=0.0, provenance="reference"))
    # 100 seeded samples, drawn one at a time (axis, angle, u, v) and rotated
    # as (3, 100) stacks
    rng = random.Random(cfg.seed)
    samples = np.array([[rng.gauss(0.0, 1.0) for _ in range(3)]
                        + [rng.uniform(0.0, 2 * math.pi)]
                        + [rng.gauss(0.0, 1.0) for _ in range(6)]
                        for _ in range(100)]).T
    axis, angle, u, v = samples[:3], samples[3], samples[4:7], samples[7:]
    ru, rv = (su2.ad_rotate(axis, angle, w) for w in (u, v))
    worst = max(np.max(np.abs(su2.norm(ru) - su2.norm(u))), np.max(su2.norm(
        su2.ad_rotate(axis, angle, su2.bracket(u, v)) - su2.bracket(ru, rv))))
    checks.append(make_check(
        "su2-rotation", "adjoint rotations preserve norm and bracket "
        "(100 seeded samples)",
        computed=float(worst), expected=0.0,
        tolerance=1e-13, provenance="trivial"))
    # 50 integer samples (u, v, w) as (3, 50) stacks, drawn one sample at a
    # time, u, v, w in turn.  2 |s|^2 and 2 <., .> are integer sums, so the
    # halves are exact floats
    rng = random.Random(cfg.seed + 1)
    u, v, w = np.array([rng.randrange(-9, 10) for _ in range(450)]).reshape(
        50, 3, 3).transpose(1, 2, 0)
    s = (su2.bracket(u, su2.bracket(v, w)) + su2.bracket(v, su2.bracket(w, u))
         + su2.bracket(w, su2.bracket(u, v)))
    ad = su2.inner(su2.bracket(w, u), v) + su2.inner(u, su2.bracket(w, v))
    jac_worst = max(su2.norm_sq(s).max(), abs(ad).max())
    checks.append(make_check(
        "su2-jacobi", "Jacobi identity and ad-invariance, exact on 50 "
        "integer samples",
        computed=float(jac_worst), expected=0.0, tolerance=0.0,
        provenance="trivial"))
    return checks


def suite_models(cfg: SuiteConfig) -> list:
    checks = []
    conv = _active_conventions(cfg)
    model = nahm_pole_invariant_solution()
    grid = np.geomspace(1e-3, 30.0, 300)
    worst = float(np.max(kw_residual_norm(conv, model, grid)))
    checks.append(make_check(
        "calibrate", "unique calibrated convention annihilates the "
        "reference solution residual",
        computed=worst, expected=0.0,
        tolerance=1e-10, provenance="reference",
        extra={"conventions": (conv.c, conv.s1, conv.s2)}))
    checks.append(ricci_check(conv))
    worst_alt = float(np.max(
        kw_residual_norm(conv, nahm_pole_invariant_solution_alt(), grid)))
    checks.append(make_check(
        "residual-invariant-model-alt",
        "companion solution solves the same system",
        computed=worst_alt, expected=0.0,
        tolerance=1e-10, provenance="reference"))

    rng = random.Random(cfg.seed)
    pole, sing = halfspace.nahm_pole_field(), halfspace.nahm_singular_field()
    # the pole model at every drawn point, the singular one where r >= 0.1
    pts, kept = halfspace.sample_points(rng, 1000, r_min=0.1)
    worst_np = float(np.max(
        halfspace.kw_residual_flat_combined(conv, pole, pts)))
    worst_s = float(np.max(
        halfspace.kw_residual_flat_combined(conv, sing, pts[:, kept])))
    checks.append(make_check(
        "residual-nahm-pole",
        f"pole model solves pointwise at {pts.shape[1]} seeded points",
        computed=worst_np, expected=0.0,
        tolerance=1e-12, provenance="reference"))
    checks.append(make_check(
        "residual-nahm-singular",
        "knot-singular model solves pointwise at 1000 seeded points, r >= 0.1",
        computed=worst_s, expected=0.0,
        tolerance=1e-10, provenance="reference"))

    # 20 points for each scale, drawn in turn
    pts, _ = halfspace.sample_points(rng, 60, width=2.0, y_range=(0.3, 2.0))
    worst_scale = 0.0
    for fld in (pole, sing):
        s0 = fld.eval(pts)
        for k, s in enumerate((0.5, 0.25, 2.0)):
            cols = slice(20 * k, 20 * k + 20)
            s1 = halfspace.scale_pullback(fld, s).eval(pts[:, cols])
            for v0, v1 in ((s0.phi, s1.phi), (s0.A, s1.A)):
                worst_scale = max(worst_scale, float(np.max(np.abs(
                    np.asarray(v0[..., cols] - v1, dtype=float)))))
    checks.append(make_check(
        "scale-invariance-flat",
        "both flat models are fixed by the dilation pullback",
        computed=worst_scale, expected=0.0,
        tolerance=1e-14, provenance="trivial"))

    sc = higgs_scale_check()
    checks.append(make_check(
        "profile-scaling-rate",
        "s b(sy) -> 1/y at quadratic rate (log-log slope 2)",
        computed=sc["slope"], expected=2.0,
        tolerance=0.1, provenance="derived", extra=sc))

    # pointwise maximum-principle combination on closed-form phi_y with
    # A = phi = 0: y t3 at y = 1.3 gives 0, y^2 t3 at y = 1.1 gives -y^2
    t3, zero = np.array([0.0, 0.0, 1.0]), np.zeros((3, 3))
    y = 1.1
    worst_t = max(
        abs(taubes_lhs(zero, zero, 1.3 * t3, t3, 0 * t3)),
        abs(taubes_lhs(zero, zero, (y * y) * t3, (y + y) * t3, 2 * t3) + y ** 2))
    checks.append(make_check(
        "taubes-combination",
        "pointwise normal-component identity on closed-form data",
        computed=worst_t, expected=0.0,
        tolerance=1e-12, provenance="derived"))
    return checks


def suite_decomposition(cfg: SuiteConfig) -> list:
    checks = []
    checks.extend(decomp.omega_bracket_eigencheck())
    checks.extend(decomp.appendix_star_table())
    checks.extend(decomp.basis_identities())
    checks.append(decomp.decomposition_suite(cfg.seed, cfg.n))
    return checks


def _shared(build):
    """Build a value that several checks read; returns its getter, which
    re-raises in each reader whatever the build raised."""
    try:
        value = build()
    except Exception as e:
        error = e

        def fail():
            raise error
        return fail
    return lambda: value


def suite_energy(cfg: SuiteConfig) -> list:
    conv = _active_conventions(cfg)
    spec = QuadratureSpec()
    model = nahm_pole_invariant_solution()
    checks = []
    # the reference solution's passes and the values built from them, once
    # per run; a failed build (a pass refuses a non-solution) fails, through
    # _guard, only its readers
    full_line = _shared(lambda: energy.full_line_norms(conv, model, spec))
    inputs = {
        "full_line": full_line,
        "at_eps": _shared(lambda: energy.field_norms(
            conv, model, spec, energy.CUTOFF_ROWS)),
        "sweep": _shared(lambda: energy.cutoff_sweep(conv, full_line(), spec)),
        "consts": _shared(lambda: energy.bound_constants(conv, full_line())),
    }

    for ident, reads in energy.IDENTITY_INPUTS.items():
        _guard(checks, f"energy-{ident}", lambda ident=ident, reads=reads: (
            energy.check_energy_identity(
                conv, ident, **{k: inputs[k]() for k in reads})))

    def stability():
        val, err, parts = energy.c_model(full_line())
        val2, _, _ = energy.c_model(energy.field_norms(
            conv, full_line(), spec.refined(), energy.C_MODEL_ROWS,
            from_zero=True))
        rel = abs(val - val2) / val
        return make_check(
            "c-model-stability",
            "model curvature constant, refined-quadrature agreement",
            computed=rel, expected=0.0,
            tolerance=1e-8, provenance="derived",
            extra={"value": val, "parts": parts, "quad_error": err})

    def envelope():
        env_ok = True
        envelope_k = 0.0
        fit = np.linspace(1.0, 5.0, 50)
        grid = np.linspace(1.0, spec.y_max, 200)
        for key in ("F_sq", "S_sq"):
            dens = energy.density_fn(conv, model, (key,))
            k_const = float(np.max(dens(fit) * exp_nodes(4.0 * fit))) * 1.5
            envelope_k = max(envelope_k, k_const)
            if np.any(dens(grid) > k_const * exp_nodes(-4.0 * grid)):
                env_ok = False
        return make_check(
            "c-model-envelope",
            "model energy densities under the exponential envelope for y >= 1",
            computed=envelope_k, ok=env_ok, provenance="derived")

    def charges():
        from .profiles import pole_a, pole_a_alt

        q_val, q_err = energy.topological_charge(
            conv, scaled_matrix_profile(pole_a, _I3), spec)
        a0, a1 = (float(pole_scalars(y)[0]) for y in (1e-8, spec.y_max))
        oracle = -1.5 * ((a1**3 / 3 - a1**2) - (a0**3 / 3 - a0**2))
        out = [make_check(
            "charge-model", "topological charge against the antiderivative oracle",
            computed=q_val, expected=oracle,
            tolerance=1e-8, provenance="derived",
            extra={"quad_error": q_err})]
        q_alt, _ = energy.topological_charge(
            conv, scaled_matrix_profile(pole_a_alt, _I3), spec)
        out.append(make_check(
            "charge-model-alt", "companion charge is the opposite of the model's",
            computed=q_alt, expected=-q_val,
            tolerance=1e-8, provenance="derived"))
        return out

    def chains():
        rng = random.Random(cfg.seed)
        worst_min_slack = None
        n_fail = 0
        for start in range(0, cfg.n_pert, energy.BLOCK):
            block = energy.random_perturbations(
                rng, min(energy.BLOCK, cfg.n_pert - start))
            for rep in energy.perturbation_chain(conv, *block, spec,
                                                   inputs["consts"]()):
                if rep.status != "pass":
                    n_fail += 1
                if worst_min_slack is None or rep.computed < worst_min_slack:
                    worst_min_slack = rep.computed
        return make_check(
            "perturbation-chain",
            f"weighted-bound chain on {cfg.n_pert} seeded perturbations",
            computed=worst_min_slack, ok=n_fail == 0, provenance="derived",
            extra={"n_pert": cfg.n_pert, "failures": n_fail})

    def bound():
        tb = energy.theorem_bound_report(full_line(), inputs["consts"]())
        f_sq = tb.get("curvature_l2_sq").value
        slack = tb.get("bound_slack").value
        other = (tb.get("tangential_gradient_l2_sq").value
                 + tb.get("completed_square_l2_sq").value)
        c_limit = tb.get("c_limit").value
        gap, tol = abs((c_limit - f_sq) - other), 1e-6
        return make_check(
            "theorem-bound",
            "curvature energy below the assembled constant, slack equal to "
            "the other route terms",
            computed=gap, tolerance=tol, ok=slack > 0 and gap <= tol,
            provenance="derived",
            extra={"f_sq": f_sq, "c_limit": c_limit,
                   "slack_vs_limit": c_limit - f_sq})

    _guard(checks, "c-model-stability", stability)
    _guard(checks, "c-model-envelope", envelope)
    _guard(checks, "charge-model", charges)
    _guard(checks, "perturbation-chain", chains)
    _guard(checks, "theorem-bound", bound)
    return checks


def _closed_form_gap(res, ys, shift: float = 0.0) -> float:
    """Largest deviation of an initial-value run from the closed form,
    translated by ``shift``, over the nodes ys."""
    a, b = res.at(ys)
    ae, be, _, _ = pole_scalars(ys + shift)
    return float(max(np.max(np.abs(a - ae)), np.max(np.abs(b - be))))


def _shot_counts(shot) -> dict:
    """Runs and outcome of a shot, for the check extra and the solve log."""
    return {"classifications": len(shot.trace),
            "coarse_passes": shot.coarse_passes,
            "falsi_runs": shot.falsi_runs,
            "abs_u_final": abs(shot.u_final)}


def suite_solver(cfg: SuiteConfig) -> list:
    conv = _active_conventions(cfg)
    checks = []
    sysr = reduced.derive_reduced_system(conv)
    coeff_now = tuple(float(c) for c in sysr.coeffs_a + sysr.coeffs_b)
    coeff_ref = tuple(float(c) for row in reduced.LOCKED_COEFFS for c in row)
    checks.append(make_check(
        "solver-closure", "machine-derived system matches the locked "
        "quadratic coefficients",
        computed=max(abs(x - y) for x, y in zip(coeff_now, coeff_ref)),
        expected=0.0, tolerance=0.0, provenance="derived",
        extra={"coeffs": coeff_now}))
    checks.append(make_check(
        "solver-stationary", "(0,0) and (2,0) are stationary",
        computed=0.0, ok=sysr.is_stationary(0, 0) and sysr.is_stationary(2, 0),
        provenance="trivial"))
    eig = float(np.min(np.linalg.eigvals(sysr.jacobian(0.0, 0.0)).real))
    checks.append(make_check(
        "solver-jacobian", "contracting eigenvalue at the origin",
        computed=eig, expected=-2.0,
        tolerance=1e-8, provenance="derived"))

    grid = np.geomspace(1e-3, 30.0, 300)
    worst = float(np.max(sysr.rhs_residual(*pole_scalars(grid, np.longdouble))))
    checks.append(make_check(
        "solver-closed-form-residual",
        "closed-form solution satisfies the derived system",
        computed=worst, expected=0.0,
        tolerance=1e-10, provenance="derived"))

    def tracks(check_id, what, y_data, shift, y1, nodes, tol):
        # a run from y = 0.1 on the closed form's state at y_data, against
        # the closed form translated by shift
        a, b, _, _ = pole_scalars(y_data, np.longdouble)
        res = reduced.integrate_ivp(sysr, 0.1, (a, b), y1)
        return make_check(
            check_id, what, computed=_closed_form_gap(
                res, np.linspace(0.1, y1, nodes), shift),
            expected=0.0, tolerance=tol, provenance="derived")

    _guard(checks, "solver-ivp-match", lambda: tracks(
        "solver-ivp-match", "initial-value run tracks the closed form",
        0.1, 0.0, 10.0, 500, 1e-6))

    series = reduced.indicial_expand(sysr, reduced.SHOOT_ORDER)
    exp = series.at(Fraction(-2, 3))
    ref_b = {-1: Fraction(1), 0: Fraction(0), 1: Fraction(-1, 3),
             2: Fraction(0), 3: Fraction(-1, 45)}
    bad = sum(1 for k, v in ref_b.items() if exp.b_coeffs.get(k) != v)
    checks.append(make_check(
        "solver-indicial", "pole series coefficients (exact rationals)",
        computed=float(bad), expected=0.0, tolerance=0.0, provenance="derived",
        extra={"b": {str(k): str(v) for k, v in sorted(exp.b_coeffs.items())},
               "a": {str(k): str(v) for k, v in sorted(exp.a_coeffs.items())}}))

    def shooting():
        # the located trajectory and the two checks read from it
        y0, out = 0.1, []
        shot = reduced.shoot_for_decay(sysr, series, y0=y0)
        out.append(make_check(
            "solver-shooting", "shooting recovers the closed form",
            computed=_closed_form_gap(shot.result,
                                      np.linspace(y0, 8.0, 400)),
            expected=0.0,
            tolerance=1e-4, provenance="derived",
            extra={"param": shot.param, **_shot_counts(shot)}))
        # The order-6 series neglects a_8 y^8 (a_7 = 0).  Near the pole the
        # free coefficient scales the growing mode y^2 of a (a perturbation
        # of b decays like y^-2), so the neglected term moves the located
        # coefficient by about a_8 y0^6.
        a8 = reduced.indicial_expand(sysr, 8).at(Fraction(-2, 3)).a_coeffs[8]
        out.append(make_check(
            "solver-series-parameter",
            "located coefficient within 2 |a_8| y0^6 of a2 = -2/3: the first "
            "term a_8 y^8 that the order-6 series neglects, moved onto the "
            "free y^2 mode, with a factor 2 for higher orders",
            computed=shot.param, expected=-2.0 / 3.0,
            tolerance=2.0 * abs(float(a8)) * y0 ** 6,
            provenance="derived",
            extra={"order": series.order, "y0": y0, "a_neglected": str(a8)}))
        ys = np.linspace(5.0, 7.0, 40)
        env = float(np.max(np.abs(
            shot.result.at(ys)[1] * exp_nodes(2.0 * ys) - 6.0)))
        out.append(make_check(
            "solver-decay-envelope",
            "recovered Higgs scalar keeps the exponential envelope constant",
            computed=env, expected=0.0,
            tolerance=0.05, provenance="derived"))
        return out

    _guard(checks, "solver-shooting", shooting)

    # autonomy: integrating translated data gives the translated trajectory
    _guard(checks, "solver-flow-translate", lambda: tracks(
        "solver-flow-translate", "autonomous flow property",
        0.4, 0.3, 6.0, 200, 1e-8))
    return checks


_SUITE_FN = {
    "algebra": suite_algebra,
    "models": suite_models,
    "decomposition": suite_decomposition,
    "energy": suite_energy,
    "solver": suite_solver,
}


def run_suite(cfg: SuiteConfig):
    """Execute the configured suite; returns (checks, exit_code).  A crash
    inside a suite is converted into a failed check so the rest still runs."""
    names = list(_SUITE_FN) if cfg.suite == "all" else [cfg.suite]
    checks = []
    for name in names:
        _guard(checks, f"suite-{name}", lambda name=name: _SUITE_FN[name](cfg))
    failed = [c for c in checks if c.gates and not c.passed]
    return checks, (1 if failed else 0)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def emit_plotdata(target: str, cfg: SuiteConfig, out_dir: str):
    conv = _active_conventions(cfg)
    spec = QuadratureSpec()
    model = nahm_pole_invariant_solution()
    os.makedirs(out_dir, exist_ok=True)
    if target == "profiles":
        ys = np.geomspace(1e-3, 12.0, 400)
        a, b, _, _ = pole_scalars(ys)
        rows = [[repr(float(x)) for x in row] for row in zip(ys, a, b)]
        write_csv(os.path.join(out_dir, "profiles.csv"), ["y", "a", "b"], rows)
        return ["profiles.csv"]
    if target == "integrands":
        keys = ("F_sq", "nabla_bar_sq", "S_sq", "phi_sq")
        ys = np.geomspace(1e-3, 12.0, 400)
        d = energy.densities(conv, model, ys, keys)
        rows = [[repr(float(x)) for x in row]
                for row in zip(ys, *(d[k] for k in keys))]
        write_csv(os.path.join(out_dir, "integrands.csv"), ["y", *keys], rows)
        return ["integrands.csv"]
    if target == "eps-sweep":
        rows = []
        for eps in np.geomspace(1e-4, 1e-1, 16):
            bulk, mixed, combo, _ = energy.cutoff_combination(
                conv, model, float(eps), spec)
            rows.append([repr(float(eps)), repr(float(bulk)),
                         repr(float(mixed)), repr(float(combo))])
        write_csv(os.path.join(out_dir, "eps-sweep.csv"),
                  ["eps", "two_phi_bulk", "mixed_boundary", "combination"], rows)
        return ["eps-sweep.csv"]
    raise ValueError(f"unknown plotdata target {target!r}")


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

_SHARED_FLAGS = {
    "--config": {"help": "key = value configuration file"},
    "--seed": {"type": int, "default": None},
    "--out": {"default": None, "help": "output path"},
    "--json": {"action": "store_true", "default": None, "dest": "json_out",
               "help": "print the JSON report"},
}


def _add_shared(p: argparse.ArgumentParser, *flags):
    """The shared flags that the command reads, and no others."""
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kwlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    # no abbreviated flags: plotdata --out would otherwise act as --out-dir

    def command(name, **kwargs):
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    pv = command("verify", help="run a verification suite")
    pv.add_argument("--suite", default=None, choices=SUITES)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--n-pert", type=int, default=None, dest="n_pert")
    pv.add_argument("--flip-star-sign", action="store_true", default=None,
                    help="negative control: flip the Hodge orientation")
    _add_shared(pv, "--config", "--seed", "--out", "--json")

    pe = command("energy", help="energy report for the model solution")
    pe.add_argument("--model", default="he", choices=("he", "alt"))
    _add_shared(pe, "--config", "--out")

    ps = command("solve", help="shooting solver for the reduced system")
    ps.add_argument("--y0", type=float, default=0.1)
    ps.add_argument("--out-profile", default="profile.csv")
    ps.add_argument("--out-log", default="solve-log.json")
    _add_shared(ps, "--config")

    pr = command("residual", help="flat-model pointwise residuals")
    pr.add_argument("--model", default="nahm-pole",
                    choices=("nahm-pole", "nahm-singular"))
    pr.add_argument("--points", default=None,
                    help="CSV of sample points x1,x2,x3,y (default: seeded)")
    pr.add_argument("--n", type=int, default=None)
    _add_shared(pr, "--config", "--seed", "--out")

    pp = command("plotdata", help="CSV series for plots")
    pp.add_argument("--target", required=True,
                    choices=("profiles", "integrands", "eps-sweep"))
    pp.add_argument("--out-dir", default="plotdata")
    _add_shared(pp, "--config")
    return ap


def _config_from_args(args) -> SuiteConfig:
    file_values = load_config(args.config) if args.config else None
    # each command has only the flags it reads; an absent flag is None
    cli_values = {key: getattr(args, key) for key in (
        "suite", "seed", "out", "json_out", "n", "n_pert", "flip_star_sign")
        if hasattr(args, key)}
    return build_config(file_values, cli_values)


def _emit(checks, cfg: SuiteConfig, meta: dict):
    """Write the report to --out, and to stdout under --json or without
    --out, serializing it once."""
    text = (write_checks_json(cfg.out, checks, meta) if cfg.out
            else report.checks_to_json(checks, meta))
    if cfg.json_out or not cfg.out:
        sys.stdout.write(text)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2

    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            checks, code = run_suite(cfg)
            meta = {"suite": cfg.suite, "seed": cfg.seed, "n": cfg.n,
                    "n_pert": cfg.n_pert, "eps": QuadratureSpec().eps,
                    "flip_star_sign": cfg.flip_star_sign}
            _emit(checks, cfg, meta)
            for c in checks:
                print(f"[{c.status:4s}] {c.check_id}", file=sys.stderr)
            return code

        if args.command == "energy":
            conv = _active_conventions(cfg)
            spec = QuadratureSpec()
            model = nahm_pole_invariant_solution()
            field = model if args.model == "he" else nahm_pole_invariant_solution_alt()
            # the reference solution's from-zero pass serves the constants,
            # c_model and, for he, the bound report
            ref = energy.full_line_norms(conv, model, spec)
            own = ref if field is model else energy.full_line_norms(conv, field, spec)
            rep = energy.theorem_bound_report(own, energy.bound_constants(conv, ref))
            cm, cm_err, _ = energy.c_model(ref)
            rep.add("c_model", cm, cm_err, "model curvature constant")
            q, q_err = energy.topological_charge(conv, field.connection, spec)
            rep.add("topological_charge", q, q_err)
            path = cfg.out or "energy-report.json"
            write_energy_json(path, rep, {"model": args.model})
            sweep = energy.eps_sweep_rows(conv, own, (1e-1, 1e-2, 1e-3), spec)
            sweep_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                      "identity-sweep.csv")
            write_csv(sweep_path, ["eps", "lhs", "rhs", "gap"],
                      [[repr(float(x)) for x in row] for row in sweep])
            print(f"wrote {path}, {sweep_path}")
            return 0

        if args.command == "solve":
            conv = _active_conventions(cfg)
            sysr = reduced.derive_reduced_system(conv)
            shot = reduced.shoot_for_decay(
                sysr, reduced.indicial_expand(sysr, reduced.SHOOT_ORDER),
                y0=args.y0)
            ys = np.linspace(args.y0, 10.0, 500)
            a, b = shot.result.at(ys)
            write_csv(args.out_profile, ["y", "a", "b"],
                      [[repr(float(x)) for x in row] for row in zip(ys, a, b)])
            report.write_json(args.out_log, {
                "schema_version": report.SCHEMA_VERSION,
                "parameter": shot.param,
                **_shot_counts(shot),
                "trace": [{"param": p, "outcome": o, "sign": sign, "y": yy}
                          for p, o, sign, yy in shot.trace],
            })
            print(f"wrote {args.out_profile}, {args.out_log}")
            return 0

        if args.command == "residual":
            conv = _active_conventions(cfg)
            fld = (halfspace.nahm_pole_field() if args.model == "nahm-pole"
                   else halfspace.nahm_singular_field())
            if args.points:
                pts = halfspace.read_points_csv(args.points)
            else:
                r_min = 0.0 if args.model == "nahm-pole" else 0.1
                pts, kept = halfspace.sample_points(
                    random.Random(cfg.seed), args.n or 100, r_min=r_min)
                pts = pts[:, kept]
            out = cfg.out or "residuals.csv"
            halfspace.write_residuals_csv(out, conv, fld, pts)
            print(f"wrote {out}")
            return 0

        if args.command == "plotdata":
            files = emit_plotdata(args.target, cfg, args.out_dir)
            print("wrote " + ", ".join(files))
            return 0

        raise AssertionError("unreachable")
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
