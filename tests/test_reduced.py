"""Reduced ODE: derivation, pole series, integration, shooting."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from kwlab.energy import density_fn
from kwlab.forms import FieldAt, kw_residual
from kwlab.profiles import (
    InvariantField,
    nahm_pole_invariant_solution,
    pole_scalars,
    scaled_matrix_profile,
)
from kwlab.quadrature import QuadratureSpec, l2_norm_sq
from kwlab import reduced
from kwlab.reduced import (
    BlowUpError,
    IndicialExpansion,
    ReducedSystem,
    derive_reduced_system,
    indicial_expand,
    integrate_ivp,
    shoot_for_decay,
)

# a decaying parameter at y0 = 0.1, within 1e-13 of the one the shooting
# solver locates; its series state is the located one, the float64 state
# with the smallest |U| (mpmath-certified below)
ROOT = -0.6666666782308599


@pytest.fixture(scope="module")
def system(conv):
    return derive_reduced_system(conv)


@pytest.fixture(scope="module")
def series(system):
    return indicial_expand(system, reduced.SHOOT_ORDER)


@pytest.fixture(scope="module")
def shot(system, series):
    return shoot_for_decay(system, series, y0=0.1)


def test_machine_derived_coefficients(system):
    # locked quadratic structure over (1, a, b, a^2, ab, b^2)
    assert system.coeffs_a == (0, 0, -2, 0, 2, 0)
    assert system.coeffs_b == (0, -2, 0, 1, 0, -1)
    assert reduced.LOCKED_COEFFS == (system.coeffs_a, system.coeffs_b)


def test_scalar_ansatz_stays_in_span(conv):
    from kwlab.reduced import _scalar_residuals

    [(_, _, off)] = _scalar_residuals(conv, [0.5], [0.5], [0.0], [0.0])
    assert off < 1e-14


def _linear_profile_residual(conv, a, b, da, db):
    """The scalar ansatz as the reduction first read it: linear profiles
    a + da (y - 1), b + db (y - 1), whose slopes are the injected
    derivatives, evaluated by the engine at y = 1."""
    ansatz = InvariantField(
        scaled_matrix_profile(lambda jy: a + da * (jy - 1), np.eye(3)),
        scaled_matrix_profile(lambda jy: b + db * (jy - 1), np.eye(3)))
    res_t, res_n, res2 = kw_residual(FieldAt.of(conv, ansatz, 1.0))
    off = float(res2)
    for mm in (res_t, res_n):
        diag = np.diag(mm)
        off = max(off, float(np.max(np.abs(mm - np.diag(diag)))))
        off = max(off, float(np.max(np.abs(diag - diag[0]))))
    return float(res_t[0, 0]), float(res_n[0, 0]), off


def test_scalar_residual_matches_linear_profile_ansatz(conv):
    # all samples in one engine call, under the calibrated conventions and
    # two others, each against its own one-node evaluation through linear
    # profiles
    from kwlab.reduced import _scalar_residuals

    rng = np.random.default_rng(17)
    samples = rng.uniform(-3.0, 3.0, size=(20, 4))
    for c in (conv, conv._replace(c=1), conv.flipped()):
        got = _scalar_residuals(c, *samples.T)
        assert len(got) == len(samples)
        for sample, triple in zip(samples.tolist(), got):
            want = _linear_profile_residual(c, *sample)
            assert [x.hex() for x in triple] == [x.hex() for x in want]


def _faulty_residual(fault):
    """kw_residual with a fault added to the residual it returns."""
    def residual(m):
        return fault(m, *kw_residual(m))
    return residual


def _off_span(m, res_t, res_n, res2):
    res_t = res_t.copy()
    res_t[0, 1] += 1e-6 * m.a[0, 0]
    return res_t, res_n, res2


@pytest.mark.parametrize("fault, message", [
    (_off_span, "residual leaves the scalar span"),
    (lambda m, t, n, r: (t, n + m.n_f * m.n_f, r),
     "derivative terms not affine"),
    (lambda m, t, n, r: (t + m.a * m.a * m.a, n, r),
     "reconstruction mismatch"),
])
def test_derivation_refuses_closure_faults(conv, monkeypatch, fault,
                                           message):
    # a residual off the scalar span, one quadratic in the injected
    # derivative and one cubic in a, which the sample points fit as a
    # quadratic: each raises its own ValueError
    monkeypatch.setattr(reduced, "kw_residual", _faulty_residual(fault))
    with pytest.raises(ValueError, match=f"^calibration inconsistent: {message}$"):
        derive_reduced_system(conv)


def test_stationary_points(system):
    assert system.is_stationary(0.0, 0.0)
    assert system.is_stationary(2.0, 0.0)
    assert not system.is_stationary(1.0, 1.0)


def test_jacobian_saddle(system):
    eig = np.linalg.eigvals(system.jacobian(0.0, 0.0))
    assert abs(min(eig.real) + 2.0) <= 1e-12
    assert abs(max(eig.real) - 2.0) <= 1e-12
    # contracting direction is the diagonal one, matching e^{-2y} decay of
    # both scalars toward the trivial endpoint
    w, v = np.linalg.eigh(system.jacobian(0.0, 0.0))
    contracting = v[:, np.argmin(w)]
    assert abs(abs(contracting[0]) - abs(contracting[1])) < 1e-12


def test_closed_form_satisfies_system(system):
    worst = max(
        float(system.rhs_residual(*pole_scalars(float(y), np.longdouble)))
        for y in np.geomspace(1e-3, 30.0, 300)
    )
    assert worst <= 1e-10


def test_alternate_closed_form_satisfies_system(system):
    from kwlab.jets import Jet
    from kwlab.profiles import pole_a_alt, pole_b

    worst = 0.0
    for y in np.geomspace(1e-3, 30.0, 200):
        jy = Jet.var(np.longdouble(y))
        ja, jb = pole_a_alt(jy), pole_b(jy)
        worst = max(worst, float(system.rhs_residual(ja.f, jb.f, ja.d, jb.d)))
    assert worst <= 1e-10


def test_indicial_series_coefficients(system):
    exp = indicial_expand(system, 6).at(Fraction(-2, 3))
    assert exp.b_coeffs[-1] == 1
    assert exp.b_coeffs[0] == 0
    assert exp.b_coeffs[1] == Fraction(-1, 3)
    assert exp.b_coeffs[2] == 0
    assert exp.b_coeffs[3] == Fraction(-1, 45)
    assert exp.a_coeffs[0] == 1
    assert exp.a_coeffs[1] == 0
    assert exp.a_coeffs[2] == Fraction(-2, 3)
    # forced relations at higher order
    assert exp.a_coeffs[4] == -exp.a_coeffs[2] / 3


def test_indicial_series_against_closed_form(system):
    # numeric oracle: the closed form itself at small y
    exp = indicial_expand(system, 6).at(Fraction(-2, 3))
    for y in (1e-3, 3e-3, 1e-2):
        a_ser, b_ser = exp.state(y)
        a, b, _, _ = pole_scalars(y)
        # truncation plus float rounding of the 1/y pole evaluation
        assert abs(a_ser - a) < 20 * y**7 + 1e-13
        assert abs(b_ser - b) < 20 * y**6 + 1e-12


def test_indicial_order_eight_matches_closed_form(system):
    # Taylor coefficients of the closed form (mpmath, 40 digits): the first
    # terms the order-6 series neglects
    exp = indicial_expand(system, 8).at(Fraction(-2, 3))
    assert exp.a_coeffs[8] == Fraction(-34, 2835)
    assert exp.b_coeffs[7] == Fraction(-403, 14175)
    assert exp.a_coeffs[7] == exp.b_coeffs[8] == 0


# The trial-and-probe matcher the recurrence replaced: at each power it
# builds the truncated Laurent products with the unknown at 0 and at 1, and
# solves the linear equation their difference gives, for one fixed p.

def _series_mul(u: dict, v: dict, kmin: int, kmax: int) -> dict:
    out = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            k = ku + kv
            if kmin <= k <= kmax:
                out[k] = out.get(k, Fraction(0)) + cu * cv
    return out


def _series_eval_poly(coeffs, u: dict, v: dict, kmin: int, kmax: int) -> dict:
    """Quadratic polynomial of two Laurent series."""
    out = {0: coeffs[0]} if coeffs[0] != 0 else {}
    combos = (
        (coeffs[1], u, None),
        (coeffs[2], v, None),
        (coeffs[3], u, u),
        (coeffs[4], u, v),
        (coeffs[5], v, v),
    )
    for c, s1, s2 in combos:
        if c == 0:
            continue
        term = s1 if s2 is None else _series_mul(s1, s2, kmin, kmax)
        for k, x in term.items():
            if kmin <= k <= kmax:
                out[k] = out.get(k, Fraction(0)) + c * x
    return out


def _series_d(u: dict) -> dict:
    return {k - 1: Fraction(k) * c for k, c in u.items() if k != 0}


def _matched_expansion(sys: ReducedSystem, order: int,
                       free_param=Fraction(-2, 3)) -> IndicialExpansion:
    """Match the pole series order by order; raises on inconsistency.  The
    constant a0 is solved for, not chosen: any other value would feed a 1/y
    term into a', i.e. a logarithm."""
    if order > 8:
        raise ValueError("expansion order limited to 8")
    free_param = Fraction(free_param)
    a_c = {}
    b_c = {-1: Fraction(1)}

    # consistency at the pole: b' = f2 demands -1 = the b^2 coefficient of f2
    if sys.coeffs_b[5] != -1:
        raise ValueError("series matching inconsistent at order -2 (pole weight)")

    kmax = order
    for k in range(-1, order):
        # unknowns at this stage: a_{k+1} (from the a-equation at power k)
        # and b_{k+1} (from the b-equation at power k); equations are linear
        # in the unknown because the quadratic terms only involve lower ones.
        a_trial = dict(a_c)
        b_trial = dict(b_c)
        a_trial[k + 1] = Fraction(0)
        b_trial[k + 1] = Fraction(0)

        lhs_a = _series_d(a_trial)
        rhs_a = _series_eval_poly(sys.coeffs_a, a_trial, b_trial, -2, kmax)
        res_a = lhs_a.get(k, Fraction(0)) - rhs_a.get(k, Fraction(0))
        # coefficient of the unknown a_{k+1} in (lhs - rhs) at power k
        a_probe = dict(a_trial)
        a_probe[k + 1] = Fraction(1)
        lhs_p = _series_d(a_probe)
        rhs_p = _series_eval_poly(sys.coeffs_a, a_probe, b_trial, -2, kmax)
        coef_a = (lhs_p.get(k, Fraction(0)) - rhs_p.get(k, Fraction(0))) - res_a

        if coef_a == 0:
            if k + 1 == 2:
                a_c[2] = free_param
                if res_a != 0:
                    raise ValueError(f"series matching inconsistent at order {k}")
            elif res_a != 0:
                raise ValueError(f"series matching inconsistent at order {k}")
            else:
                a_c[k + 1] = Fraction(0)
        else:
            a_c[k + 1] = -res_a / coef_a

        b_trial = dict(b_c)
        b_trial[k + 1] = Fraction(0)
        lhs_b = _series_d(b_trial)
        rhs_b = _series_eval_poly(sys.coeffs_b, a_c, b_trial, -2, kmax)
        res_b = lhs_b.get(k, Fraction(0)) - rhs_b.get(k, Fraction(0))
        b_probe = dict(b_trial)
        b_probe[k + 1] = Fraction(1)
        lhs_p = _series_d(b_probe)
        rhs_p = _series_eval_poly(sys.coeffs_b, a_c, b_probe, -2, kmax)
        coef_b = (lhs_p.get(k, Fraction(0)) - rhs_p.get(k, Fraction(0))) - res_b
        if coef_b == 0:
            if res_b != 0:
                raise ValueError(f"series matching inconsistent at order {k}")
            b_c[k + 1] = Fraction(0)
        else:
            b_c[k + 1] = -res_b / coef_b

    return IndicialExpansion(order=order, a_coeffs=a_c, b_coeffs=b_c)


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return str(e)


def _perturbed_systems(system):
    """The locked system with one coefficient moved, 48 ways: some move the
    resonance off y^2 or onto another power, and a moved b^2 coefficient of
    b' breaks the pole weight."""
    out = []
    for i in range(12):
        for d in (Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(1)):
            coeffs = list(system.coeffs_a + system.coeffs_b)
            coeffs[i] += d
            out.append(dataclasses.replace(system, coeffs_a=tuple(coeffs[:6]),
                                           coeffs_b=tuple(coeffs[6:])))
    return out


@pytest.mark.parametrize("order", range(9))
def test_pole_series_matches_rational_matching(system, order):
    # the recurrence, built once with p open and evaluated at p, against the
    # matcher run at that p: the same Fractions in the same key order, or
    # the same error; the perturbed systems at orders 4, 6 and 8
    systems = [system] + (_perturbed_systems(system) if order in (4, 6, 8)
                          else [])
    errors = set()
    for sysr in systems:
        series = _outcome(lambda: indicial_expand(sysr, order))
        for p in (Fraction(-2, 3), Fraction(2), Fraction(5, 7), Fraction(-1),
                  Fraction(0), Fraction(-3), Fraction(10**9 + 1, 3),
                  Fraction(-0.6666666782307249)):
            want = _outcome(lambda: _matched_expansion(sysr, order, p))
            if isinstance(want, str):
                assert series == want
                errors.add(want)
                continue
            got = series.at(p)
            assert got == want
            assert list(got.a_coeffs) == list(want.a_coeffs)
            assert list(got.b_coeffs) == list(want.b_coeffs)
            assert all(type(c) is Fraction for c in
                       (*got.a_coeffs.values(), *got.b_coeffs.values()))
            assert got.state(0.1) == want.state(0.1)
    if order in (4, 6, 8):
        # a moved b^2 coefficient of b', or a nonzero rest at the resonance
        assert errors == {"series matching inconsistent at order -2 (pole weight)",
                          "series matching inconsistent at order 1"}


def test_indicial_zero_parameter_is_cotangent(system):
    # a == 1 collapses the system to b' = -1 - b^2, i.e. b = cot y
    exp = indicial_expand(system, 6).at(Fraction(0))
    assert exp.b_coeffs[1] == Fraction(-1, 3)
    assert exp.b_coeffs[3] == Fraction(-1, 45)
    assert exp.b_coeffs[5] == Fraction(-2, 945)
    for y in (0.05, 0.1):
        _, b_ser = exp.state(y)
        assert math.isclose(b_ser, 1.0 / math.tan(y), rel_tol=1e-8)


def test_indicial_rejects_wrong_constant(system):
    # the constant of a is solved for, never free: any a0 other than 1 would
    # feed a 1/y term into a' (a logarithm), whatever the free coefficient
    series = indicial_expand(system, 4)
    for p in (Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(-3)):
        assert series.at(p).a_coeffs[0] == 1
    with pytest.raises(ValueError, match="order limited"):
        indicial_expand(system, 9)


def test_ivp_tracks_closed_form(system):
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    res = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    sup = 0.0
    for y in np.linspace(0.1, 10.0, 500):
        a, b = res.at(float(y))
        ae, be, _, _ = pole_scalars(float(y))
        sup = max(sup, abs(a - ae), abs(b - be))
    assert sup <= 1e-6


def _power_sum_reference(res, y):
    """The step polynomial at one node, on its own: the last step that
    starts at or below y (the first step below the knots)."""
    y = np.longdouble(y)
    i = 0
    while i + 1 < len(res.coeffs) and res.knots[i + 1] <= y:
        i += 1
    return tuple(map(float, _power_sum_reference_lanes(res.coeffs[i],
                                                       y - res.knots[i])))


def _knot_states(res):
    """Shape (n, 2), the float states at the knots of a run."""
    return np.vstack([res.coeffs[:, :, 0], res.end]).astype(float)


def test_dense_output_on_arrays_matches_scalar_calls(system):
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    res = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    # off the range, inside it, and exactly on the knots
    ys = np.concatenate([np.linspace(0.0, 12.0, 997), res.ys])
    a, b = res.at(ys)
    assert a.shape == b.shape == ys.shape
    for y, ai, bi in zip(ys, a, b):
        sa, sb = res.at(float(y))
        assert type(sa) is float and (sa, sb) == (ai, bi)
        assert (sa, sb) == _power_sum_reference(res, float(y))


def test_ivp_stationary_start(system):
    res = integrate_ivp(system, 0.5, (2.0, 0.0), 6.0)
    assert np.max(np.abs(_knot_states(res) - np.array([2.0, 0.0]))) == 0.0


def test_ivp_step_doubling_consistency(system, monkeypatch):
    # order N against order N + 4: different steps, the same trajectory
    res1 = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0)
    monkeypatch.setattr(reduced, "TAYLOR_ORDER", reduced.TAYLOR_ORDER + 4)
    res2 = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0)
    assert res2.coeffs.shape[-1] == res1.coeffs.shape[-1] + 4
    assert len(res2.knots) < len(res1.knots)
    sup = max(
        max(abs(x - y) for x, y in zip(res1.at(float(t)), res2.at(float(t))))
        for t in np.linspace(1.0, 3.0, 100)
    )
    assert sup <= 1e-15


def test_ivp_argument_validation(system):
    with pytest.raises(ValueError, match="positive"):
        integrate_ivp(system, -1.0, (1.0, 1.0), 2.0)
    # nothing to integrate: no step, so no dense output
    for y1 in (1.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="increasing"):
            integrate_ivp(system, 1.0, (1.5, 0.5), y1)


def test_blowup_detected_with_location(system):
    exp = indicial_expand(system, 5).at(Fraction(-2, 3) + Fraction(1, 100))
    with pytest.raises(BlowUpError) as exc:
        integrate_ivp(system, 0.1, exp.state(0.1), 30.0)
    assert exc.value.y_blow < 10.0


def test_shooting_recovers_model(shot):
    sup = 0.0
    for y in np.linspace(0.1, 8.0, 400):
        a, b = shot.result.at(float(y))
        ae, be, _, _ = pole_scalars(float(y))
        sup = max(sup, abs(a - ae), abs(b - be))
    assert sup <= 1e-4
    assert abs(shot.param + 2.0 / 3.0) < 1e-4
    # recovered Higgs scalar keeps the decay envelope constant
    for y in (5.0, 6.0, 7.0):
        _, b = shot.result.at(y)
        assert abs(b * math.exp(2 * y) - 6.0) <= 0.05


def test_shooting_rejects_bad_bracket(system, series):
    with pytest.raises(ValueError, match="not bracketed"):
        shoot_for_decay(system, series, y0=0.1, bracket=(-0.2, -0.1))
    for y0 in (0.5, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="series initial data"):
            shoot_for_decay(system, series, y0=y0)


def test_flow_translation_property(system):
    a0, b0, _, _ = pole_scalars(0.35, np.longdouble)
    res = integrate_ivp(system, 0.05, (a0, b0), 5.0)
    sup = 0.0
    for y in np.linspace(0.05, 5.0, 150):
        a, b = res.at(float(y))
        ae, be, _, _ = pole_scalars(float(y) + 0.3)
        sup = max(sup, abs(a - ae), abs(b - be))
    assert sup <= 1e-8


class _ShotProfile:
    """One scalar of the shot's dense output times the identity, with the
    system's right-hand side at that state as its derivative."""

    def __init__(self, system, result, index):
        self.system, self.result, self.index = system, result, index

    def eval(self, y):
        state = self.result.at(y)
        value = state[self.index]
        deriv = self.system.rhs(*state)[self.index]
        eye = np.eye(3)
        return (np.asarray(value)[..., None, None] * eye,
                np.asarray(deriv)[..., None, None] * eye)


def test_shot_profile_energy_consistency(conv, system, shot):
    # feed the solver's own trajectory into the energy engine: curvature
    # energy within 1e-10 relative of the closed-form value on the common
    # range
    field = InvariantField(_ShotProfile(system, shot.result, 0),
                           _ShotProfile(system, shot.result, 1))
    model = nahm_pole_invariant_solution()
    spec = QuadratureSpec(eps=0.1, y_split=1.0, y_max=12.0)
    got, _ = l2_norm_sq(density_fn(conv, field, ("F_sq",)), spec)
    want, _ = l2_norm_sq(density_fn(conv, model, ("F_sq",)), spec)
    assert abs(got - want) / want <= 1e-10


def _series_states(system, params, y0=0.1):
    series = indicial_expand(system, 6)
    return [series.at(p).state(y0) for p in params]


def _one_lane_outcome(system, state, y0=0.1):
    """(outcome, sign, U) of one initial state from a single integrate_ivp
    run to SHOOT_Y, which stops only at BLOWUP_THRESHOLD."""
    try:
        res = integrate_ivp(system, y0, state, reduced.SHOOT_Y)
    except BlowUpError as e:
        assert not e.nonfinite
        return ("blow", 1.0 if e.state[1] > 0 else -1.0, None)
    a, b = res.end
    u = float(a - b) * math.exp(-2.0 * reduced.SHOOT_Y)
    return ("reached", 1.0 if u < 0 else -1.0, u)


def test_batched_outcomes_match_one_lane_runs(system, shot):
    lo, hi = -1.0, -0.3
    interior = [lo + (hi - lo) * (i / 16) for i in range(1, 16)]
    wider = [ROOT + d for d in (-1e-7, -1e-9, 1e-9, 1e-7)]
    near_root = [ROOT + d for d in np.linspace(-1e-13, 1e-13, 7)]
    params = [lo, hi] + interior + wider + near_root
    states = _series_states(system, params)
    batched = reduced._classify_lanes(system, np.array(states).T, 0.1,
                                      reduced.SHOOT_Y)
    for p, state, got in zip(params, states, batched):
        # where a lane blew up: as where the lane blows up run alone at the
        # same threshold (a lane that reaches SHOOT_Y ends there)
        if got[0] == "blow":
            alone = reduced._classify_lanes(
                system, np.array([state]).T, 0.1, reduced.SHOOT_Y)
            assert alone == [got], p
        else:
            assert got[2] == reduced.SHOOT_Y, p
        # although a shooting lane stops once it is certified to blow up,
        # the status and sign of a run that goes on to BLOWUP_THRESHOLD,
        # and the same U bits
        assert (got[0], got[1], got[3]) == _one_lane_outcome(system, state), p
    # the first coarse pass of the shot classifies the same points
    assert [t[0] for t in shot.trace[2:17]] == interior
    assert [t[1:] for t in shot.trace[2:17]] == [o[:3] for o in batched[2:17]]
    # within 1e-7 of the root every lane reaches SHOOT_Y, and within 1e-13
    # of it U takes both signs
    assert {o[0] for o in batched[-11:]} == {"reached"}
    assert {o[1] for o in batched[-7:]} == {-1.0, 1.0}


def test_rhs_lanes_match_scalar_and_exact(system):
    rng = np.random.default_rng(5)
    a = (rng.normal(size=200) * np.logspace(-9, 7, 200)).astype(np.longdouble)
    b = (rng.normal(size=200) * np.logspace(7, -9, 200)).astype(np.longdouble)
    da, db = system.rhs(a, b)
    for i in range(a.size):
        sa, sb = system.rhs(a[i], b[i])
        assert da[i] == sa and db[i] == sb

    # at dyadic rationals every step of the float evaluation is exact
    def exact(coeffs, x, y):
        return sum(c * x**p * y**q
                   for c, (p, q) in zip(coeffs, reduced._MONOMIALS))

    xs = [Fraction(i, 8) for i in range(-12, 13, 3)]
    ys = [Fraction(j, 16) for j in range(-20, 21, 5)]
    grid = [(x, y) for x in xs for y in ys]
    la = np.array([float(x) for x, _ in grid], dtype=np.longdouble)
    lb = np.array([float(y) for _, y in grid], dtype=np.longdouble)
    da, db = system.rhs(la, lb)
    for i, (x, y) in enumerate(grid):
        want = (exact(system.coeffs_a, x, y), exact(system.coeffs_b, x, y))
        assert (Fraction(*da[i].as_integer_ratio()),
                Fraction(*db[i].as_integer_ratio())) == want
        assert system.rhs(float(x), float(y)) == (float(want[0]),
                                                  float(want[1]))


def test_shooting_locates_parameter(shot):
    assert abs(shot.param - ROOT) <= 1e-13
    # the bracket ends, then 16-fold sign passes until both ends reach
    # SHOOT_Y, then one-lane root-step runs on U
    assert shot.coarse_passes == 6
    assert 1 <= shot.falsi_runs <= 8
    coarse_lanes = (shot.coarse_passes - 1) * reduced.SHOOT_LANES
    assert len(shot.trace) == 2 + coarse_lanes + shot.falsi_runs
    falsi = shot.trace[-shot.falsi_runs:]
    assert {(t[1], t[3]) for t in falsi} == {("reached", reduced.SHOOT_Y)}
    assert abs(shot.u_final) < 1e-16
    # one final run, straight to the trusted end
    assert shot.result.ys[-1] == 12.0


def test_shot_keeps_the_initial_state(system, shot):
    # the series state is formed in float64, and the root step returns a
    # parameter with the initial state of the certified root below, so the
    # same trajectory
    exp = indicial_expand(system, 6).at(Fraction(-0.6666666782308599))
    assert tuple(_knot_states(shot.result)[0]) == exp.state(0.1)


def _first_integral_root(series, y0):
    """The p at which the order-``series.order`` series state at y0 has the
    first integral H = (c^3 - 3 c b^2) / 3 - c, c = a - 1, of the decaying
    trajectory, H(0, 0) = 2/3: a secant on H evaluated exactly in Fractions,
    each iterate rounded to a multiple of 2^-200 so that the Fractions stay
    small, until an iterate repeats."""
    y = Fraction(y0)

    def h(p):
        exp = series.at(p)
        c = sum(v * y**k for k, v in exp.a_coeffs.items()) - 1
        b = sum(v * y**k for k, v in exp.b_coeffs.items())
        return (c**3 - 3 * c * b**2) / 3 - c - Fraction(2, 3)

    p0, p1 = Fraction(-2, 3), Fraction(-2, 3) + Fraction(1, 10**6)
    h0, h1 = h(p0), h(p1)
    for _ in range(40):
        p2 = p1 - h1 * (p1 - p0) / (h1 - h0)
        p2 = Fraction(round(p2 * 2**200), 2**200)
        if p2 == p1:
            return p1
        p0, h0, p1, h1 = p1, h1, p2, h(p2)
    raise AssertionError("secant did not settle")


@pytest.mark.parametrize("y0", [0.05, 0.0731, 0.1, 0.137, 0.2])
def test_located_parameter_is_the_first_integral_root(system, series, y0):
    # H is constant along the locked flow, so the decaying trajectory's
    # series parameter is the exact root of H(series state; p) = 2/3 at the
    # same order and y0; the located p is within 1e-13 of it (the float64
    # state moves by one ulp every 4e-14 of p at y0 = 0.05)
    shot = shoot_for_decay(system, series, y0=y0)
    root = _first_integral_root(series, y0)
    assert abs(Fraction(shot.param) - root) <= Fraction(1, 10**13), y0


def test_inverse_cubic_takes_the_two_nearest_points_on_each_side():
    # p as a cubic in U through four points, two on each side of [lo, hi]:
    # the interpolant's p at U = 0 is the cubic's constant term; farther
    # points do not enter
    def p_of(u):
        return -0.5 + u / 4 - u**2 / 8 + u**3 / 16

    us = [-3.0, -1.0, 0.5, 2.0]
    known = {p_of(u): u for u in us}
    lo, hi = p_of(-1.0), p_of(0.5)
    assert reduced._inverse_cubic(known, lo, hi) == pytest.approx(-0.5,
                                                                 abs=1e-15)
    far = {**known, p_of(-7.0): 5.0, p_of(9.0): -11.0}
    assert reduced._inverse_cubic(far, lo, hi) == reduced._inverse_cubic(
        known, lo, hi)
    # three points, or a repeated U: no interpolant
    assert reduced._inverse_cubic({p_of(u): u for u in us[1:]}, lo, hi) is None
    assert reduced._inverse_cubic({**known, p_of(-3.0): -1.0}, lo, hi) is None


@pytest.mark.parametrize("every_step", [False, True])
def test_root_step_outside_the_bracket_takes_the_illinois_point(
        system, series, monkeypatch, every_step):
    # the interpolant moved out of the bracket, on the first step alone or
    # on every step: that step takes the Illinois point, which on the first
    # step is the secant point of the ends, hi - U_hi (hi - lo) / (U_hi -
    # U_lo), and the next step the interpolant again; the shot still returns
    # the certified state.  Out on every step it is Illinois regula falsi
    # alone, with its six runs
    cubic, calls = reduced._inverse_cubic, []

    def outside(known, lo, hi):
        p = cubic(known, lo, hi)
        calls.append((lo, hi, known.get(lo), known.get(hi), p))
        if every_step or len(calls) == 1:
            return hi + (hi - lo) if len(calls) % 2 else lo - (hi - lo)
        return p

    monkeypatch.setattr(reduced, "_inverse_cubic", outside)
    shot = shoot_for_decay(system, series, y0=0.1)
    steps = [t[0] for t in shot.trace[-shot.falsi_runs:]]
    lo, hi, u_lo, u_hi, p = calls[0]
    assert lo < p < hi
    assert steps[0] == hi - u_hi * (hi - lo) / (u_hi - u_lo) != p
    if every_step:
        assert (shot.falsi_runs, len(shot.trace)) == (6, 83)
    else:
        assert steps[1] == calls[1][-1]
    exp = series.at(Fraction(ROOT))
    assert tuple(_knot_states(shot.result)[0]) == exp.state(0.1)


def test_located_state_is_certified_by_mpmath(system, shot):
    # U at SHOOT_Y by an independent 30-digit integration (mpmath's Taylor
    # odefun) of the shot's initial state and of the nearest other series
    # states below and above its parameter: U changes sign across them, and
    # the shot's state has the smallest |U|
    mpmath = pytest.importorskip("mpmath")
    series = indicial_expand(system, 6)
    state = series.at(shot.param).state(0.1)
    assert tuple(_knot_states(shot.result)[0]) == state

    def neighbour(direction):
        p = shot.param
        while series.at(p).state(0.1) == state:
            p = math.nextafter(p, direction)
        return series.at(p).state(0.1)

    def u_of(s):
        with mpmath.workdps(30):
            ca, cb = ([mpmath.mpf(c.numerator) / c.denominator for c in cs]
                      for cs in (system.coeffs_a, system.coeffs_b))

            def f(_, v):
                m = [v[0] ** p * v[1] ** q for p, q in reduced._MONOMIALS]
                return [mpmath.fdot(ca, m), mpmath.fdot(cb, m)]

            a, b = mpmath.odefun(f, 0.1, [mpmath.mpf(x) for x in s])(
                reduced.SHOOT_Y)
            return float((a - b) * mpmath.exp(-2 * reduced.SHOOT_Y))

    below, at, above = (u_of(s) for s in
                        (neighbour(-math.inf), state, neighbour(math.inf)))
    assert below * above < 0
    assert abs(at) < min(abs(below), abs(above))
    # the stepper's U is far closer to mpmath's than U moves between states
    assert abs(shot.u_final - at) <= 1e-18


def test_nan_state_is_nonfinite_without_sign(system, series, monkeypatch):
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    clean = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    taylor = reduced.taylor_coefficients

    def poisoned(matrix, a, b, order, work=None):
        # the NaNs are written into the workspace, which the next call on
        # it must overwrite
        x = taylor(matrix, a, b, order, work)
        x[:, a < 0.5, 1:] = np.nan
        return x

    monkeypatch.setattr(reduced, "taylor_coefficients", poisoned)
    with pytest.raises(BlowUpError, match="non-finite") as exc:
        integrate_ivp(system, 0.1, (a0, b0), 10.0)
    # the closed form passes a = 0.5 near y = 1.03; the run stops at the
    # first step that starts beyond it, with the state it reached there
    assert exc.value.nonfinite and 0.8 < exc.value.y_blow < 1.1
    first = int(np.argmax(_knot_states(clean)[:, 0] < 0.5))
    assert exc.value.y_blow == clean.ys[first]
    assert exc.value.state == tuple(_knot_states(clean)[first])
    states = _series_states(system, [ROOT, -2.0 / 3.0])
    outcomes = reduced._classify_lanes(system, np.array(states).T, 0.1,
                                       reduced.SHOOT_Y)
    assert [o[:2] for o in outcomes] == [("non-finite", 0.0)] * 2
    with pytest.raises(ValueError, match="non-finite"):
        shoot_for_decay(system, series, y0=0.1)

    # a step below the floor: the run stops at once, with its initial state
    monkeypatch.setattr(reduced, "taylor_coefficients", taylor)
    monkeypatch.setattr(reduced, "_H_MIN", 1.0)
    with pytest.raises(BlowUpError, match="non-finite") as exc:
        integrate_ivp(system, 0.1, (a0, b0), 10.0)
    assert exc.value.y_blow == 0.1
    assert exc.value.state == (float(a0), float(b0))


def _lie_taylor(coeffs_a, coeffs_b, a, b, order):
    """Exact Taylor coefficients D^n x / n! at (a, b), x = a and b, of the
    flow of the quadratic field with these coefficients, with D its Lie
    derivative acting on polynomials held as {(power of a, power of b):
    Fraction}."""
    field = [dict(zip(reduced._MONOMIALS, cs)) for cs in (coeffs_a, coeffs_b)]

    def lie(poly):
        out = {}
        for (i, j), c in poly.items():
            for e, d, f in ((i, (i - 1, j), field[0]), (j, (i, j - 1), field[1])):
                for (p, q), fc in f.items():
                    if e and fc:
                        key = (d[0] + p, d[1] + q)
                        out[key] = out.get(key, 0) + c * e * fc
        return out

    rows = []
    for poly in ({(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}):
        row = []
        for n in range(order + 1):
            row.append(sum(c * a**i * b**j for (i, j), c in poly.items())
                       / math.factorial(n))
            poly = lie(poly)
        rows.append(row)
    return rows


def test_taylor_recurrence_is_exact(system):
    # at dyadic states: on Fractions the recurrence gives the exact Taylor
    # coefficients of the derived polynomial, and of a field with every
    # monomial present; in longdouble it gives the derived system's exactly
    # up to the first division by 3, and beyond it far closer than float64
    # could
    order = reduced.TAYLOR_ORDER
    points = [(Fraction(-3, 2), Fraction(5, 8)), (Fraction(1, 4), Fraction(-7, 16)),
              (Fraction(5, 4), Fraction(3, 2)), (Fraction(2), Fraction(0))]
    a = np.array([p[0] for p in points], dtype=object)
    b = np.array([p[1] for p in points], dtype=object)
    full = ((Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 2),
             Fraction(-1), Fraction(2)),
            (Fraction(-1), Fraction(1), Fraction(-1, 3), Fraction(2),
             Fraction(1), Fraction(-3)))
    for coeffs in ((system.coeffs_a, system.coeffs_b), full):
        exact = reduced.taylor_coefficients(np.array(coeffs, dtype=object),
                                            a, b, order // 2)
        for lane, (pa, pb) in enumerate(points):
            assert exact[:, lane].tolist() == _lie_taylor(*coeffs, pa, pb,
                                                          order // 2)
            assert all(type(c) is Fraction for c in exact[:, lane].flat)

    exact = reduced.taylor_coefficients(
        np.array([system.coeffs_a, system.coeffs_b], dtype=object), a, b, order)
    ld = reduced.taylor_coefficients(system._matrix, a.astype(np.longdouble),
                                     b.astype(np.longdouble), order)
    assert exact.shape == ld.shape == (2, len(points), order + 1)
    for lane, (pa, pb) in enumerate(points):
        want = _lie_taylor(system.coeffs_a, system.coeffs_b, pa, pb, order)
        assert exact[:, lane].tolist() == want
        got = [[Fraction(*c.as_integer_ratio()) for c in x] for x in ld[:, lane]]
        assert [x[:3] for x in got] == [x[:3] for x in want]
        # each order's error against that order's |a_n| + |b_n|
        for n in range(order + 1):
            size = abs(want[0][n]) + abs(want[1][n])
            assert max(abs(got[i][n] - want[i][n]) for i in (0, 1)) <= 1e-17 * size


# The two-row kernel the workspace one replaced, kept as its reference: the
# products gathered by fancy index and added to each order's sums term by
# term from time 0, then multiplied by the matrix divided by n + 1.  It
# takes the workspace parameter so that it can stand in for the kernel, and
# returns fresh arrays.
def _taylor_reference(matrix, a, b, order, work=None):
    x = np.zeros((2, len(a), order + 1), dtype=np.result_type(matrix, a, b))
    x[0, :, 0], x[1, :, 0] = a, b
    mono = np.zeros((6, len(a)), dtype=x.dtype)
    left, right = [0, 0, 1], [0, 1, 1]
    for n in range(order):
        mono[0] = 1 if n == 0 else 0
        mono[1:3] = x[:, :, n]
        mono[3:] = 0
        for j in range(n + 1):
            mono[3:] = mono[3:] + x[left, :, j] * x[right, :, n - j]
        x[:, :, n + 1] = (matrix / (n + 1)) @ mono
    return x


def _power_sum_reference_lanes(c, t):
    # summed from n = 0 over the powers t^n, each the previous one times t
    out, power = 0, 1
    for n in range(c.shape[-1]):
        out = out + c[..., n] * power
        power = power * t
    return out


def _same_bits(got, want):
    # value, NaN included, and sign (which tells -0.0 from 0.0)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_taylor_kernel_matches_reference_bitwise(system):
    # one workspace per lane count, shrinking as lanes leave a run, reused
    # across calls: the overflow lane's NaNs do not reach the next call
    rng = np.random.default_rng(23)
    order = reduced.TAYLOR_ORDER
    ld = np.longdouble
    full = np.array([[1.0, -2.0, 3.0, 0.5, -1.0, 2.0],
                     [-1.0, 1.0, -1.0 / 3.0, 2.0, 1.0, -3.0]], dtype=ld)
    for k in (17, 15, 2, 1):
        work = reduced.taylor_workspace(ld, k, order)
        a = (rng.normal(size=k) * np.logspace(-3, 3, k)).astype(ld)
        b = (rng.normal(size=k) * np.logspace(2, -4, k)).astype(ld)
        calls = [(system._matrix, a, b), (full, a, b)]
        if k == 17:
            bad = a.copy()
            bad[5], b[11] = ld("1e1000"), 0.0  # overflows to NaN
            calls = [(system._matrix, bad, b), *calls, (full, bad, b),
                     (full, a, b)]
        for matrix, ai, bi in calls:
            with np.errstate(over="ignore", invalid="ignore"):
                got = reduced.taylor_coefficients(matrix, ai, bi, order, work)
                want = _taylor_reference(matrix, ai, bi, order)
                fresh = reduced.taylor_coefficients(matrix, ai, bi, order)
                h = rng.uniform(0.0, 0.3, size=k).astype(ld)
                values = (reduced._power_sum(got, h),
                          _power_sum_reference_lanes(want, h))
                steps = (reduced._step_sizes(got), reduced._step_sizes(want))
            assert np.shares_memory(got, work[0])
            assert _same_bits(got, want), (k, matrix)
            assert _same_bits(fresh, want)
            assert _same_bits(*values)
            assert np.array_equal(*steps, equal_nan=True)
            if ai is bad:
                assert np.isnan(got[:, 5]).any()
                assert np.isfinite(np.delete(got, 5, axis=1)).all()
            else:
                assert np.isfinite(got).all()
    with pytest.raises(ValueError, match="workspace"):
        reduced.taylor_coefficients(full, a, b, order,
                                    reduced.taylor_workspace(ld, 2, order))
    # the exact path, in a workspace too: the same Fractions
    a = np.array([Fraction(-3, 2), Fraction(1, 4), Fraction(2)], dtype=object)
    b = np.array([Fraction(5, 8), Fraction(-7, 16), Fraction(0)], dtype=object)
    exact = np.array([system.coeffs_a, system.coeffs_b], dtype=object)
    want = _taylor_reference(exact, a, b, order // 2).tolist()
    work = reduced.taylor_workspace(object, 3, order // 2)
    for _ in range(2):
        assert reduced.taylor_coefficients(exact, a, b, order // 2,
                                           work).tolist() == want
    assert reduced.taylor_coefficients(exact, a, b, order // 2).tolist() == want


def test_dense_output_matches_reference_kernel(system, monkeypatch):
    # a run and its dense output on arrays, with the new kernel and with the
    # reference kernel in its place: the same knots, steps and values
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    res = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    ys = np.concatenate([np.linspace(0.0, 12.0, 401), res.ys])
    got = res.at(ys)
    monkeypatch.setattr(reduced, "taylor_coefficients", _taylor_reference)
    monkeypatch.setattr(reduced, "_power_sum", _power_sum_reference_lanes)
    ref = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    for x, y in ((res.knots, ref.knots), (res.coeffs, ref.coeffs),
                 (res.end, ref.end), *zip(got, ref.at(ys))):
        assert _same_bits(x, y)


def _exact(x):
    return Fraction(*np.longdouble(x).as_integer_ratio())


def test_power_sum_against_exact_rational_sums(system):
    # every step of the run from the closed-form state at y = 0.1 to 10, at
    # t = h, h/2 and h/3, against the exact sum of its longdouble
    # coefficients c_n t^n: within 4 eps(longdouble) of sum |c_n t^n|.  The
    # terms fall geometrically over a step (the last two are TAYLOR_EPS of
    # the state), so the roundings of the powers and of the sequential sum
    # are a few ulps of the leading terms, not one per term
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    res = integrate_ivp(system, 0.1, (a0, b0), 10.0)
    h = np.diff(res.knots)
    eps = _exact(np.finfo(np.longdouble).eps)
    for t in (h, h / 2, h / 3):
        got = reduced._power_sum(res.coeffs, t[:, None])
        assert got.shape == (len(h), 2)
        for coeffs, tn, values in zip(res.coeffs, t, got):
            powers = [_exact(tn) ** n for n in range(coeffs.shape[-1])]
            for c, v in zip(coeffs, values):
                terms = [_exact(cn) * pw for cn, pw in zip(c, powers)]
                assert abs(_exact(v) - sum(terms)) <= 4 * eps * sum(
                    map(abs, terms))


def _first_integral_drift(res):
    """Per knot of a run, how far the locked system's first integral
    H = (c^3 - 3 c b^2) / 3 - c, c = a - 1, has moved from its value at the
    first knot, exactly on the longdouble states, and the bound on that
    drift: per step the stepper's error in a and in b is below TAYLOR_EPS
    (the truncation) plus 4 longdouble ulps (the kernel's and the power
    sum's roundings) of max(1, |a| + |b|), which moves H by at most
    |dH/da| + |dH/db| = |c^2 - b^2 - 1| + 2 |c b| times that; the bounds
    add up over the steps before the knot."""
    states = np.vstack([res.coeffs[:, :, 0], res.end[None]])
    unit = reduced.TAYLOR_EPS + 4 * float(np.finfo(np.longdouble).eps)
    hs, bound, total = [], [], 0.0
    for a, b in states:
        c, b = _exact(a) - 1, _exact(b)
        hs.append((c**3 - 3 * c * b**2) / 3 - c)
        bound.append(total)
        c, b = float(c), float(b)
        total += ((abs(c * c - b * b - 1) + 2 * abs(c * b))
                  * max(1.0, abs(c + 1) + abs(b)) * unit)
    return [float(abs(h - hs[0])) for h in hs], bound


@pytest.mark.parametrize("y0", [0.05, 0.1, 0.2, None])
def test_stepper_keeps_the_first_integral(system, series, y0):
    # the shot's returned trajectory, and (y0 None) the run from the
    # closed-form state on [0.1, 6]; H shares no code with the kernel.  At
    # every knot the drift is 90-350 times below its bound
    if y0 is None:
        a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
        res = integrate_ivp(system, 0.1, (a0, b0), 6.0)
    else:
        res = shoot_for_decay(system, series, y0=y0).result
    drift, bound = _first_integral_drift(res)
    assert all(d <= b for d, b in zip(drift, bound)), (y0, drift, bound)


@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("col", range(6))
def test_first_integral_drift_catches_a_coefficient_fault(system, row, col):
    # any longdouble coefficient of the stepper's matrix moved by 1e-6
    # after the derivation: H drifts 2.5e8 times its bound or more
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    faulty = dataclasses.replace(system)
    faulty._matrix[row, col] += 1e-6
    drift, bound = _first_integral_drift(
        integrate_ivp(faulty, 0.1, (a0, b0), 6.0))
    assert max(drift) > 1e3 * max(bound)


def _certificate_time(a, b):
    """T(rho) of the blow-up certificate at the state (a, b)."""
    rho = math.hypot(a - 1.0, b)
    return math.log((rho + math.sqrt(2.0)) / (rho - math.sqrt(2.0))) / math.sqrt(2.0)


def test_certified_states_blow_up_before_their_bound(system):
    # seeded states in the three certified sectors (sin 3theta >= 1/2,
    # rho > sqrt 2, around theta = pi/6, 5pi/6 and 3pi/2): each is
    # certified, and a run to BLOWUP_THRESHOLD blows up before y + T(rho)
    # with the sign of b it started with
    rng = np.random.default_rng(7)
    for _ in range(40):
        centre = rng.choice([math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2])
        theta = centre + rng.uniform(-1.0, 1.0) * (math.pi / 9) * 0.999
        rho = math.sqrt(2.0) * (1.0 + 10.0 ** rng.uniform(-2.0, 3.0))
        y = rng.uniform(0.05, 6.0)
        a, b = 1.0 + rho * math.cos(theta), rho * math.sin(theta)
        bound = y + _certificate_time(a, b)
        state = np.array([[a], [b]], dtype=np.longdouble)
        at = np.array([y], dtype=np.longdouble)
        assert reduced._certified_blowup(at, state, bound * (1 + 1e-6))[0]
        assert not reduced._certified_blowup(at, state, bound * (1 - 1e-6))[0]
        with pytest.raises(BlowUpError) as exc:
            integrate_ivp(system, y, (a, b), bound + 1.0)
        assert not exc.value.nonfinite
        assert exc.value.y_blow < bound, (a, b, y)
        assert math.copysign(1.0, exc.value.state[1]) == math.copysign(1.0, b)
        assert (b < 0) == (centre > math.pi)


def test_certificate_refuses_pole_and_edge_states():
    # the pole direction (theta near pi/2, b ~ 1/y: sin 3theta near -1), a
    # sector's edge just outside it, and rho at sqrt 2: never certified
    ys = np.full(4, 0.1, dtype=np.longdouble)
    for rho in (10.0, 1e3, 1e6):
        theta = np.pi / 2 + np.array([-0.2, -0.05, 0.05, 0.2])
        states = np.array([1.0 + rho * np.cos(theta), rho * np.sin(theta)],
                          dtype=np.longdouble)
        assert not reduced._certified_blowup(ys, states, 1e9).any()
    edge = np.pi / 18 * np.array([1 - 1e-6, 5 + 1e-6, 13 - 1e-6, 29 + 1e-6])
    states = np.array([1.0 + 50 * np.cos(edge), 50 * np.sin(edge)],
                      dtype=np.longdouble)
    assert not reduced._certified_blowup(ys, states, 1e9).any()
    states = np.array([[1.0 + math.sqrt(2.0) * math.cos(math.pi / 6)],
                       [math.sqrt(2.0) * math.sin(math.pi / 6)]],
                      dtype=np.longdouble)
    assert not reduced._certified_blowup(ys[:1], states, 1e9).any()


def test_certificate_needs_the_locked_system(system, series):
    coeffs = list(system.coeffs_b)
    coeffs[3] += Fraction(1, 10**6)
    other = ReducedSystem(system.conv, system.coeffs_a, tuple(coeffs))
    with pytest.raises(ValueError, match="locked coefficients"):
        shoot_for_decay(other, series, y0=0.1)
    # the stepper itself runs any system; only the certificate is refused
    reduced._taylor_lanes(other, 0.1, np.array([[1.0], [1.0]]), 0.2)


@pytest.mark.parametrize("y0", [0.05, 0.1, 0.15, 0.175, 0.18, 0.19, 0.2])
def test_early_blowup_keeps_status_sign_and_u(system, series, shot, y0):
    # a lane called blown by the certificate against the same lanes run in
    # one batch to BLOWUP_THRESHOLD: the same status and sign, and the same
    # U bits where a lane reaches SHOOT_Y; on the shot's trace points, 100
    # seeded p and the root +- 10^-k.  At 0.175, 0.18 and 0.19 a trace point
    # reaches SHOOT_Y at 8-44 times its initial size, which a fixed
    # multiple of that size misreads as blown
    if y0 != 0.1:
        shot = shoot_for_decay(system, series, y0=y0)
    rng = np.random.default_rng(100)
    params = ([t[0] for t in shot.trace] + rng.uniform(-1.0, -0.3, 100).tolist()
              + [ROOT + s * 10.0**-k for k in range(1, 15) for s in (-1, 1)])
    states = np.array([series.at(p).state(y0) for p in params]).T
    got = reduced._classify_lanes(system, states, y0, reduced.SHOOT_Y)
    ref = reduced._taylor_lanes(system, y0, states, reduced.SHOOT_Y)
    for lane, (p, out) in enumerate(zip(params, got)):
        a, b = ref.states[:, lane]
        if ref.status[lane] == "blow":
            want = ("blow", 1.0 if b > 0 else -1.0, None)
            # the certificate fires no later than the threshold
            assert out[2] <= ref.ys[lane], (y0, p)
        else:
            u = float(a - b) * math.exp(-2.0 * reduced.SHOOT_Y)
            want = ("reached", 1.0 if u < 0 else -1.0, u)
        assert (out[0], out[1], out[3]) == want, (y0, p)
    assert {o[0] for o in got} == {"blow", "reached"}


@pytest.mark.parametrize("y0", [0.05, 0.1, 0.137, 0.2])
def test_final_run_resumes_the_chosen_ends_run_bitwise(system, series,
                                                      monkeypatch, y0):
    # the returned trajectory continues the chosen end's run from its
    # last step below SHOOT_Y and y_end; it is the fresh run from the
    # located state, knot for knot; y_end <= SHOOT_Y is the edge case
    starts = []
    resumed = reduced.integrate_ivp

    def recording(sys, y, state, y1):
        starts.append(y)
        return resumed(sys, y, state, y1)

    monkeypatch.setattr(reduced, "integrate_ivp", recording)
    for y_end in (6.0, 8.0, 12.0):
        shot = shoot_for_decay(system, series, y0=y0, y_end=y_end)
        fresh = integrate_ivp(system, y0, series.at(shot.param).state(y0),
                              y_end)
        got = shot.result
        for x, y in ((got.knots, fresh.knots), (got.coeffs, fresh.coeffs),
                     (got.end, fresh.end)):
            assert _same_bits(x, y), (y0, y_end)
        # the resumed run starts at a knot of the fresh one, past y0
        assert y0 < starts[-1] < min(reduced.SHOOT_Y, y_end)
        assert starts[-1] in fresh.knots


def test_shot_work_counts(system, series, monkeypatch):
    # one run for the bracket ends with the first coarse pass, four more
    # coarse passes, three root-step runs and the final run: 9 Taylor runs
    # and 264 Taylor steps; the final run resumes the chosen end's run after
    # its 26 steps below y = 8 (a fresh run repeated them: 290)
    calls = {"_taylor_lanes": 0, "taylor_coefficients": 0}

    def counting(name):
        fn = getattr(reduced, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(reduced, name, counting(name))
    shot = shoot_for_decay(system, series, y0=0.1)
    assert calls == {"_taylor_lanes": 9, "taylor_coefficients": 264}
    assert (shot.coarse_passes, shot.falsi_runs, len(shot.trace)) == (6, 3, 80)
