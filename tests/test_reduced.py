"""Reduced ODE: derivation, pole series, integration, shooting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kwlab.energy import density_fn
from kwlab.profiles import (
    InvariantField,
    nahm_pole_invariant_solution,
    pole_scalars,
)
from kwlab.quadrature import QuadratureSpec, l2_norm_sq
from kwlab import reduced
from kwlab.reduced import (
    BlowUpError,
    ReducedSystem,
    derive_reduced_system,
    indicial_expand,
    integrate_ivp,
    shoot_for_decay,
)

# decaying parameter located at y0 = 0.1 by the shooting solver
ROOT = -0.6666666782307307


@pytest.fixture(scope="module")
def system(conv):
    return derive_reduced_system(conv)


@pytest.fixture(scope="module")
def shot(system):
    return shoot_for_decay(system, y0=0.1)


def test_machine_derived_coefficients(system):
    # locked quadratic structure over (1, a, b, a^2, ab, b^2)
    assert system.coeffs_a == (0, 0, -2, 0, 2, 0)
    assert system.coeffs_b == (0, -2, 0, 1, 0, -1)


def test_scalar_ansatz_stays_in_span(conv):
    from kwlab.reduced import _scalar_residual

    _, _, off = _scalar_residual(conv, 0.5, 0.5, 0.0, 0.0)
    assert off < 1e-14


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
    from kwlab.jets import Jet2
    from kwlab.profiles import pole_a_alt, pole_b

    worst = 0.0
    for y in np.geomspace(1e-3, 30.0, 200):
        jy = Jet2.var(np.longdouble(y))
        ja, jb = pole_a_alt(jy), pole_b(jy)
        worst = max(worst, float(system.rhs_residual(ja.f, jb.f, ja.d1, jb.d1)))
    assert worst <= 1e-10


def test_indicial_series_coefficients(system):
    exp = indicial_expand(system, 6, free_param=Fraction(-2, 3))
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
    exp = indicial_expand(system, 6, free_param=Fraction(-2, 3))
    for y in (1e-3, 3e-3, 1e-2):
        a_ser, b_ser = exp.state(y)
        a, b, _, _ = pole_scalars(y)
        # truncation plus float rounding of the 1/y pole evaluation
        assert abs(a_ser - a) < 20 * y**7 + 1e-13
        assert abs(b_ser - b) < 20 * y**6 + 1e-12


def test_indicial_order_eight_matches_closed_form(system):
    # Taylor coefficients of the closed form (mpmath, 40 digits): the first
    # terms the order-6 series neglects
    exp = indicial_expand(system, 8, free_param=Fraction(-2, 3))
    assert exp.a_coeffs[8] == Fraction(-34, 2835)
    assert exp.b_coeffs[7] == Fraction(-403, 14175)
    assert exp.a_coeffs[7] == exp.b_coeffs[8] == 0


@pytest.mark.parametrize("order", [6, 8])
def test_pole_series_matches_rational_matching(system, order):
    series = reduced.pole_series(system, order)
    # off the interpolation nodes 0, 1, ..., order, and on one of them
    for p in (Fraction(-2, 3), Fraction(2), Fraction(5, 7), Fraction(-1),
              Fraction(-0.6666666782307249), Fraction(10**9 + 1, 3)):
        want = indicial_expand(system, order, free_param=p)
        got = series.at(p)
        assert got == want
        assert all(type(c) is Fraction
                   for c in (*got.a_coeffs.values(), *got.b_coeffs.values()))
        assert got.state(0.1) == want.state(0.1)


def test_indicial_zero_parameter_is_cotangent(system):
    # a == 1 collapses the system to b' = -1 - b^2, i.e. b = cot y
    exp = indicial_expand(system, 6, free_param=Fraction(0))
    assert exp.b_coeffs[1] == Fraction(-1, 3)
    assert exp.b_coeffs[3] == Fraction(-1, 45)
    assert exp.b_coeffs[5] == Fraction(-2, 945)
    for y in (0.05, 0.1):
        _, b_ser = exp.state(y)
        assert math.isclose(b_ser, 1.0 / math.tan(y), rel_tol=1e-8)


def test_indicial_rejects_wrong_constant(system):
    with pytest.raises(ValueError, match="logarithm"):
        indicial_expand(system, 4, pin_a0=Fraction(2))
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


def _hermite_reference(dense, y):
    """The cubic Hermite interpolant at one node, one scalar at a time."""
    ys = dense.ys
    if y <= ys[0]:
        i = 0
    elif y >= ys[-1]:
        i = len(ys) - 2
    else:
        i = int(np.searchsorted(ys, y) - 1)
    h = ys[i + 1] - ys[i]
    t = (np.longdouble(y) - ys[i]) / h
    d0, d1 = dense.derivs[i] * h, dense.derivs[i + 1] * h
    out = ((1 + 2 * t) * (1 - t) ** 2 * dense.states[i] + t * (1 - t) ** 2 * d0
           + t * t * (3 - 2 * t) * dense.states[i + 1] + t * t * (t - 1) * d1)
    return float(out[0]), float(out[1])


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
        assert (sa, sb) == _hermite_reference(res.dense, float(y))


def test_ivp_stationary_start(system):
    res = integrate_ivp(system, 0.5, (2.0, 0.0), 6.0)
    assert np.max(np.abs(res.states - np.array([2.0, 0.0]))) == 0.0


def test_ivp_step_doubling_consistency(system):
    res1 = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0, rtol=1e-12,
                         atol=1e-14, max_step=0.1)
    res2 = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0, rtol=1e-12,
                         atol=1e-14, max_step=0.05)
    sup = max(
        max(abs(x - y) for x, y in zip(res1.at(float(t)), res2.at(float(t))))
        for t in np.linspace(1.0, 3.0, 100)
    )
    assert sup <= 1e-8


def test_ivp_argument_validation(system):
    with pytest.raises(ValueError, match="positive"):
        integrate_ivp(system, -1.0, (1.0, 1.0), 2.0)


def test_blowup_detected_with_location(system):
    exp = indicial_expand(system, 5,
                          free_param=Fraction(-2, 3) + Fraction(1, 100))
    with pytest.raises(BlowUpError) as exc:
        integrate_ivp(system, 0.1, exp.state(0.1), 30.0, rtol=1e-10,
                      atol=1e-12)
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


def test_shooting_rejects_bad_bracket(system):
    with pytest.raises(ValueError, match="not bracketed"):
        shoot_for_decay(system, y0=0.1, bracket=(-0.2, -0.1))
    for y0 in (0.5, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="series initial data"):
            shoot_for_decay(system, y0=y0)


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
    series = reduced.pole_series(system, 6)
    return [series.at(p).state(y0) for p in params]


def _one_lane_outcome(system, state, y0=0.1):
    """(outcome, sign, U) of one initial state from a single integrate_ivp
    run to SHOOT_Y, which stops only at BLOWUP_THRESHOLD."""
    try:
        res = integrate_ivp(system, y0, state, reduced.SHOOT_Y, rtol=1e-13,
                            atol=1e-16)
    except BlowUpError as e:
        assert not e.nonfinite
        return ("blow", 1.0 if e.state[1] > 0 else -1.0, None)
    a, b = res.dense.states[-1]
    u = float(a - b) * math.exp(-2.0 * reduced.SHOOT_Y)
    return ("reached", 1.0 if u < 0 else -1.0, u)


def test_batched_outcomes_match_one_lane_runs(system, shot):
    lo, hi = -1.0, -0.3
    interior = [lo + (hi - lo) * (i / 16) for i in range(1, 16)]
    wider = [ROOT + d for d in (-1e-7, -1e-9, 1e-9, 1e-7)]
    near_root = [ROOT + d for d in np.linspace(-1e-13, 1e-13, 7)]
    params = [lo, hi] + interior + wider + near_root
    states = _series_states(system, params)
    batched, forced = reduced._classify_lanes(system, np.array(states).T, 0.1,
                                              reduced.SHOOT_Y)
    assert forced == 0
    for p, state, got in zip(params, states, batched):
        # where a lane blew up: as where the lane blows up run alone at the
        # same threshold (a lane that reaches SHOOT_Y ends there)
        if got[0] == "blow":
            alone, _ = reduced._classify_lanes(
                system, np.array([state]).T, 0.1, reduced.SHOOT_Y)
            assert alone == [got], p
        else:
            assert got[2] == reduced.SHOOT_Y, p
        # although a shooting lane stops at SHOOT_BLOWUP times its initial
        # size, the status and sign of a run that goes on to
        # BLOWUP_THRESHOLD, and the same U bits
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
    # SHOOT_Y, then one-lane regula falsi runs on U
    assert shot.coarse_passes == 6
    assert 1 <= shot.falsi_runs <= 8
    coarse_lanes = (shot.coarse_passes - 1) * reduced.SHOOT_LANES
    assert len(shot.trace) == 2 + coarse_lanes + shot.falsi_runs
    falsi = shot.trace[-shot.falsi_runs:]
    assert {(t[1], t[3]) for t in falsi} == {("reached", reduced.SHOOT_Y)}
    assert abs(shot.u_final) < 1e-16
    assert shot.forced_steps == 0
    # one final run, straight to the trusted end
    assert shot.result.ys[-1] == 12.0


def test_shot_keeps_the_initial_state(system, shot):
    # a sign-only search with runs to y = 20 lands on -0.6666666782307249;
    # the series state is formed in float64, and the falsi returns a
    # parameter with the same initial state, so the same trajectory
    exp = indicial_expand(system, 6,
                          free_param=Fraction(-0.6666666782307249))
    assert tuple(shot.result.states[0]) == exp.state(0.1)


def test_nan_state_is_nonfinite_without_sign(system, monkeypatch):
    rhs = ReducedSystem.rhs

    def poisoned(self, a, b):
        da, db = rhs(self, a, b)
        return np.where(a < 0.5, np.nan, da), db

    monkeypatch.setattr(ReducedSystem, "rhs", poisoned)
    a0, b0, _, _ = pole_scalars(0.1, np.longdouble)
    with pytest.raises(BlowUpError, match="non-finite") as exc:
        integrate_ivp(system, 0.1, (a0, b0), 10.0)
    # the closed form passes a = 0.5 near y = 1.03
    assert exc.value.nonfinite and 0.8 < exc.value.y_blow < 1.1
    assert all(math.isfinite(x) for x in exc.value.state)
    states = _series_states(system, [ROOT, -2.0 / 3.0])
    outcomes, _ = reduced._classify_lanes(system, np.array(states).T, 0.1,
                                          reduced.SHOOT_Y)
    assert [o[:2] for o in outcomes] == [("non-finite", 0.0)] * 2
    with pytest.raises(ValueError, match="non-finite"):
        shoot_for_decay(system, y0=0.1)


def test_ivp_rhs_call_contract(system, monkeypatch):
    # one rhs call to start and six per attempted step: the traced benchmark
    # (perfbench/tracing.py) derives attempted steps from this count
    calls = []
    rhs = ReducedSystem.rhs

    def counted(self, a, b):
        calls.append(np.shape(a))
        return rhs(self, a, b)

    monkeypatch.setattr(ReducedSystem, "rhs", counted)
    # zero error from a stationary start: every attempted step is accepted
    res = integrate_ivp(system, 0.5, (2.0, 0.0), 6.0)
    assert len(calls) == 1 + 6 * (len(res.ys) - 1)
    assert set(calls) == {(1,)}

    # this run rejects steps, so there are more attempted than accepted ones
    calls.clear()
    res = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0, rtol=1e-12, atol=1e-14)
    assert (len(calls) - 1) % 6 == 0
    assert (len(calls) - 1) // 6 > len(res.ys) - 1
    assert res.forced_steps == 0

    # with the step floor above every step size nothing is rejected, and
    # the steps accepted despite their error are counted
    monkeypatch.setattr(reduced, "_H_FLOOR", 1.0)
    calls.clear()
    res = integrate_ivp(system, 1.0, (1.5, 0.5), 3.0, rtol=1e-12, atol=1e-14)
    assert len(calls) == 1 + 6 * (len(res.ys) - 1)
    assert res.forced_steps > 0
