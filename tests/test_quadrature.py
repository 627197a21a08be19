"""Quadrature engine: analytic oracles, tails, refinement behaviour."""

import math

import numpy as np
import pytest

from kwlab.quadrature import (
    VOL_S3,
    QuadratureSpec,
    integrate_halfline,
    integrate_interval,
    integrate_panels,
    integrate_smooth_from_zero,
    l2_norm_sq,
)


def test_vol_s3():
    assert math.isclose(VOL_S3, 2 * math.pi**2, rel_tol=1e-15)


def test_inverse_square_analytic():
    # |phi|^2 = (3/2)/y^2 for the pole profile: integral = 3 pi^2 / eps
    for eps in (0.1, 1e-2, 1e-3):
        spec = QuadratureSpec(eps=eps, y_split=1.0, y_max=30.0)
        val, err = l2_norm_sq(lambda y: 1.5 / (y * y), spec)
        want = 3 * math.pi**2 / eps
        # the tail beyond y_max carries 3 pi^2 (1/y_max) relative to 1/eps
        assert abs(val - (want - 3 * math.pi**2 / 30.0)) < 1e-8 * want


def test_constant_on_unit_interval():
    # constant |omega|^2 = 3/2 over [0, 1]: vol term only
    val, err = integrate_interval(lambda y: 1.5, 0.0, 1.0)
    assert math.isclose(VOL_S3 * val, 3 * math.pi**2, rel_tol=1e-14)


def test_integrand_called_once_on_every_node():
    shapes = []

    def f(y):
        shapes.append(y.shape)
        return 3.0 * y * y

    val = integrate_panels(f, [0.0, 0.5, 1.0, 2.0], 8)
    assert shapes == [(24,)]
    assert math.isclose(val, 8.0, rel_tol=1e-14)


def test_exponential_envelope_oracle():
    spec = QuadratureSpec(eps=1e-6, y_split=1.0, y_max=30.0)
    val, err = integrate_smooth_from_zero(lambda y: np.exp(-4 * y), spec)
    assert abs(val - 0.25) <= 1e-10 * 0.25
    assert err < 1e-8


def test_truncate_bound_covers_remainder():
    f = lambda y: np.exp(-4 * y)
    spec = QuadratureSpec(eps=1e-6, y_max=8.0)  # visible tail
    val, err = integrate_smooth_from_zero(f, spec)
    remainder = 0.25 - val
    assert 0 < remainder <= err


def test_refinement_shrinks_error_estimate():
    # smooth integrand with the contractual exponential envelope
    f = lambda y: np.exp(-4 * y) * (1.0 + 10.0 * y * y) / (1.0 + y)
    coarse = QuadratureSpec(eps=1e-3, y_split=2.0, y_max=12.0,
                            panels=3, nodes_per_panel=2)
    fine = coarse.refined()
    _, e1 = integrate_halfline(f, coarse)
    _, e2 = integrate_halfline(f, fine)
    assert e2 <= 0.5 * e1


def test_non_finite_sample_reported():
    spec = QuadratureSpec(eps=1e-2)

    def bad(y):
        return np.where(y > 2.0, float("nan"), 1.0)

    with pytest.raises(ValueError, match="non-finite integrand at y="):
        integrate_halfline(bad, spec)


def test_geometric_head_handles_pole_density():
    # integrand ~ 1/y^2 near zero: geometric ladder keeps full accuracy
    spec = QuadratureSpec(eps=1e-4, y_split=1.0, y_max=10.0)
    val, err = integrate_halfline(lambda y: 1.0 / (y * y), spec)
    want = 1.0 / 1e-4 - 0.1
    assert math.isclose(val, want, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# rows: a (k, n) integrand against k one-row calls, bit for bit
# ---------------------------------------------------------------------------

_COEFS = np.random.default_rng(3).uniform(0.5, 2.0, size=(4, 3))


def _row(c):
    return lambda y: c[0] * np.exp(-c[1] * y) * (1.0 + c[2] * y) / (y + 1e-2)


def _rows(y):
    return np.stack([_row(c)(y) for c in _COEFS] + [np.full(y.shape, 1.5)])


_ONE_ROW = [_row(c) for c in _COEFS] + [lambda y: 1.5]


def _bits(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@pytest.mark.parametrize("rule", ["panels", "interval", "halfline-geometric",
                                  "halfline-uniform", "from-zero", "l2"])
def test_rows_equal_one_row_calls_bitwise(rule):
    spec = QuadratureSpec(eps=1e-3, y_max=12.0)  # the tail bound is not negligible
    run = {
        "panels": lambda f: (integrate_panels(f, np.geomspace(1e-3, 2.0, 9), 8), 0.0),
        "interval": lambda f: integrate_interval(f, 0.0, 1.0, panels=32),
        "halfline-geometric": lambda f: integrate_halfline(f, spec),
        "halfline-uniform": lambda f: integrate_halfline(f, spec, geometric_head=False),
        "from-zero": lambda f: integrate_smooth_from_zero(f, spec),
        "l2": lambda f: l2_norm_sq(f, spec),
    }[rule]
    vals, errs = run(_rows)
    one = [run(f) for f in _ONE_ROW]
    assert all(type(v) is float for v, _ in one)
    assert _bits(vals) == _bits([v for v, _ in one])
    if rule != "panels":
        assert _bits(errs) == _bits([e for _, e in one])


def test_rows_integrand_called_once_per_layout():
    shapes = []

    def f(y):
        shapes.append(y.shape)
        return _rows(y)

    integrate_halfline(f, QuadratureSpec(panels=4, nodes_per_panel=8))
    # head and body at 4 and 8 panels, then the 16 tail samples
    assert shapes == [(32,), (32,), (64,), (64,), (16,)]


def test_non_finite_row_entry_reported():
    spec = QuadratureSpec(eps=1e-2)

    def bad(y):
        return np.where(y > 2.0, float("nan"), 1.0)

    with pytest.raises(ValueError, match="non-finite integrand at y=") as one:
        integrate_halfline(bad, spec)
    with pytest.raises(ValueError, match="non-finite integrand at y=") as rows:
        integrate_halfline(lambda y: np.stack([np.ones_like(y), bad(y)]), spec)
    assert str(rows.value) == str(one.value)
