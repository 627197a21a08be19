"""Quadrature engine: analytic oracles, tails, refinement behaviour."""

import math

import numpy as np
import pytest

from conftest import l2_norm_sq
from kwlab import quadrature
from kwlab.quadrature import (
    NODES,
    VOL_S3,
    doubled_sums,
    halfline_edges,
    halfline_total,
    integrate_halfline,
    integrate_panels,
)


def test_vol_s3():
    assert math.isclose(VOL_S3, 2 * math.pi**2, rel_tol=1e-15)


def test_inverse_square_analytic():
    # |phi|^2 = (3/2)/y^2 for the pole profile: integral = 3 pi^2 / eps
    for eps in (0.1, 1e-2, 1e-3):
        val, err = l2_norm_sq(lambda y: 1.5 / (y * y), eps)
        want = 3 * math.pi**2 / eps
        # the tail beyond Y_MAX carries 3 pi^2 (1/y_max) relative to 1/eps
        assert abs(val - (want - 3 * math.pi**2 / 30.0)) < 1e-8 * want


def test_constant_on_unit_interval():
    # constant |omega|^2 = 3/2 over [0, 1]: vol term only
    val, err = halfline_total(
        [doubled_sums(lambda y: np.full_like(y, 1.5), 0.0, 0)], 0.0)
    assert math.isclose(VOL_S3 * val, 3 * math.pi**2, rel_tol=1e-14)


def test_integrand_called_once_on_every_node():
    shapes = []

    def f(y):
        shapes.append(y.shape)
        return 3.0 * y * y

    val = integrate_panels(f, [0.0, 0.5, 1.0, 2.0], NODES)
    assert shapes == [(48,)]
    assert math.isclose(val, 8.0, rel_tol=1e-14)


def test_rule_table_is_leggauss_bitwise():
    # the literal table is numpy's own 16-node rule, every bit of it
    x, w = np.polynomial.legendre.leggauss(NODES)
    assert NODES == 16
    assert quadrature._GL_X.tobytes() == x.tobytes()
    assert quadrature._GL_W.tobytes() == w.tobytes()


def test_other_node_counts_refused(monkeypatch):
    # one rule, no fallback: any other node count raises, even through a
    # patched NODES
    with pytest.raises(ValueError, match="the rule has 16 nodes a panel, not 8"):
        integrate_panels(lambda y: y, [0.0, 1.0], 8)
    _layout(monkeypatch, NODES=8)
    with pytest.raises(ValueError, match="not 8"):
        integrate_halfline(lambda y: np.exp(-4 * y), 0.0)


def test_exponential_envelope_oracle():
    val, err = integrate_halfline(lambda y: np.exp(-4 * y), 0.0)
    assert abs(val - 0.25) <= 1e-10 * 0.25
    assert err < 1e-8


def _layout(monkeypatch, **constants):
    """Set quadrature layout constants (Y_MAX=8.0, ...) for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(quadrature, name, value)


def test_truncate_bound_covers_remainder(monkeypatch):
    f = lambda y: np.exp(-4 * y)
    _layout(monkeypatch, Y_MAX=8.0)  # visible tail
    val, err = integrate_halfline(f, 0.0)
    remainder = 0.25 - val
    assert 0 < remainder <= err


def test_refinement_shrinks_error_estimate(monkeypatch):
    # smooth integrand with the contractual exponential envelope
    f = lambda y: np.exp(-4 * y) * (1.0 + 10.0 * y * y) / (1.0 + y)
    _layout(monkeypatch, Y_SPLIT=2.0, Y_MAX=12.0, PANELS=1)
    _, e1 = integrate_halfline(f, 1e-3)
    _layout(monkeypatch, PANELS=2)
    _, e2 = integrate_halfline(f, 1e-3)
    assert e2 <= 0.5 * e1


def test_non_finite_sample_reported():
    def bad(y):
        return np.where(y > 2.0, float("nan"), 1.0)

    with pytest.raises(ValueError, match="non-finite integrand at y="):
        integrate_halfline(bad, 1e-2)


def test_geometric_head_handles_pole_density(monkeypatch):
    # integrand ~ 1/y^2 near zero: geometric ladder keeps full accuracy
    _layout(monkeypatch, Y_MAX=10.0)
    val, err = integrate_halfline(lambda y: 1.0 / (y * y), 1e-4)
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


_ONE_ROW = [_row(c) for c in _COEFS] + [lambda y: np.full_like(y, 1.5)]


def _bits(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@pytest.mark.parametrize("rule", ["panels", "interval", "halfline-geometric",
                                  "halfline-no-head", "from-zero", "l2"])
def test_rows_equal_one_row_calls_bitwise(rule, monkeypatch):
    _layout(monkeypatch, Y_MAX=12.0)  # the tail bound is not negligible
    run = {
        "panels": lambda f: (integrate_panels(f, np.geomspace(1e-3, 2.0, 9), NODES),
                             0.0),
        "interval": lambda f: halfline_total([doubled_sums(f, 0.0, 0)], 0.0),
        "halfline-geometric": lambda f: integrate_halfline(f, 1e-3),
        "halfline-no-head": lambda f: integrate_halfline(f, 1.0),
        "from-zero": lambda f: integrate_halfline(f, 0.0),
        "l2": lambda f: l2_norm_sq(f, 1e-3),
    }[rule]
    vals, errs = run(_rows)
    one = [run(f) for f in _ONE_ROW]
    assert all(type(v) is float for v, _ in one)
    assert _bits(vals) == _bits([v for v, _ in one])
    if rule != "panels":
        assert _bits(errs) == _bits([e for _, e in one])


def test_rows_integrand_called_once_per_layout(monkeypatch):
    shapes = []

    def f(y):
        shapes.append(y.shape)
        return _rows(y)

    _layout(monkeypatch, PANELS=4)
    integrate_halfline(f, 0.05)
    # the head, then the body, at 4 and 8 panels, then the 16 tail samples
    assert shapes == [(64,), (128,), (64,), (128,), (16,)]


def _panel_nodes(edges, nodes: int):
    """The node array that integrate_panels passes its integrand."""
    seen = []
    integrate_panels(lambda y: seen.append(y) or y, edges, nodes)
    return seen[0]


@pytest.mark.parametrize("lo, head, shapes", [
    # a uniform head from zero, a geometric one from a cutoff below Y_SPLIT
    (0.0, np.linspace, [(64,), (128,), (64,), (128,), (16,)]),
    (0.05, np.geomspace, [(64,), (128,), (64,), (128,), (16,)]),
    # no head from Y_SPLIT on: the body starts at lo
    (1.0, None, [(64,), (128,), (16,)]),
    (2.5, None, [(64,), (128,), (16,)]),
])
def test_lower_limit_picks_the_head(lo, head, shapes, monkeypatch):
    seen = []
    _layout(monkeypatch, PANELS=4)
    integrate_halfline(lambda y: seen.append(y) or np.ones_like(y), lo)
    assert [y.shape for y in seen] == shapes
    parts = [[] if head is None else [head(lo, 1.0, p + 1)] for p in (4, 8)]
    for p, edges in zip((4, 8), parts):
        edges.append(np.linspace(max(lo, 1.0), 30.0, p + 1))
        assert all(np.array_equal(e, w)
                   for e, w in zip(halfline_edges(lo, p), edges, strict=True))
    # each part at 4 panels, then at 8
    want = [_panel_nodes(e, NODES) for part in zip(*parts) for e in part]
    want.append(np.linspace(25.0, 30.0, 16))  # the tail samples
    assert all(np.array_equal(y, w) for y, w in zip(seen, want, strict=True))


def test_non_finite_row_entry_reported():
    def bad(y):
        return np.where(y > 2.0, float("nan"), 1.0)

    with pytest.raises(ValueError, match="non-finite integrand at y=") as one:
        integrate_halfline(bad, 1e-2)
    with pytest.raises(ValueError, match="non-finite integrand at y=") as rows:
        integrate_halfline(lambda y: np.stack([np.ones_like(y), bad(y)]), 1e-2)
    assert str(rows.value) == str(one.value)
