"""Composite Gauss-Legendre quadrature for half-line energy integrals.

Integrals over S^3 x {y > lo} of invariant densities reduce to
vol(S^3) * int_lo^inf f(y) dy with vol(S^3) = 2 pi^2.  The lower limit lo
picks the head of the layout on [lo, Y_SPLIT]: uniform panels from lo = 0,
where the densities are continuous; a geometric panel ladder from a cutoff
0 < lo < Y_SPLIT (profiles behave like powers of y near the pole); none
from lo >= Y_SPLIT.  Uniform panels follow up to Y_MAX, and an exponential
tail beyond Y_MAX is left out of the value and covered by a truncation
bound (densities of the reference solution fall off like e^{-4y}).

integrate_halfline and integrate_head (the head alone, [0, Y_SPLIT]) return
(value, error_estimate): the estimate compares PANELS panels a part with
twice as many, and integrate_halfline adds the tail remainder.  The rules
they double, integrate_panels on one edge array and integrate_layout (the
parts of a layout added left to right), return a bare value.

An integrand takes the 1-D array of the nodes of a layout.  It returns one
value per node, or rows of them, shape (k, n): then every integral gives
back (k,) values and (k,) error estimates.  Each row adds up in one fixed
order: nodes in order within a panel, the panel totals left to right (as
builtin sum, not the pairwise np.sum), then the parts of the layout left to
right.  So a row's float is the one its integrand alone would give, and
integrands that share a layout are evaluated in one pass.  The energy
suite keeps to that: each (field, layout) pair is integrated once per run,
as one pass of all the rows its checks read (energy.full_line_norms, then
energy.field_norms and energy.refined_c_model).  The layout is four
constants, read at call time: the head and the body end at Y_SPLIT and
Y_MAX, with PANELS panels (twice as many when fine) of NODES nodes a part.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

VOL_S3 = 2.0 * math.pi**2

TAIL_RATE = 4.0  # exponential envelope rate used for the tail bound

Y_SPLIT = 1.0
Y_MAX = 30.0
PANELS = 24
NODES = 16


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _values(f, y):
    """f on the node array y as floats: y's shape, or rows of it when f
    returns a (k, n) array; f may return a constant."""
    v = np.asarray(f(y), dtype=float)
    return np.broadcast_to(v, v.shape[:-1] + y.shape if v.ndim > 1 else y.shape)


def _scalar(v):
    """A float for a lone integrand, the (k,) array for rows."""
    return float(v) if np.ndim(v) == 0 else v


def integrate_panels(f, edges, nodes: int):
    """Gauss-Legendre rule with `nodes` points on each panel between
    consecutive `edges`.  f is called once, on the 1-D array of every node
    of every panel, and returns a value per node (a float comes back) or
    (k, n) rows (a (k,) array comes back).  In each row, each panel sums
    its nodes in order; the panel totals are then added left to right."""
    x, w = _gl_nodes(nodes)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    y = mid[:, None] + half[:, None] * x
    v = _values(f, y.ravel())
    v = v.reshape(v.shape[:-1] + y.shape)
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(
            f"non-finite integrand at y={np.broadcast_to(y, v.shape)[bad][0]}")
    total = np.zeros(v.shape[:-1])
    for k in range(nodes):
        total = total + w[k] * v[..., k]
    # builtin sum over the panel axis adds left to right; np.sum would sum
    # pairwise
    return _scalar(sum(np.moveaxis(half * total, -1, 0)))


def _tail(f):
    """Bound on the integral beyond Y_MAX, which the value leaves out: the
    envelope constant is estimated from samples, with a x1.5 safety."""
    rate = TAIL_RATE
    ys = np.linspace(max(Y_SPLIT, Y_MAX - 5.0), Y_MAX, 16)
    k = _scalar(np.max(np.abs(_values(f, ys)) * np.exp(rate * ys), axis=-1))
    return 1.5 * k * math.exp(-rate * Y_MAX) / rate


def _doubled(run, panels: int):
    """(fine, |fine - coarse|) of fine = run(2 * panels), coarse = run(panels)."""
    coarse, fine = run(panels), run(panels * 2)
    return fine, abs(fine - coarse)


def halfline_edges(lo: float, panels: int):
    """The edge arrays of the parts of the layout from lo, `panels` panels
    each: the head on [lo, Y_SPLIT] that lo picks, then the body to Y_MAX."""
    body = np.linspace(max(lo, Y_SPLIT), Y_MAX, panels + 1)
    if lo >= Y_SPLIT:
        return (body,)
    head = np.geomspace if lo > 0 else np.linspace
    return head(lo, Y_SPLIT, panels + 1), body


def integrate_layout(f, lo: float, panels: int):
    """int_lo^Y_MAX f(y) dy on halfline_edges(lo, panels): one rule per part,
    the parts added left to right; no error estimate and no tail."""
    return sum(integrate_panels(f, e, NODES) for e in halfline_edges(lo, panels))


def integrate_halfline(f, lo: float):
    """int_lo^inf f(y) dy by integrate_layout from lo at PANELS against twice
    as many.  f takes an array of nodes and returns the integrand at each."""
    fine, err = _doubled(lambda p: integrate_layout(f, lo, p), PANELS)
    return fine, err + _tail(f)


def integrate_head(f):
    """int_0^Y_SPLIT f dy on the head of the from-zero layout,
    halfline_edges(0.0, p)[0], at PANELS panels against twice as many."""
    return _doubled(
        lambda p: integrate_panels(f, halfline_edges(0.0, p)[0], NODES), PANELS)


def l2_norm_sq(density, lo: float):
    """vol(S^3) * int_lo^inf density dy, density a pointwise norm^2."""
    v, e = integrate_halfline(density, lo)
    return VOL_S3 * v, VOL_S3 * e
