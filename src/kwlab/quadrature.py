"""Composite Gauss-Legendre quadrature for half-line energy integrals.

Integrals over S^3 x {y > eps} of invariant densities reduce to
vol(S^3) * int f(y) dy with vol(S^3) = 2 pi^2.  The y-axis is split into a
geometric panel ladder on [eps, y_split] (profiles behave like powers of y
near the pole), uniform panels on [y_split, y_max], and an exponential tail
beyond y_max, left out of the value and covered by a truncation bound
(densities of the reference solution fall off like e^{-4y}).

Every integral returns (value, error_estimate); the estimate combines a
panel-doubling comparison with the tail remainder.

An integrand takes the 1-D array of the nodes of a layout.  It returns one
value per node, or rows of them, shape (k, n): then every integral gives
back (k,) values and (k,) error estimates.  Each row adds up in one fixed
order: nodes in order within a panel, the panel totals left to right (as
builtin sum, not the pairwise np.sum), then the parts of the layout left to
right.  So a row's float is the one its integrand alone would give, and
integrands that share a layout are evaluated in one pass.  The energy
suite keeps to that: each (field, layout) pair is integrated once per run,
as one pass of all the rows its checks read (energy.field_norms), with one
exception: the refined c-model-stability pass evaluates the fine layout of
the from-zero pass (48 panels, twice the layout's 24) a second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

VOL_S3 = 2.0 * math.pi**2

TAIL_RATE = 4.0  # exponential envelope rate used for the tail bound


@dataclass(frozen=True)
class QuadratureSpec:
    """A panel layout of the half-line.  The defaults are the lab's layout,
    on which the energy suite and the energy command integrate; the cutoff
    eps = 0.05 is that of the identities above the cutoff."""

    eps: float = 0.05
    y_split: float = 1.0
    y_max: float = 30.0
    panels: int = 24
    nodes_per_panel: int = 16

    def refined(self) -> "QuadratureSpec":
        return replace(self, panels=self.panels * 2)

    def with_eps(self, eps: float) -> "QuadratureSpec":
        return replace(self, eps=eps)


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


_MATH_EXP = np.frompyfunc(math.exp, 1, 1)


def _values(f, y):
    """f on the node array y as floats: y's shape, or rows of it when f
    returns a (k, n) array; f may return a constant."""
    v = np.asarray(f(y), dtype=float)
    return np.broadcast_to(v, v.shape[:-1] + y.shape if v.ndim > 1 else y.shape)


def _scalar(v):
    """A float for a lone integrand, the (k,) array for rows."""
    return float(v) if np.ndim(v) == 0 else v


def exp_nodes(x):
    """math.exp of every node of x.  np.exp differs from math.exp in the last
    bit for some inputs, so envelope constants keep their scalar values."""
    return _MATH_EXP(x).astype(float)


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


def _tail(f, spec: QuadratureSpec):
    """Bound on the integral beyond y_max, which the value leaves out: the
    envelope constant is estimated from samples, with a x1.5 safety."""
    rate = TAIL_RATE
    ys = np.linspace(max(spec.y_split, spec.y_max - 5.0), spec.y_max, 16)
    k = _scalar(np.max(np.abs(_values(f, ys)) * exp_nodes(rate * ys), axis=-1))
    return 1.5 * k * math.exp(-rate * spec.y_max) / rate


def _doubled(f, layout, panels: int, nodes: int):
    """(fine, |fine - coarse|) for the rule on layout(2 * panels) against
    layout(panels).  layout(p) gives the edge arrays of consecutive parts,
    each with p panels; their integrals are added in that order."""
    def run(p: int):
        return sum(integrate_panels(f, edges, nodes) for edges in layout(p))

    coarse = run(panels)
    fine = run(panels * 2)
    return fine, abs(fine - coarse)


def _halfline(f, spec: QuadratureSpec, lo: float, head_edges):
    """Head [lo, y_split] with edges head_edges(lo, y_split, panels + 1)
    (np.geomspace or np.linspace), uniform body up to y_max, and the tail
    bound beyond it."""
    fine, err = _doubled(
        f, lambda p: (head_edges(lo, spec.y_split, p + 1),
                      np.linspace(spec.y_split, spec.y_max, p + 1)),
        spec.panels, spec.nodes_per_panel)
    return fine, err + _tail(f, spec)


def integrate_halfline(f, spec: QuadratureSpec, geometric_head: bool = True):
    """int_{eps}^{inf} f(y) dy with the panel layout described above; f
    takes an array of nodes and returns the integrand at each."""
    return _halfline(f, spec, spec.eps,
                     np.geomspace if geometric_head else np.linspace)


def integrate_smooth_from_zero(f, spec: QuadratureSpec):
    """int_0^inf f dy for integrands continuous at y = 0 (uniform head)."""
    return _halfline(f, spec, 0.0, np.linspace)


def integrate_interval(f, lo: float, hi: float, panels: int = 16, nodes: int = 16):
    """int_lo^hi f dy with a doubling-based error estimate."""
    return _doubled(f, lambda p: (np.linspace(lo, hi, p + 1),), panels, nodes)


def l2_norm_sq(density, spec: QuadratureSpec, from_zero: bool = False):
    """vol(S^3) * int density(y) dy; density must be a pointwise norm^2."""
    v, e = (integrate_smooth_from_zero if from_zero else integrate_halfline)(
        density, spec)
    return VOL_S3 * v, VOL_S3 * e
