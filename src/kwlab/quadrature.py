"""Composite Gauss-Legendre quadrature for half-line energy integrals.

Integrals over S^3 x {y > lo} of invariant densities reduce to
vol(S^3) * int_lo^inf f(y) dy with vol(S^3) = 2 pi^2.  The lower limit lo
picks the head of the layout on [lo, Y_SPLIT]: uniform panels from lo = 0,
where the densities are continuous; a geometric panel ladder from a cutoff
0 < lo < Y_SPLIT (profiles behave like powers of y near the pole); none
from lo >= Y_SPLIT.  Uniform panels follow up to Y_MAX, and an exponential
tail beyond Y_MAX is left out of the value and covered by a truncation
bound (densities of the reference solution fall off like e^{-4y}).

integrate_halfline returns (value, error_estimate): the estimate compares
PANELS panels a part with twice as many and adds the tail remainder.  It is
built from parts that a caller may also keep and add itself: doubled_sums,
the (coarse, fine) sums of one part of a layout, tail_bound, and
halfline_total, which adds the parts of a layout left to right and is the
one place that forms the estimate |fine - coarse| + tail.  A caller that
needs only a value integrates the fine layout alone, with no coarse sum and
no tail: integrate_panels on the edges of one part (the perturbation
chain's head and body), integrate_layout on all of them; both return a bare
value.

An integrand takes the 1-D array of the nodes of a layout.  It returns one
value per node, or rows of them, shape (k, n): then every integral gives
back (k,) values and (k,) error estimates.  Each row adds up in one fixed
order: nodes in order within a panel, the panel totals left to right, each
sum from 0 (np.add.accumulate; np.sum would add pairwise), then the parts
of the layout left to right.  So a row's float is the one its integrand
alone would give, and integrands that share a layout are evaluated in one
pass.  The energy suite keeps to that: the reference solution's body and
tail are integrated once per run, on the rows of every pass that shares
them and on the model's charge (energy.from_zero_pass), and each pass from
a cutoff integrates only its own head and adds the kept body
(energy.field_norms); only the refined c_model value
(energy.refined_c_model) has a layout of its own.  The
layout is three constants, read at call time: the head and the body end at
Y_SPLIT and Y_MAX, with PANELS panels (twice as many when fine).  The rule
is the 16-node Gauss-Legendre rule on each panel, a literal table equal to
numpy.polynomial.legendre.leggauss(16) bit for bit, so that no run loads
numpy.polynomial.
"""

from __future__ import annotations

import math

import numpy as np

VOL_S3 = 2.0 * math.pi**2

TAIL_RATE = 4.0  # exponential envelope rate used for the tail bound

Y_SPLIT = 1.0
Y_MAX = 30.0
PANELS = 24

# the lower limit of the energy suite's at_eps pass, which the balances
# read; every verify report's meta states it, so it is kept here, with the
# layout, where a suite that never integrates reads it too
IDENTITY_EPS = 0.05

# the nonnegative half of the 16-node Gauss-Legendre rule on [-1, 1]:
# (node, weight), nodes ascending; the rule is symmetric bit for bit
_GL_HALF = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_GL_X = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_W = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
NODES = len(_GL_X)  # the rule's nodes on each panel


def _values(f, y):
    """f on the node array y as floats: a value per node, or rows of them
    when f returns a (k, n) array."""
    return np.asarray(f(y), dtype=float)


def _scalar(v):
    """A float for a lone integrand, the (k,) array for rows."""
    return float(v) if np.ndim(v) == 0 else v


def integrate_panels(f, edges, nodes: int):
    """The Gauss-Legendre rule with NODES points on each panel between
    consecutive `edges`; any other `nodes` is refused.  f is called once, on
    the 1-D array of every node of every panel, and returns a value per node
    (a float comes back) or (k, n) rows (a (k,) array comes back).  In each
    row, each panel sums its nodes in order; the panel totals are then added
    left to right."""
    if nodes != _GL_X.size:
        raise ValueError(f"the rule has {_GL_X.size} nodes a panel, not {nodes}")
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    y = mid[:, None] + half[:, None] * _GL_X
    v = _values(f, y.ravel())
    v = v.reshape(v.shape[:-1] + y.shape)
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError(
            f"non-finite integrand at y={np.broadcast_to(y, v.shape)[bad][0]}")
    return _scalar(_running_sum(half * _running_sum(_GL_W * v)))


def _running_sum(a):
    """a summed over its last axis from 0, left to right."""
    return 0.0 + np.add.accumulate(a, axis=-1)[..., -1]


def tail_bound(f):
    """Bound on the integral beyond Y_MAX, which the value leaves out: the
    envelope constant is estimated from 16 samples, with a x1.5 safety."""
    rate = TAIL_RATE
    ys = np.linspace(max(Y_SPLIT, Y_MAX - 5.0), Y_MAX, 16)
    k = _scalar(np.max(np.abs(_values(f, ys)) * np.exp(rate * ys), axis=-1))
    return 1.5 * k * math.exp(-rate * Y_MAX) / rate


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


def doubled_sums(f, lo: float, part: int):
    """(coarse, fine): the rule on part `part` (0 the first, -1 the body) of
    halfline_edges(lo, p) at p = PANELS and twice as many."""
    return tuple(integrate_panels(f, halfline_edges(lo, p)[part], NODES)
                 for p in (PANELS, 2 * PANELS))


def halfline_total(parts, tail):
    """(value, error estimate) of int_lo^inf from the doubled_sums of the
    parts of the layout from lo, in order, and their tail_bound: the fine
    parts added left to right, and |fine - coarse| plus the tail."""
    coarse, fine = (sum(sums) for sums in zip(*parts))
    return fine, abs(fine - coarse) + tail


def integrate_halfline(f, lo: float):
    """int_lo^inf f(y) dy on the layout from lo at PANELS panels a part
    against twice as many.  f takes an array of nodes and returns the
    integrand at each."""
    parts = [doubled_sums(f, lo, i) for i in range(len(halfline_edges(lo, 1)))]
    return halfline_total(parts, tail_bound(f))
