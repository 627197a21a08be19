"""Truncated-Taylor scalars for exact pointwise differentiation.

Jet2 propagates (value, first derivative) of a function of one variable
through arithmetic; Dual4 propagates a value and a 4-component
gradient for fields on a flat chart.  Both are dtype-agnostic: they work
with float, np.longdouble or Fraction coefficients, so closed-form profiles
can be evaluated in extended precision where residual tolerances demand it.
Both also take arrays elementwise: a Dual4 over n points has values of
shape (n,) and a gradient of shape (4, n).
"""

from __future__ import annotations

import numpy as np


class Jet2:
    """First-order jet (f, f') of a scalar function of y."""

    __slots__ = ("f", "d1")

    def __init__(self, f, d1=0.0):
        self.f = f
        self.d1 = d1

    @staticmethod
    def var(y):
        return Jet2(y, y * 0 + 1)

    def __add__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.f + o.f, self.d1 + o.d1)
        return Jet2(self.f + o, self.d1)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.f, -self.d1)

    def __sub__(self, o):
        return self + (-o if isinstance(o, Jet2) else -o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Jet2):
            return Jet2(self.f * o.f, self.f * o.d1 + self.d1 * o.f)
        return Jet2(self.f * o, self.d1 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet2):
            return self * o._reciprocal()
        return Jet2(self.f / o, self.d1 / o)

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        inv = 1 / self.f
        return Jet2(inv, -self.d1 * inv * inv)


class Dual4:
    """First-order dual number with a 4-component gradient (x1, x2, x3, y).

    The value is a scalar or an array of points; the gradient carries the
    partials along a leading axis of length 4, shape (4,) + value shape.
    """

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.f = f
        self.g = g

    @staticmethod
    def vars(x1, x2, x3, y):
        """Coordinate duals; the coordinates are scalars or equal-shape arrays."""
        def mk(v, k):
            g = np.zeros((4,) + np.shape(v), dtype=np.result_type(v))
            g[k] = 1
            return Dual4(v, g)

        return mk(x1, 0), mk(x2, 1), mk(x3, 2), mk(y, 3)

    def __add__(self, o):
        if isinstance(o, Dual4):
            return Dual4(self.f + o.f, self.g + o.g)
        return Dual4(self.f + o, self.g)

    __radd__ = __add__

    def __neg__(self):
        return Dual4(-self.f, -self.g)

    def __sub__(self, o):
        return self + (-o if isinstance(o, Dual4) else -o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual4):
            return Dual4(self.f * o.f, self.f * o.g + o.f * self.g)
        return Dual4(self.f * o, self.g * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual4):
            inv = 1 / o.f
            return Dual4(self.f * inv, (self.g - (self.f * inv) * o.g) * inv)
        return Dual4(self.f / o, self.g / o)

    def __rtruediv__(self, o):
        inv = 1 / self.f
        return Dual4(o * inv, -(o * inv * inv) * self.g)


def expm1(x: Jet2) -> Jet2:
    """exp(x) - 1, accurate near x = 0; derivatives coincide with exp."""
    return Jet2(np.expm1(x.f), np.exp(x.f) * x.d1)


def sqrt(x: Dual4) -> Dual4:
    r = np.sqrt(x.f)
    return Dual4(r, x.g / (2 * r))
