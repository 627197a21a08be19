"""Truncated-Taylor scalars for exact pointwise differentiation.

A Jet propagates a value and its first derivatives through arithmetic.
Jet.var(y) is the jet of one variable: the derivative has the value's
shape.  Jet.vars(x1, x2, x3, y) are the jets of several: the derivative
carries the partials along a leading axis, shape (4,) + value shape.  One
set of rules serves both, so a profile expression in y gives the same
floats on either kind.  Jets are dtype-agnostic: they work with float,
np.longdouble or Fraction coefficients, so closed-form profiles can be
evaluated in extended precision where residual tolerances demand it, and
they take arrays elementwise.
"""

from __future__ import annotations

import numpy as np


class Jet:
    """First-order jet (f, d) of a function of one or several variables."""

    __slots__ = ("f", "d")

    def __init__(self, f, d):
        self.f = f
        self.d = d

    @classmethod
    def var(cls, y):
        return cls(y, y * 0 + 1)

    @staticmethod
    def vars(*xs):
        """Coordinate jets; the coordinates are scalars or equal-shape arrays."""
        def mk(v, k):
            d = np.zeros((len(xs),) + np.shape(v), dtype=np.result_type(v))
            d[k] = 1
            return Jet(v, d)

        return tuple(mk(v, k) for k, v in enumerate(xs))

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.f + o.f, self.d + o.d)
        return Jet(self.f + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.d)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Jet):
            return Jet(self.f * o.f, self.f * o.d + self.d * o.f)
        return Jet(self.f * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * o._reciprocal()
        return Jet(self.f / o, self.d / o)

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        inv = 1 / self.f
        return Jet(inv, -self.d * inv * inv)


def expm1(x: Jet) -> Jet:
    """exp(x) - 1, accurate near x = 0; derivatives coincide with exp."""
    return Jet(np.expm1(x.f), np.exp(x.f) * x.d)


def sqrt(x: Jet) -> Jet:
    r = np.sqrt(x.f)
    return Jet(r, x.d / (2 * r))
