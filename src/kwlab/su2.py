"""Coefficient arithmetic for su(2) over the generator basis {t1, t2, t3}.

Conventions fixed here and consumed by every other module:

    [t_i, t_j] = eps_ijk t_k        (bracket = cross product on coefficients)
    <u, v>     = -tr(uv)            (fundamental representation, t_i = -(i/2) sigma_i)

so that <t_i, t_j> = delta_ij / 2 and |t_i|^2 = 1/2.  This normalisation is
what makes |omega|^2 = 3/2 for omega = sum_i t_i e_i and |mu_i| = 1 for the
antisymmetric basis of the middle isotypic component.

An element is its coefficient array along the first axis: a length-3 tuple
or array, or a (3, n) stack of n elements.  Coefficients are integers for
the exact identity checks, floats for numerics; ``bracket`` keeps integer
input integer.  The exact checks state their scale: on integer elements
2 <u, v> is the integer sum of coefficient products, and ``inner`` halves it
into a float, exact below 2^53.
"""

from __future__ import annotations

import math
import numpy as np

T1, T2, T3 = np.eye(3, dtype=np.int64)


def bracket(u, v):
    """Lie bracket [u, v], the cross product along the first axis; integer
    input gives an integer result."""
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def inner(u, v):
    """Invariant inner product, normalised so <t_i, t_j> = delta_ij / 2."""
    # a left-to-right sum of products: np.dot rounds floats differently
    return sum(a * b for a, b in zip(u, v)) / 2


def norm_sq(u):
    return inner(u, u)


def norm(u) -> float:
    return math.sqrt(float(norm_sq(u)))


def ad_rotate(axis, angle: float, u):
    """Adjoint rotation of u about the given axis (Rodrigues formula).

    The adjoint action of SU(2) on su(2) is the SO(3) rotation of the
    coefficient vector; it preserves both bracket and inner product.
    """
    ax = [float(c) for c in axis]
    nrm = math.sqrt(sum(c * c for c in ax))
    if nrm == 0.0:
        raise ValueError("degenerate rotation axis")
    n = [c / nrm for c in ax]
    uc = [float(c) for c in u]
    c, s = math.cos(angle), math.sin(angle)
    ndotu = sum(a * b for a, b in zip(n, uc))
    ncross = [
        n[1] * uc[2] - n[2] * uc[1],
        n[2] * uc[0] - n[0] * uc[2],
        n[0] * uc[1] - n[1] * uc[0],
    ]
    return np.array(
        [c * uc[k] + s * ncross[k] + (1 - c) * ndotu * n[k] for k in range(3)]
    )
