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


def norm(u):
    """|u|, a float for an element and an (n,) array for a stack."""
    return np.sqrt(np.asarray(norm_sq(u), dtype=float))


def ad_rotate(axis, angle, u):
    """Adjoint rotation of u about the given axis (Rodrigues formula); axis
    and u are elements or (3, n) stacks, angle a float or an (n,) array.

    The adjoint action of SU(2) on su(2) is the SO(3) rotation of the
    coefficient vector; it preserves both bracket and inner product.
    """
    ax = np.asarray(axis, dtype=float)
    nrm = np.sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
    if np.any(nrm == 0.0):
        raise ValueError("degenerate rotation axis")
    n = ax / nrm
    uc = np.asarray(u, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    ndotu = n[0] * uc[0] + n[1] * uc[1] + n[2] * uc[2]
    return c * uc + s * bracket(n, uc) + (1 - c) * ndotu * n
