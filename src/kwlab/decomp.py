"""Isotypic splitting V1 + V2 + V3 of the invariant 1-forms, exactly.

Under the diagonal adjoint action the nine-dimensional space of coefficient
matrices splits into the span of omega (trace part), the antisymmetric
matrices (spanned by mu_1, mu_2, mu_3) and the traceless symmetric matrices
(spanned by nu_1, nu_2, nu_3, nu_12, nu_13).  The operator *3[omega, . ] is
scalar on each piece with eigenvalues (2, 1, -1), in that order.

Everything here runs on int64 matrices at a stated integer scale, so every
claim is an exact integer comparison and no rational or irrational number is
ever formed:

- the basis vectors are integer matrices, omega the identity;
- ``project6(i, v)`` is 6 times the projection onto V^i, an integer matrix
  on integer v (``project`` divides it by 6);
- the quadratic star *3(v ^ v) enters as the engine's bracket-wedge
  [v ^ v] = 2 *3(v ^ v), so the star table compares [v ^ v] with 2 t e;
- magnitudes are sums of squared entries: |project(1, *3(v ^ v))| =
  |omega|/3 reads sum project6(1, [v ^ v])^2 = 48;
- t1 e1 = (omega + nu_12 + nu_13)/3 reads 3 t1 e1 = omega + nu_12 + nu_13.

The displayed star table for the nu basis vectors is reproduced up to a
global sign (the engine orientation that yields eigenvalues (2, 1, -1) gives
*3(nu ^ nu) = -t_i e_i); the sign is recorded and the orientation-free
consequences (orthogonality to V1, the projection magnitudes behind the
quadratic-projection equalities) are asserted exactly.

The splitting's claims are linear or bilinear in v, so ``basis_identities``
proves them for every v as 9 x 9 integer identities on the unit matrices.
The last is the quadratic-projection lemma |L(v, v)| <= B(v, v), with
L(u, v) = 3 tr [u ^ v] - 2 tr u tr v and B(u, v) = 3 <u, v>_F - tr u tr v:
6 (B - L) = Gram(P_3) and 6 (B + L) = Gram(P_2), P_i = project6(i, .), so
B -+ L >= 0, with |L| = B exactly where P_3 v = 0 or P_2 v = 0.

The seeded suite exercises the engine on that claim: it draws small integer
vectors and checks them a block at a time as int64 stacks, under the
overflow bound stated above ENTRY_BOUND.  A block's entries are drawn in
bulk, with one ``getrandbits`` call on the suite's ``random.Random(seed)``
and a top-up call when too few of its words are kept.  These 32-bit
Mersenne Twister words are the ones that one ``randint(-27, 27)`` per entry
would read, and keeping each word's top 6 bits when they are below 55, as
``randint`` does, gives the same values: a seed gives the same vectors as
drawing each entry on its own.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .forms import wedge_bracket_matrix
from .report import CheckReport, make_check

MU = (
    np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),   # t2 e3 - t3 e2
    np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),   # t3 e1 - t1 e3
    np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),   # t1 e2 - t2 e1
)
NU = (
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),    # t2 e3 + t3 e2
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),    # t3 e1 + t1 e3
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),    # t1 e2 + t2 e1
)
NU_12 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]])  # t1 e1 - t2 e2
NU_13 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]])  # t1 e1 - t3 e3


EIGENVALUES = (2, 1, -1)  # of *3[omega, . ] on V1, V2, V3
_I3 = np.eye(3, dtype=np.int64)  # omega's coefficients as integers


class DecompBasis(NamedTuple):
    v1: tuple
    v2: tuple
    v3: tuple


def basis() -> DecompBasis:
    return DecompBasis(v1=(_I3,), v2=MU, v3=NU + (NU_12, NU_13))


def project6(i: int, m):
    """6 times the orthogonal projection onto V^i, on a (3, 3) matrix or a
    (3, 3, n) stack; integer on integer input."""
    tr = np.zeros_like(m)
    tr[[0, 1, 2], [0, 1, 2]] = m[0][0] + m[1][1] + m[2][2]
    if i == 1:
        return 2 * tr
    mt = m.swapaxes(0, 1)
    if i == 2:
        return 3 * (m - mt)
    if i == 3:
        return 3 * (m + mt) - 2 * tr
    raise ValueError("projection index must be 1, 2 or 3")


def project(i: int, m):
    """Orthogonal projection onto V^i: trace part, antisymmetric part, or
    traceless symmetric part of the coefficient matrix."""
    return project6(i, m) / 6


def omega_bracket(v):
    """*3 [omega, v] as a 1-form; equals tr(v) I - v^T on coefficients."""
    return wedge_bracket_matrix(_I3, v)


def _exact(check_id, holds: bool, note, provenance="reference") -> CheckReport:
    """An exact table entry: computed 1 if it holds, else 0, against 1 at
    zero tolerance."""
    return make_check(check_id, note, computed=1.0 if holds else 0.0,
                      expected=1.0, tolerance=0.0, provenance=provenance)


def omega_bracket_eigencheck() -> list:
    """Exact eigenvalue table of *3[omega, . ] on all nine basis vectors."""
    out = []
    for i, (vecs, lam) in enumerate(zip(basis(), EIGENVALUES), 1):
        for k, v in enumerate(vecs):
            out.append(_exact(f"eigen-table-v{i}-{k}",
                              np.array_equal(omega_bracket(v), lam * v),
                              f"*3[omega, .] acts on V^{i} with eigenvalue {lam}"))
    return out


def _te(i):
    """t_i e_i: the matrix with a single 1, at (i, i)."""
    return np.diag(_I3[i])


def appendix_star_table() -> list:
    """Exact verification of the quadratic star table on the basis vectors,
    at the scales stated in the module docstring.

    mu entries match the displayed table on the nose; nu entries come out
    with a global minus sign under the engine orientation (recorded here as
    a regression value, reported per entry), and the consequences that the
    quadratic-projection argument actually uses -- orthogonality to V1 and
    the projection magnitude 1/3 |omega| -- are asserted exactly.
    """
    checks = []
    zero = 0 * _I3

    def expect(check_id, got, want, note, provenance="reference"):
        checks.append(_exact(check_id, np.array_equal(got, want), note,
                             provenance))

    # [v ^ v] = 2 *3(v ^ v)
    for k in range(3):
        expect(
            f"star-table-mu{k + 1}",
            wedge_bracket_matrix(MU[k], MU[k]),
            2 * _te(k),
            f"*3(mu{k + 1} ^ mu{k + 1}) = t{k + 1} e{k + 1}",
        )

    # engine sign for the symmetric basis: *3(nu ^ nu) = -(t e) entrywise
    nu_cases = [(f"star-table-nu{k + 1}", NU[k], _te(k)) for k in range(3)]
    nu_cases += [
        ("star-table-nu12", NU_12, _te(2)),
        ("star-table-nu13", NU_13, _te(1)),
    ]
    for cid, v, te in nu_cases:
        expect(cid, wedge_bracket_matrix(v, v), -2 * te,
               "quadratic star of a symmetric basis vector, engine sign -1",
               provenance="derived")
        checks.append(
            make_check(
                cid + "-sign",
                "sign relative to the displayed table (orientation artifact)",
                computed=-1.0,
                info=True,
                provenance="derived",
            )
        )

    # cross brackets leave no trace part
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            expect(
                f"star-table-mu{a + 1}{b + 1}-perp",
                project6(1, wedge_bracket_matrix(MU[a], MU[b])),
                zero,
                "*3[mu_i, mu_j] is orthogonal to V1 for i != j",
            )
    # cross brackets of *orthogonal* symmetric basis pairs are perpendicular
    # to V1; the two diagonal vectors are not orthogonal to each other
    # (<nu_12, nu_13> = 1/2) and their bracket picks up the V1 part that
    # reconciles the quadratic-projection equality on non-orthogonal input.
    sym = (NU[0], NU[1], NU[2], NU_12, NU_13)
    for a in range(len(sym)):
        for b in range(len(sym)):
            if a == b or {a, b} == {3, 4}:
                continue
            expect(
                f"star-table-nu-bracket-{a}{b}-perp",
                project6(1, wedge_bracket_matrix(sym[a], sym[b])),
                zero,
                "*3[nu_a, nu_b] is orthogonal to V1 for orthogonal pairs",
            )
    # V1 part -(1/3) omega, times 6
    expect("star-table-nu-diag-bracket-v1",
           project6(1, wedge_bracket_matrix(NU_12, NU_13)), -2 * _I3,
           "V1 part of *3[nu_12, nu_13] (non-orthogonal pair), engine value "
           "-(1/3) omega", provenance="derived")

    # resolution of a diagonal coefficient form in the omega/nu basis, times 3
    expect(
        "star-table-te-decomposition",
        3 * _te(0),
        _I3 + NU_12 + NU_13,
        "t1 e1 = (omega + nu_12 + nu_13)/3",
    )

    # projection magnitudes used by the quadratic-projection equalities:
    # |omega/3|^2 = 1/6, so the 12-fold projection of [v ^ v] has entries
    # whose squares sum to 2 * 144 / 6 = 48
    for name, v in (("mu1", MU[0]), ("nu1", NU[0]), ("nu12", NU_12)):
        checks.append(_exact(
            f"star-table-{name}-v1-magnitude",
            _sum_sq(project6(1, wedge_bracket_matrix(v, v))) == 48,
            "projection of the quadratic star onto V1 has magnitude |omega|/3"))
    return checks


def basis_identities() -> list:
    """The splitting's claims as exact 9 x 9 integer identities, one entry
    each: the engine's kernels run on the nine unit matrices, stacked as
    one (3, 3, 9) array, and a kernel's output on the stack, reshaped to
    (9, 9), is its matrix on row-major coefficients."""
    e = np.eye(9, dtype=np.int64).reshape(3, 3, 9)
    gram = lambda p: np.einsum("ack,acl->kl", p, p)  # <p_k, p_l>_F
    parts = [project6(i, e) for i in (1, 2, 3)]
    twice = [[project6(j, p) for j in (1, 2, 3)] for p in parts]  # P_j P_i
    tr_e = np.outer(np.trace(e), np.trace(e))
    # L and B on all 81 pairs of unit matrices
    wedge = wedge_bracket_matrix(e[:, :, :, None], e[:, :, None, :])
    l, b = 3 * np.trace(wedge) - 2 * tr_e, 3 * gram(e) - tr_e
    return [
        _exact("decomposition-completeness",
               np.array_equal(sum(parts), 6 * e),
               "P_1 + P_2 + P_3 = 6 for P_i = project6(i, .)"),
        _exact("decomposition-idempotence",
               all(np.array_equal(twice[i][i], 6 * p)
                   for i, p in enumerate(parts)),
               "P_i P_i = 6 P_i"),
        _exact("decomposition-orthogonality",
               not any(twice[i][j].any()
                       for i in range(3) for j in range(3) if j != i),
               "P_j P_i = 0 for j != i"),
        _exact("decomposition-self-adjoint",
               all(np.array_equal(m, m.T) for m in
                   (p.reshape(9, 9) for p in parts)),
               "each P_i is symmetric; with orthogonality, Pythagoras"),
        _exact("decomposition-eigen-relation",
               all(np.array_equal(omega_bracket(p), lam * p)
                   for p, lam in zip(parts, EIGENVALUES)),
               "*3[omega, P_i v] = lambda_i P_i v"),
        _exact("decomposition-lemma-gram",
               np.array_equal(6 * (b - l), gram(parts[2]))
               and np.array_equal(6 * (b + l), gram(parts[1])),
               "6 (B - L) = Gram(P_3) and 6 (B + L) = Gram(P_2), so "
               "|L(v, v)| <= B(v, v) for every v"),
    ]


# The seeded suite on int64 blocks.  Overflow bound for |v| <= B =
# ENTRY_BOUND: [u ^ w] has entries <= 4 max|u| max|w|, so S = [v ^ v] has
# entries <= 4 B^2 and both squares of the claim are <= (54 B^2)^2 < 2^35,
# below 2^62.

ENTRY_BOUND = 54  # |entry| of a drawn vector: 27, or 54 on the pure3 trace
BLOCK = 1000  # vectors per int64 block

# Vector k has kind k % 3: pure2, pure3 or mixed.  A kind's entries are a
# linear formula in its values, drawn in order as rng.randint(-27, 27).
# Integer vectors lose no generality: the quadratic projection claim is
# homogeneous.
_KINDS = (
    (3, lambda x, y, z: [[0 * x, z, -y], [-z, 0 * x, x], [y, -x, 0 * x]]),
    (5, lambda x, y, z, s, t: [[s, z, y], [z, t, x], [y, x, -s - t]]),
    (9, lambda *e: [e[0:3], e[3:6], e[6:9]]),
)
# randint(-27, 27) is -27 + randrange(55), and randrange(55) tries the top
# 6 bits of one 32-bit Mersenne Twister word, again while they are >= 55
_LOW, _SPAN = -27, 55
_TRY_BITS = _SPAN.bit_length()


def _draw_values(rng: random.Random, count: int, carry):
    """The next ``count`` values of ``rng.randint(-27, 27)``, starting with
    the int64 array ``carry`` drawn earlier, and the values drawn past them.

    ``getrandbits(32 m)`` is the next m words of the stream, the first one
    least significant, so the tries are the words' top 6 bits and the kept
    tries are randint's values in order.  Each call asks for the words
    that the missing values take on average (64/55 each); a short round
    asks again for the rest.
    """
    kept, have = [carry], len(carry)
    while have < count:
        words = -(-(count - have) * 2**_TRY_BITS // _SPAN)  # rounded up
        stream = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        tries = np.frombuffer(stream, "<u4") >> (32 - _TRY_BITS)
        kept.append(tries[tries < _SPAN].astype(np.int64) + _LOW)
        have += len(kept[-1])
    vals = np.concatenate(kept)
    return vals[:count], vals[count:]


def _draw_block(rng, kinds, carry):
    """The (3, 3, m) int64 stack of vectors of the given kinds, and the
    values drawn past them (see _draw_values)."""
    sizes = np.array([size for size, _ in _KINDS])[kinds]
    start = np.cumsum(sizes) - sizes  # of each vector's values
    vals, carry = _draw_values(rng, int(sizes.sum()), carry)
    v = np.empty((3, 3, len(kinds)), np.int64)
    for kind, (size, entries) in enumerate(_KINDS):
        sel = kinds == kind
        v[:, :, sel] = entries(*vals[start[sel] + np.arange(size)[:, None]])
    return v, carry


def _vector_blocks(seed: int, n: int):
    """The suite's n vectors, BLOCK at a time, as (indices, (3, 3, m) int64
    stack): bit for bit the vectors that one randint call per value from
    ``random.Random(seed)`` gives."""
    rng = random.Random(seed)
    carry = np.empty(0, np.int64)
    for k0 in range(0, n, BLOCK):
        ks = np.arange(k0, min(k0 + BLOCK, n))
        v, carry = _draw_block(rng, ks % 3, carry)
        yield ks, v


def _sum_sq(m):
    return (m * m).sum(axis=(0, 1))


def quadratic_projection_slack_sq(v) -> tuple:
    """(scaled lhs^2, scaled bound^2) of the quadratic projection claim for
    an integer (3, 3, m) stack, exact, as two length-m int64 arrays.

    With S = [v ^ v] from the engine, the V1 part of *3(v^v) minus
    *3(v1 ^ v1) has omega-coefficient L(v, v)/18 = (3 tr S - 2 (tr v)^2)/18,
    and the bound is B(v, v)/(6 sqrt 6) = (3 |v|_F^2 - (tr v)^2)/(6 sqrt 6);
    both sides are compared after multiplying by (6 sqrt 6)^2.  Raises
    ValueError outside the proven overflow bound instead of wrapping.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "iu" or np.any((v < -ENTRY_BOUND) | (v > ENTRY_BOUND)):
        raise ValueError(f"need integer entries within +-{ENTRY_BOUND}")
    v = v.astype(np.int64, copy=False)
    s = wedge_bracket_matrix(v, v)
    tr_s = s[0][0] + s[1][1] + s[2][2]
    tr_v = v[0][0] + v[1][1] + v[2][2]
    lhs_scaled_sq = (3 * tr_s - 2 * tr_v * tr_v) ** 2
    bound_scaled_sq = (3 * _sum_sq(v) - tr_v * tr_v) ** 2
    return lhs_scaled_sq, bound_scaled_sq


def decomposition_suite(seed: int, n: int) -> CheckReport:
    """Monte-Carlo exercise of the engine on the quadratic-projection claim,
    which ``basis_identities`` proves for every v.

    Every vector goes through the engine's wedge bracket and the exact
    comparison of quadratic_projection_slack_sq: equality on pure types,
    the bound on mixed vectors, whose least slack is reported (a pure
    vector's slack is 0).  The vectors are drawn and checked BLOCK at a
    time as int64 stacks; a failure reports the first failing vector.
    Vector k has kind pure2, pure3 or mixed by k % 3, and its entries are
    the values of ``random.Random(seed).randint(-27, 27)`` in order, read in
    bulk from the generator's words (see _draw_values).
    """
    if n < 1:
        raise ValueError("empty suite")
    slack = []
    for ks, v in _vector_blocks(seed, n):
        lhs_sq, bound_sq = quadratic_projection_slack_sq(v)
        mixed = ks % 3 == 2
        failed = np.where(mixed, lhs_sq > bound_sq, lhs_sq != bound_sq)
        if failed.any():
            k = np.flatnonzero(failed)[0]
            return make_check(
                "decomposition-suite",
                ("projection bound violated" if mixed[k]
                 else "pure-type equality failed") + f" at vector {ks[k]}",
                computed=float(ks[k]), ok=False)
        slack.append((bound_sq - lhs_sq)[mixed])
    slack = np.concatenate(slack)
    worst = int(slack.min()) if slack.size else None  # none mixed below n = 3
    return make_check(
        "decomposition-suite",
        f"{n} seeded vectors through the engine wedge bracket and the "
        f"quadratic projection claim; least slack of the {slack.size} mixed "
        "vectors",
        computed=worst,
        ok=True,
        provenance="derived",
        extra={"n": n, "seed": seed,
               "worst_slack_sq": None if worst is None else str(worst)},
    )
