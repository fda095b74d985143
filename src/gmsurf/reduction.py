"""Singular reductions and negativity certificates.

A *reduction* of a symmetric matrix A with non-negative off-diagonal entries
is any matrix A' (symmetry not required) with the same diagonal and
|A'[i][j]| <= A[i][j] off the diagonal.  The structural fact driving the whole
package: A has a *singular* reduction annihilating a non-zero non-negative
vector if and only if A-minus (positive diagonals negated) is not negative
definite.  :func:`find_singular_reduction` makes the forward direction
constructive and exact; :func:`verify_reduction` rechecks any claimed
certificate independently.

The construction is Perron-Frobenius theory for matrices with non-negative
off-diagonal entries (negated M-matrices; Berman and Plemmons, *Nonnegative
Matrices in the Mathematical Sciences*, ch. 6).  Couplings shrink from A to
an exact rational fraction t0 of A that makes the matrix strictly
diagonally dominant.  With a zero diagonal entry one linear solve gives the
reduction; otherwise couplings move one at a time, bisection (an exact
M-matrix test) finds the move on which the Perron root crosses 0, and one
M-matrix solve w = (-S)^{-1} e_i gives both the exact rational crossing
(the matrix determinant lemma) and the annihilated vector w.  Every step is
one sparse elimination with diagonal pivots in minimum-degree order
(:func:`gmsurf.exact_linalg._mmatrix_solve`); no determinant or dense
elimination is taken.  On a connected matrix the annihilated vector is
positive at every index.  The builders read only the nonzero entries of
A-minus (:func:`gmsurf.manifold.a_minus`), and A' keeps A's sparsity: the
certificate holds one ``{column: value}`` dict of nonzero entries per row,
as a :class:`SymMatrix` does, and only its file is dense.

:func:`strict_shrink` prepares the input of the surface builder: one
congruence elimination of A-minus bounds the shrink factor from below, and a
few congruence tests pin it; off the positive-eigenvalue branch, that
elimination's inertia names the branch in :class:`NoPositiveEigenvalueError`.

Both builders keep their values in reduced (numerator, denominator) pairs of
ints between the eliminations of :mod:`gmsurf.exact_linalg`: `Fraction`
enters only as the :class:`SymMatrix` entries they read, once each, and
leaves only as the shrunk matrix and the :class:`ReductionCertificate` they
return.  The verifier and :func:`negativity_certificate` work in `Fraction`.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: it produces a strictly positive vector a with
A*a <= 0 entrywise.  The exact quadratic-form expansion such a vector
induces (the theorem behind reading it as "A is negative") is a test oracle,
not package code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .decision import immersed
from .exact_linalg import (
    SymMatrix,
    _congruence,
    _fraction,
    _inverse,
    _mmatrix_solve,
    _mul,
    _pair_rows,
    _primitive,
    _sum,
    inertia,  # unused here; bench/tests/test_tracer.py checks the tracer replaces this binding
    matrix_components,
    mmatrix_solve,
    pivot_witnesses,
    primitive_vector,
)
from .manifold import a_minus, split_blocks


class NegativeDefiniteError(ValueError):
    """A-minus is negative definite, so no singular reduction exists."""


class NotNegativeError(ValueError):
    """The matrix has a positive eigenvalue, so no negativity certificate exists."""


class NoPositiveEigenvalueError(ValueError):
    """A-minus has no positive eigenvalue, so no strict shrink exists; the message names the branch."""


@dataclass(frozen=True)
class ReductionCertificate:
    """A singular reduction A' of some source matrix plus its annihilated vector.

    ``a_prime`` holds one ``{column: value}`` dict of nonzero entries per
    row and need not be symmetric.  Validity against a source A means:
    identical diagonal, |a_prime[i][j]| <= A[i][j] off the diagonal,
    a_prime . a = 0 exactly, a nonzero with non-negative entries.
    """

    a_prime: tuple[dict[int, Fraction], ...]
    a: tuple[Fraction, ...]

    def has_order(self, n: int) -> bool:
        """True iff ``a`` and ``a_prime`` have n entries and rows, and every
        column of ``a_prime`` lies in 0..n-1."""
        return (
            len(self.a) == len(self.a_prime) == n
            and all(0 <= j < n for row in self.a_prime for j in row)
        )


def _perron_reduction(
    B: list[dict[int, tuple[int, int]]],
) -> tuple[list[dict[int, tuple[int, int]]], list[int]] | None:
    """A singular reduction of a connected B and a strictly positive vector it annihilates.

    B is one ``{column: (numerator, denominator)}`` dict of nonzero entries
    per row, in reduced pairs, with non-positive diagonal and non-negative
    off-diagonal entries; the reduction comes back in the same form and the
    vector as coprime integers.  Returns None iff B is negative definite.
    Let Z be the indices with zero diagonal and N the rest.  Scaling the
    couplings inside N by t0 = min(1, |B_ii| / (2 sum_{j in N} B_ij) over
    i in N) makes B_N strictly diagonally dominant, so -B_N(t0) is a
    nonsingular M-matrix.  Every step is one sparse M-matrix elimination of
    pair rows (:func:`_mmatrix_solve`), and every value between them is a
    pair too: no `Fraction` is made here.

    - Z non-empty (B is not negative definite): rows in Z lose their
      couplings and get weight 1; couplings from N into Z stay; solving
      -B_N(t0) a_N = (the couplings into Z) gives a_N > 0, because the
      inverse of an M-matrix is non-negative and positive on each
      irreducible block, and every block touches Z.
    - Z empty and t0 = 1: B is strictly diagonally dominant, so negative
      definite.
    - Z empty otherwise: move the couplings from B_ij to t0*B_ij one at a
      time, in row-major order.  The Perron root falls monotonically to a
      negative value; bisection over the number of moved couplings, with the
      exact test that -state is a nonsingular M-matrix, finds the coupling
      (i, j) whose move crosses 0, if the root of B itself is >= 0.  Let S
      be the state after that move and w = (-S)^{-1} e_i, positive because
      the inverse of an irreducible nonsingular M-matrix is.  By the matrix
      determinant lemma det(S + d e_i e_j^T) = det(S) (1 - d w_j), so the
      Perron root is 0 at d = 1/w_j, where (S + d e_i e_j^T) w = 0: w spans
      the kernel.  A crossing beyond B_ij means the root of B is already
      negative; one exactly at B_ij means B is singular and is its own
      reduction.

    The vector is primitive: times the lcm of its denominators, over the
    gcd of the numerators (:func:`_primitive`).
    """
    n = len(B)
    rest = [i for i, row in enumerate(B) if i in row]
    t0 = (1, 1)
    for i in rest:
        total = _sum(x for j, x in B[i].items() if j != i and j in B[j])
        if total[0]:
            diagonal = B[i][i]
            bound = _mul((-diagonal[0], diagonal[1]), _inverse(_mul((2, 1), total)))
            if bound[0] * t0[1] < t0[0] * bound[1]:
                t0 = bound

    if len(rest) < n:
        m: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
        for i in rest:
            m[i] = {j: x if j == i or j not in B[j] else _mul(t0, x) for j, x in B[i].items()}
        a = [(1, 1)] * n
        if rest:
            position = {i: r for r, i in enumerate(rest)}
            coupling = [_sum(x for j, x in B[i].items() if j not in position) for i in rest]
            negated = [{position[j]: (-x[0], x[1]) for j, x in m[i].items() if j in position} for i in rest]
            for i, v in zip(rest, _mmatrix_solve(negated, coupling)):
                a[i] = v
        if any(v[0] <= 0 for v in a):
            raise AssertionError("zero-diagonal solve produced a non-positive weight")
        return m, _primitive(a)

    if t0 == (1, 1):
        return None
    # Row-major, ascending column: the row dicts' keys follow no order.
    moves = [(i, j, _mul(t0, x)) for i, row in enumerate(B) for j, x in sorted(row.items()) if i != j]
    negated = [{j: (-x[0], x[1]) for j, x in row.items()} for row in B]

    def negated_state(k: int) -> list[dict[int, tuple[int, int]]]:
        rows = [dict(row) for row in negated]
        for i, j, x in moves[:k]:
            rows[i][j] = (-x[0], x[1])
        return rows

    # The Perron root of state hi is < 0; bisection keeps lo as the last
    # state not shown to be below 0.
    lo, hi = 0, len(moves)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _mmatrix_solve(negated_state(mid)) is None:
            lo = mid
        else:
            hi = mid
    i, j, moved = moves[lo]
    w = _mmatrix_solve(negated_state(hi), [(int(r == i), 1) for r in range(n)])
    if any(v[0] <= 0 for v in w):
        raise AssertionError("kernel vector is not strictly positive")
    crossing = _sum((moved, _inverse(w[j])))
    limit = B[i][j]
    if crossing[0] * limit[1] > limit[0] * crossing[1]:
        return None
    m = [dict(row) for row in B]
    for p, q, x in moves[:lo]:
        m[p][q] = x
    m[i][j] = crossing
    return m, _primitive(w)


def find_singular_reduction(A: SymMatrix) -> ReductionCertificate:
    """Construct a singular reduction of A annihilating a non-negative vector.

    Raises NegativeDefiniteError iff A-minus is negative definite (in which
    case no such reduction exists at all).  Otherwise the first connected
    component of the matrix graph whose block of B = A-minus is not negative
    definite gets a Perron-Frobenius reduction (see :func:`_perron_reduction`,
    which also tells negative definite blocks apart, so no inertia is taken)
    with a strictly positive vector; every other coupling becomes 0 and every
    other weight 0.  On a connected A the vector is positive at every index.
    Positive diagonal entries of A are restored by negating their rows, which
    leaves the kernel unchanged.  Only the nonzero entries are read, each
    once as a (numerator, denominator) pair, and A' keeps only nonzero
    entries: a row outside the component is A's diagonal entry alone.  A'
    and the vector become `Fraction` once, as the certificate.
    """
    sparse, minus = A.sparse, a_minus(A).sparse
    for component in matrix_components(A):
        # A component holds every neighbour of its vertices.
        position = {i: r for r, i in enumerate(component)}
        found = _perron_reduction(
            [{position[j]: (x.numerator, x.denominator) for j, x in minus[i].items()} for i in component]
        )
        if found is not None:
            break
    else:
        raise NegativeDefiniteError("A-minus is negative definite")
    block_rows, block_a = found

    # Every entry _perron_reduction returns is nonzero, its diagonal
    # included wherever A's is.
    m = [{i: row[i]} if i in row else {} for i, row in enumerate(sparse)]
    a = [Fraction(0)] * len(sparse)
    for r, i in enumerate(component):
        a[i] = _fraction((block_a[r], 1))
        sign = -1 if sparse[i].get(i, 0) > 0 else 1
        m[i] = {component[s]: _fraction((sign * num, den)) for s, (num, den) in block_rows[r].items()}
    return ReductionCertificate(a_prime=tuple(m), a=tuple(a))


def verify_reduction(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """Recheck every certificate invariant against A; return violations (empty = valid).

    Only the stored nonzeros of A' are read: a missing key is a zero."""
    violations: list[str] = []
    n = A.order
    if not cert.has_order(n):
        k = len(cert.a_prime)
        stray = sorted({j for row in cert.a_prime for j in row if not 0 <= j < k})
        shape = f"{k} x {k}" + (f" with columns {stray} outside it" if stray else "")
        return [f"shape mismatch: a has {len(cert.a)} entries, a_prime is {shape}, matrix order {n}"]
    for i, row in enumerate(cert.a_prime):
        if row.get(i, 0) != A[i, i]:
            violations.append(f"diagonal changed at {i}: {row.get(i, 0)} != {A[i, i]}")
    for i, (row, bounds) in enumerate(zip(cert.a_prime, A.sparse)):
        for j in sorted(row):
            # A has O(n) nonzero couplings: only those need the absolute value
            entry, bound = row[j], bounds.get(j)
            if i != j and (entry if bound is None else abs(entry) > bound):
                violations.append(f"not a reduction at ({i}, {j}): |{entry}| > {bound or 0}")
    if all(v == 0 for v in cert.a):
        violations.append("annihilated vector is zero")
    for i, v in enumerate(cert.a):
        if v < 0:
            violations.append(f"negative entry a[{i}] = {v}")
    for i, row in enumerate(cert.a_prime):
        v = sum((x * cert.a[j] for j, x in row.items()), Fraction(0))
        if v != 0:
            violations.append(f"(A' a)[{i}] = {v} != 0")
    return violations


@dataclass(frozen=True)
class NegativityCertificate:
    """A strictly positive vector a with A*a <= 0 entrywise.

    For nonsingular (negative definite) A the image is (-1, ..., -1); for
    singular (semidefinite) connected A the image is zero and a spans the
    kernel.
    """

    a: tuple[Fraction, ...]
    image: tuple[Fraction, ...]


def negativity_certificate(A: SymMatrix) -> NegativityCertificate:
    """Produce the positive vector witnessing negative (semi)definiteness.

    Nonsingular case: one M-matrix elimination of -A decides it and solves
    A*a = (-1, ..., -1); the solution is the negated column sum of the
    inverse and is strictly positive for connected matrices with
    non-negative off-diagonal.  Otherwise A is singular and semidefinite iff
    its kernel is a line through a strictly positive vector: every proper
    principal block of a connected singular M-matrix is a nonsingular
    M-matrix, so a second elimination, with the last weight fixed at 1,
    solves for the others; return the primitive generator.
    """
    if len(matrix_components(A)) > 1:
        raise ValueError("matrix graph is disconnected")
    n = A.order
    negated = [{j: -x for j, x in row.items()} for row in A.sparse]
    a = mmatrix_solve(negated, [Fraction(1)] * n)
    if a is not None:
        if any(v <= 0 for v in a):
            raise AssertionError("definite case produced a non-positive weight")
        return NegativityCertificate(a=a, image=tuple([Fraction(-1)] * n))
    last = n - 1
    rest = mmatrix_solve(
        [{j: x for j, x in row.items() if j != last} for row in negated[:last]],
        [A[i, last] for i in range(last)],
    )
    if rest is not None:
        a = (*rest, Fraction(1))
        image = tuple(sum((x * a[j] for j, x in row.items()), Fraction(0)) for row in A.sparse)
        if not any(image):
            return NegativityCertificate(a=primitive_vector(a), image=image)
    raise NotNegativeError("matrix has a positive eigenvalue")


def strict_shrink(A: SymMatrix) -> SymMatrix:
    """Shrink every nonzero off-diagonal entry by a common factor (1 - eps)
    while keeping a positive eigenvalue of A-minus.

    eps is the largest power 2^-k <= 1/2 that keeps one (the one the halving
    loop eps = 1/2, 1/4, ... would stop at).  Let B = A-minus and C its
    off-diagonal part.  One congruence elimination of B
    (:func:`pivot_witnesses`) gives, per positive eigenvalue, an x with
    x^T B x > 0; since C >= 0, |x|^T B_eps |x| >= x^T B x - eps
    |x|^T C |x|, so every eps below the best bound x^T B x / |x|^T C |x|
    keeps a positive eigenvalue.  The top eigenvalue of a matrix with
    non-negative off-diagonal entries grows with them, so having one is
    monotone in k: test 1/2 first, then gallop from the bound's power toward
    larger eps and bisect, each test one congruence (:func:`_congruence`).
    Raises NoPositiveEigenvalueError, naming the branch
    (:func:`gmsurf.decision.immersed` of the elimination's inertia), if
    A-minus has no positive eigenvalue, and ValueError on a negative
    off-diagonal entry.

    B is read once into reduced (numerator, denominator) pairs, and the
    bound is taken in integers: C over the lcm L of its denominators, each
    x over the lcm D of its own.  Only the returned shrunk matrix is
    `Fraction`.
    """
    matrix_components(A)  # for its sign check
    minus = _pair_rows(a_minus(A).sparse)
    ine, witnesses = pivot_witnesses([dict(row) for row in minus])
    if not witnesses:
        pos, neg, _ = split_blocks(A)
        raise NoPositiveEigenvalueError(f"decision branch is {immersed(ine, pos, neg)[1].value}")

    # Per witness, the floor of |x|^T C |x| / x^T B x, the reciprocal of its
    # bound: C times the lcm of its denominators and |x| times the lcm of its
    # own are integers.
    scale = lcm(*(d for i, row in enumerate(minus) for j, (_, d) in row.items() if j != i))
    coupling = [{j: n * (scale // d) for j, (n, d) in row.items() if j != i} for i, row in enumerate(minus)]
    reciprocals = []
    for (value_num, value_den), x in witnesses:
        common = lcm(*(d for _, d in x.values()))
        weights = {i: abs(n) * (common // d) for i, (n, d) in x.items()}
        form = sum(
            w * weights[j] * c for i, w in weights.items() for j, c in coupling[i].items() if j in weights
        )
        reciprocals.append(form * value_den // (scale * common * common * value_num))

    def shrunk(k: int) -> list[dict[int, tuple[int, int]]]:
        factor = (2**k - 1, 2**k)
        return [{j: x if i == j else _mul(x, factor) for j, x in row.items()} for i, row in enumerate(minus)]

    def positive(k: int) -> bool:
        return _congruence(shrunk(k)).n_pos > 0

    hi = max(1, min(reciprocals).bit_length())  # least k >= 1 with 2^-k < best bound: positive(hi)
    lo = 0
    if hi > 1:
        if positive(1):
            hi = 1
        else:
            lo = 1
    gap = 1
    while hi - lo > 1:
        k = max(hi - gap, (lo + hi + 1) // 2)
        if positive(k):
            hi, gap = k, 2 * gap
        else:
            lo = k
    return SymMatrix(
        [
            {j: A.sparse[i][j] if i == j else _fraction(x) for j, x in row.items()}
            for i, row in enumerate(shrunk(hi))
        ]
    )
