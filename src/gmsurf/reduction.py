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
(:func:`gmsurf.exact_linalg.mmatrix_solve`); no determinant or dense
elimination is taken.  On a connected matrix the annihilated vector is
positive at every index.

:func:`strict_shrink` prepares the input of the surface builder: one
congruence elimination of A-minus bounds the shrink factor from below, and a
few inertia tests pin it.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: it produces a strictly positive vector a with
A*a <= 0 entrywise.  The exact quadratic-form expansion such a vector
induces (the theorem behind reading it as "A is negative") is a test oracle,
not package code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    SymMatrix,
    check_nonnegative_off_diagonal,
    inertia,
    is_connected_matrix,
    mat_vec,
    matrix_graph_components,
    mmatrix_solve,
    pivot_witnesses,
    primitive_vector,
    principal_submatrix,
)
from .manifold import a_minus


class NegativeDefiniteError(ValueError):
    """A-minus is negative definite, so no singular reduction exists."""


class NotNegativeError(ValueError):
    """The matrix has a positive eigenvalue, so no negativity certificate exists."""


class NoPositiveEigenvalueError(ValueError):
    """A-minus has no positive eigenvalue, so no strict shrink exists."""


@dataclass(frozen=True)
class ReductionCertificate:
    """A singular reduction A' of some source matrix plus its annihilated vector.

    ``a_prime`` need not be symmetric.  Validity against a source A means:
    identical diagonal, |a_prime[i][j]| <= A[i][j] off the diagonal,
    a_prime . a = 0 exactly, a nonzero with non-negative entries.
    """

    a_prime: tuple[tuple[Fraction, ...], ...]
    a: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.a)

    def has_order(self, n: int) -> bool:
        """True iff ``a`` has length n and ``a_prime`` is n x n."""
        return (
            len(self.a) == n
            and len(self.a_prime) == n
            and all(len(row) == n for row in self.a_prime)
        )


def _negated(rows) -> list[dict[int, Fraction]]:
    """The nonzero entries of -rows, one dict per row (the input of :func:`mmatrix_solve`)."""
    return [{j: -x for j, x in enumerate(row) if x} for row in rows]


def _perron_reduction(B: SymMatrix) -> tuple[list[list[Fraction]], tuple[Fraction, ...]] | None:
    """A singular reduction of a connected B and a strictly positive vector it annihilates.

    B has non-positive diagonal and non-negative off-diagonal entries.
    Returns None iff B is negative definite.  Let Z be the indices with
    zero diagonal and N the rest.  Scaling the couplings inside N by
    t0 = min(1, |B_ii| / (2 sum_{j in N} B_ij) over i in N) makes B_N
    strictly diagonally dominant, so -B_N(t0) is a nonsingular M-matrix.
    Every step is one sparse M-matrix elimination (:func:`mmatrix_solve`).

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
    """
    n = B.order
    zero = [i for i in range(n) if B[i, i] == 0]
    rest = [i for i in range(n) if B[i, i] != 0]
    t0 = Fraction(1)
    for i in rest:
        row = B.rows[i]
        total = sum(row[j] for j in rest if j != i and row[j])
        if total:
            t0 = min(t0, -row[i] / (2 * total))

    if zero:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in rest:
            m[i] = [B[i, j] if j == i or B[j, j] == 0 else t0 * B[i, j] for j in range(n)]
        a = [Fraction(1)] * n
        if rest:
            coupling = [sum(B[i, z] for z in zero) for i in rest]
            solved = mmatrix_solve(_negated([m[i][j] for j in rest] for i in rest), coupling)
            for i, v in zip(rest, solved):
                a[i] = v
        if any(v <= 0 for v in a):
            raise AssertionError("zero-diagonal solve produced a non-positive weight")
        return m, primitive_vector(a)

    if t0 == 1:
        return None
    moves = [(i, j, t0 * x) for i, row in enumerate(B.rows) for j, x in enumerate(row) if i != j and x]
    negated = _negated(B.rows)

    def negated_state(k: int) -> list[dict[int, Fraction]]:
        rows = [dict(row) for row in negated]
        for i, j, x in moves[:k]:
            rows[i][j] = -x
        return rows

    # The Perron root of state hi is < 0; bisection keeps lo as the last
    # state not shown to be below 0.
    lo, hi = 0, len(moves)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mmatrix_solve(negated_state(mid)) is None:
            lo = mid
        else:
            hi = mid
    i, j, moved = moves[lo]
    w = mmatrix_solve(negated_state(hi), [Fraction(int(r == i)) for r in range(n)])
    if any(v <= 0 for v in w):
        raise AssertionError("kernel vector is not strictly positive")
    crossing = moved + 1 / w[j]
    if crossing > B[i, j]:
        return None
    m = B.to_lists()
    for p, q, x in moves[:lo]:
        m[p][q] = x
    m[i][j] = crossing
    return m, primitive_vector(w)


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
    leaves the kernel unchanged.
    """
    check_nonnegative_off_diagonal(A)
    B = a_minus(A)
    for component in matrix_graph_components(B):
        found = _perron_reduction(principal_submatrix(B, component))
        if found is not None:
            break
    else:
        raise NegativeDefiniteError("A-minus is negative definite")
    block_rows, block_a = found

    n = A.order
    m = [[B[i, i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    a = [Fraction(0)] * n
    for r, i in enumerate(component):
        a[i] = block_a[r]
        for s, j in enumerate(component):
            m[i][j] = block_rows[r][s]
    for i in range(n):
        if A[i, i] > 0:
            m[i] = [-x for x in m[i]]
    return ReductionCertificate(a_prime=tuple(tuple(row) for row in m), a=tuple(a))


def verify_reduction(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """Recheck every certificate invariant against A; return violations (empty = valid)."""
    violations: list[str] = []
    n = A.order
    if not cert.has_order(n):
        return [f"shape mismatch: certificate order {cert.order}, matrix order {n}"]
    for i in range(n):
        if cert.a_prime[i][i] != A[i, i]:
            violations.append(f"diagonal changed at {i}: {cert.a_prime[i][i]} != {A[i, i]}")
    for i, (row, bounds) in enumerate(zip(cert.a_prime, A.rows)):
        for j, (entry, bound) in enumerate(zip(row, bounds)):
            # A has O(n) nonzero couplings: only those need the absolute value
            if i != j and (abs(entry) > bound if bound else entry != 0):
                violations.append(f"not a reduction at ({i}, {j}): |{entry}| > {bound}")
    if all(v == 0 for v in cert.a):
        violations.append("annihilated vector is zero")
    for i, v in enumerate(cert.a):
        if v < 0:
            violations.append(f"negative entry a[{i}] = {v}")
    image = mat_vec(cert.a_prime, cert.a)
    for i, v in enumerate(image):
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
    if not is_connected_matrix(A):
        raise ValueError("matrix graph is disconnected")
    check_nonnegative_off_diagonal(A)
    n = A.order
    negated = _negated(A.rows)
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
    image = None if rest is None else mat_vec(A.rows, (*rest, Fraction(1)))
    if image is None or any(image):
        raise NotNegativeError("matrix has a positive eigenvalue")
    return NegativityCertificate(a=primitive_vector((*rest, Fraction(1))), image=image)


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
    larger eps and bisect, each test one inertia.  Raises
    NoPositiveEigenvalueError if A-minus has no positive eigenvalue, and
    ValueError on a negative off-diagonal entry.
    """
    neighbours = check_nonnegative_off_diagonal(A)
    minus = a_minus(A).sparse
    witnesses = pivot_witnesses(minus)
    if not witnesses:
        raise NoPositiveEigenvalueError("A-minus has no positive eigenvalue")

    def coupling_form(x: dict[int, Fraction]) -> Fraction:
        return sum(abs(v * x[j]) * A.rows[i][j] for i, v in x.items() for j in neighbours[i] if j in x)

    bound = max(value / coupling_form(x) for value, x in witnesses)

    def shrunk(rows, k: int) -> list[dict[int, Fraction]]:
        factor = 1 - Fraction(1, 2**k)
        return [{j: x if i == j else x * factor for j, x in row.items()} for i, row in enumerate(rows)]

    def positive(k: int) -> bool:
        return inertia(shrunk(minus, k)).n_pos > 0

    hi = 1  # positive(hi) holds: 2^-hi < bound
    while Fraction(1, 2**hi) >= bound:
        hi += 1
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
    return SymMatrix._from_sparse(shrunk(A.sparse, hi))
