"""Singular reductions, negativity certificates, and the bilinear identity.

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
M-matrix test) finds the move on which the Perron root crosses 0, and the
determinant, affine in the moving entry, pins the exact rational crossing.
On a connected matrix the annihilated vector is positive at every index.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: it produces a strictly positive vector a with
A*a <= 0 entrywise, and :func:`bilinear_identity` evaluates both sides of the
exact quadratic-form expansion that such a vector induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import (
    SymMatrix,
    check_nonnegative_off_diagonal,
    determinant_rows,
    inertia,
    is_connected_matrix,
    mat_vec,
    matrix_graph_components,
    nullspace_rows,
    primitive_vector,
    principal_submatrix,
    solve_rows,
)
from .manifold import a_minus


class NegativeDefiniteError(ValueError):
    """A-minus is negative definite, so no singular reduction exists."""


class NotNegativeError(ValueError):
    """The matrix has a positive eigenvalue, so no negativity certificate exists."""


class ZeroEntryError(ValueError):
    """The weight vector has a zero entry where a nonzero one is required."""


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


def _positive_kernel_vector(rows: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """The primitive generator of a kernel that is one line through a positive vector.

    An irreducible matrix with non-negative off-diagonal entries and Perron
    root 0 has that kernel: adding c*I makes it a primitive non-negative
    matrix with Perron root c, a simple eigenvalue with a positive
    eigenvector (Perron-Frobenius).
    """
    basis = nullspace_rows(rows)
    if len(basis) != 1:
        raise AssertionError(f"kernel has dimension {len(basis)}, expected 1")
    vec = primitive_vector(basis[0])  # 1 at its free column, so positive if the line is
    if any(v <= 0 for v in vec):
        raise AssertionError("kernel vector is not strictly positive")
    return vec


def _negative_perron_root(rows: Sequence[Sequence[Fraction]]) -> bool:
    """True iff a matrix with non-negative off-diagonal entries has Perron root < 0.

    That holds iff its negation M is a nonsingular M-matrix, which holds iff
    M x = (1, ..., 1) has a solution x > 0 (semipositivity; Berman and
    Plemmons, ch. 6).  A singular M has Perron root 0, so it answers no.
    """
    try:
        x = solve_rows([[-v for v in row] for row in rows], [Fraction(1)] * len(rows))
    except ValueError:
        return False
    return all(v > 0 for v in x)


def _perron_reduction(B: SymMatrix, n_pos: int) -> tuple[list[list[Fraction]], tuple[Fraction, ...]]:
    """A singular reduction of a connected B and a strictly positive vector it annihilates.

    B has non-positive diagonal, non-negative off-diagonal entries, is not
    negative definite and has ``n_pos`` positive eigenvalues.  Let Z be the
    indices with zero diagonal and N the rest.  Scaling the couplings inside
    N by t0 = min(1, |B_ii| / (2 sum_{j in N} B_ij) over i in N) makes B_N
    strictly diagonally dominant, so -B_N(t0) is a nonsingular M-matrix.

    - Z non-empty: rows in Z lose their couplings and get weight 1; couplings
      from N into Z stay; solving -B_N(t0) a_N = (the couplings into Z) gives
      a_N > 0, because the inverse of an M-matrix is non-negative and positive
      on each irreducible block, and every block touches Z.
    - Z empty, no positive eigenvalue: B is singular and semidefinite, and
      is its own reduction.
    - Z empty otherwise (then t0 < 1, or B would be negative definite): move
      the couplings from B_ij to t0*B_ij one at a time, in row-major order.  The Perron root falls monotonically from
      positive to negative; bisection over the number of moved couplings
      finds the coupling whose move crosses 0.  The determinant is affine in
      that coupling and its only root on the move is where the Perron root
      is 0: there the kernel is a positive line.
    """
    n = B.order
    zero = [i for i in range(n) if B[i, i] == 0]
    rest = [i for i in range(n) if B[i, i] != 0]
    t0 = Fraction(1)
    for i in rest:
        total = sum((B[i, j] for j in rest if j != i), Fraction(0))
        if total:
            t0 = min(t0, -B[i, i] / (2 * total))

    if zero:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in rest:
            m[i] = [B[i, j] if j == i or B[j, j] == 0 else t0 * B[i, j] for j in range(n)]
        a = [Fraction(1)] * n
        if rest:
            coupling = [sum(B[i, z] for z in zero) for i in rest]
            solved = solve_rows([[-m[i][j] for j in rest] for i in rest], coupling)
            for i, v in zip(rest, solved):
                a[i] = v
        if any(v <= 0 for v in a):
            raise AssertionError("zero-diagonal solve produced a non-positive weight")
        return m, primitive_vector(a)

    if n_pos == 0:
        m = B.to_lists()
        return m, _positive_kernel_vector(m)

    positions = [(i, j) for i in range(n) for j in range(n) if i != j and B[i, j] != 0]

    def state(k: int) -> list[list[Fraction]]:
        m = B.to_lists()
        for i, j in positions[:k]:
            m[i][j] *= t0
        return m

    # Perron root of state lo >= 0 (B has a positive eigenvalue), of state hi < 0.
    lo, hi = 0, len(positions)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _negative_perron_root(state(mid)):
            hi = mid
        else:
            lo = mid
    m = state(lo)
    i, j = positions[lo]
    x0 = m[i][j]
    d0 = determinant_rows(m)
    if d0 != 0:
        x1 = t0 * x0
        m[i][j] = x1
        d1 = determinant_rows(m)
        # det(x) = d1 + (d0 - d1) (x - x1) / (x0 - x1), and d1 != 0 (Perron root < 0)
        m[i][j] = x1 - d1 * (x0 - x1) / (d0 - d1)
    return m, _positive_kernel_vector(m)


def find_singular_reduction(A: SymMatrix) -> ReductionCertificate:
    """Construct a singular reduction of A annihilating a non-negative vector.

    Raises NegativeDefiniteError iff A-minus is negative definite (in which
    case no such reduction exists at all).  Otherwise the first connected
    component of the matrix graph whose block of B = A-minus is not negative
    definite gets a Perron-Frobenius reduction (see :func:`_perron_reduction`)
    with a strictly positive vector; every other coupling becomes 0 and every
    other weight 0.  On a connected A the vector is positive at every index.
    Positive diagonal entries of A are restored by negating their rows, which
    leaves the kernel unchanged.
    """
    check_nonnegative_off_diagonal(A)
    B = a_minus(A)
    for component in matrix_graph_components(B):
        block = principal_submatrix(B, component)
        ine = inertia(block)
        if ine.n_pos or ine.n_zero:
            break
    else:
        raise NegativeDefiniteError("A-minus is negative definite")
    block_rows, block_a = _perron_reduction(block, ine.n_pos)

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
    for i in range(n):
        for j in range(n):
            if i != j and abs(cert.a_prime[i][j]) > A[i, j]:
                violations.append(
                    f"not a reduction at ({i}, {j}): |{cert.a_prime[i][j]}| > {A[i, j]}"
                )
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

    Nonsingular case: solve A*a = (-1, ..., -1); the solution is the negated
    column sum of the inverse and is strictly positive for connected matrices
    with non-negative off-diagonal.  Singular case: the kernel of a connected
    negative semidefinite matrix is one-dimensional and spanned by a strictly
    positive vector; return a generator.
    """
    if not is_connected_matrix(A):
        raise ValueError("matrix graph is disconnected")
    check_nonnegative_off_diagonal(A)
    ine = inertia(A)
    if ine.n_pos > 0:
        raise NotNegativeError(f"matrix has {ine.n_pos} positive eigenvalues")
    if ine.n_zero == 0:
        rhs = [Fraction(-1)] * A.order
        a = solve_rows(A.rows, rhs)
        if any(v <= 0 for v in a):
            raise AssertionError("definite case produced a non-positive weight")
        return NegativityCertificate(a=a, image=tuple(rhs))
    vec = _positive_kernel_vector(A.rows)
    return NegativityCertificate(a=vec, image=mat_vec(A.rows, vec))


def bilinear_identity(
    A: SymMatrix, a: Sequence[Fraction], x: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of the weighted quadratic-form expansion.

    Left side: x^T A x.  Right side, for any weight vector a with nonzero
    entries:

        sum_i a_i (A a)_i (x_i / a_i)^2
        + sum_{i<j} (-A[i][j] a_i a_j) (x_i / a_i - x_j / a_j)^2

    The two sides agree exactly for every symmetric A; when A a <= 0 and
    a > 0 with A's off-diagonal non-negative, every right-side term is
    non-positive, which is the certificate's reading of "A is negative".
    """
    n = A.order
    if len(a) != n or len(x) != n:
        raise ValueError("vector length does not match matrix order")
    for i, v in enumerate(a):
        if v == 0:
            raise ZeroEntryError(f"a[{i}] = 0")
    lhs = sum(x[i] * A[i, j] * x[j] for i in range(n) for j in range(n))
    image = mat_vec(A.rows, a)
    rhs = sum(a[i] * image[i] * (x[i] / a[i]) ** 2 for i in range(n))
    rhs += sum(
        -A[i, j] * a[i] * a[j] * (x[i] / a[i] - x[j] / a[j]) ** 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    return lhs, rhs


def strict_shrink(A: SymMatrix) -> SymMatrix:
    """Shrink every nonzero off-diagonal entry by a common factor (1 - eps)
    while keeping a positive eigenvalue of A-minus.

    Having a positive eigenvalue is an open condition, so halving eps from
    1/2 terminates.  Raises NoPositiveEigenvalueError if A-minus has none to
    begin with.
    """
    if inertia(a_minus(A)).n_pos == 0:
        raise NoPositiveEigenvalueError("A-minus has no positive eigenvalue")
    eps = Fraction(1, 2)
    while True:
        rows = A.to_lists()
        for i in range(A.order):
            for j in range(A.order):
                if i != j and rows[i][j] != 0:
                    rows[i][j] *= 1 - eps
        shrunk = SymMatrix(rows)
        if inertia(a_minus(shrunk)).n_pos > 0:
            return shrunk
        eps /= 2
