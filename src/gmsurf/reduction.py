"""Singular reductions, negativity certificates, and the bilinear identity.

A *reduction* of a symmetric matrix A with non-negative off-diagonal entries
is any matrix A' (symmetry not required) with the same diagonal and
|A'[i][j]| <= A[i][j] off the diagonal.  The structural fact driving the whole
package: A has a *singular* reduction annihilating a non-zero non-negative
vector if and only if A-minus (positive diagonals negated) is not negative
definite.  :func:`find_singular_reduction` makes the forward direction
constructive and exact; :func:`verify_reduction` rechecks any claimed
certificate independently.

The constructive search walks a piecewise-linear path in the space of
reductions: it shrinks one off-diagonal entry at a time toward zero, watching
the determinant, which is an affine function of any single entry.  A sign
change pins the exact rational root; the matrix at that point is singular.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: it produces a strictly positive vector a with
A*a <= 0 entrywise, and :func:`bilinear_identity` evaluates both sides of the
exact quadratic-form expansion that such a vector induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact_linalg import (
    SymMatrix,
    check_nonnegative_off_diagonal,
    determinant_rows,
    inertia,
    is_connected_matrix,
    is_negative_definite,
    kernel_basis,
    mat_vec,
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

    @property
    def support(self) -> tuple[int, ...]:
        """Indices where the annihilated vector is nonzero."""
        return tuple(i for i, v in enumerate(self.a) if v != 0)

    def has_order(self, n: int) -> bool:
        """True iff ``a`` has length n and ``a_prime`` is n x n."""
        return (
            len(self.a) == n
            and len(self.a_prime) == n
            and all(len(row) == n for row in self.a_prime)
        )


def _max_support_kernel_vector(basis: Sequence[tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    """A kernel vector whose support is the union of the basis supports.

    Combinations sum(t^k * basis[k]) miss the union support for only finitely
    many t, so scanning t = 1, 2, ... terminates almost immediately.  A
    deterministic maximal-support choice matters downstream: zero entries of
    the annihilated vector degrade surface certificates.
    """
    if not basis:
        raise ValueError("empty kernel")
    n = len(basis[0])
    target = {i for vec in basis for i in range(n) if vec[i] != 0}
    t = 1
    while True:
        combo = [Fraction(0)] * n
        weight = Fraction(1)
        for vec in basis:
            for i in range(n):
                combo[i] += weight * vec[i]
            weight *= t
        if {i for i in range(n) if combo[i] != 0} == target:
            return primitive_vector(combo)
        t += 1


def _select_minimal_subset(B: SymMatrix) -> list[int]:
    """Smallest principal index set whose submatrix has exactly one
    non-negative eigenvalue, ties broken lexicographically.

    Exists whenever B (diagonal <= 0) is not negative definite: a zero
    diagonal entry gives a qualifying singleton, and otherwise growing a
    subset one index at a time changes the non-negative eigenvalue count by
    at most one (eigenvalue interlacing), so the count 1 is hit on the way up.
    """
    n = B.order
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            ine = inertia(principal_submatrix(B, subset))
            if ine.n_pos + ine.n_zero == 1:
                return list(subset)
    raise NegativeDefiniteError("no principal submatrix with a non-negative eigenvalue")


def default_slide_order(subset: Sequence[int]) -> list[tuple[int, int]]:
    """Row-major order over the off-diagonal positions of a principal block."""
    return [(i, j) for i in subset for j in subset if i != j]


def find_singular_reduction(
    A: SymMatrix, slide_order: Sequence[tuple[int, int]] | None = None
) -> ReductionCertificate:
    """Construct a singular reduction of A annihilating a non-negative vector.

    Raises NegativeDefiniteError iff A-minus is negative definite (in which
    case no such reduction exists at all).  Otherwise:

    1. negate positive diagonal entries (recording which) to get B = A-minus;
    2. if B is singular, it is its own singular reduction;
    3. otherwise restrict attention to the minimal principal block with
       exactly one non-negative eigenvalue, zeroing every off-diagonal entry
       outside it (a reduction move);
    4. slide the block's off-diagonal entries toward 0 one at a time, in the
       given order (default row-major); the determinant is affine in a single
       entry, so the first sign change yields an exact rational root and a
       singular matrix (a crossing must occur: once all off-diagonal entries
       are gone the determinant is a product of negative diagonals);
    5. pick a maximal-support kernel vector, flip rows and columns at its
       negative entries to make it non-negative, and undo the step-1 diagonal
       flips by row negations (row scaling never changes the kernel).

    ``slide_order`` overrides the step-4 order; positions outside the selected
    block are ignored, and omitted block positions are appended in row-major
    order so the walk always has enough entries to terminate.
    """
    check_nonnegative_off_diagonal(A)
    B = a_minus(A)
    if is_negative_definite(B):
        raise NegativeDefiniteError("A-minus is negative definite")
    flipped = [i for i in range(A.order) if A[i, i] > 0]
    n = A.order
    m = B.to_lists()

    if determinant_rows(m) != 0:
        subset = _select_minimal_subset(B)
        inside = set(subset)
        for i in range(n):
            for j in range(n):
                if i != j and not (i in inside and j in inside):
                    m[i][j] = Fraction(0)
        if determinant_rows(m) != 0:
            order = default_slide_order(subset)
            if slide_order is not None:
                requested = [
                    (i, j) for i, j in slide_order if i in inside and j in inside and i != j
                ]
                order = requested + [pos for pos in order if pos not in requested]
            for i, j in order:
                d0 = determinant_rows(m)
                if d0 == 0:
                    break
                v0 = m[i][j]
                if v0 == 0:
                    continue
                m[i][j] = Fraction(0)
                d1 = determinant_rows(m)
                if d1 == 0:
                    break
                if (d0 > 0) != (d1 > 0):
                    # det(t) = d1 + (d0 - d1) * (t / v0); exact root in (0, v0)
                    m[i][j] = -d1 * v0 / (d0 - d1)
                    break
        if determinant_rows(m) != 0:
            raise AssertionError("slide walk failed to reach a singular matrix")

    vec = _max_support_kernel_vector(nullspace_rows(m))
    negative = [i for i, v in enumerate(vec) if v < 0]
    for i in negative:
        m[i] = [-x for x in m[i]]
        for r in range(n):
            m[r][i] = -m[r][i]
    a = tuple(-v if i in set(negative) else v for i, v in enumerate(vec))
    for i in flipped:
        m[i] = [-x for x in m[i]]
    return ReductionCertificate(a_prime=tuple(tuple(row) for row in m), a=a)


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
    basis = kernel_basis(A)
    vec = _max_support_kernel_vector(basis)
    if all(v <= 0 for v in vec):
        vec = tuple(-x for x in vec)
    if any(v <= 0 for v in vec):
        raise AssertionError("semidefinite case produced a non-positive kernel vector")
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
