"""Singular reductions and negativity certificates.

A *reduction* of a symmetric matrix A with non-negative off-diagonal entries
is any matrix A' (symmetry not required) with the same diagonal and
|A'[i][j]| <= A[i][j] off the diagonal.  The structural fact driving the whole
package: A has a *singular* reduction annihilating a non-zero non-negative
vector if and only if A-minus (positive diagonals negated) is not negative
definite.  :func:`find_singular_reduction` makes the forward direction
constructive and exact; :func:`verify_reduction` rechecks any claimed
certificate independently.

The package's one Perron search,
:func:`gmsurf.exact_linalg._perron_search`, finds the sign of the Perron
root of B, the A-minus of one connected block given by A's own rows, with
a positive witness vector a checked exactly: Ba > 0, Ba < 0 or Ba = 0 (the
Collatz-Wielandt bounds; Berman and Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, ch. 2 and 6).  Two row builders make A' from a:
where the root is positive, the rows of a *strict* reduction,
|A'[i][j]| < A[i][j] on every coupling (:func:`_strict_rows`); where it is
0, A's own rows with the couplings negated on rows whose diagonal is
positive, so A'a = -(Ba) = 0.
:func:`strict_shrink`, the surface builder's reduction, runs the search on
a connected A and returns the strict rows as pairs and a as ints, or names
the branch in :class:`NoPositiveEigenvalueError`.
:func:`find_singular_reduction` builds A' on the first component whose
root is not negative; the ``matrix`` command reaches it only with a
connected matrix, since its decision rejects any other.  No inertia is taken
beyond the search's one exact step, and A' keeps A's sparsity: one ``{column: value}`` dict of nonzero entries
per row, as a :class:`SymMatrix` holds.

The builders keep their values in integers or reduced (numerator,
denominator) pairs of ints: `Fraction` enters only as the
:class:`SymMatrix` entries they read, and leaves only as the
:class:`ReductionCertificate` that :func:`find_singular_reduction` returns.
:func:`negativity_certificate` makes its `Fraction` from the search's
integers alone.

:func:`verify_reduction` reads each entry of A, A' and a as its numerator
and denominator and does only `int` arithmetic: the diagonal compares those
pairs, |A'[i][j]| <= A[i][j] is |num| * A's denominator <= A's numerator *
den, and row i of A'a = 0 is an int sum after scaling the row by the lcm of
its entries' denominators times the lcm of its a_j's denominators.  Each
check is exact because a denominator is positive and scaling by a positive
integer keeps zeros and signs.  `Fraction` is made only for the text of a
violation, which reads as the `Fraction` sum would.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: the same search on A gives a strictly positive
vector a with A*a <= 0 entrywise.  The exact quadratic-form expansion such
a vector induces (the theorem behind reading it as "A is negative") is a
test oracle, not package code.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .decision import immersed
from .exact_linalg import (
    DisconnectedMatrixError,
    Scaled,
    SymMatrix,
    _component_rows,
    _fraction,
    _mul,
    _perron_search,
    _scaled,
    inertia,  # unused here; bench/tests/test_tracer.py checks the tracer replaces this binding
    matrix_components,
)
from .manifold import split_blocks
from .value import Value, _set


class NegativeDefiniteError(ValueError):
    """A-minus is negative definite, so no singular reduction exists."""


class NotNegativeError(ValueError):
    """The matrix has a positive eigenvalue, so no negativity certificate exists."""


class NoPositiveEigenvalueError(ValueError):
    """A-minus has no positive eigenvalue, so no strict shrink exists; the message names the branch."""


class ReductionCertificate(Value):
    """A singular reduction A' of some source matrix plus its annihilated vector.

    ``a_prime`` holds one ``{column: value}`` dict of nonzero entries per
    row and need not be symmetric.  Validity against a source A means:
    identical diagonal, |a_prime[i][j]| <= A[i][j] off the diagonal,
    a_prime . a = 0 exactly, a nonzero with non-negative entries.
    """

    __slots__ = ("a_prime", "a")

    def __init__(self, a_prime: tuple[dict[int, Fraction], ...], a: tuple[Fraction, ...]):
        _set(self, "a_prime", a_prime)
        _set(self, "a", a)

    def has_order(self, n: int) -> bool:
        """True iff ``a`` and ``a_prime`` have n entries and rows, and every
        column of ``a_prime`` lies in 0..n-1."""
        return (
            len(self.a) == len(self.a_prime) == n
            and all(0 <= j < n for row in self.a_prime for j in row)
        )


def find_singular_reduction(A: SymMatrix) -> ReductionCertificate:
    """Construct a singular reduction of A annihilating a non-negative vector.

    Raises NegativeDefiniteError iff A-minus is negative definite (in which
    case no such reduction exists at all).  Otherwise the first connected
    component whose block of A-minus has a Perron root >= 0
    (:func:`_perron_search` on the block's rows, re-indexed by
    :func:`gmsurf.exact_linalg._component_rows`; an exact congruence only
    where no fixed-point round decides) gets
    its rows of A' and its witness vector, positive on the component; every
    other row is A's diagonal entry alone, and every other weight 0.  Only the nonzero entries are read, and
    A' and the vector become `Fraction` once, as the certificate.
    """
    sparse = A.sparse
    for component in matrix_components(A):
        rows = _component_rows(sparse, component)
        scaled = _scaled(rows)
        sign, block_a, y = _perron_search(scaled)
        if sign >= 0:
            break
    else:
        raise NegativeDefiniteError("A-minus is negative definite")
    if sign:
        rows = [{s: _fraction(x) for s, x in row.items()} for row in _strict_rows(rows, scaled, block_a, y)]
    m = [{i: row[i]} if i in row else {} for i, row in enumerate(sparse)]
    a = [Fraction(0)] * len(sparse)
    for r, i in enumerate(component):
        a[i] = Fraction(block_a[r])
        # At root 0, A'a = -(Ba) = 0 on a row whose diagonal is positive.
        flip = not sign and rows[r].get(r, 0) > 0
        m[i] = {component[s]: -x if flip and s != r else x for s, x in rows[r].items()}
    return ReductionCertificate(a_prime=tuple(m), a=tuple(a))


def shape_violations(n: int, cert: ReductionCertificate) -> list[str]:
    """The shape mismatch of cert against a matrix of order n, as a one-item list; [] if it has order n."""
    if cert.has_order(n):
        return []
    k = len(cert.a_prime)
    stray = sorted({j for row in cert.a_prime for j in row if not 0 <= j < k})
    shape = f"{k} x {k}" + (f" with columns {stray} outside it" if stray else "")
    return [f"shape mismatch: a has {len(cert.a)} entries, a_prime is {shape}, matrix order {n}"]


def verify_reduction(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """Recheck every certificate invariant against A in `int` arithmetic;
    return violations (empty = valid): the shape, then the entries."""
    return shape_violations(A.order, cert) or entry_violations(A, cert)[0]


def entry_violations(A: SymMatrix, cert: ReductionCertificate) -> tuple[list[str], list[tuple[int, int]]]:
    """:func:`verify_reduction` past the shape, for a cert of A's order, and
    the (i, j) of A's couplings where |A'[i][j]| >= A[i][j], row by row.

    Only the stored nonzeros of A' are read, each once: a missing key is a
    zero.
    """
    violations: list[str] = []
    a = [v.as_integer_ratio() for v in cert.a]
    loose: list[str] = []
    tight: list[tuple[int, int]] = []
    image: list[str] = []
    for i, (row, bounds) in enumerate(zip(cert.a_prime, A.sparse)):
        # One pass over the row: its diagonal, the bounds, and (A'a)_i times
        # the lcm of the row's denominators and the lcm of its a_j's
        # denominators, an int sum; each lcm grows as a new denominator
        # comes in.
        total, row_scale, a_scale, entry, wide, at_bound = 0, 1, 1, (0, 1), [], []
        for j, x in row.items():
            num, den = x.as_integer_ratio()
            an, ad = a[j]
            if j == i:
                entry = num, den
            else:
                # A has O(n) nonzero couplings: a key where A has none is out
                # of bound, else |num/den| against bn/bd is compared crosswise.
                bound = bounds.get(j)
                if bound is None:
                    if num:
                        wide.append(j)
                else:
                    bn, bd = bound.as_integer_ratio()
                    over = abs(num) * bd - bn * den
                    if over >= 0:
                        at_bound.append(j)
                        if over:
                            wide.append(j)
            if row_scale % den:
                grown = lcm(row_scale, den)
                total *= grown // row_scale
                row_scale = grown
            if a_scale % ad:
                grown = lcm(a_scale, ad)
                total *= grown // a_scale
                a_scale = grown
            total += num * (row_scale // den) * an * (a_scale // ad)
        diagonal = A[i, i]
        if entry != diagonal.as_integer_ratio():
            violations.append(f"diagonal changed at {i}: {row.get(i, 0)} != {diagonal}")
        loose += [f"not a reduction at ({i}, {j}): |{row[j]}| > {bounds.get(j) or 0}" for j in sorted(wide)]
        tight += [(i, j) for j in sorted(at_bound)]
        if total:
            image.append(f"(A' a)[{i}] = {Fraction(total, row_scale * a_scale)} != 0")
    violations += loose
    if not any(an for an, _ in a):
        violations.append("annihilated vector is zero")
    for i, (an, _) in enumerate(a):
        if an < 0:
            violations.append(f"negative entry a[{i}] = {cert.a[i]}")
    return violations + image, tight


class NegativityCertificate(Value):
    """A strictly positive vector a with A*a <= 0 entrywise, and that image.

    For nonsingular (negative definite) A the image is negative at every
    entry; for singular (semidefinite) connected A it is zero and a spans
    the kernel.
    """

    __slots__ = ("a", "image")

    def __init__(self, a: tuple[Fraction, ...], image: tuple[Fraction, ...]):
        _set(self, "a", a)
        _set(self, "image", image)


def negativity_certificate(A: SymMatrix) -> NegativityCertificate:
    """Produce the positive vector witnessing negative (semi)definiteness.

    A positive diagonal entry A[i][i] = e_i^T A e_i rules it out at once.
    Otherwise A is its own A-minus, and :func:`_perron_search` on A gives
    the sign of its Perron root, its largest eigenvalue, with a positive
    witness: sign 1 raises NotNegativeError; sign -1 gives coprime ints a
    with image A*a < 0, and sign 0 the coprime ints spanning the kernel,
    with image 0.  The image is the search's y over the row scales, exactly
    A*a; only the certificate is `Fraction`.
    """
    if len(matrix_components(A)) > 1:
        raise DisconnectedMatrixError("matrix graph is disconnected")
    if split_blocks(A)[0]:
        raise NotNegativeError("matrix has a positive diagonal entry")
    scaled = _scaled(A.sparse)
    sign, a, y = _perron_search(scaled)
    if sign > 0:
        raise NotNegativeError("matrix has a positive eigenvalue")
    return NegativityCertificate(
        a=tuple(map(Fraction, a)), image=tuple(Fraction(v, L) for v, L in zip(y, scaled[0]))
    )


# The rows of :func:`_strict_rows`.
FIRST_ROW_BITS, ROW_BITS_STEP = 24, 8


def strict_shrink(A: SymMatrix) -> tuple[list[dict[int, tuple[int, int]]], list[int]]:
    """A strict singular reduction A' of a connected A and the positive vector a it annihilates.

    A' keeps A's diagonal, |A'[i][j]| < A[i][j] where A[i][j] > 0 and 0
    where A is 0; it comes back as reduced pair rows of its nonzeros
    (:func:`_strict_rows`) and a as coprime ints.  DisconnectedMatrixError
    on a disconnected matrix graph, ValueError on a negative coupling.

    Such an A' exists iff the Perron root of B = A-minus is positive:
    exactly the PositiveEigenvalue branch.  Off it, the sign that
    :func:`_perron_search` finds and A's diagonal signs name the branch
    (:func:`gmsurf.decision.immersed`) in :class:`NoPositiveEigenvalueError`,
    with no inertia beyond the search's one exact step.
    """
    if len(matrix_components(A)) > 1:
        raise DisconnectedMatrixError("matrix graph is disconnected")
    scaled = _scaled(A.sparse)
    sign, a, y = _perron_search(scaled)
    if sign > 0:
        return _strict_rows(A.sparse, scaled, a, y), a
    pos, neg, _ = split_blocks(A)
    raise NoPositiveEigenvalueError(f"decision branch is {immersed(sign, pos, neg)[1].value}")


def _strict_rows(
    rows: Sequence[dict[int, Fraction]], scaled: Scaled, a: list[int], y: list[int]
) -> list[dict[int, tuple[int, int]]]:
    """The pair rows of a strict reduction of A annihilating a > 0, from y = scales * (B a) > 0.

    A is given by its rows and their :func:`_scaled` form.  Let B = A-minus
    and C its couplings.  A' need not be symmetric, so row i needs only
    sum_j A'[i][j] a_j = -A[i][i] a_i with |A'[i][j]| < A[i][j]; those sums
    fill (-(Ca)_i, (Ca)_i), so row i exists iff |A[i][i]| a_i < (Ca)_i,
    that is iff (Ba)_i > 0.  It is t_i = -A[i][i] a_i / (Ca)_i, rounded to
    a multiple of 2^-m, times each coupling but the largest A[i][k] a_k,
    which takes the exact remainder; m = FIRST_ROW_BITS grows by
    ROW_BITS_STEP until the row is strict.  The remainder times a_k has
    denominator 2^m times the row's lcm, so the surface sides' denominators
    come from A's entries and 2^m alone.
    """
    scales, own, couplings = scaled
    reduced = []
    for i, row in enumerate(rows):
        c, L = couplings[i], scales[i]
        strict = {i: (row[i].numerator, row[i].denominator)} if i in row else {}
        # Times L: -A[i][i] a_i, (Ca)_i, and (Ca)_i without its largest term, at k.
        target = -own[i] * a[i]
        total = y[i] + abs(own[i]) * a[i]
        k = max(c, key=lambda j: (c[j] * a[j], -j))
        rest = total - c[k] * a[k]
        bits = FIRST_ROW_BITS
        while True:
            t = ((target << (bits + 1)) + total) // (2 * total)  # t_i 2^m, rounded
            r = (target << bits) - t * rest  # A'[i][k] a_k L 2^m
            if abs(t) < 1 << bits and abs(r) < c[k] * a[k] << bits:
                break
            bits += ROW_BITS_STEP
        if t:
            factor = _mul((t, 1), (1, 1 << bits))
            for j, x in row.items():
                if j != i and j != k:
                    strict[j] = _mul(factor, (x.numerator, x.denominator))
        if r:
            strict[k] = _mul((r, 1), (1, L * a[k] << bits))
        reduced.append(strict)
    return reduced
