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

:func:`strict_shrink` is the surface builder's reduction: a *strict* one,
|A'[i][j]| < A[i][j] on every coupling, of a connected A, with no walk and
no bisection.  One positive vector a with (A-minus a)_i > 0 at every i,
found in fixed-point integers and checked exactly, gives each row of A' on
its own (the Collatz-Wielandt bounds of the Perron root; see there).  Off
the positive-eigenvalue branch the same search names the branch in
:class:`NoPositiveEigenvalueError`, with no inertia taken.  It returns A'
as pair rows and a as ints, which the surface builder uses as they are.

The builders keep their values in integers or reduced (numerator,
denominator) pairs of ints between the eliminations of
:mod:`gmsurf.exact_linalg`: `Fraction` enters only as the
:class:`SymMatrix` entries they read, once each, and leaves only as the
:class:`ReductionCertificate` that :func:`find_singular_reduction` returns.  :func:`negativity_certificate`
works in pairs as well; the verifier works in `Fraction`.

:func:`negativity_certificate` is the complementary tool for matrices that
are negative semidefinite: it produces a strictly positive vector a with
A*a <= 0 entrywise.  The exact quadratic-form expansion such a vector
induces (the theorem behind reading it as "A is negative") is a test oracle,
not package code.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .decision import Branch
from .exact_linalg import (
    DisconnectedMatrixError,
    SymMatrix,
    _fraction,
    _inverse,
    _mmatrix_solve,
    _mul,
    _pair_rows,
    _primitive,
    _sum,
    inertia,  # unused here; bench/tests/test_tracer.py checks the tracer replaces this binding
    matrix_components,
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
    sparse, minus = A.sparse, a_minus(A)
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
    solves for the others; return the primitive generator.  Both
    eliminations run on reduced (numerator, denominator) pairs
    (:func:`_mmatrix_solve`); only the certificate is `Fraction`.
    """
    if len(matrix_components(A)) > 1:
        raise ValueError("matrix graph is disconnected")
    n = A.order
    negated = [{j: (-x.numerator, x.denominator) for j, x in row.items()} for row in A.sparse]
    a = _mmatrix_solve([dict(row) for row in negated], [(1, 1)] * n)
    if a is not None:
        if any(v[0] <= 0 for v in a):
            raise AssertionError("definite case produced a non-positive weight")
        return NegativityCertificate(a=tuple(map(_fraction, a)), image=tuple([Fraction(-1)] * n))
    kernel = _positive_kernel(negated)
    if kernel is None:
        raise NotNegativeError("matrix has a positive eigenvalue")
    return NegativityCertificate(a=tuple(map(Fraction, kernel)), image=tuple([Fraction(0)] * n))


# The search and the rows of :func:`strict_shrink`.
FIRST_BITS, FULL_BITS = 16, 64
POWER_STEPS, SOLVES, RAISE_BITS = 3, 6, 30
FIRST_ROW_BITS, ROW_BITS_STEP = 24, 8


def _fixed_point_solve(rows: list[dict[int, int]], rhs: list[int]) -> list[int] | None:
    """x with M x = rhs, rounded, for a symmetric fixed-point M-matrix M; None at a pivot <= 0.

    M is one ``{column: int}`` dict per row, diagonal key included, and both
    it and rhs are changed in place.  M = L D L^T in minimum-degree order,
    as in :func:`gmsurf.exact_linalg._mmatrix_solve`, with every product
    over a pivot floored, so entries keep their fixed-point length.
    """
    queue = sorted((len(row) - 1, i) for i, row in enumerate(rows))
    queued = {key[1]: key for key in queue}
    done: list[tuple[int, int, dict[int, int]]] = []
    while queue:
        _, k = queue.pop(0)
        del queued[k]
        row = rows[k]
        pivot = row.pop(k)
        if pivot <= 0:
            return None
        for i in row:
            del queue[bisect_left(queue, queued[i])]
        items = list(row.items())
        b = rhs[k]
        for s, (i, f) in enumerate(items):
            other = rows[i]
            del other[k]
            rhs[i] -= f * b // pivot
            for j, g in items[s:]:
                other[j] = rows[j][i] = other.get(j, 0) - f * g // pivot
            key = queued[i] = (len(other) - 1, i)
            insort(queue, key)
        done.append((k, pivot, row))
    x = [0] * len(rows)
    for k, pivot, row in reversed(done):
        x[k] = (rhs[k] - sum(m * x[j] for j, m in row.items())) // pivot
    return x


def _positive_kernel(negated: list[dict[int, tuple[int, int]]]) -> list[int] | None:
    """The primitive positive vector spanning the kernel of -N, or None.

    N, a connected Z-matrix as pair rows, is not changed.  -N is singular
    and negative semidefinite iff its kernel is a line through a positive
    vector: every proper principal block of a connected singular M-matrix
    is a nonsingular M-matrix, so one :func:`_mmatrix_solve` with the last
    weight fixed at 1 gives the others, and N times it is checked exactly.
    """
    last = len(negated) - 1
    rest = _mmatrix_solve(
        [{j: x for j, x in row.items() if j != last} for row in negated[:last]],
        [(-row[last][0], row[last][1]) if last in row else (0, 1) for row in negated[:last]],
    )
    if rest is None:
        return None
    a = [*rest, (1, 1)]
    if any(_sum(_mul(x, a[j]) for j, x in row.items())[0] for row in negated):
        return None
    return _primitive(a)


def strict_shrink(A: SymMatrix) -> tuple[list[dict[int, tuple[int, int]]], list[int]]:
    """A strict singular reduction A' of a connected A and the positive vector a it annihilates.

    A' keeps A's diagonal, |A'[i][j]| < A[i][j] where A[i][j] > 0 and 0
    where A is 0; it comes back as reduced pair rows of its nonzeros and a
    as coprime ints.  DisconnectedMatrixError on a disconnected matrix
    graph, ValueError on a negative coupling.

    *Rows.*  Let B = A-minus and C its couplings.  A' need not be
    symmetric, so row i needs only sum_j A'[i][j] a_j = -A[i][i] a_i with
    |A'[i][j]| < A[i][j]; those sums fill (-(Ca)_i, (Ca)_i), so row i
    exists iff |A[i][i]| a_i < (Ca)_i, that is iff (Ba)_i > 0.  It is
    t_i = -A[i][i] a_i / (Ca)_i, rounded to a multiple of 2^-m, times each
    coupling but the largest A[i][k] a_k, which takes the exact remainder;
    m = FIRST_ROW_BITS grows by ROW_BITS_STEP until the row is strict.  The
    remainder times a_k has denominator 2^m times the row's lcm, so the
    surface sides' denominators come from A's entries and 2^m alone.

    *The vector.*  For a > 0 the Collatz-Wielandt bounds
    min_i (Ba)_i / a_i <= rho <= max_i (Ba)_i / a_i hold for the Perron
    root rho of the irreducible B, with equality at its Perron vector
    (Berman and Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, ch. 2; Horn and Johnson, *Matrix Analysis*, ch. 8).  So an
    a > 0 with Ba > 0 exists iff rho > 0: exactly the PositiveEigenvalue
    branch.  It is searched for in fixed-point integers of 16 bits, then
    32, 64 and on, with no float: from the all-ones vector, POWER_STEPS
    power steps on B + sI, then shift-invert steps v <- (sigma I - B)^-1 v
    (:func:`_fixed_point_solve`), sigma the upper bound raised by a relative
    2^-RAISE_BITS.  A round ends after SOLVES solves, a failed one or one
    that leaves an entry at 1, and the next doubles the bits.  Every vector
    is checked exactly, one integer dot product per row of B times its lcm.

    *Off the branch*, the same search names the branch in
    :class:`NoPositiveEigenvalueError`, with no inertia: Ba < 0 means
    rho < 0, NegativeDefinite; Ba = 0, or from FULL_BITS on one exact kernel
    test (:func:`_positive_kernel`), means rho = 0, a semidefinite branch
    read from A's diagonal signs as :func:`gmsurf.decision.immersed` does.
    A nonzero rho shows at some precision, so there is no retry budget.
    """
    if len(matrix_components(A)) > 1:
        raise DisconnectedMatrixError("matrix graph is disconnected")
    n = A.order
    # Row i of A times scales[i], the lcm of its denominators: A[i][i] as
    # own[i] and the couplings as ints.  B's row is the same with -|own[i]|.
    scales, own, couplings = [], [], []
    for i, row in enumerate(A.sparse):
        L = lcm(*(x.denominator for x in row.values()))
        scales.append(L)
        own.append(row[i].numerator * (L // row[i].denominator) if i in row else 0)
        couplings.append({j: x.numerator * (L // x.denominator) for j, x in row.items() if j != i})
    shift = max(-(-abs(d) // L) for d, L in zip(own, scales)) + 1

    def image(v: list[int]) -> list[int]:
        """scales[i] (B v)_i, exactly."""
        return [
            sum(c * v[j] for j, c in row.items()) - abs(d) * v[i] for i, (d, row) in enumerate(zip(own, couplings))
        ]

    def normalised(v: list[int], bits: int) -> list[int]:
        excess = max(v).bit_length() - bits
        return [max(x >> excess if excess > 0 else x << -excess, 1) for x in v]

    def shift_invert(v: list[int], y: list[int], bits: int) -> list[int] | None:
        # sigma: the largest y_i / (scales[i] v_i), raised, rounded up to 2^-bits
        num, den = y[0], scales[0] * v[0]
        for p, L, w in zip(y, scales, v):
            if p * den > num * L * w:
                num, den = p, L * w
        num *= (1 << RAISE_BITS) + (1 if num >= 0 else -1)
        sigma = -((-num << bits) // (den << RAISE_BITS))
        rows = [
            {i: sigma + (abs(d) << bits) // L, **{j: -((c << bits) // L) for j, c in row.items()}}
            for i, (d, L, row) in enumerate(zip(own, scales, couplings))
        ]
        # v times the largest diagonal entry: x then has v's length or more
        top = max(row[i] for i, row in enumerate(rows)).bit_length()
        x = _fixed_point_solve(rows, [x << top for x in v])
        return None if x is None else normalised(x, bits)

    v, bits, powers, tested = [1] * n, FIRST_BITS, 0, False
    while True:
        for _ in range(SOLVES + POWER_STEPS - powers):
            y = image(v)
            if all(x > 0 for x in y):
                return _strict_rows(A, scales, own, couplings, v, y)
            if all(x < 0 for x in y):
                raise NoPositiveEigenvalueError(f"decision branch is {Branch.NEGATIVE_DEFINITE.value}")
            if not any(y):
                _raise_semidefinite(A)
            if powers < POWER_STEPS:
                powers += 1
                v = normalised([x // L + shift * x0 for x, L, x0 in zip(y, scales, v)], bits)
                continue
            solved = shift_invert(v, y, bits)
            if solved is None:
                break
            v = solved
            if min(v) == 1:  # an entry fell below the precision
                break
        if bits >= FULL_BITS and not tested:
            tested = True
            if _positive_kernel([{j: (-x, d) for j, (x, d) in row.items()} for row in _pair_rows(a_minus(A))]):
                _raise_semidefinite(A)
        bits *= 2


def _raise_semidefinite(A: SymMatrix) -> None:
    """Name the branch of a matrix whose A-minus has Perron root 0."""
    pos, neg, _ = split_blocks(A)
    branch = Branch.SEMIDEFINITE_SAME_SIGN if not pos or not neg else Branch.SEMIDEFINITE_MIXED_SIGN
    raise NoPositiveEigenvalueError(f"decision branch is {branch.value}")


def _strict_rows(
    A: SymMatrix, scales: list[int], own: list[int], couplings: list[dict[int, int]], v: list[int], y: list[int]
) -> tuple[list[dict[int, tuple[int, int]]], list[int]]:
    """The rows of :func:`strict_shrink` from v > 0 with y = scales * (B v) > 0."""
    common = gcd(*v)
    a = [x // common for x in v]
    rows = []
    for i, row in enumerate(A.sparse):
        c, L = couplings[i], scales[i]
        strict = {i: (row[i].numerator, row[i].denominator)} if i in row else {}
        # Times L: -A[i][i] a_i, (Ca)_i, and (Ca)_i without its largest term, at k.
        target = -own[i] * a[i]
        total = y[i] // common + abs(own[i]) * a[i]
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
        rows.append(strict)
    return rows, a
