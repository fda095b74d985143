"""Dense reference implementations that the package no longer runs.

The package solves, shrinks and reduces with sparse eliminations; these are
the dense routines they replaced, kept so tests can compare results exactly:

- :func:`solve_rows` and :func:`kernel_basis`, fraction-free Gauss-Jordan
  solves and kernels of general matrices;
- :func:`halving_shrink`, the strict shrink that halves eps from 1/2 and
  takes one inertia per try;
- :func:`crossing_reduction`, the singular reduction whose walk finds the
  crossing with two determinants and its kernel with a null space.
"""

from fractions import Fraction

from gmsurf.exact_linalg import (
    SymMatrix,
    _clear_denominators,
    _eliminate,
    check_nonnegative_off_diagonal,
    determinant_rows,
    inertia,
    matrix_graph_components,
    nullspace_rows,
    primitive_vector,
    principal_submatrix,
)
from gmsurf.manifold import a_minus
from gmsurf.reduction import NegativeDefiniteError, NoPositiveEigenvalueError, ReductionCertificate


def solve_rows(rows, rhs) -> tuple[Fraction, ...]:
    """Solve a nonsingular square system exactly.  Raises ValueError if singular."""
    n = len(rows)
    m = [_clear_denominators([*r, rhs[i]])[1] for i, r in enumerate(rows)]
    pivot_cols, d, _ = _eliminate(m, n)
    if len(pivot_cols) < n:
        raise ValueError("singular system")
    return tuple(Fraction(m[i][n], d) for i in range(n))


def kernel_basis(A: SymMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of a symmetric matrix (possibly empty)."""
    return nullspace_rows(A.rows)


def halving_shrink(A: SymMatrix) -> SymMatrix:
    """Couplings times (1 - eps) for the first eps = 1/2, 1/4, ... that keeps
    a positive eigenvalue of A-minus."""
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


def _positive_kernel_vector(rows) -> tuple[Fraction, ...]:
    basis = nullspace_rows(rows)
    assert len(basis) == 1, f"kernel has dimension {len(basis)}"
    vec = primitive_vector(basis[0])
    assert all(v > 0 for v in vec)
    return vec


def _negative_perron_root(rows) -> bool:
    try:
        x = solve_rows([[-v for v in row] for row in rows], [Fraction(1)] * len(rows))
    except ValueError:
        return False
    return all(v > 0 for v in x)


def _dense_perron_reduction(B: SymMatrix, n_pos: int):
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
        return m, primitive_vector(a)
    if n_pos == 0:
        m = B.to_lists()
        return m, _positive_kernel_vector(m)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j and B[i, j] != 0]

    def state(k: int):
        m = B.to_lists()
        for i, j in positions[:k]:
            m[i][j] *= t0
        return m

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
        m[i][j] = x1 - d1 * (x0 - x1) / (d0 - d1)
    return m, _positive_kernel_vector(m)


def crossing_reduction(A: SymMatrix) -> ReductionCertificate:
    """The singular reduction of the first component of A whose A-minus block
    is not negative definite (by its inertia), built with dense solves."""
    check_nonnegative_off_diagonal(A)
    B = a_minus(A)
    for component in matrix_graph_components(B):
        block = principal_submatrix(B, component)
        ine = inertia(block)
        if ine.n_pos or ine.n_zero:
            break
    else:
        raise NegativeDefiniteError("A-minus is negative definite")
    block_rows, block_a = _dense_perron_reduction(block, ine.n_pos)
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
