"""Exact linear algebra for small dense matrices, with no floating point.

Matrices enter and results leave as arbitrary-precision rationals
(`fractions.Fraction`): :class:`SymMatrix` entries, determinants, kernel
vectors and solutions.  In between, every elimination runs on Python ints.
Denominators are cleared first, by one common multiple for the whole matrix
in :func:`inertia` and by one per row (equation) in :func:`determinant_rows`,
:func:`nullspace_rows` and :func:`solve_rows`; then fraction-free (Bareiss)
elimination divides exactly by the previous pivot at each step, so entries
stay integers the size of minors of the input.  Matrices are tiny (a graph
manifold has a few dozen Seifert pieces at most), so dense storage and
O(s^3) algorithms are the right trade-off.

The signature routine is :func:`inertia`, which computes the exact eigenvalue
sign counts (n_pos, n_zero, n_neg) of a symmetric rational matrix by congruence
diagonalization; by Sylvester's law of inertia the sign counts are invariant
under congruence, so no root finding is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class DisconnectedMatrixError(ValueError):
    """The matrix graph (edges where an off-diagonal entry is nonzero) is disconnected."""


def to_rational(value: int | str | Fraction) -> Fraction:
    """Convert an exact value to a Fraction.

    Accepts ints, Fractions and strings like ``"3"``, ``"-5/2"``.  Floats are
    rejected outright: every number in this package must be exact.
    """
    if isinstance(value, bool):
        raise TypeError("cannot convert bool to a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; got {value!r}")
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational string: {value!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator: {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    raise TypeError(f"cannot convert {type(value).__name__} to a rational")


def rational_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` or ``"int"`` (bit-exact round trip)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Inertia:
    """Exact eigenvalue sign counts of a symmetric matrix."""

    n_pos: int
    n_zero: int
    n_neg: int

    @property
    def order(self) -> int:
        return self.n_pos + self.n_zero + self.n_neg

    def __str__(self) -> str:
        return f"({self.n_pos}, {self.n_zero}, {self.n_neg})"


class SymMatrix:
    """Immutable dense symmetric matrix over the rationals.

    Symmetry is enforced at construction; all entries are normalized through
    :func:`to_rational`, so floats are rejected.
    """

    __slots__ = ("rows",)

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int | str | Fraction]]):
        converted = tuple(tuple(to_rational(x) for x in row) for row in rows)
        n = len(converted)
        for row in converted:
            if len(row) != n:
                raise ValueError(f"not square: {n} rows but a row of length {len(row)}")
        for i in range(n):
            for j in range(i + 1, n):
                if converted[i][j] != converted[j][i]:
                    raise ValueError(f"not symmetric at ({i}, {j})")
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def order(self) -> int:
        return len(self.rows)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(rational_str(x) for x in row) + "]" for row in self.rows)
        return f"SymMatrix([{body}])"

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.rows[i][i] for i in range(self.order))

    def to_lists(self) -> list[list[Fraction]]:
        """Mutable copy of the entries."""
        return [list(row) for row in self.rows]

    @classmethod
    def from_diagonal(cls, values: Sequence[int | str | Fraction]) -> "SymMatrix":
        vals = [to_rational(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_diagonal([1] * n)

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls([[0] * n for _ in range(n)])


def _clear_denominators(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(L, the values times L as Python ints), L the lcm of their denominators.

    Scaling by a positive constant changes neither the signs of a symmetric
    matrix's eigenvalues (applied to the whole matrix) nor the null space and
    the solution of a system (applied to one row and its right-hand side).
    """
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def inertia(A: SymMatrix) -> Inertia:
    """Exact inertia (n_pos, n_zero, n_neg) by symmetric congruence reduction.

    Runs on the integer matrix L*A (L the lcm of all denominators) with 1x1
    pivots, swapping in a nonzero diagonal entry when available.  When the
    whole trailing diagonal is zero but some off-diagonal entry b is not,
    adding row+column j to row+column k manufactures the pivot 2b (the
    classic handling of a [[0, b], [b, 0]] block, which contributes one
    positive and one negative eigenvalue).  A trailing row that is entirely
    zero contributes a zero eigenvalue and is dropped.

    Elimination is fraction-free (Bareiss): the trailing block is kept as
    |d| times the Schur complement, d the previous pivot, so every entry is a
    minor of an integer matrix congruent to L*A and each update divides
    exactly by the previous |d|.  Scaling by |d| > 0 keeps signs, so each
    pivot's sign is the sign of one eigenvalue (Sylvester's law of inertia).
    Swaps and the 2b move are integer unimodular congruences and keep the
    division exact.
    """
    n = A.order
    _, flat = _clear_denominators(x for row in A.rows for x in row)
    block = [flat[i * n:(i + 1) * n] for i in range(n)]
    n_pos = n_zero = n_neg = 0
    prev = 1
    while block:
        head = block[0]
        if head[0] == 0:
            swap = next((j for j in range(1, len(block)) if block[j][j] != 0), None)
            if swap is not None:
                block[0], block[swap] = block[swap], block[0]
                for row in block:
                    row[0], row[swap] = row[swap], row[0]
            else:
                mate = next((j for j, x in enumerate(head) if x != 0), None)
                if mate is None:
                    n_zero += 1
                    block = [row[1:] for row in block[1:]]
                    continue
                block[0] = [a + b for a, b in zip(head, block[mate])]
                for row in block:
                    row[0] += row[mate]
            head = block[0]
        pivot = head[0]
        if pivot > 0:
            n_pos += 1
            weight, tail = pivot, head[1:]
        else:
            n_neg += 1
            weight, tail = -pivot, [-x for x in head[1:]]
        rest = []
        for row in block[1:]:
            factor = row[0]
            if factor != 0:
                rest.append([(weight * x - factor * y) // prev for x, y in zip(row[1:], tail)])
            elif weight == prev:
                rest.append(row[1:])
            else:
                rest.append([weight * x // prev for x in row[1:]])
        block = rest
        prev = weight
    return Inertia(n_pos, n_zero, n_neg)


def is_negative_definite(A: SymMatrix) -> bool:
    """True iff every eigenvalue is negative.  The 0x0 matrix is negative
    definite by convention (vacuously; empty blocks need this)."""
    if A.order == 0:
        return True
    ine = inertia(A)
    return ine.n_pos == 0 and ine.n_zero == 0


def _eliminate(m: list[list[int]], stop_col: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots on columns ``0 .. stop_col - 1`` in order, taking the first row
    at or below the current one with a nonzero entry.  Every row other than
    the pivot row becomes (p*row - row[col]*pivot_row) / p_prev, an exact
    division (each entry is a minor of the input, up to sign).  At the end
    every pivot row holds the last pivot d at its pivot column and zeros at
    the other pivot columns, so the reduced row echelon form is m / d.

    Returns the pivot columns, d (1 when there is none) and the number of
    row swaps.
    """
    pivot_cols: list[int] = []
    prev = 1
    swaps = 0
    row = 0
    for col in range(stop_col):
        if row == len(m):
            break
        found = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if found is None:
            continue
        if found != row:
            m[row], m[found] = m[found], m[row]
            swaps += 1
        lead = m[row]
        p = lead[col]
        for r in range(len(m)):
            if r == row:
                continue
            factor = m[r][col]
            if factor != 0:
                m[r] = [(p * x - factor * y) // prev for x, y in zip(m[r], lead)]
            elif p != prev:
                m[r] = [p * x // prev for x in m[r]]
        pivot_cols.append(col)
        prev = p
        row += 1
    return pivot_cols, prev, swaps


def determinant_rows(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a general (not necessarily symmetric) square matrix.

    Each row is scaled to integers by the lcm of its denominators; the
    determinant of the integer matrix is its last fraction-free pivot.
    """
    n = len(rows)
    scale = 1
    m = []
    for r in rows:
        row_scale, ints = _clear_denominators(r)
        scale *= row_scale
        m.append(ints)
    pivot_cols, d, swaps = _eliminate(m, n)
    if len(pivot_cols) < n:
        return Fraction(0)
    return Fraction(-d if swaps % 2 else d, scale)


def nullspace_rows(rows: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of a general square or rectangular matrix.

    Returned vectors come from the reduced row echelon form, one per free
    column, in ascending free-column order (deterministic).  Rows are scaled
    to integers one at a time, which leaves the null space unchanged.
    """
    m = [_clear_denominators(r)[1] for r in rows]
    n_cols = len(m[0]) if m else 0
    pivot_cols, d, _ = _eliminate(m, n_cols)
    pivots = set(pivot_cols)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            vec[pc] = Fraction(-m[r][free], d)
        basis.append(tuple(vec))
    return basis


def kernel_basis(A: SymMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of a symmetric matrix (possibly empty)."""
    return nullspace_rows(A.rows)


def solve_rows(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve a nonsingular square system exactly.  Raises ValueError if singular.

    Each equation (row plus right-hand side) is scaled to integers by its own
    lcm; after fraction-free Gauss-Jordan elimination x[i] = m[i][n] / d.
    """
    n = len(rows)
    m = [_clear_denominators([*r, rhs[i]])[1] for i, r in enumerate(rows)]
    pivot_cols, d, _ = _eliminate(m, n)
    if len(pivot_cols) < n:
        raise ValueError("singular system")
    return tuple(Fraction(m[i][n], d) for i in range(n))


def matrix_graph_components(A: SymMatrix) -> list[list[int]]:
    """Connected components of the matrix graph (edge {i, j} iff A[i][j] != 0, i != j).

    Components are sorted lists of indices, ordered by smallest member.
    """
    n = A.order
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(n):
                if j != i and not seen[j] and A[i, j] != 0:
                    seen[j] = True
                    queue.append(j)
        components.append(sorted(comp))
    return components


def is_connected_matrix(A: SymMatrix) -> bool:
    return len(matrix_graph_components(A)) <= 1


def check_nonnegative_off_diagonal(A: SymMatrix) -> None:
    """Raise ValueError naming the first negative off-diagonal entry, if any.

    Decomposition matrices, and every matrix the decision and reduction
    layers accept, have non-negative off-diagonal entries.
    """
    for i in range(A.order):
        for j in range(i + 1, A.order):
            if A[i, j] < 0:
                raise ValueError(f"negative off-diagonal entry at ({i}, {j})")


def principal_submatrix(A: SymMatrix, idx: Iterable[int]) -> SymMatrix:
    """Symmetric submatrix on the rows/columns ``idx``.

    ``idx`` may be given in any order; duplicates are rejected.  The empty
    index set yields the 0x0 matrix, which :func:`is_negative_definite`
    treats as negative definite (the convention the block tests rely on).
    """
    indices = sorted(idx)
    if len(set(indices)) != len(indices):
        raise IndexError("duplicate indices")
    n = A.order
    for i in indices:
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for order {n}")
    return SymMatrix([[A[i, j] for j in indices] for i in indices])


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact matrix-vector product."""
    return tuple(sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0)) for r in rows)


def primitive_vector(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector by a positive rational to coprime integer entries.

    The zero vector is returned unchanged.  Scaling by a positive factor
    preserves direction, sign pattern, and support, so callers may normalize
    kernel vectors freely.
    """
    from math import gcd, lcm

    nonzero = [v for v in vec if v != 0]
    if not nonzero:
        return tuple(vec)
    denominator_lcm = lcm(*(v.denominator for v in nonzero))
    scaled = [v * denominator_lcm for v in vec]
    numerator_gcd = gcd(*(abs(v.numerator) for v in scaled if v != 0))
    return tuple(v / numerator_gcd for v in scaled)
