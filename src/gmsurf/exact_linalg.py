"""Exact linear algebra over the rationals, with no floating point.

Matrices enter as arbitrary-precision rationals (`fractions.Fraction`,
:class:`SymMatrix` entries), and the public results leave as `Fraction`
too: determinants, kernel vectors and solutions.

The signature routine is :func:`inertia`, which computes the exact eigenvalue
sign counts (n_pos, n_zero, n_neg) of a symmetric rational matrix by congruence
diagonalization; by Sylvester's law of inertia the sign counts are invariant
under congruence, so no root finding is needed.  A decomposition matrix has
the sparsity of the piece graph (a tree plus a few extra tori), so a
:class:`SymMatrix` keeps only its nonzero entries, one ``{column: value}``
dict per row, and its one constructor checks those entries alone.
:func:`matrix_components` checks the sign of the couplings and finds the
components of the matrix graph.  :func:`inertia` takes such dict rows and
eliminates in minimum-degree order, which creates no fill on a tree: its
cost follows the number of edges and the fill, not the cube of the order.
:func:`pivot_witnesses` runs the same elimination, A = L D L^T, and turns
each positive pivot block into a vector x = L^{-T} e_k with x^T A x > 0.

:func:`mmatrix_solve` is the other elimination: Gaussian elimination of a
Z-matrix in the same minimum-degree order with diagonal pivots only,
stopping at the first pivot <= 0.  That is the exact test that the matrix is
a nonsingular M-matrix, and when it passes the same elimination solves.

:func:`determinant_rows` and :func:`nullspace_rows` are dense: they clear
denominators by one common multiple per row, then fraction-free (Bareiss)
elimination divides exactly by the previous pivot at each step, so entries
stay integers the size of minors of the input.  Only the tests and the
benchmark's tracer name them.

The sparse eliminations share one exact core of integers.  Each entry is a
reduced (numerator, denominator) pair of ints with a positive denominator,
and every update uses `Fraction`'s own gcd-first sum, difference and product
on the pairs (:func:`_sum`, :func:`_sub`, :func:`_mul`; Knuth, TAOCP
vol. 2, 4.5.1), so each pair holds the reduced value a `Fraction`
elimination would, in the same pivot order, with no `Fraction` made.  The
cores are :func:`_congruence` and :func:`_mmatrix_solve`, which take and
return pairs; :func:`inertia` and :func:`mmatrix_solve` are their `Fraction`
wrappers, where `Fraction` entries become pairs once, on entry
(:func:`_pair_rows`), and only a solution becomes `Fraction` again
(:func:`_fraction`).  :func:`pivot_witnesses` and :func:`_primitive` (the
coprime integers on a vector's ray) take pairs, so the certify builders
(:mod:`gmsurf.reduction`, :mod:`gmsurf.surface`) call the cores directly and
keep their own values in pairs between eliminations.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_ZERO = Fraction(0)


class DisconnectedMatrixError(ValueError):
    """The matrix graph (edges where an off-diagonal entry is nonzero) is disconnected."""


def to_rational(value: int | str | Fraction) -> Fraction:
    """Convert an exact value to a Fraction.

    Accepts ints, Fractions and strings like ``"3"``, ``"-5/2"``.  Floats are
    rejected outright: every number in this package must be exact.  A
    string, the form of every rational in a file, is tested first.
    """
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if not match:
            raise ValueError(f"not a rational string: {value!r}")
        num, den = match.groups()
        if den is None:
            return Fraction(int(num))
        if int(den) == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den))
    if isinstance(value, bool):
        raise TypeError("cannot convert bool to a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; got {value!r}")
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

    def __str__(self) -> str:
        return f"({self.n_pos}, {self.n_zero}, {self.n_neg})"


@dataclass(frozen=True, slots=True)
class SymMatrix:
    """Immutable symmetric matrix over the rationals, kept as its nonzero entries.

    :attr:`sparse` holds one ``{column: value}`` dict per row, nonzero
    entries only (a zero diagonal has no key); ``A[i, j]`` reads it and is
    ``Fraction(0)`` off the nonzeros.  Every matrix, parsed or built by the
    package, comes through this one constructor, which checks the stored
    entries in one pass: each value must be a nonzero `Fraction`
    (TypeError), each column an int in 0..n-1 and each entry mirrored by an
    equal one across the diagonal (ValueError, naming the least asymmetric
    pair).  A mirror that is the same object needs no comparison.
    """

    sparse: tuple[dict[int, Fraction], ...]

    def __post_init__(self):
        rows = tuple(self.sparse)
        object.__setattr__(self, "sparse", rows)
        n = len(rows)
        asymmetric = []
        for i, row in enumerate(rows):
            for j, x in row.items():
                if type(x) is not Fraction or not x._numerator:
                    raise TypeError(f"entry ({i}, {j}) is not a nonzero Fraction: {x!r}")
                if type(j) is not int or not 0 <= j < n:
                    raise ValueError(f"row {i} has column {j!r} outside 0..{n - 1}")
                mirror = rows[j].get(i)
                if mirror is not x and mirror != x:
                    asymmetric.append((i, j) if i < j else (j, i))
        if asymmetric:
            i, j = min(asymmetric)
            raise ValueError(f"not symmetric at ({i}, {j})")

    @property
    def order(self) -> int:
        return len(self.sparse)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.sparse[i].get(j, _ZERO)

    def __repr__(self) -> str:
        n = self.order
        body = ", ".join(
            "[" + ", ".join(rational_str(row.get(j, _ZERO)) for j in range(n)) + "]" for row in self.sparse
        )
        return f"SymMatrix([{body}])"


def _clear_denominators(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(L, the values times L as Python ints), L the lcm of their denominators.

    Scaling one row and its right-hand side by a positive constant changes
    neither the null space nor the solution of a system.
    """
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _sub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b for reduced (numerator, denominator) pairs, reduced.

    Fraction's own gcd-first subtraction (Knuth, TAOCP vol. 2, 4.5.1): with
    g = gcd(da, db), only the common factor g can divide the numerator.
    """
    na, da = a
    nb, db = b
    g = gcd(da, db)
    if g == 1:
        return na * db - da * nb, da * db
    s = da // g
    t = na * (db // g) - nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b for reduced (numerator, denominator) pairs, reduced.

    Fraction's own gcd-first product: cancel each numerator against the
    other denominator, and the product is reduced.
    """
    na, da = a
    nb, db = b
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


def _sum(values: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of reduced pairs, reduced: each term is added as :func:`_sub`
    of its negation."""
    total = (0, 1)
    for n, d in values:
        total = _sub(total, (-n, d))
    return total


def _inverse(a: tuple[int, int]) -> tuple[int, int]:
    """1 / a for a nonzero reduced pair, reduced with a positive denominator."""
    n, d = a
    return (d, n) if n > 0 else (-d, -n)


def _fraction(a: tuple[int, int]) -> Fraction:
    """The `Fraction` of a reduced pair with a positive denominator.

    Its two slots are set directly: the pair is reduced already, and on the
    long entries of a witness or a solution the gcd that the public
    constructor would take again costs more than the elimination that made
    them.
    """
    value = object.__new__(Fraction)
    value._numerator, value._denominator = a
    return value


def _pair_rows(rows: Sequence[dict[int, Fraction]]) -> list[dict[int, tuple[int, int]]]:
    """Fresh ``{column: (numerator, denominator)}`` copies of dict rows of nonzero entries.

    Each entry is read once, with no `Fraction` made.
    """
    return [{j: (x.numerator, x.denominator) for j, x in row.items()} for row in rows]


def _congruence(adj: list[dict[int, tuple[int, int]]], steps: list | None = None) -> Inertia:
    """Sparse graph-order congruence of symmetric pair rows, eliminated in place; see :func:`inertia`.

    Entries are reduced (numerator, denominator) pairs (:func:`_pair_rows`).
    When ``steps`` is a list, each pivot block is appended to it as (seed,
    value, columns), all in pairs: ``seed`` maps the block's vertices to a
    vector y on the block with y^T P y = ``value`` (the pivot itself for a
    1x1 block P, 2|b| for [[0, b], [b, 0]]), and ``columns`` lists (vertex,
    {row: multiplier}), the block's columns of the unit lower triangular
    factor L with A = L D L^T.
    """
    remaining = set(range(len(adj)))
    queue: list[tuple[int, int]] = []  # sorted (degree, index), nonzero diagonals only
    queued: dict[int, tuple[int, int]] = {}

    def unqueue(vertices) -> None:
        for i in vertices:
            key = queued.pop(i, None)
            if key is not None:
                del queue[bisect_left(queue, key)]

    def enqueue(vertices) -> None:
        for i in vertices:
            row = adj[i]
            if i in row:
                key = queued[i] = (len(row) - 1, i)
                insort(queue, key)

    def subtract(i: int, j: int, amount: tuple[int, int]) -> None:
        # amount is nonzero, so a zero result had an entry to cancel
        old = adj[i].get(j)
        value = (-amount[0], amount[1]) if old is None else _sub(old, amount)
        if value[0]:
            adj[i][j] = adj[j][i] = value
        else:
            del adj[i][j]
            adj[j].pop(i, None)

    enqueue(remaining)
    n_pos = n_zero = n_neg = 0
    while remaining:
        if queue:
            _, k = queue.pop(0)
            del queued[k]
            row = adj[k]
            pivot = row.pop(k)
            if pivot[0] > 0:
                n_pos += 1
            else:
                n_neg += 1
            remaining.remove(k)
            touched = list(row.items())
            unqueue(row)
            inverse = _inverse(pivot)
            factors = [_mul(a, inverse) for _, a in touched]
            for s, (i, _) in enumerate(touched):
                del adj[i][k]
                factor = factors[s]
                for j, b in touched[s:]:
                    subtract(i, j, _mul(factor, b))
            enqueue(row)
            if steps is not None:
                steps.append(({k: (1, 1)}, pivot, [(k, dict(zip(row, factors)))]))
            continue
        isolated = [i for i in remaining if not adj[i]]
        if isolated:
            n_zero += len(isolated)
            remaining.difference_update(isolated)
            continue
        # Every remaining diagonal entry is zero, so a row's length is its degree.
        k = min(remaining, key=lambda i: (len(adj[i]), i))
        l = min(adj[k], key=lambda j: (len(adj[j]), j))
        b = adj[k].pop(l)
        del adj[l][k]
        n_pos += 1
        n_neg += 1
        remaining.difference_update((k, l))
        touched = list({**adj[k], **adj[l]})
        inverse = _inverse(b)
        x = [_mul(adj[i].pop(k, (0, 1)), inverse) for i in touched]
        y = [_mul(adj[i].pop(l, (0, 1)), inverse) for i in touched]
        for s, i in enumerate(touched):
            for t in range(s, len(touched)):
                xy, yx = _mul(x[s], y[t]), _mul(y[s], x[t])
                amount = _mul(b, _sub(xy, (-yx[0], yx[1])))
                if amount[0]:
                    subtract(i, touched[t], amount)
        enqueue(touched)
        if steps is not None:
            seed = {k: (1, 1), l: (1, 1) if b[0] > 0 else (-1, 1)}
            value = _mul((2, 1), (abs(b[0]), b[1]))
            steps.append((seed, value, [(k, dict(zip(touched, y))), (l, dict(zip(touched, x)))]))
    return Inertia(n_pos, n_zero, n_neg)


def inertia(rows: Sequence[dict[int, Fraction]]) -> Inertia:
    """Exact inertia (n_pos, n_zero, n_neg) of a symmetric matrix by sparse congruence.

    ``rows`` holds one ``{column: value}`` dict of nonzero entries per row,
    such as :attr:`SymMatrix.sparse`; symmetry is assumed.  The input
    becomes fresh rows of (numerator, denominator) pairs
    (:func:`_pair_rows`) and is not changed.  Pivots are eliminated in
    graph order, each step replacing the rest of the matrix by its Schur
    complement (a congruence, so Sylvester's law of inertia gives each
    pivot block's signs to the whole matrix):

    - a 1x1 pivot on the remaining vertex of least degree whose diagonal is
      nonzero, the smallest index among equals (minimum-degree order, Rose
      1972; on a tree it creates no fill, Parter 1961);
    - when every remaining diagonal entry is zero, a 2x2 pivot
      [[0, b], [b, 0]] on an edge at a vertex of least degree, which has one
      positive and one negative eigenvalue;
    - a remaining vertex with no entry at all is one zero eigenvalue.

    Entries stay reduced integer pairs at every step, updated by
    `Fraction`'s own gcd-first arithmetic (:func:`_sub`, :func:`_mul`), so
    each holds the value a `Fraction` elimination would; no `Fraction` is
    made.
    """
    return _congruence(_pair_rows(rows))


def pivot_witnesses(
    adj: list[dict[int, tuple[int, int]]],
) -> tuple[Inertia, list[tuple[tuple[int, int], dict[int, tuple[int, int]]]]]:
    """The inertia of a symmetric matrix A, and one vector x with x^T A x > 0
    per positive eigenvalue, all in reduced (numerator, denominator) pairs.

    A is given as pair rows of its nonzero entries (:func:`_pair_rows`),
    eliminated in place as in :func:`_congruence`, whose elimination,
    A = L D L^T, has one pivot block per positive eigenvalue: a positive 1x1
    pivot d, or a 2x2 pivot [[0, b], [b, 0]].  With seed y on the block,
    x = L^{-T} y satisfies x^T A x = y^T D y = d (or 2|b|) > 0.  Returns the
    inertia, which the same elimination gives, and the pairs (x^T A x, x),
    x as a dict of its nonzero entries, in elimination order (empty iff A
    has no positive eigenvalue); each x costs one sparse back-substitution
    through the earlier blocks.
    """
    steps: list = []
    ine = _congruence(adj, steps)
    witnesses = []
    for t, (seed, value, _) in enumerate(steps):
        if value[0] <= 0:
            continue
        x = dict(seed)
        for _, _, columns in reversed(steps[:t]):
            for m, column in columns:
                negated = (0, 1)  # -sum of f * x[i]
                for i, f in column.items():
                    if i in x:
                        negated = _sub(negated, _mul(f, x[i]))
                if negated[0]:
                    x[m] = negated
        witnesses.append((value, x))
    return ine, witnesses


def _mmatrix_solve(
    adj: list[dict[int, tuple[int, int]]], b: list[tuple[int, int]] | None = None
) -> list[tuple[int, int]] | tuple[()] | None:
    """The elimination of :func:`mmatrix_solve` on pair rows and a pair
    right-hand side, both changed in place; the solution comes back in
    pairs, ``()`` without ``b``, None if the matrix is not a nonsingular
    M-matrix."""
    queue = sorted((len(row) - (i in row), i) for i, row in enumerate(adj))
    queued = {key[1]: key for key in queue}
    done: list[tuple[int, tuple[int, int], dict[int, tuple[int, int]]]] = []
    while queue:
        _, k = queue.pop(0)
        del queued[k]
        row = adj[k]
        pivot = row.pop(k, (0, 1))
        if pivot[0] <= 0:
            return None
        for i in row:
            del queue[bisect_left(queue, queued[i])]
        inverse = _inverse(pivot)
        for i in row:
            other = adj[i]
            factor = _mul(other.pop(k), inverse)
            if b is not None and b[k][0]:
                b[i] = _sub(b[i], _mul(factor, b[k]))
            for j, v in row.items():
                amount = _mul(factor, v)
                old = other.get(j)
                other[j] = (-amount[0], amount[1]) if old is None else _sub(old, amount)
            key = queued[i] = (len(other) - (i in other), i)
            insort(queue, key)
        done.append((k, inverse, row))
    if b is None:
        return ()
    x = [(0, 1)] * len(adj)
    for k, inverse, row in reversed(done):
        total = b[k]
        for j, v in row.items():
            total = _sub(total, _mul(v, x[j]))
        x[k] = _mul(total, inverse)
    return x


def mmatrix_solve(
    rows: Sequence[dict[int, Fraction]], rhs: Sequence[Fraction] | None = None
) -> tuple[Fraction, ...] | None:
    """Solve M x = rhs exactly if the Z-matrix M is a nonsingular M-matrix; else None.

    M (off-diagonal entries <= 0, a symmetric nonzero pattern, values not
    necessarily symmetric) is given by one dict of nonzero entries per row.
    Gaussian elimination takes diagonal pivots only, in minimum-degree
    order (smallest index among equals), and stops at the first pivot <= 0:
    a Z-matrix is a nonsingular M-matrix iff all its leading principal
    minors are positive, in any symmetric order (Berman and Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6), so no
    pivoting is needed.  Positive pivots keep the rest a Z-matrix, and an
    off-diagonal entry only moves away from 0, so the pattern stays
    symmetric.  Without ``rhs`` this is the test alone and returns ``()``
    on success.  Like :func:`inertia`, this wraps a core of reduced integer
    pairs (:func:`_mmatrix_solve`); only the solution becomes `Fraction`.
    """
    b = None if rhs is None else [(v.numerator, v.denominator) for v in rhs]
    x = _mmatrix_solve(_pair_rows(rows), b)
    return None if x is None else tuple(_fraction(v) for v in x)


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


def matrix_components(A: SymMatrix) -> list[list[int]]:
    """The connected components of A's matrix graph, whose edges are the
    nonzero off-diagonal entries; ValueError on a negative one.

    Decomposition matrices, and every matrix the decision and reduction
    layers accept, have non-negative off-diagonal entries.  The first
    negative entry is named row by row, then by column, whatever the order
    of the row dicts' keys.  Components are sorted lists of vertices,
    ordered by smallest member, found by a depth-first walk over the same
    nonzero entries.
    """
    rows = A.sparse
    for i, row in enumerate(rows):
        negative = [j for j, x in row.items() if j > i and x < 0]
        if negative:
            raise ValueError(f"negative off-diagonal entry at ({i}, {min(negative)})")
    seen = [False] * len(rows)
    components: list[list[int]] = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in rows[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(comp))
    return components


def _primitive(vec: Sequence[tuple[int, int]]) -> list[int]:
    """The coprime integers on the ray of a nonzero vector of reduced pairs:
    the vector times the lcm of its denominators, over the gcd of the
    resulting numerators."""
    scale = lcm(*(d for _, d in vec))
    ints = [n * (scale // d) for n, d in vec]
    common = gcd(*ints)
    return [v // common for v in ints]


def primitive_vector(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector by a positive rational to coprime integer entries.

    The zero vector is returned unchanged.  Scaling by a positive factor
    preserves direction, sign pattern, and support, so callers may normalize
    kernel vectors freely.
    """
    if not any(vec):
        return tuple(vec)
    return tuple(Fraction(v) for v in _primitive([(v.numerator, v.denominator) for v in vec]))
