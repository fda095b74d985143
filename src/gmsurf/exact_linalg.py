"""Exact linear algebra over the rationals, with no floating point.

Matrices enter as arbitrary-precision rationals (`fractions.Fraction`,
:class:`SymMatrix` entries), and the public results leave as `Fraction`
too: determinants and kernel vectors.

The one exact elimination is :func:`_congruence`, the sparse congruence
diagonalization behind :func:`inertia`, the exact eigenvalue sign counts
(n_pos, n_zero, n_neg) of a symmetric rational matrix; by Sylvester's law of
inertia the sign counts are invariant under congruence, so no root finding
is needed.  A decomposition matrix has the sparsity of the piece graph (a
tree plus a few extra tori), so a :class:`SymMatrix` keeps only its nonzero
entries, one ``{column: value}`` dict per row, and its one constructor
checks those entries alone.  :func:`matrix_components` checks the sign of
the couplings and finds the components of the matrix graph.
:func:`_congruence` takes such dict rows and eliminates in minimum-degree
order, which creates no fill on a tree: its cost follows the number of
edges and the fill, not the cube of the order.  Every pivot is one diagonal
entry; where every remaining one is zero, it first adds one row and column
to another.  It also returns its steps, the L D L^T factors that
back-substitution reads.

:func:`_perron_search` is the package's one Perron search: for a connected
A with non-negative couplings, given in integers by :func:`_scaled`, it
finds the exact sign of the Perron root of A-minus (A with its positive
diagonal entries negated) and a positive witness vector, in fixed-point
integers (:func:`_fixed_point_solve`, an L D L^T in the same minimum-degree
order with every product floored), and from 64 bits on one exact step: one
:func:`_congruence`, whose steps give the kernel where the root is 0.  It
reads a diagonal entry only as its absolute value, so it takes A's own
rows, never a copy in A-minus form.  It sits beside the elimination so that
the decision (and through it the generator) and the reduction builders
share it.

:func:`determinant_rows` and :func:`nullspace_rows` are dense: they clear
denominators by one common multiple per row, then fraction-free (Bareiss)
elimination divides exactly by the previous pivot at each step, so entries
stay integers the size of minors of the input.  Only the tests and the
benchmark's tracer name them.

The sparse elimination runs on one exact core of integers.  Each entry is a
reduced (numerator, denominator) pair of ints with a positive denominator,
and every update uses `Fraction`'s own gcd-first difference and product on
the pairs (:func:`_sub`, :func:`_mul`; Knuth, TAOCP vol. 2, 4.5.1), so each
pair holds the reduced value a `Fraction` elimination would, in the same
pivot order, with no `Fraction` made.  :func:`inertia` is the one
`Fraction` entry to :func:`_congruence`: its `Fraction` entries become
pairs once.  The Perron search makes its pairs from its own integers
(:func:`_reduced`), and :func:`_primitive` takes the coprime integers on
the ray of its kernel.  The builders (:mod:`gmsurf.reduction`,
:mod:`gmsurf.surface`) keep their own values in ints and pairs
(:func:`_mul`, :func:`_sub`) and make a `Fraction` only for what they
return (:func:`_fraction`).
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .value import Value, _set

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


class Inertia(Value):
    """Exact eigenvalue sign counts of a symmetric matrix."""

    __slots__ = ("n_pos", "n_zero", "n_neg")

    def __init__(self, n_pos: int, n_zero: int, n_neg: int):
        _set(self, "n_pos", n_pos)
        _set(self, "n_zero", n_zero)
        _set(self, "n_neg", n_neg)

    def __str__(self) -> str:
        return f"({self.n_pos}, {self.n_zero}, {self.n_neg})"


class SymMatrix(Value):
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

    __slots__ = ("sparse",)

    def __init__(self, sparse: tuple[dict[int, Fraction], ...]):
        rows = tuple(sparse)
        _set(self, "sparse", rows)
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


Step = tuple[int, tuple[int, int], list[tuple[int, tuple[int, int]]]]


def _congruence(adj: list[dict[int, tuple[int, int]]]) -> tuple[Inertia, list[Step]]:
    """Sparse graph-order congruence of symmetric pair rows, eliminated in place; see :func:`inertia`.

    Entries are reduced (numerator, denominator) pairs.
    Returns the inertia and the steps in order, each as (k, the inverse of
    its pivot, the items of row k it eliminated): the L D L^T factors of the
    matrix after its row additions, so where none was made,
    back-substitution through them solves for the vertices they eliminated.
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
    steps: list[Step] = []
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
            steps.append((k, inverse, touched))
            for s, (i, a) in enumerate(touched):
                del adj[i][k]
                factor = _mul(a, inverse)
                for j, b in touched[s:]:
                    subtract(i, j, _mul(factor, b))
            enqueue(row)
            continue
        isolated = [i for i in remaining if not adj[i]]
        if isolated:
            n_zero += len(isolated)
            remaining.difference_update(isolated)
            continue
        # Every remaining diagonal entry is zero, so a row's length is its
        # degree.  Adding row and column l to row and column k, a congruence,
        # leaves b = M[k][l] and puts 2b on k's diagonal, the next pivot.
        k = min(remaining, key=lambda i: (len(adj[i]), i))
        l = min(adj[k], key=lambda j: (len(adj[j]), j))
        for j, (n, d) in list(adj[l].items()):
            if j != k:
                subtract(k, j, (-n, d))
        b = adj[k][l]
        adj[k][k] = _reduced(2 * b[0], b[1])
        enqueue((k,))
    return Inertia(n_pos, n_zero, n_neg), steps


def inertia(rows: Sequence[dict[int, Fraction]]) -> Inertia:
    """Exact inertia (n_pos, n_zero, n_neg) of a symmetric matrix by sparse congruence.

    ``rows`` holds one ``{column: value}`` dict of nonzero entries per row,
    such as :attr:`SymMatrix.sparse`; symmetry is assumed.  The input
    becomes fresh rows of (numerator, denominator) pairs, each entry read
    once with no `Fraction` made, and is not changed.  Pivots are
    eliminated in graph order, each step replacing the rest of the matrix
    by its Schur complement (a congruence, so by Sylvester's law of inertia
    each pivot's sign is one eigenvalue's):

    - the pivot is the diagonal entry of the remaining vertex of least
      degree whose diagonal is nonzero, the smallest index among equals
      (minimum-degree order, Rose 1972; on a tree it creates no fill,
      Parter 1961);
    - when every remaining diagonal entry is zero, take k, a vertex of least
      degree, l, its neighbour of least degree, and b = M[k][l]: adding row
      and column l to row and column k, a congruence too, puts 2b on k's
      diagonal, the next pivot;
    - a remaining vertex with no entry at all is one zero eigenvalue.

    Entries stay reduced integer pairs at every step, updated by
    `Fraction`'s own gcd-first arithmetic (:func:`_sub`, :func:`_mul`), so
    each holds the value a `Fraction` elimination would; no `Fraction` is
    made.
    """
    return _congruence([{j: (x.numerator, x.denominator) for j, x in row.items()} for row in rows])[0]


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
    of the row dicts' keys.  The components are :func:`_components` of all
    vertices.
    """
    rows = A.sparse
    for i, row in enumerate(rows):
        # a stored entry is a nonzero Fraction, whose sign is its numerator's
        negative = [j for j, x in row.items() if j > i and x._numerator < 0]
        if negative:
            raise ValueError(f"negative off-diagonal entry at ({i}, {min(negative)})")
    return _components(rows, range(len(rows)))


def _components(rows: Sequence[dict], vertices: Sequence[int]) -> list[list[int]]:
    """The components of the matrix graph of ``{column: value}`` rows on `vertices` (ascending):
    sorted lists, by smallest member, from a depth-first walk over the stored entries."""
    seen = [True] * len(rows)
    for i in vertices:
        seen[i] = False
    components: list[list[int]] = []
    for start in vertices:
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


def _component_rows(rows: Sequence[dict], component: list[int]) -> list[dict]:
    """The principal block of ``{column: value}`` rows on `component`, re-indexed 0..k-1 in its order."""
    position = {i: r for r, i in enumerate(component)}
    return [{position[j]: x for j, x in rows[i].items() if j in position} for i in component]


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n / d, d > 0, as a reduced pair."""
    g = gcd(n, d)
    return n // g, d // g


def _primitive(vec: Sequence[tuple[int, int]]) -> list[int]:
    """The coprime integers on the ray of a nonzero vector of reduced pairs:
    the vector times the lcm of its denominators, over the gcd of the
    resulting numerators."""
    scale = lcm(*(d for _, d in vec))
    ints = [n * (scale // d) for n, d in vec]
    common = gcd(*ints)
    return [v // common for v in ints]


# The rounds of :func:`_perron_search`.
FIRST_BITS, FULL_BITS = 16, 64
POWER_STEPS, SOLVES, RAISE_BITS = 3, 6, 30


def _fixed_point_solve(rows: list[dict[int, int]], rhs: list[int]) -> list[int] | None:
    """x with M x = rhs, rounded, for a symmetric fixed-point M-matrix M; None at a pivot <= 0.

    M is one ``{column: int}`` dict per row, diagonal key included, and both
    it and rhs are changed in place.  M = L D L^T in minimum-degree order,
    as in :func:`_congruence`, with every product over a pivot floored,
    so entries keep their fixed-point length.
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


Scaled = tuple[list[int], list[int], list[dict[int, int]]]


def _scaled(rows: Sequence[dict[int, Fraction]]) -> Scaled:
    """(scales, own, couplings): row i of A times scales[i], the lcm of its
    denominators, with A[i][i] as own[i] and the couplings as ints.  B's
    row is the same with -|own[i]|.  The entries' slots are read directly,
    as :class:`SymMatrix` does."""
    scales, own, couplings = [], [], []
    for i, row in enumerate(rows):
        L = lcm(*[x._denominator for x in row.values()])
        scaled = {j: x._numerator * (L // x._denominator) for j, x in row.items()}
        scales.append(L)
        own.append(scaled.pop(i, 0))
        couplings.append(scaled)
    return scales, own, couplings


def _perron_search(scaled: Scaled, sign_only: bool = False) -> tuple[int, list[int], list[int]]:
    """The sign of the Perron root of B, the A-minus of a connected A, and its witness vector.

    A is given in its :func:`_scaled` form, in integers only.  Returns
    (sign, a, y): a positive coprime ints and y = scales * (B a) exactly,
    with y > 0 for sign 1, y < 0 for sign -1 and y = 0 for sign 0, where a
    spans the kernel of B.

    *The vector.*  For a > 0 the Collatz-Wielandt bounds
    min_i (Ba)_i / a_i <= rho <= max_i (Ba)_i / a_i hold for the Perron
    root rho of the irreducible B, with equality at its Perron vector
    (Berman and Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, ch. 2; Horn and Johnson, *Matrix Analysis*, ch. 8).  So an
    a > 0 with Ba > 0 exists iff rho > 0, one with Ba < 0 iff rho < 0.  It
    is searched for in fixed-point integers of 16 bits, then 32, 64 and on,
    with no float: from the all-ones vector, POWER_STEPS power steps on
    B + sI, then shift-invert steps v <- (sigma I - B)^-1 v
    (:func:`_fixed_point_solve`), sigma the upper bound raised by a relative
    2^-RAISE_BITS.  A round ends after SOLVES solves, a failed one or one
    that leaves an entry at 1, and the next doubles the bits.  Every vector
    is checked exactly, one integer dot product per row of B times its lcm.

    *Root 0.*  No a > 0 has Ba > 0 or Ba < 0 then; a round that hits Ba = 0
    shows it, or else the one exact step.  The first round that ends
    undecided from FULL_BITS on runs :func:`_congruence` once on B's
    reduced pairs, and rho has the sign of B's largest eigenvalue: 1 if a
    pivot is positive, -1 if no eigenvalue is 0, else 0.  At 0, B is
    negative semidefinite, so a zero diagonal entry has a zero row: no row
    addition is made, and the one zero eigenvalue is an isolated vertex;
    back-substitution through the steps from that vertex at 1 gives the
    kernel, the Perron vector, which :func:`_primitive` makes coprime and
    ``image`` rechecks exactly.  At a nonzero sign the rounds go on doubling
    the bits for a witness, which shows at some precision, so there is no
    retry budget.

    *Sign only.*  With ``sign_only`` the caller reads the sign alone.  A
    vector v with v^T B v > 0 then ends the search at sign 1, with (1, v, y)
    for that v: rho is B's largest eigenvalue, at least the Rayleigh
    quotient of v.  The exact step's sign is returned at once, as
    (sign, [], []): no vector shows it.
    """
    scales, own, couplings = scaled
    n = len(own)
    shift = max(-(-abs(d) // L) for d, L in zip(own, scales)) + 1
    if sign_only:
        # v^T B v = sum_i v_i y_i / scales[i]; weights clear those denominators
        scale_lcm = lcm(*scales)
        weights = [scale_lcm // L for L in scales]

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
            if all(x > 0 for x in y) or all(x < 0 for x in y) or not any(y):
                common = gcd(*v)
                return (y[0] > 0) - (y[0] < 0), [x // common for x in v], [x // common for x in y]
            if sign_only and sum(x * w * p for x, w, p in zip(v, weights, y)) > 0:
                return 1, v, y
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
            ine, steps = _congruence(
                [
                    {**({i: _reduced(-abs(d), L)} if d else {}), **{j: _reduced(c, L) for j, c in row.items()}}
                    for i, (d, L, row) in enumerate(zip(own, scales, couplings))
                ]
            )
            sign = 1 if ine.n_pos else 0 if ine.n_zero else -1
            if sign_only:
                return sign, [], []
            if sign == 0:
                x = [(1, 1)] * n
                for k, inverse, touched in reversed(steps):
                    total = (0, 1)
                    for j, a in touched:
                        total = _sub(total, _mul(a, x[j]))
                    x[k] = _mul(total, inverse)
                kernel = _primitive(x)
                if min(kernel) <= 0 or any(image(kernel)):
                    raise AssertionError("the exact step's kernel vector fails its recheck")
                return 0, kernel, [0] * n
        bits *= 2
