"""Dense reference implementations that the package no longer runs.

The package solves, shrinks and reduces with sparse eliminations; these are
the dense routines they replaced, kept so tests can compare results exactly:

- :func:`solve_rows` and :func:`kernel_basis`, fraction-free Gauss-Jordan
  solves and kernels of general matrices;
- :func:`halving_shrink`, the strict shrink that halves eps from 1/2 and
  takes one inertia per try;
- :func:`crossing_reduction`, the singular reduction whose walk finds the
  crossing with two determinants and its kernel with a null space;
- :func:`fraction_surface_sides`, the curve-system sides of the surface
  builder computed in `Fraction`, as the builder did before it moved them
  to reduced integer pairs;
- :func:`per_piece_surface_violations`, the surface-certificate verifier
  that rescans every torus once per piece, checks A' against A with
  :func:`all_pairs_reduction_violations` and on every pair, and multiplies
  A' by the degree vector a second time;
- :func:`all_pairs_reduction_violations`, the reduction verifier that takes
  the absolute value of every off-diagonal entry of A', densified
  (:func:`dense_rows`) from the nonzero entries the package keeps.

- :func:`bareiss_inertia`, the dense fraction-free (Bareiss) inertia that
  the sparse graph-order inertia replaced;
- :func:`fraction_congruence`, :func:`fraction_pivot_witnesses` and
  :func:`fraction_mmatrix_solve`, the sparse eliminations as they ran on
  `Fraction` entries before the package moved them to reduced integer
  pairs; same pivot order, so witnesses and solutions must agree exactly.

It also holds :func:`bilinear_identity`, the exact quadratic-form expansion
behind reading a negativity certificate as "A is negative", and the dense
matrix helpers that only tests need: :func:`to_lists`, :func:`dense_rows`,
:func:`dense_json`, :func:`mat_vec`, :func:`sym` (a matrix from dense
rows), :func:`principal_submatrix`,
:func:`matrix_graph_components` and :func:`is_connected_matrix`.
"""

from bisect import bisect_left, insort
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from gmsurf.exact_linalg import (
    Inertia,
    SymMatrix,
    _clear_denominators,
    _eliminate,
    determinant_rows,
    inertia,
    matrix_components,
    nullspace_rows,
    primitive_vector,
    rational_str,
    to_rational,
)
from gmsurf.manifold import DecompositionGraph, a_minus, decomposition_matrix
from gmsurf.reduction import (
    NegativeDefiniteError,
    NoPositiveEigenvalueError,
    ReductionCertificate,
    find_singular_reduction,
    strict_shrink,
)
from gmsurf.surface import CurveSystem, SurfaceCertificate


def sym(rows: Sequence[Sequence[int | str | Fraction]]) -> SymMatrix:
    """The :class:`SymMatrix` of dense rows: each entry through
    :func:`to_rational` (ints, rational strings, Fractions; floats are a
    TypeError), the zeros dropped.  Ragged rows are a ValueError."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"not square: {n} rows but a row of length {len(row)}")
    return SymMatrix([{j: x for j, x in enumerate(map(to_rational, row)) if x} for row in rows])


def to_lists(A: SymMatrix) -> list[list[Fraction]]:
    """Dense, mutable copy of the entries."""
    return [[A[i, j] for j in range(A.order)] for i in range(A.order)]


def principal_submatrix(A: SymMatrix, idx: Iterable[int]) -> SymMatrix:
    """Symmetric submatrix on the rows/columns ``idx``.

    ``idx`` may be given in any order; duplicates are rejected.  The empty
    index set yields the 0x0 matrix, whose inertia is (0, 0, 0).
    """
    indices = sorted(idx)
    if len(set(indices)) != len(indices):
        raise IndexError("duplicate indices")
    n = A.order
    for i in indices:
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for order {n}")
    return sym([[A[i, j] for j in indices] for i in indices])


def matrix_graph_components(A: SymMatrix) -> list[list[int]]:
    """Connected components of the matrix graph (edge {i, j} iff A[i][j] != 0,
    i != j), whatever the signs, sorted and ordered by smallest member.
    Every component is labelled by its smallest vertex: each edge merges
    the labels of its ends."""
    label = list(range(A.order))
    for i in range(A.order):
        for j in range(i):
            if A[i, j] != 0 and label[i] != label[j]:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    return [[i for i in range(A.order) if label[i] == root] for root in sorted(set(label))]


def is_connected_matrix(A: SymMatrix) -> bool:
    return len(matrix_graph_components(A)) <= 1


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
    return nullspace_rows(to_lists(A))


def _fraction_rows(A) -> list[dict[int, Fraction]]:
    """Fresh ``{column: value}`` rows of the nonzero entries of A (a
    :class:`SymMatrix`, dict rows or dense rows)."""
    if isinstance(A, SymMatrix):
        return [dict(row) for row in A.sparse]
    return [
        dict(row) if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x} for row in A
    ]


def bareiss_inertia(A: SymMatrix) -> Inertia:
    """Inertia by dense fraction-free (Bareiss) congruence on integers (the
    dense integer core).

    Runs on L*A (L the lcm of all denominators) with 1x1 pivots, swapping in
    a nonzero diagonal entry when there is one; when the whole trailing
    diagonal is zero but some entry b is not, adding row+column j to
    row+column k makes the pivot 2b.  The trailing block is kept as |d| times
    the Schur complement, d the previous pivot, so each update divides
    exactly by the previous |d| and each pivot's sign is one eigenvalue's.
    """
    n = A.order
    rows = to_lists(A)
    scale = lcm(*(x.denominator for row in rows for x in row))
    block = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
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


def fraction_congruence(adj: list[dict[int, Fraction]], steps: list | None = None) -> Inertia:
    """The graph-order congruence of `gmsurf.exact_linalg.inertia` on
    `Fraction` dict rows, eliminated in place; ``steps`` as there, in
    `Fraction`."""
    remaining = set(range(len(adj)))
    queue: list[tuple[int, int]] = []
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

    def subtract(i: int, j: int, amount: Fraction) -> None:
        value = adj[i].get(j, 0) - amount
        if value:
            adj[i][j] = adj[j][i] = value
        else:
            adj[i].pop(j, None)
            adj[j].pop(i, None)

    enqueue(remaining)
    n_pos = n_zero = n_neg = 0
    while remaining:
        if queue:
            _, k = queue.pop(0)
            del queued[k]
            row = adj[k]
            pivot = row.pop(k)
            if pivot > 0:
                n_pos += 1
            else:
                n_neg += 1
            remaining.remove(k)
            touched = list(row.items())
            unqueue(row)
            factors = [a / pivot for _, a in touched]
            for s, (i, _) in enumerate(touched):
                del adj[i][k]
                factor = factors[s]
                for j, b in touched[s:]:
                    subtract(i, j, factor * b)
            enqueue(row)
            if steps is not None:
                steps.append(({k: Fraction(1)}, pivot, [(k, dict(zip(row, factors)))]))
            continue
        isolated = [i for i in remaining if not adj[i]]
        if isolated:
            n_zero += len(isolated)
            remaining.difference_update(isolated)
            continue
        k = min(remaining, key=lambda i: (len(adj[i]), i))
        l = min(adj[k], key=lambda j: (len(adj[j]), j))
        b = adj[k].pop(l)
        del adj[l][k]
        n_pos += 1
        n_neg += 1
        remaining.difference_update((k, l))
        touched = list({**adj[k], **adj[l]})
        x = [adj[i].pop(k, 0) / b for i in touched]
        y = [adj[i].pop(l, 0) / b for i in touched]
        for s, i in enumerate(touched):
            for t in range(s, len(touched)):
                subtract(i, touched[t], b * (x[s] * y[t] + y[s] * x[t]))
        enqueue(touched)
        if steps is not None:
            seed = {k: Fraction(1), l: Fraction(1 if b > 0 else -1)}
            steps.append((seed, 2 * abs(b), [(k, dict(zip(touched, y))), (l, dict(zip(touched, x)))]))
    return Inertia(n_pos, n_zero, n_neg)


def fraction_pivot_witnesses(A) -> list[tuple[Fraction, dict[int, Fraction]]]:
    """`gmsurf.exact_linalg.pivot_witnesses` on `Fraction` entries."""
    steps: list = []
    fraction_congruence(_fraction_rows(A), steps)
    witnesses = []
    for t, (seed, value, _) in enumerate(steps):
        if value <= 0:
            continue
        x = dict(seed)
        for _, _, columns in reversed(steps[:t]):
            for m, column in columns:
                total = sum(f * x[i] for i, f in column.items() if i in x)
                if total:
                    x[m] = -total
        witnesses.append((value, x))
    return witnesses


def fraction_mmatrix_solve(rows, rhs=None) -> tuple[Fraction, ...] | None:
    """`gmsurf.exact_linalg.mmatrix_solve` on `Fraction` entries."""
    adj = [dict(row) for row in rows]
    b = None if rhs is None else list(rhs)
    queue = sorted((len(row) - (i in row), i) for i, row in enumerate(adj))
    queued = {key[1]: key for key in queue}
    done: list[tuple[int, Fraction, dict[int, Fraction]]] = []
    while queue:
        _, k = queue.pop(0)
        del queued[k]
        row = adj[k]
        pivot = row.pop(k, 0)
        if pivot <= 0:
            return None
        for i in row:
            del queue[bisect_left(queue, queued[i])]
        for i in row:
            other = adj[i]
            factor = other.pop(k) / pivot
            if b is not None and b[k]:
                b[i] -= factor * b[k]
            for j, v in row.items():
                other[j] = other.get(j, 0) - factor * v
            key = queued[i] = (len(other) - (i in other), i)
            insort(queue, key)
        done.append((k, pivot, row))
    if b is None:
        return ()
    x = [Fraction(0)] * len(adj)
    for k, pivot, row in reversed(done):
        x[k] = (b[k] - sum(v * x[j] for j, v in row.items())) / pivot
    return tuple(x)


def halving_shrink(A: SymMatrix) -> SymMatrix:
    """Couplings times (1 - eps) for the first eps = 1/2, 1/4, ... that keeps
    a positive eigenvalue of A-minus."""
    if inertia(a_minus(A).sparse).n_pos == 0:
        raise NoPositiveEigenvalueError("A-minus has no positive eigenvalue")
    eps = Fraction(1, 2)
    while True:
        rows = to_lists(A)
        for i in range(A.order):
            for j in range(A.order):
                if i != j and rows[i][j] != 0:
                    rows[i][j] *= 1 - eps
        shrunk = sym(rows)
        if inertia(a_minus(shrunk).sparse).n_pos > 0:
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
        m = to_lists(B)
        return m, _positive_kernel_vector(m)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j and B[i, j] != 0]

    def state(k: int):
        m = to_lists(B)
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
    matrix_components(A)
    B = a_minus(A)
    for component in matrix_graph_components(B):
        block = principal_submatrix(B, component)
        ine = inertia(block.sparse)
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
    return ReductionCertificate(a_prime=tuple({j: x for j, x in enumerate(row) if x} for row in m), a=tuple(a))


def fraction_surface_sides(G: DecompositionGraph) -> tuple[tuple[int, ...], int, tuple[CurveSystem, ...]]:
    """The degrees, scale and curve systems of `gmsurf.surface.build_surface_certificate`,
    the sides computed in `Fraction` from the same shrink and reduction."""
    A = decomposition_matrix(G)
    reduction = find_singular_reduction(strict_shrink(A))
    a, a_prime = reduction.a, reduction.a_prime
    index = {p.id: k for k, p in enumerate(G.pieces)}
    sides: list[tuple] = []
    for t_idx, t in enumerate(G.tori):
        u, v = index[t.from_piece], index[t.to_piece]
        coupling = A[u, v]
        from_plus = (coupling - a_prime[v].get(u, 0)) / (2 * coupling) * a[u]
        to_plus = (coupling - a_prime[u].get(v, 0)) / (2 * coupling) * a[v]
        from_minus, to_minus = a[u] - from_plus, a[v] - to_plus
        sides.append((t_idx, t.from_piece, from_plus, from_minus,
                      (to_plus - t.q * from_plus) / t.p, (-to_minus - t.q * from_minus) / t.p))
        sides.append((t_idx, t.to_piece, to_plus, to_minus,
                      (from_plus - t.q_prime * to_plus) / t.p, (-from_minus - t.q_prime * to_minus) / t.p))
    scale = lcm(*(x.denominator for x in a), *(x.denominator for side in sides for x in side[2:]))
    systems = tuple(
        CurveSystem(t_idx, side, *(int(x * scale) for x in values)) for t_idx, side, *values in sides
    )
    return tuple(int(x * scale) for x in a), scale, systems


def _euler_wrt_meridians(G: DecompositionGraph, piece_id: int) -> Fraction:
    """e' = e - sum over incident tori of q/p, q read from this piece's side."""
    e_prime = next(p.euler for p in G.pieces if p.id == piece_id)
    for t in G.tori:
        if t.touches(piece_id):
            e_prime -= Fraction(t.q if piece_id == t.from_piece else t.q_prime, t.p)
    return e_prime


def per_piece_surface_violations(G: DecompositionGraph, cert: SurfaceCertificate) -> list[str]:
    """The surface-certificate violations, found piece by piece over all tori."""
    violations: list[str] = []
    A = decomposition_matrix(G)
    n = A.order
    index = {p.id: k for k, p in enumerate(G.pieces)}

    if len(cert.degrees) != n:
        return [f"degree vector length {len(cert.degrees)} != piece count {n}"]
    if cert.scale < 1:
        violations.append(f"scale must be a positive integer, got {cert.scale}")
    if any(d < 0 for d in cert.degrees):
        violations.append("negative degree")
    if all(d == 0 for d in cert.degrees):
        violations.append("all degrees are zero")

    violations.extend(all_pairs_reduction_violations(A, cert.reduction))
    if shape_violation(A, cert.reduction):
        return violations
    a_prime = dense_rows(cert.reduction.a_prime)
    for i in range(n):
        for j in range(n):
            if i != j and A[i, j] != 0 and abs(a_prime[i][j]) >= A[i, j]:
                violations.append(f"reduction not strict at ({i}, {j})")
    if tuple(cert.reduction.a) != tuple(Fraction(d) for d in cert.degrees):
        violations.append("reduction vector differs from degree vector")
    image = mat_vec(a_prime, [Fraction(d) for d in cert.degrees])
    if any(v != 0 for v in image):
        violations.append("reduction does not annihilate the degree vector")

    by_torus: dict[int, dict[int, CurveSystem]] = {}
    for s in cert.systems:
        if not 0 <= s.torus < len(G.tori):
            violations.append(f"curve system references unknown torus {s.torus}")
            continue
        torus = G.tori[s.torus]
        if not torus.touches(s.side):
            violations.append(f"torus {s.torus}: side {s.side} is not one of its pieces")
            continue
        slot = by_torus.setdefault(s.torus, {})
        if s.side in slot:
            violations.append(f"torus {s.torus}: duplicate system for side {s.side}")
        slot[s.side] = s
    for t_idx, torus in enumerate(G.tori):
        sides = by_torus.get(t_idx, {})
        for side in (torus.from_piece, torus.to_piece):
            if side not in sides:
                violations.append(f"torus {t_idx}: missing system for side {side}")
    if violations:
        return violations

    for s in cert.systems:
        degree = cert.degrees[index[s.side]]
        if s.a_plus < 0 or s.a_minus < 0:
            violations.append(f"torus {s.torus} side {s.side}: negative a coordinate")
        if s.a_plus + s.a_minus != degree:
            violations.append(
                f"torus {s.torus} side {s.side}: a_plus + a_minus = "
                f"{s.a_plus + s.a_minus} != degree {degree}"
            )
        if degree > 0 and (s.a_plus <= 0 or s.a_minus <= 0):
            violations.append(
                f"torus {s.torus} side {s.side}: a coordinates must be positive "
                f"when the piece degree is"
            )

    for piece in G.pieces:
        degree = Fraction(cert.degrees[index[piece.id]])
        own = [s for s in cert.systems if s.side == piece.id]
        fiber_balance = sum(Fraction(s.b_plus + s.b_minus) for s in own)
        expected = degree * _euler_wrt_meridians(G, piece.id)
        if fiber_balance != expected:
            violations.append(
                f"piece {piece.id}: fiber balance {fiber_balance} != "
                f"degree * meridian Euler number {expected}"
            )
        meridian_balance = Fraction(0)
        for t_idx, torus in enumerate(G.tori):
            if not torus.touches(piece.id):
                continue
            other = torus.to_piece if torus.from_piece == piece.id else torus.from_piece
            opposite = by_torus[t_idx][other]
            meridian_balance += Fraction(opposite.a_plus - opposite.a_minus, torus.p)
        if meridian_balance != degree * piece.euler:
            violations.append(
                f"piece {piece.id}: meridian balance {meridian_balance} != "
                f"degree * Euler number {degree * piece.euler}"
            )

    for t_idx, torus in enumerate(G.tori):
        lhs = by_torus[t_idx][torus.from_piece]
        rhs = by_torus[t_idx][torus.to_piece]
        q, p, qp, pp = torus.q, torus.p, torus.q_prime, torus.p_prime
        if rhs.a_plus != q * lhs.a_plus + p * lhs.b_plus or rhs.b_plus != -pp * lhs.a_plus - qp * lhs.b_plus:
            violations.append(f"torus {t_idx}: plus system breaks the gluing relation")
        if rhs.a_minus != -(q * lhs.a_minus + p * lhs.b_minus) or rhs.b_minus != pp * lhs.a_minus + qp * lhs.b_minus:
            violations.append(f"torus {t_idx}: minus system breaks the gluing relation")

    return violations


def mat_vec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact matrix-vector product of dense rows, summing each row over its nonzero entries."""
    return tuple(sum((x * v for x, v in zip(r, vec) if x), Fraction(0)) for r in rows)


def dense_rows(rows: Sequence[dict[int, Fraction]]) -> list[list[Fraction]]:
    """The n x n rows of a matrix kept as one ``{column: value}`` dict of
    nonzero entries per row, n the number of rows."""
    return [[row.get(j, Fraction(0)) for j in range(len(rows))] for row in rows]


def dense_json(rows: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    """The rational string rows of dense rows, every entry written by
    :func:`rational_str`: the reference for the file writer, which writes
    from the nonzeros alone."""
    return [[rational_str(x) for x in row] for row in rows]


def shape_violation(A: SymMatrix, cert: ReductionCertificate) -> str | None:
    """The shape mismatch of a reduction certificate against A, if any: ``a``
    or ``a_prime`` of another order than A, or a column of ``a_prime``
    outside its own rows' range."""
    k = len(cert.a_prime)
    stray = sorted({j for row in cert.a_prime for j in row} - set(range(k)))
    if len(cert.a) == k == A.order and not stray:
        return None
    shape = f"{k} x {k}" + (f" with columns {stray} outside it" if stray else "")
    return f"shape mismatch: a has {len(cert.a)} entries, a_prime is {shape}, matrix order {A.order}"


def all_pairs_reduction_violations(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """The reduction violations, with |A'[i][j]| <= A[i][j] tested on every
    pair of the densified A'."""
    violations: list[str] = []
    n = A.order
    shape = shape_violation(A, cert)
    if shape:
        return [shape]
    a_prime = dense_rows(cert.a_prime)
    for i in range(n):
        if a_prime[i][i] != A[i, i]:
            violations.append(f"diagonal changed at {i}: {a_prime[i][i]} != {A[i, i]}")
    for i in range(n):
        for j in range(n):
            if i != j and abs(a_prime[i][j]) > A[i, j]:
                violations.append(
                    f"not a reduction at ({i}, {j}): |{a_prime[i][j]}| > {A[i, j]}"
                )
    if all(v == 0 for v in cert.a):
        violations.append("annihilated vector is zero")
    for i, v in enumerate(cert.a):
        if v < 0:
            violations.append(f"negative entry a[{i}] = {v}")
    image = mat_vec(a_prime, cert.a)
    for i, v in enumerate(image):
        if v != 0:
            violations.append(f"(A' a)[{i}] = {v} != 0")
    return violations


class ZeroEntryError(ValueError):
    """The weight vector has a zero entry where a nonzero one is required."""


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
    image = mat_vec(to_lists(A), a)
    rhs = sum(a[i] * image[i] * (x[i] / a[i]) ** 2 for i in range(n))
    rhs += sum(
        -A[i, j] * a[i] * a[j] * (x[i] / a[i] - x[j] / a[j]) ** 2
        for i in range(n)
        for j in range(i + 1, n)
    )
    return lhs, rhs
