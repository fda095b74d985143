"""Dense reference implementations that the package no longer runs.

The package solves, shrinks and reduces with sparse eliminations; these are
the dense routines they replaced, kept so tests can compare results exactly:

- :func:`solve_rows` and :func:`kernel_basis`, fraction-free Gauss-Jordan
  solves and kernels of general matrices;
- :func:`halving_shrink`, the shrink that halves eps from 1/2 and takes
  one inertia per try, which the surface builder used before its one
  positive vector; its shrunk matrices still feed the reduction comparisons;
- :func:`fraction_surface_sides`, the curve-system sides of the surface
  builder computed in `Fraction`, as the builder did before it moved them
  to reduced integer pairs, from the builder's own strict reduction
  (:func:`strict_shrink_certificate`), checked first by
  :func:`strict_reduction_violations`: the all-pairs strictness check plus
  A' a = 0;
- :func:`per_piece_surface_violations`, the surface-certificate verifier
  that rescans every torus once per piece, checks A' against A with
  :func:`all_pairs_reduction_violations` and on every pair, and multiplies
  A' by the degree vector a second time;
- :func:`all_pairs_reduction_violations`, the reduction verifier that takes
  the absolute value of every off-diagonal entry of A', densified
  (:func:`dense_rows`) from the nonzero entries the package keeps;
- :func:`fraction_verify_reduction` and
  :func:`fraction_verify_surface_certificate`, the two verifiers as they
  summed and compared in `Fraction` before the package moved them to
  integer numerators and denominators; their violation lists, texts and
  order included, are the references for the integer ones.

- :func:`bareiss_inertia`, the dense fraction-free (Bareiss) inertia that
  the sparse graph-order inertia replaced;
- :func:`fraction_congruence`, the sparse congruence as it ran on
  `Fraction` entries before the package moved it to reduced integer
  pairs; same pivot order, so inertias and steps must agree exactly;
- :func:`fraction_mmatrix_solve`, the sparse Gaussian elimination of a
  Z-matrix with diagonal pivots that the package ran, in pairs, for its
  M-matrix kernel test until the congruence's steps replaced it; the
  exact solve the fixed-point solve is compared with;
- :func:`fraction_negativity_certificate`, the negativity certificate
  solved in `Fraction` by :func:`fraction_mmatrix_solve`, and
  :func:`primitive`, the coprime integers on a rational ray.

- :func:`textbook_compose`, :func:`textbook_inverse`,
  :func:`textbook_commutator` (three compositions) and
  :func:`textbook_word_product` (from the identity), the per-point
  permutation kernels that `gmsurf.covers` replaced with one-pass ones;
  :func:`textbook_is_transitive`, an orbit search over a set that visits
  every point once per generator; and :func:`perm_from_cycle_lengths`, the
  per-point cycle builder that `canonical_perm` ran on the points in order.
- :func:`cover_exists_bruteforce`, the exhaustive existence oracle that the
  parity criterion of `gmsurf.covers` is tested against: one sweep over
  S_alpha per (genus, boundary count, degree), on those kernels, cached,
  and :func:`enumeration_cost`, the size of that sweep.

- :func:`a_minus`, the copy of A's rows with every positive diagonal entry
  negated that the decision once made on every call; the Perron search
  reads a diagonal entry only as its absolute value, so the package no
  longer makes it.

It also holds :func:`bilinear_identity`, the exact quadratic-form expansion
behind reading a negativity certificate as "A is negative", and the dense
matrix helpers that only tests need: :func:`to_lists`, :func:`dense_rows`,
:func:`dense_json`, :func:`mat_vec`, :func:`sym` (a matrix from dense
rows), :func:`principal_submatrix`, :func:`matrix_graph_components` and
:func:`is_connected_matrix`; and :func:`replace`, a copy of a record
with some fields changed, as `dataclasses.replace` made of the dataclasses
the records once were.
"""

import inspect
from bisect import bisect_left, insort
from fractions import Fraction
from functools import cache
from itertools import permutations as all_permutations
from itertools import product as cartesian_product
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

from gmsurf.covers import CoverSpec, cycle_type
from gmsurf.exact_linalg import (
    Inertia,
    SymMatrix,
    _clear_denominators,
    _eliminate,
    inertia,
    nullspace_rows,
    rational_str,
    to_rational,
)
from gmsurf.manifold import DecompositionGraph, decomposition_matrix
from gmsurf.reduction import NoPositiveEigenvalueError, ReductionCertificate, strict_shrink
from gmsurf.surface import CurveSystem, SurfaceCertificate


def replace(value, **changes):
    """A copy of ``value`` with the named fields changed; its constructor
    checks the new values as it checks any.  A record's fields are its
    constructor's parameters."""
    fields = {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}
    return type(value)(**{**fields, **changes})


def sym(rows: Sequence[Sequence[int | str | Fraction]]) -> SymMatrix:
    """The :class:`SymMatrix` of dense rows: each entry through
    :func:`to_rational` (ints, rational strings, Fractions; floats are a
    TypeError), the zeros dropped.  Ragged rows are a ValueError."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"not square: {n} rows but a row of length {len(row)}")
    return SymMatrix([{j: x for j, x in enumerate(map(to_rational, row)) if x} for row in rows])


def a_minus(A: SymMatrix) -> tuple[dict[int, Fraction], ...]:
    """The ``{column: value}`` rows of A with every positive diagonal entry negated.

    Only the rows with a positive diagonal entry are copied; every other
    row is A's own dict.  A was checked when it was built, and negating a
    diagonal entry keeps each entry nonzero and mirrored, so the rows are
    not checked again.
    """
    minus = list(A.sparse)
    for i, row in enumerate(minus):
        if row.get(i, 0) > 0:
            minus[i] = {**row, i: -row[i]}
    return tuple(minus)


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


def fraction_congruence(adj: list[dict[int, Fraction]]) -> tuple[Inertia, list]:
    """The graph-order congruence of `gmsurf.exact_linalg._congruence` on
    `Fraction` dict rows, eliminated in place: the inertia and the steps,
    each as (k, 1 / pivot, the items of row k it eliminated).  Where every
    remaining diagonal entry is zero, it adds one row and column to another
    first, as the package does."""
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
    steps = []
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
            steps.append((k, 1 / pivot, touched))
            unqueue(row)
            factors = [a / pivot for _, a in touched]
            for s, (i, _) in enumerate(touched):
                del adj[i][k]
                factor = factors[s]
                for j, b in touched[s:]:
                    subtract(i, j, factor * b)
            enqueue(row)
            continue
        isolated = [i for i in remaining if not adj[i]]
        if isolated:
            n_zero += len(isolated)
            remaining.difference_update(isolated)
            continue
        # every remaining diagonal is zero: add row and column l to k's
        k = min(remaining, key=lambda i: (len(adj[i]), i))
        l = min(adj[k], key=lambda j: (len(adj[j]), j))
        for j, x in list(adj[l].items()):
            if j != k:
                subtract(k, j, -x)
        adj[k][k] = 2 * adj[k][l]
        enqueue((k,))
    return Inertia(n_pos, n_zero, n_neg), steps


def fraction_mmatrix_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """x with M x = rhs for a Z-matrix M (a symmetric nonzero pattern,
    values not necessarily symmetric) given as `Fraction` dict rows, which
    it does not change; None at the first pivot <= 0.  Gaussian elimination
    with diagonal pivots in minimum-degree order: a Z-matrix is a
    nonsingular M-matrix iff all its leading principal minors are positive,
    in any symmetric order (Berman and Plemmons, ch. 6)."""
    adj = [dict(row) for row in rows]
    b = list(rhs)
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
            if b[k]:
                b[i] -= factor * b[k]
            for j, v in row.items():
                other[j] = other.get(j, 0) - factor * v
            key = queued[i] = (len(other) - (i in other), i)
            insort(queue, key)
        done.append((k, pivot, row))
    x = [Fraction(0)] * len(adj)
    for k, pivot, row in reversed(done):
        x[k] = (b[k] - sum(v * x[j] for j, v in row.items())) / pivot
    return tuple(x)


def fraction_negativity_certificate(A: SymMatrix) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """(a, image) of `gmsurf.reduction.negativity_certificate` on a connected
    A, solved with :func:`fraction_mmatrix_solve`; None where it raises
    NotNegativeError."""
    n = A.order
    negated = [{j: -x for j, x in row.items()} for row in A.sparse]
    a = fraction_mmatrix_solve(negated, [Fraction(1)] * n)
    if a is not None:
        return a, tuple([Fraction(-1)] * n)
    last = n - 1
    rest = fraction_mmatrix_solve(
        [{j: x for j, x in row.items() if j != last} for row in negated[:last]],
        [A[i, last] for i in range(last)],
    )
    if rest is None:
        return None
    a = (*rest, Fraction(1))
    image = tuple(sum((x * a[j] for j, x in row.items()), Fraction(0)) for row in A.sparse)
    return None if any(image) else (primitive(a), image)


def primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The coprime integers on the ray of a nonzero rational vector: the
    vector times the lcm of its denominators, over the gcd of the resulting
    numerators."""
    scale = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (scale // v.denominator) for v in vec]
    common = gcd(*ints)
    return tuple(Fraction(v // common) for v in ints)


def halving_shrink(A: SymMatrix) -> SymMatrix:
    """Couplings times (1 - eps) for the first eps = 1/2, 1/4, ... that keeps
    a positive eigenvalue of A-minus."""
    if inertia(SymMatrix(a_minus(A)).sparse).n_pos == 0:
        raise NoPositiveEigenvalueError("A-minus has no positive eigenvalue")
    eps = Fraction(1, 2)
    while True:
        rows = to_lists(A)
        for i in range(A.order):
            for j in range(A.order):
                if i != j and rows[i][j] != 0:
                    rows[i][j] *= 1 - eps
        shrunk = sym(rows)
        if inertia(SymMatrix(a_minus(shrunk)).sparse).n_pos > 0:
            return shrunk
        eps /= 2


def strict_reduction_violations(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """:func:`all_pairs_reduction_violations`, then |A'[i][j]| < A[i][j]
    tested on every pair where A is nonzero."""
    violations = all_pairs_reduction_violations(A, cert)
    if shape_violation(A, cert):
        return violations
    a_prime = dense_rows(cert.a_prime)
    n = A.order
    for i in range(n):
        for j in range(n):
            if i != j and A[i, j] != 0 and abs(a_prime[i][j]) >= A[i, j]:
                violations.append(f"reduction not strict at ({i}, {j})")
    return violations


def strict_shrink_certificate(A: SymMatrix) -> ReductionCertificate:
    """`gmsurf.reduction.strict_shrink` of A as a `Fraction` certificate."""
    rows, a = strict_shrink(A)
    return ReductionCertificate(
        a_prime=tuple({j: Fraction(*x) for j, x in row.items()} for row in rows),
        a=tuple(map(Fraction, a)),
    )


def fraction_surface_sides(G: DecompositionGraph) -> tuple[tuple[int, ...], int, tuple[CurveSystem, ...]]:
    """The degrees, scale and curve systems of `gmsurf.surface.build_surface_certificate`,
    the sides computed in `Fraction` from the strict reduction of
    `gmsurf.reduction.strict_shrink`, which must pass
    :func:`strict_reduction_violations` first."""
    A = decomposition_matrix(G)
    reduction = strict_shrink_certificate(A)
    assert strict_reduction_violations(A, reduction) == []
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

    reduction = ReductionCertificate(cert.a_prime, tuple(map(Fraction, cert.degrees)))
    violations.extend(all_pairs_reduction_violations(A, reduction))
    if shape_violation(A, reduction):
        return violations
    a_prime = dense_rows(cert.a_prime)
    for i in range(n):
        for j in range(n):
            if i != j and A[i, j] != 0 and abs(a_prime[i][j]) >= A[i, j]:
                violations.append(f"reduction not strict at ({i}, {j})")
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


def fraction_verify_reduction(A: SymMatrix, cert: ReductionCertificate) -> list[str]:
    """`gmsurf.reduction.verify_reduction` as it summed and compared in
    `Fraction`: every certificate invariant rechecked against A; return
    violations (empty = valid).

    Only the stored nonzeros of A' and A's negative couplings are read: a
    missing key is a zero."""
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
        # A negative coupling bounds no entry, a missing one included.
        for j in sorted(set(row) | {j for j, bound in bounds.items() if bound < 0}):
            # A has O(n) nonzero couplings: only those need the absolute value
            entry, bound = row.get(j, 0), bounds.get(j)
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


def fraction_verify_surface_certificate(G: DecompositionGraph, cert: SurfaceCertificate) -> list[str]:
    """`gmsurf.surface.verify_surface_certificate` as it summed and compared
    in `Fraction`: every certificate equation rechecked from scratch; return
    violations (empty = valid).

    Checks, all in exact arithmetic: A' with the degree vector is a
    reduction certificate of the decomposition matrix
    (:func:`fraction_verify_reduction` against A), and |A'[i][j]| < A[i][j]
    on A's couplings; each torus has exactly one curve system per side; the
    per-side degree split, both per-piece balances, the change-of-basis
    relations, and strict positivity of the a coordinates on sides whose
    piece carries positive degree.
    """
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

    reduction = ReductionCertificate(cert.a_prime, tuple(map(Fraction, cert.degrees)))
    violations.extend(fraction_verify_reduction(A, reduction))
    if not reduction.has_order(n):
        return violations
    # verify_reduction flags every nonzero entry of A' where A is 0, so
    # strictness reads only A's couplings.
    for i, (row, couplings) in enumerate(zip(cert.a_prime, A.sparse)):
        for j in sorted(couplings):
            if j != i and abs(row.get(j, 0)) >= couplings[j]:
                violations.append(f"reduction not strict at ({i}, {j})")

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

    # One pass over the tori: missing sides, the gluing relations, and per
    # piece its fiber sum, its Euler number w.r.t. meridians
    # e' = e - sum q/p (q read from the piece's own side) and the opposite
    # sides' meridian sum.
    fiber = dict.fromkeys(index, 0)
    e_prime = {p.id: p.euler for p in G.pieces}
    meridian = dict.fromkeys(index, Fraction(0))
    gluing: list[str] = []
    for t_idx, torus in enumerate(G.tori):
        sides = by_torus.get(t_idx, {})
        for side in (torus.from_piece, torus.to_piece):
            if side not in sides:
                violations.append(f"torus {t_idx}: missing system for side {side}")
        if violations:
            continue
        f, g = torus.from_piece, torus.to_piece
        lhs, rhs = sides[f], sides[g]
        q, p, qp, pp = torus.q, torus.p, torus.q_prime, torus.p_prime
        fiber[f] += lhs.b_plus + lhs.b_minus
        fiber[g] += rhs.b_plus + rhs.b_minus
        e_prime[f] -= Fraction(q, p)
        e_prime[g] -= Fraction(qp, p)
        meridian[f] += Fraction(rhs.a_plus - rhs.a_minus, p)
        meridian[g] += Fraction(lhs.a_plus - lhs.a_minus, p)
        if rhs.a_plus != q * lhs.a_plus + p * lhs.b_plus or rhs.b_plus != -pp * lhs.a_plus - qp * lhs.b_plus:
            gluing.append(f"torus {t_idx}: plus system breaks the gluing relation")
        if rhs.a_minus != -(q * lhs.a_minus + p * lhs.b_minus) or rhs.b_minus != pp * lhs.a_minus + qp * lhs.b_minus:
            gluing.append(f"torus {t_idx}: minus system breaks the gluing relation")
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
        expected = degree * e_prime[piece.id]
        if fiber[piece.id] != expected:
            violations.append(
                f"piece {piece.id}: fiber balance {fiber[piece.id]} != "
                f"degree * meridian Euler number {expected}"
            )
        if meridian[piece.id] != degree * piece.euler:
            violations.append(
                f"piece {piece.id}: meridian balance {meridian[piece.id]} != "
                f"degree * Euler number {degree * piece.euler}"
            )

    return violations + gluing


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


def textbook_compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply q first, then p, one point at a time."""
    return tuple(p[q[i]] for i in range(len(p)))


def textbook_inverse(p: Sequence[int]) -> tuple[int, ...]:
    """The permutation sending p[i] back to i."""
    return tuple(p.index(j) for j in range(len(p)))


def textbook_commutator(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """[x, y] = x y x^-1 y^-1 as three compositions."""
    return textbook_compose(
        textbook_compose(x, y), textbook_compose(textbook_inverse(x), textbook_inverse(y))
    )


def textbook_word_product(word: Sequence[Sequence[int]], alpha: int) -> tuple[int, ...]:
    """w_1 w_2 ... w_k, the rightmost letter applied first, from the identity."""
    acc = tuple(range(alpha))
    for w in reversed(word):
        acc = textbook_compose(w, acc)
    return acc


def textbook_is_transitive(perms: Sequence[Sequence[int]], alpha: int) -> bool:
    """Whether the orbit of 0 under the generators is all of 0..alpha-1."""
    reached = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in perms:
            if p[i] not in reached:
                reached.add(p[i])
                stack.append(p[i])
    return len(reached) == alpha


def perm_from_cycle_lengths(alpha: int, lengths: Sequence[int], points: Sequence[int]) -> tuple[int, ...]:
    """Permutation whose cycles run through ``points`` consecutively with the
    given lengths (``points`` must be a rearrangement of 0..alpha-1)."""
    out = [0] * alpha
    pos = 0
    for length in lengths:
        cycle = points[pos : pos + length]
        for k in range(length):
            out[cycle[k]] = cycle[(k + 1) % length]
        pos += length
    return tuple(out)


def _partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts descending, lexicographically largest first."""
    result: list[tuple[int, ...]] = []

    def extend(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return result


def enumeration_cost(genus: int, boundary: int, alpha: int) -> int:
    """The larger of :func:`_achievable_types`'s tuple count,
    p(alpha) * alpha!^(2g + b - 2), and the alpha!^2 entries of the group
    tables it builds first."""
    fact = factorial(alpha)
    return max(len(_partitions(alpha)) * fact ** (2 * genus + boundary - 2), fact * fact)


@cache
def _sym_group(alpha: int):
    """S_alpha as a list, its index, and its composition, inverse and cycle
    type tables by index."""
    perms = list(all_permutations(range(alpha)))
    index = {p: k for k, p in enumerate(perms)}
    compose_idx = [[index[textbook_compose(p, q)] for q in perms] for p in perms]
    inverse_idx = [index[textbook_inverse(p)] for p in perms]
    type_of = [cycle_type(p) for p in perms]
    return perms, index, compose_idx, inverse_idx, type_of


@cache
def _achievable_types(genus: int, boundary: int, alpha: int) -> frozenset[tuple[tuple[int, ...], ...]]:
    """The boundary type tuples of the transitive homomorphisms.

    One full sweep per (genus, boundary, alpha).  x_1 is restricted to one
    canonical representative per cycle type: conjugating a whole
    homomorphism preserves boundary types and transitivity, and the genus is
    at least 1, so every achievable type tuple is still reached.  The sweep
    loops x_1, then the other 2g - 1 handle generators, whose commutator
    product is taken once per choice, then the b - 1 free z's.
    """
    perms, index, compose_idx, inverse_idx, type_of = _sym_group(alpha)
    n = len(perms)
    ident = index[tuple(range(alpha))]

    comm_idx = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = compose_idx[a][b]
            comm_idx[a][b] = compose_idx[compose_idx[ab][inverse_idx[a]]][inverse_idx[b]]

    achievable: set[tuple[tuple[int, ...], ...]] = set()
    for part in _partitions(alpha):
        x_first = index[perm_from_cycle_lengths(alpha, part, range(alpha))]
        for xy in cartesian_product(range(n), repeat=2 * genus - 1):
            handles = (x_first,) + xy
            prefix = ident
            for a, b in zip(handles[:genus], handles[genus:]):
                prefix = compose_idx[prefix][comm_idx[a][b]]
            for zs in cartesian_product(range(n), repeat=boundary - 1):
                relator = prefix
                for k in zs:
                    relator = compose_idx[relator][k]
                key = tuple(type_of[k] for k in zs) + (type_of[inverse_idx[relator]],)
                if key not in achievable and textbook_is_transitive([perms[k] for k in handles + zs], alpha):
                    achievable.add(key)
    return frozenset(achievable)


def cover_exists_bruteforce(spec: CoverSpec) -> bool:
    """Exhaustive oracle: enumerate every homomorphism (up to conjugation of
    x_1) and test for one with the requested boundary type.  The sweep is
    cached per (genus, boundary count, degree); :func:`enumeration_cost`
    sizes it."""
    return spec.type_key() in _achievable_types(spec.genus, spec.boundary_count, spec.alpha)
