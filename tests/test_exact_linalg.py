"""Tests for the exact symmetric-matrix layer.

The inertia routine is checked five independent ways: against hand-computed
examples, against Sylvester's law under random congruences, against a
characteristic-polynomial sign-counting oracle (valid because symmetric
matrices have only real eigenvalues, where Descartes' bound is exact),
against dense `Fraction` elimination and against dense fraction-free
(Bareiss) elimination.  The sparse graph-order inertia is cross-checked
against both dense oracles at orders up to 12, with large denominators,
negative off-diagonal entries, all-zero diagonals (where the congruence
adds one row and column to another), isolated zero rows, disconnected and
rank-deficient matrices, and against the Bareiss oracle on decomposition
matrices of every verdict class up to 120 pieces and on zero-diagonal
paths, cycles, stars, complete bipartite and random graphs up to order 60.
The 400-piece slowly-closing path is checked against its own pivot
recurrence.  The witnesses of positive pivots are checked against their
quadratic form, and the steps the congruence records against leading
principal minors and the dense solve of `oracles.py`.  The dense integer
determinant, kernel and solve are cross-checked against the `Fraction`
oracles.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import exact_linalg
from gmsurf.decision import Branch, decide
from gmsurf.exact_linalg import (
    Inertia,
    SymMatrix,
    _congruence,
    _fraction,
    _primitive,
    determinant_rows,
    inertia,
    matrix_components,
    nullspace_rows,
    rational_str,
    to_rational,
)
from gmsurf.fileio import FileFormatError, sparse_rows_from_json
from gmsurf.generate import generate_manifold
from gmsurf.manifold import decomposition_matrix, split_blocks
from oracles import (
    a_minus,
    bareiss_inertia,
    fraction_congruence,
    is_connected_matrix,
    kernel_basis,
    mat_vec,
    matrix_graph_components,
    principal_submatrix,
    solve_rows,
    sym,
    to_lists,
)

F = Fraction


def negative_definite(A: SymMatrix) -> bool:
    """Every eigenvalue negative; the 0x0 matrix vacuously so."""
    return inertia(A.sparse).n_neg == A.order


small_rationals = strategies.builds(
    F, strategies.integers(-4, 4), strategies.integers(1, 3)
)


def symmetric_matrices(max_order=4, entries=small_rationals):
    def build(draw):
        n = draw(strategies.integers(min_value=1, max_value=max_order))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = draw(entries)
                rows[i][j] = v
                rows[j][i] = v
        return sym(rows)

    return strategies.composite(build)()


def square_matrices(max_order=4, entries=small_rationals):
    def build(draw):
        n = draw(strategies.integers(min_value=1, max_value=max_order))
        return [[draw(entries) for _ in range(n)] for _ in range(n)]

    return strategies.composite(build)()


# --- Fraction elimination oracles ------------------------------------------


def fraction_inertia(A: SymMatrix) -> Inertia:
    """Inertia by symmetric congruence over `Fraction` (the pre-integer core)."""
    n = A.order
    m = to_lists(A)
    n_pos = n_zero = n_neg = 0
    k = 0
    while k < n:
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                for c in range(k, n):
                    m[k][c], m[swap][c] = m[swap][c], m[k][c]
                for r in range(k, n):
                    m[r][k], m[r][swap] = m[r][swap], m[r][k]
            else:
                mate = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if mate is None:
                    n_zero += 1
                    k += 1
                    continue
                for c in range(k, n):
                    m[k][c] = m[k][c] + m[mate][c]
                for r in range(k, n):
                    m[r][k] = m[r][k] + m[r][mate]
        pivot = m[k][k]
        if pivot > 0:
            n_pos += 1
        else:
            n_neg += 1
        for i in range(k + 1, n):
            factor = m[i][k]
            if factor == 0:
                continue
            for j in range(k + 1, n):
                m[i][j] -= factor * m[k][j] / pivot
        k += 1
    return Inertia(n_pos, n_zero, n_neg)


def fraction_determinant(rows) -> Fraction:
    """Determinant by `Fraction` Gaussian elimination (the pre-integer core)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    sign = 1
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det * sign


# --- characteristic polynomial oracle -------------------------------------


def char_poly(A: SymMatrix) -> list[Fraction]:
    """Coefficients c[0..n] of det(x I - A), c[k] multiplying x^k.

    Computed by evaluating the determinant at n + 1 integer points and
    interpolating; the polynomial is monic of degree n so this is exact.
    """
    n = A.order
    points = [F(k) for k in range(n + 1)]
    values = []
    for x in points:
        rows = [
            [(x if i == j else F(0)) - A[i, j] for j in range(n)] for i in range(n)
        ]
        values.append(fraction_determinant(rows))
    coeffs = [F(0)] * (n + 1)
    for k, xk in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for m, xm in enumerate(points):
            if m == k:
                continue
            denom *= xk - xm
            shifted = [F(0)] + basis
            for d in range(len(basis)):
                shifted[d] -= xm * basis[d]
            basis = shifted
        for d in range(len(basis)):
            coeffs[d] += values[k] * basis[d] / denom
    return coeffs


def sign_variations(coeffs) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def inertia_oracle(A: SymMatrix) -> Inertia:
    """Count eigenvalue signs from the characteristic polynomial.

    All roots are real, so the number of positive roots equals the sign
    variations of p(x) and the number of negative roots those of p(-x).
    """
    coeffs = char_poly(A)
    n_zero = next(k for k, c in enumerate(coeffs) if c != 0)
    reduced = coeffs[n_zero:]
    n_pos = sign_variations(reduced)
    flipped = [c if k % 2 == 0 else -c for k, c in enumerate(reduced)]
    n_neg = sign_variations(flipped)
    return Inertia(n_pos=n_pos, n_zero=n_zero, n_neg=n_neg)


# --- scalar parsing --------------------------------------------------------


def test_to_rational_accepts_ints_strings_fractions():
    assert to_rational(5) == F(5)
    assert to_rational("-2") == F(-2)
    assert to_rational("3/4") == F(3, 4)
    assert to_rational(F(7, 2)) == F(7, 2)


def test_to_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        to_rational(0.5)
    with pytest.raises(TypeError):
        to_rational(True)
    with pytest.raises(ValueError):
        to_rational("1.5")


@given(small_rationals)
def test_rational_str_round_trip(value):
    assert to_rational(rational_str(value)) == value


# --- matrix construction ---------------------------------------------------


def test_sym_matrix_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        SymMatrix([{1: F(1)}, {0: F(2)}])


def test_sym_matrix_rejects_ragged_input():
    # ragged rows have no sparse form: the parser and the dense test helper refuse them
    with pytest.raises(ValueError):
        sym([[F(0), F(1)], [F(1)]])
    with pytest.raises(FileFormatError, match=r"matrix\[1\]: expected 2 entries, got 1"):
        sparse_rows_from_json([["0", "1"], ["1"]], "matrix")


def test_sym_matrix_rejects_float_entries():
    with pytest.raises(TypeError):
        SymMatrix([{0: 0.5}])
    with pytest.raises(TypeError):
        sym([[0.5]])


def test_sym_matrix_rejects_entries_that_are_not_nonzero_fractions_and_stray_columns():
    for bad in (3, "1/2", 0.5, True, None, F(0), F(0, 5)):
        with pytest.raises(TypeError, match=r"entry \(0, 0\) is not a nonzero Fraction"):
            SymMatrix([{0: bad}])
    for rows, column in [
        ([{1: F(1)}], "1"),
        ([{0: F(1), -1: F(1)}], "-1"),
        ([{"0": F(1)}], "'0'"),
        ([{True: F(1)}], "True"),
        ([{}, {1.0: F(1)}], "1.0"),
    ]:
        with pytest.raises(ValueError, match=rf"column {column} outside 0\.\.{len(rows) - 1}"):
            SymMatrix(rows)
    A = SymMatrix([{0: F(-1), 1: F(1, 2)}, {0: F(1, 2), 1: F(3)}])
    assert to_lists(A) == [[F(-1), F(1, 2)], [F(1, 2), F(3)]]
    assert type(A.sparse) is tuple
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        SymMatrix([{1: F(1)}, {0: F(2)}])
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        SymMatrix([{1: F(1)}, {}])
    # the least asymmetric pair is named, whatever the order of the rows' keys
    with pytest.raises(ValueError, match=r"^not symmetric at \(0, 2\)$"):
        SymMatrix([{2: F(1)}, {2: F(1)}, {1: F(2), 0: F(2)}])


def test_sym_matrix_compares_a_shared_entry_by_identity(monkeypatch):
    # one object at (i, j) and (j, i) needs no comparison, an equal copy one
    calls = []
    real = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(1) or real(a, b))
    shared = F(1, 3)
    SymMatrix([{0: F(-1), 1: shared}, {0: shared}])
    assert calls == []
    SymMatrix([{0: F(-1), 1: F(1, 3)}, {0: F(1, 3)}])
    assert len(calls) == 2


def test_sym_matrix_keeps_only_its_nonzeros():
    A = sym([[0, "1/2", 0], ["1/2", "-1", 0], [0, 0, 0]])
    assert A.sparse == ({1: F(1, 2)}, {0: F(1, 2), 1: F(-1)}, {})
    assert not hasattr(A, "rows")
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        assert A[i, j] == 0 and type(A[i, j]) is Fraction
    assert A[1, 0] == F(1, 2)
    assert repr(A) == "SymMatrix([[0, 1/2, 0], [1/2, -1, 0], [0, 0, 0]])"
    # == compares the nonzeros, whatever order their keys were added in
    assert A == SymMatrix([{1: F(1, 2)}, {1: F(-1), 0: F(1, 2)}, {}])
    assert A != sym([[0, "1/2", 0], ["1/2", "-1", 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        hash(A)
    with pytest.raises(AttributeError):
        A.sparse = ()
    with pytest.raises((AttributeError, TypeError)):
        A.rows = ()


# --- inertia ---------------------------------------------------------------


def test_inertia_identity():
    assert inertia(sym([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).sparse) == Inertia(n_pos=3, n_zero=0, n_neg=0)


def test_inertia_hyperbolic_plane():
    assert inertia(sym([[0, 1], [1, 0]]).sparse) == Inertia(n_pos=1, n_zero=0, n_neg=1)


def test_inertia_singular_example():
    assert inertia(sym([["-1", 1], [1, "-1"]]).sparse) == Inertia(n_pos=0, n_zero=1, n_neg=1)


def test_inertia_components_sum_to_order():
    A = sym([[0, 1, 2], [1, "-3", 0], [2, 0, "1/2"]])
    ine = inertia(A.sparse)
    assert ine.n_pos + ine.n_zero + ine.n_neg == A.order


@given(symmetric_matrices())
def test_inertia_matches_char_poly_oracle(A):
    assert inertia(A.sparse) == inertia_oracle(A)


@given(symmetric_matrices(max_order=3), square_matrices(max_order=3))
def test_inertia_invariant_under_congruence(A, P):
    n = A.order
    if len(P) != n:
        P = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        P[0][0] = F(2)
    if determinant_rows(P) == 0:
        return
    product = [
        [
            sum(P[k][i] * A[k, m] * P[m][j] for k in range(n) for m in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert inertia(sym(product).sparse) == inertia(A.sparse)


@given(symmetric_matrices())
def test_inertia_zero_count_is_kernel_dimension(A):
    assert inertia(A.sparse).n_zero == len(kernel_basis(A))


@given(symmetric_matrices())
def test_determinant_sign_from_negative_count(A):
    det = determinant_rows(to_lists(A))
    ine = inertia(A.sparse)
    if ine.n_zero > 0:
        assert det == 0
    elif ine.n_neg % 2 == 0:
        assert det > 0
    else:
        assert det < 0


# --- determinant -----------------------------------------------------------


def test_determinant_examples():
    assert determinant_rows(to_lists(sym([["-1", 2], [2, "-1"]]))) == F(-3)
    assert determinant_rows(to_lists(sym([["-1", 1], [1, "-1"]]))) == F(0)
    assert determinant_rows(to_lists(sym([["5/2"]]))) == F(5, 2)


# --- kernel ----------------------------------------------------------------


def test_kernel_of_singular_example_is_diagonal_line():
    basis = kernel_basis(sym([["-1", 1], [1, "-1"]]))
    assert len(basis) == 1
    (v,) = basis
    assert v[0] == v[1] != 0


def test_kernel_of_identity_is_empty():
    assert kernel_basis(sym([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []


def test_kernel_of_zero_matrix_is_full():
    assert len(kernel_basis(sym([[0, 0], [0, 0]]))) == 2


@given(symmetric_matrices())
def test_kernel_vectors_are_annihilated(A):
    for vec in kernel_basis(A):
        assert all(v == 0 for v in mat_vec(to_lists(A), vec))


# --- solving ---------------------------------------------------------------


@given(symmetric_matrices())
def test_solve_recovers_known_solution(A):
    n = A.order
    x = [F(k + 1, 2) for k in range(n)]
    rhs = mat_vec(to_lists(A), x)
    if determinant_rows(to_lists(A)) == 0:
        return
    assert solve_rows(to_lists(A), rhs) == tuple(x)


# --- graph structure -------------------------------------------------------


def test_components_of_connected_pair():
    A = sym([["-1", 1], [1, "-1"]])
    assert matrix_components(A) == matrix_graph_components(A) == [[0, 1]]


def test_components_of_diagonal_matrix_are_singletons():
    A = sym([[1, 0, 0], [0, "-2", 0], [0, 0, 0]])
    assert matrix_components(A) == matrix_graph_components(A) == [[0], [1], [2]]


def test_components_with_one_edge():
    A = sym([[0, 1, 0], [1, 0, 0], [0, 0, "-1"]])
    assert matrix_components(A) == matrix_graph_components(A) == [[0, 1], [2]]
    assert not is_connected_matrix(A)


def test_components_are_sorted_and_ordered_by_smallest_member():
    # edges 0-4, 4-2 and 3-1; the walk from 0 reaches 4 before 2
    A = sym([[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 2], [0, 1, 0, 0, 0], [1, 0, 2, 0, 0]])
    assert matrix_components(A) == matrix_graph_components(A) == [[0, 2, 4], [1, 3]]


def test_first_negative_entry_is_row_by_row_whatever_the_dict_order():
    dense = [
        [F(-1), F(1), F(-2), F(-3)],
        [F(1), F(-1), F(-4), F(0)],
        [F(-2), F(-4), F(-1), F(1)],
        [F(-3), F(0), F(1), F(-1)],
    ]
    # each dict lists its columns in descending order
    sparse = [dict(reversed([(j, x) for j, x in enumerate(row) if x])) for row in dense]
    A = SymMatrix(sparse)
    assert to_lists(A) == dense
    assert list(A.sparse[0]) == [3, 2, 1, 0]
    for check in (matrix_components, decide):
        with pytest.raises(ValueError) as info:
            check(A)
        assert str(info.value) == "negative off-diagonal entry at (0, 2)"


# --- principal submatrices -------------------------------------------------


def test_principal_submatrix_single_index():
    A = sym([[1, 2], [2, 3]])
    assert to_lists(principal_submatrix(A, [1])) == [[F(3)]]


def test_principal_submatrix_all_indices_is_identity_operation():
    A = sym([[1, 2], [2, 3]])
    assert to_lists(principal_submatrix(A, [0, 1])) == to_lists(A)


def test_empty_principal_submatrix_is_negative_definite():
    A = sym([[1, 2], [2, 3]])
    empty = principal_submatrix(A, [])
    assert empty.order == 0
    assert negative_definite(empty)


def test_principal_submatrix_rejects_bad_index():
    with pytest.raises(IndexError):
        principal_submatrix(sym([[1]]), [1])


# --- primitive vectors -----------------------------------------------------


def test_primitive_vector_scales_to_coprime_integers():
    assert _primitive([(1, 2), (1, 1)]) == [1, 2]
    assert _primitive([(0, 1), (-2, 1), (4, 1)]) == [0, -1, 2]


@settings(max_examples=50)
@given(strategies.lists(small_rationals, min_size=1, max_size=5))
def test_primitive_vector_preserves_direction(vec):
    if all(v == 0 for v in vec):
        return
    out = [F(v) for v in _primitive([(v.numerator, v.denominator) for v in vec])]
    ratios = {v / o for v, o in zip(vec, out) if o != 0}
    assert len(ratios) == 1
    assert ratios.pop() > 0
    assert all(v.denominator == 1 for v in out)


# --- integer core against the Fraction oracles -----------------------------

wide_rationals = strategies.one_of(
    strategies.just(F(0)),
    strategies.builds(F, strategies.integers(-64, 64), strategies.integers(1, 4096)),
)


def with_zero_diagonal(A: SymMatrix) -> SymMatrix:
    rows = to_lists(A)
    for i in range(A.order):
        rows[i][i] = F(0)
    return sym(rows)


def low_rank_symmetric(max_order=12, entries=wide_rationals):
    """B^T D B with B of fewer rows than columns: singular by construction."""

    def build(draw):
        n = draw(strategies.integers(min_value=1, max_value=max_order))
        k = draw(strategies.integers(min_value=0, max_value=n - 1))
        B = [[draw(entries) for _ in range(n)] for _ in range(k)]
        D = [draw(entries) for _ in range(k)]
        def entry(i, j):
            return sum((B[t][i] * D[t] * B[t][j] for t in range(k)), F(0))

        return sym([[entry(i, j) for j in range(n)] for i in range(n)])

    return strategies.composite(build)()


def kernel_dimension(rows) -> int:
    """dim ker R = n_zero of R^T R (same rank), by the Fraction oracle."""
    n_cols = len(rows[0])
    gram = [[sum((r[i] * r[j] for r in rows), F(0)) for j in range(n_cols)] for i in range(n_cols)]
    return fraction_inertia(sym(gram)).n_zero


def assert_rref_basis(rows, basis):
    """Pin the reduced-row-echelon basis: each vector is annihilated, ends in a
    1 at its free column, and is 0 at every other free column.  With the right
    dimension this is the unique basis `nullspace_rows` documents."""
    free = []
    for vec in basis:
        assert all(v == 0 for v in mat_vec(rows, vec))
        last = max(i for i, v in enumerate(vec) if v != 0)
        assert vec[last] == 1
        free.append(last)
    assert free == sorted(set(free))
    for vec, f in zip(basis, free):
        assert all(vec[g] == 0 for g in free if g != f)


@settings(max_examples=60)
@given(symmetric_matrices(max_order=12, entries=wide_rationals))
def test_integer_core_matches_fraction_oracles(A):
    ine = inertia(A.sparse)
    assert ine == fraction_inertia(A) == bareiss_inertia(A)
    assert determinant_rows(to_lists(A)) == fraction_determinant(to_lists(A))
    basis = kernel_basis(A)
    assert len(basis) == ine.n_zero
    assert_rref_basis(to_lists(A), basis)


@settings(max_examples=60)
@given(symmetric_matrices(max_order=12, entries=wide_rationals))
def test_integer_inertia_with_all_zero_diagonal(A):
    Z = with_zero_diagonal(A)
    assert inertia(Z.sparse) == fraction_inertia(Z) == bareiss_inertia(Z)
    assert determinant_rows(to_lists(Z)) == fraction_determinant(to_lists(Z))



def scattered_blocks(max_blocks=4, max_order=4, entries=wide_rationals):
    """Several symmetric blocks, some of them zero rows, shuffled together.

    The matrix graph is disconnected, and a zero block of order 1 is an
    isolated vertex with a zero diagonal.
    """

    def build(draw):
        blocks = draw(strategies.lists(symmetric_matrices(max_order, entries), min_size=1, max_size=max_blocks))
        blocks += [sym([[0]])] * draw(strategies.integers(0, 3))
        n = sum(B.order for B in blocks)
        order = draw(strategies.permutations(range(n)))
        rows = [[F(0)] * n for _ in range(n)]
        offset = 0
        for B in blocks:
            for i in range(B.order):
                for j in range(B.order):
                    rows[order[offset + i]][order[offset + j]] = B[i, j]
            offset += B.order
        return sym(rows), blocks

    return strategies.composite(build)()


@settings(max_examples=60)
@given(scattered_blocks())
def test_inertia_of_disconnected_matrices_with_isolated_zero_rows(case):
    A, blocks = case
    ine = inertia(A.sparse)
    assert ine == fraction_inertia(A) == bareiss_inertia(A)
    parts = [bareiss_inertia(B) for B in blocks]
    assert ine == Inertia(*(sum(getattr(p, k) for p in parts) for k in ("n_pos", "n_zero", "n_neg")))
    Z = with_zero_diagonal(A)
    assert inertia(Z.sparse) == fraction_inertia(Z) == bareiss_inertia(Z)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0]], (0, 1, 0)),
        ([[0, 0], [0, 0]], (0, 2, 0)),
        ([[0, 0, 0], [0, 0, "-3"], [0, "-3", 0]], (1, 1, 1)),  # isolated zero row beside a zero-diagonal edge
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 0, 2)),  # a triangle with zero diagonal
        # adding row 1 to row 0 cancels both of row 0's other couplings
        ([[0, "-1", 1, 1], ["-1", 0, "-1", "-1"], [1, "-1", 0, 2], [1, "-1", 2, 0]], (1, 0, 3)),
        ([[0, "-1", 0, 0], ["-1", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2]], (2, 1, 1)),
    ],
)
def test_inertia_of_zero_diagonal_examples(rows, expected):
    A = sym(rows)
    assert inertia(A.sparse) == Inertia(*expected) == bareiss_inertia(A) == fraction_inertia(A)


def assert_pair_core_matches_fraction_reference(A: SymMatrix) -> None:
    """The integer-pair congruence agrees exactly with its `Fraction`
    reference: the same inertia and steps, on A and with its diagonal cleared."""
    for B in (A, with_zero_diagonal(A)):
        rows = [{j: x for j, x in enumerate(row) if x} for row in to_lists(B)]
        ine, steps = fraction_congruence(rows)
        assert inertia(B.sparse) == ine
        assert congruence(B.sparse) == (ine, steps)


@settings(max_examples=60)
@given(symmetric_matrices(max_order=12, entries=wide_rationals))
def test_pair_core_matches_fraction_reference(A):
    assert_pair_core_matches_fraction_reference(A)


@settings(max_examples=60)
@given(scattered_blocks())
def test_pair_core_matches_fraction_reference_on_disconnected_matrices(case):
    assert_pair_core_matches_fraction_reference(case[0])


@settings(max_examples=30)
@given(low_rank_symmetric())
def test_pair_core_matches_fraction_reference_on_singular_matrices(A):
    assert_pair_core_matches_fraction_reference(A)


def test_inertia_makes_no_fraction(monkeypatch):
    # Entries become integer pairs on entry and stay pairs: eliminating a
    # 60-piece decomposition matrix constructs no Fraction.
    A = decomposition_matrix(generate_manifold(60, seed=1, profile="any"))
    expected = fraction_inertia(A)
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(exact_linalg, "_fraction", lambda pair: made.append(pair))
    ine = inertia(A.sparse)
    assert made == []
    Fraction(1, 2)
    assert made == [(1, 2)]  # the count does see a construction
    monkeypatch.undo()
    assert ine == expected


@settings(max_examples=60)
@given(low_rank_symmetric())
def test_integer_core_on_rank_deficient_matrices(A):
    ine = inertia(A.sparse)
    assert ine == fraction_inertia(A) == bareiss_inertia(A)
    assert ine.n_zero >= 1
    assert determinant_rows(to_lists(A)) == 0
    basis = kernel_basis(A)
    assert len(basis) == ine.n_zero
    assert_rref_basis(to_lists(A), basis)
    with pytest.raises(ValueError):
        solve_rows(to_lists(A), [F(1)] * A.order)


@settings(max_examples=60)
@given(
    strategies.integers(1, 8).flatmap(
        lambda c: strategies.lists(
            strategies.lists(wide_rationals, min_size=c, max_size=c), min_size=1, max_size=8
        )
    )
)
def test_integer_nullspace_of_rectangular_matrices(rows):
    rows = rows + [[a - 2 * b for a, b in zip(rows[0], rows[-1])]]
    basis = nullspace_rows(rows)
    assert len(basis) == kernel_dimension(rows)
    assert_rref_basis(rows, basis)


@settings(max_examples=60)
@given(square_matrices(max_order=12, entries=wide_rationals))
def test_integer_determinant_and_solve_of_general_matrices(rows):
    det = determinant_rows(rows)
    assert det == fraction_determinant(rows)
    if det == 0:
        with pytest.raises(ValueError):
            solve_rows(rows, [F(1)] * len(rows))
        return
    x = [F(k - 3, k + 1) for k in range(len(rows))]
    assert solve_rows(rows, mat_vec(rows, x)) == tuple(x)


# Verdict classes, name -> (branch, property_i, property_ve).
VERDICT_CLASSES = {
    "negdef": (Branch.NEGATIVE_DEFINITE, False, False),
    "same": (Branch.SEMIDEFINITE_SAME_SIGN, True, True),
    "mixed": (Branch.SEMIDEFINITE_MIXED_SIGN, False, False),
    "pos_ve": (Branch.POSITIVE_EIGENVALUE, True, True),
    "pos_no_ve": (Branch.POSITIVE_EIGENVALUE, True, False),
}


def verdict_matrix(n: int, cls: str) -> SymMatrix:
    """A deterministic connected n-piece decomposition matrix of class ``cls``.

    Starts from S, whose diagonal is the negated off-diagonal row sums: S is
    singular, negative semidefinite and irreducible, so every proper
    principal block of it is negative definite.
    """
    rng = random.Random(f"{cls}:{n}")
    rows = [[F(0)] * n for _ in range(n)]
    edges = [(rng.randrange(k), k) for k in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(n // 4)]
    for i, j in edges:
        w = F(1, rng.choice((1, 2, 3, 4)))
        rows[i][j] += w
        rows[j][i] += w
    r = [sum(row) for row in rows]
    for i in range(n):
        rows[i][i] = -r[i]
    k = rng.randrange(n)
    delta = r[k] * F(rng.randint(1, 3), 4)
    if cls == "negdef":
        for i in range(n):
            rows[i][i] -= F(rng.randint(1, 4), rng.randint(1, 3))
    elif cls == "mixed":
        rows[k][k] = r[k]
    elif cls == "pos_ve":
        rows[k][k] += delta
    elif cls == "pos_no_ve":
        rows[k][k] = r[k] - delta
    return sym(rows)


@pytest.mark.parametrize("n", [40, 64, 120, 200])
@pytest.mark.parametrize("cls", sorted(VERDICT_CLASSES))
def test_integer_core_on_decomposition_matrices(cls, n):
    A = verdict_matrix(n, cls)
    B = SymMatrix(a_minus(A))
    pos, neg, _ = split_blocks(A)
    blocks = (SymMatrix(a_minus(principal_submatrix(A, pos))), principal_submatrix(A, neg))
    if n <= 120:  # the dense oracles are slow beyond; decide() below still runs
        ine = inertia(B.sparse)
        assert ine == bareiss_inertia(B)
        for block in blocks:
            assert inertia(block.sparse) == bareiss_inertia(block)
    if n <= 64:
        assert ine == fraction_inertia(B)
        basis = kernel_basis(B)
        assert len(basis) == ine.n_zero
        assert_rref_basis(to_lists(B), basis)
    if n == 40:
        for block in blocks:
            assert inertia(block.sparse) == fraction_inertia(block)
        assert determinant_rows(to_lists(B)) == fraction_determinant(to_lists(B))
    verdict = decide(A)
    assert (verdict.branch, verdict.property_i, verdict.property_ve) == VERDICT_CLASSES[cls]


def path_pivot_signs(n: int, eps: Fraction) -> tuple[int, Fraction]:
    """(k, u_k) for the first pivot u_k <= 0 of the n-piece path's negation,
    or (n + 1, u_n) if all n are positive.

    The path has diagonal -2 + eps and unit couplings; its negation is
    tridiagonal with pivots u_1 = 2 - eps, u_{k+1} = 2 - eps - 1/u_k.
    """
    u = 2 - eps
    for k in range(1, n + 1):
        if u <= 0:
            return k, u
        if k < n:
            u = 2 - eps - 1 / u
    return n + 1, u


def closing_epsilon(n: int) -> Fraction:
    """An exact eps in (0, 1) whose n-piece path has a positive eigenvalue
    while its (n - 1)-piece sub-paths are negative definite: the first
    non-positive pivot is u_n, and u_n < 0.  Pivots fall as eps grows, so
    exact rational bisection on the first such index finds one.
    """
    lo, hi = Fraction(0), Fraction(1)
    while True:
        mid = (lo + hi) / 2
        k, u = path_pivot_signs(n, mid)
        if k == n and u < 0:
            return mid
        if k > n or (k == n and u == 0):
            lo = mid
        else:
            hi = mid


def path_rows(n: int, eps: Fraction) -> list[list[Fraction]]:
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = eps - 2
        if i + 1 < n:
            rows[i][i + 1] = rows[i + 1][i] = F(1)
    return rows


def test_inertia_of_the_400_piece_slowly_closing_path():
    n = 400
    eps = closing_epsilon(n)
    assert path_pivot_signs(n, eps)[0] == n
    assert path_pivot_signs(n - 1, eps)[0] == n  # all n - 1 pivots positive
    rows = path_rows(n, eps)  # A-minus is the path itself: every diagonal is negative
    assert inertia(sym(rows).sparse) == Inertia(n_pos=1, n_zero=0, n_neg=n - 1)
    assert inertia(sym([row[:-1] for row in rows[:-1]]).sparse) == Inertia(n_pos=0, n_zero=0, n_neg=n - 1)


# --- the congruence's steps ---------------------------------------------------------


def z_matrices(max_order=7, max_denominator=3):
    """Dense symmetric Z-matrices.  Diagonals range from negative to
    dominant, so some are nonsingular M-matrices, some singular and some
    neither."""

    def build(draw):
        denominators = strategies.integers(1, max_denominator)
        n = draw(strategies.integers(min_value=1, max_value=max_order))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if draw(strategies.booleans()):
                    rows[i][j] = rows[j][i] = -draw(strategies.builds(F, strategies.integers(1, 5), denominators))
        for i in range(n):
            row_sum = -sum(rows[i][j] for j in range(n) if j != i)
            rows[i][i] = row_sum + draw(strategies.builds(F, strategies.integers(-6, 4), denominators))
        return rows

    return strategies.composite(build)()


def sparse(rows) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def congruence(rows) -> tuple[Inertia, list]:
    """:func:`_congruence` of fresh pair rows: its inertia, and its steps
    with their pairs read as `Fraction`."""
    ine, steps = _congruence([{j: (x.numerator, x.denominator) for j, x in row.items()} for row in rows])
    return ine, [(k, _fraction(inverse), [(j, _fraction(a)) for j, a in touched]) for k, inverse, touched in steps]


def steps_solve(steps, rhs) -> tuple[F, ...]:
    """M x = rhs through the steps of a congruence of M that made no row
    addition and pivoted at every vertex: L D L^T, forward then back."""
    b = list(rhs)
    for k, inverse, touched in steps:
        for i, a in touched:
            b[i] -= a * inverse * b[k]
    x = [F(0)] * len(b)
    for k, inverse, touched in reversed(steps):
        x[k] = inverse * (b[k] - sum(a * x[j] for j, a in touched))
    return tuple(x)


def is_nonsingular_m_matrix(rows) -> bool:
    """Every leading principal minor positive, in the natural order."""
    return all(fraction_determinant([row[:k] for row in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


@settings(max_examples=200)
@given(z_matrices())
def test_congruence_steps_match_minors_and_dense_solve(rows):
    # A symmetric Z-matrix is a nonsingular M-matrix iff it is positive
    # definite; then no row addition is made and the steps solve.
    rhs = [F(k - 2, k + 1) for k in range(len(rows))]
    ine, steps = congruence(sparse(rows))
    assert ine == bareiss_inertia(sym(rows))
    expected = is_nonsingular_m_matrix(rows)
    assert (ine.n_pos == len(rows)) is expected
    if expected:
        assert steps_solve(steps, rhs) == solve_rows(rows, rhs)
        # the inverse of a nonsingular M-matrix is entrywise non-negative
        assert all(v >= 0 for v in steps_solve(steps, [F(1)] * len(rows)))


@settings(max_examples=200)
@given(z_matrices(max_denominator=4096))
def test_congruence_steps_match_their_fraction_reference(rows):
    # Nonsingular M-matrices, singular ones and indefinite ones; large
    # denominators on both sides.
    assert congruence(sparse(rows)) == fraction_congruence(sparse(rows))


def test_congruence_records_only_its_one_by_one_steps():
    singular = [[F(1), F(-1)], [F(-1), F(1)]]
    assert congruence(sparse(singular)) == (Inertia(1, 1, 0), [(0, F(1), [(1, F(-1))])])
    assert congruence([{}]) == (Inertia(0, 1, 0), [])
    assert congruence([]) == (Inertia(0, 0, 0), [])
    # an all-zero diagonal: row and column 1 are added to row and column 0
    # first, so the steps are the L D L^T of [[4, 2], [2, 0]]
    zero_diagonal = sparse([[F(0), F(2)], [F(2), F(0)]])
    assert congruence(zero_diagonal) == (Inertia(1, 0, 1), [(0, F(1, 4), [(1, F(2))]), (1, F(-1), [])])
    # the addition cancels (0, 2): row 0 keeps only its edge to 1
    triangle = sparse([[F(0), F(1), F(1)], [F(1), F(0), F(-1)], [F(1), F(-1), F(0)]])
    expected = [(0, F(1, 2), [(1, F(1))]), (1, F(-2), [(2, F(-1))]), (2, F(1, 2), [])]
    assert bareiss_inertia(SymMatrix(triangle)) == Inertia(2, 0, 1)  # eigenvalues 1, 1, -2
    assert congruence(triangle) == (Inertia(2, 0, 1), expected) == fraction_congruence(triangle)
    ine, steps = congruence(sparse([[F(2), F(-1)], [F(-1), F(2)]]))
    assert steps_solve(steps, [F(1), F(1)]) == (F(1), F(1))


def test_congruence_steps_on_the_400_piece_path():
    # -A of the slowly-closing path has one negative eigenvalue; dropping
    # its last piece leaves a nonsingular M-matrix, which the steps solve.
    n = 400
    negated = [{j: -x for j, x in enumerate(row) if x} for row in path_rows(n, closing_epsilon(n))]
    assert congruence(negated)[0] == Inertia(n - 1, 0, 1)
    head = [{j: x for j, x in row.items() if j < n - 1} for row in negated[:-1]]
    ine, steps = congruence(head)
    assert ine == Inertia(n - 1, 0, 0)
    x = steps_solve(steps, [F(1)] * (n - 1))
    assert all(v > 0 for v in x)
    assert all(sum(v * x[j] for j, v in row.items()) == 1 for row in head)


# --- the row addition at size ----------------------------------------------


def zero_diagonal_graph(family: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of one graph family on n vertices, relabelled at random."""
    if family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    elif family == "bipartite":
        p = rng.randint(1, n - 1)
        edges = [(i, j) for i in range(p) for j in range(p, n)]
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 3 / n]
    label = rng.sample(range(n), n)
    return [(label[i], label[j]) for i, j in edges]


def coupling(rng: random.Random) -> F:
    """A signed coupling from 1/4096 to 4096, its denominator a power of 2."""
    return rng.choice((1, -1)) * F(rng.choice((1, rng.randint(1, 4096**2), 4096**2)), 4096)


@pytest.mark.parametrize(
    "family, orders",
    [
        ("path", (2, 3, 8, 31, 60)),
        ("cycle", (3, 4, 9, 30, 31, 60)),  # odd and even
        ("star", (2, 3, 7, 60)),
        ("bipartite", (2, 5, 12, 24)),
        ("random", (2, 6, 17, 40, 60)),
        ("random-few-diagonals", (2, 6, 17, 40, 60)),
    ],
)
def test_row_addition_inertia_matches_bareiss_at_size(family, orders):
    # With every diagonal entry zero the congruence first adds a row and
    # column to another's; the dense Bareiss inertia and the Fraction
    # reference pin every step of it.
    rng = random.Random(family)
    for n in orders:
        for _ in range(3):
            rows = [{} for _ in range(n)]
            for i, j in zero_diagonal_graph(family.removesuffix("-few-diagonals"), n, rng):
                rows[i][j] = rows[j][i] = coupling(rng)
            if family.endswith("diagonals"):
                for i in rng.sample(range(n), min(n - 1, 3)):
                    rows[i][i] = coupling(rng)
            A = SymMatrix(rows)
            assert inertia(A.sparse) == bareiss_inertia(A)
            assert congruence(A.sparse) == fraction_congruence([dict(row) for row in A.sparse])
