"""Tests for the decomposition-graph model and its derived matrices."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import exact_linalg
from gmsurf.exact_linalg import Inertia, SymMatrix, inertia
from gmsurf.generate import PROFILES, generate_manifold
from gmsurf.manifold import (
    DecompositionGraph,
    GluingTorus,
    InvalidGraphError,
    SeifertPiece,
    a_minus,
    decomposition_matrix,
    split_blocks,
    two_piece_graph,
    validate,
)
from gmsurf.reduction import strict_shrink
from oracles import bareiss_inertia, is_connected_matrix, sym, to_lists

F = Fraction


# --- pieces and tori -------------------------------------------------------


def test_orbifold_euler_of_genus_one_piece():
    piece = SeifertPiece(id=1, euler=F(0), genus=1)
    assert piece.orbifold_euler(boundary_count=1) == F(-1)


def test_orbifold_euler_with_cone_points():
    piece = SeifertPiece(id=1, euler=F(0), genus=0, cone_orders=(2, 3))
    assert piece.orbifold_euler(boundary_count=1) == F(2 - 1) - (F(1, 2) + F(2, 3))


def test_cone_orders_below_two_rejected():
    with pytest.raises(ValueError):
        SeifertPiece(id=1, euler=F(0), genus=0, cone_orders=(1,))


@pytest.mark.parametrize(
    "fields",
    [
        {"cone_orders": (2.9,)},  # was truncated to 2
        {"cone_orders": (2, "3")},  # was read as 3
        {"genus": 1.5},  # orbifold_euler then returned -2 through a float
        {"genus": True},
        {"id": "1"},
    ],
    ids=str,
)
def test_seifert_piece_rejects_fields_that_are_not_integers(fields):
    with pytest.raises(TypeError):
        SeifertPiece(**{"id": 1, "euler": F(-1), "genus": 1, **fields})


def test_seifert_piece_reads_its_euler_number_once():
    assert SeifertPiece(id=1, euler="-5/2").euler == F(-5, 2)
    assert SeifertPiece(id=1, euler=-2).euler == F(-2)
    euler = F(1, 3)
    assert SeifertPiece(id=1, euler=euler, cone_orders=[2, 3]).euler is euler
    assert SeifertPiece(id=1, euler=euler, cone_orders=[2, 3]).cone_orders == (2, 3)


@pytest.mark.parametrize("name", ["from_piece", "to_piece", "p", "q", "q_prime", "p_prime"])
@pytest.mark.parametrize("value", [1.0, "1", False])
def test_gluing_torus_rejects_fields_that_are_not_integers(name, value):
    fields = {"from_piece": 1, "to_piece": 2, "p": 1, name: value}
    with pytest.raises(TypeError, match=f"torus field {name} must be an integer"):
        GluingTorus(**fields)


# --- validation ------------------------------------------------------------


def test_validate_accepts_standard_two_piece_graph():
    assert validate(two_piece_graph(-1, -1)) == []


def test_validate_flags_self_gluing():
    G = DecompositionGraph(
        pieces=(SeifertPiece(id=1, euler=F(-1), genus=1),),
        tori=(GluingTorus(from_piece=1, to_piece=1, p=1),),
    )
    assert any("self-gluing" in v for v in validate(G))


def test_validate_reports_every_violation_in_order(monkeypatch):
    # boundary circles are counted in one pass over the tori, not per piece
    monkeypatch.setattr(GluingTorus, "touches", lambda self, piece_id: pytest.fail("per-piece scan"))
    G = DecompositionGraph(
        pieces=(
            SeifertPiece(id=1, euler=F(-1), genus=0),
            SeifertPiece(id=2, euler=F(-1), genus=0),
            SeifertPiece(id=2, euler=F(1), genus=1),
            SeifertPiece(id=3, euler=F(0), genus=1),
        ),
        tori=(
            GluingTorus(from_piece=1, to_piece=1, p=1),  # one boundary circle of piece 1, not two
            GluingTorus(from_piece=1, to_piece=2, p=1),
            GluingTorus(from_piece=2, to_piece=9, p=2, q=1, q_prime=3, p_prime=1),
        ),
    )
    assert validate(G) == [
        "duplicate piece id 2",
        "torus 0 (1-1): self-gluing (from = to)",
        "torus 2 (2-9): unknown piece id 9",
        "piece 1: orbifold Euler characteristic 0 is not negative",
        "piece 2: orbifold Euler characteristic 0 is not negative",
        "piece 3: not incident to any torus",
        "piece 3: orbifold Euler characteristic 0 is not negative",
        "graph is disconnected (pieces [3] unreachable)",
    ]


def test_package_built_matrices_convert_no_entry(monkeypatch):
    # decomposition_matrix, a_minus and the shrink build Fraction entries:
    # the constructor checks them and converts none
    monkeypatch.setattr(exact_linalg, "to_rational", lambda value: pytest.fail("entry check"))
    A = decomposition_matrix(two_piece_graph(F(1, 3), -1))
    assert to_lists(a_minus(A)) == [[F(-1, 3), F(1)], [F(1), F(-1)]]
    assert to_lists(strict_shrink(A)) == [[F(1, 3), F(3, 4)], [F(3, 4), F(-1)]]


def test_validate_flags_determinant_condition():
    G = two_piece_graph(-1, -1, tori=(
        GluingTorus(from_piece=1, to_piece=2, p=1, q=2, q_prime=1, p_prime=0),
    ))
    assert any("qq' - pp' = 2 != 1" in v for v in validate(G))


def test_validate_flags_nonpositive_p():
    G = two_piece_graph(-1, -1, tori=(
        GluingTorus(from_piece=1, to_piece=2, p=0, q=1, q_prime=1, p_prime=0),
    ))
    assert any("p must be positive" in v for v in validate(G))


def test_validate_flags_nonnegative_orbifold_euler():
    G = two_piece_graph(-1, -1, genus=0)
    messages = validate(G)
    assert any("orbifold Euler characteristic" in v for v in messages)


def test_validate_flags_isolated_piece():
    G = DecompositionGraph(
        pieces=(
            SeifertPiece(id=1, euler=F(-1), genus=1),
            SeifertPiece(id=2, euler=F(-1), genus=1),
            SeifertPiece(id=3, euler=F(-1), genus=2),
        ),
        tori=(GluingTorus(from_piece=1, to_piece=2, p=1),),
    )
    assert any("not incident" in v for v in validate(G))


def test_validate_flags_disconnected_graph():
    G = DecompositionGraph(
        pieces=tuple(SeifertPiece(id=k, euler=F(-1), genus=1) for k in range(1, 5)),
        tori=(
            GluingTorus(from_piece=1, to_piece=2, p=1),
            GluingTorus(from_piece=3, to_piece=4, p=1),
        ),
    )
    assert any("disconnected" in v for v in validate(G))


def test_validate_flags_duplicate_ids_and_unknown_references():
    G = DecompositionGraph(
        pieces=(
            SeifertPiece(id=1, euler=F(-1), genus=1),
            SeifertPiece(id=1, euler=F(-1), genus=1),
        ),
        tori=(GluingTorus(from_piece=1, to_piece=9, p=1),),
    )
    messages = validate(G)
    assert any("duplicate piece id" in v for v in messages)
    assert any("unknown piece id 9" in v for v in messages)


# --- decomposition matrix --------------------------------------------------


def test_decomposition_matrix_unit_torus():
    A = decomposition_matrix(two_piece_graph(-1, -1))
    assert to_lists(A) == to_lists(sym([["-1", 1], [1, "-1"]]))


def test_decomposition_matrix_accumulates_parallel_tori():
    G = two_piece_graph(0, 0, tori=(
        GluingTorus(from_piece=1, to_piece=2, p=1),
        GluingTorus(from_piece=1, to_piece=2, p=2),
    ))
    A = decomposition_matrix(G)
    assert to_lists(A) == to_lists(sym([[0, "3/2"], ["3/2", 0]]))


def test_decomposition_matrix_rejects_single_piece():
    G = DecompositionGraph(
        pieces=(SeifertPiece(id=1, euler=F(-1), genus=1),),
        tori=(),
    )
    with pytest.raises(InvalidGraphError):
        decomposition_matrix(G)


# --- the nonzero entries ---------------------------------------------------


def dense_nonzeros(A: SymMatrix) -> tuple[dict, ...]:
    return tuple({j: x for j, x in enumerate(row) if x} for row in to_lists(A))


def test_sparse_view_sums_parallel_tori_and_skips_zero_euler():
    G = DecompositionGraph(
        pieces=(
            SeifertPiece(id=1, euler=F(0), genus=1),
            SeifertPiece(id=2, euler=F(-5, 3), genus=1),
            SeifertPiece(id=3, euler=F(0), genus=1),
        ),
        tori=(
            GluingTorus(from_piece=2, to_piece=1, p=2),
            GluingTorus(from_piece=1, to_piece=2, p=3),
            GluingTorus(from_piece=3, to_piece=2, p=1),
        ),
    )
    A = decomposition_matrix(G)
    assert A.sparse == ({1: F(5, 6)}, {0: F(5, 6), 1: F(-5, 3), 2: F(1)}, {1: F(1)})
    assert A.sparse == dense_nonzeros(A)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("pieces, seed", [(5, 0), (12, 1), (30, 2)])
def test_sparse_view_is_the_dense_nonzeros(profile, pieces, seed):
    A = decomposition_matrix(generate_manifold(pieces, seed=seed, profile=profile))
    assert A.sparse == dense_nonzeros(A)
    # a parsed copy drops the zeros of its dense rows and equals the matrix
    # the package built from the nonzeros; so do a_minus's and the shrink's
    assert sym(to_lists(A)) == A
    for derived in (a_minus(A), strict_shrink(A)) if profile == "posEig" else (a_minus(A),):
        assert derived.sparse == dense_nonzeros(derived)
        assert sym(to_lists(derived)) == derived


def test_decomposition_matrix_of_a_long_chain_keeps_only_its_nonzeros():
    # 2,000 pieces in a chain: 5,998 nonzeros.  Dense rows would hold four
    # million entries, 32.9 MB, and peak at 65 MB while they are built.
    n = 2000
    G = DecompositionGraph(
        pieces=tuple(SeifertPiece(id=k, euler=-1, genus=1) for k in range(n)),
        tori=tuple(GluingTorus(from_piece=k, to_piece=k + 1, p=1) for k in range(n - 1)),
    )
    tracemalloc.start()
    try:
        A = decomposition_matrix(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(row) for row in A.sparse) == 3 * n - 2
    assert peak < 5_000_000


# --- the negated-diagonal matrix and block split ---------------------------


def test_a_minus_flips_positive_diagonal():
    assert to_lists(a_minus(sym([[2, 1], [1, "-1"]]))) == to_lists(sym([["-2", 1], [1, "-1"]]))


def test_a_minus_shares_the_rows_whose_diagonal_is_not_positive():
    A = sym([[2, 1, 0], [1, "-1", 1], [0, 1, 0]])
    B = a_minus(A)
    assert B.sparse == ({0: F(-2), 1: F(1)}, {0: F(1), 1: F(-1), 2: F(1)}, {1: F(1)})
    assert A.sparse[0] == {0: F(2), 1: F(1)}  # copied, not changed
    assert B.sparse[1] is A.sparse[1] and B.sparse[2] is A.sparse[2]


def test_a_minus_keeps_nonpositive_diagonal():
    A = sym([["-1", 1], [1, "-2"]])
    assert to_lists(a_minus(A)) == to_lists(A)
    Z = sym([[0, 1], [1, 0]])
    assert to_lists(a_minus(Z)) == to_lists(Z)


def test_split_blocks_by_diagonal_sign():
    A = sym([[2, 1, 0], [1, "-1", 1], [0, 1, 0]])
    assert split_blocks(A) == ([0], [1], [2])


def test_split_blocks_all_negative():
    A = sym([["-1", 1], [1, "-2"]])
    assert split_blocks(A) == ([], [0, 1], [])


def test_split_blocks_all_zero():
    A = sym([[0, 1], [1, 0]])
    assert split_blocks(A) == ([], [], [0, 1])


# --- generated graphs keep the structural invariants ------------------------


@settings(max_examples=30, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=5),
    strategies.integers(min_value=0, max_value=10_000),
)
def test_generated_graphs_yield_valid_matrices(pieces, seed):
    G = generate_manifold(pieces=pieces, seed=seed)
    assert validate(G) == []
    A = decomposition_matrix(G)
    assert is_connected_matrix(A)
    for i in range(A.order):
        for j in range(i + 1, A.order):
            assert A[i, j] >= 0
    B = a_minus(A)
    assert all(B[i, i] <= 0 for i in range(B.order))


@pytest.mark.parametrize("profile", PROFILES)
def test_every_profile_has_the_inertia_it_promises(profile):
    # Only posEig is checked while generating; negdef, semidef and any hold
    # by construction, so the dense oracle checks all four here.
    for pieces in range(2, 41):
        for seed in range(3):
            A = decomposition_matrix(generate_manifold(pieces, seed=seed, profile=profile))
            B = a_minus(A)
            expected = bareiss_inertia(B)
            assert inertia(B.sparse) == expected
            if profile == "negdef":
                assert B == A and expected == Inertia(0, 0, pieces)
            elif profile == "semidef":
                assert B == A and expected == Inertia(0, 1, pieces - 1)
                assert all(sum(row.values()) == 0 for row in A.sparse)
            elif profile == "posEig":
                assert expected.n_pos > 0
