"""Tests for both decision procedures and the two-piece invariant."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies

import gmsurf.decision as decision
from gmsurf.decision import (
    Branch,
    NotTwoPieceError,
    decide,
    two_piece_d,
)
from gmsurf.exact_linalg import (
    DisconnectedMatrixError,
    SymMatrix,
    inertia,
)
from gmsurf.manifold import a_minus, split_blocks
from oracles import is_connected_matrix, principal_submatrix, sym, to_lists

F = Fraction


def negative_definite(A: SymMatrix) -> bool:
    """Every eigenvalue negative; the 0x0 matrix vacuously so."""
    return inertia(A.sparse).n_neg == A.order


small_rationals = strategies.builds(
    F, strategies.integers(-4, 4), strategies.integers(1, 3)
)
nonnegative_rationals = strategies.builds(
    F, strategies.integers(0, 4), strategies.integers(1, 3)
)


def admissible_matrices(max_order=4):
    """Symmetric matrices with non-negative off-diagonal, filtered connected."""

    def build(draw):
        n = draw(strategies.integers(min_value=1, max_value=max_order))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(small_rationals)
            for j in range(i + 1, n):
                v = draw(nonnegative_rationals)
                rows[i][j] = v
                rows[j][i] = v
        return sym(rows)

    return strategies.composite(build)()


# --- property (I) -----------------------------------------------------------


def test_immersed_positive_eigenvalue_branch():
    verdict = decide(sym([["-1", 2], [2, "-1"]]))
    assert verdict.property_i
    assert verdict.branch is Branch.POSITIVE_EIGENVALUE


def test_immersed_negative_definite_branch():
    verdict = decide(sym([["-2", 1], [1, "-2"]]))
    assert not verdict.property_i
    assert verdict.branch is Branch.NEGATIVE_DEFINITE


def test_immersed_mixed_sign_branch():
    verdict = decide(sym([[1, 1], [1, "-1"]]))
    assert not verdict.property_i
    assert verdict.branch is Branch.SEMIDEFINITE_MIXED_SIGN


def test_immersed_same_sign_branch():
    verdict = decide(sym([["-1", 1], [1, "-1"]]))
    assert verdict.property_i
    assert verdict.branch is Branch.SEMIDEFINITE_SAME_SIGN


def test_immersed_rejects_disconnected_matrix():
    A = sym([["-1", 0], [0, "-1"]])
    with pytest.raises(DisconnectedMatrixError):
        decide(A)


def test_immersed_rejects_negative_off_diagonal():
    with pytest.raises(ValueError):
        decide(sym([[0, "-1"], ["-1", 0]]))


# --- property (VE) ----------------------------------------------------------


def test_virtually_embedded_on_singular_negative_block():
    assert decide(sym([["-1", 1], [1, "-1"]])).property_ve


def test_virtually_embedded_false_when_both_blocks_definite():
    assert not decide(sym([[1, 1], [1, "-1"]])).property_ve


def test_virtually_embedded_zero_diagonal_rule():
    assert decide(sym([[0, "3/2"], ["3/2", 0]])).property_ve


def test_zero_diagonal_rule_matches_every_block_assignment():
    A = sym([[0, 1, "1/2"], [1, "-2", 1], ["1/2", 1, 2]])
    pos, neg, zero = split_blocks(A)
    shortcut = decide(A).property_ve
    for assignment in product((0, 1), repeat=len(zero)):
        p_idx = sorted(pos + [z for z, side in zip(zero, assignment) if side == 0])
        n_idx = sorted(neg + [z for z, side in zip(zero, assignment) if side == 1])
        p_block = a_minus(principal_submatrix(A, p_idx))
        n_block = principal_submatrix(A, n_idx)
        by_hand = not negative_definite(p_block) or not negative_definite(n_block)
        assert by_hand == shortcut


@settings(max_examples=80)
@given(admissible_matrices())
def test_zero_diagonal_assignments_agree_in_general(A):
    if not is_connected_matrix(A):
        return
    pos, neg, zero = split_blocks(A)
    shortcut = decide(A).property_ve
    answers = set()
    for assignment in product((0, 1), repeat=len(zero)):
        p_idx = sorted(pos + [z for z, side in zip(zero, assignment) if side == 0])
        n_idx = sorted(neg + [z for z, side in zip(zero, assignment) if side == 1])
        p_block = a_minus(principal_submatrix(A, p_idx))
        n_block = principal_submatrix(A, n_idx)
        answers.add(
            not negative_definite(p_block) or not negative_definite(n_block)
        )
    assert answers == {shortcut}


# --- joint verdict ----------------------------------------------------------


@settings(max_examples=150)
@given(admissible_matrices())
def test_virtually_embedded_implies_immersed(A):
    if not is_connected_matrix(A):
        return
    verdict = decide(A)
    if verdict.property_ve:
        assert verdict.property_i


@settings(max_examples=80)
@given(admissible_matrices(), strategies.builds(F, strategies.integers(1, 6), strategies.integers(1, 4)))
def test_verdicts_invariant_under_positive_scaling(A, c):
    if not is_connected_matrix(A):
        return
    scaled = sym([[c * A[i, j] for j in range(A.order)] for i in range(A.order)])
    assert decide(scaled).property_i == decide(A).property_i
    assert decide(scaled).property_ve == decide(A).property_ve


@settings(max_examples=80)
@given(admissible_matrices())
def test_negative_definite_forces_both_false(A):
    if not is_connected_matrix(A):
        return
    if not negative_definite(a_minus(A)):
        return
    verdict = decide(A)
    assert not verdict.property_i
    assert not verdict.property_ve
    assert verdict.branch is Branch.NEGATIVE_DEFINITE


def test_branch_tag_tracks_positive_eigenvalue():
    for rows in ([["-1", 2], [2, "-1"]], [["-2", 1], [1, "-2"]], [[1, 1], [1, "-1"]]):
        verdict = decide(sym(rows))
        assert (verdict.branch is Branch.POSITIVE_EIGENVALUE) == (
            inertia(a_minus(sym(rows)).sparse).n_pos > 0
        )


@pytest.mark.parametrize(
    "rows, blocks",
    [
        # a zero diagonal settles VE: no block is looked at
        ([[0, "3/2"], ["3/2", 0]], []),
        # no positive diagonal: the negative block is A-minus, whose inertia it reads
        ([["-2", 1], [1, "-2"]], []),
        # every diagonal positive: the positive block (negated) is A-minus
        ([[1, 2], [2, 1]], []),
        # both blocks, the positive one (negated) being definite
        ([[1, 1], [1, "-1"]], [[["-1"]], [["-1"]]]),
        # the positive block (negated) is indefinite, so VE holds without the negative one
        ([[1, 2, 1], [2, 1, 1], [1, 1, "-1"]], [[["-1", 2], [2, "-1"]]]),
    ],
)
def test_decide_takes_each_inertia_once(monkeypatch, rows, blocks):
    # decide hands `inertia` one dict of nonzero entries per row; compare
    # their dense form: A-minus first, then one call per block looked at
    # that is a proper part of A-minus.
    seen, checked = [], []
    real_inertia, real_check = decision.inertia, decision._check_input
    monkeypatch.setattr(decision, "inertia", lambda B: seen.append(B) or real_inertia(B))
    monkeypatch.setattr(decision, "_check_input", lambda A: checked.append(A) or real_check(A))
    A = sym(rows)
    verdict = decide(A)
    assert checked == [A]

    def dense(B):
        return [[row.get(j, F(0)) for j in range(len(B))] for row in B]

    assert [dense(B) for B in seen] == [to_lists(a_minus(A))] + [
        to_lists(sym(b)) for b in blocks
    ]
    assert verdict.inertia_of_a_minus == inertia(a_minus(A).sparse)



# Input errors, in the order decide checks them: the empty matrix, then the
# first negative off-diagonal entry row by row (even on a disconnected
# matrix), then a disconnected matrix graph.
INPUT_ERRORS = [
    ([], ValueError, "empty matrix"),
    ([["-1", 1, "-1"], [1, "-1", "-2"], ["-1", "-2", "-1"]], ValueError, "negative off-diagonal entry at (0, 2)"),
    ([["-1", 0, 0], [0, "-1", "-1"], [0, "-1", "-1"]], ValueError, "negative off-diagonal entry at (1, 2)"),
    ([["-1", 1, 0], [1, "-1", 0], [0, 0, "-1"]], DisconnectedMatrixError, "matrix graph is disconnected"),
]


@pytest.mark.parametrize("rows, error, message", INPUT_ERRORS)
@pytest.mark.parametrize(
    "decider",
    [
        decide,
        # the same decision, read for one property at a time
        pytest.param(lambda A: decide(A).property_i, id="decide_immersed"),
        pytest.param(lambda A: decide(A).property_ve, id="decide_virtually_embedded"),
    ],
)
def test_input_errors_keep_type_and_message(decider, rows, error, message):
    with pytest.raises(error) as info:
        decider(sym(rows))
    assert type(info.value) is error
    assert str(info.value) == message


# --- two-piece invariant ----------------------------------------------------


def test_two_piece_d_fibering_case():
    inv = two_piece_d(sym([["-1", 1], [1, "-1"]]))
    assert inv.d == F(1)
    assert inv.i_via_d
    assert inv.ve_via_d
    assert inv.fibers_over_circle


def test_two_piece_d_boundary_case_excluded():
    inv = two_piece_d(sym([[1, 1], [1, "-1"]]))
    assert inv.d == F(-1)
    assert not inv.i_via_d
    assert not inv.ve_via_d


def test_two_piece_d_interior_case():
    inv = two_piece_d(sym([["-1", 2], [2, "-1"]]))
    assert inv.d == F(1, 4)
    assert inv.i_via_d
    assert inv.ve_via_d


def test_two_piece_d_zero_diagonal_cross_check():
    inv = two_piece_d(sym([[0, "3/2"], ["3/2", 0]]))
    assert inv.d == F(0)
    assert inv.ve_via_d
    assert not inv.fibers_over_circle
    assert inv.virtually_fibers


def test_two_piece_d_requires_order_two():
    with pytest.raises(NotTwoPieceError):
        two_piece_d(sym([["-1"]]))


def test_two_piece_d_requires_positive_coupling():
    with pytest.raises(NotTwoPieceError):
        two_piece_d(sym([["-1", 0], [0, "-1"]]))


@settings(max_examples=150)
@given(small_rationals, small_rationals, strategies.builds(F, strategies.integers(1, 4), strategies.integers(1, 3)))
def test_two_piece_d_matches_decisions(a11, a22, a12):
    A = sym([[a11, a12], [a12, a22]])
    inv = two_piece_d(A)
    verdict = decide(A)
    assert verdict.property_i == inv.i_via_d
    assert verdict.property_ve == inv.ve_via_d
