"""Tests for both decision procedures and the two-piece invariant."""

import random
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
    Inertia,
    SymMatrix,
    inertia,
)
from gmsurf.generate import generate_manifold
from gmsurf.manifold import decomposition_matrix, split_blocks
from oracles import a_minus, bareiss_inertia, is_connected_matrix, principal_submatrix, sym, to_lists
from test_exact_linalg import VERDICT_CLASSES, verdict_matrix
from test_surface import count_calls

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
        p_block = SymMatrix(a_minus(principal_submatrix(A, p_idx)))
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
        p_block = SymMatrix(a_minus(principal_submatrix(A, p_idx)))
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
    if not negative_definite(SymMatrix(a_minus(A))):
        return
    verdict = decide(A)
    assert not verdict.property_i
    assert not verdict.property_ve
    assert verdict.branch is Branch.NEGATIVE_DEFINITE


def test_branch_tag_tracks_positive_eigenvalue():
    for rows in ([["-1", 2], [2, "-1"]], [["-2", 1], [1, "-2"]], [[1, 1], [1, "-1"]]):
        verdict = decide(sym(rows))
        assert (verdict.branch is Branch.POSITIVE_EIGENVALUE) == (
            inertia(SymMatrix(a_minus(sym(rows))).sparse).n_pos > 0
        )


@pytest.mark.parametrize(
    "rows, searched",
    [
        # a zero diagonal settles VE: no block is looked at
        ([[0, "3/2"], ["3/2", 0]], []),
        # a negative Perron root settles both properties
        ([["-2", 1], [1, "-2"]], []),
        # a zero Perron root, all diagonals negative
        ([["-1", 1], [1, "-1"]], []),
        # every diagonal positive: the positive block (negated) is A-minus
        ([[1, 2], [2, 1]], []),
        # both blocks, under a zero Perron root: both are negative definite
        ([[1, 1], [1, "-1"]], []),
        # the positive block (negated) is indefinite, so VE holds without the negative one
        ([[1, 2, 1], [2, 1, 1], [1, 1, "-1"]], [[[1, 2], [2, 1]]]),
        # the positive block has two components, each with its own sign
        ([[1, 0, 1], [0, 1, 1], [1, 1, "-1"]], [[[1]], [[1]], [["-1"]]]),
    ],
)
def test_decide_takes_each_inertia_once(monkeypatch, rows, searched):
    # decide asks one sign of A-minus, then one per connected component of
    # each block it looks at, each of A's own dict rows of nonzero entries
    # (compared in their dense form); a search takes its exact step only
    # where no fixed-point round decides, which these inputs never need.
    signs, searches = watch_signs(monkeypatch)
    checked, real_check = [], decision._check_input
    monkeypatch.setattr(decision, "_check_input", lambda A: checked.append(A) or real_check(A))
    A = sym(rows)
    verdict = decide(A)
    assert checked == [A]

    def dense(B):
        return [[row.get(j, F(0)) for j in range(len(B))] for row in B]

    assert signs[0] is A.sparse
    assert [dense(B) for B in signs] == [to_lists(A)] + [to_lists(sym(b)) for b in searched]
    assert_each_sign_is_one_search(searches, signs, exact=[])
    assert verdict.perron_sign == perron_sign(inertia(SymMatrix(a_minus(A)).sparse))


def watch_signs(monkeypatch) -> tuple[list, list]:
    """(signs, searches), filled in as decide runs: the rows of each
    `_perron_sign`, and in order, for each search, its sign-only flag, its
    sign and the number of congruences it ran; `inertia` fails the test."""
    signs, searches = [], []
    real_sign, real_search = decision._perron_sign, decision._perron_search
    counts = count_calls(monkeypatch, ("_congruence",))
    monkeypatch.setattr(decision, "inertia", lambda *args: pytest.fail("decide called inertia"))
    monkeypatch.setattr(decision, "_perron_sign", lambda B: signs.append(B) or real_sign(B))

    def search(scaled, sign_only=False):
        before = counts["_congruence"]
        found = real_search(scaled, sign_only)
        searches.append((sign_only, found[0], counts["_congruence"] - before))
        return found

    monkeypatch.setattr(decision, "_perron_search", search)
    return signs, searches


def assert_each_sign_is_one_search(searches: list, signs: list, exact: list[int]) -> None:
    """Each sign is one sign-only search, and the searches numbered in
    `exact` (in order) ran one congruence each, the others none."""
    assert len(searches) == len(signs)
    assert all(sign_only for sign_only, _, _ in searches)
    assert [congruences for _, _, congruences in searches] == [int(k in exact) for k in range(len(searches))]


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


# --- decide against the dense oracles ----------------------------------------


def scaled_semidefinite(n: int, seed: int, eps: Fraction) -> SymMatrix:
    """D S D - eps I, S a gen semidef matrix (singular, the all-ones vector
    spanning its kernel) and D a random positive diagonal: at eps = 0 the
    kernel is spanned by D^-1 times the all-ones vector, and a small eps > 0
    leaves the matrix negative definite, near singular."""
    S = decomposition_matrix(generate_manifold(n, seed=seed, profile="semidef"))
    rng = random.Random(f"dsd:{seed}:{n}")
    d = [F(rng.randint(1, 16), rng.randint(1, 4)) for _ in range(n)]
    rows = []
    for i, row in enumerate(S.sparse):
        scaled = {j: d[i] * x * d[j] for j, x in row.items()}
        scaled[i] = scaled.get(i, F(0)) - eps
        rows.append({j: x for j, x in scaled.items() if x})
    return SymMatrix(tuple(rows))


def perron_sign(ine: Inertia) -> int:
    """The sign of the Perron root, the largest eigenvalue, from an inertia."""
    return 1 if ine.n_pos else 0 if ine.n_zero else -1


def assert_decide_matches_the_dense_oracles(A: SymMatrix) -> None:
    """Perron sign, branch and both properties of `decide` against the dense
    Bareiss inertia of A-minus and of its diagonal blocks.  Both blocks are
    principal blocks of A-minus; every zero diagonal goes with the positive
    block, as any assignment may."""
    B = SymMatrix(a_minus(A))
    ine = bareiss_inertia(B)
    diagonal = [A[i, i] for i in range(A.order)]
    pos = [i for i, x in enumerate(diagonal) if x > 0]
    neg = [i for i, x in enumerate(diagonal) if x < 0]
    zero = [i for i, x in enumerate(diagonal) if x == 0]
    if ine.n_pos:
        branch = Branch.POSITIVE_EIGENVALUE
    elif ine.n_zero:
        branch = Branch.SEMIDEFINITE_SAME_SIGN if not pos or not neg else Branch.SEMIDEFINITE_MIXED_SIGN
    else:
        branch = Branch.NEGATIVE_DEFINITE
    definite = [bareiss_inertia(principal_submatrix(B, idx)).n_neg == len(idx) for idx in (pos + zero, neg)]
    verdict = decide(A)
    assert verdict.perron_sign == perron_sign(ine)
    assert verdict.branch is branch
    assert verdict.property_i == (branch in (Branch.POSITIVE_EIGENVALUE, Branch.SEMIDEFINITE_SAME_SIGN))
    assert verdict.property_ve == (not all(definite))


@settings(max_examples=300)
@given(admissible_matrices(max_order=5))
def test_decide_matches_the_dense_oracles_on_small_matrices(A):
    # n = 1 and zero or positive diagonals included
    if is_connected_matrix(A):
        assert_decide_matches_the_dense_oracles(A)


@pytest.mark.parametrize("n", [5, 10, 18, 34, 64])
@pytest.mark.parametrize("cls", sorted(VERDICT_CLASSES))
def test_decide_matches_the_dense_oracles_on_the_verdict_classes(cls, n):
    assert_decide_matches_the_dense_oracles(verdict_matrix(n, cls))


@pytest.mark.parametrize("eps", [F(0), F(1, 10**6)], ids=["DSD", "DSD-eps"])
@pytest.mark.parametrize("n, seed", [(2, 0), (5, 1), (12, 2), (30, 0)])
def test_decide_matches_the_dense_oracles_off_the_all_ones_kernel(n, seed, eps):
    assert_decide_matches_the_dense_oracles(scaled_semidefinite(n, seed, eps))


@pytest.mark.parametrize("profile", ["any", "posEig", "semidef", "negdef"])
@pytest.mark.parametrize("seed", range(5))
def test_decide_matches_the_dense_oracles_on_gen_inputs(profile, seed):
    for pieces in range(2, 41):
        assert_decide_matches_the_dense_oracles(decomposition_matrix(generate_manifold(pieces, seed=seed, profile=profile)))


def bordered_semidefinite(n: int, seed: int) -> SymMatrix:
    """D S D (:func:`scaled_semidefinite` at eps = 0, every diagonal
    negative) with one more vertex of diagonal 1 coupled to vertex 0 by
    1/2.  A-minus's Perron root is then positive, above that of its proper
    block D S D, which is 0: decide looks at both blocks, and the search on
    the negative one ends undecided, as on D S D alone."""
    rows = [dict(row) for row in scaled_semidefinite(n, seed, F(0)).sparse] + [{n: F(1), 0: F(1, 2)}]
    rows[0][n] = F(1, 2)
    return SymMatrix(tuple(rows))


@pytest.mark.parametrize("n, seed", [(5, 1), (12, 2), (30, 0)])
def test_a_block_component_takes_the_exact_step(monkeypatch, n, seed):
    A = bordered_semidefinite(n, seed)
    signs, searches = watch_signs(monkeypatch)
    assert_decide_matches_the_dense_oracles(A)
    # A-minus, the positive block's one vertex, then the negative block,
    # whose search takes the exact step
    assert [len(B) for B in signs] == [n + 1, 1, n]
    assert_each_sign_is_one_search(searches, signs, exact=[2])
    assert [sign for _, sign, _ in searches] == [1, -1, 0]
    verdict = decide(A)
    assert (verdict.perron_sign, verdict.property_ve) == (1, True)


@pytest.mark.parametrize("n, seed", [(5, 1), (12, 2), (30, 0)])
def test_the_exact_step_reads_a_positive_diagonal_in_a_minus_form(monkeypatch, n, seed):
    # D S D with one diagonal entry's sign flipped has the same A-minus, so
    # the search on A's own rows ends undecided as on D S D, and its exact
    # step reads that entry as minus its absolute value: sign 0, with both
    # diagonal signs present.
    rows = [dict(row) for row in scaled_semidefinite(n, seed, F(0)).sparse]
    rows[0][0] = -rows[0][0]
    A = SymMatrix(tuple(rows))
    signs, searches = watch_signs(monkeypatch)
    assert_decide_matches_the_dense_oracles(A)
    assert signs == [A.sparse]
    assert_each_sign_is_one_search(searches, signs, exact=[0])
    verdict = decide(A)
    assert (verdict.perron_sign, verdict.branch) == (0, Branch.SEMIDEFINITE_MIXED_SIGN)


@pytest.mark.parametrize(
    "A, eliminations",
    [
        pytest.param(lambda: decomposition_matrix(generate_manifold(200, seed=3, profile="negdef")), 0, id="gen-negdef"),
        pytest.param(lambda: decomposition_matrix(generate_manifold(200, seed=3, profile="semidef")), 0, id="gen-semidef"),
        pytest.param(lambda: verdict_matrix(64, "negdef"), 0, id="negdef"),
        pytest.param(lambda: verdict_matrix(64, "same"), 0, id="same"),
        pytest.param(lambda: verdict_matrix(64, "mixed"), 0, id="mixed"),
        pytest.param(lambda: scaled_semidefinite(30, 0, F(1, 10**6)), 0, id="DSD-eps"),
        # the positive branch: every sign, blocks included, from the search alone
        pytest.param(lambda: decomposition_matrix(generate_manifold(200, seed=3, profile="posEig")), 0, id="gen-posEig"),
        pytest.param(lambda: verdict_matrix(64, "pos_ve"), 0, id="pos_ve"),
        pytest.param(lambda: verdict_matrix(64, "pos_no_ve"), 0, id="pos_no_ve"),
        # no fixed-point round hits the kernel: the search takes its one exact step
        pytest.param(lambda: scaled_semidefinite(30, 0, F(0)), 1, id="DSD"),
        pytest.param(lambda: bordered_semidefinite(30, 0), 1, id="DSD-block"),
    ],
)
def test_decide_eliminates_only_on_the_positive_branch(monkeypatch, A, eliminations):
    # The name is historical: decide eliminates only where a sign search
    # takes its exact step, on any branch, and never through `inertia`.
    A = A()
    counts = count_calls(monkeypatch, ("inertia", "_congruence"))
    decide(A)
    assert counts == {"inertia": 0, "_congruence": eliminations}


def test_a_near_singular_ve_block_takes_at_most_seven_fixed_point_solves(monkeypatch):
    # The 255-vertex negative block has its Perron root close to 0, so its
    # sign search runs into the 32-bit round; a count, unlike wall time,
    # shows any work on these blocks without jitter.
    A = verdict_matrix(256, "pos_no_ve")
    counts = count_calls(monkeypatch, ("_fixed_point_solve", "inertia"))
    verdict = decide(A)
    assert (verdict.branch, verdict.property_i, verdict.property_ve) == VERDICT_CLASSES["pos_no_ve"]
    assert counts["_fixed_point_solve"] <= 7
    assert counts["inertia"] == 0


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
