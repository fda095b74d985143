"""Tests for singular reductions, negativity certificates, and the
weighted quadratic-form identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import reduction
from gmsurf.exact_linalg import (
    Inertia,
    SymMatrix,
    _congruence,
    inertia,
)
from gmsurf.generate import generate_manifold
from gmsurf.manifold import a_minus, decomposition_matrix
from gmsurf.reduction import (
    NegativeDefiniteError,
    NoPositiveEigenvalueError,
    NotNegativeError,
    ReductionCertificate,
    find_singular_reduction,
    negativity_certificate,
    strict_shrink,
    verify_reduction,
)
from oracles import (
    ZeroEntryError,
    all_pairs_reduction_violations,
    bilinear_identity,
    crossing_reduction,
    dense_rows,
    halving_shrink,
    is_connected_matrix,
    kernel_basis,
    mat_vec,
    principal_submatrix,
    sym,
    to_lists,
)
from test_exact_linalg import VERDICT_CLASSES, closing_epsilon, path_rows, verdict_matrix

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


def admissible_matrices(max_order=5):
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


def connected_negative_matrix(rng: random.Random, order: int, singular: bool) -> SymMatrix:
    """Random connected matrix with non-negative off-diagonal whose diagonal
    dominance makes it negative semidefinite (singular) or definite."""
    rows = [[F(0)] * order for _ in range(order)]
    for i in range(order):
        for j in range(i + 1, order):
            v = F(rng.randint(1, 6), rng.randint(1, 3))
            rows[i][j] = v
            rows[j][i] = v
    for i in range(order):
        total = sum(rows[i][j] for j in range(order) if j != i)
        slack = F(0) if singular else F(rng.randint(1, 4), rng.randint(1, 2))
        rows[i][i] = -(total + slack)
    return sym(rows)


# --- finding singular reductions ---------------------------------------------


def test_reduction_of_indefinite_pair():
    cert = find_singular_reduction(sym([["-1", 2], [2, "-1"]]))
    assert cert.a_prime == ({0: F(-1), 1: F(1, 2)}, {0: F(2), 1: F(-1)})
    assert cert.a == (F(1), F(2))
    assert verify_reduction(sym([["-1", 2], [2, "-1"]]), cert) == []


def test_reduction_of_already_singular_matrix_is_itself():
    A = sym([["-1", 1], [1, "-1"]])
    cert = find_singular_reduction(A)
    assert cert.a_prime == A.sparse
    assert cert.a == (F(1), F(1))


def test_reduction_rejects_negative_definite_input():
    with pytest.raises(NegativeDefiniteError):
        find_singular_reduction(sym([["-2", 1], [1, "-2"]]))


def test_reduction_handles_positive_diagonal_by_flipping():
    A = sym([[1, 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    assert verify_reduction(A, cert) == []


def test_reduction_of_zero_coupling_pair_uses_zero_diagonal_singleton():
    A = sym([[0, 1], [1, 0]])
    cert = find_singular_reduction(A)
    assert verify_reduction(A, cert) == []
    assert cert.a == (F(1), F(1))


def assert_full_support_reduction(A: SymMatrix) -> ReductionCertificate:
    cert = find_singular_reduction(A)
    assert verify_reduction(A, cert) == []
    assert all(v > 0 for v in cert.a)
    return cert


def test_reduction_of_all_zero_diagonal():
    A = sym([[0, 1, 0], [1, 0, "1/2"], [0, "1/2", 0]])
    cert = assert_full_support_reduction(A)
    assert cert.a == (F(1), F(1), F(1))
    assert cert.a_prime == ({}, {}, {})


def test_reduction_of_single_zero_entry():
    cert = assert_full_support_reduction(sym([[0]]))
    assert cert.a_prime == ({},)
    assert cert.a == (F(1),)


def test_reduction_with_zero_diagonal_beside_an_indefinite_block():
    # Pieces 0 and 1 alone already have a positive eigenvalue of A-minus, so
    # the couplings between them must shrink (t0 < 1) before the solve.
    A = sym([["-1", 3, 0], [3, "-1", 1], [0, 1, 0]])
    assert inertia(principal_submatrix(A, [0, 1]).sparse).n_pos == 1
    cert = assert_full_support_reduction(A)
    assert 0 < cert.a_prime[0][1] < A[0, 1]
    assert cert.a_prime[2] == {}  # the zero-diagonal row loses its couplings


def test_reduction_with_two_adjacent_zero_diagonals():
    A = sym([["-2", 1, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 1, "3"]])
    cert = assert_full_support_reduction(A)
    assert 2 not in cert.a_prime[1] and 1 not in cert.a_prime[2]


def test_reduction_of_disconnected_input_uses_one_component():
    A = sym([["-2", 1, 0, 0], [1, "-2", 0, 0], [0, 0, "-1", 2], [0, 0, 2, "-1"]])
    cert = find_singular_reduction(A)
    assert verify_reduction(A, cert) == []
    assert [i for i, v in enumerate(cert.a) if v != 0] == [2, 3]


def test_certificate_support_lists_nonzero_indices():
    # a connected path whose A-minus has a positive eigenvalue (-1 + sqrt 2)
    A = sym([[1, 1, 0], [1, "-1", 1], [0, 1, "-1"]])
    cert = find_singular_reduction(A)
    assert [i for i, v in enumerate(cert.a) if v != 0] == [0, 1, 2]
    assert verify_reduction(A, cert) == []


@settings(max_examples=150, deadline=None)
@given(admissible_matrices())
def test_reduction_of_connected_input_has_full_support(A):
    if not is_connected_matrix(A) or negative_definite(a_minus(A)):
        return
    assert_full_support_reduction(A)


@settings(max_examples=150, deadline=None)
@given(admissible_matrices())
def test_reduction_exists_iff_not_negative_definite(A):
    negdef = negative_definite(a_minus(A))
    try:
        cert = find_singular_reduction(A)
    except NegativeDefiniteError:
        assert negdef
    else:
        assert not negdef
        assert verify_reduction(A, cert) == []


# --- verifying reductions -----------------------------------------------------


def test_verify_reduction_accepts_found_certificate():
    A = sym([["-1", 2], [2, "-1"]])
    assert verify_reduction(A, find_singular_reduction(A)) == []


def test_verify_reduction_flags_broken_annihilation():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    tampered = ReductionCertificate(
        a_prime=cert.a_prime, a=(cert.a[0] + 1, cert.a[1])
    )
    assert any("!= 0" in v for v in verify_reduction(A, tampered))


def test_verify_reduction_flags_entry_above_bound():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    rows = [dict(row) for row in cert.a_prime]
    rows[0][1] = F(3)
    tampered = ReductionCertificate(a_prime=tuple(rows), a=cert.a)
    assert any("not a reduction" in v for v in verify_reduction(A, tampered))


def test_verify_reduction_flags_changed_diagonal():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    rows = [dict(row) for row in cert.a_prime]
    del rows[0][0]  # a zero entry has no key
    tampered = ReductionCertificate(a_prime=tuple(rows), a=cert.a)
    assert any("diagonal changed" in v for v in verify_reduction(A, tampered))


def test_verify_reduction_names_the_shape_of_a_prime():
    # a and the matrix agree on the order; only a_prime is off
    A = sym([["-1", 1, 0], [1, "-1", 1], [0, 1, "-1"]])
    a = (F(1), F(1), F(1))
    short = ReductionCertificate(a_prime=({0: F(-1)},), a=a)
    message = "shape mismatch: a has 3 entries, a_prime is {}, matrix order 3"
    assert verify_reduction(A, short) == [message.format("1 x 1")] == all_pairs_reduction_violations(A, short)
    # Three rows, but columns past the last one and before the first.
    stray = ReductionCertificate(a_prime=({0: F(-1), 3: F(1)}, {1: F(-1)}, {-1: F(1), 5: F(1)}), a=a)
    assert not stray.has_order(3)
    expected = [message.format("3 x 3 with columns [-1, 3, 5] outside it")]
    assert verify_reduction(A, stray) == expected == all_pairs_reduction_violations(A, stray)
    empty = ReductionCertificate(a_prime=(), a=a)
    assert verify_reduction(A, empty) == [message.format("0 x 0")] == all_pairs_reduction_violations(A, empty)


def test_verify_reduction_flags_zero_and_negative_vectors():
    A = sym([["-1", 1], [1, "-1"]])
    zero = ReductionCertificate(a_prime=A.sparse, a=(F(0), F(0)))
    assert any("zero" in v for v in verify_reduction(A, zero))
    negative = ReductionCertificate(a_prime=A.sparse, a=(F(-1), F(-1)))
    assert any("negative entry" in v for v in verify_reduction(A, negative))


def test_verify_reduction_matches_the_all_pairs_check_on_mutated_certificates():
    """Only nonzero couplings take an absolute value; the violation list,
    messages and order included, is the one the all-pairs check gives."""
    A = sym(path_rows(5, F(1, 2)))
    cert = find_singular_reduction(A)
    assert A[0, 2] == 0 and A[0, 1] > 0
    mutations = {
        "nonzero where the coupling is 0": [(0, 2, F(1, 3)), (4, 1, F(-2))],
        "over-large entry": [(0, 1, A[0, 1] + 1)],
        "wrong sign, too large": [(1, 0, -A[1, 0] - F(1, 7))],
        "wrong sign, within the bound": [(2, 3, -A[2, 3] / 2)],
        "all of them": [(0, 2, F(1, 3)), (0, 1, A[0, 1] + 1), (1, 0, -A[1, 0] - 1)],
    }
    flagged = {}
    for name, changes in mutations.items():
        rows = [dict(row) for row in cert.a_prime]
        for i, j, v in changes:
            rows[i][j] = v
        tampered = ReductionCertificate(a_prime=tuple(rows), a=cert.a)
        violations = verify_reduction(A, tampered)
        assert violations == all_pairs_reduction_violations(A, tampered), name
        flagged[name] = [v for v in violations if v.startswith("not a reduction")]
    assert flagged["nonzero where the coupling is 0"] == [
        "not a reduction at (0, 2): |1/3| > 0",
        "not a reduction at (4, 1): |-2| > 0",
    ]
    assert flagged["over-large entry"] == ["not a reduction at (0, 1): |2| > 1"]
    assert flagged["wrong sign, too large"] == ["not a reduction at (1, 0): |-8/7| > 1"]
    assert flagged["wrong sign, within the bound"] == []
    assert len(flagged["all of them"]) == 3


# --- negativity certificates ---------------------------------------------------


def test_negativity_certificate_definite_case():
    cert = negativity_certificate(sym([["-2", 1], [1, "-2"]]))
    assert cert.a == (F(1), F(1))
    assert cert.image == (F(-1), F(-1))


def test_negativity_certificate_semidefinite_case():
    cert = negativity_certificate(sym([["-1", 1], [1, "-1"]]))
    assert cert.a == (F(1), F(1))
    assert cert.image == (F(0), F(0))


def test_negativity_certificate_rejects_indefinite_matrix():
    with pytest.raises(NotNegativeError):
        negativity_certificate(sym([["-1", 2], [2, "-1"]]))


def test_negativity_certificate_rejects_disconnected_matrix():
    with pytest.raises(ValueError):
        negativity_certificate(sym([["-1", 0], [0, "-1"]]))


def test_negativity_certificate_random_instances():
    rng = random.Random("negativity-instances")
    for trial in range(60):
        order = rng.randint(1, 5)
        singular = order > 1 and trial % 2 == 0
        A = connected_negative_matrix(rng, order, singular=singular)
        cert = negativity_certificate(A)
        assert all(v > 0 for v in cert.a)
        assert all(v <= 0 for v in cert.image)
        assert mat_vec(to_lists(A), cert.a) == cert.image
        if singular:
            assert cert.image == tuple([F(0)] * order)
            basis = kernel_basis(A)
            assert len(basis) == 1
            ratio = cert.a[0] / basis[0][0]
            assert all(a == ratio * b for a, b in zip(cert.a, basis[0]))


# --- the quadratic-form identity ------------------------------------------------


def test_bilinear_identity_basis_vector():
    lhs, rhs = bilinear_identity(
        sym([["-2", 1], [1, "-2"]]), a=(F(1), F(1)), x=(F(1), F(0))
    )
    assert lhs == rhs == F(-2)


def test_bilinear_identity_at_the_weight_vector_kills_second_sum():
    A = sym([["-2", 1], [1, "-2"]])
    a = (F(1), F(2))
    lhs, rhs = bilinear_identity(A, a=a, x=a)
    assert lhs == rhs
    image = mat_vec(to_lists(A), a)
    first_sum = sum(a[i] * image[i] for i in range(2))
    assert rhs == first_sum


def test_bilinear_identity_rejects_zero_weight():
    with pytest.raises(ZeroEntryError):
        bilinear_identity(sym([["-2", 1], [1, "-2"]]), a=(F(0), F(1)), x=(F(1), F(1)))


@settings(max_examples=100)
@given(
    strategies.integers(min_value=0, max_value=10_000),
)
def test_bilinear_identity_random_four_by_four(seed):
    rng = random.Random(f"bilinear:{seed}")
    rows = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            v = F(rng.randint(-5, 5), rng.randint(1, 3))
            rows[i][j] = v
            rows[j][i] = v
    A = sym(rows)
    a = tuple(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(4))
    x = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
    lhs, rhs = bilinear_identity(A, a=a, x=x)
    assert lhs == rhs


# --- strict shrinking -------------------------------------------------------------


def test_strict_shrink_halves_until_positive_eigenvalue_survives():
    shrunk = strict_shrink(sym([["-1", 2], [2, "-1"]]))
    assert to_lists(shrunk) == to_lists(sym([["-1", "3/2"], ["3/2", "-1"]]))


def test_strict_shrink_accepts_first_epsilon_when_possible():
    shrunk = strict_shrink(sym([[0, 1], [1, 0]]))
    assert to_lists(shrunk) == to_lists(sym([[0, "1/2"], ["1/2", 0]]))


def test_strict_shrink_rejects_semidefinite_input():
    with pytest.raises(NoPositiveEigenvalueError):
        strict_shrink(sym([["-1", 1], [1, "-1"]]))


def test_strict_shrink_gallops_from_a_far_bound(monkeypatch):
    # The best witness bound's power is 2^-11 while the answer is eps = 1/8:
    # after the test at 1/2, a gallop and a bisection take 5 more inertia
    # tests, each one congruence of pair rows, where a walk one power at a
    # time from 2^-11 would take 9.
    A = sym([["-48/25", 1, 1], [1, "-13/25", 0], [1, 0, "-87/100"]])
    calls = []
    monkeypatch.setattr(reduction, "_congruence", lambda adj: calls.append(adj) or _congruence(adj))
    shrunk = strict_shrink(A)
    assert shrunk == halving_shrink(A)
    assert shrunk[0, 1] == F(7, 8)
    assert len(calls) == 6


@settings(max_examples=60, deadline=None)
@given(admissible_matrices(max_order=4))
def test_strict_shrink_preserves_branch_and_strictness(A):
    if inertia(a_minus(A).sparse).n_pos == 0:
        return
    shrunk = strict_shrink(A)
    assert inertia(a_minus(shrunk).sparse).n_pos > 0
    for i in range(A.order):
        assert shrunk[i, i] == A[i, i]
        for j in range(A.order):
            if i != j and A[i, j] != 0:
                assert 0 < shrunk[i, j] < A[i, j]


def assert_matches_dense_oracles(A: SymMatrix) -> None:
    """The witness-bounded shrink equals the halving loop, and the sparse
    M-matrix walk equals the determinant/nullspace crossing, on A and on
    its shrink."""
    try:
        expected = halving_shrink(A)
    except NoPositiveEigenvalueError:
        with pytest.raises(NoPositiveEigenvalueError):
            strict_shrink(A)
    else:
        shrunk = strict_shrink(A)
        assert shrunk == expected
        assert find_singular_reduction(shrunk) == crossing_reduction(shrunk)
    try:
        expected_cert = crossing_reduction(A)
    except NegativeDefiniteError:
        with pytest.raises(NegativeDefiniteError):
            find_singular_reduction(A)
    else:
        assert find_singular_reduction(A) == expected_cert


@settings(max_examples=300, deadline=None)
@given(admissible_matrices(max_order=6))
def test_shrink_and_reduction_match_the_dense_oracles(A):
    assert_matches_dense_oracles(A)


@pytest.mark.parametrize("n", [3, 13, 24])
def test_shrink_and_reduction_match_the_dense_oracles_on_paths(n):
    assert_matches_dense_oracles(sym(path_rows(n, closing_epsilon(n))))


@pytest.mark.parametrize("cls", sorted(VERDICT_CLASSES))
def test_shrink_and_reduction_match_the_dense_oracles_on_decomposition_matrices(cls):
    assert_matches_dense_oracles(verdict_matrix(24, cls))


@pytest.mark.parametrize("profile", ["posEig", "any", "semidef", "negdef"])
def test_shrink_and_reduction_match_the_dense_oracles_on_generated_manifolds(profile):
    # The row dicts of a decomposition matrix list their keys in torus order.
    assert_matches_dense_oracles(decomposition_matrix(generate_manifold(30, seed=3, profile=profile)))


# --- consequences for symmetric reductions -----------------------------------------


def random_symmetric_reduction(rng: random.Random, A: SymMatrix, strict: bool):
    """Scale each off-diagonal pair by a factor in [-1, 1]; with strict=True
    at least one nonzero pair is strictly shrunk."""
    rows = to_lists(A)
    pairs = [
        (i, j)
        for i in range(A.order)
        for j in range(i + 1, A.order)
        if A[i, j] != 0
    ]
    forced = rng.choice(pairs) if strict and pairs else None
    for i, j in pairs:
        num = rng.randint(-3, 3)
        if (i, j) == forced and abs(num) == 3:
            num = rng.randint(-2, 2)
        factor = F(num, 3)
        rows[i][j] *= factor
        rows[j][i] *= factor
    return sym(rows)


def test_symmetric_reductions_of_negative_definite_stay_negative_definite():
    rng = random.Random("symmetrization-fact")
    for _ in range(80):
        order = rng.randint(2, 5)
        A = connected_negative_matrix(rng, order, singular=False)
        reduced = random_symmetric_reduction(rng, A, strict=False)
        assert negative_definite(reduced)


def test_strict_symmetric_reductions_of_connected_negative_are_definite():
    rng = random.Random("strict-reduction-fact")
    for trial in range(80):
        order = rng.randint(2, 5)
        A = connected_negative_matrix(rng, order, singular=trial % 2 == 0)
        reduced = random_symmetric_reduction(rng, A, strict=True)
        assert inertia(reduced.sparse) == Inertia(n_pos=0, n_zero=0, n_neg=order)


def test_singular_reductions_of_semidefinite_matrices_keep_entry_sizes():
    rng = random.Random("entry-size-fact")
    for _ in range(40):
        order = rng.randint(2, 5)
        B = connected_negative_matrix(rng, order, singular=True)
        rows = to_lists(B)
        flips = [i for i in range(order) if rng.random() < 0.5]
        for i in flips:
            rows[i][i] = -rows[i][i]
        A = sym(rows)
        cert = find_singular_reduction(A)
        assert verify_reduction(A, cert) == []
        undone = [
            [(-v if i in flips else v) for v in row]
            for i, row in enumerate(dense_rows(cert.a_prime))
        ]
        for i in range(order):
            for j in range(order):
                assert undone[i][j] == undone[j][i]
                if i != j:
                    assert abs(undone[i][j]) == A[i, j]
