"""Tests for singular reductions, negativity certificates, and the
weighted quadratic-form identity."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import exact_linalg, reduction
from gmsurf.decision import Branch, decide
from gmsurf.exact_linalg import (
    DisconnectedMatrixError,
    Inertia,
    SymMatrix,
    _mmatrix_solve,
    inertia,
)
from gmsurf.fileio import json_text, reduction_cert_from_json, reduction_cert_to_json
from gmsurf.generate import generate_manifold
from gmsurf.manifold import a_minus, decomposition_matrix
from gmsurf.reduction import (
    NegativeDefiniteError,
    NegativityCertificate,
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
    fraction_negativity_certificate,
    fraction_verify_reduction,
    dense_rows,
    fraction_mmatrix_solve,
    halving_shrink,
    is_connected_matrix,
    kernel_basis,
    mat_vec,
    principal_submatrix,
    reduced_component,
    strict_reduction_violations,
    strict_shrink_certificate,
    sym,
    to_lists,
)
from test_exact_linalg import VERDICT_CLASSES, closing_epsilon, path_rows, verdict_matrix
from test_surface import count_calls, slowly_closing_path

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
    # The all-ones vector has (B a)_i = 1 > 0: each row keeps half its coupling.
    cert = find_singular_reduction(sym([["-1", 2], [2, "-1"]]))
    assert cert.a_prime == ({0: F(-1), 1: F(1)}, {0: F(1), 1: F(-1)})
    assert cert.a == (F(1), F(1))
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
    # the couplings between them must shrink.
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


def test_reduction_skips_a_negative_definite_component_for_a_semidefinite_one():
    # The second block's A-minus [[-1, 2], [2, -4]] is singular with kernel
    # (2, 1): A keeps its rows there, row 2 (diagonal 1 > 0) with its
    # coupling negated, and the first block keeps only its diagonal.
    A = sym([["-2", 1, 0, 0], [1, "-2", 0, 0], [0, 0, 1, 2], [0, 0, 2, "-4"]])
    cert = find_singular_reduction(A)
    assert cert.a_prime == ({0: F(-2)}, {1: F(-2)}, {2: F(1), 3: F(-2)}, {2: F(2), 3: F(-4)})
    assert cert.a == (F(0), F(0), F(2), F(1))
    assert verify_reduction(A, cert) == []


def test_reduction_of_an_isolated_zero_diagonal_vertex_is_its_unit_vector():
    A = sym([["-2", 1, 0], [1, "-2", 0], [0, 0, 0]])
    cert = find_singular_reduction(A)
    assert cert.a_prime == ({0: F(-2)}, {1: F(-2)}, {})
    assert cert.a == (F(0), F(0), F(1))


def test_reduction_rejects_input_whose_every_component_is_negative_definite():
    # An isolated positive diagonal is negative in A-minus.
    with pytest.raises(NegativeDefiniteError):
        find_singular_reduction(sym([["-2", 1, 0, 0], [1, "-2", 0, 0], [0, 0, 3, 0], [0, 0, 0, "-1"]]))


def test_certificate_support_lists_nonzero_indices():
    # a connected path whose A-minus has a positive eigenvalue (-1 + sqrt 2)
    A = sym([[1, 1, 0], [1, "-1", 1], [0, 1, "-1"]])
    cert = find_singular_reduction(A)
    assert [i for i, v in enumerate(cert.a) if v != 0] == [0, 1, 2]
    assert verify_reduction(A, cert) == []


@settings(max_examples=150, deadline=None)
@given(admissible_matrices())
def test_reduction_of_connected_input_has_full_support(A):
    if not is_connected_matrix(A) or negative_definite(SymMatrix(a_minus(A))):
        return
    assert_full_support_reduction(A)


@settings(max_examples=150, deadline=None)
@given(admissible_matrices())
def test_reduction_exists_iff_not_negative_definite(A):
    negdef = negative_definite(SymMatrix(a_minus(A)))
    try:
        cert = find_singular_reduction(A)
    except NegativeDefiniteError:
        assert negdef
    else:
        assert not negdef
        assert verify_reduction(A, cert) == []


@pytest.mark.parametrize(
    "rows",
    [
        [["-1", 1], [1, "-1"]],
        # kernel (7, 5, 3), which no fixed-point round hits exactly: one exact kernel test
        [["-5/7", 1, 0], [1, "-13/5", 2], [0, 2, "-10/3"]],
        [["-2", 1, 0, 0], [1, "-2", 0, 0], [0, 0, 1, 2], [0, 0, 2, "-4"]],
        path_rows(24, closing_epsilon(24)),
    ],
    ids=["semidefinite-pair", "kernel-test", "disconnected", "path-24"],
)
def test_reduction_takes_no_inertia_and_at_most_one_exact_solve(monkeypatch, rows):
    # The vector search takes an exact M-matrix solve only for its one
    # kernel test, and no inertia.
    A = sym(rows)
    counts = count_calls(monkeypatch, ("inertia", "_congruence", "_mmatrix_solve"))
    cert = find_singular_reduction(A)
    assert counts["inertia"] == counts["_congruence"] == 0
    assert counts["_mmatrix_solve"] <= 1
    assert verify_reduction(A, cert) == []


@pytest.mark.parametrize(
    "G",
    [lambda: generate_manifold(700, seed=3, profile="posEig"), lambda: slowly_closing_path(1000)],
    ids=["gen-700", "path-1000"],
)
def test_reduction_at_seven_hundred_and_a_thousand_pieces(G):
    # The witness vector stays short at this size; no wall clock is
    # asserted here.
    A = decomposition_matrix(G())
    cert = find_singular_reduction(A)
    assert verify_reduction(A, cert) == []
    assert all(v > 0 for v in cert.a)
    assert max(v.numerator.bit_length() for v in cert.a) <= 128


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


REDUCTION_MUTATIONS = ("entry", "coupling", "vector", "zero vector", "empty row")


@settings(max_examples=200, deadline=None)
@given(
    admissible_matrices(),
    strategies.integers(1, 6),
    strategies.lists(strategies.sampled_from(REDUCTION_MUTATIONS), max_size=3),
    strategies.data(),
)
def test_verify_reduction_matches_the_fraction_oracle(A, divisor, kinds, data):
    """The integer row sums and crossed bounds give the `Fraction`
    verifier's violations, texts and order included, on reduction files as
    `matrix --out` writes them: rational entries in A' and, once a is divided
    by an integer, in a."""
    n = A.order
    try:
        cert = find_singular_reduction(A)
    except NegativeDefiniteError:
        cert = ReductionCertificate(a_prime=A.sparse, a=tuple([F(1)] * n))
    rows = [dict(row) for row in cert.a_prime]
    a = [v / divisor for v in cert.a]
    index = strategies.integers(0, n - 1)
    for kind in kinds:
        i = data.draw(index)
        if kind == "entry":
            # any entry, the diagonal included; a zero removes the key
            j, value = data.draw(index), data.draw(small_rationals)
            rows[i][j] = value
            if not value:
                del rows[i][j]
        elif kind == "coupling":
            # on A's bound or just past it, of either sign
            j = data.draw(index)
            if j != i:
                past = data.draw(strategies.sampled_from((0, F(1, 7))))
                rows[i][j] = data.draw(strategies.sampled_from((1, -1))) * (A[i, j] + past) or F(1, 7)
        elif kind == "vector":
            a[i] = data.draw(small_rationals)
        elif kind == "zero vector":
            a = [F(0)] * n
        else:
            rows[i] = {}
    doc = reduction_cert_to_json(ReductionCertificate(a_prime=tuple(rows), a=tuple(a)), matrix=A)
    parsed, matrix = reduction_cert_from_json(json.loads(json_text(doc)))
    assert verify_reduction(matrix, parsed) == fraction_verify_reduction(matrix, parsed)


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
    with pytest.raises(DisconnectedMatrixError):
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


def sparse_negativity_instance(rng: random.Random, kind: str) -> SymMatrix:
    """A connected matrix with non-negative couplings on a random tree plus
    extra edges: negative definite (diagonal slack), singular semidefinite
    (diagonal = -row sum) or indefinite (one diagonal entry of the
    semidefinite one raised: its positive kernel vector then has a positive
    form)."""
    order = rng.randint(1, 9)
    rows = [[F(0)] * order for _ in range(order)]
    edges = [(rng.randrange(j), j) for j in range(1, order)]
    if order > 1:
        edges += [rng.sample(range(order), 2) for _ in range(rng.randint(0, order))]
    for i, j in edges:
        rows[i][j] = rows[j][i] = rows[i][j] + F(rng.randint(1, 6), rng.randint(1, 5))
    for i in range(order):
        slack = F(rng.randint(1, 4), rng.randint(1, 7)) if kind == "definite" else F(0)
        rows[i][i] = -(sum(rows[i]) + slack)
    if kind == "indefinite":
        k = rng.randrange(order)
        rows[k][k] += F(rng.randint(1, 4), rng.randint(1, 7))
    return sym(rows)


@pytest.mark.parametrize("kind", ["definite", "semidefinite", "indefinite"])
def test_negativity_certificate_matches_its_fraction_reference(kind):
    # The pair core gives the certificate the Fraction elimination gives,
    # value for value, and fails exactly where it does.
    rng = random.Random(f"negativity-reference:{kind}")
    instances = [sparse_negativity_instance(rng, kind) for _ in range(80)]
    if kind == "semidefinite":
        instances.append(sym([[0]]))
    for A in instances:
        expected = fraction_negativity_certificate(A)
        assert (expected is None) == (kind == "indefinite")
        if expected is None:
            with pytest.raises(NotNegativeError):
                negativity_certificate(A)
            continue
        cert = negativity_certificate(A)
        assert (cert.a, cert.image) == expected
        assert all(type(v) is F for v in cert.a + cert.image)
    if kind == "semidefinite":
        assert negativity_certificate(sym([[0]])) == NegativityCertificate(a=(F(1),), image=(F(0),))


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


# --- strict reductions from one positive vector -----------------------------------


def test_strict_shrink_of_an_indefinite_pair():
    # The all-ones vector already has (B a)_i = 1 > 0, and t = 1/2 of each
    # coupling 2 balances the diagonal -1.
    assert strict_shrink(sym([["-1", 2], [2, "-1"]])) == (
        [{0: (-1, 1), 1: (1, 1)}, {0: (1, 1), 1: (-1, 1)}],
        [1, 1],
    )


def test_strict_shrink_of_a_zero_diagonal_pair_drops_the_couplings():
    assert strict_shrink(sym([[0, 1], [1, 0]])) == ([{}, {}], [1, 1])


def test_strict_shrink_keeps_a_positive_diagonal_with_a_negative_t():
    # A[0][0] = 1: t_0 = -A[0][0] a_0 / (C a)_0 = -1/2, so row 0 of A' is (1, -1).
    assert strict_shrink(sym([[1, 2], [2, "-1"]])) == (
        [{0: (1, 1), 1: (-1, 1)}, {0: (1, 1), 1: (-1, 1)}],
        [1, 1],
    )


def test_strict_shrink_gives_the_largest_coupling_the_remainder():
    # Row 0: t = 1/3 rounds to 5592405 / 2^24 on the coupling 1, and the
    # coupling 2 (the largest A[0][k] a_k) takes what makes the row sum 0.
    rows, a = strict_shrink(sym([["-1", 1, 2], [1, "-1/2", 0], [2, 0, "-1"]]))
    assert a == [1, 1, 1]
    assert rows == [
        {0: (-1, 1), 1: (5592405, 2**24), 2: (11184811, 2**24)},
        {0: (1, 2), 1: (-1, 2)},
        {0: (1, 1), 2: (-1, 1)},
    ]


def test_strict_shrink_refines_t_until_the_row_is_strict():
    # t_0 = 1 - 1/(3 2^30) rounds to 1 at 2^-24, which is not strict, and to
    # 1 - 2^-32 at 2^-32.
    rows, a = strict_shrink(sym([[F(1, 2**30) - 3, 1, 2], [1, "-1/2", 0], [2, 0, "-1"]]))
    assert a == [1, 1, 1]
    assert rows[0] == {0: (1 - 3 * 2**30, 2**30), 1: (2**32 - 1, 2**32), 2: (2**33 - 3, 2**32)}


@pytest.mark.parametrize(
    "rows, branch",
    [
        ([["-2", 1], [1, "-2"]], "NegativeDefinite"),
        ([["-1", 1], [1, "-1"]], "SemidefiniteSameSign"),  # the all-ones vector spans the kernel
        ([[1, 1], [1, "-1"]], "SemidefiniteMixedSign"),
        # kernel (7, 5, 3), which no fixed-point round hits exactly: one exact kernel test
        ([["-5/7", 1, 0], [1, "-13/5", 2], [0, 2, "-10/3"]], "SemidefiniteSameSign"),
        ([["0"]], "SemidefiniteSameSign"),
        ([["-3"]], "NegativeDefinite"),
    ],
)
def test_strict_shrink_names_the_branch_off_it(monkeypatch, rows, branch):
    solves = []
    monkeypatch.setattr(exact_linalg, "_mmatrix_solve", lambda *args: solves.append(args) or _mmatrix_solve(*args))
    with pytest.raises(NoPositiveEigenvalueError, match=f"^decision branch is {branch}$"):
        strict_shrink(sym(rows))
    assert len(solves) == (len(rows) == 3)


def test_strict_shrink_rejects_a_disconnected_matrix():
    with pytest.raises(DisconnectedMatrixError):
        strict_shrink(sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


def test_strict_shrink_takes_no_exact_elimination(monkeypatch):
    # The old shrink took one congruence for witnesses and five more to pin
    # eps = 1/8 on this matrix, and the Perron walk four M-matrix solves.
    A = sym([["-48/25", 1, 1], [1, "-13/25", 0], [1, 0, "-87/100"]])

    def fail(*args):
        pytest.fail("an exact elimination ran")

    monkeypatch.setattr(exact_linalg, "_congruence", fail)
    monkeypatch.setattr(exact_linalg, "_mmatrix_solve", fail)
    monkeypatch.setattr(reduction, "_mmatrix_solve", fail)
    assert strict_reduction_violations(A, strict_shrink_certificate(A)) == []


def fixed_point_m_matrix(rng: random.Random, n: int, unit: int) -> list[dict[int, int]]:
    """A connected symmetric M-matrix in fixed point (entries times ``unit``),
    diagonally dominant by a margin down to unit / 2^20."""
    rows = [{} for _ in range(n)]
    for i in range(1, n):
        for j in [rng.randrange(i)] + rng.sample(range(i), min(i, rng.randint(0, 2))):
            rows[i][j] = rows[j][i] = -rng.randint(1, 4 * unit)
    for i, row in enumerate(rows):
        row[i] = -sum(row.values()) + unit // 2 ** rng.randint(0, 20)
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_fixed_point_solve_is_the_exact_solve_rounded(seed):
    # Floored products keep every entry at its fixed-point scale; on an
    # M-matrix nothing cancels but the pivots, so x is the exact solution
    # to within a relative 2^-30 at 64 bits.
    rng = random.Random(f"fixed-point:{seed}")
    n, unit = rng.randint(1, 12), 2**64
    rows = fixed_point_m_matrix(rng, n, unit)
    rhs = [rng.randint(1, unit) for _ in range(n)]
    exact = fraction_mmatrix_solve([{j: F(x) for j, x in row.items()} for row in rows], [F(b * unit) for b in rhs])
    x = exact_linalg._fixed_point_solve([dict(row) for row in rows], [b * unit for b in rhs])
    assert all(v > 0 for v in exact)
    assert all(abs(v - e) <= e / 2**30 + 1 for v, e in zip(x, exact))


def test_fixed_point_solve_stops_at_a_non_positive_pivot():
    # [[1, -2], [-2, 1]] is a Z-matrix with a negative determinant: the
    # second pivot is 1 - 4 < 0.
    assert exact_linalg._fixed_point_solve([{0: 1, 1: -2}, {0: -2, 1: 1}], [1, 1]) is None
    assert exact_linalg._fixed_point_solve([{0: 0}], [1]) is None


def assert_strict_shrink_is_right(A: SymMatrix) -> None:
    """On a connected A: the branch `decide` names off the positive-eigenvalue
    branch, and on it a strict reduction (all pairs) annihilating a primitive
    positive vector."""
    branch = decide(A).branch
    if branch is not Branch.POSITIVE_EIGENVALUE:
        with pytest.raises(NoPositiveEigenvalueError, match=f"^decision branch is {branch.value}$"):
            strict_shrink(A)
        return
    cert = strict_shrink_certificate(A)
    assert strict_reduction_violations(A, cert) == []
    assert all(v > 0 for v in cert.a)
    assert math.gcd(*(int(v) for v in cert.a)) == 1


@settings(max_examples=60, deadline=None)
@given(admissible_matrices(max_order=4))
def test_strict_shrink_is_strict_or_names_the_branch(A):
    if is_connected_matrix(A):
        assert_strict_shrink_is_right(A)


def assert_reduction_matches_dense_oracles(X: SymMatrix) -> None:
    """The reduction of X passes the all-pairs check, and its vector's
    support is the component the dense inertia picks; it is refused exactly
    when every block of A-minus is negative definite."""
    try:
        component = reduced_component(X)
    except NegativeDefiniteError:
        with pytest.raises(NegativeDefiniteError):
            find_singular_reduction(X)
        return
    cert = find_singular_reduction(X)
    assert all_pairs_reduction_violations(X, cert) == []
    assert [i for i, v in enumerate(cert.a) if v] == component


def assert_matches_dense_oracles(A: SymMatrix) -> None:
    """The strict reduction passes the all-pairs strictness check plus
    A' a = 0 (or names decide's branch), and the singular reduction matches
    the dense oracles, on A and on its halving shrink."""
    if is_connected_matrix(A):
        assert_strict_shrink_is_right(A)
    else:
        with pytest.raises(DisconnectedMatrixError):
            strict_shrink(A)
    try:
        shrunk = halving_shrink(A)
    except NoPositiveEigenvalueError:
        pass
    else:
        assert_reduction_matches_dense_oracles(shrunk)
    assert_reduction_matches_dense_oracles(A)


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
