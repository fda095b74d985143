"""Tests for singular reductions, negativity certificates, and the
weighted quadratic-form identity."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import exact_linalg, fileio, reduction
from gmsurf.decision import Branch, decide
from gmsurf.exact_linalg import (
    DisconnectedMatrixError,
    Inertia,
    SymMatrix,
    inertia,
)
from gmsurf.fileio import json_text, reduction_cert_to_json, rows_to_json
from gmsurf.generate import generate_manifold
from gmsurf.manifold import decomposition_matrix
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
    a_minus,
    all_pairs_reduction_violations,
    bareiss_inertia,
    bilinear_identity,
    fraction_negativity_certificate,
    fraction_verify_reduction,
    dense_rows,
    fraction_mmatrix_solve,
    halving_shrink,
    is_connected_matrix,
    kernel_basis,
    mat_vec,
    primitive,
    principal_submatrix,
    replace,
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


def test_reduction_rejects_a_disconnected_matrix():
    # Every component here has a singular reduction; the input is refused
    # as decide refuses it, before any search.
    with pytest.raises(DisconnectedMatrixError, match="^matrix graph is disconnected$"):
        find_singular_reduction(sym([["-2", 1, 0, 0], [1, "-2", 0, 0], [0, 0, "-1", 2], [0, 0, 2, "-1"]]))


def test_reduction_of_a_semidefinite_matrix_negates_the_couplings_of_a_positive_row():
    # A-minus [[-1, 2], [2, -4]] is singular with kernel (2, 1): A keeps its
    # rows, row 0 (diagonal 1 > 0) with its coupling negated.
    A = sym([[1, 2], [2, "-4"]])
    cert = find_singular_reduction(A)
    assert cert.a_prime == ({0: F(1), 1: F(-2)}, {0: F(2), 1: F(-4)})
    assert cert.a == (F(2), F(1))
    assert verify_reduction(A, cert) == []


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
    if not is_connected_matrix(A):
        with pytest.raises(DisconnectedMatrixError):
            find_singular_reduction(A)
        return
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
        # kernel (7, 5, 3), which no fixed-point round hits exactly: the one exact step
        [["-5/7", 1, 0], [1, "-13/5", 2], [0, 2, "-10/3"]],
        [[1, 2], [2, "-4"]],
        path_rows(24, closing_epsilon(24)),
    ],
    ids=["semidefinite-pair", "kernel-test", "flipped-row", "path-24"],
)
def test_reduction_takes_no_inertia_and_at_most_one_congruence(monkeypatch, rows):
    # The vector search takes a congruence only for its one exact step,
    # and no inertia.
    A = sym(rows)
    counts = count_calls(monkeypatch, ("inertia", "_congruence"))
    cert = find_singular_reduction(A)
    assert counts["inertia"] == 0
    assert counts["_congruence"] == (len(rows) == 3)
    assert verify_reduction(A, cert) == []


def scaled_semidefinite(n: int, seed: int, raised: F = F(0)) -> SymMatrix:
    """D S D: S the matrix of the gen semidef manifold (n pieces, seed) with
    its first piece's Euler number raised by `raised`, D the first n draws
    of random.Random(1).randint(1, 16).  At raised = 0, S is singular with
    the all-ones vector spanning its kernel, so D^-1 times it spans D S D's,
    a vector no fixed-point round of the Perron search hits."""
    G = generate_manifold(n, seed=seed, profile="semidef")
    first = G.pieces[0]
    S = decomposition_matrix(replace(G, pieces=(replace(first, euler=first.euler + raised),) + G.pieces[1:]))
    rng = random.Random(1)
    d = [rng.randint(1, 16) for _ in range(n)]
    return SymMatrix(tuple({j: d[i] * x * d[j] for j, x in row.items()} for i, row in enumerate(S.sparse)))


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("seed", range(3, 9))
def test_the_exact_step_settles_a_zero_root_in_both_modes(monkeypatch, n, seed):
    # One congruence per search: the sign-only search returns its sign, the
    # full search the coprime kernel vector, which the reduction carries.
    A = scaled_semidefinite(n, seed)
    (kernel,) = kernel_basis(SymMatrix(a_minus(A)))
    counts = count_calls(monkeypatch, ("_congruence",))
    scaled = exact_linalg._scaled(A.sparse)
    assert exact_linalg._perron_search(scaled, sign_only=True)[0] == 0
    assert counts["_congruence"] == 1
    sign, a, y = exact_linalg._perron_search(scaled)
    assert counts["_congruence"] == 2
    assert (sign, tuple(map(F, a)), y) == (0, primitive(kernel), [0] * n)
    cert = find_singular_reduction(A)
    assert counts["_congruence"] == 3
    assert cert.a == primitive(kernel)
    assert verify_reduction(A, cert) == []


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("seed", range(3, 9))
@pytest.mark.parametrize(
    "perturbed",
    [
        lambda n, seed: SymMatrix(
            tuple(
                {**row, i: row[i] - F(1, 10**6)}
                for i, row in enumerate(scaled_semidefinite(n, seed).sparse)
            )
        ),
        lambda n, seed: scaled_semidefinite(n, seed, raised=F(1, 10**6)),
    ],
    ids=["minus-eps-I", "euler-raised"],
)
def test_the_exact_step_agrees_with_the_dense_inertia_near_a_zero_root(n, seed, perturbed):
    A = perturbed(n, seed)
    ine = bareiss_inertia(SymMatrix(a_minus(A)))
    expected = 1 if ine.n_pos else 0 if ine.n_zero else -1
    scaled = exact_linalg._scaled(A.sparse)
    assert exact_linalg._perron_search(scaled, sign_only=True)[0] == expected
    assert exact_linalg._perron_search(scaled)[0] == expected


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


def test_verify_reduction_flags_a_negative_coupling_of_the_source():
    # |A'[i][j]| <= A[i][j] fails wherever A[i][j] < 0, whether A' stores
    # an entry there or not: a missing key is a zero, and |0| <= -1 is false.
    A = SymMatrix(({1: F(-1)}, {0: F(-1)}))
    empty = ReductionCertificate(a_prime=({}, {}), a=(F(1), F(1)))
    expected = ["not a reduction at (0, 1): |0| > -1", "not a reduction at (1, 0): |0| > -1"]
    assert verify_reduction(A, empty) == expected == all_pairs_reduction_violations(A, empty)
    assert fraction_verify_reduction(A, empty) == expected
    stored = ReductionCertificate(a_prime=({1: F(1, 2)}, {}), a=(F(1), F(1)))
    violations = verify_reduction(A, stored)
    assert violations == all_pairs_reduction_violations(A, stored) == fraction_verify_reduction(A, stored)
    assert violations[:2] == ["not a reduction at (0, 1): |1/2| > -1", "not a reduction at (1, 0): |0| > -1"]


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
    except (NegativeDefiniteError, DisconnectedMatrixError):
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
    doc = reduction_cert_to_json(ReductionCertificate(a_prime=tuple(rows), a=tuple(a)))
    parsed = fileio._reduction_from_json(json.loads(json_text(doc)))
    matrix = fileio.matrix_from_json(json.loads(json_text(rows_to_json(A.sparse))))
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
    # The certificate fails exactly where the Fraction elimination does.  On
    # a singular matrix both give the primitive kernel vector; on a definite
    # one a is the Perron search's vector, whose image A a < 0 is checked
    # exactly, where the elimination solved A a = -1s.
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
        if kind == "definite":
            assert cert.a == tuple(map(F, exact_linalg._perron_search(exact_linalg._scaled(A.sparse))[1]))
            assert cert.image == mat_vec(to_lists(A), cert.a)
            assert all(v > 0 for v in cert.a) and all(v < 0 for v in cert.image)
        else:
            assert (cert.a, cert.image) == expected
        assert all(type(v) is F for v in cert.a + cert.image)
    if kind == "semidefinite":
        assert negativity_certificate(sym([[0]])) == NegativityCertificate(a=(F(1),), image=(F(0),))


def test_negativity_certificate_takes_the_perron_search_vector(monkeypatch):
    # On a negative definite matrix the certificate is the search's witness,
    # with no exact elimination.  The all-ones vector has image (-1, -2); an
    # M-matrix solve gave A a = (-1, -1) instead, at a = (4/5, 3/5).
    A = sym([["-2", 1], [1, "-3"]])
    monkeypatch.setattr(exact_linalg, "_congruence", lambda *args: pytest.fail("an exact elimination ran"))
    assert exact_linalg._perron_search(exact_linalg._scaled(A.sparse)) == (-1, [1, 1], [-1, -2])
    assert negativity_certificate(A) == NegativityCertificate(a=(F(1), F(1)), image=(F(-1), F(-2)))


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
    # Row 0: the slack (B a)_0 = 2 is wide, so m = 0 and t = 1/3 rounds to 0
    # on the coupling 1; the coupling 2 (the largest A[0][k] a_k) takes what
    # makes the row sum 0.  Rows 1 and 2 have one coupling each, at m = 1.
    rows, a = strict_shrink(sym([["-1", 1, 2], [1, "-1/2", 0], [2, 0, "-1"]]))
    assert a == [1, 1, 1]
    assert rows == [
        {0: (-1, 1), 2: (1, 1)},
        {0: (1, 2), 1: (-1, 2)},
        {0: (1, 1), 2: (-1, 1)},
    ]


def test_strict_shrink_reads_the_row_precision_off_its_slack():
    # Row 0 times L = 2^30: T = 3 2^30, ck = 2^31, R = 2^30 and y = 1, so
    # m = bit length of T ck // (2 y ck) = 3 2^29, that is 31.  At m = 30,
    # t_0 = 1 - 1/(3 2^30) would round to 1, which is not strict; at 31 it
    # rounds to 1 - 2^-31.
    rows, a = strict_shrink(sym([[F(1, 2**30) - 3, 1, 2], [1, "-1/2", 0], [2, 0, "-1"]]))
    assert a == [1, 1, 1]
    assert rows[0] == {0: (1 - 3 * 2**30, 2**30), 1: (2**31 - 1, 2**31), 2: (2**32 - 1, 2**31)}


@settings(max_examples=200, deadline=None)
@given(strategies.data())
def test_strict_rows_take_the_closed_form_precision_at_any_slack(data):
    # _strict_rows needs only a > 0 with (B a)_i > 0, not the Perron vector.
    # Each diagonal is set from a so that (B a)_i = 1/N_i, N_i up to 2^40;
    # with integer couplings and a_i = 1 the scaled slack y_i is 1 unit.
    # Every row must be strict, A'a = 0 exactly, and each row must be the
    # one made at m = bit length of floor((Ca)_i max(ck, R) / (2 (Ba)_i ck)),
    # rebuilt here in `Fraction`.
    n = data.draw(strategies.integers(2, 7), label="order")
    couplings = [{} for _ in range(n)]
    for i in range(1, n):
        for j in data.draw(strategies.sets(strategies.integers(0, i - 1), min_size=1, max_size=3)):
            couplings[i][j] = couplings[j][i] = F(data.draw(strategies.integers(1, 2**10)))
    draw_a = strategies.one_of(strategies.just(1), strategies.integers(1, 2**20))
    a = data.draw(strategies.lists(draw_a, min_size=n, max_size=n), label="a")
    rows = []
    for i, c in enumerate(couplings):
        slack = F(1, data.draw(strategies.integers(1, 2**40)))
        diagonal = data.draw(strategies.sampled_from((-1, 1))) * (sum(x * a[j] for j, x in c.items()) - slack) / a[i]
        rows.append({**c, i: diagonal} if diagonal else dict(c))
    scaled = exact_linalg._scaled(rows)
    y = [sum(x * a[j] for j, x in c.items()) - abs(own) * a[i] for i, (own, c) in enumerate(zip(*scaled[1:]))]
    assert all(v > 0 for v in y)
    for i, row in enumerate(reduction._strict_rows(rows, scaled, a, y)):
        got = {j: F(*pair) for j, pair in row.items()}
        c, d = couplings[i], rows[i].get(i, F(0))
        k = min(c, key=lambda j: (-c[j] * a[j], j))
        total = sum(x * a[j] for j, x in c.items())
        top, rest = c[k] * a[k], total - c[k] * a[k]
        m = math.floor(total * max(top, rest) / (2 * (total - abs(d) * a[i]) * top)).bit_length()
        t = F(math.floor(2**m * -d * a[i] / total + F(1, 2)), 2**m)
        expected = {j: t * x for j, x in c.items() if j != k}
        expected[k] = (-d * a[i] - sum(v * a[j] for j, v in expected.items())) / a[k]
        expected[i] = d
        assert got == {j: v for j, v in expected.items() if v}
        assert all(abs(v) < c[j] for j, v in got.items() if j != i)
        assert sum(v * a[j] for j, v in got.items()) == 0


@pytest.mark.parametrize(
    "rows, branch",
    [
        ([["-2", 1], [1, "-2"]], "NegativeDefinite"),
        ([["-1", 1], [1, "-1"]], "SemidefiniteSameSign"),  # the all-ones vector spans the kernel
        ([[1, 1], [1, "-1"]], "SemidefiniteMixedSign"),
        # kernel (7, 5, 3), which no fixed-point round hits exactly: the one exact step
        ([["-5/7", 1, 0], [1, "-13/5", 2], [0, 2, "-10/3"]], "SemidefiniteSameSign"),
        ([["0"]], "SemidefiniteSameSign"),
        ([["-3"]], "NegativeDefinite"),
    ],
)
def test_strict_shrink_names_the_branch_off_it(monkeypatch, rows, branch):
    counts = count_calls(monkeypatch, ("_congruence",))
    with pytest.raises(NoPositiveEigenvalueError, match=f"^decision branch is {branch}$"):
        strict_shrink(sym(rows))
    assert counts["_congruence"] == (len(rows) == 3)


def test_strict_shrink_rejects_a_disconnected_matrix():
    with pytest.raises(DisconnectedMatrixError):
        strict_shrink(sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([], ValueError, "empty matrix"),
        ([["-1", "-1"], ["-1", "-1"]], ValueError, r"negative off-diagonal entry at \(0, 1\)"),
        # a negative coupling is named before the disconnection
        ([["-1", 0, 0], [0, "-1", "-2"], [0, "-2", "-1"]], ValueError, r"negative off-diagonal entry at \(1, 2\)"),
        # the disconnection is named before the positive diagonal entry
        ([[1, 0], [0, "-1"]], DisconnectedMatrixError, "matrix graph is disconnected"),
        ([["-1", 0], [0, "-1"]], DisconnectedMatrixError, "matrix graph is disconnected"),
    ],
)
def test_builders_of_a_connected_matrix_check_it_as_decide_does(monkeypatch, rows, error, message):
    # The builders and decide share one input check.
    counts = count_calls(monkeypatch, ("_check_input", "_perron_search"))
    A = sym(rows)
    for build in (find_singular_reduction, strict_shrink, negativity_certificate, decide):
        with pytest.raises(error, match=f"^{message}$") as caught:
            build(A)
        assert type(caught.value) is error
    assert counts == {"_check_input": 4, "_perron_search": 0}


def test_find_singular_reduction_rejects_the_empty_matrix():
    with pytest.raises(ValueError, match="^empty matrix$"):
        find_singular_reduction(SymMatrix(()))


def test_strict_shrink_takes_no_exact_elimination(monkeypatch):
    # The old shrink took one congruence for witnesses and five more to pin
    # eps = 1/8 on this matrix, and the Perron walk four M-matrix solves.
    A = sym([["-48/25", 1, 1], [1, "-13/25", 0], [1, 0, "-87/100"]])
    monkeypatch.setattr(exact_linalg, "_congruence", lambda *args: pytest.fail("an exact elimination ran"))
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
    """A disconnected X is refused; the reduction of a connected X is
    refused exactly when the dense inertia calls A-minus negative definite,
    and otherwise passes the all-pairs check with a positive vector."""
    if not is_connected_matrix(X):
        with pytest.raises(DisconnectedMatrixError):
            find_singular_reduction(X)
        return
    if bareiss_inertia(SymMatrix(a_minus(X))).n_neg == X.order:
        with pytest.raises(NegativeDefiniteError):
            find_singular_reduction(X)
        return
    cert = find_singular_reduction(X)
    assert all_pairs_reduction_violations(X, cert) == []
    assert all(v > 0 for v in cert.a)


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
