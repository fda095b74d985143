"""Tests for building and verifying boundary-curve certificates."""

import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import surface
from gmsurf.cli import main
from gmsurf.exact_linalg import SymMatrix, to_rational
from gmsurf.fileio import json_text, surface_cert_from_json, surface_cert_to_json
from gmsurf.generate import generate_manifold
from gmsurf.manifold import (
    DecompositionGraph,
    GluingTorus,
    SeifertPiece,
    decomposition_matrix,
    two_piece_graph,
)
from gmsurf.reduction import NoPositiveEigenvalueError, ReductionCertificate, verify_reduction
from gmsurf.surface import (
    CurveSystem,
    SurfaceCertificate,
    build_surface_certificate,
    verify_surface_certificate,
)

from oracles import (
    dense_rows,
    fraction_surface_sides,
    fraction_verify_surface_certificate,
    mat_vec,
    per_piece_surface_violations,
    replace,
)
from test_acceptance import poseig_manifolds
from test_fileio import save_manifold

F = Fraction


def scaled_copy(cert: SurfaceCertificate, factor: int) -> SurfaceCertificate:
    return SurfaceCertificate(
        degrees=tuple(factor * d for d in cert.degrees),
        scale=factor * cert.scale,
        a_prime=cert.a_prime,
        systems=tuple(
            CurveSystem(
                torus=s.torus,
                side=s.side,
                a_plus=factor * s.a_plus,
                a_minus=factor * s.a_minus,
                b_plus=factor * s.b_plus,
                b_minus=factor * s.b_minus,
            )
            for s in cert.systems
        ),
    )


# --- the worked two-piece example --------------------------------------------


def test_build_on_zero_euler_pair():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    assert cert.degrees == (2, 2)
    assert cert.scale == 2
    side_1, side_2 = (s for s in cert.systems if s.torus == 0)
    for s in (side_1, side_2):
        assert s.a_plus == 1
        assert s.a_minus == 1
        assert s.b_plus == 0
        assert s.b_minus == -2
    assert {side_1.side, side_2.side} == {1, 2}
    assert verify_surface_certificate(G, cert) == []


def test_build_balances_fiber_sum_against_meridian_euler_number():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    own = [s for s in cert.systems if s.side == 1]
    assert sum(s.b_plus + s.b_minus for s in own) == -2  # degree 2 times -1


def test_build_rejects_negative_definite_input():
    with pytest.raises(NoPositiveEigenvalueError, match="^decision branch is NegativeDefinite$"):
        build_surface_certificate(two_piece_graph(-2, -2))


def test_build_rejects_semidefinite_input():
    with pytest.raises(NoPositiveEigenvalueError, match="^decision branch is SemidefiniteSameSign$"):
        build_surface_certificate(two_piece_graph(-1, -1))


def test_build_handles_parallel_tori():
    G = two_piece_graph(0, 0, tori=(
        GluingTorus(from_piece=1, to_piece=2, p=1),
        GluingTorus(from_piece=1, to_piece=2, p=2),
    ))
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, cert) == []
    assert len(cert.systems) == 4


def test_build_handles_skew_gluing_data():
    G = two_piece_graph(0, 0, tori=(
        GluingTorus(from_piece=1, to_piece=2, p=3, q=2, q_prime=2, p_prime=1),
    ))
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, cert) == []


# --- certificate scaling ------------------------------------------------------


def test_doubled_certificate_still_verifies():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, scaled_copy(cert, 2)) == []


def test_tripled_certificate_still_verifies():
    G = two_piece_graph("1/2", "-1/2", tori=(
        GluingTorus(from_piece=1, to_piece=2, p=1),
    ))
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, scaled_copy(cert, 3)) == []


# --- verifier rejections --------------------------------------------------------


def tampered_system(cert: SurfaceCertificate, index: int, **changes) -> SurfaceCertificate:
    systems = list(cert.systems)
    s = systems[index]
    fields = {
        "torus": s.torus,
        "side": s.side,
        "a_plus": s.a_plus,
        "a_minus": s.a_minus,
        "b_plus": s.b_plus,
        "b_minus": s.b_minus,
    }
    fields.update(changes)
    systems[index] = CurveSystem(**fields)
    return SurfaceCertificate(
        degrees=cert.degrees,
        scale=cert.scale,
        a_prime=cert.a_prime,
        systems=tuple(systems),
    )


def test_verifier_reads_the_matrix_a_linear_number_of_times(monkeypatch):
    """The strictness check reads each row's couplings from the nonzeros,
    not A[i, j] for all n^2 pairs (40,866 reads at 200 pieces before)."""
    G = generate_manifold(200, seed=3, profile="posEig")
    cert = build_surface_certificate(G)
    reads = 0
    getitem = SymMatrix.__getitem__

    def counted(self, key):
        nonlocal reads
        reads += 1
        return getitem(self, key)

    monkeypatch.setattr(SymMatrix, "__getitem__", counted)
    assert verify_surface_certificate(G, cert) == []
    assert 0 < reads <= 4 * len(G.pieces)


def test_verifier_flags_flipped_fiber_coordinate():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    index = next(k for k, s in enumerate(cert.systems) if s.b_minus != 0)
    bad = tampered_system(cert, index, b_minus=-cert.systems[index].b_minus)
    violations = verify_surface_certificate(G, bad)
    assert violations
    assert any("balance" in v or "gluing" in v for v in violations)


def test_verifier_flags_swapped_orientation_classes_on_one_side():
    G = two_piece_graph("1/2", "-1/2", tori=(
        GluingTorus(from_piece=1, to_piece=2, p=1),
    ))
    cert = build_surface_certificate(G)
    s = cert.systems[0]
    bad = tampered_system(
        cert, 0,
        a_plus=s.a_minus, a_minus=s.a_plus,
        b_plus=s.b_minus, b_minus=s.b_plus,
    )
    violations = verify_surface_certificate(G, bad)
    assert any("gluing" in v for v in violations)


def test_verifier_flags_non_strict_reduction():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    A = decomposition_matrix(G)
    rows = [dict(row) for row in cert.a_prime]
    rows[0][1] = A[0, 1]
    rows[1][0] = -A[0, 1]
    loose = SurfaceCertificate(
        degrees=cert.degrees,
        scale=cert.scale,
        a_prime=tuple(rows),
        systems=cert.systems,
    )
    violations = verify_surface_certificate(G, loose)
    assert violations


def test_verifier_flags_missing_side():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    truncated = SurfaceCertificate(
        degrees=cert.degrees,
        scale=cert.scale,
        a_prime=cert.a_prime,
        systems=cert.systems[:1],
    )
    assert any("missing system" in v for v in verify_surface_certificate(G, truncated))


def test_verifier_flags_wrong_degree_vector():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    wrong = SurfaceCertificate(
        degrees=(cert.degrees[0], cert.degrees[1] + 2),
        scale=cert.scale,
        a_prime=cert.a_prime,
        systems=cert.systems,
    )
    violations = verify_surface_certificate(G, wrong)
    assert violations


def with_a_prime_entry(cert: SurfaceCertificate, i: int, j: int, value) -> SurfaceCertificate:
    """``cert`` with A'[i][j] = value; a zero value deletes the key, as A' keeps only nonzeros."""
    rows = [dict(row) for row in cert.a_prime]
    rows[i][j] = value
    if not value:
        del rows[i][j]
    return replace(cert, a_prime=tuple(rows))


# Three pieces in a row: A[0][2] = 0, and A-minus = A has the eigenvalue sqrt 2.
THREE_PIECE_PATH = DecompositionGraph(
    pieces=tuple(SeifertPiece(id=k, euler=0, genus=1) for k in (1, 2, 3)),
    tori=(GluingTorus(from_piece=1, to_piece=2, p=1), GluingTorus(from_piece=2, to_piece=3, p=2)),
)


@pytest.mark.parametrize(
    "i, j, value, message",
    [
        (0, 1, F(1), "reduction not strict at (0, 1)"),  # A'[0][1] = A[0][1]
        (2, 1, F(-1, 2), "reduction not strict at (2, 1)"),  # A'[2][1] = -A[2][1]
        (0, 2, F(1, 7), "not a reduction at (0, 2): |1/7| > 0"),  # nonzero where A is 0
        (1, 1, F(-1, 3), "diagonal changed at 1: -1/3 != 0"),
    ],
)
def test_verifier_checks_a_prime_against_the_decomposition_matrix(i, j, value, message):
    G = THREE_PIECE_PATH
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, cert) == []
    bad = with_a_prime_entry(cert, i, j, value)
    violations = verify_surface_certificate(G, bad)
    assert message in violations
    assert violations == [v for v in per_piece_surface_violations(G, bad) if v != SECOND_PRODUCT]


# --- the one-pass verifier against the per-piece oracle ---------------------------

# The oracle multiplies A' by the degree vector a second time; this line can
# only appear next to verify_reduction's "(A' a)[i]" line, so the one-pass
# verifier leaves it out.
SECOND_PRODUCT = "reduction does not annihilate the degree vector"
MUTATIONS = ("degree", "a_prime", "coupling", "coordinate", "torus", "side", "drop", "duplicate")


def mutated(G: DecompositionGraph, cert: SurfaceCertificate, kind: str, data) -> SurfaceCertificate:
    n, systems = len(cert.degrees), list(cert.systems)
    index = strategies.integers(0, n - 1)
    delta = data.draw(strategies.sampled_from((-2, -1, 1, 2)))
    k = data.draw(strategies.integers(0, len(systems) - 1))
    if kind == "degree":
        i = data.draw(index)
        return replace(cert, degrees=tuple(d + delta * (j == i) for j, d in enumerate(cert.degrees)))
    if kind == "a_prime":
        i, j = data.draw(index), data.draw(index)
        return with_a_prime_entry(cert, i, j, cert.a_prime[i].get(j, 0) + F(delta, data.draw(strategies.integers(1, 3))))
    if kind == "coupling":
        # an off-diagonal entry of A' on the boundary: +-A[i][j], or +-1 where A is 0
        i = data.draw(index)
        j = data.draw(index.filter(lambda j: j != i))
        return with_a_prime_entry(cert, i, j, delta // abs(delta) * (decomposition_matrix(G)[i, j] or 1))
    if kind == "coordinate":
        name = data.draw(strategies.sampled_from(("a_plus", "a_minus", "b_plus", "b_minus")))
        systems[k] = replace(systems[k], **{name: getattr(systems[k], name) + delta})
    elif kind == "torus":
        systems[k] = replace(systems[k], torus=data.draw(strategies.integers(-1, len(G.tori))))
    elif kind == "side":
        systems[k] = replace(systems[k], side=data.draw(strategies.sampled_from([p.id for p in G.pieces])))
    elif kind == "drop":
        del systems[k]
    else:
        systems.insert(data.draw(strategies.integers(0, len(systems))), systems[k])
    return replace(cert, systems=tuple(systems))


@settings(max_examples=150, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=5),
    strategies.integers(min_value=0, max_value=2_000),
    strategies.sampled_from(MUTATIONS),
    strategies.data(),
)
def test_verifier_matches_per_piece_oracle_on_mutations(pieces, seed, kind, data):
    G = generate_manifold(pieces=pieces, seed=seed, profile="posEig")
    cert = mutated(G, build_surface_certificate(G), kind, data)
    expected = [v for v in per_piece_surface_violations(G, cert) if v != SECOND_PRODUCT]
    assert verify_surface_certificate(G, cert) == expected


@settings(max_examples=150, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=5),
    strategies.integers(min_value=0, max_value=2_000),
    strategies.sampled_from(MUTATIONS),
    strategies.data(),
)
def test_verifier_matches_the_fraction_oracle_on_mutations(pieces, seed, kind, data):
    # The integer sums and crossed compares give the `Fraction` verifier's
    # violations, texts and order included, on the certificate as its file
    # reads back.
    G = generate_manifold(pieces=pieces, seed=seed, profile="posEig")
    cert = mutated(G, build_surface_certificate(G), kind, data)
    cert = surface_cert_from_json(json.loads(json_text(surface_cert_to_json(cert))))
    assert verify_surface_certificate(G, cert) == fraction_verify_surface_certificate(G, cert)


# --- built certificates across random inputs ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=4),
    strategies.integers(min_value=0, max_value=2_000),
)
def test_build_then_verify_on_generated_manifolds(pieces, seed):
    G = generate_manifold(pieces=pieces, seed=seed, profile="posEig")
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, cert) == []
    assert all(d > 0 for d in cert.degrees)


@settings(max_examples=25, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=4),
    strategies.integers(min_value=0, max_value=2_000),
)
def test_certificate_reduction_recovers_annihilation_per_piece(pieces, seed):
    G = generate_manifold(pieces=pieces, seed=seed, profile="posEig")
    cert = build_surface_certificate(G)
    assert verify_reduction(decomposition_matrix(G), ReductionCertificate(cert.a_prime, cert.degrees)) == []
    index = {p.id: k for k, p in enumerate(G.pieces)}
    degrees = [to_rational(d) for d in cert.degrees]
    by_torus = {}
    for s in cert.systems:
        by_torus.setdefault(s.torus, {})[s.side] = s
    for piece in G.pieces:
        i = index[piece.id]
        meridian_total = F(0)
        for t_idx, torus in enumerate(G.tori):
            if not torus.touches(piece.id):
                continue
            other = torus.to_piece if torus.from_piece == piece.id else torus.from_piece
            opposite = by_torus[t_idx][other]
            meridian_total += F(opposite.a_plus - opposite.a_minus, torus.p)
        off_diagonal = sum(
            x * degrees[j] for j, x in cert.a_prime[i].items() if j != i
        )
        assert meridian_total == -off_diagonal
        assert meridian_total == degrees[i] * piece.euler


# --- the curve systems determine A' off the diagonal ------------------------------


def rebuilt_off_diagonal(G: DecompositionGraph, cert: SurfaceCertificate) -> dict[tuple[int, int], Fraction]:
    """A'[i][j] * d[j] for i != j, from the curve systems alone: the sum over
    the tori between pieces i and j of (a_minus - a_plus) / p on side j."""
    index = {p.id: k for k, p in enumerate(G.pieces)}
    sides = {(s.torus, s.side): s for s in cert.systems}
    rebuilt: dict[tuple[int, int], Fraction] = {}
    for t_idx, t in enumerate(G.tori):
        for own, other in ((t.from_piece, t.to_piece), (t.to_piece, t.from_piece)):
            s = sides[t_idx, other]
            key = index[own], index[other]
            rebuilt[key] = rebuilt.get(key, 0) + F(s.a_minus - s.a_plus, t.p)
    return rebuilt


def test_the_systems_determine_a_prime_off_the_diagonal():
    # Over the acceptance stream and gen posEig at 5-60 pieces: the stored
    # A' times the degrees is the rebuilt sum, and per piece the meridian
    # balance misses by exactly -(A' d)_i, so it holds iff A' d = 0.
    graphs = list(poseig_manifolds())
    graphs += [generate_manifold(pieces, seed=3, profile="posEig") for pieces in range(5, 61)]
    for G in graphs:
        cert = build_surface_certificate(G)
        a_prime, d = dense_rows(cert.a_prime), cert.degrees
        rebuilt = rebuilt_off_diagonal(G, cert)
        n = len(d)
        assert all(
            rebuilt.get((i, j), 0) == a_prime[i][j] * d[j] for i in range(n) for j in range(n) if i != j
        )
        image = mat_vec(a_prime, [F(x) for x in d])
        for i, piece in enumerate(G.pieces):
            meridian = -sum(rebuilt.get((i, j), 0) for j in range(n) if j != i)
            assert meridian - d[i] * piece.euler == -image[i] == 0


# --- the integer-pair sides against their `Fraction` reference -----------------


def assert_sides_match_fraction_reference(G: DecompositionGraph) -> None:
    cert = build_surface_certificate(G)
    assert (cert.degrees, cert.scale, cert.systems) == fraction_surface_sides(G)


@settings(max_examples=40, deadline=None)
@given(
    strategies.integers(min_value=2, max_value=6),
    strategies.integers(min_value=0, max_value=2_000),
)
def test_sides_match_the_fraction_reference_on_generated_manifolds(pieces, seed):
    assert_sides_match_fraction_reference(generate_manifold(pieces=pieces, seed=seed, profile="posEig"))


def test_sides_match_the_fraction_reference_on_slowly_closing_paths():
    for n in range(4, 25):
        assert_sides_match_fraction_reference(slowly_closing_path(n))


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__")


@pytest.mark.parametrize("n", [4, 13])
def test_the_builder_makes_no_fraction_arithmetic(monkeypatch, n):
    # Between reading the decomposition matrix and writing the certificate,
    # the shrink, the Perron walk and the sides all work in integer pairs.
    G = slowly_closing_path(n)  # no positive diagonal, so A-minus is A
    A = decomposition_matrix(G)
    expected = build_surface_certificate(G)
    monkeypatch.setattr(surface, "decomposition_matrix", lambda graph: A)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the builder")

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, forbidden)
    assert build_surface_certificate(G) == expected


# Comparing and truth-testing a `Fraction` runs Python code too; the verifiers
# read its numerator and denominator and compare those.
COMPARISON = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__")


@pytest.mark.parametrize("kind, n", [("path", 4), ("path", 13), ("gen", 120)])
def test_the_verifiers_make_no_fraction_on_a_valid_certificate(monkeypatch, kind, n):
    # With A given, both verifiers sum and compare in ints: a valid
    # certificate makes no `Fraction`, no arithmetic and no comparison on
    # one.  The certificate is read back from its file, as `verify` does.
    G = slowly_closing_path(n) if kind == "path" else generate_manifold(n, seed=3, profile="posEig")
    A = decomposition_matrix(G)
    cert = surface_cert_from_json(json.loads(json_text(surface_cert_to_json(build_surface_certificate(G)))))
    monkeypatch.setattr(surface, "decomposition_matrix", lambda graph: A)

    def forbidden(*args):
        raise AssertionError("Fraction made, computed with or compared in a verifier")

    for name in ARITHMETIC + COMPARISON + ("__new__",):
        monkeypatch.setattr(F, name, forbidden)
    assert verify_reduction(A, ReductionCertificate(cert.a_prime, cert.degrees)) == []
    assert verify_surface_certificate(G, cert) == []


# --- cost of the construction, counted without a clock -------------------------


def path_graph(n: int, eps: F) -> DecompositionGraph:
    """n unit-glued pieces in a row, each with Euler number -2+eps."""
    return DecompositionGraph(
        pieces=tuple(SeifertPiece(id=k, euler=eps - 2, genus=1) for k in range(1, n + 1)),
        tori=tuple(GluingTorus(from_piece=k, to_piece=k + 1, p=1) for k in range(1, n)),
    )


def closes_at(n: int, eps: F) -> bool:
    """True iff the n-piece path with Euler number -2+eps has a positive
    eigenvalue while every (n-1)-piece sub-path is negative definite: the
    pivots of -A, u_1 = 2-eps, u_{k+1} = 2-eps - 1/u_k, are n-1 positive
    and the last negative."""
    u = 2 - eps
    for _ in range(n - 1):
        if u <= 0:
            return False
        u = 2 - eps - 1 / u
    return u < 0


def closing_window(n: int) -> tuple[float, float]:
    """(lo, hi): the eps between the closing thresholds of n and n-1 pieces, in floats."""
    return 2 - 2 * math.cos(math.pi / (n + 1)), 2 - 2 * math.cos(math.pi / n)


def slowly_closing_path(n: int) -> DecompositionGraph:
    """n unit-glued pieces in a row with Euler number -2+eps, eps between the
    closing thresholds of n and n-1 pieces: A-minus has a positive eigenvalue
    while every (n-1)-piece sub-path is negative definite.

    eps is the shortest dyadic within a quarter of the window's width of its
    float midpoint: the window narrows like 1/n^3, so a bounded denominator
    (`limit_denominator(4096)` before) misses it from about 240 pieces on,
    while 2^-k follows it to any length."""
    lo, hi = closing_window(n)
    k = math.ceil(math.log2(4 / (hi - lo)))
    eps = F(round((lo + hi) / 2 * 2**k), 2**k)
    assert closes_at(n, eps)
    return path_graph(n, eps)


def bounded_denominator_paths() -> list[DecompositionGraph]:
    """The paths of 4 to 13 pieces with eps the fraction of denominator at
    most 4096 nearest one of eleven points spread over the middle half of
    the closing window, kept where it closes at n pieces: the inputs the
    certify-mix workload draws its paths from."""
    paths = []
    for n in range(4, 14):
        lo, hi = closing_window(n)
        for f in range(5, 16):
            eps = F(lo + f / 20 * (hi - lo)).limit_denominator(4096)
            if closes_at(n, eps):
                paths.append(path_graph(n, eps))
    return paths


# The builders call the integer-pair cores directly: a count of `inertia`,
# the one `Fraction`-facing entry to them, would read 0.
EXACT = ("inertia", "_congruence")
DENSE = ("determinant_rows", "nullspace_rows", "solve_rows")


def count_calls(monkeypatch, names) -> dict[str, int]:
    """Count calls of each named function through every binding in the
    package, as the bench's tracer does; the counts fill in as calls run."""
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for module_name, module in list(sys.modules.items()):
        if module_name == "gmsurf" or module_name.startswith("gmsurf."):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("n", [8, 16, 32, 64, 256])
def test_path_certificate_takes_a_few_fixed_point_solves_and_no_exact_elimination(monkeypatch, n):
    # The Perron walk took one exact M-matrix elimination per bisection step
    # and the shrink one congruence per test; one positive vector takes a
    # few fixed-point solves, however long the path.
    counts = count_calls(monkeypatch, ("_fixed_point_solve",) + EXACT + DENSE)
    G = slowly_closing_path(n)
    cert = build_surface_certificate(G)
    assert verify_surface_certificate(G, cert) == []
    assert all(d > 0 for d in cert.degrees)
    assert 1 <= counts["_fixed_point_solve"] <= 8
    assert all(counts[name] == 0 for name in EXACT + DENSE)


@pytest.mark.parametrize(
    "G",
    [two_piece_graph(0, 0), slowly_closing_path(13)]
    + [generate_manifold(n, seed=3, profile="posEig") for n in (30, 120)],
    ids=["zero-diagonal", "path-13", "gen-30", "gen-120"],
)
def test_build_walks_the_matrix_graph_once_and_makes_only_the_certificates_fractions(monkeypatch, G):
    # The vector search reads A's rows itself, with no A-minus, and
    # `Fraction` is made only for the certificate's nonzeros of A'; the
    # degrees stay ints.
    counts = count_calls(monkeypatch, ("a_minus", "matrix_components", "_fraction"))
    cert = build_surface_certificate(G)
    nnz = sum(len(row) for row in cert.a_prime)
    assert counts == {"a_minus": 0, "matrix_components": 1, "_fraction": nnz}


@pytest.mark.parametrize("e1, e2", [(-2, -2), (-1, -1), (1, -1)])
def test_certify_off_the_branch_takes_no_elimination(monkeypatch, tmp_path, e1, e2):
    # The all-ones vector has B a < 0 or B a = 0 here, which names the
    # branch exactly: no decision, no inertia and no solve.
    path = tmp_path / "m.json"
    save_manifold(two_piece_graph(e1, e2), path)
    counts = count_calls(monkeypatch, ("decide", "_fixed_point_solve") + EXACT + DENSE)
    assert main(["certify", str(path), "--out", str(tmp_path / "c.json")]) == 3
    assert counts == dict.fromkeys(counts, 0)


@pytest.mark.parametrize(
    "G", [slowly_closing_path(24), generate_manifold(60, seed=3, profile="posEig")], ids=["path", "gen"]
)
def test_certify_on_the_branch_takes_no_inertia_and_no_congruence(monkeypatch, tmp_path, G):
    path = tmp_path / "m.json"
    save_manifold(G, path)
    counts = count_calls(monkeypatch, ("decide",) + EXACT + DENSE)
    assert main(["certify", str(path), "--out", str(tmp_path / "c.json")]) == 0
    assert counts == dict.fromkeys(counts, 0)


@pytest.mark.parametrize(
    "G",
    [generate_manifold(1000, seed=3, profile="posEig"), slowly_closing_path(1000)],
    ids=["gen-1000", "path-1000"],
)
def test_certify_and_verify_at_a_thousand_pieces(tmp_path, capsys, G):
    # The Perron walk's build took 76 s at 700 pieces (4,486 degree bits)
    # and did not finish at 1,000; no wall clock is asserted here.
    manifold, cert = tmp_path / "m.json", tmp_path / "c.json"
    save_manifold(G, manifold)
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    assert main(["verify", str(manifold), str(cert)]) == 0
    degrees = json.loads(cert.read_text())["degrees"]
    assert len(degrees) == 1000 and min(degrees) > 0
    assert max(d.bit_length() for d in degrees) <= 128


def test_certificate_degrees_stay_narrow():
    # Each row's precision is read off its slack (A-minus a)_i, not raised
    # from a fixed 2^-24: with that floor the degrees took up to 53 bits on
    # the paths and 44 on the 400-piece manifold, where they take 38 and 22.
    def degree_bits(G: DecompositionGraph) -> int:
        cert = build_surface_certificate(G)
        assert verify_surface_certificate(G, cert) == []
        return max(d.bit_length() for d in cert.degrees)

    paths = bounded_denominator_paths()
    assert len(paths) == 110
    small = [generate_manifold(n, seed=seed, profile="posEig") for n in (2, 3, 4, 5, 6, 8, 10, 12) for seed in (1, 2, 3)]
    assert max(map(degree_bits, paths + small)) <= 40
    assert degree_bits(generate_manifold(400, seed=3, profile="posEig")) <= 30


@pytest.mark.parametrize("n", [16, 64])
def test_verify_looks_at_each_torus_side_once(monkeypatch, n):
    # The per-piece oracle makes 510 touches calls at 16 pieces and 8,190 at 64.
    G = slowly_closing_path(n)
    cert = build_surface_certificate(G)
    calls = 0
    touches = GluingTorus.touches

    def counting(self, piece_id):
        nonlocal calls
        calls += 1
        return touches(self, piece_id)

    monkeypatch.setattr(GluingTorus, "touches", counting)
    assert verify_surface_certificate(G, cert) == []
    assert calls <= 2 * len(G.tori)


def test_verify_scans_the_shape_once(monkeypatch, tmp_path, capsys):
    # The shape test reads every key of A': one verify makes it once, valid
    # or not, directly or through the CLI.
    G = generate_manifold(60, seed=3, profile="posEig")
    cert = build_surface_certificate(G)
    short = replace(cert, a_prime=cert.a_prime[:-1])
    stray = replace(cert, a_prime=cert.a_prime[:-1] + ({60: F(1)},))
    expected = [fraction_verify_surface_certificate(G, c) for c in (short, stray)]
    manifold, path = tmp_path / "m.json", tmp_path / "c.json"
    save_manifold(G, manifold)
    path.write_text(json_text(surface_cert_to_json(cert)))
    scans = []
    has_order = ReductionCertificate.has_order
    monkeypatch.setattr(ReductionCertificate, "has_order", lambda self, n: scans.append(n) or has_order(self, n))
    assert verify_surface_certificate(G, cert) == []
    assert scans == [60]
    for bad, violations in zip((short, stray), expected):
        scans.clear()
        assert verify_surface_certificate(G, bad) == violations
        assert violations[-1].startswith("shape mismatch") and scans == [60]
    scans.clear()
    assert main(["verify", str(manifold), str(path)]) == 0
    assert scans == [60]
    capsys.readouterr()


def test_verify_reads_each_entry_of_a_prime_once(monkeypatch):
    # One pass over A' gives the reduction's violations and the couplings at
    # or past their bound, which the strictness check reports: it no longer
    # reads A' again.
    G = generate_manifold(60, seed=3, profile="posEig")
    cert = build_surface_certificate(G)
    entries = {id(x) for row in cert.a_prime for x in row.values()}
    reads = {}
    ratio = F.as_integer_ratio

    def counted(self):
        if id(self) in entries:
            reads[id(self)] = reads.get(id(self), 0) + 1
        return ratio(self)

    monkeypatch.setattr(F, "as_integer_ratio", counted)
    assert verify_surface_certificate(G, cert) == []
    assert reads == dict.fromkeys(entries, 1)


def test_verify_and_write_read_only_the_nonzeros_of_a_prime(monkeypatch):
    # A' keeps only its nonzero entries, so neither the verifier nor the
    # writer takes a pass over all n^2 pairs: before, each pass tested every
    # entry for zero (28,430 Fraction.__bool__ calls per verify and 14,400
    # per write at 120 pieces).
    G = generate_manifold(120, seed=3, profile="posEig")
    cert = build_surface_certificate(G)
    parsed = surface_cert_from_json(json.loads(json_text(surface_cert_to_json(cert))))
    calls = 0
    truth = F.__bool__

    def counting(self):
        nonlocal calls
        calls += 1
        return truth(self)

    monkeypatch.setattr(F, "__bool__", counting)
    assert verify_surface_certificate(G, parsed) == []
    assert calls <= 2 * (len(G.pieces) + len(G.tori))
    calls = 0
    json_text(surface_cert_to_json(cert))
    assert calls == 0
