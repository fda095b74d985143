"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line and enforcing its runtime cap.

Everything here runs in exact rational arithmetic; random instance streams
are seeded with fixed strings so every run checks the same corpus, and the
streams for criteria 2, 3, and 7 are shared with the cross-cutting
consistency check in criterion 8.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

from gmsurf.covers import CoverSpec, find_cover, parity_check, verify_cover
from gmsurf.decision import decide, two_piece_d
from gmsurf.exact_linalg import DisconnectedMatrixError, Inertia, SymMatrix, inertia
from gmsurf.generate import generate_manifold
from gmsurf.manifold import decomposition_matrix
from gmsurf.reduction import (
    NegativeDefiniteError,
    find_singular_reduction,
    negativity_certificate,
    verify_reduction,
)
from gmsurf.surface import build_surface_certificate, verify_surface_certificate
from oracles import a_minus, bilinear_identity, cover_exists_bruteforce, is_connected_matrix, kernel_basis, mat_vec, sym, to_lists

F = Fraction


def negative_definite(A: SymMatrix) -> bool:
    """Every eigenvalue negative; the 0x0 matrix vacuously so."""
    return inertia(A.sparse).n_neg == A.order


def report(number: int, name: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {status} [{detail}]", flush=True)
    assert not failures, failures[:5]


# --- shared instance streams -------------------------------------------------


@lru_cache(maxsize=1)
def negative_definite_instances() -> tuple[SymMatrix, ...]:
    """500 random connected negative definite matrices with non-negative
    off-diagonal: -(G + I) on the diagonal for a random Gram matrix G, the
    off-diagonal forced non-negative by taking absolute values, with
    rejection of anything no longer definite or with a disconnected graph."""
    rng = random.Random("acceptance:negdef")
    out: list[SymMatrix] = []
    while len(out) < 500:
        s = rng.randint(2, 6)
        cols = [[F(rng.randint(-3, 3)) for _ in range(s)] for _ in range(s)]
        gram = [
            [sum(cols[k][i] * cols[k][j] for k in range(s)) for j in range(s)]
            for i in range(s)
        ]
        rows = [
            [abs(gram[i][j]) if i != j else -(gram[i][i] + 1) for j in range(s)]
            for i in range(s)
        ]
        A = sym(rows)
        if inertia(A.sparse).n_neg != s or not is_connected_matrix(A):
            continue
        out.append(A)
    return tuple(out)


@lru_cache(maxsize=1)
def random_symmetric_instances() -> tuple[SymMatrix, ...]:
    """1000 random symmetric rational matrices (order <= 6) with
    non-negative off-diagonal entries, connectivity not enforced."""
    rng = random.Random("acceptance:symmetric")
    out: list[SymMatrix] = []
    for _ in range(1000):
        s = rng.randint(1, 6)
        rows = [[F(0)] * s for _ in range(s)]
        for i in range(s):
            rows[i][i] = F(rng.randint(-6, 6), rng.randint(1, 3))
            for j in range(i + 1, s):
                if rng.random() < 0.35:
                    continue
                v = F(rng.randint(1, 5), rng.randint(1, 3))
                rows[i][j] = v
                rows[j][i] = v
        out.append(sym(rows))
    return tuple(out)


def connected_negative_instance(rng: random.Random, singular: bool) -> SymMatrix:
    order = rng.randint(2, 6)
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


@lru_cache(maxsize=1)
def poseig_manifolds():
    """200 generated manifolds whose negated-diagonal matrix has a positive
    eigenvalue, with 2 to 5 pieces."""
    rng = random.Random("acceptance:poseig")
    out = []
    for k in range(200):
        pieces = rng.randint(2, 5)
        out.append(generate_manifold(pieces=pieces, seed=k, profile="posEig"))
    return tuple(out)


# --- criterion 1: two-piece grid equivalence ----------------------------------


def test_criterion_1_two_piece_equivalence():
    start = time.perf_counter()
    failures: list[str] = []
    diagonal_values = [F(-3), F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2), F(3)]
    couplings = [F(1, 2), F(1), F(3, 2), F(2)]
    checked = 0
    for a11, a22, a12 in product(diagonal_values, diagonal_values, couplings):
        A = sym([[a11, a12], [a12, a22]])
        d = two_piece_d(A).d
        verdict = decide(A)
        holds_i, holds_ve = verdict.property_i, verdict.property_ve
        if holds_i != (F(-1) < d <= F(1)):
            failures.append(f"(I) mismatch at {a11},{a22},{a12}: D={d}")
        if holds_ve != (F(0) <= d <= F(1)):
            failures.append(f"(VE) mismatch at {a11},{a22},{a12}: D={d}")
        checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(1, "two-piece equivalence", failures, f"{checked} grid points, {elapsed:.2f}s")


# --- criterion 2: negative definite matrices have no reduction ------------------


def test_criterion_2_negative_definite_rejection():
    start = time.perf_counter()
    failures: list[str] = []
    for k, A in enumerate(negative_definite_instances()):
        verdict = decide(A)
        if verdict.property_i or verdict.property_ve:
            failures.append(f"instance {k}: verdict not both-false")
        try:
            find_singular_reduction(A)
        except NegativeDefiniteError:
            pass
        else:
            failures.append(f"instance {k}: reduction unexpectedly found")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(2, "negative definite rejection", failures, f"500 instances, {elapsed:.1f}s")


# --- criterion 3: reduction existence both ways ---------------------------------


def test_criterion_3_reduction_existence_iff():
    start = time.perf_counter()
    failures: list[str] = []
    found = disconnected = 0
    for k, A in enumerate(random_symmetric_instances()):
        negdef = negative_definite(SymMatrix(a_minus(A)))
        try:
            cert = find_singular_reduction(A)
        except DisconnectedMatrixError:
            # The reduction takes connected input only, as decide does.
            if is_connected_matrix(A):
                failures.append(f"instance {k}: connected input refused")
            disconnected += 1
            continue
        except NegativeDefiniteError:
            if not negdef:
                failures.append(f"instance {k}: reduction missed")
            continue
        if negdef:
            failures.append(f"instance {k}: reduction found for definite matrix")
        violations = verify_reduction(A, cert)
        if violations:
            failures.append(f"instance {k}: {violations[0]}")
        found += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        3,
        "reduction existence iff",
        failures,
        f"1000 instances, {disconnected} disconnected, {found} reductions, {elapsed:.1f}s",
    )


# --- criterion 4: negativity certificates and the quadratic identity -------------


def test_criterion_4_negativity_certificates():
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random("acceptance:negativity")
    semidefinite_count = 0
    for k in range(500):
        singular = k % 2 == 0
        A = connected_negative_instance(rng, singular=singular)
        cert = negativity_certificate(A)
        if any(v <= 0 for v in cert.a):
            failures.append(f"instance {k}: non-positive weight")
        image = mat_vec(to_lists(A), cert.a)
        if image != cert.image or any(v > 0 for v in image):
            failures.append(f"instance {k}: image not non-positive")
        for _ in range(10):
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(A.order))
            lhs, rhs = bilinear_identity(A, cert.a, x)
            if lhs != rhs:
                failures.append(f"instance {k}: identity breaks at x={x}")
                break
        if singular:
            semidefinite_count += 1
            if any(v != 0 for v in cert.image):
                failures.append(f"instance {k}: singular case image nonzero")
            basis = kernel_basis(A)
            if len(basis) != 1:
                failures.append(f"instance {k}: kernel dimension {len(basis)}")
            else:
                ratio = cert.a[0] / basis[0][0]
                if any(a != ratio * b for a, b in zip(cert.a, basis[0])):
                    failures.append(f"instance {k}: a outside the kernel line")
    elapsed = time.perf_counter() - start
    report(
        4,
        "negativity certificates",
        failures,
        f"500 instances ({semidefinite_count} semidefinite), 10 x-vectors each, {elapsed:.1f}s",
    )


# --- criterion 5: strict symmetric reductions are definite ------------------------


def test_criterion_5_strict_reductions_definite():
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random("acceptance:strict-reduction")
    for k in range(500):
        A = connected_negative_instance(rng, singular=k % 2 == 0)
        order = A.order
        rows = to_lists(A)
        pairs = [(i, j) for i in range(order) for j in range(i + 1, order) if A[i, j] != 0]
        forced = rng.choice(pairs)
        for i, j in pairs:
            num = rng.randint(-3, 3)
            if (i, j) == forced and abs(num) == 3:
                num = rng.randint(-2, 2)
            factor = F(num, 3)
            rows[i][j] *= factor
            rows[j][i] *= factor
        reduced = sym(rows)
        if inertia(reduced.sparse) != Inertia(n_pos=0, n_zero=0, n_neg=order):
            failures.append(f"instance {k}: reduction not negative definite")
    elapsed = time.perf_counter() - start
    report(5, "strict reductions definite", failures, f"500 instances, {elapsed:.1f}s")


# --- criterion 6: cover existence equals parity, exhaustively ----------------------


def all_partitions(n: int) -> list[tuple[int, ...]]:
    def parts(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    return list(parts(n, n))


def test_criterion_6_cover_parity_exhaustive():
    start = time.perf_counter()
    failures: list[str] = []
    specs = 0
    passing = 0
    for genus in (1, 2):
        for boundary in (1, 2):
            for alpha in (1, 2, 3, 4):
                partitions = all_partitions(alpha)
                for degrees in product(partitions, repeat=boundary):
                    spec = CoverSpec(genus=genus, alpha=alpha, boundary_degrees=degrees)
                    specs += 1
                    exists = cover_exists_bruteforce(spec)
                    parity = parity_check(spec)
                    if exists != parity:
                        failures.append(
                            f"{spec.genus=} {spec.alpha=} {degrees}: brute {exists} != parity {parity}"
                        )
                        continue
                    if parity:
                        passing += 1
                        cert = find_cover(spec)
                        violations = verify_cover(spec, cert)
                        if violations:
                            failures.append(f"{degrees}: {violations[0]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 min")
    report(
        6,
        "cover existence equals parity",
        failures,
        f"{specs} specs, {passing} covers built, {elapsed:.1f}s",
    )


# --- criterion 7: surface certificate pipeline --------------------------------------


def test_criterion_7_surface_pipeline():
    start = time.perf_counter()
    failures: list[str] = []
    verified = 0
    for k, G in enumerate(poseig_manifolds()):
        try:
            cert = build_surface_certificate(G)
        except Exception as exc:  # silent failure modes are themselves failures
            failures.append(f"manifold {k}: unexpected {type(exc).__name__}: {exc}")
            continue
        violations = verify_surface_certificate(G, cert)
        if violations:
            failures.append(f"manifold {k}: {violations[0]}")
        else:
            verified += 1
    elapsed = time.perf_counter() - start
    if verified != 200:
        failures.append(f"only {verified} of 200 certificates verified")
    report(
        7,
        "surface certificate pipeline",
        failures,
        f"200 manifolds, {verified} verified, {elapsed:.1f}s",
    )


# --- criterion 8: the (VE) verdict never outruns the (I) verdict ----------------------


def test_criterion_8_ve_implies_i():
    start = time.perf_counter()
    failures: list[str] = []
    matrices = list(negative_definite_instances())
    matrices.extend(A for A in random_symmetric_instances() if is_connected_matrix(A))
    matrices.extend(decomposition_matrix(G) for G in poseig_manifolds())
    for k, A in enumerate(matrices):
        verdict = decide(A)
        if verdict.property_ve and not verdict.property_i:
            failures.append(f"matrix {k}: VE true but I false")
    elapsed = time.perf_counter() - start
    report(
        8,
        "VE implies I",
        failures,
        f"{len(matrices)} instances, zero exceptions required, {elapsed:.1f}s",
    )
