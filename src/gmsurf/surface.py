"""Horizontal-surface certificates: explicit boundary-curve data per torus side.

A positive immersed-surface verdict on the positive-eigenvalue branch can be
witnessed constructively.  The builder:

1. shrinks every off-diagonal entry of the decomposition matrix by a factor
   1 - 2^-k while keeping a positive eigenvalue of A-minus (so the next step
   lands strictly inside the allowed range).  One congruence elimination of
   A-minus decides the branch (no positive eigenvalue: not this branch) and
   gives, per positive pivot, a vector x with x^T A-minus x > 0, which
   bounds k; a few inertia tests pin the exact k the halving eps = 1/2,
   1/4, ... would reach;
2. finds a singular reduction A' of the shrunk matrix annihilating a vector a
   with positive entries (strictly smaller off-diagonal magnitudes than
   the original matrix wherever it is nonzero);
3. for each torus between pieces i and j assigns the side in piece j the pair

       a_plus  = (A[i][j] - A'[i][j]) / (2 A[i][j]) * a[j]
       a_minus = (A[i][j] + A'[i][j]) / (2 A[i][j]) * a[j]

   (A the original matrix; every parallel torus between the same pieces gets
   the same pair, which is what makes the per-piece balance below come out),
   and solves for the fiber coordinates on each side:

       b_plus  = ( opposite a_plus  - q * own a_plus ) / p
       b_minus = (-opposite a_minus - q * own a_minus) / p

   with q read from that side of the torus;
4. clears denominators with one global integer scale.

The resulting integer data satisfies, exactly: per torus side
a_plus + a_minus = degree of the side's piece; per piece the fiber-coordinate
balance sum(b_plus + b_minus) = degree * (Euler number w.r.t. meridians); the
meridian-coordinate balance sum over incident tori of
(opposite a_plus - opposite a_minus)/p = degree * Euler number; and per torus
the two sides are related by the change-of-basis matrix (plus system) and its
negative (minus system).  :func:`verify_surface_certificate` rechecks all of
it from scratch.

The graph of a valid manifold is connected, so the reduction's annihilated
vector is positive at every piece and every side gets positive a_plus and
a_minus; the builder needs no retry and no fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .decision import decide_immersed
from .exact_linalg import SymMatrix, mat_vec
from .manifold import DecompositionGraph, decomposition_matrix, euler_wrt_meridians
from .reduction import (
    NoPositiveEigenvalueError,
    ReductionCertificate,
    find_singular_reduction,
    strict_shrink,
    verify_reduction,
)


class NotPositiveEigenvalueBranchError(ValueError):
    """The decision did not land on the positive-eigenvalue branch."""


@dataclass(frozen=True)
class CurveSystem:
    """Integer curve coordinates on one side of one torus.

    ``torus`` indexes the graph's torus list; ``side`` is the piece id whose
    meridian/fiber basis the coordinates use.  The plus system collects the
    consistently oriented curves, the minus system the rest; a_plus + a_minus
    equals the degree of the side's piece.
    """

    torus: int
    side: int
    a_plus: int
    a_minus: int
    b_plus: int
    b_minus: int


@dataclass(frozen=True)
class SurfaceCertificate:
    """Full witness for the positive-eigenvalue branch.

    ``degrees`` lists the per-piece covering degrees (already scaled to make
    every curve coordinate integral), in graph piece order.  ``reduction``
    annihilates exactly this integer vector and its matrix is a strict
    reduction of the decomposition matrix (witnessed via ``shrunk``).
    """

    degrees: tuple[int, ...]
    scale: int
    shrunk: SymMatrix
    reduction: ReductionCertificate
    systems: tuple[CurveSystem, ...]


def _side_values(
    A: SymMatrix, cert: ReductionCertificate, i: int, j: int
) -> tuple[Fraction, Fraction]:
    """(a_plus, a_minus) for a torus side living in piece j, opposite piece i."""
    coupling = A[i, j]
    reduced = cert.a_prime[i][j]
    a_plus = (coupling - reduced) / (2 * coupling) * cert.a[j]
    a_minus = (coupling + reduced) / (2 * coupling) * cert.a[j]
    return a_plus, a_minus


def build_surface_certificate(G: DecompositionGraph) -> SurfaceCertificate:
    """Construct and scale the full curve-system certificate.

    Raises NotPositiveEigenvalueBranchError off the constructive branch.
    The certificate is not rechecked here: :func:`verify_surface_certificate`
    is the independent check.
    """
    A = decomposition_matrix(G)
    try:
        shrunk = strict_shrink(A)
    except NoPositiveEigenvalueError:
        _, branch = decide_immersed(A)
        raise NotPositiveEigenvalueBranchError(f"decision branch is {branch.value}") from None
    reduction = find_singular_reduction(shrunk)

    index = {p.id: k for k, p in enumerate(G.pieces)}
    raw: list[dict] = []
    for t_idx, torus in enumerate(G.tori):
        u, v = index[torus.from_piece], index[torus.to_piece]
        from_pair = _side_values(A, reduction, v, u)
        to_pair = _side_values(A, reduction, u, v)
        # fiber coordinates from the first-row gluing relation, q per side
        b_from_plus = (to_pair[0] - torus.q * from_pair[0]) / torus.p
        b_from_minus = (-to_pair[1] - torus.q * from_pair[1]) / torus.p
        b_to_plus = (from_pair[0] - torus.q_prime * to_pair[0]) / torus.p
        b_to_minus = (-from_pair[1] - torus.q_prime * to_pair[1]) / torus.p
        raw.append(
            {
                "torus": t_idx,
                "from_side": (torus.from_piece, from_pair[0], from_pair[1], b_from_plus, b_from_minus),
                "to_side": (torus.to_piece, to_pair[0], to_pair[1], b_to_plus, b_to_minus),
            }
        )

    denominators = [v.denominator for v in reduction.a]
    for entry in raw:
        for key in ("from_side", "to_side"):
            denominators.extend(x.denominator for x in entry[key][1:])
    scale = lcm(*denominators) if denominators else 1

    scaled_a = tuple(v * scale for v in reduction.a)
    scaled_reduction = ReductionCertificate(a_prime=reduction.a_prime, a=scaled_a)
    systems = []
    for entry in raw:
        for key in ("from_side", "to_side"):
            side, ap, am, bp, bm = entry[key]
            systems.append(
                CurveSystem(
                    torus=entry["torus"],
                    side=side,
                    a_plus=int(ap * scale),
                    a_minus=int(am * scale),
                    b_plus=int(bp * scale),
                    b_minus=int(bm * scale),
                )
            )
    return SurfaceCertificate(
        degrees=tuple(int(v) for v in scaled_a),
        scale=scale,
        shrunk=shrunk,
        reduction=scaled_reduction,
        systems=tuple(systems),
    )


def verify_surface_certificate(G: DecompositionGraph, cert: SurfaceCertificate) -> list[str]:
    """Recheck every certificate equation from scratch; return violations (empty = valid).

    Checks, all in exact arithmetic: the reduction is valid for the stored
    shrunk matrix and strict for the true decomposition matrix; it annihilates
    the degree vector; each torus has exactly one curve system per side; the
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

    if cert.shrunk.order != n:
        violations.append("shrunk matrix order mismatch")
    else:
        for i in range(n):
            if cert.shrunk[i, i] != A[i, i]:
                violations.append(f"shrunk matrix changed diagonal at {i}")
        violations.extend(verify_reduction(cert.shrunk, cert.reduction))
        if not cert.reduction.has_order(n):
            return violations
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                entry = cert.reduction.a_prime[i][j]
                if A[i, j] == 0:
                    if entry != 0:
                        violations.append(f"reduction nonzero at ({i}, {j}) where coupling is 0")
                elif abs(entry) >= A[i, j]:
                    violations.append(f"reduction not strict at ({i}, {j})")
        if tuple(cert.reduction.a) != tuple(Fraction(d) for d in cert.degrees):
            violations.append("reduction vector differs from degree vector")
        image = mat_vec(cert.reduction.a_prime, [Fraction(d) for d in cert.degrees])
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
        expected = degree * euler_wrt_meridians(G, piece.id)
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

