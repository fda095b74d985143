"""Horizontal-surface certificates: explicit boundary-curve data per torus side.

A positive immersed-surface verdict on the positive-eigenvalue branch can be
witnessed constructively.  The builder:

1. finds a vector a with positive integer entries and (A-minus a)_i > 0 at
   every piece (:func:`gmsurf.reduction.strict_shrink`): power and
   shift-invert steps in fixed-point integers come close to the Perron
   vector of A-minus, and one exact integer dot product per row checks it.
   By the Collatz-Wielandt bounds such an a exists iff A-minus has a
   positive eigenvalue; off that branch the same search names the branch
   in the exception, with no inertia beyond the search's one exact step;
2. builds, row by row, a strict singular reduction A' of the decomposition
   matrix annihilating a: every coupling of row i times one t_i in 2^-m_i Z,
   m_i read off the row's slack, the largest taking the exact remainder,
   so |A'[i][j]| < A[i][j] wherever A[i][j] > 0;
3. for each torus between pieces i and j assigns the side in piece j the pair

       a_plus  = (A[i][j] - A'[i][j]) / (2 A[i][j]) * a[j]
       a_minus = (A[i][j] + A'[i][j]) / (2 A[i][j]) * a[j]

   (A the original matrix; every parallel torus between the same pieces gets
   the same pair, which is what makes the per-piece balance below come out),
   and solves for the fiber coordinates on each side:

       b_plus  = ( opposite a_plus  - q * own a_plus ) / p
       b_minus = (-opposite a_minus - q * own a_minus) / p

   with q read from that side of the torus;
4. clears denominators with one global integer scale, the lcm of every
   side's denominators.

Steps 1 to 4 work in ints and reduced (numerator, denominator) pairs of
ints (:mod:`gmsurf.reduction`): steps 1 and 2 return A' as pair rows and a
as ints (a valid manifold's matrix graph is connected, so a is positive at
every piece), every side's a and b is a pair, and each degree and
coordinate is its numerator times scale // denominator.  Every side
denominator comes from A's entries and the rows' 2^m_i alone, so the scale
is set by the rows' slack, not by the number of pieces.  `Fraction` enters
as the decomposition matrix and leaves once, as the certificate's A' and
degrees.
The verifier shares no code with the builder and, on a valid certificate,
does only `int` arithmetic (below); it makes a `Fraction` only for the text
of a violation.

A' is a strict reduction of A itself: the same diagonal,
|A'[i][j]| < A[i][j] where A[i][j] > 0 and A'[i][j] = 0 where A[i][j] = 0.
That is what the verifier checks, against A.

The resulting integer data satisfies, exactly: per torus side
a_plus + a_minus = degree of the side's piece; per piece the fiber-coordinate
balance sum(b_plus + b_minus) = degree * (Euler number w.r.t. meridians); the
meridian-coordinate balance sum over incident tori of
(opposite a_plus - opposite a_minus)/p = degree * Euler number; and per torus
the two sides are related by the change-of-basis matrix (plus system) and its
negative (minus system).  :func:`verify_surface_certificate` rechecks all of
it from scratch: after grouping the systems by torus it makes one pass over
the tori, which checks each gluing relation and sums, per piece, the fiber
coordinates, the Euler number w.r.t. meridians e' = e - sum q/p and the
opposite sides' meridian coordinates.  The reduction's vector must equal the
degree vector, so the reduction check against A already covers
A' * degrees = 0.

Each check is an integer identity, exact because a denominator is positive
and scaling by a positive integer keeps zeros and signs: per piece, both
balances are multiplied by L = lcm(denominator of e, p of each incident
torus), so L e, L e' and L times the meridian sum are integers; the
strictness |A'[i][j]| < A[i][j] is |num| * A's denominator < A's
numerator * den; and the reduction's vector equals the degrees when each
entry's (numerator, denominator) is (degree, 1).

The graph of a valid manifold is connected, so the reduction's annihilated
vector is positive at every piece and every side gets positive a_plus and
a_minus; the builder needs no retry and no fallback.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exact_linalg import _fraction, _inverse, _mul, _sub
from .manifold import DecompositionGraph, decomposition_matrix
from .reduction import ReductionCertificate, entry_violations, shape_violations, strict_shrink
from .value import Value, _set


class CurveSystem(Value):
    """Integer curve coordinates on one side of one torus.

    ``torus`` indexes the graph's torus list; ``side`` is the piece id whose
    meridian/fiber basis the coordinates use.  The plus system collects the
    consistently oriented curves, the minus system the rest; a_plus + a_minus
    equals the degree of the side's piece.
    """

    __slots__ = ("torus", "side", "a_plus", "a_minus", "b_plus", "b_minus")

    def __init__(self, torus: int, side: int, a_plus: int, a_minus: int, b_plus: int, b_minus: int):
        _set(self, "torus", torus)
        _set(self, "side", side)
        _set(self, "a_plus", a_plus)
        _set(self, "a_minus", a_minus)
        _set(self, "b_plus", b_plus)
        _set(self, "b_minus", b_minus)


class SurfaceCertificate(Value):
    """Full witness for the positive-eigenvalue branch.

    ``degrees`` lists the per-piece covering degrees (already scaled to make
    every curve coordinate integral), in graph piece order, and ``scale``
    the common denominator that scaling cleared.  ``reduction`` annihilates
    exactly this integer vector and its matrix is a strict reduction of the
    decomposition matrix.
    """

    __slots__ = ("degrees", "scale", "reduction", "systems")

    def __init__(
        self, degrees: tuple[int, ...], scale: int, reduction: ReductionCertificate, systems: tuple[CurveSystem, ...]
    ):
        _set(self, "degrees", degrees)
        _set(self, "scale", scale)
        _set(self, "reduction", reduction)
        _set(self, "systems", systems)


def build_surface_certificate(G: DecompositionGraph) -> SurfaceCertificate:
    """Construct and scale the full curve-system certificate.

    Off the constructive branch, :func:`strict_shrink` raises
    NoPositiveEigenvalueError naming the decision branch; on it, it returns
    the strict reduction's pair rows and the positive vector as ints (A's
    graph is connected), used as they are.  The sides are computed in
    reduced integer pairs and scaled to ints.  The certificate is not rechecked here:
    :func:`verify_surface_certificate` is the independent check.
    """
    A = decomposition_matrix(G)
    rows, a = strict_shrink(A)

    index = {p.id: k for k, p in enumerate(G.pieces)}
    sides: list[tuple] = []
    for t_idx, t in enumerate(G.tori):
        u, v = index[t.from_piece], index[t.to_piece]
        c = A.sparse[u][v]
        coupling = c.numerator, c.denominator
        half = _inverse(_mul((2, 1), coupling))
        # a_plus of each side reads the reduced coupling from the opposite piece
        from_plus = _mul(_mul(_sub(coupling, rows[v].get(u, (0, 1))), half), (a[u], 1))
        to_plus = _mul(_mul(_sub(coupling, rows[u].get(v, (0, 1))), half), (a[v], 1))
        from_minus, to_minus = _sub((a[u], 1), from_plus), _sub((a[v], 1), to_plus)
        over_p, q, q_prime = _inverse((t.p, 1)), (t.q, 1), (t.q_prime, 1)
        sides.append((t_idx, t.from_piece, from_plus, from_minus,
                      _mul(_sub(to_plus, _mul(q, from_plus)), over_p),
                      _mul(_sub((-to_minus[0], to_minus[1]), _mul(q, from_minus)), over_p)))
        sides.append((t_idx, t.to_piece, to_plus, to_minus,
                      _mul(_sub(from_plus, _mul(q_prime, to_plus)), over_p),
                      _mul(_sub((-from_minus[0], from_minus[1]), _mul(q_prime, to_minus)), over_p)))

    scale = lcm(*(d for side in sides for _, d in side[2:]))
    degrees = tuple(v * scale for v in a)
    a_prime = tuple({j: _fraction(x) for j, x in row.items()} for row in rows)
    return SurfaceCertificate(
        degrees=degrees,
        scale=scale,
        reduction=ReductionCertificate(a_prime=a_prime, a=tuple(_fraction((d, 1)) for d in degrees)),
        systems=tuple(
            CurveSystem(t_idx, side, *(n * (scale // d) for n, d in values))
            for t_idx, side, *values in sides
        ),
    )


def verify_surface_certificate(G: DecompositionGraph, cert: SurfaceCertificate) -> list[str]:
    """Recheck every certificate equation from scratch; return violations (empty = valid).

    Checks, all in `int` arithmetic: the reduction is a strict reduction of
    the decomposition matrix (:func:`gmsurf.reduction.verify_reduction`'s
    shape and entry checks against A, whose one pass over A' also lists
    the couplings where |A'[i][j]| < A[i][j] fails); its vector is
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

    # verify_reduction in its two steps, so the shape is scanned once
    shape = shape_violations(n, cert.reduction)
    if shape:
        return violations + shape
    entries, tight = entry_violations(A, cert.reduction)
    violations += entries
    violations += [f"reduction not strict at ({i}, {j})" for i, j in tight]
    if any(v.as_integer_ratio() != (d, 1) for v, d in zip(cert.reduction.a, cert.degrees)):
        violations.append("reduction vector differs from degree vector")

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

    # Per piece, L = lcm(denominator of e, p of each incident torus): L e,
    # L e' and L times the meridian sum are ints.
    piece_lcm = {p.id: p.euler.denominator for p in G.pieces}
    for torus in G.tori:
        piece_lcm[torus.from_piece] = lcm(piece_lcm[torus.from_piece], torus.p)
        piece_lcm[torus.to_piece] = lcm(piece_lcm[torus.to_piece], torus.p)
    euler = {p.id: p.euler.numerator * (piece_lcm[p.id] // p.euler.denominator) for p in G.pieces}

    # One pass over the tori: missing sides, the gluing relations, and per
    # piece its fiber sum, L times its Euler number w.r.t. meridians
    # e' = e - sum q/p (q read from the piece's own side) and L times the
    # opposite sides' meridian sum.
    fiber = dict.fromkeys(index, 0)
    e_prime = dict(euler)
    meridian = dict.fromkeys(index, 0)
    gluing: list[str] = []
    for t_idx, torus in enumerate(G.tori):
        sides = by_torus.get(t_idx, {})
        for side in (torus.from_piece, torus.to_piece):
            if side not in sides:
                violations.append(f"torus {t_idx}: missing system for side {side}")
        if violations:
            continue
        f, g = torus.from_piece, torus.to_piece
        lhs, rhs = sides[f], sides[g]
        q, p, qp, pp = torus.q, torus.p, torus.q_prime, torus.p_prime
        fiber[f] += lhs.b_plus + lhs.b_minus
        fiber[g] += rhs.b_plus + rhs.b_minus
        f_share, g_share = piece_lcm[f] // p, piece_lcm[g] // p
        e_prime[f] -= q * f_share
        e_prime[g] -= qp * g_share
        meridian[f] += (rhs.a_plus - rhs.a_minus) * f_share
        meridian[g] += (lhs.a_plus - lhs.a_minus) * g_share
        if rhs.a_plus != q * lhs.a_plus + p * lhs.b_plus or rhs.b_plus != -pp * lhs.a_plus - qp * lhs.b_plus:
            gluing.append(f"torus {t_idx}: plus system breaks the gluing relation")
        if rhs.a_minus != -(q * lhs.a_minus + p * lhs.b_minus) or rhs.b_minus != pp * lhs.a_minus + qp * lhs.b_minus:
            gluing.append(f"torus {t_idx}: minus system breaks the gluing relation")
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

    # Both balances times L > 0, compared as ints; the texts name the
    # unscaled values.
    for piece in G.pieces:
        degree, L = cert.degrees[index[piece.id]], piece_lcm[piece.id]
        if fiber[piece.id] * L != degree * e_prime[piece.id]:
            violations.append(
                f"piece {piece.id}: fiber balance {fiber[piece.id]} != "
                f"degree * meridian Euler number {Fraction(degree * e_prime[piece.id], L)}"
            )
        if meridian[piece.id] != degree * euler[piece.id]:
            violations.append(
                f"piece {piece.id}: meridian balance {Fraction(meridian[piece.id], L)} != "
                f"degree * Euler number {Fraction(degree * euler[piece.id], L)}"
            )

    return violations + gluing
