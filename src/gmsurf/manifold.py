"""Graph-manifold combinatorics: Seifert pieces, gluing tori, decomposition matrix.

A graph manifold is described by its pieces (each a Seifert fibration over an
orientable base, carrying a rational Euler number) and the tori along which
they are glued.  From that data the decomposition matrix is derived:

    A[i][i] = euler number of piece i,
    A[i][j] = sum over tori between pieces i and j of 1/p(T),

where p(T) > 0 is the intersection number of the two sides' fibers in T.
Everything downstream (the decision procedure, reductions, surface
certificates) consumes either this matrix or the graph itself.

Standing normalizations, enforced by :func:`validate`:

- no piece is glued to itself, and p(T) > 0 for every torus;
- each torus carries change-of-basis data (q, q', p') with q*q' - p*p' = 1;
- every base orbifold has negative Euler characteristic;
- the underlying multigraph is connected and has no isolated pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact_linalg import Rational, SymMatrix, to_rational


class InvalidGraphError(ValueError):
    """The decomposition graph violates a standing normalization."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class SeifertPiece:
    """One Seifert-fibered piece: id, rational Euler number, orientable base data."""

    id: int
    euler: Rational
    genus: int = 0
    cone_orders: tuple[int, ...] = ()

    def __post_init__(self):
        """One type test per field: the id, the genus and each cone order
        must be ints (a bool, a float or a string is a TypeError), and an
        Euler number that is not a `Fraction` goes through
        :func:`to_rational`.  Then the values: genus >= 0, cone orders >= 2."""
        if type(self.euler) is not Fraction:
            object.__setattr__(self, "euler", to_rational(self.euler))
        if type(self.cone_orders) is not tuple:
            object.__setattr__(self, "cone_orders", tuple(self.cone_orders))
        if type(self.id) is not int:
            raise TypeError(f"piece id must be an integer, got {self.id!r}")
        if type(self.genus) is not int:
            raise TypeError(f"piece {self.id}: genus must be an integer, got {self.genus!r}")
        if self.genus < 0:
            raise ValueError(f"piece {self.id}: genus must be non-negative")
        for a in self.cone_orders:
            if type(a) is not int:
                raise TypeError(f"piece {self.id}: cone orders must be integers, got {a!r}")
            if a < 2:
                raise ValueError(f"piece {self.id}: cone orders must be >= 2, got {a}")

    def orbifold_euler(self, boundary_count: int) -> Fraction:
        """Orbifold Euler characteristic of the base with the given number of
        boundary circles: 2 - 2g - b - sum(1 - 1/a_k)."""
        chi = Fraction(2 - 2 * self.genus - boundary_count)
        for a in self.cone_orders:
            chi -= 1 - Fraction(1, a)
        return chi


@dataclass(frozen=True)
class GluingTorus:
    """One gluing torus between two distinct pieces.

    p is the (positive) intersection number of the two sides' fibers.  The
    integers (q, q_prime, p_prime) complete the change-of-basis data: the
    matrix [[q, p], [-p_prime, -q_prime]] maps from-side (meridian, fiber)
    coordinates to to-side coordinates and must have determinant -1, i.e.
    q*q_prime - p*p_prime = 1.  Seen from the other side the roles swap:
    q and q_prime trade places while p and p_prime stay put.
    """

    from_piece: int
    to_piece: int
    p: int
    q: int = 1
    q_prime: int = 1
    p_prime: int = 0

    def __post_init__(self):
        """One type test per field: all six are ints, not bools."""
        if not (
            type(self.from_piece) is type(self.to_piece) is type(self.p)
            is type(self.q) is type(self.q_prime) is type(self.p_prime) is int
        ):
            for name in ("from_piece", "to_piece", "p", "q", "q_prime", "p_prime"):
                value = getattr(self, name)
                if type(value) is not int:
                    raise TypeError(f"torus field {name} must be an integer, got {value!r}")

    def touches(self, piece_id: int) -> bool:
        return piece_id in (self.from_piece, self.to_piece)


@dataclass(frozen=True)
class DecompositionGraph:
    """A graph manifold: pieces at the vertices, gluing tori as (multi)edges.

    Matrix indices follow the order of the ``pieces`` tuple, not piece ids;
    ids only name pieces in input files and torus records.
    """

    pieces: tuple[SeifertPiece, ...]
    tori: tuple[GluingTorus, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "tori", tuple(self.tori))


def validate(G: DecompositionGraph) -> list[str]:
    """Check every standing normalization; return all violations found (empty = valid).

    One pass over the tori checks each torus and counts the boundary
    circles and neighbours of each piece; a torus is labelled only when it
    breaks a rule.  A base orbifold's Euler characteristic is an integer
    unless the piece has cone points, and only then is it taken in
    `Fraction`.
    """
    violations: list[str] = []
    ids = [p.id for p in G.pieces]
    if not G.pieces:
        violations.append("graph has no pieces")
        return violations
    id_set = set(ids)
    if len(id_set) < len(ids):
        seen: set[int] = set()
        for pid in ids:
            if pid in seen:
                violations.append(f"duplicate piece id {pid}")
            seen.add(pid)

    boundary_counts = dict.fromkeys(id_set, 0)
    adjacency: dict[int, set[int]] = {pid: set() for pid in id_set}
    for k, t in enumerate(G.tori):
        f, g = t.from_piece, t.to_piece
        broken = []
        if f == g:
            broken.append("self-gluing (from = to)")
        if f in id_set:
            boundary_counts[f] += 1
        else:
            broken.append(f"unknown piece id {f}")
        if g in id_set:
            if g != f:
                boundary_counts[g] += 1
                if f in id_set:
                    adjacency[f].add(g)
                    adjacency[g].add(f)
        else:
            broken.append(f"unknown piece id {g}")
        if t.p <= 0:
            broken.append(f"p must be positive, got {t.p}")
        det = t.q * t.q_prime - t.p * t.p_prime
        if det != 1:
            broken.append(f"qq' - pp' = {det} != 1")
        if broken:
            label = f"torus {k} ({f}-{g})"
            violations.extend(f"{label}: {rule}" for rule in broken)

    for piece in G.pieces:
        boundary = boundary_counts[piece.id]
        if boundary == 0:
            violations.append(f"piece {piece.id}: not incident to any torus")
        # each cone point lowers chi by at least 1/2, so only a non-negative
        # integer part needs the exact value
        chi = 2 - 2 * piece.genus - boundary
        if chi >= 0 and piece.cone_orders:
            chi = piece.orbifold_euler(boundary)
        if chi >= 0:
            violations.append(
                f"piece {piece.id}: orbifold Euler characteristic {chi} is not negative"
            )

    if len(G.pieces) > 1 or G.tori:
        start = ids[0]
        reached = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if reached != id_set:
            missing = sorted(id_set - reached)
            violations.append(f"graph is disconnected (pieces {missing} unreachable)")

    return violations


def decomposition_matrix(G: DecompositionGraph) -> SymMatrix:
    """The symmetric decomposition matrix of a valid graph.

    Diagonal: piece Euler numbers.  Off-diagonal (i, j): sum of 1/p(T) over
    the tori joining pieces i and j (parallel tori each contribute).  Each
    distinct p makes one `Fraction`.
    """
    violations = validate(G)
    if violations:
        raise InvalidGraphError(violations)
    index = {p.id: k for k, p in enumerate(G.pieces)}
    sparse: list[dict[int, Fraction]] = [
        {k: piece.euler} if piece.euler else {} for k, piece in enumerate(G.pieces)
    ]
    inverses: dict[int, Fraction] = {}
    for t in G.tori:
        i, j = index[t.from_piece], index[t.to_piece]
        w = inverses.get(t.p)
        if w is None:
            w = inverses[t.p] = Fraction(1, t.p)
        coupling = sparse[i].get(j)
        sparse[i][j] = sparse[j][i] = w if coupling is None else coupling + w
    return SymMatrix(sparse)


def a_minus(A: SymMatrix) -> SymMatrix:
    """The same matrix with every positive diagonal entry negated.

    Only the rows with a positive diagonal entry are copied; every other
    row is A's own dict.
    """
    minus = list(A.sparse)
    for i, row in enumerate(minus):
        if row.get(i, 0) > 0:
            minus[i] = {**row, i: -row[i]}
    return SymMatrix(minus)


def split_blocks(A: SymMatrix) -> tuple[list[int], list[int], list[int]]:
    """Indices split by diagonal sign: (positive, negative, zero).

    Zero-diagonal indices are returned separately so the decision layer can
    treat their block assignment explicitly.
    """
    diagonal = [row.get(i, 0) for i, row in enumerate(A.sparse)]
    pos = [i for i, x in enumerate(diagonal) if x > 0]
    neg = [i for i, x in enumerate(diagonal) if x < 0]
    zero = [i for i, x in enumerate(diagonal) if x == 0]
    return pos, neg, zero


def two_piece_graph(
    e1: int | str | Fraction,
    e2: int | str | Fraction,
    tori: Sequence[GluingTorus] | None = None,
    genus: int = 1,
) -> DecompositionGraph:
    """Convenience constructor for the two-piece family used throughout tests:
    pieces 1 and 2 with the given Euler numbers, one unit torus by default."""
    if tori is None:
        tori = (GluingTorus(from_piece=1, to_piece=2, p=1),)
    return DecompositionGraph(
        pieces=(
            SeifertPiece(id=1, euler=to_rational(e1), genus=genus),
            SeifertPiece(id=2, euler=to_rational(e2), genus=genus),
        ),
        tori=tuple(tori),
    )
