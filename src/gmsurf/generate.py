"""Seeded random graph-manifold generator for tests and the command line.

The generator builds a random connected multigraph (spanning tree plus a few
extra, possibly parallel, edges), equips every edge with valid gluing data
(p > 0 and a unimodular (q, q_prime, p_prime) completion), and then picks
Euler numbers to match the requested spectral profile of the decomposition
matrix:

- "negdef":  A negative definite (a negative, strictly dominant diagonal,
             so by Gershgorin every eigenvalue is negative, and A-minus = A);
- "semidef": A negative semidefinite and singular (each diagonal entry is the
             negated row sum on a connected graph, so the all-ones vector
             spans the kernel);
- "posEig":  A-minus has a positive eigenvalue;
- "any":     no spectral constraint.

"negdef", "semidef" and "any" hold by construction and take no check.
"posEig" keeps its draw when A-minus shows a positive eigenvalue.  A
coupling c = A[i][j] with c^2 > |A[i][i]| |A[j][j]| shows one in O(tori):
the 2x2 principal block of A-minus on i and j has a negative determinant,
so a positive eigenvalue, and by Cauchy interlacing so has A-minus.  Only a
draw with no such coupling runs the Perron search for the exact sign of
A-minus's largest eigenvalue (:func:`gmsurf.exact_linalg._perron_search`),
and one that shows none gets Euler number 0 on piece 1, which is glued to
piece 2 (the spanning tree's first edge): the block on them becomes
[[0, c], [c, -|e_2|]] with c > 0, of determinant -c^2 < 0.
Deterministic per (pieces, seed, profile).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .exact_linalg import _perron_search, _scaled
from .manifold import DecompositionGraph, GluingTorus, SeifertPiece, decomposition_matrix

PROFILES = ("any", "negdef", "posEig", "semidef")


def _random_torus(rng: random.Random, u: int, v: int) -> GluingTorus:
    p = rng.choice((1, 1, 2, 2, 3, 4))
    if p == 1:
        q = rng.randint(-2, 2)
        q_prime = rng.randint(-2, 2)
        p_prime = q * q_prime - 1
    else:
        units = [x for x in range(1, p) if gcd(x, p) == 1]
        q = rng.choice(units)
        q_prime = pow(q, -1, p) + p * rng.randint(-1, 1)
        p_prime = (q * q_prime - 1) // p
    return GluingTorus(from_piece=u, to_piece=v, p=p, q=q, q_prime=q_prime, p_prime=p_prime)


def _random_topology(rng: random.Random, pieces: int) -> list[GluingTorus]:
    """Spanning tree for connectivity, then a few extra edges (parallels allowed)."""
    tori: list[GluingTorus] = []
    ids = list(range(1, pieces + 1))
    for k in range(1, pieces):
        u = rng.choice(ids[:k])
        tori.append(_random_torus(rng, u, ids[k]))
    extra = rng.randint(0, max(1, pieces - 1))
    for _ in range(extra):
        u, v = rng.sample(ids, 2)
        tori.append(_random_torus(rng, u, v))
    return tori


_EULER_POOL = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)


def _build(rng: random.Random, pieces: int, tori: list[GluingTorus], eulers) -> DecompositionGraph:
    piece_list = []
    for pid in range(1, pieces + 1):
        genus = rng.choice((1, 1, 1, 2))
        cones = tuple(rng.choice((2, 3, 4)) for _ in range(rng.choice((0, 0, 0, 1, 2))))
        piece_list.append(
            SeifertPiece(id=pid, euler=eulers[pid - 1], genus=genus, cone_orders=cones)
        )
    return DecompositionGraph(pieces=tuple(piece_list), tori=tuple(tori))


def generate_manifold(pieces: int, seed: int = 0, profile: str = "any") -> DecompositionGraph:
    """Generate a valid decomposition graph matching the requested profile.

    One draw, which holds the profile for every valid argument (a posEig
    draw is repaired as the module docstring says).  Raises ValueError for
    bad arguments.
    """
    if pieces < 2:
        raise ValueError(f"need at least 2 pieces, got {pieces}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = random.Random(f"{seed}:{pieces}:{profile}")
    tori = _random_topology(rng, pieces)
    row_sums = [Fraction(0)] * pieces
    for t in tori:
        w = Fraction(1, t.p)
        row_sums[t.from_piece - 1] += w
        row_sums[t.to_piece - 1] += w
    if profile == "negdef":
        eulers = [-(row_sums[i] + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))) for i in range(pieces)]
    elif profile == "semidef":
        eulers = [-row_sums[i] for i in range(pieces)]
    else:
        eulers = [rng.choice(_EULER_POOL) for _ in range(pieces)]
    G = _build(rng, pieces, tori, eulers)
    if profile != "posEig":
        return G
    A = decomposition_matrix(G)
    diagonal = [abs(row.get(i, 0)) for i, row in enumerate(A.sparse)]
    couplings = ((i, j, c) for i, row in enumerate(A.sparse) for j, c in row.items() if j != i)
    if any(c * c > diagonal[i] * diagonal[j] for i, j, c in couplings) or _perron_search(_scaled(A.sparse))[0] > 0:
        return G
    first = G.pieces[0]
    repaired = SeifertPiece(id=first.id, euler=Fraction(0), genus=first.genus, cone_orders=first.cone_orders)
    return DecompositionGraph(pieces=(repaired, *G.pieces[1:]), tori=G.tori)
