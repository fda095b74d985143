"""Seeded, stdlib-only input generator for the benchmark.

Independent of ``gmsurf`` (and of ``gmsurf.generate`` in particular): every
input is built here from the file format alone, and each one carries the
outcome it must produce, known by construction.

Inputs are produced in *rounds*.  A round is a fixed stratified set of ops:
its sizes and kinds, and the classes of round i, are the same for every
seed; the seed and the round index only choose each input's random structure.
A run executes whole rounds, so every run sees the same size distribution and
its percentiles do not wander with the seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("analyze-mix", "certify-mix", "cover-find")
# The command each workload times (its op_s percentiles and ok_ratio).
PRIMARY = {"analyze-mix": "analyze", "certify-mix": "certify", "cover-find": "cover"}
# A run goes on past --seconds until it has this many primary ops, so that
# ten of them lie beyond its 90th percentile even on a slow host.
MIN_PRIMARY_OPS = 100

# analyze-mix: five verdict classes, name -> (branch, property_i, property_ve).
VERDICT_CLASSES = {
    "negdef": ("NegativeDefinite", False, False),
    "same": ("SemidefiniteSameSign", True, True),
    "mixed": ("SemidefiniteMixedSign", False, False),
    "pos_ve": ("PositiveEigenvalue", True, True),
    "pos_no_ve": ("PositiveEigenvalue", True, False),
}
# Piece counts, log-spaced over 5..64, one op per (size, class) per round,
# so that every run has the same mix of sizes and classes however many
# rounds fit.  With 25 ops a round the median and the 90th percentile fall
# in the middle of the 18-piece and the 64-piece groups, not on the step
# between two sizes.
ANALYZE_SIZES = (5, 10, 18, 34, 64)

# certify-mix: path family at every length 4..13, plus random 2..12-piece
# manifolds, half with one large bump and half with one zero Euler number.
PATH_SIZES = tuple(range(4, 14))
RANDOM_CERTIFY_SIZES = (2, 3, 4, 5, 6, 8, 10, 12)

# cover-find: one near-identity spec and eight fast specs per round, one
# from each alpha stratum of 3..400.  Twelve rounds use every near-identity
# key once, so every run holds the same twelve near-identity ops.
NEAR_IDENTITY_ALPHAS = (16, 17, 18)
COVER_ROUNDS = 12
COVER_ALPHA_EDGES = (3, 6, 9, 12, 16, 23, 30, 120, 401)
GENUS_BOUNDARY = ((1, 1), (1, 2), (2, 1), (2, 2))

# Rounds of a traced run, fixed per workload so that its per-layer totals
# count the same ops on every host and at every speed of the program: three
# analyze rounds cover every (size, class) three times, five certify rounds
# hold 50 path and 40 random certify ops, and cover-find runs all its rounds.
TRACE_ROUNDS = {"analyze-mix": 3, "certify-mix": 5, "cover-find": COVER_ROUNDS}


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# manifolds


def _torus(rng: random.Random, u: int, v: int) -> dict:
    """Gluing data with p > 0 and q*q' - p*p' = 1."""
    p = rng.choice((1, 1, 2, 3, 4))
    if p == 1:
        q, q_prime = rng.randint(-2, 2), rng.randint(-2, 2)
        p_prime = q * q_prime - 1
    else:
        q = rng.choice([x for x in range(1, p) if math.gcd(x, p) == 1])
        q_prime = pow(q, -1, p) + p * rng.randint(-1, 1)
        p_prime = (q * q_prime - 1) // p
    return {"from": u, "to": v, "p": p, "q": q, "q_prime": q_prime, "p_prime": p_prime}


def _random_tori(rng: random.Random, n: int) -> list[dict]:
    """A random spanning tree on pieces 1..n plus about n/4 extra tori."""
    tori = [_torus(rng, rng.randint(1, k), k + 1) for k in range(1, n)]
    for _ in range(n // 4):
        u, v = rng.sample(range(1, n + 1), 2)
        tori.append(_torus(rng, u, v))
    return tori


def _row_sums(n: int, tori: list[dict]) -> list[Fraction]:
    sums = [Fraction(0)] * n
    for t in tori:
        sums[t["from"] - 1] += Fraction(1, t["p"])
        sums[t["to"] - 1] += Fraction(1, t["p"])
    return sums


def _manifold(eulers: list[Fraction], tori: list[dict]) -> dict:
    # Genus 1 and at least one torus per piece keep every base hyperbolic.
    pieces = [{"id": k + 1, "euler": rational(e), "genus": 1} for k, e in enumerate(eulers)]
    return {"pieces": pieces, "tori": tori}


def decomposition_matrix(doc: dict) -> list[list[Fraction]]:
    """The decomposition matrix of a manifold document (bench-side copy)."""
    index = {p["id"]: k for k, p in enumerate(doc["pieces"])}
    n = len(index)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k, p in enumerate(doc["pieces"]):
        m[k][k] = Fraction(p["euler"])
    for t in doc["tori"]:
        i, j = index[t["from"]], index[t["to"]]
        m[i][j] += Fraction(1, t["p"])
        m[j][i] += Fraction(1, t["p"])
    return m


def verdict_manifold(rng: random.Random, n: int, cls: str) -> dict:
    """A connected n-piece manifold whose verdict class is ``cls``.

    Every class starts from S, the matrix whose Euler numbers are the negated
    off-diagonal row sums: S is singular, negative semidefinite and
    irreducible, with the all-ones vector spanning its kernel.
    """
    tori = _random_tori(rng, n)
    r = _row_sums(n, tori)
    eulers = [-x for x in r]
    k = rng.randrange(n)
    delta = r[k] * Fraction(rng.randint(1, 3), 4)  # 0 < delta < r[k]
    if cls == "negdef":  # strictly diagonally dominant
        eulers = [e - Fraction(rng.randint(1, 4), rng.randint(1, 3)) for e in eulers]
    elif cls == "mixed":  # A-minus = S; proper principal blocks of S are definite
        eulers[k] = r[k]
    elif cls == "pos_ve":  # 1'A1 = delta > 0 and every diagonal stays negative
        eulers[k] += delta
    elif cls == "pos_no_ve":  # A-minus = S + delta*e_k e_k'; blocks as for "mixed"
        eulers[k] = r[k] - delta
    elif cls != "same":
        raise ValueError(f"unknown verdict class {cls!r}")
    return _manifold(eulers, tori)


def path_threshold_ok(n: int, eps: Fraction) -> bool:
    """Exact check that the n-piece path with diagonal -2+eps has a positive
    eigenvalue while its (n-1)-piece sub-paths are negative definite.

    -A is tridiagonal with diagonal 2-eps and off-diagonal -1; its pivots are
    u_1 = 2-eps, u_{k+1} = 2-eps - 1/u_k.  The first n-1 must be positive and
    the last negative.
    """
    u = 2 - eps
    for _ in range(n - 1):
        if u <= 0:
            return False
        u = 2 - eps - 1 / u
    return u < 0


def path_manifold(rng: random.Random, n: int) -> dict:
    """The slowly-closing path: n unit-glued pieces in a row, Euler number
    -2+eps, with eps between the closing thresholds of n and n-1 pieces."""
    lo = 2 - 2 * math.cos(math.pi / (n + 1))
    hi = 2 - 2 * math.cos(math.pi / n)
    while True:
        guess = lo + rng.uniform(0.25, 0.75) * (hi - lo)
        eps = Fraction(guess).limit_denominator(4096)
        if path_threshold_ok(n, eps):
            break
    tori = [{"from": k, "to": k + 1, "p": 1, "q": 1, "q_prime": 1, "p_prime": 0} for k in range(1, n)]
    return _manifold([eps - 2] * n, tori)


def random_certify_manifold(rng: random.Random, n: int, zero: bool) -> dict:
    """A random positive-eigenvalue manifold: S with one Euler number set to
    zero, or with one large bump.

    The bump on piece k is r_k - A_kj^2 / (2 r_j) for a neighbour j, which is
    at least r_k / 2 and makes the 2x2 block on {k, j} indefinite.  A
    positive eigenvalue therefore shows on two pieces, which keeps the
    reduction's subset search small; an unrestricted bump can need most of
    the pieces and turn a 10-piece input into a 2^10 search.
    """
    tori = _random_tori(rng, n)
    r = _row_sums(n, tori)
    eulers = [-x for x in r]
    t = rng.choice(tori)
    k, j = t["from"] - 1, t["to"] - 1
    if zero:
        eulers[k] = Fraction(0)
    else:
        coupling = sum(Fraction(1, s["p"]) for s in tori if {s["from"], s["to"]} == {k + 1, j + 1})
        eulers[k] += r[k] - coupling**2 / (2 * r[j])
    return _manifold(eulers, tori)


# --------------------------------------------------------------------------
# cover specs


def parity_ok(genus: int, degrees: list[list[int]]) -> bool:
    """Circles upstairs have the parity of alpha * (2 - 2g - b)."""
    alpha = sum(degrees[0])
    upstairs = sum(len(d) for d in degrees)
    return (upstairs - alpha * (2 - 2 * genus - len(degrees))) % 2 == 0


def degrees_arg(degrees: list[list[int]]) -> str:
    return ";".join(",".join(str(d) for d in circle) for circle in degrees)


def _closing_type(alpha: int, parts_parity: int) -> list[int]:
    """A last-circle type that a random relator hits with probability ~2/alpha:
    one alpha-cycle (one part) or an (alpha-1)-cycle and a fixed point (two)."""
    return [alpha] if parts_parity == 1 else [alpha - 1, 1]


def fast_cover_spec(rng: random.Random, genus: int, boundary: int, alpha: int) -> list[list[int]]:
    """Full-cycle or balanced first circle; the last circle closes cheaply."""
    if boundary == 1:
        return [_closing_type(alpha, alpha % 2)]
    divisors = [m for m in range(1, min(alpha, 8) + 1) if alpha % m == 0]
    m = rng.choice(divisors)
    first = [alpha // m] * m
    return [first, _closing_type(alpha, m % 2)]


def near_identity_spec(rng: random.Random, genus: int, boundary: int, alpha: int) -> list[list[int]]:
    """Last circle of type 2,2,1,...,1, which a random relator almost never hits."""
    last = [2, 2] + [1] * (alpha - 4)
    if boundary == 1:
        return [last]
    return [_closing_type(alpha, alpha % 2), last]


# --------------------------------------------------------------------------
# rounds


def _cover_keys(seed: int) -> list[list[tuple]]:
    """Per round, the (genus, boundary, alpha, near_identity) keys of its ops.

    No key repeats within a run, so the exhaustive-fallback cache inside
    ``find_cover`` never serves an op that a fresh process would not have
    cached.  Round r puts its near-identity spec on GENUS_BOUNDARY[r % 4]
    and one fast spec in each alpha stratum, so the alpha mix, and with it
    the percentiles, does not depend on the seed.

    A fast spec needs about alpha/2 random tries, a count that varies
    widely between specs.  Six of the eight strata lie below alpha 30, where
    those tries cost less than the command's fixed work, so the median op's
    time varies little from spec to spec; the two strata above 30 reach 400.
    """
    rng = _rng(seed, "cover-keys")
    offset = rng.randrange(len(NEAR_IDENTITY_ALPHAS))
    near = [
        GENUS_BOUNDARY[r % 4] + (NEAR_IDENTITY_ALPHAS[(r // 4 + offset) % len(NEAR_IDENTITY_ALPHAS)],)
        for r in range(COVER_ROUNDS)
    ]
    taken = set(near)
    pools = []
    for low, high in zip(COVER_ALPHA_EDGES, COVER_ALPHA_EDGES[1:]):
        keys = [gb + (a,) for a in range(low, high) for gb in GENUS_BOUNDARY if gb + (a,) not in taken]
        rng.shuffle(keys)
        pools.append(keys)
    return [[near[r] + (True,)] + [pool[r] + (False,) for pool in pools] for r in range(COVER_ROUNDS)]


def max_rounds(workload: str) -> int | None:
    """Rounds available before an input would repeat (None: unlimited)."""
    return COVER_ROUNDS if workload == "cover-find" else None


def make_round(workload: str, seed: int, index: int, directory: Path) -> list[dict]:
    """Write round ``index`` of a workload into ``directory``; return its ops.

    Each op is {"kind", "argv", ...expected outcome}; argv paths are absolute.
    Ops are shuffled within the round.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, workload, index)
    ops: list[dict] = []

    def write(name: str, doc: dict) -> str:
        path = directory / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return str(path)

    if workload == "analyze-mix":
        for n in ANALYZE_SIZES:
            for cls, (branch, prop_i, prop_ve) in VERDICT_CLASSES.items():
                path = write(f"analyze_{n}_{cls}.json", verdict_manifold(rng, n, cls))
                ops.append({
                    "kind": "analyze", "argv": ["analyze", path, "--json"], "pieces": n,
                    "class": cls, "branch": branch, "property_i": prop_i, "property_ve": prop_ve,
                    "exit": 0 if prop_i else 1,
                })
    elif workload == "certify-mix":
        inputs = [("path", n, path_manifold(rng, n)) for n in PATH_SIZES]
        inputs += [
            ("random", n, random_certify_manifold(rng, n, zero=k % 2 == 0))
            for k, n in enumerate(RANDOM_CERTIFY_SIZES)
        ]
        for family, n, doc in inputs:
            stem = f"certify_{family}_{n}"
            manifold = write(stem + ".json", doc)
            cert = str(directory / (stem + ".cert.json"))
            ops.append({
                "kind": "certify", "argv": ["certify", manifold, "--out", cert],
                "family": family, "pieces": n, "manifold": manifold, "certificate": cert,
            })
    elif workload == "cover-find":
        for genus, boundary, alpha, near in _cover_keys(seed)[index]:
            build = near_identity_spec if near else fast_cover_spec
            degrees = build(rng, genus, boundary, alpha)
            if not parity_ok(genus, degrees):
                raise AssertionError(f"spec {genus}, {degrees} breaks parity")
            ops.append({
                "kind": "cover",
                "argv": ["cover", "find", "--genus", str(genus), "--alpha", str(alpha),
                         "--degrees", degrees_arg(degrees), "--json"],
                "genus": genus, "alpha": alpha, "degrees": degrees,
                "near_identity": near,
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
