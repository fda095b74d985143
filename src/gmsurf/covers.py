"""Connected covers of surfaces with prescribed boundary behavior.

A connected degree-alpha cover of a compact orientable surface of genus
g >= 1 with b boundary circles, with prescribed covering degrees over each
boundary circle, exists if and only if the total number of prescribed
boundary circles upstairs has the same parity as alpha * (2 - 2g - b).
:func:`parity_check` evaluates the criterion, :func:`find_cover` constructs an
explicit witness whenever it holds (one commutator carries the whole
relation, and :func:`alpha_cycle_split` constructs its two alpha-cycles with
no search), and :func:`cover_exists_bruteforce` is the independent exhaustive
oracle the equivalence is tested against.

Witnesses are permutation representations.  Fix the presentation of the
surface group with generators x_1, y_1, ..., x_g, y_g, z_1, ..., z_b and the
single relation

    [x_1, y_1] ... [x_g, y_g] z_1 ... z_b = identity,

which lets z_b be eliminated: a homomorphism to the symmetric group on
{0, ..., alpha-1} is an arbitrary choice of images for the x's, y's and
z_1 ... z_{b-1}.  The cover it classifies is connected iff the image acts
transitively, and the boundary circles over circle j correspond to the cycles
of the image of z_j, with covering degrees the cycle lengths.

Permutations are plain tuples: p[i] is the image of point i.  Words compose
as functions, rightmost factor applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as all_permutations
from itertools import product as cartesian_product
from typing import Iterable, Sequence

Perm = tuple[int, ...]


class ParityError(ValueError):
    """The parity criterion fails, so no such cover exists."""


class BudgetExceededError(RuntimeError):
    """The exhaustive enumeration would exceed the configured budget."""


def identity_perm(alpha: int) -> Perm:
    return tuple(range(alpha))


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def word_product(ws: Sequence[Perm], alpha: int) -> Perm:
    """Product of a word w_1 w_2 ... w_k, rightmost letter applied first."""
    acc = identity_perm(alpha)
    for w in reversed(ws):
        acc = compose(w, acc)
    return acc


def commutator(x: Perm, y: Perm) -> Perm:
    return compose(compose(x, y), compose(inverse(x), inverse(y)))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def perm_from_cycle_lengths(alpha: int, lengths: Sequence[int], points: Sequence[int]) -> Perm:
    """Permutation whose cycles run through ``points`` consecutively with the
    given lengths (``points`` must be a rearrangement of 0..alpha-1)."""
    out = [0] * alpha
    pos = 0
    for length in lengths:
        cycle = points[pos : pos + length]
        for k in range(length):
            out[cycle[k]] = cycle[(k + 1) % length]
        pos += length
    return tuple(out)


def canonical_perm(alpha: int, lengths: Sequence[int]) -> Perm:
    return perm_from_cycle_lengths(alpha, lengths, list(range(alpha)))


def is_transitive(perms: Iterable[Perm], alpha: int) -> bool:
    """Whether the generated permutation group has a single orbit."""
    gens = list(perms)
    if alpha == 1:
        return True
    reached = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in gens:
            j = p[i]
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return len(reached) == alpha


def _partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts descending, lexicographically largest first."""
    result: list[tuple[int, ...]] = []

    def extend(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return result


@dataclass(frozen=True)
class CoverSpec:
    """Requested cover: base genus and degree plus boundary cycle structure.

    ``boundary_degrees`` has one inner tuple per base boundary circle, listing
    the covering degrees of the circles above it; each inner tuple sums to
    alpha.  The base surface must have positive genus.
    """

    genus: int
    alpha: int
    boundary_degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "boundary_degrees", tuple(tuple(int(d) for d in inner) for inner in self.boundary_degrees)
        )
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not self.boundary_degrees:
            raise ValueError("need at least one boundary circle")
        for k, inner in enumerate(self.boundary_degrees):
            if not inner or any(d < 1 for d in inner):
                raise ValueError(f"boundary circle {k}: degrees must be positive")
            if sum(inner) != self.alpha:
                raise ValueError(
                    f"boundary circle {k}: degrees sum to {sum(inner)}, expected {self.alpha}"
                )

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_degrees)

    @property
    def base_euler(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count

    def type_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(inner, reverse=True)) for inner in self.boundary_degrees)


@dataclass(frozen=True)
class CoverCertificate:
    """Images of the free generators; the last boundary generator is implied
    by the relation and never stored."""

    alpha: int
    x: tuple[Perm, ...]
    y: tuple[Perm, ...]
    z: tuple[Perm, ...]

    def last_z(self) -> Perm:
        word = [commutator(xi, yi) for xi, yi in zip(self.x, self.y)] + list(self.z)
        return inverse(word_product(word, self.alpha))

    def all_z(self) -> tuple[Perm, ...]:
        return self.z + (self.last_z(),)


def parity_check(spec: CoverSpec) -> bool:
    """True iff the prescribed boundary-circle count upstairs has the same
    parity as alpha times the base Euler characteristic."""
    upstairs = sum(len(inner) for inner in spec.boundary_degrees)
    return (upstairs - spec.alpha * spec.base_euler) % 2 == 0


def verify_cover(spec: CoverSpec, cert: CoverCertificate) -> list[str]:
    """Recheck a certificate from scratch; return violations (empty = valid)."""
    violations: list[str] = []
    alpha = spec.alpha
    if cert.alpha != alpha:
        return [f"certificate degree {cert.alpha} != spec degree {alpha}"]
    if len(cert.x) != spec.genus or len(cert.y) != spec.genus:
        violations.append(
            f"expected {spec.genus} x and y permutations, got {len(cert.x)} and {len(cert.y)}"
        )
    if len(cert.z) != spec.boundary_count - 1:
        violations.append(
            f"expected {spec.boundary_count - 1} stored z permutations, got {len(cert.z)}"
        )
    domain = set(range(alpha))
    for name, perms in (("x", cert.x), ("y", cert.y), ("z", cert.z)):
        for k, p in enumerate(perms):
            if len(p) != alpha or set(p) != domain:
                violations.append(f"{name}[{k}] is not a permutation of 0..{alpha - 1}")
    if violations:
        return violations
    for j, z in enumerate(cert.all_z()):
        want = tuple(sorted(spec.boundary_degrees[j], reverse=True))
        got = cycle_type(z)
        if got != want:
            violations.append(f"boundary circle {j}: cycle type {got} != prescribed {want}")
    if not is_transitive(cert.x + cert.y + cert.z, alpha):
        violations.append("the action is not transitive (cover is disconnected)")
    return violations


def _relink(nxt: list[int], a: int, b: int, c: int) -> None:
    """Replace the cycle x (x(i) = nxt[i]) by x (a b c), where c = x(b): c
    leaves its place after b and is relinked after a, so x stays one cycle."""
    nxt[b], nxt[c], nxt[a] = nxt[c], nxt[a], c


def alpha_cycle_split(pi: Perm) -> tuple[Perm, Perm]:
    """Two alpha-cycles x and s with x s = pi, for an even permutation pi.

    Start from x = (0 1 ... alpha-1) and s = x^-1 pi; since pi is even and x
    is an alpha-cycle, s has an odd number of cycles.  The cycles of s are
    union-find classes.  While there is more than one, take an adjacency
    (b, c = x(b)) of x whose ends lie in different classes (one exists
    because x is a single cycle) and a point a of a third class, and replace
    x by x (a b c).  This keeps x an alpha-cycle, and s becomes
    (a b c)^-1 s = (a b)(a c) s, which merges the three cycles into one.  So
    (c(s) - 1) / 2 moves end with s an alpha-cycle, in near-linear time
    (union by size with path halving) and with no search.

    Candidate b's wait on a worklist: an adjacency changes only at the moved
    points b, a and c, and a's new one lies inside the merged class.  Class
    roots wait on a stack.  Both drop the entries a merge made stale when
    they are read.  Raises ValueError if pi is odd.
    """
    alpha = len(pi)
    nxt = [*range(1, alpha), 0]
    parent = [-1] * alpha
    size = [0] * alpha
    roots = []
    for start in range(alpha):
        if parent[start] >= 0:
            continue
        roots.append(start)
        i = start
        while parent[i] < 0:
            parent[i] = start
            size[start] += 1
            i = (pi[i] - 1) % alpha  # s(i) = x^-1(pi(i))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    classes = len(roots)
    if classes % 2 == 0:
        raise ValueError("an odd permutation is no product of two alpha-cycles")
    work = [b for b in range(alpha) if parent[b] != parent[nxt[b]]]
    while classes > 1:
        b = work.pop()
        c = nxt[b]
        rb, rc = find(b), find(c)
        if rb == rc:
            continue
        held = []
        while True:
            a = roots.pop()
            if parent[a] != a:
                continue
            if a != rb and a != rc:
                break
            held.append(a)
        roots.extend(held)
        _relink(nxt, a, b, c)
        top = max((a, rb, rc), key=size.__getitem__)
        size[top] = size[a] + size[rb] + size[rc]
        parent[a] = parent[rb] = parent[rc] = top
        if top == a:
            roots.append(a)
        work += (c, b)
        classes -= 2
    x = tuple(nxt)
    return x, compose(inverse(x), pi)


def find_cover(spec: CoverSpec) -> CoverCertificate:
    """Construct a certificate, deterministically.

    Each z_j is the canonical permutation of its prescribed type, so the
    relation asks for one commutator [x, y] = pi with pi = (z_1 ... z_b)^-1,
    and pi is even exactly when the parity criterion holds.  Every even
    permutation is a product of two alpha-cycles (Bertram 1972), and
    :func:`alpha_cycle_split` constructs such a pair x s = pi.  Then y
    carries the cycle of x^-1 onto the cycle of s = x^-1 pi, which gives
    y x^-1 y^-1 = x^-1 pi, that is [x, y] = pi.  The other handles are the
    identity, and x alone acts transitively.
    """
    if not parity_check(spec):
        raise ParityError(
            "prescribed boundary count has the wrong parity; no such cover exists"
        )
    alpha = spec.alpha
    zs = tuple(canonical_perm(alpha, inner) for inner in spec.boundary_degrees)
    pi = inverse(word_product(zs, alpha))
    x, s = alpha_cycle_split(pi)
    x_inv = inverse(x)
    y = [0] * alpha
    a = b = 0
    for _ in range(alpha):
        y[a] = b
        a, b = x_inv[a], s[b]
    ident = identity_perm(alpha)
    cert = CoverCertificate(
        alpha=alpha,
        x=(x,) + (ident,) * (spec.genus - 1),
        y=(tuple(y),) + (ident,) * (spec.genus - 1),
        z=zs[:-1],
    )
    violations = verify_cover(spec, cert)
    if violations:
        raise AssertionError(f"constructed witness failed verification: {violations[0]}")
    return cert


_BRUTE_FORCE_BUDGET = 20_000_000


def _enumeration_cost(genus: int, boundary: int, alpha: int) -> int:
    """The larger of the sweep's tuple count and the alpha!^2 entries of the
    composition and commutator tables built before it."""
    from math import factorial

    slots = 2 * genus + boundary - 1
    return max(len(_partitions(alpha)) * factorial(alpha) ** (slots - 1), factorial(alpha) ** 2)


@lru_cache(maxsize=None)
def _sym_group(alpha: int):
    perms = [tuple(p) for p in all_permutations(range(alpha))]
    index = {p: k for k, p in enumerate(perms)}
    compose_idx = [[index[compose(p, q)] for q in perms] for p in perms]
    inverse_idx = [index[inverse(p)] for p in perms]
    type_of = [cycle_type(p) for p in perms]
    return perms, index, compose_idx, inverse_idx, type_of


@lru_cache(maxsize=None)
def _achievable_types(genus: int, boundary: int, alpha: int) -> frozenset[tuple[tuple[int, ...], ...]]:
    """The boundary type tuples of the transitive homomorphisms.

    One full sweep per (genus, boundary, alpha), run only by the oracle
    :func:`cover_exists_bruteforce`.  x_1 is restricted to one canonical
    representative per cycle type: conjugating a whole homomorphism
    preserves boundary types and transitivity, and the genus is at least 1,
    so every achievable type tuple is still reached.  The sweep loops x_1,
    then the other 2g - 1 handle generators, whose commutator product is
    taken once per choice, then the b - 1 free z's.
    """
    perms, index, compose_idx, inverse_idx, type_of = _sym_group(alpha)
    n = len(perms)
    ident = index[identity_perm(alpha)]

    comm_idx = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ab = compose_idx[a][b]
            comm_idx[a][b] = compose_idx[compose_idx[ab][inverse_idx[a]]][inverse_idx[b]]

    achievable: set[tuple[tuple[int, ...], ...]] = set()
    for part in _partitions(alpha):
        x_first = index[canonical_perm(alpha, part)]
        for xy in cartesian_product(range(n), repeat=2 * genus - 1):
            handles = (x_first,) + xy
            prefix = ident
            for a, b in zip(handles[:genus], handles[genus:]):
                prefix = compose_idx[prefix][comm_idx[a][b]]
            for zs in cartesian_product(range(n), repeat=boundary - 1):
                relator = prefix
                for k in zs:
                    relator = compose_idx[relator][k]
                key = tuple(type_of[k] for k in zs) + (type_of[inverse_idx[relator]],)
                if key not in achievable and is_transitive([perms[k] for k in handles + zs], alpha):
                    achievable.add(key)
    return frozenset(achievable)


def cover_exists_bruteforce(spec: CoverSpec) -> bool:
    """Exhaustive oracle: enumerate every homomorphism (up to conjugation of
    x_1) and test for one with the requested boundary type.

    Raises BudgetExceededError when the sweep would exceed
    ``_BRUTE_FORCE_BUDGET``; the sweep itself is cached per (genus, boundary
    count, degree).
    """
    cost = _enumeration_cost(spec.genus, spec.boundary_count, spec.alpha)
    if cost > _BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(
            f"enumeration needs ~{cost} tuples or table entries, budget is {_BRUTE_FORCE_BUDGET}"
        )
    return spec.type_key() in _achievable_types(spec.genus, spec.boundary_count, spec.alpha)
