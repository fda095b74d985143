"""Connected covers of surfaces with prescribed boundary behavior.

A connected degree-alpha cover of a compact orientable surface of genus
g >= 1 with b boundary circles, with prescribed covering degrees over each
boundary circle, exists if and only if the total number of prescribed
boundary circles upstairs has the same parity as alpha * (2 - 2g - b)
(Husemoller, "Ramified coverings of Riemann surfaces", Duke Math. J. 29,
1962; Edmonds, Kulkarni & Stong, "Realizability of branched coverings of
surfaces", Trans. AMS 282, 1984).  :func:`parity_check` evaluates the
criterion in constant time, and :func:`find_cover` constructs an explicit
witness whenever it holds (one commutator carries the whole relation, and
:func:`alpha_cycle_split` constructs its two alpha-cycles with no search).
The exhaustive existence oracle that the equivalence is tested against
lives with the tests, in ``tests/oracles.py``.

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

from collections.abc import Iterable, Sequence

from .value import Value, _set

Perm = tuple[int, ...]


class ParityError(ValueError):
    """The parity criterion fails, so no such cover exists."""


def identity_perm(alpha: int) -> Perm:
    return tuple(range(alpha))


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: apply q first, then p."""
    return tuple([p[i] for i in q])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def word_product(ws: Sequence[Perm], alpha: int) -> Perm:
    """Product of a word w_1 w_2 ... w_k, rightmost letter applied first.

    The product starts from the last letter; only the empty word builds the
    identity."""
    if not ws:
        return identity_perm(alpha)
    acc = tuple(ws[-1])
    for w in reversed(ws[:-1]):
        acc = compose(w, acc)
    return acc


def commutator(x: Perm, y: Perm) -> Perm:
    """[x, y] = x y x^-1 y^-1 = (x y)(y x)^-1: one inverse, of y x, and x y
    applied along it in one pass."""
    return tuple([x[y[k]] for k in inverse([y[i] for i in x])])


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


def canonical_perm(alpha: int, lengths: Sequence[int]) -> Perm:
    """The permutation whose cycles run through 0, 1, ..., alpha-1 in order
    with the given lengths (which sum to alpha): every point goes to the next
    one, except that the last point of each cycle goes back to its first."""
    out = list(range(1, alpha + 1))
    end = 0
    for length in lengths:
        end += length
        out[end - 1] = end - length
    return tuple(out)


def is_transitive(perms: Iterable[Perm], alpha: int) -> bool:
    """Whether the generated permutation group has a single orbit.

    The orbit of 0 grows while it is read: from each of its points, every
    generator's cycle through that point is walked until it meets a reached
    point.  The search stops once the orbit holds all alpha points, so one
    generator that is an alpha-cycle settles it in one walk."""
    gens = list(perms)
    reached = [False] * alpha
    reached[0] = True
    orbit = [0]
    for i in orbit:
        for p in gens:
            j = p[i]
            while not reached[j]:
                reached[j] = True
                orbit.append(j)
                j = p[j]
        if len(orbit) == alpha:
            return True
    return False


class CoverSpec(Value):
    """Requested cover: base genus and degree plus boundary cycle structure.

    ``boundary_degrees`` has one inner tuple per base boundary circle, listing
    the covering degrees of the circles above it; each inner tuple sums to
    alpha.  The base surface must have positive genus.
    """

    __slots__ = ("genus", "alpha", "boundary_degrees")

    def __init__(self, genus: int, alpha: int, boundary_degrees: tuple[tuple[int, ...], ...]):
        """One type test per field, as :class:`gmsurf.manifold.SeifertPiece`
        does: the genus, alpha and every degree must be ints (a bool, a float
        or a string is a TypeError).  Then the values."""
        boundary_degrees = tuple(map(tuple, boundary_degrees))
        _set(self, "genus", genus)
        _set(self, "alpha", alpha)
        _set(self, "boundary_degrees", boundary_degrees)
        if type(genus) is not int:
            raise TypeError(f"genus must be an integer, got {genus!r}")
        if type(alpha) is not int:
            raise TypeError(f"alpha must be an integer, got {alpha!r}")
        for k, inner in enumerate(boundary_degrees):
            for d in inner:
                if type(d) is not int:
                    raise TypeError(f"boundary circle {k}: degrees must be integers, got {d!r}")
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if not boundary_degrees:
            raise ValueError("need at least one boundary circle")
        for k, inner in enumerate(boundary_degrees):
            if not inner or any(d < 1 for d in inner):
                raise ValueError(f"boundary circle {k}: degrees must be positive")
            if sum(inner) != alpha:
                raise ValueError(f"boundary circle {k}: degrees sum to {sum(inner)}, expected {alpha}")

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_degrees)

    @property
    def base_euler(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count

    def type_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(inner, reverse=True)) for inner in self.boundary_degrees)


class CoverCertificate(Value):
    """Images of the free generators; the last boundary generator is implied
    by the relation and never stored as a field."""

    __slots__ = ("alpha", "x", "y", "z", "_last_z")

    def __init__(self, alpha: int, x: tuple[Perm, ...], y: tuple[Perm, ...], z: tuple[Perm, ...]):
        _set(self, "alpha", alpha)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def last_z(self) -> Perm:
        """z_b = ([x_1, y_1] ... [x_g, y_g] z_1 ... z_{b-1})^-1.

        The relation is multiplied out once per certificate: the product is
        kept on the instance (outside the fields, so equality, hashing and
        ``repr`` ignore it), and later calls return the same tuple."""
        try:
            return self._last_z
        except AttributeError:
            pass
        word = [commutator(xi, yi) for xi, yi in zip(self.x, self.y)] + list(self.z)
        last = inverse(word_product(word, self.alpha))
        _set(self, "_last_z", last)
        return last

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
