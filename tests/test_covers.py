"""Tests for permutation machinery, surface-cover construction and the exhaustive oracle."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies

from gmsurf import covers
from gmsurf.covers import (
    BudgetExceededError,
    CoverCertificate,
    CoverSpec,
    ParityError,
    _enumeration_cost,
    alpha_cycle_split,
    commutator,
    compose,
    cover_exists_bruteforce,
    cycle_type,
    canonical_perm,
    find_cover,
    identity_perm,
    inverse,
    is_transitive,
    parity_check,
    verify_cover,
    word_product,
)
from oracles import (
    perm_from_cycle_lengths,
    textbook_commutator,
    textbook_compose,
    textbook_inverse,
    textbook_is_transitive,
    textbook_word_product,
)


# --- permutation primitives ---------------------------------------------------


def test_compose_applies_rightmost_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3)) == (1, 0, 2)


def test_inverse_undoes_composition():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity_perm(4)
    assert compose(inverse(p), p) == identity_perm(4)


def test_word_product_of_empty_word_is_identity():
    assert word_product([], 3) == identity_perm(3)


def test_word_product_multiplies_left_to_right_acting_right_first():
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert word_product([p, q], 3) == compose(p, q)


def test_commutator_of_commuting_permutations_is_identity():
    p = (1, 0, 2, 3)
    q = (0, 1, 3, 2)
    assert commutator(p, q) == identity_perm(4)


def test_cycle_type_includes_fixed_points():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)


def test_perm_from_cycle_lengths_realizes_requested_type():
    perm = perm_from_cycle_lengths(5, [3, 2], [4, 2, 0, 1, 3])
    assert cycle_type(perm) == (3, 2)


def test_canonical_perm_uses_increasing_points():
    assert cycle_type(canonical_perm(4, [2, 2])) == (2, 2)
    assert canonical_perm(3, [3]) == (1, 2, 0)
    for alpha in range(1, 9):
        for lengths in boundary_partitions(alpha):
            for order in {lengths, lengths[::-1]}:
                assert canonical_perm(alpha, order) == perm_from_cycle_lengths(alpha, order, range(alpha))


def test_is_transitive_detects_orbits():
    swap01 = (1, 0, 2)
    swap12 = (0, 2, 1)
    assert is_transitive([swap01, swap12], 3)
    assert not is_transitive([swap01], 3)


# --- cover specifications --------------------------------------------------------


def test_spec_rejects_zero_genus():
    with pytest.raises(ValueError):
        CoverSpec(genus=0, alpha=2, boundary_degrees=((2,),))


def test_spec_rejects_mismatched_degree_sum():
    with pytest.raises(ValueError):
        CoverSpec(genus=1, alpha=3, boundary_degrees=((2,),))


@pytest.mark.parametrize("bad", [2.9, 1.5, "2", True])
@pytest.mark.parametrize(
    "spec, message",
    [
        (lambda bad: CoverSpec(genus=bad, alpha=3, boundary_degrees=((3,),)), "genus must be an integer"),
        (lambda bad: CoverSpec(genus=1, alpha=bad, boundary_degrees=((3,),)), "alpha must be an integer"),
        (
            lambda bad: CoverSpec(genus=1, alpha=3, boundary_degrees=((1, 1, 1), (bad, 1))),
            "boundary circle 1: degrees must be integers",
        ),
    ],
    ids=["genus", "alpha", "degree"],
)
def test_spec_rejects_fields_that_are_not_ints(spec, message, bad):
    # Each must be refused, not converted: int() reads 2.9 as 2 and "2" as 2.
    with pytest.raises(TypeError) as excinfo:
        spec(bad)
    assert str(excinfo.value) == f"{message}, got {bad!r}"


def test_spec_keeps_the_tuple_conversion_and_value_messages():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=[[1, 1]])
    assert spec.boundary_degrees == ((1, 1),)
    with pytest.raises(ValueError, match=r"^genus must be >= 1, got 0$"):
        CoverSpec(genus=0, alpha=2, boundary_degrees=((2,),))
    with pytest.raises(ValueError, match=r"^boundary circle 0: degrees sum to 2, expected 3$"):
        CoverSpec(genus=1, alpha=3, boundary_degrees=((2,),))


def test_base_euler_characteristic():
    spec = CoverSpec(genus=2, alpha=1, boundary_degrees=((1,), (1,)))
    assert spec.base_euler == 2 - 4 - 2


# --- parity -----------------------------------------------------------------------


def test_parity_rejects_single_double_circle():
    assert not parity_check(CoverSpec(genus=1, alpha=2, boundary_degrees=((2,),)))


def test_parity_accepts_split_circles():
    assert parity_check(CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),)))


def test_parity_accepts_degree_one_covers():
    for genus in (1, 2):
        for boundary in (1, 2):
            spec = CoverSpec(
                genus=genus, alpha=1, boundary_degrees=tuple(((1,),) * boundary)
            )
            assert parity_check(spec)


# --- finding covers ----------------------------------------------------------------


def test_find_cover_split_circles():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),))
    cert = find_cover(spec)
    assert verify_cover(spec, cert) == []


def test_find_cover_three_cycle_as_commutator():
    spec = CoverSpec(genus=1, alpha=3, boundary_degrees=((3,),))
    cert = find_cover(spec)
    assert verify_cover(spec, cert) == []
    assert cycle_type(cert.all_z()[0]) == (3,)


def test_find_cover_rejects_parity_failure():
    with pytest.raises(ParityError):
        find_cover(CoverSpec(genus=1, alpha=2, boundary_degrees=((2,),)))


def test_find_cover_is_deterministic():
    spec = CoverSpec(genus=1, alpha=4, boundary_degrees=((2, 2),))
    assert find_cover(spec) == find_cover(spec)


def test_covers_draws_nothing_at_random():
    assert not hasattr(covers, "random")


def is_even(p) -> bool:
    return (len(p) - len(cycle_type(p))) % 2 == 0


def test_alpha_cycle_split_of_every_small_even_permutation():
    split = 0
    for alpha in range(1, 8):
        for pi in permutations(range(alpha)):
            if not is_even(pi):
                continue
            x, s = alpha_cycle_split(pi)
            assert cycle_type(x) == cycle_type(s) == (alpha,), pi
            assert compose(x, s) == pi, pi
            split += 1
    assert split == 1 + 1 + 3 + 12 + 60 + 360 + 2520


def random_even(rng: random.Random, alpha: int) -> tuple[int, ...]:
    points = list(range(alpha))
    rng.shuffle(points)
    if alpha > 1 and not is_even(tuple(points)):
        points[0], points[1] = points[1], points[0]
    return tuple(points)


def test_alpha_cycle_split_rejects_odd_permutations():
    for pi in [(1, 0), (1, 0, 2, 3), (1, 2, 3, 0)]:
        with pytest.raises(ValueError):
            alpha_cycle_split(pi)


def test_alpha_cycle_split_merges_three_cycles_per_move(monkeypatch):
    moves = []
    relink = covers._relink

    def counted(*args):
        moves.append(args)
        relink(*args)

    monkeypatch.setattr(covers, "_relink", counted)
    rng = random.Random("split-moves")
    for alpha in (1, 2, 3, 7, 50, 400):
        start = inverse(perm_from_cycle_lengths(alpha, (alpha,), list(range(alpha))))
        for pi in [identity_perm(alpha), *(random_even(rng, alpha) for _ in range(10))]:
            moves.clear()
            x, s = alpha_cycle_split(pi)
            assert cycle_type(s) == (alpha,) and compose(x, s) == pi
            assert len(moves) == (len(cycle_type(compose(start, pi))) - 1) // 2


def all_specs(genera, boundaries, alphas):
    for genus in genera:
        for boundary in boundaries:
            for alpha in alphas:
                for degrees in product(boundary_partitions(alpha), repeat=boundary):
                    yield CoverSpec(genus=genus, alpha=alpha, boundary_degrees=degrees)


def test_find_cover_builds_every_small_parity_valid_spec():
    """Every even permutation being a product of two alpha-cycles is what
    makes the construction terminate; check it on every small spec, and the
    parity criterion against the exhaustive oracle wherever it is cheap."""
    built = oracle_checked = 0
    for spec in all_specs((1, 2, 3), (1, 2, 3), range(1, 7)):
        if _enumeration_cost(spec.genus, spec.boundary_count, spec.alpha) <= 600_000:
            assert cover_exists_bruteforce(spec) == parity_check(spec), spec
            oracle_checked += 1
        if not parity_check(spec):
            with pytest.raises(ParityError):
                find_cover(spec)
            continue
        assert verify_cover(spec, find_cover(spec)) == [], spec
        built += 1
    assert built > 3000 and oracle_checked > 200


def near_identity(alpha: int) -> tuple[int, ...]:
    return (2, 2) + (1,) * (alpha - 4)


@pytest.mark.parametrize("alpha", [16, 17, 18, 40, 101, 400, 2000, 2001])
def test_find_cover_near_identity_and_large_degrees(alpha):
    closing = (alpha,) if alpha % 2 else (alpha - 1, 1)
    specs = [
        CoverSpec(genus=1, alpha=alpha, boundary_degrees=(near_identity(alpha),)),
        CoverSpec(genus=2, alpha=alpha, boundary_degrees=(closing, near_identity(alpha))),
        CoverSpec(genus=1, alpha=alpha, boundary_degrees=(closing,)),
        CoverSpec(genus=3, alpha=alpha, boundary_degrees=((1,) * alpha,) * 3),
    ]
    for spec in specs:
        assert parity_check(spec), spec
        assert verify_cover(spec, find_cover(spec)) == [], spec


def test_find_cover_never_runs_the_exhaustive_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("find_cover reached the exhaustive enumeration")

    monkeypatch.setattr(covers, "_achievable_types", refuse)
    monkeypatch.setattr(covers, "_sym_group", refuse)
    for spec in all_specs((1, 2), (1, 2), range(1, 6)):
        if parity_check(spec):
            assert verify_cover(spec, find_cover(spec)) == []


@pytest.mark.parametrize(
    "genus, degrees",
    [(2, ((3,), (1, 1, 1))), (1, ((40,), (20, 19, 1), (2, 2) + (1,) * 36)), (3, ((401,), (401,)))],
)
def test_relator_product_of_any_certificate_is_identity(genus, degrees):
    spec = CoverSpec(genus=genus, alpha=sum(degrees[0]), boundary_degrees=degrees)
    cert = find_cover(spec)
    word = [commutator(x, y) for x, y in zip(cert.x, cert.y)]
    word.extend(cert.all_z())
    assert word_product(word, spec.alpha) == identity_perm(spec.alpha)
    # The implied z is multiplied out once: a later call returns the same
    # tuple, and it equals the textbook product of the relation.
    last = cert.last_z()
    assert cert.last_z() is last and cert.all_z()[-1] is last
    relation = [textbook_commutator(x, y) for x, y in zip(cert.x, cert.y)] + list(cert.z)
    assert last == textbook_inverse(textbook_word_product(relation, spec.alpha))


def random_perm(rng: random.Random, alpha: int) -> tuple[int, ...]:
    points = list(range(alpha))
    rng.shuffle(points)
    return tuple(points)


@pytest.mark.parametrize("alpha", [1, 2, 3, 40, 401])
def test_permutation_kernels_match_the_textbook_ones(alpha):
    rng = random.Random(alpha)
    perms = [random_perm(rng, alpha) for _ in range(6)]
    for p, q in zip(perms, perms[1:]):
        assert compose(p, q) == textbook_compose(p, q)
        assert inverse(p) == textbook_inverse(p)
        assert commutator(p, q) == textbook_commutator(p, q)
    for k in range(len(perms) + 1):
        word = perms[:k]
        got = word_product(word, alpha)
        assert type(got) is tuple and got == textbook_word_product(word, alpha)


@pytest.mark.parametrize("alpha", [1, 2, 3, 40, 401])
def test_is_transitive_matches_the_textbook_orbit_search(alpha):
    # Random permutations are mostly transitive together; products of a few
    # random transpositions and the identity mostly are not.
    rng = random.Random(alpha)
    for _ in range(30):
        gens = []
        for _ in range(rng.randrange(4)):
            if rng.random() < 0.3:
                gens.append(random_perm(rng, alpha))
                continue
            points = list(range(alpha))
            for _ in range(rng.randrange(alpha)):
                i, j = rng.randrange(alpha), rng.randrange(alpha)
                points[i], points[j] = points[j], points[i]
            gens.append(tuple(points))
        assert is_transitive(gens, alpha) == textbook_is_transitive(gens, alpha), gens


# --- exhaustive existence oracle ------------------------------------------------------


def test_bruteforce_rejects_single_double_circle():
    assert not cover_exists_bruteforce(
        CoverSpec(genus=1, alpha=2, boundary_degrees=((2,),))
    )


def test_bruteforce_accepts_split_circles():
    assert cover_exists_bruteforce(
        CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),))
    )


def test_bruteforce_accepts_trivial_cover():
    assert cover_exists_bruteforce(
        CoverSpec(genus=2, alpha=1, boundary_degrees=((1,),))
    )


def test_bruteforce_refuses_oversized_enumeration():
    spec = CoverSpec(genus=2, alpha=5, boundary_degrees=((5,), (5,)))
    with pytest.raises(BudgetExceededError):
        cover_exists_bruteforce(spec)


# --- certificate verification ----------------------------------------------------------


def test_verify_cover_flags_wrong_degree():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),))
    cert = find_cover(spec)
    wrong = CoverCertificate(alpha=3, x=cert.x, y=cert.y, z=cert.z)
    assert verify_cover(spec, wrong)


def test_verify_cover_flags_wrong_cycle_type():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=((2,),))
    cert = CoverCertificate(alpha=2, x=(identity_perm(2),), y=(identity_perm(2),), z=())
    assert any("cycle type" in v for v in verify_cover(spec, cert))


def test_verify_cover_flags_intransitive_action():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),))
    cert = CoverCertificate(alpha=2, x=(identity_perm(2),), y=(identity_perm(2),), z=())
    assert any("transitive" in v for v in verify_cover(spec, cert))


def test_verify_cover_flags_non_permutation():
    spec = CoverSpec(genus=1, alpha=2, boundary_degrees=((1, 1),))
    cert = CoverCertificate(alpha=2, x=((0, 0),), y=(identity_perm(2),), z=())
    assert any("not a permutation" in v for v in verify_cover(spec, cert))


def boundary_partitions(alpha: int):
    def parts(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    return list(parts(alpha, alpha))


@settings(max_examples=60, deadline=None)
@given(
    strategies.integers(min_value=1, max_value=2),
    strategies.integers(min_value=1, max_value=2),
    strategies.integers(min_value=1, max_value=4),
    strategies.randoms(use_true_random=False),
)
def test_found_covers_always_verify_and_rederive_parity(genus, boundary, alpha, rng):
    degrees = tuple(rng.choice(boundary_partitions(alpha)) for _ in range(boundary))
    spec = CoverSpec(genus=genus, alpha=alpha, boundary_degrees=degrees)
    if not parity_check(spec):
        return
    cert = find_cover(spec)
    assert verify_cover(spec, cert) == []
    upstairs = sum(len(inner) for inner in degrees)
    assert (upstairs - alpha * spec.base_euler) % 2 == 0
