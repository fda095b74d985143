"""The generator is deterministic per seed, and its expected outcomes agree
with an oracle that shares no code with gmsurf or with the generator."""

import json
from fractions import Fraction

import pytest

import gen

SEEDS = (0, 1, 7)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    def round_of(seed, r, name):
        directory = tmp_path / name
        ops = gen.make_round(workload, seed, r, directory)
        return _files(directory), json.dumps(ops).replace(str(directory), "")

    for r in range(2):
        assert round_of(5, r, f"a{r}") == round_of(5, r, f"b{r}")
    assert round_of(6, 0, "c") != round_of(5, 0, "a0")


# --- oracle: characteristic polynomial and Descartes' rule -----------------


def char_poly(m):
    """Coefficients c[0..n] of det(x I - M) by Faddeev-LeVerrier."""
    n = len(m)
    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(m[i][t] * acc[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        acc = [[prod[i][j] + (c[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(m[i][t] * acc[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c[n - k] = -sum(am[i][i] for i in range(n)) / k
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def oracle_inertia(m):
    """(n_pos, n_zero, n_neg): the roots are real, so Descartes' rule is exact."""
    if not m:
        return 0, 0, 0
    c = char_poly(m)
    n_zero = next(i for i, x in enumerate(c) if x != 0)
    n_pos = _sign_changes(c)
    n_neg = _sign_changes([x * (-1) ** i for i, x in enumerate(c)])
    return n_pos, n_zero, n_neg


def oracle_verdict(a):
    n = len(a)
    minus = [[(-abs(a[i][j]) if i == j else a[i][j]) for j in range(n)] for i in range(n)]
    pos, zero, _ = oracle_inertia(minus)
    diag = [a[i][i] for i in range(n)]
    if pos:
        branch, prop_i = "PositiveEigenvalue", True
    elif zero:
        same = all(d >= 0 for d in diag) or all(d <= 0 for d in diag)
        branch, prop_i = ("SemidefiniteSameSign", True) if same else ("SemidefiniteMixedSign", False)
    else:
        branch, prop_i = "NegativeDefinite", False

    def definite(idx, flip):
        sub = [[(-a[i][j] if flip and i == j else a[i][j]) for j in idx] for i in idx]
        p, z, _ = oracle_inertia(sub)
        return p == 0 and z == 0

    if any(d == 0 for d in diag):
        prop_ve = True
    else:
        plus = [i for i in range(n) if diag[i] > 0]
        minus_idx = [i for i in range(n) if diag[i] < 0]
        prop_ve = not definite(plus, True) or not definite(minus_idx, False)
    return branch, prop_i, prop_ve


def test_oracle_on_known_matrices():
    assert oracle_inertia([[Fraction(2), 0], [0, Fraction(-3)]]) == (1, 0, 1)
    assert oracle_inertia([[Fraction(-1), 1], [1, Fraction(-1)]]) == (0, 1, 1)
    assert oracle_inertia([[Fraction(0), 1], [1, Fraction(0)]]) == (1, 0, 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (5, 6, 8))
@pytest.mark.parametrize("cls", sorted(gen.VERDICT_CLASSES))
def test_verdict_classes_match_oracle(seed, n, cls):
    doc = gen.verdict_manifold(gen._rng(seed, "oracle", n, cls), n, cls)
    assert oracle_verdict(gen.decomposition_matrix(doc)) == gen.VERDICT_CLASSES[cls]


@pytest.mark.parametrize("n", range(4, 10))
def test_path_closes_only_on_the_full_path(n):
    doc = gen.path_manifold(gen._rng(3, "path", n), n)
    a = gen.decomposition_matrix(doc)
    assert oracle_inertia(a)[0] == 1
    assert oracle_inertia([row[:-1] for row in a[:-1]]) == (0, 0, n - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", gen.RANDOM_CERTIFY_SIZES[:6])
@pytest.mark.parametrize("zero", (True, False))
def test_random_certify_inputs_have_a_positive_eigenvalue(seed, n, zero):
    doc = gen.random_certify_manifold(gen._rng(seed, "cert", n), n, zero)
    assert oracle_verdict(gen.decomposition_matrix(doc))[0] == "PositiveEigenvalue"


@pytest.mark.parametrize("seed", SEEDS)
def test_cover_specs_are_parity_valid_and_never_repeat_a_key(tmp_path, seed):
    keys = set()
    for r in range(gen.max_rounds("cover-find")):
        ops = gen.make_round("cover-find", seed, r, tmp_path / str(r))
        assert sum(op["near_identity"] for op in ops) == 1
        for op in ops:
            assert gen.parity_ok(op["genus"], op["degrees"])
            assert all(sum(circle) == op["alpha"] for circle in op["degrees"])
            key = (op["genus"], len(op["degrees"]), op["alpha"])
            assert key not in keys
            keys.add(key)
