"""Bench-side rechecks of the program's outputs, sharing no code with gmsurf.

Each check returns a list of problems (empty = accepted).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from gen import decomposition_matrix


def check_analyze(op: dict, code: int, stdout: str) -> list[str]:
    if code != op["exit"]:
        return [f"exit code {code}, expected {op['exit']}"]
    report = json.loads(stdout)
    problems = []
    for key in ("branch", "property_i", "property_ve"):
        if report.get(key) != op[key]:
            problems.append(f"{key} = {report.get(key)!r}, expected {op[key]!r}")
    return problems


def check_certificate(manifold: dict, cert: dict) -> list[str]:
    """All degrees positive, A' a strict reduction of the decomposition
    matrix with A' * degrees = 0 exactly, and a_plus + a_minus = degree on
    every torus side."""
    A = decomposition_matrix(manifold)
    n = len(A)
    degrees = cert["degrees"]
    a_prime = [[Fraction(x) for x in row] for row in cert["reduction"]["a_prime"]]
    if len(degrees) != n or len(a_prime) != n or any(len(row) != n for row in a_prime):
        return [f"certificate shape does not match {n} pieces"]
    problems = []
    if any(not isinstance(d, int) or d <= 0 for d in degrees):
        problems.append(f"degrees not all positive: {degrees}")
    for i in range(n):
        if a_prime[i][i] != A[i][i]:
            problems.append(f"A' changes the diagonal at {i}")
        for j in range(n):
            if i != j and A[i][j] == 0 and a_prime[i][j] != 0:
                problems.append(f"A' nonzero at ({i}, {j}) where A is zero")
            if i != j and A[i][j] != 0 and abs(a_prime[i][j]) >= A[i][j]:
                problems.append(f"A' not strictly smaller at ({i}, {j})")
        if sum(a_prime[i][j] * degrees[j] for j in range(n)) != 0:
            problems.append(f"(A' * degrees)[{i}] != 0")
    index = {p["id"]: k for k, p in enumerate(manifold["pieces"])}
    for s in cert["systems"]:
        if s["a_plus"] + s["a_minus"] != degrees[index[s["side"]]]:
            problems.append(f"torus {s['torus']} side {s['side']}: a_plus + a_minus != degree")
    return problems


_CYCLE = re.compile(r"\(([\d ]+)\)")


def parse_cycles(text: str, alpha: int) -> tuple[int, ...]:
    """'(0 1 2)(3 4)' -> permutation tuple; fixed points are omitted."""
    perm = list(range(alpha))
    for body in _CYCLE.findall(text):
        points = [int(x) for x in body.split()]
        if any(x >= alpha for x in points):
            raise ValueError(f"point outside 0..{alpha - 1}: {text}")
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    if sorted(perm) != list(range(alpha)):
        raise ValueError(f"not a permutation of 0..{alpha - 1}: {text}")
    return tuple(perm)


def _compose(p, q):
    """Apply q first, then p."""
    return tuple(p[i] for i in q)


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _cycle_type(p) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(p)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def check_cover(op: dict, witness: dict) -> list[str]:
    """The surface relation [x1,y1]...[xg,yg] z1...zb = 1, the prescribed
    cycle type on every boundary circle, and a transitive action."""
    alpha, genus, degrees = op["alpha"], op["genus"], op["degrees"]
    try:
        xs = [parse_cycles(t, alpha) for t in witness["x"]]
        ys = [parse_cycles(t, alpha) for t in witness["y"]]
        zs = [parse_cycles(t, alpha) for t in witness["z"]] + [parse_cycles(witness["last_z"], alpha)]
    except ValueError as exc:
        return [str(exc)]
    if witness["alpha"] != alpha or len(xs) != genus or len(ys) != genus or len(zs) != len(degrees):
        return ["witness shape does not match the spec"]
    problems = []
    word = []
    for x, y in zip(xs, ys):
        word.append(_compose(_compose(x, y), _compose(_inverse(x), _inverse(y))))
    product = tuple(range(alpha))
    for w in reversed(word + zs):
        product = _compose(w, product)
    if product != tuple(range(alpha)):
        problems.append("the surface relation does not hold")
    for j, (z, want) in enumerate(zip(zs, degrees)):
        if _cycle_type(z) != sorted(want, reverse=True):
            problems.append(f"circle {j}: cycle type {_cycle_type(z)} != {sorted(want, reverse=True)}")
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for g in xs + ys + zs:
            if g[i] not in reached:
                reached.add(g[i])
                stack.append(g[i])
    if len(reached) != alpha:
        problems.append("the action is not transitive")
    return problems
