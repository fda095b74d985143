"""Verdicts that must not move under transformations that keep the manifold
or the inertia, at sizes the dense oracles cannot reach.

- *Relabel and reverse:* the pieces get new ids, the pieces and tori are
  shuffled, and every other torus is seen from the other side, (from, to,
  p, q, q', p') -> (to, from, p, q', q, p') as the `GluingTorus` docstring
  reads.  The manifold is the same, so `analyze` must give the same
  verdict, and `certify` on the new description must write a certificate
  that `verify` accepts.
- *Diagonal congruence:* A becomes D*A*D for a positive diagonal D, of
  integers or of fractions from 1/9 to 9.
  Then (D*A*D)-minus = D*A-minus*D and the blocks are D's restrictions of
  A's, so by Sylvester's law of inertia `matrix` on D*A*D must give the
  verdict and blocks that `analyze` gives on the manifold, and its
  reduction must verify against D*A*D, not against A.

No oracle is consulted: each side of a comparison is a command's own
output.  Tier-1 budget: 15 s for this module (7.5 s on one core of an
Intel Xeon server), most of it the reductions of D*A*D.
"""

import json
import random
from fractions import Fraction

import pytest

from gmsurf.cli import main
from gmsurf.exact_linalg import SymMatrix
from gmsurf.fileio import _reduction_from_json, load_json, load_manifold, rows_to_json
from gmsurf.generate import PROFILES, generate_manifold
from gmsurf.manifold import DecompositionGraph, GluingTorus, SeifertPiece, decomposition_matrix
from gmsurf.reduction import verify_reduction

from test_fileio import save_manifold

PIECES = 1000
# The exact step's fill-in on a singular D*S*D grows fast (ROADMAP item 8:
# `decide` on the 1,000-piece one takes about 40 s), so the semidefinite
# congruence runs at 200 pieces until that item is done.
DAD_PIECES = {"any": PIECES, "negdef": PIECES, "posEig": PIECES, "semidef": 200}


def relabel_and_reverse(G: DecompositionGraph, rng: random.Random) -> DecompositionGraph:
    """G with new piece ids, its pieces and tori shuffled, and every other
    torus seen from the other side."""
    ids = rng.sample(range(1, 10 * len(G.pieces)), len(G.pieces))
    rename = {p.id: new for p, new in zip(G.pieces, ids)}
    pieces = [SeifertPiece(rename[p.id], p.euler, p.genus, p.cone_orders) for p in G.pieces]
    tori = []
    for k, t in enumerate(G.tori):
        f, g = rename[t.from_piece], rename[t.to_piece]
        if k % 2:
            tori.append(GluingTorus(g, f, t.p, t.q_prime, t.q, t.p_prime))
        else:
            tori.append(GluingTorus(f, g, t.p, t.q, t.q_prime, t.p_prime))
    rng.shuffle(pieces)
    rng.shuffle(tori)
    return DecompositionGraph(pieces=tuple(pieces), tori=tuple(tori))


def report(argv: list[str], capsys) -> tuple[int, dict]:
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def verdict(doc: dict) -> tuple:
    return doc["branch"], doc["property_i"], doc["property_ve"], doc["perron_sign"]


@pytest.mark.parametrize("profile", PROFILES)
def test_relabelled_and_reversed_manifolds_keep_their_verdict(profile, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    G = generate_manifold(PIECES, seed=3, profile=profile)
    H = relabel_and_reverse(G, random.Random(1))
    assert H.pieces != G.pieces and H.tori != G.tori
    save_manifold(G, "g.json")
    save_manifold(H, "h.json")
    assert load_manifold("h.json") == H
    code_g, doc_g = report(["analyze", "g.json", "--json"], capsys)
    code_h, doc_h = report(["analyze", "h.json", "--json"], capsys)
    assert (code_h, verdict(doc_h)) == (code_g, verdict(doc_g))
    sizes = {key: len(value) for key, value in doc_g["blocks"].items()}
    assert {key: len(value) for key, value in doc_h["blocks"].items()} == sizes
    assert doc_h["notes"] == doc_g["notes"]
    if doc_g["branch"] != "PositiveEigenvalue":
        assert main(["certify", "h.json", "--out", "cert.json"]) == 3
        return
    assert main(["certify", "h.json", "--out", "cert.json"]) == 0
    capsys.readouterr()
    assert report(["verify", "h.json", "cert.json", "--json"], capsys) == (0, {"valid": True, "violations": []})


# A positive diagonal entry of D: an int, or a fraction p/q with p and q in
# 1..9, which changes the row scales (lcm of a row's denominators) that the
# strict reduction's row precision reads.  The strict reduction is built on
# the positive-eigenvalue branch alone, so only posEig takes the rational D,
# which keeps the module within its time budget.
SCALES = {
    "integer": lambda rng: rng.randint(1, 16),
    "rational": lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
}


@pytest.mark.parametrize(
    "profile, scale",
    [pytest.param(profile, "integer", id=profile) for profile in PROFILES]
    + [pytest.param("posEig", "rational", id="posEig-rational")],
)
def test_a_diagonal_congruence_keeps_the_matrix_verdict(profile, scale, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    n = DAD_PIECES[profile]
    save_manifold(generate_manifold(n, seed=3, profile=profile), "m.json")
    A = decomposition_matrix(load_manifold("m.json"))
    rng = random.Random(2)
    d = [SCALES[scale](rng) for _ in range(n)]
    DAD = SymMatrix([{j: d[i] * x * d[j] for j, x in row.items()} for i, row in enumerate(A.sparse)])
    with open("dad.json", "w") as f:
        json.dump(rows_to_json(DAD.sparse), f)
    code_a, doc_a = report(["analyze", "m.json", "--json"], capsys)
    code_d, doc_d = report(["matrix", "dad.json", "--json", "--out", "red.json"], capsys)
    assert (code_d, verdict(doc_d), doc_d["blocks"]) == (code_a, verdict(doc_a), doc_a["blocks"])
    if doc_a["branch"] == "NegativeDefinite":
        assert doc_d["reduction"] is None
        return
    # `verify` checks the reduction file against the matrix it names.
    assert report(["verify", "dad.json", "red.json", "--json"], capsys) == (0, {"valid": True, "violations": []})
    assert verify_reduction(DAD, _reduction_from_json(load_json("red.json"))) == []
    code, doc = report(["verify", "m.json", "red.json", "--json"], capsys)
    assert code == 4 and doc["valid"] is False
