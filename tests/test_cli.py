"""End-to-end tests of the command-line interface and its exit-code contract.

Exit codes: 0 property holds / certificate verified, 1 property fails,
2 input or output error, 3 certificate unavailable, 4 certificate invalid, 5 internal
error.
"""

import ast
import copy
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies

from gmsurf import cli, covers, decision, exact_linalg, fileio, generate
from gmsurf.cli import main
from gmsurf.covers import commutator, cycle_type, identity_perm, is_transitive, word_product
from gmsurf.fileio import load_json, manifold_to_json, reduction_cert_to_json, rows_to_json, save_json, surface_cert_to_json
from gmsurf.generate import generate_manifold
from gmsurf.manifold import (
    DecompositionGraph,
    GluingTorus,
    SeifertPiece,
    decomposition_matrix,
    split_blocks,
    two_piece_graph,
)
from gmsurf.reduction import find_singular_reduction
from gmsurf.surface import build_surface_certificate
from oracles import replace, to_lists
from test_fileio import any_json, json_scalars, reduction_docs, save_manifold, surface_docs
from test_surface import count_calls


def write_manifold(tmp_path, name, e1, e2, **torus_kwargs):
    kwargs = {"from_piece": 1, "to_piece": 2, "p": 1}
    kwargs.update(torus_kwargs)
    G = two_piece_graph(e1, e2, tori=(GluingTorus(**kwargs),))
    path = tmp_path / name
    save_manifold(G, path)
    return path


# --- analyze -----------------------------------------------------------------


def test_analyze_fibering_pair_holds(tmp_path, capsys):
    path = write_manifold(tmp_path, "m.json", -1, -1)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "D = 1" in out


def test_analyze_json_report_is_exact(tmp_path, capsys):
    path = write_manifold(tmp_path, "m.json", -1, -1)
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["property_i"] is True
    assert report["property_ve"] is True
    assert report["two_piece"]["d"] == "1"
    assert report["matrix"] == [{"0": "-1", "1": "1"}, {"1": "-1"}]
    assert "a_minus" not in report


def test_analyze_reads_only_the_nonzeros(tmp_path, monkeypatch, capsys):
    # 200 pieces: each nonzero on and above the diagonal is written once, in
    # ascending column order, no zero is written, and decide hands the
    # Perron search dict rows only and takes no inertia.
    G = generate_manifold(200, seed=2, profile="posEig")
    path = tmp_path / "m.json"
    save_manifold(G, path)
    written, seen = [], []
    for module in (cli, fileio):
        monkeypatch.setattr(module, "rational_str", lambda x: written.append(x) or exact_linalg.rational_str(x))
    real_scaled, inertias = decision._scaled, []
    monkeypatch.setattr(decision, "_scaled", lambda B: seen.append(B) or real_scaled(B))
    monkeypatch.setattr(decision, "inertia", lambda B: inertias.append(B))
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    A = decomposition_matrix(G)
    upper = [
        {str(j): exact_linalg.rational_str(x) for j, x in enumerate(row) if x and j >= i}
        for i, row in enumerate(to_lists(A))
    ]
    assert len(written) == sum(map(len, upper))
    assert report["matrix"] == upper
    assert [list(row) for row in report["matrix"]] == [sorted(row, key=int) for row in upper]
    assert seen and all(isinstance(row, dict) for B in seen for row in B)
    assert inertias == []


def test_analyze_takes_no_inertia_at_1000_pieces(tmp_path, monkeypatch, capsys):
    # A count gate, not a clock: on the 1,000-piece posEig input the one
    # Perron search of A-minus settles I, and a zero diagonal settles VE.
    path = tmp_path / "m.json"
    assert main(["gen", "1000", "--seed", "3", "--profile", "posEig", "--out", str(path)]) == 0
    capsys.readouterr()
    counts = count_calls(monkeypatch, ("inertia", "_congruence", "_perron_search"))
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["perron_sign"], report["property_ve"], bool(report["blocks"]["zero"])) == (1, True, True)
    assert counts == {"inertia": 0, "_congruence": 0, "_perron_search": 1}


def test_each_matrix_is_checked_once(tmp_path, monkeypatch, capsys):
    # The SymMatrix constructor checks every matrix the package makes, and
    # only those: decide reads A-minus as A's rows, the surface builder makes
    # A and keeps the shrunk matrix in pair rows, analyze makes A, certify
    # makes the builder's A and the verifier's own, and matrix makes the
    # matrix it reads: the reduction searches each component's rows as they
    # are.  64 pieces, 281 nonzeros.
    G = generate_manifold(64, seed=3, profile="posEig")
    path, matrix_path = tmp_path / "m.json", tmp_path / "a.json"
    save_manifold(G, path)
    A = decomposition_matrix(G)
    save_json(rows_to_json(A.sparse), matrix_path)
    checks = []
    real_check = exact_linalg.SymMatrix.__init__
    monkeypatch.setattr(
        exact_linalg.SymMatrix, "__init__", lambda M, sparse: checks.append(M) or real_check(M, sparse)
    )

    def count(run) -> int:
        checks.clear()
        run()
        return len(checks)

    assert count(lambda: decision.decide(A)) == 0
    assert count(lambda: build_surface_certificate(G)) == 1
    assert count(lambda: main(["analyze", str(path), "--json"])) == 1
    assert count(lambda: main(["certify", str(path), "--out", str(tmp_path / "c.json")])) == 2
    assert count(lambda: main(["matrix", str(matrix_path)])) == 1
    capsys.readouterr()


def test_analyze_splits_the_diagonal_once(tmp_path, monkeypatch, capsys):
    # decide splits A's diagonal by sign and its verdict carries the split
    # to the report.
    path = tmp_path / "m.json"
    save_manifold(generate_manifold(64, seed=3, profile="posEig"), path)
    calls = []
    real_split = split_blocks
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gmsurf.") and hasattr(module, "split_blocks"):
            monkeypatch.setattr(module, "split_blocks", lambda A: calls.append(A) or real_split(A))
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report["blocks"] == dict(zip(("positive", "negative", "zero"), real_split(calls[0])))


def test_analyze_report_is_linear_in_the_pieces(tmp_path, capsys):
    # 1,000 negative-definite pieces: dense rows of A and A-minus made a
    # 22 MB report and a 43 MB peak; the upper-triangle nonzeros take 0.08 MB.
    path = tmp_path / "m.json"
    save_manifold(generate_manifold(1000, seed=3, profile="negdef"), path)
    tracemalloc.start()
    try:
        code = main(["analyze", str(path), "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 1 and json.loads(out)["branch"] == "NegativeDefinite"
    assert len(out.encode()) < 200_000
    assert peak < 10_000_000


def test_analyze_negative_definite_pair_fails(tmp_path, capsys):
    path = write_manifold(tmp_path, "m.json", -2, -2)
    assert main(["analyze", str(path)]) == 1
    assert "D = 4" in capsys.readouterr().out


def test_analyze_self_gluing_is_input_error(tmp_path, capsys):
    doc = {
        "pieces": [{"id": 1, "euler": "-1", "genus": 1}],
        "tori": [{"from": 1, "to": 1, "p": 1}],
    }
    path = tmp_path / "bad.json"
    save_json(doc, path)
    assert main(["analyze", str(path)]) == 2
    assert "self-gluing" in capsys.readouterr().err


def test_analyze_missing_file_is_input_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_analyze_float_euler_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"pieces": [{"id": 1, "euler": 0.5, "genus": 1}], "tori": []}'
    )
    assert main(["analyze", str(path)]) == 2


# --- certify and verify --------------------------------------------------------


# The two-piece certificate of the README.
TWO_PIECE_CERTIFICATE = {
    "degrees": [2, 2],
    "scale": 2,
    "reduction": {"a_prime": [["0", "0"], ["0", "0"]], "a": ["2", "2"]},
    "systems": [
        {"torus": 0, "side": 1, "a_plus": 1, "a_minus": 1, "b_plus": 0, "b_minus": -2},
        {"torus": 0, "side": 2, "a_plus": 1, "a_minus": 1, "b_plus": 0, "b_minus": -2},
    ],
}


def test_certify_then_verify_round_trip(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    assert cert.exists()
    assert main(["verify", str(manifold), str(cert)]) == 0
    assert load_json(cert) == TWO_PIECE_CERTIFICATE


# The first is the shrunk matrix that certify wrote into this certificate
# while the format still carried one.
@pytest.mark.parametrize("shrunk", [[["0", "1/2"], ["1/2", "0"]], [["5"]], "not a matrix"])
def test_verify_ignores_the_shrunk_matrix_of_older_certificates(tmp_path, capsys, shrunk):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    outputs = []
    for doc in ({**TWO_PIECE_CERTIFICATE, "shrunk": shrunk}, TWO_PIECE_CERTIFICATE):
        cert = tmp_path / "cert.json"
        save_json(doc, cert)
        assert main(["verify", str(manifold), str(cert), "--json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == ('{"valid": true, "violations": []}\n', "")


# Only a reduction file's embedded matrix is read; in a surface certificate's
# reduction block the key is ignored, as "shrunk" is above.
@pytest.mark.parametrize("matrix", [[["x"]], [["0", "1"], ["1", "0"]], "not a matrix"])
def test_verify_ignores_a_matrix_in_a_surface_certificates_reduction(tmp_path, capsys, matrix):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    reduction = {**TWO_PIECE_CERTIFICATE["reduction"], "matrix": matrix}
    save_json({**TWO_PIECE_CERTIFICATE, "reduction": reduction}, cert)
    assert main(["verify", str(manifold), str(cert), "--json"]) == 0
    assert capsys.readouterr() == ('{"valid": true, "violations": []}\n', "")


def test_certify_negative_definite_is_unavailable(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", -2, -2)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 3
    assert not cert.exists()


def test_certify_semidefinite_is_unavailable(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", -1, -1)
    assert main(["certify", str(manifold), "--out", str(tmp_path / "c.json")]) == 3


@pytest.mark.parametrize(
    "e1, e2, branch",
    [(-2, -2, "NegativeDefinite"), (-1, -1, "SemidefiniteSameSign"), (1, -1, "SemidefiniteMixedSign")],
)
def test_certify_off_the_branch_names_it(tmp_path, capsys, e1, e2, branch):
    manifold = write_manifold(tmp_path, "m.json", e1, e2)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 3
    assert capsys.readouterr() == ("", f"no certificate: decision branch is {branch}\n")
    assert not cert.exists()


def negated_eulers(G: DecompositionGraph) -> DecompositionGraph:
    return replace(G, pieces=tuple(replace(p, euler=-p.euler) for p in G.pieces))


def off_the_branch_corpus() -> list[DecompositionGraph]:
    """gen negdef and semidef inputs at 2-60 pieces, seeds 0-14, each also
    with every Euler number negated, and the three two-piece cases above."""
    graphs = [
        G
        for profile in ("negdef", "semidef")
        for pieces in (2, 3, 5, 10, 20, 60)
        for seed in range(15)
        for G in (generate_manifold(pieces, seed=seed, profile=profile),)
        for G in (G, negated_eulers(G))
    ]
    return graphs + [two_piece_graph(-2, -2), two_piece_graph(-1, -1), two_piece_graph(1, -1)]


def test_certify_names_the_branch_decide_takes(tmp_path, capsys):
    # certify names the branch with no inertia (one positive vector, and at
    # most one exact step); decide reads it off its own sign search.
    manifold, cert = tmp_path / "m.json", tmp_path / "c.json"
    seen = set()
    for G in off_the_branch_corpus():
        save_manifold(G, manifold)
        branch = decision.decide(decomposition_matrix(G)).branch.value
        assert main(["certify", str(manifold), "--out", str(cert)]) == 3
        assert capsys.readouterr() == ("", f"no certificate: decision branch is {branch}\n")
        seen.add(branch)
    assert seen == {"NegativeDefinite", "SemidefiniteSameSign", "SemidefiniteMixedSign"}


def assert_one_line_input_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_certify_unwritable_out_is_input_error(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    assert main(["certify", str(manifold), "--out", str(tmp_path / "missing" / "c.json")]) == 2
    assert_one_line_input_error(capsys)


def test_certify_builds_the_matrix_twice_and_verifies_once(tmp_path, monkeypatch):
    from gmsurf import surface

    calls = {"decomposition_matrix": 0, "verify_surface_certificate": 0}
    for module in (cli, surface):
        for name in calls:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    assert main(["certify", str(manifold), "--out", str(tmp_path / "c.json")]) == 0
    # one build in the builder, one in the independent verifier
    assert calls == {"decomposition_matrix": 2, "verify_surface_certificate": 1}


def test_certify_self_gluing_is_input_error(tmp_path, capsys):
    doc = {
        "pieces": [{"id": 1, "euler": "0", "genus": 1}],
        "tori": [{"from": 1, "to": 1, "p": 1}],
    }
    path = tmp_path / "bad.json"
    save_json(doc, path)
    assert main(["certify", str(path), "--out", str(tmp_path / "c.json")]) == 2
    assert "self-gluing" in capsys.readouterr().err


@pytest.mark.parametrize("error", [AssertionError, ValueError])
def test_certify_crash_is_internal_error_not_a_verdict(tmp_path, capsys, monkeypatch, error):
    def crash(G):
        raise error("kernel has dimension 2, expected 1")

    monkeypatch.setattr(cli, "build_surface_certificate", crash)
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 5
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "Traceback" in err
    assert not cert.exists()


@pytest.mark.parametrize("error", [AssertionError, ValueError])
@pytest.mark.parametrize("command, target", [("analyze", "decide"), ("verify", "verify_surface_certificate")])
def test_analyze_and_verify_crash_is_internal_error_not_a_verdict(tmp_path, capsys, monkeypatch, command, target, error):
    def crash(*args):
        raise error("kernel has dimension 2, expected 1")

    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    monkeypatch.setattr(cli, target, crash)
    argv = {"analyze": ["analyze", str(manifold)], "verify": ["verify", str(manifold), str(cert)]}[command]
    capsys.readouterr()
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "Traceback" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        (None, "surface certificate: expected an object, got NoneType"),
        (["a_prime"], "surface certificate: expected an object, got list"),
        ("a_prime", "surface certificate: expected an object, got str"),
        ({"a": ["1", "1"]}, "surface certificate: missing required key 'degrees'"),
        ({"reduction": {"a_prime": [], "a": []}}, "surface certificate: missing required key 'degrees'"),
        ({"a_prime": [["0", "0"], ["0", "0"]]}, "reduction certificate: missing required key 'a'"),
    ],
)
def test_verify_reads_the_certificate_kind_from_its_keys(tmp_path, capsys, doc, message):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert main(["verify", str(manifold), str(cert)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("embedded", [True, False])
def test_verify_takes_a_matrix_out_file_as_a_reduction_certificate(monkeypatch, tmp_path, capsys, embedded):
    # Two p = 1 tori give the manifold the matrix that `matrix` reduces.
    G = two_piece_graph(-1, -1, tori=[GluingTorus(from_piece=1, to_piece=2, p=1)] * 2)
    manifold = tmp_path / "m.json"
    save_manifold(G, manifold)
    out = tmp_path / "red.json"
    assert run_matrix(monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out)) == 0
    doc = load_json(out)
    assert "matrix" in doc
    if not embedded:
        del doc["matrix"]
        save_json(doc, out)
    capsys.readouterr()
    assert main(["verify", str(manifold), str(out), "--json"]) == 0
    assert capsys.readouterr() == ('{"valid": true, "violations": []}\n', "")


def test_verify_tampered_certificate_is_invalid(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    doc = load_json(cert)
    doc["systems"][0]["b_minus"] = doc["systems"][0]["b_minus"] + 1
    save_json(doc, cert)
    assert main(["verify", str(manifold), str(cert)]) == 4


def test_verify_mis_sized_reduction_is_invalid(tmp_path, capsys):
    # A 4-piece path whose Euler numbers -3/2 give A-minus a positive eigenvalue.
    G = DecompositionGraph(
        pieces=tuple(SeifertPiece(id=k, euler="-3/2", genus=1) for k in range(1, 5)),
        tori=tuple(GluingTorus(from_piece=k, to_piece=k + 1, p=1) for k in range(1, 4)),
    )
    manifold = tmp_path / "path.json"
    save_manifold(G, manifold)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    doc = load_json(cert)
    doc["reduction"]["a_prime"] = [row[:3] for row in doc["reduction"]["a_prime"][:3]]
    doc["reduction"]["a"] = doc["reduction"]["a"][:3]
    save_json(doc, cert)
    assert main(["verify", str(manifold), str(cert)]) == 4
    assert "shape mismatch: a has 3 entries, a_prime is 3 x 3, matrix order 4" in capsys.readouterr().out
    # A non-square A' is refused by the parser, which names the row.
    doc["reduction"]["a_prime"][1].append("0")
    save_json(doc, cert)
    assert main(["verify", str(manifold), str(cert)]) == 2
    assert assert_one_line_input_error(capsys) == "error: a_prime[1]: expected 3 entries, got 4\n"


def test_verify_against_wrong_manifold_is_invalid(tmp_path, capsys):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    other = write_manifold(tmp_path, "other.json", 0, 0, p=2)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    assert main(["verify", str(other), str(cert)]) == 4


# --- matrix mode -----------------------------------------------------------------


def run_matrix(monkeypatch, text, *args):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return main(["matrix", *args])


def test_matrix_mode_reduces_indefinite_input(monkeypatch, tmp_path, capsys):
    out = tmp_path / "red.json"
    code = run_matrix(
        monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out), "--json"
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["property_i"] is True
    assert report["reduction"]["a_prime"] == [{"0": "-1", "1": "1"}, {"0": "1", "1": "-1"}]
    assert report["reduction"]["a"] == ["1", "1"]
    doc = load_json(out)
    assert doc["a_prime"] == [["-1", "1"], ["1", "-1"]]
    assert doc["matrix"] == [["-1", "2"], ["2", "-1"]]


def test_matrix_mode_reduction_verifies_as_reduction_kind(monkeypatch, tmp_path):
    out = tmp_path / "red.json"
    manifold = write_manifold(tmp_path, "m.json", -1, -1, p=2)
    assert run_matrix(monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out)) == 0
    assert main(["verify", str(manifold), str(out)]) == 0


def test_matrix_mode_unwritable_out_is_input_error(monkeypatch, tmp_path, capsys):
    out = tmp_path / "missing" / "red.json"
    assert run_matrix(monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out)) == 2
    assert_one_line_input_error(capsys)


def test_matrix_crash_is_internal_error_not_a_verdict(monkeypatch, tmp_path, capsys):
    # A ValueError past matrix's argument check is a crash, not an input error.
    def crash(A):
        raise ValueError("kernel has dimension 2, expected 1")

    monkeypatch.setattr(cli, "find_singular_reduction", crash)
    out = tmp_path / "red.json"
    assert run_matrix(monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out)) == 5
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "Traceback" in err
    assert not out.exists()


def test_matrix_mode_reports_failure_without_reduction(monkeypatch, capsys):
    assert run_matrix(monkeypatch, '[["1", "1"], ["1", "-1"]]') == 1
    out = capsys.readouterr().out
    assert "no" in out.lower()


def test_matrix_mode_rejects_negative_off_diagonal(monkeypatch, capsys):
    assert run_matrix(monkeypatch, '[["0", "-1"], ["-1", "0"]]') == 2



@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "empty matrix"),
        ('[["-1", "1", "-1"], ["1", "-1", "-2"], ["-1", "-2", "-1"]]', "negative off-diagonal entry at (0, 2)"),
        ('[["-1", "1", "0"], ["1", "-1", "0"], ["0", "0", "-1"]]', "matrix graph is disconnected"),
    ],
)
def test_matrix_mode_input_errors_keep_their_text(monkeypatch, capsys, text, message):
    assert run_matrix(monkeypatch, text, "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["analyze", "verify", "matrix", "matrix-stdin"])
def test_deeply_nested_json_is_an_input_error(monkeypatch, tmp_path, capsys, command):
    # The parser's recursion limit is an input error like any malformed JSON.
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    manifold = write_manifold(tmp_path, "m.json", -1, -1)
    argv = {
        "analyze": ["analyze", str(deep)],
        "verify": ["verify", str(manifold), str(deep)],
        "matrix": ["matrix", str(deep)],
        "matrix-stdin": ["matrix", "-"],
    }[command]
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
    assert main(argv) == 2
    captured = capsys.readouterr()
    where = "<stdin>" if command == "matrix-stdin" else str(deep)
    assert (captured.out, captured.err) == ("", f"error: {where}: JSON nested too deeply\n")


def test_matrix_mode_malformed_json_names_its_source(monkeypatch, capsys):
    assert run_matrix(monkeypatch, "{") == 2
    assert capsys.readouterr().err == (
        "error: <stdin>: invalid JSON at line 1: Expecting property name enclosed in double quotes\n"
    )


@pytest.mark.parametrize(
    "text, keys",
    [
        ('[["0"]]', {"notes", "reduction"}),  # a semidefinite zero diagonal
        ('[["-3"]]', set()),  # no reduction
        ('[["-1", "2"], ["2", "-1"]]', {"two_piece", "reduction"}),
        ('[["3/2", "1/3"], ["1/3", "-5"]]', {"two_piece"}),
    ],
)
def test_matrix_mode_json_is_the_standard_one_line_text(monkeypatch, capsys, text, keys):
    run_matrix(monkeypatch, text, "--json")
    out = capsys.readouterr().out
    report = json.loads(out)
    assert {key for key in ("notes", "two_piece", "reduction") if report[key]} == keys
    assert out == json.dumps(report) + "\n"


def test_matrix_mode_rejects_asymmetric_input(monkeypatch, capsys):
    assert run_matrix(monkeypatch, '[["0", "1"], ["2", "0"]]') == 2


def test_matrix_mode_rejects_float_entries(monkeypatch, capsys):
    assert run_matrix(monkeypatch, "[[0.5]]") == 2


def test_verify_reduction_kind_with_tampered_vector(monkeypatch, tmp_path):
    out = tmp_path / "red.json"
    manifold = write_manifold(tmp_path, "m.json", -1, -1, p=2)
    assert run_matrix(monkeypatch, '[["-1", "2"], ["2", "-1"]]', "--out", str(out)) == 0
    doc = load_json(out)
    doc["a"] = ["1", "3"]
    save_json(doc, out)
    assert main(["verify", str(manifold), str(out)]) == 4


# --- generation --------------------------------------------------------------------


def test_gen_negdef_then_analyze_fails_property(tmp_path):
    out = tmp_path / "m.json"
    assert main(["gen", "2", "--seed", "7", "--profile", "negdef", "--out", str(out)]) == 0
    assert main(["analyze", str(out)]) == 1


def test_gen_poseig_then_analyze_holds(tmp_path):
    out = tmp_path / "m.json"
    assert main(["gen", "3", "--seed", "1", "--profile", "posEig", "--out", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0


def test_gen_single_piece_is_input_error(capsys):
    assert main(["gen", "1"]) == 2
    assert assert_one_line_input_error(capsys) == "error: need at least 2 pieces, got 1\n"


def test_gen_unwritable_out_is_input_error(tmp_path, capsys):
    assert main(["gen", "3", "--out", str(tmp_path / "missing" / "m.json")]) == 2
    assert_one_line_input_error(capsys)


def test_gen_rejects_json_option(capsys):
    # gen prints its JSON document either way; the option read nothing.
    with pytest.raises(SystemExit) as exc:
        main(["gen", "3", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_gen_is_deterministic_per_seed(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen", "3", "--seed", "5", "--out", str(first)]) == 0
    assert main(["gen", "3", "--seed", "5", "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


# --- covers -------------------------------------------------------------------------


def test_cover_check_exit_codes():
    assert main(["cover", "check", "--genus", "1", "--alpha", "2", "--degrees", "1,1"]) == 0
    assert main(["cover", "check", "--genus", "1", "--alpha", "2", "--degrees", "2"]) == 1


def test_cover_find_prints_cycles(capsys):
    code = main(["cover", "find", "--genus", "1", "--alpha", "3", "--degrees", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "x1" in out and "z1" in out


def test_cover_find_parity_failure_is_unavailable():
    assert main(["cover", "find", "--genus", "1", "--alpha", "2", "--degrees", "2"]) == 3


def test_cover_find_crash_is_internal_error_not_a_verdict(monkeypatch, capsys):
    # Only a ParityError is "no certificate"; a plain ValueError from the
    # search is a crash, not an input error.
    def crash(spec):
        raise ValueError("an odd permutation is no product of two alpha-cycles")

    monkeypatch.setattr(cli, "find_cover", crash)
    assert main(["cover", "find", "--genus", "1", "--alpha", "3", "--degrees", "3"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error" in err
    assert "Traceback" in err


def parse_cycles(text: str, alpha: int) -> tuple[int, ...]:
    """'(0 1 2)(3 4)' -> permutation tuple; '()' is the identity."""
    perm = list(range(alpha))
    for body in text.strip("()").split(")("):
        points = [int(v) for v in body.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


def test_cover_find_near_identity_alpha_17(capsys):
    degrees = "17;" + ",".join(["2", "2"] + ["1"] * 13)
    code = main(["cover", "find", "--genus", "2", "--alpha", "17", "--degrees", degrees, "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    xs = [parse_cycles(t, 17) for t in doc["x"]]
    ys = [parse_cycles(t, 17) for t in doc["y"]]
    zs = [parse_cycles(t, 17) for t in doc["z"] + [doc["last_z"]]]
    word = [commutator(x, y) for x, y in zip(xs, ys)] + zs
    assert word_product(word, 17) == identity_perm(17)
    assert [cycle_type(z) for z in zs] == [(17,), (2, 2) + (1,) * 13]
    assert is_transitive(xs + ys + zs, 17)


def test_cover_find_rejects_attempts_option():
    argv = ["cover", "find", "--genus", "1", "--alpha", "3", "--degrees", "3", "--attempts", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cover_find_rejects_seed_option():
    argv = ["cover", "find", "--genus", "1", "--alpha", "3", "--degrees", "3", "--seed", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cover_find_multiplies_the_relation_out_once_after_the_recheck(monkeypatch, capsys):
    # find_cover's recheck multiplies the relation out, one commutator per
    # handle; the output, and any later call, reuses that product.
    calls = []
    commutator = covers.commutator

    def counted(x, y):
        calls.append((x, y))
        return commutator(x, y)

    certs = []
    find_cover = cli.find_cover

    def kept(spec):
        certs.append(find_cover(spec))
        return certs[-1]

    monkeypatch.setattr(covers, "commutator", counted)
    monkeypatch.setattr(cli, "find_cover", kept)
    code = main(["cover", "find", "--genus", "2", "--alpha", "5", "--degrees", "5;3,1,1", "--json"])
    assert code == 0
    assert len(calls) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["boundary_cycle_types"] == [[5], [3, 1, 1]]
    (cert,) = certs
    assert doc["last_z"] == cli._cycle_str(cert.last_z(), [str(i) for i in range(5)])
    assert len(calls) == 2


def test_cover_has_no_brute_action(capsys):
    # The exhaustive oracle lives in the tests; the parser refuses the action.
    with pytest.raises(SystemExit) as exit_info:
        main(["cover", "brute", "--genus", "1", "--alpha", "2", "--degrees", "1,1"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'brute'" in capsys.readouterr().err


def test_cover_find_refuses_an_alpha_above_its_cap_before_building_a_permutation(monkeypatch, capsys):
    # The first alpha-long permutation find_cover builds is a canonical z.
    class Built(Exception):
        pass

    def built(alpha, lengths):
        raise Built(alpha)

    monkeypatch.setattr(covers, "canonical_perm", built)
    cap = cli.MAX_FIND_ALPHA
    assert cap == 10**6  # the README documents this cap and its memory
    for genus, degrees in ((1, f"{cap + 1}"), (2, f"{cap},1;{cap + 1}"), (1, f"{10**9 - 1},1")):
        alpha = sum(int(d) for d in degrees.split(";")[0].split(","))
        assert main(["cover", "find", "--genus", str(genus), "--alpha", str(alpha), "--degrees", degrees]) == 2
        assert capsys.readouterr().err == f"error: cover find takes --alpha up to {cap}, got {alpha}\n"
    # At the cap itself the witness is built.
    assert main(["cover", "find", "--genus", "1", "--alpha", str(cap), "--degrees", f"{cap - 1},1"]) == 5
    assert "internal error: Built: 1000000" in capsys.readouterr().err
    # check keeps its own behaviour above the cap.
    assert main(["cover", "check", "--genus", "1", "--alpha", str(cap + 1), "--degrees", str(cap + 1)]) == 0


def test_cover_find_refuses_alpha_times_circles_above_its_cap_before_building_a_permutation(monkeypatch, capsys):
    # Every circle adds an alpha-long z, so the points are alpha times the circles.
    class Built(Exception):
        pass

    def built(alpha, lengths):
        raise Built(alpha)

    monkeypatch.setattr(covers, "canonical_perm", built)
    cap = cli.MAX_FIND_POINTS
    assert cap == 2 * 10**6  # the README documents this cap and its memory

    def find(alpha, circles):
        degrees = ";".join([str(alpha)] * circles)
        return main(["cover", "find", "--genus", "2", "--alpha", str(alpha), "--degrees", degrees])

    for alpha, circles in ((10**6, 3), (666_667, 3), (20_001, 100), (200, 10_002)):
        assert find(alpha, circles) == 2
        assert capsys.readouterr().err == (
            f"error: cover find takes --alpha times the boundary circles up to {cap}, "
            f"got {alpha} x {circles} = {alpha * circles}\n"
        )
    # At the cap the witness is built, the alpha = 10**6 two-circle case included.
    for alpha, circles in ((10**6, 2), (20_000, 100), (200, 10_000)):
        assert find(alpha, circles) == 5
        assert f"internal error: Built: {alpha}" in capsys.readouterr().err


def test_cover_find_refuses_alpha_times_permutations_above_its_cap_before_building_a_permutation(monkeypatch, capsys):
    # Every handle adds two alpha-long permutations to the witness and its
    # output, so the genus is capped through alpha * (2 * genus + circles).
    class Built(Exception):
        pass

    def built(alpha, lengths):
        raise Built(alpha)

    monkeypatch.setattr(covers, "canonical_perm", built)
    cap = cli.MAX_FIND_PERMUTATION_POINTS
    assert cap == 6 * 10**6  # the README documents this cap and its memory

    def find(genus, alpha, degrees):
        return main(["cover", "find", "--genus", str(genus), "--alpha", str(alpha), "--degrees", degrees])

    for genus, alpha, degrees in ((10**6, 3, "3"), (10**9, 3, "3"), (2_000, 10**6, f"{10**6}"), (3, 10**6, f"{10**6};{10**6}")):
        circles = degrees.count(";") + 1
        assert find(genus, alpha, degrees) == 2
        assert capsys.readouterr().err == (
            f"error: cover find takes --alpha times (2 * genus + boundary circles) up to {cap}, "
            f"got {alpha} x {2 * genus + circles} = {alpha * (2 * genus + circles)}\n"
        )
    # At the cap the witness is built; genus 2 keeps every spec the other caps accept.
    for genus, alpha, degrees in ((999_999, 3, "3"), (1_499_999, 2, "2;2"), (2, 10**6, f"{10**6};{10**6}")):
        assert find(genus, alpha, degrees) == 5
        assert f"internal error: Built: {alpha}" in capsys.readouterr().err


def test_gen_refuses_more_pieces_than_its_cap_before_any_draw(monkeypatch, capsys):
    # Every profile draws the topology first.
    class Drawn(Exception):
        pass

    def drawn(rng, pieces):
        raise Drawn(pieces)

    monkeypatch.setattr(generate, "_random_topology", drawn)
    cap = cli.MAX_GEN_PIECES
    assert cap == 10_000  # the README documents this cap
    for pieces in (cap + 1, 10**12):
        assert main(["gen", str(pieces), "--profile", "posEig"]) == 2
        assert capsys.readouterr().err == f"error: gen takes up to {cap} pieces, got {pieces}\n"
    assert main(["gen", str(cap), "--profile", "posEig"]) == 5
    assert f"internal error: Drawn: {cap}" in capsys.readouterr().err


def test_cover_multi_circle_degrees_parse():
    code = main(
        ["cover", "check", "--genus", "1", "--alpha", "2", "--degrees", "1,1;2"]
    )
    assert code in (0, 1)


def test_cover_bad_degrees_is_input_error():
    assert main(["cover", "check", "--genus", "1", "--alpha", "2", "--degrees", "3"]) == 2


# --- output hygiene -----------------------------------------------------------------


def test_emitted_files_contain_no_floats(tmp_path):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    main(["certify", str(manifold), "--out", str(cert)])

    def check(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(json.loads(cert.read_text()))
    check(json.loads(manifold.read_text()))


# One document per --json output: the verify case is the invalid certificate
# of a 6-piece posEig manifold whose first degree is raised by one.
JSON_COMMANDS = {
    "analyze-holds": ("analyze same --json", 0),
    "analyze-fails": ("analyze mixed --json", 1),
    "certify": ("certify pos --out cert2 --json", 0),
    "verify": ("verify pos cert --json", 0),
    "verify-invalid": ("verify pos bad_cert --json", 4),
    "matrix": ("matrix matrix --json", 0),
    "cover-check": ("cover check --genus 1 --alpha 2 --degrees 2 --json", 1),
    "cover-find": ("cover find --genus 2 --alpha 5 --degrees 5;3,1,1 --json", 0),
}


@pytest.mark.parametrize("name", list(JSON_COMMANDS))
def test_each_json_output_is_one_document(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_manifold(two_piece_graph(-1, -1), tmp_path / "same")
    save_manifold(two_piece_graph(1, -1), tmp_path / "mixed")
    G = generate_manifold(6, seed=1, profile="posEig")
    save_manifold(G, tmp_path / "pos")
    cert = surface_cert_to_json(build_surface_certificate(G))
    save_json(cert, tmp_path / "cert")
    cert["degrees"][0] += 1
    save_json(cert, tmp_path / "bad_cert")
    save_json([["-1", "2"], ["2", "-1"]], tmp_path / "matrix")
    command, code = JSON_COMMANDS[name]
    assert main(command.split()) == code
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    if name.startswith("verify"):
        assert doc["valid"] is (code == 0)


def test_cli_output_needs_no_pure_python_encoder(tmp_path, monkeypatch, capsys):
    # Every JSON document the CLI writes is json.dumps(doc) byte for byte.
    # An indent would make json.dumps build the pure-Python encoder with
    # _make_iterencode; every document takes the C encoder, so breaking the
    # pure-Python one changes no exit code and no byte of output.
    inputs = {
        "negdef": generate_manifold(6, seed=0, profile="negdef"),
        "same": two_piece_graph(-1, -1),
        "mixed": two_piece_graph(1, -1),
        "pos_ve": generate_manifold(6, seed=0, profile="posEig"),
        "pos_no_ve": two_piece_graph(1, -1, tori=(GluingTorus(1, 2, 1), GluingTorus(1, 2, 1))),
    }
    for name, G in inputs.items():
        save_manifold(G, tmp_path / name)
    save_json([["0", "1"], ["1", "0"]], tmp_path / "matrix")
    save_json([["-2", "1"], ["1", "-2"]], tmp_path / "negdef_matrix")
    out = tmp_path / "out"
    out.mkdir()
    commands = [f"analyze {name} --json" for name in inputs] + [
        "matrix matrix --json --out out/reduction",
        "matrix negdef_matrix --json",
        "certify pos_ve --out out/cert --json",
        "verify pos_ve out/cert --json",
        "verify negdef out/cert --json",
        "cover find --genus 1 --alpha 3 --degrees 3 --json",
        "cover find --genus 2 --alpha 5 --degrees 5;3,1,1 --json",
        "cover check --genus 1 --alpha 2 --degrees 2 --json",
        "gen 6 --seed 1",
        "gen 6 --seed 1 --out out/gen",
    ]
    monkeypatch.chdir(tmp_path)

    def run_all() -> list:
        for path in out.iterdir():
            path.unlink()
        results = []
        for command in commands:
            code = main(command.split())
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            results.append((command, code, capsys.readouterr(), files))
        return results

    expected = run_all()
    assert [code for _, code, _, _ in expected] == [1, 0, 1, 0, 0, 0, 1, 0, 0, 4, 0, 0, 1, 0, 0]
    assert '"two_piece": {' in expected[1][2].out
    assert '"reduction": null' in expected[6][2].out
    assert '"z": []' in expected[10][2].out
    for command, _, captured, files in expected:
        texts = [*(data.decode() for data in files.values())]
        if "--json" in command or command == "gen 6 --seed 1":
            texts.append(captured.out)
        for text in texts:
            assert text == json.dumps(json.loads(text)) + "\n"

    def broken(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", broken)
    assert run_all() == expected


# --- a reader that leaves early ---------------------------------------------------


def test_a_closed_output_pipe_exits_141_without_a_traceback():
    # `gen 3000` prints about 420 KB on one line, more than a pipe buffer
    # holds; the reader closes its end after the first two bytes.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gmsurf.cli", "gen", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(2) == b'{"'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    finally:
        proc.kill()
        proc.wait()
    assert b"Traceback" not in err and b"Error" not in err, err


class FailingStdout(io.StringIO):
    """A stdout whose every write raises ``error``; its file descriptor is
    ``fd``, which `main` points at devnull after a closed pipe."""

    def __init__(self, error, fd):
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("command", ["analyze", "certify", "verify", "gen", "matrix", "cover"])
@pytest.mark.parametrize(
    "error, code",
    [
        pytest.param(OSError(errno.EIO, os.strerror(errno.EIO)), 2, id="EIO"),
        pytest.param(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 141, id="EPIPE"),
    ],
)
def test_a_failing_stdout_exits_2_and_a_closed_one_141(monkeypatch, tmp_path, capsys, command, error, code):
    manifold = write_manifold(tmp_path, "m.json", 0, 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    matrix = tmp_path / "matrix.json"
    matrix.write_text('[["-1", "2"], ["2", "-1"]]')
    argv = {
        "analyze": ["analyze", str(manifold)],
        "certify": ["certify", str(manifold), "--out", str(tmp_path / "c2.json")],
        "verify": ["verify", str(manifold), str(cert)],
        "gen": ["gen", "3"],
        "matrix": ["matrix", str(matrix)],
        "cover": ["cover", "find", "--genus", "1", "--alpha", "3", "--degrees", "3"],
    }[command]
    capsys.readouterr()
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", FailingStdout(error, fd))
        assert main(argv) == code
    finally:
        os.close(fd)
    assert capsys.readouterr().err == (f"error: {error}\n" if code == 2 else "")


# --- one exit-code boundary ---------------------------------------------------------


def test_main_alone_maps_exceptions_to_exit_codes():
    """Outside `main`, no handler in cli.py catches an exception that `main`
    maps to exit 2 or 3, and a command holds at most one `try`, which
    catches only the ValueError of its argument-value check."""
    tree = ast.parse(Path(cli.__file__).read_text())
    mapped = {"INPUT_ERRORS", "UNAVAILABLE", "OSError", "NoPositiveEigenvalueError", "ParityError"}
    in_main = set()
    for function in tree.body:
        if isinstance(function, ast.FunctionDef) and function.name == "main":
            in_main = {node for node in ast.walk(function) if isinstance(node, ast.ExceptHandler)}
        if isinstance(function, ast.FunctionDef) and function.name.startswith("cmd_"):
            tries = [node for node in ast.walk(function) if isinstance(node, ast.Try)]
            assert len(tries) <= 1, function.name
            for handler in (h for node in tries for h in node.handlers):
                assert isinstance(handler.type, ast.Name) and handler.type.id == "ValueError", function.name
    assert in_main
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler) and handler not in in_main:
            assert handler.type is not None, "a bare except outside main"
            caught = {node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
            assert not caught & mapped, ast.unparse(handler)


# --- exact numbers past the interpreter's 4300-digit int <-> str limit -----------


def huge_euler_manifold(tmp_path):
    # A-minus = [[-3/10^4400, 1], [1, -1]] has a positive eigenvalue
    doc = {
        "pieces": [
            {"id": 1, "euler": "-3/1" + "0" * 4400, "genus": 1},
            {"id": 2, "euler": "-1", "genus": 1},
        ],
        "tori": [{"from": 1, "to": 2, "p": 1}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


def test_analyze_entry_over_4300_digits(tmp_path, capsys):
    assert main(["analyze", str(huge_euler_manifold(tmp_path)), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matrix"][0]["0"] == "-3/1" + "0" * 4400
    assert report["branch"] == "PositiveEigenvalue"


def test_certify_then_verify_with_entries_over_4300_digits(tmp_path, capsys):
    manifold = huge_euler_manifold(tmp_path)
    cert = tmp_path / "cert.json"
    assert main(["certify", str(manifold), "--out", str(cert)]) == 0
    text = cert.read_text()
    assert max(len(token) for token in text.split()) > 4300
    assert main(["verify", str(manifold), str(cert)]) == 0
    assert capsys.readouterr().out.endswith("certificate is valid\n")


def test_manifold_parse_error_is_located_once(tmp_path, capsys):
    doc = {
        "pieces": [{"id": 1, "euler": "abc", "genus": 1}, {"id": 2, "euler": "-1", "genus": 1}],
        "tori": [{"from": 1, "to": 2, "p": 1}],
    }
    path = tmp_path / "bad.json"
    save_json(doc, path)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: pieces[0].euler: not a rational string: 'abc'\n"


def test_manifold_piece_check_keeps_its_location(tmp_path, capsys):
    doc = {
        "pieces": [{"id": 1, "euler": "-1", "genus": 1, "cone_orders": [1]}],
        "tori": [],
    }
    path = tmp_path / "bad.json"
    save_json(doc, path)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: pieces[0]: piece 1: cone orders must be >= 2, got 1\n"


# --- totality of the verifiers ------------------------------------------------------


@lru_cache(maxsize=None)
def verify_corpus(pieces: int, seed: int) -> tuple[dict, dict, dict, dict]:
    """A valid generated manifold's document and three certificate documents
    that verify against it: its surface certificate, and its reduction
    certificate with and without the embedded matrix."""
    G = generate_manifold(pieces, seed=seed, profile="posEig")
    A = decomposition_matrix(G)
    reduction = find_singular_reduction(A)
    return (
        manifold_to_json(G),
        surface_cert_to_json(build_surface_certificate(G)),
        reduction_cert_to_json(reduction, matrix=A),
        reduction_cert_to_json(reduction),
    )


def positions(node, out):
    """Every (container, key) pair below ``node``, depth first."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        out.append((node, key))
        positions(node[key], out)
    return out


# Values of the type a certificate holds where they stand, and near misses.
rational_tweaks = strategies.sampled_from(["0", "-0", "0/5", "1", "-1", "1/2", "-3/2", "2/3", "7", "10" * 20])
int_tweaks = strategies.integers(-3, 10) | strategies.just(10**30)


@strategies.composite
def mutated_certificates(draw):
    """One corpus certificate (surface, or reduction with or without its
    matrix) with up to three of its entries changed, dropped or duplicated,
    or an arbitrary certificate-shaped or JSON document in its place."""
    manifold, *certificates = verify_corpus(draw(strategies.integers(2, 5)), draw(strategies.integers(0, 3)))
    doc = copy.deepcopy(draw(strategies.sampled_from(certificates)))
    for _ in range(draw(strategies.integers(0, 3))):
        places = positions(doc, [])
        if not places:
            break
        action = draw(strategies.sampled_from(["tweak"] * 5 + ["drop", "duplicate", "scalar", "json"]))
        if action == "tweak":
            places = [(c, k) for c, k in places if not isinstance(c[k], (dict, list))] or places
        container, key = draw(strategies.sampled_from(places))
        if action == "tweak":
            container[key] = draw(int_tweaks if type(container[key]) is int else rational_tweaks)
        elif action == "scalar":
            container[key] = draw(json_scalars)
        elif action == "json":
            container[key] = draw(any_json)
        elif action == "drop":
            del container[key]
        elif isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
        else:
            container[key + "_"] = copy.deepcopy(container[key])
    source = draw(strategies.sampled_from(["mutated"] * 6 + ["surface", "reduction", "any"]))
    if source != "mutated":
        doc = draw({"surface": surface_docs, "reduction": reduction_docs, "any": any_json}[source])
    return manifold, doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_certificates())
def test_verify_is_total(tmp_path, capsys, case):
    """Any certificate document against a valid manifold is valid (0), an
    input error (2) or invalid (4), never a crash (5) or a traceback, and
    the same with --json."""
    manifold, doc = case
    save_json(manifold, tmp_path / "m.json")
    (tmp_path / "cert.json").write_text(json.dumps(doc))
    argv = ["verify", str(tmp_path / "m.json"), str(tmp_path / "cert.json")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 4), err
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # With --json the same verdict is one document on stdout.
    assert main(argv + ["--json"]) == code
    out, json_err = capsys.readouterr()
    assert json_err == err
    if code != 2:
        assert json.loads(out)["valid"] is (code == 0)


def test_verify_corpus_certificates_are_valid(tmp_path, capsys):
    for pieces in range(2, 6):
        for seed in range(4):
            manifold, surface, with_matrix, without_matrix = verify_corpus(pieces, seed)
            save_json(manifold, tmp_path / "m.json")
            for doc in (surface, with_matrix, without_matrix):
                save_json(doc, tmp_path / "cert.json")
                assert main(["verify", str(tmp_path / "m.json"), str(tmp_path / "cert.json")]) == 0
