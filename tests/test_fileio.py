"""Tests for structured-text serialization: exact round trips, float rejection."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import fileio
from gmsurf.cli import _analysis_report
from gmsurf.decision import decide
from gmsurf.exact_linalg import SymMatrix, to_rational
from gmsurf.fileio import (
    FileFormatError,
    json_text,
    load_json,
    load_manifold,
    manifold_from_json,
    manifold_to_json,
    matrix_rows_from_json,
    parse_rational_field,
    reduction_cert_from_json,
    reduction_cert_to_json,
    rows_to_json,
    save_json,
    surface_cert_from_json,
    surface_cert_to_json,
)
from gmsurf.generate import generate_manifold
from gmsurf.manifold import GluingTorus, decomposition_matrix, two_piece_graph
from gmsurf.reduction import find_singular_reduction
from gmsurf.surface import build_surface_certificate
from oracles import to_lists

F = Fraction


def save_manifold(G, path) -> None:
    """Write a manifold file the way `gmsurf gen --out` does."""
    save_json(manifold_to_json(G), path)


def sym(rows) -> SymMatrix:
    return SymMatrix([[to_rational(v) for v in row] for row in rows])


# --- scalars ----------------------------------------------------------------


def test_parse_rational_field_accepts_ints_and_strings():
    assert parse_rational_field(3, "x") == F(3)
    assert parse_rational_field("-5/2", "x") == F(-5, 2)


def test_parse_rational_field_rejects_floats_with_hint():
    with pytest.raises(FileFormatError) as info:
        parse_rational_field(0.5, "euler")
    assert "euler" in str(info.value)
    assert "1/2" in str(info.value) or "string" in str(info.value)


def test_parse_rational_field_rejects_decimal_strings():
    with pytest.raises(FileFormatError):
        parse_rational_field("0.5", "x")


# --- matrices ---------------------------------------------------------------


def test_matrix_round_trip_is_exact():
    A = sym([["-1/3", "5/2"], ["5/2", 0]])
    data = rows_to_json(to_lists(A))
    assert data == [["-1/3", "5/2"], ["5/2", "0"]]
    assert rows_to_json(A) == data  # from the nonzeros
    back = matrix_rows_from_json(data, "matrix")
    assert to_lists(SymMatrix(back)) == to_lists(A)


def test_matrix_rows_reject_ragged_data():
    with pytest.raises(FileFormatError):
        matrix_rows_from_json([["1", "2"], ["1"]], "matrix")


def test_matrix_rows_parse_each_distinct_string_once(monkeypatch):
    parsed = []
    real = fileio.parse_rational_field
    monkeypatch.setattr(fileio, "parse_rational_field", lambda x, where: parsed.append((x, where)) or real(x, where))
    rows = matrix_rows_from_json([["-1", "0", "1/2"], ["0", "-1", 0], ["1/2", 0, "-1"]], "m")
    assert rows == [[F(-1), F(0), F(1, 2)], [F(0), F(-1), F(0)], [F(1, 2), F(0), F(-1)]]
    # JSON integers are not memoized; each string is parsed where it first stands
    assert parsed == [("-1", "m[0][0]"), ("0", "m[0][1]"), ("1/2", "m[0][2]"), (0, "m[1][2]"), (0, "m[2][1]")]


@pytest.mark.parametrize(
    "data, message",
    [
        # True == 1 but is rejected wherever it stands, also after a 1
        ([[1, True], [True, 1]], "m[0][1]: expected a rational string or integer, got True"),
        ([["1", "1"], ["1", True]], "m[1][1]: expected a rational string or integer, got True"),
        ([["-1", "x"], ["x", "-1"]], "m[0][1]: not a rational string: 'x'"),
        ([["0", "1/0"], ["1/0", "0"]], "m[0][1]: zero denominator: '1/0'"),
        ([["0", "1"], ["1", 0.5]], "m[1][1]: floats are not exact"),
    ],
)
def test_matrix_rows_errors_keep_their_position(data, message):
    with pytest.raises(FileFormatError) as info:
        matrix_rows_from_json(data, "m")
    assert str(info.value).startswith(message)


# --- manifolds ----------------------------------------------------------------


def test_manifold_round_trip_bit_exact(tmp_path):
    G = two_piece_graph("-7/3", "1/2", tori=(
        GluingTorus(from_piece=1, to_piece=2, p=3, q=2, q_prime=2, p_prime=1),
        GluingTorus(from_piece=2, to_piece=1, p=1, q=-1, q_prime=-1, p_prime=0),
    ))
    path = tmp_path / "manifold.json"
    save_manifold(G, path)
    assert load_manifold(path) == G


def test_manifold_from_json_applies_torus_defaults():
    G = manifold_from_json(
        {
            "pieces": [
                {"id": 1, "euler": "0", "genus": 1},
                {"id": 2, "euler": "0", "genus": 1},
            ],
            "tori": [{"from": 1, "to": 2, "p": 1}],
        }
    )
    assert G.tori[0].q == 1
    assert G.tori[0].q_prime == 1
    assert G.tori[0].p_prime == 0


def test_manifold_json_rejects_missing_keys():
    with pytest.raises(FileFormatError):
        manifold_from_json({"pieces": [{"id": 1, "euler": "0"}]})
    with pytest.raises(FileFormatError):
        manifold_from_json(
            {"pieces": [{"id": 1, "genus": 1}], "tori": []}
        )


def test_manifold_json_keeps_cone_orders():
    G = manifold_from_json(
        {
            "pieces": [
                {"id": 1, "euler": "0", "genus": 1, "cone_orders": [2, 3]},
                {"id": 2, "euler": "0", "genus": 1},
            ],
            "tori": [{"from": 1, "to": 2, "p": 1}],
        }
    )
    assert G.pieces[0].cone_orders == (2, 3)
    assert manifold_to_json(G)["pieces"][0]["cone_orders"] == [2, 3]


# --- float rejection at the file layer -------------------------------------------


def test_load_json_rejects_float_literals(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"euler": 0.5}')
    with pytest.raises(FileFormatError):
        load_json(path)


def test_save_then_load_json_preserves_document(tmp_path):
    doc = {"matrix": [["-1", "2"], ["2", "-1"]], "note": "exact"}
    path = tmp_path / "doc.json"
    save_json(doc, path)
    assert load_json(path) == doc
    assert json.loads(path.read_text()) == doc


# --- reduction certificates ---------------------------------------------------------


def test_reduction_certificate_round_trip_without_matrix():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    back, matrix = reduction_cert_from_json(reduction_cert_to_json(cert))
    assert back == cert
    assert matrix is None


def test_reduction_certificate_round_trip_with_matrix():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    back, matrix = reduction_cert_from_json(reduction_cert_to_json(cert, matrix=A))
    assert back == cert
    assert matrix is not None
    assert to_lists(matrix) == to_lists(A)


# --- surface certificates ------------------------------------------------------------


def test_surface_certificate_round_trip():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    data = surface_cert_to_json(cert)
    assert surface_cert_from_json(data) == cert


def test_surface_certificate_json_has_no_floats():
    G = two_piece_graph(0, 0)
    cert = build_surface_certificate(G)
    text = json.dumps(surface_cert_to_json(cert))

    def check(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(json.loads(text))


# --- the JSON writer ---------------------------------------------------------------


def assert_same_text(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


# One matrix per verdict class, with negative and fractional entries.
VERDICT_MATRICES = {
    ("PositiveEigenvalue", True): [["-1", "2/3", "0"], ["2/3", "-1/5", "4"], ["0", "4", "-7"]],
    ("PositiveEigenvalue", False): [["1", "2"], ["2", "-1"]],
    ("SemidefiniteSameSign", True): [["-1", "1"], ["1", "-1"]],
    ("SemidefiniteMixedSign", False): [["1", "1"], ["1", "-1"]],
    ("NegativeDefinite", False): [["-2", "1/3", "1/3"], ["1/3", "-5/2", "0"], ["1/3", "0", "-3"]],
}


@pytest.mark.parametrize("verdict, rows", list(VERDICT_MATRICES.items()), ids=str)
def test_writer_matches_json_dumps_on_analyze_reports(verdict, rows):
    A = sym(rows)
    result = decide(A)
    assert (result.branch.value, result.property_ve) == verdict
    assert_same_text(_analysis_report(A))


@pytest.mark.parametrize("profile", ["any", "negdef", "posEig", "semidef"])
def test_writer_matches_json_dumps_on_generated_reports(profile):
    assert_same_text(_analysis_report(decomposition_matrix(generate_manifold(20, seed=4, profile=profile))))


def test_writer_matches_json_dumps_on_a_written_certificate(tmp_path):
    cert = build_surface_certificate(generate_manifold(12, seed=1, profile="posEig"))
    doc = surface_cert_to_json(cert)
    assert_same_text(doc)
    path = tmp_path / "cert.json"
    save_json(doc, path)
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": [], "b": [[]], "c": [[], ["1"]], "d": {}, "e": [{}], "f": [[], []]},
        {"m": [["-3/7", "0"], ["0", "12345678901234567890/3"]], "v": ["-1", "1/2"]},
        {"m": [["1", 'a"b'], ["\u00e9", "\n"]]},  # rows that need escaping
        {"m": [["1", 2], [None, True]], "k": {"x": [[1.5]]}},
        {1: [["1"]], "s": "t"},  # a key that is not a string
        [["1", "2"], ["3", "4"]],
        [[["1"]]],
        # objects of ints, as curve systems are, beside near misses
        {"systems": [{"a": 1, "b": -2}, {"c": True}, {"d": 10**30, "e": 0}], "n": 5, "x": {"f": 1.5}},
    ],
)
def test_writer_matches_json_dumps_on_edge_documents(doc):
    assert_same_text(doc)


json_values = strategies.recursive(
    strategies.none()
    | strategies.booleans()
    | strategies.integers()
    | strategies.sampled_from(["0", "-1", "3/4", "-12/7", "", "x", "é", '"', "1/2\n"]),
    lambda inner: strategies.lists(inner, max_size=4)
    | strategies.dictionaries(strategies.text(max_size=3), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps_on_any_document(doc):
    assert_same_text(doc)
