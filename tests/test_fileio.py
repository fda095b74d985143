"""Tests for structured-text serialization: exact round trips, float rejection."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from gmsurf import fileio
from gmsurf.cli import _analysis_report
from gmsurf.decision import decide
from gmsurf.exact_linalg import SymMatrix
from gmsurf.fileio import (
    FileFormatError,
    json_text,
    load_json,
    load_manifold,
    manifold_from_json,
    manifold_to_json,
    matrix_from_json,
    parse_rational_field,
    reduction_cert_to_json,
    rows_to_json,
    save_json,
    sparse_rows_from_json,
    surface_cert_from_json,
    surface_cert_to_json,
)
from gmsurf.generate import generate_manifold
from gmsurf.manifold import GluingTorus, InvalidGraphError, decomposition_matrix, two_piece_graph
from gmsurf.reduction import find_singular_reduction
from gmsurf.surface import build_surface_certificate
from oracles import dense_json, dense_rows, sym, to_lists

F = Fraction


def save_manifold(G, path) -> None:
    """Write a manifold file the way `gmsurf gen --out` does."""
    save_json(manifold_to_json(G), path)


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
    data = rows_to_json(A.sparse)
    assert data == [["-1/3", "5/2"], ["5/2", "0"]] == dense_json(to_lists(A))
    back = sparse_rows_from_json(data, "matrix")
    assert to_lists(SymMatrix(back)) == to_lists(A)


@pytest.mark.parametrize("pieces", [2, 7, 30])
def test_rows_to_json_matches_a_dense_writer(pieces):
    G = generate_manifold(pieces, seed=5, profile="posEig")
    A = decomposition_matrix(G)
    a_prime = find_singular_reduction(A).a_prime
    assert rows_to_json(A.sparse) == dense_json(to_lists(A))
    assert rows_to_json(a_prime) == dense_json(dense_rows(a_prime))


def test_matrix_rows_reject_ragged_data():
    with pytest.raises(FileFormatError):
        sparse_rows_from_json([["1", "2"], ["1"]], "matrix")


@pytest.mark.parametrize(
    "data, message",
    [
        ([["0", "1"], ["2", "0"]], "not symmetric at (0, 1)"),
        ([["0", "1"], ["1"]], "matrix[1]: expected 2 entries, got 1"),
        ({"pieces": []}, "matrix: expected an array, got dict"),
    ],
)
def test_matrix_from_json_refuses_a_matrix_as_a_file_error(data, message):
    # An asymmetric matrix is an input error like a ragged one, not a
    # ValueError from SymMatrix.
    with pytest.raises(FileFormatError) as info:
        matrix_from_json(data)
    assert str(info.value) == message


def test_matrix_rows_parse_each_distinct_string_once(monkeypatch):
    parsed = []
    real = fileio.parse_rational_field
    monkeypatch.setattr(fileio, "parse_rational_field", lambda x, where: parsed.append((x, where)) or real(x, where))
    data = [["-1", "0", "1/2"], ["0", "-1", 0], ["1/2", 0, "-1"]]
    rows = sparse_rows_from_json(data, "m")
    assert dense_rows(rows) == [[F(-1), F(0), F(1, 2)], [F(0), F(-1), F(0)], [F(1, 2), F(0), F(-1)]]
    # JSON integers are not memoized; each string is parsed where it first
    # stands, but a "0" string is dropped unparsed
    assert parsed == [("-1", "m[0][0]"), ("1/2", "m[0][2]"), (0, "m[1][2]"), (0, "m[2][1]")]
    assert rows == [{0: F(-1), 2: F(1, 2)}, {1: F(-1)}, {0: F(1, 2), 2: F(-1)}]


def test_a_parsed_matrix_is_checked_once_per_nonzero(monkeypatch):
    # JSON integers are not memoized, so (i, j) and (j, i) are distinct
    # objects and the symmetry check compares them; a check of every dense
    # pair would make 44,850 comparisons at order 300
    n = 300
    data = [[-2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    rows = sparse_rows_from_json(data, "matrix")
    nonzeros = sum(map(len, rows))
    assert nonzeros == 3 * n - 2
    calls = []
    real = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(1) or real(a, b))
    A = SymMatrix(rows)
    monkeypatch.undo()
    assert len(calls) <= nonzeros
    assert A == sym(data)


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
        sparse_rows_from_json(data, "m")
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


def test_reduction_certificate_round_trip():
    A = sym([["-1", 2], [2, "-1"]])
    cert = find_singular_reduction(A)
    doc = reduction_cert_to_json(cert)
    assert list(doc) == ["a_prime", "a"]
    assert fileio._reduction_from_json(doc) == cert


def test_reduction_certificate_parser_keeps_only_nonzeros():
    doc = {"a_prime": [["-1", "0", 0], ["0/3", "1/2", "-0"], [0, "0", "2"]], "a": ["1", "0", "0"]}
    cert = fileio._reduction_from_json(doc)
    assert cert.a_prime == ({0: F(-1)}, {1: F(1, 2)}, {2: F(2)})
    assert reduction_cert_to_json(cert)["a_prime"] == [["-1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "2"]]


@pytest.mark.parametrize(
    "a_prime, message",
    [
        ([["1", "0"], ["0"]], "a_prime[1]: expected 2 entries, got 1"),
        ([["1", "0"], "0"], "a_prime[1]: expected an array, got str"),
        # file order: an entry of row 0 is read before the length of row 1
        ([["1", "x"], ["0"]], "a_prime[0][1]: not a rational string: 'x'"),
        ([["0", 0.5], ["0", "0"]], "a_prime[0][1]: floats are not exact"),
        ([["0", "0"], ["0", False]], "a_prime[1][1]: expected a rational string or integer, got False"),
    ],
)
def test_reduction_certificate_parser_locates_errors(a_prime, message):
    with pytest.raises(FileFormatError) as info:
        fileio._reduction_from_json({"a_prime": a_prime, "a": ["1", "1"]})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("matrix", [[["-1", "2"], ["2", "-1"]], [["x"]], "not a matrix"])
def test_reduction_certificate_parser_ignores_an_older_files_matrix(matrix):
    # Files written before the verifier took its matrix from the command
    # line embed one; it is not read.
    cert = find_singular_reduction(sym([["-1", 2], [2, "-1"]]))
    doc = {**reduction_cert_to_json(cert), "matrix": matrix}
    assert fileio._reduction_from_json(doc) == cert


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


# --- parser error messages ------------------------------------------------------------


def manifold_doc() -> dict:
    """A valid two-piece manifold document with every optional key present."""
    return {
        "pieces": [
            {"id": 1, "euler": "-1", "genus": 1},
            {"id": 2, "euler": "-3/2", "genus": 1, "cone_orders": [2, 3]},
        ],
        "tori": [
            {"from": 1, "to": 2, "p": 1, "q": 1, "q_prime": 1, "p_prime": 0},
            {"from": 2, "to": 1, "p": 2, "q": 1, "q_prime": 1, "p_prime": 0},
        ],
    }


def with_changes(doc: dict, *changes) -> dict:
    """``doc`` with each (path, value) change applied; the value ``DROP`` deletes
    the key.  A path is a tuple of keys and indices."""
    for path, value in changes:
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


DROP = object()

MANIFOLD_MESSAGES = [
    # the document and its two arrays
    ((((), None),), "manifold: expected an object, got NoneType"),
    (((("tori",), DROP),), "manifold: missing required key 'tori'"),
    (((("pieces",), {}),), "pieces: expected an array, got dict"),
    (((("tori",), "t"),), "tori: expected an array, got str"),
    # pieces[k]
    (((("pieces", 1), []),), "pieces[1]: expected an object, got list"),
    (((("pieces", 0), 7),), "pieces[0]: expected an object, got int"),
    (((("pieces", 1, "euler"), DROP),), "pieces[1]: missing required key 'euler'"),
    (((("pieces", 1, "id"), "2"),), "pieces[1].id: expected an integer, got '2'"),
    (((("pieces", 1, "id"), True),), "pieces[1].id: expected an integer, got True"),
    (((("pieces", 1, "euler"), 0.5),),
     'pieces[1].euler: floats are not exact; write the rational as a string like "1/2"'),
    (((("pieces", 1, "euler"), "x"),), "pieces[1].euler: not a rational string: 'x'"),
    (((("pieces", 1, "euler"), "1/0"),), "pieces[1].euler: zero denominator: '1/0'"),
    (((("pieces", 1, "euler"), None),),
     "pieces[1].euler: expected a rational string or integer, got None"),
    (((("pieces", 1, "euler"), False),),
     "pieces[1].euler: expected a rational string or integer, got False"),
    (((("pieces", 1, "genus"), 1.5),), "pieces[1].genus: expected an integer, got 1.5"),
    (((("pieces", 1, "genus"), "1"),), "pieces[1].genus: expected an integer, got '1'"),
    (((("pieces", 1, "genus"), -1),), "pieces[1]: piece 2: genus must be non-negative"),
    (((("pieces", 1, "cone_orders"), {}),), "pieces[1].cone_orders: expected an array, got dict"),
    (((("pieces", 1, "cone_orders"), None),),
     "pieces[1].cone_orders: expected an array, got NoneType"),
    (((("pieces", 1, "cone_orders"), "23"),), "pieces[1].cone_orders: expected an array, got str"),
    (((("pieces", 1, "cone_orders", 1), "3"),),
     "pieces[1].cone_orders[1]: expected an integer, got '3'"),
    (((("pieces", 1, "cone_orders", 0), 2.9),),
     "pieces[1].cone_orders[0]: expected an integer, got 2.9"),
    (((("pieces", 1, "cone_orders", 1), 1),),
     "pieces[1]: piece 2: cone orders must be >= 2, got 1"),
    # tori[k]
    (((("tori", 1), "t"),), "tori[1]: expected an object, got str"),
    (((("tori", 0), None),), "tori[0]: expected an object, got NoneType"),
    (((("tori", 0, "p"), DROP),), "tori[0]: missing required key 'p'"),
    (((("tori", 0, "from"), "1"),), "tori[0].from: expected an integer, got '1'"),
    (((("tori", 1, "to"), None),), "tori[1].to: expected an integer, got None"),
    (((("tori", 1, "p"), 1.0),), "tori[1].p: expected an integer, got 1.0"),
    (((("tori", 1, "q"), True),), "tori[1].q: expected an integer, got True"),
    (((("tori", 1, "q_prime"), "1"),), "tori[1].q_prime: expected an integer, got '1'"),
    (((("tori", 1, "p_prime"), [0]),), "tori[1].p_prime: expected an integer, got [0]"),
    # with two faults, the first check in file order names the error
    (((("pieces", 1, "id"), "2"), (("pieces", 1, "euler"), 0.5)),
     "pieces[1].id: expected an integer, got '2'"),
    (((("pieces", 1, "euler"), "x"), (("pieces", 1, "genus"), None)),
     "pieces[1].euler: not a rational string: 'x'"),
    (((("pieces", 1, "id"), "2"), (("pieces", 1, "cone_orders"), {})),
     "pieces[1].cone_orders: expected an array, got dict"),
    (((("pieces", 1, "id"), "2"), (("pieces", 1, "genus"), DROP)),
     "pieces[1]: missing required key 'genus'"),
    (((("pieces", 1, "genus"), -1), (("pieces", 1, "cone_orders", 0), "x")),
     "pieces[1].cone_orders[0]: expected an integer, got 'x'"),
    (((("pieces", 1, "genus"), -1), (("pieces", 1, "cone_orders", 0), 1)),
     "pieces[1]: piece 2: genus must be non-negative"),
    (((("pieces", 1, "id"), 1.5), (("tori", 0, "from"), "1")),
     "pieces[1].id: expected an integer, got 1.5"),
    (((("tori", 0, "p_prime"), "0"), (("tori", 1, "from"), "1")),
     "tori[0].p_prime: expected an integer, got '0'"),
    (((("tori", 0, "from"), 1.5), (("tori", 0, "p"), DROP)),
     "tori[0]: missing required key 'p'"),
    (((("tori", 0, "q"), "1"), (("tori", 0, "to"), None)),
     "tori[0].to: expected an integer, got None"),
]


@pytest.mark.parametrize("changes, message", MANIFOLD_MESSAGES, ids=lambda x: x if isinstance(x, str) else "")
def test_manifold_parser_messages_are_pinned(changes, message):
    with pytest.raises(FileFormatError) as info:
        manifold_from_json(with_changes(manifold_doc(), *changes))
    assert str(info.value) == message


def surface_doc() -> dict:
    return surface_cert_to_json(build_surface_certificate(two_piece_graph(0, 0)))


SYSTEM_KEYS = ("torus", "side", "a_plus", "a_minus", "b_plus", "b_minus")

SYSTEM_MESSAGES = [
    *((((("systems", 1, key), "1"),), f"systems[1].{key}: expected an integer, got '1'")
      for key in SYSTEM_KEYS),
    *((((("systems", 0, key), DROP),), f"systems[0]: missing required key '{key}'")
      for key in SYSTEM_KEYS),
    (((("systems", 0), 3),), "systems[0]: expected an object, got int"),
    (((("systems", 1), ["torus"]),), "systems[1]: expected an object, got list"),
    (((("systems",), {}),), "systems: expected an array, got dict"),
    (((("systems", 0, "a_plus"), 1.5),), "systems[0].a_plus: expected an integer, got 1.5"),
    (((("systems", 0, "side"), False),), "systems[0].side: expected an integer, got False"),
    # keys are checked one at a time: a bad early field names the error
    # before a missing later one, and a missing early key before a bad later one
    (((("systems", 0, "side"), None), (("systems", 0, "b_minus"), DROP)),
     "systems[0].side: expected an integer, got None"),
    (((("systems", 0, "side"), DROP), (("systems", 0, "b_minus"), None)),
     "systems[0]: missing required key 'side'"),
    (((("systems", 0, "b_plus"), "x"), (("systems", 1, "torus"), "y")),
     "systems[0].b_plus: expected an integer, got 'x'"),
]


@pytest.mark.parametrize("changes, message", SYSTEM_MESSAGES, ids=lambda x: x if isinstance(x, str) else "")
def test_surface_certificate_system_messages_are_pinned(changes, message):
    doc = with_changes(surface_doc(), *changes)
    with pytest.raises(FileFormatError) as info:
        surface_cert_from_json(doc)
    assert str(info.value) == message


# --- totality of the parsers -------------------------------------------------------

# JSON scalars, biased to the values the schemas hold: small ints, rational
# strings, and near misses (floats, bools, bad strings).
json_scalars = (
    strategies.none()
    | strategies.booleans()
    | strategies.integers(-3, 5)
    | strategies.floats(allow_nan=False, allow_infinity=False)
    | strategies.sampled_from(["0", "-1", "2", "3/4", "-12/7", "1/0", " 2 ", "", "x", "1.5"])
)
any_json = strategies.recursive(
    json_scalars,
    lambda inner: strategies.lists(inner, max_size=3)
    | strategies.dictionaries(strategies.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)
small_ints = strategies.integers(-1, 4)
rational_strings = strategies.sampled_from(["0", "-1", "2", "3/4", "-12/7"])


def records(**fields):
    """Objects with every key of ``fields``, each value drawn from its
    strategy, six times in eight; otherwise objects with any subset of the
    keys and any JSON values, or any JSON value in place of the object."""
    complete = strategies.fixed_dictionaries(fields)
    faulty = strategies.fixed_dictionaries(
        {}, optional={key: value | any_json for key, value in fields.items()}
    )
    return strategies.sampled_from([complete] * 6 + [faulty, any_json]).flatmap(lambda kind: kind)


def symmetric(rows: list[list[str]]) -> list[list[str]]:
    return [[row[j] if j >= i else rows[j][i] for j, _ in enumerate(rows)] for i, row in enumerate(rows)]


square_rows = strategies.integers(0, 3).flatmap(
    lambda n: strategies.lists(
        strategies.lists(rational_strings, min_size=n, max_size=n), min_size=n, max_size=n
    )
)
rows = strategies.one_of(
    square_rows.map(symmetric),
    square_rows,
    strategies.lists(strategies.lists(json_scalars, max_size=3), max_size=3),
    any_json,
)
vectors = strategies.lists(rational_strings, max_size=3) | strategies.lists(json_scalars, max_size=3)
# ids 1..3 and gluing data that mostly has qq' - pp' = 1, so that some
# documents are valid manifolds and others break one rule of validate
ids = strategies.integers(1, 3)
manifold_docs = records(
    pieces=strategies.lists(
        records(id=ids, euler=rational_strings | small_ints, genus=strategies.sampled_from([1, 1, 2, 0, -1]),
                cone_orders=strategies.lists(strategies.sampled_from([2, 3, 3, 1]), max_size=1)),
        min_size=1,
        max_size=3,
    ),
    tori=strategies.lists(
        records(**{"from": ids, "to": ids, "p": small_ints, "q": strategies.sampled_from([1, 1, 2]),
                   "q_prime": strategies.sampled_from([1, 1, -1]), "p_prime": strategies.sampled_from([0, 0, 1])}),
        min_size=1,
        max_size=3,
    ),
)


@strategies.composite
def generated_manifold_docs(draw):
    """A generated manifold's document, half the time with one field of one
    record replaced by a JSON scalar."""
    G = generate_manifold(draw(strategies.integers(2, 4)), seed=draw(strategies.integers(0, 20)))
    doc = manifold_to_json(G)
    if draw(strategies.booleans()):
        record = draw(strategies.sampled_from(doc["pieces"] + doc["tori"]))
        record[draw(strategies.sampled_from(sorted(record)))] = draw(json_scalars)
    return doc


manifold_docs |= generated_manifold_docs()
reduction_docs = records(a_prime=rows, a=vectors, matrix=rows)
surface_docs = records(
    degrees=strategies.lists(small_ints, max_size=3),
    scale=small_ints,
    reduction=reduction_docs,
    systems=strategies.lists(records(**{key: small_ints for key in SYSTEM_KEYS}), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(manifold_docs, surface_docs, reduction_docs, rows)
def test_parsers_are_total(manifold, surface, reduction, matrix):
    """Any JSON value parses or raises an input error, never anything else."""
    try:
        decomposition_matrix(manifold_from_json(manifold))
    except (FileFormatError, InvalidGraphError):
        pass
    for parse, doc in (
        (surface_cert_from_json, surface),
        (fileio._reduction_from_json, reduction),
        (matrix_from_json, matrix),
    ):
        try:
            parse(doc)
        except FileFormatError:
            pass


# --- the JSON writer ---------------------------------------------------------------


def assert_same_text(doc):
    """``json_text`` is the standard one-line text: ``json.dumps`` with its
    default arguments, ASCII only, with no newline of its own."""
    text = json_text(doc)
    assert text == json.dumps(doc)
    assert text.isascii() and "\n" not in text


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
    report = _analysis_report(A)
    assert_same_text(report)
    assert json.loads(json_text(report)) == report


@pytest.mark.parametrize(
    "profile, pieces",
    [("any", 20), ("negdef", 20), ("posEig", 20), ("semidef", 20), ("negdef", 1000)],
    ids=["any", "negdef", "posEig", "semidef", "negdef-1000"],
)
def test_writer_matches_json_dumps_on_generated_reports(profile, pieces):
    report = _analysis_report(decomposition_matrix(generate_manifold(pieces, seed=4, profile=profile)))
    assert_same_text(report)
    assert json.loads(json_text(report)) == report


def test_writer_matches_json_dumps_on_a_written_certificate(tmp_path):
    cert = build_surface_certificate(generate_manifold(12, seed=1, profile="posEig"))
    doc = surface_cert_to_json(cert)
    assert_same_text(doc)
    path = tmp_path / "cert.json"
    save_json(doc, path)
    assert path.read_text() == json.dumps(doc) + "\n"
    assert surface_cert_from_json(load_json(path)) == cert


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
    | strategies.sampled_from(["0", "-1", "3/4", "-12/7", "", "x", "\u00e9", '"', "1/2\n"]),
    lambda inner: strategies.lists(inner, max_size=4)
    | strategies.dictionaries(strategies.text(max_size=3), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps_on_any_document(doc):
    assert_same_text(doc)
    assert json.loads(json_text(doc)) == doc
