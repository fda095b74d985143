"""File formats: manifolds and certificates as JSON with exact numbers.

Every rational is serialized as the string "num/den" (or "int" when the
denominator is 1) and parsed back bit-exactly; plain JSON integers are also
accepted where a rational is expected.  JSON floats are rejected everywhere:
a decimal in an input file is always a mistake, never a rational.

Schemas:

- manifold: {"pieces": [{"id", "euler", "genus", "cone_orders"?}],
             "tori": [{"from", "to", "p", "q"?, "q_prime"?, "p_prime"?}]}
  with torus defaults q=1, q_prime=1, p_prime=0;
- matrix: [[rational]], square and symmetric;
- reduction certificate: {"a_prime": [[rational]], "a": [rational]};
- surface certificate: {"degrees": [int], "scale": int,
                        "reduction": {"a_prime": [[rational]]},
                        "systems": [{"torus", "side", "a_plus", "a_minus",
                                     "b_plus", "b_minus"}]},
  where the degrees are the vector A' annihilates.

A certificate holds no copy of what it is checked against: ``verify`` reads
the matrix or manifold from its own argument.  Keys that older files carry
are ignored: a reduction file's "matrix", a surface certificate's "shrunk"
matrix, and an "a" or "matrix" in its reduction block.

Documents are written by :func:`json_text` on one line, as ``json.dumps``
writes them by default: ", " and ": " between tokens, keys in insertion
order and every non-ASCII character escaped.

Matrices are dense in the file and keep only their nonzero entries in
memory: a :class:`SymMatrix`, and a reduction's ``a_prime`` as one
``{column: value}`` dict per row.  The reports of ``analyze`` and ``matrix``
write only the nonzeros (see :mod:`gmsurf.cli`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import itemgetter
from os import PathLike

from .exact_linalg import SymMatrix, rational_str, to_rational
from .manifold import DecompositionGraph, GluingTorus, SeifertPiece
from .reduction import ReductionCertificate
from .surface import CurveSystem, SurfaceCertificate


class FileFormatError(ValueError):
    """The document does not match the expected schema."""


def parse_rational_field(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise FileFormatError(
            f"{where}: floats are not exact; write the rational as a string like \"1/2\""
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise FileFormatError(f"{where}: expected a rational string or integer, got {value!r}")
    try:
        return to_rational(value)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def parse_int_field(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FileFormatError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError(f"{where}: expected an array, got {type(value).__name__}")
    return value


def _required_keys(value, where: str, keys) -> dict:
    """``value`` as an object that holds each of ``keys``, checked in order."""
    doc = _expect_dict(value, where)
    for key in keys:
        if key not in doc:
            raise FileFormatError(f"{where}: missing required key '{key}'")
    return doc


def rows_to_json(rows) -> list[list[str]]:
    """The dense rational string rows of a square matrix, such as an
    ``a_prime``, given as its nonzero entries, one ``{column: value}`` dict
    per row: "0" everywhere else, written without a call to
    :func:`rational_str`.  Reports write only the nonzeros."""
    n = len(rows)
    out = []
    for entries in rows:
        row = ["0"] * n
        for j, x in entries.items():
            row[j] = rational_str(x)
        out.append(row)
    return out


def sparse_rows_from_json(data, where: str) -> list[dict[int, Fraction]]:
    """Parse a square matrix of rationals into one ``{column: value}`` dict
    of nonzero entries per row, each distinct string token once.

    A "0" token is dropped by a string compare; any other token is parsed,
    and dropped if it is zero.  Only strings are memoized: JSON integers
    (and booleans, which compare equal to 0 and 1 but are rejected) are
    parsed where they stand.  The rows are an ``a_prime``, or a matrix's
    (:func:`matrix_from_json`).
    """
    rows = _expect_list(data, where)
    out = []
    parsed: dict[str, Fraction] = {}
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{where}[{i}]")
        if len(row) != len(rows):
            raise FileFormatError(
                f"{where}[{i}]: expected {len(rows)} entries, got {len(row)}"
            )
        entries = {}
        for j, x in enumerate(row):
            if x == "0":
                continue
            if type(x) is not str:
                value = parse_rational_field(x, f"{where}[{i}][{j}]")
            else:
                value = parsed.get(x)
                if value is None:
                    value = parsed[x] = parse_rational_field(x, f"{where}[{i}][{j}]")
            if value:
                entries[j] = value
        out.append(entries)
    return out


def manifold_to_json(G: DecompositionGraph) -> dict:
    pieces = []
    for p in G.pieces:
        record = {"id": p.id, "euler": rational_str(p.euler), "genus": p.genus}
        if p.cone_orders:
            record["cone_orders"] = list(p.cone_orders)
        pieces.append(record)
    tori = [
        {
            "from": t.from_piece,
            "to": t.to_piece,
            "p": t.p,
            "q": t.q,
            "q_prime": t.q_prime,
            "p_prime": t.p_prime,
        }
        for t in G.tori
    ]
    return {"pieces": pieces, "tori": tori}


def manifold_from_json(data) -> DecompositionGraph:
    """The manifold of a parsed document.

    The parser owns the document's shape (objects, arrays, required keys);
    :class:`SeifertPiece` and :class:`GluingTorus` own the field types and
    values.  Each record goes straight to its constructor, and only a
    record it refuses is walked again, check by check in file order, to
    name the broken field, such as ``tori[3].q_prime``.
    """
    doc = _required_keys(data, "manifold", ("pieces", "tori"))
    pieces = []
    for k, record in enumerate(_expect_list(doc["pieces"], "pieces")):
        try:
            cone_orders = record.get("cone_orders", [])
            if type(cone_orders) is not list:
                raise TypeError("cone_orders is not an array")
            pieces.append(
                SeifertPiece(record["id"], record["euler"], record["genus"], tuple(cone_orders))
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            _raise_piece_error(record, k, exc)
    tori = []
    for k, record in enumerate(_expect_list(doc["tori"], "tori")):
        try:
            tori.append(
                GluingTorus(
                    record["from"],
                    record["to"],
                    record["p"],
                    record.get("q", 1),
                    record.get("q_prime", 1),
                    record.get("p_prime", 0),
                )
            )
        except (KeyError, TypeError) as exc:
            _raise_torus_error(record, k, exc)
    return DecompositionGraph(pieces=tuple(pieces), tori=tuple(tori))


def _raise_piece_error(record, k: int, exc: Exception):
    """Raise the located error of ``pieces[k]``, which its constructor
    refused with ``exc``: the first broken check in file order (the record
    is an object with the required keys and an array of cone orders, then
    each field's type), or else ``exc``, the piece's complaint about its
    values."""
    where = f"pieces[{k}]"
    record = _required_keys(record, where, ("id", "euler", "genus"))
    cone_orders = _expect_list(record.get("cone_orders", []), f"{where}.cone_orders")
    parse_int_field(record["id"], f"{where}.id")
    parse_rational_field(record["euler"], f"{where}.euler")
    parse_int_field(record["genus"], f"{where}.genus")
    for i, a in enumerate(cone_orders):
        parse_int_field(a, f"{where}.cone_orders[{i}]")
    raise FileFormatError(f"{where}: {exc}") from exc


def _raise_torus_error(record, k: int, exc: Exception):
    """Raise the located error of ``tori[k]``, which its constructor refused
    with ``exc``: the first broken check in file order."""
    where = f"tori[{k}]"
    record = _required_keys(record, where, ("from", "to", "p"))
    for key in ("from", "to", "p", "q", "q_prime", "p_prime"):
        if key in record:
            parse_int_field(record[key], f"{where}.{key}")
    raise FileFormatError(f"{where}: {exc}") from exc


def matrix_from_json(data) -> SymMatrix:
    """The matrix of a parsed document; one that is not symmetric is a FileFormatError."""
    rows = sparse_rows_from_json(data, "matrix")
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def reduction_cert_to_json(cert: ReductionCertificate) -> dict:
    return {"a_prime": rows_to_json(cert.a_prime), "a": [rational_str(v) for v in cert.a]}


def _reduction_from_json(data) -> ReductionCertificate:
    """The ``a_prime`` and ``a`` of a reduction file; other keys are not read."""
    doc = _required_keys(data, "reduction certificate", ("a_prime", "a"))
    a_prime = sparse_rows_from_json(doc["a_prime"], "a_prime")
    a = [
        parse_rational_field(v, f"a[{i}]")
        for i, v in enumerate(_expect_list(doc["a"], "a"))
    ]
    return ReductionCertificate(a_prime=tuple(a_prime), a=tuple(a))


def surface_cert_to_json(cert: SurfaceCertificate) -> dict:
    return {
        "degrees": list(cert.degrees),
        "scale": cert.scale,
        "reduction": {"a_prime": rows_to_json(cert.a_prime)},
        "systems": [
            {
                "torus": s.torus,
                "side": s.side,
                "a_plus": s.a_plus,
                "a_minus": s.a_minus,
                "b_plus": s.b_plus,
                "b_minus": s.b_minus,
            }
            for s in cert.systems
        ],
    }


def surface_cert_from_json(data) -> SurfaceCertificate:
    doc = _required_keys(data, "surface certificate", ("degrees", "scale", "reduction", "systems"))
    degrees = tuple(
        parse_int_field(v, f"degrees[{i}]")
        for i, v in enumerate(_expect_list(doc["degrees"], "degrees"))
    )
    scale = parse_int_field(doc["scale"], "scale")
    reduction = _required_keys(doc["reduction"], "reduction", ("a_prime",))
    a_prime = sparse_rows_from_json(reduction["a_prime"], "a_prime")
    systems = []
    for k, record in enumerate(_expect_list(doc["systems"], "systems")):
        try:
            values = _system_fields(record)
        except (KeyError, TypeError):
            values = None
        if values is None or not all(type(v) is int for v in values):
            _raise_system_error(record, k)
        systems.append(CurveSystem(*values))
    return SurfaceCertificate(
        degrees=degrees,
        scale=scale,
        a_prime=tuple(a_prime),
        systems=tuple(systems),
    )


_SYSTEM_KEYS = ("torus", "side", "a_plus", "a_minus", "b_plus", "b_minus")
_system_fields = itemgetter(*_SYSTEM_KEYS)


def _raise_system_error(record, k: int):
    """Raise the located error of ``systems[k]``: key by key in file order,
    the first that is missing or not an integer (an int subclass, which
    the fast path refers here, passes)."""
    where = f"systems[{k}]"
    record = _expect_dict(record, where)
    for key in _SYSTEM_KEYS:
        if key not in record:
            raise FileFormatError(f"{where}: missing required key '{key}'")
        parse_int_field(record[key], f"{where}.{key}")


def parse_json(text: str, where: str | PathLike):
    """The JSON document in ``text``, read from ``where``; floats are rejected.

    Malformed JSON and nesting too deep for the parser's recursion both
    raise FileFormatError, so no input text ends in a traceback.
    """
    try:
        return json.loads(text, parse_float=reject_float)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise FileFormatError(f"{where}: JSON nested too deeply") from None


def load_json(path: str | PathLike):
    with open(path) as f:
        text = f.read()
    return parse_json(text, path)


def reject_float(text: str):
    raise FileFormatError(
        f"floats are not exact; write the rational {text!r} as a string like \"1/2\""
    )


def json_text(doc) -> str:
    """The one-line JSON text of ``doc``: ``json.dumps`` with its default
    arguments, so the C encoder writes it.  ``python -m json.tool``
    pretty-prints it."""
    return json.dumps(doc)


def save_json(doc: dict, path: str | PathLike) -> None:
    with open(path, "w") as f:
        f.write(json_text(doc) + "\n")


def load_manifold(path: str | PathLike) -> DecompositionGraph:
    return manifold_from_json(load_json(path))

