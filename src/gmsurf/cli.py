"""Command-line interface.

Subcommands:

- ``analyze``  decide both properties for a manifold file;
- ``certify``  build a surface certificate (positive-eigenvalue branch only);
- ``verify``   recheck a surface or reduction certificate file independently,
  against the manifold or matrix file it is about;
- ``gen``      generate a random manifold with a requested spectral profile;
- ``matrix``   run the decision and reduction machinery on a raw matrix;
- ``cover``    parity check / witness construction for surface covers.

Exit codes are a stable contract: 0 = property holds or certificate valid,
1 = property fails (or no cover exists), 2 = input or output error, 3 =
certificate unavailable, 4 = certificate invalid, 5 = internal error (a
crash, never a verdict), 141 = the reader of stdout closed it early.
``main`` alone maps exceptions to exit codes.  A command returns 0, 1 or 4,
or 2 for an argument value it refuses itself.

Every ``--json`` output, ``gen`` document and written file is one JSON
document on one line, written by ``fileio.json_text``; the text mode is the
human-readable format.
"""

from __future__ import annotations

import argparse
import os
import sys

from .covers import CoverSpec, ParityError, find_cover, parity_check
from .decision import Branch, decide, two_piece_d
from .exact_linalg import SymMatrix, rational_str
from .fileio import (
    FileFormatError,
    _reduction_from_json,
    json_text,
    load_json,
    load_manifold,
    manifold_from_json,
    manifold_to_json,
    matrix_from_json,
    parse_json,
    reduction_cert_to_json,
    save_json,
    surface_cert_from_json,
    surface_cert_to_json,
)
from .generate import PROFILES, generate_manifold
from .manifold import InvalidGraphError, decomposition_matrix
from .reduction import NoPositiveEigenvalueError, find_singular_reduction, verify_reduction
from .surface import build_surface_certificate, verify_surface_certificate

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_UNAVAILABLE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5
# 128 + SIGPIPE: what a shell reports for a writer whose reader left.
EXIT_PIPE = 141

# `main` alone maps exceptions to exit codes; a command returns 0, 1 or 4
# (2 for an argument value it refuses).  No certificate is exit 3, an input
# or output error exit 2, and any other exception, a ValueError from the
# decision or a verifier included, a crash (exit 5).
UNAVAILABLE = (NoPositiveEigenvalueError, ParityError)
INPUT_ERRORS = (FileFormatError, InvalidGraphError, OSError, UnicodeDecodeError)

# The largest degree `cover find` builds a witness for.  Its permutations
# take about 440 bytes a point (README), so the cap bounds the command's
# memory; a larger alpha is refused before anything alpha-long is built.
MAX_FIND_ALPHA = 10**6
# Each boundary circle adds an alpha-long z and its cycle string (about 40
# bytes a point, README), so `cover find` also caps alpha times the number
# of circles; alpha = 10**6 with two circles stays within it.
MAX_FIND_POINTS = 2 * 10**6
# Each handle adds two alpha-long permutations, which verify_cover reads as
# sets and the output prints, so `cover find` caps alpha times the
# permutations it writes, 2 * genus + circles; every genus <= 2 spec within
# the caps above stays within it.
MAX_FIND_PERMUTATION_POINTS = 6 * 10**6
# The largest manifold `gen` draws, the largest size the README measures.
MAX_GEN_PIECES = 10_000


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _row_objects(rows, upper: bool = False) -> list[dict[str, str]]:
    """One ``{"column": "value"}`` object per row of ``rows``, which are
    ``{column: value}`` dicts of nonzeros: the row's nonzeros in ascending
    column order, only those on and above the diagonal with ``upper``."""
    return [
        {str(j): rational_str(row[j]) for j in sorted(row) if j >= i or not upper}
        for i, row in enumerate(rows)
    ]


def _print_rows(rows: list[dict[str, str]]) -> None:
    for i, row in enumerate(rows):
        print((f"  {i}: " + ", ".join(f"{j}={v}" for j, v in row.items())).rstrip())


def _analysis_report(A: SymMatrix) -> dict:
    """The verdict on A.  ``matrix`` is A's upper triangle; A-minus is A with
    the diagonal entries of ``blocks.positive`` negated."""
    verdict = decide(A)
    pos, neg, zero = verdict.blocks
    report = {
        "matrix": _row_objects(A.sparse, upper=True),
        "perron_sign": verdict.perron_sign,
        "blocks": {"positive": pos, "negative": neg, "zero": zero},
        "property_i": verdict.property_i,
        "property_ve": verdict.property_ve,
        "branch": verdict.branch.value,
        "two_piece": None,
        "notes": [],
    }
    if zero and verdict.branch.value.startswith("Semidefinite"):
        report["notes"].append(
            "zero diagonal entries present: 'same sign' means all >= 0 or all <= 0"
        )
    if A.order == 2:
        inv = two_piece_d(A)
        report["two_piece"] = {
            "d": rational_str(inv.d),
            "i_via_d": inv.i_via_d,
            "ve_via_d": inv.ve_via_d,
            "fibers_over_circle": inv.fibers_over_circle,
            "virtually_fibers": inv.virtually_fibers,
        }
    return report


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json_text(report))
        return
    print("decomposition matrix, upper triangle (row: column=value):")
    _print_rows(report["matrix"])
    sign = ("negative", "zero", "positive")[report["perron_sign"] + 1]
    print(f"sign of A-minus's Perron root: {sign}")
    blocks = report["blocks"]
    print(
        f"diagonal blocks: positive {blocks['positive']}, negative {blocks['negative']}, "
        f"zero {blocks['zero']}"
    )
    print(f"branch: {report['branch']}")
    print(f"immersed essential surface (I): {'yes' if report['property_i'] else 'no'}")
    print(f"virtually embedded surface (VE): {'yes' if report['property_ve'] else 'no'}")
    if report["two_piece"] is not None:
        tp = report["two_piece"]
        print(
            f"two-piece invariant D = {tp['d']} "
            f"(I: {tp['i_via_d']}, VE: {tp['ve_via_d']}, "
            f"fibers over circle: {tp['fibers_over_circle']}, "
            f"virtually fibers: {tp['virtually_fibers']})"
        )
    for note in report["notes"]:
        print(f"note: {note}")


def cmd_analyze(args) -> int:
    G = load_manifold(args.manifold)
    A = decomposition_matrix(G)
    report = _analysis_report(A)
    _print_report(report, args.json)
    return EXIT_HOLDS if report["property_i"] else EXIT_FAILS


def cmd_certify(args) -> int:
    G = load_manifold(args.manifold)
    cert = build_surface_certificate(G)
    problems = verify_surface_certificate(G, cert)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_INVALID
    save_json(surface_cert_to_json(cert), args.out)
    summary = {
        "out": str(args.out),
        "degrees": list(cert.degrees),
        "scale": cert.scale,
        "systems": len(cert.systems),
    }
    if args.json:
        print(json_text(summary))
    else:
        print(f"certificate written to {args.out}")
        print(f"piece degrees: {list(cert.degrees)}, scale {cert.scale}, "
              f"{len(cert.systems)} curve systems")
    return EXIT_HOLDS


def _read_json(source: str):
    """The JSON document in the file ``source``, or on stdin for "-"."""
    if source == "-":
        return parse_json(sys.stdin.read(), "<stdin>")
    return load_json(source)


def cmd_verify(args) -> int:
    # A JSON array SOURCE is a matrix, any other document a manifold.  Only
    # a reduction certificate has a top-level "a_prime"; any other document
    # goes to the surface parser, which names what is wrong.
    source = _read_json(args.source)
    doc = load_json(args.certificate)
    is_matrix = isinstance(source, list)
    if isinstance(doc, dict) and "a_prime" in doc:
        A = matrix_from_json(source) if is_matrix else decomposition_matrix(manifold_from_json(source))
        violations = verify_reduction(A, _reduction_from_json(doc))
    elif is_matrix:
        return _fail_input("a surface certificate is checked against a manifold, not a matrix")
    else:
        violations = verify_surface_certificate(manifold_from_json(source), surface_cert_from_json(doc))
    if args.json:
        print(json_text({"valid": not violations, "violations": violations}))
    elif violations:
        for v in violations:
            print(f"violation: {v}")
    else:
        print("certificate is valid")
    return EXIT_INVALID if violations else EXIT_HOLDS


def cmd_gen(args) -> int:
    if args.pieces > MAX_GEN_PIECES:
        return _fail_input(f"gen takes up to {MAX_GEN_PIECES} pieces, got {args.pieces}")
    try:
        G = generate_manifold(args.pieces, seed=args.seed, profile=args.profile)
    except ValueError as exc:
        return _fail_input(str(exc))
    doc = manifold_to_json(G)
    if args.out:
        save_json(doc, args.out)
        print(f"manifold written to {args.out}")
    else:
        print(json_text(doc))
    return EXIT_HOLDS


def cmd_matrix(args) -> int:
    try:
        A = matrix_from_json(_read_json(args.source))
        report = _analysis_report(A)
    except ValueError as exc:
        return _fail_input(str(exc))
    # A singular reduction exists exactly where A-minus is not negative
    # definite.  The report holds A' by rows of nonzeros; the file written
    # to --out is the dense reduction certificate.
    reduction = report["reduction"] = None
    if report["branch"] != Branch.NEGATIVE_DEFINITE.value:
        reduction = find_singular_reduction(A)
        report["reduction"] = {
            "a_prime": _row_objects(reduction.a_prime),
            "a": [rational_str(v) for v in reduction.a],
        }
        if args.out:
            save_json(reduction_cert_to_json(reduction), args.out)
    _print_report(report, args.json)
    if not args.json:
        if reduction is None:
            print("singular reduction: none (A-minus is negative definite)")
        else:
            print("singular reduction A' (row: column=value):")
            _print_rows(report["reduction"]["a_prime"])
            print("annihilated vector a: [" + ", ".join(report["reduction"]["a"]) + "]")
            if args.out:
                print(f"reduction certificate written to {args.out}")
    return EXIT_HOLDS if report["property_i"] else EXIT_FAILS


def _parse_degrees(text: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty boundary group in --degrees")
        groups.append(tuple(int(d) for d in chunk.split(",")))
    return tuple(groups)


def _cycle_str(perm: tuple[int, ...], labels: list[str]) -> str:
    """Cycle notation without fixed points, "()" for the identity; point i
    is written as ``labels[i]``, a table the caller builds once per command."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(labels[i])
            i = perm[i]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) if parts else "()"


def cmd_cover(args) -> int:
    try:
        spec = CoverSpec(
            genus=args.genus, alpha=args.alpha, boundary_degrees=_parse_degrees(args.degrees)
        )
    except ValueError as exc:
        return _fail_input(str(exc))
    if args.action == "check":
        ok = parity_check(spec)
        if args.json:
            print(json_text({"parity": ok}))
        else:
            print(f"parity condition: {'holds (cover exists)' if ok else 'fails (no cover)'}")
        return EXIT_HOLDS if ok else EXIT_FAILS
    if spec.alpha > MAX_FIND_ALPHA:
        return _fail_input(f"cover find takes --alpha up to {MAX_FIND_ALPHA}, got {spec.alpha}")
    circles = len(spec.boundary_degrees)
    if spec.alpha * circles > MAX_FIND_POINTS:
        return _fail_input(
            f"cover find takes --alpha times the boundary circles up to {MAX_FIND_POINTS}, "
            f"got {spec.alpha} x {circles} = {spec.alpha * circles}"
        )
    perms = 2 * spec.genus + circles
    if spec.alpha * perms > MAX_FIND_PERMUTATION_POINTS:
        return _fail_input(
            f"cover find takes --alpha times (2 * genus + boundary circles) up to {MAX_FIND_PERMUTATION_POINTS}, "
            f"got {spec.alpha} x {perms} = {spec.alpha * perms}"
        )
    cert = find_cover(spec)
    labels = [str(i) for i in range(cert.alpha)]
    zs = cert.all_z()
    doc = {
        "alpha": cert.alpha,
        "x": [_cycle_str(p, labels) for p in cert.x],
        "y": [_cycle_str(p, labels) for p in cert.y],
        "z": [_cycle_str(p, labels) for p in cert.z],
        "last_z": _cycle_str(zs[-1], labels),
        # find_cover's recheck compared each z's cycle type with this one.
        "boundary_cycle_types": [list(t) for t in spec.type_key()],
    }
    if args.json:
        print(json_text(doc))
    else:
        for name, perms in (("x", doc["x"]), ("y", doc["y"]), ("z", doc["z"])):
            for k, text in enumerate(perms):
                print(f"{name}{k + 1} = {text}")
        print(f"z{len(cert.z) + 1} = {doc['last_z']} (determined by the relation)")
    return EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmsurf",
        description="Decide immersed/virtually embedded surface existence for "
        "graph manifolds and emit checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide both properties for a manifold file")
    p.add_argument("manifold", help="manifold JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="build a surface certificate")
    p.add_argument("manifold", help="manifold JSON file")
    p.add_argument("--out", required=True, help="certificate output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="recheck a surface or reduction certificate file")
    p.add_argument("source", help="manifold or matrix JSON file the certificate is about, or - for stdin")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random manifold")
    p.add_argument("pieces", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="any")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("matrix", help="decide and reduce a raw symmetric matrix")
    p.add_argument("source", nargs="?", default="-", help="matrix JSON file, or - for stdin")
    p.add_argument("--out", help="write the reduction certificate here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("cover", help="surface covers with prescribed boundary")
    p.add_argument("action", choices=("check", "find"))
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument(
        "--degrees",
        required=True,
        help="boundary degrees: comma-separated per circle, circles separated by ';' "
        "(example: '1,1;2')",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Input numbers may pass the interpreter's int <-> str limit of 4300
    # digits (path degrees take 34-38 bits at 13 pieces, 55-59 at 96), and
    # every conversion of a command is exact, so the limit is lifted for it.
    # Interpreters without the limit have no `get_int_max_str_digits`.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early, which is no crash.  Stdout goes to devnull,
        # so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UNAVAILABLE as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except INPUT_ERRORS as exc:
        return _fail_input(str(exc))
    except Exception as exc:  # a crash must not read as a verdict
        import traceback  # only on a crash: importing it costs ~4% of start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
