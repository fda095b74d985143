"""Command-line interface.

Subcommands:

- ``analyze``  decide both properties for a manifold file;
- ``certify``  build a surface certificate (positive-eigenvalue branch only);
- ``verify``   recheck a certificate file independently;
- ``gen``      generate a random manifold with a requested spectral profile;
- ``matrix``   run the decision and reduction machinery on a raw matrix;
- ``cover``    parity check / witness search / exhaustive oracle for surface covers.

Exit codes are a stable contract: 0 = property holds or certificate valid,
1 = property fails (or no cover exists), 2 = input error, 3 = certificate
unavailable, 4 = certificate invalid, 5 = internal error (a crash, never a
verdict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .covers import (
    BudgetExceededError,
    CoverSpec,
    ParityError,
    cover_exists_bruteforce,
    find_cover,
    parity_check,
)
from .decision import NotTwoPieceError, decide, two_piece_d
from .exact_linalg import SymMatrix, rational_str
from .fileio import (
    FileFormatError,
    json_text,
    load_json,
    load_manifold,
    manifold_to_json,
    parse_json,
    reduction_cert_from_json,
    reduction_cert_to_json,
    rows_to_json,
    save_json,
    sparse_rows_from_json,
    surface_cert_from_json,
    surface_cert_to_json,
)
from .generate import PROFILES, generate_manifold
from .manifold import InvalidGraphError, decomposition_matrix
from .reduction import (
    NegativeDefiniteError,
    NoPositiveEigenvalueError,
    find_singular_reduction,
    verify_reduction,
)
from .surface import build_surface_certificate, verify_surface_certificate

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_UNAVAILABLE = 3
EXIT_INVALID = 4
EXIT_INTERNAL = 5

# The largest degree `cover find` builds a witness for.  Its permutations
# take about 440 bytes a point (README), so the cap bounds the command's
# memory; a larger alpha is refused before anything alpha-long is built.
MAX_FIND_ALPHA = 10**6
# Each boundary circle adds an alpha-long z and its cycle string (about 40
# bytes a point, README), so `cover find` also caps alpha times the number
# of circles; alpha = 10**6 with two circles stays within it.
MAX_FIND_POINTS = 2 * 10**6
# The largest manifold `gen` draws, the largest size the README measures.
MAX_GEN_PIECES = 10_000


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _analysis_report(A: SymMatrix) -> dict:
    verdict = decide(A)
    pos, neg, zero = verdict.blocks
    matrix = rows_to_json(A.sparse)
    # An A-minus row is a list of its own only where the diagonal is positive.
    minus = list(matrix)
    for i in pos:
        minus[i] = minus[i].copy()
        minus[i][i] = rational_str(-A[i, i])
    report = {
        "matrix": matrix,
        "a_minus": minus,
        "inertia": {
            "n_pos": verdict.inertia_of_a_minus.n_pos,
            "n_zero": verdict.inertia_of_a_minus.n_zero,
            "n_neg": verdict.inertia_of_a_minus.n_neg,
        },
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
    try:
        inv = two_piece_d(A)
    except NotTwoPieceError:
        inv = None
    if inv is not None:
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
    print("decomposition matrix:")
    for row in report["matrix"]:
        print("  [" + ", ".join(row) + "]")
    ine = report["inertia"]
    print(
        f"inertia of A-minus: ({ine['n_pos']} positive, {ine['n_zero']} zero, "
        f"{ine['n_neg']} negative)"
    )
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
    try:
        G = load_manifold(args.manifold)
        A = decomposition_matrix(G)
        report = _analysis_report(A)
    except (OSError, ValueError) as exc:
        return _fail_input(str(exc))
    _print_report(report, args.json)
    return EXIT_HOLDS if report["property_i"] else EXIT_FAILS


def cmd_certify(args) -> int:
    try:
        G = load_manifold(args.manifold)
        cert = build_surface_certificate(G)
    except (FileFormatError, InvalidGraphError, OSError, UnicodeDecodeError) as exc:
        return _fail_input(str(exc))
    except NoPositiveEigenvalueError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    problems = verify_surface_certificate(G, cert)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_INVALID
    try:
        save_json(surface_cert_to_json(cert), args.out)
    except OSError as exc:
        return _fail_input(str(exc))
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


def cmd_verify(args) -> int:
    try:
        G = load_manifold(args.manifold)
        doc = load_json(args.certificate)
        if args.kind == "surface":
            cert = surface_cert_from_json(doc)
            violations = verify_surface_certificate(G, cert)
        else:
            cert, matrix = reduction_cert_from_json(doc)
            source = matrix if matrix is not None else decomposition_matrix(G)
            violations = verify_reduction(source, cert)
    except (OSError, ValueError) as exc:
        return _fail_input(str(exc))
    if violations:
        for v in violations:
            print(f"violation: {v}")
        if args.json:
            print(json_text({"valid": False, "violations": violations}))
        return EXIT_INVALID
    if args.json:
        print(json_text({"valid": True, "violations": []}))
    else:
        print("certificate is valid")
    return EXIT_HOLDS


def cmd_gen(args) -> int:
    if args.pieces > MAX_GEN_PIECES:
        return _fail_input(f"gen takes up to {MAX_GEN_PIECES} pieces, got {args.pieces}")
    try:
        G = generate_manifold(args.pieces, seed=args.seed, profile=args.profile)
    except (RuntimeError, ValueError) as exc:
        return _fail_input(str(exc))
    doc = manifold_to_json(G)
    if args.out:
        try:
            save_json(doc, args.out)
        except OSError as exc:
            return _fail_input(str(exc))
        print(f"manifold written to {args.out}")
    else:
        print(json_text(doc))
    return EXIT_HOLDS


def _read_matrix(source: str) -> SymMatrix:
    if source == "-":
        data = parse_json(sys.stdin.read(), "<stdin>")
    else:
        data = load_json(source)
    return SymMatrix(sparse_rows_from_json(data, "matrix"))


def cmd_matrix(args) -> int:
    try:
        A = _read_matrix(args.source)
        report = _analysis_report(A)
    except (OSError, ValueError) as exc:
        return _fail_input(str(exc))
    try:
        reduction = find_singular_reduction(A)
    except NegativeDefiniteError:
        reduction = None
    if reduction is not None:
        report["reduction"] = reduction_cert_to_json(reduction, matrix=A)
        if args.out:
            try:
                save_json(report["reduction"], args.out)
            except OSError as exc:
                return _fail_input(str(exc))
    else:
        report["reduction"] = None
    _print_report(report, args.json)
    if not args.json:
        if reduction is None:
            print("singular reduction: none (A-minus is negative definite)")
        else:
            print("singular reduction A':")
            for row in rows_to_json(reduction.a_prime):
                print("  [" + ", ".join(row) + "]")
            print("annihilated vector a: [" + ", ".join(rational_str(v) for v in reduction.a) + "]")
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
            print(json.dumps({"parity": ok}))
        else:
            print(f"parity condition: {'holds (cover exists)' if ok else 'fails (no cover)'}")
        return EXIT_HOLDS if ok else EXIT_FAILS
    if args.action == "brute":
        try:
            exists = cover_exists_bruteforce(spec)
        except BudgetExceededError as exc:
            return _fail_input(str(exc))
        if args.json:
            print(json.dumps({"exists": exists}))
        else:
            print(f"exhaustive search: {'cover exists' if exists else 'no cover'}")
        return EXIT_HOLDS if exists else EXIT_FAILS
    if spec.alpha > MAX_FIND_ALPHA:
        return _fail_input(f"cover find takes --alpha up to {MAX_FIND_ALPHA}, got {spec.alpha}")
    circles = len(spec.boundary_degrees)
    if spec.alpha * circles > MAX_FIND_POINTS:
        return _fail_input(
            f"cover find takes --alpha times the boundary circles up to {MAX_FIND_POINTS}, "
            f"got {spec.alpha} x {circles} = {spec.alpha * circles}"
        )
    try:
        cert = find_cover(spec)
    except ParityError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
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

    p = sub.add_parser("verify", help="recheck a certificate file")
    p.add_argument("manifold", help="manifold JSON file")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--kind", choices=("surface", "reduction"), default="surface")
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
    p.add_argument("action", choices=("check", "find", "brute"))
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
    # Exact numbers outgrow the interpreter's int <-> str limit of 4300 digits
    # (path degrees gain about 33 bits a piece), and every conversion of a
    # command is an exact one, so the limit is lifted for the command.
    # Interpreters without the limit have no `get_int_max_str_digits`.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
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
