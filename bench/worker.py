"""Benchmark worker: runs one workload's ops in-process through gmsurf.cli.main.

Started by run.py, once per run.  It executes whole rounds of ops (see
gen.py) until the ops' summed wall time reaches --seconds, checks every
output, and prints one JSON line with a record per op.  With --trace 1 it
runs instead a fixed number of rounds, gen.TRACE_ROUNDS, untraced, then
replays the same rounds with the tracer installed and adds the per-layer
metrics, the trace overhead and a span file.  The traced figures therefore
count the same ops however fast the host or the program is.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import checks
import clock
import gen
import tracer as tracing

import gmsurf.cli as cli


def run_cli(argv: list[str]) -> tuple[int, str, str, float, float]:
    """Exit code, stdout, stderr, and the clock readings at start and end."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), start, time.perf_counter()


def check_output(op: dict, code: int, stdout: str) -> list[str]:
    """Problems with an op's output (empty = accepted).  A ``verify`` op's
    answer is its exit code, checked by the caller."""
    if op["kind"] == "analyze":
        return checks.check_analyze(op, code, stdout)
    if op["kind"] == "certify":
        manifold = json.loads(Path(op["manifold"]).read_text())
        return checks.check_certificate(manifold, json.loads(Path(op["certificate"]).read_text()))
    if op["kind"] == "cover":
        return checks.check_cover(op, json.loads(stdout))
    return []


def execute(op: dict, records: list[dict], tracer=None) -> None:
    """Run one op (plus `verify` after a certificate) and append records.

    A record's status is "ok" (accepted answer), "unavailable" (exit 3, a
    documented answer that is not a certificate or witness) or "wrong".
    """
    if tracer is not None:
        tracer.op_id = len(records)
    code, stdout, stderr, start, end = run_cli(op["argv"])
    record = {
        "kind": op["kind"], "start": start, "end": end, "wall_s": end - start, "code": code,
        "status": "ok", "problems": [],
    }
    for key in ("pieces", "family", "alpha", "genus", "near_identity", "class"):
        if key in op:
            record[key] = op[key]
    records.append(record)
    if code == -1:
        record["problems"] = [stderr]
    elif op["kind"] != "analyze" and code == 3:
        record["status"] = "unavailable"
    elif op["kind"] != "analyze" and code != 0:
        record["problems"] = [f"exit code {code}: {stderr.strip()}"]
    else:
        try:
            record["problems"] = check_output(op, code, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            record["problems"] = [f"unreadable output: {exc!r}"]
        if op["kind"] == "certify":
            verify = {"kind": "verify", "argv": ["verify", op["manifold"], op["certificate"]],
                      "family": op["family"], "pieces": op["pieces"]}
            execute(verify, records, tracer)
            if records[-1]["status"] != "ok":
                record["problems"].append("verify rejected the certificate")
    if record["problems"]:
        record["status"] = "wrong"


def run_rounds(
    workload: str, seed: int, seconds: float, workdir: Path, limit: int | None = None
) -> tuple[list, int]:
    """Run whole rounds until the ops' summed time reaches ``seconds`` and
    gen.MIN_PRIMARY_OPS primary ops have run, or ``limit`` rounds have run,
    or the workload runs out of rounds.  Returns the records and rounds run."""
    records: list[dict] = []
    if limit is None:
        limit = gen.max_rounds(workload)
    done = 0
    with clock.Sampler() as sampler:
        while limit is None or done < limit:
            for op in gen.make_round(workload, seed, done, workdir / f"round{done}"):
                execute(op, records)
            done += 1
            primary = sum(r["kind"] == gen.PRIMARY[workload] for r in records)
            if sum(r["wall_s"] for r in records) >= seconds and primary >= gen.MIN_PRIMARY_OPS:
                break
    rescale(records, sampler)
    return records, done


def clear_caches() -> None:
    """Empty every ``functools`` cache in gmsurf, so that a replay does the
    work a fresh process would do instead of reusing the first pass's."""
    for name, module in list(sys.modules.items()):
        if name == "gmsurf" or name.startswith("gmsurf."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def replay_traced(workload: str, seed: int, workdir: Path, rounds: int) -> tuple[list, tracing.Tracer]:
    records: list[dict] = []
    clear_caches()
    with clock.Sampler() as sampler, tracing.Tracer() as tracer:
        for index in range(rounds):
            for op in gen.make_round(workload, seed, index, workdir / f"round{index}"):
                execute(op, records, tracer)
    rescale(records, sampler)
    return records, tracer


def rescale(records: list[dict], sampler: clock.Sampler) -> None:
    """Set each record's "seconds": its wall time at the reference host speed."""
    for record in records:
        record["scale"] = sampler.scale(record["start"], record["end"])
        record["seconds"] = record["wall_s"] * record["scale"]


def per_layer(workload: str, records: list[dict], untraced: list[dict], tracer: tracing.Tracer) -> dict:
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[tracing.NAME]] += 1
        self_s[span[tracing.NAME]] += own * records[span[tracing.OP]]["scale"]

    def under(span, ancestor: str) -> bool:
        parent = span[tracing.PARENT]
        while parent >= 0:
            if spans[parent][tracing.NAME] == ancestor:
                return True
            parent = spans[parent][tracing.PARENT]
        return False

    primary = [i for i, r in enumerate(records) if r["kind"] == gen.PRIMARY[workload]]
    primary_ids = set(primary)
    failed_certify = {i for i in primary if records[i]["kind"] == "certify" and records[i]["code"] == 3}
    decide_ops = {s[tracing.OP] for s in spans if s[tracing.NAME] == "decision.decide"}
    inertia_in_decide = sum(
        1 for s in spans if s[tracing.NAME] == "exact_linalg.inertia" and under(s, "decision.decide")
    )
    reductions_in_build = [
        s for s in spans
        if s[tracing.NAME] == "reduction.find_singular_reduction" and under(s, "surface.build_surface_certificate")
    ]
    tries = sum(
        1 for s in spans
        if s[tracing.NAME] == "covers.last_z" and s[tracing.PARENT] >= 0
        and spans[s[tracing.PARENT]][tracing.NAME] == "covers.find_cover"
    )
    dm_in_primary = sum(
        1 for s in spans if s[tracing.NAME] == "manifold.decomposition_matrix" and s[tracing.OP] in primary_ids
    )

    def ratio(a, b):
        return a / b if b else 0.0

    verify_times = [r["seconds"] for r in untraced if r["kind"] == "verify" and r.get("family") == "path"]
    traced_s = sum(r["seconds"] for r in records)
    untraced_s = sum(r["seconds"] for r in untraced)
    metrics = {
        "exact_linalg.inertia.calls": calls["exact_linalg.inertia"],
        "exact_linalg.inertia.self_s": self_s["exact_linalg.inertia"],
        "exact_linalg.determinant_rows.calls": calls["exact_linalg.determinant_rows"],
        "exact_linalg.determinant_rows.self_s": self_s["exact_linalg.determinant_rows"],
        "exact_linalg.nullspace_rows.calls": calls["exact_linalg.nullspace_rows"],
        "exact_linalg.nullspace_rows.self_s": self_s["exact_linalg.nullspace_rows"],
        "exact_linalg.arg_bits_max": tracer.maxima.get("exact_linalg.arg_bits_max", 0),
        "manifold.decomposition_matrix.calls_per_op": ratio(dm_in_primary, len(primary)),
        "manifold.decomposition_matrix.self_s": self_s["manifold.decomposition_matrix"],
        "manifold.validate.self_s": self_s["manifold.validate"],
        "decision.decide.self_s": self_s["decision.decide"],
        "decision.inertia_per_op": ratio(inertia_in_decide, len(decide_ops)),
        "reduction.find_singular_reduction.calls": calls["reduction.find_singular_reduction"],
        "reduction.find_singular_reduction.self_s": self_s["reduction.find_singular_reduction"],
        "reduction.calls_per_certify": ratio(len(reductions_in_build), calls["surface.build_surface_certificate"]),
        "reduction.calls_per_failed_certify": ratio(
            sum(1 for s in reductions_in_build if s[tracing.OP] in failed_certify), len(failed_certify)
        ),
        "reduction.full_support_ratio": ratio(sum(tracer.full_support), len(tracer.full_support)),
        "reduction.strict_shrink.self_s": self_s["reduction.strict_shrink"],
        "reduction.verify_reduction.self_s": self_s["reduction.verify_reduction"],
        "surface.build_surface_certificate.self_s": self_s["surface.build_surface_certificate"],
        "surface.verify_surface_certificate.calls": calls["surface.verify_surface_certificate"],
        "surface.verify_surface_certificate.self_s": self_s["surface.verify_surface_certificate"],
        "surface.degree_bits_max": tracer.maxima.get("surface.degree_bits_max", 0),
        "covers.find_cover.self_s": self_s["covers.find_cover"],
        "covers.verify_cover.calls": calls["covers.verify_cover"],
        "covers.verify_cover.self_s": self_s["covers.verify_cover"],
        "covers.tries": tries,
        "covers.tries_per_find": ratio(tries, calls["covers.find_cover"]),
        "fileio.load_manifold.self_s": self_s["fileio.load_manifold"],
        "fileio.save_json.self_s": self_s["fileio.save_json"],
        "fileio.surface_cert_from_json.self_s": self_s["fileio.surface_cert_from_json"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.verify.op_s.p50": statistics.median(verify_times) if verify_times else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio(traced_s - untraced_s, untraced_s),
    }
    return metrics


def write_spans(path: Path, records: list[dict], tracer: tracing.Tracer) -> None:
    """JSON lines: one per op (its record and span counts by function), then
    one per span as [name, op, parent, entry, start, end, exit]."""
    counts = [Counter() for _ in records]
    for span in tracer.spans:
        counts[span[tracing.OP]][span[tracing.NAME]] += 1
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for op, (record, c) in enumerate(zip(records, counts)):
            out.write(json.dumps(dict(record, op=op, span_counts=c)) + "\n")
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--span-file", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if args.trace:
        records, rounds = run_rounds(
            args.workload, args.seed, math.inf, args.workdir, gen.TRACE_ROUNDS[args.workload]
        )
    else:
        records, rounds = run_rounds(args.workload, args.seed, args.seconds, args.workdir)
    result = {
        "records": records,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        traced, tracer = replay_traced(args.workload, args.seed, args.workdir, rounds)
        result["per_layer"] = per_layer(args.workload, traced, records, tracer)
        result["traced_records"] = traced
        if args.span_file is not None:
            write_spans(args.span_file, traced, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
