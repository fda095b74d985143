"""gmsurf benchmark runner.

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the program is imported from
``src``.  One runner and one worker process per run, closed loop, one
client: the worker (worker.py) runs each op, one CLI command with that
command's default flags, in-process through ``gmsurf.cli.main`` and checks
its output.  The runner measures set-up, starts the worker, turns its
records into metrics and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A wrong verdict, a rejected certificate or witness, or a
traceback sets ``"correct": false`` and the exit code to 1.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"

SETUP_SAMPLES = 20
DEADLINE_S = 170.0
PROBE = (
    "import time, gmsurf.cli; imported = time.monotonic()\n"
    "import statistics, clock\n"
    "print(imported, statistics.median(clock.calibrate_import() for _ in range(5)))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def setup_samples(count: int) -> list[float]:
    """Times from process start to ``gmsurf.cli`` imported, one per probe,
    each at the reference host speed of the import calibration that the
    probe runs after its import."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", PROBE], env=child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        imported, calibration = (float(x) for x in out.stdout.split())
        samples.append((imported - start) * clock.IMPORT_REFERENCE_S / calibration)
    return samples


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: str, result: dict, setup_s: float) -> dict:
    records = result["records"]
    primary = [r for r in records if r["kind"] == gen.PRIMARY[workload]]
    times = [r["seconds"] for r in primary]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(records) / sum(r["seconds"] for r in records),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "op_s.p50": statistics.median(times),
        "op_s.p90": quantile(times, 90),
        "ok_ratio": sum(r["status"] == "ok" for r in primary) / len(primary),
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gmsurf benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmsurf" / "cli.py").is_file():
        print(f"error: no gmsurf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    # Set-up is probed before and after the worker, half each time, so that
    # its median spans the run instead of one moment of the host's speed.
    # One unmeasured start first writes the bytecode cache, as an installed
    # package would have it.
    setup_samples(1)
    setups = setup_samples(SETUP_SAMPLES // 2)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--span-file", str(TRACES / f"{args.workload}-seed{args.seed}.jsonl")]
    worker = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = worker.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print("error: worker exceeded the deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.strip().splitlines()[-1])
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup_s = statistics.median(setups)

    records = result["records"] + result.get("traced_records", [])
    wrong = [r for r in records if r["status"] == "wrong"]
    for r in wrong:
        print(f"wrong output: {json.dumps(r)}", file=sys.stderr)
    values = result["per_layer"] if args.trace else end_to_end(args.workload, result, setup_s)
    units = declared_units(args.trace)
    if values.keys() != units.keys():
        print(f"error: metrics {sorted(values.keys() ^ units.keys())} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(wrong),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
