"""Wall-clock benchmark of the MapReduce G-means reproduction.

Runs each workload in its own subprocess (``bench/workload.py``) with
BLAS/OpenMP threads pinned to 1, ``REPRO_*`` variables cleared and the
checkout's ``src`` first on ``PYTHONPATH``; prints every metric with its
unit, sample count, median and quartiles, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py [--workload NAME ...] [--seed 3] [--seconds 20]
                         [--trace 0|1] [--out results.json]

``--trace 1`` reports the per-layer metrics of a traced run instead of
the end-to-end ones. ``--out`` appends the full result of this run to a
JSON list, the input format of ``bench/compare.py``. Exits 1 when a
result check failed and 2 when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gmeans-k64", "gmeans-k64-procs", "gmeans-k16-telemetry", "multikmeans-k32")
#: Per-workload limit, plus a grace period to shut down after SIGTERM;
#: a run must end inside three minutes.
WORKLOAD_TIMEOUT = 160
GRACE = 10


def load_spec() -> "dict | None":
    """The root BENCHMARK.json (metric names, run length), if present."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_workload(name: str, args) -> "dict | None":
    command = [
        sys.executable,
        str(BENCH / "workload.py"),
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--min-fits",
        str(args.min_fits),
        "--points",
        str(args.points),
    ]
    if args.expected:
        command += ["--expected", str(args.expected)]
    # A session of its own, so the pool workers it forks can be
    # signalled (and waited for) as one process group.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=WORKLOAD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {WORKLOAD_TIMEOUT} s", file=sys.stderr)
        stdout = None
        os.killpg(child.pid, signal.SIGTERM)
        try:
            child.communicate(timeout=GRACE)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    finally:
        wait_for_group(child.pid)
    if stdout is None:
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: exited {child.returncode} without a result", file=sys.stderr)
        return None


def wait_for_group(pgid: int) -> None:
    """Wait until no process of the group is left, killing stragglers."""
    deadline = time.monotonic() + GRACE
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def print_table(result: dict) -> None:
    p = result["platform"]
    print(
        f"\n{result['workload']}  seed {result['seed']}  "
        f"(nproc {p['nproc']}, python {p['python']}, numpy {p['numpy']}, {p['blas']})"
    )
    print(
        f"  {'metric':32} {'unit':8} {'n':>4} {'value':>13} {'median':>13} {'q1':>13} {'q3':>13}"
    )
    for name, m in result["metrics"].items():
        print(
            f"  {name:32} {m['unit']:8} {m['samples']:>4} {m['value']:>13.6g} "
            f"{m['median']:>13.6g} {m['q1']:>13.6g} {m['q3']:>13.6g}"
        )
    if not result["correct"]:
        print(f"  FAILED {result['failed']}/{result['attempted']}: {result['errors']}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"] if spec else 20
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=pathlib.Path, help="append the full result here")
    parser.add_argument("--min-fits", type=int, default=3, help=argparse.SUPPRESS)
    parser.add_argument("--points", type=int, default=60_000, help=argparse.SUPPRESS)
    parser.add_argument("--expected", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    results = {}
    for name in args.workload:
        result = run_workload(name, args)
        if result is None:
            return 2
        results[name] = result
        print_table(result)

    if args.out:
        runs = json.loads(args.out.read_text()) if args.out.exists() else []
        runs.append(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results}
        )
        args.out.write_text("[\n" + ",\n".join(json.dumps(run) for run in runs) + "\n]\n")

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"] for m in spec[section]} if spec else None
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, m in result["metrics"].items():
            if wanted is None or metric in wanted:
                metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
