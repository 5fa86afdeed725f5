"""Compare two sets of benchmark runs, metric by metric, per workload.

    python3 bench/compare.py A.json B.json

``A`` (the parent) and ``B`` (the change) are JSON lists of runs, as
``bench/run.py --out`` appends them. For every workload and every
end-to-end metric of ``BENCHMARK.json``, each side's value is the median
over its runs, and its spread is the distance between its quartiles
(Python's ``statistics.quantiles(n=4)``) as a share of that median; a
side with one run uses that run's own quartiles. Where a metric's run
value is not the run's median (``fit_s`` is the fastest fit of a run),
the runs' medians are checked as a second row, ``<metric>:median``,
against the same bound. Verdicts:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but a side's spread is wider than
  the bound, so "no worse" is not shown (unless every run of B beats
  every run of A, which reads ``better``);
* ``ok`` — within the bound, on spreads narrower than the bound;
* ``missing`` — a side has no run of the workload or metric.

More failed fits in B than in A is a regression too. Exits 1 on any
regression or missing row, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def side_stats(runs: list, workload: str, metric: str, field: str = "value") -> "dict | None":
    """Median, quartiles and run values of one metric on one side;
    ``field`` picks each run's ``value`` or its in-run ``median``."""
    entries = [
        run["workloads"][workload]["metrics"][metric]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]
    if not entries:
        return None
    values = [e[field] for e in entries]
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = entries[0]["q1"], entries[0]["q3"]
    return {"median": median, "q1": q1, "q3": q3, "values": values, "runs": len(values)}


def failures(runs: list, workload: str) -> int:
    return sum(run["workloads"][workload]["failed"] for run in runs if workload in run["workloads"])


def verdict(a: dict, b: dict, better: str, bound: float) -> "tuple[str, float]":
    """``(verdict, worsening)``; worsening is the share by which B's
    median is worse than A's (negative when B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if worse > bound:
        return "regression", worse
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b) if s["median"])
    if spread > bound:
        b_worst = max(b["values"]) if better == "lower" else min(b["values"])
        a_best = min(a["values"]) if better == "lower" else max(a["values"])
        if sign * (a_best - b_worst) > 0:
            return "better", worse
        return "unresolved", worse
    return "ok", worse


def median_differs(runs: list, workload: str, metric: str) -> bool:
    """Whether some run reports a value other than its in-run median."""
    for run in runs:
        m = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None and m["value"] != m["median"]:
            return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="runs of the parent")
    parser.add_argument("b", type=pathlib.Path, help="runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    runs_a = json.loads(args.a.read_text())
    runs_b = json.loads(args.b.read_text())

    def cell(s: "dict | None") -> str:
        if s is None:
            return "missing"
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['runs']}"

    regressions = missing = 0
    print(
        f"{'workload':22} {'metric':19} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'change':>7} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            fields = ["value"]
            if median_differs(runs_a + runs_b, workload, m["name"]):
                fields.append("median")
            for field in fields:
                label = m["name"] + (":median" if field == "median" else "")
                a = side_stats(runs_a, workload, m["name"], field)
                b = side_stats(runs_b, workload, m["name"], field)
                if a is None or b is None:
                    missing += 1
                    print(f"{workload:22} {label:19} {cell(a):>32} {cell(b):>32}  missing")
                    continue
                verdict_label, worse = verdict(a, b, m["better"], m["bound"])
                regressions += verdict_label == "regression"
                print(
                    f"{workload:22} {label:19} {cell(a):>32} {cell(b):>32} "
                    f"{worse:>+7.1%} {m['bound']:>6.0%}  {verdict_label}"
                )
        fa, fb = failures(runs_a, workload), failures(runs_b, workload)
        if fb > fa:
            regressions += 1
            print(f"{workload:22} failed fits: A {fa}, B {fb}  regression")
    print(f"\n{regressions} regression(s), {missing} missing")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main())
