"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Runs every workload at 3,000 points with one timed fit, plain and
traced, against results pinned for that size in a temporary file.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
POINTS = 3000


def run_bench(tmp: pathlib.Path, expected: pathlib.Path, *extra: str):
    out = tmp / f"runs-{len(list(tmp.glob('runs-*')))}.json"
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--seconds", "0",
            "--min-fits", "1",
            "--points", str(POINTS),
            "--expected", str(expected),
            "--out", str(out),
            *extra,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, last, json.loads(out.read_text())[-1]["workloads"]


@pytest.fixture(scope="module")
def pinned(tmp_path_factory) -> pathlib.Path:
    path = tmp_path_factory.mktemp("pinned") / "expected.json"
    subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), "--pin", "--points", str(POINTS),
         "--expected", str(path)],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )
    return path


@pytest.fixture(scope="module")
def plain(pinned, tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("plain"), pinned)


@pytest.fixture(scope="module")
def traced(pinned, tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("traced"), pinned, "--trace", "1")


@pytest.mark.parametrize("section, mode", [("end_to_end", "plain"), ("per_layer", "traced")])
def test_every_declared_metric_is_emitted_with_its_unit(section, mode, request):
    code, last, results = request.getfixturevalue(mode)
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for name, result in results.items():
        assert result["correct"], (name, result["errors"])
        for metric in SPEC[section]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (name, metric["name"])
            assert f"{name}/{metric['name']}" in last["metrics"]
    if section == "end_to_end":
        assert all(r["metrics"]["error_rate"]["value"] == 0.0 for r in results.values())


def test_layer_self_times_tile_the_traced_fit(traced):
    for name in traced[2]:
        trace = json.loads((BENCH / "out" / f"{name}.trace.json").read_text())
        assert trace["fits"] and trace["spans"]
        for fit in trace["fits"]:
            assert sum(fit["layers"].values()) == pytest.approx(fit["wall"], rel=0.01)


def test_every_wrapped_function_is_restored(pinned):
    def bindings():
        found = {}
        for owner, namespace in tracing._repro_namespaces():
            for attr, value in namespace.items():
                found[(id(owner), attr)] = value
                defaults = getattr(value, "__defaults__", None)
                if isinstance(defaults, tuple):
                    found[(id(owner), attr, "defaults")] = defaults
        return found

    w = workload.WORKLOADS["gmeans-k64"]
    rot = workload.rotation(7)
    mixture = workload.make_mixture(w, rot, POINTS)
    world = workload.build(w, mixture)
    workload.fit(w, world)  # lazy imports happen untraced
    workload.release(world)
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.leftovers(), "install bound no wrapper"
        world = workload.build(w, mixture)
        tracer.begin("fit", "core.driver", 0)
        try:
            result = workload.fit(w, world)
        finally:
            record = tracer.end()
        workload.release(world)
    finally:
        tracer.restore()
    assert tracer.leftovers() == []
    after = bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert record["calls"]["assign_nearest"] > 0 and record["calls"]["sizeof_value"] > 0
    expected = json.loads(pinned.read_text())["workloads"]["gmeans-k64"]
    assert workload.mismatches(workload.signature(w, result, rot), expected) == []


def test_wrong_expected_k_found_fails_every_fit(pinned, tmp_path):
    wrong = json.loads(pinned.read_text())
    wrong["workloads"]["gmeans-k64"]["k_found"] += 1
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong))
    code, last, results = run_bench(tmp_path, path, "--workload", "gmeans-k64")
    assert code == 1 and not last["correct"]
    assert last["failed"] == last["attempted"] > 0
    assert results["gmeans-k64"]["metrics"]["error_rate"]["value"] == 1.0


def test_compare_flags_regressions_and_wide_spreads(tmp_path, capsys):
    def runs(values):
        return [
            {"workloads": {"gmeans-k64": {"failed": 0, "metrics": {"fit_s": {
                "value": v, "q1": v, "q3": v}}}}}
            for v in values
        ]

    def stats(values):
        return compare.side_stats(runs(values), "gmeans-k64", "fit_s")

    a = stats([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(a, a, "lower", 0.1)[0] == "ok"
    assert compare.verdict(a, stats([1.2, 1.21, 1.19, 1.2, 1.22]), "lower", 0.1)[0] == (
        "regression"
    )
    assert compare.verdict(a, stats([0.7, 1.3, 0.8, 1.2, 1.0]), "lower", 0.1)[0] == (
        "unresolved"
    )
    assert compare.verdict(stats([2.0, 2.6, 2.2, 2.5]), a, "lower", 0.1)[0] == "better"

    def full_set(fit_median=1.0, drop=None):
        """Ten runs of every declared workload and metric."""
        metric = {"value": 1.0, "median": 1.0, "q1": 1.0, "q3": 1.0}
        workload_result = {
            "failed": 0,
            "metrics": {m["name"]: dict(metric) for m in SPEC["end_to_end"]},
        }
        workload_result["metrics"]["fit_s"]["median"] = fit_median
        return [
            {"workloads": {w["name"]: workload_result for w in SPEC["workloads"]
                           if w["name"] != drop}}
            for _ in range(10)
        ]

    def main(a, b):
        paths = []
        for side, runs_ in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{side}.json")
            paths[-1].write_text(json.dumps(runs_))
        code = compare.main([str(p) for p in paths])
        return code, capsys.readouterr().out

    parent = full_set(fit_median=1.05)
    code, out = main(parent, full_set(fit_median=1.05))
    assert code == 0 and "0 regression(s), 0 missing" in out
    # The fastest fit holds but the in-run median slows: a regression on
    # every workload.
    code, out = main(parent, full_set(fit_median=1.3))
    assert code == 1 and f"\n{len(SPEC['workloads'])} regression(s)" in out
    # A set that skipped a workload shows nothing about it: not a pass.
    code, out = main(parent, full_set(fit_median=1.05, drop="gmeans-k64-procs"))
    assert code == 1 and "missing" in out and "0 regression(s)" in out
