"""The unified BENCH_*.json schema writer/loader."""

import json
import pathlib

import pytest

from repro.common.errors import DataFormatError
from repro.evaluation.benchjson import (
    REQUIRED_FIELDS,
    SCHEMA_VERSION,
    bench_entry,
    load_bench_json,
    platform_info,
    write_bench_json,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_round_trip(tmp_path):
    path = tmp_path / "BENCH_x.json"
    written = write_bench_json(
        path,
        "unit_test_bench",
        workload={"n_points": 10, "seed": 1},
        metrics={"wall_seconds": 0.5, "ok": True},
    )
    loaded = load_bench_json(path)
    assert loaded == written
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["metrics"]["wall_seconds"] == 0.5
    assert loaded["workload"]["seed"] == 1
    assert path.read_text().endswith("\n")


def test_platform_info_recorded():
    entry = bench_entry("b", workload={}, metrics={})
    for key in ("platform", "python", "cpu_count"):
        assert key in entry["platform"]
    assert entry["platform"] == platform_info()


def test_empty_benchmark_name_rejected():
    with pytest.raises(DataFormatError):
        bench_entry("", workload={}, metrics={})


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_bench_json(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(DataFormatError, match="expected a JSON object"):
        load_bench_json(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"benchmark": "b", "metrics": {}}))
    with pytest.raises(DataFormatError, match="missing required fields"):
        load_bench_json(path)


def test_load_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "future.json"
    entry = bench_entry("b", workload={}, metrics={})
    entry["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    with pytest.raises(DataFormatError, match="schema_version"):
        load_bench_json(path)


def test_load_rejects_non_object_sections(tmp_path):
    path = tmp_path / "flat.json"
    entry = bench_entry("b", workload={}, metrics={})
    entry["metrics"] = 3
    path.write_text(json.dumps(entry))
    with pytest.raises(DataFormatError, match="'metrics' must be an object"):
        load_bench_json(path)


@pytest.mark.parametrize("name", ["BENCH_observability.json"])
def test_committed_bench_files_conform(name):
    """The archived measurements at the repo root follow the schema."""
    entry = load_bench_json(REPO_ROOT / name)
    assert set(REQUIRED_FIELDS) <= set(entry)
    assert entry["workload"]
    assert entry["metrics"]


def test_merge_creates_then_nests_additional_benchmarks(tmp_path):
    from repro.evaluation.benchjson import merge_bench_json

    path = tmp_path / "BENCH_shared.json"
    first = merge_bench_json(path, "alpha", workload={"n": 1}, metrics={"x": 1})
    assert first == load_bench_json(path)
    assert first["benchmark"] == "alpha"
    assert "benchmarks" not in first

    merged = merge_bench_json(path, "beta", workload={"n": 2}, metrics={"y": 2})
    assert merged["benchmark"] == "alpha"  # first measurement keeps the top level
    assert merged["benchmarks"]["beta"]["metrics"] == {"y": 2}
    assert merged["benchmarks"]["beta"]["workload"] == {"n": 2}
    assert "platform" in merged["benchmarks"]["beta"]
    assert load_bench_json(path) == merged


def test_merge_updates_in_place(tmp_path):
    from repro.evaluation.benchjson import merge_bench_json

    path = tmp_path / "BENCH_shared.json"
    merge_bench_json(path, "alpha", workload={}, metrics={"x": 1})
    merge_bench_json(path, "beta", workload={}, metrics={"y": 1})
    # Re-recording the nested bench replaces its sub-entry.
    updated = merge_bench_json(path, "beta", workload={}, metrics={"y": 9})
    assert updated["benchmarks"]["beta"]["metrics"] == {"y": 9}
    # Re-recording the top-level bench keeps the nested ones.
    topped = merge_bench_json(path, "alpha", workload={}, metrics={"x": 7})
    assert topped["metrics"] == {"x": 7}
    assert topped["benchmarks"]["beta"]["metrics"] == {"y": 9}


def test_load_rejects_malformed_nested_benchmarks(tmp_path):
    path = tmp_path / "bad-nested.json"
    entry = bench_entry("b", workload={}, metrics={})
    entry["benchmarks"] = {"sub": {"metrics": {}}}  # missing workload/platform
    path.write_text(json.dumps(entry))
    with pytest.raises(DataFormatError, match="benchmarks\\['sub'\\] missing"):
        load_bench_json(path)
