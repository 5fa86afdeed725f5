"""World building for experiments."""

import pytest

from repro.data.generator import generate_gaussian_mixture
from repro.data.textio import bytes_per_record
from repro.evaluation.harness import BENCH_COST, build_world, target_split_bytes


def test_target_split_bytes_yields_requested_splits():
    n, d, target = 10_000, 5, 16
    split = target_split_bytes(n, d, target)
    records_per_split = split // bytes_per_record(d)
    import math

    splits = math.ceil(n / records_per_split)
    assert target <= splits <= target + 1


def test_target_split_bytes_minimum_one_record():
    assert target_split_bytes(1, 3, 100) >= bytes_per_record(3)


def test_build_world_wires_everything():
    mixture = generate_gaussian_mixture(1000, 3, 4, rng=0)
    world = build_world(mixture, nodes=3, target_splits=8, task_heap_mb=128, seed=1)
    assert world.runtime.cluster.nodes == 3
    assert world.runtime.cluster.task_heap_mb == 128
    assert world.dataset.num_records == 1000
    assert 8 <= world.dataset.num_splits <= 9
    assert world.points is mixture.points


def test_build_world_uses_bench_cost_by_default():
    mixture = generate_gaussian_mixture(100, 2, 2, rng=0)
    world = build_world(mixture)
    assert world.runtime.cost_model.params is BENCH_COST


def test_build_world_custom_cost():
    from repro.mapreduce.costmodel import CostParameters

    mixture = generate_gaussian_mixture(100, 2, 2, rng=0)
    custom = CostParameters(task_startup_seconds=9.0)
    world = build_world(mixture, cost=custom)
    assert world.runtime.cost_model.params.task_startup_seconds == 9.0


def test_build_world_backend_override_keeps_env_retry_settings(monkeypatch):
    from repro.mapreduce.executors import (
        MAX_JOB_RETRIES_ENV,
        NUM_WORKERS_ENV,
        RETRY_BACKOFF_ENV,
    )

    monkeypatch.setenv(MAX_JOB_RETRIES_ENV, "3")
    monkeypatch.setenv(RETRY_BACKOFF_ENV, "7.5")
    monkeypatch.setenv(NUM_WORKERS_ENV, "2")
    mixture = generate_gaussian_mixture(100, 2, 2, rng=0)
    for overrides in ({}, {"executor": "serial"}, {"data_plane": "pickled"}):
        config = build_world(mixture, **overrides).runtime.config
        assert config.max_job_retries == 3, overrides
        assert config.retry_backoff_seconds == 7.5, overrides
    overridden = build_world(mixture, executor="serial", num_workers=1)
    assert overridden.runtime.config.executor == "serial"
    assert overridden.runtime.config.num_workers == 1
