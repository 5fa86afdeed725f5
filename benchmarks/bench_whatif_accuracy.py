"""What-if re-scheduler accuracy — predicted vs. actually re-run.

Records one seeded G-means run (4 nodes, combiner on), asks
``whatif_replay`` to predict the makespan under a grid of scenarios
(2 and 8 nodes, combiner on and off), then *actually re-runs* the
workload under each scenario and compares.

The workload pins the job chain so the comparison is apples-to-apples:

* ``strategy="mapper"`` and ``num_reduce_tasks=16`` keep the G-means
  split trajectory (and therefore the job list) identical across node
  counts — capacity-following reduce sizing would otherwise perturb
  the iteration count;
* ``vectorized=False`` uses the per-record mapper path, where the
  combiner genuinely collapses records (the vectorised mappers
  pre-sum per split, making the combiner a no-op);
* a slow network (``network_mbps_per_node=0.25``) makes shuffle a
  material slice of the makespan, so the combiner axis is a real test.

The what-if model is a calibrated re-scheduler over the journal, not a
fresh simulation — but on an invariant job chain its node scaling and
counter-driven combiner growth reproduce the cost model exactly, so
the accuracy bound here is tight. The measurement nests into
``BENCH_observability.json`` at the repo root.
"""

from __future__ import annotations

import pathlib

from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import generate_gaussian_mixture
from repro.evaluation.benchjson import merge_bench_json
from repro.evaluation.harness import build_world
from repro.mapreduce.costmodel import CostParameters
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.replay import replay_records
from repro.observability.whatif import Scenario, whatif_replay

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_observability.json"
)

SEED = 11
N_POINTS = 6_000
K_REAL = 4
DIMENSIONS = 4
BASE_NODES = 4
COST = CostParameters(
    seconds_per_coordinate_op=1e-6,
    task_startup_seconds=0.05,
    job_startup_seconds=0.3,
    network_mbps_per_node=0.25,
)
#: (nodes, combiner) grid, predicted from the (4, True) base run.
GRID = [(2, True), (8, True), (2, False), (8, False)]
MAX_MEDIAN_REL_ERROR = 0.02
MAX_REL_ERROR = 0.05


def run_once(nodes: int, combiner: bool):
    """One journalled G-means run; returns (result, replay)."""
    mixture = generate_gaussian_mixture(
        n_points=N_POINTS, n_clusters=K_REAL, dimensions=DIMENSIONS, rng=SEED
    )
    sink = InMemoryJournalSink()
    world = build_world(
        mixture,
        nodes=nodes,
        target_splits=16,
        seed=SEED,
        cost=COST,
        journal=Journal(sink),
    )
    config = MRGMeansConfig(
        seed=SEED,
        use_combiner=combiner,
        strategy="mapper",
        vectorized=False,
        num_reduce_tasks=16,
    )
    result = MRGMeans(world.runtime, config).fit(world.dataset)
    return result, replay_records(sink.records)


def test_whatif_accuracy(report):
    base_result, base_replay = run_once(BASE_NODES, True)
    recorded = base_replay.total_simulated_seconds()

    rows = []
    for nodes, combiner in GRID:
        scenario = Scenario(
            nodes=None if nodes == BASE_NODES else nodes,
            combiner=None if combiner else False,
        )
        prediction = whatif_replay(base_replay, scenario)
        actual_result, actual_replay = run_once(nodes, combiner)
        assert actual_result.k_found == base_result.k_found, (
            "scenario re-run found a different k — job chain is not "
            "invariant, the comparison is meaningless"
        )
        actual = actual_replay.total_simulated_seconds()
        rel_err = abs(prediction.predicted_total - actual) / actual
        rows.append(
            {
                "nodes": nodes,
                "combiner": combiner,
                "predicted_seconds": round(prediction.predicted_total, 4),
                "actual_seconds": round(actual, 4),
                "rel_error": round(rel_err, 6),
            }
        )

    errors = sorted(row["rel_error"] for row in rows)
    median_err = (errors[1] + errors[2]) / 2  # len(GRID) == 4
    max_err = errors[-1]

    merge_bench_json(
        BENCH_JSON,
        "whatif_accuracy_gmeans",
        workload={
            "algorithm": "gmeans_mr",
            "clusters": K_REAL,
            "n_points": N_POINTS,
            "dimensions": DIMENSIONS,
            "seed": SEED,
            "base_nodes": BASE_NODES,
            "grid": [list(cell) for cell in GRID],
            "strategy": "mapper",
            "vectorized": False,
            "num_reduce_tasks": 16,
            "network_mbps_per_node": COST.network_mbps_per_node,
        },
        metrics={
            "recorded_seconds": round(recorded, 4),
            "scenarios": rows,
            "median_rel_error": round(median_err, 6),
            "max_rel_error": round(max_err, 6),
            "max_median_rel_error_bound": MAX_MEDIAN_REL_ERROR,
            "max_rel_error_bound": MAX_REL_ERROR,
        },
    )

    lines = [
        "what-if accuracy — predicted vs. re-run makespan",
        "",
        f"  base: {BASE_NODES} nodes, combiner on, "
        f"{recorded:.3f} simulated s",
        "",
        "  nodes  combiner  predicted    actual   rel err",
    ]
    for row in rows:
        lines.append(
            f"  {row['nodes']:5d}  {str(row['combiner']):8s}"
            f"  {row['predicted_seconds']:9.3f}"
            f"  {row['actual_seconds']:8.3f}"
            f"  {row['rel_error']:8.5f}"
        )
    lines += [
        "",
        f"  median rel error: {median_err:.6f}"
        f"  (budget {MAX_MEDIAN_REL_ERROR})",
        f"  max rel error:    {max_err:.6f}  (budget {MAX_REL_ERROR})",
    ]
    report("whatif_accuracy", "\n".join(lines))

    assert median_err < MAX_MEDIAN_REL_ERROR, (
        f"median what-if error {median_err:.4f} exceeds "
        f"{MAX_MEDIAN_REL_ERROR}"
    )
    assert max_err < MAX_REL_ERROR, (
        f"worst what-if error {max_err:.4f} exceeds {MAX_REL_ERROR}"
    )
