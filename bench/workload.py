"""One benchmark workload, measured in this process.

``bench/run.py`` starts one of these per workload, with BLAS/OpenMP
threads pinned to 1 and the ``repro`` sources of the checkout first on
``PYTHONPATH``; the last line it prints is the workload's result as JSON.

Inputs. Every workload fits the canonical Table-1 mixture
(``paper_family_dataset(k_real, 60_000, rng=3)`` in R^10), turned by a
random rotation drawn from ``--seed``. Redrawing the mixture per seed
would measure the draw instead of the code: G-means' k and iteration
count follow the mixture (k_real=64 found 72 to 124 centers over seeds
3-22, and its fit time moved by 13-35% between seeds). A rotation
changes every input coordinate but no distance, so the algorithm takes
the same path on every seed, and every seed is checked against one
pinned result: k, iterations, completion and simulated seconds exactly,
centers rotated back within ``CENTER_TOLERANCE``.

Timing. One untimed warm-up fit, then fits on freshly built worlds until
``--seconds`` is used up (at least ``--min-fits``), with ``gc.collect()``
outside the timed region; ``fit_s`` is the fastest of them (see
:func:`measure`). ``setup_s`` is the median ``build_world`` wall on the
pre-generated mixture (DFS write, shared segments, runtime), sampled
``SETUP_PER_FIT`` times before every fit. ``--trace 1`` spends half the
time on untraced fits and half on fits traced by :mod:`tracer`, and
reports the per-layer metrics instead.

``--pin`` refits every workload on the unrotated mixture and rewrites the
expected results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if pathlib.Path(repro.__file__).resolve().parent.parent != SRC:
    sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")

from repro.core.config import MRGMeansConfig  # noqa: E402
from repro.core.gmeans_mr import MRGMeans  # noqa: E402
from repro.core.multi_kmeans import MultiKMeans  # noqa: E402
from repro.data.generator import paper_family_dataset  # noqa: E402
from repro.evaluation.experiments import EXPERIMENT_ALPHA  # noqa: E402
from repro.evaluation.harness import build_world  # noqa: E402
from repro.mapreduce import dataplane  # noqa: E402
from repro.mapreduce.counters import FRAMEWORK_GROUP, MRCounter  # noqa: E402
from repro.mapreduce.executors import shutdown_shared_pools  # noqa: E402
from repro.observability.anomaly import ANOMALY_ENV  # noqa: E402
from repro.observability.journal import JOURNAL_ENV, Journal  # noqa: E402
from repro.observability.profiling import PROFILE_TASKS_ENV  # noqa: E402

import tracer as tracing  # noqa: E402

#: Seed of the mixture and of every algorithm RNG (data, G-means,
#: runtime task seeds): ``--seed`` only draws the rotation.
MIXTURE_SEED = 3
N_POINTS = 60_000
DIMENSIONS = 10
#: Timed builds before each fit (the last one is the fit's world): at
#: least 31 set-up samples in a run of 4 fits.
SETUP_PER_FIT = 8
POOL_START_SAMPLES = 5
CENTER_TOLERANCE = 1e-9
WCSS_TOLERANCE = 1e-9
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    k_real: int
    algorithm: str = "gmeans"
    executor: str = "serial"
    data_plane: str = "pickled"
    telemetry: bool = False
    #: expected.json entry the results must match (default: own name).
    expected: "str | None" = None

    @property
    def num_workers(self) -> "int | None":
        if self.executor == "serial":
            return None
        return min(2, os.cpu_count() or 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gmeans-k64", 64),
        Workload(
            "gmeans-k64-procs",
            64,
            executor="processes",
            data_plane="shared",
            expected="gmeans-k64",
        ),
        Workload("gmeans-k16-telemetry", 16, telemetry=True),
        Workload("multikmeans-k32", 32, algorithm="multikmeans"),
    )
}


def rotation(seed: "int | None") -> np.ndarray:
    """Haar-random orthogonal matrix from ``seed`` (identity for None)."""
    if seed is None:
        return np.eye(DIMENSIONS)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((DIMENSIONS,) * 2))
    return q * np.sign(np.diag(r))


def make_mixture(w: Workload, rot: np.ndarray, n_points: int):
    mixture = paper_family_dataset(n_clusters=w.k_real, n_points=n_points, rng=MIXTURE_SEED)
    return replace(mixture, points=mixture.points @ rot, centers=mixture.centers @ rot)


def new_journal(w: Workload, path: pathlib.Path) -> "Journal | None":
    """The telemetry workload's opt-in observability stack, on a fresh
    journal file."""
    if not w.telemetry:
        return None
    return Journal.from_env(
        {JOURNAL_ENV: str(path), PROFILE_TASKS_ENV: "1", ANOMALY_ENV: "1"}
    )


def build(w: Workload, mixture, journal=None):
    return build_world(
        mixture,
        nodes=4,
        target_splits=16,
        seed=MIXTURE_SEED,
        executor=w.executor,
        num_workers=w.num_workers,
        data_plane=w.data_plane,
        journal=journal,
        profile_tasks=w.telemetry,
    )


def release(world) -> None:
    world.dfs.release()
    world.runtime.close()


def fit(w: Workload, world):
    if w.algorithm == "gmeans":
        config = MRGMeansConfig(seed=MIXTURE_SEED, alpha=EXPERIMENT_ALPHA)
        return MRGMeans(world.runtime, config).fit(world.dataset)
    model = MultiKMeans(world.runtime, k_min=1, k_max=32, iterations=5, seed=MIXTURE_SEED)
    return model.fit(world.dataset)


def signature(w: Workload, result, rot: np.ndarray) -> dict:
    """What a fit is checked on, with centers in the unrotated frame."""
    if w.algorithm == "gmeans":
        sig = {
            "k_found": int(result.k_found),
            "iterations": int(result.iterations),
            "completed": bool(result.completed),
            "centers": result.centers,
        }
    else:
        sig = {
            "k_found": int(result.best_k),
            "iterations": int(result.iterations),
            "completed": not result.failed_iterations,
            "centers": result.best_centers,
            "wcss": [float(result.wcss_by_k[k]) for k in sorted(result.wcss_by_k)],
        }
    sig["simulated_seconds"] = float(result.simulated_seconds)
    sig["centers"] = np.asarray(sig["centers"]) @ rot.T
    return sig


def fingerprint(sig: dict) -> tuple:
    """Bit-level identity of a fit, for repeats within one run."""
    return (
        sig["k_found"],
        sig["iterations"],
        sig["completed"],
        sig["simulated_seconds"],
        sig["centers"].tobytes(),
        tuple(sig.get("wcss", ())),
    )


def mismatches(sig: dict, expected: dict) -> list[str]:
    found = []
    for key in ("k_found", "iterations", "completed", "simulated_seconds"):
        if sig[key] != expected[key]:
            found.append(f"{key}: got {sig[key]!r}, expected {expected[key]!r}")
    centers = np.asarray(expected["centers"], dtype=np.float64)
    if sig["centers"].shape != centers.shape:
        found.append(f"centers: shape {sig['centers'].shape}, expected {centers.shape}")
    else:
        diff = float(np.max(np.abs(sig["centers"] - centers), initial=0.0))
        if diff > CENTER_TOLERANCE:
            found.append(f"centers: max abs diff {diff:.3g} > {CENTER_TOLERANCE}")
    if "wcss" in expected:
        got, want = np.asarray(sig["wcss"]), np.asarray(expected["wcss"])
        if got.shape != want.shape or np.any(
            np.abs(got - want) > WCSS_TOLERANCE * np.abs(want)
        ):
            found.append("wcss differs from the pinned values")
    return found


def summary(samples: list, unit: str, value=statistics.median) -> dict:
    """``value(samples)`` with the median and quartiles (Python's
    exclusive method) of ``samples``."""
    median = statistics.median(samples)
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    )
    return {
        "value": value(samples),
        "unit": unit,
        "samples": len(samples),
        "median": median,
        "q1": q1,
        "q3": q3,
    }


def platform_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Fits one workload repeatedly, checking every result."""

    def __init__(self, w: Workload, mixture, rot, expected: dict):
        self.w = w
        self.mixture = mixture
        self.rot = rot
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: "tuple | None" = None
        #: ``build_world`` walls, or traced set-up records.
        self.setups: list = []
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
            print(f"[{self.w.name}] {message}", file=sys.stderr)

    def build_timed(self, journal, tracer=None):
        """``SETUP_PER_FIT`` timed builds; returns the last world.

        Sampling set-up next to every fit spreads the samples over the
        whole run, so one slow stretch of the host moves few of them.
        """
        gc.collect()
        world = None
        for _ in range(SETUP_PER_FIT):
            if world is not None:
                release(world)
            if tracer is None:
                start = time.perf_counter()
                world = build(self.w, self.mixture, journal)
                self.setups.append(time.perf_counter() - start)
            else:
                tracer.begin("setup", "setup", -1)
                try:
                    world = build(self.w, self.mixture, journal)
                finally:
                    self.setups.append(tracer.end())
        return world

    def one_fit(self, index: int, tracer=None) -> "tuple[float, dict | None] | None":
        """Build, fit (timed), check. Returns ``(wall, trace record)``,
        or None when the fit failed."""
        self.attempted += 1
        path = self.scratch / f"journal-{index}.jsonl"
        journal = new_journal(self.w, path)
        world = self.build_timed(journal, tracer)
        gc.collect()
        record = None
        try:
            if tracer is None:
                start = time.perf_counter()
                result = fit(self.w, world)
                wall = time.perf_counter() - start
            else:
                tracer.begin("fit", "core.driver", index)
                try:
                    result = fit(self.w, world)
                finally:
                    record = tracer.end()
                wall = record["wall"]
        except Exception as err:  # noqa: BLE001 - a failed fit is a measured outcome
            self.fail(f"fit {index} raised {type(err).__name__}: {err}")
            return None
        finally:
            release(world)
            if journal is not None:
                journal.close()
        if record is not None:
            counts = record["counts"]
            counts["shuffle.bytes"] = result.totals.counters.get(
                FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES
            )
            if journal is not None:
                counts["observability.bytes"] = path.stat().st_size
                with open(path, "rb") as fh:
                    counts["observability.records"] = sum(1 for _ in fh)
        if journal is not None:
            path.unlink()
        sig = signature(self.w, result, self.rot)
        problems = mismatches(sig, self.expected)
        if self.first is None:
            self.first = fingerprint(sig)
        elif fingerprint(sig) != self.first:
            problems.append("result differs bit-for-bit from the run's first fit")
        if problems:
            self.fail(f"fit {index}: " + "; ".join(problems))
            return None
        return wall, record

    def timed_fits(self, budget: float, min_fits: int, first_index: int, tracer=None):
        """Fits until ``budget`` seconds are used (a fit is started only
        when the previous one says it will fit), at least ``min_fits``.
        Returns the good fits' walls and trace records, and the next
        fit index."""
        walls, records = [], []
        start = time.perf_counter()
        last = 0.0
        index = first_index
        while index - first_index < min_fits or (
            time.perf_counter() - start + last <= budget
        ):
            began = time.perf_counter()
            outcome = self.one_fit(index, tracer)
            if outcome is not None:
                walls.append(outcome[0])
                records.append(outcome[1])
            last = time.perf_counter() - began
            index += 1
        return walls, records, index

    def segment_leaks(self) -> None:
        leaked = dataplane.active_segments() + dataplane.orphaned_system_segments()
        if leaked:
            self.fail(f"{len(leaked)} shared-memory segments leaked: {leaked[:3]}")

    def close(self) -> None:
        for leftover in self.scratch.glob("*"):
            leftover.unlink()
        self.scratch.rmdir()


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped pool workers."""
    shutdown_shared_pools()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure(runner: Runner, seconds: float, min_fits: int) -> dict:
    """End-to-end metrics.

    ``fit_s`` is the fastest fit of the run: host contention only ever
    adds time, in stretches of seconds to minutes. In a noisy stretch,
    ten runs' minima spread 4-5% where their medians spread 9-21%; in a
    quiet one the two spread alike. The median and quartiles are
    reported alongside, and ``compare.py`` checks the median too, so a
    change that slows only some fits still shows.

    ``peak_rss_mb`` covers the warm-up and the first ``min_fits`` fits:
    pool workers keep every segment they attached mapped, so their
    resident set grows with the number of fits a run has time for.
    """
    started = time.perf_counter()
    runner.one_fit(0)  # warm-up: lazy imports, caches, pool start
    runner.setups.clear()
    walls, _, index = runner.timed_fits(0, min_fits, 1)
    rss = peak_rss_mb()
    start_pool(runner)
    more, _, _ = runner.timed_fits(seconds - (time.perf_counter() - started), 0, index)
    walls += more
    if runner.w.data_plane == "shared":
        runner.segment_leaks()
    metrics = {"setup_s": summary(runner.setups, "s")}
    if walls:
        metrics["fit_s"] = summary(walls, "s", value=min)
    metrics["peak_rss_mb"] = summary([rss], "MB")
    metrics["error_rate"] = summary([runner.failed / runner.attempted], "ratio")
    return metrics


def start_pool(runner: Runner) -> float:
    """(Re)start the worker pool: wall of the first ``run_tasks`` call on
    a fresh pool, one no-op task per worker (near zero when serial)."""
    shutdown_shared_pools()
    world = build(runner.w, runner.mixture)
    start = time.perf_counter()
    world.runtime.executor.run_tasks(abs, [0] * (runner.w.num_workers or 1))
    wall = time.perf_counter() - start
    release(world)
    return wall


def measure_traced(runner: Runner, seconds: float, min_fits: int, trace_path) -> dict:
    runner.one_fit(0)
    untraced, _, next_index = runner.timed_fits(seconds / 2, min_fits, 1)
    # Workers forked before the wrappers go in run task bodies untraced.
    pool_start = [start_pool(runner) for _ in range(POOL_START_SAMPLES)]
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        runner.setups.clear()
        traced, fits, _ = runner.timed_fits(seconds / 2, min_fits, next_index, tracer)
        setups = runner.setups
    finally:
        tracer.restore()
    leftovers = tracer.leftovers()
    if leftovers:
        runner.fail(f"tracer left wrappers bound: {leftovers[:3]}")
    if runner.w.data_plane == "shared":
        runner.segment_leaks()
    shutdown_shared_pools()
    per_fit = [tracing.fit_metrics(rec) for rec in fits]
    metrics = {}
    for name in per_fit[0] if per_fit else ():
        metrics[name] = summary([m[name][0] for m in per_fit], per_fit[0][name][1])
    metrics["executors.pool_start_s"] = summary(pool_start, "s")
    metrics["data.write_s"] = summary([r["layers"].get("data.write", 0.0) for r in setups], "s")
    metrics["runtime.build_s"] = summary(
        [r["layers"].get("runtime.build", 0.0) for r in setups], "s"
    )
    metrics["dataplane.segments"] = summary(
        [r["calls"].get("create_block", 0) for r in setups], "count"
    )
    if traced:
        metrics["trace.fit_s"] = summary(traced, "s")
    if traced and untraced:
        # Fastest traced over fastest untraced fit, as fit_s is measured.
        metrics["trace.overhead"] = summary([min(traced) / min(untraced) - 1.0], "ratio")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": runner.w.name,
                "fits": fits,
                "setups": setups,
                "span_fields": tracing.SPAN_FIELDS,
                "spans": tracer.span_rows(t0),
            },
            fh,
        )
    return metrics


def load_expected(path: pathlib.Path, w: Workload, n_points: int) -> dict:
    data = json.loads(path.read_text())
    if data["n_points"] != n_points or data["mixture_seed"] != MIXTURE_SEED:
        raise SystemExit(
            f"{path} pins n_points={data['n_points']}, mixture seed "
            f"{data['mixture_seed']}; this run uses {n_points}, {MIXTURE_SEED}"
        )
    return data["workloads"][w.expected or w.name]


def pin(path: pathlib.Path, n_points: int) -> None:
    """Fit every workload once on the unrotated mixture; write the results."""
    pinned = {}
    for w in WORKLOADS.values():
        if w.expected is not None:
            continue
        rot = rotation(None)
        world = build(w, make_mixture(w, rot, n_points), new_journal(w, OUT / "pin.jsonl"))
        try:
            sig = signature(w, fit(w, world), rot)
        finally:
            release(world)
            if world.runtime.journal.enabled:
                world.runtime.journal.close()
                (OUT / "pin.jsonl").unlink()
        sig["centers"] = sig["centers"].tolist()
        pinned[w.name] = sig
        print(f"{w.name}: k_found={sig['k_found']} iterations={sig['iterations']}")
    shutdown_shared_pools()
    payload = {"n_points": n_points, "mixture_seed": MIXTURE_SEED, "workloads": pinned}
    # One line per innermost list (a center row, the WCSS curve).
    text = re.sub(
        r"\[\s+([^\[\]]+?)\s+\]",
        lambda m: "[" + " ".join(m.group(1).split()) + "]",
        json.dumps(payload, indent=1),
    )
    path.write_text(text + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-fits", type=int, default=3)
    parser.add_argument("--points", type=int, default=N_POINTS)
    parser.add_argument("--expected", type=pathlib.Path, default=EXPECTED)
    parser.add_argument("--pin", action="store_true", help="rewrite --expected and exit")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so pools are shut down and segments released.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the whole workload, pool workers included (they
    # inherit the affinity): with two, the process-pool fit ran 0.93 s
    # or 1.6 s depending on whether the host lent the second vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    if args.pin:
        pin(args.expected, args.points)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    rot = rotation(args.seed)
    expected = load_expected(args.expected, w, args.points)
    runner = Runner(w, make_mixture(w, rot, args.points), rot, expected)
    try:
        if args.trace:
            metrics = measure_traced(
                runner, args.seconds, args.min_fits, OUT / f"{w.name}.trace.json"
            )
        else:
            metrics = measure(runner, args.seconds, args.min_fits)
    finally:
        runner.close()
    correct = runner.failed == 0
    print(
        json.dumps(
            {
                "workload": w.name,
                "seed": args.seed,
                "platform": platform_record(),
                "correct": correct,
                "attempted": runner.attempted,
                "failed": min(runner.failed, runner.attempted),
                "errors": runner.errors,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
