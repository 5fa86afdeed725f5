"""Outside-in layer tracer for the wall-clock benchmark.

The benchmark measures the program without touching it: ``Tracer.install``
rebinds every module global, class attribute and function default of the
loaded ``repro`` modules that *is* one of the functions in ``TARGETS`` to
a timing wrapper, and ``Tracer.restore`` puts every original back. A
by-name import (``from repro.clustering.metrics import assign_nearest``
in four ``core`` modules) is one more module global, and the
``Job.value_size`` default captured at class creation is one more
function default, so both are reached by the same scan.

Each wrapped call is a frame on one stack. A layer's *self time* is the
time its frames were on top of the stack: frame duration minus the
durations of the wrapped calls it made. The self times of one fit
therefore sum to the fit's wall time exactly (the root frame is the fit
itself, layer ``core.driver``); time the tracer's own bookkeeping hooks
take is its own layer, ``trace``.

Only calls in the traced process are timed. Pool workers are started
before ``install``, so task bodies that run in them are not wrapped: their
time is the ``TaskResult.wall_seconds`` each returns, totalled per phase
by the executor hook, and the parent's wait for them is executor self
time.

Spans (``SPAN_FIELDS``: name, layer, start, end, parent span, fit) are
kept in memory and written once, at the end of the run; ``parent``
indexes the span list.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "fit")

#: Layer of the tracer's own bookkeeping (hooks that count flops, sum
#: task walls, ...), so it never hides inside a program layer.
TRACE_LAYER = "trace"


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``span`` records a span per call (off for the per-value and per-task
    hot calls, which are only totalled); ``outermost`` folds recursive
    calls into the outermost one; ``hook`` names a ``Tracer`` method that
    derives counts from the call; ``cm`` marks a ``@contextmanager``
    function, whose enter and exit are timed instead of the call.
    """

    module: str
    attr: str
    layer: str
    span: bool = True
    outermost: bool = False
    hook: "str | None" = None
    cm: bool = False


TARGETS = (
    Target("repro.mapreduce.runtime", "MapReduceRuntime.run", "runtime", hook="_job"),
    Target("repro.mapreduce.executors", "SerialExecutor.run_tasks", "executors", hook="_phase"),
    Target("repro.mapreduce.executors", "_PoolBackedExecutor.run_tasks", "executors", hook="_phase"),
    Target("repro.mapreduce.executors", "execute_map_task", "core.map"),
    Target("repro.mapreduce.executors", "execute_reduce_task", "core.reduce"),
    Target("repro.clustering.metrics", "pairwise_sq_distances", "kernel.pairwise", hook="_pairwise"),
    Target("repro.clustering.metrics", "assign_nearest", "kernel.assign", hook="_assign"),
    Target("repro.clustering.metrics", "label_sums", "kernel.label_sums", hook="_label_sums"),
    Target("repro.stats.anderson", "anderson_darling_normality", "stats.ad"),
    Target("repro.stats.normal", "normal_cdf", "stats.cdf", hook="_cdf"),
    Target("repro.mapreduce.shuffle", "partition_pairs", "shuffle.partition", hook="_partition"),
    Target("repro.mapreduce.shuffle", "run_combiner", "shuffle.combine"),
    Target("repro.mapreduce.shuffle", "group_by_key", "shuffle.group"),
    Target("repro.mapreduce.types", "sizeof_value", "types.sizeof", span=False, outermost=True),
    Target("repro.mapreduce.counters", "Counters.inc", "counters", span=False),
    Target("repro.mapreduce.counters", "Counters.set_max", "counters", span=False),
    Target("repro.mapreduce.counters", "Counters.get", "counters", span=False),
    Target("repro.mapreduce.counters", "Counters.merge", "counters", span=False),
    Target("repro.mapreduce.counters", "Counters.copy", "counters", span=False),
    Target("repro.mapreduce.counters", "Counters.diff", "counters", span=False),
    Target("repro.mapreduce.counters", "framework", "counters", span=False),
    Target("repro.mapreduce.costmodel", "CostModel.map_task_seconds", "costmodel", span=False),
    Target("repro.mapreduce.costmodel", "CostModel.reduce_task_seconds", "costmodel", span=False),
    Target("repro.mapreduce.costmodel", "CostModel.job_timing", "costmodel", span=False),
    Target("repro.mapreduce.costmodel", "makespan", "costmodel", span=False),
    Target("repro.mapreduce.hdfs", "InMemoryDFS.open", "hdfs", span=False),
    Target("repro.mapreduce.hdfs", "InMemoryDFS.charge_read", "hdfs"),
    Target("repro.observability.journal", "Journal.span", "observability", span=False, cm=True),
    Target("repro.observability.journal", "Journal.event", "observability", span=False),
    Target("repro.observability.journal", "Journal.task", "observability", span=False),
    Target("repro.data.loader", "write_points", "data.write"),
    Target("repro.mapreduce.runtime", "MapReduceRuntime.__init__", "runtime.build"),
    Target("repro.mapreduce.dataplane", "create_block", "dataplane", span=False),
)

def _resolve(target: Target):
    """The function a target names (a class attribute unbound)."""
    owner = sys.modules[target.module]
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def _repro_namespaces():
    """Every ``(owner, namespace)`` the rebinding scan visits: each loaded
    ``repro`` module and each class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name: str, span: int):
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.span = span


class _TracedContext:
    """Times the enter and exit of a context manager as two calls."""

    __slots__ = ("tracer", "name", "layer", "inner")

    def __init__(self, tracer: "Tracer", name: str, layer: str, inner):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.inner = inner

    def __enter__(self):
        return self.tracer.timed(self.name, self.layer, self.inner.__enter__)

    def __exit__(self, *exc_info):
        return self.tracer.timed(self.name, self.layer, self.inner.__exit__, *exc_info)


class Tracer:
    """Per-layer self time, call counts and spans of traced calls."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[list] = []
        self.fit = -1
        self._patches: list[tuple] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        # Every wrapper ever made, kept alive so their ids stay unique
        # for the leftover scan.
        self._made: list = []
        self._reset()

    # -- per-fit state ---------------------------------------------------

    def _reset(self) -> None:
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: "defaultdict[str, int]" = defaultdict(int)
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.job_seconds: list[float] = []

    def begin(self, name: str, layer: str, fit: int) -> None:
        """Open a root frame (one fit, or one set-up)."""
        if self.stack:
            raise RuntimeError(f"root {name!r} opened inside {self.stack[-1].name!r}")
        self._reset()
        self.fit = fit
        self._root_layer = layer
        self.spans.append([name, layer, 0.0, 0.0, -1, fit])
        frame = _Frame(name, len(self.spans) - 1)
        self.stack.append(frame)
        frame.start = time.perf_counter()

    def end(self) -> dict:
        """Close the root frame; returns the fit's record."""
        end = time.perf_counter()
        frame = self.stack.pop()
        if self.stack:
            raise RuntimeError("root closed with calls still open")
        wall = end - frame.start
        self.self_s[self._root_layer] += wall - frame.child
        self.spans[frame.span][2:4] = [frame.start, end]
        return {
            "fit": self.fit,
            "name": frame.name,
            "wall": wall,
            "layers": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "job_seconds": list(self.job_seconds),
        }

    # -- timing ----------------------------------------------------------

    def timed(self, name: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` as one frame (the context-manager path)."""
        stack = self.stack
        frame = _Frame(name, stack[-1].span if stack else -1)
        stack.append(frame)
        frame.start = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame.child
            self.calls[name] += 1
            if stack:
                stack[-1].child += duration

    def _wrap(self, target: Target, original):
        tracer = self
        name = target.attr.rsplit(".", 1)[-1]
        layer = target.layer
        record_span = target.span
        outermost = target.outermost
        hook = getattr(self, target.hook) if target.hook else None
        perf = time.perf_counter

        if target.cm:

            @functools.wraps(original)
            def traced_cm(*args, **kwargs):
                return _TracedContext(tracer, name, layer, original(*args, **kwargs))

            return traced_cm

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if outermost and stack and stack[-1].name == name:
                return original(*args, **kwargs)
            parent = stack[-1].span if stack else -1
            if record_span:
                spans = tracer.spans
                spans.append([name, layer, 0.0, 0.0, parent, tracer.fit])
                frame = _Frame(name, len(spans) - 1)
            else:
                frame = _Frame(name, parent)
            stack.append(frame)
            frame.start = start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame.child
                tracer.calls[name] += 1
                if stack:
                    stack[-1].child += duration
                if record_span:
                    span = tracer.spans[frame.span]
                    span[2] = start
                    span[3] = end
            if hook is not None:
                hook_start = perf()
                hook(args, kwargs, result, duration)
                spent = perf() - hook_start
                tracer.self_s[TRACE_LAYER] += spent
                if stack:
                    stack[-1].child += spent
            return result

        return traced

    # -- hooks: counts derived from call shapes and results ---------------

    def _job(self, args, kwargs, result, duration) -> None:
        self.job_seconds.append(duration)

    def _pairwise(self, args, kwargs, result, duration) -> None:
        n, d = args[0].shape
        k = args[1].shape[0]
        self.counts["kernel.flops"] += 2 * n * k * d + 4 * n * k + 2 * n * d + 2 * k * d
        self.counts["kernel.bytes"] += 8 * (n * d + k * d + n * k)

    def _assign(self, args, kwargs, result, duration) -> None:
        n = args[0].shape[0]
        k = args[1].shape[0]
        self.counts["kernel.bytes"] += 8 * n * k + 16 * n

    def _label_sums(self, args, kwargs, result, duration) -> None:
        n, d = args[0].shape
        k = args[2] if len(args) > 2 else kwargs["k"]
        self.counts["kernel.flops"] += n * d
        self.counts["kernel.bytes"] += 8 * (n * d + n + k * d)

    def _cdf(self, args, kwargs, result, duration) -> None:
        self.counts["stats.cdf_evals"] += getattr(args[0], "size", 1)

    def _partition(self, args, kwargs, result, duration) -> None:
        self.counts["shuffle.pairs"] += len(args[0])
        self.counts["reduce.buckets"] += len(result)
        self.counts["reduce.nonempty_buckets"] += sum(1 for bucket in result if bucket)

    def _phase(self, args, kwargs, result, duration) -> None:
        """One executor phase: task walls and the busiest stripe."""
        executor, fn = args[0], args[1]
        max_concurrency = kwargs.get("max_concurrency", args[3] if len(args) > 3 else None)
        workers = getattr(executor, "num_workers", 1)
        limit = max(1, min(workers, max_concurrency)) if max_concurrency else workers
        walls = [getattr(outcome, "wall_seconds", 0.0) for outcome in result]
        stripes = min(limit, len(walls)) if limit > 1 else 1
        busiest = max((sum(walls[w::stripes]) for w in range(stripes)), default=0.0)
        counts = self.counts
        counts["executors.dispatch_s"] += duration - busiest
        counts["executors.busy_s"] += sum(walls)
        counts["executors.capacity_s"] += stripes * duration
        kind = getattr(fn, "__name__", "")
        if kind == "execute_map_task":
            counts["executors.map_task_s"] += sum(walls)
        elif kind == "execute_reduce_task":
            counts["executors.reduce_task_s"] += sum(walls)

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to a target function to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            original = _resolve(target)
            wrapper = self._wrap(target, original)
            self._originals[id(original)] = original
            self._wrappers[id(original)] = wrapper
            self._made.append(wrapper)
        self._rebind(self._wrappers, record=True)

    def _rebind(self, mapping: dict, record: bool) -> None:
        """Replace values whose id is a key of ``mapping``, everywhere
        the scan reaches (globals, class attributes, function defaults)."""
        for owner, namespace in _repro_namespaces():
            for attr, value in list(namespace.items()):
                replacement = mapping.get(id(value))
                if replacement is not None and replacement is not value:
                    if record:
                        self._patches.append((owner, attr, value))
                    setattr(owner, attr, replacement)
                elif isinstance(value, types.FunctionType) and value.__defaults__:
                    defaults = value.__defaults__
                    patched = tuple(mapping.get(id(d), d) for d in defaults)
                    if any(p is not d for p, d in zip(patched, defaults)):
                        if record:
                            self._patches.append((value, "__defaults__", defaults))
                        value.__defaults__ = patched

    def restore(self) -> None:
        """Put every original back, including references to a wrapper
        picked up by modules imported while the tracer was installed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        by_wrapper = {
            id(wrapper): self._originals[key] for key, wrapper in self._wrappers.items()
        }
        self._rebind(by_wrapper, record=False)
        self._wrappers.clear()
        self._originals.clear()

    def leftovers(self) -> list[str]:
        """Where a wrapper is still bound (empty after a clean restore)."""
        made = {id(wrapper) for wrapper in self._made}
        found = []
        for owner, namespace in _repro_namespaces():
            where = getattr(owner, "__name__", repr(owner))
            for attr, value in namespace.items():
                if id(value) in made:
                    found.append(f"{where}.{attr}")
                elif isinstance(value, types.FunctionType) and any(
                    id(default) in made for default in value.__defaults__ or ()
                ):
                    found.append(f"{where}.{attr}.__defaults__")
        return found

    # -- output -----------------------------------------------------------

    def span_rows(self, t0: float) -> list[list]:
        """Spans as ``SPAN_FIELDS`` rows, times in seconds since ``t0``."""
        return [
            [name, layer, round(start - t0, 9), round(end - t0, 9), parent, fit]
            for name, layer, start, end, parent, fit in self.spans
        ]


#: Self-time layers of a fit, in reporting order, with their metric names.
SELF_TIME_METRICS = (
    ("core.driver", "core.driver_self_s"),
    ("runtime", "runtime.self_s"),
    ("executors", "executors.self_s"),
    ("core.map", "core.map_self_s"),
    ("core.reduce", "core.reduce_self_s"),
    ("kernel.pairwise", "kernel.pairwise_s"),
    ("kernel.assign", "kernel.assign_s"),
    ("kernel.label_sums", "kernel.label_sums_s"),
    ("stats.ad", "stats.ad_s"),
    ("stats.cdf", "stats.cdf_s"),
    ("shuffle.partition", "shuffle.partition_s"),
    ("shuffle.combine", "shuffle.combine_s"),
    ("shuffle.group", "shuffle.group_s"),
    ("types.sizeof", "types.sizeof_s"),
    ("counters", "counters.s"),
    ("costmodel", "costmodel.s"),
    ("hdfs", "hdfs.read_s"),
    ("observability", "observability.journal_s"),
    (TRACE_LAYER, "trace.self_s"),
)


def fit_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced fit: ``name -> (value, unit)``.

    Self times are those of the traced process; counts are totals over
    the fit. ``shuffle.bytes`` and the journal's ``observability.*``
    sizes come from the fit's result and journal file, which the caller
    adds to ``record["counts"]``.
    """
    layers, calls, counts = record["layers"], record["calls"], record["counts"]
    metrics = {name: (layers.get(layer, 0.0), "s") for layer, name in SELF_TIME_METRICS}
    kernel_s = sum(layers.get(f"kernel.{k}", 0.0) for k in ("pairwise", "assign", "label_sums"))
    flops = counts.get("kernel.flops", 0)
    evals = counts.get("stats.cdf_evals", 0)
    launched = counts.get("reduce.buckets", 0)
    capacity = counts.get("executors.capacity_s", 0.0)
    jobs = sorted(record["job_seconds"])
    metrics.update(
        {
            "kernel.calls": (
                calls.get("pairwise_sq_distances", 0) + calls.get("label_sums", 0),
                "count",
            ),
            "kernel.flops": (flops, "flop"),
            "kernel.bytes": (counts.get("kernel.bytes", 0), "B"),
            "kernel.gflop_s": (flops / kernel_s / 1e9 if kernel_s else 0.0, "GFLOP/s"),
            "stats.ad_tests": (calls.get("anderson_darling_normality", 0), "count"),
            "stats.cdf_evals": (evals, "count"),
            "stats.cdf_ns_per_eval": (
                layers.get("stats.cdf", 0.0) / evals * 1e9 if evals else 0.0,
                "ns",
            ),
            "core.jobs": (calls.get("run", 0), "count"),
            "runtime.job_p50_s": (jobs[len(jobs) // 2] if jobs else 0.0, "s"),
            "runtime.reduce_useful_ratio": (
                counts.get("reduce.nonempty_buckets", 0) / launched if launched else 0.0,
                "ratio",
            ),
            "executors.map_task_s": (counts.get("executors.map_task_s", 0.0), "s"),
            "executors.reduce_task_s": (counts.get("executors.reduce_task_s", 0.0), "s"),
            "executors.dispatch_s": (counts.get("executors.dispatch_s", 0.0), "s"),
            "executors.worker_busy_ratio": (
                counts.get("executors.busy_s", 0.0) / capacity if capacity else 0.0,
                "ratio",
            ),
            "shuffle.pairs": (counts.get("shuffle.pairs", 0), "count"),
            "shuffle.bytes": (counts.get("shuffle.bytes", 0), "B"),
            "observability.records": (counts.get("observability.records", 0), "count"),
            "observability.bytes": (counts.get("observability.bytes", 0), "B"),
            "types.sizeof_calls": (calls.get("sizeof_value", 0), "count"),
            "counters.inc_calls": (calls.get("inc", 0), "count"),
        }
    )
    return metrics
