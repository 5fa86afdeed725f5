"""Reconstruct a recorded run from its journal.

A journal is a flat, append-only record stream; this module folds it
back into the span tree it came from, so the trace CLI (and the
integration suite) can ask run-level questions: which job attempts ran
(including the retried and failed ones), what each phase and task
cost, where the faults and checkpoints were, and whether the journal's
accounting adds up to the totals the run reported.

The replay is defensive about truncation: a run killed mid-chain
leaves spans without end records, which replay surfaces as spans with
``end is None`` instead of failing — reconstructing interrupted runs
is precisely the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.mapreduce.counters import Counters
from repro.observability.journal import (
    EVENT,
    ITERATION,
    JOB,
    PHASE,
    RUN,
    SPAN_END,
    SPAN_START,
    TASK,
    load_journal,
)


@dataclass
class TaskRecord:
    """One executed task, as recorded under its phase span.

    ``cpu_seconds`` and ``peak_memory_bytes`` are present only when the
    run profiled its tasks (``--profile-tasks``); they come from the
    ``wall_cpu_seconds`` / ``wall_peak_memory_bytes`` journal keys.
    """

    task_id: str
    index: int
    sim_seconds: float
    wall_seconds: float
    cpu_seconds: "float | None" = None
    peak_memory_bytes: "int | None" = None

    @property
    def profiled(self) -> bool:
        """True when this task carries real resource measurements."""
        return self.cpu_seconds is not None or self.peak_memory_bytes is not None


@dataclass
class EventRecord:
    """One point-in-time event (fault, retry, checkpoint, ...)."""

    seq: int
    name: str
    parent: "int | None"
    attrs: dict
    wall_time: "float | None" = None


@dataclass
class SpanNode:
    """One reconstructed span with its children, tasks and events."""

    id: int
    kind: str
    name: str
    attrs: dict = field(default_factory=dict)
    end: "dict | None" = None
    parent: "SpanNode | None" = None
    children: "list[SpanNode]" = field(default_factory=list)
    tasks: "list[TaskRecord]" = field(default_factory=list)
    events: "list[EventRecord]" = field(default_factory=list)
    start_seq: int = 0
    wall_start: "float | None" = None
    wall_end: "float | None" = None

    @property
    def complete(self) -> bool:
        """False when the run died before this span could end."""
        return self.end is not None

    def get(self, key: str, default=None):
        """Look up ``key`` in the end attrs, falling back to the start."""
        if self.end is not None and key in self.end:
            return self.end[key]
        return self.attrs.get(key, default)

    def find(self, kind: str) -> "list[SpanNode]":
        """All descendant spans of ``kind``, in journal order."""
        found = []
        for child in self.children:
            if child.kind == kind:
                found.append(child)
            found.extend(child.find(kind))
        return found

    def counters(self) -> Counters:
        """The counter delta this span recorded (empty if none)."""
        return Counters.from_dict(self.get("counters") or {})


def left_fold_seconds(values) -> float:
    """Plain left-fold float sum, in iteration order.

    The runtime accumulates ``totals.simulated_seconds`` with ``+=``
    and :func:`repro.observability.critical.critical_path` places its
    segments at the partial sums of the same fold — all plain left
    folds. CPython 3.12+ builtin ``sum()`` switched to Neumaier
    compensated summation, which can differ bitwise from that fold, so
    every side of an exact-reconciliation identity must accumulate
    through this helper (or an equivalent explicit loop), never
    through builtin ``sum()``.
    """
    total = 0.0
    for value in values:
        total = total + value
    return total


@dataclass
class RunReplay:
    """A whole journal, reconstructed."""

    records: list[dict]
    roots: "list[SpanNode]"
    spans: "dict[int, SpanNode]"
    events: "list[EventRecord]"

    # -- views -----------------------------------------------------------

    def runs(self) -> "list[SpanNode]":
        return self._of_kind(RUN)

    def iterations(self) -> "list[SpanNode]":
        return self._of_kind(ITERATION)

    def jobs(self) -> "list[SpanNode]":
        """Every job *attempt* span, in submission order."""
        return self._of_kind(JOB)

    def phases(self) -> "list[SpanNode]":
        return self._of_kind(PHASE)

    def _of_kind(self, kind: str) -> "list[SpanNode]":
        return sorted(
            (span for span in self.spans.values() if span.kind == kind),
            key=lambda span: span.start_seq,
        )

    def events_named(self, name: str) -> "list[EventRecord]":
        return [event for event in self.events if event.name == name]

    def node_events(self) -> "list[EventRecord]":
        """Node lifecycle events (lost / recovered / blacklisted), in
        journal order — the raw material of the per-node availability
        report in ``repro analyze``."""
        lifecycle = {"node_lost", "node_recovered", "node_blacklisted"}
        return [event for event in self.events if event.name in lifecycle]

    def anomaly_events(self) -> "list[EventRecord]":
        """The in-flight detector firings (``anomaly`` events), in
        journal order. Each event's attrs carry the anomaly type under
        ``anomaly`` plus the detector's inputs; ``repro anomalies
        JOURNAL --check`` proves they re-derive exactly."""
        return self.events_named("anomaly")

    # -- accounting cross-checks -----------------------------------------

    def successful_jobs(self) -> "list[SpanNode]":
        return [job for job in self.jobs() if job.get("status") == "ok"]

    def restored_baselines(self) -> "list[EventRecord]":
        """``checkpoint_restore`` events carry the totals a resumed run
        inherited; replay accounting must add them back in."""
        return self.events_named("checkpoint_restore")

    def total_counters(self) -> Counters:
        """Counters the journal accounts for: every successful job's
        delta, plus any totals restored from a checkpoint.

        Failed attempts contribute nothing — exactly as the runtime
        discards a failed attempt's counters — so this must equal the
        run's final reported ``Counters``.
        """
        totals = Counters()
        for restore in self.restored_baselines():
            totals.merge(Counters.from_dict(restore.attrs.get("counters") or {}))
        for job in self.successful_jobs():
            totals.merge(job.counters())
        return totals

    def total_simulated_seconds(self) -> float:
        """Simulated seconds the journal accounts for (see above).

        One left fold over the restored baselines, then the successful
        jobs: the order a resumed driver accumulates its totals in, so
        the result matches the live total bit for bit.
        """
        return left_fold_seconds(
            itertools.chain(
                (
                    float(restore.attrs.get("simulated_seconds") or 0.0)
                    for restore in self.restored_baselines()
                ),
                (
                    float(job.get("simulated_seconds") or 0.0)
                    for job in self.successful_jobs()
                ),
            )
        )


def replay_records(records: "list[dict]") -> RunReplay:
    """Fold a record list back into a :class:`RunReplay`."""
    spans: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    events: list[EventRecord] = []
    for record in records:
        kind = record.get("type")
        if kind == SPAN_START:
            node = SpanNode(
                id=record["span"],
                kind=record.get("kind", ""),
                name=record.get("name", ""),
                attrs=record.get("attrs") or {},
                start_seq=record.get("seq", 0),
                wall_start=record.get("wall_time"),
            )
            spans[node.id] = node
            parent = spans.get(record.get("parent"))
            if parent is not None:
                node.parent = parent
                parent.children.append(node)
            else:
                roots.append(node)
        elif kind == SPAN_END:
            node = spans.get(record.get("span"))
            if node is not None:
                node.end = record.get("attrs") or {}
                node.wall_end = record.get("wall_time")
        elif kind == TASK:
            parent = spans.get(record.get("parent"))
            cpu = record.get("wall_cpu_seconds")
            peak = record.get("wall_peak_memory_bytes")
            task = TaskRecord(
                task_id=record.get("task_id", ""),
                index=int(record.get("index", 0)),
                sim_seconds=float(record.get("sim_seconds", 0.0)),
                wall_seconds=float(record.get("wall_seconds", 0.0)),
                cpu_seconds=float(cpu) if cpu is not None else None,
                peak_memory_bytes=int(peak) if peak is not None else None,
            )
            if parent is not None:
                parent.tasks.append(task)
        elif kind == EVENT:
            event = EventRecord(
                seq=record.get("seq", 0),
                name=record.get("name", ""),
                parent=record.get("parent"),
                attrs=record.get("attrs") or {},
                wall_time=record.get("wall_time"),
            )
            events.append(event)
            parent = spans.get(event.parent)
            if parent is not None:
                parent.events.append(event)
    return RunReplay(records=records, roots=roots, spans=spans, events=events)


def replay_journal(path: str) -> RunReplay:
    """Load and reconstruct the journal file at ``path``."""
    return replay_records(load_journal(path))
