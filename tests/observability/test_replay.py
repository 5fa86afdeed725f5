"""Replay: folding a record stream back into a span tree."""

from repro.mapreduce.counters import Counters
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.render import (
    render_iteration_table,
    render_job_gantts,
    render_timeline,
    render_trace,
)
from repro.observability.replay import left_fold_seconds, replay_records


def recorded_run():
    """A small hand-driven run: 1 run, 2 iterations, retries + events."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans", dataset="d") as run:
        with journal.span("iteration", "iteration-1", iteration=1, k_before=1) as it:
            with journal.span("job", "KMeans-1", attempt=1) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-1-m-00000", 0, 1.0, 0.0)
                    journal.task("KMeans-1-m-00001", 1, 2.0, 0.0)
                job.set(status="failed", error="TaskPermanentlyFailedError")
            journal.event("job_retry", job="KMeans-1", retry=1, backoff_seconds=5.0)
            with journal.span("job", "KMeans-1", attempt=2) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-1-m-00000", 0, 1.0, 0.0)
                    journal.task("KMeans-1-m-00001", 1, 2.0, 0.0)
                job.set(
                    status="ok",
                    retries=1,
                    simulated_seconds=8.0,
                    counters={"framework": {"MAP_TASKS": 2, "JOB_RETRIES": 1}},
                )
            it.set(k_after=2, simulated_seconds=8.0,
                   counters={"framework": {"MAP_TASKS": 2, "JOB_RETRIES": 1}})
        with journal.span("iteration", "iteration-2", iteration=2, k_before=2) as it:
            with journal.span("job", "KMeans-2", attempt=1) as job:
                job.set(status="ok", simulated_seconds=3.0,
                        counters={"framework": {"MAP_TASKS": 2}})
            it.set(k_after=2, simulated_seconds=3.0,
                   counters={"framework": {"MAP_TASKS": 2}})
        run.set(status="ok", k_found=2, simulated_seconds=11.0)
    return sink.records


def test_replay_reconstructs_hierarchy():
    replay = replay_records(recorded_run())
    assert len(replay.runs()) == 1
    assert len(replay.iterations()) == 2
    assert len(replay.jobs()) == 3  # both attempts plus iteration 2's job
    run = replay.runs()[0]
    assert [child.kind for child in run.children] == ["iteration", "iteration"]
    assert run.get("k_found") == 2


def test_replay_surfaces_failed_attempts():
    replay = replay_records(recorded_run())
    attempts = replay.jobs()
    assert attempts[0].get("status") == "failed"
    assert attempts[0].get("error") == "TaskPermanentlyFailedError"
    assert len(replay.successful_jobs()) == 2
    retry_events = replay.events_named("job_retry")
    assert len(retry_events) == 1
    assert retry_events[0].attrs["backoff_seconds"] == 5.0


def test_replay_tasks_attach_to_phases():
    replay = replay_records(recorded_run())
    phases = replay.phases()
    assert len(phases) == 2
    assert [task.index for task in phases[0].tasks] == [0, 1]
    assert phases[0].tasks[1].sim_seconds == 2.0


def test_total_accounting_skips_failed_attempts():
    replay = replay_records(recorded_run())
    totals = replay.total_counters()
    assert totals.get("framework", "MAP_TASKS") == 4  # 2 + 2, not 6
    assert totals.get("framework", "JOB_RETRIES") == 1
    assert replay.total_simulated_seconds() == 11.0


def test_restored_baseline_counts_into_totals():
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    journal.event(
        "checkpoint_restore",
        name="ck/iter-00002",
        iteration=2,
        jobs=6,
        simulated_seconds=20.0,
        counters={"framework": {"MAP_TASKS": 12}},
    )
    with journal.span("job", "J", attempt=1) as job:
        job.set(status="ok", simulated_seconds=5.0,
                counters={"framework": {"MAP_TASKS": 2}})
    replay = replay_records(sink.records)
    assert replay.total_simulated_seconds() == 25.0
    assert replay.total_counters().get("framework", "MAP_TASKS") == 14


def test_restored_baseline_folds_in_the_resumed_drivers_order():
    """A resumed driver starts its running total at the restored
    baseline and adds each job to it: (0.1 + 0.2) + 0.3, which differs
    in the last bit from 0.1 + (0.2 + 0.3). The journal accounting and
    the critical path must fold the same way."""
    from repro.observability.critical import critical_path

    sink = InMemoryJournalSink()
    journal = Journal(sink)
    journal.event(
        "checkpoint_restore",
        name="ck/iter-00001",
        iteration=1,
        jobs=1,
        simulated_seconds=0.1,
        counters={},
    )
    for name, seconds in (("J1", 0.2), ("J2", 0.3)):
        with journal.span("job", name, attempt=1) as job:
            job.set(status="ok", simulated_seconds=seconds, counters={})
    replay = replay_records(sink.records)
    live_total = 0.1
    live_total += 0.2
    live_total += 0.3
    assert live_total != 0.1 + (0.2 + 0.3)
    assert replay.total_simulated_seconds() == live_total
    path = critical_path(replay)
    assert path.total_seconds == path.journal_seconds == live_total
    assert path.reconciled


def test_total_simulated_seconds_is_a_plain_left_fold():
    """Regression: CPython 3.12+ builtin sum() uses Neumaier
    compensated summation, which differs bitwise from the runtime's
    ``+=`` accumulation. The journal accounting must use the same
    plain left fold on every Python version, or the exact
    reconciliation in ``repro analyze`` fails spuriously on valid
    journals (seen on the committed 04-slo-abort baseline)."""
    values = [0.1] * 10
    folded = left_fold_seconds(values)
    # Pin the fold order: ten 0.1s left-fold to just under 1.0, where
    # any compensated scheme (math.fsum, 3.12+ sum) rounds to 1.0.
    assert folded == 0.9999999999999999
    assert folded != 1.0

    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            for j in range(10):
                with journal.span("job", f"KMeans-{j}", attempt=1) as job:
                    job.set(status="ok", simulated_seconds=0.1, counters={})
            it.set(simulated_seconds=1.0)
        run.set(status="ok")
    replay = replay_records(sink.records)
    assert replay.total_simulated_seconds() == folded


def test_truncated_journal_yields_incomplete_spans():
    records = recorded_run()
    # Kill the run mid-flight: drop everything after the first task.
    truncated = records[:6]
    replay = replay_records(truncated)
    run = replay.runs()[0]
    assert not run.complete
    assert "[interrupted]" in render_timeline(replay)
    # accounting over a truncated journal still works (no successful jobs)
    assert replay.total_simulated_seconds() == 0.0
    assert replay.total_counters().as_dict() == {}


def test_span_counters_parse_into_counters_object():
    replay = replay_records(recorded_run())
    counters = replay.successful_jobs()[0].counters()
    assert isinstance(counters, Counters)
    assert counters.get("framework", "MAP_TASKS") == 2


def test_render_timeline_shows_attempts_and_events():
    text = render_timeline(replay_records(recorded_run()))
    assert "run 'gmeans'" in text
    assert "attempt 1: failed" in text
    assert "attempt 2: ok" in text
    assert "! job_retry" in text
    assert "[survived 1 retries]" in text


def test_render_iteration_table_rows():
    text = render_iteration_table(replay_records(recorded_run()))
    lines = text.splitlines()
    assert len(lines) == 3  # header + two iterations
    assert "1->2" in lines[1]
    assert "retries" in lines[0]


def test_render_job_gantts_rebuilds_schedules():
    text = render_job_gantts(replay_records(recorded_run()), width=20)
    assert "map phase (2 tasks over 2 slots)" in text
    assert "slot" in text


def test_render_trace_assembles_sections():
    text = render_trace(
        replay_records(recorded_run()), gantt=True, metrics=True
    )
    assert "== run timeline" in text
    assert "== per-iteration counters" in text
    assert "== job gantts" in text
    assert "== metrics" in text
    assert "repro_framework_map_tasks 4" in text


def test_empty_journal_renders_gracefully():
    replay = replay_records([])
    assert "(empty journal)" in render_timeline(replay)
    assert "(no iterations recorded)" in render_iteration_table(replay)
    assert "(no jobs recorded)" in render_job_gantts(replay)


def test_node_events_filters_lifecycle_in_journal_order():
    """node_events() is exactly the lifecycle subset (lost / recovered /
    blacklisted), in global seq order — even when the events hang off
    different spans at different depths."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        journal.event("node_lost", node="node-0", deaths=1)
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            journal.event("job_retry", job="KMeans-1", retry=1)
            with journal.span("job", "KMeans-1", attempt=1) as job:
                journal.event("node_recovered", node="node-0", recoveries=1)
                journal.event("node_lost", node="node-1", deaths=1)
                job.set(status="ok", simulated_seconds=1.0, counters={})
            journal.event("node_blacklisted", node="node-1", deaths=3)
            it.set(simulated_seconds=1.0)
        run.set(status="ok")
    replay = replay_records(sink.records)

    lifecycle = replay.node_events()
    assert [e.name for e in lifecycle] == [
        "node_lost",
        "node_recovered",
        "node_lost",
        "node_blacklisted",
    ]
    # Journal order is seq order, strictly increasing.
    seqs = [e.seq for e in lifecycle]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # Which nodes, in order of occurrence.
    assert [e.attrs["node"] for e in lifecycle] == [
        "node-0",
        "node-0",
        "node-1",
        "node-1",
    ]
    # Non-lifecycle events are excluded but still in replay.events.
    assert "job_retry" in [e.name for e in replay.events]
