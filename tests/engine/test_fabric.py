"""The distributed sweep fabric, pinned end to end.

The acceptance criteria of the fabric PR live here:

* a >= 64-point closed-loop sweep executed by two leased worker
  processes is ``np.array_equal`` to the serial reference — bit-exact,
  not merely close;
* killing a worker mid-grid and resuming completes the sweep with
  **zero** recomputed points (proved by per-tier cache counters and
  disk entry counts);
* repeated chunk failure parks the chunk and quarantines the worker
  through its circuit breaker;
* the chunk planner and job submission are idempotent, so resumes
  never duplicate work.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import LoopSweepTask, plan_chunks, run_spec_sweep
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import TieredCache, fabric
from repro.engine.fabric import (
    CRASH_EXIT_CODE,
    FabricWorker,
    _worker_process_main,
    run_fabric_sweep,
    submit_fabric_job,
)
from repro.engine.resilience import breaker_report
from repro.errors import FabricError
from repro.service import JobRecord, JobSpec, JobState, new_job_id
from repro.service.store import open_job_store

DURATION = 0.003
PATH = "cantilever.length_um"


def values_for(n):
    return [round(170.0 + 0.5 * i, 3) for i in range(n)]


def serial_reference(values):
    return run_spec_sweep(
        REFERENCE_RESONANT_SENSOR, PATH, values,
        LoopSweepTask(duration=DURATION), workers=0, backend="serial",
    )


def assert_bit_exact(reference, result):
    assert list(reference.columns) == list(result.columns)
    for name in reference.columns:
        assert np.array_equal(
            np.asarray(reference.columns[name]),
            np.asarray(result.columns[name]),
        ), f"column {name} deviates from the serial reference"


class TestPlanChunks:
    def test_contiguous_cover(self):
        assert plan_chunks(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_exact_division(self):
        assert plan_chunks(8, 4) == [(0, 4), (4, 8)]

    def test_single_chunk(self):
        assert plan_chunks(3, 8) == [(0, 3)]

    def test_empty_grid_is_an_empty_plan(self):
        assert plan_chunks(0, 4) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_chunks(-1, 4)
        with pytest.raises(ValueError):
            plan_chunks(4, 0)


class TestSubmission:
    def test_resubmit_reuses_job_and_chunks(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        first = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(8),
            duration=DURATION, chunk_size=4,
        )
        second = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values_for(8),
            duration=DURATION, chunk_size=4,
        )
        assert second.job_id == first.job_id
        assert store.chunk_counts(first.job_id) == {"queued": 2}


class TestBitExactness:
    def test_in_process_fabric_equals_serial(self, tmp_path):
        values = values_for(16)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=4,
        )
        assert_bit_exact(serial_reference(values), result)

    def test_64_points_two_leased_workers_equal_serial(self, tmp_path):
        """The headline acceptance: 64 points, 2 worker processes."""
        values = values_for(64)
        store = open_job_store(tmp_path / "jobs.sqlite")
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=2, chunk_size=8,
            lease_seconds=30.0,
        )
        assert_bit_exact(serial_reference(values), result)
        record = store.list_jobs()[0]
        assert record.state.phase == "done"
        counts = store.chunk_counts(record.job_id)
        assert counts == {"done": 8}
        # at least two distinct workers actually leased chunks
        workers = {c.worker_id for c in store.chunks(record.job_id)}
        assert len(workers) >= 2

    def test_rerun_is_pure_cache_hits(self, tmp_path):
        values = values_for(12)
        kwargs = dict(
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=4,
        )
        first = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values, **kwargs)
        cache = TieredCache(tmp_path / "cache")
        second = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values, cache=cache, **kwargs)
        assert_bit_exact(first, second)
        info = cache.cache_info()
        assert info.stores == 0          # nothing recomputed, nothing written
        assert info.misses == 0


class TestOneLayoutAcrossPaths:
    """CLI sweep, fabric and health audit share one sharded cache dir."""

    def test_cli_fabric_and_health_share_one_layout(self, tmp_path, capsys):
        from repro.cli import main

        values = values_for(6)
        cache_dir = tmp_path / "cache"

        # 1. the CLI sweep writes every point at <dir>/<2 hex>/<key>.pkl
        assert main([
            "sweep", "--serial", "--cache-dir", str(cache_dir),
            "--path", PATH, "--values", ",".join(map(str, values)),
            "--duration", str(DURATION),
        ]) == 0
        entries = sorted(cache_dir.rglob("*.pkl"))
        assert len(entries) == len(values)
        for path in entries:
            assert path.parent.parent == cache_dir
            assert path.parent.name == path.stem[:2]
        reader = TieredCache(cache_dir)
        cli_result = run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            LoopSweepTask(duration=DURATION), workers=0, backend="serial",
            cache=reader,
        )
        assert reader.cache_info().hits == len(values)
        assert reader.cache_info().stores == 0

        # 2. the fabric over the same grid computes nothing
        cache = TieredCache(cache_dir)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=cache_dir,
            duration=DURATION, workers=0, chunk_size=4, cache=cache,
        )
        info = cache.cache_info()
        assert info.tier("disk").hits == len(values)
        assert info.stores == 1          # the job's result blob only
        assert_bit_exact(cli_result, result)

        # 3. the health audit finds every entry intact
        capsys.readouterr()
        assert main(["health", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{len(values) + 1} intact, 0 damaged" in out


class TestKillAndResume:
    def test_killed_worker_resumes_with_zero_recomputes(self, tmp_path):
        values = values_for(16)
        db = tmp_path / "jobs.sqlite"
        cache_dir = tmp_path / "cache"
        store = open_job_store(db)
        record = submit_fabric_job(
            store, REFERENCE_RESONANT_SENSOR, PATH, values,
            duration=DURATION, chunk_size=4,
        )
        store.claim(record.job_id)

        # phase 1: a worker hard-exits (os._exit) after 5 fresh points,
        # mid-chunk, lease still held
        ctx = mp.get_context("spawn")
        proc = ctx.Process(
            target=_worker_process_main,
            args=(str(db), str(cache_dir),
                  {"job_id": record.job_id, "lease_seconds": 5.0,
                   "points_limit": 5}),
        )
        proc.start()
        proc.join(timeout=180)
        assert proc.exitcode == CRASH_EXIT_CODE
        survivors = sum(1 for _ in cache_dir.rglob("*.pkl"))
        assert survivors == 5
        assert "leased" in store.chunk_counts(record.job_id)

        # phase 2: resume; only the missing 11 points are computed
        cache = TieredCache(cache_dir)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=db, cache_dir=cache_dir, duration=DURATION,
            workers=0, chunk_size=4, cache=cache,
        )
        info = cache.cache_info()
        assert info.stores == len(values) - survivors + 1  # + result blob
        # every pre-crash point was served from a tier, not recomputed
        entries = sum(1 for _ in cache_dir.rglob("*.pkl"))
        assert entries == len(values) + 1
        assert_bit_exact(serial_reference(values), result)


class TestQuarantine:
    def make_poisoned_job(self, store, n=8):
        """A fabric job whose every point raises (override path is bogus)."""
        spec = JobSpec(
            base=REFERENCE_RESONANT_SENSOR.to_dict(),
            path="cantilever.does_not_exist",
            values=tuple(float(v) for v in range(n)),
            duration=DURATION, fabric=True, chunk_size=4,
        )
        record = JobRecord(
            job_id=new_job_id(), spec=spec,
            state=JobState(total=n, submitted_at=1000.0),
        )
        store.put(record)
        store.create_chunks(record.job_id, plan_chunks(n, 4))
        return record

    def test_failing_chunks_trip_the_breaker(self, tmp_path):
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = self.make_poisoned_job(store)
        worker = FabricWorker(
            store, TieredCache(tmp_path / "cache"),
            job_id=record.job_id, max_attempts=1, breaker_threshold=2,
            lease_seconds=30.0,
        )
        stats = worker.run(idle_exit=None)
        assert stats.quarantined
        assert stats.chunks_failed == 2      # threshold, then it stopped
        assert stats.chunks_done == 0
        assert not worker.breaker.allow()
        counts = store.chunk_counts(record.job_id)
        assert counts.get("failed", 0) == 2

    def test_parked_chunks_fail_the_sweep(self, tmp_path):
        with pytest.raises(FabricError, match="failed permanently"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, "cantilever.does_not_exist",
                [1.0, 2.0, 3.0, 4.0],
                db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
                duration=DURATION, workers=0, chunk_size=2, max_attempts=1,
            )
        store = open_job_store(tmp_path / "jobs.sqlite")
        record = store.list_jobs()[0]
        assert record.state.phase == "failed"
        assert record.state.error

    def test_quarantined_inline_worker_fails_the_sweep(self, tmp_path):
        """No worker is left to run the queued chunks: raise, don't wait."""
        started = time.monotonic()
        with pytest.raises(FabricError, match="quarantined"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, "cantilever.does_not_exist",
                [float(v) for v in range(8)],
                db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
                duration=DURATION, workers=0, chunk_size=2, max_attempts=1,
                wait_timeout=30.0,
            )
        assert time.monotonic() - started < 10.0
        store = open_job_store(tmp_path / "jobs.sqlite")
        counts = store.chunk_counts(store.list_jobs()[0].job_id)
        assert counts == {"failed": 3, "queued": 1}


def inline_breakers():
    return {name for name in breaker_report() if name.endswith("-inline")}


def claimed_job(db, values):
    """A submitted and claimed fabric job in 4-point chunks."""
    store = open_job_store(db)
    record = submit_fabric_job(
        store, REFERENCE_RESONANT_SENSOR, PATH, values,
        duration=DURATION, chunk_size=4,
    )
    store.claim(record.job_id)
    return store, record


def lease_every_chunk(store, record, lease_seconds):
    """Hold each queued chunk under a worker that will never come back."""
    while store.lease_chunk("dead-worker", lease_seconds, record.job_id):
        pass


class TestCoordinatorWait:
    """The coordinator waits for a lease held elsewhere; it never spins."""

    def test_dead_lease_is_waited_out_without_spinning(self, tmp_path):
        values = values_for(8)
        db = tmp_path / "jobs.sqlite"
        store, record = claimed_job(db, values)
        assert store.lease_chunk("dead-worker", 1.0, record.job_id)
        before = inline_breakers()
        wall0, cpu0 = time.monotonic(), time.process_time()
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=db, cache_dir=tmp_path / "cache",
            duration=DURATION, workers=0, chunk_size=4,
        )
        wall = time.monotonic() - wall0
        cpu = time.process_time() - cpu0
        assert_bit_exact(serial_reference(values), result)
        assert len(inline_breakers() - before) <= 1
        assert wall >= 1.0                     # the lease had to expire
        assert cpu < 0.5 * wall

    def test_lease_that_never_expires_times_out(self, tmp_path):
        values = values_for(4)
        db = tmp_path / "jobs.sqlite"
        store, record = claimed_job(db, values)
        lease_every_chunk(store, record, 30.0)
        started = time.monotonic()
        with pytest.raises(FabricError, match="timed out"):
            run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, PATH, values,
                db=db, cache_dir=tmp_path / "cache",
                duration=DURATION, workers=0, chunk_size=4,
                wait_timeout=0.5,
            )
        assert time.monotonic() - started < 5.0


def forbid_sleep(monkeypatch):
    """Make ``time.sleep`` raise inside the fabric module only."""
    def sleep(seconds):
        raise AssertionError(f"fabric slept {seconds}s")

    monkeypatch.setattr(fabric, "time", SimpleNamespace(
        monotonic=time.monotonic, time=time.time, sleep=sleep))


class TestWorkerLifecycle:
    """Job-scoped workers leave when the work does; nobody polls by sleeping."""

    def test_worker_with_nothing_queued_returns_without_sleeping(
            self, tmp_path, monkeypatch):
        db = tmp_path / "jobs.sqlite"
        store, record = claimed_job(db, values_for(8))
        lease_every_chunk(store, record, 30.0)
        monkeypatch.setenv("REPRO_KERNEL_THREADS",
                           os.environ.get("REPRO_KERNEL_THREADS", "1"))
        forbid_sleep(monkeypatch)
        _worker_process_main(str(db), str(tmp_path / "cache"),
                             {"job_id": record.job_id})
        assert store.chunk_counts(record.job_id) == {"leased": 2}

    def test_coordinator_waits_on_workers_without_sleeping(
            self, tmp_path, monkeypatch):
        values = values_for(8)
        forbid_sleep(monkeypatch)
        result = run_fabric_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
            duration=DURATION, workers=1, chunk_size=4,
        )
        assert_bit_exact(serial_reference(values), result)
