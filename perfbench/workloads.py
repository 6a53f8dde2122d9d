"""The benchmark's three workloads: inputs, one job, warm-up and oracle check.

Each workload draws every grid from ``numpy.random.default_rng([seed,
*stream, index])``, so a seed fixes the inputs and the program sees only
the generated grids.  A job is one sweep from call (or submit) until
its result table is in hand.  Results are checked after the timed
window against the uncached serial oracle: the memo-free solo
``LoopSweepTask`` path, run point by point (:func:`oracle_tables`).

Nothing here runs at import time: fabric workers start with ``spawn``
and re-import the session's ``__main__``.
"""

from __future__ import annotations

import contextlib
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: The swept parameter and the range fresh grid values are drawn from.
PATH = "cantilever.length_um"
LENGTH_RANGE_UM = (160.0, 270.0)

#: Documented tolerance of the batched kernel against the solo path.
KERNEL_BATCH_RTOL = 1e-9

#: Threads the oracle check runs on, after the timed window.
ORACLE_THREADS = 2

#: Random streams: warm-up grids and the grids of the untraced and the
#: traced window never coincide, so no in-process memo sees a repeat.
TIMED, WARMUP, TRACED = 0, 1, 2

#: Warm-up stops after the first round that compiles no new kernel.
_MAX_WARMUP_ROUNDS = 6


@dataclass
class Job:
    """One closed-loop request and what came back."""

    index: int
    client: int
    values: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    points: int = 0
    columns: dict | None = None
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


def grid(seed: int, stream: tuple, index: int, n: int) -> list[float]:
    """``n`` fresh lengths, one drawn uniformly from each of ``n`` equal
    slices of the range.

    Like the linspace a designer sweeps, but never the same values twice.
    The kernel's sample count depends on the length, so one value per
    slice keeps the work per job nearly the same for every seed.
    """
    rng = np.random.default_rng([seed, *stream, index])
    low, high = LENGTH_RANGE_UM
    width = (high - low) / n
    return [float(low + (k + u) * width) for k, u in enumerate(rng.random(n))]


def compiled_kernels() -> int:
    """Shared objects the kernel engines have built under this TMPDIR."""
    import tempfile

    return sum(1 for _ in Path(tempfile.gettempdir()).rglob("*.so"))


def oracle_tables(grids, duration: float) -> list[dict[str, np.ndarray]]:
    """The uncached serial reference table of each grid.

    Every point runs the memo-free solo path (``LoopSweepTask.__call__``)
    on its own; the points of all grids are spread over two threads
    (the kernel releases the interpreter lock), which the executor keeps
    bit-identical to running them one after another.
    """
    from repro.analysis import LoopSweepTask, run_spec_sweep
    from repro.config import REFERENCE_RESONANT_SENSOR

    grids = [list(g) for g in grids]
    values = [v for g in grids for v in g]
    if not values:
        return []
    result = run_spec_sweep(REFERENCE_RESONANT_SENSOR, PATH, values,
                            LoopSweepTask(duration=duration),
                            backend="thread", workers=ORACLE_THREADS)
    tables, at = [], 0
    for g in grids:
        tables.append({name: result.column(name)[at:at + len(g)]
                       for name in result.columns})
        at += len(g)
    return tables


def mismatch(columns, reference, *, exact: bool) -> str | None:
    """Why ``columns`` disagree with ``reference``; None when they agree."""
    if columns is None:
        return "no result table"
    if set(columns) != set(reference):
        return f"columns {sorted(columns)} != {sorted(reference)}"
    for name, want in reference.items():
        got = np.array([np.nan if v is None else v for v in columns[name]],
                       dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return f"{name}: shape {got.shape} != {want.shape}"
        if exact:
            if not np.array_equal(got, want):
                return f"{name}: not bit-equal to the reference"
        elif not np.all(np.abs(got - want) <= KERNEL_BATCH_RTOL * np.abs(want)):
            worst = np.nanmax(np.abs(got - want) / np.abs(want))
            return f"{name}: relative error {worst:.3g} > {KERNEL_BATCH_RTOL}"
    return None


def _warm_up(run_round) -> float:
    """Run warm-up rounds until one compiles nothing new; seconds taken."""
    start = time.monotonic()
    for k in range(_MAX_WARMUP_ROUNDS):
        before = compiled_kernels()
        run_round(k)
        if k and compiled_kernels() == before:
            break
    return time.monotonic() - start


class Workload:
    """Base: one client, in-process, no per-run processes."""

    name = ""
    clients = 1
    points = 0
    duration = 0.0
    #: Bit-equality with the oracle instead of the batch tolerance.
    exact = False

    def __init__(self, seed: int, workdir: Path, *, part: int = 0,
                 traced: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.stream = (TRACED if traced else TIMED, part)
        #: Context in which the benchmark's own helper threads call the
        #: program untraced (the traced run sets it to ``Tracer.muted``).
        self.quiet = contextlib.nullcontext

    def settings(self) -> dict:
        return {"clients": self.clients, "points_per_job": self.points,
                "loop_duration_s": self.duration}

    def setup(self) -> float:
        """Warm up; returns the warm-up seconds."""
        raise NotImplementedError

    def run(self, job: Job) -> None:
        raise NotImplementedError

    def verify(self, jobs: list[Job]) -> None:
        """Mark jobs whose table disagrees with the oracle as failed."""
        pending = [j for j in jobs if j.error is None]
        tables = oracle_tables([j.values for j in pending], self.duration)
        for job, reference in zip(pending, tables):
            job.error = mismatch(job.columns, reference, exact=self.exact)

    def live_pids(self) -> list[int]:
        """Child processes alive across the timed window."""
        return []

    def teardown(self) -> None:
        pass


class SweepBatch(Workload):
    """In-process batched sweeps: kernel compute dominates."""

    name = "sweep-batch"
    points = 32
    duration = 0.05

    def setup(self) -> float:
        import repro.analysis  # noqa: F401 - import cost belongs to set-up

        return _warm_up(lambda k: self._sweep(grid(self.seed, (WARMUP,), k,
                                                   self.points)))

    def _sweep(self, values):
        import repro.analysis
        from repro.config import REFERENCE_RESONANT_SENSOR

        # no cache: the CLI default, so every point is computed
        return repro.analysis.run_spec_sweep(
            REFERENCE_RESONANT_SENSOR, PATH, values,
            repro.analysis.LoopSweepTask(duration=self.duration),
            backend="kernel-batch",
        )

    def run(self, job: Job) -> None:
        job.values = grid(self.seed, self.stream, job.index, self.points)
        job.start = time.monotonic()
        result = self._sweep(job.values)
        job.end = time.monotonic()
        job.columns = {name: result.column(name) for name in result.columns}
        job.points = len(job.values)


class FabricSweep(Workload):
    """Leased chunks over two spawned workers, fresh store and cache per job."""

    name = "fabric-sweep"
    points = 64
    duration = 0.01
    workers = 2
    chunk_size = 16
    exact = True

    def settings(self) -> dict:
        return {**super().settings(), "fabric_workers": self.workers,
                "chunk_size": self.chunk_size}

    def setup(self) -> float:
        from repro.analysis import LoopSweepTask
        from repro.analysis.sweep import override_grid
        from repro.config import REFERENCE_RESONANT_SENSOR
        import repro.engine.fabric  # noqa: F401 - import cost belongs to set-up

        # workers run the solo fused kernel; compile it once under the
        # shared TMPDIR so no worker compiles inside the timed window
        task = LoopSweepTask(duration=self.duration)

        def solo(k):
            for spec in override_grid(REFERENCE_RESONANT_SENSOR, PATH,
                                      grid(self.seed, (WARMUP,), k, 1)):
                task(spec)

        return _warm_up(solo)

    def run(self, job: Job) -> None:
        import repro.engine.fabric
        from repro.config import REFERENCE_RESONANT_SENSOR

        job.values = grid(self.seed, self.stream, job.index, self.points)
        where = self.workdir / f"fabric-{self.stream[0]}-{job.index}"
        db = where / "jobs.sqlite"
        watcher = ChunkWatcher(db, self.quiet) if self.traced else None
        job.start = time.monotonic()
        if watcher is not None:
            watcher.start(job.start)
        try:
            result = repro.engine.fabric.run_fabric_sweep(
                REFERENCE_RESONANT_SENSOR, PATH, job.values,
                db=str(db), cache_dir=str(where / "cache"),
                workers=self.workers, chunk_size=self.chunk_size,
                duration=self.duration,
            )
        finally:
            job.end = time.monotonic()
            if watcher is not None:
                job.info.update(watcher.stop(job.end))
        job.columns = {name: result.column(name) for name in result.columns}
        job.points = len(job.values)


class ChunkWatcher:
    """Traced run only: follows a fabric job's chunk rows in its store."""

    POLL_S = 0.025

    def __init__(self, db: Path, quiet) -> None:
        self.db = db
        self.quiet = quiet
        self.first_lease: float | None = None
        self.drained: float | None = None
        self.attempts: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self, started: float) -> None:
        self.started = started
        self._thread.start()

    def stop(self, ended: float) -> dict:
        self._stop.set()
        self._thread.join(timeout=10)
        first = self.first_lease or ended
        drained = self.drained or ended
        return {"first_lease_s": first - self.started,
                "drain_s": drained - first,
                "tail_s": ended - drained,
                "attempts_per_chunk": (float(np.mean(self.attempts))
                                       if self.attempts else 0.0)}

    def _chunks_created(self) -> bool:
        """Read-only probe: has the coordinator created the chunk rows?

        Opening the store runs its schema migrations; opening it while
        the coordinator still migrates the fresh database races with
        it, so the watcher waits until the chunk rows exist.
        """
        if not self.db.exists():
            return False
        try:
            with contextlib.closing(sqlite3.connect(
                    f"file:{self.db}?mode=ro", uri=True)) as con:
                return con.execute("SELECT COUNT(*) FROM chunks").fetchone()[0] > 0
        except sqlite3.Error:
            return False

    def _loop(self) -> None:
        with self.quiet():
            self._follow()

    def _follow(self) -> None:
        from repro.service.store import open_job_store

        store = None
        while not self._stop.is_set():
            now = time.monotonic()
            if store is None and self._chunks_created():
                store = open_job_store(self.db)
            chunks = []
            if store is not None:
                jobs = store.list_jobs()
                if jobs:
                    chunks = store.chunks(jobs[0].job_id)
            if chunks:
                if self.first_lease is None and any(
                        c.state != "queued" for c in chunks):
                    self.first_lease = now
                if all(c.state == "done" for c in chunks):
                    self.drained = now
                    self.attempts = [c.attempts for c in chunks]
                    return
            self._stop.wait(self.POLL_S)


class ServeMixed(Workload):
    """Two closed-loop HTTP clients against ``repro serve``; half repeats."""

    name = "serve-mixed"
    clients = 2
    points = 8
    duration = 0.01
    #: Status poll interval of the load generator's ``ServiceClient.wait``.
    poll_interval_s = 0.02
    repeat_share = 0.5

    def __init__(self, seed: int, workdir: Path, *, part: int = 0,
                 traced: bool = False) -> None:
        super().__init__(seed, workdir, part=part, traced=traced)
        self.server: subprocess.Popen | None = None
        self.url = ""
        self._plan: list[tuple[str, int]] = []
        self._new_jobs: list[int] = []
        self._plan_lock = threading.Lock()
        self._submitted: dict[int, threading.Event] = {}
        self._local = threading.local()

    def settings(self) -> dict:
        return {**super().settings(), "poll_interval_s": self.poll_interval_s,
                "repeat_share": self.repeat_share, "pump_workers": 1}

    # -- server lifecycle ----------------------------------------------------

    def start_server(self) -> None:
        where = self.workdir / ("server-traced" if self.traced else "server")
        where.mkdir(parents=True)
        self.dump = where / "spans.json"
        head = ([sys.executable, str(HERE / "serve_traced.py"), str(self.dump)]
                if self.traced else [sys.executable, "-m", "repro.cli"])
        out = where / "stdout.txt"
        with open(out, "w") as stdout, open(where / "stderr.txt", "w") as err:
            self.server = subprocess.Popen(
                head + ["serve", "--port", "0",
                        "--db", str(where / "jobs.sqlite"),
                        "--cache-dir", str(where / "cache")],
                stdout=stdout, stderr=err,
            )
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + 60
        while "listening on " not in out.read_text():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: "
                                   f"{(where / 'stderr.txt').read_text()}")
            time.sleep(0.01)
        line = out.read_text().split("listening on ", 1)[1]
        self.url = line.split()[0]
        client = ServiceClient(self.url)
        while not client.health()["ok"]:
            time.sleep(0.01)

    def stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None

    def setup(self) -> float:
        import repro.service.client  # noqa: F401 - import cost belongs to set-up

        self.start_server()
        return _warm_up(lambda k: self._submit_and_collect(
            Job(index=k, client=0, values=grid(self.seed, (WARMUP,), k,
                                               self.points)), f"warmup{k}"))

    def teardown(self) -> None:
        self.stop_server()

    def live_pids(self) -> list[int]:
        return [self.server.pid] if self.server is not None else []

    # -- the job plan --------------------------------------------------------

    def plan(self, index: int) -> tuple[str, int]:
        """``("new", index)`` or ``("repeat", index of an earlier new job)``."""
        with self._plan_lock:
            while len(self._plan) <= index:
                i = len(self._plan)
                rng = np.random.default_rng([self.seed, *self.stream, i])
                if self._new_jobs and rng.random() < self.repeat_share:
                    entry = ("repeat", self._new_jobs[
                        int(rng.integers(len(self._new_jobs)))])
                else:
                    entry = ("new", i)
                    self._new_jobs.append(i)
                    self._submitted[i] = threading.Event()
                self._plan.append(entry)
            return self._plan[index]

    def run(self, job: Job) -> None:
        kind, source = self.plan(job.index)
        job.info["kind"], job.info["source"] = kind, source
        job.values = grid(self.seed, self.stream, source, self.points)
        if kind == "repeat":
            # dedup needs the first run submitted before its repeat
            self._submitted[source].wait(timeout=60)
            tenant = f"repeat-{job.index}"
        else:
            tenant = f"client-{job.client}"
        try:
            self._submit_and_collect(job, tenant)
        finally:
            if kind == "new":
                self._submitted[source].set()

    def _submit_and_collect(self, job: Job, tenant: str) -> None:
        from repro.config import REFERENCE_RESONANT_SENSOR
        from repro.service import JobSpec
        from repro.service.client import ServiceClient

        client = getattr(self._local, "client", None)
        if client is None or client.url != self.url:
            client = self._local.client = ServiceClient(self.url)
        spec = JobSpec(base=REFERENCE_RESONANT_SENSOR.to_dict(), path=PATH,
                       values=tuple(job.values), duration=self.duration,
                       tenant=tenant)
        job.start = time.monotonic()
        record = client.submit(spec)
        if job.info.get("kind") == "new":
            self._submitted[job.info["source"]].set()
        status = client.wait(record["job_id"], timeout=60,
                             poll_interval=self.poll_interval_s)
        if status["state"]["phase"] != "done":
            job.end = time.monotonic()
            raise RuntimeError(f"job {record['job_id']} ended "
                               f"{status['state']['phase']}: "
                               f"{status['state']['error']}")
        table = client.results(record["job_id"])
        job.end = time.monotonic()
        job.info.update(
            received_at=time.time(), dedup_of=record.get("dedup_of"),
            cache_hits=status["progress"]["cache_hits"],
            total=status["progress"]["total"],
            failed_points=status["progress"]["failed"]
            + sum(1 for p in table["points"] if not p["ok"]),
            submitted_at=status["state"]["submitted_at"],
            started_at=status["state"]["started_at"],
            finished_at=status["state"]["finished_at"],
        )
        job.columns = table["columns"]
        job.points = len(job.values)

    def verify(self, jobs: list[Job]) -> None:
        first = {j.info["source"]: j for j in jobs
                 if j.info.get("kind") == "new"}
        pending = [j for j in jobs if j.error is None]
        for job in pending:
            if job.info["failed_points"]:
                job.error = f"{job.info['failed_points']} point(s) flagged failed"
        new = [j for j in pending
               if j.error is None and j.info["kind"] == "new"]
        tables = oracle_tables([j.values for j in new], self.duration)
        for job, reference in zip(new, tables):
            job.error = mismatch(job.columns, reference, exact=False)
        for job in pending:
            if job.error is not None or job.info["kind"] == "new":
                continue
            source = first[job.info["source"]]
            if source.error is None:
                # a repeat must be bit-equal to the first run of its grid
                job.error = mismatch(job.columns, source.columns, exact=True)
            else:
                job.error = "first run of the repeated grid failed"


WORKLOADS = {w.name: w for w in (SweepBatch, ServeMixed, FabricSweep)}
