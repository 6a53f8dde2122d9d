"""One measured benchmark process: set up, run the timed window, check.

``run.py`` starts this script several times per run, each time in a
fresh private ``TMPDIR`` so the compiled-kernel cache starts empty and
kernel compilation lands in set-up.  A session sets up, records the
moment set-up ended, runs its share (``--part``) of the untraced
window and checks the results.  With ``--trace 1`` it then runs a
second, traced window on fresh inputs (for ``serve-mixed``, against a
server started through ``serve_traced.py``) and computes the per-layer
metrics.

Results are written as JSON to ``--out``.  Fabric workers start with
``spawn`` and re-import this file as ``__mp_main__``, so everything
below the imports runs only under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import CALL_METRIC, PER_LAYER, SELF_TIME_METRIC, install
from spans import Tracer, attribute
from workloads import WORKLOADS, Job, compiled_kernels

_IMPORT_SAMPLES = 3


def closed_loop(workload, seconds: float) -> list[Job]:
    """Each client runs jobs back to back until ``seconds`` have passed.

    Every client runs at least one job; a job is never cut short, so
    the window ends with the last job to finish.
    """
    lock = threading.Lock()
    jobs: list[Job] = []
    counter = iter(range(1 << 30))
    deadline = time.monotonic() + seconds

    def client(number: int) -> None:
        first = True
        while first or time.monotonic() < deadline:
            first = False
            with lock:
                job = Job(index=next(counter), client=number)
            began = time.monotonic()
            try:
                workload.run(job)
            except Exception as err:  # noqa: BLE001 - a failed job is a result
                job.error = f"{type(err).__name__}: {err}"
                job.start = job.start or began
                job.end = job.end or time.monotonic()
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(jobs, key=lambda j: j.index)


def window(jobs: list[Job]) -> tuple[float, float]:
    return min(j.start for j in jobs), max(j.end for j in jobs)


def delivered(jobs: list[Job]) -> int:
    return sum(j.points for j in jobs if j.columns is not None)


# -- resource use ------------------------------------------------------------


def _proc_fields(pid: int) -> list[str]:
    text = Path(f"/proc/{pid}/stat").read_text()
    return text.rsplit(")", 1)[1].split()


def cpu_seconds(pids) -> float:
    """User + sys CPU of this process, its reaped children and ``pids``."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for pid in pids:
        fields = _proc_fields(pid)
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb(pids) -> float:
    """Highest resident set of this process, its children and ``pids``."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                kib = max(kib, int(line.split()[1]))
    return kib / 1024.0


# -- metrics -----------------------------------------------------------------


def p90(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, jobs: list[Job], untraced: list[Job],
              transport: dict, import_s: float, warmup_s: float) -> dict:
    """The traced window's per-layer metrics (see ``layers.PER_LAYER``)."""
    start, end = window(jobs)
    n = len(jobs)
    shares, rest = attribute(tracer.spans, start, end)
    totals = tracer.totals(start, end)
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["import.repro_s"] = import_s
    m["engine.kernel.warmup_s"] = warmup_s
    m["trace.wall_s"] = (end - start) / n
    m["unattributed_s"] = rest / n
    u_start, u_end = window(untraced)
    m["trace_overhead"] = ((end - start) / delivered(jobs)) / (
        (u_end - u_start) / delivered(untraced)) - 1.0
    for layer, metric in SELF_TIME_METRIC.items():
        m[metric] = shares[layer] / n
    for event, metric in CALL_METRIC.items():
        m[metric] = totals.get(event, 0) / n
    m["service.store.calls"] = sum(
        v for k, v in totals.items()
        if k.startswith("service.store.") and k.endswith(".calls")) / n
    gets = totals.get("engine.cache.get.calls", 0)
    if gets:
        m["engine.cache.hit_ratio"] = totals.get("engine.cache.hits", 0) / gets
    if shares["feedback.run_batch"] > 0:
        m["engine.kernel.samples_per_s"] = (
            totals.get("kernel.samples", 0) / shares["feedback.run_batch"])
    served = [j.info for j in jobs if "finished_at" in j.info]
    if served:
        m["service.pump.queue_wait_s"] = _median(
            i["started_at"] - i["submitted_at"] for i in served)
        m["service.pump.execute_s"] = _median(
            i["finished_at"] - i["started_at"] for i in served)
        m["service.pump.finish_to_client_s"] = _median(
            i["received_at"] - i["finished_at"] for i in served)
        m["service.job_p90_s"] = p90(j.latency for j in jobs)
        repeats = [i for i in served if i["kind"] == "repeat"]
        if repeats:
            m["service.dedup_hit_ratio"] = sum(
                1 for i in repeats
                if i["dedup_of"] and i["cache_hits"] == i["total"]
            ) / len(repeats)
    for name, value in transport.items():
        m[f"service.transport.{name}"] = value
    fabric = [j.info for j in jobs if "drain_s" in j.info]
    if fabric:
        for key in ("first_lease_s", "drain_s", "tail_s", "attempts_per_chunk"):
            m[f"fabric.{key}"] = _median(i[key] for i in fabric)
    return {k: float(v) for k, v in m.items()}


_TRANSPORT = ("retries", "deadline_sheds", "backpressure_rejections")


def transport_counts(workload) -> dict:
    """Client-side plus server-side transport counters, now."""
    from repro.service.client import ServiceClient
    from repro.service.transport import transport_counters

    counts = transport_counters().snapshot()
    out = {k: counts.get(k, 0) for k in _TRANSPORT}
    if getattr(workload, "url", ""):
        served = ServiceClient(workload.url).health()["service"]["transport"]
        for k in _TRANSPORT:
            out[k] += served.get(k, 0)
    return out


def import_seconds() -> float:
    """Median wall time of a fresh ``python -c "import repro"``."""
    samples = []
    for _ in range(_IMPORT_SAMPLES):
        began = time.monotonic()
        subprocess.run([sys.executable, "-c", "import repro"], check=True)
        samples.append(time.monotonic() - began)
    return statistics.median(samples)


# -- the session -------------------------------------------------------------


def environment() -> dict:
    import platform

    from repro.engine import cc_available, kernel_info

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "c_compiler": shutil.which(os.environ.get("CC", "cc")),
        "cc_available": bool(cc_available()),
        "last_batch_engine": kernel_info().last_batch_engine,
    }


def window_stats(jobs: list[Job], cpu_s: float, rss_mb: float) -> dict:
    """What ``run.py`` pools over sessions into the end-to-end metrics."""
    start, end = window(jobs)
    return {
        "points": delivered(jobs),
        "window_s": end - start,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "latencies_s": [j.latency for j in jobs],
    }


def measure(workload, seconds: float) -> tuple[list[Job], dict]:
    pids = workload.live_pids()
    kernels = compiled_kernels()
    cpu0 = cpu_seconds(pids)
    jobs = closed_loop(workload, seconds)
    cpu = cpu_seconds(pids) - cpu0
    stats = window_stats(jobs, cpu, peak_rss_mb(pids))
    stats["kernels_compiled_in_window"] = compiled_kernels() - kernels
    return jobs, stats


def session(args) -> dict:
    workdir = Path(args.workdir)
    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, workdir, part=args.part)
    out: dict = {"settings": workload.settings()}
    try:
        out["warmup_s"] = workload.setup()
        out["ready"] = time.monotonic()
        jobs, stats = measure(workload, args.seconds)
        if args.trace:
            workload.teardown()
            traced, jobs_t = kind(args.seed, workdir, traced=True), []
            tracer = Tracer()
            traced.quiet = tracer.muted
            try:
                traced.setup()
                install(tracer)
                with tracer.muted():
                    before = transport_counts(traced)
                jobs_t = closed_loop(traced, args.seconds)
                with tracer.muted():
                    after = transport_counts(traced)
            finally:
                tracer.unwrap()
                traced.teardown()
            if getattr(traced, "dump", None) is not None:
                tracer.merge(traced.dump)
            traced.verify(jobs_t)
    finally:
        workload.teardown()
    workload.verify(jobs)
    out.update(environment())
    out.update(stats)
    out["jobs"] = len(jobs)
    all_jobs = jobs
    if args.trace:
        out["traced_jobs"] = len(jobs_t)
        out["layers"] = per_layer(
            tracer, jobs_t, jobs,
            {k: after[k] - before[k] for k in _TRANSPORT},
            import_seconds(), out["warmup_s"])
        all_jobs = jobs + jobs_t
    out["attempted"] = len(all_jobs)
    out["failures"] = [f"job {j.index}: {j.error}" for j in all_jobs
                       if j.error is not None]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="which share of the run's window this is")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = session(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
