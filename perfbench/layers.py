"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapped function is public API of one module; the layer is named
after that module.  :func:`install` is used both by the session process
and by the traced server launcher (``serve_traced.py``), so a layer
means the same thing on either side of the HTTP boundary.
"""

from __future__ import annotations

#: The per-layer metrics a traced run prints, with their units.  Span
#: times and call counts are per job, so runs holding different numbers
#: of jobs compare directly; ``*_s`` span metrics add up, together with
#: ``unattributed_s``, to ``trace.wall_s``.
PER_LAYER = (
    ("import.repro_s", "s"),
    ("engine.kernel.warmup_s", "s"),
    ("trace.wall_s", "s/job"),
    ("unattributed_s", "s/job"),
    ("trace_overhead", "ratio"),
    ("config.build_s", "s/job"),
    ("config.build_calls", "1/job"),
    ("feedback.run_batch_s", "s/job"),
    ("feedback.run_batch_calls", "1/job"),
    ("engine.kernel.samples", "1/job"),
    ("engine.kernel.samples_per_s", "1/s"),
    ("engine.kernel.batch_columnar_runs", "1/job"),
    ("engine.kernel.batch_row_runs", "1/job"),
    ("engine.kernel.batch_declined", "1/job"),
    ("engine.kernel.fallbacks", "1/job"),
    ("analysis.sweep.self_s", "s/job"),
    ("engine.fabric.self_s", "s/job"),
    ("engine.cache.get_calls", "1/job"),
    ("engine.cache.get_s", "s/job"),
    ("engine.cache.put_calls", "1/job"),
    ("engine.cache.put_s", "s/job"),
    ("engine.cache.hit_ratio", "ratio"),
    ("service.store.calls", "1/job"),
    ("service.store.s", "s/job"),
    ("service.store.record_outcome_calls", "1/job"),
    ("service.store.update_calls", "1/job"),
    ("service.store.chunk_counts_calls", "1/job"),
    ("service.pump.queue_wait_s", "s"),
    ("service.pump.execute_s", "s"),
    ("service.pump.finish_to_client_s", "s"),
    ("service.client.submit_s", "s/job"),
    ("service.client.status_s", "s/job"),
    ("service.client.status_calls_per_job", "1/job"),
    ("service.client.results_s", "s/job"),
    ("service.transport.retries", "count"),
    ("service.transport.deadline_sheds", "count"),
    ("service.transport.backpressure_rejections", "count"),
    ("service.dedup_hit_ratio", "ratio"),
    ("service.job_p90_s", "s"),
    ("fabric.first_lease_s", "s"),
    ("fabric.drain_s", "s"),
    ("fabric.tail_s", "s"),
    ("fabric.attempts_per_chunk", "ratio"),
)

#: Span layer -> the metric carrying its self time.
SELF_TIME_METRIC = {
    "config.build": "config.build_s",
    "feedback.run_batch": "feedback.run_batch_s",
    "analysis.sweep": "analysis.sweep.self_s",
    "engine.fabric": "engine.fabric.self_s",
    "engine.cache.get": "engine.cache.get_s",
    "engine.cache.put": "engine.cache.put_s",
    "service.store": "service.store.s",
    "service.client.submit": "service.client.submit_s",
    "service.client.status": "service.client.status_s",
    "service.client.results": "service.client.results_s",
}

#: Counter event -> per-job metric.
CALL_METRIC = {
    "config.build.calls": "config.build_calls",
    "feedback.run_batch.calls": "feedback.run_batch_calls",
    "kernel.samples": "engine.kernel.samples",
    "kernel.batch_columnar_runs": "engine.kernel.batch_columnar_runs",
    "kernel.batch_row_runs": "engine.kernel.batch_row_runs",
    "kernel.batch_declined": "engine.kernel.batch_declined",
    "kernel.fallbacks": "engine.kernel.fallbacks",
    "engine.cache.get.calls": "engine.cache.get_calls",
    "engine.cache.put.calls": "engine.cache.put_calls",
    "service.store.record_outcome.calls": "service.store.record_outcome_calls",
    "service.store.update.calls": "service.store.update_calls",
    "service.store.chunk_counts.calls": "service.store.chunk_counts_calls",
    "service.client.status.calls": "service.client.status_calls_per_job",
}

_KERNEL_COUNTERS = ("batch_columnar_runs", "batch_row_runs",
                    "batch_declined", "fallbacks")


def install(tracer) -> None:
    """Wrap the public functions whose calls form the traced layers."""
    import repro.analysis
    import repro.config
    import repro.engine.fabric
    import repro.feedback.loop
    from repro.engine import kernel_info
    from repro.engine.cache import TieredCache
    from repro.service.client import ServiceClient
    from repro.service.store import SQLiteJobStore

    def kernel_delta(result, args, before, start):
        after = kernel_info()
        tracer.count("kernel.samples",
                     after.total_samples - before.total_samples, at=start)
        for name in _KERNEL_COUNTERS:
            tracer.count(f"kernel.{name}",
                         getattr(after, name) - getattr(before, name), at=start)

    def cache_hit(result, args, before, start):
        if result is not args[0].MISS:
            tracer.count("engine.cache.hits", at=start)

    tracer.wrap(repro.config, "build", "config.build")
    tracer.wrap(repro.feedback.loop, "run_batch", "feedback.run_batch",
                snapshot=kernel_info, observe=kernel_delta)
    tracer.wrap(repro.analysis, "run_spec_sweep", "analysis.sweep")
    tracer.wrap(repro.engine.fabric, "run_fabric_sweep", "engine.fabric")
    tracer.wrap(TieredCache, "get", "engine.cache.get", observe=cache_hit)
    tracer.wrap(TieredCache, "put", "engine.cache.put")
    for name, member in list(vars(SQLiteJobStore).items()):
        if callable(member) and not name.startswith("_"):
            tracer.wrap(SQLiteJobStore, name, "service.store",
                        counter=f"service.store.{name}.calls")
    for name in ("submit", "status", "results"):
        tracer.wrap(ServiceClient, name, f"service.client.{name}")
