"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``.

The smoke runs start real benchmark processes (about a minute in all).
"""

from __future__ import annotations

import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layers import PER_LAYER
from run import END_TO_END, end_to_end
from session import window_stats
from spans import Tracer, attribute
from workloads import Job, ServeMixed, SweepBatch

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# -- self-time arithmetic -----------------------------------------------------


def test_self_times_are_span_minus_children_and_add_up_to_wall():
    order = ("analysis.sweep", "engine.cache.get", "config.build",
             "feedback.run_batch")
    spans = [
        ("analysis.sweep", 1.0, 9.0),
        ("engine.cache.get", 1.25, 1.5),
        ("config.build", 1.5, 2.5),
        ("feedback.run_batch", 3.0, 7.0),
        ("analysis.sweep", 9.5, 9.75),
    ]
    shares, rest = attribute(spans, 0.0, 10.0, order)
    assert shares["feedback.run_batch"] == pytest.approx(4.0)
    assert shares["config.build"] == pytest.approx(1.0)
    assert shares["engine.cache.get"] == pytest.approx(0.25)
    # 8.25 s of sweep spans minus the 5.25 s its children cover
    assert shares["analysis.sweep"] == pytest.approx(3.0)
    assert rest == pytest.approx(10.0 - 8.25)
    assert sum(shares.values()) + rest == pytest.approx(10.0)


def test_overlapping_threads_still_add_up_to_wall():
    order = ("service.client.status", "service.store", "feedback.run_batch")
    spans = [
        ("service.client.status", 0.0, 4.0),   # client thread A
        ("service.client.status", 2.0, 6.0),   # client thread B
        ("service.store", 3.0, 5.0),           # server
        ("feedback.run_batch", 4.5, 8.0),      # server, past the window
    ]
    shares, rest = attribute(spans, 0.0, 7.0, order)
    assert shares == pytest.approx({"service.client.status": 3.0,
                                    "service.store": 1.5,
                                    "feedback.run_batch": 2.5})
    assert rest == pytest.approx(0.0)
    assert sum(shares.values()) + rest == pytest.approx(7.0)


def test_tracer_records_outermost_calls_and_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Box, "outer", "engine.cache.get")
    tracer.wrap(Box, "inner", "engine.cache.get")
    assert Box().outer() == 2
    with tracer.muted():
        Box().inner()
    tracer.unwrap()
    Box().outer()
    assert [s[0] for s in tracer.spans] == ["engine.cache.get"]
    assert tracer.totals(0, float("inf")) == {"engine.cache.get.calls": 1}


# -- correctness gate -----------------------------------------------------------


def _perturb(columns, name, index, factor):
    out = {k: list(v) for k, v in columns.items()}
    out[name][index] = out[name][index] * factor
    return out


def test_perturbed_result_column_raises_failed_ratio(tmp_path):
    workload = SweepBatch(7, tmp_path)
    workload.duration = 0.002  # same check, cheaper loops
    good = Job(index=0, client=0)
    workload.run(good)
    bad = Job(index=1, client=0, values=good.values, start=good.start,
              end=good.end, points=good.points,
              columns=_perturb(good.columns, "amplitude_m", 3, 1 + 1e-6))
    jobs = [good, bad]
    workload.verify(jobs)
    assert good.error is None
    assert "amplitude_m" in bad.error
    stats = window_stats(jobs, cpu_s=1.0, rss_mb=1.0)
    stats.update(setup_s=1.0, attempted=len(jobs),
                 failures=[j.error for j in jobs if j.error])
    assert 1.0 - end_to_end([stats])["ok_ratio"] == pytest.approx(0.5)


def test_serve_repeat_must_be_bit_equal_to_its_first_run(tmp_path):
    from workloads import oracle_tables

    workload = ServeMixed(7, tmp_path)
    values = [170.0, 200.0, 230.0]
    (table,) = oracle_tables([values], workload.duration)
    reference = {k: v.tolist() for k, v in table.items()}
    info = {"failed_points": 0, "source": 0}
    first = Job(0, 0, values, columns=reference,
                info={**info, "kind": "new"})
    same = Job(1, 1, values, columns=reference,
               info={**info, "kind": "repeat"})
    one_ulp = Job(2, 0, values, info={**info, "kind": "repeat"},
                  columns=_perturb(reference, "drive_v_rms", 0,
                                   1 + np.finfo(float).eps))
    flagged = Job(3, 1, values, columns=reference,
                  info={**info, "kind": "repeat", "failed_points": 1})
    workload.verify([first, same, one_ulp, flagged])
    assert first.error is None and same.error is None
    assert "bit-equal" in one_ulp.error
    assert "flagged failed" in flagged.error


# -- the benchmark end to end -------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} \
        == {"sweep-batch", "serve-mixed", "fabric-sweep"}


def test_spawned_reimport_of_the_session_runs_nothing():
    # what multiprocessing's spawn does with the parent's __main__
    namespace = runpy.run_path(str(BENCH / "session.py"),
                               run_name="__mp_main__")
    assert "main" in namespace


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload",
                         ["sweep-batch", "serve-mixed", "fabric-sweep"])
def test_one_job_smoke_run(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert list(summary["metrics"]) == [name for name, _ in END_TO_END]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep-batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
