"""Benchmark of the closed-loop resonant-sensor simulation (``repro``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-batch --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``sweep-batch``   in-process ``run_spec_sweep`` over fresh 32-point grids
                  with the batched kernel, one caller;
``serve-mixed``   two closed-loop HTTP clients against ``repro serve``,
                  8-point jobs, a seeded half repeating an earlier grid;
``fabric-sweep``  ``run_fabric_sweep`` over fresh 64-point grids with two
                  spawned workers, fresh store and cache per job.

With ``--trace 0`` three fresh processes each set up (the median is
``setup_s``) and run a third of the timed window; the end-to-end metrics
pool them.  With ``--trace 1`` one process runs an untraced window and
then a traced one, and the per-layer metrics are reported.  Every result
is checked against the uncached serial oracle after its window.

The full record (environment, settings, all metrics) is written to
``.perfbench_results/``; the last line of standard output is the JSON
summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from session import p90
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: End-to-end metrics of an untraced run, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("cpu_s_per_point", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

#: Fresh processes per untraced run.  Each sets up (``setup_s`` is the
#: median) and runs an equal share of the timed window, so the end-to-end
#: figures pool several processes and several stretches of time.
SESSIONS = 3

#: Wall-time budget of one invocation, below the 180 s a run may take.
BUDGET_S = 170.0

WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"


class SessionError(RuntimeError):
    pass


def start_session(root: Path, workdir: Path, args, part: int, seconds: float,
                  deadline: float) -> dict:
    """Run ``session.py`` in a fresh process group and private TMPDIR."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(root / "src"))
    out = workdir / "session.json"
    log = workdir / "session.log"
    argv = [sys.executable, str(HERE / "session.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--part", str(part),
            "--trace", str(args.trace),
            "--workdir", str(workdir), "--out", str(out)]
    with open(log, "w") as sink:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=sink,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the session stops its own server and workers; this catches
            # whatever a crash or a timeout left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        tail = log.read_text()[-4000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise SessionError(f"session {part} {reason}:\n{tail}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - launched
    return result


def run_sessions(args, root: Path) -> list[dict]:
    deadline = time.monotonic() + BUDGET_S
    base = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    parts = 1 if args.trace else SESSIONS
    try:
        return [start_session(root, base / str(part), args, part,
                              args.seconds / parts, deadline)
                for part in range(parts)]
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


def end_to_end(sessions: list[dict]) -> dict:
    """The end-to-end metrics, pooled over the sessions of one run."""
    points = sum(s["points"] for s in sessions)
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(len(s["failures"]) for s in sessions)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "points_per_s": points / sum(s["window_s"] for s in sessions),
        "job_p50_s": statistics.median(
            t for s in sessions for t in s["latencies_s"]),
        "cpu_s_per_point": sum(s["cpu_s"] for s in sessions) / max(points, 1),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "ok_ratio": (attempted - failed) / attempted,
    }


def report(args, sessions: list[dict], metrics: dict) -> dict:
    """Print the human-readable report; return the summary line's object."""
    failures = [f for s in sessions for f in s["failures"]]
    attempted = sum(s["attempted"] for s in sessions)
    first = sessions[0]
    if args.trace:
        wanted, values = PER_LAYER, first["layers"]
    else:
        wanted, values = END_TO_END, metrics
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  cpu_count={first['cpu_count']} python={first['python']} "
          f"cc={first['c_compiler']} "
          f"last_batch_engine={first['last_batch_engine']}")
    print(f"  settings={json.dumps(first['settings'], sort_keys=True)} "
          f"sessions={len(sessions)}")
    print("  jobs=" + ",".join(str(s["jobs"]) for s in sessions)
          + " setup_s=" + ",".join(f"{s['setup_s']:.4g}" for s in sessions))
    for name, unit in wanted:
        print(f"  {name:<42s} {values[name]:>14.6g} {unit}")
    # reported here only: p90 needs ten jobs beyond it, which only
    # serve-mixed holds, and the summary's metrics must never be 0
    latencies = [t for s in sessions for t in s["latencies_s"]]
    print(f"  {'job_p90_s':<42s} {p90(latencies):>14.6g} s "
          f"({len(latencies)} jobs)")
    print(f"  {'failed_ratio':<42s} {len(failures) / attempted:>14.6g} "
          f"ratio ({len(failures)}/{attempted} jobs)")
    for line in failures[:5]:
        print(f"  FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop resonant-sensor simulation benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    # byte-compile up front so set-up never pays for first-run .pyc writes
    compileall.compile_dir(str(root / "src"), quiet=1)
    try:
        sessions = run_sessions(args, root)
    except SessionError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    metrics = end_to_end(sessions)
    summary = report(args, sessions, metrics)
    records = root / RESULTS_DIR
    records.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "summary": summary, "sessions": sessions}
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
