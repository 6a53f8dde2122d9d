"""Golden suite for the batched multi-instance kernel.

The batching contract extends the fused kernel's bit-identity: every
instance of a batch must return waveforms ``np.array_equal`` to its
solo fused run — across heterogeneous durations, per-instance
fallbacks, open-loop swept-sine tones, and the executor/sweep-planner
plumbing above it.  Also pins the ``auto`` backend resolution order
(never ``interp``), the thread-resolution rules, the
double-parallelism guard, and the batch's parallel bridge-noise
synthesis.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

import repro.engine.kernel as kernel_mod
import repro.feedback.loop as loop_mod
from repro.config import REFERENCE_RESONANT_SENSOR, build
from repro.core import ResonantCantileverSensor
from repro.engine import (
    AUTO_ORDER,
    BatchExecutor,
    KERNEL_THREADS_ENV,
    KernelBatch,
    batch_signature,
    cc_available,
    kernel_batch_threads,
    kernel_info,
    reset_kernel_info,
)
from repro.engine.kernel import COLUMNAR_ENV, MAX_BATCH_THREADS, resolve_backend
from repro.errors import KernelError
from repro.feedback import run_batch

DURATION = 0.006
LENGTHS = (180.0, 200.0, 220.0)
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)


def build_loop(length_um: float = 200.0):
    spec = REFERENCE_RESONANT_SENSOR.with_overrides(
        {"cantilever.length_um": length_um}
    )
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def assert_records_equal(ref, other, label):
    __tracebackhide__ = True
    for name in WAVEFORMS:
        a = np.asarray(getattr(ref, name))
        b = np.asarray(getattr(other, name))
        if not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("nan")
            pytest.fail(
                f"{label}.{name} differs from solo run "
                f"(max abs diff {worst:.3e})"
            )


class TestClosedLoopBatch:
    """run_batch == solo fused, instance for instance, bit for bit."""

    def test_batch_matches_solo_fused(self):
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in LENGTHS
        ]
        reset_kernel_info()
        # threads=2 keeps the row engine selected on a 1-CPU box (the
        # decline heuristic only fires for narrow batches at 1 thread;
        # pinned in tests/engine/test_kernel_columnar.py)
        records = run_batch(
            [build_loop(length) for length in LENGTHS], DURATION, threads=2
        )
        assert len(records) == len(LENGTHS)
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"batch[{length}]")
            assert np.array_equal(solo.times, rec.times)
            assert solo.sample_rate == rec.sample_rate
        info = kernel_info()
        assert info.fallbacks == 0
        assert info.batch_runs == 1
        assert info.batch_instances == len(LENGTHS)
        assert info.runs.get("fused", 0) == len(LENGTHS)

    def test_heterogeneous_durations_pad_and_mask(self):
        durations = (0.004, 0.008, 0.006)
        solos = [
            build_loop(length).run(d, backend="fused")
            for length, d in zip(LENGTHS, durations)
        ]
        records = run_batch(
            [build_loop(length) for length in LENGTHS], durations
        )
        lengths = {len(r.displacement) for r in records}
        assert len(lengths) == 3, "per-instance durations must differ"
        for solo, rec in zip(solos, records):
            assert len(solo.displacement) == len(rec.displacement)
            assert_records_equal(solo, rec, "hetero")

    def test_batch_absorbs_final_loop_state(self):
        solo_loop = build_loop(200.0)
        solo_loop.run(DURATION, backend="fused")
        batch_loop = build_loop(200.0)
        run_batch([batch_loop], DURATION)
        assert (
            batch_loop.resonator.state.displacement
            == solo_loop.resonator.state.displacement
        )
        assert (
            batch_loop.resonator.state.velocity
            == solo_loop.resonator.state.velocity
        )

    @pytest.mark.skipif(not cc_available(), reason="needs a C compiler")
    def test_batch_runs_compiled_engine(self):
        loops = [build_loop(length) for length in LENGTHS]
        run_batch(loops, DURATION, threads=2)
        for loop in loops:
            assert loop.last_kernel_info is not None
            assert loop.last_kernel_info.engine == "cc-batch"

    def test_reference_backend_bypasses_batching(self):
        reset_kernel_info()
        records = run_batch(
            [build_loop(length) for length in LENGTHS],
            DURATION,
            backend="reference",
        )
        assert len(records) == len(LENGTHS)
        assert kernel_info().batch_runs == 0

    def test_duration_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="durations"):
            run_batch([build_loop(200.0)], [0.004, 0.008])


class TestPerInstanceFallback:
    """A non-lowerable instance falls back alone, never poisons the batch."""

    def test_patched_loop_falls_back_inside_batch(self):
        solo_ref = build_loop(200.0).run(DURATION, backend="reference")
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in (LENGTHS[0], LENGTHS[2])
        ]

        loops = [build_loop(length) for length in LENGTHS]
        original = loops[1].vga.step
        loops[1].vga.step = lambda x: original(x)  # instance patch: refuses

        reset_kernel_info()
        records = run_batch(loops, DURATION, threads=2)
        info = kernel_info()
        assert info.fallbacks == 1
        assert "patched" in info.last_fallback_reason
        # the other two instances still ran as one batch
        assert info.batch_runs == 1
        assert info.batch_instances == 2
        assert_records_equal(solos[0], records[0], "batch[0]")
        assert_records_equal(solo_ref, records[1], "fallback[1]")
        assert_records_equal(solos[1], records[2], "batch[2]")
        assert loops[1].last_kernel_info is None  # reference path ran


NOISE_GRID = tuple(float(v) for v in np.linspace(170.0, 260.0, 12))


def build_noise_grid():
    """12 loops: one with a patched step (falls back), one noiseless."""
    loops = [build_loop(length) for length in NOISE_GRID]
    original = loops[3].vga.step
    loops[3].vga.step = lambda x: original(x)
    loops[7].include_bridge_noise = False
    return loops


def _child_batch(conn):
    """Forked child: a 4-loop, 2-thread batch with a cold noise memo."""
    loop_mod._NOISE_MEMO.clear()
    records = run_batch(
        [build_loop(length) for length in NOISE_GRID[:4]], DURATION, threads=2
    )
    conn.send([[getattr(r, name) for name in WAVEFORMS] for r in records])
    conn.close()


class TestBatchNoiseSynthesis:
    """Noise synthesized on the batch's threads is the solo noise."""

    @pytest.fixture(autouse=True)
    def _exact_batch_engines(self, monkeypatch):
        # no thread ceiling; and no columnar engine, whose contract is
        # rtol 1e-9 rather than bit-exact (auto picks it at 8+ loops)
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        monkeypatch.setenv(COLUMNAR_ENV, "0")

    @pytest.fixture(scope="class")
    def solos(self):
        return [loop.run(DURATION) for loop in build_noise_grid()]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_records_equal_solo_for_any_thread_count(self, solos, threads):
        loop_mod._NOISE_MEMO.clear()  # synthesize, do not replay the memo
        reset_kernel_info()
        records = run_batch(build_noise_grid(), DURATION, threads=threads)
        assert kernel_info().fallbacks == 1
        for length, solo, rec in zip(NOISE_GRID, solos, records):
            assert_records_equal(solo, rec, f"threads={threads}[{length}]")

    def test_oversubscribed_slices_racing_on_the_memo(self):
        # 8 slices on any box, each distinct request asked 4 times at
        # once, with the interpreter switching threads as often as it can
        solos = [build_loop(length).run(DURATION) for length in LENGTHS]
        loop_mod._NOISE_MEMO.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = run_batch([build_loop(length) for length in LENGTHS * 4],
                                DURATION, threads=8)
        finally:
            sys.setswitchinterval(interval)
        for k, rec in enumerate(records):
            assert_records_equal(solos[k % len(LENGTHS)], rec, f"racing[{k}]")

    def test_one_thread_starts_no_thread(self, monkeypatch):
        def no_pool():
            raise AssertionError("noise pool used under a 1-thread budget")

        def no_start(self):
            raise AssertionError(f"thread {self.name} started")

        solos = [build_loop(length).run(DURATION) for length in LENGTHS]
        loops = [build_loop(length) for length in LENGTHS]
        loop_mod._NOISE_MEMO.clear()
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        monkeypatch.setattr(loop_mod, "_noise_pool", no_pool)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        records = run_batch(loops, DURATION, threads=4)
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"inline[{length}]")

    def test_forked_child_does_not_reuse_the_parent_pool(self):
        run_batch([build_loop(length) for length in LENGTHS], DURATION,
                  threads=2)
        assert loop_mod._NOISE_POOL is not None
        assert loop_mod._NOISE_POOL_PID == os.getpid()

        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_batch, args=(sender,))
        child.start()
        sender.close()
        try:
            if not receiver.poll(60.0):
                pytest.fail("forked child's batch did not finish")
            waveforms = receiver.recv()
        finally:
            child.join(10.0)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        for length, got in zip(NOISE_GRID[:4], waveforms):
            solo = build_loop(length).run(DURATION)
            for name, arr in zip(WAVEFORMS, got):
                assert np.array_equal(getattr(solo, name), arr), (length, name)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_synthesis_error_propagates(self, monkeypatch, threads):
        real = loop_mod._memoized_bridge_noise
        calls = []
        lock = threading.Lock()

        def flaky(*args):
            with lock:
                calls.append(args)
                third = len(calls) == 3
            if third:
                raise RuntimeError("noise synthesis failed")
            return real(*args)

        monkeypatch.setattr(loop_mod, "_memoized_bridge_noise", flaky)
        with pytest.raises(RuntimeError, match="noise synthesis failed"):
            run_batch([build_loop(length) for length in NOISE_GRID[:6]],
                      DURATION, threads=threads)


class TestKernelBatchValidation:
    def _kernel_and_prep(self, loop):
        prep = loop._prepare_run(DURATION, None)
        return loop._lower_kernel(prep.signed_coefficient), prep

    def test_same_shape_loops_share_signature(self):
        k1, _ = self._kernel_and_prep(build_loop(180.0))
        k2, _ = self._kernel_and_prep(build_loop(240.0))
        assert batch_signature(k1) == batch_signature(k2)

    def test_mixed_shapes_raise(self):
        import math

        from repro.engine.kernel import FusedLoopKernel
        from repro.feedback.loop import lower_resonator_mode

        loop = build_loop(200.0)
        closed, prep = self._kernel_and_prep(loop)
        mode = lower_resonator_mode(loop.resonator, 0.0)
        open_loop = FusedLoopKernel(
            [], [], [], [mode],
            act_r=1.0, act_imax=math.inf, act_fpc=1.0, include_taps=False,
        )
        assert batch_signature(closed) != batch_signature(open_loop)
        with pytest.raises(KernelError, match="batch_signature"):
            KernelBatch([closed, open_loop], [prep.n, prep.n],
                        [prep.bridge_noise, prep.bridge_noise])

    def test_empty_batch_raises(self):
        with pytest.raises(KernelError, match="at least one"):
            KernelBatch([], [], [])

    def test_short_noise_raises(self):
        loop = build_loop(200.0)
        kern, prep = self._kernel_and_prep(loop)
        with pytest.raises(KernelError):
            KernelBatch([kern], [prep.n], [prep.bridge_noise[: prep.n - 10]])


class TestSweptSineBatch:
    """The acceptance workload: a 64-point resonance curve, bit-identical."""

    def test_64_point_curve_matches_reference(self):
        from repro.analysis import swept_sine_response

        resonator = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        f0 = resonator.natural_frequency
        frequencies = np.linspace(0.6 * f0, 1.4 * f0, 64)

        serial = swept_sine_response(
            resonator, frequencies, 1e-9, backend="reference"
        )
        reset_kernel_info()
        batched = swept_sine_response(
            resonator, frequencies, 1e-9, backend="auto"
        )
        assert np.array_equal(serial, batched)
        info = kernel_info()
        assert info.batch_runs == 1
        assert info.batch_instances == 64
        assert info.fallbacks == 0

    def test_subclassed_resonator_falls_back(self):
        from repro.analysis import swept_sine_response
        from repro.mechanics import ModalResonator

        class OddResonator(ModalResonator):
            def step(self, force):
                return super().step(force)

        base = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        odd = OddResonator(
            effective_mass=base.effective_mass,
            effective_stiffness=base.effective_stiffness,
            quality_factor=base.quality_factor,
            timestep=base.timestep,
        )
        f = np.linspace(0.8, 1.2, 7) * odd.natural_frequency
        serial = swept_sine_response(odd, f, 1e-9, backend="reference")
        reset_kernel_info()
        fallback = swept_sine_response(odd, f, 1e-9, backend="auto")
        assert np.array_equal(serial, fallback)
        info = kernel_info()
        assert info.batch_runs == 0
        assert info.fallbacks == 1

    def test_measure_resonance_identical_fits(self):
        from repro.analysis import measure_resonance

        resonator = build(REFERENCE_RESONANT_SENSOR).build_resonator()
        ref = measure_resonance(resonator, points=9, backend="reference")
        bat = measure_resonance(resonator, points=9, backend="auto")
        assert ref.frequency == bat.frequency
        assert ref.quality_factor == bat.quality_factor


class TestAutoResolution:
    """``auto`` follows AUTO_ORDER and can never pick ``interp``."""

    def test_auto_order_pinned(self):
        assert AUTO_ORDER == ("fused:cc", "fused:codegen")
        assert "interp" not in AUTO_ORDER

    @pytest.mark.parametrize(
        "cc,expected",
        [
            (True, "fused"),    # AUTO_ORDER[0]: fused:cc
            (False, "fused"),   # AUTO_ORDER[1]: fused:codegen
        ],
    )
    def test_resolution_order(self, monkeypatch, cc, expected):
        monkeypatch.setattr(kernel_mod, "_CC_CHECKED", True)
        monkeypatch.setattr(kernel_mod, "_CC", "cc" if cc else None)
        resolved = resolve_backend("auto")
        assert resolved == expected
        assert resolved != "interp"

    def test_explicit_interp_still_allowed(self):
        assert resolve_backend("interp") == "interp"


class TestThreadResolution:
    def test_requested_wins(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads(4) == 4

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads() == (os.cpu_count() or 1)

    def test_env_is_a_ceiling(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "2")
        assert kernel_batch_threads(8) == 2
        assert kernel_batch_threads(1) == 1

    def test_env_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        assert kernel_batch_threads() == 1

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "lots")
        assert kernel_batch_threads(3) == 3

    def test_clamped_to_instances_and_cap(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        assert kernel_batch_threads(8, n_instances=2) == 2
        assert kernel_batch_threads(500, n_instances=1000) == MAX_BATCH_THREADS
        assert kernel_batch_threads(0) == 1


def _read_kernel_env(_) -> str | None:
    """Module-level so the process pool can pickle it."""
    return os.environ.get(KERNEL_THREADS_ENV)


class TestDoubleParallelismGuard:
    """Batched kernel inside a process-pool sweep degrades to 1 C thread."""

    def test_process_workers_cap_kernel_threads(self, monkeypatch):
        monkeypatch.delenv(KERNEL_THREADS_ENV, raising=False)
        values = (
            BatchExecutor(workers=2, backend="process")
            .map(_read_kernel_env, [0, 1])
            .values()
        )
        assert values == ["1", "1"]
        # the parent process is untouched
        assert KERNEL_THREADS_ENV not in os.environ

    def test_initializer_sets_env(self, monkeypatch):
        from repro.engine.executor import _limit_worker_kernel_threads

        monkeypatch.setenv(KERNEL_THREADS_ENV, "8")
        _limit_worker_kernel_threads()
        assert os.environ[KERNEL_THREADS_ENV] == "1"

    def test_env_caps_batch_threads_end_to_end(self, monkeypatch):
        monkeypatch.setenv(KERNEL_THREADS_ENV, "1")
        reset_kernel_info()
        run_batch([build_loop(length) for length in LENGTHS], 0.004, threads=4)
        info = kernel_info()
        if info.batch_runs:  # compiled path only; codegen fallback runs solo
            assert info.last_batch_threads == 1


class _BatchySquare:
    """Minimal task implementing the ``batch_call`` protocol."""

    def __call__(self, p):
        return p * p

    def batch_call(self, parameters, threads=None):
        pairs = []
        for p in parameters:
            if p < 0:
                pairs.append((None, ValueError(f"negative {p}")))
            else:
                pairs.append((p * p, None))
        return pairs


class TestExecutorKernelBatch:
    def test_batch_call_protocol(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            _BatchySquare(), [1, 2, 3]
        )
        assert batch.values() == [1, 4, 9]

    def test_per_task_error_capture_survives_batching(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            _BatchySquare(), [1, -2, 3]
        )
        assert not batch.ok
        assert [o.ok for o in batch.outcomes] == [True, False, True]
        assert batch.outcomes[0].value == 1
        with pytest.raises(ValueError, match="negative"):
            batch.outcomes[1].unwrap()

    def test_function_without_batch_call_degrades_to_serial(self):
        batch = BatchExecutor(backend="kernel-batch").map(
            lambda p: p + 1, [1, 2, 3]
        )
        assert batch.values() == [2, 3, 4]

    def test_workers_one_still_batches(self):
        calls = []

        class Recorder(_BatchySquare):
            def batch_call(self, parameters, threads=None):
                calls.append(len(parameters))
                return super().batch_call(parameters, threads=threads)

        BatchExecutor(workers=1, backend="kernel-batch").map(
            Recorder(), [1, 2, 3]
        )
        assert calls == [3]


class TestLoopSweepTaskPlanner:
    def _sweep(self, backend, cache=None):
        from repro.analysis import LoopSweepTask, run_spec_sweep

        return run_spec_sweep(
            REFERENCE_RESONANT_SENSOR,
            "cantilever.length_um",
            list(LENGTHS),
            LoopSweepTask(duration=DURATION),
            backend=backend,
            cache=cache,
        )

    def test_kernel_batch_equals_serial(self):
        serial = self._sweep("serial")
        reset_kernel_info()
        batched = self._sweep("kernel-batch")
        assert serial.columns.keys() == batched.columns.keys()
        for key in serial.columns:
            assert serial.columns[key] == batched.columns[key]
        info = kernel_info()
        # one batch either way: a row batch when threads are available,
        # or the decline heuristic running it serial fused (1-CPU box)
        assert info.batch_runs + info.batch_declined == 1
        if info.batch_runs:
            assert info.batch_instances == len(LENGTHS)

    def test_warm_cache_skips_the_batch(self, tmp_path):
        from repro.engine import TieredCache

        cache = TieredCache(str(tmp_path))
        cold = self._sweep("kernel-batch", cache=cache)
        assert cache.cache_info().stores == len(LENGTHS)
        reset_kernel_info()
        warm = self._sweep("kernel-batch", cache=cache)
        assert cache.cache_info().hits == len(LENGTHS)
        assert cache.cache_info().stores == len(LENGTHS)  # no new stores
        assert kernel_info().batch_runs == 0  # nothing entered the batch
        for key in cold.columns:
            assert cold.columns[key] == warm.columns[key]

    def test_build_error_captured_per_instance(self):
        from repro.analysis import LoopSweepTask

        task = LoopSweepTask(duration=DURATION)
        good = REFERENCE_RESONANT_SENSOR
        pairs = task.batch_call([good, object()])
        assert pairs[0][1] is None
        assert pairs[0][0]["amplitude_m"] > 0.0
        assert pairs[1][0] is None
        assert isinstance(pairs[1][1], Exception)


class TestMultimodeBatch:
    def test_batch_matches_solo(self, geometry, make_loop):
        from repro.feedback import run_multimode_batch
        from repro.feedback.multimode import MultiModeLoop

        def make_mm():
            mm = MultiModeLoop.for_geometry(geometry, [20.0, 10.0], make_loop())
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            return mm

        solos = [make_mm().run(0.002, backend="fused") for _ in range(2)]
        records = run_multimode_batch([make_mm(), make_mm()], 0.002)
        for solo, rec in zip(solos, records):
            assert np.array_equal(solo.samples, rec.samples)
            assert solo.sample_rate == rec.sample_rate
