"""Golden suite for the columnar SoA batch engine.

Every waveform of every instance of a columnar batch must be
bit-identical (``np.array_equal``) to the instance's solo fused run
(``docs/FASTPATH.md``).  This suite pins that across reference-spec
variants, liquids, modes, noise on/off, multimode stacks,
heterogeneous durations, per-instance lowering fallbacks, an explicit
columnar request without a compiler (the solo runs carry it), and a
property-based sweep over batch widths and engine choices — plus the
``auto`` engine-resolution order, the declined narrow batch, and the
profile/fusion counters surfaced through ``kernel_info()`` and
``repro health``.  ``make vector-check`` runs it with and without a
compiler; facts only the compiled engine can produce are gated on
:func:`cc_available`.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from contextlib import contextmanager

import numpy as np
import pytest

import repro.engine.kernel_columnar as columnar
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.core import ResonantCantileverSensor
from repro.engine import (
    BATCH_AUTO_ORDER,
    BATCH_ENGINES,
    COLUMNAR_ENV,
    KernelBatch,
    cc_available,
    kernel_info,
    reset_breakers,
    reset_compiler_probe,
    reset_kernel_info,
)
from repro.engine.kernel import OP_NAMES, _cc_cache_dir
from repro.errors import KernelError
from repro.feedback import run_batch
from repro.service.health import resilience_snapshot

DURATION = 0.004
LENGTHS = (170.0, 185.0, 200.0, 215.0, 230.0)
WAVEFORMS = (
    "displacement",
    "bridge_voltage",
    "limiter_input",
    "limiter_output",
    "drive_voltage",
)

#: Same grid as the fused-kernel equivalence suite: geometry is swept
#: separately (LENGTHS); these change the medium, mode, and sampling.
SPEC_VARIANTS = {
    "reference": {},
    "serum": {"liquid": "serum"},
    "glycerol": {"liquid": "glycerol_40pct"},
    "mode2": {"loop.mode": 2},
    "fast-sampling": {"loop.steps_per_cycle": 80},
}

#: Mode 2 runs ~6x higher in frequency: short beams push the Reynolds
#: number past the hydrodynamic fit's validity range, so that variant
#: sweeps longer geometries.
VARIANT_LENGTHS = {"mode2": (280.0, 290.0, 300.0, 310.0, 320.0)}

needs_cc = pytest.mark.skipif(not cc_available(), reason="needs a C compiler")


def build_loop(length_um: float = 200.0, variant: str = "reference"):
    spec = REFERENCE_RESONANT_SENSOR.with_overrides(
        {"cantilever.length_um": length_um, **SPEC_VARIANTS[variant]}
    )
    return ResonantCantileverSensor.from_spec(spec).build_loop()


def lowered(loop, duration=DURATION):
    prep = loop._prepare_run(duration, None)
    return loop._lower_kernel(prep.signed_coefficient), prep


def assert_records_equal(ref, rec, label):
    """Every waveform of ``rec`` is bit-identical to reference ``ref``."""
    __tracebackhide__ = True
    for name in WAVEFORMS:
        a = np.asarray(getattr(ref, name))
        b = np.asarray(getattr(rec, name))
        assert np.array_equal(a, b), f"{label}.{name} not bit-identical"


@pytest.fixture
def columnar_forced(monkeypatch):
    """Route every batch through the columnar engine (REPRO_COLUMNAR=1).

    With a compiler that is the C SoA engine; without one the batch
    runs its instances' solo fused runs instead.
    """
    monkeypatch.setenv(COLUMNAR_ENV, "1")


@contextmanager
def broken_compiler(tmp_path):
    """CC=/bin/false with every disk-cached ``.so`` stashed away.

    Unlike the resilience suite's kernel-only variant this also stashes
    the ``columnar-*.so`` artifacts (their cache key does not include
    the CC path), so the columnar engine genuinely cannot load.
    """
    cache = pathlib.Path(_cc_cache_dir())
    stashed = []
    if cache.is_dir():
        for so in cache.glob("*.so"):
            target = tmp_path / so.name
            shutil.move(str(so), str(target))
            stashed.append((so, target))
    saved = os.environ.get("CC")
    os.environ["CC"] = "/bin/false"
    reset_compiler_probe()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("CC", None)
        else:
            os.environ["CC"] = saved
        for so, target in stashed:
            shutil.move(str(target), str(so))
        reset_compiler_probe()
        reset_breakers()


class TestColumnarGolden:
    """Columnar vs solo fused, bit for bit, instance for instance."""

    @pytest.mark.parametrize("variant", sorted(SPEC_VARIANTS))
    def test_spec_variants(self, variant, columnar_forced):
        lengths = VARIANT_LENGTHS.get(variant, LENGTHS)
        solos = [
            build_loop(length, variant).run(DURATION, backend="fused")
            for length in lengths
        ]
        reset_kernel_info()
        records = run_batch(
            [build_loop(length, variant) for length in lengths], DURATION
        )
        assert len(records) == len(lengths)
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"{variant}[{length}]")
            assert np.array_equal(solo.times, rec.times)
            assert solo.sample_rate == rec.sample_rate
        info = kernel_info()
        assert info.fallbacks == 0
        assert info.batch_instances == len(lengths)
        if cc_available():
            assert info.batch_columnar_runs == 1

    def test_noise_disabled(self, make_loop, columnar_forced):
        solos = [
            make_loop(include_noise=False).run(DURATION, backend="fused")
            for _ in range(3)
        ]
        records = run_batch(
            [make_loop(include_noise=False) for _ in range(3)], DURATION
        )
        for i, (solo, rec) in enumerate(zip(solos, records)):
            assert_records_equal(solo, rec, f"quiet[{i}]")

    def test_heterogeneous_durations(self, columnar_forced):
        durations = (0.003, 0.005, 0.002, 0.004)
        lengths = LENGTHS[: len(durations)]
        solos = [
            build_loop(length).run(d, backend="fused")
            for length, d in zip(lengths, durations)
        ]
        records = run_batch(
            [build_loop(length) for length in lengths], durations
        )
        assert len({len(r.displacement) for r in records}) == len(durations)
        for solo, rec in zip(solos, records):
            assert len(solo.displacement) == len(rec.displacement)
            assert_records_equal(solo, rec, "hetero")

    def test_multimode_batch(self, geometry, make_loop, columnar_forced):
        from repro.feedback import run_multimode_batch
        from repro.feedback.multimode import MultiModeLoop

        def make_mm():
            mm = MultiModeLoop.for_geometry(geometry, [20.0, 10.0], make_loop())
            mm.loop.auto_gain(1.0 / mm.resonators[0].timestep)
            return mm

        solos = [make_mm().run(0.002, backend="fused") for _ in range(2)]
        records = run_multimode_batch([make_mm(), make_mm()], 0.002)
        for i, (solo, rec) in enumerate(zip(solos, records)):
            assert np.array_equal(solo.samples, rec.samples), f"multimode[{i}]"
            assert solo.sample_rate == rec.sample_rate

    def test_per_instance_fallback(self, columnar_forced):
        solo_ref = build_loop(LENGTHS[1]).run(DURATION, backend="reference")
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in (LENGTHS[0], LENGTHS[2])
        ]
        loops = [build_loop(length) for length in LENGTHS[:3]]
        original = loops[1].vga.step
        loops[1].vga.step = lambda x: original(x)  # instance patch: refuses

        reset_kernel_info()
        records = run_batch(loops, DURATION)
        info = kernel_info()
        assert info.fallbacks == 1
        assert "patched" in info.last_fallback_reason
        assert info.batch_instances == 2
        assert_records_equal(solos[0], records[0], "columnar[0]")
        assert_records_equal(solo_ref, records[1], "fallback[1]")
        assert_records_equal(solos[1], records[2], "columnar[2]")

    @needs_cc
    def test_compiled_engine_tag_recorded(self, columnar_forced):
        loops = [build_loop(length) for length in LENGTHS]
        run_batch(loops, DURATION)
        for loop in loops:
            assert loop.last_kernel_info is not None
            assert loop.last_kernel_info.engine.startswith("cc-columnar")


class TestEngineSelection:
    """``auto`` resolution order, env gates, and the declined pin."""

    def test_batch_engines_pinned(self):
        assert BATCH_ENGINES == ("auto", "columnar")
        assert BATCH_AUTO_ORDER == ("columnar:cc", "fused:solo")

    def test_unknown_engine_raises(self):
        kern, prep = lowered(build_loop())
        batch = KernelBatch([kern], [prep.n], [prep.bridge_noise])
        with pytest.raises(KernelError, match="unknown batch engine"):
            batch.run(engine="sideways")

    @needs_cc
    def test_wide_auto_batch_selects_columnar(self, monkeypatch):
        monkeypatch.delenv(COLUMNAR_ENV, raising=False)
        loops = [build_loop(length) for length in np.linspace(170, 230, 8)]
        reset_kernel_info()
        run_batch(loops, 0.002)
        info = kernel_info()
        assert info.batch_columnar_runs == 1
        assert info.batch_row_runs == 0
        for loop in loops:
            assert loop.last_kernel_info.engine.startswith("cc-columnar")

    @needs_cc
    def test_env_off_disables_columnar(self, monkeypatch):
        monkeypatch.setenv(COLUMNAR_ENV, "0")
        loops = [build_loop(length) for length in np.linspace(170, 230, 8)]
        reset_kernel_info()
        run_batch(loops, 0.002)
        assert kernel_info().batch_columnar_runs == 0

    @needs_cc
    def test_batch_declined_runs_serial_fused(self, monkeypatch):
        """Narrow batch at 1 thread: serial fused, bit-exact, counted in
        ``batch_declined``."""
        monkeypatch.delenv(COLUMNAR_ENV, raising=False)
        lengths = LENGTHS[:3]
        solos = [
            build_loop(length).run(DURATION, backend="fused")
            for length in lengths
        ]
        reset_kernel_info()
        records = run_batch(
            [build_loop(length) for length in lengths], DURATION, threads=1
        )
        info = kernel_info()
        assert info.batch_declined == 1
        assert info.batch_runs == 1
        assert info.runs.get("fused", 0) == len(lengths)
        for length, solo, rec in zip(lengths, solos, records):
            assert_records_equal(solo, rec, f"declined[{length}]")
        assert resilience_snapshot()["batch_declined"] == 1


def assert_declined_unavailable():
    __tracebackhide__ = True
    info = kernel_info()
    assert info.batch_columnar_runs == 0
    assert info.batch_declined == 1
    assert info.last_decline_reason == "columnar C engine unavailable"


class TestNumpyTwin:
    """No compiler: an explicit columnar request runs the solo path.

    (The class keeps its name from the NumPy columnar engine that used
    to serve this request; the solo fused runs serve it now.)
    """

    def test_twin_matches_fused_without_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv(COLUMNAR_ENV, "1")
        lengths = LENGTHS[:3]
        with broken_compiler(tmp_path):
            solos = [
                build_loop(length).run(0.002, backend="fused")
                for length in lengths
            ]
            loops = [build_loop(length) for length in lengths]
            reset_kernel_info()
            records = run_batch(loops, 0.002)
            assert_declined_unavailable()
            for length, solo, rec in zip(lengths, solos, records):
                assert_records_equal(solo, rec, f"no-cc[{length}]")
            for loop in loops:
                assert not loop.last_kernel_info.engine.startswith(
                    "cc-columnar")

    def test_explicit_engine_twin_at_kernel_level(self, tmp_path):
        kern_solo, prep_solo = lowered(build_loop(), 0.002)
        solo = kern_solo.run(prep_solo.n, prep_solo.bridge_noise,
                             backend="fused")
        with broken_compiler(tmp_path):
            kern, prep = lowered(build_loop(), 0.002)
            batch = KernelBatch([kern], [prep.n], [prep.bridge_noise])
            reset_kernel_info()
            (rec,) = batch.run(engine="columnar")
            assert_declined_unavailable()
            assert_records_equal(solo, rec, "no-cc-kernel")
            assert not rec.info.engine.startswith("cc-columnar")


class TestFusionProfile:
    """Profile counters and the profile-guided fusion decisions."""

    def test_op_samples_histogram(self):
        reset_kernel_info()
        build_loop().run(DURATION, backend="fused")
        hist = kernel_info().op_samples
        assert hist, "solo fused runs must feed the op profile"
        assert set(hist) <= set(OP_NAMES)
        assert all(v > 0 for v in hist.values())
        assert hist.get("SOS", 0) > 0  # every loop has biquad sections

    def test_hot_plan_fuses_sos_pairs(self, columnar_forced, monkeypatch):
        monkeypatch.setattr(columnar, "FUSION_DEFAULT_THRESHOLD", 0)
        columnar._SEGMENT_CACHE.clear()
        solos = [
            build_loop(length).run(0.002, backend="fused")
            for length in LENGTHS
        ]
        reset_kernel_info()
        records = run_batch([build_loop(length) for length in LENGTHS], 0.002)
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"hot[{length}]")
        if cc_available():
            decisions = kernel_info().fusion_decisions
            plan = [d for d in decisions if d.get("engine") == "columnar"
                    and "fused_segments" in d]
            assert plan, "hot batch must record a fusion decision"
            assert plan[-1]["hot"] is True
            assert any(seg[0] == "sos2" for seg in plan[-1]["fused_segments"])

    def test_cold_plan_stays_generic(self, columnar_forced, monkeypatch):
        monkeypatch.setattr(columnar, "FUSION_DEFAULT_THRESHOLD", 10**15)
        columnar._SEGMENT_CACHE.clear()
        solos = [
            build_loop(length).run(0.002, backend="fused")
            for length in LENGTHS
        ]
        reset_kernel_info()
        loops = [build_loop(length) for length in LENGTHS]
        records = run_batch(loops, 0.002)
        for length, solo, rec in zip(LENGTHS, solos, records):
            assert_records_equal(solo, rec, f"cold[{length}]")
        if cc_available():
            decisions = kernel_info().fusion_decisions
            plan = [d for d in decisions if d.get("engine") == "columnar"
                    and "fused_segments" in d]
            assert plan and plan[-1]["hot"] is False
            assert plan[-1]["fused_segments"] == []
            for loop in loops:
                assert loop.last_kernel_info.engine == "cc-columnar"

    @needs_cc
    def test_specialize_decision_recorded(self, columnar_forced, monkeypatch):
        monkeypatch.setattr(columnar, "FUSION_DEFAULT_THRESHOLD", 0)
        columnar._SEGMENT_CACHE.clear()
        columnar._SPECIALIZED.clear()
        reset_kernel_info()
        loops = [build_loop(length) for length in LENGTHS]
        run_batch(loops, 0.002)
        spec = [d for d in kernel_info().fusion_decisions
                if d.get("stage") == "specialize"]
        assert spec, "first hot run must record the specialize attempt"
        if spec[-1]["built"]:
            for loop in loops:
                assert loop.last_kernel_info.engine == "cc-columnar-fused"

    def test_health_snapshot_surfaces_columnar_counters(self, columnar_forced):
        reset_kernel_info()
        run_batch([build_loop(length) for length in LENGTHS], 0.002)
        snap = resilience_snapshot()
        for key in ("batch_declined", "batch_columnar_runs",
                    "batch_row_runs", "op_samples", "fusion_decisions"):
            assert key in snap
        if cc_available():
            assert snap["batch_columnar_runs"] == 1
        json.dumps(snap)  # the whole snapshot must stay JSON-clean


pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestPropertyAgreement:
    """Any geometry mix, batch width, duration and engine choice: every
    instance is bit-identical to its solo fused run.

    The widths straddle ``COLUMNAR_MIN_INSTANCES`` (8), so ``auto``
    runs both the solo path and the columnar engine; explicit
    ``columnar`` forces the engine at any width; ``REPRO_COLUMNAR=0``
    forces the solo path at any width.
    """

    ENGINES = ("auto", "columnar", "env-off")

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(width=st.sampled_from((1, 7, 8, 16)),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           max_duration=st.floats(min_value=0.001, max_value=0.01))
    @example(width=1, seed=1, max_duration=0.01)
    @example(width=7, seed=7, max_duration=0.01)
    @example(width=8, seed=8, max_duration=0.01)
    @example(width=16, seed=16, max_duration=0.01)
    def test_columnar_agrees_with_fused(self, width, seed, max_duration):
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(165.0, 235.0, width)
        durations = rng.uniform(0.0005, max_duration, width)

        def lowered_batch():
            pairs = [lowered(build_loop(length), duration)
                     for length, duration in zip(lengths, durations)]
            return ([k for k, _ in pairs], [p.n for _, p in pairs],
                    [p.bridge_noise for _, p in pairs])

        kernels, ns, noises = lowered_batch()
        solos = [k.run(n, noise, backend="fused")
                 for k, n, noise in zip(kernels, ns, noises)]
        for engine in self.ENGINES:
            with pytest.MonkeyPatch.context() as mp:
                if engine == "env-off":
                    mp.setenv(COLUMNAR_ENV, "0")
                else:
                    mp.delenv(COLUMNAR_ENV, raising=False)
                records = KernelBatch(*lowered_batch()).run(
                    engine="auto" if engine == "env-off" else engine
                )
            for length, solo, rec in zip(lengths, solos, records):
                assert_records_equal(
                    solo, rec, f"{engine}/{width}[{length:.1f}]"
                )
