"""A cache filled by a kernel-batch sweep serves every other path exactly.

Neither the point cache key nor ``JobSpec.work_hash`` names the engine
that computed a point, so a result cached by the columnar batch engine
is what a later serial sweep or fabric run reads back.  These tests pin
that such a read is bit-identical (``np.array_equal``) to an uncached
serial run of the same grid.

The grid and loop length are chosen so that an inexact batch engine
shows: on shorter loops or on evenly spaced grids a few-ULP drift in
the limiter never reaches the reported columns.  ``make fault-check``
also runs this module with a broken compiler, where the batch runs the
solo path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.kernel_columnar as columnar
from repro.analysis import LoopSweepTask, run_spec_sweep
from repro.config import REFERENCE_RESONANT_SENSOR
from repro.engine import COLUMNAR_ENV, TieredCache, cc_available, kernel_info
from repro.engine.fabric import run_fabric_sweep

PATH = "cantilever.length_um"
DURATION = 0.01
VALUES = [float(v) for v in np.random.default_rng(3).uniform(160, 270, 16)]


def sweep(backend, cache=None):
    return run_spec_sweep(
        REFERENCE_RESONANT_SENSOR, PATH, VALUES,
        LoopSweepTask(duration=DURATION), backend=backend,
        workers=1 if backend == "serial" else None, cache=cache,
    )


def assert_columns_equal(reference, result):
    __tracebackhide__ = True
    assert list(reference.columns) == list(result.columns)
    for name in reference.columns:
        assert np.array_equal(
            np.asarray(reference.columns[name]),
            np.asarray(result.columns[name]),
        ), f"column {name} deviates from the uncached serial run"


@pytest.fixture
def batch_fills_cache(tmp_path, monkeypatch):
    """Warm ``tmp_path/cache`` with a kernel-batch sweep of a hot shape.

    Returns the uncached serial oracle.  With a working compiler the
    batch must have run the specialized columnar kernel.
    """
    monkeypatch.delenv(COLUMNAR_ENV, raising=False)
    monkeypatch.setattr(columnar, "FUSION_DEFAULT_THRESHOLD", 0)
    engines = []
    run_cc = columnar.run_columnar_cc

    def spy(*args, **kwargs):
        results = run_cc(*args, **kwargs)
        engines.extend(r.info.engine for r in results)
        return results

    monkeypatch.setattr(columnar, "run_columnar_cc", spy)
    oracle = sweep("serial")
    sweep("kernel-batch", cache=TieredCache(tmp_path / "cache"))
    if cc_available() and kernel_info().cc_build_error is None:
        assert engines == ["cc-columnar-fused"] * len(VALUES)
    return oracle


def test_serial_sweep_reads_batch_filled_cache_exactly(tmp_path,
                                                       batch_fills_cache):
    cache = TieredCache(tmp_path / "cache")
    result = sweep("serial", cache=cache)
    assert cache.cache_info().hits == len(VALUES)
    assert_columns_equal(batch_fills_cache, result)


def test_fabric_reads_batch_filled_cache_exactly(tmp_path, batch_fills_cache):
    cache = TieredCache(tmp_path / "cache")
    result = run_fabric_sweep(
        REFERENCE_RESONANT_SENSOR, PATH, VALUES,
        db=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache",
        duration=DURATION, workers=0, chunk_size=4, cache=cache,
    )
    assert cache.cache_info().tier("disk").hits == len(VALUES)
    assert_columns_equal(batch_fills_cache, result)
