"""Spans and counters recorded around calls into the program's layers.

The benchmark never instruments ``src/``: it wraps public functions of
the program's modules from its own files (:meth:`Tracer.wrap`) and
records one span per outermost call of a layer on each thread.  A
layer's self time is the part of the traced window where it is the
innermost active layer (:func:`attribute`), so the self times of all
layers plus ``unattributed`` add up to the window exactly — also when
two client threads and a server process overlap.

Times are ``time.monotonic()`` readings.  On Linux that clock is
system-wide, so spans recorded in the server process line up with the
session's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Layers from outermost to innermost.  When several layers are active
#: at one instant (nested calls, or concurrent threads and processes),
#: the instant belongs to the innermost one.
LAYER_ORDER = (
    "engine.fabric",
    "service.client.submit",
    "service.client.status",
    "service.client.results",
    "analysis.sweep",
    "service.store",
    "engine.cache.get",
    "engine.cache.put",
    "config.build",
    "feedback.run_batch",
)


class Tracer:
    """In-memory spans plus timestamped counter events."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.events: list[tuple[float, str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: float = 1, at: float | None = None) -> None:
        stamp = time.monotonic() if at is None else at
        with self._lock:
            self.events.append((stamp, name, n))

    @contextmanager
    def muted(self):
        """Calls made by this thread inside the block are not traced."""
        self._local.muted = True
        try:
            yield
        finally:
            self._local.muted = False

    def wrap(self, owner, name: str, layer: str, *, counter: str | None = None,
             snapshot=None, observe=None) -> None:
        """Replace ``owner.name`` by a wrapper that records a span.

        Only the outermost call of ``layer`` on a thread is recorded, so
        a method calling another public method of its own class counts
        once.  ``counter`` names the call-count event (default:
        ``"<layer>.calls"``).  For derived counts, ``snapshot()`` runs
        just before a recorded call and ``observe(result, args, state,
        start)`` after it succeeds, ``state`` being what ``snapshot``
        returned.
        """
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        counter = counter or f"{layer}.calls"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer._local
            active = getattr(local, "active", None)
            if active is None:
                active = local.active = set()
            if getattr(local, "muted", False) or layer in active:
                return original(*args, **kwargs)
            active.add(layer)
            state = snapshot() if snapshot is not None else None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                active.discard(layer)
                with tracer._lock:
                    tracer.spans.append((layer, start, end))
                    tracer.events.append((start, counter, 1))
            if observe is not None:
                observe(result, args, state, start)
            return result

        setattr(owner, name, traced)
        self._restore.append((owner, name, original))

    def unwrap(self) -> None:
        """Put every wrapped function back (newest first)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- exchange with a traced server process -------------------------------

    def dump(self, path: str | Path) -> None:
        with self._lock:
            payload = {"spans": self.spans, "events": self.events}
        Path(path).write_text(json.dumps(payload))

    def merge(self, path: str | Path) -> None:
        payload = json.loads(Path(path).read_text())
        with self._lock:
            self.spans.extend(tuple(s) for s in payload["spans"])
            self.events.extend(tuple(e) for e in payload["events"])

    # -- reading -------------------------------------------------------------

    def totals(self, start: float, end: float) -> dict[str, float]:
        """Counter events summed over ``[start, end)``."""
        out: dict[str, float] = {}
        with self._lock:
            for stamp, name, n in self.events:
                if start <= stamp < end:
                    out[name] = out.get(name, 0) + n
        return out


def attribute(spans, start: float, end: float,
              order=LAYER_ORDER) -> tuple[dict[str, float], float]:
    """Self time of each layer in ``[start, end]`` plus the unattributed rest.

    Each instant of the window goes to the innermost layer (by
    ``order``) with an open span, or to the unattributed remainder when
    none is open.  For one thread of properly nested calls whose inner
    layers come later in ``order``, a layer's share is its span minus
    the part its child spans cover.  The shares and the remainder sum to
    ``end - start``.
    """
    rank = {layer: i for i, layer in enumerate(order)}
    events = []
    for layer, s, e in spans:
        s, e = max(s, start), min(e, end)
        if e > s:
            events.append((s, 1, rank[layer]))
            events.append((e, -1, rank[layer]))
    events.sort()
    open_spans = [0] * len(order)
    shares = dict.fromkeys(order, 0.0)
    unattributed = 0.0
    cursor = start
    for stamp, delta, index in events:
        if stamp > cursor:
            top = max((i for i, n in enumerate(open_spans) if n), default=None)
            if top is None:
                unattributed += stamp - cursor
            else:
                shares[order[top]] += stamp - cursor
            cursor = stamp
        open_spans[index] += delta
    unattributed += end - cursor
    return shares, unattributed
