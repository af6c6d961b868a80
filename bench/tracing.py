"""In-memory spans around calls into ifmm, recorded from the benchmark only.

A span is (name, start, end, parent, ok). `Tracer.wrap` rebinds a public
name the library looks up at call time (a module global or a class
attribute) to a wrapper that opens a span around the original, and
`unwrap_all` puts the originals back. A name that no longer exists is
listed in `absent` and its metrics read zero. Nothing under `src/` is
changed. Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), None, parent, False]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
            rec[4] = True
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def wrap(self, owner, attr: str, name):
        """Trace calls to `owner.attr`; `name` may be a function of the args."""
        fn = getattr(owner, attr, None)
        if fn is None:
            missing = f"{getattr(owner, '__name__', owner)}.{attr}"
            if missing not in self.absent:
                self.absent.append(missing)
            return
        setattr(owner, attr, self.spanned(fn, name))
        self._patches.append((owner, attr, fn))

    def spanned(self, fn, name):
        """`fn` inside a span when tracing is on, else `fn` itself."""
        if not self.enabled:
            return fn
        label = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(label(*args, **kwargs)):
                return fn(*args, **kwargs)

        return traced

    def unwrap_all(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[list]:
        """Return the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class SpanStats:
    """Totals, call counts and self times by span name."""

    def __init__(self, spans: list[list]):
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.ok_durations: dict[str, list[float]] = {}
        for i, (name, t0, t1, _, ok) in enumerate(spans):
            d = t1 - t0
            self.total[name] = self.total.get(name, 0.0) + d
            self.self_time[name] = self.self_time.get(name, 0.0) + d - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if ok:
                self.ok_durations.setdefault(name, []).append(d)

    def median_ok(self, name: str) -> float:
        ds = self.ok_durations.get(name)
        return statistics.median(ds) if ds else 0.0

    def total_prefixed(self, prefix: str, suffix: str = "") -> float:
        return sum(v for k, v in self.total.items()
                   if k.startswith(prefix) and k.endswith(suffix))
