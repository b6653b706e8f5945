"""Bench-side spans and LAPACK call counting for the traced run.

Spans are opened by the benchmark around each public call it makes into
a layer; nothing inside ``amplitude_lab`` is instrumented.  Every
eigensolver or SVD call is charged, with its wall time, to the innermost
open span.  Spans stay in memory until the run reports.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

NUMPY_ENTRY_POINTS = ("eigh", "eigvalsh", "eig", "eigvals", "svd")
SCIPY_ENTRY_POINTS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals")

# scipy's svdvals is reported together with svd.
_LABELS = {"svdvals": "svd"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "lapack_s")

    def __init__(self, name: str, parent: "Span | None", start: float = 0.0, end: float = 0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts: Counter = Counter()
        self.lapack_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Finished spans, each with the LAPACK calls charged to it.

    Calls made while no span is open (set-up, oracles) are not recorded.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, self._open[-1] if self._open else None)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def charge(self, label: str, seconds: float) -> None:
        if self._open:
            self._open[-1].counts[label] += 1
            self._open[-1].lapack_s += seconds

    def adopt(self, records: list[dict]) -> None:
        """Attach spans recorded by a child process under the open span.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so child timestamps are comparable with ours.
        """
        parent = self._open[-1] if self._open else None
        for r in records:
            s = Span(r["name"], parent, r["start"], r["end"])
            s.counts.update(r["counts"])
            s.lapack_s = r["lapack_s"]
            self.spans.append(s)

    def export(self) -> list[dict]:
        """Spans as JSON-ready records; ``parent`` is an index into the list."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "parent": index.get(id(s.parent)), "start": s.start, "end": s.end,
             "counts": dict(s.counts), "lapack_s": s.lapack_s}
            for s in self.spans
        ]


@contextlib.contextmanager
def null_span(name: str):
    yield None


def _counting(fn, label: str, recorder: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.charge(label, time.perf_counter() - t0)

    wrapper.bench_original = fn
    return wrapper


class LapackPatch:
    """Counting wrappers on the eigensolver and SVD entry points.

    ``apply`` wraps ``numpy.linalg`` and, once it is loaded,
    ``scipy.linalg``; it also rebinds names that ``amplitude_lab`` modules
    imported directly (``from scipy.linalg import eigh``).  Call it before
    importing ``amplitude_lab`` and again after; it is idempotent.
    ``restore`` undoes every replacement.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._replaced: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap_module(self, module, names) -> None:
        for name in names:
            fn = getattr(module, name, None)
            if fn is None or hasattr(fn, "bench_original"):
                continue
            wrapper = _counting(fn, _LABELS.get(name, name), self.recorder)
            self._wrappers[id(fn)] = wrapper
            self._replaced.append((module, name, fn))
            setattr(module, name, wrapper)

    def apply(self) -> None:
        self._wrap_module(np.linalg, NUMPY_ENTRY_POINTS)
        if "scipy.linalg" in sys.modules:
            self._wrap_module(sys.modules["scipy.linalg"], SCIPY_ENTRY_POINTS)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("amplitude_lab") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, name, original in reversed(self._replaced):
            setattr(module, name, original)
        self._replaced.clear()
        self._wrappers.clear()


def require_untraced() -> None:
    """Fail unless numpy's eigensolver is numpy's own function."""
    if np.linalg.eigh is not np.linalg._linalg.eigh:
        raise RuntimeError("numpy.linalg.eigh is wrapped in an untraced run")
