"""Span recorder that wraps cara's public functions from outside the package.

Each wrapped function becomes a layer. A span is kept in memory as
``[layer, start, end, parent]``; counters are summed at the same
boundaries. ``self_times`` gives each layer's span time minus the time of
its child spans. Nothing in ``src/`` is modified: the wrappers replace the
module attributes that callers look up, and ``installed()`` restores them.
A function that does not exist (renamed or removed) is skipped and listed
in ``missing``, so its layer reads as absent.
"""
from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import Counter, defaultdict


@contextlib.contextmanager
def patched():
    """Yield ``patch(owner, attr, make)``, which replaces ``owner.attr`` by
    ``make(orig)``. Every patch is undone on exit, also when the block or a
    later ``patch`` raises."""
    undo = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        undo.append((owner, attr, orig))

    try:
        yield patch
    finally:
        while undo:
            owner, attr, orig = undo.pop()
            setattr(owner, attr, orig)


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[list] = []       # [layer, start, end, parent index]
        self.peaks: list[int] = []        # peak traced bytes per span (memory mode)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()    # "layer (attr)" of functions not found
        self.memory = memory
        self._stack: list[int] = []
        self._patch = None

    # ------------------------------------------------------------ spans

    def _fold_peak(self):
        # tracemalloc has one peak register: fold it into every open span
        # before a nested span resets it.
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for idx in self._stack:
            self.peaks[idx] = max(self.peaks[idx], peak)

    @contextlib.contextmanager
    def span(self, layer: str):
        if self.memory:
            self._fold_peak()
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None, parent])
        self.peaks.append(0)
        self._stack.append(idx)
        try:
            yield
        finally:
            if self.memory:
                self._fold_peak()
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, layer: str, count=None):
        """Replace ``owner.attr`` by a spanned call; ``count(args, kwargs,
        result)`` returns counters to add after each call."""
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with self.span(layer):
                    result = orig(*args, **kwargs)
                if count is not None:
                    self.counts.update(count(args, kwargs, result))
                return result
            return wrapper

        self._install(owner, attr, layer, make)

    def wrap_generator(self, owner, attr: str, layer: str, count=None):
        """Like ``wrap`` for a generator function: each ``next()`` is a span,
        so time spent by the consumer between items is not charged here."""
        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if count is not None:
                    self.counts.update(count(args, kwargs, None))
                it = orig(*args, **kwargs)
                while True:
                    with self.span(layer):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return wrapper

        self._install(owner, attr, layer, make)

    def _install(self, owner, attr, layer, make):
        if owner is None or not callable(getattr(owner, attr, None)):
            self.missing.add(f"{layer} ({attr})")
            return
        self._patch(owner, attr, make)

    @contextlib.contextmanager
    def installed(self, wrap_all):
        """Install the wrappers ``wrap_all(self)`` declares, then undo them."""
        with patched() as self._patch:
            wrap_all(self)
            yield self

    def entered(self) -> set[str]:
        """Layers with at least one span."""
        return {layer for layer, *_ in self.spans}

    # ------------------------------------------------------------ summaries

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, not in child spans."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[idx]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Inclusive seconds per layer, counting only its outermost spans."""
        out = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != layer:
                out[layer] += end - start
        return dict(out)

    def layer_peaks(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (layer, *_), peak in zip(self.spans, self.peaks):
            out[layer] = max(out.get(layer, 0), peak)
        return out
