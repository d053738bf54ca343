"""In-memory span tracer that instruments psdalloc from outside the package.

The tracer rebinds names that psdalloc's modules import from each other (for
example ``psdalloc.online.gs_prime``) and attributes the modules look up at
call time (``numpy.linalg.eigh``) to thin wrappers that record one span per
call.  No file of the package changes; ``restore`` puts every original back.

A span is ``[name, start, end, parent, error, info]``: ``parent`` is the index
of the enclosing span (-1 at the root), ``error`` the exception the call
raised (None otherwise), and ``info`` whatever the optional ``on_result``
hook extracted from the return value.  Spans stay in memory until ``dump``.
"""

import functools
import gzip
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ERROR, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` by a wrapper recording a span named ``name``."""
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = exc
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                span[INFO] = on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start_us": round((s[START] - t0) * 1e6, 3),
                    "end_us": round((s[END] - t0) * 1e6, 3),
                    "error": type(s[ERROR]).__name__ if s[ERROR] is not None else None,
                    "info": s[INFO]}) + "\n")
