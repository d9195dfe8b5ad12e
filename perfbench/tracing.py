"""In-memory spans recorded around calls into the package.

The benchmark wraps module attributes of the package from outside (the
package itself is not instrumented): each call through a wrapped attribute
records a span with its name, start, end, parent span, and the id of the
operation (frame or training step) it belongs to.  Spans are kept in
memory and written out once, when the run ends.
"""

import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    op: int              # frame or step id, -1 outside any operation
    start: float = 0.0
    end: float = 0.0
    info: object = None  # what the wrapper's info hook returned
    error: str = None    # exception type name when the call raised

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans; use as a context manager so wrappers are removed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.n_ops = 0
        self._stack = []
        self._op = -1
        self._patched = []

    def call(self, name, fn, args=(), kwargs=None, *, new_op=False,
             info=None):
        """fn(*args, **kwargs) inside a span.

        new_op starts a new operation id for this span and everything it
        calls.  info(args, kwargs, result) is stored on the span.
        """
        kwargs = kwargs or {}
        if new_op:
            self._op = self.n_ops
            self.n_ops += 1
        span = Span(name, self._stack[-1] if self._stack else -1, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            if new_op:
                self._op = -1
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def wrap(self, module, attr, name, *, new_op=False, info=None):
        """Route module.attr through call() until restore()."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.call(name, orig, args, kwargs, new_op=new_op,
                             info=info)

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_seconds(self):
        """Per span: its duration minus the durations of its child spans."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def totals(self):
        """name -> self seconds summed over all spans of that name."""
        out = {}
        for s, own in zip(self.spans, self.self_seconds()):
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_seconds())):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start - t0, "end": s.end - t0, "self": own,
                    "error": s.error}) + "\n")
