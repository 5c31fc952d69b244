"""In-memory spans recorded around calls into the tovp modules.

A span has a name, start, end, parent span and operation id.  Spans stay
in memory and are written once, when the run ends.  The untraced runs use
``NullTracer``, whose spans do nothing, so both runs execute the same code.
"""

import contextlib
import json
import time


class NullTracer:
    op = None

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self.op}
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self):
        """{op: {name: seconds}}: each span's duration minus the part of it
        its child spans cover, summed per name within an operation."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, covered in zip(self.spans, child):
            per_op = out.setdefault(s["op"], {})
            per_op[s["name"]] = per_op.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        return out

    def per_op(self, prefix, ops):
        """Self time per operation of the spans whose names start with
        ``prefix``, one value per op in ``ops``."""
        times = self.self_times()
        return [sum(v for name, v in times.get(op, {}).items() if name.startswith(prefix))
                for op in ops]

    def outside_ops(self, prefix):
        """Durations of the spans recorded outside any operation."""
        return [s["end"] - s["start"] for s in self.spans
                if s["op"] is None and s["name"].startswith(prefix)]

    def covered(self, op):
        """Seconds of an operation that some top-level span covers."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["op"] == op and s["parent"] is None)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
