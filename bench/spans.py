"""In-memory span tracing of the qutritcodec layers, installed from outside.

The tracer wraps every public function of the layer modules and patches it
at every module attribute that binds it: `codec` imports `project` from
`states` by name, so both `states.project` and `codec.project` must be
replaced, or calls made inside `codec` go unseen. `PureState.__post_init__`
is wrapped as `states.pure_state` so that state constructions are counted.

A span is (name, start, end, parent, op, raised). Spans of one op are kept
in memory until the op ends, then folded into per-name aggregates; only the
spans of the first few ops are kept whole, for the trace file.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array

LAYERS = ("states", "codec", "bayes", "montecarlo", "report", "cli")
KEPT_OPS = 3


def _layer_functions(package):
    """Map each public layer function to its span name, e.g. 'codec.encode'."""
    names = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                names[obj] = f"{layer}.{attr}"
    return names


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self, package):
        self._package = package
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self._op_spans = []
        self.op = -1
        self.ops = 0
        self.kept = []  # whole spans of the first KEPT_OPS ops
        self.calls = {}
        self.raised = {}
        self.durations = {}  # name -> array of per-call seconds
        self.self_per_op = {}  # name -> array of per-op self seconds

    def wrap(self, name, fn):
        stack = self._stack
        spans = self._op_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised)

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = self._package
        wrappers = {fn: self.wrap(name, fn) for fn, name in _layer_functions(package).items()}
        for owner in (package, *(getattr(package, layer) for layer in LAYERS)):
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        state_class = package.states.PureState
        original = vars(state_class)["__post_init__"]
        self._patches.append((state_class, "__post_init__", original))
        state_class.__post_init__ = self.wrap("states.pure_state", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        patched, self._patches = self._patches, []
        return all(vars(owner)[attr] is original for owner, attr, original in patched)

    def begin_op(self, op):
        """Start op number `op`; the caller wraps its entry call, `cli`, as the root span."""
        self.op = op
        del self._op_spans[:]

    def end_op(self):
        """Fold the op's spans into the aggregates, outside any timed region."""
        spans = self._op_spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        op_self = {}
        for index, (name, start, end, _, _, raised) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.raised[name] = self.raised.get(name, 0) + raised
            self.durations.setdefault(name, array("d")).append(end - start)
            op_self[name] = op_self.get(name, 0.0) + (end - start - child_time[index])
        for name, value in op_self.items():
            column = self.self_per_op.setdefault(name, array("d", [0.0] * self.ops))
            column.append(value)
        self.ops += 1
        for column in self.self_per_op.values():
            if len(column) < self.ops:
                column.append(0.0)
        if len(self.kept) < KEPT_OPS:
            self.kept.append(list(spans))

    def calls_per_op(self, name):
        return self.calls.get(name, 0) / self.ops if self.ops else 0.0

    def median_call_s(self, name):
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def self_s_per_op(self, name):
        values = self.self_per_op.get(name)
        return statistics.median(values) if values else 0.0

    def raised_frac(self, name):
        calls = self.calls.get(name, 0)
        return self.raised.get(name, 0) / calls if calls else 0.0

    def total_self_s(self, name):
        values = self.self_per_op.get(name)
        return sum(values) if values else 0.0
