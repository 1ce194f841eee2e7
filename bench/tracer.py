"""In-memory span tracer that wraps the public functions of ``weakhopf``.

Nothing under ``src/`` is changed.  `Tracer.install` replaces every public
function of each layer module with a wrapper, at every module attribute that
binds it (the package binds names with ``from .x import y``, so one function
can be bound in several modules), and wraps the public methods of each class
once, on the class (except the per-entry helpers in `UNWRAPPED`).
`Tracer.uninstall` puts the originals back.

A span is ``(id, parent, name, start, end, self_s, outer)``; ``outer`` is
false when the span nests inside another span of its family (see
`family_of`), so that a family's time is counted once.  ``self_s`` is the
span's time minus the time covered by its child spans.  Suites hand their
basis tuples to ``report.comparison`` as generators; the time spent producing
the next tuple is work of the suite that built the generator, so it is
charged to the span that called ``comparison`` (spans opened while producing
it become that span's children).  Within a root span the self times add up
to the root's time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "serialization",
    "algebra",
    "structures",
    "modules",
    "transmute",
    "quantize",
    "twisting",
    "linalg",
    "report",
    "zoo",
)

# wrapped names that differ from "<layer>.<function>" or "<layer>.<Class>.<method>"
RENAMED = {
    "linalg.Matrix.__mul__": "linalg.matmul",
    "linalg.Matrix.apply": "linalg.apply",
    "linalg.Matrix.rref": "linalg.rref",
}


# Helpers called once per matrix entry or per basis tuple (up to millions of
# times a pass) are not wrapped: their spans would cost more time and memory
# than the work they measure.  Their time stays in the self time of the
# caller, which is the suite that loops over the tuples.
UNWRAPPED = frozenset({
    "linalg.frac",
    "linalg.format_frac",
    "algebra.WeakBialgebra.basis_vector",
    "algebra.WeakBialgebra.counit_of",
    "algebra.WeakBialgebra.mul_elem",
})


def family_of(name):
    """Spans of one family are timed once when they nest in each other."""
    layer, _, rest = name.partition(".")
    if layer == "zoo":
        return "zoo.generate"
    if layer == "serialization" and rest.startswith("serialize"):
        return "serialization.serialize"
    if layer == "modules" and "braiding" in rest:
        return "modules.braiding"
    return name


class _Frame:
    __slots__ = ("sid", "parent", "name", "start", "child", "adjust", "outer")

    def __init__(self, sid, parent, name, start, outer):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0
        self.adjust = 0.0
        self.outer = outer


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.reset_counters()
        self._active = defaultdict(int)
        self._next_id = 0
        self._restore = []

    def reset_counters(self):
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- spans -----------------------------------------------------------

    def _open(self, name, family):
        stack = self.stack
        parent = stack[-1].sid if stack else None
        outer = self._active[family] == 0
        self._active[family] += 1
        frame = _Frame(self._next_id, parent, name, 0.0, outer)
        self._next_id += 1
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _close(self, frame, family):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        self._active[family] -= 1
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        self.spans.append(
            (frame.sid, frame.parent, frame.name, frame.start, end,
             dur - frame.child + frame.adjust, frame.outer)
        )

    def wrap(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span called `name`.

        ``before(tracer, args)`` returns the arguments to call with; it runs
        in a span of its own, ``trace.count``, so that counting work is not
        charged to the span it counts.  ``after(tracer, args, result)`` runs
        once the span is closed.
        """
        family = family_of(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                count = tracer._open("trace.count", "trace.count")
                try:
                    args = before(tracer, args)
                finally:
                    tracer._close(count, "trace.count")
            frame = tracer._open(name, family)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, family)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the layer modules of `package` (the imported ``weakhopf``)."""
        modules = {
            layer: importlib.import_module("%s.%s" % (package.__name__, layer))
            for layer in LAYERS
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = RENAMED.get("%s.%s" % (layer, attr), "%s.%s" % (layer, attr))
                    if name in UNWRAPPED:
                        continue
                    wrapped[id(obj)] = (obj, self._wrap_named(name, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        everywhere = [package] + list(modules.values())
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__mul__":
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            name = RENAMED.get(name, name)
            if name in UNWRAPPED:
                continue
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap_named(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap_named(name, raw.__func__)))

    def _wrap_named(self, name, fn):
        hooks = HOOKS.get(name, (None, None))
        return self.wrap(name, fn, *hooks)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


class _Pairs:
    """Counts the tuples a comparison consumes and charges the time spent
    producing them to the span that called ``comparison``."""

    __slots__ = ("tracer", "it")

    def __init__(self, tracer, pairs):
        self.tracer = tracer
        self.it = iter(pairs)

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer.stack
        frame, owner = stack[-1], stack[-2]
        stack.append(owner)
        start = perf_counter()
        try:
            item = next(self.it)
        finally:
            spent = perf_counter() - start
            stack.pop()
            frame.adjust -= spent
            owner.adjust += spent
        self.tracer.counters["report.tuples_compared"] += 1
        return item


def _before_comparison(tracer, args):
    # The stack holds this hook's own trace.count span; below it must be the
    # span that calls comparison, which the tuples' production is charged to.
    if len(tracer.stack) < 2:
        return args
    report, name, pairs = args[:3]
    return (report, name, _Pairs(tracer, pairs)) + tuple(args[3:])


def _before_add(tracer, args):
    tracer.counters["report.checks_total"] += 1
    if len(args) > 2 and not args[2]:
        tracer.counters["report.checks_failed"] += 1
    return args


def _before_parse(tracer, args):
    tracer.counters["serialization.parse.bytes"] += len(args[0].encode("utf-8"))
    return args


def _before_matmul(tracer, args):
    a, b = args[0], args[1]
    if a.cols == b.rows:
        col_nnz = [0] * a.cols
        for row in a.data:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        nonzero = 0
        for k, row in enumerate(b.data):
            if col_nnz[k]:
                nonzero += col_nnz[k] * sum(1 for x in row if x)
        c = tracer.counters
        c["linalg.matmul.dense_madds"] += a.rows * a.cols * b.cols
        c["linalg.matmul.nonzero_madds"] += nonzero
    return args


def _before_rref(tracer, args):
    m = args[0]
    tracer.counters["linalg.rref.entries"] += m.rows * m.cols
    return args


def _after_truncated_tensor(tracer, args, result):
    tracer.counters["modules.tensor.ambient_dim_sum"] += result.ambient_dim
    tracer.counters["modules.tensor.image_dim_sum"] += result.dim


def _after_transmute(tracer, args, result):
    key = "transmute.carrier_dim_max"
    tracer.counters[key] = max(tracer.counters[key], result.carrier_dim)


COUNTERS = (
    "report.tuples_compared",
    "report.checks_total",
    "report.checks_failed",
    "serialization.parse.bytes",
    "linalg.matmul.dense_madds",
    "linalg.matmul.nonzero_madds",
    "linalg.rref.entries",
    "modules.tensor.ambient_dim_sum",
    "modules.tensor.image_dim_sum",
    "transmute.carrier_dim_max",
)

HOOKS = {
    "report.comparison": (_before_comparison, None),
    "report.VerificationReport.add": (_before_add, None),
    "serialization.parse": (_before_parse, None),
    "linalg.matmul": (_before_matmul, None),
    "linalg.rref": (_before_rref, None),
    "modules.truncated_tensor": (None, _after_truncated_tensor),
    "transmute.transmute": (None, _after_transmute),
}
