"""Span recording at dhpoly's module boundaries, from outside the package.

``Tracer.install`` replaces each public function of the package with a
timing wrapper in every module namespace that holds it (``from .grid import
interpolates`` makes ``dhpoly.interpolate.interpolates`` a separate name from
``dhpoly.grid.interpolates``), and ``BiPoly.evaluate`` on its class.
``Tracer.restore`` puts every original back.

Each call becomes a span with a parent link.  Spans stay in memory; a span
that opened no child span is folded into its parent's ``rollup`` (calls and
time per name) instead of being stored, which keeps hot leaves such as
``poly.evaluate`` from filling memory while self times stay exact.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: (module attribute path, method) pairs wrapped on their class.
METHODS = (("poly.BiPoly", "evaluate"),)

#: Targets whose metrics the benchmark reports, plus targets it expects to
#: exist; a missing one is reported as absent instead of failing the run.
EXPECTED = (
    "cli.main",
    "completion.build_system",
    "completion.complete",
    "formats.format_matrix",
    "formats.parse_bordered",
    "formats.parse_matrix",
    "formats.poly_to_json",
    "grid.evaluate_on_lattice",
    "grid.interpolates",
    "grid.is_inner_harmonic",
    "interpolate.build_impulse_set",
    "interpolate.extend",
    "interpolate.telescopic",
    "linalg.nullspace",
    "linalg.rref",
    "linalg.solve",
    "poly.evaluate",
    "poly.generate_basis",
    "poly.is_discrete_harmonic",
    "sandpile.phi",
    "sandpile.step",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_ns", "has_children", "attrs", "rollup")

    def __init__(self, id_, parent, name, attrs):
        self.id = id_
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.child_ns = 0
        self.has_children = False
        self.rollup = None
        self.start = time.perf_counter_ns()
        self.end = None

    def to_dict(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "attrs": self.attrs,
            "rollup": self.rollup or {},
        }


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def public_functions(package):
    """Map each public function of the package to its span name.

    Public means exported by the package's ``__all__``, any function of
    ``dhpoly.formats`` not starting with '_', and ``dhpoly.cli.main``.
    """
    mods = {name: mod for name, mod in sys.modules.items() if name.startswith(package.__name__ + ".")}
    candidates = [getattr(package, n, None) for n in getattr(package, "__all__", ())]
    formats = mods.get(package.__name__ + ".formats")
    if formats is not None:
        candidates += [v for k, v in vars(formats).items() if not k.startswith("_")]
    cli = mods.get(package.__name__ + ".cli")
    if cli is not None:
        candidates.append(getattr(cli, "main", None))
    found = {}
    for fn in candidates:
        home = getattr(fn, "__module__", None) or ""
        if callable(fn) and not isinstance(fn, type) and home.startswith(package.__name__ + "."):
            found[fn] = f"{_short(home)}.{fn.__name__}"
    return found


class Tracer:
    """Spans, per-name totals and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        # name -> [calls, inclusive ns (outermost calls only), self ns]
        self.totals = defaultdict(lambda: [0, 0, 0])
        self.absent = []
        self.hooks = {}
        self._stack = []
        self._open = Counter()
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.has_children = True
        self._next_id += 1
        span = Span(self._next_id, parent.id if parent else None, name, attrs)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        self._open[span.name] -= 1
        dur = span.end - span.start
        total = self.totals[span.name]
        total[0] += 1
        if not self._open[span.name]:
            total[1] += dur
        total[2] += dur - span.child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is None or span.has_children:
            self.spans.append(span)
        else:
            if parent.rollup is None:
                parent.rollup = {}
            calls_ns = parent.rollup.setdefault(span.name, [0, 0])
            calls_ns[0] += 1
            calls_ns[1] += dur
        if parent is not None:
            parent.child_ns += dur

    def inside(self, name):
        """True while a span of this name is open."""
        return self._open[name] > 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every public function of ``package`` in every module
        namespace (the package's own included) that holds it, and the
        METHODS on their classes.  Names in EXPECTED that are not found are
        listed in ``absent``."""
        functions = public_functions(package)
        # keyed by id(): module namespaces also hold unhashable values
        wrappers = {id(fn): self._wrap(name, fn) for fn, name in functions.items()}
        owners = [package] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith(package.__name__ + ".")
        ]
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("_") and id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        names = set(functions.values())
        for path, method in METHODS:
            cls = package
            for part in path.split("."):
                cls = getattr(cls, part, None)
            if isinstance(cls, type) and method in cls.__dict__:
                name = f"{path.split('.')[0]}.{method}"
                self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                names.add(name)
        self.absent = sorted(set(EXPECTED) - names)

    def restore(self):
        """Put back every name ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def report(self):
        """Everything recorded, JSON-ready, spans in start order."""
        totals = {k: {"calls": v[0], "ns": v[1], "self_ns": v[2]} for k, v in self.totals.items()}
        return {
            "spans": [s.to_dict() for s in sorted(self.spans, key=lambda s: s.id)],
            "totals": dict(sorted(totals.items())),
            "counts": dict(sorted(self.counts.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "absent": self.absent,
        }
