"""Span and count tracing of ggred's modules, installed from outside.

``Tracer.install`` replaces each public function of the layer modules with
a wrapper that records one span per call: its duration, and its self time,
which is the duration minus the time spent in wrapped calls it made.  The
wrapper is bound under every name that refers to the function in any
loaded ``ggred`` module or class, so a ``from .genmetric import
bismut_curvature`` in ``checks`` and ``localize`` is traced too.
``remove`` puts the originals back.  Nothing inside the package changes.

Deliberately not wrapped:

* ``dual``'s elementary functions and ``Dual`` arithmetic.  They run tens
  of thousands of times per point; their cost shows as the self time of
  ``differentiate`` and of field evaluation.  Only ``dual.partial`` (one
  jet pass) is wrapped.
* ``chart.christoffel_from_jet`` and ``chart.riemann_from_jet``.  Their
  contractions count as self time of ``christoffel`` and ``riemann``.

``GrassmannElement.__mul__`` (also bound as ``__rmul__``) is traced as
``grassmann.mul`` and ``GrassmannElement.exp`` as ``grassmann.exp``.
"""

import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "scenarios", "checks", "quotient", "submanifold", "gk",
          "localize", "grassmann", "genmetric", "chart", "dual")

NOT_WRAPPED = {("chart", "christoffel_from_jet"),
               ("chart", "riemann_from_jet")}


class Tracer:
    """Spans and counts of the ggred layer functions, in memory.

    Every duration is kept only for the spans named in ``distributions``,
    for percentiles.
    """

    def __init__(self, distributions=()):
        self.distributions = set(distributions)
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()
        self._open = []          # child time of each open span
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        open_spans = self._open
        keep = name in self.distributions

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if keep:
                    self.durations[name].append(dt)

        return traced

    def _count_jets(self, fn):
        """Count ``differentiate`` calls by order and by nesting."""
        depth = [0]
        counts = self.counts

        def counted(*args, **kwargs):
            order = kwargs.get("order", args[2] if len(args) > 2 else 1)
            counts[f"chart.differentiate.calls.order{order}"] += 1
            if depth[0]:
                counts["chart.differentiate.calls.nested"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    # -- installation ------------------------------------------------------

    def _targets(self):
        """``(span name, original)`` for every function to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"ggred.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__ \
                        or (layer, attr) in NOT_WRAPPED:
                    continue
                if layer == "dual" and attr != "partial":
                    continue
                out.append((f"{layer}.{attr}", obj))
        element = importlib.import_module("ggred.grassmann").GrassmannElement
        out.append(("grassmann.mul", vars(element)["__mul__"]))
        out.append(("grassmann.exp", vars(element)["exp"]))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "ggred" or name.startswith("ggred.")]
        owners += [obj for m in owners[:] for obj in vars(m).values()
                   if inspect.isclass(obj)
                   and obj.__module__.startswith("ggred.")]
        for name, original in targets:
            wrapper = self._span(name, self._count_jets(original)
                                 if name == "chart.differentiate"
                                 else original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- read-out ----------------------------------------------------------

    def percentile_ms(self, name, q):
        """The q-th percentile (q in 1..99) of a span's durations, in ms."""
        values = self.durations.get(name, [])
        if len(values) < 2:
            return 1e3 * values[0] if values else 0.0
        return 1e3 * statistics.quantiles(values, n=100)[q - 1]
