"""Per-layer tracing of ``dehnroots`` from outside the library.

The library imports names directly (``from .dataset import DataSet``), so
a wrapper only sees calls if it replaces the name in every namespace that
holds it: the defining module and each caller's module.  ``Tracer``
builds one wrapper per boundary; ``install()`` swaps it into every
``dehnroots`` module attribute that is the original object and
``uninstall()`` puts the originals back.

Every boundary keeps in-memory aggregates (calls, inclusive busy time,
self time).  A boundary's self time is its inclusive time minus the time
of the traced boundaries it called.  Boundaries called a handful of times
per query also record a span (id, parent id, query id, name, start,
end); the hot inner boundaries, which run up to millions of times per
query, keep aggregates only.
"""

import importlib
from time import perf_counter

PACKAGE = "dehnroots"
LAYERS = ("numtheory", "enumeration", "dataset", "special_roots", "fractional", "cli")


def _length(result):
    return len(result)


def _truth(result):
    return 1 if result else 0


# (module, name, keeps spans, (counter name, measure of the result) or None)
BOUNDARIES = (
    ("cli", "main", True, None),
    ("enumeration", "datasets", True, ("classes", _length)),
    ("enumeration", "root_degrees", True, None),
    ("enumeration", "genus_set", True, None),
    ("enumeration", "has_root", False, ("hits", _truth)),
    ("enumeration", "cone_multisets", False, ("multisets", _length)),
    ("enumeration", "twist_pairs", False, None),
    ("dataset", "DataSet", False, None),
    ("dataset", "FractionalDataSet", False, None),
    ("dataset", "parse_dataset", False, None),
    ("dataset", "validate", False, None),
    ("dataset", "format_dataset", False, None),
    ("special_roots", "classify", False, None),
    ("special_roots", "de_roots", True, None),
    ("special_roots", "de_root_genera", True, None),
    ("special_roots", "ms_roots", True, None),
    ("special_roots", "ms_count", True, None),
    ("special_roots", "t_set", True, None),
    ("numtheory", "mod_inverse", False, None),
    ("numtheory", "factorize", False, None),
    ("numtheory", "divisors", False, None),
    ("numtheory", "coprime_divisor_pairs", False, None),
    ("numtheory", "primes_up_to", False, None),
    ("fractional", "fractional_datasets", True, ("candidates", _length)),
)


class Stat:
    """Aggregates of one boundary."""

    __slots__ = ("calls", "busy", "self_time", "count")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.count = 0


class Tracer:
    """Wraps the boundaries in ``BOUNDARIES`` and aggregates their timings."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.query_id = None
        # each frame: [time spent in traced children, span id]
        self._stack = []
        self._next_span = 0
        self._patches = []
        modules = [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS]
        modules.append(importlib.import_module(PACKAGE))
        for module_name, name, keep_span, counter in BOUNDARIES:
            key = "%s.%s" % (module_name, name)
            original = getattr(importlib.import_module("%s.%s" % (PACKAGE, module_name)), name)
            self.stats[key] = Stat()
            wrapper = self._wrap(key, original, keep_span, counter)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, key, original, keep_span, counter):
        stat = self.stats[key]
        stack = self._stack
        measure = counter[1] if counter else None

        def traced(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = self._next_span
                self._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans.append((span_id, parent, self.query_id, key, start, end))
            if measure is not None:
                stat.count += measure(result)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def take(self):
        """Aggregates since the last take, {key: (calls, busy, self, count)}; resets them."""
        taken = {}
        for key, stat in self.stats.items():
            if stat.calls:
                taken[key] = (stat.calls, stat.busy, stat.self_time, stat.count)
                stat.calls = stat.count = 0
                stat.busy = stat.self_time = 0.0
        return taken


def per_layer(taken, passes):
    """Per-pass means of every boundary's aggregates, plus per-layer self times.

    ``taken`` holds one (factor, ``Tracer.take()``) pair per query; times
    are scaled by the factor into reference seconds.
    """
    totals = {"%s.%s" % (m, f): [0, 0.0, 0.0, 0] for m, f, _, _ in BOUNDARIES}
    for factor, snapshot in taken:
        for key, (calls, busy, self_time, count) in snapshot.items():
            total = totals[key]
            total[0] += calls
            total[1] += busy * factor
            total[2] += self_time * factor
            total[3] += count
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for module_name, name, _, counter in BOUNDARIES:
        key = "%s.%s" % (module_name, name)
        calls, busy, self_time, count = totals[key]
        metrics[key + ".calls"] = (calls / passes, "count")
        metrics[key + ".s"] = (busy / passes, "s")
        metrics[key + ".self_s"] = (self_time / passes, "s")
        layer_self[module_name] += self_time / passes
        if counter is None:
            continue
        if counter[0] == "hits":
            metrics[key + ".hit_ratio"] = (count / calls if calls else 0.0, "ratio")
        else:
            metrics[key + "." + counter[0]] = (count / passes, "count")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (layer_self[layer], "s")
    return metrics
