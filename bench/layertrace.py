"""Per-layer tracing: timing wrappers around the public functions of each package module.

``Tracer.install()`` wraps every public function of the seven modules,
the methods of ``Polynomial`` and ``PowerSeries`` (on the class) and the
CLI command callbacks.  It also rebinds every other name in the package
that held an original, such as the ``bernoulli_poly`` that ``integrals``
imported from ``sequences`` or the functions stored in the CLI's family
tables, and empties the identity-catalog cache so that the catalog is
rebuilt from wrapped names.  ``Tracer.remove()`` puts every original back.

A span opens when a call enters a layer from another layer (or from the
benchmark) and closes when that call returns; calls inside the same layer
are only counted.  A layer's self time is the duration of its spans minus
the time of the spans they opened in other layers.  Spans stay in memory
(up to ``MAX_SPANS`` per tracer) until ``write_spans`` saves them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("polynomials", "series", "sequences", "padic", "integrals", "identities", "cli")
WRAPPED_CLASSES = ("polynomials", "series")
# methods left unwrapped: lookups and protocol plumbing, not arithmetic
_SKIP_METHODS = {"__repr__", "__hash__", "__eq__", "__iter__", "__len__"}
MAX_SPANS = 200_000


def _measure_kind(args, kwargs):
    measure = args[1] if len(args) > 1 else kwargs["measure"]
    return measure.kind


# inclusive time of the outermost call, split by a tag taken from the arguments
_TAGS = {"integrals.level_integral": _measure_kind}
# counts read off return values
_RESULT_COUNTS = {"identities.verify": lambda result: result.points}


class Tracer:
    """Counters, self times and spans for one traced stretch of a workload."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()  # (function, caller layer) -> calls
        self.self_s: Counter = Counter()  # layer -> seconds
        self.inclusive_s: Counter = Counter()  # layer -> seconds, outermost spans only
        self.tagged_s: Counter = Counter()  # (function, tag) -> seconds
        self.results: Counter = Counter()  # function -> summed result counts
        self.op_id = -1  # spans outside any op, such as the layer touch
        self.dropped_spans = 0
        # call stacks are per thread (verify --jobs runs records on a pool);
        # a pool thread's spans have no parent, and the counters are shared
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._span_ids = array("q")  # span, parent, op, layer index, name index per span
        self._span_times = array("d")  # start, end per span
        self._names: dict[str, int] = {}
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, layer: str, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) as a call into `layer`, recording it."""
        kwargs = kwargs or {}
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.depth, local.open_tags = [], Counter(), Counter()
        stack = local.stack
        caller = stack[-1][0] if stack else None
        with self._lock:
            self.calls[name, caller] += 1
        tag_fn = _TAGS.get(name)
        tag = tag_fn(args, kwargs) if tag_fn and not local.open_tags[name] else None
        frame = None
        if caller != layer:
            with self._lock:
                self._next_span += 1
                span_id = self._next_span
            frame = [layer, 0.0, span_id]  # layer, child seconds, span id
            stack.append(frame)
            local.depth[layer] += 1
        if tag is not None:
            local.open_tags[name] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            if tag is not None:
                local.open_tags[name] -= 1
            if frame is not None:
                stack.pop()
                local.depth[layer] -= 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += t1 - t0
            with self._lock:
                if tag is not None:
                    self.tagged_s[name, tag] += t1 - t0
                if frame is not None:
                    self.self_s[layer] += t1 - t0 - frame[1]
                    if not local.depth[layer]:
                        self.inclusive_s[layer] += t1 - t0
                    self._record(frame[2], parent[2] if parent else -1, layer, name, t0, t1)
        count_fn = _RESULT_COUNTS.get(name)
        if count_fn is not None:
            with self._lock:
                self.results[name] += count_fn(result)
        return result

    def _record(self, span_id, parent_id, layer, name, t0, t1) -> None:
        if len(self._span_times) >= 2 * MAX_SPANS:
            self.dropped_spans += 1
            return
        name_idx = self._names.setdefault(name, len(self._names))
        self._span_ids.extend((span_id, parent_id, self.op_id, LAYERS.index(layer), name_idx))
        self._span_times.extend((t0, t1))

    def _wrapper(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs)

        return wrapper

    # -- installing and removing -------------------------------------------

    def _set(self, obj, name, value) -> None:
        self._saved.append((setattr, obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def _set_item(self, table: dict, key, value) -> None:
        self._saved.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"volkenborn.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}  # id(original) -> wrapper

        def wrap(layer, name, fn):
            wrappers[id(fn)] = self._wrapper(layer, name, fn)
            return wrappers[id(fn)]

        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and layer in WRAPPED_CLASSES:
                    self._wrap_class(layer, obj, wrap)
        for command in modules["cli"].cli.commands.values():
            self._set(command, "callback", wrap("cli", f"cli.{command.name}", command.callback))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "volkenborn" or mod_name.startswith("volkenborn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set_item(value, key, wrappers[id(item)])
        self._set(modules["identities"], "_CATALOG_CACHE", None)

    def _wrap_class(self, layer, cls, wrap) -> None:
        done: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share one wrapper
        for attr, value in list(vars(cls).items()):
            if attr in _SKIP_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                continue
            if isinstance(value, classmethod):
                fn = value.__func__
                if id(fn) not in done:
                    done[id(fn)] = wrap(layer, f"{layer}.{cls.__name__}.{fn.__name__}", fn)
                self._set(cls, attr, classmethod(done[id(fn)]))
            elif inspect.isfunction(value):
                if id(value) not in done:
                    done[id(value)] = wrap(layer, f"{layer}.{cls.__name__}.{value.__name__}", value)
                self._set(cls, attr, done[id(value)])

    def remove(self) -> None:
        while self._saved:
            setter, obj, key, original = self._saved.pop()
            setter(obj, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -----------------------------------------------------------

    def _calls_to(self, *names: str, caller: str = "*") -> int:
        """Calls to any of `names` from layer `caller` ("*": from anywhere)."""
        return sum(
            n for (name, who), n in self.calls.items()
            if name in names and (caller == "*" or who == caller)
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for everything recorded so far."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(n for (name, _), n in self.calls.items() if name.split(".")[0] == layer)
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["polynomials.mul_calls"] = self._calls_to("polynomials.Polynomial.__mul__")
        out["polynomials.eval_calls"] = self._calls_to("polynomials.Polynomial.__call__")
        out["series.mul_calls"] = self._calls_to("series.PowerSeries.__mul__")
        out["series.inverse_calls"] = self._calls_to("series.PowerSeries.inverse")
        out["sequences.egf_rebuilds"] = self._calls_to(
            "series.PowerSeries.exp", "series.PowerSeries.log1p", caller="sequences"
        )
        for kind in ("bosonic", "fermionic", "q"):
            out[f"integrals.level_{kind}_s"] = self.tagged_s["integrals.level_integral", kind]
        out["integrals.poly_builds"] = self._calls_to(
            "sequences.bernoulli_poly", "sequences.euler_poly", caller="integrals"
        )
        out["padic.valuation_calls"] = self._calls_to("padic.valuation")
        points = self.results["identities.verify"]
        out["identities.points"] = points
        busy = self.inclusive_s["identities"]
        out["identities.points_per_s"] = points / busy if busy else 0.0
        return out

    def write_spans(self, handle, round_index: int) -> None:
        """Append this tracer's spans as csv rows: round, op, span, parent, layer, name, start, end."""
        names = {i: n for n, i in self._names.items()}
        ids, times = self._span_ids, self._span_times
        for s in range(len(times) // 2):
            span, parent, op, layer, name = ids[5 * s : 5 * s + 5]
            handle.write(
                f"{round_index},{op},{span},{parent},{LAYERS[layer]},{names[name]},"
                f"{times[2 * s]:.9f},{times[2 * s + 1]:.9f}\n"
            )


def touch_every_layer(tracer: Tracer) -> None:
    """One small call into each layer, so that every layer's figures are measured on every workload."""
    from click.testing import CliRunner

    from volkenborn import cli, identities, integrals, padic, polynomials, sequences, series

    f = polynomials.Polynomial([1, 2, 3])
    series.PowerSeries.exp(6).inverse()
    sequences.bernoulli_poly(4)
    padic.valuation(Fraction(18, 5), 3)
    for measure in (integrals.Measure.bosonic(), integrals.Measure.fermionic(), integrals.Measure.q_weighted(4)):
        integrals.level_integral(f, measure, 3, 2)
    identities.verify("I33b")
    result = tracer.call("cli", "cli.invoke", CliRunner().invoke, (cli.cli, ["seq", "bernoulli", "--n", "3"]))
    if result.exit_code != 0:
        raise RuntimeError(f"layer touch: cli exited {result.exit_code}")

