"""Outside-in tracing of the pferrer layers.

The tracer replaces each layer's public entry functions, in every
``pferrer`` namespace that binds them, with a wrapper that records a span,
and puts the originals back when the traced pass ends.  Nothing inside the
library changes: a span starts when the wrapper is entered, and a span's
self time is its duration minus the durations of the spans it caused.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "pferrer"
LAYERS = ("diagram", "ideal", "invariants", "series", "macaulay", "oracle")

# Tiny helpers called 10^4 to 10^6 times in one pass (variable_key about
# 7 * 10^5 times and box_monomial 1.5 * 10^5 times on report-ladder,
# revlex_key 3 * 10^4 times on macaulay-hvectors).  A span on each would
# cost more than the helper itself, so their time stays in the caller's span.
UNTRACED = frozenset(
    {
        "variable_key",
        "monomial_key",
        "box_monomial",
        "diagonal_index",
        "full_diagonal_size",
        "revlex_key",
    }
)


# Work counts read from a call: (layer, function) -> (metric, reader), where
# the reader takes (result, args).
COUNTS = {
    ("ideal", "ferrer_ideal"): ("generators", lambda result, args: len(result.generators)),
    ("series", "hilbert_series_monomial"): (
        "generators",
        lambda result, args: len(args[0].generators),
    ),
    ("invariants", "ara_certificate"): ("witnesses", lambda result, args: len(result.witnesses)),
}


def is_entry_function(name: str, obj, module_name: str) -> bool:
    """A public function defined in the module, plain or lru-cached.

    Callable instances, such as ``series.ONE_MINUS_T``, and classes are left
    alone: wrapping them in a function would change what callers get back.
    """
    if name.startswith("_") or name in UNTRACED:
        return False
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == module_name


class Tracer:
    """Span recorder for one traced pass; use as a context manager."""

    def __init__(self):
        self.stack: list[list] = []  # [function key, child seconds]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.fn_seconds: dict[tuple[str, str], float] = {}
        self.fn_self: dict[tuple[str, str], float] = {}
        self.fn_calls: dict[tuple[str, str], int] = {}
        self.counts: dict[tuple[str, str, str], int] = {}
        self.top_level = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, original):
        key = (layer, name)
        counter = COUNTS.get(key)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(original)
        def span(*args, **kwargs):
            reentered = any(frame[0] == key for frame in stack)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.layer_self[layer] += elapsed - frame[1]
                self.layer_calls[layer] += 1
                self.fn_calls[key] = self.fn_calls.get(key, 0) + 1
                self.fn_self[key] = self.fn_self.get(key, 0.0) + elapsed - frame[1]
                if not reentered:
                    self.fn_seconds[key] = self.fn_seconds.get(key, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level += elapsed
            if counter is not None:
                metric, read = counter
                count_key = (layer, name, metric)
                self.counts[count_key] = self.counts.get(count_key, 0) + read(result, args)
            return result

        return span

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if is_entry_function(name, obj, module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def seconds(self, layer: str, name: str) -> float:
        return self.fn_seconds.get((layer, name), 0.0)

    def calls(self, layer: str, name: str) -> int:
        return self.fn_calls.get((layer, name), 0)

    def count(self, layer: str, name: str, metric: str) -> int:
        return self.counts.get((layer, name, metric), 0)
