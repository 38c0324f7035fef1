"""Spans at the boundaries between pnrlidar's modules.

A boundary function is a function defined in one pnrlidar module and bound
by name in another.  They are found by introspection of the loaded modules,
so the tracer follows refactors instead of hard-coding names.  Each one is
replaced in every namespace that binds it, its own module included, so calls
from inside its own module are seen too.  Private helpers that no other
module binds are left alone: wrapping them all made the boundary workload
about 17 times slower.

This module imports only the standard library, so the set-up probe can load
it before it starts its clock.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "pnrlidar"
ROOT_LAYER = "bench"


def layer_modules() -> dict:
    """Loaded pnrlidar submodules, keyed by layer name (the name inside the package)."""
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and module is not None
    }


def boundary_functions() -> dict:
    """{function: (layer it is defined in, [(module, name) of every binding])}."""
    modules = layer_modules()
    layer_of = {module.__name__: layer for layer, module in modules.items()}
    bindings: dict = {}
    for module in modules.values():
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ in layer_of:
                bindings.setdefault(value, []).append((module, name))
    return {
        fn: (layer_of[fn.__module__], binds)
        for fn, binds in bindings.items()
        if any(module.__name__ != fn.__module__ for module, _ in binds)
    }


class Patch:
    """Rebind every boundary function to ``make(fn, layer)`` until exit."""

    def __init__(self, make) -> None:
        self._make = make
        self._saved: list = []

    def __enter__(self) -> "Patch":
        for fn, (layer, binds) in boundary_functions().items():
            wrapper = functools.update_wrapper(self._make(fn, layer), fn)
            for module, name in binds:
                self._saved.append((module, name, fn))
                setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()


class Tracer:
    """Aggregated spans per (caller layer, callee); no span objects are kept.

    ``table[(caller_layer, "layer.function")]`` holds [calls, total_s,
    child_s, elements, nbytes].  The caller layer is the layer of the
    innermost open span, or ``bench`` for the benchmark itself.  A span's
    self time is its total minus the time of the spans it opened.
    ``elements`` counts one per scalar result and the size of an array
    result; ``nbytes`` sums the sizes of array results.
    """

    def __init__(self) -> None:
        import numpy

        self._ndarray = numpy.ndarray
        self.table: dict = {}
        self.root = [ROOT_LAYER, 0.0]
        self._stack = [self.root]

    def wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        stack, table, ndarray, clock = self._stack, self.table, self._ndarray, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [layer, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                row = table.get((parent[0], name))
                if row is None:
                    row = table[(parent[0], name)] = [0, 0.0, 0.0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += span[1]
            if type(result) is ndarray:
                row[3] += result.size
                row[4] += result.nbytes
            else:
                row[3] += 1
            return result

        return traced

    def self_seconds(self) -> dict:
        """Self time per callee layer, summed over callers."""
        out: dict = {}
        for (_, callee), (_, total, child, _, _) in self.table.items():
            layer = callee.rsplit(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + total - child
        return out

    def calls_between(self, caller: str, callee_layer: str) -> tuple:
        """(calls, seconds, elements, nbytes) of spans from one layer into another."""
        rows = [
            row
            for (layer, callee), row in self.table.items()
            if layer == caller and callee.rsplit(".", 1)[0] == callee_layer
        ]
        return tuple(sum(row[i] for row in rows) for i in (0, 1, 3, 4))

    def elements_of(self, callee: str) -> int:
        """Results produced by one function ("layer.function"), from every caller."""
        return sum(row[3] for (_, name), row in self.table.items() if name == callee)
