"""Spans around calls into qillum's layers, installed from outside the package.

Every public function of the layer modules is replaced, in every qillum
module that refers to it, by a wrapper that records a span: name, start,
end, parent span and the id of the CLI command it belongs to.  The numerical
kernels the library calls (numpy.linalg.eigh/eigvalsh, scipy's expm and
betainc) are wrapped where the library looks them up; a kernel span is
named after the layer of the innermost library span that made the call.
Spans stay in memory until the run writes them out.

Per-matrix-element helpers (``PER_ELEMENT``) stay unwrapped: a span per
element would cost more than the element.  Their counts come from the state
that build_rho1 returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "scenario", "fockspace", "bounds", "gss", "receivers")
PER_ELEMENT = {"hypergeom_2f1_terminating"}
KERNELS = {"eigh", "eigvalsh", "expm", "betainc"}

# span fields, in the order of each span list
FIELDS = ("name", "start", "end", "parent", "command", "n")


def _library_info(name, args, result):
    """Work size recorded on a library span: blocks and elements, or a dimension."""
    if name == "fockspace.build_rho1":
        return [len(result.blocks),
                sum(b.shape[0] * (b.shape[0] + 1) // 2 for b in result.blocks.values())]
    if name == "fockspace.build_displaced_thermal":
        return int(result.shape[0])
    return None


def _kernel_info(name, args, result):
    """Work size recorded on a kernel span: matrix order, or elements for betainc."""
    if name.endswith(".betainc"):
        return int(np.size(result))
    return int(np.shape(args[0])[-1])


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._patches = []

    def _span(self, name, fn, args, kwargs, info=_library_info):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.command, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        record[5] = info(name, args, result)
        return result

    def _layer(self):
        """Layer of the innermost open span."""
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else "outside"

    def _library(self, name, fn):
        tracer = self

        if name == "gss.golden_section_min":
            # Objective evaluations are the caller's work: each gets a span
            # "<caller layer>.objective", and the gss span's n counts them.
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                caller = tracer._layer()
                evals = [0]

                def objective(x):
                    evals[0] += 1
                    return tracer._span(f"{caller}.objective", f, (x,), {})

                return tracer._span(name, fn, (objective,) + args, kwargs,
                                    info=lambda *_: evals[0])
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _kernel(self, kernel, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(f"{tracer._layer()}.{kernel}", fn, args, kwargs,
                                info=_kernel_info)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and the kernels; undo with remove()."""
        modules = {layer: importlib.import_module(f"qillum.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in PER_ELEMENT):
                    wrapped[fn] = self._library(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])
        self._patch(np.linalg, "eigh", self._kernel("eigh", np.linalg.eigh))
        self._patch(np.linalg, "eigvalsh", self._kernel("eigvalsh", np.linalg.eigvalsh))
        self._patch(modules["fockspace"], "expm", self._kernel("expm", modules["fockspace"].expm))
        self._patch(modules["receivers"], "betainc",
                    self._kernel("betainc", modules["receivers"].betainc))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
