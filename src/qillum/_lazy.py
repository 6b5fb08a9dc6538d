"""numpy and scipy, imported where a command first needs them.

``import qillum`` and ``exponents`` load neither, ``sweep`` loads numpy only,
and ``bounds`` and ``helstrom`` load ``scipy.special`` at their first tail.
"""

from __future__ import annotations

import importlib
import sys


class LazyImport:
    """A module, or one callable in a module, imported on first use.

    A module handle keeps each attribute it has looked up, so later lookups
    cost what a module's do; a submodule such as ``linalg`` is kept as the
    module, whose own attributes are looked up on each use.  A callable
    handle looks its target up on every call and, not being a function of
    the module that holds it, stays a kernel that a profiler may replace.
    """

    def __init__(self, module: str, name: str | None = None):
        self._module, self._name = module, name

    def _load(self):
        module = importlib.import_module(self._module)
        return module if self._name is None else getattr(module, self._name)

    def __getattr__(self, attr: str):  # names not yet kept on the handle
        if attr.startswith("_"):  # copy, pickle and functools.wraps probe these
            raise AttributeError(attr)
        value = getattr(self._load(), attr)
        setattr(self, attr, value)
        return value

    def __call__(self, *args, **kwargs):
        return self._load()(*args, **kwargs)


np = LazyImport("numpy")


def is_array(x) -> bool:
    """isinstance(x, numpy.ndarray) without importing numpy: until numpy is
    loaded no array exists."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(x, numpy.ndarray)
