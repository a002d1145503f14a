"""In-memory span tracer that wraps pulseguard functions from outside the package.

Each layer names one function by module and attribute.  While the tracer is
active, every binding of that function object inside the ``pulseguard``
package is replaced by a timing wrapper: the defining module's global (so
calls between functions of one module are seen), names imported with
``from .x import y`` (so ``runner`` calls are seen) and the package's
re-exports.  Nothing inside ``src/`` changes.  A layer whose module or
attribute does not exist is listed in ``absent`` instead of failing the run,
so a refactor that deletes a traced function needs no edit here.

Spans are kept in memory.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.  Spans recorded in worker
processes of a process pool stay in those processes and are lost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Wraps the functions named by ``layers`` while ``active()`` is entered.

    ``layers`` maps a layer name to ``(module name, attribute name)``;
    bindings are replaced in ``package`` and its submodules.  Spans are
    ``[layer, start, end, parent index]`` lists; the parent index is -1 for
    a call made outside every other wrapped call.
    """

    def __init__(self, layers: dict, package: str = "pulseguard"):
        self.layers = dict(layers)
        self.package = package
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _install(self) -> None:
        self.absent = []
        for layer, (module_name, attr) in self.layers.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                    continue
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((namespace, key, original))
                        namespace[key] = wrapper

    def _uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    @contextmanager
    def active(self):
        """Record spans of the wrapped layers inside the ``with`` block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Per-layer ``calls``, ``total_s`` and ``self_s``, plus ``top_level_s``.

    ``top_level_s`` is the summed duration of spans that no other wrapped
    call encloses.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict = {}
    top_level = 0.0
    for index, (layer, start, end, parent) in enumerate(spans):
        duration = end - start
        stats = layers.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["total_s"] += duration
        stats["self_s"] += duration - child_time[index]
        if parent < 0:
            top_level += duration
    return {"layers": layers, "top_level_s": top_level}
