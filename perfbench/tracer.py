"""Spans and counts around the public functions of the coocsim modules.

The tracer works from outside the program: it replaces a function with a
timing wrapper in every ``coocsim`` module namespace that binds it. Modules
call each other through names imported with ``from .x import y``, so
patching only the defining module would miss most calls; for example
``dynamics`` and ``metrics`` both hold their own ``disk_sum`` binding.
Every binding is put back by :meth:`Tracer.restore`.

A span covers one call. Nested calls form a stack, so a span's self time
is its duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "coocsim"


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level binding of ``original`` at ``replacement``.

    Returns the (module, name, original) triples needed to undo it.
    """
    undo = []
    for mod in package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def unbind(undo: list[tuple[object, str, object]]) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


class Tracer:
    """Accumulates per-span totals, self times, call counts and named counts.

    ``wrap`` returns False, and records the span as missing, when the
    defining module has no such function; metrics built from a missing
    span are reported as unmeasured rather than as zero.
    """

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.broken_counts: set[str] = set()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, attr: str, span: str,
             on_call: Callable[["Tracer", tuple, dict], None] | None = None) -> bool:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if not callable(original):
            self.missing.add(span)
            return False
        self._undo += rebind(original, self._wrapper(span, original, on_call))
        return True

    def _wrapper(self, span, original, on_call):
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                try:
                    on_call(self, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The signature moved on; the count is unmeasured, the
                    # program's call must still go through untouched.
                    self.broken_counts.add(span)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def restore(self) -> None:
        unbind(self._undo)
        self._undo = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
