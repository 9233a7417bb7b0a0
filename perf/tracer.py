"""Spans recorded from outside the program, by wrapping its functions.

A :class:`Seam` names one public function of one layer.  While a
:class:`Tracer` is installed every call through a seam is a span; a
layer's *self time* is its spans' duration minus the part their child
spans cover, so the layers of one run add up to the run's wall time
without double counting.

The kinds of seam:

* ``func`` — a plain function or method: one span per call.
* ``gen`` — a generator function (a simulation process): the call
  returns a proxy and each *resume* of the generator is a span, so time
  the generator spends suspended (waiting on a simulated event) is
  never charged to it.  Proxies nest under ``yield from`` exactly like
  the generators they wrap.  ``steps`` is a ``gen`` whose yielded items
  are counted too (the optimizer's step stream).
* ``count`` — counted, never timed: for functions too hot to time.

Module-level functions are patched in every loaded module that holds a
reference to them (``from repro.sql.parser import parse`` binds a
second name the caller actually uses), and everything is restored on
exit.  Spans are recorded on the installing thread only; calls from
other threads are counted but not timed, since their time overlaps the
main thread's.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

_get_ident = threading.get_ident


@dataclass(frozen=True)
class Seam:
    """One wrapped function: ``owner.attr`` charged to ``layer``."""

    layer: str
    owner: object  # a module or a class
    attr: str
    kind: str = "func"  # func | gen | steps | count
    #: ``on_result(tracer, args, result)`` after each timed ``func``
    #: call, for counts read off arguments or results
    on_result: Optional[Callable] = None


class Tracer:
    """Per-layer self time, inclusive time, call and yield counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: items a ``steps`` seam yielded
        self.yields: Dict[str, int] = defaultdict(int)
        #: free-form counters for ``on_result`` hooks
        self.counts: Dict[str, float] = defaultdict(float)
        #: open spans, innermost last: [start, child seconds]
        self._stack: List[list] = []
        self._thread = _get_ident()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ spans
    def _close(self, layer: str, frame: list) -> None:
        duration = perf_counter() - frame[0]
        stack = self._stack
        stack.pop()
        self.self_s[layer] += duration - frame[1]
        self.total_s[layer] += duration
        if stack:
            stack[-1][1] += duration

    def span(self, layer: str):
        """Context manager: a span around benchmark-side code."""
        return _Span(self, layer)

    # --------------------------------------------------------- wrappers
    def _wrap_func(self, seam: Seam, fn: Callable) -> Callable:
        layer, on_result = seam.layer, seam.on_result
        stack, calls, close = self._stack, self.calls, self._close
        main = self._thread

        def traced(*args, **kwargs):
            calls[layer] += 1
            if _get_ident() != main:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, frame)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, seam: Seam, fn: Callable) -> Callable:
        layer, calls, main = seam.layer, self.calls, self._thread
        proxy = _SteppedGenerator if seam.kind == "steps" \
            else _TracedGenerator

        def traced(*args, **kwargs):
            calls[layer] += 1
            generator = fn(*args, **kwargs)
            if _get_ident() != main:
                return generator
            return proxy(self, layer, generator)

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, seam: Seam, fn: Callable) -> Callable:
        layer, calls = seam.layer, self.calls

        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ---------------------------------------------------------- install
    def install(self, seams) -> None:
        """Wrap every seam; :meth:`uninstall` undoes it."""
        wrap = {"func": self._wrap_func, "gen": self._wrap_gen,
                "steps": self._wrap_gen, "count": self._wrap_count}
        for seam in seams:
            original = seam.owner.__dict__[seam.attr]
            wrapper = wrap[seam.kind](seam, original)
            if isinstance(seam.owner, types.ModuleType):
                # by-name imports bound the function elsewhere too
                for module in list(sys.modules.values()):
                    names = [name for name, value
                             in getattr(module, "__dict__", {}).items()
                             if value is original]
                    for name in names:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
            else:
                self._patches.append((seam.owner, seam.attr, original))
                setattr(seam.owner, seam.attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()


class _Span:
    __slots__ = ("_tracer", "_layer", "_frame")

    def __init__(self, tracer: Tracer, layer: str):
        self._tracer, self._layer = tracer, layer

    def __enter__(self):
        self._tracer.calls[self._layer] += 1
        self._frame = [perf_counter(), 0.0]
        self._tracer._stack.append(self._frame)
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer._close(self._layer, self._frame)


class _TracedGenerator:
    """A generator whose every resume is a span of ``layer``.

    Implements the whole generator protocol (``send``/``throw``/
    ``close``/iteration), so the simulation kernel can drive it as a
    process and ``yield from`` can delegate to it; values, exceptions
    and return values pass through untouched.
    """

    __slots__ = ("_tracer", "_layer", "_generator")

    def __init__(self, tracer: Tracer, layer: str, generator):
        self._tracer, self._layer = tracer, layer
        self._generator = generator

    def __iter__(self):
        return self

    def _resume(self, method, *args):
        frame = [perf_counter(), 0.0]
        self._tracer._stack.append(frame)
        try:
            return method(*args)
        finally:
            self._tracer._close(self._layer, frame)

    def send(self, value):
        return self._resume(self._generator.send, value)

    def __next__(self):
        return self.send(None)

    def throw(self, *exc_info):
        return self._resume(self._generator.throw, *exc_info)

    def close(self):
        return self._resume(self._generator.close)


class _SteppedGenerator(_TracedGenerator):
    """A traced generator that also counts the items it yields."""

    __slots__ = ()

    def send(self, value):
        item = super().send(value)
        self._tracer.yields[self._layer] += 1
        return item
