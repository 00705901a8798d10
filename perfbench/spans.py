"""In-memory span tracing around the program's public entry points.

:class:`Tracer` records spans (name, start, end, parent, counters).  The
benchmark opens one span per operation it issues (``op.*``); with
tracing on, :meth:`Tracer.wrap` also replaces a function of the program
with a wrapper that records a span around every call, in the defining
module and in every ``repro`` module that imported it by name.
:meth:`Tracer.restore` puts the originals back.  Nothing under ``src/``
is edited.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, counters].
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, counters: dict[str, float] | None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = _clock()
        span[4] = counters

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, float]]:
        """Record a span; counters put in the yielded dict are kept."""
        counters: dict[str, float] = {}
        index = self._open(name)
        try:
            yield counters
        finally:
            self._close(index, counters or None)

    def _wrapper(
        self,
        func: Callable[..., Any],
        name: str,
        counters: Callable[..., dict[str, float]] | None,
    ) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            extra = None
            try:
                result = func(*args, **kwargs)
                if counters is not None:
                    extra = counters(result, *args)
                return result
            finally:
                self._close(index, extra)

        return traced

    # -- patching -------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counters: Callable[..., dict[str, float]] | None = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        ``owner`` is a module or a class.  ``counters(result, *args)``
        may return counters to attach to the span.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement: object = classmethod(
                    self._wrapper(original.__func__, name, counters)
                )
            else:
                replacement = self._wrapper(original, name, counters)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        original = getattr(owner, attr)
        replacement = self._wrapper(original, name, counters)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        self_time = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent >= 0:
                self_time[parent] -= span[2] - span[1]
        return self_time

    def op_of(self) -> list[str]:
        """Name of each span's nearest ``op.*`` ancestor (or itself)."""
        owner: list[str] = []
        for span in self.spans:
            if span[0].startswith("op."):
                owner.append(span[0])
            elif span[3] >= 0:
                owner.append(owner[span[3]])
            else:
                owner.append("")
        return owner

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Write every span as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            **extra,
            "spans": [
                {
                    "name": name,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                    "parent": parent,
                    **({"counters": counters} if counters else {}),
                }
                for name, start, end, parent, counters in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, float]]:
        yield {}

    def restore(self) -> None:
        pass
