"""In-memory spans recorded around the calls one module makes into another.

The traced run wraps public names at the point where the calling module
looks them up (``coding.sample_time``, ``experiments.solve_incomplete``,
``numpy.linalg.lstsq`` as seen from ``coding`` ...), so the program
itself is untouched.  Each span holds its name, start, end, parent and
operation id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

ROOT = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: dict[str, Any] = {}


class Proxy:
    """Attribute view of ``target`` in which some names are replaced.

    Patched into one module's namespace, it changes what that module
    sees (for example ``coding.np.linalg``) without touching the target.
    """

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans for the names it wraps; :meth:`restore` undoes
    every patch in reverse order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op: int | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[Span, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` per call.  ``observe(span, args, result)`` may attach
        attributes after a successful call; the class of a raised exception
        is stored as ``span.attrs["error"]`` and the exception re-raised."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc)
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(span, args, result)
            return result

        self.patch(owner, attr, traced)

    def operation(self, op_id: int, fn: Callable, *args):
        """Call ``fn(*args)`` inside a root span for operation ``op_id``."""
        self._op = op_id
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._op = None

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(
            (spans[c].start, spans[c].end) for c in children[index]
        ):
            lo = max(start, cursor)
            hi = min(end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((span.end - span.start) - covered)
    return result


def write_spans(spans: list[Span], path) -> None:
    """One tab-separated line per span: name, start, end, parent index
    (-1 for a root) and operation id."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            parent = -1 if span.parent is None else span.parent
            handle.write(
                f"{span.name}\t{span.start!r}\t{span.end!r}\t{parent}\t{span.op}\n"
            )
