"""Span recorder for the traced benchmark run.

The recorder wraps public callables of each layer from outside the
library (``src/`` carries no timers).  Every wrapped call records one span:
its name, start, end, parent span and the id of the instance it was called
on.  Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the time covered by its direct
children.  Spans nest strictly (the recording thread is the only one that
calls wrapped code), so the self times of all spans below a root add up to
the root's duration exactly.

Pool workers are forked and inherit the wrappers; the spans they record
stay in the worker's memory and never reach the parent, so only spans
recorded in the parent process count.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span fields, stored as lists for low per-call cost.
NAME, START, END, PARENT, INSTANCE, CHILD_TIME, KIND = range(7)


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: Counters the wrappers' observers add to (candidates, pairs, ...).
        self.events: Dict[str, float] = defaultdict(float)
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------
    def open(self, name: str, instance: int = 0, kind: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, instance, 0.0, kind])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - a wrapper lost its span
            raise RuntimeError(f"span stack corrupted: closed {index}, open {popped}")
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_TIME] += span[END] - span[START]

    def root(self, name: str, kind: str):
        """Context manager for a manual root span (setup, one op)."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.index = tracer.open(name, kind=kind)
                return self.index

            def __exit__(self, *exc):
                tracer.close(self.index)
                return False

        return _Root()

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class or a module.  Plain functions, methods and
        classmethods are supported; :meth:`unwrap_all` restores them.
        ``observe(tracer, args, result, exc)`` runs after each call, outside
        the span, to update :attr:`events`.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else raw
        tracer = self
        is_method = isinstance(owner, type) and not is_classmethod

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # Forked pool worker: its spans would never reach the parent.
                return target(*args, **kwargs)
            index = tracer.open(name, id(args[0]) if is_method and args else 0)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if observe is not None:
                    observe(tracer, args, None, exc)
                raise
            tracer.close(index)
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------
    def subtree_stats(self, kind: str):
        """``(total, self_s, calls)`` over every span below roots of ``kind``.

        ``total`` is the summed duration of those roots; ``self_s[name]``
        and ``calls[name]`` are per span name, roots included.
        """
        inside = {}
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            if parent < 0:
                inside[index] = span[KIND] == kind
            else:
                inside[index] = inside[parent]
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        total = 0.0
        for index, span in enumerate(self.spans):
            if not inside[index]:
                continue
            duration = span[END] - span[START]
            if span[PARENT] < 0:
                total += duration
            self_s[span[NAME]] += duration - span[CHILD_TIME]
            calls[span[NAME]] += 1
        return total, self_s, calls

    def inclusive(self, kind: str, names) -> float:
        """Summed duration of the outermost spans named in ``names`` below
        roots of ``kind`` (nested spans of the same set are not re-added)."""
        names = set(names)
        covered = {}
        total = 0.0
        for index, span in enumerate(self.spans):
            parent = span[PARENT]
            if parent < 0:
                covered[index] = (span[KIND] != kind, False)
                continue
            excluded, under_named = covered[parent]
            named = span[NAME] in names
            if named and not excluded and not under_named:
                total += span[END] - span[START]
            covered[index] = (excluded, under_named or named)
        return total

    def dump(self, path: str, header: dict) -> None:
        """Write every span as JSON (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        records = [
            {
                "name": s[NAME],
                "start": s[START] - origin,
                "end": s[END] - origin,
                "parent": s[PARENT],
                "instance": s[INSTANCE],
                "kind": s[KIND],
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "spans": records}, handle)
