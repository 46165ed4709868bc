"""Out-of-process-boundary call tracer for the benchmark's traced run.

The traced run measures the layers of ``repro`` from outside: it
replaces selected public functions and methods with timing wrappers,
runs the workload, then puts the originals back. Nothing inside the
program changes.

Each wrapper records, per span name:

* ``calls``  -- how many times it ran;
* ``total``  -- summed wall time of its outermost activations (a span
  that re-enters itself, directly or through another span, is not
  counted twice);
* ``self``   -- summed duration minus the time covered by wrapped
  calls nested inside it, so the self times of all spans add up to
  the time covered by the outermost spans;
* ``count``  -- an optional work counter, summed from a per-call
  function of the call's arguments and result.

Self time is the arithmetic the layer table is built on; it is pinned
by ``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[tuple, dict, Any], float]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    count: float = 0.0
    #: Activations of this span currently on the stack (re-entry guard
    #: for ``total``).
    depth: int = 0


class Tracer:
    """Nested timing spans with self time, installed by monkeypatching."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        #: One entry per active span: [name, start, child time so far].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.depth += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, count: float = 0.0) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, start, child = self._stack.pop()
        duration = end - start
        stats = self.spans[name]
        stats.calls += 1
        stats.self += duration - child
        stats.count += count
        stats.depth -= 1
        if stats.depth == 0:
            stats.total += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def span(self, name: str, fn: Callable, counter: Optional[Counter] = None):
        """*fn* wrapped in a span called *name*."""
        enter = self.enter
        leave = self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(counter(args, kwargs, result) if counter else 0.0)

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counter: Optional[Counter] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        *owner* is a module or a class. Class attributes are looked up
        in the class ``__dict__`` so that classmethods and
        staticmethods keep their kind.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            traced: object = classmethod(
                self.span(name, original.__func__, counter)
            )
        elif isinstance(original, staticmethod):
            traced = staticmethod(self.span(name, original.__func__, counter))
        else:
            traced = self.span(name, original, counter)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def self_total(self) -> float:
        """Self time summed over every span (= time under outermost spans)."""
        return sum(s.self for s in self.spans.values())
