"""Host-time spans recorded from outside the program.

The benchmark owns its tracing: a :class:`SpanRecorder` keeps
``(id, name, start, end, parent)`` records in memory, and
:meth:`SpanRecorder.installed` wraps the layer boundaries listed in
:data:`WRAPS` for the duration of a traced block by rebinding the public
names in the modules that call them — nothing is edited into ``src/``.

A name that no longer resolves is reported once with a warning and kept
in :attr:`SpanRecorder.missing`; the sections turn it into a ``null``
layer metric, so a later PR that renames a pass loses that one number,
loudly, and keeps every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import itertools
import threading
import time
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: span name -> the bindings of the public functions it covers. A
#: function imported ``from x import f`` into its caller is a second
#: binding, so the caller's namespace is listed too.
WRAPS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "models.graph_build": (
        ("repro.models.step", "layer_graphs"),
        ("bench.programs", "build_module"),
    ),
    "sharding.partition": (
        ("repro.sharding.partitioner", "partition"),
        ("repro.models.step", "partition"),
    ),
    "core.find_candidates": (("repro.core.pipeline", "find_candidates"),),
    "core.decompose": (("repro.core.pipeline", "decompose_candidate"),),
    "core.fusion": (
        ("repro.core.pipeline", "rewrite_concat_as_pad_max"),
        ("repro.core.pipeline", "run_fusion"),
    ),
    "core.async_split": (
        ("repro.core.pipeline", "split_collective_permutes"),
    ),
    "core.schedule": (
        ("repro.core.pipeline", "ScheduleGraph.build"),
        ("repro.core.pipeline", "schedule_module"),
    ),
    "core.compile_module": (("repro.core.pipeline", "compile_module"),),
    "perfsim.simulate": (
        ("repro.perfsim.simulator", "simulate"),
        ("repro.models.step", "simulate"),
    ),
    "runtime.lower": (("repro.runtime.compile", "lower"),),
    "runtime.lower_parallel": (
        ("repro.runtime.parallel.lowering", "lower_parallel"),
    ),
}


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]   # the span that caused this one

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span log with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: Set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def mark(self) -> int:
        """A position in the log; pass it to :meth:`totals` later."""
        return len(self.spans)

    def totals(self, since: int = 0, self_time: bool = False) -> Dict[str, float]:
        """Seconds per span name over ``spans[since:]``.

        With ``self_time`` each span counts its duration minus what its
        direct children cover.
        """
        window = self.spans[since:]
        children: Dict[int, float] = {}
        if self_time:
            for span in window:
                if span.parent is not None:
                    children[span.parent] = (
                        children.get(span.parent, 0.0) + span.duration
                    )
        totals: Dict[str, float] = {}
        for span in window:
            seconds = span.duration - children.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name count, total and self seconds — the written-out form."""
        total = self.totals()
        own = self.totals(self_time=True)
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return {
            name: {
                "count": counts[name],
                "total_s": total[name],
                "self_s": own[name],
            }
            for name in sorted(total)
        }

    @contextlib.contextmanager
    def installed(self, names: Sequence[str]) -> Iterator[None]:
        """Wrap the bindings of ``names`` (keys of :data:`WRAPS`) in
        spans for the enclosed block, restoring them afterwards."""
        restore = []
        try:
            for name in names:
                for module_name, dotted in WRAPS[name]:
                    try:
                        owner, attr, raw, bound = _resolve(module_name, dotted)
                    except (ImportError, AttributeError) as error:
                        if name not in self.missing:
                            warnings.warn(
                                f"bench: cannot wrap {module_name}.{dotted} "
                                f"({error}); layer metrics from span "
                                f"{name!r} are reported as null"
                            )
                            self.missing.add(name)
                        continue
                    wrapper = self._wrap(bound, name)
                    setattr(
                        owner,
                        attr,
                        staticmethod(wrapper)
                        if inspect.isclass(owner) else wrapper,
                    )
                    restore.append((owner, attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def _wrap(self, bound, name: str):
        @functools.wraps(bound)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return bound(*args, **kwargs)

        return wrapper


def _resolve(module_name: str, dotted: str):
    """``(owner, attr, raw descriptor, bound callable)`` of a binding."""
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    bound = getattr(owner, attr)
    return owner, attr, vars(owner).get(attr, bound), bound
