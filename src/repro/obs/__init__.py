"""Structured observability: one event schema for every runtime layer.

``repro.obs`` is the shared trace/metrics/profiling substrate consumed
by the interpreted :class:`~repro.runtime.executor.Executor`, the
compiled and parallel plans (:class:`~repro.runtime.plan.CompiledPlan`),
the :class:`~repro.runtime.resilient.ResilientExecutor`, the chaos harness
and the performance simulator (whose
:class:`~repro.perfsim.trace.Trace` is built on the same
:class:`TraceEvent` schema, so simulated and measured timelines can be
diffed against each other).

Attach a :class:`Tracer` to any executor to record per-instruction
spans (opcode phase, wall-clock interval, payload bytes) and counters
(bytes moved per collective kind, retries, fallbacks, donation and
plan-cache hits); export with :func:`to_chrome_trace` (loadable in
``chrome://tracing`` / Perfetto), :func:`metrics_dict`, or summarize
hidden communication with :func:`overlap_summary`. With no tracer
attached the hot paths are untouched — a single ``is None`` test per
instruction.
"""

from repro.obs.comm_volume import (
    ChannelVolume,
    CommVolumeSummary,
    comm_volume_summary,
    format_comm_volume,
)
from repro.obs.events import (
    ADAPT,
    ASYNC_DONE,
    ASYNC_START,
    COLLECTIVE,
    COMPUTE,
    CONTROL,
    KINDS,
    RETRY,
    STALL,
    TRANSFER,
    EventLog,
    TraceEvent,
    instruction_bytes,
    phase_of,
)
from repro.obs.health_feed import LaneCost, lane_costs, retry_fraction
from repro.obs.export import (
    diff_timelines,
    events_from_chrome,
    metrics_dict,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.overlap import (
    UNATTRIBUTED,
    OverlapSummary,
    overlap_summary,
    per_axis_overlap_summary,
    transfer_axis,
)
from repro.obs.tracer import Tracer

__all__ = [
    "ADAPT",
    "ASYNC_DONE",
    "ASYNC_START",
    "COLLECTIVE",
    "COMPUTE",
    "CONTROL",
    "ChannelVolume",
    "CommVolumeSummary",
    "EventLog",
    "KINDS",
    "LaneCost",
    "OverlapSummary",
    "RETRY",
    "STALL",
    "TRANSFER",
    "TraceEvent",
    "Tracer",
    "UNATTRIBUTED",
    "comm_volume_summary",
    "diff_timelines",
    "events_from_chrome",
    "format_comm_volume",
    "instruction_bytes",
    "lane_costs",
    "metrics_dict",
    "overlap_summary",
    "per_axis_overlap_summary",
    "phase_of",
    "retry_fraction",
    "transfer_axis",
    "to_chrome_trace",
    "validate_chrome_trace",
]
