"""The parallel engine: the compiled engine, multi-worker plans.

``ParallelEngine`` *is* a :class:`~repro.runtime.engine.CompiledEngine`
— same plan cache, tuned-module swap, root rekey and tracer counters,
all inherited — that lowers through
:func:`~repro.runtime.parallel.lowering.lower_parallel` into
:class:`~repro.runtime.parallel.plan.ParallelPlan`s whose execution is
partitioned across ``workers`` threads. The worker count participates
in the plan-cache key, so one shared cache can hold plans for several
worker counts side by side.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.obs.tracer import Tracer
from repro.runtime.engine import CompiledEngine, TunedLike
from repro.runtime.plan_cache import PlanCache


class ParallelEngine(CompiledEngine):
    """The multi-worker shared-memory backend.

    ``workers=None`` sizes the pool from ``os.cpu_count()``; either way
    the count is clamped to the device count per plan (one worker must
    own at least one device row).
    """

    kind = "parallel"

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        donate_params: bool = True,
        workers: Optional[int] = None,
        tuned: TunedLike = None,
        tracer: Optional[Tracer] = None,
        sanitize: bool = False,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        super().__init__(plan_cache, donate_params, tuned, tracer)
        self.workers = workers
        # Execution-time instrumentation only — deliberately NOT part of
        # the plan-cache key: a sanitized and an unsanitized engine can
        # share one cache and the same lowered plans.
        self.sanitize = sanitize

    def effective_workers(self, num_devices: int) -> int:
        """The worker count a plan for ``num_devices`` will use."""
        requested = self.workers or os.cpu_count() or 1
        return max(1, min(requested, num_devices))

    def _key_options(self, num_devices: int) -> Tuple:
        return (
            "parallel", self.effective_workers(num_devices),
        ) + super()._key_options(num_devices)

    def _lower(self, module, num_devices: int, outputs):
        # Resolved per call, like CompiledEngine._lower.
        from repro.runtime.parallel.lowering import lower_parallel

        return lower_parallel(
            module,
            num_devices,
            outputs,
            workers=self.effective_workers(num_devices),
            donate_params=self.donate_params,
        )

    def _run_plan(self, plan, inputs, iteration: int, tracer):
        return plan.run(
            inputs, iteration, tracer=tracer, sanitize=self.sanitize
        )
