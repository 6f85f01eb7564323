"""Ladder execution: descend the degradation ladder under live faults.

:func:`run_with_ladder` is the graceful-degradation generalization of
:func:`repro.runtime.resilient.run_with_fallback`. Instead of one
decomposed→undecomposed cliff, a typed link fault steps the program one
rung down the :class:`~repro.adapt.policy.LadderState` ladder: the
health monitor absorbs the fault (localizing the dead channel), the
rebalance policy materializes the next rung's
:class:`~repro.core.config.OverlapConfig`, and the module is recompiled
through the content-addressed plan cache — so a revisited rung is a
cache hit, not a recompile.

Every descent is recorded as a typed
:class:`~repro.adapt.policy.LadderTransition` carrying the injector's
replay seed, and mirrored onto an attached tracer as an ``ADAPT`` event
whose name embeds the seed — the chaos harness audits both.

Rung invariants:

* the same injector runs on every decomposed rung, so a persistent
  fault (a downed direction) keeps firing until a rung stops using the
  broken channel;
* SYNC_FALLBACK runs on the plain executor (no injection — bulk
  collectives do not use the point-to-point route), matching
  ``run_with_fallback``'s contract; faults it raises are stamped with
  the original seed;
* every rung is bit-identical to the oracle, so a ladder recovery is a
  *recovery*, not an approximation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.adapt.health import LinkHealthMonitor
from repro.adapt.policy import (
    LadderState,
    LadderTransition,
    RebalancePolicy,
)
from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module_cached
from repro.faults.errors import LINK_FAULTS, FaultError
from repro.faults.injector import FaultInjector
from repro.hlo.module import HloModule
from repro.obs.events import ADAPT
from repro.obs.tracer import Tracer
from repro.perfsim.hardware import TPU_V4, ChipSpec
from repro.runtime.executor import Executor, PerDevice
from repro.runtime.resilient import (
    ResilienceStats,
    ResilientExecutor,
    RetryPolicy,
)
from repro.sharding.mesh import DeviceMesh


@dataclasses.dataclass
class LadderResult:
    """Outcome of :func:`run_with_ladder`."""

    values: Dict[str, PerDevice]
    state: LadderState
    transitions: Tuple[LadderTransition, ...]
    stats: ResilienceStats
    failure: Optional[FaultError]  # last link fault absorbed, if any

    @property
    def root(self) -> PerDevice:
        """The per-device values of the (single) requested output."""
        (shards,) = self.values.values()
        return shards

    @property
    def used_fallback(self) -> bool:
        """True when the run ended on the undecomposed rung."""
        return self.state is LadderState.SYNC_FALLBACK

    @property
    def adapted(self) -> bool:
        """True when the run recovered on an intermediate rung."""
        return bool(self.transitions) and not self.used_fallback


def run_with_ladder(
    build: Callable[[], HloModule],
    mesh: DeviceMesh,
    arguments: Dict[str, Sequence[np.ndarray]],
    *,
    base_config: Optional[OverlapConfig] = None,
    injector: Optional[FaultInjector] = None,
    policy: Optional[RetryPolicy] = None,
    rebalance: Optional[RebalancePolicy] = None,
    monitor: Optional[LinkHealthMonitor] = None,
    outputs: Optional[Sequence[str]] = None,
    tracer: Optional[Tracer] = None,
    chip: ChipSpec = TPU_V4,
) -> LadderResult:
    """Execute ``build()``'s program, descending the ladder on link faults.

    ``build`` must return a *fresh* uncompiled module on every call (the
    pipeline rewrites in place); each rung compiles its own copy through
    the plan cache with that rung's config. Non-link faults (device
    failure, unrepairable corruption) propagate immediately — no
    schedule edit survives a dead device — after being stamped with the
    injector's replay seed.
    """
    base = base_config if base_config is not None else OverlapConfig()
    rebalance = rebalance or RebalancePolicy()
    monitor = monitor or LinkHealthMonitor()
    seed = injector.seed if injector is not None else None
    transitions = []
    last_stats = ResilienceStats()
    last_failure: Optional[FaultError] = None
    state = LadderState.FULL

    while True:
        config, _ = rebalance.config_for(state, base, monitor.verdicts())
        compiled = compile_module_cached(build(), mesh, config, chip=chip)
        program = compiled.module

        if state is LadderState.SYNC_FALLBACK:
            if tracer is not None:
                tracer.count("fallbacks")
            executor = Executor(mesh.num_devices, tracer=tracer)
            try:
                values = executor.run(program, arguments, outputs=outputs)
            except FaultError as error:
                raise error.attach_seed(seed)
            return LadderResult(
                values=values,
                state=state,
                transitions=tuple(transitions),
                stats=last_stats,
                failure=last_failure,
            )

        executor = ResilientExecutor(
            mesh.num_devices,
            injector=injector,
            policy=policy,
            tracer=tracer,
        )
        try:
            values = executor.run(program, arguments, outputs=outputs)
            return LadderResult(
                values=values,
                state=state,
                transitions=tuple(transitions),
                stats=executor.stats,
                failure=last_failure,
            )
        except LINK_FAULTS as failure:
            last_stats = executor.stats
            last_failure = failure
            monitor.observe_fault(failure, mesh)
            next_state = rebalance.next_state(state)
            edit = rebalance.edit_for(next_state, base, monitor.verdicts())
            transition = LadderTransition(
                from_state=state,
                to_state=next_state,
                edit=edit,
                seed=seed,
                error_type=type(failure).__name__,
            )
            transitions.append(transition)
            if tracer is not None:
                now = tracer.now()
                tracer.add(transition.describe(), ADAPT, "ladder", now, now)
                tracer.count(f"ladder.{next_state.name.lower()}")
            state = next_state
        except FaultError as error:
            raise error.attach_seed(seed)
