"""Functional multi-device runtime: the correctness oracle.

The unified entry point is :func:`create_engine` — it returns one of the
four back ends (interpreted oracle, compiled vectorized engine behind a
content-addressed :class:`PlanCache`, the multi-worker parallel backend,
resilient fault-tolerant interpreter) behind a single
``run(module, inputs, mesh=...)`` signature. ``Executor`` and
``ResilientExecutor`` are the implementation of the interpreted and
resilient engines and stay importable as reference code.
"""

from repro.runtime.collectives import (
    all_gather,
    all_reduce,
    all_to_all,
    collective_permute,
    payload_bytes,
    reduce_scatter,
    validate_permute_pairs,
)
from repro.runtime.compile import lower
from repro.runtime.engine import (
    ENGINE_KINDS,
    CompiledEngine,
    Engine,
    InterpretedEngine,
    ResilientEngine,
    create_engine,
)
from repro.runtime.executor import ExecutionError, Executor, run_spmd
from repro.runtime.memory import MemoryProfile, profile_memory
from repro.runtime.plan import CompiledPlan, PlanStats
from repro.runtime.plan_cache import (
    CacheStats,
    PlanCache,
    fingerprint_config,
    fingerprint_mesh,
    fingerprint_module,
    plan_key,
)
from repro.runtime.resilient import (
    ResilienceStats,
    ResilientExecutor,
    ResilientResult,
    RetryPolicy,
    run_with_fallback,
)

# Imported last: the parallel package registers its engine kind with the
# ENGINE_KINDS registry above (and imports repro.runtime.* itself).
from repro.runtime.parallel import (  # noqa: E402
    ParallelEngine,
    ParallelPlan,
    lower_parallel,
)

__all__ = [
    "CacheStats",
    "CompiledEngine",
    "CompiledPlan",
    "ENGINE_KINDS",
    "Engine",
    "ExecutionError",
    "Executor",
    "InterpretedEngine",
    "MemoryProfile",
    "ParallelEngine",
    "ParallelPlan",
    "PlanCache",
    "PlanStats",
    "ResilienceStats",
    "ResilientEngine",
    "ResilientExecutor",
    "ResilientResult",
    "RetryPolicy",
    "all_gather",
    "all_reduce",
    "all_to_all",
    "collective_permute",
    "create_engine",
    "fingerprint_config",
    "fingerprint_mesh",
    "fingerprint_module",
    "lower",
    "lower_parallel",
    "payload_bytes",
    "plan_key",
    "profile_memory",
    "reduce_scatter",
    "run_spmd",
    "run_with_fallback",
    "validate_permute_pairs",
]
