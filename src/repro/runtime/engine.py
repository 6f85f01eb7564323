"""The unified Engine facade over the execution back ends.

Every back end — the interpreted oracle
(:class:`~repro.runtime.executor.Executor`), the compiled vectorized
engine (:func:`~repro.runtime.compile.lower` behind a plan cache), the
fault-tolerant interpreter
(:class:`~repro.runtime.resilient.ResilientExecutor`) and the
multi-worker parallel backend (:mod:`repro.runtime.parallel`) — is
reached through one protocol:

    engine = create_engine("compiled")
    outputs = engine.run(module, inputs, mesh=mesh)

``run`` takes the mesh (or a bare device count) *per call*, so one
engine serves programs of any ring size; the compiled engine keys its
:class:`~repro.runtime.plan_cache.PlanCache` on the module's content
fingerprint plus the device count, so lowering happens once per
program, not once per call — the property the serving subsystem
(:mod:`repro.serve`) is built on.

``Executor`` and ``ResilientExecutor`` are the *implementation* of the
interpreted and resilient engines (the oracle and the fault path that
tests compare against); there is one compiled engine body, and
:class:`~repro.runtime.parallel.engine.ParallelEngine` subclasses it,
overriding only how a plan is keyed, lowered and run.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.runtime.resilient import ResilienceStats

import numpy as np

from repro.obs.tracer import Tracer
from repro.runtime.plan import CompiledPlan
from repro.runtime.plan_cache import PlanCache, plan_key


class _EngineSpec(NamedTuple):
    """How to build one engine kind and which options it accepts."""

    factory: Callable[..., "Engine"]
    options: FrozenSet[str]


class EngineRegistry:
    """Ordered ``kind -> factory`` registry behind :func:`create_engine`.

    It quacks like the old ``("interpreted", "compiled", "resilient")``
    tuple — iteration, ``in``, ``len``, indexing and ``repr`` all behave
    as before — so every existing validator and error message keeps
    working, while new back ends (the parallel engine registers itself
    on import of :mod:`repro.runtime.parallel`) extend it without
    touching this module's callers.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, _EngineSpec] = {}
        self._autoloaded = False

    # -- registration -------------------------------------------------
    def register(
        self,
        kind: str,
        factory: Callable[..., "Engine"],
        *,
        options: Iterable[str] = (),
    ) -> None:
        """Register (or re-register, idempotently) one engine kind.

        ``options`` names the :func:`create_engine` keyword arguments
        that apply to this kind; any other non-default option is
        rejected loudly at construction time.
        """
        if not kind or not isinstance(kind, str):
            raise ValueError("engine kind must be a non-empty string")
        self._specs[kind] = _EngineSpec(factory, frozenset(options))

    def spec(self, kind: str) -> _EngineSpec:
        self._autoload()
        return self._specs[kind]

    def kinds(self) -> Tuple[str, ...]:
        self._autoload()
        return tuple(self._specs)

    def options_for(self, kind: str) -> FrozenSet[str]:
        return self.spec(kind).options

    def accepting(self, option: str) -> Tuple[str, ...]:
        """The kinds whose factories accept ``option``."""
        return tuple(k for k in self.kinds() if option in self._specs[k].options)

    # -- lazy self-registration of optional back ends -----------------
    def _autoload(self) -> None:
        # The parallel backend lives in its own package and registers
        # itself on import; load it the first time anybody looks at the
        # registry so ``create_engine("parallel")`` works without the
        # caller importing repro.runtime.parallel explicitly.
        if not self._autoloaded:
            self._autoloaded = True
            try:
                import repro.runtime.parallel  # noqa: F401
            except ImportError:  # pragma: no cover - partial installs
                pass

    # -- tuple-compatible surface -------------------------------------
    def __contains__(self, kind: object) -> bool:
        return kind in self.kinds()

    def __iter__(self) -> Iterator[str]:
        return iter(self.kinds())

    def __len__(self) -> int:
        return len(self.kinds())

    def __getitem__(self, index: Any) -> Any:
        return self.kinds()[index]

    def __repr__(self) -> str:
        return repr(self.kinds())


#: The back ends :func:`create_engine` accepts (a live registry; new
#: kinds appear here when their module registers them).
ENGINE_KINDS = EngineRegistry()


def register_engine(
    kind: str,
    factory: Callable[..., "Engine"],
    *,
    options: Iterable[str] = (),
) -> None:
    """Register an engine kind with :data:`ENGINE_KINDS`."""
    ENGINE_KINDS.register(kind, factory, options=options)

PerDevice = Any  # List[np.ndarray]; kept loose to avoid import cycles
MeshLike = Union[int, Any]  # DeviceMesh or a bare device count

#: The ``tuned=`` spellings engines accept: a bool (``True`` = the
#: committed default database), a database path, or a TuningDB object.
TunedLike = Union[None, bool, str, Any]


def _num_devices(mesh: MeshLike) -> int:
    if isinstance(mesh, int):
        if mesh <= 0:
            raise ValueError("mesh device count must be positive")
        return mesh
    return mesh.num_devices


def resolve_tuned_module(
    module, mesh: MeshLike, db, tracer: Optional[Tracer] = None
):
    """Swap a raw module for its autotuned compilation when ``db`` holds
    a record for it.

    The lookup is content-addressed (:func:`repro.tune.db.tuning_key`):
    a *raw* module whose fingerprint was tuned — the serving catalog's
    programs, the bench harness's golden modules — resolves to the
    winning config's compilation (through the shared pipeline cache, so
    lowering still happens once per program). A module that was already
    pipeline-compiled fingerprints differently, misses, and passes
    through untouched — tuning never double-applies.
    """
    record = db.lookup(module, mesh)
    if record is None:
        if tracer is not None:
            tracer.count("tune.misses")
        return module
    if tracer is not None:
        tracer.count("tune.hits")
    from repro.core.pipeline import compile_module_cached
    from repro.sharding.mesh import DeviceMesh

    mesh_obj = DeviceMesh.ring(mesh) if isinstance(mesh, int) else mesh
    return compile_module_cached(
        module, mesh_obj, record.overlap_config()
    ).module


class Engine(abc.ABC):
    """One execution back end behind the unified ``run`` signature."""

    kind: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        module,
        inputs: Dict[str, Sequence[np.ndarray]],
        *,
        mesh: MeshLike,
        outputs: Optional[Sequence[str]] = None,
        iteration: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> Dict[str, PerDevice]:
        """Execute ``module`` with per-device shard lists ``inputs`` on
        ``mesh`` (a DeviceMesh or a device count); same output contract
        as ``Executor.run``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r}>"


class InterpretedEngine(Engine):
    """The per-device reference interpreter — the correctness oracle."""

    kind = "interpreted"

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer

    def run(
        self,
        module,
        inputs,
        *,
        mesh,
        outputs=None,
        iteration=0,
        tracer=None,
    ):
        from repro.runtime.executor import Executor

        executor = Executor(_num_devices(mesh), tracer=tracer or self.tracer)
        return executor.run(module, inputs, outputs, iteration)


class CompiledEngine(Engine):
    """The vectorized engine, fronted by a content-addressed plan cache.

    The plan cache is keyed on the module's content fingerprint — two
    separately built copies of the same program share one plan, and the
    cache can be shared across engines, serving workers and benchmark
    sweeps.

    ``tuned`` attaches a tuning database (``True`` = the committed
    default, a path, or a :class:`~repro.tune.db.TuningDB`): raw
    modules whose fingerprints were autotuned are compiled with their
    winning overlap config before lowering (see
    :func:`resolve_tuned_module`).
    """

    kind = "compiled"

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        donate_params: bool = True,
        tuned: TunedLike = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        from repro.tune.db import resolve_tuning_db

        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.donate_params = donate_params
        self.tuning_db = resolve_tuning_db(tuned)
        self.tracer = tracer

    def plan_for(
        self,
        module,
        num_devices: Optional[int] = None,
        outputs: Optional[Sequence[str]] = None,
        *,
        mesh: Optional[MeshLike] = None,
        tracer: Optional[Tracer] = None,
    ) -> CompiledPlan:
        """The cached lowered plan for ``module`` on ``num_devices``
        (or ``mesh``); lowers on first use."""
        if num_devices is None:
            if mesh is None:
                raise ValueError("plan_for needs num_devices or mesh")
            num_devices = _num_devices(mesh)
        key = plan_key(
            module,
            num_devices=num_devices,
            outputs=outputs,
            options=self._key_options(num_devices),
        )
        plan, hit = self.plan_cache.get_or_build(
            key, lambda: self._lower(module, num_devices, outputs)
        )
        tracer = tracer or self.tracer
        if tracer is not None:
            tracer.count("plan.cache_hits" if hit else "plan.cache_misses")
            if not hit:
                tracer.count("plan.donations", plan.stats.donations)
        return plan

    # The three things a subclass back end changes: what distinguishes
    # its plans in the cache, how it lowers, and how it runs a plan.

    def _key_options(self, num_devices: int) -> Tuple:
        return ("donate_params", self.donate_params)

    def _lower(self, module, num_devices: int, outputs) -> CompiledPlan:
        # Resolved per call so a caller that rebinds the module-level
        # name (the benchmark's span recorder) sees every lowering.
        from repro.runtime.compile import lower

        return lower(
            module, num_devices, outputs, donate_params=self.donate_params
        )

    def _run_plan(self, plan, inputs, iteration: int, tracer):
        return plan.run(inputs, iteration, tracer=tracer)

    def run(
        self,
        module,
        inputs,
        *,
        mesh,
        outputs=None,
        iteration=0,
        tracer=None,
    ):
        tracer = tracer or self.tracer
        # The caller indexes outputs by *their* module's root name; hold
        # on to it before tuned resolution may swap the module.
        root = module.root.name if module.root is not None else None
        if self.tuning_db is not None:
            module = resolve_tuned_module(
                module, mesh, self.tuning_db, tracer
            )
        plan = self.plan_for(
            module, _num_devices(mesh), outputs, tracer=tracer
        )
        values = self._run_plan(plan, inputs, iteration, tracer)
        if outputs is None and root is not None:
            # A content-cache hit returns the plan lowered from an
            # *earlier*, content-identical module whose auto-generated
            # root name differs; rekey the single root entry so callers
            # index by their own module's names. Explicit ``outputs``
            # names participate in the cache key, so they never alias.
            if root not in values and len(values) == 1:
                (value,) = values.values()
                return {root: value}
        return values


class ResilientEngine(Engine):
    """The fault-tolerant interpreter: retries, guardrails, typed errors.

    ``injector`` and ``policy`` are fixed at engine construction;
    ``last_stats`` holds the :class:`ResilienceStats` of the most recent
    ``run`` (per-call, so inspect it before the next submission when
    sharing the engine across threads).
    """

    kind = "resilient"

    def __init__(
        self,
        injector=None,
        policy=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.injector = injector
        self.policy = policy
        self.tracer = tracer
        self.last_stats: Optional["ResilienceStats"] = None

    def run(
        self,
        module,
        inputs,
        *,
        mesh,
        outputs=None,
        iteration=0,
        tracer=None,
    ):
        from repro.runtime.resilient import ResilientExecutor

        executor = ResilientExecutor(
            _num_devices(mesh),
            injector=self.injector,
            policy=self.policy,
            tracer=tracer or self.tracer,
        )
        values = executor.run(module, inputs, outputs, iteration)
        self.last_stats = executor.stats
        return values


register_engine("interpreted", InterpretedEngine, options=())
register_engine(
    "compiled",
    CompiledEngine,
    options=("plan_cache", "donate_params", "tuned"),
)
register_engine("resilient", ResilientEngine, options=("injector", "policy"))


def create_engine(
    kind: str = "compiled",
    *,
    tracer: Optional[Tracer] = None,
    plan_cache: Optional[PlanCache] = None,
    donate_params: bool = True,
    tuned: TunedLike = None,
    workers: Optional[int] = None,
    sanitize: bool = False,
    injector=None,
    policy=None,
) -> Engine:
    """The one way to obtain an execution engine.

    * ``"interpreted"`` — the per-device reference interpreter.
    * ``"compiled"`` — the vectorized engine behind a shared
      :class:`PlanCache` (pass ``plan_cache`` to share one cache across
      engines; ``donate_params=False`` forbids in-place parameter reuse;
      ``tuned`` attaches an autotuner database — ``True`` for the
      committed default, a path, or a ``TuningDB``).
    * ``"parallel"`` — the multi-worker shared-memory backend
      (``workers`` caps the worker threads; ``sanitize=True`` arms the
      runtime concurrency sanitizer, see
      :mod:`repro.runtime.parallel.sanitize`; also accepts
      ``plan_cache``, ``donate_params`` and ``tuned``).
    * ``"resilient"`` — the fault-tolerant interpreter (``injector`` and
      ``policy`` configure fault injection and the retry budget).

    Kinds come from the live :data:`ENGINE_KINDS` registry; options that
    do not apply to the requested kind are rejected, so a typo like
    ``create_engine("interpreted", injector=...)`` fails loudly instead
    of silently dropping the injector.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
        )
    provided: Dict[str, Any] = {}
    if plan_cache is not None:
        provided["plan_cache"] = plan_cache
    if donate_params is not True:
        provided["donate_params"] = donate_params
    if tuned is not None and tuned is not False:
        provided["tuned"] = tuned
    if workers is not None:
        provided["workers"] = workers
    if sanitize:
        provided["sanitize"] = sanitize
    if injector is not None:
        provided["injector"] = injector
    if policy is not None:
        provided["policy"] = policy
    spec = ENGINE_KINDS.spec(kind)
    for name in provided:
        if name not in spec.options:
            takers = ENGINE_KINDS.accepting(name)
            raise ValueError(
                f"{name} does not apply to {kind!r} engines"
                + (f" (only to {takers})" if takers else "")
            )
    return spec.factory(tracer=tracer, **provided)
