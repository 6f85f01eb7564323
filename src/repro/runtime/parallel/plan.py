"""ParallelPlan: a lowered module executable by shard-partitioned workers.

A ParallelPlan extends :class:`~repro.runtime.plan.CompiledPlan` with a
second execution mode. With ``workers == 1`` it *is* the compiled plan —
same flat step list, same run loop, inherited unchanged — plus the
concurrency model (deferred-permute PIN/UNPIN windows) that the static
verifier and the opt-in pin-window sanitizer read.

With ``workers > 1`` the device-stacked execution is partitioned by
rows: worker ``w`` owns device rows ``[bounds[w], bounds[w+1])`` of
every stacked array and runs its own step list over a private slot
environment whose arrays are shared. Non-view steps write their rows
of a per-run arena array; synchronous collectives are bracketed by the
run barrier; async permutes post snapshot row-copies through the
:class:`~repro.runtime.parallel.mailbox.TransferMailbox`. numpy
releases the GIL on the hot kernels, so worker compute genuinely
overlaps — the transfer windows recorded from mailbox timestamps are
measured wall-clock, not simulated.

Determinism: every output row is written exactly once, by its owning
worker, from values that do not depend on scheduling (the restricted
kernels in :mod:`repro.runtime.parallel.shard_ops` preserve reduction
order), so repeated runs are byte-identical no matter how threads
interleave.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.events import ASYNC_DONE, TRANSFER
from repro.obs.tracer import Tracer
from repro.runtime.parallel.mailbox import TransferMailbox
from repro.runtime.parallel.sync import Aborted, RunContext, WorkerContext
from repro.runtime.plan import CompiledPlan, StepMeta

#: A multi-worker step: mutates the worker's environment (and its rows
#: of the shared arrays) in place.
WorkerStep = Callable[[WorkerContext, List[Optional[np.ndarray]], int], None]


class _WorkerRecorder:
    """Per-worker trace recorder: an append-only event list plus a depth
    counter, merged into the caller's (thread-unsafe) Tracer after the
    workers join. ``now`` is the caller tracer's clock — reading it
    cross-thread is safe, so all lanes share one time origin."""

    __slots__ = ("resource", "now", "depth", "events", "counters",
                 "count_enabled")

    def __init__(
        self, worker: int, now: Callable[[], float], count_enabled: bool
    ) -> None:
        self.resource = f"w{worker}"
        self.now = now
        self.depth = 0
        self.events: List[Tuple[str, str, str, float, float, int, int]] = []
        self.counters: Dict[str, int] = {}
        # Byte counters are per-instruction, not per-worker; only worker
        # 0 counts them so merged totals match the compiled engine.
        self.count_enabled = count_enabled

    def push(self) -> int:
        depth = self.depth
        self.depth += 1
        return depth

    def pop(self) -> None:
        self.depth -= 1

    def count(self, key: str, value: int) -> None:
        if self.count_enabled:
            self.counters[key] = self.counters.get(key, 0) + value

    def record(
        self, meta: StepMeta, start: float, end: float, depth: int
    ) -> None:
        # Each worker spans the same logical step; only worker 0's copy
        # carries the instruction's bytes, so byte-accounting lenses
        # (comm volume, counters) see each op once, not ``workers``
        # times. TRANSFER events are exempt: their payloads are disjoint
        # row ranges whose sizes genuinely sum to the full transfer.
        nbytes = meta.bytes if self.count_enabled else 0
        self.events.append(
            (meta.name, meta.kind, self.resource, start, end, nbytes, depth)
        )
        if nbytes and meta.kind != ASYNC_DONE:
            self.count(f"bytes.{meta.opcode}", nbytes)

    def transfer(
        self, origin: str, resource: str, start: float, end: float,
        nbytes: int,
    ) -> None:
        self.events.append((origin, TRANSFER, resource, start, end,
                            nbytes, 0))


def run_worker_steps(
    plan: "ParallelPlan",
    worker: int,
    wctx: WorkerContext,
    env: List[Optional[np.ndarray]],
    iteration: int,
) -> None:
    """One worker's pass over a (possibly nested) plan's step list."""
    steps = plan.worker_steps[worker]
    recorder = wctx.recorder
    sanitized = wctx.ctx.sanitizer is not None
    if recorder is None and not sanitized:
        for step in steps:
            step(wctx, env, iteration)
        return
    if recorder is None:
        # Sanitizer only: publish the step name so a barrier arrival can
        # be pinned to its plan site (the divergence check compares
        # these across workers).
        for step, meta in zip(steps, plan.meta):
            wctx.site = meta.name
            step(wctx, env, iteration)
        return
    for step, meta in zip(steps, plan.meta):
        if sanitized:
            wctx.site = meta.name
        start = recorder.now()
        depth = recorder.push()
        try:
            step(wctx, env, iteration)
        finally:
            recorder.pop()
        recorder.record(meta, start, recorder.now(), depth)


class ParallelPlan(CompiledPlan):
    """A lowered module with per-worker step lists (see module docs)."""

    def __init__(
        self,
        *,
        workers: int,
        bounds: Tuple[int, ...],
        worker_steps: Sequence[Sequence[WorkerStep]] = (),
        uid: int = 0,
        arena_spec: Optional[Dict[int, Tuple[int, ...]]] = None,
        body_plans: Sequence["ParallelPlan"] = (),
        model: Optional[Any] = None,
        **compiled: Any,
    ) -> None:
        """``compiled`` are :class:`CompiledPlan`'s own keywords."""
        super().__init__(**compiled)
        self.workers = workers
        self.bounds = bounds
        self.worker_steps: Tuple[Tuple[WorkerStep, ...], ...] = tuple(
            tuple(s) for s in worker_steps
        )
        self.uid = uid
        self.arena_spec: Dict[int, Tuple[int, ...]] = dict(arena_spec or {})
        self.body_plans: Tuple["ParallelPlan", ...] = tuple(body_plans)
        #: Concurrency model for repro.analysis.concurrency (a
        #: :class:`~repro.runtime.parallel.model.PlanModel`).
        self.model = model

    # --- execution ----------------------------------------------------

    #: Set per run() call; class default keeps cached plans cheap to
    #: share when the sanitizer is off.
    _sanitize = False

    def run(
        self,
        arguments,
        iteration: int = 0,
        tracer: Optional[Tracer] = None,
        *,
        sanitize: bool = False,
    ):
        """Validate/stack arguments and execute (see CompiledPlan.run).

        ``sanitize=True`` turns on the runtime concurrency sanitizer for
        this call (see :mod:`repro.runtime.parallel.sanitize`). The flag
        is stashed on the plan for the duration of the call, so don't
        share one plan between a sanitized and a concurrent unsanitized
        caller — the sanitizer is a debugging mode, not a serving mode.
        """
        if not sanitize:
            return super().run(arguments, iteration, tracer)
        self._sanitize = True
        try:
            return super().run(arguments, iteration, tracer)
        finally:
            self._sanitize = False

    def execute(
        self, stacked_args: Sequence[np.ndarray], iteration: int = 0
    ) -> List[np.ndarray]:
        if self.workers == 1:
            if self._sanitize:
                return self._execute_inline_sanitized(
                    stacked_args, iteration
                )
            return super().execute(stacked_args, iteration)
        return self._execute_parallel(
            stacked_args, iteration, None, sanitize=self._sanitize
        )

    def execute_traced(
        self,
        stacked_args: Sequence[np.ndarray],
        iteration: int,
        tracer: Tracer,
    ) -> List[np.ndarray]:
        if self.workers == 1:
            if self._sanitize:
                # Sanitized single-worker runs trade per-step spans for
                # the pin-window checks; the run still lands in the
                # trace as one SANITIZE summary span.
                from repro.obs.events import SANITIZE

                start = tracer.now()
                values = self._execute_inline_sanitized(
                    stacked_args, iteration
                )
                tracer.add(
                    self.module_name, SANITIZE, "sanitizer",
                    start, tracer.now(),
                )
                return values
            return super().execute_traced(stacked_args, iteration, tracer)
        return self._execute_parallel(
            stacked_args, iteration, tracer, sanitize=self._sanitize
        )

    def _execute_inline_sanitized(
        self, stacked_args: Sequence[np.ndarray], iteration: int
    ) -> List[np.ndarray]:
        """The CompiledPlan run loop plus CC005 pin-window checksums.

        After a deferred permute start, the operand array must stay
        bit-identical until the matching done reads it (the lowering
        pins its buffer against release and donation). A strided
        checksum armed at the start and verified at the done catches
        any step that mutates the window anyway.
        """
        from repro.runtime.parallel.sanitize import (
            checksum, verify_pin_window,
        )

        env: List[Optional[np.ndarray]] = self.initial_env.copy()
        for binding, value in zip(self.params, stacked_args):
            env[binding.slot] = value
        model = self.model
        step_models = model.steps if model is not None else []
        # slot -> (origin step, checksum, live pin count): overlapping
        # transfers may pin one operand more than once, and the window
        # stays armed until the last done unpins it.
        pins: Dict[int, Tuple[str, float, int]] = {}
        for index, step in enumerate(self.steps):
            ops = (
                step_models[index].ops[0]
                if index < len(step_models) else ()
            )
            for op in ops:
                if op.kind == "unpin" and op.slot in pins:
                    origin, expected, count = pins[op.slot]
                    verify_pin_window(
                        self.module_name, step_models[index].name,
                        (origin, expected), env[op.slot],
                    )
                    if count > 1:
                        pins[op.slot] = (origin, expected, count - 1)
                    else:
                        del pins[op.slot]
            step(env, iteration)
            for op in ops:
                if op.kind == "pin":
                    array = env[op.slot]
                    assert array is not None
                    if op.slot in pins:
                        origin, expected, count = pins[op.slot]
                        verify_pin_window(
                            self.module_name, step_models[index].name,
                            (origin, expected), array,
                        )
                        pins[op.slot] = (origin, expected, count + 1)
                    else:
                        pins[op.slot] = (step_models[index].name,
                                         checksum(array), 1)
        return [env[self.output_slots[name]] for name in self.output_order]

    def _layouts(self) -> List[Tuple["ParallelPlan", int]]:
        """Every (plan, parity count) needing arenas: this plan single-
        buffered, While bodies double-buffered (consecutive iterations
        read the previous parity's arrays while writing their own)."""
        layouts: List[Tuple["ParallelPlan", int]] = []

        def visit(plan: "ParallelPlan", parities: int) -> None:
            layouts.append((plan, parities))
            for body in plan.body_plans:
                visit(body, 2)

        visit(self, 1)
        return layouts

    def _execute_parallel(
        self,
        stacked_args: Sequence[np.ndarray],
        iteration: int,
        tracer: Optional[Tracer],
        sanitize: bool = False,
    ) -> List[np.ndarray]:
        workers = self.workers
        ctx = RunContext(workers)
        sanitizer = None
        if sanitize:
            from repro.runtime.parallel.sanitize import Sanitizer

            sanitizer = Sanitizer(self)
            sanitizer.check_bounds()
            sanitizer.install(ctx)
        if tracer is not None:
            ctx.clock = tracer.now
        mailbox = TransferMailbox(ctx)
        for plan, parities in self._layouts():
            ctx.arenas[plan.uid] = [
                {
                    slot: np.empty(shape, dtype=np.float64)
                    for slot, shape in plan.arena_spec.items()
                }
                for _ in range(parities)
            ]
        recorders: List[Optional[_WorkerRecorder]] = [None] * workers
        if tracer is not None:
            recorders = [
                _WorkerRecorder(w, tracer.now, count_enabled=(w == 0))
                for w in range(workers)
            ]
        envs: List[Optional[List[Optional[np.ndarray]]]] = [None] * workers

        def work(worker: int) -> None:
            try:
                if sanitizer is not None:
                    sanitizer.register_thread(worker)
                wctx = WorkerContext(
                    worker, self.bounds[worker], self.bounds[worker + 1],
                    ctx, mailbox,
                )
                wctx.arena = ctx.arenas[self.uid][0]
                wctx.recorder = recorders[worker]
                env: List[Optional[np.ndarray]] = self.initial_env.copy()
                for binding, value in zip(self.params, stacked_args):
                    env[binding.slot] = value
                envs[worker] = env
                run_worker_steps(self, worker, wctx, env, iteration)
            except Aborted:
                pass
            except BaseException as error:  # noqa: BLE001 - reraised below
                ctx.fail(error)

        threads = [
            threading.Thread(
                target=work, args=(w,), name=f"repro-worker-{w}", daemon=True
            )
            for w in range(1, workers)
        ]
        for thread in threads:
            thread.start()
        work(0)  # worker 0 runs on the caller thread
        for thread in threads:
            thread.join()
        if ctx.error is not None:
            raise ctx.error
        if tracer is not None:
            for recorder in recorders:
                assert recorder is not None
                for name, kind, resource, start, end, nbytes, depth in (
                    recorder.events
                ):
                    tracer.add(
                        name, kind, resource, start, end,
                        bytes=nbytes, depth=depth,
                    )
                for key, value in recorder.counters.items():
                    tracer.count(key, value)
        if sanitizer is not None and tracer is not None:
            sanitizer.emit_summary(tracer)
        env0 = envs[0]
        assert env0 is not None
        return [env0[self.output_slots[name]] for name in self.output_order]

    # --- introspection ------------------------------------------------

    def describe(self) -> str:
        return (
            f"parallel[workers={self.workers}, bounds={list(self.bounds)}] "
            + super().describe()
        )

    def __repr__(self) -> str:
        return (
            f"ParallelPlan({self.module_name!r}, {self.workers} workers, "
            f"{self.num_devices} devices)"
        )
