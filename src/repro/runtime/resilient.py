"""Resilient execution: timeouts, retries and graceful degradation.

:class:`ResilientExecutor` wraps the functional :class:`Executor` with
real delivery semantics for the asynchronous CollectivePermute pairs the
decomposed programs rely on:

* every ``collective-permute-done`` is a bounded retry loop with a
  per-attempt timeout and exponential backoff (timing is *virtual* —
  accumulated in :class:`ResilienceStats` — since the functional
  executor has no wall clock);
* every delivery passes an end-to-end checksum guardrail (the receiver
  verifies the payload against the sender's snapshot — the functional
  analogue of a link CRC), a shape guardrail, and a NaN/Inf guardrail;
  detected corruption triggers retransmission, never silent propagation;
* exhausted retries and downed links raise typed, seeded
  :class:`FaultError`\\ s.

:func:`run_with_fallback` adds graceful degradation on top: when a link
is flagged bad mid-run the decomposed looped-CollectiveEinsum program is
abandoned and the equivalent undecomposed ``AllGather``/``ReduceScatter``
program is re-executed from the last consistent boundary (the step's
immutable input arguments — the executor never mutates caller arrays).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np

from repro.faults.errors import (
    LINK_FAULTS,
    DeviceFailureError,
    FaultError,
    LinkDownError,
    PayloadCorruptionError,
    ShapeFaultError,
    TransferTimeoutError,
)
from repro.faults.injector import CLEAN, FaultInjector
from repro.hlo.instruction import Instruction
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode
from repro.obs.events import RETRY
from repro.obs.tracer import Tracer
from repro.runtime import collectives
from repro.runtime.executor import Executor, PerDevice


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for asynchronous permute delivery."""

    max_attempts: int = 4
    timeout: float = 1e-3          # seconds a done waits per attempt
    backoff_base: float = 1e-4     # first retry's extra wait
    backoff_factor: float = 2.0    # exponential growth per retry

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be non-negative, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be at least 1.0, got "
                f"{self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Extra wait before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor ** attempt


@dataclasses.dataclass
class ResilienceStats:
    """What the resilient executor absorbed during one run."""

    transfers: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    corrupt_deliveries: int = 0
    duplicate_deliveries: int = 0
    virtual_delay: float = 0.0     # seconds of simulated waiting
    compute_slowdown: float = 0.0  # straggler-inflated virtual seconds


class ResilientExecutor(Executor):
    """An :class:`Executor` whose async permutes can fail — and recover.

    Without an ``injector`` it behaves exactly like the base executor
    (the guardrails still run, so NaN/Inf and shape violations surface
    as typed errors instead of silent garbage).
    """

    def __init__(
        self,
        num_devices: int,
        injector: Optional[FaultInjector] = None,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(num_devices, tracer=tracer)
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.stats = ResilienceStats()
        self._transfer_ids: Dict[str, int] = {}

    @property
    def _seed(self) -> Optional[int]:
        return self.injector.seed if self.injector is not None else None

    # --- dispatch ---------------------------------------------------------------

    def _execute(
        self,
        instruction: Instruction,
        values: Dict[str, PerDevice],
        in_flight: Dict[str, PerDevice],
    ) -> PerDevice:
        if self.injector is not None:
            failure = self.injector.on_instruction()
            if failure is not None:
                raise DeviceFailureError(
                    f"device {failure.device} failed at instruction "
                    f"{failure.step} ({instruction.name})",
                    seed=self._seed,
                    device=failure.device,
                    step=failure.step,
                )
        if instruction.opcode is Opcode.COLLECTIVE_PERMUTE_START:
            result = super()._execute(instruction, values, in_flight)
            if self.injector is not None:
                self._transfer_ids[instruction.name] = (
                    self.injector.next_transfer_index()
                )
            return result
        if instruction.opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            return self._deliver(instruction, in_flight)
        result = super()._execute(instruction, values, in_flight)
        if self.injector is not None:
            for device in range(self.num_devices):
                factor = self.injector.compute_factor(device)
                if factor > 1.0:
                    self.stats.compute_slowdown += factor - 1.0
        return result

    # --- delivery with retry/timeout --------------------------------------------

    def _deliver(
        self,
        instruction: Instruction,
        in_flight: Dict[str, PerDevice],
    ) -> PerDevice:
        start = instruction.operands[0]
        snapshot = in_flight.pop(start.name)
        pairs = start.pairs
        direction = start.attrs.get("direction")
        index = self._transfer_ids.pop(start.name, 0)
        policy = self.policy
        tracer = self.tracer
        self.stats.transfers += 1
        if tracer is not None:
            tracer.count("transfers")

        def note_failed_attempt(attempt: int, why: str, begin: float) -> None:
            """Record one failed delivery attempt on the transfer's
            retry lane (wall-clock; the virtual backoff lives in stats)."""
            if tracer is not None:
                tracer.add(
                    f"{start.name}#attempt{attempt}:{why}", RETRY,
                    f"retry:{start.name}", begin, tracer.now(),
                )
                tracer.count(why)

        # Source-side NaN/Inf guard: a payload that is already corrupt at
        # the sender cannot be repaired by retransmission.
        for src, _ in pairs:
            if not np.all(np.isfinite(snapshot[src])):
                raise PayloadCorruptionError(
                    f"transfer {start.name}: non-finite payload at source "
                    f"device {src} before transmission",
                    seed=self._seed,
                    transfer=start.name,
                    device=src,
                )

        for attempt in range(policy.max_attempts):
            self.stats.attempts += 1
            attempt_begin = 0.0 if tracer is None else tracer.now()
            if attempt:
                self.stats.retries += 1
                self.stats.virtual_delay += policy.backoff(attempt - 1)
                if tracer is not None:
                    tracer.count("retries")
            outcome = (
                self.injector.transfer_outcome(index, attempt, direction)
                if self.injector is not None
                else CLEAN
            )
            if outcome.link_down:
                context = dict(transfer=start.name, pairs=list(pairs))
                if direction is not None:
                    context["direction"] = direction
                raise LinkDownError(
                    f"link carrying transfer {start.name} is down",
                    seed=self._seed,
                    **context,
                )
            if outcome.dropped or outcome.delay > policy.timeout:
                self.stats.timeouts += 1
                self.stats.virtual_delay += policy.timeout
                note_failed_attempt(attempt, "timeouts", attempt_begin)
                continue
            self.stats.virtual_delay += outcome.delay
            delivered = collectives.collective_permute(snapshot, pairs)
            if outcome.duplicated:
                # Idempotent delivery: the duplicate is byte-identical, so
                # the receiver keeps one copy and drops the other.
                self.stats.duplicate_deliveries += 1
            if outcome.corrupt is not None:
                victim = pairs[
                    int(self.injector.pick(len(pairs)))
                ][1]
                delivered[victim] = self.injector.corrupt_payload(
                    delivered[victim], outcome.corrupt
                )
                self.stats.corrupt_deliveries += 1
            self._check_shapes(instruction, delivered)
            if self._checksum_ok(snapshot, delivered, pairs):
                return delivered
            # Checksum mismatch: corrupted in flight — retransmit.
            note_failed_attempt(attempt, "checksum_failures", attempt_begin)
        context = dict(
            transfer=start.name, pairs=list(pairs), timeout=policy.timeout
        )
        if direction is not None:
            context["direction"] = direction
        raise TransferTimeoutError(
            f"transfer {start.name} failed after {policy.max_attempts} "
            f"attempts",
            seed=self._seed,
            **context,
        )

    # --- guardrails -------------------------------------------------------------

    def _check_shapes(
        self, instruction: Instruction, delivered: PerDevice
    ) -> None:
        expected = instruction.shape.dims
        for device, value in enumerate(delivered):
            if tuple(value.shape) != expected:
                raise ShapeFaultError(
                    f"transfer {instruction.name}: device {device} received "
                    f"shape {tuple(value.shape)}, expected {expected}",
                    seed=self._seed,
                    device=device,
                )

    @staticmethod
    def _checksum_ok(
        snapshot: PerDevice,
        delivered: PerDevice,
        pairs: Sequence,
    ) -> bool:
        """End-to-end integrity: each destination's payload must equal the
        sender's snapshot bit for bit (the functional stand-in for a link
        CRC — it also catches bit-flips that stay finite)."""
        for src, dst in pairs:
            if not np.array_equal(delivered[dst], snapshot[src]):
                return False
        return True

    def run(self, module, arguments, outputs=None, iteration=0):
        values = super().run(module, arguments, outputs, iteration)
        for name, shards in values.items():
            for device, shard in enumerate(shards):
                if not np.all(np.isfinite(shard)):
                    raise PayloadCorruptionError(
                        f"non-finite value in output {name!r} on device "
                        f"{device}",
                        seed=self._seed,
                        output=name,
                        device=device,
                    )
        return values


@dataclasses.dataclass
class ResilientResult:
    """Outcome of :func:`run_with_fallback`."""

    values: Dict[str, PerDevice]
    used_fallback: bool
    stats: ResilienceStats
    failure: Optional[FaultError]  # the link fault that forced fallback

    @property
    def root(self) -> PerDevice:
        """The per-device values of the (single) requested output."""
        (shards,) = self.values.values()
        return shards


def run_with_fallback(
    primary: HloModule,
    fallback: HloModule,
    arguments: Dict[str, Sequence[np.ndarray]],
    num_devices: int,
    *,
    injector: Optional[FaultInjector] = None,
    policy: Optional[RetryPolicy] = None,
    outputs: Optional[Sequence[str]] = None,
    tracer: Optional[Tracer] = None,
) -> ResilientResult:
    """Execute ``primary`` resiliently; degrade to ``fallback`` on link
    faults.

    ``primary`` is the compiled (decomposed, permute-based) program;
    ``fallback`` the equivalent undecomposed program whose bulk
    collectives do not use the failed point-to-point route. When the
    resilient executor flags a link bad (retry budget exhausted or a
    persistent link-down), execution restarts from the last consistent
    boundary — the immutable step inputs — on the fallback program.
    Non-link faults (device failure, unrepairable corruption) propagate:
    no program rewrite survives a dead device.
    """
    executor = ResilientExecutor(
        num_devices, injector=injector, policy=policy, tracer=tracer
    )
    try:
        values = executor.run(primary, arguments, outputs=outputs)
        return ResilientResult(
            values=values,
            used_fallback=False,
            stats=executor.stats,
            failure=None,
        )
    except LINK_FAULTS as failure:
        if tracer is not None:
            tracer.count("fallbacks")
        fallback_executor = Executor(num_devices, tracer=tracer)
        try:
            values = fallback_executor.run(
                fallback, arguments, outputs=outputs
            )
        except FaultError as second:
            # The fallback executor has no injector, so a fault raised
            # here (malformed permute, replica-group violation, ...)
            # carries no seed of its own — but it still happened under
            # the original seeded schedule. Stamp that seed on so the
            # chaos harness classifies it typed-and-replayable.
            raise second.attach_seed(
                injector.seed if injector is not None else None
            )
        return ResilientResult(
            values=values,
            used_fallback=True,
            stats=executor.stats,
            failure=failure,
        )
