"""Functional multi-device executor for SPMD HLO programs.

Runs every device of the mesh in lock step, instruction by instruction, on
numpy arrays. Asynchronous CollectivePermutes follow their real semantics:
``collective-permute-start`` snapshots the operand at *issue* time, and the
matching ``done`` delivers the transferred value — so a schedule that
mutated the buffer between start and done would be caught as a numerical
mismatch, exactly the class of bug the paper's double-buffering unroll
exists to avoid.

This executor is the reproduction's correctness oracle: tests run the
original and the decomposed/overlapped modules side by side and assert the
outputs agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hlo.instruction import Instruction
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode
from repro.obs.events import (
    ASYNC_DONE,
    ASYNC_START,
    TRANSFER,
    instruction_bytes,
    phase_of,
)
from repro.obs.tracer import Tracer
from repro.runtime import collectives

PerDevice = List[np.ndarray]


class ExecutionError(RuntimeError):
    """Raised when a module cannot be executed."""


def unknown_output_error(name: str, module: HloModule) -> ExecutionError:
    """The typed error both executors raise for a bad ``outputs`` name."""
    candidates = ", ".join(i.name for i in module)
    return ExecutionError(
        f"unknown output {name!r}: no instruction of that name in module "
        f"{module.name!r}; candidates: {candidates}"
    )


def _replicated_readonly(value: np.ndarray, n: int) -> PerDevice:
    """One read-only array shared by every device.

    Safe for device-uniform sources because no opcode mutates its
    operands (DynamicUpdateSlice copies its target first); freezing the
    buffer turns any accidental in-place write into an explicit error
    instead of cross-device corruption.
    """
    value.flags.writeable = False
    return [value] * n


class Executor:
    """Executes an SPMD module on ``num_devices`` simulated devices.

    An optional :class:`~repro.obs.Tracer` records one wall-clock span
    per executed instruction (phase-classified, with fabric payload
    bytes on communication ops) plus a synthesized TRANSFER window per
    async permute pair covering issue → delivery. Without a tracer the
    run loop is untouched apart from one ``is None`` test.
    """

    def __init__(
        self, num_devices: int, tracer: Optional[Tracer] = None
    ) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        self.num_devices = num_devices
        self.tracer = tracer
        self._iteration = 0

    def run(
        self,
        module: HloModule,
        arguments: Dict[str, Sequence[np.ndarray]],
        outputs: Optional[Sequence[str]] = None,
        iteration: int = 0,
    ) -> Dict[str, PerDevice]:
        """Execute ``module``; return per-device values of selected results.

        ``arguments`` maps parameter names to per-device shard lists.
        ``outputs`` defaults to just the module root. ``iteration`` is the
        enclosing loop index (used by iteration-dependent ShardIndex
        expressions inside While bodies).
        """
        self._iteration = iteration
        module.verify()
        values: Dict[str, PerDevice] = {}
        in_flight: Dict[str, PerDevice] = {}

        for parameter in module.parameters():
            try:
                shards = arguments[parameter.name]
            except KeyError:
                raise ExecutionError(
                    f"missing argument for parameter {parameter.name!r}"
                ) from None
            if len(shards) != self.num_devices:
                raise ExecutionError(
                    f"parameter {parameter.name!r}: expected "
                    f"{self.num_devices} shards, got {len(shards)}"
                )
            for shard in shards:
                if tuple(shard.shape) != parameter.shape.dims:
                    raise ExecutionError(
                        f"parameter {parameter.name!r}: shard shape "
                        f"{shard.shape} != declared {parameter.shape.dims}"
                    )
            if all(
                isinstance(s, np.ndarray)
                and s.dtype == np.float64
                and s.flags.c_contiguous
                for s in shards
            ):
                # Already in execution form — binding is free.
                values[parameter.name] = list(shards)
            else:
                values[parameter.name] = [
                    np.asarray(s, dtype=np.float64) for s in shards
                ]

        tracer = self.tracer
        for instruction in module:
            if instruction.opcode is Opcode.PARAMETER:
                continue
            if tracer is None:
                values[instruction.name] = self._execute(
                    instruction, values, in_flight
                )
            else:
                values[instruction.name] = self._execute_traced(
                    instruction, values, in_flight, tracer
                )

        wanted = list(outputs) if outputs is not None else [module.root.name]
        for name in wanted:
            if name not in values:
                raise unknown_output_error(name, module)
        return {name: values[name] for name in wanted}

    # --- tracing ----------------------------------------------------------------

    def _execute_traced(
        self,
        instruction: Instruction,
        values: Dict[str, PerDevice],
        in_flight: Dict[str, PerDevice],
        tracer: Tracer,
    ) -> PerDevice:
        """Execute one instruction under the tracer: a span per op, a
        byte counter per collective, and a synthesized in-flight
        TRANSFER window per async permute pair. Nested execution (While
        bodies, resilient retries) records one level deeper."""
        start = tracer.now()
        depth = tracer.push()
        try:
            result = self._execute(instruction, values, in_flight)
        finally:
            tracer.pop()
        end = tracer.now()
        opcode = instruction.opcode
        kind = phase_of(opcode)
        nbytes = instruction_bytes(instruction)
        tracer.add(
            instruction.name, kind, "compute", start, end,
            bytes=nbytes, depth=depth,
        )
        if kind is ASYNC_START:
            tracer.count(f"bytes.{opcode.value}", nbytes)
            tracer.mark_issue(instruction.name, start)
        elif kind is ASYNC_DONE:
            origin = instruction.operands[0]
            tracer.add(
                origin.name, TRANSFER, f"link:{origin.name}",
                tracer.pop_issue(origin.name, default=start), end,
                bytes=nbytes, depth=0,
            )
        elif nbytes:
            tracer.count(f"bytes.{opcode.value}", nbytes)
        return result

    # --- per-opcode dispatch ----------------------------------------------------

    def _execute(
        self,
        instruction: Instruction,
        values: Dict[str, PerDevice],
        in_flight: Dict[str, PerDevice],
    ) -> PerDevice:
        opcode = instruction.opcode
        operands = [values[op.name] for op in instruction.operands]
        n = self.num_devices

        if opcode is Opcode.CONSTANT:
            # np.array (not asarray): freezing must not reach into attrs.
            value = np.array(instruction.attrs["value"], dtype=np.float64)
            return _replicated_readonly(value, n)
        if opcode is Opcode.ZEROS:
            return _replicated_readonly(
                np.zeros(instruction.shape.dims, dtype=np.float64), n
            )
        if opcode is Opcode.IOTA:
            flat = np.arange(instruction.shape.num_elements, dtype=np.float64)
            return _replicated_readonly(flat.reshape(instruction.shape.dims), n)

        if opcode is Opcode.EINSUM:
            equation = instruction.attrs["equation"]
            return [
                np.einsum(equation, operands[0][d], operands[1][d])
                for d in range(n)
            ]
        if opcode is Opcode.ADD:
            return [operands[0][d] + operands[1][d] for d in range(n)]
        if opcode is Opcode.MULTIPLY:
            return [operands[0][d] * operands[1][d] for d in range(n)]
        if opcode is Opcode.MAXIMUM:
            return [np.maximum(operands[0][d], operands[1][d]) for d in range(n)]
        if opcode is Opcode.NEGATE:
            return [-operands[0][d] for d in range(n)]
        if opcode is Opcode.COPY:
            return [operands[0][d].copy() for d in range(n)]

        if opcode is Opcode.RESHAPE:
            return [
                operands[0][d].reshape(instruction.shape.dims) for d in range(n)
            ]
        if opcode is Opcode.TRANSPOSE:
            perm = instruction.attrs["perm"]
            return [np.transpose(operands[0][d], perm) for d in range(n)]
        if opcode is Opcode.SLICE:
            dim = instruction.attrs["dim"]
            start = instruction.attrs["start"]
            size = instruction.attrs["size"]
            index = [slice(None)] * instruction.operands[0].shape.rank
            index[dim] = slice(start, start + size)
            return [operands[0][d][tuple(index)].copy() for d in range(n)]
        if opcode is Opcode.PAD:
            dim = instruction.attrs["dim"]
            pad_width = [(0, 0)] * instruction.operands[0].shape.rank
            pad_width[dim] = (instruction.attrs["low"], instruction.attrs["high"])
            value = instruction.attrs["value"]
            return [
                np.pad(operands[0][d], pad_width, constant_values=value)
                for d in range(n)
            ]
        if opcode is Opcode.CONCATENATE:
            dim = instruction.attrs["dim"]
            return [
                np.concatenate([operand[d] for operand in operands], axis=dim)
                for d in range(n)
            ]
        if opcode is Opcode.DYNAMIC_SLICE:
            dim = instruction.attrs["dim"]
            size = instruction.attrs["size"]
            start = instruction.attrs["start"]
            results = []
            for d in range(n):
                offset = start.evaluate(d, self._iteration)
                index = [slice(None)] * instruction.operands[0].shape.rank
                index[dim] = slice(offset, offset + size)
                results.append(operands[0][d][tuple(index)].copy())
            return results
        if opcode is Opcode.DYNAMIC_UPDATE_SLICE:
            dim = instruction.attrs["dim"]
            start = instruction.attrs["start"]
            update_size = instruction.operands[1].shape.dims[dim]
            results = []
            for d in range(n):
                target = operands[0][d].copy()
                offset = start.evaluate(d, self._iteration)
                index = [slice(None)] * instruction.operands[0].shape.rank
                index[dim] = slice(offset, offset + update_size)
                target[tuple(index)] = operands[1][d]
                results.append(target)
            return results
        if opcode is Opcode.WHILE:
            return self._execute_while(instruction, operands)

        if opcode is Opcode.ALL_GATHER:
            return collectives.all_gather(
                operands[0], instruction.attrs["dim"], instruction.groups
            )
        if opcode is Opcode.REDUCE_SCATTER:
            return collectives.reduce_scatter(
                operands[0], instruction.attrs["dim"], instruction.groups
            )
        if opcode is Opcode.ALL_REDUCE:
            return collectives.all_reduce(operands[0], instruction.groups)
        if opcode is Opcode.ALL_TO_ALL:
            return collectives.all_to_all(
                operands[0],
                instruction.attrs["split_dim"],
                instruction.attrs["concat_dim"],
                instruction.groups,
            )
        if opcode is Opcode.COLLECTIVE_PERMUTE:
            return collectives.collective_permute(operands[0], instruction.pairs)
        if opcode is Opcode.COLLECTIVE_PERMUTE_START:
            # Snapshot at issue time: later writes to the operand must not
            # affect the transfer (true async semantics).
            in_flight[instruction.name] = [v.copy() for v in operands[0]]
            return operands[0]
        if opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            start = instruction.operands[0]
            snapshot = in_flight.pop(start.name)
            return collectives.collective_permute(snapshot, start.pairs)

        raise ExecutionError(f"unsupported opcode {opcode.value}")

    def _execute_while(self, instruction: Instruction, operands) -> PerDevice:
        """Run a counted loop: feed the state through the body
        ``trip_count`` times, exposing the iteration index to the body's
        ShardIndex expressions."""
        body: HloModule = instruction.attrs["body"]
        body_outputs = instruction.attrs["body_outputs"]
        trip_count = instruction.attrs["trip_count"]
        result_index = instruction.attrs["result_index"]
        parameters = body.parameters()

        saved_iteration = self._iteration
        state = list(operands)
        try:
            for i in range(trip_count):
                arguments = {
                    parameter.name: state[index]
                    for index, parameter in enumerate(parameters)
                }
                results = self.run(
                    body, arguments, outputs=body_outputs, iteration=i
                )
                state = [results[name] for name in body_outputs]
        finally:
            self._iteration = saved_iteration
        return state[result_index]


def run_spmd(
    module: HloModule,
    arguments: Dict[str, Sequence[np.ndarray]],
    num_devices: int,
    outputs: Optional[Sequence[str]] = None,
) -> Dict[str, PerDevice]:
    """Convenience wrapper around :class:`Executor`."""
    return Executor(num_devices).run(module, arguments, outputs)
