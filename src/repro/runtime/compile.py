"""One-time lowering of HLO modules to flat, vectorized CompiledPlans.

The reference :class:`~repro.runtime.executor.Executor` re-dispatches
every opcode on every run and executes each op device by device. This
module walks an :class:`HloModule` **once** and emits a
:class:`~repro.runtime.plan.CompiledPlan` — a straight list of closures
over device-stacked arrays — hoisting everything hoistable out of the
run loop:

* **opcode dispatch and attribute lookups** become closure captures;
* **ShardIndex evaluation** becomes a precomputed per-device offset
  vector (or, when iteration-dependent, one vectorized evaluation per
  call instead of one per device);
* **replica-group and permute-pair validation** runs at lowering time;
* **dead code elimination** drops instructions unreachable from the
  requested outputs;
* **constant folding** evaluates device-uniform constant subgraphs to
  read-only broadcast arrays materialized in the plan's initial
  environment;
* **common-subexpression elimination** reuses the slot of an identical
  earlier op;
* **buffer donation** lets a step overwrite a dead operand buffer in
  place (elementwise ops write with ``out=``; DynamicUpdateSlice updates
  its target without the defensive copy) and turns ``Copy`` ops and the
  ``collective-permute-start`` passthrough into zero-cost slot aliases.

Aliasing safety: every value tracks the *buffer* (view-chain base) it
lives in; a buffer is donated only when it is provably dead — its last
use, through every view of it, is the donating step — and never when it
holds a folded constant, a While-loop boundary value, or (for body
plans) a loop parameter. A runtime ``writeable`` guard backstops the
analysis.

Asynchronous permutes keep their issue-time snapshot semantics by
*immutability*, not by copying: the ``start`` step is a pure passthrough
of its operand, the operand buffer's liveness is extended to the matching
``done`` (so nothing may donate or release it while the transfer is in
flight), and the ``done`` materializes the permute into a hidden payload
slot. An eager copy at the start was measured and dropped: it allocates
the payload at issue and holds it across the whole in-flight window —
2160 minor page faults per ``mlp-chain@64`` step against 192 deferred,
28.0 vs 15.2 ms on the 64-device ring programs (DESIGN section 8).

This is the only single-threaded lowering. The multi-worker backend
(:mod:`repro.runtime.parallel.lowering`) runs the same front half through
:func:`_lower_with` and swaps only the emission; with one worker it
returns exactly the plan built here.

The per-device ``Executor`` remains the correctness oracle; the compiled
engine is cross-checked against it bit for bit by the equivalence suite.
Fault injection (``ResilientExecutor``) stays on the interpreted path,
which this module does not touch.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hlo.instruction import Instruction, ShardIndex
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode, SOURCE_OPS
from repro.obs.events import instruction_bytes, phase_of
from repro.obs.tracer import Tracer
from repro.runtime import vectorized
from repro.runtime.collectives import validate_permute_pairs
from repro.runtime.executor import ExecutionError, unknown_output_error
from repro.runtime.plan import (
    CompiledPlan,
    DonationRecord,
    ParamBinding,
    PlanStats,
    StepMeta,
)

_UFUNCS = {
    Opcode.ADD: np.add,
    Opcode.MULTIPLY: np.multiply,
    Opcode.MAXIMUM: np.maximum,
}

#: Ops whose stacked result is a numpy view of their operand's buffer.
_VIEW_OPS = frozenset({Opcode.RESHAPE, Opcode.TRANSPOSE, Opcode.SLICE})

#: Commutative binaries (operands sorted in the CSE key).
_COMMUTATIVE = frozenset({Opcode.ADD, Opcode.MULTIPLY, Opcode.MAXIMUM})


class _Buffer:
    """One physical stacked array; several view slots may share it."""

    __slots__ = ("donatable", "is_const", "last_use", "slots")

    def __init__(self, slot: int, donatable: bool, is_const: bool) -> None:
        self.donatable = donatable
        self.is_const = is_const
        self.last_use = -1
        self.slots = [slot]


class _Value:
    """One lowered SSA value: an env slot plus its owning buffer."""

    __slots__ = ("slot", "buffer", "shard")

    def __init__(
        self, slot: int, buffer: int, shard: Optional[np.ndarray] = None
    ) -> None:
        self.slot = slot
        self.buffer = buffer   # owner slot of the physical buffer
        self.shard = shard     # per-device-uniform constant when folded

    @property
    def folded(self) -> bool:
        return self.shard is not None


class _Node:
    """One executable step before closure emission."""

    __slots__ = ("instr", "operands", "out", "payload")

    def __init__(
        self,
        instr: Instruction,
        operands: List[_Value],
        out: _Value,
        payload: Optional[_Value] = None,
    ) -> None:
        self.instr = instr
        self.operands = operands
        self.out = out
        self.payload = payload  # hidden slot the matching done fills


def _resolve_outputs(
    module: HloModule, outputs: Optional[Sequence[str]]
) -> List[str]:
    if outputs is None:
        if module.root is None:
            raise ExecutionError(
                f"module {module.name!r} has no instructions to execute"
            )
        return [module.root.name]
    wanted = list(dict.fromkeys(outputs))
    for name in wanted:
        try:
            module.get(name)
        except KeyError:
            raise unknown_output_error(name, module) from None
    return wanted


# --- constant folding --------------------------------------------------------


def _fold(instr: Instruction, shards: List[Optional[np.ndarray]]):
    """Shard value of a device-uniform constant op, or None."""
    opcode = instr.opcode
    if opcode is Opcode.CONSTANT:
        return np.asarray(instr.attrs["value"], dtype=np.float64)
    if opcode is Opcode.ZEROS:
        return np.zeros(instr.shape.dims, dtype=np.float64)
    if opcode is Opcode.IOTA:
        return np.arange(
            instr.shape.num_elements, dtype=np.float64
        ).reshape(instr.shape.dims)
    if any(s is None for s in shards):
        return None
    if opcode is Opcode.ADD:
        return shards[0] + shards[1]
    if opcode is Opcode.MULTIPLY:
        return shards[0] * shards[1]
    if opcode is Opcode.MAXIMUM:
        return np.maximum(shards[0], shards[1])
    if opcode is Opcode.NEGATE:
        return -shards[0]
    if opcode is Opcode.COPY:
        return shards[0]
    if opcode is Opcode.EINSUM:
        return np.einsum(instr.attrs["equation"], shards[0], shards[1])
    if opcode is Opcode.RESHAPE:
        return shards[0].reshape(instr.shape.dims)
    if opcode is Opcode.TRANSPOSE:
        return np.transpose(shards[0], instr.attrs["perm"])
    if opcode is Opcode.SLICE:
        index = [slice(None)] * instr.operands[0].shape.rank
        index[instr.attrs["dim"]] = slice(
            instr.attrs["start"], instr.attrs["start"] + instr.attrs["size"]
        )
        return shards[0][tuple(index)]
    if opcode is Opcode.PAD:
        pad_width = [(0, 0)] * instr.operands[0].shape.rank
        pad_width[instr.attrs["dim"]] = (
            instr.attrs["low"], instr.attrs["high"]
        )
        return np.pad(
            shards[0], pad_width, constant_values=instr.attrs["value"]
        )
    if opcode is Opcode.CONCATENATE:
        return np.concatenate(shards, axis=instr.attrs["dim"])
    if opcode is Opcode.DYNAMIC_SLICE:
        start: ShardIndex = instr.attrs["start"]
        if start.device_dependent or start.iteration_dependent:
            return None
        offset = start.evaluate(0)
        index = [slice(None)] * instr.operands[0].shape.rank
        index[instr.attrs["dim"]] = slice(
            offset, offset + instr.attrs["size"]
        )
        return shards[0][tuple(index)]
    if opcode is Opcode.DYNAMIC_UPDATE_SLICE:
        start = instr.attrs["start"]
        if start.device_dependent or start.iteration_dependent:
            return None
        offset = start.evaluate(0)
        dim = instr.attrs["dim"]
        size = instr.operands[1].shape.dims[dim]
        index = [slice(None)] * instr.operands[0].shape.rank
        index[dim] = slice(offset, offset + size)
        target = shards[0].copy()
        target[tuple(index)] = shards[1]
        return target
    return None


# --- CSE ---------------------------------------------------------------------


def _attr_key(instr: Instruction) -> Optional[Tuple]:
    """Hashable attribute fingerprint; None disables CSE for the op."""
    opcode = instr.opcode
    attrs = instr.attrs
    if opcode in _COMMUTATIVE or opcode in (Opcode.NEGATE, Opcode.COPY):
        return ()
    if opcode is Opcode.EINSUM:
        return (attrs["equation"],)
    if opcode is Opcode.RESHAPE:
        return (instr.shape.dims,)
    if opcode is Opcode.TRANSPOSE:
        return (tuple(attrs["perm"]),)
    if opcode is Opcode.SLICE:
        return (attrs["dim"], attrs["start"], attrs["size"])
    if opcode is Opcode.PAD:
        return (attrs["dim"], attrs["low"], attrs["high"], attrs["value"])
    if opcode is Opcode.CONCATENATE:
        return (attrs["dim"],)
    if opcode is Opcode.DYNAMIC_SLICE:
        return (attrs["dim"], attrs["size"], attrs["start"])
    if opcode is Opcode.DYNAMIC_UPDATE_SLICE:
        return (attrs["dim"], attrs["start"])
    if opcode in (Opcode.ALL_GATHER, Opcode.REDUCE_SCATTER):
        return (attrs["dim"], tuple(map(tuple, attrs["groups"])))
    if opcode is Opcode.ALL_REDUCE:
        return (tuple(map(tuple, attrs["groups"])),)
    if opcode is Opcode.ALL_TO_ALL:
        return (
            attrs["split_dim"], attrs["concat_dim"],
            tuple(map(tuple, attrs["groups"])),
        )
    if opcode is Opcode.COLLECTIVE_PERMUTE:
        return (tuple(map(tuple, attrs["pairs"])),)
    return None  # While, async permutes, sources: never CSE'd.


def _operand_key(value: _Value) -> Tuple:
    if value.folded:
        return ("c", value.shard.shape, value.shard.tobytes())
    return ("s", value.slot)


# --- the lowering pass -------------------------------------------------------


class _Lowering:
    """Single-use state machine turning one module into a CompiledPlan."""

    def __init__(
        self,
        module: HloModule,
        num_devices: int,
        donate_params: bool,
        starts_with_live_done: frozenset,
        lower_body: Callable[[HloModule, Sequence[str]], CompiledPlan],
    ) -> None:
        self.module = module
        self.n = num_devices
        self.donate_params = donate_params
        self.starts_with_live_done = starts_with_live_done
        # Lowers a While body into the same plan flavour as this module.
        self.lower_body = lower_body
        self.values: Dict[int, _Value] = {}       # id(instr) -> value
        self.buffers: Dict[int, _Buffer] = {}     # owner slot -> buffer
        self.initial_env: List[Optional[np.ndarray]] = []
        self.nodes: List[_Node] = []
        self.start_nodes: Dict[int, _Node] = {}   # id(start instr) -> node
        self.output_values: List[_Value] = []
        self.params: List[ParamBinding] = []
        self.cse: Dict[Tuple, _Value] = {}
        self.folded = 0
        self.cse_eliminated = 0
        self.copies_elided = 0
        self.donations = 0
        self.donation_records: List[DonationRecord] = []
        # slot -> name of the instruction whose value lives there (the
        # CSE representative); lets donation records name real HLO values.
        self.slot_producer: Dict[int, str] = {}
        self.nested_stats: List[PlanStats] = []
        self.body_plans: List[CompiledPlan] = []
        # Shared with the emitted While steps so traced runs reach into
        # body plans; None outside execute_traced.
        self.tracer_box: List[Optional[Tracer]] = [None]

    # --- value plumbing ------------------------------------------------------

    def _new_slot(self) -> int:
        self.initial_env.append(None)
        return len(self.initial_env) - 1

    def _fresh(self, donatable: bool = True) -> _Value:
        slot = self._new_slot()
        self.buffers[slot] = _Buffer(slot, donatable, is_const=False)
        return _Value(slot, slot)

    def _const(self, shard: np.ndarray) -> _Value:
        slot = self._new_slot()
        self.buffers[slot] = _Buffer(slot, donatable=False, is_const=True)
        stacked = np.broadcast_to(shard, (self.n,) + shard.shape)
        self.initial_env[slot] = stacked
        return _Value(slot, slot, shard=shard)

    def _view(self, of: _Value) -> _Value:
        slot = self._new_slot()
        self.buffers[of.buffer].slots.append(slot)
        return _Value(slot, of.buffer)

    def _register(self, instr: Instruction, value: _Value) -> None:
        """Remember which instruction's value a slot holds. ``setdefault``
        keeps the CSE representative when a later duplicate maps here."""
        self.slot_producer.setdefault(value.slot, instr.name)

    def _record_donation(self, instr: Instruction, donated: _Value) -> None:
        self.donations += 1
        self.donation_records.append(
            DonationRecord(
                self.module.name,
                instr.name,
                self.slot_producer[donated.slot],
            )
        )

    # --- instruction walk ----------------------------------------------------

    def add_instruction(self, instr: Instruction) -> None:
        if instr.opcode is Opcode.PARAMETER:
            value = self._fresh(donatable=self.donate_params)
            self.values[id(instr)] = value
            self._register(instr, value)
            self.params.append(
                ParamBinding(instr.name, instr.shape, value.slot)
            )
            return

        operands = [self.values[id(op)] for op in instr.operands]

        shard = _fold(instr, [v.shard for v in operands])
        if shard is not None:
            value = self._const(shard)
            self.values[id(instr)] = value
            self._register(instr, value)
            if instr.opcode not in SOURCE_OPS:
                self.folded += 1
            return

        attr_key = _attr_key(instr)
        if attr_key is not None:
            operand_keys = [_operand_key(v) for v in operands]
            if instr.opcode in _COMMUTATIVE:
                operand_keys.sort()
            key = (instr.opcode, tuple(operand_keys), attr_key)
            hit = self.cse.get(key)
            if hit is not None:
                self.values[id(instr)] = hit
                self.cse_eliminated += 1
                return
        else:
            key = None

        node = self._make_node(instr, operands)
        self.values[id(instr)] = node.out
        self._register(instr, node.out)
        if node.payload is not None:
            self._register(instr, node.payload)
        if instr.opcode is Opcode.COLLECTIVE_PERMUTE_START:
            self.start_nodes[id(instr)] = node
        self.nodes.append(node)
        if key is not None:
            self.cse[key] = node.out

    def _make_node(
        self, instr: Instruction, operands: List[_Value]
    ) -> _Node:
        opcode = instr.opcode
        if opcode is Opcode.COPY:
            # Always an alias: donation analysis keeps every buffer with a
            # live view immutable, so the defensive copy is unnecessary.
            self.copies_elided += 1
            return _Node(instr, operands, self._view(operands[0]))
        if opcode in _VIEW_OPS:
            return _Node(instr, operands, self._view(operands[0]))
        if opcode is Opcode.COLLECTIVE_PERMUTE_START:
            out = self._view(operands[0])     # passthrough of the operand
            payload = (                       # where the transfer lands
                self._fresh()
                if id(instr) in self.starts_with_live_done else None
            )
            return _Node(instr, operands, out, payload=payload)
        if opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            start_node = self._start_node_of(instr)
            # The done fills the hidden payload slot and reveals it.
            return _Node(
                instr, [start_node.payload], self._view(start_node.payload)
            )
        if opcode is Opcode.WHILE:
            # The loop result may alias loop state (and body internals), so
            # neither the state buffers nor the result may ever be donated.
            for operand in operands:
                self.buffers[operand.buffer].donatable = False
            return _Node(instr, operands, self._fresh(donatable=False))
        return _Node(instr, operands, self._fresh())

    def _start_node_of(self, done: Instruction) -> _Node:
        return self.start_nodes[id(done.operands[0])]

    def lower_while_body(self, node: _Node) -> CompiledPlan:
        """Lower a While node's body and fold its stats, donation
        records and plan into this lowering's."""
        attrs = node.instr.attrs
        body_plan = self.lower_body(attrs["body"], attrs["body_outputs"])
        self.nested_stats.append(body_plan.stats)
        self.donation_records.extend(body_plan.donations)
        self.body_plans.append(body_plan)
        return body_plan

    # --- liveness ------------------------------------------------------------

    def compute_liveness(self, output_values: Sequence[_Value]) -> None:
        self.output_values = list(output_values)
        horizon = len(self.nodes)
        for t, node in enumerate(self.nodes):
            for value in node.operands:
                self.buffers[value.buffer].last_use = t
        for value in output_values:
            self.buffers[value.buffer].last_use = horizon

    def pin_async_operands(self) -> None:
        """Extend each async permute operand's liveness to its done step.

        The single-threaded start is a pure passthrough; the done reads
        the operand *then* — so the operand buffer must stay unreleased
        and undonated for the whole in-flight window (snapshot-at-issue
        by immutability). This can only remove donations, never
        unsoundly add one.
        """
        for t, node in enumerate(self.nodes):
            if node.instr.opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
                operand = self._start_node_of(node.instr).operands[0]
                buffer = self.buffers[operand.buffer]
                buffer.last_use = max(buffer.last_use, t)

    def release_index(self) -> Dict[int, List[int]]:
        """``step -> slots to free after it``: every slot of each
        non-constant buffer, filed under the buffer's last use (buffers
        in creation order). Build it after all liveness edits."""
        index: Dict[int, List[int]] = {}
        for buffer in self.buffers.values():
            if not buffer.is_const:
                index.setdefault(buffer.last_use, []).extend(buffer.slots)
        return index

    def may_donate(self, node_index: int, candidate: _Value,
                   others: Sequence[_Value]) -> bool:
        buffer = self.buffers[candidate.buffer]
        return (
            buffer.donatable
            and buffer.last_use == node_index
            and all(o.buffer != candidate.buffer for o in others)
        )

    # --- closure emission ----------------------------------------------------

    def emit(self, t: int, node: _Node):
        """Build the step closure for one node (dispatch happens HERE,
        once — never again at run time)."""
        instr = node.instr
        opcode = instr.opcode
        attrs = instr.attrs
        n = self.n
        slots = [v.slot for v in node.operands]
        so = node.out.slot

        if opcode in _UFUNCS:
            ufunc = _UFUNCS[opcode]
            s0, s1 = slots
            donate = None
            for candidate, other in ((0, 1), (1, 0)):
                if self.may_donate(
                    t, node.operands[candidate], [node.operands[other]]
                ):
                    donate = slots[candidate]
                    self._record_donation(instr, node.operands[candidate])
                    break
            if donate is None:
                def step(env, it):
                    env[so] = ufunc(env[s0], env[s1])
            else:
                def step(env, it):
                    out = env[donate]
                    if out.flags.writeable:
                        env[so] = ufunc(env[s0], env[s1], out=out)
                    else:
                        env[so] = ufunc(env[s0], env[s1])
            return step

        if opcode is Opcode.NEGATE:
            (s0,) = slots
            if self.may_donate(t, node.operands[0], []):
                self._record_donation(instr, node.operands[0])

                def step(env, it):
                    a = env[s0]
                    if a.flags.writeable:
                        env[so] = np.negative(a, out=a)
                    else:
                        env[so] = np.negative(a)
            else:
                def step(env, it):
                    env[so] = np.negative(env[s0])
            return step

        if opcode in (Opcode.COPY, Opcode.COLLECTIVE_PERMUTE_START):
            # A start only passes its operand through; the transfer is
            # materialized by the matching done (pin_async_operands keeps
            # the operand frozen until then). A start whose done is dead
            # has no payload and nothing to validate.
            if node.payload is not None:
                validate_permute_pairs(instr.pairs, n)
            (s0,) = slots

            def step(env, it):
                env[so] = env[s0]
            return step

        if opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            start_node = self._start_node_of(instr)
            s_operand = start_node.operands[0].slot
            (sp,) = slots                     # the hidden payload slot
            sources, destinations = vectorized.permute_index(
                start_node.instr.pairs
            )
            kernel = vectorized.deferred_permute(
                sources, destinations, start_node.instr.shape.stacked(n)
            )

            def step(env, it):
                out = kernel(env[s_operand])
                env[sp] = out
                env[so] = out
            return step

        if opcode is Opcode.RESHAPE:
            (s0,) = slots
            shape = instr.shape.stacked(n)

            def step(env, it):
                env[so] = env[s0].reshape(shape)
            return step

        if opcode is Opcode.TRANSPOSE:
            (s0,) = slots
            axes = (0,) + tuple(p + 1 for p in attrs["perm"])

            def step(env, it):
                env[so] = np.transpose(env[s0], axes)
            return step

        if opcode is Opcode.SLICE:
            (s0,) = slots
            index = [slice(None)] * (instr.operands[0].shape.rank + 1)
            index[attrs["dim"] + 1] = slice(
                attrs["start"], attrs["start"] + attrs["size"]
            )
            index = tuple(index)

            def step(env, it):
                env[so] = env[s0][index]
            return step

        if opcode is Opcode.PAD:
            (s0,) = slots
            pad_width = [(0, 0)] * (instr.operands[0].shape.rank + 1)
            pad_width[attrs["dim"] + 1] = (attrs["low"], attrs["high"])
            pad_width = tuple(pad_width)
            value = attrs["value"]

            def step(env, it):
                env[so] = np.pad(
                    env[s0], pad_width, constant_values=value
                )
            return step

        if opcode is Opcode.CONCATENATE:
            axis = attrs["dim"] + 1
            operand_slots = tuple(slots)

            def step(env, it):
                env[so] = np.concatenate(
                    [env[s] for s in operand_slots], axis=axis
                )
            return step

        if opcode is Opcode.EINSUM:
            equation = vectorized.batched_equation(attrs["equation"])
            s0, s1 = slots

            def step(env, it):
                env[so] = np.einsum(equation, env[s0], env[s1])
            return step

        if opcode is Opcode.DYNAMIC_SLICE:
            (s0,) = slots
            dim = attrs["dim"]
            size = attrs["size"]
            start: ShardIndex = attrs["start"]
            rank = instr.operands[0].shape.rank
            axis = dim + 1
            if start.iteration_dependent:
                def step(env, it):
                    index = vectorized.along_axis_index(
                        start.offsets(n, it), size, rank, dim
                    )
                    env[so] = np.take_along_axis(env[s0], index, axis=axis)
            else:
                index = vectorized.along_axis_index(
                    start.offsets(n), size, rank, dim
                )

                def step(env, it):
                    env[so] = np.take_along_axis(env[s0], index, axis=axis)
            return step

        if opcode is Opcode.DYNAMIC_UPDATE_SLICE:
            s0, s1 = slots
            dim = attrs["dim"]
            start = attrs["start"]
            size = instr.operands[1].shape.dims[dim]
            rank = instr.operands[0].shape.rank
            axis = dim + 1
            donate = self.may_donate(
                t, node.operands[0], [node.operands[1]]
            )
            if donate:
                self._record_donation(instr, node.operands[0])
            if start.iteration_dependent:
                def step(env, it):
                    target = env[s0]
                    if not (donate and target.flags.writeable):
                        target = target.copy()
                    index = vectorized.along_axis_index(
                        start.offsets(n, it), size, rank, dim
                    )
                    np.put_along_axis(target, index, env[s1], axis=axis)
                    env[so] = target
            else:
                index = vectorized.along_axis_index(
                    start.offsets(n), size, rank, dim
                )

                def step(env, it):
                    target = env[s0]
                    if not (donate and target.flags.writeable):
                        target = target.copy()
                    np.put_along_axis(target, index, env[s1], axis=axis)
                    env[so] = target
            return step

        if opcode is Opcode.WHILE:
            body_plan = self.lower_while_body(node)
            trip_count = attrs["trip_count"]
            result_index = attrs["result_index"]
            state_slots = tuple(slots)
            tracer_box = self.tracer_box

            def step(env, it):
                state = [env[s] for s in state_slots]
                tracer = tracer_box[0]
                if tracer is None:
                    for i in range(trip_count):
                        state = body_plan.execute(state, iteration=i)
                else:
                    for i in range(trip_count):
                        state = body_plan.execute_traced(state, i, tracer)
                env[so] = state[result_index]
            return step

        if opcode is Opcode.ALL_GATHER:
            (s0,) = slots
            index = vectorized.GroupIndex.build(n, instr.groups)
            dim = attrs["dim"]

            def step(env, it):
                env[so] = vectorized.all_gather(env[s0], dim, index)
            return step

        if opcode is Opcode.REDUCE_SCATTER:
            (s0,) = slots
            index = vectorized.GroupIndex.build(n, instr.groups)
            dim = attrs["dim"]

            def step(env, it):
                env[so] = vectorized.reduce_scatter(env[s0], dim, index)
            return step

        if opcode is Opcode.ALL_REDUCE:
            (s0,) = slots
            index = vectorized.GroupIndex.build(n, instr.groups)

            def step(env, it):
                env[so] = vectorized.all_reduce(env[s0], index)
            return step

        if opcode is Opcode.ALL_TO_ALL:
            (s0,) = slots
            index = vectorized.GroupIndex.build(n, instr.groups)
            split_dim = attrs["split_dim"]
            concat_dim = attrs["concat_dim"]

            def step(env, it):
                env[so] = vectorized.all_to_all(
                    env[s0], split_dim, concat_dim, index
                )
            return step

        if opcode is Opcode.COLLECTIVE_PERMUTE:
            (s0,) = slots
            validate_permute_pairs(instr.pairs, n)
            sources, destinations = vectorized.permute_index(instr.pairs)

            def step(env, it):
                env[so] = vectorized.collective_permute(
                    env[s0], sources, destinations
                )
            return step

        raise ExecutionError(f"unsupported opcode {opcode.value}")


def _live_set(module: HloModule, wanted: Sequence[str]) -> Dict[int, bool]:
    """Ids of instructions reachable from the requested outputs."""
    live: Dict[int, bool] = {}
    stack = [module.get(name) for name in wanted]
    while stack:
        instr = stack.pop()
        if id(instr) in live:
            continue
        live[id(instr)] = True
        stack.extend(instr.operands)
    return live


def _node_label(node: _Node, releases: Tuple[int, ...]) -> str:
    return (
        f"[{node.out.slot:3d}] {node.instr.name} = "
        f"{node.instr.opcode.value}"
        + (f" (free {list(releases)})" if releases else "")
    )


def _node_meta(node: _Node) -> StepMeta:
    instr = node.instr
    return StepMeta(
        name=instr.name,
        opcode=instr.opcode.value,
        kind=phase_of(instr.opcode),
        bytes=instruction_bytes(instr),
        transfer_of=(
            instr.operands[0].name
            if instr.opcode is Opcode.COLLECTIVE_PERMUTE_DONE
            else None
        ),
    )


def _with_releases(step, releases: Tuple[int, ...]):
    def wrapped(env, it):
        step(env, it)
        for slot in releases:
            env[slot] = None
    return wrapped


def _emit_steps(low: _Lowering) -> Dict[str, Any]:
    """The single-threaded emission: one closure (freeing the buffers
    that die at it), one label and one :class:`StepMeta` per node."""
    low.pin_async_operands()
    dying = low.release_index()
    steps, labels, metas = [], [], []
    for t, node in enumerate(low.nodes):
        step = low.emit(t, node)
        releases = tuple(
            s for s in dying.get(t, ()) if s != node.out.slot
        )
        if releases:
            step = _with_releases(step, releases)
        steps.append(step)
        labels.append(_node_label(node, releases))
        metas.append(_node_meta(node))
    return {"steps": steps, "labels": labels, "meta": metas}


def _lower_with(
    module: HloModule,
    num_devices: int,
    outputs: Optional[Sequence[str]],
    donate_params: bool,
    emit: Callable[[_Lowering], Dict[str, Any]],
    plan_type: Callable[..., CompiledPlan],
) -> CompiledPlan:
    """The one lowering front half, shared by every plan flavour.

    Verify, DCE, the instruction walk (folding, CSE, view tracking) and
    liveness run here; ``emit(low)`` then builds the step closures and
    returns the ``plan_type`` keywords it owns (``steps``/``labels``/
    ``meta``, plus the worker split for parallel plans). Stats are taken
    after emission because donations are decided and While bodies lowered
    there; bodies recurse with the same ``emit`` and ``plan_type``.
    """
    module.verify()
    wanted = _resolve_outputs(module, outputs)
    live = _live_set(module, wanted)
    # Parameters always get a binding (plan.run validates all arguments,
    # like the interpreter); a done keeps nothing extra alive — its start
    # is its operand, so reachability already covers it.
    instructions = [
        i for i in module
        if id(i) in live or i.opcode is Opcode.PARAMETER
    ]
    starts_with_live_done = frozenset(
        id(i.operands[0]) for i in instructions
        if i.opcode is Opcode.COLLECTIVE_PERMUTE_DONE
    )
    low = _Lowering(
        module, num_devices, donate_params, starts_with_live_done,
        lower_body=lambda body, body_outputs: _lower_with(
            body, num_devices, body_outputs, False, emit, plan_type
        ),
    )
    for instr in instructions:
        low.add_instruction(instr)
    output_values = [low.values[id(module.get(name))] for name in wanted]
    low.compute_liveness(output_values)

    emitted = emit(low)

    stats = PlanStats(
        instructions=len(instructions),
        steps=len(low.nodes),
        dce_eliminated=len(module) - len(instructions),
        folded=low.folded,
        cse_eliminated=low.cse_eliminated,
        copies_elided=low.copies_elided,
        donations=low.donations,
    )
    for nested in low.nested_stats:
        stats = stats.merge(nested)

    return plan_type(
        module_name=module.name,
        num_devices=num_devices,
        initial_env=low.initial_env,
        params=low.params,
        output_slots={
            name: value.slot for name, value in zip(wanted, output_values)
        },
        output_order=wanted,
        stats=stats,
        tracer_box=low.tracer_box,
        donations=tuple(low.donation_records),
        **emitted,
    )


def lower(
    module: HloModule,
    num_devices: int,
    outputs: Optional[Sequence[str]] = None,
    *,
    donate_params: bool = True,
) -> CompiledPlan:
    """Lower ``module`` once into a directly executable CompiledPlan.

    ``outputs`` selects which instruction values the plan materializes
    (default: the module root); everything unreachable from them is
    eliminated. ``donate_params=False`` forbids in-place reuse of the
    parameter buffers — used for While-body plans, whose parameters are
    loop-carried state owned by the enclosing plan.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    return _lower_with(
        module, num_devices, outputs, donate_params, _emit_steps,
        CompiledPlan,
    )
