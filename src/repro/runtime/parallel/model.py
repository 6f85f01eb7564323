"""The concurrency model a :class:`ParallelPlan` exports for analysis.

Lowering attaches one :class:`PlanModel` to every plan (and, recursively,
to every While body plan): per step and per worker, the list of shared
memory accesses, barrier arrivals and mailbox operations that worker's
baked closure performs. The static checker in
:mod:`repro.analysis.concurrency` replays this model to build a
happens-before relation; the runtime sanitizer uses the inline PIN/UNPIN
entries to checksum deferred-permute operands.

The model is built *after* emission by mirroring the emitter's per-opcode
dispatch on the same ``_Lowering`` analysis (donation decisions are
re-derived through the side-effect-free ``may_donate``), so it describes
exactly what the closures were compiled to do without instrumenting the
hot paths. Keep :func:`build_sliced_model` in sync with
``_SlicedEmitter.emit`` when adding opcodes.

Row sets are symbolic: ``"own"`` is the executing worker's device range
``[bounds[w], bounds[w+1])``, ``"all"`` is every row (only synchronous
collective kernels read foreign rows, and only between their entry and
exit barriers). Buffer ids are the lowering's physical buffer ids
(views share one id); the checker scopes them per plan instance and
arena parity when flattening While bodies.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hlo.opcode import Opcode
from repro.runtime.compile import _UFUNCS, _Lowering, _Node
from repro.runtime.parallel import shard_ops

# Op kinds.
READ = "read"
WRITE = "write"
BARRIER = "barrier"
POST = "post"
CONSUME = "consume"
PIN = "pin"      # deferred-permute operand must stay frozen ...
UNPIN = "unpin"  # ... until the matching done has read it.

# Row sets.
OWN = "own"
ALL = "all"

#: Opcodes whose worker closures touch no shared array elements (pure
#: views over an operand's memory).
_VIEW_OPCODES = frozenset(
    (Opcode.COPY, Opcode.TRANSPOSE, Opcode.SLICE)
)

#: Synchronous collectives: entry barrier, foreign-row reads, exit
#: barrier (see ``_SlicedEmitter._emit_sync_collective``).
_SYNC_COLLECTIVES = frozenset((
    Opcode.ALL_GATHER,
    Opcode.REDUCE_SCATTER,
    Opcode.ALL_REDUCE,
    Opcode.ALL_TO_ALL,
    Opcode.COLLECTIVE_PERMUTE,
))


@dataclasses.dataclass
class Op:
    """One shared-state operation of one worker's step closure.

    ``parity`` on POST/CONSUME: ``None`` means the runtime value
    ``iteration & 1``; a concrete int means the key is pinned to that
    cell (mutations use this to model parity-window corruption).
    ``slot`` is the env slot PIN/UNPIN bookkeeping needs at runtime.
    """

    kind: str
    buffer: Optional[int] = None
    rows: str = OWN
    donated: bool = False
    tid: Optional[int] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    parity: Optional[int] = None
    site: str = ""
    slot: Optional[int] = None


@dataclasses.dataclass
class StepModel:
    """One plan step: per-worker op tuples plus While metadata.

    For While steps ``body`` indexes ``plan.body_plans``; the body's
    flattened iterations precede this step's own ``ops`` (the final
    copy of the loop result into the While node's arena).
    """

    name: str
    opcode: str
    ops: Tuple[Tuple[Op, ...], ...]
    body: Optional[int] = None
    trip_count: int = 0
    state_buffers: Tuple[int, ...] = ()


@dataclasses.dataclass
class PlanModel:
    """The concurrency model of one lowered plan."""

    module_name: str
    uid: int
    workers: int
    num_devices: int
    bounds: Tuple[int, ...]
    steps: List[StepModel]
    param_buffers: Tuple[int, ...]
    output_buffers: Tuple[int, ...]


def _uniform(ops: Sequence[Op], workers: int) -> Tuple[Tuple[Op, ...], ...]:
    return (tuple(ops),) * workers


def _operand_reads(node: _Node, rows: str = OWN) -> List[Op]:
    return [Op(READ, buffer=v.buffer, rows=rows) for v in node.operands]


def _donated_ufunc_operand(low: _Lowering, t: int, node: _Node):
    for candidate, other in ((0, 1), (1, 0)):
        if low.may_donate(
            t, node.operands[candidate], [node.operands[other]]
        ):
            return node.operands[candidate]
    return None


def _plan_model(
    low: _Lowering,
    uid: int,
    workers: int,
    bounds: Tuple[int, ...],
    steps: List[StepModel],
) -> PlanModel:
    return PlanModel(
        module_name=low.module.name,
        uid=uid,
        workers=workers,
        num_devices=low.n,
        bounds=bounds,
        steps=steps,
        param_buffers=tuple(b.slot for b in low.params),
        output_buffers=tuple(v.buffer for v in low.output_values),
    )


def build_sliced_model(
    low: _Lowering,
    routes: Dict[int, Tuple[int, dict, object]],
    workers: int,
    bounds: Tuple[int, ...],
    uid: int,
) -> PlanModel:
    """Model of a multi-worker plan (mirror of ``_SlicedEmitter``)."""
    steps: List[StepModel] = []
    body_index = 0
    for t, node in enumerate(low.nodes):
        instr = node.instr
        opcode = instr.opcode
        so_buffer = node.out.buffer
        name = instr.name
        body: Optional[int] = None
        trip_count = 0
        state_buffers: Tuple[int, ...] = ()

        if opcode in _VIEW_OPCODES:
            ops = _uniform((), workers)
        elif opcode in _UFUNCS or opcode is Opcode.NEGATE:
            if opcode is Opcode.NEGATE:
                donated = (
                    node.operands[0]
                    if low.may_donate(t, node.operands[0], []) else None
                )
            else:
                donated = _donated_ufunc_operand(low, t, node)
            shared = _operand_reads(node)
            shared.append(Op(WRITE, buffer=so_buffer, rows=OWN))
            if donated is not None:
                shared.append(
                    Op(WRITE, buffer=donated.buffer, rows=OWN, donated=True)
                )
            ops = _uniform(shared, workers)
        elif opcode is Opcode.DYNAMIC_UPDATE_SLICE:
            shared = _operand_reads(node)
            shared.append(Op(WRITE, buffer=so_buffer, rows=OWN))
            if low.may_donate(t, node.operands[0], [node.operands[1]]):
                shared.append(
                    Op(WRITE, buffer=node.operands[0].buffer, rows=OWN,
                       donated=True)
                )
            ops = _uniform(shared, workers)
        elif opcode is Opcode.WHILE:
            body = body_index
            body_index += 1
            trip_count = int(instr.attrs["trip_count"])
            state_buffers = tuple(v.buffer for v in node.operands)
            ops = _uniform((Op(WRITE, buffer=so_buffer, rows=OWN),), workers)
        elif opcode in _SYNC_COLLECTIVES:
            shared = [Op(BARRIER, site=f"{name}:entry")]
            shared.extend(_operand_reads(node, rows=ALL))
            shared.append(Op(WRITE, buffer=so_buffer, rows=OWN))
            shared.append(Op(BARRIER, site=f"{name}:exit"))
            ops = _uniform(shared, workers)
        elif opcode is Opcode.COLLECTIVE_PERMUTE_START:
            if node.payload is None:
                # DCE'd done: the start degenerates to an alias.
                ops = _uniform((), workers)
            else:
                tid, _, _ = routes[id(instr)]
                outgoing, _ = shard_ops.route_pairs(instr.pairs, bounds)
                per_worker = []
                for w in range(workers):
                    wops = [
                        Op(READ, buffer=node.operands[0].buffer, rows=OWN)
                    ]
                    for v, _src_rows in outgoing.get(w, ()):
                        wops.append(Op(POST, tid=tid, src=w, dst=v))
                    per_worker.append(tuple(wops))
                ops = tuple(per_worker)
        elif opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            start_node = low._start_node_of(instr)
            tid, incoming, _ = routes[id(start_node.instr)]
            payload_buffer = node.operands[0].buffer
            per_worker = []
            for w in range(workers):
                wops: List[Op] = []
                for u, _dst_rows in incoming.get(w, ()):
                    wops.append(Op(CONSUME, tid=tid, src=u, dst=w))
                wops.append(Op(WRITE, buffer=payload_buffer, rows=OWN))
                per_worker.append(tuple(wops))
            ops = tuple(per_worker)
        else:
            # Row-sliced rewrites (reshape/pad/concat/einsum/dynamic
            # slice/...): own-row reads, own-row arena write.
            shared = _operand_reads(node)
            shared.append(Op(WRITE, buffer=so_buffer, rows=OWN))
            ops = _uniform(shared, workers)

        steps.append(StepModel(
            name=name,
            opcode=opcode.value,
            ops=ops,
            body=body,
            trip_count=trip_count,
            state_buffers=state_buffers,
        ))

    return _plan_model(low, uid, workers, bounds, steps)


def build_inline_model(low: _Lowering, uid: int) -> PlanModel:
    """Model of a single-worker plan.

    Only what the CC005 pin-window check needs: PIN at each deferred
    permute start (operand buffer must stay frozen), UNPIN at the
    matching done, and a WRITE per step that materializes data (view
    opcodes and the passthrough start touch nothing).
    """
    steps: List[StepModel] = []
    body_index = 0
    for node in low.nodes:
        instr = node.instr
        opcode = instr.opcode
        name = instr.name
        body: Optional[int] = None
        trip_count = 0
        state_buffers: Tuple[int, ...] = ()
        ops: List[Op] = []
        if opcode is Opcode.COLLECTIVE_PERMUTE_START:
            if node.payload is not None:
                operand = node.operands[0]
                ops.append(
                    Op(PIN, buffer=operand.buffer, slot=operand.slot)
                )
        elif opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            operand = low._start_node_of(instr).operands[0]
            ops.append(Op(UNPIN, buffer=operand.buffer, slot=operand.slot))
            ops.append(Op(WRITE, buffer=node.operands[0].buffer))
        elif opcode is Opcode.WHILE:
            body = body_index
            body_index += 1
            trip_count = int(instr.attrs["trip_count"])
            state_buffers = tuple(v.buffer for v in node.operands)
            ops.append(Op(WRITE, buffer=node.out.buffer))
        elif opcode not in _VIEW_OPCODES:
            ops.append(Op(WRITE, buffer=node.out.buffer))
        steps.append(StepModel(
            name=name,
            opcode=opcode.value,
            ops=(tuple(ops),),
            body=body,
            trip_count=trip_count,
            state_buffers=state_buffers,
        ))
    return _plan_model(low, uid, 1, (0, low.n), steps)


__all__ = [
    "ALL",
    "BARRIER",
    "CONSUME",
    "OWN",
    "Op",
    "PIN",
    "POST",
    "PlanModel",
    "READ",
    "StepModel",
    "UNPIN",
    "WRITE",
    "build_inline_model",
    "build_sliced_model",
]
