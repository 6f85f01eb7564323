"""Lowering HLO modules to :class:`ParallelPlan`s.

The whole single-pass analysis of :mod:`repro.runtime.compile` — DCE,
constant folding, CSE, view-chain buffer tracking, liveness and
donation — runs once, in :func:`~repro.runtime.compile._lower_with`;
this module supplies only the emission:

* ``workers == 1``: the compiled engine's own emission, unchanged (its
  async permutes are already deferred: passthrough start, operand pinned
  until the done materializes the permute). The plan differs from
  :func:`~repro.runtime.compile.lower`'s only in carrying the
  concurrency model the verifier and the pin-window sanitizer read.

* ``workers > 1``: each worker gets its own step list writing only the
  device rows it owns. Elementwise/window ops slice the shared stacked
  arrays by row range; synchronous collectives run worker-restricted
  kernels between the run barrier's entry and exit waits; async permute
  starts post snapshot row-copies into the mailbox and dones consume
  them. While bodies are lowered recursively with the same worker
  split and execute out of parity-double-buffered arenas.

Donation carries over to both modes unchanged: decisions are made once
per node (on the shared analysis), in-place writes touch only the
owner's rows, and the barrier bracketing orders every foreign-row read
before any later overwrite.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hlo.instruction import ShardIndex
from repro.hlo.module import HloModule
from repro.hlo.opcode import Opcode
from repro.runtime import vectorized
from repro.runtime.collectives import validate_permute_pairs
from repro.runtime.compile import (
    _UFUNCS,
    _Lowering,
    _Node,
    _emit_steps,
    _lower_with,
    _node_label,
    _node_meta,
)
from repro.runtime.executor import ExecutionError
from repro.runtime.parallel import shard_ops
from repro.runtime.parallel.model import (
    build_inline_model,
    build_sliced_model,
)
from repro.runtime.parallel.plan import (
    ParallelPlan,
    WorkerStep,
    run_worker_steps,
)


class _Counters:
    """Identifiers shared across one lowering tree (outer plan plus all
    nested While bodies): arena uids and mailbox transfer ids."""

    def __init__(self) -> None:
        self.uids = itertools.count()
        self.tids = itertools.count()


def lower_parallel(
    module: HloModule,
    num_devices: int,
    outputs: Optional[Sequence[str]] = None,
    *,
    workers: int = 1,
    donate_params: bool = True,
) -> ParallelPlan:
    """Lower ``module`` once into a :class:`ParallelPlan`.

    ``workers`` is clamped to ``[1, num_devices]``; a single worker
    yields the compiled plan with its concurrency model attached.
    """
    if num_devices <= 0:
        raise ValueError("num_devices must be positive")
    workers = max(1, min(int(workers), num_devices))
    bounds = _worker_bounds(num_devices, workers)
    counters = _Counters()

    def emit(low: _Lowering) -> Dict[str, Any]:
        uid = next(counters.uids)   # before emission: bodies number after
        if workers == 1:
            emitted = _emit_steps(low)
            emitted["model"] = build_inline_model(low, uid)
        else:
            emitter = _SlicedEmitter(low, workers, bounds, counters)
            worker_steps, labels, metas = emitter.emit_all()
            emitted = {
                "steps": (),
                "worker_steps": worker_steps,
                "labels": labels,
                "meta": metas,
                "arena_spec": emitter.arena_spec,
                "model": build_sliced_model(
                    low, emitter.routes, workers, bounds, uid
                ),
            }
        return dict(
            emitted, workers=workers, bounds=bounds, uid=uid,
            body_plans=low.body_plans,
        )

    return _lower_with(
        module, num_devices, outputs, donate_params, emit, ParallelPlan
    )


def _worker_bounds(num_devices: int, workers: int) -> Tuple[int, ...]:
    """Contiguous row split: worker ``w`` owns ``[bounds[w], bounds[w+1])``."""
    return tuple(num_devices * w // workers for w in range(workers + 1))


# --- multi-worker (sliced) emission -----------------------------------------


class _SlicedEmitter:
    """Emits one step closure per (node, worker) writing only the rows
    that worker owns. Donation decisions are made once per node on the
    shared analysis, then baked into every worker's closure."""

    def __init__(
        self,
        low: _Lowering,
        workers: int,
        bounds: Tuple[int, ...],
        counters: _Counters,
    ) -> None:
        self.low = low
        self.workers = workers
        self.bounds = bounds
        self.counters = counters
        self.arena_spec: Dict[int, Tuple[int, ...]] = {}
        # id(start instruction) -> (tid, incoming routes, destinations)
        self.routes: Dict[int, Tuple[int, dict, np.ndarray]] = {}

    def emit_all(self):
        worker_steps: List[List[WorkerStep]] = [
            [] for _ in range(self.workers)
        ]
        labels, metas = [], []
        for t, node in enumerate(self.low.nodes):
            for w, step in enumerate(self.emit(t, node)):
                worker_steps[w].append(step)
            labels.append(_node_label(node, ()))
            metas.append(_node_meta(node))
        return worker_steps, labels, metas

    # -- helpers -------------------------------------------------------

    def _ranges(self):
        return [
            (w, self.bounds[w], self.bounds[w + 1])
            for w in range(self.workers)
        ]

    def _arena(self, node: _Node, slot: Optional[int] = None) -> None:
        target = node.out.slot if slot is None else slot
        self.arena_spec[target] = node.instr.shape.stacked(self.low.n)

    def _alias(self, s0: int, so: int) -> List[WorkerStep]:
        def step(wctx, env, it):
            env[so] = env[s0]

        return [step] * self.workers

    # -- dispatch ------------------------------------------------------

    def emit(self, t: int, node: _Node) -> List[WorkerStep]:
        instr = node.instr
        opcode = instr.opcode
        attrs = instr.attrs
        n = self.low.n
        slots = [v.slot for v in node.operands]
        so = node.out.slot

        if opcode in _UFUNCS:
            return self._emit_ufunc(t, node, _UFUNCS[opcode])

        if opcode is Opcode.NEGATE:
            return self._emit_negate(t, node)

        if opcode is Opcode.COPY:
            return self._alias(slots[0], so)

        if opcode is Opcode.RESHAPE:
            # ``.reshape`` on a non-contiguous view would silently copy,
            # giving each worker a private array whose foreign rows are
            # unsynchronized garbage — materialize rows into a shared
            # arena instead.
            (s0,) = slots
            shard_shape = tuple(instr.shape.dims)
            self._arena(node)
            steps = []
            for _, lo, hi in self._ranges():
                sl = slice(lo, hi)
                rows = (hi - lo,) + shard_shape

                def step(wctx, env, it, s0=s0, so=so, sl=sl, rows=rows):
                    out = wctx.arena[so]
                    out[sl] = env[s0][sl].reshape(rows)
                    env[so] = out

                steps.append(step)
            return steps

        if opcode is Opcode.TRANSPOSE:
            (s0,) = slots
            axes = (0,) + tuple(p + 1 for p in attrs["perm"])

            def step(wctx, env, it):
                env[so] = np.transpose(env[s0], axes)

            return [step] * self.workers

        if opcode is Opcode.SLICE:
            (s0,) = slots
            index = [slice(None)] * (instr.operands[0].shape.rank + 1)
            index[attrs["dim"] + 1] = slice(
                attrs["start"], attrs["start"] + attrs["size"]
            )
            index_t = tuple(index)

            def step(wctx, env, it):
                env[so] = env[s0][index_t]

            return [step] * self.workers

        if opcode is Opcode.PAD:
            (s0,) = slots
            pad_width = [(0, 0)] * (instr.operands[0].shape.rank + 1)
            pad_width[attrs["dim"] + 1] = (attrs["low"], attrs["high"])
            pad_t = tuple(pad_width)
            value = attrs["value"]
            self._arena(node)
            steps = []
            for _, lo, hi in self._ranges():
                sl = slice(lo, hi)

                def step(wctx, env, it, s0=s0, so=so, sl=sl):
                    out = wctx.arena[so]
                    out[sl] = np.pad(
                        env[s0][sl], pad_t, constant_values=value
                    )
                    env[so] = out

                steps.append(step)
            return steps

        if opcode is Opcode.CONCATENATE:
            axis = attrs["dim"] + 1
            operand_slots = tuple(slots)
            self._arena(node)
            steps = []
            for _, lo, hi in self._ranges():
                sl = slice(lo, hi)

                def step(wctx, env, it, sl=sl):
                    out = wctx.arena[so]
                    np.concatenate(
                        [env[s][sl] for s in operand_slots],
                        axis=axis,
                        out=out[sl],
                    )
                    env[so] = out

                steps.append(step)
            return steps

        if opcode is Opcode.EINSUM:
            equation = vectorized.batched_equation(attrs["equation"])
            s0, s1 = slots
            self._arena(node)
            steps = []
            for _, lo, hi in self._ranges():
                sl = slice(lo, hi)

                def step(wctx, env, it, sl=sl):
                    out = wctx.arena[so]
                    np.einsum(equation, env[s0][sl], env[s1][sl],
                              out=out[sl])
                    env[so] = out

                steps.append(step)
            return steps

        if opcode is Opcode.DYNAMIC_SLICE:
            return self._emit_dynamic_slice(node)

        if opcode is Opcode.DYNAMIC_UPDATE_SLICE:
            return self._emit_dynamic_update_slice(t, node)

        if opcode is Opcode.WHILE:
            return self._emit_while(node)

        if opcode is Opcode.ALL_GATHER:
            index = vectorized.GroupIndex.build(n, instr.groups)
            return self._emit_sync_collective(
                node,
                lambda lo, hi: shard_ops.make_all_gather(
                    index, attrs["dim"], lo, hi
                ),
            )

        if opcode is Opcode.REDUCE_SCATTER:
            index = vectorized.GroupIndex.build(n, instr.groups)
            # Divisibility check once at lowering, like the full kernel.
            if instr.operands[0].shape.dims[attrs["dim"]] % index.group_size:
                raise ExecutionError(
                    f"{instr.name}: dimension {attrs['dim']} not divisible "
                    f"by group size {index.group_size}"
                )
            return self._emit_sync_collective(
                node,
                lambda lo, hi: shard_ops.make_reduce_scatter(
                    index, attrs["dim"], lo, hi
                ),
            )

        if opcode is Opcode.ALL_REDUCE:
            index = vectorized.GroupIndex.build(n, instr.groups)
            return self._emit_sync_collective(
                node,
                lambda lo, hi: shard_ops.make_all_reduce(index, lo, hi),
            )

        if opcode is Opcode.ALL_TO_ALL:
            index = vectorized.GroupIndex.build(n, instr.groups)
            return self._emit_sync_collective(
                node,
                lambda lo, hi: shard_ops.make_all_to_all(
                    index, attrs["split_dim"], attrs["concat_dim"], lo, hi
                ),
            )

        if opcode is Opcode.COLLECTIVE_PERMUTE:
            validate_permute_pairs(instr.pairs, n)
            sources, destinations = vectorized.permute_index(instr.pairs)
            return self._emit_sync_collective(
                node,
                lambda lo, hi: shard_ops.make_collective_permute(
                    sources, destinations, lo, hi
                ),
            )

        if opcode is Opcode.COLLECTIVE_PERMUTE_START:
            return self._emit_permute_start(node)

        if opcode is Opcode.COLLECTIVE_PERMUTE_DONE:
            return self._emit_permute_done(node)

        raise ExecutionError(f"unsupported opcode {opcode.value}")

    # -- per-opcode emitters -------------------------------------------

    def _emit_ufunc(self, t: int, node: _Node, ufunc) -> List[WorkerStep]:
        s0, s1 = [v.slot for v in node.operands]
        so = node.out.slot
        self._arena(node)
        donate = None
        for candidate, other in ((0, 1), (1, 0)):
            if self.low.may_donate(
                t, node.operands[candidate], [node.operands[other]]
            ):
                donate = node.operands[candidate].slot
                self.low._record_donation(
                    node.instr, node.operands[candidate]
                )
                break
        steps = []
        for _, lo, hi in self._ranges():
            sl = slice(lo, hi)
            if donate is None:
                def step(wctx, env, it, sl=sl):
                    out = wctx.arena[so]
                    ufunc(env[s0][sl], env[s1][sl], out=out[sl])
                    env[so] = out
            else:
                def step(wctx, env, it, sl=sl, sd=donate):
                    target = env[sd]
                    if target.flags.writeable:
                        ufunc(env[s0][sl], env[s1][sl], out=target[sl])
                        env[so] = target
                    else:
                        out = wctx.arena[so]
                        ufunc(env[s0][sl], env[s1][sl], out=out[sl])
                        env[so] = out
            steps.append(step)
        return steps

    def _emit_negate(self, t: int, node: _Node) -> List[WorkerStep]:
        (s0,) = [v.slot for v in node.operands]
        so = node.out.slot
        self._arena(node)
        donate = self.low.may_donate(t, node.operands[0], [])
        if donate:
            self.low._record_donation(node.instr, node.operands[0])
        steps = []
        for _, lo, hi in self._ranges():
            sl = slice(lo, hi)
            if donate:
                def step(wctx, env, it, sl=sl):
                    target = env[s0]
                    if target.flags.writeable:
                        np.negative(target[sl], out=target[sl])
                        env[so] = target
                    else:
                        out = wctx.arena[so]
                        np.negative(target[sl], out=out[sl])
                        env[so] = out
            else:
                def step(wctx, env, it, sl=sl):
                    out = wctx.arena[so]
                    np.negative(env[s0][sl], out=out[sl])
                    env[so] = out
            steps.append(step)
        return steps

    def _emit_dynamic_slice(self, node: _Node) -> List[WorkerStep]:
        instr = node.instr
        attrs = instr.attrs
        (s0,) = [v.slot for v in node.operands]
        so = node.out.slot
        dim = attrs["dim"]
        size = attrs["size"]
        start: ShardIndex = attrs["start"]
        rank = instr.operands[0].shape.rank
        axis = dim + 1
        n = self.low.n
        self._arena(node)
        steps = []
        for _, lo, hi in self._ranges():
            sl = slice(lo, hi)
            if start.iteration_dependent:
                def step(wctx, env, it, sl=sl, lo=lo, hi=hi):
                    index = vectorized.along_axis_index(
                        start.offsets(n, it)[lo:hi], size, rank, dim
                    )
                    out = wctx.arena[so]
                    out[sl] = np.take_along_axis(
                        env[s0][sl], index, axis=axis
                    )
                    env[so] = out
            else:
                index_w = vectorized.along_axis_index(
                    start.offsets(n)[lo:hi], size, rank, dim
                )

                def step(wctx, env, it, sl=sl, index_w=index_w):
                    out = wctx.arena[so]
                    out[sl] = np.take_along_axis(
                        env[s0][sl], index_w, axis=axis
                    )
                    env[so] = out
            steps.append(step)
        return steps

    def _emit_dynamic_update_slice(
        self, t: int, node: _Node
    ) -> List[WorkerStep]:
        instr = node.instr
        attrs = instr.attrs
        s0, s1 = [v.slot for v in node.operands]
        so = node.out.slot
        dim = attrs["dim"]
        start: ShardIndex = attrs["start"]
        size = instr.operands[1].shape.dims[dim]
        rank = instr.operands[0].shape.rank
        axis = dim + 1
        n = self.low.n
        self._arena(node)
        donate = self.low.may_donate(t, node.operands[0], [node.operands[1]])
        if donate:
            self.low._record_donation(instr, node.operands[0])
        steps = []
        for _, lo, hi in self._ranges():
            sl = slice(lo, hi)
            if start.iteration_dependent:
                def step(wctx, env, it, sl=sl, lo=lo, hi=hi,
                         donate=donate):
                    target = env[s0]
                    if donate and target.flags.writeable:
                        dst = target
                    else:
                        dst = wctx.arena[so]
                        dst[sl] = target[sl]
                    index = vectorized.along_axis_index(
                        start.offsets(n, it)[lo:hi], size, rank, dim
                    )
                    np.put_along_axis(dst[sl], index, env[s1][sl],
                                      axis=axis)
                    env[so] = dst
            else:
                index_w = vectorized.along_axis_index(
                    start.offsets(n)[lo:hi], size, rank, dim
                )

                def step(wctx, env, it, sl=sl, index_w=index_w,
                         donate=donate):
                    target = env[s0]
                    if donate and target.flags.writeable:
                        dst = target
                    else:
                        dst = wctx.arena[so]
                        dst[sl] = target[sl]
                    np.put_along_axis(dst[sl], index_w, env[s1][sl],
                                      axis=axis)
                    env[so] = dst
            steps.append(step)
        return steps

    def _emit_while(self, node: _Node) -> List[WorkerStep]:
        attrs = node.instr.attrs
        body_plan = self.low.lower_while_body(node)
        self._arena(node)
        trip_count = attrs["trip_count"]
        result_index = attrs["result_index"]
        state_slots = tuple(v.slot for v in node.operands)
        so = node.out.slot
        body_uid = body_plan.uid
        steps = []
        for _, lo, hi in self._ranges():
            sl = slice(lo, hi)

            def step(wctx, env, it, sl=sl):
                state = [env[s] for s in state_slots]
                arenas = wctx.ctx.arenas[body_uid]
                outer_arena = wctx.arena
                try:
                    for i in range(trip_count):
                        wctx.arena = arenas[i & 1]
                        benv = body_plan.initial_env.copy()
                        for binding, value in zip(body_plan.params, state):
                            benv[binding.slot] = value
                        run_worker_steps(
                            body_plan, wctx.worker, wctx, benv, i
                        )
                        state = [
                            benv[body_plan.output_slots[name]]
                            for name in body_plan.output_order
                        ]
                finally:
                    wctx.arena = outer_arena
                # The loop result must outlive the body arenas (which the
                # next outer iteration would overwrite): copy this
                # worker's rows into the While node's own arena array.
                out = outer_arena[so]
                out[sl] = state[result_index][sl]
                env[so] = out

            steps.append(step)
        return steps

    def _emit_sync_collective(self, node: _Node, make) -> List[WorkerStep]:
        """Entry barrier (operand rows all written), restricted kernel,
        exit barrier (foreign reads finished before anyone moves on)."""
        (s0,) = [v.slot for v in node.operands]
        so = node.out.slot
        self._arena(node)
        steps = []
        for _, lo, hi in self._ranges():
            kernel = make(lo, hi)

            def step(wctx, env, it, kernel=kernel):
                out = wctx.arena[so]
                wctx.barrier()
                kernel(env[s0], out)
                wctx.barrier()
                env[so] = out

            steps.append(step)
        return steps

    def _emit_permute_start(self, node: _Node) -> List[WorkerStep]:
        instr = node.instr
        (s0,) = [v.slot for v in node.operands]
        so = node.out.slot
        if node.payload is None:
            # The matching done was DCE'd: nothing ever consumes the
            # transfer, so nothing is posted.
            return self._alias(s0, so)
        validate_permute_pairs(instr.pairs, self.low.n)
        _, destinations = vectorized.permute_index(instr.pairs)
        outgoing, incoming = shard_ops.route_pairs(instr.pairs, self.bounds)
        tid = next(self.counters.tids)
        sp = node.payload.slot
        self._arena(node, slot=sp)
        self.routes[id(instr)] = (tid, incoming, destinations)
        steps = []
        for w, lo, hi in self._ranges():
            posts = tuple(outgoing.get(w, ()))

            def step(wctx, env, it, posts=posts):
                operand = env[s0]
                parity = it & 1
                for v, src_rows in posts:
                    # Advanced indexing copies: the payload is a snapshot
                    # of the source rows at issue time.
                    wctx.mailbox.post(
                        (tid, wctx.worker, v, parity), operand[src_rows]
                    )
                env[so] = operand

            steps.append(step)
        return steps

    def _emit_permute_done(self, node: _Node) -> List[WorkerStep]:
        start_node = self.low._start_node_of(node.instr)
        tid, incoming, destinations = self.routes[id(start_node.instr)]
        sp = node.operands[0].slot
        so = node.out.slot
        origin = start_node.instr.name
        steps = []
        for w, lo, hi in self._ranges():
            inbound = tuple(incoming.get(w, ()))
            zero_rows = vectorized.missing_rows(destinations, lo, hi)

            def step(wctx, env, it, inbound=inbound, zero_rows=zero_rows):
                out = wctx.arena[sp]
                if zero_rows.size:
                    out[zero_rows] = 0.0
                parity = it & 1
                recorder = wctx.recorder
                for u, dst_rows in inbound:
                    payload, posted_at = wctx.mailbox.consume(
                        (tid, u, wctx.worker, parity)
                    )
                    out[dst_rows] = payload
                    if recorder is not None:
                        recorder.transfer(
                            origin,
                            f"link:{origin}:w{u}->w{wctx.worker}@{parity}",
                            posted_at,
                            recorder.now(),
                            payload.nbytes,
                        )
                env[sp] = out
                env[so] = out

            steps.append(step)
        return steps
