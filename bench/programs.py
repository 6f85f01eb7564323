"""The programs the workloads run, built against public entry points.

A :class:`Program` is one SPMD program family: how to build a fresh raw
module, the :class:`OverlapConfig` of its decomposed variant, and how to
draw its inputs from a generator. The layer functions are reached
through their modules (``partitioner.partition``, not a local alias) so
that a traced run's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

import numpy as np

from repro.core.config import OverlapConfig
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.module import HloModule
from repro.hlo.shapes import Shape
from repro.models import step as model_step
from repro.models.configs import GPT_32B, MOE, SPEECH, TABLE1, ModelConfig
from repro.models.serving import default_catalog
from repro.runtime.plan_cache import fingerprint_module
from repro.sharding import partitioner
from repro.sharding.mesh import DeviceMesh
from repro.sharding.sharder import random_arguments

Arguments = Dict[str, List[np.ndarray]]

#: Cost gate off so small shapes decompose at all; otherwise the paper's
#: defaults (bottom-up scheduler, rolled loops).
FORCED = OverlapConfig(use_cost_model=False)
#: The most aggressive variant: most instructions per useful FLOP.
UNROLLED_BIDIR = OverlapConfig(
    use_cost_model=False, scheduler="bottom_up", unroll=True,
    bidirectional=True,
)


@dataclasses.dataclass(frozen=True)
class Program:
    name: str
    mesh: DeviceMesh
    build: Callable[[], HloModule]      # a fresh, raw (undecomposed) module
    config: OverlapConfig               # config of the decomposed variant
    make_arguments: Callable[[np.random.Generator], Arguments]


def build_module(program: Program) -> HloModule:
    """A fresh raw module of ``program``. The sections build through
    this name so that a traced run can wrap it in a span."""
    return program.build()


# --- the three tiny ring programs (ring-exec-tiny) ---------------------------


def _allgather_einsum(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("ag_einsum")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 5), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w, name="out")
    return builder.module


def _einsum_reducescatter(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("einsum_rs")
    a = builder.parameter(Shape((4, 3), F32), name="a")
    w = builder.parameter(Shape((3, 2 * mesh.num_devices), F32), name="w")
    partial = builder.einsum("bf,fh->bh", a, w, name="partial")
    builder.reduce_scatter(partial, 1, mesh.rings("x"))
    return builder.module


def _mlp_chain(mesh: DeviceMesh) -> HloModule:
    builder = GraphBuilder("mlp_chain")
    a = builder.parameter(Shape((2, 3), F32), name="a")
    w = builder.parameter(Shape((3, 2 * mesh.num_devices), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    hidden = builder.einsum("bf,fh->bh", gathered, w, name="h")
    builder.reduce_scatter(hidden, 0, mesh.rings("x"))
    return builder.module


def _ring_arguments(
    module: HloModule, mesh: DeviceMesh, rng: np.random.Generator
) -> Arguments:
    """Activations ``a`` differ per device; weights ``w`` are replicated."""
    arguments: Arguments = {}
    for parameter in module.parameters():
        dims = parameter.shape.dims
        if parameter.name == "w":
            value = rng.normal(size=dims)
            arguments[parameter.name] = [
                value.copy() for _ in range(mesh.num_devices)
            ]
        else:
            arguments[parameter.name] = [
                rng.normal(size=dims) for _ in range(mesh.num_devices)
            ]
    return arguments


def ring_programs(num_devices: int = 64) -> List[Program]:
    mesh = DeviceMesh.ring(num_devices)
    return [
        Program(
            name=f"{name}@{num_devices}",
            mesh=mesh,
            build=lambda build=build: build(mesh),
            config=UNROLLED_BIDIR,
            make_arguments=(
                lambda rng, build=build: _ring_arguments(build(mesh), mesh, rng)
            ),
        )
        for name, build in (
            ("allgather-einsum", _allgather_einsum),
            ("einsum-reducescatter", _einsum_reducescatter),
            ("mlp-chain", _mlp_chain),
        )
    ]


# --- model layers (layer-exec-mid, table1-sweep's executable zoo) ------------

#: One decoder layer, forward and backward, sized so einsum kernels
#: dominate a step (compute-bound) while it still fits a 2-core box.
MID_LAYER = dataclasses.replace(
    GPT_32B, name="GPT_mid", batch_size=8, seq_len=64, d_model=256,
    d_ff=1024, num_layers=1, mesh_x=2, mesh_y=4, num_chips=8, head_dim=32,
)


def _scaled_to_four_chips(cfg: ModelConfig) -> ModelConfig:
    changes = dict(
        batch_size=8, seq_len=16, d_model=64, d_ff=128, num_layers=2,
        head_dim=16, num_chips=4, mesh_x=2, mesh_y=2,
    )
    if cfg.architecture == SPEECH:
        changes.update(mesh_y=1, data_parallel=2)
    if cfg.architecture == MOE:
        changes.update(num_experts=4)
    return dataclasses.replace(cfg, **changes)


def layer_programs(cfg: ModelConfig) -> List[Program]:
    """One program per distinct layer type of ``cfg``; each build makes
    the logical graph again, so a sweep pays for it like a sweep of the
    full-scale models does."""
    mesh = cfg.mesh()

    def graph(index: int):
        return model_step.layer_graphs(cfg)[index][2]

    return [
        Program(
            name=f"{cfg.name}/{kind}",
            mesh=mesh,
            build=lambda index=index: partitioner.partition(graph(index), mesh),
            config=FORCED,
            make_arguments=(
                lambda rng, index=index: random_arguments(graph(index), mesh, rng)
            ),
        )
        for index, (kind, _repeats, _graph) in enumerate(
            model_step.layer_graphs(cfg)
        )
    ]


def zoo_programs() -> List[Program]:
    """The Table 1 architectures at executable size: each model scaled
    to four chips, keeping one program per distinct layer (at this size
    the four plain decoder/encoder stacks partition identically)."""
    programs, seen = [], set()
    for cfg in TABLE1:
        for program in layer_programs(_scaled_to_four_chips(cfg)):
            fingerprint = fingerprint_module(program.build())
            if fingerprint not in seen:
                seen.add(fingerprint)
                programs.append(program)
    return programs


# --- the serving catalog's programs (serve-closed) ---------------------------


def catalog_programs() -> List[Program]:
    """Each golden family of the serving catalog at each ring size; the
    catalog's ``+overlap`` entry supplies the decomposed config."""
    return [
        Program(
            name=spec.name,
            mesh=spec.mesh(),
            build=lambda spec=spec: spec.case.build(spec.mesh()),
            config=spec.config,
            make_arguments=spec.make_inputs,
        )
        for spec in default_catalog().values()
        if spec.config is not None
    ]
