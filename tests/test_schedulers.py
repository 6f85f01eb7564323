"""Tests for the bottom-up (Algorithm 2) and top-down schedulers."""

import pytest

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.core.scheduling import schedule_bottom_up, schedule_top_down
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import BF16, F32
from repro.hlo.opcode import Opcode
from repro.hlo.shapes import Shape
from repro.perfsim.costs import CostModel
from repro.perfsim.hardware import TPU_V4
from repro.perfsim.sched_graph import (
    ScheduleGraph,
    max_in_flight,
    validate_unit_order,
)
from repro.perfsim.simulator import simulate
from repro.sharding.mesh import DeviceMesh

MESH = DeviceMesh.ring(4)
COST = CostModel(TPU_V4)

SCHEDULERS = [
    pytest.param(schedule_bottom_up, id="bottom_up"),
    pytest.param(schedule_top_down, id="top_down"),
]


def overlappable_module():
    """A start/done pair with an independent einsum it should cover."""
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((1024, 1024), BF16), name="a")
    b = builder.parameter(Shape((1024, 1024), BF16), name="b")
    start = builder.collective_permute_start(
        a, [(0, 3), (1, 0), (2, 1), (3, 2)]
    )
    done = builder.collective_permute_done(start)
    independent = builder.einsum("bf,fh->bh", b, b)
    builder.einsum("bf,fh->bh", done, independent)
    return builder.module, start, done, independent


def chained_permutes(count):
    """A chain of permutes, each feeding the next, with einsums between."""
    builder = GraphBuilder("m")
    value = builder.parameter(Shape((512, 512), BF16), name="v")
    weight = builder.parameter(Shape((512, 512), BF16), name="w")
    pairs = [(0, 3), (1, 0), (2, 1), (3, 2)]
    for _ in range(count):
        start = builder.collective_permute_start(value, pairs)
        done = builder.collective_permute_done(start)
        value = builder.einsum("bf,fh->bh", done, weight)
    return builder.module


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestValidity:
    def test_order_is_topological(self, scheduler):
        module, *_ = overlappable_module()
        graph = ScheduleGraph.build(module)
        order = scheduler(graph, COST, MESH, max_in_flight=8)
        validate_unit_order(graph, order)

    def test_chain_order_is_topological(self, scheduler):
        module = chained_permutes(6)
        graph = ScheduleGraph.build(module)
        order = scheduler(graph, COST, MESH, max_in_flight=8)
        validate_unit_order(graph, order)
        graph.apply(order)
        module.verify()

    def test_moves_independent_compute_into_window(self, scheduler):
        module, start, done, independent = overlappable_module()
        graph = ScheduleGraph.build(module)
        order = scheduler(graph, COST, MESH, max_in_flight=8)
        names = [unit.head.name for unit in order]
        assert names.index(start.name) < names.index(independent.name)
        assert names.index(independent.name) < names.index(done.name)

    def test_deterministic(self, scheduler):
        module = chained_permutes(5)
        graph = ScheduleGraph.build(module)
        first = scheduler(graph, COST, MESH, max_in_flight=8)
        second = scheduler(graph, COST, MESH, max_in_flight=8)
        assert [u.index for u in first] == [u.index for u in second]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestBudget:
    def test_in_flight_budget_respected(self, scheduler):
        builder = GraphBuilder("m")
        a = builder.parameter(Shape((256, 256), BF16), name="a")
        pairs = [(0, 3), (1, 0), (2, 1), (3, 2)]
        dones = []
        for _ in range(6):
            start = builder.collective_permute_start(a, pairs)
            dones.append(builder.collective_permute_done(start))
        final = dones[0]
        for done in dones[1:]:
            final = builder.add(final, done)
        graph = ScheduleGraph.build(builder.module)
        order = scheduler(graph, COST, MESH, max_in_flight=2)
        validate_unit_order(graph, order)
        assert max_in_flight(graph.flatten(order)) <= 2


class TestSchedulingQuality:
    def test_both_beat_in_order_on_simulated_time(self):
        results = {}
        mesh = DeviceMesh.ring(4)
        for scheduler_name in ("bottom_up", "top_down", "in_order"):
            builder = GraphBuilder("m")
            n = 4
            x = builder.parameter(Shape((512, 2048), BF16), name="x")
            w = builder.parameter(Shape((2048, 2048 // n), BF16), name="w")
            gathered = builder.all_gather(w, 1, mesh.rings("x"))
            builder.einsum("bf,fh->bh", x, gathered)
            module = builder.module
            compile_module(
                module, mesh,
                OverlapConfig(use_cost_model=False, scheduler=scheduler_name),
            )
            results[scheduler_name] = simulate(module, mesh).total_time
        assert results["bottom_up"] <= results["in_order"]
        assert results["top_down"] <= results["in_order"]

    def test_bottom_up_wins_on_transformer_layer(self):
        """The Figure 16 ordering: bottom-up <= top-down on the workloads
        the paper evaluates (transformer layers with many interleavable
        decomposed loops)."""
        import dataclasses

        from repro.models.configs import GPT_32B
        from repro.models.transformer import decoder_layer_graph
        from repro.sharding.partitioner import partition

        cfg = dataclasses.replace(
            GPT_32B, batch_size=16, seq_len=64, d_model=512, d_ff=2048,
            num_layers=1, mesh_x=2, mesh_y=2, num_chips=4,
        )
        mesh = cfg.mesh()
        times = {}
        for scheduler_name in ("bottom_up", "top_down"):
            module = partition(decoder_layer_graph(cfg), mesh)
            compile_module(
                module, mesh,
                OverlapConfig(use_cost_model=False, scheduler=scheduler_name),
            )
            times[scheduler_name] = simulate(module, mesh).total_time
        assert times["bottom_up"] <= times["top_down"] * 1.001
