"""Tests for the multi-worker parallel execution backend.

The contract under test: ``create_engine("parallel")`` is **bit
identical** to the per-device reference interpreter on every module the
repo can produce — golden chaos modules, every overlap variant, rolled
and partially-unrolled While forms, async snapshot semantics — at every
worker count, and repeated runs are byte-identical no matter how the
worker threads interleave. On top of correctness, the traced runs must
show *measured* overlap: hidden-communication fraction strictly positive
for decomposed schedules and exactly zero for the undecomposed baseline.
"""

import os

import numpy as np
import pytest

from helpers import ALL_OVERLAP_CONFIGS, assert_bit_identical, split_shards

from repro.core.config import OverlapConfig
from repro.core.loop import emit_rolled, unroll_while
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.shapes import Shape
from repro.obs.events import TRANSFER
from repro.obs.overlap import overlap_summary
from repro.obs.tracer import Tracer
from repro.runtime.engine import ENGINE_KINDS, create_engine
from repro.runtime.parallel import ParallelEngine, lower_parallel
from repro.runtime.parallel.mailbox import TransferMailbox
from repro.runtime.parallel.sync import RunContext
from repro.runtime.plan_cache import PlanCache
from repro.sharding.mesh import DeviceMesh


def _run_vs_interpreter(module, arguments, mesh, workers):
    reference = create_engine("interpreted").run(
        module, arguments, mesh=mesh
    )
    got = create_engine("parallel", workers=workers).run(
        module, arguments, mesh=mesh
    )
    assert_bit_identical(reference, got)
    return reference


def _config_id(config):
    return (
        f"{config.scheduler}-u{int(config.unroll)}-b{int(config.bidirectional)}"
    )


# --- registry ----------------------------------------------------------------


class TestRegistry:
    def test_parallel_is_a_registered_kind(self):
        assert "parallel" in ENGINE_KINDS
        engine = create_engine("parallel")
        assert engine.kind == "parallel"
        assert isinstance(engine, ParallelEngine)

    def test_workers_option_applies_only_to_parallel(self):
        with pytest.raises(ValueError, match="workers"):
            create_engine("compiled", workers=2)
        with pytest.raises(ValueError, match="workers"):
            create_engine("interpreted", workers=2)

    def test_inapplicable_options_rejected_on_parallel(self):
        with pytest.raises(ValueError, match="injector"):
            create_engine("parallel", injector=object())

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            create_engine("parallel", workers=0)
        with pytest.raises(ValueError, match="workers"):
            create_engine("parallel", workers=-1)

    def test_effective_workers_clamped_to_device_count(self):
        engine = create_engine("parallel", workers=8)
        assert engine.effective_workers(4) == 4
        assert engine.effective_workers(16) == 8

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_default_pool_follows_cpu_count(self, cpus, rng, monkeypatch):
        """The unpinned pool size comes from the host; the result must
        not."""
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        engine = create_engine("parallel")
        assert engine.effective_workers(4) == min(cpus, 4)
        case = GOLDEN_CASES[-1]
        mesh = DeviceMesh.ring(4)
        module = case.build(mesh)
        compile_module(module, mesh, OverlapConfig(use_cost_model=False))
        arguments = case.make_arguments(mesh, rng)
        assert_bit_identical(
            create_engine("interpreted").run(module, arguments, mesh=mesh),
            engine.run(module, arguments, mesh=mesh),
        )

    def test_plan_key_distinguishes_worker_counts(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(4)
        arguments = case.make_arguments(mesh, rng)
        cache = PlanCache()
        for workers in (1, 2):
            create_engine("parallel", workers=workers, plan_cache=cache).run(
                case.build(mesh), arguments, mesh=mesh
            )
        # Different pool sizes lower to different plans: both must miss.
        assert cache.stats.misses == 2 and cache.stats.hits == 0


# --- the mailbox -------------------------------------------------------------


class TestMailbox:
    def test_post_consume_roundtrip(self):
        ctx = RunContext(2)
        mailbox = TransferMailbox(ctx)
        payload = np.arange(6.0).reshape(2, 3)
        mailbox.post((7, 0, 1, 0), payload)
        got, posted_at = mailbox.consume((7, 0, 1, 0))
        assert np.array_equal(got, payload)
        assert posted_at >= 0.0

    def test_parities_are_independent_cells(self):
        ctx = RunContext(2)
        mailbox = TransferMailbox(ctx)
        even, odd = np.zeros(2), np.ones(2)
        mailbox.post((3, 0, 1, 0), even)
        mailbox.post((3, 0, 1, 1), odd)  # must not block on the even cell
        got_odd, _ = mailbox.consume((3, 0, 1, 1))
        got_even, _ = mailbox.consume((3, 0, 1, 0))
        assert np.array_equal(got_even, even)
        assert np.array_equal(got_odd, odd)

    def test_cell_reusable_after_consume(self):
        ctx = RunContext(2)
        mailbox = TransferMailbox(ctx)
        for round_ in range(3):
            payload = np.full(2, float(round_))
            mailbox.post((1, 1, 0, 0), payload)
            got, _ = mailbox.consume((1, 1, 0, 0))
            assert np.array_equal(got, payload)


# --- bit-identity vs the interpreter -----------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
    def test_golden_modules(self, case, workers, rng):
        mesh = DeviceMesh.ring(4)
        arguments = case.make_arguments(mesh, rng)
        _run_vs_interpreter(case.build(mesh), arguments, mesh, workers)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("config", ALL_OVERLAP_CONFIGS, ids=_config_id)
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
    def test_overlap_variants(self, case, config, workers, rng):
        """Decomposed programs contain async permute start/done chains,
        so this sweep pins snapshot-at-issue under real concurrency."""
        mesh = DeviceMesh.ring(4)
        arguments = case.make_arguments(mesh, rng)
        module = case.build(mesh)
        compile_module(module, mesh, config)
        _run_vs_interpreter(module, arguments, mesh, workers)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("unroll_factor", [None, 0, 2])
    def test_while_forms(self, rng, unroll_factor, workers):
        """Rolled loops run through nested per-worker body plans with
        parity double-buffered arenas."""
        ring = 4
        mesh = DeviceMesh.ring(ring)
        a, w = rng.normal(size=(24, 5)), rng.normal(size=(5, 7))
        arguments = {
            "a": split_shards(a, 0, ring), "w": [w.copy()] * ring
        }
        builder = GraphBuilder("ag")
        p = builder.parameter(Shape((24 // ring, 5), F32), name="a")
        wp = builder.parameter(Shape((5, 7), F32), name="w")
        gathered = builder.all_gather(p, 0, mesh.rings("x"))
        builder.einsum("bf,fh->bh", gathered, wp)
        module = builder.module
        (candidate,) = find_candidates(module)
        loop = emit_rolled(module, candidate, mesh)
        if unroll_factor == 0:
            unroll_while(module, loop)
        elif unroll_factor == 2:
            unroll_while(module, loop, factor=2)
        _run_vs_interpreter(module, arguments, mesh, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_async_snapshot_at_issue_time(self, rng, workers):
        """A write between start and done must not leak into the
        transfer — even when the writer and reader race on threads."""
        builder = GraphBuilder("m")
        a = builder.parameter(Shape((2,), F32), name="a")
        start = builder.collective_permute_start(a, [(0, 1), (1, 0)])
        mutated = builder.add(a, a)
        done = builder.collective_permute_done(start)
        builder.add(done, mutated)
        module = builder.module
        xs = [rng.normal(size=2), rng.normal(size=2)]
        mesh = DeviceMesh.ring(2)
        out = _run_vs_interpreter(module, {"a": xs}, mesh, workers)[
            module.root.name
        ]
        np.testing.assert_allclose(out[0], xs[1] + 2 * xs[0])
        np.testing.assert_allclose(out[1], xs[0] + 2 * xs[1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_start_with_dead_done_is_pure_passthrough(self, rng, workers):
        builder = GraphBuilder("m")
        a = builder.parameter(Shape((2,), F32), name="a")
        start = builder.collective_permute_start(a, [(0, 1), (1, 0)])
        mutated = builder.add(a, a)
        done = builder.collective_permute_done(start)
        builder.add(done, mutated)
        module = builder.module
        xs = [rng.normal(size=2), rng.normal(size=2)]
        wanted = [mutated.name, start.name]
        reference = create_engine("interpreted").run(
            module, {"a": xs}, mesh=2, outputs=wanted
        )
        plan = lower_parallel(module, 2, outputs=wanted, workers=workers)
        got_stacked = plan.execute([np.stack(xs)])
        got = {
            name: list(stacked)
            for name, stacked in zip(plan.output_order, got_stacked)
        }
        assert_bit_identical(reference, got)
        np.testing.assert_allclose(got[start.name][0], xs[0])

    def test_donation_never_mutates_arguments(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(4)
        arguments = case.make_arguments(mesh, rng)
        pristine = {
            name: [shard.copy() for shard in shards]
            for name, shards in arguments.items()
        }
        create_engine("parallel", workers=2).run(
            case.build(mesh), arguments, mesh=mesh
        )
        for name in pristine:
            for want, have in zip(pristine[name], arguments[name]):
                assert np.array_equal(want, have)


# --- determinism -------------------------------------------------------------


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, rng):
        """Scheduling must not be observable: every output row is
        written exactly once by its owning worker from values that do
        not depend on thread interleaving."""
        mesh = DeviceMesh.ring(8)
        case = GOLDEN_CASES[-1]
        arguments = case.make_arguments(mesh, rng)
        module = case.build(mesh)
        compile_module(
            module, mesh,
            OverlapConfig(
                use_cost_model=False, scheduler="bottom_up",
                unroll=True, bidirectional=True,
            ),
        )
        engine = create_engine("parallel", workers=4)
        first = engine.run(module, arguments, mesh=mesh)
        baseline = {
            name: [shard.tobytes() for shard in shards]
            for name, shards in first.items()
        }
        for _ in range(5):
            again = engine.run(module, arguments, mesh=mesh)
            for name, shards in again.items():
                for want, have in zip(baseline[name], shards):
                    assert want == have.tobytes()


# --- measured overlap --------------------------------------------------------


class TestMeasuredOverlap:
    def _traced(self, config, workers, rng):
        mesh = DeviceMesh.ring(8)
        case = GOLDEN_CASES[-1]
        arguments = case.make_arguments(mesh, rng)
        module = case.build(mesh)
        if config is not None:
            compile_module(module, mesh, config)
        tracer = Tracer()
        create_engine("parallel", workers=workers).run(
            module, arguments, mesh=mesh, tracer=tracer
        )
        tracer.validate()  # raises if any lane self-overlaps
        return tracer

    def test_decomposed_hides_communication(self, rng):
        config = OverlapConfig(
            use_cost_model=False, scheduler="bottom_up",
            unroll=True, bidirectional=True,
        )
        tracer = self._traced(config, workers=2, rng=rng)
        summary = overlap_summary(tracer.events)
        assert summary.hidden_communication_fraction > 0.0

    def test_reference_hides_nothing(self, rng):
        tracer = self._traced(None, workers=2, rng=rng)
        summary = overlap_summary(tracer.events)
        assert summary.hidden_communication_fraction == 0.0

    def test_worker_lanes_and_transfer_links_present(self, rng):
        config = OverlapConfig(
            use_cost_model=False, scheduler="bottom_up",
            unroll=True, bidirectional=True,
        )
        tracer = self._traced(config, workers=2, rng=rng)
        resources = {event.resource for event in tracer.events}
        assert {"w0", "w1"} <= resources
        links = [
            event for event in tracer.events if event.kind == TRANSFER
        ]
        assert links and all(
            event.resource.startswith("link:") for event in links
        )
        assert all(event.bytes > 0 for event in links)

    def test_byte_counters_not_inflated_by_worker_count(self, rng):
        """Each instruction's bytes are counted once (by worker 0), not
        ``workers`` times, so comm-volume lenses agree with the
        single-threaded engines."""
        mesh = DeviceMesh.ring(8)
        case = GOLDEN_CASES[-1]
        arguments = case.make_arguments(mesh, rng)

        def counters(workers):
            module = case.build(mesh)
            compile_module(
                module, mesh, OverlapConfig(use_cost_model=False)
            )
            tracer = Tracer()
            create_engine("parallel", workers=workers).run(
                module, arguments, mesh=mesh, tracer=tracer
            )
            return {
                key: value
                for key, value in tracer.counters.items()
                if key.startswith("bytes.")
            }

        assert counters(1) == counters(4)


# --- serving integration -----------------------------------------------------


class TestServeIntegration:
    def test_parallel_engine_serves_bit_identical(self):
        from repro.models.serving import default_catalog
        from repro.serve.server import ServeConfig, Server

        catalog = default_catalog()
        name = "mlp-chain@4+overlap"
        program = catalog[name]
        inputs = program.make_inputs_seeded(3)
        config = ServeConfig(
            engine="parallel", engine_workers=2, workers=1
        )
        with Server(config, catalog=catalog) as server:
            values = server.submit(name, inputs).result(timeout=30)
        oracle = create_engine("interpreted").run(
            program.build_module(), inputs, mesh=program.num_devices
        )
        (got,) = values.values()
        (want,) = oracle.values()
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_engine_workers_rejected_for_non_parallel_engine(self):
        from repro.serve.server import ServeConfig

        with pytest.raises(ValueError, match="engine_workers"):
            ServeConfig(engine="compiled", engine_workers=2)
