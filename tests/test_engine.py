"""Tests for the unified Engine API (``repro.runtime.create_engine``).

Parity is the contract: the golden modules must produce bit-identical
outputs through every engine, and (on the raw, straight-line modules,
where the compiled engine has nothing to fold away) identical traced
span-name sequences. Decomposed variants introduce constants the
compiled engine folds, so only bit-identity is asserted there. The
parity class runs again with ``os.cpu_count`` patched to 1 and to 8, so
the default-sized parallel pool is exercised at both extremes on any host.
"""

import os

import numpy as np
import pytest

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.obs.tracer import Tracer
from repro.runtime.engine import ENGINE_KINDS, create_engine
from repro.runtime.plan_cache import PlanCache
from repro.sharding.mesh import DeviceMesh

CASES_BY_RING = [
    (case, ring) for case in GOLDEN_CASES for ring in case.rings
]
IDS = [f"{case.name}-ring{ring}" for case, ring in CASES_BY_RING]


def _values_identical(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert len(a[key]) == len(b[key])
        for x, y in zip(a[key], b[key]):
            assert np.array_equal(x, y)


class TestParity:
    @pytest.mark.parametrize("case,ring", CASES_BY_RING, ids=IDS)
    def test_raw_modules_bit_identical_with_identical_spans(
        self, case, ring, rng
    ):
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        arguments = case.make_arguments(mesh, rng)
        results, span_names = {}, {}
        for kind in ENGINE_KINDS:
            # One span list is a property of the single-threaded run
            # loop: one parallel worker runs the compiled plan itself.
            options = {"workers": 1} if kind == "parallel" else {}
            tracer = Tracer()
            results[kind] = create_engine(kind, **options).run(
                module, arguments, mesh=mesh, tracer=tracer
            )
            span_names[kind] = [event.name for event in tracer.events]
        for kind in ENGINE_KINDS:
            _values_identical(results["interpreted"], results[kind])
            assert span_names["interpreted"] == span_names[kind]

    @pytest.mark.parametrize("case,ring", CASES_BY_RING, ids=IDS)
    def test_each_worker_lane_carries_the_interpreter_spans(
        self, case, ring, rng
    ):
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        arguments = case.make_arguments(mesh, rng)
        reference = Tracer()
        want = create_engine("interpreted").run(
            module, arguments, mesh=mesh, tracer=reference
        )
        tracer = Tracer()
        got = create_engine("parallel", workers=2).run(
            module, arguments, mesh=mesh, tracer=tracer
        )
        _values_identical(want, got)
        for lane in ("w0", "w1"):
            assert [
                e.name for e in tracer.events if e.resource == lane
            ] == [e.name for e in reference.events]

    @pytest.mark.parametrize("case,ring", CASES_BY_RING, ids=IDS)
    def test_decomposed_modules_bit_identical(self, case, ring, rng):
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        compile_module(module, mesh, OverlapConfig(use_cost_model=False))
        arguments = case.make_arguments(mesh, rng)
        results = {
            kind: create_engine(kind).run(module, arguments, mesh=mesh)
            for kind in ENGINE_KINDS
        }
        _values_identical(results["interpreted"], results["compiled"])
        _values_identical(results["interpreted"], results["resilient"])
        _values_identical(results["interpreted"], results["parallel"])

    def test_mesh_accepts_bare_device_count(self, rng):
        case, ring = GOLDEN_CASES[0], 4
        mesh = DeviceMesh.ring(ring)
        module = case.build(mesh)
        arguments = case.make_arguments(mesh, rng)
        engine = create_engine("compiled")
        _values_identical(
            engine.run(module, arguments, mesh=mesh),
            engine.run(module, arguments, mesh=ring),
        )


class TestParityWithOneCpu(TestParity):
    """The same contract whatever the host: ``create_engine("parallel")``
    sizes its pool from ``os.cpu_count()``, so pin that to both extremes."""

    cpus = 1

    @pytest.fixture(autouse=True)
    def host_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: self.cpus)


class TestParityWithEightCpus(TestParityWithOneCpu):
    cpus = 8


class TestCompiledEngineCache:
    def test_rebuilt_module_hits_and_keeps_its_own_root_name(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        engine = create_engine("compiled")
        first, second = case.build(mesh), case.build(mesh)
        values_first = engine.run(first, arguments, mesh=mesh)
        values_second = engine.run(second, arguments, mesh=mesh)
        stats = engine.plan_cache.stats
        assert stats.misses == 1 and stats.hits == 1
        # The hit's outputs are keyed by the *caller's* root name even
        # though the plan was lowered from the first module.
        assert set(values_second) == {second.root.name}
        for x, y in zip(
            values_first[first.root.name], values_second[second.root.name]
        ):
            assert np.array_equal(x, y)

    def test_shared_cache_across_engines(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        cache = PlanCache()
        one = create_engine("compiled", plan_cache=cache)
        two = create_engine("compiled", plan_cache=cache)
        one.run(case.build(mesh), arguments, mesh=mesh)
        two.run(case.build(mesh), arguments, mesh=mesh)
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_cache_counters_flow_through_tracer(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        arguments = case.make_arguments(mesh, rng)
        tracer = Tracer()
        engine = create_engine("compiled", tracer=tracer)
        engine.run(case.build(mesh), arguments, mesh=mesh)
        engine.run(case.build(mesh), arguments, mesh=mesh)
        assert tracer.counters["plan.cache_misses"] == 1
        assert tracer.counters["plan.cache_hits"] == 1


class TestFactory:
    def test_kinds(self):
        for kind in ENGINE_KINDS:
            assert create_engine(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            create_engine("jit")

    def test_inapplicable_options_rejected(self):
        with pytest.raises(ValueError, match="plan_cache"):
            create_engine("interpreted", plan_cache=PlanCache())
        with pytest.raises(ValueError, match="donate_params"):
            create_engine("resilient", donate_params=False)
        with pytest.raises(ValueError, match="injector"):
            create_engine("compiled", injector=object())
        with pytest.raises(ValueError, match="workers"):
            create_engine("compiled", workers=2)

    def test_rejection_names_the_kinds_that_accept_the_option(self):
        with pytest.raises(ValueError, match="parallel"):
            create_engine("compiled", workers=2)

    def test_resilient_engine_exposes_stats(self, rng):
        case = GOLDEN_CASES[0]
        mesh = DeviceMesh.ring(2)
        engine = create_engine("resilient")
        engine.run(
            case.build(mesh), case.make_arguments(mesh, rng), mesh=mesh
        )
        assert engine.last_stats is not None
        assert engine.last_stats.transfers == 0  # raw module, no permutes
