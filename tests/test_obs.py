"""Tests for the observability layer: spans, counters, exporters, overlap.

Covers the contract the CI gates consume: deterministic span nesting,
byte counters that match hand-computed fabric payloads, a lossless
Chrome trace_event round-trip, and the overlap-efficiency acceptance
property — a decomposed + async-scheduled program must hide strictly
more communication than its undecomposed baseline on *both* engines.
"""

import json

import numpy as np
import pytest

from repro.core.config import OverlapConfig
from repro.core.loop import emit_rolled
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES, run_one
from repro.hlo.opcode import Opcode
from repro.obs import (
    ASYNC_DONE,
    ASYNC_START,
    COLLECTIVE,
    COMPUTE,
    CONTROL,
    RETRY,
    TRANSFER,
    EventLog,
    Tracer,
    diff_timelines,
    events_from_chrome,
    metrics_dict,
    overlap_summary,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.health_feed import lane_costs, retry_fraction
from repro.perfsim.simulator import simulate_with_trace
from repro.perfsim.trace import Trace
from repro.runtime.collectives import payload_bytes
from repro.runtime.engine import create_engine
from repro.runtime.resilient import run_with_fallback
from repro.sharding.mesh import DeviceMesh


def golden(name):
    return next(case for case in GOLDEN_CASES if case.name == name)


def golden_run(name="mlp-chain", ring=4, config=None, engine="interpreted"):
    """Run one golden module under a tracer; returns (tracer, values)."""
    case = golden(name)
    mesh = DeviceMesh.ring(ring)
    rng = np.random.default_rng([20230325, ring])
    arguments = case.make_arguments(mesh, rng)
    module = case.build(mesh)
    if config is not None:
        compile_module(module, mesh, config)
    tracer = Tracer()
    values = create_engine(engine, tracer=tracer).run(
        module, arguments, mesh=mesh
    )
    return tracer, values


DECOMPOSED = OverlapConfig(use_cost_model=False, scheduler="bottom_up")


class FakeClock:
    """A deterministic clock: each call advances by one tick."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


class TestSpanNesting:
    def test_nested_spans_record_increasing_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("innermost"):
                    pass
        by_name = {e.name: e for e in tracer.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2

    def test_nested_spans_are_contained_in_their_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {e.name: e for e in tracer.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_sibling_spans_do_not_nest(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [e.depth for e in tracer.events] == [0, 0]
        tracer.validate()  # siblings are disjoint on the lane

    def test_validate_rejects_overlapping_top_level_spans(self):
        log = EventLog()
        log.add("a", COMPUTE, "compute", 0.0, 2.0)
        log.add("b", COMPUTE, "compute", 1.0, 3.0)
        with pytest.raises(ValueError, match="overlap"):
            log.validate()

    def test_validate_ignores_nested_spans(self):
        log = EventLog()
        log.add("loop", CONTROL, "compute", 0.0, 2.0)
        log.add("body", COMPUTE, "compute", 0.5, 1.5, depth=1)
        log.validate()

    def test_executor_trace_validates(self):
        tracer, _ = golden_run(config=DECOMPOSED)
        tracer.validate()


class TestCounters:
    # mlp-chain on a ring of 4: a is f32[2,3] (24 bytes/shard) gathered
    # over 4 devices; h is f32[8,8] -> f32[2,8] scattered chunks.
    AG_BYTES = 24 * 4
    RS_BYTES = 256 * 4

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_baseline_byte_counters_match_hand_count(self, engine):
        tracer, _ = golden_run(engine=engine)
        assert tracer.counters["bytes.all-gather"] == self.AG_BYTES
        assert tracer.counters["bytes.reduce-scatter"] == self.RS_BYTES

    def test_engines_agree_on_byte_counters(self):
        interp, _ = golden_run(config=DECOMPOSED, engine="interpreted")
        compiled, _ = golden_run(config=DECOMPOSED, engine="compiled")
        keys = [k for k in interp.counters if k.startswith("bytes.")]
        assert keys
        for key in keys:
            assert interp.counters[key] == compiled.counters[key]

    def test_byte_counters_sum_event_bytes(self):
        tracer, _ = golden_run(config=DECOMPOSED)
        started = sum(
            e.bytes for e in tracer.events if e.kind == ASYNC_START
        )
        assert started == tracer.counters["bytes.collective-permute-start"]

    def test_payload_bytes_model(self):
        assert payload_bytes(24, groups=[(0, 1, 2, 3)]) == 96
        assert payload_bytes(8, pairs=[(0, 1), (1, 0)]) == 16
        assert payload_bytes(8) == 0

    def test_compiled_plan_cache_counters(self):
        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        rng = np.random.default_rng([20230325, 4])
        arguments = case.make_arguments(mesh, rng)
        module = case.build(mesh)
        tracer = Tracer()
        engine = create_engine("compiled", tracer=tracer)
        engine.run(module, arguments, mesh=mesh)
        engine.run(module, arguments, mesh=mesh)
        assert tracer.counters["plan.cache_misses"] == 1
        assert tracer.counters["plan.cache_hits"] == 1

    def test_resilient_counters_without_faults(self):
        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        rng = np.random.default_rng([20230325, 4])
        arguments = case.make_arguments(mesh, rng)
        primary = case.build(mesh)
        compile_module(primary, mesh, DECOMPOSED)
        tracer = Tracer()
        result = run_with_fallback(
            primary, case.build(mesh), arguments, 4, tracer=tracer
        )
        assert not result.used_fallback
        assert tracer.counters["transfers"] == result.stats.transfers
        assert "retries" not in tracer.counters
        assert "fallbacks" not in tracer.counters


class TestChromeExport:
    def test_round_trip_preserves_events(self):
        tracer, _ = golden_run(config=DECOMPOSED)
        streams = {"interpreted/decomposed": tracer.events}
        obj = json.loads(json.dumps(
            to_chrome_trace(streams, counters={
                "interpreted/decomposed": tracer.counters,
            })
        ))
        assert validate_chrome_trace(obj) == []
        parsed = events_from_chrome(obj)["interpreted/decomposed"]
        assert len(parsed) == len(tracer.events)
        for original, parsed_event in zip(tracer.events, parsed):
            assert parsed_event.name == original.name
            assert parsed_event.kind == original.kind
            assert parsed_event.resource == original.resource
            assert parsed_event.bytes == original.bytes
            assert parsed_event.depth == original.depth
            assert parsed_event.start == pytest.approx(
                original.start, abs=1e-9
            )
            assert parsed_event.duration == pytest.approx(
                original.duration, abs=1e-9
            )

    def test_validator_rejects_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        bad_kind = {
            "traceEvents": [
                {
                    "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                    "args": {"name": "t"},
                },
                {
                    "ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
                    "args": {"name": "compute"},
                },
                {
                    "ph": "X", "name": "x", "cat": "nonsense", "pid": 0,
                    "tid": 0, "ts": 0, "dur": 1,
                    "args": {"bytes": 0, "depth": 0},
                },
            ],
            "metadata": {"schema_version": 1},
        }
        problems = validate_chrome_trace(bad_kind)
        assert any("kind" in p for p in problems)

    def test_validator_accepts_simulated_trace(self):
        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        module = case.build(mesh)
        compile_module(module, mesh, DECOMPOSED)
        _, trace = simulate_with_trace(module, mesh)
        assert trace.events  # the simulator filled the shared schema
        assert validate_chrome_trace(to_chrome_trace(trace.events)) == []

    def test_metrics_dict_flattens_counters_and_kinds(self):
        tracer, _ = golden_run()
        metrics = metrics_dict(tracer)
        assert metrics["events"] == len(tracer.events)
        assert metrics["bytes.all-gather"] == TestCounters.AG_BYTES
        assert f"seconds.{COLLECTIVE}" in metrics

    def test_diff_timelines_pairs_by_name_and_kind(self):
        left, right = EventLog(), EventLog()
        left.add("op", COMPUTE, "compute", 0.0, 1.0)
        right.add("op", COMPUTE, "compute", 0.0, 3.0)
        right.add("only-right", COMPUTE, "compute", 3.0, 4.0)
        rows = diff_timelines(left.events, right.events)
        assert ("op", COMPUTE, 1.0, 3.0) in rows
        assert ("only-right", COMPUTE, 0.0, 1.0) in rows


class TestOverlapEfficiency:
    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_decomposed_hides_more_than_baseline(self, engine):
        baseline, _ = golden_run(engine=engine)
        decomposed, _ = golden_run(engine=engine, config=DECOMPOSED)
        base = overlap_summary(baseline.events)
        deco = overlap_summary(decomposed.events)
        assert base.transfer_time == 0.0
        assert base.hidden_communication_fraction == 0.0
        assert deco.hidden_transfer_time > 0.0
        assert (
            deco.hidden_communication_fraction
            > base.hidden_communication_fraction
        )

    def test_simulated_timeline_reports_hidden_transfers(self):
        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        module = case.build(mesh)
        compile_module(module, mesh, DECOMPOSED)
        _, trace = simulate_with_trace(module, mesh)
        summary = overlap_summary(trace.events)
        assert summary.transfer_time > 0.0
        assert summary.hidden_transfer_time > 0.0

    def test_hidden_fraction_handles_empty_timeline(self):
        summary = overlap_summary([])
        assert summary.hidden_fraction == 0.0
        assert summary.hidden_communication_fraction == 0.0

    def test_synthesized_transfer_window_spans_issue_to_delivery(self):
        tracer, _ = golden_run(config=DECOMPOSED)
        transfers = {e.name: e for e in tracer.events if e.kind == TRANSFER}
        starts = {
            e.name: e for e in tracer.events if e.kind == ASYNC_START
        }
        dones = {
            e.name: e for e in tracer.events if e.kind == ASYNC_DONE
        }
        assert transfers and set(transfers) == set(starts)
        for name, window in transfers.items():
            assert window.start == starts[name].start
            assert any(
                window.end == done.end for done in dones.values()
            )


class TestWhileLoopTracing:
    def _rolled_module_and_args(self, ring=4):
        from test_loop import build_gather, gather_arguments

        mesh = DeviceMesh.ring(ring)
        module = build_gather(mesh, "free")
        (candidate,) = find_candidates(module)
        loop = emit_rolled(module, candidate, mesh)
        assert loop.opcode is Opcode.WHILE
        rng = np.random.default_rng(20230325)
        return module, mesh, gather_arguments(rng, "free", ring)

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_loop_bodies_trace_one_level_deeper(self, engine):
        module, mesh, arguments = self._rolled_module_and_args()
        tracer = Tracer()
        create_engine(engine, tracer=tracer).run(
            module, arguments, mesh=mesh
        )
        controls = [e for e in tracer.events if e.kind == CONTROL]
        assert len(controls) == 1  # the While container itself
        nested = [e for e in tracer.events if e.depth > 0]
        assert nested  # body instructions traced inside the container
        (loop,) = controls
        for event in nested:
            assert loop.start <= event.start and event.end <= loop.end
        # The rolled ring walk permutes once per non-final iteration.
        ring_permutes = [e for e in nested if e.kind == COLLECTIVE]
        assert len(ring_permutes) >= mesh.num_devices - 1
        assert any(e.kind == COMPUTE for e in nested)  # the body einsum
        tracer.validate()


class TestChaosTracing:
    def test_traced_chaos_outcomes_match_untraced(self):
        for seed in range(12):
            untraced = run_one(seed)
            tracer = Tracer()
            traced = run_one(seed, tracer=tracer)
            assert traced.signature == untraced.signature
            assert tracer.counters[f"chaos.{traced.outcome}"] == 1

    def test_chaos_batch_counters_account_every_run(self):
        tracer = Tracer()
        runs = 8
        outcomes = [run_one(seed, tracer=tracer).outcome
                    for seed in range(runs)]
        total = sum(
            value for key, value in tracer.counters.items()
            if key.startswith("chaos.")
        )
        assert total == runs
        for outcome in set(outcomes):
            assert tracer.counters[f"chaos.{outcome}"] == outcomes.count(
                outcome
            )

    def test_retry_events_live_on_their_own_lanes(self):
        # Sweep seeds until a run actually retried; the tracer must have
        # recorded each failed attempt on a retry:<transfer> lane.
        for seed in range(200):
            tracer = Tracer()
            result = run_one(seed, tracer=tracer)
            if result.retries and result.outcome in (
                "recovered", "fallback"
            ):
                retry_events = [
                    e for e in tracer.events if e.kind == RETRY
                ]
                if not retry_events:
                    continue  # retries can come from virtual timeouts only
                assert all(
                    e.resource.startswith("retry:") for e in retry_events
                )
                assert tracer.counters.get("retries", 0) >= 1
                return
        pytest.skip("no seed in range produced a traced retry")


class TestSimulatedTraceSchema:
    def test_trace_is_an_event_log(self):
        trace = Trace()
        assert isinstance(trace, EventLog)
        trace.add("op", COMPUTE, "compute", 0.0, 0.0)  # zero-duration
        assert trace.events == []  # simulated zero spans carry nothing
        trace.add("op", COMPUTE, "compute", 0.0, 1.0)
        assert len(trace.events) == 1

    def test_simulated_transfer_events_carry_bytes(self):
        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        module = case.build(mesh)
        compile_module(module, mesh, DECOMPOSED)
        report, trace = simulate_with_trace(module, mesh)
        transfers = [e for e in trace.events if e.kind == TRANSFER]
        assert transfers
        assert sum(e.bytes for e in transfers) == sum(
            report.link_bytes.values()
        )


class TestCommVolumeLens:
    """The bytes-on-wire accounting lens (PR 6 satellite)."""

    def synthetic(self):
        log = EventLog()
        log.add("p0", ASYNC_START, "compute", 0.0, 0.1, bytes=100)
        log.add("p0", TRANSFER, "link:x:minus", 0.0, 1.0, bytes=100)
        log.add("p0", ASYNC_DONE, "compute", 1.0, 1.1, bytes=100)
        log.add("p1", TRANSFER, "link:x:plus", 0.0, 2.0, bytes=300)
        log.add("ag", COLLECTIVE, "compute", 1.0, 3.0, bytes=50)
        log.add("mm", COMPUTE, "compute", 0.0, 3.0)
        return log.events

    def test_counts_each_payload_once(self):
        from repro.obs.comm_volume import comm_volume_summary

        summary = comm_volume_summary(self.synthetic())
        # The async start/done spans mirror the transfer windows; only
        # the transfers plus the sync collective land in the total.
        assert summary.transfer_bytes == 400
        assert summary.collective_bytes == 50
        assert summary.total_bytes == 450
        assert summary.total_time == 3.0

    def test_channels_grouped_by_resource_and_kind(self):
        from repro.obs.comm_volume import comm_volume_summary

        summary = comm_volume_summary(self.synthetic())
        lanes = {(c.resource, c.kind): c for c in summary.channels}
        minus = lanes[("link:x:minus", TRANSFER)]
        assert minus.bytes == 100
        assert minus.events == 1
        assert minus.bandwidth == pytest.approx(100.0)
        # Zero-byte compute spans never become channels.
        assert ("compute", COMPUTE) not in lanes

    def test_async_starts_count_when_no_transfer_windows(self):
        from repro.obs.comm_volume import comm_volume_summary

        log = EventLog()
        log.add("p0", ASYNC_START, "compute", 0.0, 0.1, bytes=128)
        summary = comm_volume_summary(log.events)
        assert summary.transfer_bytes == 128
        assert summary.total_bytes == 128

    def test_empty_log_is_all_zero(self):
        from repro.obs.comm_volume import comm_volume_summary

        summary = comm_volume_summary([])
        assert summary.total_bytes == 0
        assert summary.channels == ()

    def test_human_bytes_units(self):
        from repro.obs.comm_volume import human_bytes

        assert human_bytes(0) == "0 B"
        assert human_bytes(96) == "96 B"
        assert human_bytes(1536) == "1.5 KiB"
        assert human_bytes(56 * 1024 * 1024) == "56.0 MiB"

    def test_format_renders_totals(self):
        from repro.obs.comm_volume import (
            comm_volume_summary,
            format_comm_volume,
        )

        text = format_comm_volume(comm_volume_summary(self.synthetic()))
        assert "bytes on wire: 450 B" in text
        assert "link:x:minus" in text

    def test_simulated_baseline_collectives_carry_bytes(self):
        # The symmetric simulator annotates sync-collective spans with
        # the same payload model the executors use, so the lens accounts
        # an undecomposed program's traffic too.
        from repro.obs.comm_volume import comm_volume_summary

        case = golden("mlp-chain")
        mesh = DeviceMesh.ring(4)
        module = case.build(mesh)
        compile_module(module, mesh, OverlapConfig.baseline())
        report, trace = simulate_with_trace(module, mesh)
        summary = comm_volume_summary(trace.events)
        assert summary.collective_bytes > 0
        assert summary.total_bytes == summary.collective_bytes


class TestHealthFeedLens:
    """Per-lane normalized costs feeding the adaptation monitor."""

    def test_byte_lane_cost_is_seconds_per_byte(self):
        log = EventLog()
        log.add("t", TRANSFER, "link:x:minus", 0.0, 2.0, bytes=1000)
        costs = lane_costs(log.events)
        assert costs["link:x:minus"].cost == pytest.approx(0.002)

    def test_compute_lane_cost_is_seconds_per_event(self):
        log = EventLog()
        log.add("a", COMPUTE, "compute:dev0", 0.0, 1.0)
        log.add("b", COMPUTE, "compute:dev0", 1.0, 4.0)
        costs = lane_costs(log.events)
        assert costs["compute:dev0"].cost == pytest.approx(2.0)

    def test_stalls_and_retries_excluded(self):
        log = EventLog()
        log.add("t", TRANSFER, "link:x:minus", 0.0, 1.0, bytes=100)
        log.add("stall", "stall", "link:x:minus", 1.0, 9.0)
        log.add("retry", RETRY, "link:x:minus", 1.0, 1.5)
        costs = lane_costs(log.events)
        assert costs["link:x:minus"].busy_time == pytest.approx(1.0)

    def test_retry_fraction(self):
        log = EventLog()
        log.add("t", TRANSFER, "link:x:minus", 0.0, 1.0, bytes=100)
        log.add("retry", RETRY, "link:x:minus", 1.0, 1.0)
        assert retry_fraction(log.events) == pytest.approx(0.5)
        assert retry_fraction([]) == 0.0
