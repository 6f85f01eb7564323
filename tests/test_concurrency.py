"""Tests for the parallel concurrency verifier and runtime sanitizer.

The static half (:mod:`repro.analysis.concurrency`) must pass every
golden plan clean and catch every seeded parallel mutation by its
expected CC rule; the runtime half (``plan.run(..., sanitize=True)``)
must stay bit-identical on clean plans and raise a typed
:class:`ConcurrencyError` on the executable defects.
"""

import json
import time

import numpy as np
import pytest

from repro.analysis.concurrency import analyze_plan
from repro.analysis.mutations import (
    MUTATIONS_BY_NAME,
    PARALLEL_MUTATIONS,
    PARALLEL_MUTATIONS_BY_NAME,
    build_parallel_target,
)
from repro.cli import main
from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.printer import format_module
from repro.hlo.shapes import Shape
from repro.runtime.executor import run_spmd
from repro.runtime.parallel import lower_parallel
from repro.runtime.parallel.errors import (
    ConcurrencyError,
    MailboxOverflowError,
    MailboxTimeoutError,
)
from repro.runtime.parallel.mailbox import TransferMailbox
from repro.runtime.parallel.sync import RunContext
from repro.sharding.mesh import DeviceMesh

CASES = {case.name: case for case in GOLDEN_CASES}

VARIANTS = (
    ("baseline", lambda: OverlapConfig.baseline()),
    (
        "decomposed",
        lambda: OverlapConfig(
            use_cost_model=False, scheduler="in_order", unroll=False
        ),
    ),
    ("scheduled", lambda: OverlapConfig(use_cost_model=False, unroll=False)),
    ("unrolled", lambda: OverlapConfig(use_cost_model=False)),
)


@pytest.fixture
def fast_sanitizer(monkeypatch):
    """Seconds-long defect timeouts would dominate the suite; the
    mutated plans here deadlock within milliseconds."""
    import repro.runtime.parallel.sanitize as sanitize

    monkeypatch.setattr(sanitize, "SANITIZE_MAILBOX_TIMEOUT", 1.0)
    monkeypatch.setattr(sanitize, "SANITIZE_BARRIER_TIMEOUT", 2.0)


def _compiled_plan(case_name, ring, make_config, workers):
    case = CASES[case_name]
    mesh = DeviceMesh.ring(ring)
    module = case.build(mesh)
    compile_module(module, mesh, make_config())
    return module, lower_parallel(module, ring, workers=workers)


def _arguments(case_name, ring, seed=7):
    case = CASES[case_name]
    mesh = DeviceMesh.ring(ring)
    return case.make_arguments(mesh, np.random.default_rng(seed))


class TestCleanPlans:
    @pytest.mark.parametrize("case_name", sorted(CASES))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_golden_sweep_statically_clean(self, case_name, workers):
        for variant, make_config in VARIANTS:
            _, plan = _compiled_plan(case_name, 4, make_config, workers)
            result = analyze_plan(plan)
            assert result.ok, (
                f"{case_name}/{variant}/w{workers}:\n"
                + result.format_text()
            )
            assert "concurrency" in result.passes_run

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sanitized_run_bit_identical(self, workers):
        for variant, make_config in VARIANTS:
            _, plan = _compiled_plan("mlp-chain", 4, make_config, workers)
            arguments = _arguments("mlp-chain", 4)
            plain = plan.run(arguments)
            sanitized = plan.run(arguments, sanitize=True)
            for name, shards in plain.items():
                for a, b in zip(shards, sanitized[name]):
                    np.testing.assert_array_equal(a, b)

    def test_rolled_while_clean_and_identical(self):
        mutation = PARALLEL_MUTATIONS_BY_NAME["parallel-while-barrier-skew"]
        plan, arguments = build_parallel_target(mutation)
        assert analyze_plan(plan).ok
        plain = plan.run(arguments)
        sanitized = plan.run(arguments, sanitize=True)
        for name, shards in plain.items():
            for a, b in zip(shards, sanitized[name]):
                np.testing.assert_array_equal(a, b)

    def test_sanitize_flag_resets_after_run(self):
        _, plan = _compiled_plan("mlp-chain", 4, VARIANTS[0][1], 2)
        plan.run(_arguments("mlp-chain", 4), sanitize=True)
        assert plan._sanitize is False


class TestNestedWhileParity:
    """An inner ``trip_count=1`` While reuses arena parity 0 on every
    odd outer iteration — the hazard the double-buffered arenas and the
    ``(tid, src, dst, parity)`` mailbox keys exist for."""

    def _build(self, mesh):
        shape = Shape((4, 5), F32)
        inner_b = GraphBuilder("inner_body")
        xi = inner_b.parameter(shape, name="xi")
        doubled = inner_b.add(xi, xi, name="doubled")
        inner_b.all_reduce(doubled, mesh.rings("x"), name="red")

        mid_b = GraphBuilder("outer_body")
        xm = mid_b.parameter(shape, name="xm")
        inner_loop = mid_b.while_loop(
            1, inner_b.module, ["red"], [xm], 0, name="inner_loop"
        )
        mid_b.add(inner_loop, xm, name="next")

        top_b = GraphBuilder("nested_while")
        x = top_b.parameter(shape, name="x")
        top_b.while_loop(
            3, mid_b.module, ["next"], [x], 0, name="outer_loop"
        )
        return top_b.module

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_odd_trip_nested_while(self, rng, workers):
        ring = 4
        mesh = DeviceMesh.ring(ring)
        module = self._build(mesh)
        arguments = {
            "x": [rng.normal(size=(4, 5)) for _ in range(ring)]
        }
        reference = run_spmd(module, arguments, ring)[module.root.name]
        plan = lower_parallel(module, ring, workers=workers)
        result = analyze_plan(plan)
        assert result.ok, result.format_text()
        for values in (
            plan.run(arguments),
            plan.run(arguments, sanitize=True),
        ):
            got = values[module.root.name]
            worst = max(
                np.abs(a - b).max() for a, b in zip(reference, got)
            )
            assert worst < 1e-9


class TestParallelMutations:
    def test_catalog_names_unique(self):
        assert len(PARALLEL_MUTATIONS_BY_NAME) == len(PARALLEL_MUTATIONS)

    def test_expected_rules_exist(self):
        from repro.analysis import RULES_BY_ID

        for mutation in PARALLEL_MUTATIONS:
            assert mutation.expected_rule in RULES_BY_ID
            assert RULES_BY_ID[mutation.expected_rule].owner == "concurrency"

    @pytest.mark.parametrize(
        "name", sorted(PARALLEL_MUTATIONS_BY_NAME)
    )
    def test_static_catch(self, name):
        mutation = PARALLEL_MUTATIONS_BY_NAME[name]
        plan, _ = build_parallel_target(mutation)
        assert analyze_plan(plan).ok, "target must start clean"
        assert mutation.apply(plan), "mutation found no site"
        result = analyze_plan(plan)
        rules = {d.rule for d in result.errors}
        assert mutation.expected_rule in rules, result.format_text()

    @pytest.mark.parametrize(
        "name",
        sorted(
            m.name for m in PARALLEL_MUTATIONS if m.runtime_caught
        ),
    )
    def test_runtime_catch(self, name, fast_sanitizer):
        mutation = PARALLEL_MUTATIONS_BY_NAME[name]
        plan, arguments = build_parallel_target(mutation)
        assert mutation.apply(plan)
        with pytest.raises(ConcurrencyError) as excinfo:
            plan.run(arguments, sanitize=True)
        assert excinfo.value.rule.startswith("CC")

    def test_runtime_coverage_floor(self):
        caught = sum(1 for m in PARALLEL_MUTATIONS if m.runtime_caught)
        assert caught >= 4

    def test_swapped_consume_error_carries_key(self, fast_sanitizer):
        mutation = PARALLEL_MUTATIONS_BY_NAME[
            "parallel-swapped-post-consume"
        ]
        plan, arguments = build_parallel_target(mutation)
        assert mutation.apply(plan)
        with pytest.raises(ConcurrencyError) as excinfo:
            plan.run(arguments, sanitize=True)
        error = excinfo.value
        assert error.rule == "CC004"
        assert len(error.key) == 4
        assert error.worker == 0


class TestMailboxTypedErrors:
    def test_consume_timeout_carries_key_and_worker(self):
        ctx = RunContext(workers=1)
        ctx.mailbox_timeout = 0.2
        mailbox = TransferMailbox(ctx)
        with pytest.raises(MailboxTimeoutError) as excinfo:
            mailbox.consume((3, 0, 1, 0))
        error = excinfo.value
        assert error.rule == "CC004"
        assert error.key == (3, 0, 1, 0)
        assert error.worker == 1
        assert "tid=3" in str(error)

    def test_double_post_overflows_typed(self):
        ctx = RunContext(workers=1)
        ctx.mailbox_timeout = 0.2
        mailbox = TransferMailbox(ctx)
        payload = np.ones((2, 2))
        mailbox.post((5, 1, 0, 1), payload)
        with pytest.raises(MailboxOverflowError) as excinfo:
            mailbox.post((5, 1, 0, 1), payload)
        error = excinfo.value
        assert error.rule == "CC002"
        assert error.key == (5, 1, 0, 1)
        assert error.worker == 1


class TestEngineIntegration:
    def test_create_engine_sanitize(self):
        from repro.runtime.engine import create_engine

        mesh = DeviceMesh.ring(4)
        module = CASES["mlp-chain"].build(mesh)
        arguments = _arguments("mlp-chain", 4)
        reference = run_spmd(module, arguments, 4)[module.root.name]
        engine = create_engine("parallel", workers=2, sanitize=True)
        got = engine.run(module, arguments, mesh=mesh)[module.root.name]
        worst = max(np.abs(a - b).max() for a, b in zip(reference, got))
        assert worst < 1e-9

    def test_sanitize_rejected_off_parallel(self):
        from repro.runtime.engine import create_engine

        with pytest.raises(ValueError, match="sanitize"):
            create_engine("compiled", sanitize=True)

    def test_single_worker_traced_run_emits_sanitize_span(self):
        from repro.obs.events import SANITIZE
        from repro.obs.tracer import Tracer

        _, plan = _compiled_plan("mlp-chain", 4, VARIANTS[3][1], 1)
        tracer = Tracer()
        plan.run(_arguments("mlp-chain", 4), 0, tracer, sanitize=True)
        assert any(e.kind == SANITIZE for e in tracer.events)

    def test_multi_worker_traced_run_counts_sanitizer_work(self):
        from repro.obs.tracer import Tracer

        _, plan = _compiled_plan("mlp-chain", 4, VARIANTS[0][1], 2)
        tracer = Tracer()
        plan.run(_arguments("mlp-chain", 4), 0, tracer, sanitize=True)
        assert tracer.counters.get("sanitize.barriers", 0) > 0

    def test_sanitize_overhead_is_bounded(self):
        """Lenient smoke bound: instrumentation must stay a small
        multiple of the work it brackets."""
        _, plan = _compiled_plan("mlp-chain", 4, VARIANTS[3][1], 2)
        arguments = _arguments("mlp-chain", 4)

        def best_of(sanitize):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                plan.run(arguments, sanitize=sanitize)
                times.append(time.perf_counter() - start)
            return min(times)

        best_of(False)  # warm both paths before timing
        best_of(True)
        assert best_of(True) < 4.0 * best_of(False) + 1e-3


class TestVerifyCli:
    def test_verify_parallel_json_clean(self, capsys, tmp_path):
        out = tmp_path / "verify_parallel.json"
        code = main(
            [
                "verify", "--engine", "parallel", "--workers", "2",
                "--mutations", "--json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        labels = [t["target"] for t in payload["targets"]]
        assert any(l.startswith("mutation:") for l in labels)
        assert any("/w2" in l for l in labels)
        assert json.loads(out.read_text())["ok"]

    def test_verify_json_exit_code_on_c_rule_failure(
        self, capsys, tmp_path
    ):
        """A dump failing only collective-legality (C-prefix) rules
        must exit 1 and carry the failure in the JSON report."""
        ring = 4
        mesh = DeviceMesh.ring(ring)
        module = CASES["allgather-einsum"].build(mesh)
        compile_module(
            module, mesh, OverlapConfig(use_cost_model=False, unroll=False)
        )
        assert MUTATIONS_BY_NAME["self-send"].apply(module) is not None
        path = tmp_path / "self_send.hlo"
        path.write_text(format_module(module))
        code = main(
            ["verify", str(path), "--json", "--devices", str(ring)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        (target,) = payload["targets"]
        rules = {
            d["rule"]
            for stage in target["stages"]
            for d in stage["diagnostics"]
            if d["severity"] == "error"
        }
        assert rules
        assert all(r.startswith("C") and not r.startswith("CC") for r in rules)
