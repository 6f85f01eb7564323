"""Equivalence and unit tests for the compiled vectorized engine.

The contract under test: for every module the repo can produce — golden
chaos modules, every decompose/unroll/bidirectional overlap variant, and
the rolled/partially-unrolled While forms — ``create_engine("compiled")``
returns **bit-identical** outputs to the per-device reference ``Executor``
(``np.array_equal``, not allclose), while its lowering pipeline actually
performs the advertised optimizations (folding, CSE, DCE, copy elision,
buffer donation) without ever mutating caller-owned memory.
"""

import numpy as np
import pytest

from helpers import ALL_OVERLAP_CONFIGS, assert_bit_identical, split_shards

from repro.core.loop import emit_rolled, unroll_while
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.shapes import Shape
from repro.runtime.compile import lower
from repro.runtime.engine import create_engine
from repro.runtime.executor import ExecutionError, Executor
from repro.sharding.mesh import DeviceMesh


def _run_both(module, arguments, num_devices, outputs=None):
    reference = Executor(num_devices).run(module, arguments, outputs)
    got = create_engine("compiled").run(
        module, arguments, mesh=num_devices, outputs=outputs
    )
    assert_bit_identical(reference, got)
    return reference


def _config_id(config):
    return (
        f"{config.scheduler}-u{int(config.unroll)}-b{int(config.bidirectional)}"
    )


# --- the property suite: every golden module, every variant ------------------


@pytest.mark.parametrize("ring", [2, 4])
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_golden_modules_bit_identical(case, ring):
    mesh = DeviceMesh.ring(ring)
    rng = np.random.default_rng([20230325, ring])
    arguments = case.make_arguments(mesh, rng)
    _run_both(case.build(mesh), arguments, ring)


@pytest.mark.parametrize("config", ALL_OVERLAP_CONFIGS, ids=_config_id)
@pytest.mark.parametrize("ring", [2, 4])
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_overlap_variants_bit_identical(case, config, ring):
    """Decomposed programs contain async permute start/done chains, so
    this sweep also pins the snapshot-at-issue semantics (held by
    pinning the operand buffer until the deferred done reads it)."""
    mesh = DeviceMesh.ring(ring)
    rng = np.random.default_rng([20230325, ring])
    arguments = case.make_arguments(mesh, rng)
    module = case.build(mesh)
    compile_module(module, mesh, config)
    _run_both(module, arguments, ring)


def _gather_einsum(mesh):
    builder = GraphBuilder("ag")
    n = mesh.num_devices
    a = builder.parameter(Shape((24 // n, 5), F32), name="a")
    w = builder.parameter(Shape((5, 7), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w)
    return builder.module


@pytest.mark.parametrize("ring", [2, 3, 4])
@pytest.mark.parametrize("unroll_factor", [None, 0, 2])
def test_while_forms_bit_identical(rng, ring, unroll_factor):
    """Rolled loops run through a nested body plan; full and partial
    unrolling exercise iteration-dependent DynamicSlice offsets."""
    if unroll_factor == 2 and ring % 2:
        pytest.skip("degree-2 unrolling needs an even trip count")
    mesh = DeviceMesh.ring(ring)
    a, w = rng.normal(size=(24, 5)), rng.normal(size=(5, 7))
    arguments = {"a": split_shards(a, 0, ring), "w": [w.copy()] * ring}
    module = _gather_einsum(mesh)
    (candidate,) = find_candidates(module)
    loop = emit_rolled(module, candidate, mesh)
    if unroll_factor == 0:
        unroll_while(module, loop)
    elif unroll_factor == 2:
        unroll_while(module, loop, factor=2)
    _run_both(module, arguments, ring)


# --- async snapshot semantics ------------------------------------------------


def test_async_snapshot_at_issue_time(rng):
    """A write between start and done must not leak into the transfer."""
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    start = builder.collective_permute_start(a, [(0, 1), (1, 0)])
    mutated = builder.add(a, a)
    done = builder.collective_permute_done(start)
    builder.add(done, mutated)
    module = builder.module
    xs = [rng.normal(size=2), rng.normal(size=2)]
    out = _run_both(module, {"a": xs}, 2)[module.root.name]
    np.testing.assert_allclose(out[0], xs[1] + 2 * xs[0])
    np.testing.assert_allclose(out[1], xs[0] + 2 * xs[1])


def test_start_with_dead_done_skips_transfer(rng):
    """Selecting an output that ignores the done turns the start into a
    pure passthrough: no payload slot, no permute work."""
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    start = builder.collective_permute_start(a, [(0, 1), (1, 0)])
    mutated = builder.add(a, a)
    done = builder.collective_permute_done(start)
    builder.add(done, mutated)
    module = builder.module
    xs = [rng.normal(size=2), rng.normal(size=2)]
    wanted = [mutated.name, start.name]
    out = _run_both(module, {"a": xs}, 2, outputs=wanted)
    np.testing.assert_allclose(out[mutated.name][0], 2 * xs[0])
    np.testing.assert_allclose(out[start.name][0], xs[0])  # passthrough
    plan = lower(module, 2, outputs=wanted)
    assert plan.stats.dce_eliminated >= 1  # the done (and root add) died


# --- lowering-pipeline optimizations -----------------------------------------


def test_constant_folding():
    builder = GraphBuilder("m")
    z = builder.zeros(Shape((2, 2), F32))
    c = builder.constant(np.eye(2), F32)
    builder.add(z, c)
    module = builder.module
    plan = lower(module, 3)
    assert plan.stats.folded == 1            # the add itself
    assert plan.stats.steps == 0             # nothing left to execute
    out = _run_both(module, {}, 3)[module.root.name]
    np.testing.assert_array_equal(out[0], np.eye(2))


def test_cse_deduplicates_identical_einsums(rng):
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((3, 4), F32), name="a")
    b = builder.parameter(Shape((4, 5), F32), name="b")
    first = builder.einsum("ij,jk->ik", a, b)
    second = builder.einsum("ij,jk->ik", a, b)
    builder.add(first, second)
    module = builder.module
    plan = lower(module, 2)
    assert plan.stats.cse_eliminated == 1
    arguments = {
        "a": [rng.normal(size=(3, 4)) for _ in range(2)],
        "b": [rng.normal(size=(4, 5)) for _ in range(2)],
    }
    _run_both(module, arguments, 2)


def test_dce_drops_unreachable_ops(rng):
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    kept = builder.add(a, a)
    builder.negate(kept)  # root, but not requested below
    module = builder.module
    plan = lower(module, 2, outputs=[kept.name])
    assert plan.stats.dce_eliminated == 1
    xs = [rng.normal(size=2) for _ in range(2)]
    out = _run_both(module, {"a": xs}, 2, outputs=[kept.name])
    np.testing.assert_allclose(out[kept.name][0], 2 * xs[0])


def test_copy_elision_and_donation(rng):
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((4,), F32), name="a")
    b = builder.parameter(Shape((4,), F32), name="b")
    total = builder.add(a, b)      # may write into a's (dead) buffer
    copied = builder.copy(total)   # pure alias, no allocation
    builder.negate(copied)         # may negate the buffer in place
    module = builder.module
    plan = lower(module, 2)
    assert plan.stats.copies_elided == 1
    assert plan.stats.donations == 2
    xs = [rng.normal(size=4) for _ in range(2)]
    ys = [rng.normal(size=4) for _ in range(2)]
    out = _run_both(module, {"a": xs, "b": ys}, 2)[module.root.name]
    np.testing.assert_allclose(out[0], -(xs[0] + ys[0]))


def test_donation_never_mutates_arguments(rng):
    """Parameter buffers are donatable, but the donated buffer is the
    plan's freshly stacked copy — the caller's shards stay pristine."""
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((4,), F32), name="a")
    b = builder.parameter(Shape((4,), F32), name="b")
    s = builder.add(a, b)
    t = builder.add(s, b)
    builder.add(t, t)
    module = builder.module
    xs = [rng.normal(size=4) for _ in range(2)]
    ys = [rng.normal(size=4) for _ in range(2)]
    snapshots = [x.copy() for x in xs], [y.copy() for y in ys]
    _run_both(module, {"a": xs, "b": ys}, 2)
    for arrays, saved in zip((xs, ys), snapshots):
        for array, copy in zip(arrays, saved):
            np.testing.assert_array_equal(array, copy)


def test_repeated_runs_are_deterministic(rng):
    """Donation must not let one run's in-place writes poison the next
    (constants are read-only; every run stacks fresh parameters)."""
    mesh = DeviceMesh.ring(4)
    case = GOLDEN_CASES[2]
    arguments = case.make_arguments(mesh, rng)
    module = case.build(mesh)
    compile_module(
        module, mesh, ALL_OVERLAP_CONFIGS[0]
    )
    engine = create_engine("compiled")
    first = engine.run(module, arguments, mesh=mesh)
    second = engine.run(module, arguments, mesh=mesh)
    assert_bit_identical(first, second)


def test_describe_lists_steps():
    mesh = DeviceMesh.ring(2)
    plan = lower(_gather_einsum(mesh), 2)
    text = plan.describe()
    assert "2 devices" in text
    assert "all-gather" in text and "einsum" in text


# --- error paths -------------------------------------------------------------


def test_unknown_output_typed_error():
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    builder.add(a, a)
    module = builder.module
    with pytest.raises(ExecutionError, match="unknown output 'nope'"):
        create_engine("compiled").run(
            module, {"a": [np.zeros(2)] * 2}, mesh=2, outputs=["nope"]
        )


def test_argument_validation_matches_interpreter(rng):
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    builder.add(a, a)
    module = builder.module
    bad_arguments = [
        ({}, "missing argument"),
        ({"a": [np.zeros(2)]}, "expected 2 shards"),
        ({"a": [np.zeros(3), np.zeros(3)]}, "shard shape"),
    ]
    for arguments, pattern in bad_arguments:
        for kind in ("interpreted", "compiled"):
            with pytest.raises(ExecutionError, match=pattern):
                create_engine(kind).run(module, arguments, mesh=2)


def test_invalid_device_count():
    builder = GraphBuilder("m")
    a = builder.parameter(Shape((2,), F32), name="a")
    builder.add(a, a)
    with pytest.raises(ValueError, match="positive"):
        create_engine("compiled").run(builder.module, {}, mesh=0)
    with pytest.raises(ValueError, match="positive"):
        lower(builder.module, 0)
