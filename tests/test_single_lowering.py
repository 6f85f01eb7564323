"""There is one single-threaded lowering; this pins the fork shut.

``lower`` and ``lower_parallel(workers=1)`` must be the *same plan* —
equal step labels (hence equal releases), equal stats, bit-identical
outputs — and both bit-identical to the interpreter, on every golden
module in its raw, decomposed and unrolled-bidirectional forms and on
the rolled While forms. The second half pins the contract that plan
runs on: an async permute's operand is read at the *done*, so it may be
neither donated nor released inside the start..done window, and the
independent donation checker reports a record that does so as D001.
"""

import re

import numpy as np
import pytest

from helpers import assert_bit_identical, split_shards

from repro.analysis.donation_check import check_donations
from repro.core.config import OverlapConfig
from repro.core.loop import emit_rolled, unroll_while
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.hlo.builder import GraphBuilder
from repro.hlo.dtypes import F32
from repro.hlo.shapes import Shape
from repro.runtime.compile import lower
from repro.runtime.engine import create_engine
from repro.runtime.parallel import lower_parallel
from repro.runtime.plan import DonationRecord
from repro.sharding.mesh import DeviceMesh

VARIANTS = {
    "raw": None,
    "decomposed": OverlapConfig(use_cost_model=False),
    "unrolled-bidir": OverlapConfig(
        use_cost_model=False, scheduler="bottom_up",
        unroll=True, bidirectional=True,
    ),
}


def _assert_one_plan(module, arguments, num_devices):
    compiled = lower(module, num_devices)
    inline = lower_parallel(module, num_devices, workers=1)
    assert compiled.labels == inline.labels
    assert compiled.stats == inline.stats
    assert compiled.donations == inline.donations
    reference = create_engine("interpreted").run(
        module, arguments, mesh=num_devices
    )
    assert_bit_identical(reference, compiled.run(arguments))
    assert_bit_identical(reference, inline.run(arguments))


@pytest.mark.parametrize("ring", [2, 4, 8])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_golden_modules_lower_to_one_plan(case, variant, ring):
    mesh = DeviceMesh.ring(ring)
    rng = np.random.default_rng([20230325, ring])
    arguments = case.make_arguments(mesh, rng)
    module = case.build(mesh)
    if VARIANTS[variant] is not None:
        compile_module(module, mesh, VARIANTS[variant])
    _assert_one_plan(module, arguments, ring)


@pytest.mark.parametrize("ring", [2, 3, 4])
@pytest.mark.parametrize("unroll_factor", [None, 0, 2])
def test_while_forms_lower_to_one_plan(rng, ring, unroll_factor):
    if unroll_factor == 2 and ring % 2:
        pytest.skip("degree-2 unrolling needs an even trip count")
    mesh = DeviceMesh.ring(ring)
    builder = GraphBuilder("ag")
    a = builder.parameter(Shape((24 // ring, 5), F32), name="a")
    w = builder.parameter(Shape((5, 7), F32), name="w")
    gathered = builder.all_gather(a, 0, mesh.rings("x"))
    builder.einsum("bf,fh->bh", gathered, w)
    module = builder.module
    (candidate,) = find_candidates(module)
    loop = emit_rolled(module, candidate, mesh)
    if unroll_factor == 0:
        unroll_while(module, loop)
    elif unroll_factor == 2:
        unroll_while(module, loop, factor=2)
    arguments = {
        "a": split_shards(rng.normal(size=(24, 5)), 0, ring),
        "w": [rng.normal(size=(5, 7))] * ring,
    }
    _assert_one_plan(module, arguments, ring)


# --- the deferred contract under donation pressure -----------------------


def _pressure_module():
    """``x`` is in flight from ``start`` to ``done``; its last other
    reader is a negate *inside* that window, which would overwrite
    ``x``'s buffer in place if liveness stopped at the last reader."""
    builder = GraphBuilder("pressure")
    a = builder.parameter(Shape((3,), F32), name="a")
    b = builder.parameter(Shape((3,), F32), name="b")
    x = builder.add(a, b)
    start = builder.collective_permute_start(x, [(0, 1), (1, 0)])
    inside = builder.negate(x)
    done = builder.collective_permute_done(start)
    builder.add(done, inside)
    return builder.module, x, inside, done


def test_in_flight_operand_is_neither_donated_nor_released_early(rng):
    module, x, inside, done = _pressure_module()
    plan = lower(module, 2)
    assert x.name not in [record.value for record in plan.donations]

    slot_of = {}
    freed_at = {}
    for index, label in enumerate(plan.labels):
        slot, name = re.match(r"\[\s*(\d+)\] (\S+) =", label).groups()
        slot_of[name] = int(slot)
        freed = re.search(r"\(free \[([\d, ]*)\]\)", label)
        for released in (freed.group(1).split(",") if freed else ()):
            freed_at[int(released)] = name
    assert freed_at[slot_of[x.name]] == done.name

    arguments = {
        "a": [rng.normal(size=3) for _ in range(2)],
        "b": [rng.normal(size=3) for _ in range(2)],
    }
    assert_bit_identical(
        create_engine("interpreted").run(module, arguments, mesh=2),
        plan.run(arguments),
    )


def test_donation_inside_the_window_is_d001():
    module, x, inside, _ = _pressure_module()
    assert check_donations(module, num_devices=2) == []
    bad = DonationRecord(module.name, inside.name, x.name)
    findings = check_donations(module, records=[bad], num_devices=2)
    assert [d.rule for d in findings] == ["D001"]
