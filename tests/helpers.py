"""Shared helpers for the test suite (fixtures live in conftest)."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.hlo.module import HloModule
from repro.runtime.executor import run_spmd
from repro.sharding.mesh import DeviceMesh


#: The full config grid the equivalence tests sweep.
ALL_OVERLAP_CONFIGS = [
    OverlapConfig(use_cost_model=False, scheduler=scheduler,
                  unroll=unroll, bidirectional=bidirectional)
    for scheduler in ("bottom_up", "top_down", "in_order")
    for unroll in (False, True)
    for bidirectional in (False, True)
]


def run_and_compare(
    build: Callable[[], HloModule],
    mesh: DeviceMesh,
    arguments: Dict[str, Sequence[np.ndarray]],
    configs: Optional[Sequence[OverlapConfig]] = None,
    atol: float = 1e-9,
) -> None:
    """Assert every compiled variant matches the uncompiled module.

    ``build`` must return a fresh module each call (compilation mutates
    in place).
    """
    reference_module = build()
    reference = run_spmd(
        reference_module, arguments, mesh.num_devices
    )[reference_module.root.name]

    for config in configs if configs is not None else ALL_OVERLAP_CONFIGS:
        module = build()
        compile_module(module, mesh, config)
        result = run_spmd(module, arguments, mesh.num_devices)
        got = result[module.root.name]
        worst = max(
            np.abs(g - r).max() for g, r in zip(got, reference)
        )
        assert worst < atol, (
            f"config {config} diverges by {worst:.3e}"
        )


def split_shards(array: np.ndarray, axis: int, count: int):
    return [s.copy() for s in np.split(array, count, axis=axis)]


def assert_bit_identical(reference, got):
    """``np.array_equal`` on every device shard of every output."""
    assert reference.keys() == got.keys()
    for name in reference:
        assert len(reference[name]) == len(got[name])
        for device, (want, have) in enumerate(
            zip(reference[name], got[name])
        ):
            assert np.array_equal(want, have), (
                f"output {name!r} differs on device {device}"
            )
