"""Budgeted search over overlap configs, scored by perfsim (and,
optionally, by measured engine runs).

``tune_module`` is the core loop: enumerate
:func:`~repro.tune.space.candidate_space`, compile each candidate
through the shared content-addressed pipeline cache
(:func:`repro.core.pipeline.compile_module_cached` — so re-tuning, the
experiment sweeps and the serving catalog all share lowerings), score
every compilation with one perfsim pass, and keep the winner. Because
candidate 0 *is* the default analytic-gate config, the winner is never
worse than the paper's one-shot gate under the scoring model.

With ``measure=True`` the perfsim winner is cross-checked against the
default config on a real engine: both programs execute end-to-end
(best-of-``repeats`` wall clock) and the tuned outputs are verified
**bit-identical to the interpreter oracle** — the tuner may change the
schedule, never the numbers.

``tune_golden`` sweeps the chaos harness's golden module families (the
programs the serving catalog and chaos share) and persists
every record into a :class:`~repro.tune.db.TuningDB`, which is how the
rest of the system picks tuned configs up by fingerprint with zero
re-search.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module_cached
from repro.hlo.module import HloModule
from repro.perfsim.hardware import TPU_V4, ChipSpec
from repro.perfsim.simulator import simulate
from repro.sharding.mesh import DeviceMesh
from repro.tune.db import TuningDB, TuningRecord, config_to_json, tuning_key
from repro.tune.space import SearchPoint, candidate_space, default_config


def require_tuned_capable(kind: str) -> None:
    """Fail loudly unless engine ``kind`` accepts tuned configs.

    Mirrors :func:`repro.runtime.engine.create_engine`'s dynamic
    error-message pattern: unknown kinds report the live registry,
    known-but-incapable kinds report which kinds do accept tuning.
    """
    from repro.runtime.engine import ENGINE_KINDS

    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
        )
    if "tuned" not in ENGINE_KINDS.options_for(kind):
        takers = ENGINE_KINDS.accepting("tuned")
        raise ValueError(
            f"engine kind {kind!r} does not accept tuned configs"
            + (f" (only {takers} do)" if takers else "")
        )


def score_config(
    build: Callable[[], HloModule],
    mesh: DeviceMesh,
    config: OverlapConfig,
    chip: ChipSpec = TPU_V4,
):
    """Compile one candidate (cached) and simulate it; returns
    ``(compilation, step_report)``."""
    compiled = compile_module_cached(build(), mesh, config, chip=chip)
    return compiled, simulate(compiled.module, mesh, chip=chip)


def _best_seconds(fn: Callable[[], Any], repeats: int, inner: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _bit_identical(a: Dict[str, list], b: Dict[str, list]) -> bool:
    """Positional output comparison: the pipeline renames auto-generated
    roots when it compiles, so keys differ while values must not."""
    if len(a) != len(b):
        return False
    return all(
        len(x) == len(y)
        and all(np.array_equal(p, q) for p, q in zip(x, y))
        for x, y in zip(a.values(), b.values())
    )


def _spot_check(
    build: Callable[[], HloModule],
    mesh: DeviceMesh,
    tuned: OverlapConfig,
    arguments: Dict[str, List[np.ndarray]],
    chip: ChipSpec,
    engine_kind: str,
    workers: Optional[int],
    repeats: int,
    inner: int,
) -> Tuple[float, bool]:
    """Measured default-vs-tuned wall clock plus the oracle check."""
    from repro.runtime.engine import ENGINE_KINDS, create_engine

    require_tuned_capable(engine_kind)
    options: Dict[str, Any] = {}
    if workers is not None and "workers" in ENGINE_KINDS.options_for(
        engine_kind
    ):
        options["workers"] = workers
    engine = create_engine(engine_kind, **options)
    oracle = create_engine("interpreted")

    n = mesh.num_devices
    reference = oracle.run(build(), arguments, mesh=n)
    default_module = compile_module_cached(
        build(), mesh, default_config(), chip=chip
    ).module
    tuned_module = compile_module_cached(build(), mesh, tuned, chip=chip).module

    identical = _bit_identical(
        reference, engine.run(tuned_module, arguments, mesh=n)
    )
    default_s = _best_seconds(
        lambda: engine.run(default_module, arguments, mesh=n), repeats, inner
    )
    tuned_s = _best_seconds(
        lambda: engine.run(tuned_module, arguments, mesh=n), repeats, inner
    )
    return default_s / tuned_s, identical


def tune_module(
    build: Callable[[], HloModule],
    mesh: DeviceMesh,
    *,
    label: str,
    chip: ChipSpec = TPU_V4,
    budget: Optional[int] = 24,
    base: Optional[OverlapConfig] = None,
    axes: Sequence[str] = (),
    db: Optional[TuningDB] = None,
    force: bool = False,
    measure: bool = False,
    make_arguments: Optional[
        Callable[[DeviceMesh, np.random.Generator], Dict[str, List[np.ndarray]]]
    ] = None,
    engine: str = "compiled",
    workers: Optional[int] = None,
    repeats: int = 2,
    inner: int = 3,
    seed: int = 20230325,
) -> TuningRecord:
    """Search the candidate space for ``build()``'s program on ``mesh``.

    ``build`` must return a fresh, uncompiled module per call (the
    pipeline rewrites in place — same contract as
    :func:`repro.adapt.ladder.run_with_ladder`). When ``db`` already
    holds a record for this program's tuning key and ``force`` is off,
    that record is returned untouched: persisted results mean zero
    re-search. ``axes`` appends per-mesh-axis override candidates to
    the end of the space (see :func:`candidate_space`); the tuning key
    and the flat-grid indices are unchanged, so per-axis wins persist
    into the same DB slots the single-axis search used.
    """
    key = tuning_key(build(), mesh, chip)
    if db is not None and not force:
        existing = db.get(key)
        if existing is not None:
            return existing

    points = candidate_space(budget, base=base, axes=axes)
    best: Optional[Tuple[float, SearchPoint, Any]] = None
    default_time = math.inf
    for point in points:
        compiled, report = score_config(build, mesh, point.config, chip=chip)
        elapsed = report.total_time
        if point.is_default:
            default_time = elapsed
        if best is None or (elapsed, point.index) < (best[0], best[1].index):
            best = (elapsed, point, compiled)
    assert best is not None  # candidate_space never returns empty
    tuned_time, winner, best_compiled = best

    measured_speedup: Optional[float] = None
    identical: Optional[bool] = None
    scored_by = "perfsim"
    if measure:
        if make_arguments is None:
            raise ValueError(
                "measure=True needs make_arguments to generate inputs"
            )
        rng = np.random.default_rng([seed, mesh.num_devices])
        measured_speedup, identical = _spot_check(
            build, mesh, winner.config, make_arguments(mesh, rng),
            chip, engine, workers, repeats, inner,
        )
        scored_by = "perfsim+measured"

    record = TuningRecord(
        key=key,
        label=label,
        config=config_to_json(winner.config),
        tuned_time=tuned_time,
        default_time=default_time,
        trials=len(points),
        scored_by=scored_by,
        sites=best_compiled.candidates_found,
        measured_speedup=measured_speedup,
        bit_identical=identical,
    )
    if db is not None:
        db.put(record)
    return record


def tune_golden(
    *,
    budget: Optional[int] = 24,
    db: Optional[TuningDB] = None,
    measure: bool = False,
    engine: str = "compiled",
    workers: Optional[int] = None,
    chip: ChipSpec = TPU_V4,
    force: bool = False,
    rings: Optional[Sequence[int]] = None,
    cases: Optional[Sequence[str]] = None,
    seed: int = 20230325,
) -> List[TuningRecord]:
    """Tune every golden module family at every ring size.

    These are exactly the programs the serving catalog
    (:func:`repro.models.serving.default_catalog`) and the chaos
    harness execute, so persisting their records is what makes
    ``--tuned`` runs a pure DB lookup.
    """
    from repro.faults.chaos import GOLDEN_CASES

    records: List[TuningRecord] = []
    for case in GOLDEN_CASES:
        if cases is not None and case.name not in cases:
            continue
        for ring in case.rings:
            if rings is not None and ring not in rings:
                continue
            mesh = DeviceMesh.ring(ring)
            records.append(
                tune_module(
                    lambda case=case, mesh=mesh: case.build(mesh),
                    mesh,
                    label=f"{case.name}@{ring}",
                    chip=chip,
                    budget=budget,
                    db=db,
                    force=force,
                    measure=measure,
                    make_arguments=case.make_arguments,
                    engine=engine,
                    workers=workers,
                    seed=seed,
                )
            )
    return records
