"""The four workloads and the run that takes one through every section.

A workload is a set of programs and a split of the run's seconds over
the three sections of :mod:`bench.sections`. Every workload runs every
section, so every run reports every metric of ``BENCHMARK.json``; the
split decides which layers do most of the work, and ``primary`` names
the section the workload exists for. ``bench/README.md`` says why each
was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import time
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from bench import programs
from bench.sections import (
    ExecSection,
    ServeSection,
    SweepSection,
    Tally,
    model_item,
    program_item,
)
from bench.spans import SpanRecorder
from bench.stats import summarize
from repro.models.configs import BIGSSL_10B, GLAM_1T, TABLE1

SWEEP, EXEC, SERVE = "sweep", "exec", "serve"


@dataclasses.dataclass(frozen=True)
class Workload:
    primary: str
    split: Tuple[float, float, float]      # sweep, exec, serve
    programs: Callable[[], List[programs.Program]]
    #: Sweep the six full-scale Table 1 models (which only the simulator
    #: can run) instead of the programs the exec section executes.
    sweep_table1: bool = False
    #: Give the exec section every CPU the process started with. Only
    #: for kernels that release the GIL: there a second core is real
    #: parallelism, elsewhere it is a scheduler lottery (see
    #: ``run.confine``).
    exec_on_all_cpus: bool = False


WORKLOADS: Dict[str, Workload] = {
    "table1-sweep": Workload(
        SWEEP, (0.72, 0.14, 0.14), programs.zoo_programs, sweep_table1=True
    ),
    "layer-exec-mid": Workload(
        EXEC, (0.04, 0.82, 0.14),
        lambda: programs.layer_programs(programs.MID_LAYER),
        exec_on_all_cpus=True,
    ),
    "ring-exec-tiny": Workload(
        EXEC, (0.06, 0.80, 0.14), programs.ring_programs
    ),
    "serve-closed": Workload(
        SERVE, (0.04, 0.12, 0.84), programs.catalog_programs
    ),
}


@dataclasses.dataclass(frozen=True)
class Floors:
    """Samples a section collects even when its seconds run out first."""

    sweeps: int
    rounds: int
    cold_builds: int
    light_requests: int
    loaded_requests: int


PRIMARY = Floors(3, 10, 5, 500, 2000)
PROBE = Floors(2, 5, 5, 100, 500)
QUICK = Floors(1, 2, 1, 20, 100)
#: Set-up is repeated and its median reported, to steady ``setup_s``.
SETUP_REPEATS = 3


class Sections:
    """One set-up of a workload: programs, inputs, engines, server."""

    def __init__(self, workload: Workload, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        exec_programs = workload.programs()
        if workload.sweep_table1:
            items = [model_item(cfg) for cfg in TABLE1]
            # A whole warm-up sweep costs 3.5 s per set-up; the smallest
            # model warms the same code and the median sheds sweep one.
            warm = [model_item(BIGSSL_10B)]
            # Statically verifying a full-scale layer takes 0.3-0.8 s
            # for these two models' three layers and 1.6-24 s for each
            # of the other five; only the former fit a run.
            verify = [GLAM_1T.name, BIGSSL_10B.name]
        else:
            items = warm = [program_item(p) for p in exec_programs]
            verify = [item.name for item in items]
        self.sweep = SweepSection(items, warm, verify, rng)
        self.exec = ExecSection(exec_programs, rng)
        self.serve = ServeSection(seed)

    def warm_up(self) -> None:
        self.sweep.warm_up()
        self.exec.warm_up()
        self.serve.warm_up()

    def close(self) -> None:
        self.serve.close()


@contextlib.contextmanager
def _on_cpus(cpus: FrozenSet[int]) -> Iterator[None]:
    """Run the block (and the threads it starts) on ``cpus``."""
    if not cpus:
        yield
        return
    confined = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, confined)


def run(
    name: str, seed: int, seconds: float, trace: bool, quick: bool,
    started: float, cpus: FrozenSet[int] = frozenset(),
) -> Dict:
    """Set up, measure or trace, then check ``name``; ``started`` is the
    process's first ``perf_counter`` reading, which ``setup_s`` counts
    from, and ``cpus`` the CPUs the process had before it was confined
    to one."""
    workload = WORKLOADS[name]
    exec_cpus = cpus if workload.exec_on_all_cpus else frozenset()
    imported = time.perf_counter() - started

    setups: List[float] = []
    sections: Optional[Sections] = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if sections is not None:
            sections.close()
        begin = time.perf_counter()
        sections = Sections(workload, seed)
        sections.warm_up()
        setups.append(time.perf_counter() - begin)
    assert sections is not None

    def floors(section: str) -> Floors:
        if quick:
            return QUICK
        return PRIMARY if section == workload.primary else PROBE

    budget = dict(zip((SWEEP, EXEC, SERVE), (seconds * s for s in workload.split)))
    tally = Tally()
    detail: Dict[str, Dict] = {}
    spans: Dict = {}
    try:
        if not trace:
            metrics = {"setup_s": imported + summarize(setups).median}
            detail["setup_build_s"] = summarize(setups).to_json()
            measured = [
                sections.sweep.measure(budget[SWEEP], floors(SWEEP).sweeps)
            ]
            with _on_cpus(exec_cpus):
                measured.append(sections.exec.measure(
                    budget[EXEC], floors(EXEC).rounds, floors(EXEC).cold_builds
                ))
            measured.append(sections.serve.measure(
                budget[SERVE], floors(SERVE).light_requests,
                floors(SERVE).loaded_requests,
            ))
            for values, summaries in measured:
                metrics.update(values)
                detail.update({k: s.to_json() for k, s in summaries.items()})
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        else:
            recorder = SpanRecorder()
            traced = {
                SWEEP: sections.sweep.trace(
                    budget[SWEEP], floors(SWEEP).sweeps, recorder
                )
            }
            with _on_cpus(exec_cpus):
                traced[EXEC] = sections.exec.trace(
                    budget[EXEC], floors(EXEC).rounds,
                    floors(EXEC).cold_builds, recorder,
                )
            traced[SERVE] = sections.serve.trace(
                budget[SERVE], floors(SERVE).light_requests,
                floors(SERVE).loaded_requests,
            )
            metrics = {}
            for values, _overhead in traced.values():
                metrics.update(values)
            metrics["obs.tracing_overhead_share"] = traced[workload.primary][1]
            spans = recorder.aggregate()
    finally:
        sections.close()

    sections.sweep.check(tally)
    checked = sections.exec.check(tally)
    sections.serve.check(tally)
    if trace:
        metrics.update(checked)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "metrics": metrics,
        "detail": detail,
        "spans": spans,
    }
