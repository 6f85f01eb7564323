"""The three sections every workload takes its programs through.

* :class:`SweepSection` — plan and simulate: graph build, partition, the
  overlap pipeline and the performance simulator, cold every sweep.
* :class:`ExecSection` — execute: the reference and decomposed programs
  on the compiled and the two-worker parallel engine, warm and cold.
* :class:`ServeSection` — serve: a closed loop against a ``Server``.

Each has ``warm_up`` (part of set-up), ``measure`` (tracing off, feeds
the end-to-end metrics), ``trace`` (the per-layer numbers) and ``check``
(oracles, outside every timed region). All load — timing loops, the
closed-loop generator — is written here against public entry points, so
no later PR can change it from under the numbers.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench import programs
from bench.programs import Program
from bench.spans import SpanRecorder
from bench.stats import geomean, percentile, summarize
from repro.analysis import verify_module
from repro.core import pipeline
from repro.core.config import OverlapConfig
from repro.models import step as model_step
from repro.models.configs import ModelConfig
from repro.models.serving import default_catalog
from repro.obs import events as kinds
from repro.obs.overlap import overlap_summary
from repro.obs.tracer import Tracer
from repro.perfsim import simulator
from repro.runtime.engine import create_engine
from repro.runtime.plan_cache import PlanCache
from repro.serve.errors import QueueFullError
from repro.serve.server import ServeConfig, Server

now = time.perf_counter

#: Engine and server pools, sized for the 2-core reference box.
WORKERS = 2
#: Engine outputs must agree with the interpreter to this share of the
#: output's largest magnitude; the parallel engine must agree exactly.
RELATIVE_TOLERANCE = 1e-9

Values = Dict[str, Optional[float]]


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)

    def ran(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _close(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        a.shape == b.shape
        and np.max(np.abs(a - b), initial=0.0)
        <= RELATIVE_TOLERANCE * np.max(np.abs(b), initial=0.0)
        for a, b in zip(got, want)
    )


def _identical(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want)
    )


def _flat(values: Dict[str, List[np.ndarray]]) -> List[np.ndarray]:
    """Outputs in program order; compiled roots are renamed, so results
    are compared by position, not by name."""
    return [shard for shards in values.values() for shard in shards]


def _span_median(
    recorder: SpanRecorder, name: str, seconds: Sequence[float]
) -> Optional[float]:
    """Median seconds of span ``name`` per block, or ``None`` (``null``
    in the result) when its wrapper could not be installed."""
    return None if name in recorder.missing else summarize(seconds).median


@dataclasses.dataclass(frozen=True)
class Entry:
    """One member of a round-robin. The whole call is timed unless
    ``run`` returns a float: then that is the sample (a cold build times
    only part of what it does)."""

    key: str
    run: Callable[[], object]
    interval: float = 0.0      # seconds between runs; 0 = every round
    at_least: int = 0          # samples to collect even past the budget


def round_robin(
    entries: Sequence[Entry], budget: float, min_rounds: int
) -> Dict[str, List[float]]:
    """Interleave ``entries`` for ``budget`` seconds, collecting garbage
    between blocks of about half a second rather than inside a sample."""
    samples: Dict[str, List[float]] = {entry.key: [] for entry in entries}
    due = {entry.key: 0.0 for entry in entries}

    def sample(entry: Entry) -> None:
        start = now()
        own = entry.run()
        samples[entry.key].append(
            own if isinstance(own, float) else now() - start
        )

    gc.collect()
    begin = collected = now()
    rounds = 0
    while rounds < min_rounds or now() - begin < budget:
        for entry in entries:
            if now() - begin >= due[entry.key]:
                sample(entry)
                due[entry.key] = now() - begin + entry.interval
        rounds += 1
        if now() - collected > 0.5:
            gc.collect()
            collected = now()
    for entry in entries:
        while len(samples[entry.key]) < entry.at_least:
            sample(entry)
    return samples


# --- plan and simulate -------------------------------------------------------


@dataclasses.dataclass
class SimOutcome:
    """One item of a sweep: the baseline and overlapped simulated step,
    and what the pipeline did to each overlapped layer."""

    baseline: object           # StepReport
    overlapped: object         # StepReport
    compilations: List[Tuple[object, object]]   # (CompilationResult, mesh)
    partitioned: int           # instructions out of the partitioner


@dataclasses.dataclass(frozen=True)
class SimItem:
    name: str
    run: Callable[[], SimOutcome]


def model_item(cfg: ModelConfig) -> SimItem:
    """A full-scale model through ``simulate_step``, as the paper's
    Table 1 experiment and the tuner's inner loop run it."""
    mesh = cfg.mesh()

    def run() -> SimOutcome:
        baseline = model_step.simulate_step(cfg, OverlapConfig.baseline())
        overlapped = model_step.simulate_step(cfg, OverlapConfig())
        return SimOutcome(
            baseline.report,
            overlapped.report,
            [(c, mesh) for c in overlapped.compilations],
            sum(len(c.module) for c in baseline.compilations),
        )

    return SimItem(cfg.name, run)


def program_item(program: Program) -> SimItem:
    """The same steps for a program the exec section also runs."""

    def simulate(config: OverlapConfig):
        module = programs.build_module(program)
        partitioned = len(module)
        compilation = pipeline.compile_module(module, program.mesh, config)
        return simulator.simulate(module, program.mesh), compilation, partitioned

    def run() -> SimOutcome:
        baseline, _, partitioned = simulate(OverlapConfig.baseline())
        overlapped, compilation, _ = simulate(program.config)
        return SimOutcome(
            baseline, overlapped, [(compilation, program.mesh)], partitioned
        )

    return SimItem(program.name, run)


SWEEP_SPANS = (
    "models.graph_build", "sharding.partition", "core.find_candidates",
    "core.decompose", "core.fusion", "core.async_split", "core.schedule",
    "core.compile_module", "perfsim.simulate",
)


class SweepSection:
    def __init__(
        self,
        items: Sequence[SimItem],
        warm: Sequence[SimItem],
        verify: Sequence[str],
        rng: np.random.Generator,
    ) -> None:
        self.items = list(items)
        self.warm = list(warm)       # what set-up runs once, untimed
        self.verify = set(verify)    # names of the items check() verifies
        self.rng = rng
        self.first: Optional[Tuple] = None      # sweep 1's simulated numbers
        self.last: List[SimOutcome] = []
        self.sweeps = 0
        self.irreproducible = 0

    def warm_up(self) -> None:
        pipeline.clear_compile_cache()
        for item in self.warm:
            item.run()

    def sweep(self) -> float:
        """One cold sweep in a seeded order; returns its host seconds."""
        order = self.rng.permutation(len(self.items))
        outcomes: Dict[int, SimOutcome] = {}
        pipeline.clear_compile_cache()
        gc.collect()
        start = now()
        for index in order:
            outcomes[index] = self.items[index].run()
        seconds = now() - start
        self.last = [outcomes[i] for i in range(len(self.items))]
        numbers = tuple(
            (o.baseline.total_time, o.overlapped.total_time) for o in self.last
        )
        if self.first is None:
            self.first = numbers
        elif numbers != self.first:
            self.irreproducible += 1
        self.sweeps += 1
        return seconds

    @staticmethod
    def _repeat(budget: float, at_least: int, run: Callable[[], None]) -> None:
        """Call ``run`` until the next call would overrun the budget."""
        begin = now()
        count, last = 0, 0.0
        while count < at_least or now() - begin + last <= budget:
            start = now()
            run()
            last = now() - start
            count += 1

    def measure(self, budget: float, at_least: int) -> Tuple[Values, Dict]:
        seconds: List[float] = []
        self._repeat(budget, at_least, lambda: seconds.append(self.sweep()))
        assert self.first is not None
        return (
            {
                "sweep_s": summarize(seconds).median,
                "sim_speedup_geomean": geomean(
                    [base / over for base, over in self.first]
                ),
                "sim_step_s_geomean": geomean(
                    [over for _, over in self.first]
                ),
            },
            {"sweep_s": summarize(seconds)},
        )

    def trace(
        self, budget: float, at_least: int, recorder: SpanRecorder
    ) -> Tuple[Values, float]:
        """Sweeps in pairs, one plain and one with the layer boundaries
        wrapped in spans; returns the layer values and the overhead."""
        plain: List[float] = []
        with_spans: List[float] = []
        totals: List[Dict[str, float]] = []
        own: List[Dict[str, float]] = []

        def pair() -> None:
            plain.append(self.sweep())
            mark = recorder.mark()
            with recorder.installed(SWEEP_SPANS):
                with_spans.append(self.sweep())
            totals.append(recorder.totals(mark))
            own.append(recorder.totals(mark, self_time=True))

        self._repeat(budget, max(1, at_least // 2), pair)

        def seconds(name: str, per_sweep: List[Dict[str, float]]):
            return _span_median(
                recorder, name, [t.get(name, 0.0) for t in per_sweep]
            )

        values: Values = {
            "models.graph_build_s": seconds("models.graph_build", own),
            "sharding.partition_s": seconds("sharding.partition", totals),
            "core.find_candidates_s": seconds("core.find_candidates", totals),
            "core.decompose_s": seconds("core.decompose", totals),
            "core.fusion_s": seconds("core.fusion", totals),
            "core.async_split_s": seconds("core.async_split", totals),
            "core.schedule_s": seconds("core.schedule", totals),
            "core.compile_module_s": seconds("core.compile_module", totals),
            "perfsim.simulate_s": seconds("perfsim.simulate", totals),
        }
        compilations = [c for o in self.last for c, _ in o.compilations]
        reports = [o.overlapped for o in self.last]
        transfer = sum(r.transfer_time_total for r in reports)
        total = sum(r.total_time for r in reports)
        values.update({
            "sharding.instructions_out": sum(o.partitioned for o in self.last),
            "core.candidates_found": sum(
                c.candidates_found for c in compilations
            ),
            "core.candidates_decomposed": sum(
                c.candidates_decomposed for c in compilations
            ),
            "core.fusion_groups": sum(c.fusion_groups for c in compilations),
            "core.instructions_out": sum(len(c.module) for c in compilations),
            "perfsim.hidden_transfer_share": (
                sum(r.hidden_transfer_time for r in reports) / transfer
                if transfer else 0.0
            ),
            "perfsim.exposed_comm_share": (
                sum(r.exposed_communication_time for r in reports) / total
            ),
            "perfsim.flops_utilization": sum(r.flops for r in reports) / sum(
                r.total_time * r.peak_flops for r in reports
            ),
        })
        return values, summarize(with_spans).median / summarize(plain).median - 1

    def check(self, tally: Tally) -> None:
        """Every sweep must have reproduced sweep 1's simulated numbers,
        and every overlapped layer of the items named in ``verify`` must
        pass the static verifier."""
        tally.ran(self.sweeps * 2 * len(self.items))
        tally.check(
            self.irreproducible == 0,
            f"{self.irreproducible} sweeps changed the simulated numbers",
        )
        for item, outcome in zip(self.items, self.last):
            if item.name not in self.verify:
                continue
            for compilation, mesh in outcome.compilations:
                result = verify_module(
                    compilation.module,
                    num_devices=mesh.num_devices,
                    max_in_flight=compilation.config.total_in_flight_budget(
                        mesh.axis_names
                    ),
                )
                tally.check(
                    result.ok, f"verify_module: {compilation.module.name}"
                )


# --- execute -----------------------------------------------------------------


@dataclasses.dataclass
class ExecCase:
    program: Program
    reference: object          # raw HloModule
    decomposed: object         # HloModule after compile_module
    arguments: Dict[str, List[np.ndarray]]


class ExecSection:
    def __init__(
        self, exec_programs: Sequence[Program], rng: np.random.Generator
    ) -> None:
        self.cases = []
        for program in exec_programs:
            decomposed = programs.build_module(program)
            pipeline.compile_module(decomposed, program.mesh, program.config)
            self.cases.append(
                ExecCase(
                    program,
                    programs.build_module(program),
                    decomposed,
                    program.make_arguments(rng),
                )
            )
        self.compiled = create_engine("compiled")
        self.parallel = create_engine("parallel", workers=WORKERS)
        self.steps = 0

    def step(self, engine, variant: str, tracer: Optional[Tracer] = None):
        """One step: every program of the workload once."""
        self.steps += 1
        return [
            engine.run(
                getattr(case, variant), case.arguments,
                mesh=case.program.mesh, tracer=tracer,
            )
            for case in self.cases
        ]

    def cold_step(self) -> float:
        """Pipeline, lowering into an empty plan cache and first run, on
        the compiled engine; building the raw modules is not timed."""
        modules = [programs.build_module(case.program) for case in self.cases]
        self.steps += 1
        start = now()
        engine = create_engine("compiled", plan_cache=PlanCache())
        for case, module in zip(self.cases, modules):
            pipeline.compile_module(
                module, case.program.mesh, case.program.config
            )
            engine.run(module, case.arguments, mesh=case.program.mesh)
        return now() - start

    def warm_up(self) -> None:
        self.step(self.compiled, "decomposed")
        self.step(self.parallel, "decomposed")
        self.step(self.parallel, "reference")

    def _entries(self, budget: float, cold_builds: int) -> List[Entry]:
        return [
            Entry("compiled",
                  lambda: self.step(self.compiled, "decomposed")),
            Entry("parallel",
                  lambda: self.step(self.parallel, "decomposed")),
            Entry("parallel_ref",
                  lambda: self.step(self.parallel, "reference")),
            Entry("cold", self.cold_step, interval=budget / (cold_builds + 1),
                  at_least=cold_builds),
        ]

    @staticmethod
    def _end_to_end(samples: Dict[str, List[float]]) -> Tuple[Values, Dict]:
        """Step times are **lower quartiles**. With two CPUs a step is
        its floor plus one-sided delay from whatever else the host puts
        on the second CPU: over eight runs of ``layer-exec-mid`` the
        parallel step's lower quartile held 143.9-146.9 ms while its
        median ranged 145-169. On one CPU the two agree to 1 %."""
        detail = {
            "step_ms_compiled": summarize(samples["compiled"]).scaled(1e3),
            "step_ms_parallel": summarize(samples["parallel"]).scaled(1e3),
            "step_ms_parallel_ref": summarize(
                samples["parallel_ref"]).scaled(1e3),
            "cold_step_ms": summarize(samples["cold"]).scaled(1e3),
        }
        values = {
            "step_ms_compiled": detail["step_ms_compiled"].q1,
            "step_ms_parallel": detail["step_ms_parallel"].q1,
            "overlap_gain_parallel": (
                detail["step_ms_parallel_ref"].q1
                / detail["step_ms_parallel"].q1
            ),
            "cold_step_ms": detail["cold_step_ms"].median,
        }
        return values, detail

    def measure(
        self, budget: float, min_rounds: int, cold_builds: int
    ) -> Tuple[Values, Dict]:
        return self._end_to_end(
            round_robin(self._entries(budget, cold_builds), budget, min_rounds)
        )

    def trace(
        self, budget: float, min_rounds: int, cold_builds: int,
        recorder: SpanRecorder,
    ) -> Tuple[Values, float]:
        interpreted = create_engine("interpreted")
        parallel_w1 = create_engine("parallel", workers=1)
        busy: List[Dict[str, float]] = []      # per traced step, by kind
        transfer_bytes: List[float] = []
        hidden: List[float] = []

        def traced_step() -> float:
            tracer = Tracer()
            start = now()
            self.step(self.parallel, "decomposed", tracer)
            seconds = now() - start
            by_kind: Dict[str, float] = collections.defaultdict(float)
            moved = 0
            for event in tracer.events:
                if event.kind == kinds.TRANSFER:
                    moved += event.bytes
                elif event.depth == 0:
                    by_kind[event.kind] += event.duration
            busy.append(by_kind)
            transfer_bytes.append(moved)
            if len(hidden) < 3:    # the interval intersection is slow
                hidden.append(overlap_summary(tracer.events).hidden_fraction)
            return seconds

        lower_s: List[float] = []
        lower_parallel_s: List[float] = []

        def cold_step() -> float:
            mark = recorder.mark()
            seconds = self.cold_step()
            lower_s.append(recorder.totals(mark).get("runtime.lower", 0.0))
            return seconds

        def cold_parallel_plans() -> None:
            mark = recorder.mark()
            engine = create_engine(
                "parallel", workers=WORKERS, plan_cache=PlanCache()
            )
            for case in self.cases:
                engine.plan_for(case.decomposed, mesh=case.program.mesh)
            lower_parallel_s.append(
                recorder.totals(mark).get("runtime.lower_parallel", 0.0)
            )

        entries = self._entries(budget, cold_builds)
        entries[-1] = dataclasses.replace(entries[-1], run=cold_step)
        entries += [
            Entry("parallel_traced", traced_step),
            Entry("compiled_ref",
                  lambda: self.step(self.compiled, "reference")),
            Entry("parallel_w1",
                  lambda: self.step(parallel_w1, "decomposed")),
            Entry("interpreted",
                  lambda: self.step(interpreted, "decomposed"),
                  interval=budget / 3, at_least=2),
            Entry("cold_parallel", cold_parallel_plans,
                  interval=budget / (cold_builds + 1), at_least=cold_builds),
        ]
        for engine, variant in (
            (self.compiled, "reference"), (parallel_w1, "decomposed"),
            (interpreted, "decomposed"),
        ):
            self.step(engine, variant)     # lower and warm, untimed
        with recorder.installed(("runtime.lower", "runtime.lower_parallel")):
            samples = round_robin(entries, budget, min_rounds)

        hit_us: List[float] = []
        for _ in range(100):
            for case in self.cases:
                start = now()
                self.compiled.plan_for(case.decomposed, mesh=case.program.mesh)
                hit_us.append((now() - start) * 1e6)

        stats = [
            self.compiled.plan_for(c.decomposed, mesh=c.program.mesh).stats
            for c in self.cases
        ]
        parallel_steps = sum(
            self.parallel.plan_for(c.decomposed, mesh=c.program.mesh).stats.steps
            for c in self.cases
        )
        predicted = sum(
            simulator.simulate(c.reference, c.program.mesh).total_time
            for c in self.cases
        ) / sum(
            simulator.simulate(c.decomposed, c.program.mesh).total_time
            for c in self.cases
        )

        step = {key: summarize(value).q1 for key, value in samples.items()}

        def share(*event_kinds: str) -> float:
            return summarize([
                sum(by_kind[k] for k in event_kinds) / sum(by_kind.values())
                for by_kind in busy
            ]).median

        values = {
            "perfsim.predicted_gain": predicted,
            "perfsim.predicted_over_measured": (
                predicted / (step["parallel_ref"] / step["parallel"])
            ),
            "runtime.lower_s": _span_median(
                recorder, "runtime.lower", lower_s
            ),
            "runtime.lower_parallel_s": _span_median(
                recorder, "runtime.lower_parallel", lower_parallel_s
            ),
            "runtime.plan_cache_hit_us": summarize(hit_us).median,
            "runtime.plan_steps": sum(s.steps for s in stats),
            "runtime.plan_folded": sum(s.folded for s in stats),
            "runtime.plan_cse_eliminated": sum(
                s.cse_eliminated for s in stats
            ),
            "runtime.plan_copies_elided": sum(s.copies_elided for s in stats),
            "runtime.plan_donations": sum(s.donations for s in stats),
            "runtime.interpreted_step_ms": step["interpreted"] * 1e3,
            "runtime.compiled_ref_step_ms": step["compiled_ref"] * 1e3,
            "runtime.parallel_ref_step_ms": step["parallel_ref"] * 1e3,
            "runtime.parallel_w1_step_ms": step["parallel_w1"] * 1e3,
            "runtime.overlap_gain_compiled": (
                step["compiled_ref"] / step["compiled"]
            ),
            "runtime.parallel_over_compiled": (
                step["compiled"] / step["parallel"]
            ),
            "runtime.compute_share": share(kinds.COMPUTE),
            "runtime.collective_share": share(kinds.COLLECTIVE),
            "runtime.async_share": share(kinds.ASYNC_START, kinds.ASYNC_DONE),
            "runtime.stall_share": share(kinds.STALL),
            "runtime.transfer_bytes": summarize(transfer_bytes).median,
            "runtime.measured_hidden_share": summarize(hidden).median,
            "runtime.us_per_plan_step": (
                step["parallel"] * 1e6 / parallel_steps
            ),
        }
        return values, step["parallel_traced"] / step["parallel"] - 1

    def check(self, tally: Tally) -> Values:
        """Against ``create_engine("interpreted")`` on the same module:
        the parallel engine bit-identical, the compiled engine within
        :data:`RELATIVE_TOLERANCE` (at HEAD its batched einsums differ
        from the interpreter in the last bit on ``layer-exec-mid``);
        and the decomposed program close to the undecomposed one."""
        tally.ran(self.steps * len(self.cases))
        interpreted = create_engine("interpreted")
        identical = compared = 0
        for case in self.cases:
            run = lambda engine, variant: _flat(engine.run(
                getattr(case, variant), case.arguments, mesh=case.program.mesh
            ))
            oracle = {
                variant: run(interpreted, variant)
                for variant in ("reference", "decomposed")
            }
            name = case.program.name
            tally.check(
                _close(oracle["decomposed"], oracle["reference"]),
                f"{name}: decomposed differs from the reference program",
            )
            for engine, variant, exact in (
                (self.compiled, "decomposed", False),
                (self.parallel, "decomposed", True),
                (self.parallel, "reference", True),
            ):
                got = run(engine, variant)
                same = _identical(got, oracle[variant])
                identical += same
                compared += 1
                tally.check(
                    same if exact else _close(got, oracle[variant]),
                    f"{name}: {engine.kind} engine differs from the "
                    f"interpreter on the {variant} program",
                )
        return {"runtime.bit_identical_share": identical / compared}


# --- serve -------------------------------------------------------------------

#: Distinct seeded inputs per program; requests cycle through them.
INPUT_POOL = 4
#: Every 64th response is kept and compared with the interpreter.
CHECK_EVERY = 64
LIGHT_OUTSTANDING = 2
LOADED_OUTSTANDING = 32
#: Share of the section's time spent in the light phase.
LIGHT_SHARE = 0.3


@dataclasses.dataclass
class Phase:
    latencies: List[float]
    queue_waits: List[float]
    submits: List[float]
    wall: float
    backoffs: int


class ServeSection:
    """A closed loop from one generator thread: each of ``outstanding``
    clients sends its next request when its previous one completes."""

    def __init__(self, seed: int) -> None:
        self.catalog = default_catalog()
        self.names = sorted(self.catalog)
        self.rng = np.random.default_rng([seed, 3])
        self.inputs = {
            name: [
                self.catalog[name].make_inputs_seeded(seed * INPUT_POOL + slot)
                for slot in range(INPUT_POOL)
            ]
            for name in self.names
        }
        self.server = Server(
            ServeConfig(engine="compiled", workers=WORKERS),
            catalog=self.catalog,
        )
        self.sent = 0
        self.failed = 0
        self.kept: List[Tuple[str, int, Dict]] = []

    def close(self) -> None:
        self.server.close()

    def warm_up(self) -> None:
        for name in self.names:
            self.server.submit(name, self.inputs[name][0]).result(timeout=60)

    def phase(
        self, outstanding: int, budget: float, at_least: int,
        time_submit: bool = False,
    ) -> Phase:
        pending: collections.deque = collections.deque()
        phase = Phase([], [], [], 0.0, 0)

        def retire() -> None:
            request, name, slot, index = pending.popleft()
            try:
                values = request.result(timeout=60)
            except Exception:  # noqa: BLE001 - any failed request is counted
                self.failed += 1
                return
            phase.latencies.append(request.latency)
            phase.queue_waits.append(request.queue_wait)
            if index % CHECK_EVERY == 0:
                self.kept.append((name, slot, values))

        order: Sequence[int] = ()
        sent = 0
        gc.collect()
        begin = now()
        while sent < at_least or now() - begin < budget:
            while len(pending) >= outstanding:
                retire()
            if sent % 4096 == 0:
                order = self.rng.integers(len(self.names), size=4096)
            name = self.names[order[sent % 4096]]
            slot = sent % INPUT_POOL
            try:
                start = now() if time_submit else 0.0
                request = self.server.submit(name, self.inputs[name][slot])
                if time_submit:
                    phase.submits.append(now() - start)
            except QueueFullError:
                phase.backoffs += 1
                retire()
                continue
            pending.append((request, name, slot, self.sent))
            sent += 1
            self.sent += 1
        while pending:
            retire()
        phase.wall = now() - begin
        return phase

    def measure(
        self, budget: float, light_at_least: int, loaded_at_least: int
    ) -> Tuple[Values, Dict]:
        light = self.phase(
            LIGHT_OUTSTANDING, budget * LIGHT_SHARE, light_at_least
        )
        loaded = self.phase(
            LOADED_OUTSTANDING, budget * (1 - LIGHT_SHARE), loaded_at_least
        )
        detail = {
            "req_ms_p50_light": summarize(light.latencies).scaled(1e3),
            "req_ms_p50_loaded": summarize(loaded.latencies).scaled(1e3),
        }
        return (
            {
                "req_ms_p50_light": detail["req_ms_p50_light"].median,
                "req_ms_p99_loaded": percentile(
                    sorted(loaded.latencies), 0.99) * 1e3,
                "req_per_s_loaded": len(loaded.latencies) / loaded.wall,
            },
            detail,
        )

    def trace(
        self, budget: float, light_at_least: int, loaded_at_least: int
    ) -> Tuple[Values, float]:
        light = self.phase(
            LIGHT_OUTSTANDING, budget * LIGHT_SHARE, light_at_least,
            time_submit=True,
        )
        # ServerStats shares the live CacheStats object: copy the numbers.
        before = self.server.stats()
        cache = before.plan_cache
        lookups_before, hits_before = cache.lookups, cache.hits
        half = budget * (1 - LIGHT_SHARE) / 2
        loaded = self.phase(
            LOADED_OUTSTANDING, half, loaded_at_least, time_submit=True
        )
        plain = self.phase(LOADED_OUTSTANDING, half, loaded_at_least)
        after = self.server.stats()

        def delta(key: str) -> float:
            return after.counters.get(key, 0) - before.counters.get(key, 0)

        latencies = sorted(light.latencies)
        values = {
            "serve.submit_us_p50": summarize(light.submits).median * 1e6,
            "serve.queue_wait_ms_p50": summarize(
                light.queue_waits).median * 1e3,
            "serve.exec_ms_p50": summarize([
                latency - wait
                for latency, wait in zip(light.latencies, light.queue_waits)
            ]).median * 1e3,
            "serve.req_ms_p99_light": percentile(latencies, 0.99) * 1e3,
            "serve.mean_batch_size": (
                delta("serve.batched_requests") / delta("serve.batches")
            ),
            "serve.batches": delta("serve.batches"),
            "serve.peak_queue_depth": after.peak_queue_depth,
            "serve.plan_cache_hit_rate": (
                (cache.hits - hits_before) / (cache.lookups - lookups_before)
            ),
            "serve.queue_full_backoffs": loaded.backoffs + plain.backoffs,
        }
        return values, (
            (len(plain.latencies) / plain.wall)
            / (len(loaded.latencies) / loaded.wall) - 1
        )

    def check(self, tally: Tally) -> None:
        """Every kept response against the interpreter on the same
        seeded inputs; a failed request is a failed operation."""
        tally.ran(self.sent)
        tally.failed += self.failed
        if self.failed:
            tally.notes.append(f"{self.failed} serve requests failed")
        interpreted = create_engine("interpreted")
        oracle: Dict[Tuple[str, int], List[np.ndarray]] = {}
        for name, slot, values in self.kept:
            if (name, slot) not in oracle:
                spec = self.catalog[name]
                oracle[name, slot] = _flat(interpreted.run(
                    spec.build_module(), self.inputs[name][slot],
                    mesh=spec.num_devices,
                ))
            tally.check(
                _close(_flat(values), oracle[name, slot]),
                f"serve: {name} response differs from the interpreter",
            )
