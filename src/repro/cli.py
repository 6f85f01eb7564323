"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — list every reproducible artifact.
* ``run <artifact> [...]`` — print one artifact's report
  (``fig12``, ``table1``, ``interconnect``, ...; ``all`` runs everything).
* ``simulate <model> [--baseline] [--scheduler S] [--timeline]`` —
  compile and simulate one Table 1/2 model's training step.
* ``dump <model>`` — print the compiled HLO of one layer.
* ``chaos [--runs N] [--seed S] [--intensity I]`` — randomized seeded
  fault injection over the golden modules; exits non-zero if any run
  corrupts silently or fails without a typed, replayable error.
* ``tune [--budget N] [--measure] [--db PATH] [--inspect] [--evict K]``
  — budgeted per-program search over overlap configs (scheduler,
  unrolling, bidirectional transfers, in-flight budget, decomposition
  granularity) on the golden modules, scored by perfsim (and measured
  engine runs with ``--measure``); persists winners in the
  content-addressed tuning database that ``serve --tuned`` and
  ``create_engine(..., tuned=True)`` pick up by fingerprint with zero
  re-search. Exits non-zero if any tuned config loses to the analytic
  default or diverges from the oracle.
* ``trace [--module M] [--devices N] [--out PATH] [--check]`` — run one
  golden module (baseline and decomposed) under both executors with a
  :class:`repro.obs.Tracer`, simulate the same programs in perfsim, and
  export every timeline into one Chrome ``trace_event`` JSON file that
  ``chrome://tracing`` or Perfetto loads directly.
* ``verify [paths...] [--json] [--out PATH]`` — run the static analyzer.
  With no paths: compile every golden module under every pipeline
  variant with ``verify_after_each_pass`` and report per-stage findings.
  With paths: parse each HLO text dump and lint it. Exits non-zero if
  any error-severity diagnostic is found.
* ``serve [--selftest]`` — run the in-process serving subsystem over the
  program catalog: one request per program in demo mode, or the gated
  self-test (typed failures only, warm plan cache) with ``--selftest``.
* ``loadgen [--requests N] [--selftest] [--out PATH]`` — drive the
  serving stack with a reproducible request stream; reports p50/p95/p99
  latency, throughput, plan-cache hit-rate and the typed/untyped
  failure split. ``--selftest`` additionally enforces the CI gates
  (zero untyped failures, hit-rate and compile-speedup floors).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.experiments import (
    ablations,
    degraded,
    energy,
    fig01_breakdown,
    fig12_overall,
    fig13_weak_scaling,
    fig14_unrolling,
    fig15_bidirectional,
    fig16_scheduling,
    future_overlap,
    inference,
    interconnect_sweep,
    mesh_step,
    pipeline_parallel,
    tables,
    tuned,
)
from repro.hlo.printer import format_module, summarize_opcodes
from repro.models.configs import TABLE1, TABLE2, by_name
from repro.models.step import layer_graphs, simulate_step
from repro.sharding.partitioner import partition

def _tail_artifact() -> str:
    from repro.adapt import format_tail_report, run_tail

    return format_tail_report(run_tail())


ARTIFACTS: Dict[str, Callable[[], str]] = {
    "fig1": lambda: fig01_breakdown.format_report(fig01_breakdown.run()),
    "fig12": lambda: fig12_overall.format_report(fig12_overall.run()),
    "fig13": lambda: fig13_weak_scaling.format_report(fig13_weak_scaling.run()),
    "fig14": lambda: fig14_unrolling.format_report(fig14_unrolling.run()),
    "fig15": lambda: fig15_bidirectional.format_report(
        fig15_bidirectional.run()
    ),
    "fig16": lambda: fig16_scheduling.format_report(fig16_scheduling.run()),
    "table1": tables.format_table1,
    "table2": tables.format_table2,
    "energy": lambda: energy.format_report(energy.run()),
    "inference": lambda: inference.format_report(inference.run()),
    "interconnect": lambda: interconnect_sweep.format_report(
        interconnect_sweep.run()
    ),
    "pipeline": lambda: pipeline_parallel.format_report(),
    "mesh": lambda: mesh_step.format_report(mesh_step.run()),
    "ablations": ablations.format_report,
    "future": lambda: future_overlap.format_report(future_overlap.run()),
    "degraded": lambda: degraded.format_report(degraded.run()),
    "tail": _tail_artifact,
    "tuned": lambda: tuned.format_report(tuned.run()),
}

_DESCRIPTIONS = {
    "fig1": "Figure 1: baseline step-time breakdown",
    "fig12": "Figure 12: overall performance, six models",
    "fig13": "Figure 13: GPT weak scaling",
    "fig14": "Figure 14: loop unrolling ablation",
    "fig15": "Figure 15: bidirectional transfer ablation",
    "fig16": "Figure 16: scheduler comparison",
    "table1": "Table 1: evaluated applications",
    "table2": "Table 2: scaled GPT configurations",
    "energy": "Section 6.4: energy reduction",
    "inference": "Section 7.1: 2-way inference latency",
    "interconnect": "Section 7.2: interconnect-bandwidth sensitivity",
    "pipeline": "Section 7.3: pipeline-parallelism trade-off",
    "mesh": "Composed TP x DP (x PP) overlap on 2D/3D meshes",
    "ablations": "Design ablations (fusion priority, cost gate, liveness)",
    "future": "Future work: decomposing standalone collectives",
    "degraded": "Tail effects: decomposed vs baseline on a degraded fabric",
    "tail": "Adaptive rebalancing: p50/p99 vs undecomposed on "
    "heterogeneous fabrics",
    "tuned": "Autotuner: tuned vs default overlap configs on Table 1 "
    "training steps",
}


def _cmd_experiments(_args) -> int:
    width = max(len(name) for name in ARTIFACTS)
    for name in ARTIFACTS:
        print(f"{name.ljust(width)}  {_DESCRIPTIONS[name]}")
    return 0


def _cmd_run(args) -> int:
    names = list(ARTIFACTS) if "all" in args.artifact else args.artifact
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ARTIFACTS)}", file=sys.stderr)
        return 2
    for index, name in enumerate(names):
        if index:
            print()
        print(ARTIFACTS[name]())
    return 0


def _overlap_config(args) -> OverlapConfig:
    if args.baseline:
        return OverlapConfig.baseline()
    return OverlapConfig(scheduler=args.scheduler)


def _resolve_model(name: str):
    try:
        return by_name(name)
    except KeyError:
        known = ", ".join(dict.fromkeys(c.name for c in TABLE1 + TABLE2))
        print(f"unknown model {name!r}; available: {known}", file=sys.stderr)
        return None


def _cmd_simulate(args) -> int:
    cfg = _resolve_model(args.model)
    if cfg is None:
        return 2
    simulation = simulate_step(cfg, _overlap_config(args))
    report = simulation.report
    print(
        f"{cfg.name}: {cfg.num_layers} layers on {cfg.num_chips} chips "
        f"(mesh {cfg.mesh_x}x{cfg.mesh_y})"
    )
    print(f"step time:             {report.total_time:9.3f} s")
    print(f"  compute:             {report.compute_time:9.3f} s")
    print(f"  exposed collectives: {report.sync_collective_time:9.3f} s")
    print(f"  exposed transfers:   {report.permute_wait_time:9.3f} s")
    print(f"  hidden transfers:    {report.hidden_transfer_time:9.3f} s")
    print(f"FLOPS utilization:     {report.flops_utilization:9.1%}")
    if args.timeline:
        from repro.perfsim.simulator import simulate_with_trace
        from repro.perfsim.trace import format_timeline

        mesh = cfg.mesh()
        kind, _, graph = layer_graphs(cfg)[0]
        module = partition(graph, mesh)
        compile_module(module, mesh, _overlap_config(args))
        _, trace = simulate_with_trace(module, mesh)
        print()
        print(f"timeline of one {kind} layer:")
        print(format_timeline(trace))
    return 0


def _cmd_dump(args) -> int:
    cfg = _resolve_model(args.model)
    if cfg is None:
        return 2
    mesh = cfg.mesh()
    kind, _, graph = layer_graphs(cfg)[0]
    module = partition(graph, mesh)
    compile_module(module, mesh, _overlap_config(args))
    print(f"// one {kind} layer of {cfg.name} after compilation")
    print(format_module(module))
    print()
    # Comment-prefixed so the dump stays parseable: the output feeds
    # straight into ``repro verify <file>`` (and parse_module).
    for line in summarize_opcodes(module).splitlines():
        print(f"// {line}")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.faults.chaos import (
        format_report, run_chaos, run_one, run_one_ladder,
    )

    if args.tail:
        from repro.adapt import (
            compare_tail_reports,
            format_tail_report,
            run_tail,
            write_tail_report,
        )

        report = run_tail(seed=args.seed, runs=args.tail_runs)
        print(format_tail_report(report))
        if args.out:
            write_tail_report(report, args.out)
            print(f"wrote {args.out}")
        problems = [
            f"{s.scenario}: rebalanced p99 {s.rebalanced.p99:.6f}s exceeds "
            f"undecomposed p99 {s.undecomposed.p99:.6f}s"
            for s in report.scenarios
            if not s.gate_ok
        ]
        if args.baseline:
            try:
                with open(args.baseline) as handle:
                    baseline = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                problems.append(
                    f"cannot read baseline report {args.baseline}: {error}"
                )
            else:
                problems.extend(
                    compare_tail_reports(
                        report, baseline, max_regression=args.max_regression
                    )
                )
        return _gate(
            problems,
            "tail gate passed: decomposed+rebalanced <= undecomposed at "
            "p99 on every scenario",
        )

    try:
        oracle = _oracle_engine(
            args.engine, args.workers, getattr(args, "sanitize", False)
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.replay is not None:
        runner = run_one_ladder if args.ladder else run_one
        result = runner(args.replay, intensity=args.intensity, oracle=oracle)
        print(
            f"replay seed={result.seed}: case={result.case} "
            f"ring={result.ring} scheduler={result.scheduler} "
            f"plan={result.plan}"
        )
        detail = f" {result.error_type}: {result.message}" if result.message else ""
        print(f"outcome: {result.outcome}{detail}")
        if result.ladder_state is not None:
            print(
                f"ladder: {result.transitions} descent(s), final rung "
                f"{result.ladder_state}"
            )
        return 1 if result.is_violation else 0
    if args.runs < 1:
        print("--runs must be at least 1", file=sys.stderr)
        return 2
    report = run_chaos(
        args.seed, args.runs, intensity=args.intensity, ladder=args.ladder,
        oracle=oracle,
    )
    print(format_report(report))
    return 0 if report.ok else 1


def _oracle_engine(kind, workers, sanitize=False):
    """Build the oracle engine for ``repro chaos``.

    Validation is :func:`create_engine`'s: unknown kinds and options
    that do not apply (``--workers`` or ``--sanitize`` on anything but
    the parallel backend) fail loudly with the registry's dynamic kind
    list. ``--sanitize`` without an explicit engine kind means "the
    sanitized parallel backend" — the sanitizer only instruments that
    one.
    """
    from repro.runtime.engine import create_engine

    if sanitize and (kind is None or kind == "compiled"):
        kind = "parallel"
    if kind is None or (kind == "compiled" and workers is None):
        return None  # keep the harness's shared default engine
    options: Dict[str, Any] = {}
    if workers is not None:
        options["workers"] = workers
    if sanitize:
        options["sanitize"] = True
    return create_engine(kind, **options)


def _tuned_spec(args):
    """The ``tuned=`` value for an engine from ``--tuned``/``--tuning-db``.

    ``--tuning-db PATH`` implies ``--tuned``; bare ``--tuned`` uses the
    committed default database path.
    """
    if getattr(args, "tuning_db", None):
        return args.tuning_db
    return True if getattr(args, "tuned", False) else None


def _cmd_tune(args) -> int:
    import json

    from repro.tune import (
        TuningDB,
        TuningDBError,
        check_tune_report,
        compare_tune_reports,
        format_tune_report,
        require_tuned_capable,
        tune_golden,
        tune_report,
        write_tune_report,
    )
    from repro.tune.db import default_db_path

    db_path = args.db if args.db is not None else default_db_path()

    if args.inspect or args.evict:
        # Inspect/evict operate on the file as it is: corruption is a
        # typed, loud failure here, not a silent fall-back.
        try:
            db = TuningDB.load(db_path)
        except TuningDBError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        if args.evict:
            evicted = db.evict(args.evict)
            db.save(db_path)
            for record in evicted:
                print(f"evicted {record.label} ({record.key.split('|')[0]})")
            print(f"evicted {len(evicted)} record(s); {len(db)} remain")
            return 0
        print(f"{db_path}: {len(db)} record(s)")
        for record in db:
            print(
                f"  {record.label:<26} speedup {record.speedup:.3f}x "
                f"trials {record.trials:>3} scored by {record.scored_by}  "
                f"{record.key.split('|')[0]}"
            )
        return 0

    try:
        if args.measure:
            require_tuned_capable(args.engine)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    db = TuningDB.load_or_default(db_path)
    if db.load_error is not None:
        print(
            f"WARN: {db.load_error} — starting from an empty database "
            f"(default analytic-gate configs)",
            file=sys.stderr,
        )
    try:
        records = tune_golden(
            budget=args.budget,
            db=db,
            measure=args.measure,
            engine=args.engine,
            workers=args.workers,
            force=args.force,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    db.save(db_path)
    report = tune_report(records, budget=args.budget, measured=args.measure)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_tune_report(report))
        print(f"wrote {db_path} ({len(db)} record(s))")
    if args.out:
        write_tune_report(report, args.out)
        if not args.json:
            print(f"wrote {args.out}")

    problems = check_tune_report(report)
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            problems.append(
                f"cannot read baseline report {args.baseline}: {error}"
            )
        else:
            problems.extend(
                compare_tune_reports(baseline, report, max_drop=args.max_drop)
            )
    return _gate(
        problems,
        "tune gate passed: tuned configs never lose to the analytic "
        "default" + (" and match the oracle bit-for-bit" if args.measure
                     else ""),
    )


def _cmd_trace(args) -> int:
    import json

    import numpy as np

    from repro.faults.chaos import GOLDEN_CASES
    from repro.obs import (
        Tracer,
        comm_volume_summary,
        format_comm_volume,
        overlap_summary,
        per_axis_overlap_summary,
        to_chrome_trace,
        validate_chrome_trace,
    )
    from repro.perfsim.simulator import simulate_with_trace
    from repro.runtime.engine import create_engine
    from repro.sharding.mesh import DeviceMesh

    cases = {case.name: case for case in GOLDEN_CASES}
    case = cases.get(args.module)
    if case is None:
        print(
            f"unknown module {args.module!r}; available: {', '.join(cases)}",
            file=sys.stderr,
        )
        return 2
    if args.devices not in case.rings:
        rings = ", ".join(str(r) for r in case.rings)
        print(
            f"module {case.name!r} shards only on rings of {rings} devices",
            file=sys.stderr,
        )
        return 2

    mesh = DeviceMesh.ring(args.devices)
    rng = np.random.default_rng([args.seed, args.devices])
    arguments = case.make_arguments(mesh, rng)

    variants = (
        ("baseline", None),
        (
            "decomposed",
            OverlapConfig(use_cost_model=False, scheduler=args.scheduler),
        ),
    )
    engines = ("interpreted", "compiled", "parallel")
    streams: Dict[str, list] = {}
    counters: Dict[str, Dict[str, float]] = {}
    summaries = {}
    for variant, config in variants:
        module = case.build(mesh)
        if config is not None:
            compile_module(module, mesh, config)
        for engine in engines:
            tracer = Tracer()
            create_engine(engine).run(
                module, arguments, mesh=mesh, tracer=tracer
            )
            stream = f"{engine}/{variant}"
            streams[stream] = tracer.events
            counters[stream] = dict(tracer.counters)
            summaries[stream] = overlap_summary(tracer.events)
        _, simulated = simulate_with_trace(module, mesh)
        stream = f"simulated/{variant}"
        streams[stream] = simulated.events
        summaries[stream] = overlap_summary(simulated.events)

    chrome = to_chrome_trace(streams, counters=counters)
    with open(args.out, "w") as handle:
        json.dump(chrome, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(args.out) as handle:
        problems = validate_chrome_trace(json.load(handle))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out} ({len(chrome['traceEvents'])} trace events, "
        f"{len(streams)} streams) — load it in chrome://tracing or Perfetto"
    )
    print()
    print(
        f"{'stream':<24} {'compute':>10} {'comm':>10} "
        f"{'hidden':>10} {'hidden %':>9}"
    )
    for stream, summary in summaries.items():
        print(
            f"{stream:<24} {summary.compute_time * 1e3:>8.3f}ms "
            f"{summary.communication_time * 1e3:>8.3f}ms "
            f"{summary.hidden_transfer_time * 1e3:>8.3f}ms "
            f"{summary.hidden_communication_fraction:>8.1%}"
        )
        per_axis = per_axis_overlap_summary(streams[stream])
        for axis, axis_summary in per_axis.items():
            print(
                f"  axis {axis:<4} transfer "
                f"{axis_summary.transfer_time * 1e3:.3f}ms hidden "
                f"{axis_summary.hidden_fraction:.1%}"
            )
    for stream in sorted(counters):
        table = counters[stream]
        if table:
            row = ", ".join(f"{k}={table[k]:g}" for k in sorted(table))
            print(f"counters[{stream}]: {row}")
    volumes = {
        stream: comm_volume_summary(events)
        for stream, events in streams.items()
    }
    print()
    for stream, volume in volumes.items():
        print(f"comm volume [{stream}]:")
        print(format_comm_volume(volume, indent="  "))
    if args.check:
        failures = []
        for engine in engines:
            base = summaries[f"{engine}/baseline"]
            deco = summaries[f"{engine}/decomposed"]
            if not (
                deco.hidden_communication_fraction
                > base.hidden_communication_fraction
            ):
                failures.append(
                    f"{engine}: decomposed hides "
                    f"{deco.hidden_communication_fraction:.1%} of its "
                    f"communication, baseline "
                    f"{base.hidden_communication_fraction:.1%}"
                )
        for stream, volume in volumes.items():
            if volume.total_bytes <= 0:
                failures.append(
                    f"{stream}: comm-volume lens accounted zero bytes on "
                    f"wire"
                )
            if "decomposed" in stream and volume.transfer_bytes <= 0:
                failures.append(
                    f"{stream}: decomposed stream moved no bytes over "
                    f"point-to-point transfers"
                )
        sim_axes = per_axis_overlap_summary(streams["simulated/decomposed"])
        if not sim_axes:
            failures.append(
                "simulated/decomposed: no axis-attributed transfer lanes"
            )
        for axis, axis_summary in sim_axes.items():
            if not axis_summary.hidden_fraction > 0:
                failures.append(
                    f"simulated/decomposed: axis {axis!r} hides none of "
                    f"its transfer time"
                )
        # The composed training step: all three overlap families on one
        # 3D mesh, each axis's hidden fraction positive and the
        # optimized program bit-identical to the undecomposed oracle.
        from repro.experiments import mesh_step

        mesh_result = mesh_step.run_case(
            mesh_step.MeshStepCase(tp=2, dp=4, pp=2, d_ff=4096)
        )
        print()
        print(
            f"composed mesh step ({mesh_result.case.label}, "
            f"{mesh_result.num_devices} devices): "
            f"{'bit-identical' if mesh_result.bit_identical else 'DIVERGED'}"
        )
        for row in mesh_result.axes:
            print(
                f"  axis {row.axis:<4} {row.family:<16} hidden "
                f"{row.hidden_fraction:.1%}"
            )
        if not mesh_result.bit_identical:
            failures.append(
                "mesh step: optimized program diverges from the oracle"
            )
        mesh_axes = {row.axis for row in mesh_result.axes}
        for axis in ("tp", "dp", "pp"):
            if axis not in mesh_axes:
                failures.append(
                    f"mesh step: no transfers attributed to axis {axis!r}"
                )
        for row in mesh_result.axes:
            if not row.hidden_fraction > 0:
                failures.append(
                    f"mesh step: {row.family} (axis {row.axis!r}) hides "
                    f"none of its transfer time"
                )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            "check passed: decomposed hides strictly more communication "
            "than baseline on both engines, every stream's bytes on wire "
            "are accounted, and the composed mesh step hides "
            "communication on every axis bit-identically"
        )
    return 0


def _cmd_bench_mesh(args) -> int:
    import json

    from repro.experiments import mesh_step

    results = mesh_step.run(seed=args.seed)
    print(mesh_step.format_report(results))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(mesh_step.as_json(results), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 1 if mesh_step.check_report(results) else 0


def _serve_config(args):
    from repro.serve import ServeConfig

    return ServeConfig(
        engine=args.engine,
        max_batch_size=args.max_batch,
        max_wait=args.max_wait,
        queue_depth=args.queue_depth,
        workers=args.workers,
        default_deadline=args.deadline,
        engine_workers=args.engine_workers,
        tuned=_tuned_spec(args),
    )


def _gate(problems: List[str], passed: str) -> int:
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(passed)
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serve import UnknownProgramError, check_report, run_loadgen
    from repro.serve import format_report as format_loadgen
    from repro.serve import write_report

    try:
        report = run_loadgen(
            requests=args.requests,
            config=_serve_config(args),
            programs=args.programs or None,
            seed=args.seed,
        )
    except (UnknownProgramError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(format_loadgen(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.selftest:
        return _gate(
            check_report(report),
            "selftest passed: every request resolved typed, plan cache "
            "warm, cold compile amortized",
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.models.serving import default_catalog
    from repro.serve import Server, check_report, run_loadgen
    from repro.serve import format_report as format_loadgen

    try:
        config = _serve_config(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.selftest:
        report = run_loadgen(
            requests=args.requests, config=config, seed=args.seed
        )
        print(format_loadgen(report))
        return _gate(
            check_report(report),
            "selftest passed: every request resolved typed, plan cache "
            "warm, cold compile amortized",
        )

    # Demo mode: one request per catalog program through a live server.
    catalog = default_catalog()
    with Server(config, catalog=catalog) as server:
        tickets = [
            (name, server.submit(name, seed=args.seed))
            for name in sorted(catalog)
        ]
        print(f"{'program':<28} {'ring':>4} {'latency':>10}  outputs")
        for name, ticket in tickets:
            values = ticket.result(timeout=30)
            shapes = ", ".join(
                f"{key}{tuple(shards[0].shape)}"
                for key, shards in values.items()
            )
            latency_ms = (ticket.latency or 0.0) * 1e3
            print(
                f"{name:<28} {catalog[name].num_devices:>4} "
                f"{latency_ms:>8.3f}ms  {shapes}"
            )
        stats = server.stats()
    cache = stats.plan_cache
    print(
        f"{len(tickets)} requests in {stats.batches} batches; "
        f"plan cache: {cache.hits} hits / {cache.misses} misses"
        if cache is not None
        else f"{len(tickets)} requests in {stats.batches} batches"
    )
    return 0


#: The pipeline variants ``repro verify`` sweeps for each golden module.
#: Cost gating is off for all but the baseline so every decomposition
#: stage actually materializes and gets verified.
_VERIFY_VARIANTS = (
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


def _verify_variants(case, mesh, db):
    """The pipeline variants to sweep for one golden target: the four
    standard ones, plus the tuned config when a tuning database carries
    a record for this module/mesh (``repro verify --tuned``). The tuned
    config's own ``max_in_flight`` budget rides into every per-pass
    analyzer run through the pipeline."""
    variants = list(_VERIFY_VARIANTS)
    if db is not None:
        record = db.lookup(case.build(mesh), mesh)
        if record is not None:
            variants.append(("tuned", record.overlap_config))
    return variants


def _verify_parallel(args, report, targets) -> None:
    """The ``verify --engine parallel`` sweep: lower every golden
    module under every variant and worker count, run the static
    concurrency verifier on each plan, and (with ``--mutations``) check
    the seeded-defect corpus is caught by its expected rules."""
    from repro.analysis.concurrency import analyze_plan
    from repro.analysis.mutations import (
        PARALLEL_MUTATIONS, build_parallel_target,
    )
    from repro.faults.chaos import GOLDEN_CASES
    from repro.runtime.parallel.lowering import lower_parallel
    from repro.sharding.mesh import DeviceMesh
    from repro.tune.db import resolve_tuning_db

    db = resolve_tuning_db(_tuned_spec(args))
    requested = tuple(args.workers) if args.workers else (1, 2, 4)
    for case in GOLDEN_CASES:
        for ring in case.rings:
            mesh = DeviceMesh.ring(ring)
            counts = sorted({min(w, ring) for w in requested})
            for variant, make_config in _verify_variants(case, mesh, db):
                module = case.build(mesh)
                compile_module(module, mesh, make_config())
                for workers in counts:
                    plan = lower_parallel(module, ring, workers=workers)
                    result = analyze_plan(plan)
                    report(
                        f"{case.name}/ring{ring}/{variant}/w{workers}",
                        [result],
                        None,
                    )
    if not args.mutations:
        return
    for mutation in PARALLEL_MUTATIONS:
        plan, _ = build_parallel_target(mutation)
        applied = mutation.apply(plan)
        result = analyze_plan(plan)
        caught = sorted({d.rule for d in result.errors})
        ok = bool(applied) and mutation.expected_rule in caught
        targets.append(
            {
                "target": f"mutation:{mutation.name}",
                "ok": ok,
                "failed_stage": None,
                "errors": 0 if ok else 1,
                "warnings": 0,
                "expected_rule": mutation.expected_rule,
                "caught_rules": caught,
                "stages": [result.to_json()],
            }
        )
        if not args.json:
            status = "ok" if ok else "FAIL"
            print(
                f"{status:<4} mutation:{mutation.name}: expected "
                f"{mutation.expected_rule}, caught "
                f"{', '.join(caught) or 'nothing'}"
            )


def _cmd_verify(args) -> int:
    import json

    from repro.analysis import AnalysisError, analyze_module
    from repro.faults.chaos import GOLDEN_CASES
    from repro.hlo.parser import ParseError, parse_module
    from repro.sharding.mesh import DeviceMesh

    targets: List[dict] = []

    def report(label: str, results, failed_stage: Optional[str]) -> None:
        errors = sum(len(r.errors) for r in results)
        warnings = sum(len(r.warnings) for r in results)
        targets.append(
            {
                "target": label,
                "ok": failed_stage is None and errors == 0,
                "failed_stage": failed_stage,
                "errors": errors,
                "warnings": warnings,
                "stages": [r.to_json() for r in results],
            }
        )
        if not args.json:
            if failed_stage is not None:
                print(f"FAIL {label}: errors after pass {failed_stage!r}")
            else:
                status = "ok" if errors == 0 else "FAIL"
                print(
                    f"{status:<4} {label}: {len(results)} stage(s), "
                    f"{errors} error(s), {warnings} warning(s)"
                )
            for result in results:
                for diagnostic in result.diagnostics:
                    if diagnostic.is_error or args.verbose:
                        print(f"  {diagnostic.format()}")

    if args.paths:
        for path in args.paths:
            try:
                with open(path) as handle:
                    module = parse_module(handle.read())
            except OSError as error:
                print(f"cannot read {path}: {error}", file=sys.stderr)
                return 2
            except ParseError as error:
                print(f"{path}: parse error: {error}", file=sys.stderr)
                return 2
            result = analyze_module(
                module,
                num_devices=args.devices,
                max_in_flight=args.max_in_flight,
            )
            report(path, [result], None)
    elif args.engine == "parallel":
        _verify_parallel(args, report, targets)
    else:
        from repro.tune.db import resolve_tuning_db

        db = resolve_tuning_db(_tuned_spec(args))
        for case in GOLDEN_CASES:
            for ring in case.rings:
                mesh = DeviceMesh.ring(ring)
                for variant, make_config in _verify_variants(
                    case, mesh, db
                ):
                    label = f"{case.name}/ring{ring}/{variant}"
                    module = case.build(mesh)
                    try:
                        compiled = compile_module(
                            module,
                            mesh,
                            make_config(),
                            verify_after_each_pass=True,
                        )
                    except AnalysisError as error:
                        report(label, [error.result], error.stage)
                    else:
                        report(label, compiled.verification, None)

    ok = all(t["ok"] for t in targets)
    payload = {
        "ok": ok,
        "targets": targets,
        "errors": sum(t["errors"] for t in targets),
        "warnings": sum(t["warnings"] for t in targets),
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.json:
            print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif ok:
        print(
            f"verify passed: {len(targets)} target(s), "
            f"{payload['warnings']} warning(s)"
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Overlap Communication with Dependent "
            "Computation via Decomposition in Large Deep Learning Models' "
            "(ASPLOS '23)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "experiments", help="list the reproducible artifacts"
    ).set_defaults(handler=_cmd_experiments)

    run = commands.add_parser("run", help="print one artifact's report")
    run.add_argument("artifact", nargs="+", help="artifact name(s) or 'all'")
    run.set_defaults(handler=_cmd_run)

    model_names = ", ".join(
        dict.fromkeys(c.name for c in TABLE1 + TABLE2)
    )
    for name, handler, help_text in (
        ("simulate", _cmd_simulate, "simulate one model's training step"),
        ("dump", _cmd_dump, "print one compiled layer's HLO"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("model", help=f"one of: {model_names}")
        sub.add_argument(
            "--baseline", action="store_true",
            help="disable the overlap optimization",
        )
        sub.add_argument(
            "--scheduler", default="bottom_up",
            choices=("bottom_up", "top_down", "in_order"),
        )
        if name == "simulate":
            sub.add_argument(
                "--timeline", action="store_true",
                help="render one layer's ASCII timeline",
            )
        sub.set_defaults(handler=handler)

    chaos = commands.add_parser(
        "chaos",
        help="randomized seeded fault injection over the golden modules",
    )
    chaos.add_argument(
        "--runs", type=int, default=200,
        help="number of independent fault schedules (default 200)",
    )
    chaos.add_argument(
        "--seed", type=int, default=20230325,
        help="batch seed; every run seed derives from it (logged in the "
        "report, so failures are replayable)",
    )
    chaos.add_argument(
        "--intensity", type=float, default=0.5,
        help="expected fault density in [0, 1] (default 0.5)",
    )
    chaos.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="replay the single run whose failure message said "
        "'replay with seed=SEED'",
    )
    chaos.add_argument(
        "--ladder", action="store_true",
        help="execute each schedule through the adaptive degradation "
        "ladder (rebalance -> unidirectional -> sync fallback) instead "
        "of the one-cliff undecomposed fallback",
    )
    chaos.add_argument(
        "--tail", action="store_true",
        help="score the closed rebalancing loop on the heterogeneous "
        "perfsim scenarios at p50/p99 and enforce the "
        "'rebalanced <= undecomposed at p99' gate",
    )
    chaos.add_argument(
        "--tail-runs", type=int, default=24, metavar="N",
        help="seeded condition draws per tail scenario (default 24)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="PATH",
        help="with --tail: write the CHAOS_p99.json artifact to PATH",
    )
    chaos.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="with --tail: committed CHAOS_p99.json to regression-gate "
        "against",
    )
    chaos.add_argument(
        "--max-regression", type=float, default=0.25, metavar="F",
        help="with --tail --baseline: allowed relative rebalanced-p99 "
        "regression (default 0.25)",
    )
    chaos.add_argument(
        "--engine", default="compiled", metavar="KIND",
        help="oracle engine kind (default compiled; any registered kind "
        "— unknown kinds fail with the registry's list)",
    )
    chaos.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker threads for --engine parallel (rejected loudly for "
        "engines that take no workers)",
    )
    chaos.add_argument(
        "--sanitize", action="store_true",
        help="arm the runtime concurrency sanitizer on the oracle "
        "engine (implies --engine parallel when no kind is named; "
        "concurrency defects then surface as typed CC-rule errors "
        "instead of wrong numbers)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    tune = commands.add_parser(
        "tune",
        help="search overlap configs for the golden modules and persist "
        "the winners in the tuning database",
    )
    tune.add_argument(
        "--budget", type=int, default=24, metavar="N",
        help="candidates scored per program, including the analytic "
        "default (default 24; the full space is larger)",
    )
    tune.add_argument(
        "--db", default=None, metavar="PATH",
        help="tuning database file (default benchmarks/TUNING_DB.json "
        "or $REPRO_TUNING_DB)",
    )
    tune.add_argument(
        "--out", default="BENCH_tune.json", metavar="PATH",
        help="where to write the JSON report (default BENCH_tune.json; "
        "empty string disables)",
    )
    tune.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_tune.json to trend-gate against: fail if "
        "any entry's tuned speedup drops more than --max-drop",
    )
    tune.add_argument(
        "--max-drop", type=float, default=0.2, metavar="F",
        help="allowed relative speedup drop vs --baseline (default 0.2)",
    )
    tune.add_argument(
        "--measure", action="store_true",
        help="cross-check each winner on a real engine (wall clock + "
        "bit-identity against the interpreter oracle)",
    )
    tune.add_argument(
        "--engine", default="compiled", metavar="KIND",
        help="engine for --measure spot checks (default compiled; must "
        "accept tuned configs — others are rejected loudly)",
    )
    tune.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker threads when --engine is the parallel backend",
    )
    tune.add_argument(
        "--force", action="store_true",
        help="re-search programs already in the database instead of "
        "returning their persisted records",
    )
    tune.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of text",
    )
    tune.add_argument(
        "--inspect", action="store_true",
        help="list the database's records and exit (no search)",
    )
    tune.add_argument(
        "--evict", default=None, metavar="NEEDLE",
        help="evict records whose key starts with NEEDLE or whose label "
        "equals it, save, and exit (no search)",
    )
    tune.set_defaults(handler=_cmd_tune)

    trace = commands.add_parser(
        "trace",
        help="record one golden module's timeline as Chrome trace JSON",
    )
    trace.add_argument(
        "--module", default="mlp-chain",
        help="golden module to trace (default mlp-chain); one of the "
        "chaos harness's golden cases",
    )
    trace.add_argument(
        "--devices", type=int, default=4,
        help="ring size to run on (default 4)",
    )
    trace.add_argument(
        "--seed", type=int, default=20230325,
        help="argument-generation seed (default 20230325)",
    )
    trace.add_argument(
        "--scheduler", default="bottom_up",
        choices=("bottom_up", "top_down", "in_order"),
        help="scheduler for the decomposed variant",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="where to write the Chrome trace_event JSON (default "
        "trace.json)",
    )
    trace.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the decomposed variant hides strictly "
        "more communication than the baseline on both engines",
    )
    trace.set_defaults(handler=_cmd_trace)

    bench_mesh = commands.add_parser(
        "bench-mesh",
        help="composed multi-axis training step: per-family "
        "hidden-fraction floors and oracle bit-identity",
    )
    bench_mesh.add_argument(
        "--output", default="BENCH_mesh.json", metavar="PATH",
        help="where to write the JSON report (default BENCH_mesh.json)",
    )
    bench_mesh.add_argument(
        "--seed", type=int, default=20230325,
        help="oracle-argument seed (default 20230325)",
    )
    bench_mesh.set_defaults(handler=_cmd_bench_mesh)

    verify = commands.add_parser(
        "verify",
        help="statically verify golden modules (or HLO text dumps)",
    )
    verify.add_argument(
        "paths", nargs="*",
        help="HLO text dumps to lint; with none given, compile every "
        "golden module under every pipeline variant and verify after "
        "each pass",
    )
    verify.add_argument(
        "--devices", type=int, default=None,
        help="device count for collective/donation checks on text dumps "
        "(golden sweep always uses each case's own ring sizes)",
    )
    verify.add_argument(
        "--max-in-flight", type=int, default=None, metavar="K",
        help="also flag more than K simultaneously in-flight async "
        "transfers (rule A004)",
    )
    verify.add_argument(
        "--engine", default="compiled", choices=("compiled", "parallel"),
        help="what to verify: 'compiled' checks the HLO after every "
        "pipeline pass; 'parallel' additionally lowers each golden "
        "module to multi-worker plans and runs the static concurrency "
        "verifier (rules CC001-CC005) on each",
    )
    verify.add_argument(
        "--workers", type=int, nargs="+", default=None, metavar="N",
        help="worker counts for the --engine parallel sweep (default "
        "1 2 4; clamped to each target's ring size)",
    )
    verify.add_argument(
        "--mutations", action="store_true",
        help="with --engine parallel: also apply the seeded "
        "concurrency-defect corpus and require each defect to be "
        "caught by its expected rule",
    )
    verify.add_argument(
        "--tuned", action="store_true",
        help="also sweep the tuned overlap config (including its "
        "max_in_flight budget) for every target with a tuning record",
    )
    verify.add_argument(
        "--tuning-db", default=None, metavar="PATH",
        help="tuning database to use with --tuned (default: "
        "benchmarks/TUNING_DB.json or $REPRO_TUNING_DB; implies "
        "--tuned)",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of text",
    )
    verify.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report to PATH (the CI artifact)",
    )
    verify.add_argument(
        "--verbose", action="store_true",
        help="print warning-severity findings too, not just errors",
    )
    verify.set_defaults(handler=_cmd_verify)

    def add_serve_options(sub, requests_default: int) -> None:
        sub.add_argument(
            "--requests", type=int, default=requests_default,
            help=f"requests to generate (default {requests_default})",
        )
        sub.add_argument(
            "--engine", default="compiled", metavar="KIND",
            help="execution back end (default compiled; any kind in the "
            "engine registry — unknown kinds fail with the registry's "
            "list)",
        )
        sub.add_argument(
            "--workers", type=int, default=2,
            help="server worker threads (default 2)",
        )
        sub.add_argument(
            "--engine-workers", type=int, default=None, metavar="N",
            help="thread-pool size for --engine parallel (rejected "
            "loudly for engines that take no workers)",
        )
        sub.add_argument(
            "--max-batch", type=int, default=8,
            help="max requests per same-program batch (default 8)",
        )
        sub.add_argument(
            "--max-wait", type=float, default=0.002,
            help="seconds a batch waits for stragglers (default 0.002)",
        )
        sub.add_argument(
            "--queue-depth", type=int, default=64,
            help="bounded queue capacity; beyond it, typed rejection "
            "(default 64)",
        )
        sub.add_argument(
            "--deadline", type=float, default=None, metavar="S",
            help="per-request deadline in seconds (default: none)",
        )
        sub.add_argument(
            "--seed", type=int, default=20230325,
            help="request-payload seed (default 20230325)",
        )
        sub.add_argument(
            "--selftest", action="store_true",
            help="enforce the serving gates: zero untyped failures, warm "
            "plan-cache hit rate, cold-vs-warm compile speedup",
        )
        sub.add_argument(
            "--tuned", action="store_true",
            help="serve with the committed tuning database: catalog "
            "programs pick up autotuned overlap configs by content "
            "fingerprint (rejected loudly for engines without tuning "
            "support)",
        )
        sub.add_argument(
            "--tuning-db", default=None, metavar="PATH",
            help="tuning database to use with --tuned (default: "
            "benchmarks/TUNING_DB.json or $REPRO_TUNING_DB; implies "
            "--tuned)",
        )

    serve = commands.add_parser(
        "serve",
        help="run the in-process serving subsystem over the program catalog",
    )
    add_serve_options(serve, requests_default=60)
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive the serving stack with a reproducible request stream "
        "and report latency/throughput/cache metrics",
    )
    add_serve_options(loadgen, requests_default=200)
    loadgen.add_argument(
        "--programs", nargs="*", default=None, metavar="NAME",
        help="restrict the stream to these catalog programs "
        "(default: the full catalog)",
    )
    loadgen.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report to PATH (the CI artifact)",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
