"""The repo benchmark's one command.

``python3 bench/run.py`` runs every workload of ``BENCHMARK.json`` in a
fresh Python process each — once with tracing off for the end-to-end
metrics, once traced for the per-layer metrics — prints every metric by
name with its unit and writes the results. ``--aa`` runs every workload
twice on the same code and holds the difference to each metric's bound.

``--workload NAME --seed N --seconds S --trace 0|1`` is one such run in
this process; its last line of standard output is the result as JSON.
"""

import time

STARTED = time.perf_counter()   # setup_s counts from here

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULTS = ROOT / "bench" / "results"

#: What the numbers are protected from, restated in every result file.
HYGIENE = (
    "fresh process per workload and run",
    "process confined to one CPU, except layer-exec-mid's exec section",
    "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and REPRO_TUNING_DB unset "
    "before numpy or repro are imported",
    "warm-up discarded; (program, engine) order interleaved round-robin",
    "gc.collect() between blocks, never inside a sample",
    "DeprecationWarnings of internal legacy constructors silenced",
)


def isolate() -> None:
    """Pin the numeric libraries to one thread each and cut the run off
    from the tuner's database; must precede ``import numpy``."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("REPRO_TUNING_DB", None)
    warnings.simplefilter("ignore", DeprecationWarning)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def confine() -> frozenset:
    """Confine the process to one CPU (the last it may use: the first
    collects the host's interrupts) and return the set it started with.

    Threads of GIL-bound Python settle into one of two scheduler regimes
    on two CPUs — sharing a core, or bouncing the lock between cores at
    twice the cost (52.6 vs 107 ms per ``ring-exec-tiny`` step, 2446 vs
    2040 req/s; two of ten processes drew the first) — so a free-running
    benchmark reports a lottery. One CPU is the regime that repeats.
    """
    if not hasattr(os, "sched_setaffinity"):
        return frozenset()
    allowed = frozenset(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def host() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def emitted(result: dict) -> dict:
    """The contract's result object: every metric of the run's table,
    each with its unit; a layer metric whose span could not be installed
    is ``null``."""
    table = SPEC["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for metric in table:
        value = result["metrics"].get(metric["name"])
        if value is None and not result["trace"]:
            raise KeyError(f"end-to-end metric {metric['name']} not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def show(result: dict) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}: {kind}, seed {result['seed']}, "
          f"{result['seconds']:g} s ==")
    for name, metric in emitted(result)["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else format(value, ".6g")
        line = f"  {name:36s} {shown:>12s} {metric['unit']}"
        spread = result["detail"].get(name)
        if spread:
            line += (f"   [median {spread['median']:.6g}, q1 {spread['q1']:.6g}, "
                     f"q3 {spread['q3']:.6g}, n {spread['n']}]")
        print(line)
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':36s} {share:>12.6g} ratio   "
          f"[{result['failed']} of {result['attempted']}]")
    for note in result["notes"]:
        print(f"  FAILED: {note}")


def run_here(args) -> int:
    """One run of one workload in this process (the driver's form)."""
    isolate()
    cpus = confine()
    from bench import workloads

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick,
        STARTED, cpus,
    )
    show(result)
    if args.out:
        result.update(host=host(), hygiene=HYGIENE)
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1))
    print(json.dumps(emitted(result)))
    return 0 if result["correct"] else 1


def run_child(workload: str, trace: int, args, tag: str) -> dict:
    """One run in a fresh process; its result file is read back."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload}.{tag}.json"
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out),
    ] + (["--quick"] if args.quick else [])
    code = subprocess.run(command, cwd=ROOT).returncode
    if not out.exists():
        raise SystemExit(f"{workload}: run exited {code} without a result")
    return json.loads(out.read_text())


def run_report(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    selected = [args.workload] if args.workload else WORKLOADS
    runs = [
        run_child(workload, trace, args, f"trace{trace}")
        for workload in selected
        for trace in (0, 1)
    ]
    out = pathlib.Path(args.out) if args.out else RESULTS / "latest.json"
    out.write_text(json.dumps({"spec": SPEC, "runs": runs}, indent=1))
    print(f"results written to {out}")
    return 0 if all(run["correct"] for run in runs) else 1


def run_aa(args) -> int:
    """The noise floor: each workload twice on the same code and seed;
    no metric may move by more than its own bound."""
    selected = [args.workload] if args.workload else WORKLOADS
    exceeded = []
    rows = []
    for workload in selected:
        first, second = (
            run_child(workload, 0, args, tag)["metrics"] for tag in ("aa1", "aa2")
        )
        for metric in SPEC["end_to_end"]:
            a, b = first[metric["name"]], second[metric["name"]]
            moved = abs(b - a) / abs(a)
            rows.append((workload, metric["name"], a, b, moved, metric["bound"]))
            if moved > metric["bound"]:
                exceeded.append(f"{workload}/{metric['name']}")
    print("== A/A: same code, same seed, two fresh processes ==")
    for workload, name, a, b, moved, bound in rows:
        flag = "  EXCEEDS" if moved > bound else ""
        print(f"  {workload:16s} {name:24s} {a:12.6g} {b:12.6g} "
              f"moved {moved:8.4%}  bound {bound:.1%}{flag}")
    out = pathlib.Path(args.out) if args.out else RESULTS / "aa.json"
    out.write_text(json.dumps(
        [dict(zip(("workload", "metric", "first", "second", "moved", "bound"),
                  row)) for row in rows],
        indent=1,
    ))
    print(f"results written to {out}")
    if exceeded:
        print("beyond their bound: " + ", ".join(exceeded))
    return 1 if exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures "
                             f"(default {SPEC['run_seconds']}; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make exactly one run, in this process: "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", help="write the full results here")
    parser.add_argument("--aa", action="store_true",
                        help="run each workload twice, compare to the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="smallest sample counts; for smoke tests only")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2 if args.quick else SPEC["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_here(args)
    return run_aa(args) if args.aa else run_report(args)


if __name__ == "__main__":
    sys.exit(main())
