"""The ``BENCH_tune.json`` artifact: build, render, gate, trend-compare.

The report is the tuner's machine-readable trail: per-entry rows plus a
summary block CI gates on. Two gates apply:

* the **tuned-vs-default floor** (:func:`check_tune_report`): the
  geomean perfsim speedup of tuned configs over the analytic-gate
  defaults must be at least 1.0 — by construction the search can never
  lose to the default, so any entry below 1.0 means the scoring or
  persistence path corrupted a config; bit-identity may never be false
  on a measured entry.
* the **trend gate** (:func:`compare_tune_reports`): against a
  committed baseline report, no entry's tuned speedup may drop by more
  than ``max_drop`` (relative), matched by entry label; disjoint label
  sets fail outright — a gate that compares nothing protects nothing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

import numpy as np

from repro.tune.db import TuningRecord

#: Tolerance on the per-entry >= 1.0 speedup invariant (pure float noise;
#: the default config's time is compared against itself through two
#: different code paths).
_EPSILON = 1e-9


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def tune_report(
    records: Sequence[TuningRecord],
    *,
    budget: int,
    measured: bool,
) -> Dict:
    """The JSON-ready report over one tuning sweep's records."""
    entries = []
    for record in records:
        entries.append(
            {
                "label": record.label,
                "key": record.key,
                "config": dict(record.config),
                "default_ms": record.default_time * 1e3,
                "tuned_ms": record.tuned_time * 1e3,
                "speedup": record.speedup,
                "trials": record.trials,
                "sites": record.sites,
                "scored_by": record.scored_by,
                "measured_speedup": record.measured_speedup,
                "bit_identical": record.bit_identical,
            }
        )
    speedups = [e["speedup"] for e in entries]
    checked = [
        e["bit_identical"] for e in entries if e["bit_identical"] is not None
    ]
    return {
        "benchmark": "tune",
        "budget": budget,
        "measured": measured,
        "entries": entries,
        "summary": {
            "entries": len(entries),
            "default_geomean_ms": _geomean([e["default_ms"] for e in entries]),
            "tuned_geomean_ms": _geomean([e["tuned_ms"] for e in entries]),
            "tuned_vs_default_geomean": _geomean(speedups),
            "all_bit_identical": all(checked) if checked else None,
        },
    }


def write_tune_report(report: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_tune_report(report: Dict) -> str:
    lines = [
        f"{'program':<26} {'default ms':>11} {'tuned ms':>10} "
        f"{'speedup':>8} {'trials':>6}  winning config"
    ]
    for entry in report["entries"]:
        config = entry["config"]
        if config.get("use_cost_model", True):
            knobs = "default (analytic gate)"
        else:
            knobs = (
                f"{config['scheduler']}"
                f"{'+unroll' if config['unroll'] else ''}"
                f"{'+bidir' if config['bidirectional'] else ''}"
                f" inflight={config['max_in_flight']}"
                f" gran={config['transfer_granularity']}"
            )
        measured = (
            f" (measured {entry['measured_speedup']:.2f}x, "
            f"{'exact' if entry['bit_identical'] else 'INEXACT'})"
            if entry["measured_speedup"] is not None
            else ""
        )
        lines.append(
            f"{entry['label']:<26} {entry['default_ms']:>11.3f} "
            f"{entry['tuned_ms']:>10.3f} {entry['speedup']:>7.2f}x "
            f"{entry['trials']:>6}  {knobs}{measured}"
        )
    summary = report["summary"]
    exact = summary["all_bit_identical"]
    lines.append(
        f"tuned vs default geomean "
        f"{summary['tuned_vs_default_geomean']:.3f}x over "
        f"{summary['entries']} program(s)"
        + (
            ""
            if exact is None
            else f", measured runs bit-identical: {'yes' if exact else 'NO'}"
        )
    )
    return "\n".join(lines)


def check_tune_report(report: Dict, min_ratio: float = 1.0) -> List[str]:
    """Gate failures (empty list == pass) for CI and the CLI."""
    problems: List[str] = []
    summary = report["summary"]
    if not report["entries"]:
        problems.append("tuning sweep produced no entries")
        return problems
    ratio = summary["tuned_vs_default_geomean"]
    if ratio < min_ratio:
        problems.append(
            f"tuned geomean is {ratio:.3f}x the default geomean, below the "
            f"required {min_ratio:.2f}x (tuned must never lose to the "
            f"analytic gate)"
        )
    for entry in report["entries"]:
        if entry["speedup"] < 1.0 - _EPSILON:
            problems.append(
                f"{entry['label']}: tuned config is slower than the default "
                f"({entry['speedup']:.3f}x) — the default candidate should "
                f"have won"
            )
        if entry["bit_identical"] is False:
            problems.append(
                f"{entry['label']}: tuned plan diverges from the "
                f"interpreter oracle"
            )
    return problems


def compare_tune_reports(
    baseline: Dict, fresh: Dict, max_drop: float = 0.2
) -> List[str]:
    """Trend-gate failures of ``fresh`` against a committed baseline."""
    problems: List[str] = []
    base = {e["label"]: e for e in baseline.get("entries", ())}
    new = {e["label"]: e for e in fresh.get("entries", ())}
    shared = sorted(base.keys() & new.keys())
    if not shared:
        problems.append(
            "no comparable entries between baseline and fresh tuning "
            "reports (label sets are disjoint)"
        )
        return problems
    for label in shared:
        before, after = base[label], new[label]
        if after["speedup"] < before["speedup"] * (1.0 - max_drop):
            problems.append(
                f"{label}: tuned speedup {after['speedup']:.3f}x dropped "
                f"more than {max_drop:.0%} below the baseline "
                f"{before['speedup']:.3f}x"
            )
        if before["bit_identical"] is True and after["bit_identical"] is False:
            problems.append(f"{label}: bit_identical flipped to false")
    return problems
