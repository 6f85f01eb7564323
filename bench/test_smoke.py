"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Outside tier-1 (``pyproject.toml`` collects ``tests/`` only). Every
workload makes one ``--quick`` run with tracing off and one traced, and
must report every metric ``BENCHMARK.json`` names, with its unit.
"""

import json
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*arguments, code=None):
    """``(exit code, result object)`` of one ``bench/run.py`` run."""
    command = [sys.executable, "bench/run.py", *arguments]
    if code is not None:
        command = [sys.executable, "-c", code, *arguments]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done.returncode, json.loads(lines[-1])


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for table in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[table]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    code, result = run(
        "--workload", workload, "--seed", "5", "--trace", str(trace), "--quick"
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in table]
    for metric in table:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_a_failing_oracle_fails_the_run():
    """With a tolerance nothing can meet, the compiled-engine and serve
    checks fail: the run must say so and exit non-zero."""
    code, result = run(
        "--workload", "serve-closed", "--trace", "0", "--quick",
        code=(
            "import runpy, sys; sys.argv[0] = 'bench/run.py'\n"
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
            "from bench import sections; sections.RELATIVE_TOLERANCE = -1.0\n"
            "runpy.run_path('bench/run.py', run_name='__main__')\n"
        ),
    )
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_a_renamed_layer_function_degrades_to_null(monkeypatch):
    from bench import spans

    monkeypatch.setitem(
        spans.WRAPS, "core.fusion",
        (("repro.core.pipeline", "run_fusion_renamed"),),
    )
    recorder = spans.SpanRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with recorder.installed(("core.fusion", "core.async_split")):
            from repro.core import pipeline

            assert pipeline.split_collective_permutes.__wrapped__
    assert recorder.missing == {"core.fusion"}
    assert any("run_fusion_renamed" in str(w.message) for w in caught)
    assert not hasattr(pipeline.split_collective_permutes, "__wrapped__")
