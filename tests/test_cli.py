"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_all_artifacts_described(self):
        from repro.cli import _DESCRIPTIONS

        assert set(ARTIFACTS) == set(_DESCRIPTIONS)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_bad_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "GPT_32B", "--scheduler", "magic"]
            )


class TestCommands:
    def test_experiments_lists_everything(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_run_unknown_artifact(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_multiple(self, capsys):
        assert main(["run", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_simulate_baseline(self, capsys):
        assert main(["simulate", "GPT_32B", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "FLOPS utilization" in out
        assert "hidden transfers:        0.000 s" in out

    def test_simulate_with_timeline(self, capsys):
        assert main(["simulate", "GPT_32B", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "link:" in out

    def test_simulate_unknown_model(self, capsys):
        assert main(["simulate", "GPT_9T"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_dump_shows_hlo(self, capsys):
        assert main(["dump", "GPT_32B", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "HloModule" in out
        assert "all-gather" in out
        assert "einsum" in out


class TestChaosCommand:
    def test_clean_batch_exits_zero(self, capsys):
        assert main(["chaos", "--runs", "5", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "seed=11" in out
        assert "contract held" in out

    def test_report_logs_batch_seed_for_replay(self, capsys):
        main(["chaos", "--runs", "3", "--seed", "987", "--intensity", "0.2"])
        assert "seed=987" in capsys.readouterr().out

    def test_zero_runs_rejected(self, capsys):
        assert main(["chaos", "--runs", "0"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_defaults_meet_acceptance_floor(self):
        parser = build_parser()
        args = parser.parse_args(["chaos"])
        assert args.runs >= 200
        assert args.seed == 20230325

    def test_replay_reruns_a_single_seed(self, capsys):
        assert main(["chaos", "--replay", "11"]) == 0
        out = capsys.readouterr().out
        assert "replay seed=11" in out
        assert "outcome:" in out


class TestTraceCommand:
    def test_unknown_module_exits_two(self, capsys, tmp_path):
        assert main([
            "trace", "--module", "nope",
            "--out", str(tmp_path / "t.json"),
        ]) == 2
        assert "unknown module" in capsys.readouterr().err

    def test_bad_ring_size_exits_two(self, capsys, tmp_path):
        assert main([
            "trace", "--module", "mlp-chain", "--devices", "3",
            "--out", str(tmp_path / "t.json"),
        ]) == 2
        assert "rings" in capsys.readouterr().err

    def test_writes_valid_chrome_trace_and_check_passes(
        self, capsys, tmp_path
    ):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main([
            "trace", "--module", "mlp-chain", "--out", str(out), "--check",
        ]) == 0
        report = capsys.readouterr().out
        assert "check passed" in report
        with open(out) as handle:
            obj = json.load(handle)
        assert validate_chrome_trace(obj) == []
        # Every engine, both variants, plus the simulated streams.
        processes = {
            e["args"]["name"] for e in obj["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert processes == {
            "interpreted/baseline", "interpreted/decomposed",
            "compiled/baseline", "compiled/decomposed",
            "parallel/baseline", "parallel/decomposed",
            "simulated/baseline", "simulated/decomposed",
        }


class TestChaosLadderCli:
    def test_ladder_batch_holds_contract(self, capsys):
        assert main(
            ["chaos", "--ladder", "--runs", "8", "--seed", "11",
             "--intensity", "0.6"]
        ) == 0
        out = capsys.readouterr().out
        assert "contract held" in out

    def test_ladder_replay_reports_rung(self, capsys):
        assert main(["chaos", "--ladder", "--replay", "11"]) == 0
        out = capsys.readouterr().out
        assert "final rung" in out

    def test_tail_gate_passes_and_writes_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "CHAOS_p99.json"
        assert main(
            ["chaos", "--tail", "--tail-runs", "4", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "gate: decomposed+rebalanced <= undecomposed at p99" in out
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True

    def test_tail_baseline_regression_fails(self, capsys, tmp_path):
        good = tmp_path / "baseline.json"
        assert main(
            ["chaos", "--tail", "--tail-runs", "4", "--out", str(good)]
        ) == 0
        capsys.readouterr()
        baseline = json.loads(good.read_text())
        for entry in baseline["scenarios"]:
            entry["rebalanced"]["p99"] *= 1e-6
        tightened = tmp_path / "tightened.json"
        tightened.write_text(json.dumps(baseline))
        assert main(
            ["chaos", "--tail", "--tail-runs", "4",
             "--baseline", str(tightened)]
        ) == 1
        assert "regressed past baseline" in capsys.readouterr().err
