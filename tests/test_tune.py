"""Tests for the overlap autotuner: search, tuning DB, engine pick-up.

The contract under test:

* **content addressing** — tuning keys are stable across separately
  built modules *and across process restarts* (they seed the persisted
  database, so any instability would orphan every committed record);
* **tuned >= default by construction** — candidate 0 of every search is
  the analytic-gate default, so the winner can never score worse;
* **transparent pick-up** — engines constructed with ``tuned=`` resolve
  raw modules to their tuned compilations by fingerprint (bit-identical
  to the interpreter oracle), pass already-compiled modules through,
  and kinds without tuning support reject ``tuned`` loudly;
* **typed persistence failures** — a corrupted database file raises
  :class:`TuningDBError` from ``load`` and degrades to the default
  configs (never garbage) through ``load_or_default``.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.adapt import run_with_ladder
from repro.core.config import OverlapConfig
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.runtime.engine import create_engine, resolve_tuned_module
from repro.serve import ServeConfig, Server
from repro.sharding.mesh import DeviceMesh
from repro.tune import (
    FULL_SPACE,
    TuningDB,
    TuningDBError,
    TuningRecord,
    candidate_space,
    check_tune_report,
    compare_tune_reports,
    config_from_json,
    config_to_json,
    require_tuned_capable,
    resolve_tuning_db,
    tune_golden,
    tune_module,
    tune_report,
    tuning_key,
)

CASE = GOLDEN_CASES[0]          # allgather-einsum
MESH = DeviceMesh.ring(2)


def _tune_one(db=None, **kwargs):
    return tune_module(
        lambda: CASE.build(MESH),
        MESH,
        label="allgather-einsum@2",
        budget=6,
        db=db,
        **kwargs,
    )


def _record(key="a|b|c", label="x", speedup=2.0):
    return TuningRecord(
        key=key,
        label=label,
        config=config_to_json(OverlapConfig()),
        tuned_time=1.0 / speedup,
        default_time=1.0,
        trials=6,
    )


class TestSearchSpace:
    def test_default_is_candidate_zero(self):
        points = candidate_space(8)
        assert points[0].is_default
        assert points[0].config == OverlapConfig()

    def test_budget_bounds_and_validation(self):
        assert len(candidate_space(5)) == 5
        assert len(candidate_space()) == FULL_SPACE
        with pytest.raises(ValueError, match="at least 2"):
            candidate_space(1)

    def test_space_is_deterministic_and_deduplicated(self):
        points = candidate_space()
        configs = [p.config for p in points]
        assert len(set(configs)) == len(configs)
        assert [p.label for p in candidate_space()] == [
            p.label for p in points
        ]

    def test_searched_candidates_disable_the_analytic_gate(self):
        for point in candidate_space()[1:]:
            assert point.config.use_cost_model is False
            assert point.config.enabled is True


class TestPerAxisSpace:
    def test_axis_candidates_append_after_the_flat_grid(self):
        flat = candidate_space()
        with_axes = candidate_space(axes=("tp", "dp"))
        # index-stability: the flat prefix is identical, so TuningDB
        # records and budget prefixes mean the same thing either way
        assert [p.config for p in with_axes[: len(flat)]] == [
            p.config for p in flat
        ]
        tail = with_axes[len(flat):]
        assert tail, "axes must extend the space"
        for point in tail:
            assert point.config.axis_overrides
            assert point.config.use_cost_model is False

    def test_axis_candidates_perturb_one_axis_each(self):
        flat_size = len(candidate_space())
        tail = candidate_space(axes=("tp", "dp"))[flat_size:]
        for point in tail:
            assert len(point.config.axis_overrides) == 1
            axis, override = point.config.axis_overrides[0]
            assert axis in ("tp", "dp")
            assert axis in point.label

    def test_budget_prefix_unchanged_by_axes(self):
        assert [p.config for p in candidate_space(6, axes=("tp",))] == [
            p.config for p in candidate_space(6)
        ]

    def test_axis_override_config_roundtrips_through_db_codec(self):
        flat_size = len(candidate_space())
        point = candidate_space(axes=("dp",))[flat_size]
        payload = json.loads(json.dumps(config_to_json(point.config)))
        assert config_from_json(payload) == point.config

    def test_legacy_payload_without_axis_overrides_loads(self):
        payload = config_to_json(OverlapConfig())
        payload.pop("axis_overrides")
        assert config_from_json(payload) == OverlapConfig()

    def test_unknown_override_field_rejected(self):
        payload = config_to_json(OverlapConfig())
        payload["axis_overrides"] = {"tp": {"warp_speed": 9}}
        with pytest.raises(TuningDBError, match="warp_speed"):
            config_from_json(payload)


class TestTuningKey:
    def test_stable_across_separately_built_modules(self):
        assert tuning_key(CASE.build(MESH), MESH) == tuning_key(
            CASE.build(MESH), MESH
        )

    def test_int_mesh_canonicalizes_to_ring(self):
        assert tuning_key(CASE.build(MESH), 2) == tuning_key(
            CASE.build(MESH), DeviceMesh.ring(2)
        )

    def test_distinguishes_mesh_and_module(self):
        four = DeviceMesh.ring(4)
        assert tuning_key(CASE.build(MESH), MESH) != tuning_key(
            CASE.build(four), four
        )
        assert tuning_key(CASE.build(MESH), MESH) != tuning_key(
            GOLDEN_CASES[1].build(MESH), MESH
        )

    def test_stable_across_process_restarts(self):
        # The committed database is only usable if a fresh interpreter
        # derives the same keys (no id()/hash-seed dependence).
        script = (
            "from repro.faults.chaos import GOLDEN_CASES\n"
            "from repro.sharding.mesh import DeviceMesh\n"
            "from repro.tune import tuning_key\n"
            "mesh = DeviceMesh.ring(2)\n"
            "print(tuning_key(GOLDEN_CASES[0].build(mesh), mesh))\n"
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(keys) == 1
        assert keys == {tuning_key(CASE.build(MESH), MESH)}


class TestTunedNeverLosesToDefault:
    def test_record_speedup_at_least_one(self):
        record = _tune_one()
        assert record.speedup >= 1.0
        assert record.trials == 6

    def test_golden_sweep_gates_pass(self):
        records = tune_golden(budget=4, rings=(2,))
        report = tune_report(records, budget=4, measured=False)
        assert check_tune_report(report) == []
        assert report["summary"]["tuned_vs_default_geomean"] >= 1.0

    def test_measured_spot_check_is_bit_identical(self):
        record = _tune_one(
            measure=True, make_arguments=CASE.make_arguments
        )
        assert record.bit_identical is True
        assert record.scored_by == "perfsim+measured"
        assert record.measured_speedup is not None

    def test_measure_without_arguments_is_loud(self):
        with pytest.raises(ValueError, match="make_arguments"):
            _tune_one(measure=True)


class TestTuningDB:
    def test_round_trip_persistence(self, tmp_path):
        path = str(tmp_path / "db.json")
        db = TuningDB(path)
        record = _tune_one(db=db)
        db.save()
        loaded = TuningDB.load(path)
        assert len(loaded) == 1
        again = loaded.get(record.key)
        assert again is not None
        assert again.overlap_config() == record.overlap_config()
        assert again.speedup == pytest.approx(record.speedup)

    def test_persisted_record_means_zero_research(self, tmp_path):
        db = TuningDB()
        first = _tune_one(db=db)
        poisoned = db  # tune_module must return the stored record as-is

        def exploding_build():
            raise AssertionError("searched despite a persisted record")

        again = tune_module(
            lambda: CASE.build(MESH), MESH,
            label="allgather-einsum@2", budget=6, db=poisoned,
        )
        assert again is first
        # force=True re-searches.
        forced = _tune_one(db=db, force=True)
        assert forced is not first
        assert forced.key == first.key

    def test_missing_file_is_empty_not_an_error(self, tmp_path):
        db = TuningDB.load(str(tmp_path / "never_written.json"))
        assert len(db) == 0

    def test_corrupted_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("{not json")
        with pytest.raises(TuningDBError, match="corrupted JSON"):
            TuningDB.load(str(path))

    def test_wrong_schema_raises_typed_error(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(TuningDBError, match="schema"):
            TuningDB.load(str(path))

    def test_unknown_config_field_raises_typed_error(self, tmp_path):
        entry = _record().to_json()
        entry["config"]["warp_drive"] = True
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"schema": 1, "entries": [entry]}))
        with pytest.raises(TuningDBError, match="warp_drive"):
            TuningDB.load(str(path))

    def test_load_or_default_falls_back_to_defaults(self, tmp_path):
        path = tmp_path / "db.json"
        path.write_text("]]]")
        db = TuningDB.load_or_default(str(path))
        assert len(db) == 0
        assert isinstance(db.load_error, TuningDBError)
        # Fallback behaviour: every lookup resolves to the default config.
        config = db.config_for(CASE.build(MESH), MESH)
        assert config == OverlapConfig()

    def test_capacity_eviction_is_fifo(self):
        db = TuningDB(capacity=2)
        for index in range(3):
            db.put(_record(key=f"k{index}|m|c", label=f"r{index}"))
        assert len(db) == 2
        assert db.get("k0|m|c") is None
        assert db.get("k2|m|c") is not None
        assert db.stats.evictions == 1

    def test_evict_by_label_and_prefix(self):
        db = TuningDB()
        db.put(_record(key="aaa|m|c", label="one"))
        db.put(_record(key="bbb|m|c", label="two"))
        assert [r.label for r in db.evict("one")] == ["one"]
        assert [r.label for r in db.evict("bbb")] == ["two"]
        assert len(db) == 0

    def test_config_json_round_trip_and_validation(self):
        config = OverlapConfig(unroll=False, max_in_flight=2)
        assert config_from_json(config_to_json(config)) == config
        with pytest.raises(TuningDBError, match="unknown"):
            config_from_json({"no_such_knob": 1})
        with pytest.raises(TuningDBError, match="invalid"):
            config_from_json({"transfer_granularity": -3})

    def test_resolve_tuning_db_spellings(self, tmp_path):
        assert resolve_tuning_db(None) is None
        assert resolve_tuning_db(False) is None
        db = TuningDB()
        assert resolve_tuning_db(db) is db
        path = str(tmp_path / "db.json")
        TuningDB(path).save()
        assert isinstance(resolve_tuning_db(path), TuningDB)
        with pytest.raises(TypeError, match="tuned must be"):
            resolve_tuning_db(3.14)


class TestEnginePickup:
    def _tuned_db(self):
        db = TuningDB()
        _tune_one(db=db)
        return db

    def test_raw_module_resolves_and_matches_oracle(self):
        db = self._tuned_db()
        rng = np.random.default_rng(7)
        arguments = CASE.make_arguments(MESH, rng)
        reference = create_engine("interpreted").run(
            CASE.build(MESH), arguments, mesh=2
        )
        engine = create_engine("compiled", tuned=db)
        values = engine.run(CASE.build(MESH), arguments, mesh=2)
        assert engine.tuning_db.stats.hits >= 1
        assert reference.keys() == values.keys()
        for key in reference:
            for expected, actual in zip(reference[key], values[key]):
                np.testing.assert_array_equal(expected, actual)

    def test_parallel_engine_accepts_tuned(self):
        db = self._tuned_db()
        rng = np.random.default_rng(7)
        arguments = CASE.make_arguments(MESH, rng)
        reference = create_engine("interpreted").run(
            CASE.build(MESH), arguments, mesh=2
        )
        engine = create_engine("parallel", tuned=db, workers=2)
        values = engine.run(CASE.build(MESH), arguments, mesh=2)
        for key in reference:
            for expected, actual in zip(reference[key], values[key]):
                np.testing.assert_array_equal(expected, actual)

    def test_already_compiled_module_passes_through(self):
        db = self._tuned_db()
        module = CASE.build(MESH)
        compile_module(module, MESH, OverlapConfig())
        resolved = resolve_tuned_module(module, 2, db)
        assert resolved is module
        assert db.stats.misses >= 1

    def test_untuned_kind_rejects_tuned_loudly(self):
        with pytest.raises(ValueError, match="tuned does not apply"):
            create_engine("interpreted", tuned=True)
        with pytest.raises(ValueError, match="tuned does not apply"):
            create_engine("resilient", tuned=TuningDB())

    def test_require_tuned_capable(self):
        require_tuned_capable("compiled")
        require_tuned_capable("parallel")
        with pytest.raises(ValueError, match="unknown engine kind"):
            require_tuned_capable("warp")
        with pytest.raises(
            ValueError, match="does not accept tuned configs"
        ):
            require_tuned_capable("interpreted")


class TestServeAndLadderComposition:
    def test_serve_config_rejects_tuned_on_untuned_engine(self):
        with pytest.raises(ValueError, match="tuned does not apply"):
            ServeConfig(engine="interpreted", tuned=True)

    def test_server_picks_up_tuned_configs(self):
        db = TuningDB()
        _tune_one(db=db)
        config = ServeConfig(tuned=db, workers=1)
        with Server(config) as server:
            ticket = server.submit("allgather-einsum@2", seed=3)
            values = ticket.result(timeout=30)
        assert values
        stats = server.stats()
        assert stats.tuning_db is not None
        assert stats.tuning_db["hits"] >= 1

    def test_ladder_composes_on_tuned_base_config(self):
        record = _tune_one()
        tuned_config = record.overlap_config()
        rng = np.random.default_rng(11)
        arguments = CASE.make_arguments(MESH, rng)
        reference = create_engine("interpreted").run(
            CASE.build(MESH), arguments, mesh=2
        )
        result = run_with_ladder(
            lambda: CASE.build(MESH), MESH, arguments,
            base_config=tuned_config,
        )
        # The ladder compiles its own copy of the module, so the root is
        # renamed; compare outputs positionally.
        assert len(reference) == len(result.values)
        for expected_shards, actual_shards in zip(
            reference.values(), result.values.values()
        ):
            for expected, actual in zip(expected_shards, actual_shards):
                np.testing.assert_array_equal(expected, actual)


class TestReport:
    def test_gate_fails_on_regressed_entry(self):
        report = tune_report(
            [_record(speedup=0.5)], budget=6, measured=False
        )
        problems = check_tune_report(report)
        assert any("slower than the default" in p for p in problems)
        assert any("below the required" in p for p in problems)

    def test_gate_fails_on_oracle_divergence(self):
        record = TuningRecord(
            key="a|b|c", label="x",
            config=config_to_json(OverlapConfig()),
            tuned_time=1.0, default_time=1.0, trials=2,
            measured_speedup=1.1, bit_identical=False,
        )
        report = tune_report([record], budget=2, measured=True)
        assert any(
            "diverges" in p for p in check_tune_report(report)
        )
        assert report["summary"]["all_bit_identical"] is False

    def test_trend_gate_matches_by_label(self):
        base = tune_report([_record(speedup=2.0)], budget=6, measured=False)
        fresh = tune_report([_record(speedup=1.0)], budget=6, measured=False)
        problems = compare_tune_reports(base, fresh, max_drop=0.2)
        assert any("dropped more than" in p for p in problems)
        assert compare_tune_reports(base, base) == []

    def test_trend_gate_fails_on_disjoint_labels(self):
        base = tune_report([_record(label="a")], budget=6, measured=False)
        fresh = tune_report([_record(label="b")], budget=6, measured=False)
        assert any(
            "disjoint" in p for p in compare_tune_reports(base, fresh)
        )


class TestCli:
    def test_tune_roundtrip_inspect_evict(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "db.json")
        out = str(tmp_path / "report.json")
        assert main([
            "tune", "--budget", "4", "--db", db, "--out", out,
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["tuned_vs_default_geomean"] >= 1.0
        assert len(report["entries"]) == 6
        capsys.readouterr()

        # Second run: every record comes from the DB, zero re-search.
        assert main(["tune", "--budget", "4", "--db", db, "--out", ""]) == 0
        capsys.readouterr()

        assert main(["tune", "--inspect", "--db", db]) == 0
        assert "6 record(s)" in capsys.readouterr().out

        assert main(["tune", "--evict", "mlp-chain@2", "--db", db]) == 0
        assert "evicted 1 record(s)" in capsys.readouterr().out

    def test_tune_trend_gate_against_own_report(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "db.json")
        out = str(tmp_path / "report.json")
        assert main(["tune", "--budget", "4", "--db", db, "--out", out]) == 0
        capsys.readouterr()
        assert main([
            "tune", "--budget", "4", "--db", db, "--out", "",
            "--baseline", out,
        ]) == 0

    def test_tune_inspect_corrupted_db_is_loud(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text("{broken")
        assert main(["tune", "--inspect", "--db", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_tune_corrupted_db_warns_and_recovers(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        path.write_text("{broken")
        assert main([
            "tune", "--budget", "4", "--db", str(path), "--out", "",
        ]) == 0
        assert "WARN" in capsys.readouterr().err
        # The rewritten database is valid again.
        assert len(TuningDB.load(str(path))) == 6

    def test_tune_measure_rejects_untuned_engine(self, capsys):
        from repro.cli import main

        assert main([
            "tune", "--measure", "--engine", "interpreted",
        ]) == 2
        assert "tuned configs" in capsys.readouterr().err
