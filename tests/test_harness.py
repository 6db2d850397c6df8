"""Harness: config validation, runs, logs, reports, sweeps, CLI."""

from __future__ import annotations

import csv
import json
import tracemalloc
from dataclasses import replace
from datetime import datetime
from decimal import Decimal
from pathlib import Path

import pytest
import yaml

import harness_fixtures as hf
from grantgeo import harness, metrics, report
from grantgeo.cli import main
from grantgeo.corpus import GrantAbstract, MalformedRow, write_ground_truth, write_jsonl
from grantgeo.gateway import FixtureBackend, TokenUsage, text_turn, tool_call_turn, write_fixture_script
from grantgeo.geo import Coordinate
from grantgeo.harness import (
    PIPELINES,
    AxisInapplicable,
    ConfigInvalid,
    DataMissing,
    NoResults,
    build_manifest,
    generate_report,
    ingest_external_predictions,
    load_config,
    run_evaluation,
    sweep,
)
from grantgeo.metrics import bootstrap_ci
from grantgeo.prompts import ONE_SHOT_PROMPT
from grantgeo.runners import Prediction, RunRecord, ToolCallRecord


def _run(config_path, **kwargs):
    config = load_config(config_path)
    manifest = build_manifest(config, **kwargs)
    return manifest, run_evaluation(manifest)


def _edited(line: bytes, **fields) -> bytes:
    """A call-log line with ``fields`` set."""
    return json.dumps({**json.loads(line), **fields}).encode()


def _full_workspace(tmp_path: Path, n_grants: int = 2, **doc) -> Path:
    """``hf.full_config`` (with ``doc``'s top-level keys replaced) and its files under ``tmp_path``; the config path."""
    hf.build_full_workspace(tmp_path, n_grants=n_grants)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({**hf.full_config(), **doc}), encoding="utf-8")
    return config_path


def _tool_chain_run(run_dir: Path, n: int) -> Path:
    """A finished one-method run of ``n`` tool-chain cells, each with a three-call trace."""
    rows = [f"r{i:05d}" for i in range(n)]
    (run_dir / "runs" / "T-1").mkdir(parents=True)
    (run_dir / "run.json").write_text(json.dumps({"methods": ["T-1"], "rows": rows}), encoding="utf-8")
    points = [{"lat": 37.1, "lng": -77.2}, {"lat": 37.3, "lng": -77.4}]
    records = []
    for i, row_id in enumerate(rows):
        trace = [
            ToolCallRecord(1, "geocode_place", {"query": f"place {i}, virginia"}, points[0], selected=True),
            ToolCallRecord(2, "geocode_place", {"query": f"creek {i}"}, points[1]),
            ToolCallRecord(3, "compute_centroid", {"points": points}, {"lat": 37.2, "lng": -77.3}),
        ]
        run = RunRecord(TokenUsage(900, 120), 0.5 + i % 7 / 10, Decimal("0.00123"), trace, "37.1, -77.2 " * 8)
        records.append(Prediction("T-1", row_id, Coordinate(37.1, -77.2), 1.5 + i % 13, run).to_json("request " * 10))
    write_jsonl(run_dir / "runs" / "T-1" / "calls.jsonl", records)
    return run_dir


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "nope.yaml")

    def test_bad_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("methods: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"# caf\xff\nmethods: []\n")
        with pytest.raises(ConfigInvalid, match="bad YAML"):
            load_config(path)

    def test_unknown_pipeline(self, tmp_path):
        config_path = hf.build_workspace(
            tmp_path, methods=[{"method_id": "X", "pipeline": "teleport"}]
        )
        with pytest.raises(ConfigInvalid):
            load_config(config_path)

    @pytest.mark.parametrize("method_id", ["Truth", "truths"])
    def test_method_id_near_a_ground_truth_column_loads(self, tmp_path, method_id):
        """Only a method_id one of whose own columns is a ground-truth column is refused."""
        config_path = hf.build_workspace(tmp_path, methods=[{"method_id": method_id, "pipeline": "county_centroid"}])
        assert list(load_config(config_path).methods) == [method_id]

    def test_refused_method_ids_follow_the_ground_truth_header(self, tmp_path, monkeypatch):
        """The check reads GROUND_TRUTH_HEADER and the four column suffixes, not a fixed name."""
        monkeypatch.setattr(harness, "GROUND_TRUTH_HEADER", [*harness.GROUND_TRUTH_HEADER, "gold_error_km"])
        config_path = hf.build_workspace(tmp_path, methods=[{"method_id": "gold", "pipeline": "county_centroid"}])
        with pytest.raises(ConfigInvalid, match="^gold: its results column gold_error_km would repeat a ground-truth column$"):
            load_config(config_path)

    def test_pipeline_field_discipline(self, tmp_path):
        # a county-centroid method must not carry a model config
        config_path = hf.build_workspace(
            tmp_path,
            methods=[
                {
                    "method_id": "H-4",
                    "pipeline": "county_centroid",
                    "model": {"model_id": "gpt-4o-2024-08-06"},
                }
            ],
        )
        with pytest.raises(ConfigInvalid):
            load_config(config_path)

    def test_required_fields_enforced(self, tmp_path):
        config_path = hf.build_workspace(
            tmp_path, methods=[{"method_id": "M-5", "pipeline": "one_shot"}]
        )
        with pytest.raises(ConfigInvalid):
            load_config(config_path)

    def test_temperature_effort_conflict(self, tmp_path):
        config_path = hf.build_workspace(
            tmp_path,
            methods=[
                {
                    "method_id": "M-2",
                    "pipeline": "one_shot",
                    "model": {"model_id": "o3", "temperature": 0.2, "reasoning_effort": "low"},
                    "fixture_script": "fixtures/m5.jsonl",
                }
            ],
        )
        with pytest.raises(ConfigInvalid):
            load_config(config_path)

    def test_unknown_model_price_rejected_at_load(self, tmp_path):
        config_path = hf.build_workspace(
            tmp_path,
            methods=[
                {
                    "method_id": "M-9",
                    "pipeline": "one_shot",
                    "model": {"model_id": "mystery-model", "temperature": 0.2},
                    "fixture_script": "fixtures/m9.jsonl",
                }
            ],
        )
        with pytest.raises(ConfigInvalid, match="mystery-model"):
            load_config(config_path)
        assert main(["run", "--config", str(config_path)]) == 1

    def test_readme_config_document_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config document", 1)[1]
        doc = yaml.safe_load(section.split("```yaml", 1)[1].split("```", 1)[0])
        (tmp_path / doc["data"]["county_table"]).write_text("county,lat,lon\nSussex,36.92,-77.28\n", encoding="utf-8")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        config = load_config(config_path)
        assert {spec.pipeline for spec in config.methods.values()} == set(PIPELINES)

    def test_unknown_method_in_roster(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        config = load_config(config_path)
        with pytest.raises(ConfigInvalid):
            build_manifest(config, methods=["M-404"])

    def test_parallelism_key_is_ignored(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        with config_path.open("a", encoding="utf-8") as fh:
            fh.write("parallelism: 1\n")
        assert not hasattr(load_config(config_path), "parallelism")

    def test_missing_ground_truth_is_data_error(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        (tmp_path / "fixtures" / "ground_truth.csv").unlink()
        config = load_config(config_path)
        manifest = build_manifest(config)
        with pytest.raises(DataMissing):
            run_evaluation(manifest)


class TestRunEvaluation:
    def test_dry_run_makes_no_calls_and_writes_nothing(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=43)
        manifest, outcome = _run(config_path, dry_run=True)
        out = capsys.readouterr().out
        assert "external calls: 0" in out
        assert "129" in out  # 3 methods x 43 grants
        assert outcome.cells == 129
        assert not (tmp_path / "out").exists()

    def test_fixture_run_writes_results_and_logs(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        manifest, outcome = _run(config_path, methods=["M-5"])
        csv_path = outcome.run_dir / "results_gold.csv"
        assert csv_path.exists()
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["M-5_lat"] for r in rows)
        log_path = outcome.run_dir / "runs" / "M-5" / "calls.jsonl"
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(records) == 2
        assert all(not r["failed"] for r in records)

    def test_max_rows_limits_processing(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=43)
        manifest, outcome = _run(config_path, methods=["H-4"], max_rows=5)
        with (outcome.run_dir / "results_gold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5

    def test_consecutive_runs_byte_identical(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=10)
        _, first = _run(config_path, output_dir=tmp_path / "out1")
        _, second = _run(config_path, output_dir=tmp_path / "out2")
        a = (tmp_path / "out1" / "results_gold.csv").read_bytes()
        b = (tmp_path / "out2" / "results_gold.csv").read_bytes()
        assert a == b

    def test_results_coordinates_appear_in_logs(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        _, outcome = _run(config_path)
        with (outcome.run_dir / "results_gold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for method in ("M-5", "M-6", "H-4"):
            log_path = outcome.run_dir / "runs" / method / "calls.jsonl"
            finals = {
                tuple(json.loads(line)["final_coordinate"] or ())
                for line in log_path.read_text().splitlines()
            }
            for row in rows:
                coord = (float(row[f"{method}_lat"]), float(row[f"{method}_lon"]))
                assert any(
                    abs(coord[0] - f[0]) < 1e-6 and abs(coord[1] - f[1]) < 1e-6 for f in finals
                )

    def test_logs_carry_the_csv_error_and_run_json_the_roster(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        _, outcome = _run(config_path)
        with (outcome.run_dir / "results_gold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for method in ("M-5", "M-6", "H-4"):
            log_path = outcome.run_dir / "runs" / method / "calls.jsonl"
            records = [json.loads(line) for line in log_path.read_text().splitlines()]
            assert [rec["error_km"] for rec in records] == [float(row[f"{method}_error_km"]) for row in rows]
            assert not any("timestamp" in rec for rec in records)  # the run's one start time is in run.json
        roster = json.loads((outcome.run_dir / "run.json").read_text(encoding="utf-8"))
        datetime.strptime(roster.pop("started"), "%Y-%m-%dT%H:%M:%S%z")
        assert roster == {"evalset": "gold", "methods": ["M-5", "M-6", "H-4"], "rows": ["r000", "r001", "r002", "r003"]}

    def test_llm_requests_are_the_text_each_model_was_given(self, tmp_path, monkeypatch):
        """Each log's request is the first 160 characters of the abstract its backend was sent, M-5's masked."""
        config_path = _full_workspace(tmp_path, n_grants=3)
        names = ["JOHN SMITH", "ANN JONES", "WM. BYRD"]
        grants = []
        for i, g in enumerate(hf.make_grants(3)):  # past 160 characters, so the request is cut
            text = g.text.replace(f"GRANTEE {i}", names[i]) + " Beg. at a Wt. oak." * 4
            grants.append(GrantAbstract.from_text(g.row_id, text, g.ground_truth))
        write_ground_truth(tmp_path / "fixtures" / "ground_truth.csv", grants)
        sent = {}  # each method's backend: the user message of each call
        complete = FixtureBackend.complete

        def recording(self, cfg, messages, tools=None):
            sent.setdefault(self, []).append(next(m.content for m in messages if m.role == "user"))
            return complete(self, cfg, messages, tools)

        monkeypatch.setattr(FixtureBackend, "complete", recording)
        _, outcome = _run(config_path, methods=["M-5", "E-1", "T-4"])
        logged = {}
        for method in ("M-5", "E-1", "T-4"):
            log = harness.call_log_path(outcome.run_dir, method).read_text(encoding="utf-8")
            logged[method] = [json.loads(line)["request"] for line in log.splitlines()]
        m5, e1, t4 = (  # one abstract per grant: E-1 sends each five times, T-4 twice
            [message.removeprefix(ONE_SHOT_PROMPT + "\n\n")[:160] for message in dict.fromkeys(messages)]
            for messages in sent.values()
        )
        assert logged["M-5"] == m5
        assert all(r.startswith("[NAME],") and len(r) == 160 for r in logged["M-5"])  # M-5 sets redact_names
        assert logged["E-1"] == e1 == logged["T-4"] == t4 == [g.text[:160] for g in grants]

    def test_failed_rows_kept_with_flag(self, tmp_path):
        grants = hf.make_grants(3)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        turns = [
            text_turn(f"{grants[0].ground_truth.lat:.6f}, {grants[0].ground_truth.lon:.6f}"),
            text_turn("no coordinates here"),
            text_turn(f"{grants[2].ground_truth.lat:.6f}, {grants[2].ground_truth.lon:.6f}"),
        ]
        write_fixture_script(fixtures / "m5.jsonl", turns)
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "M-5",
                    "pipeline": "one_shot",
                    "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
                    "fixture_script": "fixtures/m5.jsonl",
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        manifest, outcome = _run(config_path)
        assert outcome.failures == 1
        with (outcome.run_dir / "results_gold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[1]["M-5_failed"] == "true"
        assert rows[1]["M-5_lat"] == ""

    def test_tool_chain_method_through_harness(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        grants = hf.make_grants(3)
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        script, cache = hf.tool_chain_fixture(grants, fixtures)
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "T-4",
                    "pipeline": "tool_chain",
                    "model": {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2},
                    "budget": {"max_tool_calls": 10, "max_geocode_failures": 6},
                    "fixture_script": "fixtures/toolchain.jsonl",
                    "geocode_cache": "fixtures/geocache.jsonl",
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        manifest, outcome = _run(config_path)
        assert outcome.failures == 0
        log = (outcome.run_dir / "runs" / "T-4" / "calls.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log]
        assert all(len(r["tool_calls"]) == 1 for r in records)
        assert all(r["tool_calls"][0]["selected"] for r in records)


class TestIngestExternal:
    def test_ledgered_cost_spread(self, tmp_path):
        grants = hf.make_grants(43)
        path = tmp_path / "h1.csv"
        hf.external_predictions_csv(path, grants)
        preds = ingest_external_predictions(path, "H-1", grants, Decimal(140), 502.0)
        assert len(preds) == 43
        per_located = sum(p.run.cost_usd for p in preds) / 43
        assert abs(per_located - Decimal("3.25581")) < Decimal("0.00001")
        assert all(p.run.usage.input_tokens == 0 for p in preds)
        assert all(p.run.latency_s == 502.0 for p in preds)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "h1.csv"
        path.write_text("row_id,lat,lon\n", encoding="utf-8")
        assert ingest_external_predictions(path, "H-1", hf.make_grants(2)) == []

    def test_unknown_row_id(self, tmp_path):
        path = tmp_path / "h1.csv"
        path.write_text("row_id,lat,lon\nghost,37.0,-77.0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            ingest_external_predictions(path, "H-1", hf.make_grants(2))

    def test_bad_coordinate(self, tmp_path):
        path = tmp_path / "h1.csv"
        path.write_text("row_id,lat,lon\nr000,99.0,-77.0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            ingest_external_predictions(path, "H-1", hf.make_grants(2))

    def test_ingest_pipeline_through_harness(self, tmp_path):
        grants = hf.make_grants(5)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        hf.external_predictions_csv(fixtures / "h1.csv", grants[:4])  # one grant missing
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "H-1",
                    "pipeline": "ingest_external",
                    "predictions_file": "fixtures/h1.csv",
                    "total_cost_usd": 140,
                    "latency_s_per_grant": 502,
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        manifest, outcome = _run(config_path)
        assert outcome.failures == 1  # the row missing from the external file
        with (outcome.run_dir / "results_gold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert sum(1 for r in rows if r["H-1_failed"] == "true") == 1


def _mixed_workspace(tmp_path: Path) -> Path:
    """M-3 calls tools; M-3, M-5 and H-4 score all 4 grants, X-1 only 3."""
    grants = hf.make_grants(4)
    config_path = hf.build_workspace(
        tmp_path,
        n_grants=4,
        methods=[
            {
                "method_id": "M-3",
                "pipeline": "tool_chain",
                "model": {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2},
                "fixture_script": "fixtures/toolchain.jsonl",
                "geocode_cache": "fixtures/geocache.jsonl",
            },
            {
                "method_id": "M-5",
                "pipeline": "one_shot",
                "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
                "fixture_script": "fixtures/m5.jsonl",
            },
            {"method_id": "H-4", "pipeline": "county_centroid"},
            {"method_id": "X-1", "pipeline": "ingest_external", "predictions_file": "fixtures/x1.csv"},
        ],
    )
    fixtures = tmp_path / "fixtures"
    hf.tool_chain_fixture(grants, fixtures)
    write_fixture_script(fixtures / "m5.jsonl", hf.one_shot_script(grants, errors_km=[1, 2, 3]))
    hf.external_predictions_csv(fixtures / "x1.csv", grants[:3])
    return config_path


class TestGenerateReport:
    def test_single_method_errors_one_two_three(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        _, outcome = _run(config_path, methods=["M-5"])
        report_path = generate_report(outcome.run_dir)
        text = report_path.read_text()
        assert "| M-5 | 3 | 2.0 " in text
        assert "| 2.0 |" in text

    def test_frontier_lists_only_dominant_method(self, tmp_path):
        # M-5 answers are closer and cheaper than M-6's: M-6 is dominated
        grants = hf.make_grants(4)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        write_fixture_script(fixtures / "m5.jsonl", hf.one_shot_script(grants, errors_km=[1], usage=(10, 5)))
        write_fixture_script(fixtures / "m6.jsonl", hf.one_shot_script(grants, errors_km=[9], usage=(5000, 500)))
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "M-5",
                    "pipeline": "one_shot",
                    "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
                    "fixture_script": "fixtures/m5.jsonl",
                },
                {
                    "method_id": "M-6",
                    "pipeline": "one_shot",
                    "model": {"model_id": "gpt-3.5-turbo", "temperature": 0.2},
                    "fixture_script": "fixtures/m6.jsonl",
                },
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        _, outcome = _run(config_path)
        generate_report(outcome.run_dir)
        with (outcome.run_dir / "pareto_frontier.csv").open() as fh:
            frontier = [r["id"] for r in csv.DictReader(fh)]
        assert frontier == ["M-5"]
        with (outcome.run_dir / "cost_vs_error.csv").open() as fh:
            scatter = [r["id"] for r in csv.DictReader(fh)]
        assert set(scatter) == {"M-5", "M-6"}

    def test_tool_usage_table_present_when_traces_exist(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        grants = hf.make_grants(3)
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        hf.tool_chain_fixture(grants, fixtures)
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "T-4",
                    "pipeline": "tool_chain",
                    "model": {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2},
                    "fixture_script": "fixtures/toolchain.jsonl",
                    "geocode_cache": "fixtures/geocache.jsonl",
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        _, outcome = _run(config_path)
        report = generate_report(outcome.run_dir).read_text()
        assert "## Tool usage" in report
        assert "| T-4 | 1.00 |" in report

    def test_centroid_only_traces_print_a_zero_ratio(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        grants = hf.make_grants(3)
        write_ground_truth(fixtures / "ground_truth.csv", grants)
        points = [{"lat": 37.0, "lng": -77.0}, {"lat": 37.2, "lng": -77.2}]
        turns = []
        for g in grants:
            turns.append(tool_call_turn("compute_centroid", {"points": points}))
            turns.append(text_turn(f"{g.ground_truth.lat:.6f}, {g.ground_truth.lon:.6f}"))
        write_fixture_script(fixtures / "toolchain.jsonl", turns)
        method = {
            "method_id": "T-4",
            "pipeline": "tool_chain",
            "model": {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2},
            "fixture_script": "fixtures/toolchain.jsonl",
        }
        config = {"corpus": {"ground_truth": "fixtures/ground_truth.csv"}, "methods": [method], "output_dir": "out"}
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        _, outcome = _run(config_path)
        report = generate_report(outcome.run_dir).read_text(encoding="utf-8")
        assert "| T-4 | 1.00 | 0.00:1 | 0.0% |" in report.split("## Tool usage", 1)[1]

    def test_zero_latency_speedup_is_na(self, tmp_path):
        grants = hf.make_grants(3)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        hf.external_predictions_csv(fixtures / "h1.csv", grants)
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "methods": [{"method_id": "H-1", "pipeline": "ingest_external", "predictions_file": "fixtures/h1.csv"}],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 0
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        processing = report.split("## Processing time", 1)[1].split("##", 1)[0]
        assert "| H-1 | 0.0000 | 0.000 | n/a |" in processing

    def test_only_the_last_run_into_a_directory_is_reported(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=20)
        doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        doc["evalsets"] = {"dev": {"from": "dev"}, "test": {"from": "test"}}
        doc["default_evalset"] = "dev"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        _run(config_path, methods=["H-4"], evalset="dev")
        _, outcome = _run(config_path, methods=["H-4"], evalset="test")
        report = generate_report(outcome.run_dir).read_text(encoding="utf-8")
        assert outcome.cells == 16
        assert "| H-4 | 16 | " in report

    def test_no_results(self, tmp_path):
        with pytest.raises(NoResults):
            generate_report(tmp_path)

    def test_shared_draws_match_per_method_bootstrap(self, tmp_path, monkeypatch):
        _, outcome = _run(_mixed_workspace(tmp_path))
        seen = {}
        original = report.summarize_run

        def spy(*args):
            rows = original(*args)
            seen.update((row.method_id, (list(row.errors), row.ci)) for row in rows if row.ci is not None)
            return rows

        monkeypatch.setattr(report, "summarize_run", spy)
        generate_report(outcome.run_dir)
        assert {mid: len(errors) for mid, (errors, _) in seen.items()} == {"M-3": 4, "M-5": 4, "H-4": 4, "X-1": 3}
        for errors, ci in seen.values():
            assert ci == bootstrap_ci(errors)

    def test_headers_state_the_level_the_intervals_use(self, tmp_path, monkeypatch):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        out = tmp_path / "sweep_out"
        manifest = build_manifest(load_config(config_path), methods=["M-5"], output_dir=out)
        wide = report.summarize_run(_run(config_path, output_dir=tmp_path / "plain")[1].run_dir)[0].ci
        monkeypatch.setattr(metrics, "CI_LEVEL", 0.8)
        monkeypatch.setattr(report, "CI_LEVEL", 0.8)
        sweep(manifest, "temperature", ["0.2"])
        [row] = report.summarize_run(out)
        assert row.ci == bootstrap_ci(row.errors) and row.ci.hi - row.ci.lo < wide.hi - wide.lo
        text = generate_report(out).read_text(encoding="utf-8")
        assert "| ID | n | Mean ± 80% CI (km) |" in text
        assert f"| M-5__temperature_0.2 | 4 | {row.stats.mean:.1f} [{row.ci.lo:.1f}, {row.ci.hi:.1f}] |" in text
        assert "| Value | Method | n | Mean error (km) | 80% CI (km) |" in (out / "sweep_report.md").read_text(encoding="utf-8")

    def test_peak_memory_does_not_grow_with_the_log(self, tmp_path):
        peaks = []
        for n in (600, 6000):
            run_dir = _tool_chain_run(tmp_path / str(n), n)
            tracemalloc.start()
            try:
                [row] = report.summarize_run(run_dir)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert row.stats.n == n and row.tool_usage.calls_per_entry_mean == 3.0
        assert peaks[1] < 2 * peaks[0]

    def test_tool_usage_table_with_one_tool_method_among_others(self, tmp_path):
        _, outcome = _run(_mixed_workspace(tmp_path))
        report = generate_report(outcome.run_dir).read_text(encoding="utf-8")
        assert report.split("## Tool usage", 1)[1] == (
            "\n\n"
            "| Method | Calls / entry (mean) | geo:cent ratio | First-call success | Mean selected index |\n"
            "|---|---|---|---|---|\n"
            "| M-3 | 1.00 | n/a | 100.0% | 1.00 |\n"
        )


class TestSweep:
    def test_single_temperature_matches_plain_run(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        config = load_config(config_path)
        manifest = build_manifest(config, methods=["M-5"], output_dir=tmp_path / "sweep_out")
        sweep(manifest, "temperature", [0.2])
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        _, plain = _run(config_path, methods=["M-5"], output_dir=tmp_path / "plain_out")
        errors = [p.error_km for p in plain.predictions["M-5"]]
        assert float(rows[0]["mean_error_km"]) == pytest.approx(sum(errors) / len(errors), abs=1e-3)

    def test_effort_sweep_reports_scripted_tokens(self, tmp_path):
        grants = hf.make_grants(2)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        for effort, tokens in (("low", 1100), ("medium", 3200), ("high", 7000)):
            write_fixture_script(
                fixtures / f"m2_{effort}.jsonl",
                hf.one_shot_script(grants, errors_km=[2], usage=(0, tokens)),
            )
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "M-2",
                    "pipeline": "one_shot",
                    "model": {"model_id": "o3-2025-04-16"},
                    "fixture_script": "fixtures/m2_low.jsonl",
                    "sweep_fixtures": {
                        "low": "fixtures/m2_low.jsonl",
                        "medium": "fixtures/m2_medium.jsonl",
                        "high": "fixtures/m2_high.jsonl",
                    },
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        manifest = build_manifest(load_config(config_path), output_dir=tmp_path / "sweep_out")
        sweep(manifest, "reasoning_effort", ["low", "medium", "high"])
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            rows = {r["axis_value"]: float(r["tokens_per_entry"]) for r in csv.DictReader(fh)}
        assert rows == {"low": 1100.0, "medium": 3200.0, "high": 7000.0}

    def test_rows_are_what_the_report_gives_for_each_value(self, tmp_path, monkeypatch):
        config_path = hf.build_workspace(tmp_path, n_grants=10)
        errors_km = [0.3, 1.7, 2.9, 4.4, 7.5, 11.2, 0.9, 3.3, 6.1, 9.8]  # distinct, so the CI depends on every draw
        write_fixture_script(tmp_path / "fixtures" / "m5.jsonl", hf.one_shot_script(hf.make_grants(10), errors_km))
        manifest = build_manifest(load_config(config_path), methods=["M-5", "M-6"], output_dir=tmp_path / "sweep_out")
        sweep(manifest, "temperature", [0.2])
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            rows = {r["method_id"]: r for r in csv.DictReader(fh)}
        seen = {}
        original = report.summarize_run

        def spy(*args):
            rows = original(*args)
            seen.update((row.method_id.split("__")[0], row) for row in rows if row.stats is not None)
            return rows

        monkeypatch.setattr(report, "summarize_run", spy)
        generate_report(tmp_path / "sweep_out")  # the sweep's directory is a run
        assert sorted(seen) == sorted(rows) == ["M-5", "M-6"]
        for method_id, s in seen.items():
            row = rows[method_id]
            assert row["axis_value"] == "0.2"
            assert int(row["n"]) == s.stats.n == 10
            assert row["mean_error_km"] == f"{s.stats.mean:.4f}"
            assert (row["ci_lo_km"], row["ci_hi_km"]) == (f"{s.ci.lo:.4f}", f"{s.ci.hi:.4f}")
            assert row["within_10km_pct"] == f"{s.stats.bands[10.0] * 100:.1f}"
            assert row["cost_per_1k"] == f"{s.cost_per_1k:.2f}"
        assert (rows["M-5"]["tokens_per_entry"], rows["M-6"]["tokens_per_entry"]) == ("120.0", "176.0")

    def test_a_clone_in_a_sweep_equals_a_plain_run_of_that_clone(self, tmp_path, monkeypatch):
        config_path = hf.build_workspace(tmp_path, n_grants=6)
        grants = hf.make_grants(6)
        write_fixture_script(tmp_path / "fixtures" / "m5_hot.jsonl", hf.one_shot_script(grants, [9, 30], (80, 41)))
        doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        doc["methods"][0]["sweep_fixtures"] = {0.2: "fixtures/m5.jsonl", 0.9: "fixtures/m5_hot.jsonl"}
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        manifest = build_manifest(load_config(config_path), methods=["M-5", "M-6"], output_dir=tmp_path / "sweep_out")
        runs = []

        def spy(run_manifest):
            runs.append([spec.method_id for spec in run_manifest.methods])
            return run_evaluation(run_manifest)

        monkeypatch.setattr(harness, "run_evaluation", spy)
        sweep(manifest, "temperature", ["0.2", "0.9"])
        clones = [harness._sweep_clone(spec, "temperature", v, True) for v in (0.2, 0.9) for spec in manifest.methods]
        clone_ids = ["M-5__temperature_0.2", "M-6__temperature_0.2", "M-5__temperature_0.9", "M-6__temperature_0.9"]
        assert runs == [clone_ids] == [[c.method_id for c in clones]]
        assert json.loads((tmp_path / "sweep_out" / "run.json").read_text(encoding="utf-8"))["methods"] == clone_ids

        def records(run_dir: Path, method_id: str) -> list[dict]:
            lines = (run_dir / "runs" / method_id / "calls.jsonl").read_text(encoding="utf-8").splitlines()
            return [{**json.loads(line), "latency_s": None} for line in lines]

        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            swept = list(csv.DictReader(fh))
        assert [(r["axis_value"], r["method_id"]) for r in swept] == [
            ("0.2", "M-5"), ("0.2", "M-6"), ("0.9", "M-5"), ("0.9", "M-6"),
        ]
        for clone, row in zip(clones, swept):
            plain = tmp_path / "plain" / clone.method_id
            run_evaluation(replace(manifest, methods=[clone], output_dir=plain))
            assert records(tmp_path / "sweep_out", clone.method_id) == records(plain, clone.method_id)
            [alone] = report.summarize_run(plain)
            st, ci = alone.stats, alone.ci
            assert row == {
                "axis_value": row["axis_value"],
                "method_id": row["method_id"],
                "n": str(st.n),
                "mean_error_km": f"{st.mean:.4f}",
                "ci_lo_km": f"{ci.lo:.4f}",
                "ci_hi_km": f"{ci.hi:.4f}",
                "within_10km_pct": f"{st.bands[10.0] * 100:.1f}",
                "cost_per_1k": f"{alone.cost_per_1k:.2f}",
                "tokens_per_entry": f"{alone.tokens_per_entry:.1f}",
            }
        assert swept[0] != swept[2]  # the second value replays its own script
        accuracy = generate_report(tmp_path / "sweep_out").read_text(encoding="utf-8")
        accuracy = accuracy.split("## Accuracy", 1)[1].split("\n## ", 1)[0]
        listed = [line.split(" | ")[0].removeprefix("| ") for line in accuracy.strip().splitlines()[2:]]
        assert sorted(listed) == sorted(clone_ids)  # the table is ordered by mean error

    def test_non_number_temperature_is_config_invalid(self, tmp_path):
        manifest = build_manifest(load_config(hf.build_workspace(tmp_path)), methods=["M-5"])
        with pytest.raises(ConfigInvalid, match="warm"):
            sweep(manifest, "temperature", ["0.2", "warm"])

    def test_temperature_sweep_on_effort_model_rejected(self, tmp_path):
        config_path = hf.build_workspace(
            tmp_path,
            methods=[
                {
                    "method_id": "M-2",
                    "pipeline": "one_shot",
                    "model": {"model_id": "o3-2025-04-16", "reasoning_effort": "medium"},
                    "fixture_script": "fixtures/m5.jsonl",
                }
            ],
        )
        # the default m5 fixture is not written for this roster; only axis
        # validation is exercised here
        (tmp_path / "fixtures" / "m5.jsonl").write_text("", encoding="utf-8")
        manifest = build_manifest(load_config(config_path))
        with pytest.raises(AxisInapplicable):
            sweep(manifest, "temperature", [0.0, 0.4])

    def test_baseline_roster_rejected(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        manifest = build_manifest(load_config(config_path), methods=["H-4"])
        with pytest.raises(AxisInapplicable):
            sweep(manifest, "temperature", [0.2])


class TestCli:
    @pytest.mark.parametrize(
        "args, status",
        [
            (["--help"], 0),
            (["run"], 1),  # a usage error is the config-error code, not argparse's 2
            (["report", "--run-dir", "{empty}"], 2),  # no run.json: a data error
            (["run", "--config", "{empty}/missing.yaml"], 1),
        ],
        ids=["help", "usage-error", "run-dir-without-run-json", "missing-config"],
    )
    def test_python_dash_m_exit_status(self, tmp_path, args, status):
        """``python -m grantgeo`` runs __main__.py, which exits with the status ``main`` returns."""
        done = hf.python("-m", "grantgeo", *(arg.format(empty=tmp_path) for arg in args))
        assert done.returncode == status, done.stderr

    def test_run_and_report_round_trip(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        code = main(["run", "--config", str(config_path), "--output-dir", str(tmp_path / "cli_out")])
        assert code == 0
        code = main(["report", "--run-dir", str(tmp_path / "cli_out")])
        assert code == 0
        assert (tmp_path / "cli_out" / "report.md").exists()

    def test_dry_run_exit_zero(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 0

    def test_config_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("methods: {", encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            {"geocode_cahce": "fixtures/geocache.jsonl"},  # misspelled key
            {"total_cost_usd": 10},  # an ingest_external key on tool_chain
        ],
    )
    def test_undeclared_method_key_exit_one(self, tmp_path, extra):
        method = {
            "method_id": "T-4",
            "pipeline": "tool_chain",
            "model": {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2},
            "fixture_script": "fixtures/toolchain.jsonl",
        }
        config_path = hf.build_workspace(tmp_path, methods=[{**method, **extra}])
        assert main(["run", "--config", str(config_path)]) == 1

    def test_non_mapping_method_entry_exit_one(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, methods=["foo"])
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 1
        assert "must be a mapping" in capsys.readouterr().err

    def test_price_missing_field_named(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path)
        doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        doc["prices"] = {"my-model": {"input": 1}}
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=r"prices\.my-model: missing output"):
            load_config(config_path)
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 1
        assert "my-model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, named",
        [
            ("- a\n", "config document"),
            ("corpus: foo\n", "corpus"),
            ("corpus: {ground_truth: g.csv}\nprices: [1]\n", "prices"),
            ("corpus: {ground_truth: g.csv}\nsplit: 3\n", "split"),
            ("corpus: {ground_truth: g.csv}\nbackend: x\n", "backend"),
            ("corpus: {ground_truth: g.csv}\ndata: [x]\n", "data"),
            ("corpus: {ground_truth: g.csv}\nevalsets: [a]\n", "evalsets"),
            ("corpus: {ground_truth: g.csv}\nevalsets: {a: b}\n", "evalsets.a"),
        ],
    )
    def test_non_mapping_section_exit_one(self, tmp_path, capsys, document, named):
        methods = "methods: [{method_id: H-4, pipeline: county_centroid}]\n"
        config_path = tmp_path / "c.yaml"
        config_path.write_text(document if document.startswith("-") else document + methods, encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 1
        assert f"{named} must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, named",
        [
            ("model", {"model_id": "gpt-4o-2024-08-06", "temprature": 0.7}, "M-5.model: unknown keys ['temprature']"),
            ("ensemble", {"k": 5, "eps": 5.0}, "E-1.ensemble: unknown keys ['eps']"),
            ("budget", {"max_calls": 2}, "T-4.budget: unknown keys ['max_calls']"),
            ("params", {"confidence_threshold": 0.5, "bbox_margin": 0.1}, "H-2.params: unknown keys ['bbox_margin']"),
            ("data", {"county_tabel": "x.csv"}, "data: unknown keys ['county_tabel']"),
            ("evalsets", {"gold": {"from": "all", "requre_truth": True}}, "evalsets.gold: unknown keys ['requre_truth']"),
            ("split", {"sed": 7}, "split: unknown keys ['sed']"),
            ("corpus", {"ground_truth": "fixtures/ground_truth.csv", "groundtruth": "g.csv"}, "corpus: unknown keys"),
            ("backend", {"kind": "fixture", "endpiont": "http://x"}, "backend: unknown keys ['endpiont']"),
        ],
    )
    def test_misspelled_nested_key_exit_one(self, tmp_path, capsys, section, value, named):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        methods = {m["method_id"]: m for m in hf.full_config()["methods"]}
        doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        method = {"model": "M-5", "ensemble": "E-1", "budget": "T-4", "params": "H-2"}.get(section)
        if method:
            doc["methods"] = [{**methods[method], section: value}]
        else:
            doc[section] = value
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda doc: doc["methods"][4]["params"].update(bbox_margin_deg=-1), "H-2.params"),
            (lambda doc: doc["evalsets"]["one"].update(n="x"), "evalsets.one"),
            (lambda doc: doc["evalsets"]["one"].update(n=2), "evalsets.one"),  # dev holds one of the two grants
            (lambda doc: doc["split"].update(seed="7"), "split"),
            (lambda doc: doc["methods"][0]["model"].update(model_id=5), "M-5.model"),
            (lambda doc: doc["methods"][6].update(total_cost_usd="abc"), "X-1"),
            (lambda doc: doc["methods"][6].update(total_cost_usd=float("inf")), "X-1"),
            (lambda doc: doc["prices"]["my-model"].update(input="abc"), "prices.my-model"),
            (lambda doc: doc["prices"]["my-model"].update(output=float("inf")), "prices.my-model"),
        ],
        ids=[
            "negative-margin", "n-not-int", "n-too-large", "seed-string", "model-id-int",
            "cost-text", "cost-infinite", "price-text", "price-infinite",
        ],
    )
    def test_bad_value_exit_one(self, tmp_path, capsys, change, named):
        hf.build_full_workspace(tmp_path)
        doc = hf.full_config()
        change(doc)
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--evalset", "one", "--dry-run"]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["default_evalset", "output_dir"])
    @pytest.mark.parametrize("value", [[], {}, 3, ""])
    def test_non_string_default_key_exit_one(self, tmp_path, capsys, key, value):
        hf.build_full_workspace(tmp_path)
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump({**hf.full_config(), key: value}), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--dry-run"]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, "absent"])
    def test_absent_or_null_default_key_takes_the_default(self, tmp_path, value):
        hf.build_full_workspace(tmp_path)
        doc = {**hf.full_config(), "default_evalset": None, "output_dir": None}
        if value == "absent":
            del doc["default_evalset"], doc["output_dir"]
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        config = load_config(config_path)
        assert (config.default_evalset, config.output_dir) == ("gold", tmp_path / "runs_out")

    @pytest.mark.parametrize(
        "name, text, named",
        [
            ("gazetteer.csv", "name,lat,population,feature_class\nBlackwater Swamp,37.1,0,swamp\n", ":1: "),
            (
                "gazetteer.csv",
                "name,lat,lon,population,feature_class\nBlackwater Swamp,37.1,-77.1,0,swamp\nSurry,abc,-76.9,0,x\n",
                ":3: ",
            ),
            ("counties.csv", "county,lat\nSussex,36.92\n", ":1: "),
            ("counties.csv", "county,lat,lon\nSussex,36.92,-77.28\nSurry,abc,-76.9\n", ":3: "),
            ("gazetteer.csv", "name,lat,lon,population,feature_class\nBlackwater Sw\udcffamp,37.1,-77.1,0,x\n", ": "),
            ("counties.csv", "county,lat,lon\nSuss\udcffex,36.92,-77.28\n", ": "),
            ("counties.csv", "county,lat,lon\nSussex,36.92,-77.28\nFoo,45.0,-77.0\n", ":3: "),
            ("gazetteer.csv", "name,lat,lon,population,feature_class\nOak,37.2,-77.4,9,x\nMill,37.1,-77.1,-500,x\n", ":3: "),
            ("gazetteer.csv", "", ": empty file, header required"),
            ("counties.csv", "\n\n", ": empty file, header required"),  # else every grant goes statewide
        ],
        ids=[
            "gazetteer-no-lon", "gazetteer-lat-text", "counties-no-lon", "counties-lat-text",
            "gazetteer-not-utf8", "counties-not-utf8", "counties-outside-virginia", "gazetteer-negative-population",
            "gazetteer-empty", "counties-empty",
        ],
    )
    def test_bad_baseline_csv_exit_two(self, tmp_path, capsys, name, text, named):
        hf.build_full_workspace(tmp_path)
        (tmp_path / "fixtures" / name).write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff is the byte ff
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", "H-2"]) == 2
        assert f"{name}{named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, error",
        [
            ("county,lat,lon,lat\nHenrico,37.5,-77.3,38.9\n", ":1: not a county,lat,lon header (repeated column 'lat')"),
            ("county,lat,lon\nHenrico,37.5,-77.3\nhenrico,38.0,-77.0\n", ": duplicate county 'henrico'"),
        ],
        ids=["repeated-column", "repeated-county"],
    )
    def test_a_county_table_naming_a_column_or_county_twice_exit_two(self, tmp_path, capsys, text, error):
        """Either would otherwise load one of the two values silently."""
        config_path = _full_workspace(tmp_path)
        path = tmp_path / "fixtures" / "counties.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", "H-4"]) == 2
        assert capsys.readouterr().err == f"data error: {path}{error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["H-2", "H-3"])
    @pytest.mark.parametrize("name", ["", "'s", "..."])
    def test_nameless_gazetteer_row_exit_two(self, tmp_path, capsys, method, name):
        """A name that normalizes to empty would match every entity, so every grant would get its coordinate."""
        hf.build_full_workspace(tmp_path)
        gazetteer = tmp_path / "fixtures" / "gazetteer.csv"
        with gazetteer.open("a", encoding="utf-8") as fh:
            fh.write(f"{name},37.2,-77.4,0,place\n")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", method]) == 2
        assert f"data error: {gazetteer}:3: not a gazetteer row" in capsys.readouterr().err

    @pytest.mark.parametrize("name, method", [("ground_truth.csv", "H-4"), ("external.csv", "X-1")])
    def test_input_csv_not_utf8_exit_two(self, tmp_path, capsys, name, method):
        hf.build_full_workspace(tmp_path)
        path = tmp_path / "fixtures" / name
        path.write_bytes(path.read_bytes().replace(b"r001", b"r\xff001"))
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", method]) == 2
        assert f"data error: {path}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("subset", [["--max-rows", "2"], ["--evalset", "one"]], ids=["max-rows", "evalset"])
    def test_ingest_external_on_a_subset_reads_only_its_rows(self, tmp_path, subset):
        hf.build_full_workspace(tmp_path, n_grants=4)
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", "X-1", *subset]) == 0
        with (tmp_path / "out" / "runs" / "X-1" / "calls.jsonl").open(encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == (2 if "--max-rows" in subset else 1)
        assert all(rec["error_km"] is not None and not rec["failed"] for rec in records)

    def test_ingest_external_row_outside_the_corpus_exit_two(self, tmp_path, capsys):
        hf.build_full_workspace(tmp_path, n_grants=4)
        with (tmp_path / "fixtures" / "external.csv").open("a", encoding="utf-8") as fh:
            fh.write("ghost,37.0,-77.0\n")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", "X-1", "--max-rows", "2"]) == 2
        assert "unknown row_id 'ghost'" in capsys.readouterr().err

    def test_ingest_external_repeated_row_exit_two(self, tmp_path, capsys):
        """A second answer for a row would replace the first and thin the total cost over one row too many."""
        hf.build_full_workspace(tmp_path, n_grants=2)
        external = tmp_path / "fixtures" / "external.csv"
        with external.open("a", encoding="utf-8") as fh:
            fh.write("r000,36.9,-76.0\n")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--method", "X-1"]) == 2
        assert f"data error: {external}:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("max_rows", ["-1", "0"])
    def test_max_rows_below_one_exit_one(self, tmp_path, capsys, max_rows):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        out = tmp_path / "cli_out"
        for command in (["run", "--method", "H-4"], ["sweep", "--axis", "temperature", "--values", "0.2"]):
            args = [*command, "--config", str(config_path), "--max-rows", max_rows, "--output-dir", str(out)]
            assert main(args) == 1
            assert f"max_rows must be at least 1, got {max_rows}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["run", "--method", "H-4"], "the following arguments are required: --config"),
            (["sweep", "--config", "config.yaml", "--axis", "foo", "--values", "1"], "argument --axis: invalid choice"),
            (["report", "--run-dir", "cli_out", "--resamples", "200"], "unrecognized arguments: --resamples 200"),
            (["report", "--run-dir", "cli_out", "--seed", "7"], "unrecognized arguments: --seed 7"),
            ([], "the following arguments are required: command"),
        ],
        ids=["run", "sweep", "report", "report-seed", "no-command"],
    )
    def test_usage_error_exit_one(self, tmp_path, capsys, monkeypatch, command, message):
        """A usage error is a config error (1), not argparse's 2, which is the data-error code."""
        _run(hf.build_workspace(tmp_path, n_grants=3), methods=["H-4"], output_dir=tmp_path / "cli_out")
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(command)
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: grantgeo") and f"error: {message}" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", [[], ["run"], ["sweep"], ["report"]], ids=["grantgeo", "run", "sweep", "report"])
    def test_help_exit_zero(self, capsys, command):
        """Only a usage error changes its exit code; -h still prints its usage and exits 0."""
        with pytest.raises(SystemExit) as exited:
            main([*command, "-h"])
        assert exited.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: {' '.join(['grantgeo', *command])} ") and err == ""

    def test_report_run_dir_a_file_exit_two(self, tmp_path, capsys):
        not_a_dir = tmp_path / "run.txt"
        not_a_dir.write_text("not a run\n", encoding="utf-8")
        assert main(["report", "--run-dir", str(not_a_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: no finished run under {not_a_dir}: run.json is missing")

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "temperature", "--values", "0.2"]])
    @pytest.mark.parametrize("inside", [False, True], ids=["the-file", "below-the-file"])
    def test_output_dir_a_file_exit_one(self, tmp_path, capsys, command, inside):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        not_a_dir = tmp_path / "out.txt"
        not_a_dir.write_text("kept\n", encoding="utf-8")
        out = not_a_dir / "run" if inside else not_a_dir
        assert main([*command, "--config", str(config_path), "--method", "M-5", "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: output directory {out}: {not_a_dir} is not a directory\n"
        assert not_a_dir.read_text(encoding="utf-8") == "kept\n"

    def test_repeated_method_exit_one(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        out = tmp_path / "cli_out"
        for command in (["run"], ["sweep", "--axis", "temperature", "--values", "0.2"]):
            args = [*command, "--config", str(config_path), "--output-dir", str(out)]
            assert main([*args, "--method", "M-5", "--method", "H-4", "--method", "M-5"]) == 1
            assert "methods named more than once: ['M-5']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method_id", ["../../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
    def test_method_id_not_one_path_component_exit_one(self, tmp_path, capsys, method_id):
        """The method's call log is written under runs/<method_id>/, which must stay inside the run."""
        config_path = hf.build_workspace(tmp_path, n_grants=3, methods=[{"method_id": method_id, "pipeline": "county_centroid"}])
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_path), "--output-dir", str(out)]) == 1
        assert f"method_id {method_id!r} is not a single path component" in capsys.readouterr().err
        assert not out.exists()

    def test_method_id_whose_columns_repeat_the_ground_truth_exit_one(self, tmp_path, capsys):
        """A method named truth would write truth_lat and truth_lon twice, and a CSV reader would keep its answer."""
        config_path = hf.build_workspace(tmp_path, n_grants=3, methods=[{"method_id": "truth", "pipeline": "county_centroid"}])
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: truth: its results column truth_lat would repeat a ground-truth column\n"
        assert not out.exists()

    def test_repeated_sweep_value_exit_one(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        out = tmp_path / "cli_out"
        args = ["sweep", "--config", str(config_path), "--axis", "temperature", "--values", "0.2", "0.5", "0.20"]
        assert main([*args, "--method", "M-5", "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == "config error: sweep values given more than once: [0.2]\n"
        assert not out.exists()

    def test_every_cell_failed_exactly_when_it_has_no_coordinate(self, tmp_path):
        hf.build_full_workspace(tmp_path, n_grants=4)
        fixtures = tmp_path / "fixtures"
        script = (fixtures / "m5.jsonl").read_text(encoding="utf-8").splitlines()
        script[1] = json.dumps(text_turn("somewhere in Virginia"))  # M-5 cannot parse its second answer
        (fixtures / "m5.jsonl").write_text("\n".join(script) + "\n", encoding="utf-8")
        external = (fixtures / "external.csv").read_text(encoding="utf-8").splitlines()
        (fixtures / "external.csv").write_text("\n".join(external[:-1]) + "\n", encoding="utf-8")  # X-1 misses one
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        _, outcome = _run(config_path)
        cells = [p for preds in outcome.predictions.values() for p in preds]
        assert len(outcome.predictions) == 7 and len(cells) == 28
        assert all((p.error_km is None) == (p.coordinate is None) for p in cells)  # every grant has a truth
        assert {(p.method_id, p.run.reason) for p in cells if p.failed} == {
            ("M-5", "Unparseable"),
            ("X-1", "MissingExternalRow"),
        }

    def test_ensemble_k_alone_gets_seeds_zero_to_k(self, tmp_path):
        hf.build_full_workspace(tmp_path)
        doc = hf.full_config()
        doc["methods"][1]["ensemble"] = {"k": 3, "min_cluster": 2}
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert load_config(config_path).methods["E-1"].ensemble.seeds == (0, 1, 2)

    def test_truncated_call_log_exit_two(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=4)
        assert main(["run", "--config", str(config_path)]) == 0
        log = tmp_path / "out" / "runs" / "M-5" / "calls.jsonl"
        log.write_text(log.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 2
        assert str(log) in capsys.readouterr().err

    def test_bad_geocode_cache_line_exit_two(self, tmp_path, capsys):
        config_path = _mixed_workspace(tmp_path)
        cache = tmp_path / "fixtures" / "geocache.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        cache.write_text("\n".join([lines[0], "{oops"] + lines[1:]) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        assert "geocache.jsonl:2:" in capsys.readouterr().err

    def test_torn_geocode_cache_tail_still_runs(self, tmp_path):
        config_path = _mixed_workspace(tmp_path)
        with (tmp_path / "fixtures" / "geocache.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"query": "landmark for')
        _, outcome = _run(config_path)
        assert [p.failed for p in outcome.predictions["M-3"]] == [False] * 4

    @pytest.mark.parametrize(
        "turn",
        [
            "{oops",
            '{"response": {"type": "image"}}',
            '{"response": {"type": "text"}}',
            '{"response": {"type": "tool_call", "arguments": {}}}',
            '{"response": {"type": "text", "text": "37.0, -77.0"}, "usage": {"input_tokens": -1}}',
            '{"response": {"type": "text", "text": "37.0, -77.0"}, "usage": {"output_tokens": 1.5}}',
        ],
        ids=["not-json", "unknown-type", "missing-text", "missing-name", "negative-usage", "fractional-usage"],
    )
    def test_malformed_fixture_turn_exit_two(self, tmp_path, capsys, turn):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        script = tmp_path / "fixtures" / "m5.jsonl"
        lines = script.read_text(encoding="utf-8").splitlines()
        script.write_text("\n".join([lines[0], turn] + lines[1:]) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        assert "m5.jsonl:2:" in capsys.readouterr().err

    def test_report_after_a_run_that_stopped_exit_two(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_path)]) == 0
        assert main(["report", "--run-dir", str(out_dir)]) == 0
        with (tmp_path / "fixtures" / "m6.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{oops\n")  # the rerun rewrites M-5's log, then stops at M-6's script
        assert main(["run", "--config", str(config_path)]) == 2
        assert not (out_dir / "run.json").exists()
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out_dir)]) == 2
        assert "run.json is missing" in capsys.readouterr().err

    def test_a_run_that_stops_leaves_no_results_csv(self, tmp_path, capsys):
        """The rerun rewrites M-5's and E-1's logs, then stops at T-4's script; no CSV of the first run is left."""
        config_path = _full_workspace(tmp_path, n_grants=3)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_path)]) == 0
        assert (out_dir / "results_gold.csv").exists()
        with (tmp_path / "fixtures" / "toolchain.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{oops\n")
        assert main(["run", "--config", str(config_path)]) == 2
        assert "toolchain.jsonl:7:" in capsys.readouterr().err
        assert not (out_dir / "results_gold.csv").exists()
        assert not (out_dir / "run.json").exists()

    @pytest.mark.parametrize(
        "named, file",
        [
            ("T-4: fixture_script", "toolchain.jsonl"),
            ("T-4: geocode_cache", "geocache.jsonl"),
            ("H-2: gazetteer", "gazetteer.csv"),
            ("X-1: predictions_file", "external.csv"),
            ("corpus.ground_truth", "ground_truth.csv"),
        ],
        ids=["fixture_script", "geocode_cache", "gazetteer", "predictions_file", "ground_truth"],
    )
    def test_a_roster_path_that_is_a_directory_exit_two_before_any_cell(self, tmp_path, capsys, named, file):
        config_path = _full_workspace(tmp_path, n_grants=3)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config_path)]) == 0
        before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out_dir.rglob("*") if p.is_file()}
        path = tmp_path / "fixtures" / file
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"data error: {named} {path} is not a file\n"
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out_dir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("state", ["not a file", "missing"])
    def test_a_county_table_that_is_not_a_file_exit_two(self, tmp_path, capsys, state):
        config_path = _full_workspace(tmp_path, n_grants=3)
        path = tmp_path / "fixtures" / "counties.csv"
        path.unlink()
        if state == "not a file":
            path.mkdir()
        with pytest.raises(DataMissing):
            load_config(config_path)
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"data error: data.county_table {path} is {state}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["methods", "rows"])
    def test_run_json_listing_an_id_twice_exit_two(self, tmp_path, capsys, key):
        """A repeated method would print its rows twice, and a repeated row (its cell repeated in every log) would
        count one grant twice."""
        hf.build_full_workspace(tmp_path, n_grants=3)
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--method", "H-4", "--method", "M-5"]) == 0
        run_json = out / "run.json"
        doc = json.loads(run_json.read_text(encoding="utf-8"))
        repeated = doc[key][0]
        doc[key].insert(1, repeated)
        run_json.write_text(json.dumps(doc), encoding="utf-8")
        if key == "rows":
            for log in (out / "runs").glob("*/calls.jsonl"):
                lines = log.read_text(encoding="utf-8").splitlines()
                log.write_text("\n".join([lines[0], *lines]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {run_json}: {key} lists {repeated!r} more than once\n"
        assert not (out / "report.md").exists()

    def test_a_methods_rows_do_not_depend_on_the_roster(self, tmp_path):
        """Each method's line in every report table but "Processing time" (its latencies are measured locally) and
        in cost_vs_error.csv is the same for the full roster, the roster reversed, and the method run alone."""
        hf.build_full_workspace(tmp_path, n_grants=6)
        doc = hf.full_config()
        method_ids = [m["method_id"] for m in doc["methods"]]
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        doc["methods"].reverse()
        reversed_path = tmp_path / "reversed.yaml"
        reversed_path.write_text(yaml.safe_dump(doc), encoding="utf-8")

        def lines_by_method(config: Path, out: Path, *methods: str) -> dict:
            flags = [arg for m in methods for arg in ("--method", m)]
            assert main(["run", "--config", str(config), "--output-dir", str(out), *flags]) == 0
            assert main(["report", "--run-dir", str(out)]) == 0
            found = {}
            for section in (out / "report.md").read_text(encoding="utf-8").split("\n## ")[1:]:
                title, _, body = section.partition("\n")
                if title != "Processing time":
                    for line in [line for line in body.splitlines() if line.startswith("|")][2:]:
                        found[title, line.split(" | ")[0].removeprefix("| ")] = line
            for line in (out / "cost_vs_error.csv").read_text(encoding="utf-8").splitlines()[1:]:
                found["cost_vs_error.csv", line.split(",")[0]] = line
            return found

        full = lines_by_method(config_path, tmp_path / "full")
        assert len(full) == 4 * 7 + 1 + 7  # four tables of every method, one tool-usage row, the CSV
        assert lines_by_method(reversed_path, tmp_path / "reversed") == full
        alone = {}
        for method_id in method_ids:
            alone.update(lines_by_method(config_path, tmp_path / method_id, method_id))
        assert alone == full

    def test_missing_call_log_exit_two(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        assert main(["run", "--config", str(config_path)]) == 0
        (tmp_path / "out" / "runs" / "M-6" / "calls.jsonl").unlink()
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 2
        assert "M-6: call log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: line[: len(line) // 2],
            lambda line: b"\xff\xfe" + line,
            lambda line: b"[1, 2]",
            lambda line: json.dumps({"row_id": "r"}).encode(),
            lambda line: line.replace(b'"cost_usd": "', b'"cost_usd": "x'),
            lambda line: line.replace(b'"tool_calls": []', b'"tool_calls": [1]'),
            lambda line: line.replace(b'"input_tokens": 100', b'"input_tokens": "100"'),
            lambda line: _edited(line, cost_usd="NaN"),
            lambda line: _edited(line, cost_usd="-0.5"),
            lambda line: _edited(line, cost_usd=True),
            lambda line: _edited(line, cost_usd=0.1),
            lambda line: _edited(line, cost_usd=1),
            lambda line: _edited(line, latency_s=-1000),
            lambda line: _edited(line, latency_s=float("inf")),
            lambda line: _edited(line, error_km=-1),
            lambda line: _edited(line, error_km=float("nan")),
            lambda line: _edited(line, final_coordinate=None),
            lambda line: _edited(line, final_coordinate="x"),
            lambda line: _edited(line, final_coordinate=[91.0, -77.0]),
            lambda line: _edited(line, final_coordinate=[True, False]),
            lambda line: _edited(line, final_coordinate=[37.1, True]),
            lambda line: _edited(line, tool_calls=[{"turn_index": 1, "tool_name": None, "arguments": {}}]),
            lambda line: _edited(line, failed=True),
            lambda line: _edited(line, final_coordinate=None, error_km=None, failed=False),
        ],
        ids=[
            "torn", "bad-utf8", "not-an-object", "missing-fields", "bad-cost", "bad-tool-call", "bad-usage",
            "nan-cost", "negative-cost", "cost-true", "cost-float", "cost-int", "negative-latency", "infinite-latency", "negative-error", "nan-error",
            "error-without-coordinate", "text-coordinate", "coordinate-out-of-range", "boolean-coordinate",
            "boolean-longitude", "tool-call-without-name",
            "located-but-failed", "unlocated-but-not-failed",
        ],
    )
    def test_bad_call_log_line_exit_two(self, tmp_path, capsys, damage):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        assert main(["run", "--config", str(config_path)]) == 0
        log = tmp_path / "out" / "runs" / "M-5" / "calls.jsonl"
        lines = log.read_bytes().splitlines()
        damaged = damage(lines[1])
        assert damaged != lines[1]
        lines[1] = damaged
        log.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 2
        assert f"{log}:2:" in capsys.readouterr().err

    def test_call_log_read_stops_at_the_first_record_out_of_place(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        assert main(["run", "--config", str(config_path)]) == 0
        log = tmp_path / "out" / "runs" / "M-5" / "calls.jsonl"
        lines = log.read_bytes().splitlines()
        lines[1:] = [_edited(lines[1], row_id="r999"), b"not JSON"]
        log.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 2
        assert f"data error: {log}: record 2 is M-5 'r999', not M-5's cell for run.json row 2 of 3" in capsys.readouterr().err

    def test_call_log_of_another_method_exit_two(self, tmp_path, capsys):
        config_path = hf.build_workspace(tmp_path, n_grants=3)
        assert main(["run", "--config", str(config_path)]) == 0
        runs = tmp_path / "out" / "runs"
        (runs / "M-6" / "calls.jsonl").write_bytes((runs / "M-5" / "calls.jsonl").read_bytes())
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 2
        assert f"data error: {runs / 'M-6' / 'calls.jsonl'}: " in capsys.readouterr().err

    def test_data_error_exit_two(self, tmp_path):
        config_path = hf.build_workspace(tmp_path)
        (tmp_path / "fixtures" / "ground_truth.csv").unlink()
        assert main(["run", "--config", str(config_path)]) == 2

    def test_partial_failures_exit_three(self, tmp_path):
        grants = hf.make_grants(2)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        write_fixture_script(
            fixtures / "m5.jsonl",
            [text_turn("not a coordinate"), text_turn("also nothing")],
        )
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "evalsets": {"gold": {"from": "all"}},
            "backend": {"kind": "fixture"},
            "methods": [
                {
                    "method_id": "M-5",
                    "pipeline": "one_shot",
                    "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
                    "fixture_script": "fixtures/m5.jsonl",
                }
            ],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3

    def test_method_filter(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        out_dir = tmp_path / "filtered"
        assert main(["run", "--config", str(config_path), "--method", "H-4", "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "runs" / "H-4" / "calls.jsonl").exists()
        assert not (out_dir / "runs" / "M-5").exists()

    def test_sweep_cli(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        out_dir = tmp_path / "sweep_cli"
        code = main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--axis",
                "temperature",
                "--values",
                "0.2",
                "--method",
                "M-5",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [  # one run, no directory per value
            "results_gold.csv", "run.json", "runs", "sweep.csv", "sweep_report.md",
        ]
        assert main(["report", "--run-dir", str(out_dir)]) == 0

    def _sweep_workspace(self, tmp_path, sweep_fixtures=None):
        grants = hf.make_grants(2)
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        write_fixture_script(fixtures / "base.jsonl", hf.one_shot_script(grants, errors_km=[2], usage=(100, 20)))
        write_fixture_script(fixtures / "t1.jsonl", hf.one_shot_script(grants, errors_km=[50], usage=(0, 999)))
        write_fixture_script(fixtures / "bad.jsonl", [text_turn("no coordinate here")] * 2)
        method = {
            "method_id": "M-5",
            "pipeline": "one_shot",
            "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
            "fixture_script": "fixtures/base.jsonl",
        }
        if sweep_fixtures is not None:
            method["sweep_fixtures"] = sweep_fixtures
        return hf.build_workspace(tmp_path, n_grants=2, methods=[method])

    def _sweep(self, config_path, *values):
        args = ["sweep", "--config", str(config_path), "--axis", "temperature", "--values", *values]
        return main(args + ["--output-dir", str(config_path.parent / "sweep_out")])

    def test_sweep_fixture_keys_match_the_axis_value(self, tmp_path):
        config_path = self._sweep_workspace(tmp_path, sweep_fixtures={1: "fixtures/t1.jsonl"})
        assert self._sweep(config_path, "1") == 0
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mean_error_km"]) == pytest.approx(50.0, abs=1e-3)
        assert rows[0]["tokens_per_entry"] == "999.0"

    def test_sweep_value_without_fixture_entry_exit_one(self, tmp_path, capsys):
        config_path = self._sweep_workspace(tmp_path, sweep_fixtures={1: "fixtures/t1.jsonl"})
        assert self._sweep(config_path, "1", "0.5") == 1
        err = capsys.readouterr().err
        assert "M-5" in err and "0.5" in err
        assert not (tmp_path / "sweep_out").exists()  # nothing ran

    def test_sweep_without_fixture_entries_replays_the_base_script(self, tmp_path):
        config_path = self._sweep_workspace(tmp_path)
        assert self._sweep(config_path, "0.5") == 0
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            assert float(next(csv.DictReader(fh))["mean_error_km"]) == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("value", ["warm", "-1"])
    def test_sweep_value_the_model_rejects_exit_one(self, tmp_path, capsys, value):
        config_path = self._sweep_workspace(tmp_path)
        assert self._sweep(config_path, value) == 1
        assert value in capsys.readouterr().err

    def test_sweep_with_failed_cells_exit_three(self, tmp_path):
        config_path = self._sweep_workspace(tmp_path, sweep_fixtures={0.5: "fixtures/bad.jsonl"})
        assert self._sweep(config_path, "0.5") == 3

    def test_sweep_method_without_scored_rows_has_empty_summary_cells(self, tmp_path):
        config_path = self._sweep_workspace(tmp_path, sweep_fixtures={0.5: "fixtures/bad.jsonl"})
        assert self._sweep(config_path, "0.5") == 3
        with (tmp_path / "sweep_out" / "sweep.csv").open() as fh:
            assert list(csv.reader(fh)) == [
                [
                    "axis_value", "method_id", "n", "mean_error_km", "ci_lo_km", "ci_hi_km",
                    "within_10km_pct", "cost_per_1k", "tokens_per_entry",
                ],
                ["0.5", "M-5", "0", "", "", "", "", "", "0.0"],
            ]
        text = (tmp_path / "sweep_out" / "sweep_report.md").read_text(encoding="utf-8")
        assert text.splitlines()[-1] == "| 0.5 | M-5 | 0 | n/a | n/a | n/a | n/a | 0.0 |"

    def test_sweep_axis_error_exit_one(self, tmp_path):
        config_path = hf.build_workspace(tmp_path, n_grants=2)
        code = main(
            [
                "sweep",
                "--config",
                str(config_path),
                "--axis",
                "temperature",
                "--values",
                "0.2",
                "--method",
                "H-4",
            ]
        )
        assert code == 1


class TestEvalsets:
    def test_dev_test_sources_and_sampling(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        grants = hf.make_grants(50)
        from grantgeo.corpus import write_ground_truth

        write_ground_truth(fixtures / "ground_truth.csv", grants)
        write_fixture_script(fixtures / "m5.jsonl", hf.one_shot_script(grants, errors_km=[1]))
        config = {
            "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
            "split": {"seed": 42, "dev_fraction": 0.2},
            "evalsets": {
                "dev10": {"from": "dev", "n": 10, "seed": 7},
                "test_all": {"from": "test"},
            },
            "default_evalset": "dev10",
            "backend": {"kind": "fixture"},
            "methods": [{"method_id": "H-4", "pipeline": "county_centroid"}],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        _, outcome = _run(config_path)
        with (outcome.run_dir / "results_dev10.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        _, outcome2 = _run(config_path, evalset="test_all", output_dir=tmp_path / "out2")
        with (outcome2.run_dir / "results_test_all.csv").open() as fh:
            rows2 = list(csv.DictReader(fh))
        assert len(rows2) == 40
        assert not ({r["row_id"] for r in rows} & {r["row_id"] for r in rows2})

    @staticmethod
    def _config(tmp_path: Path, evalsets: dict, n_grants: int = 3) -> Path:
        config_path = hf.build_workspace(tmp_path, n_grants=n_grants)
        doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        doc.update(evalsets=evalsets, default_evalset=next(iter(evalsets)))
        config_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return config_path

    @pytest.mark.parametrize("name", ["a/b", "../escaped", "a\\b", "a\0b", ".", ".."])
    def test_name_not_one_path_component_exit_one(self, tmp_path, capsys, name):
        """The evalset names the results CSV, which must be one file inside the run."""
        config_path = self._config(tmp_path, {name: {"from": "all"}})
        out = tmp_path / "cli_out"
        assert main(["run", "--config", str(config_path), "--evalset", name, "--output-dir", str(out)]) == 1
        assert f"evalset {name!r} is not a single path component" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "evalset, truthless",
        [({"from": "all", "n": 0}, False), ({"from": "dev"}, False), ({"from": "all", "require_truth": True}, True)],
        ids=["n-zero", "empty-dev", "no-truth"],
    )
    def test_evalset_selecting_no_grant_exit_one(self, tmp_path, capsys, evalset, truthless):
        config_path = self._config(tmp_path, {"picked": evalset})  # three grants: a 0.2 dev fraction holds none
        if truthless:
            truthless_grants = [replace(g, ground_truth=None) for g in hf.make_grants(3)]
            write_ground_truth(tmp_path / "fixtures" / "ground_truth.csv", truthless_grants)
        out = tmp_path / "cli_out"
        for command in (["run"], ["sweep", "--method", "M-5", "--axis", "temperature", "--values", "0.2"]):
            assert main([*command, "--config", str(config_path), "--output-dir", str(out)]) == 1
            assert "evalsets.picked" in capsys.readouterr().err
        assert not out.exists()


class TestRosterSeeds:
    """A roster spec states the seed its model sends: the run's, unless the model or the ensemble sets its own."""

    LIVE = {"kind": "live", "endpoint": "https://example.invalid/v1/chat"}

    @staticmethod
    def _live_methods() -> list[dict]:
        """M-5 (its own seed 7, a sweep fixture for 0.2 only), E-1 (ensemble seeds 11 to 15), T-4 and M-6 (no seed)."""
        methods = hf.full_config()["methods"][:3]
        methods.append({"method_id": "M-6", "pipeline": "one_shot", "model": {"model_id": "my-model"}})
        return methods

    @staticmethod
    def _sent_seeds(monkeypatch) -> list:
        """The ``seed`` of each payload the live backend posts, in order; every reply is one located answer."""

        class Reply:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "37.0, -77.0"}}]}

        seeds = []
        monkeypatch.setenv("MODEL_API_KEY", "k")
        monkeypatch.setattr("requests.post", lambda url, json, **k: seeds.append(json.get("seed", "unset")) or Reply())
        return seeds

    def test_the_manifest_states_each_models_seed(self, tmp_path):
        config = load_config(_full_workspace(tmp_path, backend=self.LIVE, methods=self._live_methods()))
        manifest = build_manifest(config, seed=9)
        assert [spec.model.seed for spec in manifest.methods] == [7, None, 9, 9]
        assert manifest.methods[1].ensemble.seeds == (11, 12, 13, 14, 15)
        assert [spec.model.seed for spec in config.methods.values()] == [7, None, None, None]  # the config is kept

    def test_each_call_sends_its_specs_seed(self, tmp_path, monkeypatch):
        config_path = _full_workspace(tmp_path, n_grants=3, backend=self.LIVE, methods=self._live_methods())
        seeds = self._sent_seeds(monkeypatch)
        assert main(["run", "--config", str(config_path), "--seed", "9"]) == 0
        assert seeds == [7] * 3 + [11, 12, 13, 14, 15] * 3 + [9] * 3 + [9] * 3

    def test_a_sweep_clone_keeps_the_seed(self, tmp_path, monkeypatch):
        config_path = _full_workspace(tmp_path, backend=self.LIVE, methods=self._live_methods())
        seeds = self._sent_seeds(monkeypatch)
        methods = ["--method", "M-6", "--method", "M-5", "--method", "T-4"]
        args = ["sweep", "--config", str(config_path), *methods, "--seed", "9", "--axis", "temperature"]
        assert main(args + ["--values", "0.5", "0.9"]) == 0
        assert seeds == ([9] * 2 + [7] * 2 + [9] * 2) * 2

    @pytest.mark.parametrize("kind", ["fixture", "live"])
    def test_only_a_replayed_sweep_needs_a_fixture_per_value(self, tmp_path, monkeypatch, kind):
        """A live run sends the swept value itself, so M-5's lack of a 0.5 sweep fixture matters only in replay."""
        backend = self.LIVE if kind == "live" else {"kind": "fixture"}
        config = load_config(_full_workspace(tmp_path, backend=backend, methods=self._live_methods()))
        manifest = build_manifest(config, methods=["M-5"])
        if kind == "fixture":
            with pytest.raises(AxisInapplicable, match="M-5: sweep_fixtures has no entry for temperature 0.5"):
                sweep(manifest, "temperature", ["0.2", "0.5"])
            return
        self._sent_seeds(monkeypatch)
        runs = []
        monkeypatch.setattr(harness, "run_evaluation", lambda m: runs.append(m.methods) or run_evaluation(m))
        sweep(manifest, "temperature", ["0.2", "0.5"])
        [clones] = runs
        assert [(c.method_id, c.model.temperature) for c in clones] == [
            ("M-5__temperature_0.2", 0.2), ("M-5__temperature_0.5", 0.5),
        ]
