"""Builders for self-contained harness workspaces under tmp_path, and a
fresh interpreter that imports this checkout's package."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import yaml

import grantgeo
from grantgeo.baselines import CountyCentroidTable
from grantgeo.corpus import GrantAbstract, write_csv, write_ground_truth
from grantgeo.gateway import text_turn, tool_call_turn, write_fixture_script
from grantgeo.geo import EARTH_RADIUS_KM, Coordinate
from grantgeo.agent import DEFAULT_STRATEGY, write_geocode_cache

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0

_COUNTIES = ["Henrico", "Prince George", "Sussex", "Surry", "Hanover", "New Kent", "Goochland", "Amelia"]


def python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(grantgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def north_of(c: Coordinate, km: float) -> Coordinate:
    return Coordinate(c.lat + km / KM_PER_DEG_LAT, c.lon)


def make_grants(n: int) -> list[GrantAbstract]:
    table = CountyCentroidTable.packaged()
    grants = []
    for i in range(n):
        county = _COUNTIES[i % len(_COUNTIES)]
        text = (
            f"GRANTEE {i}, {100 + i} acs. in {county} Co. on the south side of the river; "
            f"adj. Mr. Smith; {1700 + i % 30}, p. {i + 1}."
        )
        truth = north_of(table.get(county), (i % 5) + 1.0)
        grants.append(GrantAbstract.from_text(f"r{i:03d}", text, truth))
    return grants


def one_shot_script(grants, errors_km=None, usage=(100, 20)) -> list[dict]:
    """One decimal answer per grant, offset north by the wanted error."""
    turns = []
    for idx, g in enumerate(grants):
        err = errors_km[idx % len(errors_km)] if errors_km else 0.0
        answer = north_of(g.ground_truth, err)
        turns.append(text_turn(f"{answer.lat:.6f}, {answer.lon:.6f}", usage[0], usage[1]))
    return turns


def ensemble_script(grants, usage=(153, 940)) -> list[dict]:
    turns = []
    for g in grants:
        for _ in range(5):
            turns.append(text_turn(f"{g.ground_truth.lat:.6f}, {g.ground_truth.lon:.6f}", usage[0], usage[1]))
    return turns


def tool_chain_fixture(grants, fixtures_dir: Path) -> tuple[Path, Path]:
    """Per grant: one geocode call, then a final answer at the result."""
    turns, cache = [], []
    for g in grants:
        query = f"landmark for {g.row_id}, Virginia"
        spot = north_of(g.ground_truth, 0.5)
        cache.append(
            {
                "query": query,
                "strategy": DEFAULT_STRATEGY,
                "result": {
                    "lat": spot.lat,
                    "lng": spot.lon,
                    "formatted_address": f"{g.row_id} landmark, VA, USA",
                    "strategy": DEFAULT_STRATEGY,
                    "query_used": query,
                },
            }
        )
        turns.append(tool_call_turn("geocode_place", {"query": query}, 300, 60))
        turns.append(text_turn(f"{spot.lat:.6f}, {spot.lon:.6f}", 300, 40))
    script = fixtures_dir / "toolchain.jsonl"
    cache_path = fixtures_dir / "geocache.jsonl"
    write_fixture_script(script, turns)
    write_geocode_cache(cache_path, cache)
    return script, cache_path


def external_predictions_csv(path: Path, grants, offset_km: float = 5.0) -> None:
    spots = [(g.row_id, north_of(g.ground_truth, offset_km)) for g in grants]
    write_csv(path, ["row_id", "lat", "lon"], ([row_id, f"{s.lat:.6f}", f"{s.lon:.6f}"] for row_id, s in spots))


def build_workspace(tmp_path: Path, n_grants: int = 10, methods: list[dict] | None = None) -> Path:
    """Create corpus + fixtures + config; returns the config path."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    grants = make_grants(n_grants)
    write_ground_truth(fixtures / "ground_truth.csv", grants)

    if methods is None:
        write_fixture_script(fixtures / "m5.jsonl", one_shot_script(grants, errors_km=[1, 2, 3]))
        write_fixture_script(fixtures / "m6.jsonl", one_shot_script(grants, errors_km=[4, 8], usage=(157, 19)))
        methods = [
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
            {"method_id": "H-4", "pipeline": "county_centroid"},
        ]

    config = {
        "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
        "split": {"seed": 42, "dev_fraction": 0.2},
        "evalsets": {"gold": {"from": "all", "require_truth": True}},
        "default_evalset": "gold",
        "backend": {"kind": "fixture"},
        "methods": methods,
        "output_dir": "out",
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return config_path


def full_config() -> dict:
    """A config using every section and every pipeline, with every optional key
    set; ``build_full_workspace`` writes the files it names."""
    model = {"model_id": "gpt-4.1-2025-04-14", "temperature": 0.2}
    return {
        "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
        "split": {"seed": 42, "dev_fraction": 0.5},
        "evalsets": {"gold": {"from": "all", "require_truth": True}, "one": {"from": "dev", "n": 1, "seed": 3}},
        "default_evalset": "gold",
        "backend": {"kind": "fixture"},
        "prices": {"my-model": {"input": 1.0, "output": 4.0}},
        "data": {"county_table": "fixtures/counties.csv"},
        "output_dir": "out",
        "methods": [
            {
                "method_id": "M-5",
                "pipeline": "one_shot",
                "model": {"model_id": "my-model", "temperature": 0.2, "seed": 7, "max_output_tokens": 200},
                "fixture_script": "fixtures/m5.jsonl",
                "sweep_fixtures": {0.2: "fixtures/m5.jsonl"},
                "redact_names": True,
            },
            {
                "method_id": "E-1",
                "pipeline": "ensemble",
                "model": {"model_id": "o3-2025-04-16", "reasoning_effort": "low"},
                "ensemble": {"k": 5, "eps_km": 0.5, "min_cluster": 3, "seeds": [11, 12, 13, 14, 15]},
                "fixture_script": "fixtures/e1.jsonl",
            },
            {
                "method_id": "T-4",
                "pipeline": "tool_chain",
                "model": model,
                "budget": {"max_tool_calls": 10, "max_geocode_failures": 6},
                "fixture_script": "fixtures/toolchain.jsonl",
                "geocode_cache": "fixtures/geocache.jsonl",
            },
            {"method_id": "H-4", "pipeline": "county_centroid"},
            {
                "method_id": "H-2",
                "pipeline": "heuristic_geoparse",
                "params": {"confidence_threshold": 0.5, "bbox_margin_deg": 0.1, "distance_gate_km": 50.0},
                "gazetteer": "fixtures/gazetteer.csv",
            },
            {"method_id": "H-3", "pipeline": "ner_pipeline", "gazetteer": "fixtures/gazetteer.csv"},
            {
                "method_id": "X-1",
                "pipeline": "ingest_external",
                "predictions_file": "fixtures/external.csv",
                "total_cost_usd": "140.00",
                "latency_s_per_grant": 502.0,
            },
        ],
    }


def build_full_workspace(root: Path, n_grants: int = 2) -> None:
    """Write the corpus and every fixture ``full_config`` names under ``root``."""
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    grants = make_grants(n_grants)
    write_ground_truth(fixtures / "ground_truth.csv", grants)
    write_fixture_script(fixtures / "m5.jsonl", one_shot_script(grants, errors_km=[1, 2]))
    write_fixture_script(fixtures / "e1.jsonl", ensemble_script(grants))
    tool_chain_fixture(grants, fixtures)
    external_predictions_csv(fixtures / "external.csv", grants)
    table = CountyCentroidTable.packaged()
    with (fixtures / "counties.csv").open("w", encoding="utf-8") as fh:
        fh.write("county,lat,lon\n" + "".join(f"{c},{table.get(c).lat},{table.get(c).lon}\n" for c in _COUNTIES))
    with (fixtures / "gazetteer.csv").open("w", encoding="utf-8") as fh:
        fh.write("name,lat,lon,population,feature_class\nBlackwater Swamp,37.1081,-77.1514,0,swamp\n")
