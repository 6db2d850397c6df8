"""End-to-end harness run: config -> run -> logs -> report.

Builds a small fixture-backed workspace in a temp directory, then drives
the same entry points the ``grantgeo`` command uses: a dry run first, the
real run next, and finally report generation.
"""

import math
import tempfile
from pathlib import Path

import yaml

from grantgeo import CountyCentroidTable, GrantAbstract
from grantgeo.cli import main
from grantgeo.corpus import write_ground_truth
from grantgeo.gateway import text_turn, write_fixture_script
from grantgeo.geo import EARTH_RADIUS_KM, Coordinate

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
COUNTIES = ["Henrico", "Prince George", "Sussex", "Surry", "Hanover"]


def build_workspace(root: Path) -> Path:
    fixtures = root / "fixtures"
    fixtures.mkdir()
    table = CountyCentroidTable.packaged()

    grants = []
    for i in range(10):
        county = COUNTIES[i % len(COUNTIES)]
        center = table.get(county)
        truth = Coordinate(center.lat + 0.02, center.lon - 0.01)
        text = f"GRANTEE {i}, {150 + i} acs. in {county} Co. on the south side of the river."
        grants.append(GrantAbstract.from_text(f"r{i:03d}", text, truth))
    write_ground_truth(fixtures / "ground_truth.csv", grants)

    # scripted one-shot replies: grant i answered (i % 4 + 1) km north of truth
    turns = []
    for i, g in enumerate(grants):
        offset = (i % 4 + 1) / KM_PER_DEG_LAT
        turns.append(
            text_turn(f"{g.ground_truth.lat + offset:.6f}, {g.ground_truth.lon:.6f}", 150, 25)
        )
    write_fixture_script(fixtures / "one_shot.jsonl", turns)

    config = {
        "corpus": {"ground_truth": "fixtures/ground_truth.csv"},
        "evalsets": {"gold": {"from": "all", "require_truth": True}},
        "default_evalset": "gold",
        "backend": {"kind": "fixture"},
        "methods": [
            {
                "method_id": "M-5",
                "pipeline": "one_shot",
                "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
                "fixture_script": "fixtures/one_shot.jsonl",
            },
            {"method_id": "H-4", "pipeline": "county_centroid"},
        ],
        "output_dir": "out",
    }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return config_path


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    config_path = build_workspace(root)

    print("=== dry run (validates config, zero external calls) ===")
    main(["run", "--config", str(config_path), "--dry-run"])

    print("\n=== real run ===")
    code = main(["run", "--config", str(config_path)])
    print(f"exit code: {code}")

    out = root / "out"
    print("\nartifacts:")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(root)}")

    print("\n=== report ===")
    main(["report", "--run-dir", str(out)])
    print()
    print((out / "report.md").read_text())
