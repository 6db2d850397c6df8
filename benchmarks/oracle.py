"""Output checks and digests for one finished run directory.

``check`` compares every cell of the results CSV, and the failure reason
in each call log, with what the workspace generator scripted. It uses no
package code: distances and centroids are recomputed here.

``digests`` hashes the run's deterministic artefacts. Two artefacts carry
measured replay time, so those parts are masked before hashing: the rows of
report.md's "Processing time" table, the ``seconds_per_grant`` column of
latency_vs_error.csv, and ``timestamp`` / ``latency_s`` in calls.jsonl.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

EARTH_RADIUS_KM = 6371.0088
VA_CENTER = (37.4316, -78.6569)
COORD_TOL_DEG = 1.5e-6  # the CSV prints six decimals
ERROR_TOL_KM = 1e-4


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
    h = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _close(a: tuple[float, float], b) -> bool:
    return b is not None and abs(a[0] - b[0]) <= COORD_TOL_DEG and abs(a[1] - b[1]) <= COORD_TOL_DEG


def _read_logs(run_dir: Path, method_id: str) -> dict[str, dict]:
    path = run_dir / "runs" / method_id / "calls.jsonl"
    with path.open(encoding="utf-8") as fh:
        return {rec["row_id"]: rec for rec in map(json.loads, filter(str.strip, fh))}


def _cell_problem(exp: dict, row: dict, log: dict, mid: str) -> str | None:
    """Why one (method, grant) cell disagrees with the script, or None."""
    failed = row[f"{mid}_failed"] == "true"
    if "failed" in exp:
        if not failed or row[f"{mid}_lat"]:
            return f"expected failure {exp['failed']}, got a coordinate"
        if log.get("reason") != exp["failed"]:
            return f"expected reason {exp['failed']!r}, got {log.get('reason')!r}"
        return None
    if failed or not row[f"{mid}_lat"]:
        return f"unexpected failure ({log.get('reason')!r})"
    got = (float(row[f"{mid}_lat"]), float(row[f"{mid}_lon"]))
    truth = (float(row["truth_lat"]), float(row["truth_lon"]))
    if "coordinate" in exp:
        want = tuple(exp["coordinate"])
        if not _close(got, want):
            return f"coordinate {got} != scripted {want}"
        if abs(float(row[f"{mid}_error_km"]) - haversine_km(want, truth)) > ERROR_TOL_KM:
            return f"error_km {row[f'{mid}_error_km']} != {haversine_km(want, truth):.6f}"
        return None
    # Gazetteer baselines: a named gazetteer place, the county centroid, or
    # the statewide center, consistent with the flag the log records.
    flag = log.get("response", "").rpartition("[")[2].rstrip("]")
    allowed = {"statewide": [VA_CENTER], "county": [exp["county"]], "entity": exp["entities"]}.get(flag, [])
    if not any(_close(got, a) for a in allowed):
        return f"coordinate {got} flagged {flag!r} is not an allowed answer"
    if abs(float(row[f"{mid}_error_km"]) - haversine_km(got, truth)) > ERROR_TOL_KM:
        return f"error_km {row[f'{mid}_error_km']} disagrees with the coordinate"
    return None


def check(run_dir: Path, ws: dict, expected: dict) -> tuple[int, int, list[str]]:
    """Return (cells checked, cells wrong, first problems)."""
    with (run_dir / f"results_{ws['evalset']}.csv").open(newline="", encoding="utf-8") as fh:
        rows = {r["row_id"]: r for r in csv.DictReader(fh)}
    cells = wrong = 0
    problems: list[str] = []
    for mid, by_row in expected.items():
        logs = _read_logs(run_dir, mid)
        for row_id, exp in by_row.items():
            cells += 1
            row = rows.get(row_id)
            problem = "row missing from results" if row is None else _cell_problem(exp, row, logs.get(row_id, {}), mid)
            if problem:
                wrong += 1
                if len(problems) < 10:
                    problems.append(f"{mid} {row_id}: {problem}")
    if len(rows) != ws["grants"]:
        wrong += 1
        problems.append(f"results hold {len(rows)} rows, expected {ws['grants']}")
    return cells, wrong, problems


def _masked_report(text: str) -> str:
    out, in_timing = [], False
    for line in text.splitlines():
        if line.startswith("## "):
            in_timing = line == "## Processing time"
        elif in_timing and line.startswith("| ") and not line.startswith("| ID "):
            line = line.split(" |")[0] + " | (measured) |"
        out.append(line)
    return "\n".join(out)


def _without_column(text: str, column: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
    return buf.getvalue()


def _calls_without_timing(text: str) -> str:
    records = []
    for line in filter(str.strip, text.splitlines()):
        rec = json.loads(line)
        rec.pop("timestamp", None)
        rec.pop("latency_s", None)
        records.append(json.dumps(rec, sort_keys=True))
    return "\n".join(records)


def digests(run_dir: Path, ws: dict) -> dict[str, str]:
    def sha(data: str | bytes) -> str:
        return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()

    def read(name: str) -> str:
        return (run_dir / name).read_text(encoding="utf-8")

    results = f"results_{ws['evalset']}.csv"
    out = {name: sha((run_dir / name).read_bytes()) for name in (results, "cost_vs_error.csv", "pareto_frontier.csv")}
    out["report.md (processing-time rows masked)"] = sha(_masked_report(read("report.md")))
    out["latency_vs_error.csv (without seconds_per_grant)"] = sha(_without_column(read("latency_vs_error.csv"), "seconds_per_grant"))
    for m in ws["methods"]:
        name = f"runs/{m['method_id']}/calls.jsonl"
        out[f"{name} (without timestamp, latency_s)"] = sha(_calls_without_timing(read(name)))
    return out
