"""Seeded synthetic workspace for the benchmark.

``build(workload, seed, root)`` writes everything one workload needs under
``root``: a ground-truth corpus, fixture scripts, a geocode cache, an
external-predictions CSV, a gazetteer where the workload has one, and a
harness config. The program only ever sees these files.

The package's own formats are written through its public writers
(``write_ground_truth``, ``text_turn``, ``tool_call_turn``,
``write_fixture_script``, ``write_geocode_cache``); the gazetteer and
external CSVs are plain documented CSVs. Alongside, ``workspace.json``
lists the inputs and ``expected.json`` records, per method and grant, what
the answer must be. The benchmark checks the run's output against it.

Everything is drawn from ``random.Random(seed)``; the same seed gives the
same files byte for byte. Shares of each scripted case are exact per block
of twenty grants, so the failure share and the per-grant work do not
depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from grantgeo.agent import write_geocode_cache
from grantgeo.corpus import GrantAbstract, write_ground_truth
from grantgeo.gateway import text_turn, tool_call_turn, write_fixture_script
from grantgeo.geo import Coordinate

EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180.0
VA_BOX = (36.54, 39.47, -83.68, -75.24)
VA_CENTER = (37.4316, -78.6569)
HEURISTIC_MARGIN_DEG = 0.1

# Grant counts and gazetteer size per workload. A round (run + report)
# takes a few seconds on a 2-core Xeon at the parent commit, so one run
# takes the median of several rounds. Counts above twenty are multiples of
# twenty, the block over which scripted shares are exact.
WORKLOADS = {
    "gaz-large": {"grants": 1, "gazetteer_rows": 20_000, "llm": False},
    "gaz-packaged": {"grants": 1000, "gazetteer_rows": 0, "llm": False},
    "llm-replay": {"grants": 600, "gazetteer_rows": 0, "llm": True},
}

BASELINE_METHODS = [
    {"method_id": "H-4", "pipeline": "county_centroid"},
    {
        "method_id": "H-2",
        "pipeline": "heuristic_geoparse",
        "params": {"confidence_threshold": 0.5, "bbox_margin_deg": HEURISTIC_MARGIN_DEG, "distance_gate_km": 50.0},
    },
    {"method_id": "H-3", "pipeline": "ner_pipeline"},
]
EXTERNAL_METHOD = {
    "method_id": "X-1",
    "pipeline": "ingest_external",
    "predictions_file": "fixtures/external.csv",
    "total_cost_usd": "1250.00",
    "latency_s_per_grant": 502.0,
}
LLM_METHODS = [
    {
        "method_id": "M-1",
        "pipeline": "one_shot",
        "model": {"model_id": "gpt-4o-2024-08-06", "temperature": 0.2},
        "fixture_script": "fixtures/one_shot.jsonl",
    },
    {
        "method_id": "M-2",
        "pipeline": "ensemble",
        "model": {"model_id": "o4-mini", "reasoning_effort": "medium"},
        "ensemble": {"k": 5, "eps_km": 0.5, "min_cluster": 3},
        "fixture_script": "fixtures/ensemble.jsonl",
    },
    {
        "method_id": "M-3",
        "pipeline": "tool_chain",
        "model": {"model_id": "gpt-4.1", "temperature": 0.0},
        "budget": {"max_tool_calls": 10, "max_geocode_failures": 6},
        "fixture_script": "fixtures/tool_chain.jsonl",
        "geocode_cache": "fixtures/geocode_cache.jsonl",
    },
]

# Per block of twenty grants. Failing cases: one_shot "none" and "two"
# (Unparseable), ensemble "all_bad" (AllCallsFailed), tool_chain
# "exhausted" (BudgetExhausted), external "missing" (MissingExternalRow).
ONE_SHOT_CASES = ["decimal"] * 6 + ["dms"] * 6 + ["prose"] * 6 + ["none", "two"]
ENSEMBLE_CASES = ["cluster3"] * 8 + ["all5"] * 4 + ["spread"] * 2 + ["cluster3_bad2"] * 3 + ["pair_bad3"] * 2 + ["all_bad"]
TOOL_CASES = ["one_hit"] * 8 + ["miss_miss_hit"] * 4 + ["centroid"] * 3 + ["long"] * 2 + ["bad_args", "repeat", "exhausted"]
EXTERNAL_CASES = ["present"] * 19 + ["missing"]

FIRST = ["WILLIAM", "JOHN", "THOMAS", "RICHARD", "GEORGE", "HENRY", "ROBERT", "JAMES", "EDWARD", "NATHANIEL",
         "BENJAMIN", "SAMUEL", "FRANCIS", "JOSEPH", "CHARLES", "ARTHUR", "MILES", "LEWIS"]
LAST = ["WILLIAMS", "HARRISON", "BLAND", "COCKE", "RANDOLPH", "JORDAN", "HILL", "BAKER", "PARHAM", "GREEN",
        "WARD", "MASON", "PERRY", "TAYLOR", "POWELL", "EPPES", "BRADLEY", "HOLT", "GOODRICH", "BRIGGS"]
COUNTIES = ["Isle of Wight", "Prince George", "King and Queen", "New Kent", "Charles City", "James City",
            "Surry", "Sussex", "Southampton", "Nansemond", "Henrico", "Brunswick", "Dinwiddie", "Goochland",
            "Hanover", "Amelia", "Chesterfield", "Gloucester"]
# Creek and swamp names in neither gazetteer: features the baselines cannot place.
UNKNOWN_STEMS = ["Cypress", "Reedy", "Poplar", "Beaverdam", "Rocky", "Horsepen", "Mirey", "Indian Field",
                 "Otterdam", "Cattail", "Pigeon Roost", "Lightwood"]
TREES = ["red oak", "white oak", "hickory", "pine", "gum", "poplar", "ash"]
MONTHS = ["Jan.", "Feb.", "Mar.", "Apr.", "May", "June", "July", "Aug.", "Sept.", "Oct.", "Nov.", "Dec."]
ABBREVIATE = {"Swamp": "Sw.", "Creek": "Cr.", "Branch": "Br.", "River": "Riv."}
STRATEGIES = [None, "natural_feature", "restricted_va", "standard_va", "county_fallback"]
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
GEN_KINDS = ["Swamp", "Creek", "Branch", "River", "Neck", "Marsh", "Pocosin"]


@dataclass(frozen=True)
class Place:
    name: str
    lat: float
    lon: float


def _move(lat: float, lon: float, km: float, bearing_deg: float) -> tuple[float, float]:
    """Point ``km`` away on ``bearing_deg`` (flat-earth step; fine at these scales)."""
    b = math.radians(bearing_deg)
    dlat = km * math.cos(b) / KM_PER_DEG
    dlon = km * math.sin(b) / (KM_PER_DEG * math.cos(math.radians(lat)))
    return lat + dlat, lon + dlon


def _cases(pattern: list[str], n: int, rng: random.Random) -> list[str]:
    """Exact shares of ``pattern`` per block, shuffled within each block. A
    trailing partial block takes the rarest cases first, so its make-up does
    not depend on the seed either."""
    out = []
    for start in range(0, n, len(pattern)):
        block = sorted(pattern, key=pattern.count)[: n - start]
        rng.shuffle(block)
        out += block
    return out


def _dms(lat: float, lon: float) -> str:
    def axis(value: float) -> str:
        units = round(abs(value) * 3600 * 100_000)  # 1e-5 arc-second units
        deg, rem = divmod(units, 3600 * 100_000)
        minutes, sec_units = divmod(rem, 60 * 100_000)
        return f"{deg}°{minutes:02d}'{sec_units // 100_000:02d}.{sec_units % 100_000:05d}\""

    return f"{axis(lat)}N {axis(lon)}W"


def _parsed_dms(text: str) -> tuple[float, float]:
    """Decimal degrees of a reply written by ``_dms`` (d + m/60 + s/3600)."""
    lat_txt, lon_txt = text.split(" ")

    def axis(part: str) -> float:
        deg, rest = part.split("°")
        minutes, rest = rest.split("'")
        return float(deg) + float(minutes) / 60.0 + float(rest.rstrip('"NW')) / 3600.0

    return axis(lat_txt), -axis(lon_txt)


def _decimal(lat: float, lon: float) -> tuple[str, tuple[float, float]]:
    text = f"{lat:.6f}, {lon:.6f}"
    return text, (float(f"{lat:.6f}"), float(f"{lon:.6f}"))


def _spherical_centroid(points: list[tuple[float, float]]) -> tuple[float, float]:
    x = y = z = 0.0
    for lat, lon in points:
        la, lo = math.radians(lat), math.radians(lon)
        x += math.cos(la) * math.cos(lo)
        y += math.cos(la) * math.sin(lo)
        z += math.sin(la)
    n = len(points)
    x, y, z = x / n, y / n, z / n
    return math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x))


def _packaged_rows(filename: str) -> list[dict]:
    with resources.as_file(resources.files("grantgeo.data") / filename) as p:
        with p.open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))


def _county_table() -> dict[str, tuple[float, float]]:
    return {r["county"]: (float(r["lat"]), float(r["lon"])) for r in _packaged_rows("va_county_centroids.csv")}


def _gazetteer_places(rows: list[dict]) -> list[Place]:
    return [Place(r["name"], float(r["lat"]), float(r["lon"])) for r in rows]


def _generate_gazetteer(n: int, rng: random.Random) -> list[dict]:
    """Synthetic gazetteer: unique invented stems, ~4% repeated names at other
    coordinates, ~3% rows outside Virginia, saint and possessive names, and
    populations from zero (natural features) to tens of thousands."""
    stems: set[str] = set()
    while len(stems) < n:
        stems.add("".join(rng.choice(SYLLABLES) for _ in range(rng.choice((3, 3, 4)))).capitalize())
    rows: list[dict] = []
    ordered = sorted(stems)
    rng.shuffle(ordered)
    for stem in ordered:
        if rows and rng.random() < 0.04:
            name = rng.choice(rows)["name"]  # same name, another place
        else:
            r = rng.random()
            if r < 0.25:
                name = stem
            elif r < 0.32:
                name = f"St. {stem}'s Church"
            elif r < 0.40:
                name = f"{stem}'s Mill"
            else:
                name = f"{stem} {rng.choice(GEN_KINDS)}"
        if " " not in name:
            kind, population = "populated_place", rng.choice((0, rng.randint(20, 900), rng.randint(1000, 60_000)))
        elif name.endswith("'s Mill"):
            kind, population = "mill", rng.randint(0, 60)
        else:
            kind, population = ("church" if name.endswith("Church") else "stream"), 0
        if rng.random() < 0.03:
            lat = rng.uniform(35.2, 36.3) if rng.random() < 0.5 else rng.uniform(39.7, 40.6)
        else:
            lat = rng.uniform(36.7, 39.3)
        lon = rng.uniform(-83.3, -75.5)
        rows.append({"name": name, "lat": f"{lat:.5f}", "lon": f"{lon:.5f}", "population": str(population),
                     "feature_class": kind})
    return rows


def _in_box(lat: float, lon: float, margin: float = 0.0) -> bool:
    return VA_BOX[0] - margin <= lat <= VA_BOX[1] + margin and VA_BOX[2] - margin <= lon <= VA_BOX[3] + margin


class _Text:
    """An abstract built clause by clause, kept twice: as written, and with
    every abbreviation the generator used spelled out."""

    def __init__(self):
        self.raw: list[str] = []
        self.full: list[str] = []

    def add(self, raw: str, full: str | None = None) -> None:
        self.raw.append(raw)
        self.full.append(full if full is not None else raw)

    def words(self) -> int:
        return sum(len(c.split()) for c in self.raw)


def _feature_forms(name: str, rng: random.Random, abbreviate: float) -> tuple[str, str]:
    """(as written, spelled out) for a gazetteer name; the kind word is
    abbreviated with probability ``abbreviate``."""
    head, _, kind = name.rpartition(" ")
    if head and kind in ABBREVIATE and rng.random() < abbreviate:
        short = ABBREVIATE[kind]
        if short == "Sw." and rng.random() < 0.3:
            short = "Sw"  # the paper's "by run of Holloway Sw;" form
        return f"{head} {short}", name
    if name.startswith("Saint "):
        return "St. " + name[len("Saint "):], "St. " + name[len("Saint "):]
    return name, name


def _neighbour(rng: random.Random) -> str:
    return f"{rng.choice(FIRST).title()} {rng.choice(LAST).title()}"


def _filler(rng: random.Random) -> str:
    choice = rng.randrange(9)
    if choice == 0:
        return "down the sd. swamp to a corner white oak"
    if choice == 1:
        return "along the line of marked trees"
    if choice == 2:
        return f"thence N. {rng.randint(5, 85)} deg. E. {rng.randint(20, 320)} poles"
    if choice == 3:
        return f"to a corner {rng.choice(TREES)}"
    if choice == 4:
        return f"adj. {_neighbour(rng)}"
    if choice == 5:
        return f"adj. the land of {_neighbour(rng)}"
    if choice == 6:
        return f"for the transportation of {rng.randint(2, 16)} persons"
    if choice == 7:
        return "on the head of a br. by the Indian path"
    unknown = rng.choice(UNKNOWN_STEMS)
    return f"crossing {unknown} Sw."


STREAM_CLAUSES = ["on S. side of the main {}", "by run of {}", "beg. at the mouth of {}", "on N. side of {}", "up {}"]
PLACE_CLAUSES = ["near {}", "about two miles from {}", "adj. the lands of {}", "below {}"]


def _feature_clause(place: Place, rng: random.Random, abbreviate: float) -> tuple[str, str]:
    written, full = _feature_forms(place.name, rng, abbreviate)
    is_stream = place.name.rpartition(" ")[2] in (*ABBREVIATE, *GEN_KINDS)
    template = rng.choice(STREAM_CLAUSES if is_stream else PLACE_CLAUSES)
    return template.format(written), template.format(full)


@dataclass
class _Grant:
    abstract: GrantAbstract
    county: str | None
    full_text: str


def _abstract(row_id: str, rng: random.Random, target_words: int, planted: list[tuple[Place, float]],
              county: str | None, counties: dict[str, tuple[float, float]]) -> _Grant:
    text = _Text()
    patentee = f"{rng.choice(FIRST)} {rng.choice(LAST)}"
    acres = rng.choice((50, 100, 150, 200, 250, 300, 400, 450, 640, 1000))
    text.add(f"{patentee}, {acres} acs.", f"{patentee}, {acres} acres")
    if county is not None:
        form = rng.choice(("in {} Co.", "in {} Co.", "in {} County", "in the County of {}"))
        text.add(form.format(county), form.replace("Co.", "County").format(county))
    clauses = [_feature_clause(p, rng, abbreviate) for p, abbreviate in planted]
    words = text.words() + sum(len(c[0].split()) for c in clauses)
    while words < target_words - 8:
        f = _filler(rng)
        clauses.append((f, f.replace("Sw.", "Swamp")))
        words += len(f.split())
    rng.shuffle(clauses)
    for raw, full in clauses:
        text.add(raw, full)
    year = rng.randint(1690, 1740)
    text.add(f"{rng.randint(1, 28)} {rng.choice(MONTHS)} {year}, p. {rng.randint(1, 480)}.")
    raw_text = "; ".join(text.raw)
    full_text = "; ".join(text.full)

    if planted:
        anchor = planted[0][0]
        truth = _move(anchor.lat, anchor.lon, rng.uniform(0.2, 3.0), rng.uniform(0, 360))
    elif county is not None:
        c = counties[county]
        truth = _move(c[0], c[1], rng.uniform(2.0, 15.0), rng.uniform(0, 360))
    else:
        truth = (rng.uniform(36.8, 39.0), rng.uniform(-82.5, -76.0))
    grant = GrantAbstract.from_text(row_id, raw_text, Coordinate(round(truth[0], 6), round(truth[1], 6)))
    return _Grant(grant, county, full_text)


def _normalize(text: str) -> list[str]:
    """Entity normalization as documented for name matching: lowercase,
    "st." read as "saint", possessive "'s" dropped, punctuation as space."""
    return re.sub(r"[^\w\s]", " ", text.lower().replace("st.", "saint").replace("'s", "")).split()


def _ngrams(words: list[str], longest: int) -> set[str]:
    return {" ".join(words[i:i + k]) for k in range(1, longest + 1) for i in range(len(words) - k + 1)}


def _gazetteer_answers(grant: _Grant, names: list[tuple[str, float, float]], longest: int) -> list[list[float]]:
    """Coordinates of every gazetteer row named anywhere in the abstract (as
    written or spelled out, or in the county suffix the geoparser appends)
    and inside the geoparser's widest box: the only places a gazetteer
    baseline may answer with besides the county centroid and the center."""
    grams = _ngrams(_normalize(grant.abstract.text), longest) | _ngrams(_normalize(grant.full_text), longest)
    if grant.county:
        grams |= _ngrams(_normalize(f"{grant.county} County, Virginia"), longest)
    return sorted([lat, lon] for lat, lon in {(lat, lon) for name, lat, lon in names if name in grams})


def _planted_large(places: list[Place], standalone: set[str], rng: random.Random) -> list[tuple[Place, float]]:
    """A fixed shape, so the cost does not vary with the seed: a saint's
    church (``St. X's Church``) whose name the gazetteer repeats, spelled
    out; and a stream whose kind word is always abbreviated. Pairs each
    place with the chance its kind word is abbreviated."""
    inside = [p for p in places if _in_box(p.lat, p.lon)]
    counts: dict[str, int] = {}
    for p in places:
        counts[p.name] = counts.get(p.name, 0) + 1
    churches = [p for p in inside if p.name.startswith("St. ") and counts[p.name] > 1]
    streams = [p for p in inside if p.name.split(" ")[-1] in ABBREVIATE and p.name.split(" ")[0] not in standalone]
    return [(rng.choice(churches), 0.0), (rng.choice(streams), 1.0)]


def build(workload: str, seed: int, root: Path) -> dict:
    """Write the workspace for ``workload`` under ``root``; return its description."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    counties = _county_table()
    n = spec["grants"]

    if spec["gazetteer_rows"]:
        gaz_rows = _generate_gazetteer(spec["gazetteer_rows"], rng)
        with (fixtures / "gazetteer.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, ["name", "lat", "lon", "population", "feature_class"], lineterminator="\n")
            writer.writeheader()
            writer.writerows(gaz_rows)
    else:
        gaz_rows = _packaged_rows("gazetteer_sample.csv")
    gazetteer = _gazetteer_places(gaz_rows)
    standalone = {p.name for p in gazetteer if " " not in p.name}

    grants: list[_Grant] = []
    for i in range(n):
        row_id = f"G{i:05d}"
        if workload == "gaz-large":
            planted = _planted_large(gazetteer, standalone, rng)
            anchor = planted[0][0]
            # The county nearest the first feature, so the geoparser's
            # distance gate can let the feature through.
            county = min(counties, key=lambda c: (counties[c][0] - anchor.lat) ** 2 + (counties[c][1] - anchor.lon) ** 2)
            target = 0  # no filler: a fixed entity count
        else:
            planted = [(p, 0.5) for p in rng.sample(gazetteer, rng.choice((0, 1, 1, 2, 2, 3)))]
            county = rng.choice(COUNTIES) if rng.random() < 0.9 else None
            target = rng.randint(25, 250)
        grants.append(_abstract(row_id, rng, target, planted, county, counties))
    write_ground_truth(root / "ground_truth.csv", [g.abstract for g in grants])

    expected: dict[str, dict] = {}
    methods = [dict(m) for m in BASELINE_METHODS]
    if spec["gazetteer_rows"]:
        for m in methods[1:]:
            m["gazetteer"] = "fixtures/gazetteer.csv"
    if spec["llm"]:
        methods = [dict(m) for m in LLM_METHODS] + [methods[0]]
        expected["M-1"] = _one_shot(grants, rng, fixtures / "one_shot.jsonl")
        expected["M-2"] = _ensemble(grants, rng, fixtures / "ensemble.jsonl")
        expected["M-3"] = _tool_chain(grants, rng, fixtures / "tool_chain.jsonl", fixtures / "geocode_cache.jsonl")
    methods.append(dict(EXTERNAL_METHOD))
    expected["X-1"] = _external(grants, rng, fixtures / "external.csv")
    expected["H-4"] = {g.abstract.row_id: {"coordinate": list(counties[g.county]) if g.county else list(VA_CENTER)}
                       for g in grants}
    if not spec["llm"]:
        names = [(" ".join(_normalize(p.name)), p.lat, p.lon) for p in gazetteer
                 if _in_box(p.lat, p.lon, HEURISTIC_MARGIN_DEG)]
        longest = max(len(name.split()) for name, _, _ in names)
        allowed = {g.abstract.row_id: {"county": list(counties[g.county]) if g.county else None,
                                       "entities": _gazetteer_answers(g, names, longest)} for g in grants}
        expected["H-2"] = expected["H-3"] = allowed

    config = {
        "corpus": {"ground_truth": "ground_truth.csv"},
        "split": {"seed": 42, "dev_fraction": 0.2},
        "evalsets": {"bench": {"from": "all", "require_truth": True}},
        "default_evalset": "bench",
        "backend": {"kind": "fixture"},
        "methods": methods,
        "parallelism": 1,
        "output_dir": "out",
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    (root / "expected.json").write_text(json.dumps(expected), encoding="utf-8")

    scripted_failures = sum(1 for rows in expected.values() for cell in rows.values() if "failed" in cell)
    description = {
        "workload": workload,
        "seed": seed,
        "root": str(root),
        "config": str(root / "config.yaml"),
        "ground_truth": str(root / "ground_truth.csv"),
        "evalset": "bench",
        "grants": n,
        "gazetteer": str(fixtures / "gazetteer.csv") if spec["gazetteer_rows"] else None,
        "methods": [{k: (str(root / v) if k in ("fixture_script", "geocode_cache", "predictions_file", "gazetteer") else v)
                     for k, v in m.items()} for m in methods],
        "cells": n * len(methods),
        "scripted_failures": scripted_failures,
    }
    (root / "workspace.json").write_text(json.dumps(description, indent=1), encoding="utf-8")
    return description


# --- scripted model replies -------------------------------------------------


def _usage(rng: random.Random, grant: GrantAbstract, base: int) -> tuple[int, int]:
    return base + int(grant.word_count * 1.35), rng.randint(18, 64)


def _answer_near(g: GrantAbstract, rng: random.Random, lo_km: float, hi_km: float) -> tuple[float, float]:
    km = math.exp(rng.uniform(math.log(lo_km), math.log(hi_km)))
    return _move(g.ground_truth.lat, g.ground_truth.lon, km, rng.uniform(0, 360))


def _reply(lat: float, lon: float, rng: random.Random) -> tuple[str, tuple[float, float]]:
    if rng.random() < 0.5:
        return _decimal(lat, lon)
    text = _dms(lat, lon)
    return text, _parsed_dms(text)


def _one_shot(grants: list[_Grant], rng: random.Random, path: Path) -> dict:
    turns, expected = [], {}
    for g, case in zip((g.abstract for g in grants), _cases(ONE_SHOT_CASES, len(grants), rng)):
        lat, lon = _answer_near(g, rng, 0.3, 60.0)
        if case == "decimal":
            text, coord = _decimal(lat, lon)
        elif case == "dms":
            text = _dms(lat, lon)
            coord = _parsed_dms(text)
        elif case == "prose":
            reply, coord = _decimal(lat, lon)
            text = f"The tract most likely lies at {reply} by the creek mouth."
        elif case == "none":
            text, coord = "I cannot place this grant with confidence.", None
        else:
            a, _ = _decimal(lat, lon)
            b, _ = _decimal(*_move(lat, lon, 12.0, 90.0))
            # No full stop after a coordinate: the parser does not see a decimal
            # pair followed by ".", so "Either A or B." would read as A alone.
            text, coord = f"Either {a} or {b}", None
        turns.append(text_turn(text, *_usage(rng, g, 60), expect_contains=g.text[:30]))
        expected[g.row_id] = {"coordinate": list(coord)} if coord else {"failed": "Unparseable"}
    write_fixture_script(path, turns)
    return expected


def _ensemble(grants: list[_Grant], rng: random.Random, path: Path) -> dict:
    turns, expected = [], {}
    unparseable = "No confident answer."
    for g, case in zip((g.abstract for g in grants), _cases(ENSEMBLE_CASES, len(grants), rng)):
        centre = _answer_near(g, rng, 0.3, 40.0)

        def near(k: int) -> list[tuple[float, float]]:
            return [_move(*centre, rng.uniform(0.0, 0.15), rng.uniform(0, 360)) for _ in range(k)]

        def far(k: int, km: float) -> list[tuple[float, float]]:
            start = rng.uniform(0, 360)
            return [_move(*centre, km, start + j * 360.0 / k) for j in range(k)]

        if case == "cluster3":
            members, extra = near(3), far(2, 30.0)
        elif case == "all5":
            members, extra = near(5), []
        elif case == "spread":
            members, extra = [], far(5, 4.0)
        elif case == "cluster3_bad2":
            members, extra = near(3), [None, None]
        elif case == "pair_bad3":
            members, extra = [], far(2, 10.0) + [None, None, None]
        else:
            members, extra = [], [None] * 5
        replies = [(p, True) for p in members] + [(p, False) for p in extra]
        rng.shuffle(replies)
        parsed_members, parsed_all = [], []
        for point, in_cluster in replies:
            if point is None:
                text = unparseable
            else:
                text, coord = _reply(*point, rng)
                parsed_all.append(coord)
                if in_cluster:
                    parsed_members.append(coord)
            turns.append(text_turn(text, *_usage(rng, g, 60), expect_contains=g.text[:30]))
        winners = parsed_members or parsed_all
        if not winners:
            expected[g.row_id] = {"failed": "AllCallsFailed"}
        else:
            expected[g.row_id] = {"coordinate": list(_spherical_centroid(winners) if len(winners) > 1 else winners[0])}
    write_fixture_script(path, turns)
    return expected


def _tool_chain(grants: list[_Grant], rng: random.Random, script: Path, cache_path: Path) -> dict:
    turns: list[dict] = []
    cache: dict[tuple[str, str], dict | None] = {}
    expected = {}

    for gr, case in zip(grants, _cases(TOOL_CASES, len(grants), rng)):
        g = gr.abstract
        where = f"{gr.county} County" if gr.county else "Virginia"
        usage_in = 720 + int(g.word_count * 1.35)
        first = True

        def turn(build, *args) -> None:
            nonlocal usage_in, first
            turns.append(build(*args, usage_in, rng.randint(24, 70), expect_contains=g.text[:30] if first else None))
            first = False
            usage_in += 45

        def geocode(hit: bool) -> tuple[dict, tuple[float, float] | None]:
            strategy = rng.choice(STRATEGIES)
            query = f"{rng.choice(UNKNOWN_STEMS)} {rng.choice(('Swamp', 'Creek', 'Branch'))} near {_neighbour(rng)} land, {where}"
            key = (query, strategy or "standard_va")
            while key in cache:  # each query is scripted to one outcome
                query += ", Virginia"
                key = (query, strategy or "standard_va")
            args = {"query": query} if strategy is None else {"query": query, "strategy": strategy}
            result = None
            if hit:
                lat, lon = _answer_near(g, rng, 0.2, 20.0)
                result = {"lat": round(lat, 6), "lng": round(lon, 6), "formatted_address": f"{query.split(',')[0]}, VA, USA",
                          "strategy": key[1], "query_used": query}
            cache[key] = result
            turn(tool_call_turn, "geocode_place", args)
            return args, (result["lat"], result["lng"]) if result else None

        def centroid(points: list[tuple[float, float]]) -> tuple[float, float]:
            turn(tool_call_turn, "compute_centroid", {"points": [{"lat": a, "lng": b} for a, b in points]})
            return _spherical_centroid(points)

        def answer(point: tuple[float, float]) -> None:
            text, coord = _decimal(*point)
            turn(text_turn, text)
            expected[g.row_id] = {"coordinate": list(coord)}

        if case == "one_hit":
            answer(geocode(True)[1])
        elif case == "miss_miss_hit":
            geocode(False)
            geocode(False)
            answer(geocode(True)[1])
        elif case == "centroid":
            a, b = geocode(True)[1], geocode(True)[1]
            answer(centroid([a, b]))
        elif case == "long":
            hits = [geocode(hit)[1] for hit in rng.sample([False] * 5 + [True] * 4, 9)]
            answer(centroid([p for p in hits if p][-2:]))
        elif case == "bad_args":
            turn(tool_call_turn, "geocode_place", {"query": f"{rng.choice(UNKNOWN_STEMS)} Swamp, {where}", "strategy": "nearest"})
            answer(geocode(True)[1])
        elif case == "repeat":  # the same lookup twice; the second is a cache hit
            args, point = geocode(True)
            turn(tool_call_turn, "geocode_place", args)
            answer(point)
        else:  # exhausted: ten recorded calls, then two refused ones
            for hit in rng.sample([False] * 3 + [True] * 7, 10):
                geocode(hit)
            for _ in range(2):
                turn(tool_call_turn, "geocode_place", {"query": f"{g.row_id} one more try, {where}"})
            expected[g.row_id] = {"failed": "BudgetExhausted"}

    write_fixture_script(script, turns)
    write_geocode_cache(cache_path, [{"query": q, "strategy": s, "result": r} for (q, s), r in cache.items()])
    return expected


def _external(grants: list[_Grant], rng: random.Random, path: Path) -> dict:
    expected = {}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_id", "lat", "lon"])
        for gr, case in zip(grants, _cases(EXTERNAL_CASES, len(grants), rng)):
            g = gr.abstract
            if case == "missing":
                expected[g.row_id] = {"failed": "MissingExternalRow"}
                continue
            text, coord = _decimal(*_answer_near(g, rng, 0.1, 8.0))
            writer.writerow([g.row_id, *text.split(", ")])
            expected[g.row_id] = {"coordinate": list(coord)}
    return expected
