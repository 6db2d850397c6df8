"""Deterministic comparison methods.

Three baselines share a fallback ladder ending at Virginia's geographic
center, so every input text yields a coordinate: a county-centroid
lookup, a gazetteer-gated heuristic geoparser with grid-searched
parameters, and an entity-extraction pipeline with population-weighted
ranking. Entity resolution engines are pluggable; the package ships a
capitalized-phrase scanner and CSV-backed gazetteers as defaults.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .corpus import GrantAbstract, MalformedRow
from .geo import Coordinate, VIRGINIA_BBOX, haversine_km, is_real, within_bbox

VIRGINIA_CENTER = Coordinate(37.4316, -78.6569)
"""Statewide fallback: Virginia's geographic center."""


class EmptyGold(ValueError):
    """Grid tuning needs at least one gold row with ground truth."""


@dataclass(frozen=True)
class HeuristicParams:
    confidence_threshold: float
    bbox_margin_deg: float
    distance_gate_km: float

    def __post_init__(self):
        if not all(is_real(v) for v in (self.confidence_threshold, self.bbox_margin_deg, self.distance_gate_km)):
            raise ValueError("confidence_threshold, bbox_margin_deg and distance_gate_km must be numbers")
        if not (0.0 <= self.confidence_threshold <= 1.0 and self.bbox_margin_deg >= 0 and self.distance_gate_km > 0):
            raise ValueError("need 0 <= confidence_threshold <= 1, bbox_margin_deg >= 0 and distance_gate_km > 0")


@dataclass(frozen=True)
class GazetteerEntry:
    name: str
    coordinate: Coordinate
    population: int
    feature_class: str


@dataclass(frozen=True)
class ResolvedToponym:
    """A scored candidate toponym produced by an entity resolver."""

    name: str
    coordinate: Coordinate
    confidence: float


Resolver = Callable[[str], list[ResolvedToponym]]
Extractor = Callable[[str], list[str]]


def _normalize_county(name: str) -> str:
    name = re.sub(r"\s+", " ", name.strip())
    name = name.replace("&", "and")
    return re.sub(r"\s+", " ", name).strip().lower()


def _display_county(name: str) -> str:
    tokens = []
    for i, token in enumerate(re.sub(r"\s+", " ", name.strip()).split(" ")):
        if token == "&":
            tokens.append("and")
        elif i > 0 and token.lower() in ("of", "and"):
            tokens.append(token.lower())
        elif token.isupper() or token.islower():
            tokens.append(token.capitalize())
        else:
            tokens.append(token)
    return " ".join(tokens)


# A missing column is a KeyError, a short row a TypeError (its value is
# None) and a value that is not a number, or not a coordinate, a ValueError.
_ROW_ERRORS = (KeyError, TypeError, ValueError)


def _why(exc: Exception) -> str:
    return f"missing column {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"


def _read_csv(path: str | Path, kind: str, parse: Callable[[dict], object]) -> list:
    """``parse`` of each row of a CSV file; a bad row, or a byte that is not UTF-8, is MalformedRow."""
    out = []
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    out.append(parse(row))
                except _ROW_ERRORS as exc:
                    raise MalformedRow(f"{path}:{reader.line_num}: not a {kind} row ({_why(exc)})") from exc
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no line is named
        raise MalformedRow(f"{path}: not UTF-8 text ({exc})") from exc
    return out


def _county_row(row: dict) -> tuple[str, Coordinate]:
    coordinate = Coordinate(float(row["lat"]), float(row["lon"]))
    if not within_bbox(coordinate, VIRGINIA_BBOX):
        raise ValueError(f"county {row['county']!r} centroid outside the Virginia box")
    return row["county"], coordinate


class CountyCentroidTable:
    """Name-to-centroid lookup over historic and modern Virginia counties."""

    def __init__(self, entries: dict[str, Coordinate]):
        self._entries = {_normalize_county(k): v for k, v in entries.items()}

    @classmethod
    def from_csv(cls, path: str | Path) -> "CountyCentroidTable":
        """The table in a ``county,lat,lon`` CSV, each centroid inside the Virginia box."""
        return cls(dict(_read_csv(path, "county,lat,lon", _county_row)))

    @classmethod
    def packaged(cls) -> "CountyCentroidTable":
        with resources.as_file(resources.files("grantgeo.data") / "va_county_centroids.csv") as p:
            return cls.from_csv(p)

    def get(self, name: str) -> Coordinate | None:
        return self._entries.get(_normalize_county(name))

    def __contains__(self, name: str) -> bool:
        return _normalize_county(name) in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# Tokens that end a county-name scan: clause punctuation is handled
# separately; these are generic words that precede or follow names.
_NAME_STOPWORDS = {
    "in", "on", "at", "by", "to", "from", "the", "a", "an", "and", "or",
    "near", "upon", "into", "within", "between", "along", "adj", "beg",
    "begg", "cor", "side", "main", "north", "south", "east", "west",
    "river", "creek", "swamp", "branch", "run", "road", "path", "line",
    "mouth", "land", "called", "said", "sd", "mr", "mrs", "maj", "capt",
    "col", "esqr", "acs", "acres", "per", "s", "n", "e", "w",
}


def _is_name_token(token: str) -> bool:
    stripped = token.strip(",;:.()\"'")
    if not stripped or not stripped[0].isalpha() or not stripped[0].isupper():
        return False
    if stripped.lower() in _NAME_STOPWORDS:
        return False
    if len(stripped) <= 1 or (len(stripped) == 2 and token.rstrip(",;:")[-1] == "."):
        return False  # bare initials like "S."
    return True


def _scan_back(tokens: list[tuple[int, str]]) -> str | None:
    """Collect up to four name tokens walking backwards from a suffix."""
    picked: list[str] = []
    expecting_glue = False
    for _, token in reversed(tokens):
        clean = token.strip(",;:.()\"'")
        if picked and clean.lower() in ("of", "and") or clean == "&":
            expecting_glue = True
            picked.append(clean.lower() if clean != "&" else "&")
            continue
        if _is_name_token(token):
            # A token carrying trailing clause punctuation ends the scan
            # after being (not) included: the clause boundary sits
            # between it and the suffix.
            picked.append(clean)
            expecting_glue = False
            if token != clean and token.rstrip(".")[-1:] in (",", ";", ":"):
                break
            if len([t for t in picked if t not in ("of", "and", "&")]) >= 4:
                break
            continue
        break
    if expecting_glue and picked:
        picked.pop()  # dangling glue word with no name beyond it
    picked.reverse()
    while picked and picked[0] in ("of", "and", "&"):
        picked.pop(0)
    if not picked or all(t in ("of", "and", "&") for t in picked):
        return None
    return " ".join(picked)


def _scan_forward(text: str, start: int) -> str | None:
    picked: list[str] = []
    for m in re.finditer(r"\S+", text[start:]):
        token = m.group(0)
        clean = token.strip(",;:.()\"'")
        if picked and (clean.lower() in ("of", "and") or clean == "&"):
            picked.append(clean.lower() if clean != "&" else "&")
        elif _is_name_token(token):
            picked.append(clean)
            if len(picked) >= 5:
                break
        else:
            break
        if token != clean and token.rstrip(".")[-1:] in (",", ";", ":"):
            break
    while picked and picked[-1] in ("of", "and", "&"):
        picked.pop()
    return " ".join(picked) if picked else None


def extract_county(text: str) -> str | None:
    """Find the first county reference in the text, if any.

    Recognized forms: ``<Name> Co.``, ``<Name> County``,
    ``County of <Name>``, and ``City of <Name>``. Returns the
    normalized name of the earliest match.
    """
    matches: list[tuple[int, str]] = []

    for m in re.finditer(r"\b(?:county|city)\s+of\s+", text, re.IGNORECASE):
        name = _scan_forward(text, m.end())
        if name:
            matches.append((m.start(), name))

    for m in re.finditer(r"\b(?:co\.|county)(?!\w)", text, re.IGNORECASE):
        if re.match(r"\s+of\b", text[m.end():], re.IGNORECASE):
            continue  # already covered by the "County of" form
        preceding = [(t.start(), t.group(0)) for t in re.finditer(r"\S+", text[: m.start()])]
        name = _scan_back(preceding[-6:])
        if name:
            matches.append((m.start(), name))

    if not matches:
        return None
    matches.sort(key=lambda pair: pair[0])
    return _display_county(matches[0][1])


def predict_county_centroid(text: str, table: CountyCentroidTable) -> tuple[Coordinate, str]:
    """County centroid when a known county is named, else statewide center.

    Total by construction; the provenance flag is "county" or
    "statewide".
    """
    county = extract_county(text)
    if county is not None:
        centroid = table.get(county)
        if centroid is not None:
            return centroid, "county"
    return VIRGINIA_CENTER, "statewide"


def load_abbreviations(path: str | Path | None = None) -> dict[str, str]:
    """Abbreviation table (CSV ``abbrev,expansion``); packaged by default."""
    if path is None:
        with resources.as_file(resources.files("grantgeo.data") / "abbreviations.csv") as p:
            return load_abbreviations(p)
    table: dict[str, str] = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table[row["abbrev"]] = row["expansion"]
    return table


_PACKAGED_ABBREVIATIONS: dict[str, str] | None = None


def _packaged_abbreviations() -> dict[str, str]:
    global _PACKAGED_ABBREVIATIONS
    if _PACKAGED_ABBREVIATIONS is None:
        _PACKAGED_ABBREVIATIONS = load_abbreviations()
    return _PACKAGED_ABBREVIATIONS


def expand_abbreviations(text: str, table: dict[str, str] | None = None) -> str:
    """Expand historical abbreviations at token boundaries.

    A trailing period in the table key is treated as optional in the
    text (OCR often replaces it with other punctuation), and surrounding
    punctuation is preserved.
    """
    table = table if table is not None else _packaged_abbreviations()
    for abbrev in sorted(table, key=len, reverse=True):
        stem = abbrev[:-1] if abbrev.endswith(".") else abbrev
        pattern = rf"\b{re.escape(stem)}\b\.?" if abbrev.endswith(".") else rf"\b{re.escape(stem)}\b"
        text = re.sub(pattern, table[abbrev].replace("\\", "\\\\"), text)
    return text


def heuristic_geoparse(
    text: str,
    resolver: Resolver,
    table: CountyCentroidTable,
    params: HeuristicParams,
) -> tuple[Coordinate, str]:
    """Gazetteer-gated geoparse with county and statewide fallbacks.

    Cleaned text variants are fed to the resolver until one yields
    candidates; candidates outside the margin-expanded Virginia box or
    below the confidence threshold are dropped; the highest-scoring
    survivor within the distance gate of the deed's county centroid
    wins. Without an extractable county the gate is skipped. Falls back
    to the county centroid, then the statewide center.
    """
    expanded = expand_abbreviations(text)
    county = extract_county(text) or extract_county(expanded)
    variants = [text, expanded]
    if county:
        variants.append(f"{expanded}, {county} County, Virginia")

    candidates: list[ResolvedToponym] = []
    for variant in variants:
        candidates = list(resolver(variant))
        if candidates:
            break

    box = VIRGINIA_BBOX.with_margin(params.bbox_margin_deg)
    survivors = [
        c
        for c in candidates
        if c.confidence >= params.confidence_threshold and within_bbox(c.coordinate, box)
    ]
    county_centroid = table.get(county) if county else None
    if survivors:
        survivors.sort(key=lambda c: -c.confidence)
        if county_centroid is None:
            return survivors[0].coordinate, "entity"
        gated = [
            c
            for c in survivors
            if haversine_km(c.coordinate, county_centroid) <= params.distance_gate_km
        ]
        if gated:
            return gated[0].coordinate, "entity"
    if county_centroid is not None:
        return county_centroid, "county"
    return VIRGINIA_CENTER, "statewide"


def tune_heuristic_grid(
    gold: list[GrantAbstract],
    resolver: Resolver,
    table: CountyCentroidTable,
    confidence_grid: Iterable[float],
    margin_grid: Iterable[float],
    gate_grid: Iterable[float] = (25.0, 35.0, 50.0),
) -> HeuristicParams:
    """Exhaustive grid search minimizing mean error on the gold set.

    Ties break to the lexicographically smallest
    (confidence, margin, gate) combination.
    """
    gold = [g for g in gold if g.ground_truth is not None]
    if not gold:
        raise EmptyGold("no gold rows with ground truth")
    grids = (sorted(set(confidence_grid)), sorted(set(margin_grid)), sorted(set(gate_grid)))
    if not all(grids):
        raise ValueError("all three grids must be non-empty")

    best_params: HeuristicParams | None = None
    best_mean = float("inf")
    for conf, margin, gate in itertools.product(*grids):
        params = HeuristicParams(conf, margin, gate)
        errors = [
            haversine_km(heuristic_geoparse(g.text, resolver, table, params)[0], g.ground_truth)
            for g in gold
        ]
        mean = sum(errors) / len(errors)
        if mean < best_mean:
            best_mean = mean
            best_params = params
    return best_params  # type: ignore[return-value]


def _normalize_entity(name: str) -> str:
    name = name.lower().replace("st.", "saint").replace("'s", "")
    return re.sub(r"\s+", " ", re.sub(r"[^\w\s]", " ", name)).strip()


_WORD = re.compile(r"\w+")


class Gazetteer(list):
    """Gazetteer rows in file order, with name indexes built on first lookup.

    A ``list`` of :class:`GazetteerEntry`, so it goes wherever the rows go.
    The indexes make a lookup cost grow with the text, not with the number
    of rows. They hold the rows as they were at the first lookup: build a
    new ``Gazetteer`` rather than editing one that has been searched.
    """

    @classmethod
    def of(cls, rows: Iterable[GazetteerEntry]) -> "Gazetteer":
        return rows if isinstance(rows, cls) else cls(rows)

    @cached_property
    def _entity_index(self) -> tuple[dict[str, list[int]], list[int], int]:
        """Normalized name -> positions of in-box rows; the in-box rows whose
        name normalizes to empty; the longest normalized name, in tokens."""
        by_name: dict[str, list[int]] = {}
        for i, g in enumerate(self):
            if within_bbox(g.coordinate, VIRGINIA_BBOX):
                by_name.setdefault(_normalize_entity(g.name), []).append(i)
        empty = by_name.pop("", [])
        longest = max((name.count(" ") + 1 for name in by_name), default=0)
        return by_name, empty, longest

    def entity_matches(self, entity: str) -> list[GazetteerEntry]:
        """In-box rows whose normalized name is a run of whole tokens of the
        normalized entity, in gazetteer order. A name that normalizes to
        empty matches every entity that does not."""
        ent_norm = _normalize_entity(entity)
        if not ent_norm:
            return []
        by_name, empty, longest = self._entity_index
        tokens = ent_norm.split(" ")
        grams = {
            " ".join(tokens[i : i + n])
            for n in range(1, min(longest, len(tokens)) + 1)
            for i in range(len(tokens) - n + 1)
        }
        hits = sorted(itertools.chain(empty, *(by_name.get(gram, ()) for gram in grams)))
        return [self[i] for i in hits]

    @cached_property
    def _word_index(self) -> tuple[dict[str, list[int]], list[int]]:
        """First word of each lowered name -> row positions; the rows whose
        name does not start with a word character, checked on every text."""
        by_word: dict[str, list[int]] = {}
        always: list[int] = []
        for i, g in enumerate(self):
            m = _WORD.match(g.name.lower())
            if m:
                by_word.setdefault(m.group(0), []).append(i)
            else:
                always.append(i)
        return by_word, always

    def name_matches(self, text: str) -> list[GazetteerEntry]:
        """Rows whose lowered name occurs as whole words in the lowered text,
        in gazetteer order.

        A name that starts with a word character can only match where that
        first word is a whole word of the text, so only those rows are
        checked, and the whole-word pattern is built only for names that
        occur in the text as a substring.
        """
        lowered = text.lower()
        by_word, always = self._word_index
        words = set(_WORD.findall(lowered))
        found = []
        for i in sorted(itertools.chain(always, *(by_word.get(word, ()) for word in words))):
            name = self[i].name.lower()
            if name in lowered and re.search(rf"\b{re.escape(name)}\b", lowered):
                found.append(self[i])
        return found


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Gazetteer CSV: ``name,lat,lon,population,feature_class``."""
    return Gazetteer(_read_csv(path, "gazetteer", _gazetteer_row))


def _gazetteer_row(row: dict) -> GazetteerEntry:
    return GazetteerEntry(
        name=row["name"],
        coordinate=Coordinate(float(row["lat"]), float(row["lon"])),
        population=int(row["population"] or 0),
        feature_class=row["feature_class"],
    )


def packaged_gazetteer() -> Gazetteer:
    with resources.as_file(resources.files("grantgeo.data") / "gazetteer_sample.csv") as p:
        return load_gazetteer(p)


def default_entity_extractor(text: str) -> list[str]:
    """Capitalized-phrase scanner used when no NER engine is plugged in."""
    phrases = []
    for m in re.finditer(r"\b[A-Z][a-zA-Z'.]*(?:\s+(?:of\s+)?[A-Z][a-zA-Z'.]*)*", text):
        phrase = m.group(0).strip()
        if len(phrase) > 2 and phrase.lower() not in _NAME_STOPWORDS:
            phrases.append(phrase)
    seen = set()
    unique = []
    for p in phrases:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def predict_ner_pipeline(
    text: str,
    extractor: Extractor,
    gazetteer: list[GazetteerEntry],
    table: CountyCentroidTable,
) -> tuple[Coordinate, str]:
    """Entity extraction, Virginia-restricted lookup, population ranking.

    All candidates matching any extracted entity compete; the most
    populous wins (ties to the lexicographically first name). Falls back
    to the county centroid, then the statewide center, so coverage is
    total. Entities match as in :meth:`Gazetteer.entity_matches`.
    """
    gazetteer = Gazetteer.of(gazetteer)
    candidates = [g for entity in extractor(text) for g in gazetteer.entity_matches(entity)]
    if candidates:
        best = min(candidates, key=lambda g: (-g.population, g.name))
        return best.coordinate, "entity"
    return predict_county_centroid(text, table)


def gazetteer_resolver(gazetteer: list[GazetteerEntry], confidence: float = 1.0) -> Resolver:
    """Resolver finding gazetteer names as whole-word matches (see
    :meth:`Gazetteer.name_matches`)."""
    gazetteer = Gazetteer.of(gazetteer)

    def resolve(text: str) -> list[ResolvedToponym]:
        return [ResolvedToponym(g.name, g.coordinate, confidence) for g in gazetteer.name_matches(text)]

    return resolve
