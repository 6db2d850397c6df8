"""Deterministic comparison methods.

Three baselines share a fallback ladder ending at Virginia's geographic
center, so every input text yields a coordinate: a county-centroid
lookup, a gazetteer-gated heuristic geoparser, and an entity-extraction
pipeline with population-weighted ranking. Entity resolution engines are
pluggable; the package ships a capitalized-phrase scanner and CSV-backed
gazetteers as defaults. A :class:`Gazetteer` is an immutable sequence
whose entries are built on access: it holds checked rows, and builds a
:class:`GazetteerEntry` only for the rows a lookup returns.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .corpus import DuplicateId, read_csv
from .geo import Coordinate, VIRGINIA_BBOX, check_coordinate, haversine_km, is_real, within_bbox

VIRGINIA_CENTER = Coordinate(37.4316, -78.6569)
"""Statewide fallback: Virginia's geographic center."""


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
    return re.sub(r"\s+", " ", name.strip()).replace("&", "and").lower()


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


def _county_row(county: str, lat: str, lon: str) -> tuple[str, Coordinate]:
    coordinate = Coordinate(float(lat), float(lon))
    if not within_bbox(coordinate, VIRGINIA_BBOX):
        raise ValueError(f"county {county!r} centroid outside the Virginia box")
    return county, coordinate


def _read_table(path: str | Path, columns: list[str], parse: Callable, key: Callable[[str], str] = str) -> dict:
    """``parse``'s ``(key, value)`` pair of each row, as a dict; a key repeated after ``key`` is DuplicateId."""
    table: dict = {}
    for k, v in read_csv(path, ",".join(columns), parse, columns):
        if key(k) in table:
            raise DuplicateId(f"{path}: duplicate {columns[0]} {k!r}")
        table[key(k)] = v
    return table


class CountyCentroidTable:
    """Name-to-centroid lookup over historic and modern Virginia counties."""

    def __init__(self, entries: dict[str, Coordinate]):
        self._entries = {_normalize_county(k): v for k, v in entries.items()}

    @classmethod
    def from_csv(cls, path: str | Path) -> "CountyCentroidTable":
        """The table in a ``county,lat,lon`` CSV, each centroid inside the Virginia box; a county
        named twice, compared as :meth:`get` compares names, is DuplicateId."""
        return cls(_read_table(path, ["county", "lat", "lon"], _county_row, _normalize_county))

    @classmethod
    def packaged(cls) -> "CountyCentroidTable":
        with resources.as_file(resources.files("grantgeo.data") / "va_county_centroids.csv") as p:
            return cls.from_csv(p)

    def get(self, name: str) -> Coordinate | None:
        return self._entries.get(_normalize_county(name))

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


def _scan_back(tokens: list[str]) -> str | None:
    """Collect up to four name tokens walking backwards from a suffix."""
    picked: list[str] = []
    expecting_glue = False
    for token in reversed(tokens):
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


_TOKEN = re.compile(r"\S+")


def _scan_forward(text: str, start: int) -> str | None:
    picked: list[str] = []
    for m in _TOKEN.finditer(text, start):
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


# The county forms as re.IGNORECASE spells them, case-sensitive: "İ" and
# "ı" are the only code points that fold onto these letters besides their
# own two cases. Every alternative starts with the literal "c" and checks
# the word boundary before it by a lookbehind, so the search skips to the
# characters that can start a form. "County of" / "City of" set group "of".
_COUNTY_FORM = re.compile(
    r"[Cc](?<=\b[Cc])(?:(?P<of>(?:[Oo][Uu][Nn][Tt][Yy]|[Iiİı][Tt][Yy])\s+[Oo][Ff]\s+)"
    r"|(?:[Oo]\.|[Oo][Uu][Nn][Tt][Yy])(?!\w))"
)
_OFNEXT = re.compile(r"\s+of\b", re.IGNORECASE)


def extract_county(text: str) -> str | None:
    """Find the first county reference in the text, if any.

    Recognized forms, in any case: ``<Name> Co.``, ``<Name> County``,
    ``County of <Name>``, and ``City of <Name>``. A form followed by "of"
    is a suffix when a name token with no trailing punctuation stands just
    before it (``Henrico Co. of Virginia``); else only ``County of`` and
    ``City of`` name what follows. Returns the name of the earliest match
    in display form (``"King and Queen"``), not normalized.
    """
    for m in _COUNTY_FORM.finditer(text):
        before = text[: m.start()].rsplit(None, 6)[-6:]
        if not (m["of"] or _OFNEXT.match(text, m.end())) or (before and _is_bare_name(before[-1])):
            name = _scan_back(before)
        elif m["of"]:
            name = _scan_forward(text, m.end())
        else:
            continue  # "the Co. of ...": no name on either side
        if name:
            return _display_county(name)
    return None


def _is_bare_name(token: str) -> bool:
    """A name token with no trailing punctuation, so no clause boundary after it."""
    return _is_name_token(token) and token[-1] not in ",;:.()\"'"


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
    """Abbreviation table (CSV ``abbrev,expansion``), packaged by default; a bad row is MalformedRow,
    a repeated key DuplicateId."""
    if path is None:
        with resources.as_file(resources.files("grantgeo.data") / "abbreviations.csv") as p:
            return load_abbreviations(p)
    return _read_table(path, ["abbrev", "expansion"], _abbreviation_row)


def _abbreviation_row(abbrev: str, expansion: str) -> tuple[str, str]:
    _stem(abbrev)
    return abbrev, expansion


def _stem(key: str) -> str:
    """The part of an abbreviation the text must hold; an empty one would match at every word boundary."""
    stem = key.removesuffix(".")
    if not stem:
        raise ValueError(f"abbreviation {key!r} is empty or a bare period")
    return stem


def _abbreviation_expander(table: dict[str, str]) -> Callable[[str], str]:
    """One alternation, longest key first; the group in each alternative
    tells which key matched. The word boundary before a key is checked
    after its first character, so every alternative starts with a literal
    and the search skips to the characters that can start a key.
    """
    keys = sorted(table, key=len, reverse=True)
    alternatives = []
    for key in keys:
        stem = _stem(key)
        first = re.escape(stem[0])
        alternatives.append(rf"{first}(?<=\b{first})({re.escape(stem[1:])})\b" + (r"\.?" if key.endswith(".") else ""))
    pattern = re.compile("|".join(alternatives) or "(?!)")  # an empty table matches nowhere
    expansions = [table[key] for key in keys]
    return partial(pattern.sub, lambda m: expansions[m.lastindex - 1])


@cache
def _packaged_expander() -> Callable[[str], str]:
    return _abbreviation_expander(load_abbreviations())


def expand_abbreviations(text: str, table: dict[str, str] | None = None) -> str:
    """Expand historical abbreviations at token boundaries, in one pass.

    A trailing period in the table key is treated as optional in the
    text (OCR often replaces it with other punctuation), and surrounding
    punctuation is preserved. The longest key matching at a position is
    replaced there; an expansion is inserted verbatim, never expanded again.
    A key that is empty or a bare period is a ValueError.
    """
    return (_packaged_expander() if table is None else _abbreviation_expander(table))(text)


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
    county = extract_county(text)
    candidates = list(resolver(text))
    if not (county and candidates):  # only then can the expanded text change the answer
        expanded = expand_abbreviations(text)
        county = county or extract_county(expanded)
        variants = [expanded, f"{expanded}, {county} County, Virginia"] if county else [expanded]
        for variant in variants:
            if candidates:
                break
            candidates = list(resolver(variant))

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


_PUNCTUATION = re.compile(r"[^\w\s]")
_SAINT = re.compile(r"\bst\.")


def _normalize_entity(name: str) -> str:
    """Lowered, with "st." at a word start read as "saint" ("St. Paul's" but
    not "Forest."), "'s" dropped, and punctuation and runs of space as one space.
    A rule that can change a name's first word must be matched by ``_LEAD`` too."""
    name = name.lower()
    if "st." in name:  # most names hold none, and the regex would slow every one
        name = _SAINT.sub("saint", name)
    name = name.replace("'s", "")
    return " ".join(_PUNCTUATION.sub(" ", name).split())  # str.split() splits where \s+ matches


_WORD = re.compile(r"\w+")
# A lowered name's first word, then the "'" or the "." of a leading "st." after it, which
# "'s" removal or the "saint" reading can join to that word or replace it by another.
_LEAD = re.compile(r"(\w+)('|(?<=^st)\.)?")
# A name holding one of these normalizes to a nonempty name: every word character but "s" and "S"
# lowers to a word character that "'s" removal leaves.
_NOT_S_WORD = re.compile(r"[^\WsS]")

GazetteerRow = tuple[str, float, float, int, str]
"""``(name, lat, lon, population, feature_class)``, the coordinate checked."""


class Gazetteer(Sequence):
    """Gazetteer rows in file order, read-only, with one name index built on first lookup.

    A sequence of :class:`GazetteerEntry` that holds each row as a plain
    :data:`GazetteerRow`: ``gazetteer[i]`` builds that row's entry on first
    access and keeps it, so ``gazetteer[i] is gazetteer[i]``, and only the
    rows a lookup returns are ever built. ``Gazetteer(entries)`` keeps the
    entries it is given. One name index, from each lowered name's first
    word to its rows, serves both lookups, so their cost grows with the
    text (a name lookup's with the smaller of the text and the gazetteer's
    distinct first words), not with the number of rows. An entity lookup
    normalizes only the rows filed under its tokens, each once per
    gazetteer, looks each run of its tokens up among their names, and
    remembers each distinct entity's matches.
    """

    def __init__(self, entries: Iterable[GazetteerEntry] = ()):
        self._entries: list[GazetteerEntry | None] = list(entries)
        self._rows: tuple[GazetteerRow, ...] = tuple(
            (g.name, g.coordinate.lat, g.coordinate.lon, g.population, g.feature_class) for g in self._entries
        )

    @classmethod
    def _of_rows(cls, rows: Iterable[GazetteerRow]) -> "Gazetteer":
        gazetteer = cls()
        gazetteer._rows = tuple(rows)
        gazetteer._entries = [None] * len(gazetteer._rows)
        return gazetteer

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._rows)))]
        entry = self._entries[i]
        if entry is None:
            name, lat, lon, population, feature_class = self._rows[i]
            entry = self._entries[i] = GazetteerEntry(name, Coordinate(lat, lon), population, feature_class)
        return entry

    def _normalized(self, i: int) -> str | None:
        """Row ``i``'s normalized name, or None outside the Virginia box (no margin)."""
        name, lat, lon = self._rows[i][:3]
        return _normalize_entity(name) if within_bbox(Coordinate(lat, lon), VIRGINIA_BBOX) else None

    @cached_property
    def _entity_index(self) -> tuple[dict[str, list[int]], dict[int, str | None], dict[str, tuple[dict, int]], dict]:
        """The in-box rows whose first normalized token may differ from their first word, by that
        token ("" for a name that normalizes to empty), with each such row's normalized name; token ->
        its candidates' normalized names, each to its positions, and the most tokens in one; and
        entity -> positions of its matches; the last two filled in as tokens and entities are seen."""
        _, always, _, _, odd = self._word_index
        norms = {i: self._normalized(i) for i in itertools.chain(always, odd)}
        by_token: dict[str, list[int]] = {}
        for i, norm in norms.items():
            if norm is not None:
                by_token.setdefault(norm.partition(" ")[0], []).append(i)
        return by_token, norms, {}, {}

    def entity_matches(self, entity: str) -> list[GazetteerEntry]:
        """In-box rows whose normalized name is a run of whole tokens of the normalized entity, in
        gazetteer order. A name that normalizes to empty matches every entity that does not. A token's
        candidates, the rows whose first normalized token it is or may be (see :meth:`_word_index`),
        are normalized when the token is first seen."""
        by_token, norms, led, memo = self._entity_index
        if entity not in memo:
            tokens = _normalize_entity(entity).split()
            found = set(by_token.get("", ()) if tokens else ())
            for p, token in enumerate(tokens):
                if token not in led:
                    names: dict[str, list[int]] = {}
                    for i in itertools.chain(self._word_index[0].get(token, ()), by_token.get(token, ())):
                        if (norm := norms[i] if i in norms else self._normalized(i)) is not None:
                            names.setdefault(norm, []).append(i)
                    led[token] = names, max((name.count(" ") + 1 for name in names), default=0)
                names, longest = led[token]
                for k in range(p + 1, min(p + longest, len(tokens)) + 1):
                    found.update(names.get(" ".join(tokens[p:k]), ()))
            memo[entity] = sorted(found)
        return [self[i] for i in memo[entity]]

    @cached_property
    def _word_index(self) -> tuple[dict[str, list[int]], list[int], list[str], list[re.Pattern | None], list[int]]:
        """First word of each lowered name -> row positions; the rows whose
        name does not start with a word character, checked on every text;
        each row's lowered name; each row's whole-word pattern, compiled
        the first time the row is a candidate; and the other rows whose
        first word is followed by "'", or is "st" followed by "."."""
        lowered = [row[0].lower() for row in self._rows]
        by_word: dict[str, list[int]] = {}
        always: list[int] = []
        odd: list[int] = []
        for i, name in enumerate(lowered):
            m = _LEAD.match(name)
            if m:
                by_word.setdefault(m[1], []).append(i)
                if m[2]:
                    odd.append(i)
            else:
                always.append(i)
        return by_word, always, lowered, [None] * len(lowered), odd

    def name_matches(self, text: str) -> list[GazetteerEntry]:
        """Rows whose lowered name occurs as whole words in the lowered text,
        neither preceded nor followed by a word character, in gazetteer order:
        ``Mill Cr.`` is found in "on mill cr. and", ``(Old) Mill`` in "the (old) mill".

        A name that starts with a word character can only match where that
        first word is a whole word of the text, so only those rows are
        checked. The first words come from the smaller side: a gazetteer with
        few of them for the text's length looks each up as a substring of the
        text (a superset of the whole words), else the text's words are looked
        up in the index. A candidate's pattern is tried only when its name
        occurs in the text as a substring.
        """
        lowered = text.lower()
        by_word, always, names, patterns, _ = self._word_index
        if len(by_word) * 8 < len(lowered):
            hits = (rows for word, rows in by_word.items() if word in lowered)
        else:
            hits = (by_word[word] for word in by_word.keys() & _WORD.findall(lowered))
        found = []
        for i in sorted(itertools.chain(always, *hits)):
            name = names[i]
            if name in lowered:
                pattern = patterns[i]
                if pattern is None:  # led by the first character, checked for a word character before it
                    first = re.escape(name[:1])
                    pattern = patterns[i] = re.compile(rf"{first}(?<!\w{first}){re.escape(name[1:])}(?!\w)")
                if pattern.search(lowered):
                    found.append(self[i])
        return found


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Gazetteer CSV: ``name,lat,lon,population,feature_class``. A row whose
    coordinate is not a real latitude and longitude, or whose name normalizes
    to empty (and so would match every entity), is MalformedRow."""
    columns = ["name", "lat", "lon", "population", "feature_class"]
    return Gazetteer._of_rows(read_csv(path, "gazetteer", _gazetteer_row, columns))


def _gazetteer_row(name: str, lat: str, lon: str, population: str, feature_class: str) -> GazetteerRow:
    coordinate = float(lat), float(lon)
    check_coordinate(*coordinate)
    parsed = name, *coordinate, int(population or 0), feature_class
    if parsed[3] < 0:
        raise ValueError(f"population {parsed[3]} is negative")
    if not _NOT_S_WORD.search(name) and not _normalize_entity(name):
        raise ValueError(f"name {name!r} has no word to match")
    return parsed


def packaged_gazetteer() -> Gazetteer:
    with resources.as_file(resources.files("grantgeo.data") / "gazetteer_sample.csv") as p:
        return load_gazetteer(p)


# The word boundary is checked after the capital, so the search skips to capitals.
_PHRASE = re.compile(r"[A-Z](?<=\b[A-Z])[a-zA-Z'.]*(?:\s+(?:of\s+)?[A-Z][a-zA-Z'.]*)*")


def default_entity_extractor(text: str) -> list[str]:
    """Capitalized-phrase scanner used when no NER engine is plugged in."""
    return list(dict.fromkeys(p for p in _PHRASE.findall(text) if len(p) > 2 and p.lower() not in _NAME_STOPWORDS))


def predict_ner_pipeline(
    text: str,
    extractor: Extractor,
    gazetteer: Gazetteer,
    table: CountyCentroidTable,
) -> tuple[Coordinate, str]:
    """Entity extraction, Virginia-restricted lookup, population ranking.

    All candidates matching any extracted entity compete; the most
    populous wins (ties to the lexicographically first name). Falls back
    to the county centroid, then the statewide center, so coverage is
    total. Entities match as in :meth:`Gazetteer.entity_matches`.
    """
    candidates = [g for entity in extractor(text) for g in gazetteer.entity_matches(entity)]
    if candidates:
        best = min(candidates, key=lambda g: (-g.population, g.name))
        return best.coordinate, "entity"
    return predict_county_centroid(text, table)


def gazetteer_resolver(gazetteer: Gazetteer) -> Resolver:
    """Resolver finding gazetteer names as whole-word matches (see
    :meth:`Gazetteer.name_matches`), each at confidence 1."""

    def resolve(text: str) -> list[ResolvedToponym]:
        return [ResolvedToponym(g.name, g.coordinate, 1.0) for g in gazetteer.name_matches(text)]

    return resolve
