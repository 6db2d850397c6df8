"""Tool-augmented interaction loop.

The model converses under a fixed system prompt and may call two tools:
a Virginia-restricted geocoder and a spherical-centroid helper. The loop
validates every call against the JSON-Schema catalog, enforces the tool
budget, and keeps a full trace so runs can be audited and replayed.

Calls are checked in-package against the subset of JSON Schema 2020-12
the catalog uses: ``type`` (object, array, string, number), ``properties``,
``required``, ``enum``, ``minItems`` and ``items``, extra properties
allowed; the tests check that the catalog uses nothing else. Of several
violations, the one reported is at the fewest path elements, then at the
greatest path, then first in schema keyword order: the choice, and the
wording, of ``jsonschema.validate``.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import GrantAbstract, MalformedRow, write_jsonl
from .gateway import (
    BACKEND_ERRORS,
    ChatMessage,
    ModelConfig,
    GEOCODER_API_KEY_ENV,
    PriceTable,
    DEFAULT_PRICES,
    TokenUsage,
    ToolCallRequest,
    call_cost,
)
from .geo import (
    Coordinate,
    UnparseableCoordinate,
    VIRGINIA_BBOX,
    is_int,
    is_real,
    parse_coordinate_text,
    spherical_centroid,
    within_bbox,
)
from .prompts import FINAL_NUDGE, TOOL_SYSTEM_PROMPT
from .runners import Prediction, ToolCallRecord

GEOCODE_STRATEGIES = ("natural_feature", "restricted_va", "standard_va", "county_fallback")
DEFAULT_STRATEGY = "standard_va"
GEOCODE_TIMEOUT_S = 30.0
"""Seconds a live geocoding request may take before it is a ProviderError."""

# Wire-format tool catalog; fixtures and live runs share these documents.
GEOCODE_PLACE_SCHEMA = {
    "type": "function",
    "name": "geocode_place",
    "description": "Resolve a place description to coordinates.",
    "parameters": {
        "type": "object",
        "properties": {
            "query": {
                "type": "string",
                "description": "Free-form geocoding query, e.g. 'Blackwater River, Isle of Wight County'.",
            },
            "strategy": {
                "type": "string",
                "enum": list(GEOCODE_STRATEGIES),
                "description": "Search heuristic controlling how the backend constructs variant queries.",
            },
        },
        "required": ["query"],
    },
}

COMPUTE_CENTROID_SCHEMA = {
    "type": "function",
    "name": "compute_centroid",
    "description": "Return the centroid (average lat/lng) of two or more coordinate points.",
    "parameters": {
        "type": "object",
        "properties": {
            "points": {
                "type": "array",
                "minItems": 2,
                "items": {
                    "type": "object",
                    "properties": {"lat": {"type": "number"}, "lng": {"type": "number"}},
                    "required": ["lat", "lng"],
                },
            }
        },
        "required": ["points"],
    },
}

TOOL_CATALOG = [GEOCODE_PLACE_SCHEMA, COMPUTE_CENTROID_SCHEMA]
_TOOL_PARAMETERS = {tool["name"]: tool["parameters"] for tool in TOOL_CATALOG}
"""The parameter schema of each catalog entry, by tool name."""


class ArgumentInvalid(ValueError):
    """Unknown tool or arguments violating the tool schema."""


class NotFound(LookupError):
    """Geocoding produced no candidate inside Virginia."""


class ProviderError(RuntimeError):
    """The geocoding provider failed."""


@dataclass(frozen=True)
class AgentBudget:
    max_tool_calls: int = 10
    max_geocode_failures: int = 6

    def __post_init__(self):
        if not all(is_int(v) and v >= 1 for v in (self.max_tool_calls, self.max_geocode_failures)):
            raise ValueError("budget fields must be positive integers")


GEOCODE_FIELDS = ("lat", "lng", "formatted_address", "strategy", "query_used")
"""The fields of a geocode result, in the order every payload holds them so cache replay is byte-identical."""


# The JSON types a schema may name; as in JSON, a bool is no number.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _schema_errors(schema: dict, instance, path: tuple = ()):
    """Yield (path, message) for each violation of ``schema``, keywords in schema order."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            # bool is an int in Python but not in JSON: True never matches 1.
            if not any(isinstance(v, bool) == isinstance(instance, bool) and v == instance for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif isinstance(instance, dict):
            if key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _schema_errors(sub, instance[name], path + (name,))
            elif key == "required":
                for name in value:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
        elif isinstance(instance, list):
            if key == "minItems" and len(instance) < value:
                yield path, f"{instance!r} " + ("should be non-empty" if value == 1 else "is too short")
            elif key == "items":
                for index, item in enumerate(instance):
                    yield from _schema_errors(value, item, path + (index,))


def validate_tool_call(request: ToolCallRequest) -> dict:
    """The arguments if they satisfy the tool's schema (see the module docstring), else ArgumentInvalid."""
    schema = _TOOL_PARAMETERS.get(request.name)
    if schema is None:
        raise ArgumentInvalid(f"unknown tool {request.name!r}")
    # max keeps the first of equal keys: a tie goes to the earlier keyword.
    error = max(_schema_errors(schema, request.arguments), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise ArgumentInvalid(error[1])
    return request.arguments


class Geocoder:
    """Virginia-restricted geocoding with a persistent cache.

    The cache, keyed by (query, strategy), is consulted before the
    provider and persists as JSONL so recorded lookups replay forever.
    Candidates outside the Virginia box are discarded; a discarded or
    empty lookup is cached as null. Safe for concurrent readers;
    provider calls and cache writes are serialized. A final line torn by
    an interrupted append is skipped; any other bad line, or a cached
    result that is not a geocode result, is MalformedRow.
    """

    def __init__(self, provider=None, cache_path: str | Path | None = None):
        self._provider = provider
        self._cache_path = Path(cache_path) if cache_path else None
        self._cache: dict[tuple[str, str], dict | None] = {}
        self._lock = threading.Lock()
        # (offset, prefix) for the next append when the file does not end in
        # a newline: cut a torn final line off, or terminate an intact one.
        self._tail_fix: tuple[int, bytes] | None = None
        if self._cache_path and self._cache_path.exists():
            self._load_cache()

    def _load_cache(self) -> None:
        data = self._cache_path.read_bytes()
        lines = data.split(b"\n")  # the last item is whatever follows the final newline
        offset = 0
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                final = lineno == len(lines)
                try:
                    entry = json.loads(line.decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError is one too
                    if not final:
                        raise MalformedRow(f"{self._cache_path}:{lineno}: {exc}") from exc
                    self._tail_fix = (offset, b"")  # an interrupted append: skip the fragment
                    break
                try:
                    self._cache[(entry["query"], entry["strategy"])] = entry["result"]
                except (KeyError, TypeError) as exc:
                    raise MalformedRow(f"{self._cache_path}:{lineno}: bad cache entry ({exc!r})") from exc
                if final:
                    self._tail_fix = (len(data), b"\n")
            offset += len(line) + 1

    def lookup(self, query: str, strategy: str | None = None) -> dict:
        """The geocode result for ``query``: a new dict of the GEOCODE_FIELDS, in that order."""
        if not query:
            raise ArgumentInvalid("empty geocode query")
        strategy = strategy or DEFAULT_STRATEGY
        key = (query, strategy)
        if key in self._cache:
            cached = self._cache[key]
            if cached is None:
                raise NotFound(f"no Virginia result for {query!r} (cached)")
            try:
                if not (isinstance(cached, dict) and cached.keys() == set(GEOCODE_FIELDS)):
                    raise TypeError(f"fields are not {', '.join(GEOCODE_FIELDS)}")
                result = {name: cached[name] for name in GEOCODE_FIELDS}
                inside = within_bbox(Coordinate(result["lat"], result["lng"]), VIRGINIA_BBOX)
            except (TypeError, ValueError) as exc:
                raise MalformedRow(f"{self._cache_path}: bad cached result for {query!r} ({exc})") from exc
            # The box filter also guards hand-edited cache files.
            if not inside:
                raise NotFound(f"cached result for {query!r} lies outside Virginia")
            return result

        if self._provider is None:
            # Offline replay: a cache miss means the recording lacks this
            # query. Do not poison the cache with a synthetic miss.
            raise NotFound(f"no cached result for {query!r} and no live provider")

        with self._lock:
            candidate = self._provider.geocode(query, strategy)
            result = None
            if candidate is not None:
                coord = Coordinate(float(candidate["lat"]), float(candidate["lng"]))
                if within_bbox(coord, VIRGINIA_BBOX):
                    result = {
                        "lat": coord.lat,
                        "lng": coord.lon,
                        "formatted_address": candidate.get("formatted_address", ""),
                        "strategy": strategy,
                        "query_used": candidate.get("query_used", query),
                    }
            self._cache[key] = result
            self._persist(query, strategy, result)
        if result is None:
            raise NotFound(f"no Virginia result for {query!r}")
        return dict(result)

    def _persist(self, query: str, strategy: str, result: dict | None) -> None:
        if self._cache_path is None:
            return
        with self._cache_path.open("ab") as fh:
            if self._tail_fix is not None:
                offset, prefix = self._tail_fix
                fh.truncate(offset)
                fh.write(prefix)
                self._tail_fix = None
            fh.write(json.dumps({"query": query, "strategy": strategy, "result": result}).encode("utf-8") + b"\n")


class GoogleGeocodeProvider:
    """Live geocoding provider (optional; offline runs use the cache).

    Queries are restricted with ``components=administrative_area:VA``;
    the strategy value selects how the query string is constructed:

    - natural_feature: query plus ", Virginia", preferring feature hits
    - restricted_va: bare query with the VA component filter only
    - standard_va: query plus ", Virginia, USA"
    - county_fallback: only the trailing "<name> County" part of the query
    """

    ENDPOINT = "https://maps.googleapis.com/maps/api/geocode/json"

    def __init__(self, api_key: str | None = None):
        import os

        self.api_key = api_key if api_key is not None else os.environ.get(GEOCODER_API_KEY_ENV)

    def _build_query(self, query: str, strategy: str) -> str:
        if strategy == "natural_feature":
            return f"{query}, Virginia"
        if strategy == "standard_va":
            return f"{query}, Virginia, USA"
        if strategy == "county_fallback":
            m = re.search(r"([A-Za-z'& ]+County)", query)
            return m.group(1) if m else query
        return query  # restricted_va

    def geocode(self, query: str, strategy: str) -> dict | None:
        import requests

        if not self.api_key:
            raise ProviderError(f"{GEOCODER_API_KEY_ENV} is not set")
        params = {
            "address": self._build_query(query, strategy),
            "components": "administrative_area:VA|country:US",
            "key": self.api_key,
        }
        try:
            resp = requests.get(self.ENDPOINT, params=params, timeout=GEOCODE_TIMEOUT_S)
        except requests.RequestException as exc:
            raise ProviderError(str(exc)) from exc
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}")
        try:
            return self._parse(resp.json(), params["address"])
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:  # a 200 off the wire format
            raise ProviderError(f"malformed response: {type(exc).__name__}: {exc}") from exc

    @staticmethod
    def _parse(data: dict, query_used: str) -> dict | None:
        """The top result of a Geocoding API reply, or None for ZERO_RESULTS; any other status
        (a bad key, a quota) is a ProviderError, so that it is never cached as "not found"."""
        status = data["status"]
        if status == "ZERO_RESULTS":
            return None
        if status != "OK":
            raise ProviderError(f"status {status}: {data.get('error_message', 'no error_message')}")
        top = data["results"][0]
        location, address = top["geometry"]["location"], top.get("formatted_address", "")
        lat, lng = location["lat"], location["lng"]
        if not (is_real(lat) and is_real(lng) and isinstance(address, str)):
            raise TypeError(f"location {lat!r}, {lng!r} or formatted_address {address!r} of the wrong type")
        Coordinate(lat, lng)  # on the globe, else ValueError
        return {"lat": lat, "lng": lng, "formatted_address": address, "query_used": query_used}


def write_geocode_cache(path: str | Path, entries: list[dict]) -> None:
    """Write cache entries ({query, strategy, result|None}) as JSONL."""
    records = (
        {"query": e["query"], "strategy": e.get("strategy", DEFAULT_STRATEGY), "result": e.get("result")}
        for e in entries
    )
    write_jsonl(path, records)


def handle_compute_centroid(points: list[dict]) -> dict:
    """Dispatch target for compute_centroid; returns {"lat", "lng"}.

    Results carry 8 fractional digits, matching the wire rendering.
    """
    validate_tool_call(ToolCallRequest("compute_centroid", {"points": points}))
    try:
        centroid = spherical_centroid([Coordinate(float(p["lat"]), float(p["lng"])) for p in points])
    except ValueError as exc:  # a point off the globe, or points with no defined mean such as antipodes
        raise ArgumentInvalid(str(exc)) from exc
    return {"lat": round(centroid.lat, 8), "lng": round(centroid.lon, 8)}


def _render_tool_result(payload: dict) -> str:
    """Serialize a tool result; coordinate fields keep 8 fractional digits."""
    parts = []
    for key, value in payload.items():
        if key in ("lat", "lng") and isinstance(value, (int, float)):
            parts.append(f'"{key}": {value:.8f}')
        else:
            parts.append(f'"{key}": {json.dumps(value)}')
    return "{" + ", ".join(parts) + "}"


def run_tool_chain(
    backend,
    geocoder: Geocoder,
    cfg: ModelConfig,
    grant: GrantAbstract,
    budget: AgentBudget = AgentBudget(),
    method_id: str = "tool-chain",
    prices: PriceTable = DEFAULT_PRICES,
) -> Prediction:
    """Run the full call-observe-reflect loop for one grant.

    Tool-call responses are validated, dispatched, and appended to the
    conversation; text responses are parsed as decimal coordinates and
    end the loop. Once the budget is spent, further calls are refused
    and a single user nudge asks for final coordinates; anything but a
    parseable answer after that fails the Prediction.
    """
    messages = [ChatMessage("system", TOOL_SYSTEM_PROMPT), ChatMessage("user", grant.text)]
    trace: list[ToolCallRecord] = []
    usage_total = TokenUsage()
    geocode_failures = 0
    nudged = False
    coordinate: Coordinate | None = None
    raw = ""
    reason: str | None = None

    while True:
        try:
            response, usage = backend.complete(cfg, messages, tools=TOOL_CATALOG)
        except BACKEND_ERRORS as exc:
            reason = f"{type(exc).__name__}: {exc}"
            break
        usage_total = usage_total + usage

        if response.text is not None:
            raw = response.text
            try:
                coordinate = parse_coordinate_text(response.text)
            except UnparseableCoordinate:
                reason = "Unparseable"
            break

        request = response.tool_call
        messages.append(ChatMessage("assistant", json.dumps({"tool_call": request.name, "arguments": request.arguments})))

        if len(trace) >= budget.max_tool_calls:
            if nudged:
                reason = "BudgetExhausted"
                break
            messages.append(ChatMessage("user", FINAL_NUDGE))
            nudged = True
            continue

        record = ToolCallRecord(turn_index=len(trace) + 1, tool_name=request.name, arguments=dict(request.arguments))
        try:
            args = validate_tool_call(request)
            if request.name == "geocode_place":
                if geocode_failures >= budget.max_geocode_failures:
                    record.result = {"error": "geocode failure budget exhausted; finalize your answer"}
                else:
                    try:
                        record.result = geocoder.lookup(args["query"], args.get("strategy"))
                    except NotFound as exc:
                        geocode_failures += 1
                        record.result = {"error": f"not found: {exc}"}
                    except ProviderError as exc:
                        geocode_failures += 1
                        record.result = {"error": f"provider error: {exc}"}
            else:  # compute_centroid (only other catalog entry)
                record.result = handle_compute_centroid(args["points"])
        except ArgumentInvalid as exc:
            record.result = {"error": f"invalid arguments: {exc}"}
        trace.append(record)
        messages.append(ChatMessage("tool", _render_tool_result(record.result)))

    if coordinate is not None:
        _mark_selected(trace, coordinate)
    return Prediction.of(
        method_id,
        grant,
        coordinate,
        usage=usage_total,
        cost_usd=call_cost(usage_total, *prices.lookup(cfg.model_id)),
        tool_calls=trace,
        raw_response=raw,
        reason=reason,
    )


_SELECT_TOL_DEG = 1e-6


def _result_latlng(record: ToolCallRecord) -> tuple[float, float] | None:
    result = record.result
    if "lat" in result and "lng" in result:
        return float(result["lat"]), float(result["lng"])
    return None


def _close(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return abs(a[0] - b[0]) <= _SELECT_TOL_DEG and abs(a[1] - b[1]) <= _SELECT_TOL_DEG


def _mark_selected(trace: list[ToolCallRecord], final: Coordinate) -> None:
    """Mark the tool call whose coordinates back the final answer.

    Preference order: the earliest geocode call matching the answer
    directly or feeding a centroid call that produced it, else the
    earliest matching centroid call. If nothing matches, selected stays
    unset everywhere.
    """
    target = (final.lat, final.lon)
    feeder_points: list[tuple[float, float]] = []
    answering_centroids: list[ToolCallRecord] = []
    for record in trace:
        if record.tool_name != "compute_centroid":
            continue
        coords = _result_latlng(record)
        if coords is not None and _close(coords, target):
            answering_centroids.append(record)
            for p in record.arguments.get("points", []):
                feeder_points.append((float(p["lat"]), float(p["lng"])))

    for record in trace:
        if record.tool_name != "geocode_place":
            continue
        coords = _result_latlng(record)
        if coords is None:
            continue
        if _close(coords, target) or any(_close(coords, fp) for fp in feeder_points):
            record.selected = True
            return
    if answering_centroids:
        answering_centroids[0].selected = True


@dataclass
class ToolUsageStats:
    """One method's tool usage over its traced predictions."""

    calls_per_entry_mean: float
    geocode_centroid_ratio: float | None
    first_call_success_rate: float | None
    mean_selected_index: float | None


def trace_statistics(predictions: Iterable[Prediction]) -> ToolUsageStats:
    """Summarize the tool usage of one method's predictions, read in one pass,
    so a generator serves as well as a list; of no predictions, every mean is
    0 or None.

    Covers the mean calls per entry, the geocode:centroid ratio, the
    first-call success rate (selected call is the entry's first geocode
    call), and the mean selected call index.
    """
    entries = calls = total_geo = total_cent = traced = first_call_hits = selected = selected_sum = 0
    for p in predictions:
        trace = p.run.tool_calls
        entries += 1
        if not trace:
            continue
        traced += 1
        calls += len(trace)
        geocodes = [r.turn_index for r in trace if r.tool_name == "geocode_place"]
        total_geo += len(geocodes)
        total_cent += sum(r.tool_name == "compute_centroid" for r in trace)
        chosen = next((r.turn_index for r in trace if r.selected), None)
        if chosen is not None:
            selected += 1
            selected_sum += chosen
            if geocodes and chosen == geocodes[0]:
                first_call_hits += 1

    return ToolUsageStats(
        calls_per_entry_mean=calls / entries if entries else 0.0,
        geocode_centroid_ratio=(total_geo / total_cent) if total_cent else None,
        first_call_success_rate=(first_call_hits / traced) if traced else None,
        mean_selected_index=selected_sum / selected if selected else None,
    )
