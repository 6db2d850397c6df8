"""Tool-augmented interaction loop.

The model converses under a fixed system prompt and may call two tools:
a Virginia-restricted geocoder and a spherical-centroid helper. The loop
validates every call against the JSON-Schema catalog, enforces the tool
budget, and keeps a full trace so runs can be audited and replayed.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import GrantAbstract, MalformedRow
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
    BoundingBox,
    Coordinate,
    UnparseableCoordinate,
    VIRGINIA_BBOX,
    is_int,
    parse_coordinate_text,
    spherical_centroid,
    within_bbox,
)
from .prompts import FINAL_NUDGE, TOOL_SYSTEM_PROMPT
from .runners import Prediction

GEOCODE_STRATEGIES = ("natural_feature", "restricted_va", "standard_va", "county_fallback")
DEFAULT_STRATEGY = "standard_va"

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


@dataclass(frozen=True)
class GeocodeResult:
    lat: float
    lng: float
    formatted_address: str
    strategy: str
    query_used: str

    def coordinate(self) -> Coordinate:
        return Coordinate(self.lat, self.lng)

    def to_payload(self) -> dict:
        # Field order is fixed so cache replay is byte-identical.
        return {
            "lat": self.lat,
            "lng": self.lng,
            "formatted_address": self.formatted_address,
            "strategy": self.strategy,
            "query_used": self.query_used,
        }


@dataclass
class ToolCallRecord:
    """One executed tool call; turn_index is 1-based within the trace."""

    turn_index: int
    tool_name: str
    arguments: dict
    result: dict = field(default_factory=dict)
    selected: bool = False


@functools.cache
def tool_validators() -> dict:
    """One jsonschema validator per catalog entry, by tool name.

    Built, and each schema checked, on first use: jsonschema loads only in
    a process that runs the tool agent. Validating a call then costs what
    the arguments cost, not a metaschema check.
    """
    import jsonschema

    validators = {}
    for tool in TOOL_CATALOG:
        cls = jsonschema.validators.validator_for(tool["parameters"])
        cls.check_schema(tool["parameters"])
        validators[tool["name"]] = cls(tool["parameters"])
    return validators


def validate_tool_call(request: ToolCallRequest) -> dict:
    """Return validated arguments or raise ArgumentInvalid.

    The message is the one ``jsonschema.validate`` would give: that of the
    best-matching error.
    """
    validator = tool_validators().get(request.name)
    if validator is None:
        raise ArgumentInvalid(f"unknown tool {request.name!r}")
    errors = list(validator.iter_errors(request.arguments))
    if errors:
        from jsonschema.exceptions import best_match

        error = best_match(errors)
        raise ArgumentInvalid(error.message) from error
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

    def __init__(
        self,
        provider=None,
        cache_path: str | Path | None = None,
        box: BoundingBox = VIRGINIA_BBOX,
    ):
        self._provider = provider
        self._box = box
        self._cache_path = Path(cache_path) if cache_path else None
        self._cache: dict[tuple[str, str], dict | None] = {}
        self._lock = threading.Lock()
        self.provider_calls = 0
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

    def lookup(self, query: str, strategy: str | None = None) -> GeocodeResult:
        if not query:
            raise ArgumentInvalid("empty geocode query")
        strategy = strategy or DEFAULT_STRATEGY
        key = (query, strategy)
        if key in self._cache:
            cached = self._cache[key]
            if cached is None:
                raise NotFound(f"no Virginia result for {query!r} (cached)")
            try:
                result = GeocodeResult(**cached)
                inside = within_bbox(result.coordinate(), self._box)
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
            self.provider_calls += 1
            candidate = self._provider.geocode(query, strategy)
            result = None
            if candidate is not None:
                coord = Coordinate(float(candidate["lat"]), float(candidate["lng"]))
                if within_bbox(coord, self._box):
                    result = GeocodeResult(
                        lat=coord.lat,
                        lng=coord.lon,
                        formatted_address=candidate.get("formatted_address", ""),
                        strategy=strategy,
                        query_used=candidate.get("query_used", query),
                    ).to_payload()
            self._cache[key] = result
            self._persist(query, strategy, result)
        if result is None:
            raise NotFound(f"no Virginia result for {query!r}")
        return GeocodeResult(**result)

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

    def __init__(self, api_key: str | None = None, timeout_s: float = 30.0):
        import os

        self.api_key = api_key if api_key is not None else os.environ.get(GEOCODER_API_KEY_ENV)
        self.timeout_s = timeout_s

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
            resp = requests.get(self.ENDPOINT, params=params, timeout=self.timeout_s)
        except requests.RequestException as exc:
            raise ProviderError(str(exc)) from exc
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}")
        data = resp.json()
        results = data.get("results") or []
        if not results:
            return None
        top = results[0]
        location = top["geometry"]["location"]
        return {
            "lat": location["lat"],
            "lng": location["lng"],
            "formatted_address": top.get("formatted_address", ""),
            "query_used": params["address"],
        }


def write_geocode_cache(path: str | Path, entries: list[dict]) -> None:
    """Write cache entries ({query, strategy, result|None}) as JSONL."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(
                json.dumps(
                    {
                        "query": entry["query"],
                        "strategy": entry.get("strategy", DEFAULT_STRATEGY),
                        "result": entry.get("result"),
                    }
                )
                + "\n"
            )


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
    start = time.perf_counter()

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
                        record.result = geocoder.lookup(args["query"], args.get("strategy")).to_payload()
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

    latency = time.perf_counter() - start
    if coordinate is not None:
        _mark_selected(trace, coordinate)
    return Prediction.of(
        method_id,
        grant,
        coordinate,
        usage=usage_total,
        latency_s=latency,
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
    """Per-method tool-usage summary over a set of traced predictions."""

    entries: int
    calls_per_entry_mean: float
    per_tool: dict[str, dict[str, float]]
    geocode_centroid_ratio: float | None
    first_call_success_rate: float | None
    mean_selected_index: float | None


def _describe(values: list[int]) -> dict[str, float]:
    return {
        "mean": statistics.fmean(values),
        "sd": statistics.stdev(values) if len(values) > 1 else 0.0,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def trace_statistics(predictions: list[Prediction]) -> dict[str, ToolUsageStats]:
    """Summarize tool usage per method.

    Covers calls per entry split by tool, the geocode:centroid ratio,
    the first-call success rate (selected call is the entry's first
    geocode call), and the mean selected call index.
    """
    by_method: dict[str, list[Prediction]] = {}
    for p in predictions:
        by_method.setdefault(p.method_id, []).append(p)

    out: dict[str, ToolUsageStats] = {}
    for method_id, preds in by_method.items():
        tool_names = sorted({r.tool_name for p in preds for r in p.run.tool_calls})
        per_tool = {
            name: _describe([sum(1 for r in p.run.tool_calls if r.tool_name == name) for p in preds])
            for name in tool_names
        }
        total_geo = sum(1 for p in preds for r in p.run.tool_calls if r.tool_name == "geocode_place")
        total_cent = sum(1 for p in preds for r in p.run.tool_calls if r.tool_name == "compute_centroid")
        ratio = (total_geo / total_cent) if total_cent else None

        selected_indices: list[int] = []
        first_call_hits = 0
        traced = 0
        for p in preds:
            if not p.run.tool_calls:
                continue
            traced += 1
            selected = next((r for r in p.run.tool_calls if r.selected), None)
            first_geo = next((r for r in p.run.tool_calls if r.tool_name == "geocode_place"), None)
            if selected is not None:
                selected_indices.append(selected.turn_index)
                if first_geo is not None and selected.turn_index == first_geo.turn_index:
                    first_call_hits += 1

        out[method_id] = ToolUsageStats(
            entries=len(preds),
            calls_per_entry_mean=statistics.fmean([len(p.run.tool_calls) for p in preds]),
            per_tool=per_tool,
            geocode_centroid_ratio=ratio,
            first_call_success_rate=(first_call_hits / traced) if traced else None,
            mean_selected_index=statistics.fmean(selected_indices) if selected_indices else None,
        )
    return out
