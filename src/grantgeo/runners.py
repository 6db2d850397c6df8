"""The cell format, and the one-shot and five-call-ensemble pipelines.

A cell is one method's answer for one grant: a :class:`Prediction`, with
its :class:`RunRecord` accounting and, for the tool-calling agent, its
:class:`ToolCallRecord` trace. Every pipeline builds its cells with
:meth:`Prediction.of`.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal

from .corpus import GrantAbstract
from .gateway import (
    BACKEND_ERRORS,
    ChatMessage,
    ModelConfig,
    PriceTable,
    DEFAULT_PRICES,
    TokenUsage,
    call_cost,
)
from .geo import (
    Coordinate,
    UnparseableCoordinate,
    geodesic_dbscan,
    haversine_km,
    is_int,
    is_real,
    parse_coordinate_text,
    spherical_centroid,
)
from .prompts import build_one_shot_prompt

_JSON_NUMBERS = (float, int)


class AllCallsFailed(RuntimeError):
    """No usable points remained after all member calls failed."""


@dataclass
class ToolCallRecord:
    """One executed tool call; turn_index is 1-based within the trace."""

    turn_index: int
    tool_name: str
    arguments: dict
    result: dict = field(default_factory=dict)
    selected: bool = False

    def __post_init__(self):  # the fields trace_statistics reads
        typed = isinstance(self.tool_name, str) and isinstance(self.selected, bool)
        if not (typed and is_int(self.turn_index) and self.turn_index >= 1):
            raise ValueError("a tool call needs an integer turn_index >= 1, a string tool_name and a boolean selected")


@dataclass(slots=True)
class RunRecord:
    """A cell's accounting: what its calls used, took and cost, its tool
    trace, the model's reply and, when it failed, why."""

    usage: TokenUsage = TokenUsage()
    latency_s: float = 0.0
    cost_usd: Decimal = Decimal(0)
    tool_calls: list[ToolCallRecord] = field(default_factory=list)
    raw_response: str = ""
    reason: str | None = None

    def __post_init__(self):
        if not (is_real(self.latency_s) and self.latency_s >= 0):
            raise ValueError(f"latency_s must be a finite number >= 0, not {self.latency_s!r}")
        if not (isinstance(self.cost_usd, Decimal) and self.cost_usd.is_finite() and self.cost_usd >= 0):
            raise ValueError(f"cost_usd must be a finite Decimal >= 0, not {self.cost_usd!r}")


@dataclass(slots=True)
class Prediction:
    """A method's coordinate answer for one grant, plus provenance. Its
    :meth:`to_json` and :meth:`from_json` are the one call-log format."""

    method_id: str
    row_id: str
    coordinate: Coordinate | None
    error_km: float | None
    run: RunRecord

    def __post_init__(self):
        km = self.error_km
        if km is not None and not (self.coordinate is not None and is_real(km) and km >= 0):
            raise ValueError(f"error_km must be None, or a finite number >= 0 with a coordinate, not {km!r}")

    @property
    def failed(self) -> bool:
        """A cell fails exactly when it has no coordinate."""
        return self.coordinate is None

    @classmethod
    def of(cls, method_id: str, grant: GrantAbstract, coordinate: Coordinate | None, **accounting) -> Prediction:
        """Every pipeline's cell, scored when the grant has a ground truth.
        ``accounting`` holds the :class:`RunRecord` fields, which default to
        zero and empty."""
        return cls(method_id, grant.row_id, coordinate, _error_km(coordinate, grant), RunRecord(**accounting))

    def to_json(self, request: str) -> dict:
        """This cell's call-log record; ``request`` summarizes what was asked."""
        run, coordinate = self.run, self.coordinate
        return {
            "method_id": self.method_id,
            "row_id": self.row_id,
            "request": request,
            "response": run.raw_response[:500],
            "tool_calls": [vars(r) for r in run.tool_calls],  # a ToolCallRecord's fields, in order
            "usage": {"input_tokens": run.usage.input_tokens, "output_tokens": run.usage.output_tokens},
            "latency_s": run.latency_s,
            "cost_usd": str(run.cost_usd),
            "final_coordinate": [coordinate.lat, coordinate.lon] if coordinate else None,
            "error_km": None if self.error_km is None else round(self.error_km, 6),  # as the results CSV prints it
            "failed": self.failed,
            "reason": run.reason,
        }

    @classmethod
    def from_json(cls, doc: dict) -> Prediction:
        """The cell a call-log record holds (its ``request`` is not kept); the
        constructors check the values, this only the record's own shape."""
        coordinate, failed = doc["final_coordinate"], doc["failed"]
        # JSON numbers only (a bool is an int subclass, so match types exactly); Coordinate checks the values.
        located = (
            isinstance(coordinate, list) and len(coordinate) == 2
            and type(coordinate[0]) in _JSON_NUMBERS and type(coordinate[1]) in _JSON_NUMBERS
        )
        if not (coordinate is None or located) or failed is not (coordinate is None):
            raise ValueError("final_coordinate must be null or [lat, lon] numbers, and failed true exactly when null")
        cost = doc["cost_usd"]
        if type(cost) is not str:  # as the writer prints it; Decimal(true) would read $1
            raise ValueError(f"cost_usd must be a decimal string, not {cost!r}")
        usage = TokenUsage(doc["usage"]["input_tokens"], doc["usage"]["output_tokens"])
        run = RunRecord(
            usage, doc["latency_s"], Decimal(cost),
            [ToolCallRecord(**tc) for tc in doc["tool_calls"]], doc["response"], doc["reason"],
        )
        coordinate = None if coordinate is None else Coordinate(*coordinate)
        return cls(doc["method_id"], doc["row_id"], coordinate, doc["error_km"], run)


@dataclass(frozen=True)
class EnsembleConfig:
    """Vote parameters: k member calls, DBSCAN eps, cluster threshold, and
    one seed per member (``0..k-1`` when not given)."""

    k: int = 5
    eps_km: float = 0.5
    min_cluster: int = 3
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (is_int(self.k) and is_int(self.min_cluster) and 1 <= self.min_cluster <= self.k):
            raise ValueError(f"need integers 1 <= min_cluster <= k, got k={self.k!r}, min_cluster={self.min_cluster!r}")
        if not (is_real(self.eps_km) and self.eps_km > 0):
            raise ValueError(f"eps_km must be a number > 0, got {self.eps_km!r}")
        seeds = tuple(range(self.k)) if self.seeds is None else self.seeds
        if not (isinstance(seeds, (list, tuple)) and len(seeds) == self.k and all(is_int(s) for s in seeds)):
            raise ValueError(f"need exactly {self.k} integer seeds, got {seeds!r}")
        object.__setattr__(self, "seeds", tuple(seeds))


def _error_km(coordinate: Coordinate | None, grant: GrantAbstract) -> float | None:
    if coordinate is None or grant.ground_truth is None:
        return None
    return haversine_km(coordinate, grant.ground_truth)


def _prompt(grant: GrantAbstract) -> list[ChatMessage]:
    return [ChatMessage("user", build_one_shot_prompt(grant.text))]


def _one_call(backend, cfg: ModelConfig, messages: list[ChatMessage]):
    """Single one-shot call: (coordinate|None, usage, raw_text, reason)."""
    try:
        response, usage = backend.complete(cfg, messages)
    except BACKEND_ERRORS as exc:
        return None, TokenUsage(), "", f"{type(exc).__name__}: {exc}"
    if response.text is None:
        return None, usage, "", "UnexpectedToolCall"
    try:
        return parse_coordinate_text(response.text), usage, response.text, None
    except UnparseableCoordinate:
        return None, usage, response.text, "Unparseable"


def run_one_shot(
    backend,
    cfg: ModelConfig,
    grant: GrantAbstract,
    method_id: str = "one-shot",
    prices: PriceTable = DEFAULT_PRICES,
) -> Prediction:
    """Prompt once, parse the reply as a coordinate.

    Parse failures and backend errors yield a failed Prediction with the
    reason recorded; there is no silent fallback.
    """
    start = time.perf_counter()
    coordinate, usage, raw, reason = _one_call(backend, cfg, _prompt(grant))
    latency = time.perf_counter() - start
    cost = call_cost(usage, *prices.lookup(cfg.model_id))
    return Prediction.of(
        method_id, grant, coordinate, usage=usage, latency_s=latency, cost_usd=cost, raw_response=raw, reason=reason
    )


def _centroid(points: list[Coordinate]) -> Coordinate:
    return points[0] if len(points) == 1 else spherical_centroid(points)


def aggregate_ensemble(points: list[Coordinate], cfg: EnsembleConfig = EnsembleConfig()) -> Coordinate:
    """Fuse member answers: majority cluster centroid, else overall centroid.

    Points are clustered with geodesic DBSCAN (eps_km, min_pts =
    min_cluster). If any cluster reaches min_cluster members, the
    spherical centroid of the largest such cluster wins; a size tie goes
    to the cluster with smaller mean intra-cluster distance, then to the
    one containing the lowest point index. Otherwise the centroid of all
    points is returned.
    """
    points = list(points)
    if not points:
        raise AllCallsFailed("no usable points to aggregate")
    if len(points) == 1:
        return points[0]

    assignment = geodesic_dbscan(points, cfg.eps_km, cfg.min_cluster)
    clusters: dict[int, list[int]] = {}
    for idx, label in enumerate(assignment.labels):
        if label >= 0:
            clusters.setdefault(label, []).append(idx)
    qualifying = [members for members in clusters.values() if len(members) >= cfg.min_cluster]
    if not qualifying:
        return _centroid(points)

    def _mean_intra(members: list[int]) -> float:
        if len(members) < 2:
            return 0.0
        dists = [
            haversine_km(points[a], points[b])
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        ]
        return sum(dists) / len(dists)

    if len(qualifying) == 1:  # nothing to break a tie with
        best = qualifying[0]
    else:
        best = min(qualifying, key=lambda m: (-len(m), _mean_intra(m), m[0]))
    return _centroid([points[i] for i in best])


@functools.lru_cache(maxsize=16)
def _member_configs(cfg: ModelConfig, temperature_type: type, seeds: tuple[int, ...]) -> tuple[ModelConfig, ...]:
    """Each ensemble member's settings, ``cfg`` with that member's seed, built
    once per method. ``temperature_type`` keeps apart keys that are equal but
    print apart in a live request, as temperatures 1 and 1.0 do."""
    return tuple(replace(cfg, seed=seed) for seed in seeds)


def run_ensemble(
    backend,
    cfg: ModelConfig,
    ens: EnsembleConfig,
    grant: GrantAbstract,
    method_id: str = "ensemble",
    prices: PriceTable = DEFAULT_PRICES,
) -> Prediction:
    """k independent one-shot calls with per-member seeds, fused by vote.

    Failed member calls are dropped; the vote runs over the survivors.
    Usage and cost aggregate across all k calls and latency covers the
    whole ensemble. With zero survivors the Prediction is failed with
    reason AllCallsFailed.
    """
    start = time.perf_counter()
    points: list[Coordinate] = []
    raws: list[str] = []
    input_tokens = output_tokens = 0
    cost_total = Decimal(0)
    p_in, p_out = prices.lookup(cfg.model_id)
    messages = _prompt(grant)
    for member in _member_configs(cfg, type(cfg.temperature), ens.seeds):
        coordinate, usage, raw, _reason = _one_call(backend, member, messages)
        input_tokens += usage.input_tokens
        output_tokens += usage.output_tokens
        cost_total += call_cost(usage, p_in, p_out)
        raws.append(raw)
        if coordinate is not None:
            points.append(coordinate)
    latency = time.perf_counter() - start

    coordinate = aggregate_ensemble(points, ens) if points else None
    return Prediction.of(
        method_id,
        grant,
        coordinate,
        usage=TokenUsage(input_tokens, output_tokens),
        latency_s=latency,
        cost_usd=cost_total,
        raw_response=json.dumps(raws),
        reason=None if coordinate is not None else "AllCallsFailed",
    )
