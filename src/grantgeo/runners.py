"""One-shot and five-call-ensemble pipelines over any backend."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from decimal import Decimal

from .corpus import GrantAbstract
from .gateway import (
    BACKEND_ERRORS,
    ChatMessage,
    ModelConfig,
    PriceTable,
    DEFAULT_PRICES,
    RunRecord,
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


class AllCallsFailed(RuntimeError):
    """No usable points remained after all member calls failed."""


@dataclass
class Prediction:
    """A method's coordinate answer for one grant, plus provenance."""

    method_id: str
    row_id: str
    coordinate: Coordinate | None
    error_km: float | None
    run: RunRecord

    @classmethod
    def of(cls, method_id: str, grant: GrantAbstract, coordinate: Coordinate | None, **accounting) -> Prediction:
        """Every pipeline's cell: failed exactly when there is no coordinate,
        scored when the grant has a ground truth. ``accounting`` holds the
        other :class:`RunRecord` fields, which default to zero and empty."""
        run = RunRecord(method_id, grant.row_id, failed=coordinate is None, **accounting)
        return cls(method_id, grant.row_id, coordinate, _error_km(coordinate, grant), run)


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


def _one_call(backend, cfg: ModelConfig, grant: GrantAbstract):
    """Single one-shot call: (coordinate|None, usage, raw_text, reason)."""
    messages = [ChatMessage("user", build_one_shot_prompt(grant.text))]
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
    coordinate, usage, raw, reason = _one_call(backend, cfg, grant)
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

    best = min(qualifying, key=lambda m: (-len(m), _mean_intra(m), m[0]))
    return _centroid([points[i] for i in best])


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
    usage_total = TokenUsage()
    cost_total = Decimal(0)
    p_in, p_out = prices.lookup(cfg.model_id)
    for seed in ens.seeds:
        coordinate, usage, raw, _reason = _one_call(backend, replace(cfg, seed=seed), grant)
        usage_total = usage_total + usage
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
        usage=usage_total,
        latency_s=latency,
        cost_usd=cost_total,
        raw_response=json.dumps(raws),
        reason=None if coordinate is not None else "AllCallsFailed",
    )
