"""Error statistics, bootstrap CIs, regressions, frontiers, and cost ratios.

Everything the run reports print comes from here: distance-error
summaries with accuracy bands, seeded percentile-bootstrap confidence
intervals, outlier-robust means, a simple OLS fit for the length
ablation, Pareto frontiers, marginal cost per hit, and latency speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Mapping, Sequence

import numpy as np
from numpy.random import default_rng  # numpy would otherwise load numpy.random on the first draw, inside a report

BAND_THRESHOLDS_KM = (1.0, 5.0, 10.0, 25.0, 50.0)
"""Inclusive accuracy-band thresholds used in the detail tables."""

BASELINE_SECONDS_PER_GRANT = 502.0
"""Manual-workflow labor time per grant used as the speedup baseline."""


class EmptyInput(ValueError):
    pass


class KTooLarge(ValueError):
    pass


class DegenerateX(ValueError):
    pass


class ZeroHitRate(ValueError):
    pass


@dataclass(frozen=True)
class ErrorStats:
    """Summary of a distance-error sample.

    ``bands`` maps each threshold to the inclusive fraction of errors at
    or below it; ``coarse_bands`` is the (<1 km, 1-10 km, >10 km)
    triple.
    """

    n: int
    mean: float
    median: float
    sd: float
    min: float
    q1: float
    q3: float
    max: float
    bands: dict[float, float]
    coarse_bands: tuple[float, float, float]


@dataclass(frozen=True)
class BootstrapCI:
    level: float
    resamples: int
    seed: int
    lo: float
    hi: float


@dataclass(frozen=True)
class OlsFit:
    slope: float
    intercept: float
    r_squared: float
    pearson_r: float
    slope_ci_halfwidth: float


@dataclass(frozen=True)
class LatencySummary:
    hours_per_located: float
    hours_per_1k: float
    speedup_vs_baseline: float | None  # None when the mean latency is 0


@dataclass
class MethodSummary:
    """Aggregated statistics for one method over an evaluation set."""

    method_id: str
    stats: ErrorStats
    ci: BootstrapCI
    cost_per_located: Decimal
    cost_per_1k: Decimal
    hours_per_1k: float
    speedup_vs_baseline: float | None
    marginal_cost_per_hit_pp: float | None = None


def _validated(errors: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise EmptyInput("need at least one error value")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("errors must be finite and non-negative")
    return arr


def summarize_errors(errors: Sequence[float]) -> ErrorStats:
    """Mean/median/sd, linear-interpolation quartiles, and bands."""
    arr = _validated(errors)
    q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
    bands = {t: float(np.mean(arr <= t)) for t in BAND_THRESHOLDS_KM}
    coarse = (
        float(np.mean(arr < 1.0)),
        float(np.mean((arr >= 1.0) & (arr <= 10.0))),
        float(np.mean(arr > 10.0)),
    )
    return ErrorStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        median=float(median),
        sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        q1=float(q1),
        q3=float(q3),
        max=float(arr.max()),
        bands=bands,
        coarse_bands=coarse,
    )


_BOOTSTRAP_CHUNK_CELLS = 1 << 16


def bootstrap_ci(
    errors: Sequence[float],
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Seeded percentile bootstrap on the mean.

    Resamples of size n with replacement; the interval is the
    (alpha/2, 1-alpha/2) quantile pair of the resampled means.
    Deterministic for a given seed.
    """
    return bootstrap_cis([errors], resamples, level, seed)[0]


def bootstrap_cis(
    samples: Sequence[Sequence[float]],
    resamples: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> list[BootstrapCI]:
    """``bootstrap_ci`` for each sample, drawing the indices once per size.

    With one seed, every sample of size n resamples the same resamples x n
    index matrix, so each block of it is drawn once and gathered for each
    sample of that size in turn. The intervals equal per-sample
    ``bootstrap_ci`` calls bit for bit.
    """
    arrays = [_validated(sample) for sample in samples]
    by_size: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        by_size.setdefault(arr.size, []).append(i)
    means = [np.empty(resamples) for _ in arrays]
    for n, members in by_size.items():
        rng = default_rng(seed)
        # Successive draws continue one stream, so drawing the index matrix
        # a block of rows at a time gives the same indices while holding
        # only about _BOOTSTRAP_CHUNK_CELLS of them at once.
        rows = max(1, _BOOTSTRAP_CHUNK_CELLS // n)
        for start in range(0, resamples, rows):
            stop = min(start + rows, resamples)
            idx = rng.integers(0, n, size=(stop - start, n))
            for i in members:
                means[i][start:stop] = arrays[i][idx].mean(axis=1)
    alpha = 1.0 - level
    out = []
    for m in means:
        lo, hi = np.quantile(m, [alpha / 2.0, 1.0 - alpha / 2.0])
        out.append(BootstrapCI(level=level, resamples=resamples, seed=seed, lo=float(lo), hi=float(hi)))
    return out


def drop_top_k_mean(
    errors_by_method: Mapping[str, Sequence[float]], k: int
) -> dict[str, tuple[float, float | None]]:
    """Remove the k globally largest residuals, recompute per-method means.

    Returns {method: (original_mean, adjusted_mean)}; adjusted is None
    if a method loses every residual.
    """
    pooled = [
        (float(e), method, i)
        for method, errs in errors_by_method.items()
        for i, e in enumerate(errs)
    ]
    if k >= len(pooled):
        raise KTooLarge(f"k={k} must be smaller than the {len(pooled)} pooled predictions")
    dropped: set[tuple[str, int]] = {
        (method, i) for _, method, i in sorted(pooled, key=lambda t: -t[0])[:k]
    }
    out: dict[str, tuple[float, float | None]] = {}
    for method, errs in errors_by_method.items():
        errs = [float(e) for e in errs]
        kept = [e for i, e in enumerate(errs) if (method, i) not in dropped]
        original = sum(errs) / len(errs) if errs else None
        adjusted = sum(kept) / len(kept) if kept else None
        out[method] = (original, adjusted)  # type: ignore[assignment]
    return out


def fit_ols(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Closed-form simple linear regression of y on x.

    The slope CI halfwidth is 1.96 standard errors (residual variance
    with n-2 degrees of freedom). Requires n >= 3 and non-constant x.
    """
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.size != ya.size:
        raise ValueError("x and y must have equal length")
    if xa.size < 3:
        raise ValueError("need at least 3 observations")
    sxx = float(np.sum((xa - xa.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateX("x is constant")
    sxy = float(np.sum((xa - xa.mean()) * (ya - ya.mean())))
    syy = float(np.sum((ya - ya.mean()) ** 2))
    slope = sxy / sxx
    intercept = float(ya.mean()) - slope * float(xa.mean())
    pearson = sxy / np.sqrt(sxx * syy) if syy > 0 else 0.0
    r_squared = pearson * pearson
    residuals = ya - (intercept + slope * xa)
    sigma2 = float(np.sum(residuals**2)) / (xa.size - 2)
    slope_se = np.sqrt(sigma2 / sxx)
    return OlsFit(
        slope=slope,
        intercept=intercept,
        r_squared=float(r_squared),
        pearson_r=float(pearson),
        slope_ci_halfwidth=float(1.96 * slope_se),
    )


def pareto_frontier(points: Sequence[Mapping]) -> list[Mapping]:
    """Non-dominated subset in (cost_per_1k, mean_error_km), cost-sorted.

    A point survives iff no other point is <= in both dimensions and
    strictly < in at least one.
    """

    def dominated(p: Mapping, q: Mapping) -> bool:
        return (
            float(q["cost_per_1k"]) <= float(p["cost_per_1k"])
            and float(q["mean_error_km"]) <= float(p["mean_error_km"])
            and (
                float(q["cost_per_1k"]) < float(p["cost_per_1k"])
                or float(q["mean_error_km"]) < float(p["mean_error_km"])
            )
        )

    frontier = [p for p in points if not any(dominated(p, q) for q in points)]
    return sorted(
        frontier,
        key=lambda p: (float(p["cost_per_1k"]), float(p["mean_error_km"]), str(p.get("id", ""))),
    )


def marginal_cost_per_hit(cost_per_1k, hit_rate_pp: float) -> float:
    """Dollars per +1 percentage point of the <=10 km hit rate."""
    if hit_rate_pp <= 0:
        raise ZeroHitRate("hit rate must be positive")
    return float(cost_per_1k) / float(hit_rate_pp)


def latency_summary(
    records: Sequence,
    baseline_s_per_grant: float = BASELINE_SECONDS_PER_GRANT,
) -> LatencySummary:
    """Hours per located / per 1k and the speedup against the baseline.

    The speedup is None (undefined) when the mean latency is 0.

    ``records`` may be RunRecords or anything with a ``latency_s``
    attribute; plain numbers (seconds) are accepted too.
    """
    latencies = [getattr(r, "latency_s", r) for r in records]
    if not latencies:
        raise EmptyInput("no records")
    mean_s = float(np.mean([float(v) for v in latencies]))
    hours_per_located = mean_s / 3600.0
    hours_per_1k = hours_per_located * 1000.0
    baseline_per_1k = baseline_s_per_grant * 1000.0 / 3600.0
    return LatencySummary(
        hours_per_located=hours_per_located,
        hours_per_1k=hours_per_1k,
        speedup_vs_baseline=baseline_per_1k / hours_per_1k if hours_per_1k else None,
    )
