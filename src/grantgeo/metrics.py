"""Error statistics, bootstrap CIs, frontiers, and cost ratios.

Everything the run reports print comes from here: distance-error
summaries with accuracy bands, seeded percentile-bootstrap confidence
intervals, outlier-robust means, Pareto frontiers, marginal cost per
hit, and latency speedups.

Every quartile and CI bound is read from one sorted copy of its sample by
:func:`quantile_sorted`, the linear-interpolation quantile (Hyndman & Fan
type 7), bit for bit what ``np.quantile`` gives. ``np.quantile`` itself
imports ``numpy.ma`` on its first call, which would cost a report more
than all of its arithmetic.

:func:`bootstrap_cis` draws its next index block on a second thread while
the calling thread averages the current one; numpy releases the
interpreter lock in both. grantgeo makes no BLAS call, so importing this
module sets ``OPENBLAS_NUM_THREADS=1`` unless it is already set: an idle
OpenBLAS worker would otherwise spin on the core the drawer needs.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads OpenBLAS

import numpy as np
from numpy.random import default_rng  # numpy would otherwise load numpy.random on the first draw, inside a report

BAND_THRESHOLDS_KM = (1.0, 5.0, 10.0, 25.0, 50.0)
"""Inclusive accuracy-band thresholds used in the detail tables."""

BASELINE_SECONDS_PER_GRANT = 502.0
"""Manual-workflow labor time per grant used as the speedup baseline."""

CI_LEVEL = 0.95
"""Confidence level of every bootstrap interval, and of the reports' CI headers."""

RESAMPLES = 10_000
"""Bootstrap resamples behind every interval a report or sweep prints."""

SEED = 42
"""Seed of the bootstrap draws behind every interval a report or sweep prints."""


class EmptyInput(ValueError):
    pass


class KTooLarge(ValueError):
    pass


class ZeroHitRate(ValueError):
    pass


@dataclass(frozen=True)
class ErrorStats:
    """Summary of a distance-error sample.

    ``bands`` maps each threshold to the inclusive fraction of errors at
    or below it.
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


@dataclass(frozen=True)
class BootstrapCI:
    lo: float
    hi: float


@dataclass(frozen=True)
class LatencySummary:
    hours_per_1k: float
    speedup_vs_baseline: float | None  # None when the mean latency is 0


def _validated(errors: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(errors), dtype=float)
    if arr.size == 0:
        raise EmptyInput("need at least one error value")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("errors must be finite and non-negative")
    return arr


def quantile_sorted(ordered: np.ndarray, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of the non-empty ascending array ``ordered``.

    Linear interpolation between the two order statistics around
    ``(n - 1) * q``, with numpy's ``_lerp`` rounding, so the result is
    ``np.quantile(ordered, q)`` bit for bit.
    """
    n = ordered.size
    position = (n - 1) * q
    i = min(math.floor(position), n - 1)
    gamma = position - i
    a, b = float(ordered[i]), float(ordered[min(i + 1, n - 1)])
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


def summarize_errors(errors: Sequence[float]) -> ErrorStats:
    """Mean/median/sd, linear-interpolation quartiles, and bands."""
    arr = _validated(errors)
    ordered = np.sort(arr)  # the mean and sd stay on arr: their sums depend on the order
    q1, median, q3 = (quantile_sorted(ordered, q) for q in (0.25, 0.5, 0.75))
    bands = {t: float(np.mean(arr <= t)) for t in BAND_THRESHOLDS_KM}
    return ErrorStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        median=median,
        sd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(ordered[0]),
        q1=q1,
        q3=q3,
        max=float(ordered[-1]),
        bands=bands,
    )


_BOOTSTRAP_CHUNK_CELLS = 1 << 15


def _block_rows(n: int) -> int:
    return max(1, _BOOTSTRAP_CHUNK_CELLS // n)


def _index_blocks(sizes: Sequence[int], resamples: int, seed: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Each size's resamples x n index matrix, drawn a block of rows at a time: ``(n, start, stop, idx)``.

    Successive draws continue one stream, so the blocks hold the indices
    of one whole-matrix draw while holding only about
    ``_BOOTSTRAP_CHUNK_CELLS`` of them at once.
    """
    for n in sizes:
        rng = default_rng(seed)
        rows = _block_rows(n)
        for start in range(0, resamples, rows):
            stop = min(start + rows, resamples)
            yield n, start, stop, rng.integers(0, n, size=(stop - start, n))


def _drawn_ahead(blocks: Iterator) -> Iterator:
    """``blocks``' items in order, each produced on a second thread while the caller works on the one before.

    At most two items are out at once, the one the caller works on and the
    next: the drawer takes a slot before each item, and the caller frees
    one when it asks for the next. So memory does not depend on how the
    threads are scheduled. An exception in the drawer is raised here.
    Closing this generator, as the caller must, stops the drawer and
    joins the thread.
    """
    handoff: queue.SimpleQueue = queue.SimpleQueue()
    slots = threading.Semaphore(2)
    stopped = threading.Event()
    done = object()

    def draw() -> None:
        try:
            while slots.acquire() and not stopped.is_set():
                block = next(blocks, done)
                handoff.put(block)
                if block is done:
                    return
        except BaseException as exc:  # handed to the caller, which re-raises it
            handoff.put(exc)

    drawer = threading.Thread(target=draw, name="bootstrap-draws", daemon=True)
    drawer.start()
    try:
        while (item := handoff.get()) is not done:
            if isinstance(item, BaseException):
                raise item
            yield item
            slots.release()
    finally:
        stopped.set()
        slots.release()  # a drawer waiting for a slot wakes, sees the event and returns
        drawer.join()


def bootstrap_ci(
    errors: Sequence[float],
    resamples: int = RESAMPLES,
    seed: int = SEED,
) -> BootstrapCI:
    """Seeded percentile bootstrap on the mean, at :data:`CI_LEVEL`.

    Resamples of size n with replacement; the interval is the
    (alpha/2, 1-alpha/2) quantile pair of the resampled means, with
    alpha = 1 - ``CI_LEVEL``. Deterministic for a given seed.
    """
    return bootstrap_cis([errors], resamples, seed)[0]


def bootstrap_cis(
    samples: Sequence[Sequence[float]],
    resamples: int = RESAMPLES,
    seed: int = SEED,
) -> list[BootstrapCI]:
    """``bootstrap_ci`` for each sample, drawing the indices once per size.

    With one seed, every sample of size n resamples the same resamples x n
    index matrix, so each block of it is drawn once and gathered for each
    sample of that size in turn. When there is more than one block, a
    second thread draws the next while this one gathers; the thread ends
    before the call returns or raises. The intervals equal per-sample
    ``bootstrap_ci`` calls bit for bit. Raises ValueError unless
    ``resamples`` is at least 1.
    """
    if resamples < 1:
        raise ValueError(f"resamples must be at least 1, got {resamples}")
    arrays = [_validated(sample) for sample in samples]
    by_size: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        by_size.setdefault(arr.size, []).append(i)
    means = [np.empty(resamples) for _ in arrays]
    blocks = _index_blocks(list(by_size), resamples, seed)
    if sum(math.ceil(resamples / _block_rows(n)) for n in by_size) > 1:
        blocks = _drawn_ahead(blocks)  # one block has nothing to overlap, and a thread start would cost more
    try:
        for n, start, stop, idx in blocks:
            for i in by_size[n]:
                means[i][start:stop] = arrays[i][idx].mean(axis=1)
    finally:
        blocks.close()
    alpha = 1.0 - CI_LEVEL
    out = []
    for m in means:
        m.sort()
        lo, hi = quantile_sorted(m, alpha / 2.0), quantile_sorted(m, 1.0 - alpha / 2.0)
        out.append(BootstrapCI(lo=lo, hi=hi))
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
    latencies_s: Sequence[float],
    baseline_s_per_grant: float = BASELINE_SECONDS_PER_GRANT,
) -> LatencySummary:
    """Hours per 1k located and the speedup against the baseline, from
    per-grant latencies in seconds.

    The speedup is None (undefined) when the mean latency is 0.
    """
    if not latencies_s:
        raise EmptyInput("no latencies")
    hours_per_1k = float(np.mean(latencies_s)) / 3600.0 * 1000.0
    baseline_per_1k = baseline_s_per_grant * 1000.0 / 3600.0
    return LatencySummary(
        hours_per_1k=hours_per_1k,
        speedup_vs_baseline=baseline_per_1k / hours_per_1k if hours_per_1k else None,
    )
