"""Evaluation statistics: summaries, CIs, robust means, frontiers.

Numbers below come from synthetic error vectors; the same functions run
inside report generation.
"""

import numpy as np

from grantgeo import (
    bootstrap_ci,
    drop_top_k_mean,
    latency_summary,
    marginal_cost_per_hit,
    pareto_frontier,
    summarize_errors,
)
from grantgeo.metrics import CI_LEVEL, RESAMPLES

rng = np.random.default_rng(7)
errors = np.abs(rng.normal(25, 12, size=43))

stats = summarize_errors(errors)
print(f"n={stats.n}  mean={stats.mean:.1f}  median={stats.median:.1f}  sd={stats.sd:.1f}")
print("bands:", {f"<={int(t)}km": f"{frac:.0%}" for t, frac in stats.bands.items()})

ci = bootstrap_ci(errors)  # the resamples and seed every report uses
print(f"{CI_LEVEL:.0%} bootstrap CI on the mean: [{ci.lo:.1f}, {ci.hi:.1f}] ({RESAMPLES} resamples)\n")

# Outlier-robust view: drop the k largest pooled residuals.
by_method = {"alpha": list(errors), "beta": list(np.abs(rng.normal(60, 30, size=43)))}
for method, (before, after) in drop_top_k_mean(by_method, k=5).items():
    print(f"drop-top-5 mean: {method}: {before:.1f} -> {after:.1f} km")

# Cost-vs-error frontier over method summaries.
methods = [
    {"id": "ensemble", "cost_per_1k": 195.65, "mean_error_km": 18.7},
    {"id": "flagship", "cost_per_1k": 127.46, "mean_error_km": 23.4},
    {"id": "fast", "cost_per_1k": 1.05, "mean_error_km": 27.9},
    {"id": "cheap", "cost_per_1k": 0.10, "mean_error_km": 43.1},
    {"id": "manual", "cost_per_1k": 3255.81, "mean_error_km": 71.4},
]
frontier = pareto_frontier(methods)
print("\nPareto frontier (cost per 1k vs mean error):")
for point in frontier:
    print(f"  {point['id']:9s} ${point['cost_per_1k']:>8.2f}  {point['mean_error_km']:5.1f} km")
print(f"dominated: {[m['id'] for m in methods if m not in frontier]}")

# Marginal dollars per +1pp of the <=10 km hit rate, and time speedups.
print(f"\nmarginal cost, fast method: ${marginal_cost_per_hit(1.05, 16.3):.2f} per +1pp")
print(f"marginal cost, flagship:    ${marginal_cost_per_hit(127.46, 30.2):.2f} per +1pp")
summary = latency_summary([0.64] * 43, baseline_s_per_grant=502.0)
print(f"0.64 s/grant vs 502 s baseline -> {summary.speedup_vs_baseline:,.0f}x speedup")
