"""Run reports: accuracy, cost, latency, marginal-cost and tool-usage tables.

A report reads one finished run: ``run.json`` (evalset, roster and row
ids, written by :func:`grantgeo.harness.run_evaluation`) and the call log
of each listed method, one at a time, keeping only its totals
(:class:`CallLogTotals`), and nothing else. It writes ``report.md`` plus
plot-ready scatter CSVs beside them; a sweep's table is built from the
same summaries. Through :mod:`grantgeo.metrics` it loads numpy, so the
harness and the package import it only on demand and ``grantgeo run``
never pays for numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from operator import itemgetter
from pathlib import Path

from .agent import ToolUsageStats, trace_statistics
from .corpus import MalformedRow, read_jsonl, write_csv
from .harness import RUN_FILE, DataMissing, NoResults
from .metrics import (
    BootstrapCI,
    MethodSummary,
    ZeroHitRate,
    bootstrap_cis,
    latency_summary,
    marginal_cost_per_hit,
    pareto_frontier,
    summarize_errors,
)
from .runners import Prediction


def _read_roster(run_dir: Path) -> tuple[list[str], list[str]]:
    """The method ids and row ids ``run.json`` lists, each in run order."""
    path = run_dir / RUN_FILE
    try:
        doc = json.loads(path.read_bytes())
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise NoResults(f"no finished run under {run_dir}: {RUN_FILE} is missing") from exc
    except ValueError as exc:
        raise MalformedRow(f"{path}: not JSON ({exc})") from exc
    lists = [doc.get(key) if isinstance(doc, dict) else None for key in ("methods", "rows")]
    if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in lists):
        raise MalformedRow(f"{path}: expected an object with lists of method ids under methods and row ids under rows")
    return lists[0], lists[1]


def _read_log(run_dir: Path, method_id: str, rows: list[str]) -> list[Prediction]:
    """One listed method's call log: a cell of that method per listed row, in order."""
    path = run_dir / "runs" / method_id / "calls.jsonl"
    try:
        cells = read_jsonl(path, "call-log", Prediction.from_json)
    except FileNotFoundError as exc:
        raise DataMissing(f"{method_id}: call log {path} is missing") from exc
    if [(p.method_id, p.row_id) for p in cells] != [(method_id, row_id) for row_id in rows]:
        raise MalformedRow(f"{path}: {len(cells)} records, not one of {method_id} per {RUN_FILE} row in order")
    return cells


@dataclass(frozen=True)
class CallLogTotals:
    """What a report needs from one method's call log, without its cells."""

    method_id: str
    errors: list[float]
    located_latencies: list[float]
    total_cost: Decimal
    seconds_per_grant: float
    tokens_per_entry: float
    tool_usage: ToolUsageStats | None  # None unless some cell called a tool

    @classmethod
    def of(cls, method_id: str, cells: list[Prediction]) -> "CallLogTotals":
        per_entry = max(len(cells), 1)
        return cls(
            method_id=method_id,
            errors=[p.error_km for p in cells if p.error_km is not None],
            located_latencies=[p.run.latency_s for p in cells if p.coordinate is not None],
            total_cost=sum((p.run.cost_usd for p in cells), Decimal(0)),
            seconds_per_grant=sum(p.run.latency_s for p in cells) / per_entry,
            tokens_per_entry=sum(p.run.usage.input_tokens + p.run.usage.output_tokens for p in cells) / per_entry,
            tool_usage=trace_statistics(cells)[method_id] if any(p.run.tool_calls for p in cells) else None,
        )


def build_method_summary(log: CallLogTotals, ci: BootstrapCI) -> MethodSummary:
    stats = summarize_errors(log.errors)
    latencies = log.located_latencies
    cost_per_located = (log.total_cost / len(latencies)) if latencies else Decimal(0)
    lat = latency_summary(latencies or [0.0])
    hit_pp = stats.bands[10.0] * 100.0
    try:
        marginal = marginal_cost_per_hit(cost_per_located * 1000, hit_pp)
    except ZeroHitRate:
        marginal = None
    return MethodSummary(
        method_id=log.method_id,
        stats=stats,
        ci=ci,
        cost_per_located=cost_per_located,
        cost_per_1k=cost_per_located * 1000,
        hours_per_1k=lat.hours_per_1k,
        speedup_vs_baseline=lat.speedup_vs_baseline,
        marginal_cost_per_hit_pp=marginal,
    )


def summarize_run(
    run_dir: Path, ci_seed: int = 42, resamples: int = 10_000
) -> tuple[list[CallLogTotals], list[MethodSummary]]:
    """The run in ``run_dir``: the totals of each listed method's call log
    and a summary of each method with a scored row, both in roster order.
    Reads ``run.json`` and the listed call logs one at a time, keeping only
    their totals; the results CSV is never read."""
    methods, rows = _read_roster(run_dir)
    logs = [CallLogTotals.of(mid, _read_log(run_dir, mid, rows)) for mid in methods]
    scored = [log for log in logs if log.errors]
    cis = bootstrap_cis([log.errors for log in scored], resamples=resamples, seed=ci_seed)
    return logs, [build_method_summary(log, ci) for log, ci in zip(scored, cis)]


def generate_report(run_dir: str | Path, ci_seed: int = 42, resamples: int = 10_000) -> Path:
    """Write report.md plus plot-ready CSVs for the run in ``run_dir``."""
    run_dir = Path(run_dir)
    logs, summaries = summarize_run(run_dir, ci_seed, resamples)
    if not summaries:
        raise NoResults(f"no scored rows in {run_dir}")
    by_id = {log.method_id: log for log in logs}
    tool_usage = {log.method_id: log.tool_usage for log in logs if log.tool_usage is not None}
    summaries.sort(key=lambda s: s.stats.mean)

    lines = ["# Run report", ""]
    lines += ["## Accuracy", ""]
    lines += ["| ID | n | Mean ± 95% CI (km) | Median (km) | ≤10 km (%) |", "|---|---|---|---|---|"]
    for s in summaries:
        lines.append(
            f"| {s.method_id} | {s.stats.n} | {s.stats.mean:.1f} [{s.ci.lo:.1f}, {s.ci.hi:.1f}] "
            f"| {s.stats.median:.1f} | {s.stats.bands[10.0] * 100:.1f} |"
        )
    lines += ["", "## Detailed performance", ""]
    lines += [
        "| Method | n | mean | median | sd | min | Q1 | Q3 | max | ≤1 km | ≤5 km | ≤10 km | ≤25 km | ≤50 km |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for s in summaries:
        st = s.stats
        bands = " | ".join(f"{st.bands[t] * 100:.1f}%" for t in (1.0, 5.0, 10.0, 25.0, 50.0))
        lines.append(
            f"| {s.method_id} | {st.n} | {st.mean:.2f} | {st.median:.2f} | {st.sd:.2f} "
            f"| {st.min:.2f} | {st.q1:.2f} | {st.q3:.2f} | {st.max:.2f} | {bands} |"
        )
    lines += ["", "## Cost efficiency", ""]
    lines += ["| ID | Cost / located (USD) | Cost per 1k | Mean error (km) |", "|---|---|---|---|"]
    for s in summaries:
        lines.append(
            f"| {s.method_id} | {s.cost_per_located:.5f} | {s.cost_per_1k:.2f} | {s.stats.mean:.1f} |"
        )
    lines += ["", "## Processing time", ""]
    lines += ["| ID | Hours per located | Hours per 1k | Speedup vs. baseline |", "|---|---|---|---|"]
    for s in summaries:
        speedup = f"{s.speedup_vs_baseline:,.0f}×" if s.speedup_vs_baseline is not None else "n/a"
        lines.append(f"| {s.method_id} | {s.hours_per_1k / 1000:.4f} | {s.hours_per_1k:.3f} | {speedup} |")
    lines += ["", "## Marginal cost of high-precision accuracy", ""]
    lines += ["| ID | ≤10 km hit-rate | Cost per 1k (USD) | Cost per +1% ≤10 km hit (USD) |", "|---|---|---|---|"]
    for s in summaries:
        marginal = f"{s.marginal_cost_per_hit_pp:.2f}" if s.marginal_cost_per_hit_pp is not None else "n/a"
        lines.append(
            f"| {s.method_id} | {s.stats.bands[10.0] * 100:.1f}% | {s.cost_per_1k:.2f} | {marginal} |"
        )
    if tool_usage:
        lines += ["", "## Tool usage", ""]
        lines += [
            "| Method | Calls / entry (mean) | geo:cent ratio | First-call success | Mean selected index |",
            "|---|---|---|---|---|",
        ]
        for mid, stats in sorted(tool_usage.items()):
            ratio = f"{stats.geocode_centroid_ratio:.2f}:1" if stats.geocode_centroid_ratio is not None else "n/a"
            fcs = f"{stats.first_call_success_rate * 100:.1f}%" if stats.first_call_success_rate is not None else "n/a"
            msi = f"{stats.mean_selected_index:.2f}" if stats.mean_selected_index is not None else "n/a"
            lines.append(f"| {mid} | {stats.calls_per_entry_mean:.2f} | {ratio} | {fcs} | {msi} |")

    cost_points = [
        {"id": s.method_id, "cost_per_1k": float(s.cost_per_1k), "mean_error_km": s.stats.mean}
        for s in summaries
    ]
    cost_header = ["id", "cost_per_1k", "mean_error_km"]
    cost_row = itemgetter(*cost_header)
    write_csv(run_dir / "cost_vs_error.csv", cost_header, map(cost_row, cost_points))
    write_csv(run_dir / "pareto_frontier.csv", cost_header, map(cost_row, pareto_frontier(cost_points)))
    latency_rows = [[s.method_id, by_id[s.method_id].seconds_per_grant, s.stats.mean] for s in summaries]
    write_csv(run_dir / "latency_vs_error.csv", ["id", "seconds_per_grant", "mean_error_km"], latency_rows)

    report_path = run_dir / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path


def write_sweep_report(out_dir: Path, axis: str, runs: list[tuple], method_ids: list[str]) -> Path:
    """Write sweep.csv and sweep_report.md: per axis value and method, the
    numbers :func:`summarize_run` gives for that value's run. ``runs`` pairs
    each value with its run directory, whose roster lists ``method_ids`` in
    order; a method with no scored row has n 0 and only its tokens."""
    header = "axis_value,method_id,n,mean_error_km,ci_lo_km,ci_hi_km,within_10km_pct,cost_per_1k,tokens_per_entry"
    table, lines = [], [f"# Sweep report: {axis}", ""]
    lines += [
        "| Value | Method | n | Mean error (km) | 95% CI (km) | ≤10 km (%) | Cost per 1k (USD) | Tokens / entry |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for value, run_dir in runs:
        logs, summaries = summarize_run(run_dir)  # the report's default CI seed and resamples
        by_id = {s.method_id: s for s in summaries}
        for log, method_id in zip(logs, method_ids):
            tokens = f"{log.tokens_per_entry:.1f}"
            s = by_id.get(log.method_id)
            if s is None:
                table.append([value, method_id, 0, "", "", "", "", "", tokens])
                lines.append(f"| {value} | {method_id} | 0 | n/a | n/a | n/a | n/a | {tokens} |")
                continue
            st, ci, hits = s.stats, s.ci, s.stats.bands[10.0] * 100
            cells = [st.n, f"{st.mean:.4f}", f"{ci.lo:.4f}", f"{ci.hi:.4f}", f"{hits:.1f}", f"{s.cost_per_1k:.2f}"]
            table.append([value, method_id, *cells, tokens])
            lines.append(
                f"| {value} | {method_id} | {st.n} | {st.mean:.2f} | [{ci.lo:.2f}, {ci.hi:.2f}] | {hits:.1f} "
                f"| {s.cost_per_1k:.2f} | {tokens} |"
            )
    write_csv(out_dir / "sweep.csv", header.split(","), table)
    report_path = out_dir / "sweep_report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path
