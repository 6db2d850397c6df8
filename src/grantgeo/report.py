"""Run reports: accuracy, cost, latency, marginal-cost and tool-usage tables.

A report reads one finished run: ``run.json`` (evalset, roster and row
ids, written by :func:`grantgeo.harness.run_evaluation`) and the call log
of each listed method, and nothing else. It writes ``report.md`` plus
plot-ready scatter CSVs beside them; a sweep's table is built from the
same summaries. Through :mod:`grantgeo.metrics` it loads numpy, so the
harness and the package import it only on demand and ``grantgeo run``
never pays for numpy.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal
from pathlib import Path

from .agent import ToolCallRecord, trace_statistics
from .corpus import MalformedRow
from .gateway import RunRecord, TokenUsage
from .harness import RUN_FILE, DataMissing, NoResults
from .metrics import (
    BASELINE_SECONDS_PER_GRANT,
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
    except FileNotFoundError as exc:
        raise NoResults(f"no finished run under {run_dir}: {RUN_FILE} is missing") from exc
    except ValueError as exc:
        raise MalformedRow(f"{path}: not JSON ({exc})") from exc
    lists = [doc.get(key) if isinstance(doc, dict) else None for key in ("methods", "rows")]
    if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in lists):
        raise MalformedRow(f"{path}: expected an object with lists of method ids under methods and row ids under rows")
    return lists[0], lists[1]


def _read_log(run_dir: Path, method_id: str, rows: list[str]) -> list[dict]:
    """One listed method's call log, a record per listed row: the fields the report reads."""
    path = run_dir / "runs" / method_id / "calls.jsonl"
    try:
        fh = path.open("rb")
    except FileNotFoundError as exc:
        raise DataMissing(f"{method_id}: call log {path} is missing") from exc
    records = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                usage = TokenUsage(rec["usage"]["input_tokens"], rec["usage"]["output_tokens"])  # checks the counts
                records.append(
                    {  # only these, so that every listed log fits in memory at once
                        "row_id": rec["row_id"],
                        "error_km": None if rec["error_km"] is None else float(rec["error_km"]),
                        "final_coordinate": rec["final_coordinate"],
                        "latency_s": float(rec["latency_s"]),
                        "cost_usd": Decimal(rec["cost_usd"]),
                        "tool_calls": [ToolCallRecord(**tc) for tc in rec["tool_calls"]],
                        "tokens": usage.input_tokens + usage.output_tokens,
                    }
                )
            except (ValueError, KeyError, TypeError, ArithmeticError) as exc:  # bad UTF-8 and JSON are ValueErrors
                raise MalformedRow(f"{path}:{lineno}: not a call-log record ({type(exc).__name__}: {exc})") from exc
    if [rec["row_id"] for rec in records] != rows:
        raise MalformedRow(f"{path}: holds {len(records)} records, not one per {RUN_FILE} row ({len(rows)}) in order")
    return records


def build_method_summary(
    method_id: str,
    errors: list[float],
    logs: list[dict],
    ci: BootstrapCI,
    baseline_s_per_grant: float = BASELINE_SECONDS_PER_GRANT,
) -> MethodSummary:
    stats = summarize_errors(errors)
    located = sum(1 for rec in logs if rec.get("final_coordinate"))
    total_cost = sum((Decimal(rec["cost_usd"]) for rec in logs), Decimal(0))
    cost_per_located = (total_cost / located) if located else Decimal(0)
    latencies = [rec["latency_s"] for rec in logs if rec.get("final_coordinate")]
    lat = latency_summary(latencies or [0.0], baseline_s_per_grant)
    hit_pp = stats.bands[10.0] * 100.0
    try:
        marginal = marginal_cost_per_hit(cost_per_located * 1000, hit_pp)
    except ZeroHitRate:
        marginal = None
    return MethodSummary(
        method_id=method_id,
        stats=stats,
        ci=ci,
        cost_per_located=cost_per_located,
        cost_per_1k=cost_per_located * 1000,
        hours_per_1k=lat.hours_per_1k,
        speedup_vs_baseline=lat.speedup_vs_baseline,
        marginal_cost_per_hit_pp=marginal,
    )


def summarize_run(
    run_dir: Path,
    ci_seed: int = 42,
    resamples: int = 10_000,
    baseline_s_per_grant: float = BASELINE_SECONDS_PER_GRANT,
) -> tuple[list[str], dict[str, list[dict]], list[MethodSummary]]:
    """The run in ``run_dir``: its method ids, each one's call-log records
    and a summary of each method with a scored row, in roster order. Reads
    ``run.json`` and the listed call logs; the results CSV is never read."""
    methods, rows = _read_roster(run_dir)
    logs = {mid: _read_log(run_dir, mid, rows) for mid in methods}
    errors = {mid: [rec["error_km"] for rec in logs[mid] if rec["error_km"] is not None] for mid in methods}
    scored = [mid for mid in methods if errors[mid]]
    cis = bootstrap_cis([errors[mid] for mid in scored], resamples=resamples, seed=ci_seed)
    summaries = [
        build_method_summary(mid, errors[mid], logs[mid], ci, baseline_s_per_grant) for mid, ci in zip(scored, cis)
    ]
    return methods, logs, summaries


def generate_report(
    run_dir: str | Path,
    ci_seed: int = 42,
    resamples: int = 10_000,
    baseline_s_per_grant: float = BASELINE_SECONDS_PER_GRANT,
) -> Path:
    """Write report.md plus plot-ready CSVs for the run in ``run_dir``."""
    run_dir = Path(run_dir)
    methods, logs, summaries = summarize_run(run_dir, ci_seed, resamples, baseline_s_per_grant)
    if not summaries:
        raise NoResults(f"no scored rows in {run_dir}")
    tool_preds: list[Prediction] = []  # trace_statistics reads only method_id and run.tool_calls
    for mid in methods:
        if any(rec["tool_calls"] for rec in logs[mid]):  # only tool-calling methods feed the trace table
            for rec in logs[mid]:
                run = RunRecord(mid, rec["row_id"], tool_calls=rec["tool_calls"])
                tool_preds.append(Prediction(mid, rec["row_id"], None, None, run))
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
    if tool_preds:
        lines += ["", "## Tool usage", ""]
        lines += [
            "| Method | Calls / entry (mean) | geo:cent ratio | First-call success | Mean selected index |",
            "|---|---|---|---|---|",
        ]
        for mid, stats in sorted(trace_statistics(tool_preds).items()):
            ratio = f"{stats.geocode_centroid_ratio:.2f}:1" if stats.geocode_centroid_ratio else "n/a"
            fcs = f"{stats.first_call_success_rate * 100:.1f}%" if stats.first_call_success_rate is not None else "n/a"
            msi = f"{stats.mean_selected_index:.2f}" if stats.mean_selected_index is not None else "n/a"
            lines.append(f"| {mid} | {stats.calls_per_entry_mean:.2f} | {ratio} | {fcs} | {msi} |")

    cost_points = [
        {"id": s.method_id, "cost_per_1k": float(s.cost_per_1k), "mean_error_km": s.stats.mean}
        for s in summaries
    ]
    _write_scatter_csv(run_dir / "cost_vs_error.csv", ["id", "cost_per_1k", "mean_error_km"], cost_points)
    _write_scatter_csv(
        run_dir / "pareto_frontier.csv", ["id", "cost_per_1k", "mean_error_km"], pareto_frontier(cost_points)
    )
    latency_points = [
        {
            "id": s.method_id,
            "seconds_per_grant": sum(rec["latency_s"] for rec in logs[s.method_id]) / len(logs[s.method_id]),
            "mean_error_km": s.stats.mean,
        }
        for s in summaries
    ]
    _write_scatter_csv(
        run_dir / "latency_vs_error.csv", ["id", "seconds_per_grant", "mean_error_km"], latency_points
    )

    report_path = run_dir / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path


def _write_scatter_csv(path: Path, header: list[str], points: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for p in points:
            writer.writerow([p[h] for h in header])


def write_sweep_report(out_dir: Path, axis: str, runs: list[tuple], method_ids: list[str]) -> Path:
    """Write sweep.csv and sweep_report.md: per axis value and method, the
    numbers :func:`summarize_run` gives for that value's run. ``runs`` pairs
    each value with its run directory, whose roster lists ``method_ids`` in
    order; a method with no scored row has n 0 and only its tokens."""
    header = "axis_value,method_id,n,mean_error_km,ci_lo_km,ci_hi_km,within_10km_pct,cost_per_1k,tokens_per_entry"
    table, lines = [header.split(",")], [f"# Sweep report: {axis}", ""]
    lines += [
        "| Value | Method | n | Mean error (km) | 95% CI (km) | ≤10 km (%) | Cost per 1k (USD) | Tokens / entry |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for value, run_dir in runs:
        methods, logs, summaries = summarize_run(run_dir)  # the report's default CI seed and resamples
        by_id = {s.method_id: s for s in summaries}
        for mid, method_id in zip(methods, method_ids):
            tokens = f"{sum(rec['tokens'] for rec in logs[mid]) / max(len(logs[mid]), 1):.1f}"
            s = by_id.get(mid)
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
    with (out_dir / "sweep.csv").open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)
    report_path = out_dir / "sweep_report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path
