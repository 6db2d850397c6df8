"""Run reports: accuracy, cost, latency, marginal-cost and tool-usage tables.

A report reads one finished run: ``run.json`` (evalset, roster and row
ids, written by :func:`grantgeo.harness.run_evaluation`) and the call log
of each listed method, one log at a time and one record of it at a time,
reducing each to that method's :class:`MethodRow`, and nothing else.
Every table of ``report.md`` and of a sweep's ``sweep_report.md``, and
every plot-ready CSV beside them, is read from those rows. Through
:mod:`grantgeo.metrics` it loads numpy, so the harness and the package
import it only on demand and ``grantgeo run`` never pays for numpy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from decimal import Decimal
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .agent import ToolUsageStats, trace_statistics
from .corpus import MalformedRow, read_jsonl, write_csv
from .harness import RUN_FILE, DataMissing, NoResults
from .metrics import (
    CI_LEVEL,
    BootstrapCI,
    ErrorStats,
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
    for key, ids in zip(("methods", "rows"), lists):
        repeated = [i for i, count in Counter(ids).items() if count > 1]
        if repeated:
            raise MalformedRow(f"{path}: {key} lists {repeated[0]!r} more than once")
    return lists[0], lists[1]


def _read_log(run_dir: Path, method_id: str, rows: list[str]) -> Iterator[Prediction]:
    """One listed method's call log, checked and yielded a record at a time:
    a cell of that method per listed row, in order. The first record out of
    place, or a count short of the rows, is MalformedRow naming the file."""
    path = run_dir / "runs" / method_id / "calls.jsonl"
    count = 0
    try:
        for count, cell in enumerate(read_jsonl(path, "call-log", Prediction.from_json), start=1):
            if count > len(rows) or (cell.method_id, cell.row_id) != (method_id, rows[count - 1]):
                raise MalformedRow(
                    f"{path}: record {count} is {cell.method_id} {cell.row_id!r},"
                    f" not {method_id}'s cell for {RUN_FILE} row {count} of {len(rows)}"
                )
            yield cell
    except FileNotFoundError as exc:
        raise DataMissing(f"{method_id}: call log {path} is missing") from exc
    if count != len(rows):
        raise MalformedRow(f"{path}: {count} records, not one of {method_id} per {RUN_FILE} row")


@dataclass(frozen=True)
class MethodRow:
    """One listed method's numbers, reduced from its call log as it is read.

    :func:`summarize_run` adds ``stats`` and ``ci`` to a method with a
    scored row; every report and sweep table reads only these rows.
    """

    method_id: str
    errors: list[float]
    located_latencies: list[float]
    total_cost: Decimal
    seconds_per_grant: float
    tokens_per_entry: float
    tool_usage: ToolUsageStats | None  # None unless some cell called a tool
    stats: ErrorStats | None = None  # None for a method with no scored row
    ci: BootstrapCI | None = None

    @classmethod
    def of(cls, method_id: str, cells: Iterable[Prediction]) -> "MethodRow":
        """Reduce ``cells`` in one pass, keeping counts and per-cell floats, not cells."""
        errors: list[float] = []
        located_latencies: list[float] = []
        latencies: list[float] = []  # for sum(), which from Python 3.12 rounds unlike a running +=
        total_cost, tokens = Decimal(0), 0

        def tallied() -> Iterator[Prediction]:
            nonlocal total_cost, tokens
            for p in cells:
                run = p.run
                latencies.append(run.latency_s)
                total_cost += run.cost_usd
                tokens += run.usage.input_tokens + run.usage.output_tokens
                if p.coordinate is not None:
                    located_latencies.append(run.latency_s)
                if p.error_km is not None:
                    errors.append(p.error_km)
                yield p

        tool_usage = trace_statistics(tallied())
        per_entry = max(len(latencies), 1)
        return cls(
            method_id=method_id,
            errors=errors,
            located_latencies=located_latencies,
            total_cost=total_cost,
            seconds_per_grant=sum(latencies) / per_entry,
            tokens_per_entry=tokens / per_entry,
            tool_usage=tool_usage if tool_usage.calls_per_entry_mean else None,
        )

    @property
    def cost_per_located(self) -> Decimal:
        located = len(self.located_latencies)
        return self.total_cost / located if located else Decimal(0)

    @property
    def cost_per_1k(self) -> Decimal:
        return self.cost_per_located * 1000


def summarize_run(run_dir: Path, ci_seed: int = 42, resamples: int = 10_000) -> list[MethodRow]:
    """The row of each method ``run.json`` lists, in roster order, each
    scored one with its error statistics and its bootstrap interval (the
    draws shared by every method of one size). Reads ``run.json`` and the
    listed call logs a record at a time; the results CSV is never read."""
    methods, row_ids = _read_roster(run_dir)
    rows = [MethodRow.of(mid, _read_log(run_dir, mid, row_ids)) for mid in methods]
    cis = iter(bootstrap_cis([row.errors for row in rows if row.errors], resamples=resamples, seed=ci_seed))
    return [replace(row, stats=summarize_errors(row.errors), ci=next(cis)) if row.errors else row for row in rows]


def _table(header: list[str], rows: Iterable[list]) -> list[str]:
    """The lines of a markdown table: the header, its rule, then each row of cells."""

    def line(cells: list) -> str:
        return "| " + " | ".join(map(str, cells)) + " |"

    return [line(header), "|" + "---|" * len(header), *map(line, rows)]


def _marginal(row: MethodRow) -> str:
    try:
        return f"{marginal_cost_per_hit(row.cost_per_1k, row.stats.bands[10.0] * 100.0):.2f}"
    except ZeroHitRate:
        return "n/a"


def _accuracy(row: MethodRow) -> list:
    st, ci = row.stats, row.ci
    interval = f"{st.mean:.1f} [{ci.lo:.1f}, {ci.hi:.1f}]"
    return [row.method_id, st.n, interval, f"{st.median:.1f}", f"{st.bands[10.0] * 100:.1f}"]


def _detail(row: MethodRow) -> list:
    st = row.stats
    quantities = (st.mean, st.median, st.sd, st.min, st.q1, st.q3, st.max)
    bands = (st.bands[t] * 100 for t in (1.0, 5.0, 10.0, 25.0, 50.0))
    return [row.method_id, st.n, *(f"{v:.2f}" for v in quantities), *(f"{b:.1f}%" for b in bands)]


def _processing(row: MethodRow) -> list:
    lat = latency_summary(row.located_latencies or [0.0])
    speedup = f"{lat.speedup_vs_baseline:,.0f}×" if lat.speedup_vs_baseline is not None else "n/a"
    return [row.method_id, f"{lat.hours_per_1k / 1000:.4f}", f"{lat.hours_per_1k:.3f}", speedup]


def _tool_usage(row: MethodRow) -> list:
    stats = row.tool_usage
    ratio = f"{stats.geocode_centroid_ratio:.2f}:1" if stats.geocode_centroid_ratio is not None else "n/a"
    fcs = f"{stats.first_call_success_rate * 100:.1f}%" if stats.first_call_success_rate is not None else "n/a"
    msi = f"{stats.mean_selected_index:.2f}" if stats.mean_selected_index is not None else "n/a"
    return [row.method_id, f"{stats.calls_per_entry_mean:.2f}", ratio, fcs, msi]


def generate_report(run_dir: str | Path, ci_seed: int = 42, resamples: int = 10_000) -> Path:
    """Write report.md plus plot-ready CSVs for the run in ``run_dir``."""
    run_dir = Path(run_dir)
    rows = summarize_run(run_dir, ci_seed, resamples)
    scored = sorted((row for row in rows if row.stats is not None), key=lambda row: row.stats.mean)
    if not scored:
        raise NoResults(f"no scored rows in {run_dir}")
    tool_rows = sorted((row for row in rows if row.tool_usage is not None), key=lambda row: row.method_id)

    lines = ["# Run report", "", "## Accuracy", ""]
    lines += _table(
        ["ID", "n", f"Mean ± {CI_LEVEL:.0%} CI (km)", "Median (km)", "≤10 km (%)"], map(_accuracy, scored)
    )
    lines += ["", "## Detailed performance", ""]
    lines += _table(
        ["Method", "n", "mean", "median", "sd", "min", "Q1", "Q3", "max"]
        + ["≤1 km", "≤5 km", "≤10 km", "≤25 km", "≤50 km"],
        map(_detail, scored),
    )
    lines += ["", "## Cost efficiency", ""]
    lines += _table(
        ["ID", "Cost / located (USD)", "Cost per 1k", "Mean error (km)"],
        ([r.method_id, f"{r.cost_per_located:.5f}", f"{r.cost_per_1k:.2f}", f"{r.stats.mean:.1f}"] for r in scored),
    )
    lines += ["", "## Processing time", ""]
    lines += _table(["ID", "Hours per located", "Hours per 1k", "Speedup vs. baseline"], map(_processing, scored))
    lines += ["", "## Marginal cost of high-precision accuracy", ""]
    lines += _table(
        ["ID", "≤10 km hit-rate", "Cost per 1k (USD)", "Cost per +1% ≤10 km hit (USD)"],
        ([r.method_id, f"{r.stats.bands[10.0] * 100:.1f}%", f"{r.cost_per_1k:.2f}", _marginal(r)] for r in scored),
    )
    if tool_rows:
        lines += ["", "## Tool usage", ""]
        lines += _table(
            ["Method", "Calls / entry (mean)", "geo:cent ratio", "First-call success", "Mean selected index"],
            map(_tool_usage, tool_rows),
        )

    cost_points = [
        {"id": r.method_id, "cost_per_1k": float(r.cost_per_1k), "mean_error_km": r.stats.mean} for r in scored
    ]
    cost_header = ["id", "cost_per_1k", "mean_error_km"]
    cost_row = itemgetter(*cost_header)
    write_csv(run_dir / "cost_vs_error.csv", cost_header, map(cost_row, cost_points))
    write_csv(run_dir / "pareto_frontier.csv", cost_header, map(cost_row, pareto_frontier(cost_points)))
    latency_rows = [[r.method_id, r.seconds_per_grant, r.stats.mean] for r in scored]
    write_csv(run_dir / "latency_vs_error.csv", ["id", "seconds_per_grant", "mean_error_km"], latency_rows)

    report_path = run_dir / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path


def write_sweep_report(out_dir: Path, axis: str, keys: list[tuple]) -> Path:
    """Write sweep.csv and sweep_report.md from the one run in ``out_dir``:
    :func:`summarize_run`'s rows, in roster order, each under its
    ``(axis value, base method_id)`` from ``keys``. A method with no scored
    row has n 0 and only its tokens."""
    header = "axis_value,method_id,n,mean_error_km,ci_lo_km,ci_hi_km,within_10km_pct,cost_per_1k,tokens_per_entry"
    table, md_rows = [], []
    for row, (value, method_id) in zip(summarize_run(out_dir), keys):  # the report's default CI seed and resamples
        tokens = f"{row.tokens_per_entry:.1f}"
        if row.stats is None:
            table.append([value, method_id, 0, "", "", "", "", "", tokens])
            md_rows.append([value, method_id, 0, "n/a", "n/a", "n/a", "n/a", tokens])
            continue
        st, ci = row.stats, row.ci
        hits, cost = f"{st.bands[10.0] * 100:.1f}", f"{row.cost_per_1k:.2f}"
        table.append([value, method_id, st.n, f"{st.mean:.4f}", f"{ci.lo:.4f}", f"{ci.hi:.4f}", hits, cost, tokens])
        interval = f"[{ci.lo:.2f}, {ci.hi:.2f}]"
        md_rows.append([value, method_id, st.n, f"{st.mean:.2f}", interval, hits, cost, tokens])
    write_csv(out_dir / "sweep.csv", header.split(","), table)
    lines = [f"# Sweep report: {axis}", ""]
    lines += _table(
        ["Value", "Method", "n", "Mean error (km)", f"{CI_LEVEL:.0%} CI (km)", "≤10 km (%)", "Cost per 1k (USD)"]
        + ["Tokens / entry"],
        md_rows,
    )
    report_path = out_dir / "sweep_report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report_path
