"""One benchmark phase in a fresh interpreter.

    python3 phases.py setup|run|report|trace WORKSPACE_JSON OUT_DIR

Prints one JSON object on its last line of output. ``setup`` and ``run``
pay what every CLI invocation pays: importing the package, loading the
config, building the manifest, and loading the workload's inputs. ``run``
then times ``run_evaluation`` into OUT_DIR, and ``report`` times
``generate_report`` on it. ``trace`` gives the per-layer numbers. Nothing
grantgeo-related is imported before the set-up clock starts.
"""

from __future__ import annotations

import csv
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path


TRACE_PASSES = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _setup(ws: dict, out_dir: Path) -> tuple[dict, object]:
    t0 = time.perf_counter()
    import grantgeo
    import grantgeo.cli  # noqa: F401  (the CLI's own import cost)
    from grantgeo.baselines import load_gazetteer, packaged_gazetteer
    from grantgeo.harness import build_manifest, load_config

    t1 = time.perf_counter()
    config = load_config(ws["config"])
    t2 = time.perf_counter()
    manifest = build_manifest(config, seed=42, output_dir=out_dir)
    t3 = time.perf_counter()
    rows = grantgeo.load_ground_truth(ws["ground_truth"])
    t4 = time.perf_counter()
    loaded = [rows]
    if ws["gazetteer"]:
        loaded.append(load_gazetteer(ws["gazetteer"]))
    elif any(m["pipeline"] in ("heuristic_geoparse", "ner_pipeline") for m in ws["methods"]):
        loaded.append(packaged_gazetteer())
    t5 = time.perf_counter()
    loaded += [grantgeo.FixtureBackend.from_jsonl(m["fixture_script"]) for m in ws["methods"] if "fixture_script" in m]
    t6 = time.perf_counter()
    loaded += [grantgeo.Geocoder(cache_path=m["geocode_cache"]) for m in ws["methods"] if "geocode_cache" in m]
    t7 = time.perf_counter()
    timings = {
        "setup_s": t7 - t0,
        "cli.import_s": t1 - t0,
        "harness.load_config_ms": (t2 - t1) * 1e3,
        "corpus.load_ground_truth_s": t4 - t3,
        "baselines.load_gazetteer_s": t5 - t4,
        "gateway.fixture_load_s": t6 - t5,
        "agent.geocoder_load_s": t7 - t6,
    }
    return timings, manifest


def phase_setup(ws: dict, out_dir: Path) -> dict:
    timings, _ = _setup(ws, out_dir)
    return {"setup_s": timings["setup_s"]}


def phase_run(ws: dict, out_dir: Path) -> dict:
    from_setup, manifest = _setup(ws, out_dir)
    from grantgeo.harness import run_evaluation

    start = time.perf_counter()
    outcome = run_evaluation(manifest)
    run_s = time.perf_counter() - start
    return {
        "setup_s": from_setup["setup_s"],
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "cells": outcome.cells,
        "failures": outcome.failures,
    }


def phase_report(ws: dict, out_dir: Path) -> dict:
    from grantgeo.harness import generate_report

    start = time.perf_counter()
    generate_report(out_dir)
    return {"report_s": time.perf_counter() - start, "peak_rss_mb": _peak_rss_mb()}


def _errors_by_method(run_dir: Path, evalset: str) -> dict[str, list[float]]:
    with (run_dir / f"results_{evalset}.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        methods = [c[: -len("_error_km")] for c in reader.fieldnames if c.endswith("_error_km")]
        errors: dict[str, list[float]] = {m: [] for m in methods}
        for row in reader:
            for m in methods:
                if row[f"{m}_error_km"]:
                    errors[m].append(float(row[f"{m}_error_km"]))
    return {m: e for m, e in errors.items() if e}


def _loop_mismatches(driven: dict, outcome_predictions: dict, grants: list) -> int:
    """Cells where the benchmark's per-grant loop and ``run_evaluation`` disagree."""

    def cell(p) -> tuple | None:
        coordinate = p[0] if isinstance(p, tuple) else (p.coordinate if p is not None else None)
        return (round(coordinate.lat, 6), round(coordinate.lon, 6)) if coordinate else None

    bad = 0
    for mid, preds in driven["predictions"].items():
        theirs = {p.row_id: p for p in outcome_predictions[mid]}
        bad += sum(1 for g, p in zip(grants, preds) if cell(p) != cell(theirs[g.row_id]))
    return bad


def phase_trace(ws: dict, out_dir: Path) -> dict:
    import tracemalloc

    from spans import Tracer, distribution, run_cells

    timings, manifest = _setup(ws, out_dir)
    import grantgeo
    from grantgeo.agent import ArgumentInvalid, trace_statistics, validate_tool_call
    from grantgeo.baselines import expand_abbreviations, extract_county
    from grantgeo.geo import UnparseableCoordinate, parse_coordinate_text
    from grantgeo.harness import generate_report, resolve_evalset, run_evaluation, load_config

    metrics = {k: v for k, v in timings.items() if k != "setup_s"}
    rows = grantgeo.load_ground_truth(ws["ground_truth"])
    start = time.perf_counter()
    evalset = resolve_evalset(load_config(ws["config"]), ws["evalset"], rows)
    metrics["harness.resolve_evalset_ms"] = (time.perf_counter() - start) * 1e3
    by_id = {r.row_id: r for r in rows}
    grants = [by_id[m] for m in evalset.members]

    # Interleaved passes, medians: spans off, spans on, the program's run.
    spans_off, spans_on, runs = [], [], []
    for k in range(TRACE_PASSES):
        start = time.perf_counter()
        run_cells(ws, grants, None)
        spans_off.append(time.perf_counter() - start)
        tracer = Tracer()
        start = time.perf_counter()
        driven = run_cells(ws, grants, tracer)
        spans_on.append(time.perf_counter() - start)
        run_dir = out_dir / f"pass{k}"
        start = time.perf_counter()
        outcome = run_evaluation(replace(manifest, output_dir=run_dir))
        runs.append(time.perf_counter() - start)
    metrics["trace.overhead_s"] = statistics.median(spans_on) - statistics.median(spans_off)
    metrics["harness.io_s"] = statistics.median(runs) - statistics.median(spans_off)
    metrics["harness.ingest_external_s"] = sum(tracer.durations("harness.ingest_external"))

    pipelines = {m["method_id"]: m["pipeline"] for m in ws["methods"]}
    dist = {
        "baselines.resolver_ms": (tracer.durations("baselines.resolver"), 1e3),
        "baselines.heuristic_geoparse_self_ms": (tracer.self_durations("baselines.heuristic_geoparse"), 1e3),
        "baselines.ner_pipeline_ms": (tracer.durations("baselines.ner_pipeline"), 1e3),
        "baselines.entity_extractor_us": (tracer.durations("baselines.entity_extractor"), 1e6),
        "baselines.county_centroid_us": (tracer.durations("baselines.county_centroid"), 1e6),
        "gateway.complete_us": (tracer.durations("gateway.complete"), 1e6),
        "runners.one_shot_self_us": (tracer.self_durations("runners.one_shot"), 1e6),
        "runners.ensemble_self_us": (tracer.self_durations("runners.ensemble"), 1e6),
        "agent.run_tool_chain_self_ms": (tracer.self_durations("agent.run_tool_chain"), 1e3),
        "agent.geocode_lookup_us": (tracer.durations("agent.geocode_lookup"), 1e6),
    }
    for pipeline in ("heuristic_geoparse", "ner_pipeline"):
        flags = [p[1] for mid, preds in driven["predictions"].items() if pipelines[mid] == pipeline for p in preds]
        metrics[f"baselines.entity_hit_ratio.{pipeline}"] = flags.count("entity") / len(flags) if flags else 0.0
    metrics["gateway.complete_calls"] = len(tracer.durations("gateway.complete"))

    # Internal steps with no collaborator to wrap: call the public function
    # once per input the run fed it.
    def timed(fn, inputs, catch=()) -> tuple[list[float], int]:
        out, ok = [], 0
        for args in inputs:
            start = time.perf_counter()
            try:
                fn(*args)
                ok += 1
            except catch:
                pass
            out.append(time.perf_counter() - start)
        return out, ok

    dist["baselines.expand_abbreviations_us"] = (timed(expand_abbreviations, [(g.text,) for g in grants])[0], 1e6)
    dist["baselines.extract_county_us"] = (timed(extract_county, [(g.text,) for g in grants])[0], 1e6)

    def replies(pipeline: str) -> list[list]:
        """Model responses per grant, for every method of ``pipeline``."""
        return [grant for mid, per_grant in driven["replies"].items() if pipelines[mid] == pipeline for grant in per_grant]

    def texts(pipeline: str) -> list[str]:
        return [r.text for grant in replies(pipeline) for r in grant if r.text is not None]

    runner_texts = texts("one_shot") + texts("ensemble")
    runner_parse, parse_ok = timed(parse_coordinate_text, [(t,) for t in runner_texts], UnparseableCoordinate)
    tool_parse, _ = timed(parse_coordinate_text, [(t,) for t in texts("tool_chain")], UnparseableCoordinate)
    dist["geo.parse_coordinate_text_us"] = (runner_parse + tool_parse, 1e6)
    metrics["runners.parse_ok_ratio"] = parse_ok / len(runner_texts) if runner_texts else 0.0

    member_points = []
    for grant in replies("ensemble"):
        points = []
        for r in grant:
            try:
                points.append(parse_coordinate_text(r.text))
            except UnparseableCoordinate:
                pass
        if points:
            member_points.append((points, driven["ensemble_config"]))
    dist["geo.aggregate_ensemble_us"] = (timed(grantgeo.aggregate_ensemble, member_points)[0], 1e6)

    requests = [(r.tool_call,) for grant in replies("tool_chain") for r in grant if r.tool_call is not None]
    dist["agent.validate_tool_call_us"] = (timed(validate_tool_call, requests, ArgumentInvalid)[0], 1e6)
    tool_preds = [p for mid, preds in driven["predictions"].items() if pipelines[mid] == "tool_chain" for p in preds]
    metrics["agent.tool_calls_per_grant"] = sum(len(p.run.tool_calls) for p in tool_preds) / len(tool_preds) if tool_preds else 0.0
    lookups = sum(g.hits + g.misses for g in driven["geocoders"])
    metrics["agent.geocode_hit_ratio"] = sum(g.hits for g in driven["geocoders"]) / lookups if lookups else 0.0

    start = time.perf_counter()
    generate_report(run_dir)
    report_s = time.perf_counter() - start
    errors = _errors_by_method(run_dir, ws["evalset"])
    boot = summ = 0.0
    for values in errors.values():
        start = time.perf_counter()
        grantgeo.summarize_errors(values)
        summ += time.perf_counter() - start
        start = time.perf_counter()
        grantgeo.bootstrap_ci(values, resamples=10_000, seed=42)
        boot += time.perf_counter() - start
    start = time.perf_counter()
    if tool_preds:
        trace_statistics(tool_preds)
    stats_s = time.perf_counter() - start if tool_preds else 0.0
    metrics["metrics.bootstrap_ci_s"] = boot
    metrics["metrics.summarize_errors_ms"] = summ * 1e3
    metrics["agent.trace_statistics_s"] = stats_s
    metrics["harness.report_self_s"] = report_s - boot - summ - stats_s
    tracemalloc.start()
    grantgeo.bootstrap_ci(max(errors.values(), key=len), resamples=10_000, seed=42)
    metrics["metrics.bootstrap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    for name, (values, scale) in dist.items():
        metrics.update(distribution(name, values, scale))
    return {
        "metrics": metrics,
        "loop_mismatches": _loop_mismatches(driven, outcome.predictions, grants),
        "cells": outcome.cells,
        "run_dir": str(run_dir),
    }


PHASES = {"setup": phase_setup, "run": phase_run, "report": phase_report, "trace": phase_trace}

if __name__ == "__main__":
    phase, ws_path, out = sys.argv[1:4]
    workspace = json.loads(Path(ws_path).read_text(encoding="utf-8"))
    print(json.dumps(PHASES[phase](workspace, Path(out))))
