"""grantgeo benchmark: generate a seeded workspace, time the CLI's phases
from outside, check the outputs, and print the metrics.

    python3 benchmarks/bench.py --workload gaz-large|gaz-packaged|llm-replay \\
        --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` beside this
directory. One client, closed loop: each phase runs alone in a fresh
child interpreter (``phases.py``) so its peak RSS is its own.

With ``--trace 0`` the run repeats rounds of (run, report), each into a
fresh output directory, while the next round still fits in ``--seconds``
(always at least one); set-up-only children top the set-up samples up to five. It
reports medians. With ``--trace 1`` one traced child gives the per-layer
metrics. Either way every round's output is checked against the scripted
answers and its deterministic artefacts are digested; rounds must agree
byte for byte. The last line of output is one JSON object.

Workspaces live under ``.bench_work/`` in the checkout and are removed at
exit. See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # one invocation must end within 180 s
MIN_SETUP_SAMPLES = 5  # run children give one each; set-up-only children top up
REPORT_SAMPLES = 2  # fresh report children per round

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "report_s": "s",
    "run_peak_rss_mb": "MB",
    "report_peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

_DISTRIBUTIONS = [
    "baselines.resolver_ms", "baselines.heuristic_geoparse_self_ms", "baselines.ner_pipeline_ms",
    "baselines.entity_extractor_us", "baselines.expand_abbreviations_us", "baselines.extract_county_us",
    "baselines.county_centroid_us", "gateway.complete_us", "runners.one_shot_self_us",
    "runners.ensemble_self_us", "geo.parse_coordinate_text_us", "geo.aggregate_ensemble_us",
    "agent.run_tool_chain_self_ms", "agent.validate_tool_call_us", "agent.geocode_lookup_us",
]
_SCALARS = [
    "cli.import_s", "harness.load_config_ms", "harness.resolve_evalset_ms", "harness.io_s",
    "harness.report_self_s", "harness.ingest_external_s", "corpus.load_ground_truth_s",
    "baselines.load_gazetteer_s", "baselines.entity_hit_ratio.heuristic_geoparse",
    "baselines.entity_hit_ratio.ner_pipeline", "gateway.fixture_load_s", "gateway.complete_calls",
    "runners.parse_ok_ratio", "agent.tool_calls_per_grant", "agent.geocode_hit_ratio",
    "agent.geocoder_load_s", "agent.trace_statistics_s", "metrics.bootstrap_ci_s",
    "metrics.summarize_errors_ms", "metrics.bootstrap_peak_mb", "trace.overhead_s",
]


def _unit(name: str) -> str:
    if name.endswith((".n", "_calls", "_per_grant")):
        return "count"
    if name.endswith(".tail_pct"):
        return "%"
    if "ratio" in name:
        return "ratio"
    base = name.rsplit(".", 1)[0] if name.endswith((".p50", ".tail")) else name
    return {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB"}[base[base.rindex("_"):]]


PER_LAYER_UNITS = {
    name: _unit(name)
    for name in _SCALARS + [f"{d}.{part}" for d in _DISTRIBUTIONS for part in ("p50", "tail", "tail_pct", "n")]
}


class PhaseFailed(RuntimeError):
    pass


class Run:
    """One invocation: its workspace, its clock, and its child processes."""

    def __init__(self, workload: str, seed: int, work: Path):
        import workspace  # imports the package from src/

        self.started = time.perf_counter()
        self.work = work
        self.ws = workspace.build(workload, seed, work)
        self.ws_path = str(work / "workspace.json")
        self.expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, phase: str, out_dir: Path) -> dict:
        remaining = TIME_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise PhaseFailed(f"time limit reached before the {phase} phase")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "phases.py"), phase, self.ws_path, str(out_dir)],
                env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise PhaseFailed(f"{phase} phase did not finish within the time limit") from exc
        if proc.returncode != 0:
            raise PhaseFailed(f"{phase} phase exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, run_dir: Path) -> tuple[int, dict]:
        """Wrong cells in one output directory, and its artefact digests."""
        import oracle

        _, wrong, problems = oracle.check(run_dir, self.ws, self.expected)
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        return wrong, oracle.digests(run_dir, self.ws)


def measure(run: Run, seconds: float) -> dict:
    rounds: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        out = run.work / f"out{len(rounds)}"
        r = run.child("run", out)
        r["reports"] = [run.child("report", out) for _ in range(REPORT_SAMPLES)]
        r["wrong"], r["digests"] = run.check(out)
        shutil.rmtree(out)
        r["duration"] = time.perf_counter() - round_start
        rounds.append(r)
        print(f"round {len(rounds)}: setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s, report "
              + " ".join(f"{x['report_s']:.3f}" for x in r["reports"]) + f" s, {r['wrong']} wrong cells", file=sys.stderr)
        typical = statistics.median(x["duration"] for x in rounds)
        spent = time.perf_counter() - measure_start
        if spent + typical > seconds or run.elapsed() + 1.5 * typical > TIME_LIMIT_S:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run.child("setup", run.work / "setup")["setup_s"])
    print("set-up samples: " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)

    cells = sum(r["cells"] for r in rounds)
    failures = {r["failures"] for r in rounds}
    agree = all(r["digests"] == rounds[0]["digests"] for r in rounds)
    if not agree:
        print("mismatch: deterministic artefacts differ between rounds", file=sys.stderr)
    scripted = run.ws["scripted_failures"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "report_s": statistics.median(x["report_s"] for r in rounds for x in r["reports"]),
        "run_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "report_peak_rss_mb": statistics.median(x["peak_rss_mb"] for r in rounds for x in r["reports"]),
        "failed_frac": rounds[0]["failures"] / rounds[0]["cells"],
    }
    wrong = sum(r["wrong"] for r in rounds)
    return {
        "correct": wrong == 0 and agree and failures == {scripted},
        "attempted": cells,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "digests": rounds[0]["digests"],
        "rounds": len(rounds),
    }


def trace(run: Run) -> dict:
    t = run.child("trace", run.work / "trace")
    wrong, digests = run.check(Path(t["run_dir"]))
    missing = set(PER_LAYER_UNITS) - set(t["metrics"])
    if missing:
        raise PhaseFailed(f"trace phase did not report {sorted(missing)}")
    if t["loop_mismatches"]:
        print(f"mismatch: the benchmark's per-grant loop disagrees with run_evaluation on {t['loop_mismatches']} cells",
              file=sys.stderr)
    failed = wrong + t["loop_mismatches"]
    return {
        "correct": failed == 0,
        "attempted": t["cells"],
        "failed": failed,
        "metrics": {k: {"value": t["metrics"][k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
        "digests": digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grantgeo" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'grantgeo'}; run from a grantgeo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workspace

    if args.workload not in workspace.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workspace.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(args.workload, args.seed, work)
        result = trace(run) if args.trace else measure(run, args.seconds)
    except PhaseFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {run.ws['grants']} grants, {run.ws['cells']} cells, "
          f"{result.get('rounds', 1)} round(s), {run.elapsed():.1f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print("digests " + json.dumps(result.pop("digests"), sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
