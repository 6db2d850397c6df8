"""In-memory spans, collaborator proxies, and the benchmark's per-grant loop.

Spans are recorded only from the benchmark's side of each call into the
package: around a public function, or around a proxy passed in place of a
collaborator the function accepts (backend, geocoder, resolver,
extractor). Nothing is added inside the package.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from decimal import Decimal


class Tracer:
    """Spans as ``[name, start, end, parent_index]``, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_durations(self, name: str) -> list[float]:
        """Span duration minus the time its child spans cover."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - children[i] for i, (n, start, end, _) in enumerate(self.spans) if n == name]


class TracedBackend:
    """Backend proxy: one ``gateway.complete`` span per call; keeps each response."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.responses: list = []

    def complete(self, cfg, messages, tools=None):
        with self._tracer.span("gateway.complete"):
            response, usage = self._inner.complete(cfg, messages, tools)
        self.responses.append(response)
        return response, usage


class TracedGeocoder:
    """Geocoder proxy: one ``agent.geocode_lookup`` span per lookup; counts hits."""

    def __init__(self, inner, tracer: Tracer, not_found: type[Exception]):
        self._inner = inner
        self._tracer = tracer
        self._not_found = not_found
        self.hits = 0
        self.misses = 0

    def lookup(self, query, strategy=None):
        with self._tracer.span("agent.geocode_lookup"):
            try:
                result = self._inner.lookup(query, strategy)
            except self._not_found:
                self.misses += 1
                raise
        self.hits += 1
        return result


def traced_callable(fn, tracer: Tracer, name: str):
    def call(text):
        with tracer.span(name):
            return fn(text)

    return call


def distribution(name: str, seconds: list[float], scale: float) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it.

    ``tail_pct`` says which percentile ``tail`` is; with fewer than twenty
    samples no percentile qualifies and the median stands in. ``n`` is the
    sample count; a layer a workload does not exercise reports n = 0.
    """
    values = sorted(v * scale for v in seconds)
    n = len(values)
    if not n:
        return {f"{name}.p50": 0.0, f"{name}.tail": 0.0, f"{name}.tail_pct": 0.0, f"{name}.n": 0}

    def pct(q: float) -> float:
        return values[max(0, math.ceil(q / 100.0 * n) - 1)]

    tail_q = next((q for q in (99.9, 99.0, 95.0, 90.0, 75.0) if n * (1 - q / 100.0) >= 10), 50.0)
    return {f"{name}.p50": pct(50.0), f"{name}.tail": pct(tail_q), f"{name}.tail_pct": tail_q, f"{name}.n": n}


def run_cells(ws: dict, grants: list, tracer: Tracer | None) -> dict:
    """Do per method and grant what ``run_evaluation`` does, minus its writes.

    Collaborators are built from the workspace description with the
    package's public constructors. With ``tracer`` None no proxy is made and
    spans are no-ops, so the total is the span-free cost of the same calls.
    Returns predictions per method (None for a row the external file lacks)
    and, when traced, what the proxies saw: each LLM method's model
    responses, grouped per grant, and the geocoder proxies.
    """
    import grantgeo
    from grantgeo.agent import NotFound
    from grantgeo.baselines import default_entity_extractor, gazetteer_resolver, load_gazetteer, packaged_gazetteer

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    table = grantgeo.CountyCentroidTable.packaged()
    out: dict = {"predictions": {}, "replies": {}, "geocoders": []}
    for m in ws["methods"]:
        mid, pipeline = m["method_id"], m["pipeline"]
        if pipeline == "ingest_external":
            with span("harness.ingest_external"):
                got = grantgeo.ingest_external_predictions(
                    m["predictions_file"], mid, grants, Decimal(m["total_cost_usd"]), m["latency_s_per_grant"]
                )
            by_id = {p.row_id: p for p in got}
            out["predictions"][mid] = [by_id.get(g.row_id) for g in grants]
            continue

        if pipeline in ("county_centroid", "heuristic_geoparse", "ner_pipeline"):
            gazetteer = load_gazetteer(m["gazetteer"]) if "gazetteer" in m else packaged_gazetteer()
            params = grantgeo.HeuristicParams(**m["params"]) if "params" in m else None
            extractor = traced_callable(default_entity_extractor, tracer, "baselines.entity_extractor") if tracer else default_entity_extractor
            flags = []
            for g in grants:
                if pipeline == "county_centroid":
                    with span("baselines.county_centroid"):
                        flags.append(grantgeo.predict_county_centroid(g.text, table))
                elif pipeline == "heuristic_geoparse":
                    resolver = gazetteer_resolver(gazetteer)
                    if tracer:
                        resolver = traced_callable(resolver, tracer, "baselines.resolver")
                    with span("baselines.heuristic_geoparse"):
                        flags.append(grantgeo.heuristic_geoparse(g.text, resolver, table, params))
                else:
                    with span("baselines.ner_pipeline"):
                        flags.append(grantgeo.predict_ner_pipeline(g.text, extractor, gazetteer, table))
            out["predictions"][mid] = flags
            continue

        backend = grantgeo.FixtureBackend.from_jsonl(m["fixture_script"])
        if tracer:
            backend = TracedBackend(backend, tracer)
        model = grantgeo.ModelConfig(**m["model"])
        if pipeline != "ensemble":
            model = replace(model, seed=42)  # the manifest seed, as the CLI passes it
        if pipeline == "one_shot":
            name = "runners.one_shot"

            def call(g):
                return grantgeo.run_one_shot(backend, model, g, mid)
        elif pipeline == "ensemble":
            name = "runners.ensemble"
            ens = out["ensemble_config"] = grantgeo.EnsembleConfig(**m["ensemble"], seeds=tuple(range(m["ensemble"]["k"])))

            def call(g):
                return grantgeo.run_ensemble(backend, model, ens, g, mid)
        else:
            name = "agent.run_tool_chain"
            geocoder = grantgeo.Geocoder(cache_path=m["geocode_cache"])
            if tracer:
                geocoder = TracedGeocoder(geocoder, tracer, NotFound)
                out["geocoders"].append(geocoder)
            budget = grantgeo.AgentBudget(**m["budget"])

            def call(g):
                return grantgeo.run_tool_chain(backend, geocoder, model, g, budget, mid)

        preds, per_grant = [], []
        for g in grants:
            before = len(backend.responses) if tracer else 0
            with span(name):
                preds.append(call(g))
            if tracer:
                per_grant.append(backend.responses[before:])
        out["predictions"][mid] = preds
        out["replies"][mid] = per_grant
    return out
