"""grantgeo: geolocation pipelines and evaluation harness for narrative
land-grant abstracts.

The package splits into pure geodesy primitives (:mod:`grantgeo.geo`),
corpus handling (:mod:`grantgeo.corpus`), a chat-completion gateway with
deterministic fixture replay (:mod:`grantgeo.gateway`), one-shot and
ensemble runners (:mod:`grantgeo.runners`), a tool-calling agent loop
(:mod:`grantgeo.agent`), deterministic baselines
(:mod:`grantgeo.baselines`), evaluation statistics
(:mod:`grantgeo.metrics`), the run driver (:mod:`grantgeo.harness`) and
the run report (:mod:`grantgeo.report`). The statistics and the report
load numpy, so their names here are imported on first access.
"""

import importlib

from .geo import (
    EARTH_RADIUS_KM,
    NOISE,
    BoundingBox,
    ClusterAssignment,
    Coordinate,
    VIRGINIA_BBOX,
    format_dms,
    geodesic_dbscan,
    haversine_km,
    parse_coordinate_text,
    spherical_centroid,
    within_bbox,
)
from .corpus import (
    EvalSet,
    GrantAbstract,
    SplitConfig,
    fingerprint,
    load_ground_truth,
    redact_patentee,
    sample_fixed,
    split_corpus,
    word_count,
)
from .gateway import (
    DEFAULT_PRICES,
    FixtureBackend,
    LiveBackend,
    ModelConfig,
    PriceTable,
    RunRecord,
    TokenUsage,
    call_cost,
    default_price_table,
)
from .runners import EnsembleConfig, Prediction, aggregate_ensemble, run_ensemble, run_one_shot
from .agent import (
    TOOL_CATALOG,
    AgentBudget,
    Geocoder,
    GeocodeResult,
    ToolCallRecord,
    handle_compute_centroid,
    run_tool_chain,
    trace_statistics,
    validate_tool_call,
)
from .baselines import (
    VIRGINIA_CENTER,
    CountyCentroidTable,
    GazetteerEntry,
    HeuristicParams,
    expand_abbreviations,
    extract_county,
    heuristic_geoparse,
    predict_county_centroid,
    predict_ner_pipeline,
    tune_heuristic_grid,
)
from .harness import (
    MethodSpec,
    RunManifest,
    build_manifest,
    ingest_external_predictions,
    load_config,
    run_evaluation,
    sweep,
)

# Names whose modules load numpy, imported on first access (PEP 562) so
# that ``import grantgeo`` and ``grantgeo run`` never pay for numpy.
_LAZY = {
    **dict.fromkeys(
        (
            "BootstrapCI",
            "ErrorStats",
            "MethodSummary",
            "OlsFit",
            "bootstrap_ci",
            "bootstrap_cis",
            "drop_top_k_mean",
            "fit_ols",
            "latency_summary",
            "marginal_cost_per_hit",
            "pareto_frontier",
            "summarize_errors",
        ),
        "metrics",
    ),
    "generate_report": "report",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
