"""Evaluation driver: config loading, method runs, logs, sweeps.

A YAML config declares corpus paths, prices, and a method roster; the
driver runs each method over an evaluation set, writing one JSONL call
log per method (``runs/<method>/calls.jsonl``), a row-level results CSV
(``results_<evalset>.csv``) and, once every method has run, the roster
(``run.json``). :mod:`grantgeo.report` reads ``run.json`` and the listed
call logs into the run report; ``generate_report`` is also served from
here, imported on first use so that a run never loads numpy.
"""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from pathlib import Path

import yaml

from .agent import AgentBudget, Geocoder, GoogleGeocodeProvider, run_tool_chain, tool_validators
from .baselines import (
    CountyCentroidTable,
    Gazetteer,
    HeuristicParams,
    default_entity_extractor,
    gazetteer_resolver,
    heuristic_geoparse,
    load_gazetteer,
    packaged_gazetteer,
    predict_county_centroid,
    predict_ner_pipeline,
)
from .corpus import (
    GROUND_TRUTH_HEADER,
    EvalSet,
    GrantAbstract,
    MalformedRow,
    SampleTooLarge,
    SplitConfig,
    load_ground_truth,
    redact_patentee,
    sample_fixed,
    split_corpus,
)
from .gateway import (
    FixtureBackend,
    LiveBackend,
    ModelConfig,
    PriceTable,
    default_price_table,
)
from .geo import Coordinate, is_int, is_real
from .prompts import build_one_shot_prompt
from .runners import EnsembleConfig, Prediction, run_ensemble, run_one_shot


class ConfigInvalid(ValueError):
    """The config document is missing fields or violates an invariant."""


class DataMissing(FileNotFoundError):
    """A referenced data file does not exist."""


class NoResults(ValueError):
    """Report generation found no finished run (or no scored row) in the run directory."""


class AxisInapplicable(ValueError):
    """The sweep axis does not apply to the roster's model configs."""


@dataclass
class MethodSpec:
    """One roster entry: a pipeline plus exactly the fields it needs."""

    method_id: str
    pipeline: str
    model: ModelConfig | None = None
    ensemble: EnsembleConfig | None = None
    budget: AgentBudget | None = None
    params: HeuristicParams | None = None
    fixture_script: Path | None = None
    geocode_cache: Path | None = None
    gazetteer: Path | None = None
    predictions_file: Path | None = None
    total_cost_usd: Decimal = Decimal(0)
    latency_s_per_grant: float = 0.0
    redact_names: bool = False
    sweep_fixtures: dict[str | float, Path] = field(default_factory=dict)  # keyed by axis value

    def __post_init__(self):
        cost = self.total_cost_usd = Decimal(str(self.total_cost_usd))  # a YAML number or a string such as "140.00"
        if not (isinstance(self.method_id, str) and self.method_id and isinstance(self.redact_names, bool)):
            raise ValueError("method_id must be a non-empty string and redact_names true or false")
        if not (cost.is_finite() and cost >= 0 and is_real(self.latency_s_per_grant) and self.latency_s_per_grant >= 0):
            raise ValueError("total_cost_usd and latency_s_per_grant must be finite numbers >= 0")
        self.latency_s_per_grant = float(self.latency_s_per_grant)


@dataclass
class HarnessConfig:
    """Parsed configuration document."""

    ground_truth: Path
    split: SplitConfig
    evalsets: dict[str, dict]
    default_evalset: str
    prices: PriceTable
    backend_kind: str
    endpoint: str | None
    county_table: CountyCentroidTable
    methods: dict[str, MethodSpec]
    output_dir: Path


@dataclass
class RunManifest:
    """Everything one evaluation run needs."""

    config: HarnessConfig
    evalset: str
    methods: list[MethodSpec]
    seed: int = 42
    dry_run: bool = False
    max_rows: int | None = None
    output_dir: Path = Path("runs_out")


@dataclass
class RunOutcome:
    run_dir: Path
    cells: int
    failures: int
    predictions: dict[str, list[Prediction]]


_CONSTRUCTOR_ERRORS = (TypeError, ValueError, ArithmeticError)
_PATH_KEYS = ("fixture_script", "geocode_cache", "gazetteer", "predictions_file")
_METHOD_SECTIONS = {"model": ModelConfig, "ensemble": EnsembleConfig, "budget": AgentBudget, "params": HeuristicParams}


def _resolve(config_dir: Path, value, path: str) -> Path | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ConfigInvalid(f"{path} must be a file path, got {value!r}")
    p = Path(value)
    return p if p.is_absolute() else config_dir / p


def _mapping(value, path: str, keys=None) -> dict:
    """``value`` as a mapping ({} when absent), holding only ``keys`` when given."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{path} must be a mapping, got {value!r}")
    unknown = sorted(str(key) for key in value if keys is not None and key not in keys)
    if unknown:
        raise ConfigInvalid(f"{path}: unknown keys {unknown}")
    return value


def _build(cls, value, path: str):
    """``cls`` built from the mapping ``value`` of its fields; the constructor holds the defaults and checks."""
    kwargs = _mapping(value, path, {f.name for f in fields(cls)})
    try:
        return cls(**kwargs)
    except _CONSTRUCTOR_ERRORS as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> HarnessConfig:
    """Parse and validate the YAML config document."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"config file {path} does not exist")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"bad YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"the config document must be a mapping, got {type(doc).__name__}")
    config_dir = path.parent

    try:
        corpus_doc = _mapping(doc.get("corpus"), "corpus", ("ground_truth",))
        ground_truth = _resolve(config_dir, corpus_doc.get("ground_truth"), "corpus.ground_truth")
        if ground_truth is None:
            raise ConfigInvalid("corpus.ground_truth is required")

        split = _build(SplitConfig, doc.get("split"), "split")

        prices = default_price_table()
        for model_id, spec in _mapping(doc.get("prices"), "prices").items():
            spec = _mapping(spec, f"prices.{model_id}", ("input", "output"))
            missing = [key for key in ("input", "output") if key not in spec]
            if missing:
                raise ConfigInvalid(f"prices.{model_id}: missing {' and '.join(missing)}")
            try:
                prices.set_price(str(model_id), str(spec["input"]), str(spec["output"]))
            except _CONSTRUCTOR_ERRORS as exc:
                raise ConfigInvalid(f"prices.{model_id}: {exc}") from exc

        backend_doc = _mapping(doc.get("backend"), "backend", ("kind", "endpoint"))
        backend_kind = backend_doc.get("kind", "fixture")
        if backend_kind not in ("fixture", "live"):
            raise ConfigInvalid(f"backend.kind must be fixture or live, got {backend_kind!r}")
        endpoint = backend_doc.get("endpoint")
        if backend_kind == "live" and not (isinstance(endpoint, str) and endpoint):
            raise ConfigInvalid(f"the live backend requires a backend.endpoint URL, got {endpoint!r}")

        data_doc = _mapping(doc.get("data"), "data", ("county_table",))
        county_path = _resolve(config_dir, data_doc.get("county_table"), "data.county_table")
        county_table = CountyCentroidTable.from_csv(county_path) if county_path else CountyCentroidTable.packaged()

        methods: dict[str, MethodSpec] = {}
        for m in doc.get("methods") or []:
            spec = _parse_method(m, config_dir)
            if spec.method_id in methods:
                raise ConfigInvalid(f"duplicate method_id {spec.method_id!r}")
            try:
                if PIPELINES[spec.pipeline].llm:
                    prices.lookup(spec.model.model_id)
            except KeyError as exc:
                raise ConfigInvalid(f"{spec.method_id}: {exc.args[0]}; declare it under prices") from exc
            methods[spec.method_id] = spec
        if not methods:
            raise ConfigInvalid("at least one method is required")

        evalsets = _mapping(doc.get("evalsets"), "evalsets") or {"all": {"from": "all"}}
        evalsets = {name: _evalset(name, evalset_doc) for name, evalset_doc in evalsets.items()}
        default_evalset = doc.get("default_evalset")
        if default_evalset is None:
            default_evalset = next(iter(evalsets))
        if not isinstance(default_evalset, str) or default_evalset not in evalsets:
            raise ConfigInvalid(f"default_evalset must name a declared evalset, got {default_evalset!r}")

        return HarnessConfig(
            ground_truth=ground_truth,
            split=split,
            evalsets=evalsets,
            default_evalset=default_evalset,
            prices=prices,
            backend_kind=backend_kind,
            endpoint=endpoint,
            county_table=county_table,
            methods=methods,
            output_dir=_resolve(config_dir, doc.get("output_dir"), "output_dir") or config_dir / "runs_out",
        )
    except (ConfigInvalid, MalformedRow):  # a bad data.county_table row is a data error
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _evalset(name, value) -> dict:
    """One evalset declaration; whether ``n`` fits its set is checked once the corpus is loaded."""
    doc = _mapping(value, f"evalsets.{name}", ("from", "n", "seed", "require_truth"))
    n, seed = doc.get("n", 0), doc.get("seed", 0)
    if not (doc.get("from", "all") in ("all", "dev", "test") and is_int(n) and n >= 0 and is_int(seed)):
        raise ConfigInvalid(f"evalsets.{name}: need from all, dev or test and integers n >= 0 and seed, got {doc}")
    if not isinstance(doc.get("require_truth", False), bool):
        raise ConfigInvalid(f"evalsets.{name}.require_truth must be true or false, got {doc['require_truth']!r}")
    return doc


def _parse_method(doc, config_dir: Path) -> MethodSpec:
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"each methods entry must be a mapping, got {doc!r}")
    method_id = doc.get("method_id")
    name = doc.get("pipeline")
    pipeline = PIPELINES.get(name) if isinstance(name, str) else None
    if pipeline is None:
        raise ConfigInvalid(f"{method_id}: unknown pipeline {name!r}")
    missing = [key for key in pipeline.required if doc.get(key) is None]
    if missing:
        raise ConfigInvalid(f"{method_id}: pipeline {name} requires {sorted(missing)}")
    extra = set(doc) - {"method_id", "pipeline"} - set(pipeline.required) - set(pipeline.optional)
    if extra:
        raise ConfigInvalid(f"{method_id}: fields {sorted(map(str, extra))} are unknown or do not apply to {name}")
    values = {key: value for key, value in doc.items() if value is not None}  # a null key takes its default
    for key, cls in _METHOD_SECTIONS.items():
        if key in values:
            values[key] = _build(cls, values[key], f"{method_id}.{key}")
    for key in _PATH_KEYS:
        values[key] = _resolve(config_dir, values.get(key), f"{method_id}.{key}")
    sweeps = _mapping(values.get("sweep_fixtures"), f"{method_id}.sweep_fixtures")
    values["sweep_fixtures"] = {k: _resolve(config_dir, v, f"{method_id}.sweep_fixtures.{k}") for k, v in sweeps.items()}
    return _build(MethodSpec, values, str(method_id))


def build_manifest(
    config: HarnessConfig,
    evalset: str | None = None,
    methods: list[str] | None = None,
    seed: int = 42,
    dry_run: bool = False,
    max_rows: int | None = None,
    output_dir: str | Path | None = None,
) -> RunManifest:
    name = evalset or config.default_evalset
    if name not in config.evalsets:
        raise ConfigInvalid(f"unknown evalset {name!r}")
    if methods:
        unknown = [m for m in methods if m not in config.methods]
        if unknown:
            raise ConfigInvalid(f"unknown methods {unknown}")
        roster = [config.methods[m] for m in methods]
    else:
        roster = list(config.methods.values())
    if any(spec.pipeline == "tool_chain" for spec in roster):
        tool_validators()  # loads jsonschema and checks the tool schemas before any cell runs
    return RunManifest(
        config=config,
        evalset=name,
        methods=roster,
        seed=seed,
        dry_run=dry_run,
        max_rows=max_rows,
        output_dir=Path(output_dir) if output_dir else config.output_dir,
    )


def resolve_evalset(config: HarnessConfig, name: str, rows: list[GrantAbstract]) -> EvalSet:
    """Materialize a declared evalset against the loaded corpus."""
    doc = config.evalsets[name]
    source = doc.get("from", "all")
    if source == "all":
        members = EvalSet("all", tuple(sorted(r.row_id for r in rows)))
    else:  # dev or test, checked at load
        dev, test = split_corpus(rows, config.split)
        members = dev if source == "dev" else test
    if doc.get("require_truth"):
        with_truth = {r.row_id for r in rows if r.ground_truth is not None}
        members = EvalSet(members.name, tuple(m for m in members.members if m in with_truth))
    if "n" in doc:
        try:
            members = sample_fixed(members, doc["n"], doc.get("seed", config.split.seed))
        except SampleTooLarge as exc:
            raise ConfigInvalid(f"evalsets.{name}: {exc}") from exc
    return EvalSet(name, members.members)


def _check_files(manifest: RunManifest) -> None:
    config = manifest.config
    if not config.ground_truth.exists():
        raise DataMissing(f"ground truth file {config.ground_truth} is missing")
    for spec in manifest.methods:
        for key in _PATH_KEYS:
            p = getattr(spec, key)
            if p is not None and not Path(p).exists():
                raise DataMissing(f"{spec.method_id}: {key} {p} is missing")
        if config.backend_kind == "fixture" and PIPELINES[spec.pipeline].llm and spec.fixture_script is None:
            raise ConfigInvalid(f"{spec.method_id}: fixture backend requires fixture_script")


def _make_backend(spec: MethodSpec, config: HarnessConfig):
    if config.backend_kind == "fixture":
        return FixtureBackend.from_jsonl(spec.fixture_script)
    return LiveBackend(config.endpoint)


def ingest_external_predictions(
    path: str | Path,
    method_id: str,
    grants: list[GrantAbstract],
    total_cost_usd: Decimal = Decimal(0),
    latency_s_per_grant: float = 0.0,
) -> list[Prediction]:
    """Load externally produced coordinates (CSV ``row_id,lat,lon``).

    Predictions carry zero token usage; the configured total cost is
    spread evenly across the file's rows. Row ids not among ``grants``
    and bad coordinates are malformed.
    """
    path = Path(path)
    known = {g.row_id: g for g in grants}
    out: list[Prediction] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise MalformedRow(f"{path}: empty file, header required") from exc
        if header != ["row_id", "lat", "lon"]:
            raise MalformedRow(f"{path}: bad header {header!r}")
        data_rows = [row for row in reader if row]
    if not data_rows:
        return []
    accounting = {"latency_s": latency_s_per_grant, "cost_usd": Decimal(total_cost_usd) / len(data_rows)}
    for lineno, row in enumerate(data_rows, start=2):
        if len(row) != 3:
            raise MalformedRow(f"{path}:{lineno}: expected 3 columns")
        row_id, lat_txt, lon_txt = row
        grant = known.get(row_id)
        if grant is None:
            raise MalformedRow(f"{path}:{lineno}: unknown row_id {row_id!r}")
        try:
            coordinate = Coordinate(float(lat_txt), float(lon_txt))
        except ValueError as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}") from exc
        raw = f"{coordinate.lat}, {coordinate.lon}"
        out.append(Prediction.of(method_id, grant, coordinate, raw_response=raw, **accounting))
    return out


def _timed_baseline(spec: MethodSpec, locate: Callable[[str], tuple[Coordinate, str]]):
    """Wrap a deterministic ``text -> (coordinate, flag)`` baseline as a pipeline."""

    def predict(grant: GrantAbstract) -> Prediction:
        start = time.perf_counter()
        coordinate, flag = locate(grant.text)
        latency = time.perf_counter() - start
        raw = f"{coordinate.lat:.6f}, {coordinate.lon:.6f} [{flag}]"
        return Prediction.of(spec.method_id, grant, coordinate, latency_s=latency, raw_response=raw)

    return predict


@dataclass
class _RunScope:
    """What a pipeline's setup reads: the run's config, loaded corpus and
    seed, and its gazetteers, each path loaded (and so indexed) once per run."""

    config: HarnessConfig
    corpus: list[GrantAbstract]
    seed: int
    _gazetteers: dict[Path | None, Gazetteer] = field(default_factory=dict, init=False, repr=False)

    def gazetteer(self, path: Path | None) -> Gazetteer:
        if path not in self._gazetteers:
            self._gazetteers[path] = load_gazetteer(path) if path else packaged_gazetteer()
        return self._gazetteers[path]


def _setup_county_centroid(spec: MethodSpec, scope: _RunScope):
    return _timed_baseline(spec, lambda text: predict_county_centroid(text, scope.config.county_table))


def _setup_heuristic_geoparse(spec: MethodSpec, scope: _RunScope):
    resolver = gazetteer_resolver(scope.gazetteer(spec.gazetteer))
    return _timed_baseline(
        spec, lambda text: heuristic_geoparse(text, resolver, scope.config.county_table, spec.params)
    )


def _setup_ner_pipeline(spec: MethodSpec, scope: _RunScope):
    gazetteer = scope.gazetteer(spec.gazetteer)
    return _timed_baseline(
        spec, lambda text: predict_ner_pipeline(text, default_entity_extractor, gazetteer, scope.config.county_table)
    )


def _setup_ingest_external(spec: MethodSpec, scope: _RunScope):
    predictions = ingest_external_predictions(
        spec.predictions_file, spec.method_id, scope.corpus, spec.total_cost_usd, spec.latency_s_per_grant
    )
    by_id = {p.row_id: p for p in predictions}  # read only for the evaluated grants
    return lambda g: by_id.get(g.row_id) or Prediction.of(spec.method_id, g, None, reason="MissingExternalRow")


def _seeded(model: ModelConfig, seed: int) -> ModelConfig:
    return replace(model, seed=seed) if model.seed is None else model  # manifest seed as the default


def _redacted(spec: MethodSpec, grant: GrantAbstract) -> GrantAbstract:
    if not spec.redact_names:
        return grant
    return GrantAbstract.from_text(grant.row_id, redact_patentee(grant.text), grant.ground_truth)


def _setup_one_shot(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)
    model = _seeded(spec.model, scope.seed)
    return lambda grant: run_one_shot(backend, model, _redacted(spec, grant), spec.method_id, scope.config.prices)


def _setup_ensemble(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)  # members carry their own seeds
    return lambda grant: run_ensemble(
        backend, spec.model, spec.ensemble, _redacted(spec, grant), spec.method_id, scope.config.prices
    )


def _setup_tool_chain(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)
    model = _seeded(spec.model, scope.seed)
    provider = GoogleGeocodeProvider() if scope.config.backend_kind == "live" else None
    geocoder = Geocoder(provider=provider, cache_path=spec.geocode_cache)
    budget = spec.budget or AgentBudget()
    return lambda grant: run_tool_chain(backend, geocoder, model, grant, budget, spec.method_id, scope.config.prices)


@dataclass(frozen=True)
class Pipeline:
    """One pipeline: its method keys besides method_id and pipeline, whether
    it calls a model, a once-per-method ``setup(spec, scope)`` returning
    a ``grant -> Prediction`` callable, and its call-log request.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    llm: bool
    setup: Callable[..., Callable[[GrantAbstract], Prediction]]
    request_summary: Callable[[MethodSpec, GrantAbstract], str]


def _prompt_summary(spec: MethodSpec, grant: GrantAbstract) -> str:
    return build_one_shot_prompt(grant.text)[:160]


def _text_summary(spec: MethodSpec, grant: GrantAbstract) -> str:
    return grant.text[:160]


def _row_summary(spec: MethodSpec, grant: GrantAbstract) -> str:
    return f"{spec.pipeline}:{grant.row_id}"


_MODEL_KEYS = ("fixture_script", "sweep_fixtures")

PIPELINES: dict[str, Pipeline] = {
    "one_shot": Pipeline(("model",), _MODEL_KEYS + ("redact_names",), True, _setup_one_shot, _prompt_summary),
    "tool_chain": Pipeline(
        ("model",), _MODEL_KEYS + ("budget", "geocode_cache"), True, _setup_tool_chain, _text_summary
    ),
    "ensemble": Pipeline(
        ("model", "ensemble"), _MODEL_KEYS + ("redact_names",), True, _setup_ensemble, _prompt_summary
    ),
    "county_centroid": Pipeline((), (), False, _setup_county_centroid, _row_summary),
    "heuristic_geoparse": Pipeline(("params",), ("gazetteer",), False, _setup_heuristic_geoparse, _row_summary),
    "ner_pipeline": Pipeline((), ("gazetteer",), False, _setup_ner_pipeline, _row_summary),
    "ingest_external": Pipeline(
        ("predictions_file",), ("total_cost_usd", "latency_s_per_grant"), False, _setup_ingest_external, _row_summary
    ),
}


RUN_FILE = "run.json"


def _log_record(prediction: Prediction, request_summary: str) -> dict:
    run = prediction.run
    return {
        "method_id": run.method_id,
        "row_id": run.row_id,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "request": request_summary,
        "response": run.raw_response[:500],
        "tool_calls": [vars(r) for r in run.tool_calls],  # a ToolCallRecord's fields, in order
        "usage": {"input_tokens": run.usage.input_tokens, "output_tokens": run.usage.output_tokens},
        "latency_s": run.latency_s,
        "cost_usd": str(run.cost_usd),
        "final_coordinate": (
            [prediction.coordinate.lat, prediction.coordinate.lon] if prediction.coordinate else None
        ),
        "error_km": round(prediction.error_km, 6) if prediction.error_km is not None else None,  # as the CSV prints it
        "failed": run.failed,
        "reason": run.reason,
    }


def _write_results_csv(
    path: Path,
    grants: list[GrantAbstract],
    roster: list[MethodSpec],
    predictions: dict[str, list[Prediction]],
) -> None:
    header = list(GROUND_TRUTH_HEADER)
    for spec in roster:
        header += [f"{spec.method_id}_lat", f"{spec.method_id}_lon", f"{spec.method_id}_error_km", f"{spec.method_id}_failed"]
    by_key = {(mid, p.row_id): p for mid, preds in predictions.items() for p in preds}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for g in grants:
            row = [
                g.row_id,
                g.text,
                g.word_count,
                g.fingerprint,
                f"{g.ground_truth.lat:.6f}" if g.ground_truth else "",
                f"{g.ground_truth.lon:.6f}" if g.ground_truth else "",
            ]
            for spec in roster:
                p = by_key[(spec.method_id, g.row_id)]
                row += [
                    f"{p.coordinate.lat:.6f}" if p.coordinate else "",
                    f"{p.coordinate.lon:.6f}" if p.coordinate else "",
                    f"{p.error_km:.6f}" if p.error_km is not None else "",
                    "true" if p.run.failed else "false",
                ]
            writer.writerow(row)


def run_evaluation(manifest: RunManifest) -> RunOutcome:
    """Run every roster method over the evaluation set.

    Writes ``runs/<method>/calls.jsonl``, ``results_<evalset>.csv`` and
    then ``run.json`` (the evalset and roster) under the manifest's output
    directory; an older ``run.json`` is removed first, so a run that stops
    early leaves none. Per-row failures are recorded as failed rows, never
    aborting the run. In dry-run mode the config and data files are
    validated and the planned call matrix is printed; nothing external is
    touched and nothing is written.
    """
    config = manifest.config
    _check_files(manifest)
    rows = load_ground_truth(config.ground_truth)
    evalset = resolve_evalset(config, manifest.evalset, rows)
    by_id = {r.row_id: r for r in rows}
    grants = [by_id[m] for m in evalset.members]
    if manifest.max_rows is not None:
        grants = grants[: manifest.max_rows]

    if manifest.dry_run:
        print(f"dry run: evalset {manifest.evalset!r}, {len(grants)} grants x {len(manifest.methods)} methods")
        for spec in manifest.methods:
            print(f"  {spec.method_id}: pipeline={spec.pipeline} rows={len(grants)}")
        print(f"planned cells: {len(grants) * len(manifest.methods)}, external calls: 0")
        return RunOutcome(manifest.output_dir, len(grants) * len(manifest.methods), 0, {})

    run_dir = manifest.output_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / RUN_FILE).unlink(missing_ok=True)
    predictions: dict[str, list[Prediction]] = {}
    failures = 0
    scope = _RunScope(config, rows, manifest.seed)
    for spec in manifest.methods:
        pipeline = PIPELINES[spec.pipeline]
        predict = pipeline.setup(spec, scope)
        preds = [predict(grant) for grant in grants]
        del predict  # release this method's backend and caches before the next setup runs
        predictions[spec.method_id] = preds
        failures += sum(1 for p in preds if p.run.failed)
        method_dir = run_dir / "runs" / spec.method_id
        method_dir.mkdir(parents=True, exist_ok=True)
        with (method_dir / "calls.jsonl").open("w", encoding="utf-8") as fh:
            for grant, p in zip(grants, preds):
                fh.write(json.dumps(_log_record(p, pipeline.request_summary(spec, grant))) + "\n")

    _write_results_csv(run_dir / f"results_{manifest.evalset}.csv", grants, manifest.methods, predictions)
    rows = [g.row_id for g in grants]
    roster = {"evalset": manifest.evalset, "methods": [spec.method_id for spec in manifest.methods], "rows": rows}
    (run_dir / RUN_FILE).write_text(json.dumps(roster) + "\n", encoding="utf-8")
    return RunOutcome(run_dir, len(grants) * len(manifest.methods), failures, predictions)


def __getattr__(name: str):
    """Serve ``generate_report`` from :mod:`grantgeo.report`, which loads numpy, only when asked for."""
    if name == "generate_report":
        from .report import generate_report

        return generate_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- parameter sweeps ------------------------------------------------------

SWEEP_AXES = ("temperature", "reasoning_effort")


def _sweep_clone(spec: MethodSpec, axis: str, value) -> MethodSpec:
    """``spec`` at one axis value, replaying the sweep fixture whose key, read as the axis's type, equals it."""
    typed = is_real if axis == "temperature" else lambda key: isinstance(key, str)
    fixtures = [path for key, path in spec.sweep_fixtures.items() if typed(key) and key == value]
    if spec.sweep_fixtures and not fixtures:
        raise AxisInapplicable(f"{spec.method_id}: sweep_fixtures has no entry for {axis} {value}")
    try:
        model = replace(spec.model, **{axis: value})
    except ValueError as exc:
        raise AxisInapplicable(f"{spec.method_id}: {axis} {value}: {exc}") from exc
    fixture_script = fixtures[0] if fixtures else spec.fixture_script  # a method without sweep_fixtures replays its own
    return replace(spec, method_id=f"{spec.method_id}__{axis}_{value}", model=model, fixture_script=fixture_script)


def sweep(manifest: RunManifest, axis: str, values: list) -> tuple[Path, int]:
    """Clone the roster per axis value, run each, and tabulate results.

    temperature sweeps require rosters whose models use temperature (not
    reasoning effort), and vice versa; a mismatch raises
    AxisInapplicable, and a temperature that is not a number ConfigInvalid.
    Each value is a run in ``<axis>_<value>/``; :mod:`grantgeo.report`
    tabulates those runs. Returns the report's path and the failed cells.
    """
    if axis not in SWEEP_AXES:
        raise AxisInapplicable(f"unknown axis {axis!r}")
    for spec in manifest.methods:
        if not PIPELINES[spec.pipeline].llm:
            raise AxisInapplicable(f"{spec.method_id}: pipeline {spec.pipeline} has no {axis}")
        if axis == "temperature" and spec.model.reasoning_effort is not None:
            raise AxisInapplicable(f"{spec.method_id}: model is reasoning-effort based")
        if axis == "reasoning_effort" and spec.model.temperature is not None:
            raise AxisInapplicable(f"{spec.method_id}: model is temperature based")

    try:
        values = [float(v) if axis == "temperature" else str(v) for v in values]
    except ValueError as exc:
        raise ConfigInvalid(f"sweep values: temperatures must be numbers ({exc})") from exc
    rosters = [(v, [_sweep_clone(spec, axis, v) for spec in manifest.methods]) for v in values]  # before any run

    runs: list[tuple[object, Path]] = []
    failures = 0
    for value, clones in rosters:
        sub = replace(manifest, methods=clones, dry_run=False, output_dir=manifest.output_dir / f"{axis}_{value}")
        outcome = run_evaluation(sub)
        failures += outcome.failures
        runs.append((value, outcome.run_dir))
    from .report import write_sweep_report  # numpy loads once the runs are done

    return write_sweep_report(manifest.output_dir, axis, runs, [s.method_id for s in manifest.methods]), failures
