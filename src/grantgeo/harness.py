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

import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from pathlib import Path

import yaml

from .agent import AgentBudget, Geocoder, GoogleGeocodeProvider, run_tool_chain
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
    DuplicateId,
    EvalSet,
    GrantAbstract,
    MalformedRow,
    SampleTooLarge,
    SplitConfig,
    load_ground_truth,
    read_csv,
    redact_patentee,
    sample_fixed,
    split_corpus,
    write_csv,
    write_jsonl,
)
from .gateway import (
    FixtureBackend,
    LiveBackend,
    ModelConfig,
    PriceTable,
    default_price_table,
)
from .geo import Coordinate, is_int, is_real
from .runners import EnsembleConfig, Prediction, run_ensemble, run_one_shot


class ConfigInvalid(ValueError):
    """The config document is missing fields or violates an invariant."""


class DataMissing(FileNotFoundError):
    """A referenced data file does not exist."""


class NoResults(ValueError):
    """Report generation found no finished run (or no scored row) in the run directory."""


class AxisInapplicable(ValueError):
    """The sweep axis does not apply to the roster's model configs."""


def _check_path_component(kind: str, name) -> None:
    """ConfigInvalid unless ``name`` is a non-empty string fit to be one file or directory name."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigInvalid(f"{kind} {name!r} is not a single path component")


_METHOD_COLUMNS = ("_lat", "_lon", "_error_km", "_failed")
"""The suffixes, after its method_id, of each method's results-CSV columns."""


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
        if not isinstance(self.redact_names, bool):
            raise ValueError("redact_names must be true or false")
        _check_path_component("method_id", self.method_id)  # it names a log directory
        clash = next((c for c in (self.method_id + s for s in _METHOD_COLUMNS) if c in GROUND_TRUTH_HEADER), None)
        if clash:  # a CSV reader would take the method's cell for the ground truth's
            raise ValueError(f"its results column {clash} would repeat a ground-truth column")
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
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
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
        if county_path:
            _check_file(county_path, "data.county_table")
            county_table = CountyCentroidTable.from_csv(county_path)
        else:
            county_table = CountyCentroidTable.packaged()

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
    except (ConfigInvalid, MalformedRow, DuplicateId):  # a bad data.county_table row is a data error
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def _evalset(name, value) -> dict:
    """One evalset declaration; whether ``n`` fits its set is checked once the corpus is loaded."""
    _check_path_component("evalset", name)  # it names the results CSV
    doc = _mapping(value, f"evalsets.{name}", ("from", "n", "seed", "require_truth"))
    n, seed = doc.get("n", 1), doc.get("seed", 0)
    if not (doc.get("from", "all") in ("all", "dev", "test") and is_int(n) and n >= 1 and is_int(seed)):
        raise ConfigInvalid(f"evalsets.{name}: need from all, dev or test and integers n >= 1 and seed, got {doc}")
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
    if max_rows is not None and max_rows < 1:  # a slice would drop rows from the end, or all of them
        raise ConfigInvalid(f"max_rows must be at least 1, got {max_rows}")
    if methods:
        unknown = [m for m in methods if m not in config.methods]
        if unknown:
            raise ConfigInvalid(f"unknown methods {unknown}")
        repeated = sorted({m for m in methods if methods.count(m) > 1})
        if repeated:  # a second run of a method would overwrite its log and repeat its CSV columns
            raise ConfigInvalid(f"methods named more than once: {repeated}")
    roster = [config.methods[m] for m in methods] if methods else list(config.methods.values())
    output_dir = Path(output_dir) if output_dir else config.output_dir
    nearest = next((p for p in (output_dir, *output_dir.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():  # the run could not make its directory
        raise ConfigInvalid(f"output directory {output_dir}: {nearest} is not a directory")
    return RunManifest(
        config=config,
        evalset=name,
        methods=[_seeded(spec, seed) for spec in roster],
        dry_run=dry_run,
        max_rows=max_rows,
        output_dir=output_dir,
    )


def _seeded(spec: MethodSpec, seed: int) -> MethodSpec:
    """``spec`` with the run's seed in a one_shot or tool_chain model that sets none (ensembles use their seeds)."""
    if spec.pipeline not in ("one_shot", "tool_chain") or spec.model.seed is not None:
        return spec
    return replace(spec, model=replace(spec.model, seed=seed))


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
    if not members.members:  # a run of no grant has nothing to report
        raise ConfigInvalid(f"evalsets.{name}: selects no grant")
    if "n" in doc:
        try:
            members = sample_fixed(members, doc["n"], doc.get("seed", config.split.seed))
        except SampleTooLarge as exc:
            raise ConfigInvalid(f"evalsets.{name}: {exc}") from exc
    return EvalSet(name, members.members)


def _check_file(path: Path, name: str) -> None:
    """DataMissing naming ``name`` and ``path`` unless ``path`` is a file; a directory is not."""
    if not path.is_file():
        raise DataMissing(f"{name} {path} is {'not a file' if path.exists() else 'missing'}")


def _check_files(manifest: RunManifest) -> None:
    config = manifest.config
    _check_file(config.ground_truth, "corpus.ground_truth")
    for spec in manifest.methods:
        for key in _PATH_KEYS:
            if getattr(spec, key) is not None:
                _check_file(Path(getattr(spec, key)), f"{spec.method_id}: {key}")
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
    spread evenly across the file's rows. Row ids not among ``grants``,
    repeated row ids and bad coordinates are malformed.
    """
    known, seen = {g.row_id: g for g in grants}, set()

    def located(row_id: str, lat: str, lon: str) -> tuple[GrantAbstract, Coordinate]:
        if row_id not in known or row_id in seen:
            raise ValueError(f"{'repeated' if row_id in seen else 'unknown'} row_id {row_id!r}")
        seen.add(row_id)
        return known[row_id], Coordinate(float(lat), float(lon))

    rows = read_csv(path, "row_id,lat,lon", located, ["row_id", "lat", "lon"], exact=True)
    accounting = {"latency_s": latency_s_per_grant, "cost_usd": Decimal(total_cost_usd) / (len(rows) or 1)}
    return [Prediction.of(method_id, g, c, raw_response=f"{c.lat}, {c.lon}", **accounting) for g, c in rows]


def _baseline(spec: MethodSpec, locate: Callable[[str], tuple[Coordinate, str]]):
    """Wrap a deterministic ``text -> (coordinate, flag)`` baseline as a pipeline."""

    def predict(grant: GrantAbstract) -> Prediction:
        coordinate, flag = locate(grant.text)
        raw = f"{coordinate.lat:.6f}, {coordinate.lon:.6f} [{flag}]"
        return Prediction.of(spec.method_id, grant, coordinate, raw_response=raw)

    return predict


@dataclass
class _RunScope:
    """What a pipeline's setup reads: the run's config and loaded corpus,
    and its gazetteers, each path loaded (and so indexed) once per run."""

    config: HarnessConfig
    corpus: list[GrantAbstract]
    _gazetteers: dict[Path | None, Gazetteer] = field(default_factory=dict, init=False, repr=False)

    def gazetteer(self, path: Path | None) -> Gazetteer:
        if path not in self._gazetteers:
            self._gazetteers[path] = load_gazetteer(path) if path else packaged_gazetteer()
        return self._gazetteers[path]


def _setup_county_centroid(spec: MethodSpec, scope: _RunScope):
    return _baseline(spec, lambda text: predict_county_centroid(text, scope.config.county_table))


def _setup_heuristic_geoparse(spec: MethodSpec, scope: _RunScope):
    resolver = gazetteer_resolver(scope.gazetteer(spec.gazetteer))
    return _baseline(
        spec, lambda text: heuristic_geoparse(text, resolver, scope.config.county_table, spec.params)
    )


def _setup_ner_pipeline(spec: MethodSpec, scope: _RunScope):
    gazetteer = scope.gazetteer(spec.gazetteer)
    return _baseline(
        spec, lambda text: predict_ner_pipeline(text, default_entity_extractor, gazetteer, scope.config.county_table)
    )


def _setup_ingest_external(spec: MethodSpec, scope: _RunScope):
    predictions = ingest_external_predictions(
        spec.predictions_file, spec.method_id, scope.corpus, spec.total_cost_usd, spec.latency_s_per_grant
    )
    by_id = {p.row_id: p for p in predictions}  # read only for the evaluated grants
    return lambda g: by_id.get(g.row_id) or Prediction.of(spec.method_id, g, None, reason="MissingExternalRow")


def _setup_one_shot(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)
    return lambda grant: run_one_shot(backend, spec.model, grant, spec.method_id, scope.config.prices)


def _setup_ensemble(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)
    return lambda grant: run_ensemble(backend, spec.model, spec.ensemble, grant, spec.method_id, scope.config.prices)


def _setup_tool_chain(spec: MethodSpec, scope: _RunScope):
    backend = _make_backend(spec, scope.config)
    provider = GoogleGeocodeProvider() if scope.config.backend_kind == "live" else None
    geocoder = Geocoder(provider=provider, cache_path=spec.geocode_cache)
    budget = spec.budget or AgentBudget()
    return lambda grant: run_tool_chain(backend, geocoder, spec.model, grant, budget, spec.method_id, scope.config.prices)


@dataclass(frozen=True)
class Pipeline:
    """One pipeline: its method keys besides method_id and pipeline, whether
    it calls a model, and a once-per-method ``setup(spec, scope)`` returning
    a ``grant -> Prediction`` callable.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    llm: bool
    setup: Callable[..., Callable[[GrantAbstract], Prediction]]


_MODEL_KEYS = ("fixture_script", "sweep_fixtures")

PIPELINES: dict[str, Pipeline] = {
    "one_shot": Pipeline(("model",), _MODEL_KEYS + ("redact_names",), True, _setup_one_shot),
    "tool_chain": Pipeline(("model",), _MODEL_KEYS + ("budget", "geocode_cache"), True, _setup_tool_chain),
    "ensemble": Pipeline(("model", "ensemble"), _MODEL_KEYS + ("redact_names",), True, _setup_ensemble),
    "county_centroid": Pipeline((), (), False, _setup_county_centroid),
    "heuristic_geoparse": Pipeline(("params",), ("gazetteer",), False, _setup_heuristic_geoparse),
    "ner_pipeline": Pipeline((), ("gazetteer",), False, _setup_ner_pipeline),
    "ingest_external": Pipeline(
        ("predictions_file",), ("total_cost_usd", "latency_s_per_grant"), False, _setup_ingest_external
    ),
}


RUN_FILE = "run.json"


def call_log_path(run_dir: Path, method_id: str) -> Path:
    """Where a run in ``run_dir`` writes ``method_id``'s call log."""
    return run_dir / "runs" / method_id / "calls.jsonl"


def _write_results_csv(path: Path, grants: list[GrantAbstract], predictions: dict[str, list[Prediction]]) -> None:
    """One row per grant: its ground truth, then its cell of each method; each method's cells are in grant order."""
    header = list(GROUND_TRUTH_HEADER)
    for mid in predictions:
        header += [f"{mid}{suffix}" for suffix in _METHOD_COLUMNS]
    rows = []
    for g, *cells in zip(grants, *predictions.values(), strict=True):
        row = g.ground_truth_row()
        for p in cells:
            row += [
                f"{p.coordinate.lat:.6f}" if p.coordinate else "",
                f"{p.coordinate.lon:.6f}" if p.coordinate else "",
                f"{p.error_km:.6f}" if p.error_km is not None else "",
                "true" if p.failed else "false",
            ]
        rows.append(row)
    write_csv(path, header, rows)


def run_evaluation(manifest: RunManifest) -> RunOutcome:
    """Run every roster method over the evaluation set.

    Writes ``runs/<method>/calls.jsonl``, ``results_<evalset>.csv`` and
    then ``run.json`` (the evalset, start time, roster and rows) under the
    manifest's output directory, removing an older CSV and ``run.json``
    first, so a run that stops early leaves neither. A ``redact_names``
    method is given, and logs, each grant with the patentee masked. A cell's
    ``latency_s`` is the wall time of its whole predict call, except that
    ``ingest_external`` cells keep the configured figure. Per-row
    failures are recorded as failed rows, never aborting the run. In dry-run
    mode the config and data files are validated and the planned call
    matrix is printed; nothing external is touched and nothing is written.
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
    results_csv = run_dir / f"results_{manifest.evalset}.csv"
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in (results_csv, run_dir / RUN_FILE):
        stale.unlink(missing_ok=True)
    predictions: dict[str, list[Prediction]] = {}
    failures = 0
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    scope = _RunScope(config, rows)
    for spec in manifest.methods:
        pipeline = PIPELINES[spec.pipeline]
        given = grants
        if spec.redact_names:
            given = [GrantAbstract.from_text(g.row_id, redact_patentee(g.text), g.ground_truth) for g in grants]
        predict = pipeline.setup(spec, scope)
        if "latency_s_per_grant" in pipeline.optional:  # ingest_external: the configured figure stands
            preds = [predict(grant) for grant in given]
        else:
            preds = []
            for grant in given:
                start = time.perf_counter()
                preds.append(predict(grant))
                preds[-1].run.latency_s = time.perf_counter() - start
        del predict  # release this method's backend and caches before the next setup runs
        predictions[spec.method_id] = preds
        failures += sum(1 for p in preds if p.failed)
        log = call_log_path(run_dir, spec.method_id)
        log.parent.mkdir(parents=True, exist_ok=True)
        requests = (g.text[:160] if pipeline.llm else f"{spec.pipeline}:{g.row_id}" for g in given)
        write_jsonl(log, (p.to_json(request) for p, request in zip(preds, requests)))

    _write_results_csv(results_csv, grants, predictions)
    rows = [g.row_id for g in grants]
    roster = {"evalset": manifest.evalset, "started": started, "methods": list(predictions), "rows": rows}
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


def _sweep_clone(spec: MethodSpec, axis: str, value, replays: bool) -> MethodSpec:
    """``spec`` at one axis value, replaying the sweep fixture whose key, read as the axis's type, equals it.

    Only a run that ``replays`` fixtures needs that entry; a live run sends the value itself.
    """
    typed = is_real if axis == "temperature" else lambda key: isinstance(key, str)
    fixtures = [path for key, path in spec.sweep_fixtures.items() if typed(key) and key == value]
    if replays and spec.sweep_fixtures and not fixtures:
        raise AxisInapplicable(f"{spec.method_id}: sweep_fixtures has no entry for {axis} {value}")
    try:
        model = replace(spec.model, **{axis: value})
    except ValueError as exc:
        raise AxisInapplicable(f"{spec.method_id}: {axis} {value}: {exc}") from exc
    fixture_script = fixtures[0] if fixtures else spec.fixture_script  # a method without sweep_fixtures replays its own
    return replace(spec, method_id=f"{spec.method_id}__{axis}_{value}", model=model, fixture_script=fixture_script)


def sweep(manifest: RunManifest, axis: str, values: list) -> tuple[Path, int]:
    """Run every method at every axis value as one run, and tabulate it.

    Each value clones the roster (``M-5__temperature_0.2``); the clones,
    value by value, are the roster of one run in ``manifest.output_dir``,
    which ``report`` reads like any other. An axis the roster's pipelines
    or models cannot take raises AxisInapplicable before anything runs,
    and a temperature that is not a number, or a value given twice,
    ConfigInvalid. Returns the sweep report's path and the failed cells.
    """
    if axis not in SWEEP_AXES:
        raise AxisInapplicable(f"unknown axis {axis!r}")
    for spec in manifest.methods:
        if not PIPELINES[spec.pipeline].llm:
            raise AxisInapplicable(f"{spec.method_id}: pipeline {spec.pipeline} has no {axis}")
    try:
        values = [float(v) if axis == "temperature" else str(v) for v in values]
    except ValueError as exc:
        raise ConfigInvalid(f"sweep values: temperatures must be numbers ({exc})") from exc
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:  # a repeated value would give two clones one method_id
        raise ConfigInvalid(f"sweep values given more than once: {repeated}")
    replays = manifest.config.backend_kind == "fixture"
    clones = [_sweep_clone(spec, axis, v, replays) for v in values for spec in manifest.methods]  # before the run
    outcome = run_evaluation(replace(manifest, methods=clones, dry_run=False))
    from .report import write_sweep_report  # numpy loads once the run is done

    keys = [(v, spec.method_id) for v in values for spec in manifest.methods]
    return write_sweep_report(manifest.output_dir, axis, keys), outcome.failures
