"""Tool-agent loop: validation, geocoder cache, budgets, replay, stats."""

from __future__ import annotations

import json
from decimal import Decimal

import jsonschema
import pytest

from grantgeo import agent
from grantgeo.agent import (
    AgentBudget,
    ArgumentInvalid,
    Geocoder,
    NotFound,
    ProviderError,
    TOOL_CATALOG,
    ToolCallRecord,
    handle_compute_centroid,
    run_tool_chain,
    tool_validators,
    trace_statistics,
    validate_tool_call,
    write_geocode_cache,
)
from grantgeo.corpus import GrantAbstract, MalformedRow
from grantgeo.gateway import (
    FixtureBackend,
    ModelConfig,
    RunRecord,
    TokenUsage,
    ToolCallRequest,
    text_turn,
    tool_call_turn,
)
from grantgeo.geo import Coordinate, VIRGINIA_BBOX, within_bbox
from grantgeo.prompts import TOOL_SYSTEM_PROMPT
from grantgeo.runners import Prediction

import replay_trace

CFG = ModelConfig("gpt-4.1-2025-04-14", temperature=0.2)
GRANT = GrantAbstract.from_text("grant_04", replay_trace.SWAMP_GRANT_TEXT, Coordinate(37.19, -77.25))


class TestValidateToolCall:
    def test_missing_query(self):
        with pytest.raises(ArgumentInvalid):
            validate_tool_call(ToolCallRequest("geocode_place", {}))

    def test_empty_points(self):
        with pytest.raises(ArgumentInvalid):
            validate_tool_call(ToolCallRequest("compute_centroid", {"points": []}))

    def test_single_point_violates_min_items(self):
        with pytest.raises(ArgumentInvalid):
            validate_tool_call(ToolCallRequest("compute_centroid", {"points": [{"lat": 1.0, "lng": 2.0}]}))

    def test_strategy_enum(self):
        args = validate_tool_call(
            ToolCallRequest("geocode_place", {"query": "x", "strategy": "natural_feature"})
        )
        assert args["strategy"] == "natural_feature"
        with pytest.raises(ArgumentInvalid):
            validate_tool_call(ToolCallRequest("geocode_place", {"query": "x", "strategy": "web_search"}))

    def test_unknown_tool(self):
        with pytest.raises(ArgumentInvalid):
            validate_tool_call(ToolCallRequest("search_web", {"query": "x"}))

    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("geocode_place", {}),
            ("geocode_place", {"query": 7}),
            ("geocode_place", {"query": "x", "strategy": "web_search"}),
            ("geocode_place", []),
            ("compute_centroid", {"points": []}),
            ("compute_centroid", {"points": [{"lat": 1.0}, {"lng": "2"}]}),
        ],
    )
    def test_message_matches_jsonschema_validate(self, name, arguments):
        schema = next(t["parameters"] for t in TOOL_CATALOG if t["name"] == name)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(arguments, schema)
        with pytest.raises(ArgumentInvalid) as got:
            validate_tool_call(ToolCallRequest(name, arguments))
        assert str(got.value) == expected.value.message

    def test_validators_check_each_schema(self, monkeypatch):
        bad = {"name": "geocode_place", "parameters": {"type": "object", "required": "query"}}
        monkeypatch.setattr(agent, "TOOL_CATALOG", [bad])
        tool_validators.cache_clear()
        try:
            with pytest.raises(jsonschema.SchemaError):
                tool_validators()
        finally:
            tool_validators.cache_clear()

    def test_catalog_wire_format(self):
        names = [t["name"] for t in TOOL_CATALOG]
        assert names == ["geocode_place", "compute_centroid"]
        geocode = TOOL_CATALOG[0]["parameters"]
        assert geocode["required"] == ["query"]
        assert geocode["properties"]["strategy"]["enum"] == [
            "natural_feature",
            "restricted_va",
            "standard_va",
            "county_fallback",
        ]
        centroid = TOOL_CATALOG[1]["parameters"]
        assert centroid["properties"]["points"]["minItems"] == 2
        assert centroid["properties"]["points"]["items"]["required"] == ["lat", "lng"]


class CountingProvider:
    """Scripted provider that counts lookups."""

    def __init__(self, answers):
        self.answers = answers
        self.calls = 0

    def geocode(self, query, strategy):
        self.calls += 1
        answer = self.answers.get(query)
        if answer == "error":
            raise ProviderError("boom")
        return answer


class TestGeocoder:
    def test_cache_hit_returns_identical_bytes(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        geocoder = Geocoder(cache_path=cache)
        a = geocoder.lookup("Holloway Swamp, Sussex County, Virginia")
        b = geocoder.lookup("Holloway Swamp, Sussex County, Virginia")
        assert json.dumps(a.to_payload()) == json.dumps(b.to_payload())
        assert a.lat == 36.9058167 and a.lng == -77.2405153
        assert a.formatted_address == "Sussex County, VA, USA"

    def test_second_fixture_point(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        geocoder = Geocoder(cache_path=cache)
        r = geocoder.lookup("Blackwater Swamp, Sussex County, Virginia")
        assert (r.lat, r.lng) == (37.10810973, -77.15139208)
        assert r.formatted_address == "Blackwater Swamp, Virginia 23842, USA"

    def test_out_of_state_candidate_filtered(self):
        provider = CountingProvider({"New York City": {"lat": 40.71, "lng": -74.0, "formatted_address": "NYC"}})
        geocoder = Geocoder(provider=provider)
        with pytest.raises(NotFound):
            geocoder.lookup("New York City")

    def test_provider_consulted_once_per_key(self, tmp_path):
        provider = CountingProvider(
            {"Henrico": {"lat": 37.53, "lng": -77.4, "formatted_address": "Henrico, VA"}}
        )
        geocoder = Geocoder(provider=provider, cache_path=tmp_path / "c.jsonl")
        geocoder.lookup("Henrico")
        geocoder.lookup("Henrico")
        assert provider.calls == 1
        # negative results are cached too
        with pytest.raises(NotFound):
            geocoder.lookup("Atlantis")
        with pytest.raises(NotFound):
            geocoder.lookup("Atlantis")
        assert provider.calls == 2

    def test_cache_persists_across_instances(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        provider = CountingProvider(
            {"Henrico": {"lat": 37.53, "lng": -77.4, "formatted_address": "Henrico, VA"}}
        )
        Geocoder(provider=provider, cache_path=cache).lookup("Henrico")
        replayed = Geocoder(cache_path=cache).lookup("Henrico")
        assert replayed.lat == 37.53
        assert provider.calls == 1

    def test_strategy_is_part_of_cache_key(self, tmp_path):
        provider = CountingProvider(
            {"Mill": {"lat": 37.0, "lng": -77.0, "formatted_address": "Mill, VA"}}
        )
        geocoder = Geocoder(provider=provider, cache_path=tmp_path / "c.jsonl")
        geocoder.lookup("Mill", "natural_feature")
        geocoder.lookup("Mill", "county_fallback")
        assert provider.calls == 2

    def test_offline_miss_is_not_found(self):
        geocoder = Geocoder()
        with pytest.raises(NotFound):
            geocoder.lookup("anything")

    def test_tampered_cache_entry_filtered(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(
            cache,
            [
                {
                    "query": "Somewhere North",
                    "strategy": "standard_va",
                    "result": {
                        "lat": 40.71,
                        "lng": -74.0,
                        "formatted_address": "NYC",
                        "strategy": "standard_va",
                        "query_used": "Somewhere North",
                    },
                }
            ],
        )
        with pytest.raises(NotFound):
            Geocoder(cache_path=cache).lookup("Somewhere North")

    def test_every_result_inside_virginia_box(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        geocoder = Geocoder(cache_path=cache)
        for query, *_ in replay_trace.GEOCODE_RESULTS:
            result = geocoder.lookup(query)
            assert within_bbox(result.coordinate(), VIRGINIA_BBOX)


HENRICO = {"lat": 37.53, "lng": -77.4, "formatted_address": "Henrico, VA"}


class TestGeocodeCacheFile:
    def _cache(self, tmp_path, tail: bytes):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        with cache.open("ab") as fh:
            fh.write(tail)
        return cache

    def test_torn_final_line_skipped(self, tmp_path):
        cache = self._cache(tmp_path, b'{"query": "Holloway Sw')
        geocoder = Geocoder(cache_path=cache)
        for query, *_ in replay_trace.GEOCODE_RESULTS:
            geocoder.lookup(query)

    def test_torn_multibyte_character_skipped(self, tmp_path):
        cache = self._cache(tmp_path, '{"query": "Caf\u00e9'.encode("utf-8")[:-1])
        Geocoder(cache_path=cache)

    @pytest.mark.parametrize(
        "tail",
        [
            b"not json\n",  # terminated, so not a torn append
            b'{"query": "x", "strategy": "standard_va"}',  # parses, but no result field
            b"[1, 2]\n",
        ],
    )
    def test_other_bad_line_names_file_and_line(self, tmp_path, tail):
        cache = self._cache(tmp_path, tail)
        lineno = len(replay_trace.cache_entries()) + 1
        with pytest.raises(MalformedRow, match=rf"cache\.jsonl:{lineno}: "):
            Geocoder(cache_path=cache)

    @pytest.mark.parametrize(
        "result",
        [
            {"lat": 37.5},
            {"lat": 137.5, "lng": -77.4, "formatted_address": "", "strategy": "standard_va", "query_used": "x"},
            [37.5, -77.4],
        ],
    )
    def test_bad_cached_result_is_malformed_row(self, tmp_path, result):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, [{"query": "x", "result": result}])
        with pytest.raises(MalformedRow, match=r"cache\.jsonl: bad cached result for 'x'"):
            Geocoder(cache_path=cache).lookup("x")

    def test_bad_middle_line_names_file_and_line(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        good = json.dumps({"query": "a", "strategy": "standard_va", "result": None})
        cache.write_text(f"{good}\n{{oops\n{good}\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=r"cache\.jsonl:2: "):
            Geocoder(cache_path=cache)

    def test_append_after_torn_tail_reloads(self, tmp_path):
        cache = self._cache(tmp_path, b'{"query": "Holloway Sw')
        Geocoder(provider=CountingProvider({"Henrico": HENRICO}), cache_path=cache).lookup("Henrico")
        replayed = Geocoder(cache_path=cache)
        assert replayed.lookup("Henrico").lat == 37.53
        for query, *_ in replay_trace.GEOCODE_RESULTS:
            replayed.lookup(query)
        lines = cache.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == ""  # the fragment is gone and the new record is terminated
        assert [json.loads(line)["query"] for line in lines[:-1]][-1] == "Henrico"

    def test_append_after_unterminated_line_keeps_it(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps({"query": "a", "strategy": "standard_va", "result": None}), encoding="utf-8")
        Geocoder(provider=CountingProvider({"Henrico": HENRICO}), cache_path=cache).lookup("Henrico")
        replayed = Geocoder(cache_path=cache)
        assert replayed.lookup("Henrico").lat == 37.53
        with pytest.raises(NotFound, match="cached"):
            replayed.lookup("a")
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 2


class TestHandleComputeCentroid:
    def test_recorded_anchor_pair(self):
        out = handle_compute_centroid(replay_trace.CENTROID_POINTS)
        assert abs(out["lat"] - 37.16630260) <= 1e-6
        assert abs(out["lng"] - -77.24009098) <= 1e-6

    def test_single_point_invalid(self):
        with pytest.raises(ArgumentInvalid):
            handle_compute_centroid([{"lat": 1.0, "lng": 2.0}])

    def test_identical_points(self):
        out = handle_compute_centroid([{"lat": 37.5, "lng": -77.5}, {"lat": 37.5, "lng": -77.5}])
        assert out == {"lat": 37.5, "lng": -77.5}

    @pytest.mark.parametrize(
        "points, why",
        [
            ([{"lat": 95, "lng": 0}, {"lat": 37.5, "lng": -77.5}], "latitude 95"),
            ([{"lat": 0, "lng": 0}, {"lat": 0, "lng": 180}], "mean vector"),
        ],
        ids=["latitude-off-the-globe", "antipodes"],
    )
    def test_points_without_a_centroid_invalid(self, points, why):
        with pytest.raises(ArgumentInvalid, match=why):
            handle_compute_centroid(points)


def _replay_setup(tmp_path):
    cache = tmp_path / "cache.jsonl"
    write_geocode_cache(cache, replay_trace.cache_entries())
    backend = FixtureBackend(replay_trace.script_turns())
    return backend, Geocoder(cache_path=cache)


class TestRunToolChain:
    def test_budget_fields_are_positive_integers(self):
        for bad in ({"max_tool_calls": 0}, {"max_tool_calls": 2.5}, {"max_geocode_failures": "6"}, {"max_tool_calls": True}):
            with pytest.raises(ValueError):
                AgentBudget(**bad)

    def test_full_replay(self, tmp_path):
        backend, geocoder = _replay_setup(tmp_path)
        prediction = run_tool_chain(backend, geocoder, CFG, GRANT, AgentBudget(), "T-2")
        assert prediction.run.raw_response == replay_trace.FINAL_ANSWER
        assert prediction.coordinate == Coordinate(replay_trace.FINAL_LAT, replay_trace.FINAL_LON)
        assert len(prediction.run.tool_calls) == 7
        assert len(prediction.run.tool_calls) <= AgentBudget().max_tool_calls
        names = [r.tool_name for r in prediction.run.tool_calls]
        assert names == ["geocode_place"] * 6 + ["compute_centroid"]
        assert [r.turn_index for r in prediction.run.tool_calls] == list(range(1, 8))
        assert prediction.error_km is not None

    def test_replay_selected_attribution(self, tmp_path):
        backend, geocoder = _replay_setup(tmp_path)
        prediction = run_tool_chain(backend, geocoder, CFG, GRANT, AgentBudget(), "T-2")
        selected = [r for r in prediction.run.tool_calls if r.selected]
        assert len(selected) == 1
        # the earliest geocode feeding the answering centroid call
        assert selected[0].turn_index == 4
        assert selected[0].tool_name == "geocode_place"

    def test_trace_is_lossless(self, tmp_path):
        from grantgeo.geo import parse_coordinate_text

        backend, geocoder = _replay_setup(tmp_path)
        prediction = run_tool_chain(backend, geocoder, CFG, GRANT, AgentBudget(), "T-2")
        assert parse_coordinate_text(prediction.run.raw_response) == prediction.coordinate

    def test_immediate_answer_empty_trace(self):
        backend = FixtureBackend([text_turn("37.431600, -78.656900", expect_contains=TOOL_SYSTEM_PROMPT)])
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert prediction.coordinate == Coordinate(37.4316, -78.6569)
        assert prediction.run.tool_calls == []

    def test_budget_refusal_and_nudge(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        query = replay_trace.GEOCODE_RESULTS[0][0]
        turns = [tool_call_turn("geocode_place", {"query": query}) for _ in range(11)]
        turns.append(text_turn("37.100000, -77.200000", expect_contains="Provide your final coordinates now."))
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(cache_path=cache), CFG, GRANT)
        assert len(prediction.run.tool_calls) == 10  # 11th refused
        assert not prediction.run.failed
        assert prediction.coordinate == Coordinate(37.1, -77.2)
        assert backend.remaining_turns == 0

    def test_budget_exhausted_failure(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        query = replay_trace.GEOCODE_RESULTS[0][0]
        turns = [tool_call_turn("geocode_place", {"query": query}) for _ in range(12)]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(cache_path=cache), CFG, GRANT)
        assert prediction.run.failed
        assert prediction.run.reason == "BudgetExhausted"
        assert len(prediction.run.tool_calls) == 10

    def test_invalid_arguments_consume_budget_and_continue(self):
        turns = [
            tool_call_turn("geocode_place", {}),  # missing query
            text_turn("37.000000, -77.000000"),
        ]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert not prediction.run.failed
        assert len(prediction.run.tool_calls) == 1
        assert "invalid arguments" in prediction.run.tool_calls[0].result["error"]

    @pytest.mark.parametrize(
        "points",
        [[{"lat": 95, "lng": 0}, {"lat": 37.5, "lng": -77.5}], [{"lat": 0, "lng": 0}, {"lat": 0, "lng": 180}]],
        ids=["latitude-off-the-globe", "antipodes"],
    )
    def test_centroid_of_bad_points_reported_to_model(self, points):
        turns = [tool_call_turn("compute_centroid", {"points": points}), text_turn("37.000000, -77.000000")]
        prediction = run_tool_chain(FixtureBackend(turns), Geocoder(), CFG, GRANT)
        assert not prediction.run.failed
        assert prediction.run.tool_calls[0].result["error"].startswith("invalid arguments: ")

    def test_unknown_tool_reported_to_model(self):
        turns = [
            tool_call_turn("search_web", {"query": "virginia"}),
            text_turn("37.000000, -77.000000"),
        ]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert not prediction.run.failed
        assert "invalid arguments" in prediction.run.tool_calls[0].result["error"]

    def test_geocode_failure_budget(self):
        turns = [tool_call_turn("geocode_place", {"query": f"unknown place {i}"}) for i in range(7)]
        turns.append(text_turn("37.000000, -77.000000"))
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT, AgentBudget(max_tool_calls=10, max_geocode_failures=6))
        results = [r.result for r in prediction.run.tool_calls]
        assert all("error" in r for r in results)
        assert "budget" in results[6]["error"]

    def test_unparseable_final_text(self):
        backend = FixtureBackend([text_turn("the grant is near the swamp")])
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert prediction.run.failed
        assert prediction.run.reason == "Unparseable"


def _traced_prediction(method_id, row_id, calls, final=None):
    run = RunRecord(method_id, row_id, TokenUsage(), 0.0, Decimal(0), tool_calls=calls)
    return Prediction(method_id, row_id, final, None, run)


class TestTraceStatistics:
    def test_mean_calls_per_tool(self):
        p1 = _traced_prediction("T-1", "r1", [ToolCallRecord(1, "geocode_place", {}, {"lat": 1, "lng": 2})])
        p2 = _traced_prediction(
            "T-1",
            "r2",
            [ToolCallRecord(i, "geocode_place", {}, {"lat": 1, "lng": 2}) for i in range(1, 4)],
        )
        stats = trace_statistics([p1, p2])["T-1"]
        assert stats.per_tool["geocode_place"]["mean"] == 2.0
        assert stats.entries == 2

    def test_first_call_success_all(self):
        preds = []
        for i in range(3):
            record = ToolCallRecord(1, "geocode_place", {}, {"lat": 37.0, "lng": -77.0}, selected=True)
            preds.append(_traced_prediction("T-4", f"r{i}", [record], Coordinate(37.0, -77.0)))
        stats = trace_statistics(preds)["T-4"]
        assert stats.first_call_success_rate == 1.0
        assert stats.mean_selected_index == 1.0

    def test_geocode_centroid_ratio(self):
        calls = [ToolCallRecord(i, "geocode_place", {}, {}) for i in range(1, 9)]
        calls.append(ToolCallRecord(9, "compute_centroid", {}, {}))
        stats = trace_statistics([_traced_prediction("T-1", "r1", calls)])["T-1"]
        assert stats.geocode_centroid_ratio == 8.0
