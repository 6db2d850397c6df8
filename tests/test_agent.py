"""Tool-agent loop: validation, geocoder cache, budgets, replay, stats."""

from __future__ import annotations

import json
from dataclasses import replace
from decimal import Decimal

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grantgeo import agent
from grantgeo.agent import (
    GEOCODE_FIELDS,
    GEOCODE_STRATEGIES,
    AgentBudget,
    ArgumentInvalid,
    Geocoder,
    NotFound,
    ProviderError,
    TOOL_CATALOG,
    handle_compute_centroid,
    run_tool_chain,
    trace_statistics,
    validate_tool_call,
    write_geocode_cache,
)
from grantgeo.corpus import GrantAbstract, MalformedRow, write_jsonl
from grantgeo.gateway import (
    FixtureBackend,
    FixtureExhausted,
    ModelConfig,
    TokenUsage,
    ToolCallRequest,
    text_turn,
    tool_call_turn,
)
from grantgeo.geo import Coordinate, VIRGINIA_BBOX, within_bbox
from grantgeo.prompts import TOOL_SYSTEM_PROMPT
from grantgeo.runners import Prediction, RunRecord, ToolCallRecord

import replay_trace

CFG = ModelConfig("gpt-4.1-2025-04-14", temperature=0.2)
GRANT = GrantAbstract.from_text("grant_04", replay_trace.SWAMP_GRANT_TEXT, Coordinate(37.19, -77.25))


# Values out of place: bools and numeric strings where numbers belong, NaN and
# infinities, ints where strings belong, and non-object, non-array shapes.
_ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1", "-2.5", "nan", "inf", ""]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.sampled_from(["lat", "lng", "query"]), st.integers(-1, 1), max_size=2),
)
_NUMBERS = st.one_of(st.integers(-200, 200), st.floats(allow_nan=True, allow_infinity=True))
_QUERY = st.text(max_size=6)
_STRATEGY = st.sampled_from(GEOCODE_STRATEGIES)
_POINT = st.fixed_dictionaries({"lat": _NUMBERS, "lng": _NUMBERS}, optional={"alt": _ODD})
_ODD_VALUES_POINT = st.fixed_dictionaries(
    {"lat": st.one_of(_NUMBERS, _ODD), "lng": st.one_of(_NUMBERS, _ODD)}, optional={"alt": _ODD}
)
_ODD_SHAPE_POINT = st.one_of(st.fixed_dictionaries({}, optional={"lat": _NUMBERS, "lng": _NUMBERS, "alt": _ODD}), _ODD)
# Per tool: valid arguments, or arguments with one or more faults, or no object at all.
_ARGUMENTS = {
    "geocode_place": (
        st.fixed_dictionaries({"query": _QUERY}, optional={"strategy": _STRATEGY, "extra": _ODD}),
        st.one_of(
            st.fixed_dictionaries(
                {"query": st.one_of(_QUERY, _ODD)}, optional={"strategy": st.one_of(_STRATEGY, _ODD), "extra": _ODD}
            ),
            st.fixed_dictionaries({}, optional={"strategy": st.one_of(_STRATEGY, _ODD), "extra": _ODD}),
            _ODD,
        ),
    ),
    "compute_centroid": (
        st.fixed_dictionaries({"points": st.lists(_POINT, min_size=2, max_size=4)}, optional={"extra": _ODD}),
        st.one_of(
            st.fixed_dictionaries({"points": st.lists(st.one_of(_POINT, _ODD_VALUES_POINT), min_size=2, max_size=4)}),
            st.fixed_dictionaries(
                {"points": st.lists(st.one_of(_POINT, _ODD_VALUES_POINT, _ODD_SHAPE_POINT), max_size=4)},
                optional={"extra": _ODD},
            ),
            st.fixed_dictionaries({}, optional={"points": _ODD, "extra": _ODD}),
            _ODD,
        ),
    ),
}


def _assert_agrees_with_jsonschema(name: str, schema: dict, arguments) -> None:
    """validate_tool_call accepts what jsonschema accepts, else fails with its best match's message."""
    expected = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(arguments))
    if expected is None:
        assert validate_tool_call(ToolCallRequest(name, arguments)) is arguments
    else:
        with pytest.raises(ArgumentInvalid) as got:
            validate_tool_call(ToolCallRequest(name, arguments))
        assert str(got.value) == expected.message


@pytest.fixture
def one_tool_catalog(monkeypatch):
    """Install a catalog of one tool named ``t``."""
    return lambda parameters: monkeypatch.setattr(agent, "_TOOL_PARAMETERS", {"t": parameters})


def _keywords(schema: dict):
    """Each (keyword, value) of ``schema`` and of the schemas nested in its properties and items."""
    for key, value in schema.items():
        yield key, value
        for sub in value.values() if key == "properties" else [value] if key == "items" else ():
            yield from _keywords(sub)


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

    def test_catalog_uses_only_what_the_checker_implements(self):
        """The checker would silently ignore any other keyword, and it knows only these types."""
        implemented = {"type", "properties", "required", "enum", "minItems", "items", "description"}
        assert [t["name"] for t in TOOL_CATALOG] == list(agent._TOOL_PARAMETERS)
        for tool in TOOL_CATALOG:
            assert agent._TOOL_PARAMETERS[tool["name"]] is tool["parameters"]
            for key, value in _keywords(tool["parameters"]):
                assert key in implemented, (tool["name"], key)
                if key == "type":
                    assert value in agent._TYPES, (tool["name"], value)

    @pytest.mark.parametrize(
        "parameters, arguments",
        [
            ({"type": "array", "minItems": 1}, []),
            ({"enum": [1, "a", None]}, True),
            ({"enum": [True]}, 1),
            ({"enum": [1.0]}, 1),
            ({"type": "number"}, False),
            ({"type": "object", "required": ["b", "a"]}, {}),
        ],
    )
    def test_keywords_beyond_the_catalog_match_jsonschema(self, one_tool_catalog, parameters, arguments):
        one_tool_catalog(parameters)
        _assert_agrees_with_jsonschema("t", parameters, arguments)

    @pytest.mark.parametrize("name", sorted(_ARGUMENTS))
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_decision_and_message_match_jsonschema(self, name, data):
        schema = next(t["parameters"] for t in TOOL_CATALOG if t["name"] == name)
        _assert_agrees_with_jsonschema(name, schema, data.draw(st.one_of(*_ARGUMENTS[name])))

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
        assert json.dumps(a) == json.dumps(b) and a is not b
        assert a["lat"] == 36.9058167 and a["lng"] == -77.2405153
        assert a["formatted_address"] == "Sussex County, VA, USA"

    def test_second_fixture_point(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        geocoder = Geocoder(cache_path=cache)
        r = geocoder.lookup("Blackwater Swamp, Sussex County, Virginia")
        assert (r["lat"], r["lng"]) == (37.10810973, -77.15139208)
        assert r["formatted_address"] == "Blackwater Swamp, Virginia 23842, USA"

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
        assert replayed["lat"] == 37.53
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
            assert within_bbox(Coordinate(result["lat"], result["lng"]), VIRGINIA_BBOX)


HENRICO = {"lat": 37.53, "lng": -77.4, "formatted_address": "Henrico, VA"}
BLACKWATER = {
    "lat": 37.1081,
    "lng": -77.1514,
    "formatted_address": "Blackwater Swamp, VA",
    "strategy": "standard_va",
    "query_used": "Blackwater Swamp",
}


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
            {"lat": 37.5, "lng": -77.4, "formatted_address": "", "strategy": "standard_va"},  # no query_used
            {"lat": 37.5, "lng": -77.4, "formatted_address": "", "strategy": "standard_va", "query_used": "x", "county": ""},
            {"lat": "37.5", "lng": -77.4, "formatted_address": "", "strategy": "standard_va", "query_used": "x"},
        ],
        ids=["only-lat", "off-the-globe", "a-list", "missing-field", "extra-field", "lat-a-string"],
    )
    def test_bad_cached_result_is_malformed_row(self, tmp_path, result):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, [{"query": "x", "result": result}])
        with pytest.raises(MalformedRow, match=r"cache\.jsonl: bad cached result for 'x'"):
            Geocoder(cache_path=cache).lookup("x")

    def test_reordered_cache_entry_reaches_tool_result_and_call_log_in_fixed_order(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, [{"query": "Blackwater Swamp", "result": dict(reversed(BLACKWATER.items()))}])
        assert json.dumps(BLACKWATER) not in cache.read_text(encoding="utf-8")
        rendered = (
            '{"lat": 37.10810000, "lng": -77.15140000, "formatted_address": "Blackwater Swamp, VA", '
            '"strategy": "standard_va", "query_used": "Blackwater Swamp"}'
        )
        turns = [
            tool_call_turn("geocode_place", {"query": "Blackwater Swamp"}),
            text_turn("37.108100, -77.151400", expect_contains=rendered),  # the tool message the model saw
        ]
        prediction = run_tool_chain(FixtureBackend(turns), Geocoder(cache_path=cache), CFG, GRANT)
        assert prediction.run.reason is None and list(prediction.run.tool_calls[0].result) == list(GEOCODE_FIELDS)
        log = tmp_path / "calls.jsonl"
        write_jsonl(log, [prediction.to_json("request")])
        assert f'"result": {json.dumps(BLACKWATER)}' in log.read_text(encoding="utf-8")

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
        assert replayed.lookup("Henrico")["lat"] == 37.53
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
        assert replayed.lookup("Henrico")["lat"] == 37.53
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
        assert not prediction.failed
        assert prediction.coordinate == Coordinate(37.1, -77.2)
        with pytest.raises(FixtureExhausted):  # the nudge's answer was the script's last turn
            backend.complete(CFG, [])

    def test_budget_exhausted_failure(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, replay_trace.cache_entries())
        query = replay_trace.GEOCODE_RESULTS[0][0]
        turns = [tool_call_turn("geocode_place", {"query": query}) for _ in range(12)]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(cache_path=cache), CFG, GRANT)
        assert prediction.failed
        assert prediction.run.reason == "BudgetExhausted"
        assert len(prediction.run.tool_calls) == 10

    def test_invalid_arguments_consume_budget_and_continue(self):
        turns = [
            tool_call_turn("geocode_place", {}),  # missing query
            text_turn("37.000000, -77.000000"),
        ]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert not prediction.failed
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
        assert not prediction.failed
        assert prediction.run.tool_calls[0].result["error"].startswith("invalid arguments: ")

    def test_unknown_tool_reported_to_model(self):
        turns = [
            tool_call_turn("search_web", {"query": "virginia"}),
            text_turn("37.000000, -77.000000"),
        ]
        backend = FixtureBackend(turns)
        prediction = run_tool_chain(backend, Geocoder(), CFG, GRANT)
        assert not prediction.failed
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
        assert prediction.failed
        assert prediction.run.reason == "Unparseable"


def _traced_prediction(method_id, row_id, calls, final=None):
    run = RunRecord(TokenUsage(), 0.0, Decimal(0), tool_calls=calls)
    return Prediction(method_id, row_id, final, None, run)


class TestTraceStatistics:
    def test_mean_calls_per_tool(self):
        p1 = _traced_prediction("T-1", "r1", [ToolCallRecord(1, "geocode_place", {}, {"lat": 1, "lng": 2})])
        p2 = _traced_prediction(
            "T-1",
            "r2",
            [ToolCallRecord(i, "geocode_place", {}, {"lat": 1, "lng": 2}) for i in range(1, 4)],
        )
        stats = trace_statistics([p1, p2])
        assert stats.calls_per_entry_mean == 2.0

    def test_first_call_success_all(self):
        preds = []
        for i in range(3):
            record = ToolCallRecord(1, "geocode_place", {}, {"lat": 37.0, "lng": -77.0}, selected=True)
            preds.append(_traced_prediction("T-4", f"r{i}", [record], Coordinate(37.0, -77.0)))
        stats = trace_statistics(preds)
        assert stats.first_call_success_rate == 1.0
        assert stats.mean_selected_index == 1.0

    def test_geocode_centroid_ratio(self):
        calls = [ToolCallRecord(i, "geocode_place", {}, {}) for i in range(1, 9)]
        calls.append(ToolCallRecord(9, "compute_centroid", {}, {}))
        stats = trace_statistics([_traced_prediction("T-1", "r1", calls)])
        assert stats.geocode_centroid_ratio == 8.0

    def test_a_one_shot_generator_reads_as_the_list(self):
        geo = [ToolCallRecord(i, "geocode_place", {}, {"lat": 37.0, "lng": -77.0}) for i in (1, 2)]
        preds = [
            _traced_prediction("T-1", "r1", [replace(geo[0], selected=True), geo[1]]),
            _traced_prediction("T-1", "r2", []),
            _traced_prediction("T-1", "r3", [*geo, ToolCallRecord(3, "compute_centroid", {}, {}, selected=True)]),
            _traced_prediction("T-1", "r4", [geo[0], replace(geo[1], selected=True)]),
        ]
        stats = trace_statistics(preds)
        assert trace_statistics(p for p in preds) == stats
        assert (stats.calls_per_entry_mean, stats.geocode_centroid_ratio) == (7 / 4, 6.0)
        assert (stats.first_call_success_rate, stats.mean_selected_index) == (1 / 3, 2.0)
