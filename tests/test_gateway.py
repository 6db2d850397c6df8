"""Gateway: configs, prices, exact cost arithmetic, fixture replay."""

from __future__ import annotations

import json
import subprocess
from decimal import Decimal

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import harness_fixtures as hf

from grantgeo.gateway import (
    LIVE_MAX_RETRY_WAIT_S,
    LIVE_RETRY_WAIT_S,
    ChatMessage,
    DEFAULT_PRICES,
    FixtureBackend,
    FixtureExhausted,
    FixtureMismatch,
    ModelConfig,
    PriceTable,
    TokenUsage,
    call_cost,
    default_price_table,
    text_turn,
    tool_call_turn,
    write_fixture_script,
)


class TestModelConfig:
    def test_temperature_and_effort_exclusive(self):
        with pytest.raises(ValueError):
            ModelConfig("m", temperature=0.2, reasoning_effort="low")

    def test_effort_values(self):
        for effort in ("low", "medium", "high"):
            ModelConfig("m", reasoning_effort=effort)
        with pytest.raises(ValueError):
            ModelConfig("m", reasoning_effort="max")

    def test_field_types(self):
        for bad in ({"model_id": 5}, {"model_id": ""}, {"temperature": "hot"}, {"temperature": True},
                    {"temperature": -0.1}, {"seed": 1.5}, {"max_output_tokens": "100"}, {"max_output_tokens": 0}):
            with pytest.raises(ValueError):
                ModelConfig(**{"model_id": "m", **bad})


class TestTokenUsage:
    def test_non_negative(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0)

    def test_addition(self):
        assert TokenUsage(1, 2) + TokenUsage(3, 4) == TokenUsage(4, 6)


class TestPriceTable:
    def test_packaged_defaults(self):
        expected = {
            "gpt-4.1": (Decimal("2.00"), Decimal("8.00")),
            "gpt-4o": (Decimal("5.00"), Decimal("15.00")),
            "gpt-3.5-turbo": (Decimal("0.50"), Decimal("1.50")),
            "o4-mini": (Decimal("1.10"), Decimal("4.40")),
            "o3": (Decimal("10.00"), Decimal("40.00")),
            "o3-mini": (Decimal("1.10"), Decimal("4.40")),
        }
        assert {model_id: default_price_table().lookup(model_id) for model_id in expected} == expected

    def test_snapshot_prefix_lookup(self):
        assert DEFAULT_PRICES.lookup("o3-2025-04-16") == (Decimal("10.00"), Decimal("40.00"))
        assert DEFAULT_PRICES.lookup("o3-mini-2025-01-31") == (Decimal("1.10"), Decimal("4.40"))
        assert DEFAULT_PRICES.lookup("gpt-4.1-2025-04-14") == (Decimal("2.00"), Decimal("8.00"))
        assert DEFAULT_PRICES.lookup("gpt-4o-2024-08-06") == (Decimal("5.00"), Decimal("15.00"))

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            DEFAULT_PRICES.lookup("mystery-model")

    def test_negative_price_rejected(self):
        for bad in ("-1", "Infinity", "NaN", 1e400):
            with pytest.raises(ValueError):
                PriceTable({"m": (bad, "0")})


class TestCallCost:
    def test_zero_usage(self):
        assert call_cost(TokenUsage(0, 0), "10.00", "40.00") == Decimal(0)

    def test_o3_symmetric_million(self):
        cost = call_cost(TokenUsage(1_000_000, 1_000_000), "10.00", "40.00")
        assert cost == Decimal("50.00")

    def test_gpt35_aggregate_run(self):
        cost = call_cost(TokenUsage(6773, 820), "0.50", "1.50")
        assert cost == Decimal("0.0046165")
        per_located = cost / 43
        # printed table truncates to five decimals: 0.00010
        assert per_located.quantize(Decimal("0.00001"), rounding="ROUND_DOWN") == Decimal("0.00010")
        assert abs(per_located - Decimal("0.0001074")) < Decimal("0.0000001")

    @given(
        st.integers(0, 10**7),
        st.integers(0, 10**7),
        st.integers(0, 10**7),
        st.integers(0, 10**7),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_in_token_counts(self, i1, o1, i2, o2):
        p_in, p_out = Decimal("1.10"), Decimal("4.40")
        combined = call_cost(TokenUsage(i1 + i2, o1 + o2), p_in, p_out)
        split = call_cost(TokenUsage(i1, o1), p_in, p_out) + call_cost(TokenUsage(i2, o2), p_in, p_out)
        assert combined == split

    def test_monotone_in_prices(self):
        usage = TokenUsage(1000, 1000)
        assert call_cost(usage, "2", "2") < call_cost(usage, "3", "2")
        assert call_cost(usage, "2", "2") < call_cost(usage, "2", "3")


class TestFixtureBackend:
    def test_text_replay_with_scripted_usage(self):
        backend = FixtureBackend([text_turn("37.166303, -77.240091", 100, 20)])
        cfg = ModelConfig("o3-2025-04-16")
        response, usage = backend.complete(cfg, [ChatMessage("user", "hello")])
        assert response.text == "37.166303, -77.240091"
        assert usage == TokenUsage(100, 20)

    def test_tool_call_replay(self):
        backend = FixtureBackend(
            [tool_call_turn("geocode_place", {"query": "Holloway Swamp, Sussex County, Virginia"})]
        )
        response, _ = backend.complete(ModelConfig("m"), [ChatMessage("user", "grant")])
        assert response.tool_call is not None
        assert response.tool_call.name == "geocode_place"
        assert response.tool_call.arguments == {"query": "Holloway Swamp, Sussex County, Virginia"}

    def test_exhaustion(self):
        backend = FixtureBackend([])
        with pytest.raises(FixtureExhausted):
            backend.complete(ModelConfig("m"), [])

    def test_bad_turn_rejected_when_built(self):
        with pytest.raises(ValueError, match="unknown response type"):
            FixtureBackend([text_turn("x"), {"response": {"type": "image"}}])

    def test_predicate_mismatch(self):
        backend = FixtureBackend([text_turn("x", expect_contains="needle")])
        with pytest.raises(FixtureMismatch):
            backend.complete(ModelConfig("m"), [ChatMessage("user", "haystack")])

    def test_predicate_match(self):
        backend = FixtureBackend([text_turn("x", expect_contains="needle")])
        response, _ = backend.complete(ModelConfig("m"), [ChatMessage("user", "a needle here")])
        assert response.text == "x"

    def test_concurrent_consumption_is_serialized(self):
        from concurrent.futures import ThreadPoolExecutor

        backend = FixtureBackend([text_turn(f"answer {i}") for i in range(50)])
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: backend.complete(ModelConfig("m"), []), range(50))
            )
        texts = sorted(r[0].text for r in results)
        assert texts == sorted(f"answer {i}" for i in range(50))

    def test_jsonl_round_trip_and_determinism(self, tmp_path):
        turns = [
            tool_call_turn("compute_centroid", {"points": [{"lat": 1.0, "lng": 2.0}, {"lat": 3.0, "lng": 4.0}]}, 5, 6),
            text_turn("1.0, 2.0", 7, 8),
        ]
        path = tmp_path / "script.jsonl"
        write_fixture_script(path, turns)

        def transcript():
            backend = FixtureBackend.from_jsonl(path)
            out = []
            for _ in range(2):
                response, usage = backend.complete(ModelConfig("m"), [ChatMessage("user", "go")])
                out.append((response.text, response.tool_call and response.tool_call.name, usage))
            return out

        assert transcript() == transcript()


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    return hf.python("-c", code, *args)


class TestImportLayering:
    def test_numpy_and_jsonschema_load_only_where_used(self, tmp_path):
        plain = hf.build_workspace(tmp_path / "plain", n_grants=2)  # no tool_chain method
        hf.build_full_workspace(tmp_path / "full")
        tools = tmp_path / "full" / "config.yaml"
        tools.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        code = (
            "import json, sys, grantgeo, grantgeo.cli, grantgeo.harness\n"
            "from grantgeo.harness import build_manifest, load_config\n"
            "seen = lambda: [name in sys.modules for name in ('numpy', 'numpy.random', 'jsonschema')]\n"
            "build_manifest(load_config(sys.argv[1]))\n"
            "states = [seen()]\n"
            "build_manifest(load_config(sys.argv[2]))\n"
            "states.append(seen())\n"
            "from grantgeo.harness import generate_report\n"
            "states.append(seen())\n"
            "print(json.dumps(states))\n"
        )
        done = _python(code, str(plain), str(tools))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[False, False, False], [False, False, False], [True, True, False]]

    def test_report_and_sweep_load_no_module_once_generate_report_is_imported(self, tmp_path):
        hf.build_full_workspace(tmp_path)  # its roster holds every pipeline, a tool_chain method among them
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        code = (
            "import json, sys\n"
            "from grantgeo.harness import build_manifest, load_config, run_evaluation, sweep\n"
            "config = load_config(sys.argv[1])\n"
            "outcome = run_evaluation(build_manifest(config))\n"
            "from grantgeo.harness import generate_report\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "generate_report(outcome.run_dir)\n"
            "sweep(build_manifest(config, methods=['M-5'], output_dir=sys.argv[2]), 'temperature', ['0.2'])\n"
            "print(json.dumps([sorted(set(sys.modules) - before), 'numpy.ma' in before, numpy.__version__]))\n"
        )
        done = _python(code, str(tmp_path / "config.yaml"), str(tmp_path / "sweep_out"))
        assert done.returncode == 0, done.stderr
        added, ma_before, version = json.loads(done.stdout)
        assert added == []
        # numpy 2 loads numpy.ma only on first use; numpy 1.x may import it along with numpy itself.
        assert not ma_before or int(version.split(".")[0]) < 2
        assert (tmp_path / "out" / "report.md").exists() and (tmp_path / "sweep_out" / "sweep.csv").exists()

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "user-set"])
    def test_metrics_caps_openblas_threads_unless_set(self, monkeypatch, preset, expected):
        """grantgeo makes no BLAS call; an idle OpenBLAS worker would spin on the core the bootstrap drawer uses."""
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        code = "import os, sys, grantgeo.metrics; print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)"
        done = _python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [expected, "True"]

    def test_run_and_report_need_no_jsonschema(self, tmp_path):
        hf.build_full_workspace(tmp_path)  # its roster holds a tool_chain method
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        code = (
            "import sys\n"
            "sys.modules['jsonschema'] = None  # any import of it now fails\n"
            "from grantgeo.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        run = _python(code, "run", "--config", str(tmp_path / "config.yaml"))
        assert run.returncode == 0, run.stderr
        report = _python(code, "report", "--run-dir", str(tmp_path / "out"))
        assert report.returncode == 0, report.stderr

    def test_package_serves_the_lazily_imported_names(self):
        import grantgeo
        from grantgeo import metrics, report

        assert grantgeo.bootstrap_ci is metrics.bootstrap_ci
        assert grantgeo.generate_report is report.generate_report
        assert {"bootstrap_ci", "bootstrap_cis", "generate_report", "load_config", "__version__"} <= set(dir(grantgeo))
        for name in dir(grantgeo):  # a name left in _LAZY after its module dropped it fails here
            getattr(grantgeo, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            grantgeo.no_such_name


class TestLiveBackend:
    def test_importing_the_cli_leaves_requests_unloaded(self):
        code = "import sys, grantgeo, grantgeo.cli; sys.exit('requests' in sys.modules)"
        assert _python(code).returncode == 0

    def test_missing_credential(self, monkeypatch):
        from grantgeo.gateway import BackendUnavailable, LiveBackend

        monkeypatch.delenv("MODEL_API_KEY", raising=False)
        backend = LiveBackend("https://example.invalid/v1/chat")
        with pytest.raises(BackendUnavailable):
            backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])

    @staticmethod
    def _serve(monkeypatch, replies: list[tuple[int, dict]]) -> tuple[list, list]:
        """Answer successive posts with ``replies``, (status, headers) pairs; the posts made and the sleeps asked for."""
        import requests

        responses = []
        for status, headers in replies:
            resp = requests.Response()
            resp.status_code, resp._content = status, b'{"choices": [{"message": {"content": "37.0, -77.0"}}]}'
            resp.headers.update(headers)
            responses.append(resp)
        posts, sleeps = [], []
        monkeypatch.setattr("requests.post", lambda *a, **k: posts.append(a) or responses[len(posts) - 1])
        monkeypatch.setattr("time.sleep", sleeps.append)
        return posts, sleeps

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_rejection(self, monkeypatch, status):
        from grantgeo.gateway import BackendUnavailable, LiveBackend

        posts, sleeps = self._serve(monkeypatch, [(status, {"Retry-After": "1"})] * 2)
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="nope")
        with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
            backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])
        assert (len(posts), sleeps) == (1, [])  # credentials will not improve on retry

    @pytest.mark.parametrize(
        "status, headers, waits",
        [
            (429, {"Retry-After": "3"}, [3.0]),
            (429, {"Retry-After": " 1.5 "}, [1.5]),
            (429, {"Retry-After": "86400"}, [LIVE_MAX_RETRY_WAIT_S]),
            (503, {}, [LIVE_RETRY_WAIT_S]),
            (500, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, [LIVE_RETRY_WAIT_S]),
            (502, {"Retry-After": "-1"}, [LIVE_RETRY_WAIT_S]),
            (503, {"Retry-After": "nan"}, [LIVE_RETRY_WAIT_S]),
            (400, {"Retry-After": "3"}, []),
        ],
    )
    def test_429_or_5xx_waits_before_its_retry(self, monkeypatch, status, headers, waits):
        from grantgeo.gateway import LiveBackend

        posts, sleeps = self._serve(monkeypatch, [(status, headers), (200, {})])
        response, _ = LiveBackend("https://example.invalid/v1/chat", api_key="k").complete(
            ModelConfig("m"), [ChatMessage("user", "hi")]
        )
        assert (response.text, len(posts), sleeps) == ("37.0, -77.0", 2, waits)

    def test_no_wait_after_the_last_attempt(self, monkeypatch):
        from grantgeo.gateway import LIVE_MAX_RETRIES, BackendUnavailable, LiveBackend

        posts, sleeps = self._serve(monkeypatch, [(429, {})] * (LIVE_MAX_RETRIES + 1))
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        with pytest.raises(BackendUnavailable, match="HTTP 429"):
            backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])
        assert (len(posts), sleeps) == (LIVE_MAX_RETRIES + 1, [LIVE_RETRY_WAIT_S] * LIVE_MAX_RETRIES)

    def test_parses_text_and_usage(self, monkeypatch):
        from grantgeo.gateway import LiveBackend

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {
                    "choices": [{"message": {"content": "37.0, -77.0"}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 5},
                }

        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        response, usage = backend.complete(ModelConfig("m", temperature=0.2), [ChatMessage("user", "hi")])
        assert response.text == "37.0, -77.0"
        assert usage == TokenUsage(11, 5)

    def test_output_cap_is_sent_as_max_completion_tokens(self, monkeypatch):
        # The chat API deprecates max_tokens, and o-series models such as o3 refuse it.
        from grantgeo.gateway import LiveBackend

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "37.0, -77.0"}}]}

        payloads = []
        monkeypatch.setattr("requests.post", lambda url, json, **k: payloads.append(json) or FakeResponse())
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        cfg = ModelConfig("o3", reasoning_effort="high", seed=3, max_output_tokens=256)
        backend.complete(cfg, [ChatMessage("user", "hi")])
        assert payloads == [
            {
                "model": "o3",
                "messages": [{"role": "user", "content": "hi"}],
                "reasoning_effort": "high",
                "seed": 3,
                "max_completion_tokens": 256,
            }
        ]

    def test_null_content_is_empty_text_and_input_tokens_count(self, monkeypatch):
        import requests

        from grantgeo.gateway import LiveBackend

        resp = requests.Response()
        body = {"choices": [{"message": {"content": None}}], "usage": {"input_tokens": 3, "output_tokens": 1}}
        resp.status_code, resp._content = 200, json.dumps(body).encode()
        monkeypatch.setattr("requests.post", lambda *a, **k: resp)
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        response, usage = backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])
        assert (response.text, response.tool_call, usage) == ("", None, TokenUsage(3, 1))

    def test_parses_tool_call(self, monkeypatch):
        from grantgeo.gateway import LiveBackend

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {
                    "choices": [
                        {
                            "message": {
                                "tool_calls": [
                                    {
                                        "function": {
                                            "name": "geocode_place",
                                            "arguments": '{"query": "Holloway Swamp"}',
                                        }
                                    }
                                ]
                            }
                        }
                    ],
                    "usage": {"prompt_tokens": 9, "completion_tokens": 4},
                }

        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        response, _ = backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])
        assert response.tool_call.name == "geocode_place"
        assert response.tool_call.arguments == {"query": "Holloway Swamp"}

    def test_malformed_200_fails_the_row(self, monkeypatch):
        import requests

        from grantgeo.gateway import LiveBackend
        from grantgeo.runners import run_one_shot

        bad_arguments = {"function": {"name": "geocode_place", "arguments": "{bad"}}
        bodies = [
            b'{"error": {"message": "overloaded", "type": "server_error"}}',
            b"<html>upstream busy</html>",
            json.dumps({"choices": [{"message": {"tool_calls": [bad_arguments]}}]}).encode(),
        ] + [  # token counts that are not integers, which int() would have rounded or parsed
            json.dumps({"choices": [{"message": {"content": "37.5, -77.4"}}], "usage": usage}).encode()
            for usage in (
                {"prompt_tokens": 1.7, "completion_tokens": 2},
                {"prompt_tokens": 9, "completion_tokens": True},
                {"prompt_tokens": "12", "completion_tokens": 2},
                {"prompt_tokens": 9, "completion_tokens": None},
            )
        ]
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="k")
        for body in bodies:
            resp = requests.Response()
            resp.status_code, resp._content = 200, body
            monkeypatch.setattr("requests.post", lambda *a, resp=resp, **k: resp)
            prediction = run_one_shot(backend, ModelConfig("gpt-4o"), hf.make_grants(1)[0], "M-5")
            assert prediction.failed and prediction.coordinate is None
            assert prediction.run.reason.startswith("BackendUnavailable: malformed response"), prediction.run.reason

    @pytest.mark.parametrize(
        "message",
        [
            {"content": 5},
            {"content": ["37.1, -77.2"]},
            {"content": {"t": 1}},
            {"tool_calls": [{"function": {"name": "geocode_place", "arguments": "[1]"}}]},
            {"tool_calls": [{"function": {"name": "geocode_place", "arguments": "5"}}]},
            {"tool_calls": [{"function": {"name": 7, "arguments": "{}"}}]},
        ],
    )
    @pytest.mark.parametrize("runner", ["one_shot", "tool_chain"])
    def test_reply_off_the_turn_shape_fails_the_row(self, monkeypatch, message, runner):
        import requests

        from grantgeo.agent import Geocoder, run_tool_chain
        from grantgeo.gateway import LiveBackend
        from grantgeo.runners import run_one_shot

        resp = requests.Response()
        resp.status_code, resp._content = 200, json.dumps({"choices": [{"message": message}]}).encode()
        monkeypatch.setattr("requests.post", lambda *a, **k: resp)
        backend, grant = LiveBackend("https://example.invalid/v1/chat", api_key="k"), hf.make_grants(1)[0]
        if runner == "one_shot":
            prediction = run_one_shot(backend, ModelConfig("gpt-4o"), grant, "M-5")
        else:
            prediction = run_tool_chain(backend, Geocoder(), ModelConfig("gpt-4.1"), grant)
        assert prediction.failed and prediction.run.tool_calls == []
        assert prediction.run.reason.startswith("BackendUnavailable: malformed response"), prediction.run.reason

    @staticmethod
    def _geocode_once(monkeypatch, tmp_path, body: bytes):
        """One tool_chain row whose only geocode call the live provider answers with ``body``."""
        import requests

        from grantgeo.agent import Geocoder, GoogleGeocodeProvider, run_tool_chain, write_geocode_cache

        cache = tmp_path / "cache.jsonl"
        write_geocode_cache(cache, [{"query": "Blackwater Swamp", "result": None}])
        resp = requests.Response()
        resp.status_code, resp._content = 200, body
        monkeypatch.setattr("requests.get", lambda *a, **k: resp)
        geocoder = Geocoder(provider=GoogleGeocodeProvider(api_key="k"), cache_path=cache)
        turns = [tool_call_turn("geocode_place", {"query": "Holloway Swamp"}), text_turn("37.5, -77.4")]
        prediction = run_tool_chain(FixtureBackend(turns), geocoder, ModelConfig("gpt-4.1"), hf.make_grants(1)[0])
        return prediction, cache

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b'{"results": [{"formatted_address": "x"}]}',
            b'{"status": "OK", "results": [{"formatted_address": "x"}]}',
            b'{"status": "OK", "results": [{"geometry": {"location": {"lat": "abc", "lng": -77.4}}}]}',
            b'{"results": "oops"}',
            b'{"status": "OK", "results": "oops"}',
            b'{"status": "OK", "results": [{"geometry": {"location": {"lat": 95, "lng": -77.4}}}]}',
            b'{"status": "REQUEST_DENIED", "results": [], "error_message": "The provided API key is invalid."}',
            b'{"status": "OVER_QUERY_LIMIT", "results": []}',
        ],
    )
    def test_malformed_or_refused_geocode_fails_the_call_not_the_row(self, monkeypatch, tmp_path, body):
        prediction, cache = self._geocode_once(monkeypatch, tmp_path, body)
        # nothing cached, so a replay does not read the place as "not found"
        assert cache.read_bytes() == b'{"query": "Blackwater Swamp", "strategy": "standard_va", "result": null}\n'
        [call] = prediction.run.tool_calls
        assert call.result["error"].startswith("provider error: "), call.result
        assert not prediction.failed and prediction.coordinate is not None  # the row goes on

    @pytest.mark.parametrize(
        "body, cached",
        [
            (b'{"status": "ZERO_RESULTS", "results": []}', "null"),
            (
                b'{"status": "OK", "results": [{"geometry": {"location": {"lat": 37.1, "lng": -77.2}}, '
                b'"formatted_address": "Holloway Swamp, VA"}]}',
                '{"lat": 37.1, "lng": -77.2, "formatted_address": "Holloway Swamp, VA", "strategy": "standard_va", '
                '"query_used": "Holloway Swamp, Virginia, USA"}',
            ),
        ],
    )
    def test_answered_geocode_is_cached(self, monkeypatch, tmp_path, body, cached):
        _, cache = self._geocode_once(monkeypatch, tmp_path, body)
        last = cache.read_text(encoding="utf-8").splitlines()[-1]
        assert last == f'{{"query": "Holloway Swamp", "strategy": "standard_va", "result": {cached}}}'
