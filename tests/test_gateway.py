"""Gateway: configs, prices, exact cost arithmetic, fixture replay."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import harness_fixtures as hf

from grantgeo.gateway import (
    ChatMessage,
    DEFAULT_PRICES,
    FixtureBackend,
    FixtureExhausted,
    FixtureMismatch,
    ModelConfig,
    PriceTable,
    RunRecord,
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
        assert dict(default_price_table().items()) == expected

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


class TestRunRecord:
    def test_cost_recompute_matches(self):
        usage = TokenUsage(12345, 678)
        cost = call_cost(usage, *DEFAULT_PRICES.lookup("o3-2025-04-16"))
        record = RunRecord("M-2", "r1", usage, 0.5, cost)
        assert call_cost(record.usage, *DEFAULT_PRICES.lookup("o3-2025-04-16")) == record.cost_usd

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            RunRecord("m", "r", TokenUsage(), -0.1, Decimal(0))


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
    import grantgeo

    src = str(Path(grantgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


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
        assert json.loads(done.stdout) == [[False, False, False], [False, False, True], [True, True, True]]

    def test_package_serves_the_lazily_imported_names(self):
        import grantgeo
        from grantgeo import metrics, report

        assert grantgeo.bootstrap_ci is metrics.bootstrap_ci
        assert grantgeo.generate_report is report.generate_report
        assert {"bootstrap_ci", "bootstrap_cis", "generate_report", "load_config", "__version__"} <= set(dir(grantgeo))
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

    def test_auth_rejection(self, monkeypatch):
        from grantgeo.gateway import BackendUnavailable, LiveBackend

        class FakeResponse:
            status_code = 401
            text = "bad key"

        monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
        backend = LiveBackend("https://example.invalid/v1/chat", api_key="nope")
        with pytest.raises(BackendUnavailable):
            backend.complete(ModelConfig("m"), [ChatMessage("user", "hi")])

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
