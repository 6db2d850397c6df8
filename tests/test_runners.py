"""One-shot runner and five-call ensemble aggregation."""

from __future__ import annotations

import contextlib
import io
import json
import random
from decimal import Decimal

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import harness_fixtures as hf
from grantgeo.cli import main
from grantgeo.corpus import GrantAbstract
from grantgeo.gateway import DEFAULT_PRICES, FixtureBackend, ModelConfig, TokenUsage, call_cost, text_turn
from grantgeo.geo import Coordinate, haversine_km
from grantgeo.prompts import ONE_SHOT_PROMPT
from grantgeo.runners import (
    AllCallsFailed,
    EnsembleConfig,
    Prediction,
    RunRecord,
    ToolCallRecord,
    aggregate_ensemble,
    run_ensemble,
    run_one_shot,
)

GRANT = GrantAbstract.from_text(
    "grant_04",
    "WILLIAM WILLIAMS, 400 acs., on 8. side of the main Black Water Swamp; by run of Holloway Sw;",
    Coordinate(37.16, -77.24),
)

O3 = ModelConfig("o3-2025-04-16", reasoning_effort="medium")


class TestEnsembleConfig:
    def test_defaults(self):
        cfg = EnsembleConfig()
        assert cfg.k == 5 and cfg.eps_km == 0.5 and cfg.min_cluster == 3
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert EnsembleConfig(k=3, min_cluster=2).seeds == (0, 1, 2)
        assert EnsembleConfig(k=2, min_cluster=1, seeds=[7, 8]).seeds == (7, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(min_cluster=6)
        with pytest.raises(ValueError):
            EnsembleConfig(eps_km=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(seeds=(1, 2))
        for bad in ({"k": 5.0}, {"k": True}, {"min_cluster": 0}, {"eps_km": "0.5"}, {"seeds": ("a",) * 5}, {"seeds": "abcde"}):
            with pytest.raises(ValueError):
                EnsembleConfig(**bad)


class TestRunOneShot:
    def test_prompt_is_bit_exact(self):
        expected = ONE_SHOT_PROMPT + "\n\n" + GRANT.text
        backend = FixtureBackend([text_turn("37.0, -77.0", expect_contains=expected)])
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert not prediction.failed

    def test_dms_answer_parsed(self):
        backend = FixtureBackend([text_turn("37°00'07.2\"N 77°07'58.8\"W", 50, 10)])
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert prediction.coordinate.lat == pytest.approx(37.002000, abs=1e-9)
        assert prediction.coordinate.lon == pytest.approx(-77.133000, abs=1e-9)
        assert prediction.error_km == pytest.approx(
            haversine_km(prediction.coordinate, GRANT.ground_truth)
        )
        assert prediction.run.usage.input_tokens == 50

    def test_unparseable_marks_failed(self):
        backend = FixtureBackend([text_turn("somewhere in Virginia")])
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert prediction.failed
        assert prediction.coordinate is None
        assert prediction.error_km is None
        assert prediction.run.reason == "Unparseable"
        assert prediction.run.raw_response == "somewhere in Virginia"

    def test_statewide_center_answer(self):
        backend = FixtureBackend([text_turn("37.4316, -78.6569")])
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert prediction.coordinate == Coordinate(37.4316, -78.6569)

    def test_backend_error_becomes_failed_prediction(self):
        backend = FixtureBackend([])  # immediately exhausted
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert prediction.failed
        assert "FixtureExhausted" in prediction.run.reason

    def test_cost_uses_model_prices(self):
        backend = FixtureBackend([text_turn("37.0, -77.0", 1000, 100)])
        prediction = run_one_shot(backend, O3, GRANT, "M-2")
        assert prediction.run.cost_usd == Decimal("0.014")  # 1000*10/1M + 100*40/1M


def jitter(base: Coordinate, dlat: float, dlon: float) -> Coordinate:
    return Coordinate(base.lat + dlat, base.lon + dlon)


class TestAggregateEnsemble:
    BASE = Coordinate(37.2, -77.3)

    def test_five_identical(self):
        out = aggregate_ensemble([self.BASE] * 5)
        assert abs(out.lat - self.BASE.lat) <= 1e-9
        assert abs(out.lon - self.BASE.lon) <= 1e-9

    def test_four_close_one_far(self):
        close = [jitter(self.BASE, i * 0.0005, 0) for i in range(4)]  # within ~0.2 km
        far = Coordinate(39.0, -76.0)  # ~200 km away
        out = aggregate_ensemble(close + [far])
        expected = aggregate_ensemble(close, EnsembleConfig(k=4, min_cluster=3, seeds=(0, 1, 2, 3)))
        assert abs(out.lat - expected.lat) <= 1e-9
        assert haversine_km(out, far) > 100

    def test_all_spread_falls_back_to_overall_centroid(self):
        pts = [jitter(self.BASE, i * 0.01, i * 0.01) for i in range(5)]  # pairwise > 0.5 km
        for i in range(5):
            for j in range(i + 1, 5):
                assert haversine_km(pts[i], pts[j]) > 0.5
        out = aggregate_ensemble(pts)
        from grantgeo.geo import spherical_centroid

        expected = spherical_centroid(pts)
        assert abs(out.lat - expected.lat) <= 1e-9

    def test_three_two_split_prefers_majority(self):
        a = [jitter(self.BASE, i * 0.0005, 0) for i in range(3)]
        b = [jitter(Coordinate(38.0, -78.0), i * 0.0005, 0) for i in range(2)]
        out = aggregate_ensemble(a + b)
        assert haversine_km(out, self.BASE) < 1.0

    def test_three_one_one(self):
        a = [jitter(self.BASE, i * 0.0005, 0) for i in range(3)]
        singles = [Coordinate(38.5, -78.5), Coordinate(36.8, -76.2)]
        out = aggregate_ensemble(a + singles)
        assert haversine_km(out, self.BASE) < 1.0

    def test_single_survivor(self):
        assert aggregate_ensemble([self.BASE]) == self.BASE

    def test_empty_raises(self):
        with pytest.raises(AllCallsFailed):
            aggregate_ensemble([])

    def test_permutation_invariance(self):
        rng = random.Random(5)
        pts = [jitter(self.BASE, i * 0.0004, -i * 0.0003) for i in range(3)]
        pts += [Coordinate(38.1, -78.2), Coordinate(36.7, -76.4)]
        reference = aggregate_ensemble(pts)
        for _ in range(20):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            out = aggregate_ensemble(shuffled)
            assert abs(out.lat - reference.lat) <= 1e-9
            assert abs(out.lon - reference.lon) <= 1e-9

    def test_translation_rigidity(self):
        pts = [jitter(self.BASE, i * 0.0004, i * 0.0002) for i in range(5)]
        base_out = aggregate_ensemble(pts)
        d = 0.01
        moved = [jitter(p, d, d) for p in pts]
        moved_out = aggregate_ensemble(moved)
        assert abs(moved_out.lat - (base_out.lat + d)) <= 1e-6
        assert abs(moved_out.lon - (base_out.lon + d)) <= 1e-6

    def test_exhaustive_small_configurations(self):
        # coincident / 4+1 / 3+2 / 3+1+1 / all-spread, under every permutation
        import itertools

        cluster = [jitter(self.BASE, i * 0.0004, 0) for i in range(5)]
        outliers = [Coordinate(38.2, -78.4), Coordinate(36.7, -76.1), Coordinate(39.0, -77.9)]
        configs = {
            "coincident": cluster[:5],
            "4+1": cluster[:4] + outliers[:1],
            "3+2close": cluster[:3] + [jitter(outliers[0], i * 0.0004, 0) for i in range(2)],
            "3+1+1": cluster[:3] + outliers[:2],
            "spread": [jitter(self.BASE, i * 0.01, i * 0.01) for i in range(5)],
        }
        for name, pts in configs.items():
            reference = aggregate_ensemble(pts)
            majority = name != "spread"
            for perm in itertools.permutations(range(5)):
                out = aggregate_ensemble([pts[i] for i in perm])
                assert abs(out.lat - reference.lat) <= 1e-9, name
                assert abs(out.lon - reference.lon) <= 1e-9, name
            if majority:
                assert haversine_km(reference, self.BASE) < 1.0, name


class TestRunEnsemble:
    def test_coincident_answers_and_cost_linearity(self):
        turns = [text_turn("37.166303, -77.240091", 153, 940) for _ in range(5)]
        backend = FixtureBackend(turns)
        ens = EnsembleConfig(seeds=(11, 12, 13, 14, 15))
        prediction = run_ensemble(backend, ModelConfig("o3-2025-04-16", reasoning_effort="low"), ens, GRANT, "E-1")
        assert prediction.coordinate == Coordinate(37.166303, -77.240091)
        assert prediction.run.usage == __import__("grantgeo").gateway.TokenUsage(765, 4700)
        # five calls at o3 prices: exactly the reported per-grant ensemble cost
        assert abs(prediction.run.cost_usd - Decimal("0.19565")) < Decimal("0.00001")

    def test_two_failures_three_agree(self):
        answers = [
            "no idea",
            "37.2000, -77.3000",
            "somewhere",
            "37.2001, -77.3000",
            "37.2000, -77.3001",
        ]
        backend = FixtureBackend([text_turn(a) for a in answers])
        prediction = run_ensemble(backend, O3, EnsembleConfig(), GRANT, "E-1")
        assert not prediction.failed
        assert haversine_km(prediction.coordinate, Coordinate(37.2, -77.3)) < 0.1

    def test_all_failed(self):
        backend = FixtureBackend([text_turn("nope") for _ in range(5)])
        prediction = run_ensemble(backend, O3, EnsembleConfig(), GRANT, "E-1")
        assert prediction.failed
        assert prediction.run.reason == "AllCallsFailed"
        assert prediction.coordinate is None


_JSON_VALUES = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
_JSON_OBJECTS = st.dictionaries(st.text(max_size=10), _JSON_VALUES, max_size=4)
_TOOL_CALLS = st.builds(
    ToolCallRecord, st.integers(min_value=1), st.text(max_size=20), _JSON_OBJECTS, _JSON_OBJECTS, st.booleans()
)


@st.composite
def _predictions(draw) -> Prediction:
    """A cell as any pipeline may build it."""
    method_id, row_id = draw(st.text(max_size=12)), draw(st.text(max_size=12))
    coordinate = draw(st.none() | st.builds(Coordinate, st.floats(-90, 90), st.floats(-180, 180)))
    error_km = None if coordinate is None else draw(st.none() | st.floats(0, 20_000).map(lambda km: round(km, 6)))
    run = RunRecord(
        draw(st.builds(TokenUsage, st.integers(0, 10**9), st.integers(0, 10**9))),
        draw(st.floats(0, 1e6)),
        draw(st.decimals(min_value=0, allow_nan=False, allow_infinity=False)),
        draw(st.lists(_TOOL_CALLS, max_size=3)),
        draw(st.text(max_size=500)),
        draw(st.none() | st.text(max_size=40)),
    )
    return Prediction(method_id, row_id, coordinate, error_km, run)


class TestRunRecord:
    def test_cost_recompute_matches(self):
        usage = TokenUsage(12345, 678)
        cost = call_cost(usage, *DEFAULT_PRICES.lookup("o3-2025-04-16"))
        record = RunRecord(usage, 0.5, cost)
        assert call_cost(record.usage, *DEFAULT_PRICES.lookup("o3-2025-04-16")) == record.cost_usd

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            RunRecord(TokenUsage(), -0.1, Decimal(0))

    @pytest.mark.parametrize(
        "latency_s, cost_usd",
        [(float("nan"), Decimal(0)), (float("inf"), Decimal(0)), (True, Decimal(0)), ("1", Decimal(0)),
         (0.0, Decimal("NaN")), (0.0, Decimal("Infinity")), (0.0, Decimal("-0.01")), (0.0, 0.5)],
    )
    def test_latency_and_cost_must_be_finite_and_non_negative(self, latency_s, cost_usd):
        with pytest.raises(ValueError):
            RunRecord(TokenUsage(), latency_s, cost_usd)


class TestCallLogFormat:
    @settings(max_examples=300, deadline=None)
    @given(prediction=_predictions(), request=st.text(max_size=160))
    def test_from_json_inverts_to_json(self, prediction, request):
        assert Prediction.from_json(json.loads(json.dumps(prediction.to_json(request)))) == prediction

    def test_a_finished_runs_records_are_what_to_json_writes(self, tmp_path):
        hf.build_full_workspace(tmp_path)
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(tmp_path / "config.yaml")]) == 0
        logs = sorted((tmp_path / "out" / "runs").glob("*/calls.jsonl"))
        assert len(logs) == len(hf.full_config()["methods"])
        for log in logs:
            for line in log.read_text(encoding="utf-8").splitlines():
                doc = json.loads(line)
                assert Prediction.from_json(doc).to_json(doc["request"]) == doc

    @pytest.mark.parametrize(
        "fields",
        [{"error_km": -1.0}, {"error_km": float("nan")}, {"coordinate": None}],
        ids=["negative-error", "nan-error", "error-without-coordinate"],
    )
    def test_prediction_checks_its_error(self, fields):
        cell = {"coordinate": Coordinate(37.0, -77.0), "error_km": 1.5, **fields}
        with pytest.raises(ValueError, match="error_km"):
            Prediction("M-1", "r1", run=RunRecord(), **cell)
