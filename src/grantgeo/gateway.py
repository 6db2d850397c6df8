"""Uniform chat-completion interface with token and cost capture.

Two backends share one calling convention: a deterministic fixture-replay
backend (first-class, used by all offline evaluation) and a minimal live
HTTP client. Costs are computed in decimal arithmetic so reported dollars
carry no binary-float drift. What a finished cell records, its accounting
and tool trace, lives with the cell in :mod:`grantgeo.runners`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import read_jsonl, write_jsonl
from .geo import is_int, is_real

MODEL_API_KEY_ENV = "MODEL_API_KEY"
GEOCODER_API_KEY_ENV = "GEOCODER_API_KEY"

LIVE_TIMEOUT_S = 120.0
"""Seconds a live chat-completion request may take before it is retried."""

LIVE_MAX_RETRIES = 1
"""Retries after a failed live request, before BackendUnavailable/BackendTimeout."""

_MICRO = Decimal(10) ** 6
_REASONING_EFFORTS = ("low", "medium", "high")


class BackendUnavailable(RuntimeError):
    """Network, auth, or configuration failure talking to a backend."""


class BackendTimeout(RuntimeError):
    """The backend did not answer within ``LIVE_TIMEOUT_S``."""


class FixtureExhausted(RuntimeError):
    """A fixture script ran out of turns."""


class FixtureMismatch(RuntimeError):
    """A fixture turn's request predicate did not match the request."""


# Errors a pipeline turns into a failed row instead of aborting the run.
BACKEND_ERRORS = (BackendUnavailable, BackendTimeout, FixtureExhausted, FixtureMismatch)


@dataclass
class ChatMessage:
    role: str  # system | user | assistant | tool
    content: str


@dataclass
class ToolCallRequest:
    name: str
    arguments: dict


@dataclass
class ModelResponse:
    """Either final assistant text or a tool-call request."""

    text: str | None = None
    tool_call: ToolCallRequest | None = None


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self):
        if not all(is_int(n) and n >= 0 for n in (self.input_tokens, self.output_tokens)):
            raise ValueError("token counts must be integers >= 0")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
        )


@dataclass(frozen=True)
class ModelConfig:
    """Per-method model settings.

    temperature and reasoning_effort are mutually exclusive: each method
    configures exactly one of them (or neither).
    """

    model_id: str
    temperature: float | None = None
    reasoning_effort: str | None = None
    seed: int | None = None
    max_output_tokens: int | None = None

    def __post_init__(self):
        if not isinstance(self.model_id, str) or not self.model_id:
            raise ValueError(f"model_id must be a non-empty string, got {self.model_id!r}")
        checks = ((self.temperature, is_real), (self.seed, is_int), (self.max_output_tokens, is_int))
        if not all(value is None or ok(value) for value, ok in checks):
            raise ValueError("temperature must be a number, and seed and max_output_tokens integers")
        if (self.temperature or 0) < 0 or (self.max_output_tokens is not None and self.max_output_tokens < 1):
            raise ValueError("temperature must be >= 0 and max_output_tokens >= 1")
        if self.temperature is not None and self.reasoning_effort is not None:
            raise ValueError("temperature and reasoning_effort are mutually exclusive")
        if self.reasoning_effort is not None and self.reasoning_effort not in _REASONING_EFFORTS:
            raise ValueError(f"reasoning_effort must be one of {_REASONING_EFFORTS}")


def _to_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    return Decimal(value)


class PriceTable:
    """USD prices per million input/output tokens, keyed by model id.

    Lookup tries the exact id first, then the longest family prefix, so
    dated snapshot ids resolve to their family row.
    """

    def __init__(self, prices: dict[str, tuple] | None = None):
        self._prices: dict[str, tuple[Decimal, Decimal]] = {}
        for model_id, (p_in, p_out) in (prices or {}).items():
            self.set_price(model_id, p_in, p_out)

    def set_price(self, model_id: str, p_in, p_out) -> None:
        p_in, p_out = _to_decimal(p_in), _to_decimal(p_out)
        if not all(p.is_finite() and p >= 0 for p in (p_in, p_out)):
            raise ValueError("prices must be finite and non-negative")
        self._prices[model_id] = (p_in, p_out)

    def lookup(self, model_id: str) -> tuple[Decimal, Decimal]:
        if model_id in self._prices:
            return self._prices[model_id]
        candidates = [k for k in self._prices if model_id.startswith(k + "-")]
        if candidates:
            return self._prices[max(candidates, key=len)]
        raise KeyError(f"no price for model {model_id!r}")


def default_price_table() -> PriceTable:
    """Packaged per-1M-token prices for the evaluated model families."""
    return PriceTable(
        {
            "gpt-4.1": ("2.00", "8.00"),
            "gpt-4o": ("5.00", "15.00"),
            "gpt-3.5-turbo": ("0.50", "1.50"),
            "o4-mini": ("1.10", "4.40"),
            "o3": ("10.00", "40.00"),
            "o3-mini": ("1.10", "4.40"),
        }
    )


DEFAULT_PRICES = default_price_table()


def call_cost(usage: TokenUsage, p_in, p_out) -> Decimal:
    """Dollar cost of one call: tokens/1M times the per-1M prices.

    Exact decimal arithmetic; no binary-float rounding enters reported
    dollars.
    """
    p_in, p_out = _to_decimal(p_in), _to_decimal(p_out)
    return (Decimal(usage.input_tokens) * p_in + Decimal(usage.output_tokens) * p_out) / _MICRO


class _Turn(NamedTuple):
    """One checked script turn: the request predicate and what ``complete`` returns."""

    expect_contains: str | None
    response: ModelResponse
    usage: TokenUsage


def _parse_turn(doc) -> _Turn:
    """Check one decoded script turn; raises ValueError naming what is wrong."""
    if isinstance(doc, _Turn):  # already checked by from_jsonl
        return doc
    if not isinstance(doc, dict):
        raise ValueError("a turn must be a JSON object")
    expect = doc.get("expect") or {}
    if not isinstance(expect, dict) or not isinstance(expect.get("contains", ""), str):
        raise ValueError("expect must be an object whose contains is a string")
    response = doc.get("response")
    if not isinstance(response, dict):
        raise ValueError("response must be a JSON object")
    if response.get("type") == "text":
        if not isinstance(response.get("text"), str):
            raise ValueError("a text response needs a string text")
        model_response = ModelResponse(text=response["text"])
    elif response.get("type") == "tool_call":
        name, arguments = response.get("name"), response.get("arguments", {})
        if not isinstance(name, str) or not isinstance(arguments, dict):
            raise ValueError("a tool_call response needs a string name and object arguments")
        model_response = ModelResponse(tool_call=ToolCallRequest(name, dict(arguments)))
    else:
        raise ValueError(f"unknown response type {response.get('type')!r}")
    usage = doc.get("usage") or {}
    if not isinstance(usage, dict):
        raise ValueError("usage must be an object of token counts")
    usage = TokenUsage(usage.get("input_tokens", 0), usage.get("output_tokens", 0))  # checks the counts
    return _Turn(expect.get("contains"), model_response, usage)


class FixtureBackend:
    """Deterministic replay backend driven by a JSONL script.

    Each script line is one turn:

        {"expect": {"contains": "..."},            # optional predicate
         "response": {"type": "text", "text": "..."}
                   | {"type": "tool_call", "name": "...", "arguments": {...}},
         "usage": {"input_tokens": N, "output_tokens": N}}

    Every turn is checked when the backend is built, so a bad script stops
    a run before its first call. Turns are consumed in order; the
    predicate (a substring of the concatenated request messages) guards
    against scripts drifting out of sync with the conversation.
    Thread-safe; identical scripts and inputs produce identical transcripts.
    """

    def __init__(self, turns: Iterable[dict]):
        self._turns = [_parse_turn(turn) for turn in turns]  # the whole script, checked before any call
        self._pos = 0
        self._lock = threading.Lock()

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "FixtureBackend":
        return cls(read_jsonl(path, "fixture-script", _parse_turn))

    def complete(
        self,
        cfg: ModelConfig,
        messages: list[ChatMessage],
        tools: list[dict] | None = None,
    ) -> tuple[ModelResponse, TokenUsage]:
        with self._lock:
            if self._pos >= len(self._turns):
                raise FixtureExhausted(f"script exhausted after {self._pos} turns")
            turn = self._turns[self._pos]
            self._pos += 1

        if turn.expect_contains is not None and turn.expect_contains not in "\n".join(m.content for m in messages):
            raise FixtureMismatch(f"turn {self._pos}: expected request to contain {turn.expect_contains!r}")
        return turn.response, turn.usage


def text_turn(text: str, input_tokens: int = 0, output_tokens: int = 0, expect_contains: str | None = None) -> dict:
    """Build a fixture script turn that answers with plain text."""
    turn: dict = {
        "response": {"type": "text", "text": text},
        "usage": {"input_tokens": input_tokens, "output_tokens": output_tokens},
    }
    if expect_contains is not None:
        turn["expect"] = {"contains": expect_contains}
    return turn


def tool_call_turn(
    name: str,
    arguments: dict,
    input_tokens: int = 0,
    output_tokens: int = 0,
    expect_contains: str | None = None,
) -> dict:
    """Build a fixture script turn that issues a tool call."""
    turn: dict = {
        "response": {"type": "tool_call", "name": name, "arguments": arguments},
        "usage": {"input_tokens": input_tokens, "output_tokens": output_tokens},
    }
    if expect_contains is not None:
        turn["expect"] = {"contains": expect_contains}
    return turn


def write_fixture_script(path: str | Path, turns: list[dict]) -> None:
    write_jsonl(path, turns)


class LiveBackend:
    """Minimal chat-completions HTTP client.

    Disabled by default in offline runs; exists for the optional live
    mode. ``LIVE_MAX_RETRIES`` retries, then BackendUnavailable/BackendTimeout.
    """

    def __init__(self, endpoint: str, api_key: str | None = None):
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(MODEL_API_KEY_ENV)

    def complete(
        self,
        cfg: ModelConfig,
        messages: list[ChatMessage],
        tools: list[dict] | None = None,
    ) -> tuple[ModelResponse, TokenUsage]:
        import requests  # only live mode pays for importing the HTTP client

        if not self.api_key:
            raise BackendUnavailable(f"{MODEL_API_KEY_ENV} is not set")
        payload: dict = {
            "model": cfg.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        }
        if cfg.temperature is not None:
            payload["temperature"] = cfg.temperature
        if cfg.reasoning_effort is not None:
            payload["reasoning_effort"] = cfg.reasoning_effort
        if cfg.seed is not None:
            payload["seed"] = cfg.seed
        if cfg.max_output_tokens is not None:  # not max_tokens: deprecated, and o-series models refuse it
            payload["max_completion_tokens"] = cfg.max_output_tokens
        if tools:
            payload["tools"] = [{"type": "function", "function": t} for t in tools]

        last_exc: Exception | None = None
        for _ in range(LIVE_MAX_RETRIES + 1):
            try:
                resp = requests.post(
                    self.endpoint,
                    json=payload,
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=LIVE_TIMEOUT_S,
                )
            except requests.Timeout as exc:
                last_exc = BackendTimeout(str(exc))
                continue
            except requests.RequestException as exc:
                last_exc = BackendUnavailable(str(exc))
                continue
            if resp.status_code != 200:
                last_exc = BackendUnavailable(f"HTTP {resp.status_code}: {resp.text[:200]}")
                if resp.status_code in (401, 403):
                    break  # credentials will not improve on retry
                continue
            try:
                return self._parse(resp.json())
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:  # a 200 off the wire format
                raise BackendUnavailable(f"malformed response: {type(exc).__name__}: {exc}") from exc
        raise last_exc  # type: ignore[misc]

    @staticmethod
    def _parse(data: dict) -> tuple[ModelResponse, TokenUsage]:
        """The reply as a script turn, checked by :func:`_parse_turn` like a fixture's."""
        message = data["choices"][0]["message"]
        counts = data.get("usage", {})
        usage = {
            "input_tokens": counts.get("prompt_tokens", counts.get("input_tokens", 0)),
            "output_tokens": counts.get("completion_tokens", counts.get("output_tokens", 0)),
        }
        tool_calls = message.get("tool_calls") or []
        if tool_calls:
            fn = tool_calls[0]["function"]
            args = fn.get("arguments", {})
            if isinstance(args, str):
                args = json.loads(args) if args else {}
            response = {"type": "tool_call", "name": fn["name"], "arguments": args}
        else:
            content = message.get("content")
            response = {"type": "text", "text": "" if content is None else content}
        return _parse_turn({"response": response, "usage": usage})[1:]
