"""Data-file fuzzing: one mutation of one input file, or of one output of a
finished run, ends ``grantgeo run`` or ``grantgeo report`` in a documented
exit code (0 ok, 1 config, 2 data, 3 partial), never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harness_fixtures as hf
from grantgeo.cli import main

INPUTS = [
    "fixtures/ground_truth.csv",
    "fixtures/external.csv",
    "fixtures/m5.jsonl",
    "fixtures/e1.jsonl",
    "fixtures/toolchain.jsonl",
    "fixtures/geocache.jsonl",
    "fixtures/counties.csv",
    "fixtures/gazetteer.csv",
]
OUTPUTS = ["out/run.json", *(f"out/runs/{m['method_id']}/calls.jsonl" for m in hf.full_config()["methods"])]
JSON_VALUES = [None, "x", -1, math.nan, [], {}]
MUTATIONS = [
    (path, mutation)
    for path in INPUTS + OUTPUTS
    for mutation in ["cut", "insert-ff", "drop-line", "duplicate-line"]
    + ([f"value={json.dumps(v)}" for v in JSON_VALUES] if path.endswith((".json", ".jsonl")) else [])
]


def _paths(node, prefix=()):
    """The path of ``node`` and of every value inside it, at any depth."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


def _mutated(data: bytes, mutation: str, at: int) -> bytes:
    """``data`` with one mutation, placed by ``at`` (taken modulo the number of places)."""
    if mutation == "cut":
        return data[: at % (len(data) + 1)]
    if mutation == "insert-ff":
        i = at % (len(data) + 1)
        return data[:i] + b"\xff" + data[i:]
    lines = data.splitlines(keepends=True)
    if mutation in ("drop-line", "duplicate-line"):
        i = at % len(lines)
        lines[i : i + 1] = [lines[i]] * (0 if mutation == "drop-line" else 2)
        return b"".join(lines)
    docs = [json.loads(line) for line in lines]
    places = [(n, path) for n, doc in enumerate(docs) for path in _paths(doc)]
    n, path = places[at % len(places)]
    lines[n] = json.dumps(_replaced(docs[n], path, json.loads(mutation.removeprefix("value=")))).encode() + b"\n"
    return b"".join(lines)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The full workspace and a finished run of it in ``out/``."""
    root = tmp_path_factory.mktemp("data_fuzz")
    hf.build_full_workspace(root)
    (root / "config.yaml").write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
    assert _main(["run", "--config", str(root / "config.yaml")]) == 0
    return root


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=800, deadline=None)
@given(target=st.sampled_from(MUTATIONS), at=st.integers(min_value=0, max_value=1 << 16))
@example(target=("fixtures/ground_truth.csv", "insert-ff"), at=0)
@example(target=("fixtures/external.csv", "insert-ff"), at=0)
@example(target=("out/runs/M-5/calls.jsonl", "value=-1"), at=14)  # error_km
@example(target=("out/runs/T-4/calls.jsonl", "value=null"), at=8)  # the first tool call's tool_name
def test_one_data_mutation_ends_in_an_exit_code(workspace, target, at):
    path, mutation = target
    original = (workspace / path).read_bytes()
    (workspace / path).write_bytes(_mutated(original, mutation, at))
    try:
        if path in INPUTS:
            argv = ["run", "--config", str(workspace / "config.yaml"), "--output-dir", str(workspace / "fuzz_out")]
        else:
            argv = ["report", "--run-dir", str(workspace / "out")]
        assert _main(argv) in (0, 1, 2, 3)
    finally:
        (workspace / path).write_bytes(original)
