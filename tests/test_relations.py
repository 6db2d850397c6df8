"""Metamorphic relations: a cell's call-log record depends only on its method and its grant.

A base run of every pipeline over a 6-grant ``hf.full_config()`` workspace is
compared with transformed runs of the same workspace. Every cell the two share
must have the same call-log record, ``latency_s`` masked (baseline cells
measure it locally). The evalset-subset relation is a strict xfail: replay
keeps one cursor per method, not one per grant (ROADMAP item 2), so a grant
off the recorded prefix gets another grant's answers until replay is keyed by
grant, when the strict marker makes the test fail until it is removed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import harness_fixtures as hf
from grantgeo.cli import main

N_GRANTS = 6
METHOD_IDS = [m["method_id"] for m in hf.full_config()["methods"]]


def _cells(config_path: Path, out: Path, *args: str) -> tuple[list[str], list[str], dict]:
    """Run the config into ``out``: run.json's methods and rows, and each cell's record by (method, row)."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config_path), "--output-dir", str(out), *args]) == 0
    run = json.loads((out / "run.json").read_text(encoding="utf-8"))
    cells = {}
    for method_id in run["methods"]:
        for line in (out / "runs" / method_id / "calls.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            cells[record["method_id"], record["row_id"]] = {**record, "latency_s": None}
    return run["methods"], run["rows"], cells


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("relations")
    hf.build_full_workspace(root, n_grants=N_GRANTS)
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
    methods, rows, cells = _cells(config_path, root / "base")
    assert methods == METHOD_IDS and len(rows) == N_GRANTS and len(cells) == len(METHOD_IDS) * N_GRANTS
    return config_path, rows, cells


@given(roster=st.lists(st.sampled_from(METHOD_IDS), min_size=1, unique=True))
@settings(max_examples=20, deadline=None)
def test_a_roster_subset_in_any_order_keeps_every_cell(base, tmp_path_factory, roster):
    config_path, rows, cells = base
    flags = [arg for method_id in roster for arg in ("--method", method_id)]
    methods, subset_rows, subset = _cells(config_path, tmp_path_factory.mktemp("roster"), *flags)
    assert (methods, subset_rows) == (roster, rows)
    assert subset == {(m, r): cells[m, r] for m in roster for r in rows}


@given(max_rows=st.integers(1, N_GRANTS + 2))
@settings(max_examples=8, deadline=None)
def test_a_max_rows_prefix_keeps_every_cell(base, tmp_path_factory, max_rows):
    config_path, rows, cells = base
    methods, prefix_rows, prefix = _cells(config_path, tmp_path_factory.mktemp("prefix"), "--max-rows", str(max_rows))
    assert (methods, prefix_rows) == (METHOD_IDS, rows[:max_rows])
    assert prefix == {(m, r): cells[m, r] for m in METHOD_IDS for r in rows[:max_rows]}


@given(
    old=st.sampled_from(METHOD_IDS),
    # a method named truth would repeat the ground truth's truth_lat and truth_lon columns, a config error
    new=st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True).filter(lambda name: name not in [*METHOD_IDS, "truth"]),
)
@settings(max_examples=14, deadline=None)
def test_a_renamed_method_keeps_every_record_but_its_method_id(base, tmp_path_factory, old, new):
    config_path, rows, cells = base
    doc = hf.full_config()
    next(m for m in doc["methods"] if m["method_id"] == old)["method_id"] = new
    renamed_config = config_path.with_name(f"renamed-{old}-{new}.yaml")  # beside the fixtures it names
    renamed_config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    methods, renamed_rows, renamed = _cells(renamed_config, tmp_path_factory.mktemp("renamed"))
    name = {m: new if m == old else m for m in METHOD_IDS}
    assert (methods, renamed_rows) == ([name[m] for m in METHOD_IDS], rows)
    assert renamed == {(name[m], r): {**cells[m, r], "method_id": name[m]} for m in METHOD_IDS for r in rows}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="replay keeps one cursor per method, so r001 gets r000's recorded answers (ROADMAP item 2)",
)
def test_an_evalset_subset_keeps_every_cell(base, tmp_path_factory):
    config_path, rows, cells = base
    methods, subset_rows, subset = _cells(config_path, tmp_path_factory.mktemp("evalset"), "--evalset", "one")
    assert methods == METHOD_IDS and len(subset_rows) == 1 and set(subset_rows) <= set(rows)
    assert subset == {(m, r): cells[m, r] for m in METHOD_IDS for r in subset_rows}
