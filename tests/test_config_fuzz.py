"""Config fuzzing: any one-key change to a valid config ends in a documented
exit code (0 ok, 1 config, 2 data, 3 partial), never a traceback."""

from __future__ import annotations

import contextlib
import copy
import io

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harness_fixtures as hf
from grantgeo.cli import main

DELETE = "<delete>"
MUTATIONS = [DELETE, None, "abc", -1, 1.5, [], {}, True]


def _paths(node, prefix=()):
    """Every key of every mapping and every list position, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = list(_paths(hf.full_config()))


def _mutated(path, mutation) -> dict:
    doc = copy.deepcopy(hf.full_config())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return doc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    hf.build_full_workspace(root)
    return root


def _run(config_path) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["run", "--config", str(config_path)])


def test_unmutated_config_runs(workspace):
    config_path = workspace / "config.yaml"
    config_path.write_text(yaml.safe_dump(hf.full_config()), encoding="utf-8")
    assert _run(config_path) == 0


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), mutation=st.sampled_from(MUTATIONS))
@example(path=("prices", "my-model", "input"), mutation="abc")
@example(path=("methods", 6, "total_cost_usd"), mutation="abc")
@example(path=("methods", 0, "model", "model_id"), mutation=-1)
@example(path=("methods", 4, "params", "bbox_margin_deg"), mutation=-1)
@example(path=("output_dir",), mutation=None)
def test_one_key_mutation_ends_in_an_exit_code(workspace, path, mutation):
    config_path = workspace / "config.yaml"
    config_path.write_text(yaml.safe_dump(_mutated(path, mutation)), encoding="utf-8")
    assert _run(config_path) in (0, 1, 2, 3)
