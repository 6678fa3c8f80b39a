"""Fuzz the input boundary: a hostile value in any config key or in any cell
of an input CSV ends every pipeline stage in a documented exit code, never in
a traceback or a raw Python warning.

Each example sets one key of ``config.DEFAULTS``, or one cell of one input
CSV, in a synth workspace to one hostile value and runs the five stages
in-process through ``main``.
"""

import contextlib
import io
import math
import shutil
import warnings

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcast.cli import STAGES, main
from hlcast.config import DEFAULTS

# (section, key), or (key, None) for a top-level key
KEYS = [
    (section, key)
    for section, node in DEFAULTS.items()
    for key in (node if isinstance(node, dict) else [None])
]
HOSTILE = [None, True, -1, 0, 10**400, -(10**400), 1e308, -1e308, math.nan, math.inf, "x", [], {}]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz") / "ws"
    assert run(["synth", "--out", str(ws)])[0] == 0
    return ws


def run(args: list[str]) -> tuple[int, str]:
    """``hlcast <args>`` in-process: its exit code and stderr, with every
    warning it raises written to stderr as Python would print it."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                main(args, prog_name="hlcast")
            except SystemExit as exc:
                code = exc.code
            else:
                raise AssertionError("main returned without SystemExit")
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, err.getvalue()


# 200 covers all 14 x 13 pairs: hypothesis stops when none is left
@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(KEYS), st.sampled_from(HOSTILE))
@example(("lti", "term_months"), 10**400)
def test_hostile_config_value_exits_cleanly(workspace, key, value):
    doc = yaml.safe_load((workspace / "config.yaml").read_text())
    section, name = key
    if name is None:
        doc[section] = value
    else:
        doc[section][name] = value
    config = workspace / "fuzz.yaml"
    config.write_text(yaml.safe_dump(doc))
    for stage in STAGES:
        code, err = run([stage, "--config", str(config)])
        assert code in (0, 2, 3, 4), (stage, code, err)
        assert "Traceback" not in err and "Warning" not in err, (stage, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (stage, err)
        else:
            assert err == "", (stage, err)


INPUTS = ["house_price", "income", "interest_rate", "ltv", "interest_only_share"]
# None appends an extra field to the row
CELLS = ["x", "inf", "nan", "1e308", "", None]


@pytest.fixture(scope="module")
def cells_workspace(workspace):
    """A copy of the workspace whose CSVs the cell examples edit one at a time."""
    ws = workspace.parent / "cells"
    shutil.copytree(workspace, ws)
    return ws


# 60 of the 5 x 92 x 6 edits; the examples pin an ECM that warns (gamma >= 0)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(INPUTS), st.integers(1, 92), st.sampled_from(CELLS))
@example("interest_rate", 37, "1e308")
@example("income", 1, None)
def test_hostile_csv_cell_exits_cleanly(cells_workspace, name, row, cell):
    path = cells_workspace / f"{name}.csv"
    text = path.read_text()
    lines = text.splitlines()
    quarter, value = lines[row].split(",")
    lines[row] = f"{quarter},{value},{value}" if cell is None else f"{quarter},{cell}"
    path.write_text("\n".join(lines) + "\n")
    try:
        for stage in STAGES:
            code, err = run([stage, "--config", str(cells_workspace / "config.yaml")])
            assert code in (0, 2, 3, 4), (stage, code, err)
            assert "Traceback" not in err and "Warning" not in err, (stage, err)
            body = err.splitlines()
            if code:
                assert body and body.pop().startswith("error: "), (stage, err)
            assert all(line.startswith("warning: ") for line in body), (stage, err)
    finally:
        path.write_text(text)
