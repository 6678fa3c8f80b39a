"""Fuzz the input boundary: a hostile value in any config key, in any field of
a ``data`` entry or in any cell of an input CSV ends every pipeline stage in a
documented exit code, never in a traceback or a raw Python warning.

Each example sets one key of ``config.DEFAULTS``, one field of one ``data``
entry, or one cell of one input CSV, in a synth workspace to one hostile value
and runs the five stages in-process through ``main``. A fuzzed config gives
the same result whether its parsed document is stored beside it or not.
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


def run(args: list[str]) -> tuple[int, str, str]:
    """``hlcast <args>`` in-process: its exit code, stdout and stderr, with
    every warning it raises written to stderr as Python would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
    return code, out.getvalue(), err.getvalue()


def run_stages(config) -> list[tuple[int, str, str]]:
    """Every stage on ``config``, the first on a load that parses the text (no
    stored document). The first stage run again, on a load that reads the
    document stored then if the config passed every check, gives the same exit
    code, stdout and stderr."""
    config.with_name(f".{config.name}.hlcast.json").unlink(missing_ok=True)
    results = [run([stage, "--config", str(config)]) for stage in STAGES]
    assert run([next(iter(STAGES)), "--config", str(config)]) == results[0]
    return results


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
    for stage, (code, _, err) in zip(STAGES, run_stages(config)):
        assert code in (0, 2, 3, 4), (stage, code, err)
        assert "Traceback" not in err and "Warning" not in err, (stage, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (stage, err)
        else:
            assert err == "", (stage, err)


# 16,000 bits, 4,817 decimal digits: past the interpreter's 4300-digit limit,
# so neither repr nor yaml.safe_dump can write it; YAML reads hex without limit
HUGE_HEX = "0x" + "f" * 4000


@pytest.mark.parametrize("key", KEYS, ids=lambda key: ".".join(filter(None, key)))
def test_int_too_long_to_print_exits_2_naming_the_key(workspace, key):
    doc = yaml.safe_load((workspace / "config.yaml").read_text())
    section, name = key
    if name is None:
        doc[section] = "HUGE"
    else:
        doc[section][name] = "HUGE"
    config = workspace / "fuzz.yaml"
    config.write_text(yaml.safe_dump(doc).replace("HUGE", HUGE_HEX))
    where = ".".join(filter(None, key))
    for stage, (code, _, err) in zip(STAGES, run_stages(config)):
        assert code == 2 and err.startswith(f"error: {where}"), (stage, code, err[:600])
        assert err.count("\n") == 1 and len(err.encode()) <= 512, (stage, err[:600])
        assert "Traceback" not in err, (stage, err[:600])


def assert_stages_exit_cleanly(config) -> list[str]:
    """Run every stage on ``config``: each ends in a documented exit code, its
    stderr holds only ``warning:`` lines and, on failure, one last ``error:``
    line. Returns each stage's stderr."""
    errs = []
    for stage, (code, _, err) in zip(STAGES, run_stages(config)):
        assert code in (0, 2, 3, 4), (stage, code, err)
        assert "Traceback" not in err and "Warning" not in err, (stage, err)
        body = err.splitlines()
        if code:
            assert body and body.pop().startswith("error: "), (stage, err)
        assert all(line.startswith("warning: ") for line in body), (stage, err)
        errs.append(err)
    return errs


INPUTS = ["house_price", "income", "interest_rate", "ltv", "interest_only_share"]
# None appends an extra field to the row; b"\xe9" is not UTF-8; the 131,000
# digits are a cell just under the csv module's 131,072-character field limit,
# and the 140,000 a cell over it; a stray quote quotes the rest of the file
CELLS = [
    b"x", b"inf", b"nan", b"1e308", b"", None, b"\xe9", b"1" * 131_000, b"1" * 140_000, b'"1'
]


@pytest.fixture(scope="module")
def cells_workspace(workspace):
    """A copy of the workspace whose CSVs the cell examples edit one at a time."""
    ws = workspace.parent / "cells"
    shutil.copytree(workspace, ws)
    return ws


# 60 of the 5 x 92 x 10 edits; the examples pin an ECM that warns (gamma >= 0)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(INPUTS), st.integers(1, 92), st.sampled_from(CELLS))
@example("interest_rate", 37, b"1e308")
@example("income", 1, None)
@example("ltv", 1, b"\xe9")
@example("ltv", 1, b"1" * 131_000)
@example("ltv", 1, b"1" * 140_000)
@example("ltv", 1, b'"1')
def test_hostile_csv_cell_exits_cleanly(cells_workspace, name, row, cell):
    path = cells_workspace / f"{name}.csv"
    text = path.read_bytes()
    lines = text.splitlines()
    quarter, value = lines[row].split(b",")
    lines[row] = b",".join([quarter, value, value] if cell is None else [quarter, cell])
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        for err in assert_stages_exit_cleanly(cells_workspace / "config.yaml"):
            # an error quotes a cell bounded
            assert all(len(line.encode()) <= 512 for line in err.splitlines()), err[:600]
    finally:
        path.write_bytes(text)


# Input files a data entry may name: not UTF-8, empty, a header only, a stray
# quote, a gap between quarters
BAD_FILES = {
    "latin1.csv": b"quarter,value\n1995Q1,\xe9\n",
    "empty.csv": b"",
    "header.csv": b"quarter,value\n",
    "quote.csv": b'quarter,value\n1995Q1,"1\n',
    "gap.csv": b"quarter,value\n1995Q1,1\n1995Q3,2\n",
}
# a path too long to look up, the workspace itself, files that are not series
PATHS = ["a" * 300, "", ".", "nope.csv", "config.yaml", "truth.json", *BAD_FILES, None, 5, []]
UNITS = [None, True, 5, "", "x", "percent", "a" * 300, [], {}]
# a whole entry: not a mapping, a path too long, an unknown key
ENTRIES = [None, True, 5, "a" * 300, [], {"path": "ltv.csv", "colour": "red"}]
# (field, value) of a data entry, field None for the whole entry
EDITS = [("path", p) for p in PATHS] + [("unit", u) for u in UNITS] + [(None, e) for e in ENTRIES]


@pytest.fixture(scope="module")
def data_workspace(workspace):
    """A copy of the workspace that also holds the bad input files."""
    ws = workspace.parent / "data"
    shutil.copytree(workspace, ws)
    for name, content in BAD_FILES.items():
        (ws / name).write_bytes(content)
    return ws


# 200 covers all 6 x 29 (series, edit) pairs; "extra" is a series no stage
# knows, read from a file with a stray quote unless the edit replaces its path
@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(INPUTS + ["extra"]), st.sampled_from(EDITS))
@example("ltv", ("path", "a" * 300))
@example("extra", ("unit", "percent"))
def test_hostile_data_entry_exits_cleanly(data_workspace, name, edit):
    doc = yaml.safe_load((data_workspace / "config.yaml").read_text())
    field, value = edit
    if field is None:
        doc["data"][name] = value
    else:
        doc["data"].setdefault(name, {"path": "quote.csv"})[field] = value
    config = data_workspace / "fuzz.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert_stages_exit_cleanly(config)
