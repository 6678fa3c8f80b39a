"""Each layer loads only the hlcast modules it uses.

``import hlcast`` loads no submodule, the configuration loads none of the
model stack, and a ``report`` on an existing run never loads the synthetic
data generator. None of them loads ``dataclasses`` or ``inspect``: hlcast's
records are written out, not generated at import. No pipeline command loads
OpenSSL: hlcast hashes with the interpreter's own SHA-256, and the generator
draws numpy's random stream without ``numpy.random``. Neither ``--help``
nor a command on a config whose parsed document is stored beside it loads
PyYAML. Each check runs in a fresh interpreter, since this test process has
already imported every module.

``spec``, the names every layer shares, imports no layer.

Inside the pipeline, quarters are quarter numbers from file to file: reading
and writing CSV files, generating data, building features, scanning lags,
running the grid and writing its report make no ``Quarter``, and neither do
the default split, the config or any command.

The benchmark's span tracer wraps hlcast's layer functions by name, so each
name it lists must resolve.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hlcast
from hlcast.backtest import build_features, default_specs, emit_plot_data, run_grid
from hlcast.regress import lag_scan
from hlcast.config import load_config
from hlcast.spec import HLC, HOUSE_PRICE, LtiParams, SplitSpec
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import (
    Quarter, read_frame_csv, read_series_csv, write_frame_csv, write_series_csv
)

ENV = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}

# Modules whose import time goes to generating code, which hlcast never needs.
CODE_GENERATION = {"dataclasses", "inspect"}

# hashlib imports _hashlib, which maps OpenSSL's libcrypto into the process.
OPENSSL = {"hashlib", "_hashlib"}

# PyYAML, ~15-20 ms of a command's start-up; only a config parse imports it.
YAML = {"yaml"}

# numpy's random package, which loads OpenSSL through secrets and hmac.
NUMPY_RANDOM = {"numpy.random"}

# Printed last by every probe: the hlcast submodules, code-generation,
# OpenSSL, PyYAML and numpy.random modules loaded so far.
LOADED = (
    "\nprint(*sorted(m for m in sys.modules"
    f' if m.startswith("hlcast.")'
    f" or m in {sorted(CODE_GENERATION | OPENSSL | YAML | NUMPY_RANDOM)}))\n"
)

# A probe that runs ``hlcast <args>`` and requires it to succeed.
RUN_MAIN = """
from hlcast.cli import main
try:
    main(sys.argv[1:], prog_name="hlcast")
except SystemExit as exc:
    assert exc.code == 0, exc
"""

MODEL_STACK = {"hlcast.backtest", "hlcast.regress", "hlcast.lti", "hlcast.synthetic"}


def loaded_by(code: str, *args: str) -> tuple[set[str], str]:
    """The hlcast submodules, code-generation, OpenSSL, PyYAML and
    numpy.random modules that ``code`` loads, and what it printed before them."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + LOADED, *args],
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines()
    return set(last.split()), "\n".join(out)


def test_import_hlcast_loads_no_submodule():
    loaded, _ = loaded_by("import hlcast")
    assert loaded == set()


def test_spec_imports_no_layer():
    loaded, _ = loaded_by("import hlcast.spec")
    assert loaded == {"hlcast.errors", "hlcast.spec"}


def test_config_loads_none_of_the_model_stack():
    loaded, _ = loaded_by("import hlcast.config")
    assert not loaded & MODEL_STACK, loaded
    assert not loaded & CODE_GENERATION, loaded


def test_cli_loads_no_code_generation():
    loaded, _ = loaded_by("import hlcast.cli")
    assert "hlcast.cli" in loaded
    assert not loaded & CODE_GENERATION, loaded


def test_no_pipeline_command_loads_openssl(tmp_path):
    # the report stage reads the backtest's run back
    loaded, _ = loaded_by("import hlcast.cli")
    assert "hlcast.cli" in loaded
    assert not loaded & OPENSSL, loaded
    loaded, _ = loaded_by(RUN_MAIN, "synth", "--out", str(tmp_path / "ws"))
    assert "hlcast.synthetic" in loaded and not loaded & OPENSSL, loaded
    config = str(tmp_path / "ws" / "config.yaml")
    for stage in ("ingest", "features", "lagscan", "backtest", "report"):
        loaded, _ = loaded_by(RUN_MAIN, stage, "--config", config)
        assert "hlcast.cli" in loaded, (stage, loaded)
        assert not loaded & OPENSSL, (stage, loaded)


def test_the_generator_loads_neither_numpy_random_nor_openssl(tmp_path):
    loaded, out = loaded_by(
        "from hlcast.synthetic import generate\nprint(len(generate().frame))"
    )
    assert out == "92"
    assert "hlcast.synthetic" in loaded and not loaded & (NUMPY_RANDOM | OPENSSL), loaded
    loaded, out = loaded_by(RUN_MAIN, "synth", "--out", str(tmp_path / "ws"), "--seed", "3")
    assert "seed 3" in out
    assert "hlcast.synthetic" in loaded and not loaded & (NUMPY_RANDOM | OPENSSL), loaded


def test_report_on_an_existing_run_never_loads_the_generator(cli, tmp_path):
    code, out, err = cli(["synth", "--out", str(tmp_path / "ws")])
    assert code == 0, out + err
    config = str(tmp_path / "ws" / "config.yaml")
    code, out, err = cli(["backtest", "--config", config])
    assert code == 0, out + err
    loaded, out = loaded_by(RUN_MAIN, "report", "--config", config)
    assert "evaluation window: all_quarters" in out
    assert "hlcast.synthetic" not in loaded, loaded
    assert not loaded & CODE_GENERATION, loaded


def test_help_and_a_second_report_never_load_yaml(cli, tmp_path):
    loaded, out = loaded_by(RUN_MAIN, "--help")
    assert "usage: hlcast" in out
    assert "hlcast.cli" in loaded and not loaded & YAML, loaded
    code, out, err = cli(["synth", "--out", str(tmp_path / "ws")])
    assert code == 0, out + err
    config = str(tmp_path / "ws" / "config.yaml")
    code, out, err = cli(["backtest", "--config", config])
    assert code == 0, out + err
    for _ in range(2):  # the second report on the run is checked
        loaded, out = loaded_by(RUN_MAIN, "report", "--config", config)
    assert "evaluation window: all_quarters" in out
    assert "hlcast.config" in loaded and not loaded & YAML, loaded


def test_the_pipeline_core_makes_no_quarter(cli, monkeypatch, tmp_path):
    def refuse(self, year, quarter):
        raise AssertionError(f"Quarter({year}, {quarter}) made inside the pipeline core")

    monkeypatch.setattr(Quarter, "__init__", refuse)
    scenario = generate(ScenarioConfig())
    write_frame_csv(scenario.frame, tmp_path / "frame.csv")
    frame = read_frame_csv(tmp_path / "frame.csv")
    write_series_csv(frame.column(HOUSE_PRICE), tmp_path / "price.csv")
    price = read_series_csv(tmp_path / "price.csv", HOUSE_PRICE)
    assert price.start_index == scenario.frame.start_index
    assert np.array_equal(price.array, scenario.frame.column(HOUSE_PRICE).array)
    features = build_features(frame, LtiParams(), hlc_lag=scenario.hlc_lag)
    scan = lag_scan(features.column(HOUSE_PRICE), features.column(HLC), range(9))
    report = run_grid(features, default_specs(scenario.hlc_lag), SplitSpec())
    assert [e.lag for e in scan.entries] == list(range(9))
    assert len(report.variants) == 12
    assert [v.error for v in report.variants] == [None] * 12
    assert len(emit_plot_data(report, tmp_path / "plots")) == 13
    assert report.to_json().count("\n") == 14
    # the commands, and the config they read
    code, out, err = cli(["synth", "--out", str(tmp_path / "ws")])
    assert code == 0, out + err
    config = tmp_path / "ws" / "config.yaml"
    assert load_config(config).split == SplitSpec()
    for stage in ("ingest", "features", "lagscan", "backtest", "report"):
        code, out, err = cli([stage, "--config", str(config)])
        assert code == 0, (stage, out + err)


def test_every_name_the_span_tracer_wraps_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    for name, targets in spans.LAYER_FUNCTIONS.items():
        for module, function in targets:
            found = getattr(importlib.import_module(module), function, None)
            assert callable(found), (name, module, function)
    for name, (module, cls, method) in spans.LAYER_METHODS.items():
        found = vars(getattr(importlib.import_module(module), cls, object)).get(method)
        assert callable(found), (name, module, cls, method)
