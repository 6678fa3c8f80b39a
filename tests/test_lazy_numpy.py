"""numpy is imported on first use, not when hlcast is.

Each check runs in a fresh interpreter: this test process imported numpy
before hlcast (``conftest.py``), so numpy is already loaded here.
"""

import os
import subprocess
import sys
from pathlib import Path

import hlcast

ENV = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}

# Runs the hlcast CLI with the given arguments, then prints whether numpy's
# core was imported.
CLI_PROBE = """
import sys
from hlcast.cli import main
try:
    main(sys.argv[1:], prog_name="hlcast")
except SystemExit as exc:
    code = exc.code
print("numpy core imported:", "numpy._core" in sys.modules or "numpy.core" in sys.modules)
sys.exit(code)
"""


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=ENV, capture_output=True, text=True
    )


def probe_cli(*args: str) -> tuple[int, str, str]:
    done = run_python(CLI_PROBE, *args)
    *out, last = done.stdout.splitlines()
    assert last == "numpy core imported: False", done.stdout + done.stderr
    return done.returncode, "\n".join(out), done.stderr


def workspace(cli, tmp_path: Path) -> Path:
    code, out, err = cli(["synth", "--out", str(tmp_path / "ws")])
    assert code == 0, out + err
    return tmp_path / "ws" / "config.yaml"


def test_report_on_an_existing_run_never_imports_numpy(cli, tmp_path):
    config = workspace(cli, tmp_path)
    code, out, err = cli(["backtest", "--config", str(config)])
    assert code == 0, out + err
    code, out, err = probe_cli("report", "--config", str(config))
    assert code == 0, err
    assert "evaluation window: all_quarters" in out


def test_report_without_its_sidecar_never_imports_numpy(cli, tmp_path):
    # the report parses the config's YAML and computes the code identity,
    # numpy's install included, without importing numpy
    config = workspace(cli, tmp_path)
    code, out, err = cli(["backtest", "--config", str(config)])
    assert code == 0, out + err
    sidecar = config.with_name(f".{config.name}.hlcast.json")
    sidecar.unlink()
    code, out, err = probe_cli("report", "--config", str(config))
    assert code == 0, err
    assert "evaluation window: all_quarters" in out
    assert sidecar.is_file()


def test_help_never_imports_numpy():
    code, out, err = probe_cli("--help")
    assert code == 0, err
    assert "report" in out


def test_config_error_never_imports_numpy(cli, tmp_path):
    config = workspace(cli, tmp_path)
    bad = tmp_path / "ws" / "bad.yaml"
    bad.write_text(config.read_text().replace("smoothing_window: 4", "smoothing_window: four"))
    code, _, err = probe_cli("ingest", "--config", str(bad))
    assert code == 2
    assert err.startswith("error: features.smoothing_window"), err


def test_numpy_imported_after_hlcast_is_one_module():
    code = """
import sys
import hlcast.cli
assert "numpy._core" not in sys.modules
import numpy
assert numpy.zeros(3).tolist() == [0.0, 0.0, 0.0]
assert hlcast.backtest.np is numpy is sys.modules["numpy"]
assert type(numpy) is type(sys)
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_numpy_imported_before_hlcast_is_kept():
    code = """
import sys
import numpy
import hlcast.cli
assert hlcast.backtest.np is hlcast.cli.np is numpy is sys.modules["numpy"]
assert type(numpy) is type(sys)
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_missing_numpy_fails_at_import():
    code = """
import sys
sys.modules["numpy"] = None  # what the import system reads as "not installed"
try:
    import hlcast.timeseries
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc
else:
    raise AssertionError("hlcast.timeseries imported without numpy")
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
