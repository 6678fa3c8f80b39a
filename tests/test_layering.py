"""Each layer loads only the hlcast modules it uses.

``import hlcast`` loads no submodule, the configuration loads none of the
model stack, and a ``report`` on an existing run never loads the synthetic
data generator. Each check runs in a fresh interpreter, since this test
process has already imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import hlcast

ENV = {**os.environ, "PYTHONPATH": str(Path(hlcast.__file__).parents[1])}

# Printed last by every probe: the hlcast submodules loaded so far.
LOADED = '\nprint(*sorted(m for m in sys.modules if m.startswith("hlcast.")))\n'

MODEL_STACK = {"hlcast.backtest", "hlcast.regress", "hlcast.lti", "hlcast.synthetic"}


def loaded_by(code: str, *args: str) -> tuple[set[str], str]:
    """The hlcast submodules that ``code`` loads, and what it printed before them."""
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


def test_config_loads_none_of_the_model_stack():
    loaded, _ = loaded_by("import hlcast.config")
    assert not loaded & MODEL_STACK, loaded


def test_report_on_an_existing_run_never_loads_the_generator(cli, tmp_path):
    code, out, err = cli(["synth", "--out", str(tmp_path / "ws")])
    assert code == 0, out + err
    config = str(tmp_path / "ws" / "config.yaml")
    code, out, err = cli(["backtest", "--config", config])
    assert code == 0, out + err
    report = """
from hlcast.cli import main
try:
    main(sys.argv[1:], prog_name="hlcast")
except SystemExit as exc:
    assert exc.code == 0, exc
"""
    loaded, out = loaded_by(report, "report", "--config", config)
    assert "evaluation window: all_quarters" in out
    assert "hlcast.synthetic" not in loaded, loaded
