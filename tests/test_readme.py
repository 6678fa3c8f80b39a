"""The README's library example runs against the current API, and its
configuration block shows the defaults."""

import re
from pathlib import Path

import yaml

from hlcast.config import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_block_shows_the_defaults(tmp_path, monkeypatch):
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, "README.md should have one yaml block"
    shown = yaml.safe_load(blocks[0])
    # a config that sets only data, loaded from its own directory
    monkeypatch.chdir(tmp_path)
    names = ("house_price", "income", "interest_rate", "ltv", "interest_only_share")
    for name in names:
        Path(f"{name}.csv").touch()
    Path("config.yaml").write_text(yaml.safe_dump({"data": {n: f"{n}.csv" for n in names}}))
    canonical = load_config("config.yaml").to_canonical()
    del shown["data"], canonical["data"]
    assert shown == canonical
