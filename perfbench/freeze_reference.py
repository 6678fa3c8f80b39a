"""Freeze the reference RMSE and MAE of every benchmark input into reference.json.

Usage, from the root of the repository::

    python3 perfbench/freeze_reference.py

The benchmark checks every run against these values, so they record what
the program computed when the benchmark was defined. Regenerating them after
a change to ``src/`` would hide any change in results; do so only when a
change to the results is intended and stated.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import common
import library


def cli_reference(seed: int) -> dict:
    work = common.WORK / f"freeze-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli = [sys.executable, "-m", "hlcast.cli"]
        env = common.child_env()
        subprocess.run(cli + ["synth", "--out", str(work), "--seed", str(seed)], env=env,
                       check=True, capture_output=True)
        out = {}
        for cutoff in (common.DEFAULT_CUTOFF, common.RERUN_CUTOFF):
            subprocess.run(cli + ["backtest", "--config", str(work / "config.yaml"),
                                  "--cutoff", cutoff], env=env, check=True, capture_output=True)
            for path in (work / "runs").glob("*/report.json"):
                doc = json.loads(path.read_text(encoding="utf-8"))
                if doc["cutoff"] == cutoff:
                    out[cutoff] = common.error_metrics(doc)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def round_floats(node):
    if isinstance(node, float):
        return float(f"{node:.12g}")
    if isinstance(node, dict):
        return {k: round_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [round_floats(v) for v in node]
    return node


def main() -> int:
    common.use_checkout_source()
    import hlcast.backtest as bt
    import hlcast.regress as rg

    ref: dict = {"library": {}, "cli92": {}}
    for workload, quarters in common.LIBRARY_QUARTERS.items():
        table = ref["library"][workload] = {}
        for seed in range(common.POOL_SIZE):
            data, frame = common.library_input(seed, quarters)
            _, text = library.experiment(bt, rg, frame, data.params)
            table[str(seed)] = common.error_metrics(json.loads(text))
    for seed in range(common.POOL_SIZE):
        ref["cli92"][str(seed)] = cli_reference(seed)
    # Twelve significant digits: ample for the 1e-9 tolerance, and a smaller file.
    text = json.dumps(round_floats(ref), indent=1, sort_keys=True)
    # One variant per line.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text)
    common.REFERENCE.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
