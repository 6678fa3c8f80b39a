"""CLI workload (cli92): ``hlcast`` stage subprocesses, one at a time.

Set-up runs ``hlcast synth`` once per input seed. Each pass then copies one
synthesized workspace to a fresh directory and runs a cold sequence
(``ingest``, ``features``, ``lagscan``, ``backtest``, ``report``), which
computes and writes every artifact, and a rerun sequence (``report``, which
reads the saved report, then ``backtest`` and ``report`` with another
cutoff). One operation is one stage subprocess.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import common
import spans

INPUTS = 5
COLD = (["ingest"], ["features"], ["lagscan"], ["backtest"], ["report"])
RERUN = (
    ["report"],
    ["backtest", "--cutoff", common.RERUN_CUTOFF],
    ["report", "--cutoff", common.RERUN_CUTOFF],
)
STAGE_TIMEOUT_S = 60.0


def run_stage(cmd: list[str], cwd: Path, log: Path) -> tuple[float, float, int, int]:
    """Run one subprocess; return its start and end time, exit code and peak RSS (KiB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=common.child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss


def setup(work: Path, seeds: list[int]) -> list[float]:
    """Synthesize one workspace per seed; return each set-up's wall time (s)."""
    times = []
    for s in seeds:
        cmd = [sys.executable, "-m", "hlcast.cli", "synth", "--out", f"base-{s}", "--seed", str(s)]
        t0, t1, code, _ = run_stage(cmd, work, work / f"synth-{s}")
        if code != 0:
            raise RuntimeError(f"hlcast synth --seed {s} exited {code}")
        times.append(t1 - t0)
    return times


def report_for(ws: Path, cutoff: str) -> tuple[str, dict]:
    for path in sorted((ws / "runs").glob("*/report.json")):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        if doc["cutoff"] == cutoff:
            return text, doc
    raise FileNotFoundError(f"no report.json with cutoff {cutoff} under {ws / 'runs'}")


def check_stage(argv, ws: Path, log: Path, reference: dict, truth: dict, digests: dict, seed):
    """Problems with a finished stage's outputs, and its failed-variant count."""
    stage = argv[0]
    cutoff = argv[2] if len(argv) > 2 else common.DEFAULT_CUTOFF
    if stage == "lagscan":
        (path,) = (ws / "runs").glob("*/lag_scan.csv")
        best = common.best_lag_from_csv(path.read_text(encoding="utf-8"))
        if best != truth["hlc_lag"]:
            return [f"lagscan picked lag {best}, truth is {truth['hlc_lag']}"], 0
        return [], 0
    if stage not in ("backtest", "report"):
        return [], 0
    text, doc = report_for(ws, cutoff)
    problems = common.check_report(doc, truth, reference[cutoff])
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digests.setdefault((seed, cutoff), digest) != digest:
        problems.append(f"report.json for pool seed {seed}, cutoff {cutoff} differs between passes")
    if stage == "report" and "evaluation window" not in log.with_suffix(".out").read_text():
        problems.append("report printed no tables")
    return problems, sum(1 for v in doc["variants"] if v["error"])


def stage_layers(doc: dict, op: int, t0: float, t1: float) -> dict:
    """Per-layer record of one traced stage, with interpreter start and exit.

    ``cli.start`` runs from spawning the process to the runner's first
    statement; ``cli.exit`` from the runner's last statement to reaping the
    process.
    """
    layers = spans.per_op(doc["spans"], doc["counts"])[op]
    begin, end = doc["process"]
    for name, ms in (("cli.start", (begin - t0) * 1e3), ("cli.exit", (t1 - end) * 1e3)):
        layers["self_ms"][name] = layers["root_ms"][name] = ms
    return layers


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(seed: int, seconds: float, trace: bool) -> dict:
    seeds = common.pool_seeds(seed, INPUTS)
    work = common.WORK / f"cli92-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = setup(work, seeds)
        result = measure(work, seeds, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s, "inputs": seeds, **result}


def measure(work: Path, seeds: list[int], seconds: float, trace: bool) -> dict:
    reference = common.load_reference()["cli92"]
    digests: dict = {}
    ops: list[dict] = []
    passes: list[dict] = []
    peak_kb = 0
    start = time.perf_counter()
    deadline = start + seconds
    # Traced, a run needs a traced and an untraced pass.
    while time.perf_counter() < deadline or (trace and len(passes) < 2):
        p = len(passes)
        # With tracing, each input runs twice in a row, traced and untraced in
        # alternating order.
        seed = seeds[(p // 2 if trace else p) % len(seeds)]
        traced = trace and p % 2 == (p // 2) % 2
        ws = work / f"pass-{p}"
        shutil.copytree(work / f"base-{seed}", ws)
        truth = json.loads((ws / "truth.json").read_text(encoding="utf-8"))
        steps = [("cold", argv) for argv in COLD] + [("rerun", argv) for argv in RERUN]
        for step, (phase, argv) in enumerate(steps):
            i = len(ops)
            log = ws / f"stage-{i}"
            args = [*argv, "--config", "config.yaml"]
            if traced:
                dump = ws / f"spans-{i}.json"
                cmd = [sys.executable, str(common.BENCH_DIR / "cli_runner.py"), str(dump), str(i)]
            else:
                cmd = [sys.executable, "-m", "hlcast.cli"]
            t0, t1, code, rss_kb = run_stage(cmd + args, ws, log)
            peak_kb = max(peak_kb, rss_kb)
            op = {"ms": (t1 - t0) * 1e3, "seq": p, "phase": phase, "step": step,
                  "traced": traced, "key": [seed, step], "stage": argv[0],
                  "variants_failed": None}
            if code != 0:
                err = log.with_suffix(".err").read_text(errors="replace")[-500:]
                op["problems"] = [f"{' '.join(argv)} exited {code}: {err}"]
            else:
                op["problems"], op["variants_failed"] = check_stage(
                    argv, ws, log, reference[str(seed)], truth, digests, seed
                )
                if traced:
                    op["layers"] = stage_layers(spans.load_dump(str(dump)), i, t0, t1)
            ops.append(op)
        passes.append({"key": [seed], "run_dir_bytes": tree_bytes(ws / "runs"),
                       "traced": traced})
        shutil.rmtree(ws)
    return {
        "ops": ops,
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": common.peak_rss_mb(peak_kb),
    }
