"""hlcast benchmark: one workload per call, or every workload with ``--workload all``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper92 --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced;
``--trace 1`` installs the layer tracer and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import cli92
import common

LIBRARY = ("paper92",)
WORKLOADS = LIBRARY + ("cli92",)
SETUPS = 5
WORKER_TIMEOUT_S = 170.0
IMPORT_PROBES = 3

# Per-layer metrics taken per operation from the traced operations' spans.
CALLS = ("timeseries.align", "lti.hlc_series", "regress.ecm_forecast", "regress.ols_fit",
         "backtest.evaluate")
SELF_MS = ("timeseries.align", "lti.hlc_series", "regress.design_matrix", "regress.predict",
           "regress.ecm_forecast", "regress.ols_fit", "regress.ecm_fit", "regress.lag_scan",
           "backtest.build_features", "backtest.run_grid", "backtest.evaluate",
           "backtest.report_json")
# Inclusive time of the calls the ROADMAP baseline table times.
TOTAL_MS = ("backtest.build_features", "regress.lag_scan", "backtest.run_grid")
FAILED = ("regress.ols_fit",)
COUNTS = ("regress.design_cells", "timeseries.csv_bytes")
# Layers only the CLI exercises; printed for cli92, not in BENCHMARK.json,
# because they would read 0 on paper92.
CLI_ONLY_SELF_MS = ("timeseries.csv_read", "timeseries.csv_write", "backtest.emit_plot_data",
                    "config.load_config")
CLI_STAGES = ("ingest", "features", "lagscan", "backtest", "report")
# Largest share of a traced operation's wall time its outermost spans may
# leave uncovered. What remains is harness glue between the calls.
UNCOVERED_MAX_PCT = 5.0


def library_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Start the worker ``SETUPS`` times; the last one also measures."""
    setup_s = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        cmd = [sys.executable, str(common.BENCH_DIR / "library.py"), workload, str(seed),
               str(seconds), str(int(trace)), "0" if last else "1"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=common.child_env())
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s.append(time.perf_counter() - t0)
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise RuntimeError(f"{workload} worker failed (exit {code})")
    return {"setup_s": setup_s, **json.loads(out.strip().splitlines()[-1])}


def import_times() -> tuple[float, float]:
    """Median ``cli.import_ms`` and ``cli.import_scipy_ms`` from ``-X importtime``."""
    cli_ms, scipy_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hlcast.cli"],
            env=common.child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        roots = import_tree(proc.stderr)
        cli_ms.append(sum(r["cum_us"] for r in roots if r["name"].split(".")[0] == "hlcast") / 1e3)
        scipy_ms.append(subtree_us(roots, "scipy") / 1e3)
    return statistics.median(cli_ms), statistics.median(scipy_ms)


def import_tree(stderr: str) -> list[dict]:
    """Roots of the import tree that ``-X importtime`` prints children-first."""
    stack: list[dict] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = {"name": name.strip(), "cum_us": int(cum), "depth": depth, "children": []}
        while stack and stack[-1]["depth"] > depth:
            node["children"].insert(0, stack.pop())
        stack.append(node)
    return stack


def subtree_us(nodes: list[dict], package: str) -> int:
    """Cumulative import time of the outermost imports of ``package``."""
    total = 0
    for n in nodes:
        if n["name"].split(".")[0] == package:
            total += n["cum_us"]
        else:
            total += subtree_us(n["children"], package)
    return total


def exact_counts(op: dict) -> dict:
    layers = op["layers"]
    counts = {f"{n}.calls": c for n, c in layers["calls"].items()}
    counts.update({f"{n}.failed": c for n, c in layers["failed"].items()})
    counts.update(layers["counts"])
    counts["backtest.variants_failed"] = op["variants_failed"]
    return counts


def check_counts(run: dict) -> list[str]:
    """Every count of a traced operation must repeat exactly on the same input."""
    ledger = common.CountLedger()
    for op in run["ops"]:
        if op.get("layers"):
            op["problems"] += ledger.check(tuple(op["key"]), exact_counts(op))
    passes = common.CountLedger()
    return [p for ps in run.get("passes", [])
            for p in passes.check(tuple(ps["key"]), {"cli.run_dir_bytes": ps["run_dir_bytes"]})]


def end_to_end(workload: str, run: dict) -> tuple[dict, list[str]]:
    """Gated metrics, and the medians, tails, rates and sequences as notes.

    The gated latency is the fastest operation of the run: on a shared host
    the median of a run moves with other tenants' load far more than any
    bound allows, while the fastest operation tracks the program's own cost.
    A sequence's minimum is the sum of its steps' minima (a library sequence
    is one experiment; a CLI sequence is several stages), because the
    fastest whole multi-second sequence is itself at the mercy of the load.
    """
    ops = run["ops"]
    ms = common.summary([op["ms"] for op in ops])
    sequences: dict = {}
    fastest: dict = {}
    for op in ops:
        seq, step = (op["seq"], op["phase"]), (op["phase"], op["step"])
        sequences[seq] = sequences.get(seq, 0.0) + op["ms"]
        fastest[step] = min(fastest.get(step, op["ms"]), op["ms"])
    cold = [v / 1e3 for (_, phase), v in sequences.items() if phase == "cold"]
    rerun = [v / 1e3 for (_, phase), v in sequences.items() if phase == "rerun"]
    cold_min = sum(v for (phase, _), v in fastest.items() if phase == "cold")
    rerun_min = sum(v for (phase, _), v in fastest.items() if phase == "rerun")
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "op_ms.min": min(op["ms"] for op in ops),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    op, seq_cold = ("stage", "pipeline_cold_s") if workload == "cli92" else ("experiment", "cold_s")
    rate = "stages_per_s" if workload == "cli92" else "experiments_per_s"
    notes = [
        f"{op}_ms.p50 = {ms['p50']:.3f} ms (n={ms['n']})",
        f"{op}_ms.tail = {ms['tail']:.3f} ms (p{ms['tail_pct']:.1f}, n={ms['n']})",
        f"{rate} = {len(ops) / run['wall_s']:.4f} 1/s (n={ms['n']} in {run['wall_s']:.2f} s)",
        f"{seq_cold}.p50 = {statistics.median(cold):.4f} s (n={len(cold)}), "
        f"{seq_cold}.min = {cold_min / 1e3:.4f} s",
        f"rerun_s.p50 = {statistics.median(rerun):.4f} s (n={len(rerun)}), "
        f"rerun_s.min = {rerun_min / 1e3:.4f} s",
        f"setup_s: median of n={len(run['setup_s'])}",
    ]
    return metrics, notes


def per_layer(workload: str, run: dict) -> tuple[dict, list[str], list[str]]:
    traced = [op for op in run["ops"] if op.get("layers")]
    untraced = [op["ms"] for op in run["ops"] if not op["traced"]]
    if not traced or not untraced:
        raise RuntimeError("the traced run needs traced and untraced operations that succeeded")

    def mean(get) -> float:
        return sum(get(op) for op in traced) / len(traced)

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = mean(lambda op: op["layers"]["calls"].get(name, 0))
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = mean(lambda op: op["layers"]["self_ms"].get(name, 0.0))
    for name in TOTAL_MS:
        metrics[f"{name}.total_ms"] = mean(lambda op: op["layers"]["total_ms"].get(name, 0.0))
    for name in FAILED:
        metrics[f"{name}.failed"] = mean(lambda op: op["layers"]["failed"].get(name, 0))
    for name in COUNTS:
        metrics[name] = mean(lambda op: op["layers"]["counts"].get(name, 0))
    metrics["backtest.variants_failed"] = mean(lambda op: op["variants_failed"])
    metrics["cli.import_ms"], metrics["cli.import_scipy_ms"] = import_times()
    dir_bytes = [p["run_dir_bytes"] for p in run.get("passes", []) if p["traced"]]
    metrics["cli.run_dir_bytes"] = statistics.median_low(dir_bytes) if dir_bytes else 0
    traced_ms = [op["ms"] for op in traced]
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced)
    uncovered = sum(traced_ms) - sum(sum(op["layers"]["root_ms"].values()) for op in traced)
    metrics["trace.uncovered_pct"] = 100.0 * uncovered / sum(traced_ms)

    notes = [f"traced operations: {len(traced)}, untraced: {len(untraced)}; "
             f"uncovered per operation {uncovered / len(traced):.3f} ms"]
    if workload == "cli92":
        for name in CLI_ONLY_SELF_MS:
            v = mean(lambda op: op["layers"]["self_ms"].get(name, 0.0))
            notes.append(f"{name}.self_ms = {v:.4f} ms")
        for name, what in (("cli.start", "spawn to first statement"),
                           ("cli.exit", "last statement to reaped")):
            v = mean(lambda op: op["layers"]["self_ms"][name])
            notes.append(f"{name}_ms = {v:.3f} ms ({what})")
        for stage in CLI_STAGES:
            run_ms = [op["layers"]["root_ms"][f"cli.{stage}"] for op in traced
                      if op["stage"] == stage]
            notes.append(f"cli.{stage}.run_ms = {statistics.median(run_ms):.3f} ms "
                         f"(median of {len(run_ms)})")
    problems = []
    if metrics["trace.uncovered_pct"] > UNCOVERED_MAX_PCT:
        problems.append(f"spans leave {metrics['trace.uncovered_pct']:.2f}% of traced wall time "
                        f"uncovered (limit {UNCOVERED_MAX_PCT}%): a wrapper is missing")
    return metrics, notes, problems


def environment(seed: int, inputs: list[int]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (common.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "hlcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(common.THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "input_seeds": inputs,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload in LIBRARY:
        run = library_run(workload, seed, seconds, trace)
    else:
        run = cli92.run(seed, seconds, trace)
    problems = check_counts(run)
    if trace:
        metrics, notes, trace_problems = per_layer(workload, run)
        problems += trace_problems
    else:
        metrics, notes = end_to_end(workload, run)
    failed = [op for op in run["ops"] if op["problems"]]
    for op in failed[:5]:
        problems.append(f"operation {op['seq']} on input {op['key']}: {op['problems'][0]}")
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    return {
        "workload": workload,
        "environment": environment(seed, run["inputs"]),
        "notes": notes + [f"error_rate = {len(failed)}/{len(run['ops'])}"],
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(run["ops"]),
            "failed": len(failed),
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        },
    }


def print_human(out: dict) -> None:
    print(f"== {out['workload']}")
    print("environment " + json.dumps(out["environment"], sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for note in out["notes"]:
        print(f"  {note}")
    for problem in out["problems"]:
        print(f"  PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        common.use_checkout_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = benchmark(name, args.seed, args.seconds, bool(args.trace))
        print_human(out)
        results[name] = out["result"]
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
