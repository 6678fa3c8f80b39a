"""Library workload (paper92): one worker process, one caller.

Usage: ``python perfbench/library.py <workload> <seed> <seconds> <trace> <setup-only>``

The worker sets up (imports hlcast, generates its input frames, runs one
warm-up experiment on a frame of the same size), prints ``READY``, and unless
``setup-only`` is 1 runs experiments in a closed loop for ``seconds``. It
prints one JSON line with a record per experiment, which ``run.py`` turns
into metrics.

Experiments come in pairs on one input, cycling over the inputs: the first
(cold) on a frame object not used before, built again from its seed after
the first round, the second (rerun) on the same object. With ``trace`` 1
one experiment of each pair runs with the layer tracer installed, the first
or the second in turn, so the tracing overhead is measured on the same
inputs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

import common
import spans

INPUTS = 8


def experiment(bt, rg, frame, params) -> tuple[int | None, str]:
    """One operation: features, lag scan, the 12-variant grid, its JSON report.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers apply when installed.
    """
    features = bt.build_features(frame, params)
    scan = rg.lag_scan(features.column(bt.HOUSE_PRICE), features.column(bt.HLC), common.SCAN_LAGS)
    report = bt.run_grid(features, bt.default_specs(), bt.SplitSpec())
    return scan.best_lag, report.to_json()


def check(data, text: str, best_lag, reference: dict, digests: dict, seed: int) -> list[str]:
    truth = data.truth()
    problems = common.check_report(json.loads(text), truth, reference)
    if best_lag != truth["hlc_lag"]:
        problems.append(f"lag_scan picked lag {best_lag}, truth is {truth['hlc_lag']}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digests.setdefault(seed, digest) != digest:
        problems.append(f"to_json for pool seed {seed} differs from its first experiment")
    return problems


def main(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    common.use_checkout_source()
    import hlcast.backtest as bt
    import hlcast.regress as rg

    quarters = common.LIBRARY_QUARTERS[workload]
    seeds = common.pool_seeds(seed, INPUTS)
    inputs = [(s, *common.library_input(s, quarters)) for s in seeds]
    warm_data, warm_frame = common.library_input(seeds[0], quarters)
    experiment(bt, rg, warm_frame, warm_data.params)
    print("READY", flush=True)
    if setup_only:
        return 0

    reference = common.load_reference()["library"][workload]
    tracer = spans.Tracer() if trace else None
    digests: dict = {}
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(ops) < 2:
        i = len(ops)
        k, cold = (i // 2) % len(inputs), i % 2 == 0
        if cold and i >= 2 * len(inputs):
            inputs[k] = (inputs[k][0], *common.library_input(inputs[k][0], quarters))
        pool_seed, data, frame = inputs[k]
        traced = trace and i % 2 == (i // 2) % 2
        if traced:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            best_lag, text = experiment(bt, rg, frame, data.params)
            error = None
        except Exception:  # a failed experiment is counted, and the loop goes on
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        if error is None:
            problems = check(data, text, best_lag, reference[str(pool_seed)], digests, pool_seed)
            variants_failed = sum(1 for v in json.loads(text)["variants"] if v["error"])
        else:
            problems, variants_failed = [error], None
        ops.append({
            "ms": (t1 - t0) * 1e3,
            "seq": i,
            "phase": "cold" if cold else "rerun",
            "traced": traced,
            "step": 0,
            "key": [pool_seed],
            "problems": problems,
            "variants_failed": variants_failed,
        })
    wall = time.perf_counter() - start

    if tracer is not None:
        layers = spans.per_op(tracer.spans, tracer.counts)
        for op in ops:
            if op["traced"]:
                op["layers"] = layers.get(op["seq"])
    print(json.dumps({
        "ops": ops,
        "wall_s": wall,
        "peak_rss_mb": common.peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "inputs": seeds,
    }))
    return 0


if __name__ == "__main__":
    workload, seed, seconds, trace, setup_only = sys.argv[1:]
    sys.exit(main(workload, int(seed), float(seconds), trace == "1", setup_only == "1"))
