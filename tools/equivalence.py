"""Check that two revisions of hlcast compute the same results, byte for byte.

Usage: ``python3 tools/equivalence.py --base REV [--head REV]``

``--base`` (and ``--head``, when given) is checked out with ``git worktree
add`` into a temporary directory, removed afterwards; without ``--head`` the
working tree is the head. Each side runs in its own interpreter on its own
``src``, with BLAS on one thread, and computes:

- library: for pool seeds 0..31 at 92 and 400 quarters, on the generated
  frame and on the benchmark's frame with yearly loan-to-value
  (``perfbench/common.library_input``), the R-squared lag scan over lags
  0..8, and for cutoffs 2008Q2 and 2006Q4, ``run_grid(...).to_json()`` and
  each variant's predicted path (its start quarter and array bytes);
- CLI: ``synth --seed 0`` and ``--seed 3``, then ``ingest``, ``features``,
  ``lagscan``, ``backtest`` and ``report``, then ``backtest`` and ``report``
  with ``--cutoff 2006Q4``: each command's exit code, stdout and stderr, and
  the bytes of every file in the workspace, with ``manifest.json``'s
  ``code_sha256`` and the config sidecar's ``key`` masked (both digest the
  source).

It prints the first difference (for a report, its largest relative float
difference) and exits 1, or prints ``identical`` and exits 0; it exits 2
when a side cannot run. Nothing is compared against stored digests: report
bytes depend on the numpy and BLAS build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's inputs and BLAS settings; common imports hlcast only when called
sys.path.insert(0, str(ROOT / "perfbench"))
import common  # noqa: E402

SEEDS = range(32)
QUARTERS = (92, 400)
CUTOFFS = ("2008Q2", "2006Q4")
SCAN_LAGS = range(9)
CLI_SEEDS = (0, 3)
CLI_STAGES = ("ingest", "features", "lagscan", "backtest", "report")
RERUN_CUTOFF = "2006Q4"

# digests of the source, which differ between any two revisions
MASKS = {
    "manifest.json": re.compile(rb'("code_sha256": ")[0-9a-f]{64}'),
    ".config.yaml.hlcast.json": re.compile(rb'("key": ")[0-9a-f]{64}'),
}


class SideFailed(RuntimeError):
    """One side could not compute its results."""


# -- one side, in its own interpreter -----------------------------------------


def side(src: Path, out: Path) -> None:
    """Compute this side's results with the hlcast under ``src`` and write them to ``out``."""
    sys.path.insert(0, str(src))
    import hlcast

    if Path(hlcast.__file__).resolve().parent != (src / "hlcast").resolve():
        raise SideFailed(f"hlcast imported from {hlcast.__file__}, not from {src}")
    warnings.simplefilter("ignore")
    results = {"library": _library(), "cli": _cli(src)}
    out.write_text(json.dumps(results), encoding="utf-8")


def _library() -> list:
    from hlcast.backtest import HLC, HOUSE_PRICE, SplitSpec, build_features, default_specs, run_grid
    from hlcast.errors import HlcastError
    from hlcast.regress import lag_scan
    from hlcast.synthetic import ScenarioConfig, generate
    from hlcast.timeseries import parse_quarter

    entries = []
    for seed in SEEDS:
        for quarters in QUARTERS:
            generated = generate(ScenarioConfig(seed=seed, n_quarters=quarters))
            yearly = common.library_input(seed, quarters)[1]
            for kind, frame in (("generated", generated.frame), ("yearly_ltv", yearly)):
                where = f"seed {seed}, {quarters} quarters, {kind} frame"
                try:
                    features = build_features(frame, generated.params)
                    scan = lag_scan(
                        features.column(HOUSE_PRICE), features.column(HLC), SCAN_LAGS
                    )
                    scan = [[e.lag, e.r_squared, e.n_obs] for e in scan.entries]
                except (HlcastError, ValueError) as exc:
                    entries.append([where, "error", f"{type(exc).__name__}: {exc}"])
                    continue
                entries.append([f"{where}, lag scan", "scan", scan])
                for cutoff in CUTOFFS:
                    label = f"{where}, cutoff {cutoff}"
                    split = SplitSpec(parse_quarter(cutoff))
                    try:
                        report = run_grid(features, default_specs(), split)
                    except (HlcastError, ValueError) as exc:
                        entries.append([label, "error", f"{type(exc).__name__}: {exc}"])
                        continue
                    paths = [
                        [f"{v.name}/{v.approach}/{v.regime}", v.predicted.start_index,
                         hashlib.sha256(v.predicted.array.tobytes()).hexdigest()]
                        for v in report.variants
                        if v.predicted is not None
                    ]
                    entries.append([label, "report", report.to_json()])
                    entries.append([f"{label}, predicted paths", "paths", paths])
    return entries


def _cli(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = []
    with tempfile.TemporaryDirectory(prefix="hlcast-equivalence-") as tmp:
        work = Path(tmp)
        for seed in CLI_SEEDS:
            ws = f"ws{seed}"
            config = ["--config", f"{ws}/config.yaml"]
            runs = [["synth", "--out", ws, "--seed", str(seed)]]
            runs += [[stage, *config] for stage in CLI_STAGES]
            runs += [[stage, *config, "--cutoff", RERUN_CUTOFF] for stage in ("backtest", "report")]
            for args in runs:
                done = subprocess.run(
                    [sys.executable, "-m", "hlcast.cli", *args],
                    cwd=work, env=env, capture_output=True,
                )
                commands.append(
                    [" ".join(args), done.returncode,
                     done.stdout.decode("latin-1"), done.stderr.decode("latin-1")]
                )
        files = {}
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name in MASKS:
                data = MASKS[path.name].sub(rb"\1<masked>", data)
            files[path.relative_to(work).as_posix()] = data.decode("latin-1")
    return {"commands": commands, "files": files}


# -- comparing the two sides --------------------------------------------------


def largest_float_difference(a, b, where: str = "") -> tuple[float, str]:
    """The largest relative difference between the numbers of two JSON values, and where.

    A difference in structure, a string or a null counts as infinite.
    """
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return (0.0, "") if a == b else (math.inf, f"{where}: {a!r} != {b!r}")
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return 0.0, ""
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if math.isfinite(scale) else math.inf
        return rel, f"{where}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return math.inf, f"{where}: structure differs"
    return max((largest_float_difference(x, y, w) for x, y, w in pairs), default=(0.0, ""),
               key=lambda d: d[0])


def _text_difference(name: str, a: str, b: str) -> str:
    """Where two texts first differ; a report is compared by its numbers."""
    if name.endswith("report.json"):
        try:
            rel, where = largest_float_difference(json.loads(a), json.loads(b))
        except ValueError:
            pass
        else:
            if where:
                return f"largest relative difference {rel:.3g} at {where.lstrip('.')}"
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {i}: {x[:200]!r} != {y[:200]!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def first_difference(base: dict, head: dict) -> str | None:
    """The first way the head's results differ from the base's, or None."""
    lib_a, lib_b = base["library"], head["library"]
    for (label, kind, a), (label_b, kind_b, b) in zip(lib_a, lib_b):
        if (label, kind) != (label_b, kind_b):
            return f"library: {label} ({kind}) != {label_b} ({kind_b})"
        if a == b:
            continue
        if kind == "report":
            return f"library: {label}: report.json {_text_difference('report.json', a, b)}"
        if kind == "paths":
            name = next((x[0] for x, y in zip(a, b) if x != y), "the variant list")
            return f"library: {label}: {name} differs"
        rel, where = largest_float_difference(a, b)
        return f"library: {label}: {kind} differ, largest relative difference {rel:.3g} at {where}"
    if len(lib_a) != len(lib_b):
        return f"library: {len(lib_a)} results != {len(lib_b)}"
    for (args, *a), (args_b, *b) in zip(base["cli"]["commands"], head["cli"]["commands"]):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                detail = f"{x} != {y}" if what == "exit code" else _text_difference(what, x, y)
                return f"cli: hlcast {args}: {what} differs: {detail}"
    files_a, files_b = base["cli"]["files"], head["cli"]["files"]
    if list(files_a) != list(files_b):
        only = sorted(set(files_a) ^ set(files_b))
        return f"cli: workspace files differ: {', '.join(only) or 'order'}"
    for name, a in files_a.items():
        if a != files_b[name]:
            return f"cli: {name} differs: {_text_difference(name, a, files_b[name])}"
    return None


# -- checkouts ----------------------------------------------------------------


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SideFailed(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def _run_side(src: Path, out: Path) -> dict:
    if not (src / "hlcast" / "__init__.py").is_file():
        raise SideFailed(f"no hlcast package under {src}")
    env = dict(os.environ, **common.THREAD_ENV)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, __file__, "--side", str(src), str(out)],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SideFailed(f"the side on {src} failed:\n{done.stderr.strip()}")
    return json.loads(out.read_text(encoding="utf-8"))


def compare(base: str, head: str | None) -> str | None:
    """Run both sides and return their first difference, or None."""
    tmp = Path(tempfile.mkdtemp(prefix="hlcast-equivalence-"))
    trees = []
    try:
        results = []
        for name, rev in (("base", base), ("head", head)):
            if rev is None:
                tree = ROOT
            else:
                tree = tmp / name
                commit = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
                _git("worktree", "add", "--detach", "--quiet", str(tree), commit)
                trees.append(tree)
            started = time.perf_counter()
            results.append(_run_side(tree / "src", tmp / f"{name}.json"))
            label = rev or "working tree"
            print(f"{name} ({label}): computed in {time.perf_counter() - started:.1f} s")
        return first_difference(*results)
    finally:
        for tree in trees:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that two revisions of hlcast compute the same results."
    )
    parser.add_argument("--base", help="Revision to compare against.")
    parser.add_argument("--head", help="Revision to check (default: the working tree).")
    parser.add_argument("--side", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.side:
        side(Path(opts.side[0]), Path(opts.side[1]))
        return 0
    if opts.base is None:
        parser.error("--base is required")
    try:
        difference = compare(opts.base, opts.head)
    except SideFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if difference:
        print(f"differ: {difference}")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
