"""Batch command line: ingest -> features -> lagscan -> backtest -> report.

Every pipeline command takes ``--config`` and writes to a run directory
named by the hash of the effective settings (file plus flag overrides),
each input's unit and bytes and the hlcast version, so outputs from
different settings or data never collide and reruns rewrite identical
bytes. Each stage computes its inputs from the source CSVs and
writes every artifact it computes; it never reads an upstream artifact
back. Only ``report`` reuses the run's ``report.json``, and only when the
run's ``manifest.json`` is the one the running code writes; otherwise it
runs the backtest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

from . import errors
from ._numpy import np
from .backtest import (
    SCHEMA_VERSION,
    BacktestReport,
    build_features,
    default_specs,
    emit_plot_data,
    run_grid,
)
from .config import DEFAULT_UNITS, RunConfig, SeriesSource, checked_settings, load_config, sha256
from .errors import ConfigError, DataError, HlcastError, NumericalError, quote
from .regress import lag_scan
from .spec import HLC, HOUSE_PRICE, MODELS
from .timeseries import (
    Frame,
    align,
    quarter_label,
    read_series_csv,
    write_csv,
    write_frame_csv,
    write_series_csv,
    write_text,
)

def _make_dir(path: Path) -> None:
    """Create the output directory ``path`` and its parents, or raise ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {quote(str(path))}: {exc.strerror}"
        ) from None


# -- pipeline stages ---------------------------------------------------------


def _frame(cfg: RunConfig, run_dir: Path) -> Frame:
    series = []
    for name, src in sorted(cfg.data.items()):
        s = read_series_csv(src.path, name=name)
        if src.factor != 1.0:
            s = s.scale(src.factor)
        series.append(s)
    frame = align(series)
    _make_dir(run_dir)
    write_frame_csv(frame, run_dir / "frame.csv")
    return frame


def _features(cfg: RunConfig, run_dir: Path) -> Frame:
    features = build_features(
        _frame(cfg, run_dir),
        cfg.lti,
        smoothing_window=cfg.smoothing_window,
        hlc_lag=cfg.hlc_lag,
        interest_only_zero_from=cfg.interest_only_zero_from,
    )
    write_frame_csv(features, run_dir / "features.csv")
    return features


def _backtest(cfg: RunConfig, run_dir: Path) -> BacktestReport:
    features = _features(cfg, run_dir)
    specs = default_specs(cfg.hlc_lag, cfg.models)
    report = run_grid(features, specs, cfg.split)
    # no manifest vouches for report.json until this backtest has written it
    # all, so a run that fails part-way is computed again by report
    manifest = run_dir / "manifest.json"
    try:
        manifest.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot remove {manifest}: {exc}") from None
    write_text(run_dir / "report.json", report.to_json())
    emit_plot_data(report, run_dir / "plots")
    write_text(manifest, _manifest())
    return report


def _manifest() -> str:
    """The manifest the running code writes after a backtest.

    It holds the report schema and the sha256 of hlcast's module sources,
    each fed as its file name, a NUL byte and its bytes, in name order.
    """
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    manifest = {"schema_version": SCHEMA_VERSION, "code_sha256": digest.hexdigest()}
    return json.dumps(manifest, indent=2) + "\n"


def _summary_table(frame: Frame) -> list[str]:
    """One line of statistics per column; a statistic that overflows prints n/a."""
    lines = [f"{'series':<28}{'N':>5}{'mean':>14}{'sd':>12}{'min':>12}"
             f"{'p25':>12}{'p75':>12}{'max':>12}"]
    with np.errstate(over="ignore", invalid="ignore"):
        for name in frame.names():
            arr = frame.column(name).to_array()
            arr = arr[~np.isnan(arr)]
            if arr.size == 0:
                lines.append(f"{name:<28}{0:>5}")
                continue
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
            # np.percentile's linear quartiles; np.percentile itself would
            # import numpy.ma (~14 ms) on first use
            p25, p75 = np.interp([0.25 * (arr.size - 1), 0.75 * (arr.size - 1)],
                                 np.arange(arr.size), np.sort(arr))
            stats = (np.mean(arr), sd, arr.min(), p25, p75, arr.max())
            cells = "".join(
                _stat_cell(x, width) for x, width in zip(stats, (14, 12, 12, 12, 12, 12))
            )
            lines.append(f"{name:<28}{arr.size:>5}{cells}")
    return lines


def _stat_cell(x: float | None, width: int) -> str:
    if x is None or not math.isfinite(x):
        return f"{'n/a':>{width}}"
    text = f"{x:,.3f}"
    # text that fills its field would run into the cell before it
    return f"{text:>{width}}" if len(text) < width else f"{x:>{width}.3e}"


def _span(frame: Frame) -> str:
    return "..".join(quarter_label(frame.start_index + k) for k in (0, len(frame) - 1))


def _require_a_fit(variants: list[tuple[str, str | None]]) -> None:
    """Fail when every variant failed; ``variants`` holds (label, error) pairs.

    The error names the failed count and the first failure, and exits 4
    when that failure is numerical, 3 otherwise.
    """
    failed = [(label, error) for label, error in variants if error]
    if not failed or len(failed) < len(variants):
        return
    label, error = failed[0]
    cls = getattr(errors, str(error).partition(":")[0], None)
    numerical = isinstance(cls, type) and issubclass(cls, NumericalError)
    raise (NumericalError if numerical else DataError)(
        f"{len(failed)} of {len(variants)} variants failed; first: {label}: {error}"
    )


# -- commands ----------------------------------------------------------------


def synth(out: str, seed: int, quarters: int, noise: float) -> None:
    """Generate a synthetic dataset plus a ready-to-run config file."""
    # imported here, so that no pipeline stage loads the generator
    from .synthetic import ScenarioConfig, generate

    try:
        data = generate(ScenarioConfig(seed=seed, n_quarters=quarters, noise_scale=noise))
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = Path(out)
    _make_dir(out_dir)
    sources = {}
    for name in data.frame.names():
        write_series_csv(data.frame.column(name), out_dir / f"{name}.csv")
        # paths relative to the config file keep the workspace relocatable
        sources[name] = SeriesSource(path=Path(f"{name}.csv"), unit=DEFAULT_UNITS.get(name, ""))
    write_text(out_dir / "truth.json", json.dumps(data.truth(), indent=2, sort_keys=True) + "\n")
    settings = checked_settings({"features": {"hlc_lag": data.hlc_lag}})
    RunConfig(sources, settings).save(out_dir / "config.yaml")
    print(
        f"wrote {len(sources)} series ({quarters} quarters, seed {seed}) and "
        f"config.yaml under {out_dir}"
    )


def ingest(cfg: RunConfig, run_dir: Path) -> None:
    """Read per-series CSVs, normalize units, write the aligned frame."""
    frame = _frame(cfg, run_dir)
    print(f"frame: {len(frame)} quarters ({_span(frame)}), "
          f"{len(frame.names())} columns -> {run_dir / 'frame.csv'}")
    for line in _summary_table(frame):
        print(line)


def features(cfg: RunConfig, run_dir: Path) -> None:
    """Derive the model-ready feature frame (smoothing, capacity, lags)."""
    frame = _features(cfg, run_dir)
    span = frame.complete_range()
    print(f"features: {', '.join(frame.names())}")
    print(f"rows {_span(frame)} -> {run_dir / 'features.csv'}")
    if span:
        print(f"complete sample: {quarter_label(span[0])}..{quarter_label(span[1])}")


def lagscan(cfg: RunConfig, run_dir: Path) -> None:
    """Scan R-squared of price on lagged lending capacity."""
    frame = _features(cfg, run_dir)
    if cfg.lag_max >= len(frame):
        # no lag at or beyond the sample length can pair any observations
        raise DataError(
            f"lag_scan.max must be below the sample length of {len(frame)} quarters, "
            f"got {cfg.lag_max}"
        )
    result = lag_scan(
        frame.column(HOUSE_PRICE),
        frame.column(HLC),
        range(cfg.lag_min, cfg.lag_max + 1),
    )
    rows = [
        [e.lag, "" if e.r_squared is None else f"{e.r_squared:.6f}", e.n_obs]
        for e in result.entries
    ]
    write_csv(run_dir / "lag_scan.csv", ["lag", "r_squared", "n_obs"], rows)
    print(f"{'lag':>4}{'R^2':>10}{'n':>6}")
    for lag, r2, n in rows:
        print(f"{lag:>4}{r2:>10}{n:>6}")
    if result.best_lag is None:
        raise DataError(f"no lag in {cfg.lag_min}..{cfg.lag_max} has a usable R^2")
    print(f"best lag: {result.best_lag}")


def backtest(cfg: RunConfig, run_dir: Path) -> None:
    """Fit all model variants on full and truncated samples and score them."""
    report = _backtest(cfg, run_dir)
    ok = sum(1 for v in report.variants if v.error is None)
    print(
        f"backtest: {ok}/{len(report.variants)} variants fitted "
        f"(cutoff {quarter_label(cfg.split.cutoff)}) -> {run_dir / 'report.json'}"
    )
    variants = [(f"{v.name}/{v.approach}/{v.regime}", v.error) for v in report.variants]
    for label, error in variants:
        if error:
            print(f"  {label}: FAILED: {error}")
    _require_a_fit(variants)


def report(cfg: RunConfig, run_dir: Path) -> None:
    """Render the per-model RMSE/MAE tables from the saved report."""
    path, manifest = run_dir / "report.json", run_dir / "manifest.json"
    try:
        # a report that other code wrote, or an older hlcast, is computed again
        reusable = path.is_file() and manifest.read_bytes() == _manifest().encode()
    except OSError:
        reusable = False
    if not reusable:
        _backtest(cfg, run_dir)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        lines = _report_tables(doc, cfg)
        variants = [
            (f"{v['name']}/{v['approach']}/{v['regime']}", v.get("error")) for v in doc["variants"]
        ]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path} is not a readable hlcast report: {exc!r}") from None
    print("\n".join(lines))
    _require_a_fit(variants)


def _report_tables(doc: dict, cfg: RunConfig) -> list[str]:
    window = "metrics_all" if cfg.split.evaluation_window == "all_quarters" else "metrics_holdout"
    by_key = {(v["name"], v["approach"], v["regime"]): v for v in doc["variants"]}
    cutoff_label = doc["cutoff"]
    lines = []
    for model in cfg.models:
        lines += [
            "",
            f"{MODELS[model][0]} model",
            f"  {'fit':<6}{'sample':<22}{'RMSE (k EUR)':>14}{'MAE (k EUR)':>14}",
        ]
        for approach in ("ols", "ecm"):
            for regime, label in (("full", "all quarters"), ("truncated", f"up to {cutoff_label}")):
                v = by_key.get((model, approach, regime))
                if v is None:
                    continue
                if v.get("error"):
                    lines.append(f"  {approach.upper():<6}{label:<22}{'failed: ' + v['error']}")
                    continue
                m = v.get(window)
                # a window without metrics, or a null (non-finite) metric
                values = (None, None) if m is None else (m["rmse"], m["mae"])
                cells = "".join(_stat_cell(None if x is None else x / 1000, 14) for x in values)
                lines.append(f"  {approach.upper():<6}{label:<22}{cells}")
    return lines + [
        "",
        f"evaluation window: {cfg.split.evaluation_window}; metrics in thousands of euros",
    ]


STAGES = {stage.__name__: stage for stage in (ingest, features, lagscan, backtest, report)}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning a command raises as one ``warning:`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run one command of ``args`` (default ``sys.argv[1:]``) and exit with its code.

    Every path ends in SystemExit: 0 on success, 1 if stdout's reader closed it,
    2 on a usage error, and an HlcastError's exit code after an ``error:`` line.
    """
    parser = argparse.ArgumentParser(
        prog=prog_name or "hlcast",
        description="House-price forecasting pipeline built on household lending capacity.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    cmd = commands.add_parser("synth", help=synth.__doc__, allow_abbrev=False)
    cmd.add_argument("--out", required=True, help="Directory to write the workspace to.")
    cmd.add_argument("--seed", default=0, type=int, help="Generator seed.")
    cmd.add_argument("--quarters", default=92, type=int, help="Number of quarters to generate.")
    cmd.add_argument("--noise", default=0.01, type=float, help="Price noise scale (fraction).")
    for name, stage in STAGES.items():
        cmd = commands.add_parser(name, help=stage.__doc__, allow_abbrev=False)
        cmd.add_argument("--config", required=True, help="Run configuration file (YAML).")
        cmd.add_argument("--out", help="Override the output directory.")
        cmd.add_argument("--cutoff", help="Override the split cutoff, e.g. 2008Q2.")
        cmd.add_argument("--lags", help="Override the lag-scan range, e.g. 0..8.")
    opts = parser.parse_args(args)
    try:
        try:
            # the warning filters stay as they are: only the display changes
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
                if opts.command == "synth":
                    synth(opts.out, opts.seed, opts.quarters, opts.noise)
                else:
                    # a module-global lookup at call time, so a wrapper installed on
                    # cli.load_config (the benchmark's layer tracer) still sees the call
                    cfg = load_config(opts.config, out=opts.out, cutoff=opts.cutoff, lags=opts.lags)
                    # run_dir() hashes every input file, so compute it once
                    STAGES[opts.command](cfg, cfg.run_dir())
        except HlcastError as exc:
            sys.stdout.flush()  # a merged log keeps the tables before the error
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(exc.exit_code)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
    except BrokenPipeError:
        # Python's signal docs' recipe: the flush at exit writes to devnull, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
