"""Batch command line: ingest -> features -> lagscan -> backtest -> report.

Every pipeline command takes ``--config`` and writes to a run directory
named by the hash of the effective configuration (file plus flag
overrides), the bytes of every input file and the hlcast version, so
outputs from different settings or data never collide and reruns rewrite
identical bytes. Each stage computes its inputs from the source CSVs and
writes every artifact it computes; it never reads an upstream artifact
back. Only ``report`` reuses the run's ``report.json``, and runs the
backtest when there is none.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .backtest import (
    HLC,
    HOUSE_PRICE,
    BacktestReport,
    build_features,
    default_specs,
    emit_plot_data,
    run_grid,
)
from .config import DEFAULT_UNITS, RunConfig, SeriesSource, checked_settings, load_config
from .errors import DataError, HlcastError
from .regress import lag_scan
from .synthetic import ScenarioConfig, generate
from .timeseries import (
    Frame,
    align,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
    write_text,
)

MODEL_LABELS = {
    "benchmark": "Benchmark",
    "hlc": "Lending capacity",
    "benchmark_hlc": "Benchmark + lending capacity",
    "benchmark_debt": "Benchmark + debt ratio",
}


def _handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except HlcastError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
def main() -> None:
    """House-price forecasting pipeline built on household lending capacity."""


def _stage(f):
    """Register ``f(cfg, run_dir)`` as a pipeline command.

    The command takes ``--config`` plus the ``--out``, ``--cutoff`` and
    ``--lags`` overrides, loads the configuration, hashes the run directory
    once (the hash reads every input file) and maps an HlcastError to its
    exit code.
    """

    @main.command()
    @click.option(
        "--config",
        "config_path",
        required=True,
        type=click.Path(dir_okay=False),
        help="Run configuration file (YAML).",
    )
    @click.option("--out", default=None, help="Override the output directory.")
    @click.option("--cutoff", default=None, help="Override the split cutoff, e.g. 2008Q2.")
    @click.option("--lags", default=None, help="Override the lag-scan range, e.g. 0..8.")
    @_handle_errors
    @functools.wraps(f)
    def command(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
        # a module-global lookup at call time, so a wrapper installed on
        # cli.load_config (the benchmark's layer tracer) still sees the call
        cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
        f(cfg, cfg.run_dir())

    return command


# -- pipeline stages ---------------------------------------------------------


def _frame(cfg: RunConfig, run_dir: Path) -> Frame:
    series = []
    for name, src in sorted(cfg.data.items()):
        s = read_series_csv(src.path, name=name, unit=src.stored_unit)
        if src.factor != 1.0:
            s = s.scale(src.factor)
        series.append(s)
    frame = align(series)
    run_dir.mkdir(parents=True, exist_ok=True)
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
    specs = [
        s
        for s in default_specs(
            hlc_lag=cfg.hlc_lag, include_debt_ratio="benchmark_debt" in cfg.models
        )
        if s.name in cfg.models
    ]
    report = run_grid(features, specs, cfg.split, forecast_mode=cfg.forecast_mode)
    write_text(run_dir / "report.json", report.to_json())
    emit_plot_data(report, run_dir / "plots")
    return report


def _summary_table(frame: Frame) -> list[str]:
    lines = [f"{'series':<28}{'N':>5}{'mean':>14}{'sd':>12}{'min':>12}"
             f"{'p25':>12}{'p75':>12}{'max':>12}"]
    for name in frame.names():
        arr = frame.column(name).to_array()
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            lines.append(f"{name:<28}{0:>5}")
            continue
        sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        # np.percentile's linear quartiles; np.percentile itself would import
        # numpy.ma (~14 ms) on first use
        p25, p75 = np.interp([0.25 * (arr.size - 1), 0.75 * (arr.size - 1)],
                             np.arange(arr.size), np.sort(arr))
        lines.append(
            f"{name:<28}{arr.size:>5}{np.mean(arr):>14,.3f}{sd:>12,.3f}"
            f"{arr.min():>12,.3f}{p25:>12,.3f}{p75:>12,.3f}{arr.max():>12,.3f}"
        )
    return lines


# -- commands ----------------------------------------------------------------


@main.command()
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", default=0, type=int, help="Generator seed.")
@click.option("--quarters", default=92, type=int, help="Number of quarters to generate.")
@click.option("--noise", default=0.01, type=float, help="Price noise scale (fraction).")
@_handle_errors
def synth(out: str, seed: int, quarters: int, noise: float) -> None:
    """Generate a synthetic dataset plus a ready-to-run config file."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        data = generate(ScenarioConfig(seed=seed, n_quarters=quarters, noise_scale=noise))
    except ValueError as exc:
        raise DataError(str(exc)) from None
    sources = {}
    for name in data.frame.names():
        write_series_csv(data.frame.column(name), out_dir / f"{name}.csv")
        # paths relative to the config file keep the workspace relocatable
        sources[name] = SeriesSource(path=Path(f"{name}.csv"), unit=DEFAULT_UNITS.get(name, ""))
    write_text(out_dir / "truth.json", json.dumps(data.truth(), indent=2, sort_keys=True) + "\n")
    settings = checked_settings({"features": {"hlc_lag": data.hlc_lag}})
    RunConfig(sources, settings).save(out_dir / "config.yaml")
    click.echo(
        f"wrote {len(sources)} series ({quarters} quarters, seed {seed}) and "
        f"config.yaml under {out_dir}"
    )


@_stage
def ingest(cfg: RunConfig, run_dir: Path) -> None:
    """Read per-series CSVs, normalize units, write the aligned frame."""
    frame = _frame(cfg, run_dir)
    click.echo(f"frame: {len(frame)} quarters ({frame.start}..{frame.end}), "
               f"{len(frame.names())} columns -> {run_dir / 'frame.csv'}")
    for line in _summary_table(frame):
        click.echo(line)


@_stage
def features(cfg: RunConfig, run_dir: Path) -> None:
    """Derive the model-ready feature frame (smoothing, capacity, lags)."""
    frame = _features(cfg, run_dir)
    span = frame.complete_range()
    click.echo(f"features: {', '.join(frame.names())}")
    click.echo(f"rows {frame.start}..{frame.end} -> {run_dir / 'features.csv'}")
    if span:
        click.echo(f"complete sample: {span[0]}..{span[1]}")


@_stage
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
    lines = ["lag,r_squared,n_obs"]
    click.echo(f"{'lag':>4}{'R^2':>10}{'n':>6}")
    for e in result.entries:
        r2 = "" if e.r_squared is None else f"{e.r_squared:.6f}"
        click.echo(f"{e.lag:>4}{r2:>10}{e.n_obs:>6}")
        lines.append(f"{e.lag},{r2},{e.n_obs}")
    click.echo(f"best lag: {result.best_lag}")
    write_text(run_dir / "lag_scan.csv", "\n".join(lines) + "\n")


@_stage
def backtest(cfg: RunConfig, run_dir: Path) -> None:
    """Fit all model variants on full and truncated samples and score them."""
    report = _backtest(cfg, run_dir)
    ok = sum(1 for v in report.variants if v.error is None)
    click.echo(
        f"backtest: {ok}/{len(report.variants)} variants fitted "
        f"(cutoff {cfg.split.cutoff}) -> {run_dir / 'report.json'}"
    )
    for v in report.variants:
        if v.error:
            click.echo(f"  {v.name}/{v.approach}/{v.regime}: FAILED: {v.error}")


@_stage
def report(cfg: RunConfig, run_dir: Path) -> None:
    """Render the per-model RMSE/MAE tables from the saved report."""
    path = run_dir / "report.json"
    if not path.is_file():
        _backtest(cfg, run_dir)
    try:
        lines = _report_tables(json.loads(path.read_text(encoding="utf-8")), cfg)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path} is not a readable hlcast report: {exc!r}") from None
    click.echo("\n".join(lines))


def _report_tables(doc: dict, cfg: RunConfig) -> list[str]:
    window = "metrics_all" if cfg.split.evaluation_window == "all_quarters" else "metrics_holdout"
    by_key = {(v["name"], v["approach"], v["regime"]): v for v in doc["variants"]}
    cutoff_label = doc["cutoff"]
    lines = []
    for model in cfg.models:
        lines += [
            "",
            f"{MODEL_LABELS.get(model, model)} model",
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
                cells = "".join(
                    f"{'n/a':>14}" if x is None else f"{x / 1000:>14,.3f}" for x in values
                )
                lines.append(f"  {approach.upper():<6}{label:<22}{cells}")
    return lines + [
        "",
        f"evaluation window: {cfg.split.evaluation_window}; metrics in thousands of euros",
    ]


if __name__ == "__main__":
    main()
