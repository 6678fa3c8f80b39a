"""Batch command line: ingest -> features -> lagscan -> backtest -> report.

Every pipeline command takes ``--config`` and derives a run directory from
the hash of the effective configuration (file plus flag overrides), so
outputs from different settings never collide and reruns rewrite identical
bytes. Commands compute missing upstream artifacts on the fly, so any stage
can be invoked directly on a fresh configuration.
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
from .config import DEFAULT_UNITS, RunConfig, SeriesSource, load_config
from .errors import DataError, HlcastError
from .regress import lag_scan
from .synthetic import ScenarioConfig, generate
from .timeseries import (
    Frame,
    align,
    read_frame_csv,
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


def _pipeline_options(f):
    f = click.option("--lags", default=None, help="Override the lag-scan range, e.g. 0..8.")(f)
    f = click.option("--cutoff", default=None, help="Override the split cutoff, e.g. 2008Q2.")(f)
    f = click.option("--out", default=None, help="Override the output directory.")(f)
    f = click.option(
        "--config",
        "config_path",
        required=True,
        type=click.Path(dir_okay=False),
        help="Run configuration file (YAML).",
    )(f)
    return f


@click.group()
def main() -> None:
    """House-price forecasting pipeline built on household lending capacity."""


# -- pipeline stages ---------------------------------------------------------


def _ingest_frame(cfg: RunConfig) -> Frame:
    series = []
    for name, src in sorted(cfg.data.items()):
        s = read_series_csv(src.path, name=name, unit=src.stored_unit)
        if src.factor != 1.0:
            s = s.scale(src.factor, unit=src.stored_unit)
        series.append(s)
    return align(series)


def _run_dir(cfg: RunConfig) -> Path:
    d = cfg.run_dir()
    d.mkdir(parents=True, exist_ok=True)
    return d


def _frame(cfg: RunConfig) -> Frame:
    path = _run_dir(cfg) / "frame.csv"
    if path.is_file():
        return read_frame_csv(path)
    frame = _ingest_frame(cfg)
    write_frame_csv(frame, path)
    return frame


def _features(cfg: RunConfig) -> Frame:
    path = _run_dir(cfg) / "features.csv"
    if path.is_file():
        return read_frame_csv(path)
    features = build_features(
        _frame(cfg),
        cfg.lti,
        smoothing_window=cfg.smoothing_window,
        hlc_lag=cfg.hlc_lag,
        interest_only_zero_from=cfg.interest_only_zero_from,
    )
    write_frame_csv(features, path)
    return features


def _backtest(cfg: RunConfig) -> BacktestReport:
    features = _features(cfg)
    specs = [
        s
        for s in default_specs(
            hlc_lag=cfg.hlc_lag, include_debt_ratio="benchmark_debt" in cfg.models
        )
        if s.name in cfg.models
    ]
    report = run_grid(features, specs, cfg.split, forecast_mode=cfg.forecast_mode)
    run_dir = _run_dir(cfg)
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
    cfg = RunConfig(data=sources, hlc_lag=data.hlc_lag, output_dir=Path("runs"))
    cfg.save(out_dir / "config.yaml")
    click.echo(
        f"wrote {len(sources)} series ({quarters} quarters, seed {seed}) and "
        f"config.yaml under {out_dir}"
    )


@main.command()
@_pipeline_options
@_handle_errors
def ingest(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
    """Read per-series CSVs, normalize units, write the aligned frame."""
    cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
    frame = _ingest_frame(cfg)
    path = _run_dir(cfg) / "frame.csv"
    write_frame_csv(frame, path)
    click.echo(f"frame: {len(frame)} quarters ({frame.start}..{frame.end}), "
               f"{len(frame.names())} columns -> {path}")
    for line in _summary_table(frame):
        click.echo(line)


@main.command()
@_pipeline_options
@_handle_errors
def features(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
    """Derive the model-ready feature frame (smoothing, capacity, lags)."""
    cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
    frame = _features(cfg)
    span = frame.complete_range()
    click.echo(f"features: {', '.join(frame.names())}")
    click.echo(f"rows {frame.start}..{frame.end} -> {_run_dir(cfg) / 'features.csv'}")
    if span:
        click.echo(f"complete sample: {span[0]}..{span[1]}")


@main.command()
@_pipeline_options
@_handle_errors
def lagscan(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
    """Scan R-squared of price on lagged lending capacity."""
    cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
    frame = _features(cfg)
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
    path = _run_dir(cfg) / "lag_scan.csv"
    write_text(path, "\n".join(lines) + "\n")


@main.command()
@_pipeline_options
@_handle_errors
def backtest(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
    """Fit all model variants on full and truncated samples and score them."""
    cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
    report = _backtest(cfg)
    ok = sum(1 for v in report.variants if v.error is None)
    click.echo(
        f"backtest: {ok}/{len(report.variants)} variants fitted "
        f"(cutoff {cfg.split.cutoff}) -> {_run_dir(cfg) / 'report.json'}"
    )
    for v in report.variants:
        if v.error:
            click.echo(f"  {v.name}/{v.approach}/{v.regime}: FAILED: {v.error}")


@main.command()
@_pipeline_options
@_handle_errors
def report(config_path: str, out: str | None, cutoff: str | None, lags: str | None) -> None:
    """Render the per-model RMSE/MAE tables from the saved report."""
    cfg = load_config(config_path, out=out, cutoff=cutoff, lags=lags)
    path = _run_dir(cfg) / "report.json"
    if not path.is_file():
        _backtest(cfg)
    doc = json.loads(path.read_text(encoding="utf-8"))
    window = "metrics_all" if cfg.split.evaluation_window == "all_quarters" else "metrics_holdout"
    by_key = {(v["name"], v["approach"], v["regime"]): v for v in doc["variants"]}
    cutoff_label = doc["cutoff"]
    for model in cfg.models:
        click.echo("")
        click.echo(f"{MODEL_LABELS.get(model, model)} model")
        click.echo(f"  {'fit':<6}{'sample':<22}{'RMSE (k EUR)':>14}{'MAE (k EUR)':>14}")
        for approach in ("ols", "ecm"):
            for regime, label in (("full", "all quarters"), ("truncated", f"up to {cutoff_label}")):
                v = by_key.get((model, approach, regime))
                if v is None:
                    continue
                if v.get("error"):
                    click.echo(f"  {approach.upper():<6}{label:<22}{'failed: ' + v['error']}")
                    continue
                m = v.get(window)
                if m is None:
                    click.echo(f"  {approach.upper():<6}{label:<22}{'n/a':>14}{'n/a':>14}")
                    continue
                click.echo(
                    f"  {approach.upper():<6}{label:<22}"
                    f"{m['rmse'] / 1000:>14,.3f}{m['mae'] / 1000:>14,.3f}"
                )
    click.echo("")
    click.echo(f"evaluation window: {cfg.split.evaluation_window}; metrics in thousands of euros")


if __name__ == "__main__":
    main()
