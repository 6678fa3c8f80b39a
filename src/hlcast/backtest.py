"""Comparative forecasting experiment: fit, forecast, score.

Builds the model-ready feature frame, fits every model variant on the full
sample and on the sample truncated at the crisis cutoff, produces fitted or
forecast price levels over the whole range, and scores them with RMSE and
MAE under two evaluation windows (all quarters, and the post-cutoff holdout
only). A failed variant is recorded in the report without aborting the rest
of the grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, HlcastError, SchemaError
from .lti import LtiParams, derive_interest_only_share, hlc_series
from .regress import EcmFit, FitResult, design_matrix, ecm_fit, ecm_forecast, ols_fit, predict
from .timeseries import Frame, Quarter, QuarterlySeries, align, format_value, write_text

# Canonical column names for the feature frame.
HOUSE_PRICE = "house_price"
INCOME = "income"
INTEREST_RATE = "interest_rate"
LTV = "ltv"
INTEREST_ONLY_SHARE = "interest_only_share"
HLC = "hlc"
HLC_INCOME_RATIO = "hlc_income_ratio"
DEBT_TO_GDP = "debt_to_gdp"

# Inputs from which the interest-only share can be derived when it is not
# observed directly.
SHARE_INPUTS = ("interest_only_stock_share", "transactions", "households")

REGIMES = ("full", "truncated")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Regressor:
    """One right-hand-side variable of a model variant.

    ``lag`` applies in the level (OLS) form. In the error correction form
    the variable enters twice: differenced at ``ecm_diff_lag`` and as a
    level at ``ecm_level_lag``.
    """

    column: str
    lag: int = 0
    ecm_diff_lag: int = 0
    ecm_level_lag: int = 1


@dataclass(frozen=True)
class ModelSpec:
    """A named model variant: regressor set plus fitting approach."""

    name: str
    regressors: tuple[Regressor, ...]
    approach: str = "ols"

    def __post_init__(self) -> None:
        if self.approach not in ("ols", "ecm"):
            raise ValueError(f"approach must be 'ols' or 'ecm', got {self.approach!r}")
        if not self.regressors:
            raise ValueError(f"model {self.name!r} has no regressors")


@dataclass(frozen=True)
class SplitSpec:
    """Out-of-sample split: truncated fits use quarters up to ``cutoff``."""

    cutoff: Quarter = Quarter(2008, 2)
    evaluation_window: str = "all_quarters"

    def __post_init__(self) -> None:
        if self.evaluation_window not in ("all_quarters", "holdout_only"):
            raise ValueError(
                f"evaluation_window must be 'all_quarters' or 'holdout_only', "
                f"got {self.evaluation_window!r}"
            )


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    n_evaluated: int

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "mae": self.mae, "n": self.n_evaluated}


def evaluate(
    observed: QuarterlySeries,
    predicted: QuarterlySeries,
    first: Quarter | None = None,
    last: Quarter | None = None,
) -> Metrics:
    """RMSE and MAE over quarters where both series are present.

    Optionally restricted to ``[first, last]``. An empty overlap is an
    error, not a zero.
    """
    o0, p0 = observed.start_index, predicted.start_index
    lo = max(o0, p0) if first is None else max(o0, p0, first.index)
    hi = min(o0 + len(observed), p0 + len(predicted))
    hi = max(lo, hi if last is None else min(hi, last.index + 1))
    v, p = observed.array[lo - o0 : hi - o0], predicted.array[lo - p0 : hi - p0]
    both = ~(np.isnan(v) | np.isnan(p))
    if not both.any():
        raise DataError(
            f"no overlapping observations between {observed.name!r} and {predicted.name!r}"
        )
    e = p[both] - v[both]
    return Metrics(
        rmse=float(np.sqrt(np.mean(e**2))),
        mae=float(np.mean(np.abs(e))),
        n_evaluated=len(e),
    )


def default_specs(
    hlc_lag: int = 6,
    ecm_diff_lag: int = 4,
    ecm_level_lag: int = 5,
    include_debt_ratio: bool = False,
) -> list[ModelSpec]:
    """The shipped experiment grid: three model forms, each as OLS and ECM.

    The benchmark regresses prices on income, rates and loan-to-value; the
    capacity model is univariate in lagged lending capacity; the combined
    model adds the capacity-to-income ratio to the benchmark. The optional
    debt-ratio variant extends the benchmark with a mortgage debt-to-GDP
    column when the caller's data provides one.
    """
    benchmark = (Regressor(INCOME), Regressor(INTEREST_RATE), Regressor(LTV))
    capacity = (
        Regressor(HLC, lag=hlc_lag, ecm_diff_lag=ecm_diff_lag, ecm_level_lag=ecm_level_lag),
    )
    ratio = (
        Regressor(
            HLC_INCOME_RATIO, lag=hlc_lag, ecm_diff_lag=ecm_diff_lag, ecm_level_lag=ecm_level_lag
        ),
    )
    forms = [
        ("benchmark", benchmark),
        ("hlc", capacity),
        ("benchmark_hlc", benchmark + ratio),
    ]
    if include_debt_ratio:
        forms.append(("benchmark_debt", benchmark + (Regressor(DEBT_TO_GDP),)))
    return [
        ModelSpec(name=name, regressors=regs, approach=approach)
        for name, regs in forms
        for approach in ("ols", "ecm")
    ]


def _zero_from(series: QuarterlySeries, start: Quarter) -> QuarterlySeries:
    out = series.to_array()
    out[max(start.index - series.start_index, 0) :] = 0.0
    return series._with_array(out)


def build_features(
    raw: Frame,
    params: LtiParams,
    smoothing_window: int = 4,
    hlc_lag: int = 6,
    interest_only_zero_from: Quarter | None = None,
) -> Frame:
    """Derive the model-ready frame from ingested raw series.

    Income and interest rates are smoothed with a trailing window (both have
    strong within-year patterns), loan-to-value is forward-filled across its
    yearly reporting gaps, and the interest-only share is taken as given or
    derived from stock data. Lending capacity, its headline lag, and its
    ratio to income are appended. Unknown raw columns pass through.
    """
    raw.require(HOUSE_PRICE, INCOME, INTEREST_RATE, LTV)
    income = raw.column(INCOME).trailing_mean(smoothing_window)
    rate = raw.column(INTEREST_RATE).trailing_mean(smoothing_window)
    ltv = raw.column(LTV).forward_fill()

    if INTEREST_ONLY_SHARE in raw:
        share = raw.column(INTEREST_ONLY_SHARE)
        if interest_only_zero_from is not None:
            share = _zero_from(share, interest_only_zero_from)
    elif all(c in raw for c in SHARE_INPUTS):
        share = derive_interest_only_share(
            raw.column(SHARE_INPUTS[0]),
            raw.column(SHARE_INPUTS[1]),
            raw.column(SHARE_INPUTS[2]),
            zero_from=interest_only_zero_from,
        )
    else:
        raise SchemaError(
            f"frame is missing required column(s): {INTEREST_ONLY_SHARE} "
            f"(or its construction inputs {', '.join(SHARE_INPUTS)})"
        )

    base = align(
        [raw.column(HOUSE_PRICE), income, rate, ltv, share]
        + [
            raw.column(c)
            for c in raw.names()
            if c
            not in (HOUSE_PRICE, INCOME, INTEREST_RATE, LTV, INTEREST_ONLY_SHARE)
            + SHARE_INPUTS
        ]
    )
    capacity = hlc_series(base, params)
    ratio = capacity.array / base.column(INCOME).array
    ratio = QuarterlySeries._from_array(HLC_INCOME_RATIO, base.start_index, ratio, "dimensionless")
    extra = [
        capacity,
        capacity.lag(hlc_lag).rename(f"{HLC}_lag{hlc_lag}"),
        ratio,
        ratio.lag(hlc_lag).rename(f"{HLC_INCOME_RATIO}_lag{hlc_lag}"),
    ]
    return align(list(base.columns.values()) + extra)


def _splice(head: QuarterlySeries, tail: QuarterlySeries) -> QuarterlySeries:
    """Concatenate two series where ``tail`` starts right after ``head`` ends."""
    if tail.start_index != head.start_index + len(head):
        raise ValueError(f"cannot splice {head.end} with {tail.start}")
    return head._with_array(np.concatenate([head.array, tail.array]))


@dataclass
class VariantResult:
    """Outcome of one (model, regime) cell of the experiment grid."""

    name: str
    approach: str
    regime: str
    metrics_all: Metrics | None = None
    metrics_holdout: Metrics | None = None
    summary: dict = field(default_factory=dict)
    predicted: QuarterlySeries | None = None
    n_train: int = 0
    train_start: Quarter | None = None
    train_end: Quarter | None = None
    forecast_mode: str | None = None
    alt_forecast: dict | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "approach": self.approach,
            "regime": self.regime,
            "metrics_all": self.metrics_all.to_dict() if self.metrics_all else None,
            "metrics_holdout": self.metrics_holdout.to_dict() if self.metrics_holdout else None,
            "coefficients": self.summary.get("coefficients"),
            "stats": {
                k: self.summary.get(k) for k in ("r2", "adj_r2", "resid_se", "f_stat", "n")
            }
            if self.summary
            else None,
            "gamma": self.summary.get("gamma"),
            "long_run_alphas": self.summary.get("long_run_alphas"),
            "train": {
                "n": self.n_train,
                "start": str(self.train_start) if self.train_start else None,
                "end": str(self.train_end) if self.train_end else None,
            },
            "forecast_mode": self.forecast_mode,
            "alt_forecast": self.alt_forecast,
            "error": self.error,
        }


@dataclass
class BacktestReport:
    """All variant results plus the observed response they are scored against."""

    variants: list[VariantResult]
    split: SplitSpec
    observed: QuarterlySeries
    forecast_mode: str = "dynamic"

    def variant(self, name: str, approach: str, regime: str) -> VariantResult:
        for v in self.variants:
            if (v.name, v.approach, v.regime) == (name, approach, regime):
                return v
        raise KeyError(f"no variant {name}/{approach}/{regime}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cutoff": str(self.split.cutoff),
            "evaluation_window": self.split.evaluation_window,
            "forecast_mode": self.forecast_mode,
            "variants": [v.to_dict() for v in self.variants],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _ecm_term_series(features: Frame, spec: ModelSpec) -> tuple[list, list]:
    short_run, levels = [], []
    for r in spec.regressors:
        base = features.column(r.column)
        short_run.append(
            base.diff().lag(r.ecm_diff_lag).rename(f"d_{r.column}_lag{r.ecm_diff_lag}")
            if r.ecm_diff_lag
            else base.diff().rename(f"d_{r.column}")
        )
        levels.append(base.lag(r.ecm_level_lag).rename(f"{r.column}_lag{r.ecm_level_lag}"))
    return short_run, levels


def _run_variant(
    features: Frame,
    spec: ModelSpec,
    split: SplitSpec,
    regime: str,
    forecast_mode: str,
    response: str,
) -> VariantResult:
    observed = features.column(response)
    result = VariantResult(name=spec.name, approach=spec.approach, regime=regime)
    last_train = split.cutoff if regime == "truncated" else None

    if spec.approach == "ols":
        d = design_matrix(
            features,
            response,
            [(r.column, r.lag) for r in spec.regressors],
            last=last_train,
        )
        fit = ols_fit(d)
        result.summary = fit.to_dict()
        result.predicted = predict(fit, features)
        rows = d.rows
    else:
        short_run, levels = _ecm_term_series(features, spec)
        train_response = observed.window(last=last_train) if last_train is not None else observed
        fit = ecm_fit(train_response, align(short_run), align(levels))
        result.summary = fit.to_dict()
        fitted = fit.underlying.fitted
        rows = fitted.start_index + np.flatnonzero(~np.isnan(fitted.array))
        forecast_frame = align([observed] + short_run + levels)
        first_row = Quarter.from_index(rows[0])
        in_sample = ecm_forecast(fit, forecast_frame, start=first_row, mode="static")
        if regime == "full":
            result.predicted = in_sample
        else:
            oos: dict[str, QuarterlySeries] = {
                mode: ecm_forecast(fit, forecast_frame, start=split.cutoff + 1, mode=mode)
                for mode in ("dynamic", "static")
            }
            head = in_sample.window(last=split.cutoff)
            result.predicted = _splice(head, oos[forecast_mode])
            result.forecast_mode = forecast_mode
            other = "static" if forecast_mode == "dynamic" else "dynamic"
            alt = _splice(head, oos[other])
            try:
                alt_holdout = evaluate(observed, alt, first=split.cutoff + 1).to_dict()
            except DataError:
                alt_holdout = None
            result.alt_forecast = {
                "mode": other,
                "metrics_all": evaluate(observed, alt).to_dict(),
                "metrics_holdout": alt_holdout,
            }

    result.n_train = len(rows)
    result.train_start, result.train_end = Quarter.from_index(rows[0]), Quarter.from_index(rows[-1])
    result.metrics_all = evaluate(observed, result.predicted)
    try:
        result.metrics_holdout = evaluate(observed, result.predicted, first=split.cutoff + 1)
    except DataError:
        result.metrics_holdout = None  # cutoff at the sample edge: no holdout
    return result


def run_grid(
    features: Frame,
    specs: Sequence[ModelSpec],
    split: SplitSpec = SplitSpec(),
    forecast_mode: str = "dynamic",
    response: str = HOUSE_PRICE,
) -> BacktestReport:
    """Fit every spec under both regimes and score the predictions.

    Variants are evaluated in a deterministic order (spec name, approach,
    regime) so the serialized report is byte-stable. A failure inside one
    variant is captured on its result and does not abort the others.
    """
    if forecast_mode not in ("static", "dynamic"):
        raise ValueError(f"forecast_mode must be 'static' or 'dynamic', got {forecast_mode!r}")
    features.require(response)
    if features.column(response).get(split.cutoff) is None:
        # The cutoff must fall inside the observed sample for the split to
        # mean anything.
        raise DataError(f"cutoff {split.cutoff} lies outside the observed {response!r} sample")
    seen = set()
    for spec in specs:
        key = (spec.name, spec.approach)
        if key in seen:
            raise SchemaError(f"duplicate model spec {spec.name!r} ({spec.approach})")
        seen.add(key)
        for r in spec.regressors:
            features.require(r.column)

    variants: list[VariantResult] = []
    for spec in sorted(specs, key=lambda s: (s.name, s.approach)):
        for regime in REGIMES:
            try:
                variants.append(
                    _run_variant(features, spec, split, regime, forecast_mode, response)
                )
            except HlcastError as exc:
                variants.append(
                    VariantResult(
                        name=spec.name,
                        approach=spec.approach,
                        regime=regime,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return BacktestReport(
        variants=variants,
        split=split,
        observed=features.column(response),
        forecast_mode=forecast_mode,
    )


def emit_plot_data(report: BacktestReport, out_dir: str | Path) -> list[Path]:
    """Write plot-ready CSVs: one per variant plus a metrics summary.

    Per-variant files carry ``quarter,observed,fitted_or_forecast,regime``
    rows over the union of both series; the summary mirrors the per-model
    metric tables. All monetary metrics are euros, as the column names say.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create plot directory {out_dir}: {exc}") from exc
    written: list[Path] = []
    observed = report.observed
    for v in report.variants:
        path = out_dir / f"{v.name}_{v.approach}_{v.regime}.csv"
        lines = ["quarter,observed,fitted_or_forecast,regime"]
        if v.predicted is not None:
            merged = align([observed.rename("observed"), v.predicted.rename("predicted")])
            obs, pred = (merged.column(c).array.tolist() for c in ("observed", "predicted"))
            for q, o, p in zip(merged.quarters(), obs, pred):
                lines.append(f"{q},{format_value(o)},{format_value(p)},{v.regime}")
        write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    summary = out_dir / "summary.csv"
    lines = [
        "model,approach,regime,rmse_all_eur,mae_all_eur,n_all,"
        "rmse_holdout_eur,mae_holdout_eur,n_holdout,error"
    ]
    for v in report.variants:
        ma, mh = v.metrics_all, v.metrics_holdout
        lines.append(
            ",".join(
                [
                    v.name,
                    v.approach,
                    v.regime,
                    repr(ma.rmse) if ma else "",
                    repr(ma.mae) if ma else "",
                    str(ma.n_evaluated) if ma else "",
                    repr(mh.rmse) if mh else "",
                    repr(mh.mae) if mh else "",
                    str(mh.n_evaluated) if mh else "",
                    v.error or "",
                ]
            )
        )
    write_text(summary, "\n".join(lines) + "\n")
    written.append(summary)
    return written
