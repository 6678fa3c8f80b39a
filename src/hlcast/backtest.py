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
import math
from pathlib import Path
from typing import Sequence

from ._numpy import np
from .errors import DataError, HlcastError, Record, SchemaError, _integer
from .lti import derive_interest_only_share, hlc_series
from .regress import (
    DesignMatrix,
    EcmFit,
    design_matrix,
    ecm_design,
    ecm_fit,
    ecm_forecast,
    ols_fit,
    predict,
)
from .spec import (
    HLC,
    HLC_INCOME_RATIO,
    HLC_LAG,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    MODELS,
    PAPER_MODELS,
    SHARE_INPUTS,
    SMOOTHING_WINDOW,
    LtiParams,
    SplitSpec,
)
from .timeseries import Frame, QuarterlySeries, align, quarter_label, quarter_rows, write_csv

REGIMES = ("full", "truncated")

SCHEMA_VERSION = 1

# The error correction models take lending capacity differenced at lag 4 and
# as a level at lag 5.
ECM_DIFF_LAG = 4
ECM_LEVEL_LAG = 5


class ModelSpec(Record):
    """One row of the experiment grid: a form of ``MODELS``, the fitting
    approach, and the lag at which lending capacity enters the level form."""

    __slots__ = ("name", "approach", "hlc_lag")

    def __init__(self, name: str, approach: str = "ols", hlc_lag: int = HLC_LAG) -> None:
        if name not in MODELS:
            raise ValueError(f"unknown model {name!r} (known: {', '.join(MODELS)})")
        if approach not in ("ols", "ecm"):
            raise ValueError(f"approach must be 'ols' or 'ecm', got {approach!r}")
        hlc_lag = _integer("hlc_lag", hlc_lag)
        if hlc_lag < 0:
            raise ValueError(f"hlc_lag must be >= 0, got {hlc_lag}")
        self._set(name, approach, hlc_lag)

    @property
    def columns(self) -> tuple[str, ...]:
        return MODELS[self.name][1]


def finite_or_none(v: float) -> float | None:
    """``v`` as a float, or ``None`` (JSON null) if it is NaN or infinite."""
    return float(v) if math.isfinite(v) else None


class Metrics(Record):
    __slots__ = ("rmse", "mae", "n_evaluated")

    def __init__(self, rmse: float, mae: float, n_evaluated: int) -> None:
        object.__setattr__(self, "rmse", rmse)
        object.__setattr__(self, "mae", mae)
        object.__setattr__(self, "n_evaluated", n_evaluated)

    def to_dict(self) -> dict:
        return {
            "rmse": finite_or_none(self.rmse),
            "mae": finite_or_none(self.mae),
            "n": self.n_evaluated,
        }


def _metrics_dict(m: Metrics | None) -> dict | None:
    return m.to_dict() if m else None


def _metrics(e: np.ndarray) -> Metrics:
    """RMSE and MAE of the error vector ``e``."""
    n = len(e)
    # np.mean's own sum and division, without its dispatch overhead
    return Metrics(
        rmse=math.sqrt(np.add.reduce(e * e) / n),
        mae=float(np.add.reduce(np.abs(e)) / n),
        n_evaluated=n,
    )


def _errors(
    observed: QuarterlySeries, predicted: QuarterlySeries, first: int | None
) -> tuple[np.ndarray, int]:
    """Errors over the quarters where both series are present, in quarter order.

    Also returns how many of those quarters precede quarter index ``first``:
    the errors from ``first`` on are the suffix after them. An empty overlap
    is an error, not a zero.
    """
    o0, p0 = observed.start_index, predicted.start_index
    lo = max(o0, p0)
    hi = max(lo, min(o0 + len(observed), p0 + len(predicted)))
    v, p = observed.array[lo - o0 : hi - o0], predicted.array[lo - p0 : hi - p0]
    both = ~(np.isnan(v) | np.isnan(p))
    if not both.any():
        raise DataError(
            f"no overlapping observations between {observed.name!r} and {predicted.name!r}"
        )
    before = 0 if first is None else int(np.count_nonzero(both[: max(first - lo, 0)]))
    return p[both] - v[both], before


def evaluate(
    observed: QuarterlySeries,
    predicted: QuarterlySeries,
    first: int | None = None,
) -> Metrics:
    """RMSE and MAE over quarters where both series are present.

    Optionally restricted to quarters from quarter number ``first`` on. An
    empty overlap is an error, not a zero.
    """
    e, before = _errors(observed, predicted, first)
    if before == len(e):
        raise DataError(
            f"no overlapping observations between {observed.name!r} and "
            f"{predicted.name!r} from {quarter_label(first)} on"
        )
    return _metrics(e[before:])


def _score(
    observed: QuarterlySeries, predicted: QuarterlySeries, first: int
) -> tuple[Metrics, Metrics | None]:
    """``evaluate`` over all quarters and from quarter index ``first`` on, in one pass.

    The second is ``None`` where nothing from ``first`` on overlaps.
    """
    e, before = _errors(observed, predicted, first)
    return _metrics(e), (_metrics(e[before:]) if before < len(e) else None)


def default_specs(hlc_lag: int = HLC_LAG, models: Sequence[str] = PAPER_MODELS) -> list[ModelSpec]:
    """The experiment grid of the forms named in ``models``, each as OLS and ECM."""
    return [ModelSpec(name, approach, hlc_lag) for name in models for approach in ("ols", "ecm")]


def build_features(
    raw: Frame,
    params: LtiParams,
    smoothing_window: int = SMOOTHING_WINDOW,
    hlc_lag: int = HLC_LAG,
    interest_only_zero_from: int | None = None,
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
            zeroed = share.to_array()
            zeroed[max(interest_only_zero_from - share.start_index, 0) :] = 0.0
            share = share._with_array(zeroed)
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

    read = (HOUSE_PRICE, INCOME, INTEREST_RATE, LTV, INTEREST_ONLY_SHARE) + SHARE_INPUTS
    passthrough = [raw.column(c) for c in raw.names() if c not in read]
    base = align([raw.column(HOUSE_PRICE), income, rate, ltv, share] + passthrough)
    capacity = hlc_series(base, params)
    with np.errstate(invalid="ignore"):  # an overflowed income: inf / inf = nan
        ratio = capacity.array / base.column(INCOME).array
    ratio = QuarterlySeries._from_array(HLC_INCOME_RATIO, base.start_index, ratio, "dimensionless")
    extra = [
        capacity,
        capacity.lag(hlc_lag).rename(f"{HLC}_lag{hlc_lag}"),
        ratio,
        ratio.lag(hlc_lag).rename(f"{HLC_INCOME_RATIO}_lag{hlc_lag}"),
    ]
    return align(list(base.columns.values()) + extra)


class VariantResult:
    """Outcome of one (model, regime) cell of the experiment grid.

    ``fit`` is the fit the variant scored, ``None`` for a failed variant;
    :meth:`to_dict` writes the variant's report entry from it.
    """

    __slots__ = (
        "name", "approach", "regime", "metrics_all", "metrics_holdout", "fit", "predicted",
        "alt_metrics_all", "alt_metrics_holdout", "error",
    )

    def __init__(self, name: str, approach: str, regime: str, error: str | None = None) -> None:
        self.name, self.approach, self.regime, self.error = name, approach, regime, error
        self.metrics_all = self.metrics_holdout = self.fit = self.predicted = None
        self.alt_metrics_all = self.alt_metrics_holdout = None

    def to_dict(self) -> dict:
        ecm = self.fit if isinstance(self.fit, EcmFit) else None
        ols = ecm.underlying if ecm else self.fit  # the fit statistics live here
        truncated_ecm = ecm is not None and self.regime == "truncated"
        return {
            "name": self.name,
            "approach": self.approach,
            "regime": self.regime,
            "metrics_all": _metrics_dict(self.metrics_all),
            "metrics_holdout": _metrics_dict(self.metrics_holdout),
            "coefficients": {
                name: {"estimate": finite_or_none(est), "stderr": finite_or_none(ols.stderrs[name])}
                for name, est in ols.coefficients.items()
            }
            if ols
            else None,
            "stats": {
                "r2": finite_or_none(ols.r_squared),
                "adj_r2": finite_or_none(ols.adj_r_squared),
                "resid_se": finite_or_none(ols.residual_stderr),
                "f_stat": finite_or_none(ols.f_statistic),
                "n": len(ols.design.rows),
            }
            if ols
            else None,
            "gamma": finite_or_none(ecm.gamma) if ecm else None,
            "long_run_alphas": {k: finite_or_none(v) for k, v in ecm.long_run_alphas.items()}
            if ecm
            else None,
            "train": {
                "n": len(ols.design.rows),
                "start": quarter_label(ols.design.rows[0]),
                "end": quarter_label(ols.design.rows[-1]),
            }
            if ols
            else {"n": 0, "start": None, "end": None},
            "forecast_mode": "dynamic" if truncated_ecm else None,
            "alt_forecast": {
                "mode": "static",
                "metrics_all": _metrics_dict(self.alt_metrics_all),
                "metrics_holdout": _metrics_dict(self.alt_metrics_holdout),
            }
            if truncated_ecm
            else None,
            "error": self.error,
        }


class BacktestReport:
    """All variant results plus the observed response they are scored against."""

    __slots__ = ("variants", "split", "observed")

    def __init__(
        self, variants: list[VariantResult], split: SplitSpec, observed: QuarterlySeries
    ) -> None:
        self.variants, self.split, self.observed = variants, split, observed

    def variant(self, name: str, approach: str, regime: str) -> VariantResult:
        for v in self.variants:
            if (v.name, v.approach, v.regime) == (name, approach, regime):
                return v
        raise KeyError(f"no variant {name}/{approach}/{regime}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cutoff": quarter_label(self.split.cutoff),
            "evaluation_window": self.split.evaluation_window,
            "forecast_mode": "dynamic",
            "variants": [v.to_dict() for v in self.variants],
        }

    def to_json(self) -> str:
        """The report as JSON: the header fields, then one variant per line."""
        doc = self.to_dict()
        variants = ",\n".join(json.dumps(v) for v in doc.pop("variants"))
        return f'{json.dumps(doc)[:-1]}, "variants": [\n{variants}\n]}}\n'


def _spec_design(features: Frame, spec: ModelSpec, response: str) -> tuple[DesignMatrix, Frame]:
    """The spec's design over the whole sample, and the frame its predictions read.

    Lending capacity and its ratio to income lead prices: they enter the
    level form at ``spec.hlc_lag``, and the ECM differenced at
    ``ECM_DIFF_LAG`` and as a level at ``ECM_LEVEL_LAG``. Every other column
    enters unlagged, and in the ECM as a level at lag 1.
    """
    leads = [(c, c in (HLC, HLC_INCOME_RATIO)) for c in spec.columns]
    if spec.approach == "ols":
        regressors = [(c, spec.hlc_lag if lead else 0) for c, lead in leads]
        return design_matrix(features, response, regressors), features
    # only the response and the variant's columns, with their first
    # differences: a passthrough feature column may already be named d_<column>
    base = [features.column(c) for c in (response, *spec.columns)]
    frame = align(base + [s.diff().rename(f"d_{s.name}") for s in base])
    design = ecm_design(
        frame,
        response,
        [(f"d_{c}", ECM_DIFF_LAG if lead else 0) for c, lead in leads],
        [(c, ECM_LEVEL_LAG if lead else 1) for c, lead in leads],
    )
    return design, frame


def _run_variant(
    spec: ModelSpec,
    design: DesignMatrix,
    frame: Frame,
    observed: QuarterlySeries,
    first: int,
    regime: str,
) -> VariantResult:
    result = VariantResult(name=spec.name, approach=spec.approach, regime=regime)

    if spec.approach == "ols":
        result.fit = ols_fit(design)
        result.predicted = predict(result.fit, frame)
    else:
        ecm = result.fit = ecm_fit(design)
        # the full fit's path is one-step fitted everywhere; a truncated fit's
        # runs on its own levels from the cutoff, and its one-step path is
        # scored as the alternative
        result.predicted = ecm_forecast(ecm, frame, None if regime == "full" else first - 1)
        if regime == "truncated":
            alt = ecm_forecast(ecm, frame)
            result.alt_metrics_all, result.alt_metrics_holdout = _score(observed, alt, first)

    # metrics_holdout is None for a cutoff at the sample edge: no holdout
    result.metrics_all, result.metrics_holdout = _score(observed, result.predicted, first)
    return result


def run_grid(
    features: Frame,
    specs: Sequence[ModelSpec],
    split: SplitSpec = SplitSpec(),
) -> BacktestReport:
    """Fit every spec under both regimes and score the predictions.

    A truncated ECM scores its dynamic forecast from the cutoff, which reads
    no observed price after it, and its static one-step path as
    ``alt_metrics_all`` and ``alt_metrics_holdout``. Variants are evaluated
    in a deterministic order (spec name, approach, regime) so the serialized
    report is byte-stable. A failure inside one variant is captured on its
    result and does not abort the others.
    """
    features.require(HOUSE_PRICE)
    observed = features.column(HOUSE_PRICE)
    cutoff, i0 = split.cutoff, observed.start_index
    if not i0 <= cutoff < i0 + len(observed) or np.isnan(observed.array[cutoff - i0]):
        # The split, and the dynamic path that starts from it, need an
        # observed price at the cutoff.
        raise DataError(
            f"cutoff {quarter_label(cutoff)} has no observed {HOUSE_PRICE!r} value"
        )
    seen = set()
    for spec in specs:
        key = (spec.name, spec.approach)
        if key in seen:
            raise SchemaError(f"duplicate model spec {spec.name!r} ({spec.approach})")
        seen.add(key)
        features.require(*spec.columns)

    variants: list[VariantResult] = []
    # a path whose squared errors overflow scores as infinite, which
    # Metrics.to_dict writes as null
    with np.errstate(over="ignore"):
        for spec in sorted(specs, key=lambda s: (s.name, s.approach)):
            design, frame = _spec_design(features, spec, HOUSE_PRICE)
            for regime in REGIMES:
                # one design per spec: the truncated regime fits its row prefix
                d = design if regime == "full" else design.until(cutoff)
                try:
                    variants.append(_run_variant(spec, d, frame, observed, cutoff + 1, regime))
                except HlcastError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    variants.append(VariantResult(spec.name, spec.approach, regime, error=error))
    return BacktestReport(variants=variants, split=split, observed=observed)


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
    observed = report.observed.rename("observed")
    for v in report.variants:
        path = out_dir / f"{v.name}_{v.approach}_{v.regime}.csv"
        rows = []
        if v.predicted is not None:
            merged = align([observed, v.predicted.rename("predicted")])
            rows = (row + [v.regime] for row in quarter_rows(merged))
        write_csv(path, ["quarter", "observed", "fitted_or_forecast", "regime"], rows)
        written.append(path)

    def cells(m: Metrics | None) -> list:
        # report.json's values: a non-finite metric (null) is an empty cell
        return list(m.to_dict().values()) if m else ["", "", ""]

    summary = out_dir / "summary.csv"
    header = ["model", "approach", "regime", "rmse_all_eur", "mae_all_eur", "n_all",
              "rmse_holdout_eur", "mae_holdout_eur", "n_holdout", "error"]
    rows = (
        [v.name, v.approach, v.regime, *cells(v.metrics_all), *cells(v.metrics_holdout), v.error]
        for v in report.variants
    )
    write_csv(summary, header, rows)
    return written + [summary]
