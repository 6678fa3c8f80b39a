"""Linear-regression core.

OLS with classical inference statistics, solved through an orthogonal
decomposition with column-norm equilibration (the design matrices here mix
euros with fractions, so raw normal equations lose digits). The error
correction model is fitted in its unrestricted linear parametrization and
the long-run coefficients recovered afterwards. Also: static/dynamic
forecasting for fitted ECMs and the R-squared lag scan used to pick the
lending-capacity lead time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    InsufficientDataError,
    NumericalError,
    SchemaError,
    SingularDesignError,
)
from .timeseries import Frame, Quarter, QuarterlySeries, align, shift

# Relative singular-value threshold below which a design counts as rank
# deficient.
RANK_RTOL = 1e-10
# A rank-deficient design names the columns whose weight in some unit
# null-space vector exceeds this; exact dependencies load O(1), others ~eps.
NULL_LOADING_TOL = 1e-6

INTERCEPT = "intercept"


@dataclass(frozen=True)
class Term:
    """One regressor: a frame column taken at a given lag."""

    name: str
    column: str
    lag: int = 0


@dataclass
class DesignMatrix:
    """Dense regression inputs after listwise deletion.

    ``matrix`` has one column per entry of ``names``; when an intercept is
    present it is the all-ones first column. ``rows`` holds each row's
    quarter number (:attr:`Quarter.index`); ``row_index`` gives them as
    quarters. ``terms`` describes how non-intercept columns derive from
    frame columns, so predictions can be rebuilt on any compatible frame.
    """

    response: np.ndarray
    matrix: np.ndarray
    names: list[str]
    rows: np.ndarray
    response_name: str = "y"
    intercept: bool = True
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        self.response = np.asarray(self.response, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.matrix.ndim != 2 or self.response.ndim != 1:
            raise ValueError("response must be a vector and matrix two-dimensional")
        n, p = self.matrix.shape
        if len(self.response) != n or len(self.rows) != n or len(self.names) != p:
            raise ValueError("design matrix dimensions are inconsistent")
        if not (np.isfinite(self.response).all() and np.isfinite(self.matrix).all()):
            raise DataError("design matrix contains missing or non-finite cells")
        if len(set(self.names)) != p:
            raise SchemaError(f"duplicate regressor names: {self.names}")
        if not self.terms:
            skip = 1 if self.intercept else 0
            self.terms = tuple(Term(n, n, 0) for n in self.names[skip:])

    @property
    def row_index(self) -> list[Quarter]:
        return [Quarter.from_index(i) for i in self.rows.tolist()]

    @classmethod
    def from_arrays(
        cls,
        y: np.ndarray,
        x: np.ndarray,
        names: Sequence[str] | None = None,
        intercept: bool = True,
        start: Quarter = Quarter(2000, 1),
        response_name: str = "y",
    ) -> DesignMatrix:
        """Wrap raw arrays, prepending an all-ones intercept column."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and len(y) != 1:
            x = x.T
        if names is None:
            names = [f"x{j}" for j in range(x.shape[1])]
        cols = list(names)
        if intercept:
            x = np.column_stack([np.ones(x.shape[0]), x])
            cols = [INTERCEPT] + cols
        return cls(
            response=np.asarray(y, dtype=float),
            matrix=x,
            names=cols,
            rows=start.index + np.arange(x.shape[0]),
            response_name=response_name,
            intercept=intercept,
        )


def design_matrix(
    frame: Frame,
    response: str,
    regressors: Sequence[str | tuple[str, int]],
    intercept: bool = True,
    first: Quarter | None = None,
    last: Quarter | None = None,
) -> DesignMatrix:
    """Build a design from frame columns with listwise deletion.

    ``regressors`` entries are column names or ``(column, lag)`` pairs; a
    lagged column is named ``<column>_lag<k>``. Rows with any missing value
    in the response or a regressor are dropped, optionally restricted to the
    quarters in ``[first, last]``.
    """
    columns = [frame.column(response).array] + ([np.ones(len(frame))] if intercept else [])
    terms: list[Term] = []
    for r in regressors:
        col, k = (r, 0) if isinstance(r, str) else r
        if k < 0:
            raise ValueError(f"regressor lag must be >= 0, got {k} for {col!r}")
        terms.append(Term(name=col if k == 0 else f"{col}_lag{k}", column=col, lag=k))
        columns.append(shift(frame.column(col).array, k))
    i0, n = frame.start_index, len(frame)
    lo = 0 if first is None else min(max(first.index - i0, 0), n)
    hi = n if last is None else max(min(last.index - i0 + 1, n), lo)
    block = np.column_stack(columns)[lo:hi]
    keep = ~np.isnan(block).any(axis=1)
    data = block[keep]
    return DesignMatrix(
        response=data[:, 0].copy(),
        matrix=data[:, 1:].copy(),
        names=([INTERCEPT] if intercept else []) + [t.name for t in terms],
        rows=i0 + lo + np.flatnonzero(keep),
        response_name=response,
        intercept=intercept,
        terms=tuple(terms),
    )


@dataclass
class FitResult:
    """Estimated coefficients with classical linear-model inference."""

    coefficients: dict[str, float]
    stderrs: dict[str, float]
    r_squared: float
    adj_r_squared: float
    residual_stderr: float
    f_statistic: float
    n_obs: int
    df_residual: int
    fitted: QuarterlySeries
    residuals: QuarterlySeries
    response_name: str
    intercept: bool
    terms: tuple[Term, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready summary: coefficient table plus fit statistics."""

        def _num(v: float) -> float | None:
            return float(v) if np.isfinite(v) else None

        return {
            "coefficients": {
                name: {"estimate": _num(est), "stderr": _num(self.stderrs[name])}
                for name, est in self.coefficients.items()
            },
            "r2": _num(self.r_squared),
            "adj_r2": _num(self.adj_r_squared),
            "resid_se": _num(self.residual_stderr),
            "f_stat": _num(self.f_statistic),
            "n": self.n_obs,
        }


def _scatter(rows: np.ndarray, values: np.ndarray, name: str) -> QuarterlySeries:
    """Place per-row values onto the contiguous quarterly span of ``rows``."""
    start = int(rows.min())
    out = np.full(int(rows.max()) - start + 1, np.nan)
    out[rows - start] = values
    return QuarterlySeries._from_array(name, start, out)


def ols_fit(d: DesignMatrix) -> FitResult:
    """Least-squares fit with standard errors, R-squared and F statistic.

    Columns are equilibrated to unit norm and factored once, ``X = QR``. The
    singular values of the small ``R`` factor (those of the equilibrated
    design) give the rank: any below ``RANK_RTOL`` of the largest raise a
    :class:`SingularDesignError` naming every column with weight in the
    design's null space. Otherwise one solve with ``R`` gives both the
    coefficients and ``R^-1``. Inference follows the classical linear model:
    coefficient variance from the residual variance times the inverse
    cross-product diagonal, F against the intercept-only model.
    """
    y, x, names = d.response, d.matrix, d.names
    n, p = x.shape
    if n <= p:
        raise InsufficientDataError(
            f"{n} usable observations cannot identify {p} parameters"
        )
    norms = np.sqrt((x**2).sum(axis=0))
    dead = [names[j] for j in np.flatnonzero(norms == 0.0)]
    if dead:
        raise SingularDesignError(f"all-zero column(s): {', '.join(dead)}", dead)
    xs = x / norms
    q_mat, r_mat = np.linalg.qr(xs)
    singular_values = np.linalg.svd(r_mat, compute_uv=False)
    rank = int(np.sum(singular_values > RANK_RTOL * singular_values[0]))
    if rank < p:
        null_space = np.linalg.svd(xs, full_matrices=False)[2][rank:]
        loaded = np.abs(null_space).max(axis=0) > NULL_LOADING_TOL
        collinear = sorted(names[j] for j in np.flatnonzero(loaded))
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} of {p}); "
            f"collinear column(s): {', '.join(collinear)}",
            collinear,
        )
    solved = np.linalg.solve(r_mat, np.column_stack([q_mat.T @ y, np.eye(p)]))
    beta = solved[:, 0] / norms
    fitted = x @ beta
    resid = y - fitted
    df = n - p
    ssr = float(resid @ resid)
    sigma2 = ssr / df
    # diag(cov) is sigma2 times the squared row norms of R^-1, unscaled
    stderr = np.sqrt((solved[:, 1:] ** 2).sum(axis=1) * sigma2) / norms

    if d.intercept:
        sst = float(((y - y.mean()) ** 2).sum())
        df_model = p - 1
    else:
        sst = float((y**2).sum())
        df_model = p
    if sst <= 0.0:
        warnings.warn(
            f"response {d.response_name!r} is constant over the sample; "
            "R-squared reported as 0",
            stacklevel=2,
        )
        r2 = adj = f_stat = 0.0
    else:
        # Standard definitions; adjusted R-squared goes negative for fits
        # worse than their degrees of freedom justify.
        r2 = 1.0 - ssr / sst
        denom = n - 1 if d.intercept else n
        adj = 1.0 - (1.0 - r2) * denom / df
        if df_model <= 0:
            f_stat = 0.0
        elif ssr == 0.0:
            f_stat = float("inf")
        else:
            f_stat = ((sst - ssr) / df_model) / (ssr / df)
    return FitResult(
        coefficients=dict(zip(names, map(float, beta))),
        stderrs=dict(zip(names, map(float, stderr))),
        r_squared=r2,
        adj_r_squared=adj,
        residual_stderr=float(np.sqrt(sigma2)),
        f_statistic=float(f_stat),
        n_obs=n,
        df_residual=df,
        fitted=_scatter(d.rows, fitted, f"{d.response_name}_fitted"),
        residuals=_scatter(d.rows, resid, f"{d.response_name}_resid"),
        response_name=d.response_name,
        intercept=d.intercept,
        terms=d.terms,
    )


def predict(fit: FitResult, frame: Frame, name: str | None = None) -> QuarterlySeries:
    """Evaluate a fitted linear model on every quarter of a frame.

    Each term is rebuilt from its base column at its lag and added in the
    fit's term order after the intercept; the output is missing wherever any
    input is missing.
    """
    const = fit.coefficients.get(INTERCEPT, 0.0) if fit.intercept else 0.0
    acc = np.full(len(frame), float(const))
    for t in fit.terms:
        acc = acc + fit.coefficients[t.name] * shift(frame.column(t.column).array, t.lag)
    return QuarterlySeries._from_array(name or f"{fit.response_name}_pred", frame.start_index, acc)


@dataclass
class EcmFit:
    """Error correction model recovered from its unrestricted linear fit.

    The unrestricted regression is ``d(y) = b0 + sum(b * short_run) +
    gamma * y[t-1] + sum(theta * level)``; the long-run coefficients are
    ``alpha = -theta / gamma``. All fit statistics live on ``underlying``.
    """

    underlying: FitResult
    response_name: str
    short_run: dict[str, float]
    gamma: float
    long_run_alphas: dict[str, float]
    short_run_columns: list[str] = field(default_factory=list)
    level_columns: list[str] = field(default_factory=list)

    @property
    def intercept(self) -> float:
        return self.underlying.coefficients.get(INTERCEPT, 0.0)

    def to_dict(self) -> dict:
        out = self.underlying.to_dict()
        out["gamma"] = self.gamma if np.isfinite(self.gamma) else None
        out["long_run_alphas"] = {
            k: (v if np.isfinite(v) else None) for k, v in self.long_run_alphas.items()
        }
        return out


def ecm_fit(
    response: QuarterlySeries,
    short_run_terms: Frame,
    level_terms: Frame,
) -> EcmFit:
    """Fit an error correction model by OLS on its unrestricted form.

    ``short_run_terms`` columns enter the change equation as-is (the caller
    supplies them already differenced/lagged); ``level_terms`` columns enter
    as levels. The response's first difference is regressed on an intercept,
    the short-run terms, the one-quarter-lagged response level, and the
    level terms; the long-run coefficients are recovered as
    ``-theta / gamma``.

    A non-negative ``gamma`` (no correction toward equilibrium) produces a
    warning, not an error; ``gamma == 0`` leaves the long-run coefficients
    undefined and raises :class:`NumericalError`.
    """
    dy = response.diff().rename(f"d_{response.name}")
    ylag = response.lag(1).rename(f"{response.name}_lag1")
    sr_names = short_run_terms.names()
    lv_names = level_terms.names()
    columns = [dy, ylag]
    columns += [short_run_terms.column(c) for c in sr_names]
    columns += [level_terms.column(c) for c in lv_names]
    merged = align(columns)
    d = design_matrix(
        merged,
        response=dy.name,
        regressors=sr_names + [ylag.name] + lv_names,
        intercept=True,
    )
    fit = ols_fit(d)
    gamma = fit.coefficients[ylag.name]
    if gamma >= 0:
        warnings.warn(
            f"adjustment coefficient on {ylag.name} is {gamma:.4g} (>= 0); "
            "no stable error correction",
            stacklevel=2,
        )
    if gamma == 0.0:
        raise NumericalError(
            "adjustment coefficient is exactly zero; long-run coefficients undefined"
        )
    alphas = {c: -fit.coefficients[c] / gamma for c in lv_names}
    return EcmFit(
        underlying=fit,
        response_name=response.name,
        short_run={c: fit.coefficients[c] for c in sr_names},
        gamma=gamma,
        long_run_alphas=alphas,
        short_run_columns=list(sr_names),
        level_columns=list(lv_names),
    )


def ecm_forecast(
    fit: EcmFit,
    frame: Frame,
    start: Quarter,
    mode: str = "dynamic",
) -> QuarterlySeries:
    """Forecast response levels from ``start`` to the end of ``frame``.

    Static mode predicts each change from the observed previous level (one
    step ahead everywhere); dynamic mode feeds its own predicted level back
    in, so post-``start`` observations of the response are never used. The
    frame must contain the response column (for the initial level) and every
    short-run and level column of the fit.

    A missing regressor makes that quarter's forecast missing; in dynamic
    mode the recursion has then lost its level, so all later quarters are
    missing too.
    """
    if mode not in ("static", "dynamic"):
        raise ValueError(f"mode must be 'static' or 'dynamic', got {mode!r}")
    frame.require(fit.response_name, *fit.short_run_columns, *fit.level_columns)
    observed = frame.column(fit.response_name)
    y, n = observed.array, len(frame)
    a = start.index - frame.start_index  # position of ``start`` in the frame
    if not 0 < a <= n or np.isnan(y[a - 1]):
        raise DataError(
            f"no observed {fit.response_name!r} level at {start - 1} to anchor the forecast"
        )
    coeffs, columns = fit.underlying.coefficients, fit.short_run_columns + fit.level_columns
    products = [coeffs[c] * frame.column(c).array[a:] for c in columns]
    # change = intercept + gamma * previous level + terms in fit order; NaN marks missing
    if mode == "static":
        prev = y[a - 1 : n - 1]
        delta = fit.intercept + fit.gamma * prev
        for p in products:
            delta = delta + p
        levels = prev + delta
    else:
        intercept, gamma, level = fit.intercept, fit.gamma, float(y[a - 1])
        out = []
        for inputs in np.column_stack(products).tolist() if products else [()] * (n - a):
            delta = intercept + gamma * level
            for p in inputs:
                delta += p
            level = level + delta
            out.append(level)
        levels = np.array(out, dtype=float)
    return QuarterlySeries._from_array(
        f"{fit.response_name}_forecast", start.index, levels, observed.unit
    )


@dataclass(frozen=True)
class LagScanEntry:
    lag: int
    r_squared: float | None
    n_obs: int


@dataclass
class LagScanResult:
    """R-squared of a univariate regression per candidate lag."""

    response: str
    candidate: str
    entries: list[LagScanEntry]

    @property
    def best_lag(self) -> int | None:
        usable = [e for e in self.entries if e.r_squared is not None]
        if not usable:
            return None
        return max(usable, key=lambda e: (e.r_squared, -e.lag)).lag


def lag_scan(
    response: QuarterlySeries,
    candidate: QuarterlySeries,
    lags: Iterable[int],
) -> LagScanResult:
    """Regress the response on each lagged version of the candidate.

    For every lag k the response is regressed (with intercept) on the
    candidate lagged k quarters over their common sample; the entry records
    the R-squared. Lags with too few overlapping observations, or where the
    lagged candidate is degenerate, are reported as unusable rather than
    failing the scan.

    Each lag is the univariate closed form ``R^2 = sxy^2 / (sxx * syy)``
    over centred sums, under the rules :func:`ols_fit` applies to the
    ``[1, x]`` design: two or fewer observations, or a singular-value ratio
    of the equilibrated design, ``sqrt(sxx / sum(x^2)) / (1 + |c|)`` with
    ``c`` the cosine between its columns, at or below ``RANK_RTOL`` make the
    entry unusable; a constant response warns and scores 0.
    """
    lag_list = sorted(set(int(k) for k in lags))
    if not lag_list:
        raise ValueError("lag range must be non-empty")
    if lag_list[0] < 0:
        raise ValueError(f"lags must be >= 0, got {lag_list[0]}")
    cand = candidate if candidate.name != response.name else candidate.rename(
        f"{candidate.name}_candidate"
    )
    merged = align([response, cand])
    y_all, x_all = merged.column(response.name).array, merged.column(cand.name).array
    y_ok, x_ok = ~np.isnan(y_all), ~np.isnan(x_all)
    entries: list[LagScanEntry] = []
    for k in lag_list:
        # pair the response at quarter t with the candidate at t - k
        y, x = y_all[k:], x_all[: max(len(x_all) - k, 0)]
        keep = y_ok[k:] & x_ok[: len(x)]
        n = int(np.count_nonzero(keep))
        r2 = _univariate_r2(y[keep], x[keep], response.name, k) if n > 2 else None
        entries.append(LagScanEntry(lag=k, r_squared=r2, n_obs=n))
    return LagScanResult(response=response.name, candidate=cand.name, entries=entries)


def _univariate_r2(y: np.ndarray, x: np.ndarray, name: str, k: int) -> float | None:
    """R-squared of ``y`` on ``[1, x]``; None when :func:`ols_fit` would call it singular."""
    xc, yc = x - x.mean(), y - y.mean()
    sxx, syy, sxy, x2 = xc @ xc, yc @ yc, xc @ yc, x @ x
    # smallest-to-largest singular-value ratio of the equilibrated design
    if x2 == 0.0 or np.sqrt(sxx / x2) / (1.0 + abs(x.sum()) / np.sqrt(len(x) * x2)) <= RANK_RTOL:
        return None
    if syy == 0.0:
        warnings.warn(
            f"response {name!r} is constant over the lag-{k} sample; R-squared reported as 0",
            stacklevel=3,
        )
        return 0.0
    return float(sxy / sxx * (sxy / syy))
