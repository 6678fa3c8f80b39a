"""Linear-regression core.

OLS with classical inference statistics, solved through an orthogonal
decomposition with column-norm equilibration (the design matrices here mix
euros with fractions, so raw normal equations lose digits). The error
correction model is fitted in its unrestricted linear parametrization and
the long-run coefficients recovered afterwards. Also: the fitted and
forecast paths of fitted ECMs and the R-squared lag scan used to pick the
lending-capacity lead time.
"""

from __future__ import annotations

import bisect
import math
import warnings
from typing import Iterable, Sequence

from ._numpy import np
from .errors import (
    DataError,
    InsufficientDataError,
    NumericalError,
    Record,
    SchemaError,
    SingularDesignError,
)
from .timeseries import Frame, QuarterlySeries, align, quarter_label, shift

# Relative singular-value threshold below which a design counts as rank
# deficient.
RANK_RTOL = 1e-10
# A rank-deficient design names the columns whose weight in some unit
# null-space vector exceeds this; exact dependencies load O(1), others ~eps.
NULL_LOADING_TOL = 1e-6

INTERCEPT = "intercept"


class Term(Record):
    """One regressor: a frame column taken at a given lag."""

    __slots__ = ("name", "column", "lag")

    def __init__(self, name: str, column: str, lag: int = 0) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "lag", lag)


class DesignMatrix:
    """Dense regression inputs after listwise deletion.

    ``matrix`` has one column per entry of ``names``, the all-ones intercept
    first. ``rows`` holds each row's quarter number, 4 × year + quarter − 1.
    ``terms`` describes how the other columns derive from frame columns, so
    predictions can be rebuilt on any compatible frame.
    """

    __slots__ = ("response", "matrix", "rows", "response_name", "terms")

    def __init__(
        self,
        response: np.ndarray,
        matrix: np.ndarray,
        rows: np.ndarray,
        response_name: str,
        terms: tuple[Term, ...],
    ) -> None:
        self.response = np.asarray(response, dtype=float)
        self.matrix = np.asarray(matrix, dtype=float)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.response_name, self.terms = response_name, terms
        if self.matrix.ndim != 2 or self.response.ndim != 1:
            raise ValueError("response must be a vector and matrix two-dimensional")
        n, p = self.matrix.shape
        names = self.names
        if len(self.response) != n or len(self.rows) != n or len(names) != p:
            raise ValueError("design matrix dimensions are inconsistent")
        if len(set(names)) != p:
            raise SchemaError(f"duplicate regressor names: {names}")

    @property
    def names(self) -> list[str]:
        """The column names: the intercept, then each term's name."""
        return [INTERCEPT] + [t.name for t in self.terms]

    def until(self, last: int) -> DesignMatrix:
        """The rows up to and including quarter number ``last``, as views of this design.

        Rows ascend by quarter and every row is built from its own quarter's
        lagged inputs, so this prefix is the design of the frame cut at
        ``last``.
        """
        k = int(np.searchsorted(self.rows, last, side="right"))
        return DesignMatrix(
            response=self.response[:k],
            matrix=self.matrix[:k],
            rows=self.rows[:k],
            response_name=self.response_name,
            terms=self.terms,
        )


def design_matrix(
    frame: Frame,
    response: str,
    regressors: Sequence[str | tuple[str, int]],
) -> DesignMatrix:
    """Build a design, intercept first, from frame columns with listwise deletion.

    ``regressors`` entries are column names or ``(column, lag)`` pairs; a
    lagged column is named ``<column>_lag<k>``. Rows with any missing value
    in the response or a regressor are dropped; :meth:`DesignMatrix.until`
    cuts the result at a training cutoff.
    """
    n = len(frame)
    # response, intercept, then one column per regressor, filled in place
    block = np.empty((n, 2 + len(regressors)))
    block[:, 0] = frame.column(response).array
    block[:, 1] = 1.0
    terms: list[Term] = []
    for j, r in enumerate(regressors, 2):
        col, k = (r, 0) if isinstance(r, str) else r
        if k < 0:
            raise ValueError(f"regressor lag must be >= 0, got {k} for {col!r}")
        terms.append(Term(name=col if k == 0 else f"{col}_lag{k}", column=col, lag=k))
        block[:k, j] = np.nan
        block[k:, j] = frame.column(col).array[: max(n - k, 0)]
    keep = ~np.isnan(block).any(axis=1)
    data = block[keep]
    return DesignMatrix(
        response=data[:, 0].copy(),
        matrix=data[:, 1:].copy(),
        rows=frame.start_index + np.flatnonzero(keep),
        response_name=response,
        terms=tuple(terms),
    )


class FitResult:
    """Estimated coefficients with classical linear-model inference.

    ``design`` is the design the fit was estimated on.
    """

    __slots__ = (
        "coefficients", "stderrs", "r_squared", "adj_r_squared", "residual_stderr",
        "f_statistic", "design",
    )

    def __init__(
        self,
        coefficients: dict[str, float],
        stderrs: dict[str, float],
        r_squared: float,
        adj_r_squared: float,
        residual_stderr: float,
        f_statistic: float,
        design: DesignMatrix,
    ) -> None:
        self.coefficients, self.stderrs, self.r_squared = coefficients, stderrs, r_squared
        self.adj_r_squared, self.residual_stderr = adj_r_squared, residual_stderr
        self.f_statistic, self.design = f_statistic, design


def _require_full_rank(r_mat: np.ndarray, names: list[str]) -> None:
    """Raise :class:`SingularDesignError` if ``R`` fails the singular-value rank rule.

    One SVD of ``R`` counts the singular values above ``RANK_RTOL`` of the
    largest and names every column with weight in its null space, which is
    the equilibrated design's: that design is ``QR`` with orthonormal ``Q``.
    """
    p = len(names)
    _, singular_values, vt = np.linalg.svd(r_mat)
    rank = int(np.sum(singular_values > RANK_RTOL * singular_values[0]))
    if rank < p:
        loaded = np.abs(vt[rank:]).max(axis=0) > NULL_LOADING_TOL
        collinear = sorted(names[j] for j in np.flatnonzero(loaded))
        raise SingularDesignError(
            f"design is rank deficient (rank {rank} of {p}); "
            f"collinear column(s): {', '.join(collinear)}",
            collinear,
        )


def ols_fit(d: DesignMatrix) -> FitResult:
    """Least-squares fit with standard errors, R-squared and F statistic.

    Columns are equilibrated to unit norm and factored once, ``X = QR``, and
    one solve with ``R`` gives both the coefficients and ``R^-1``. The
    design is rank deficient when a singular value of ``R`` (those of the
    equilibrated design) is at or below ``RANK_RTOL`` of the largest; this
    raises a :class:`SingularDesignError` naming every column with weight
    in the design's null space. The singular values are computed only when
    the cheap bound ``sigma_max / sigma_min <= ||R||_F * ||R^-1||_F`` cannot
    rule that out with a margin of 16. Inference follows the classical
    linear model: coefficient variance from the residual variance times the
    inverse cross-product diagonal, F against the intercept-only model. A
    missing or infinite cell raises :class:`DataError`; finite cells whose
    squares overflow raise :class:`NumericalError` naming their column or
    the response.
    """
    y, x, names = d.response, d.matrix, d.names
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise DataError("design matrix contains missing or non-finite cells")
    n, p = x.shape
    if n <= p:
        raise InsufficientDataError(
            f"{n} usable observations cannot identify {p} parameters"
        )
    # overflow and inf - inf are found by the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(x * x, axis=0))
        norm_list = norms.tolist()
        huge = [name for name, v in zip(names, norm_list) if v == math.inf]
        if huge:
            raise NumericalError(f"squares of column(s) {', '.join(huge)} overflow")
        dead = [name for name, v in zip(names, norm_list) if v == 0.0]
        if dead:
            raise SingularDesignError(f"all-zero column(s): {', '.join(dead)}", dead)
        xs = x / norms
        q_mat, r_mat = np.linalg.qr(xs)
        rhs = np.eye(p, p + 1, 1)  # [Q'y | I]
        rhs[:, 0] = q_mat.T @ y
        try:
            solved = np.linalg.solve(r_mat, rhs)
        except np.linalg.LinAlgError:  # an exact zero pivot: R fails the rank rule
            _require_full_rank(r_mat, names)
            raise
        # squared row norms of R^-1: their sum is ||R^-1||_F^2
        r_inv = solved[:, 1:]
        inv_rows = np.add.reduce(r_inv * r_inv, axis=1)
        bound = math.sqrt(np.add.reduce(r_mat * r_mat, axis=None) * np.add.reduce(inv_rows))
        if not bound * 16 * RANK_RTOL < 1:
            _require_full_rank(r_mat, names)
        beta = solved[:, 0] / norms
        fitted = x @ beta
        resid = y - fitted
        ssr = float(resid @ resid)
        # np.mean's own sum and division
        centred = y - np.add.reduce(y) / n
        sst = float(np.add.reduce(centred * centred))
    if not (math.isfinite(ssr) and math.isfinite(sst)):
        raise NumericalError(f"squares of response {d.response_name!r} overflow")
    df = n - p
    sigma2 = ssr / df
    # diag(cov) is sigma2 times the squared row norms of R^-1, unscaled
    stderr = np.sqrt(inv_rows * sigma2) / norms

    df_model = p - 1
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
        adj = 1.0 - (1.0 - r2) * (n - 1) / df
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
        design=d,
    )


def predict(fit: FitResult, frame: Frame) -> QuarterlySeries:
    """Evaluate a fitted linear model on every quarter of a frame.

    Each term is rebuilt from its base column at its lag and added in the
    fit's term order after the intercept; the output is missing wherever any
    input is missing.
    """
    acc = np.full(len(frame), fit.coefficients[INTERCEPT])
    for p in _term_products(fit.coefficients, fit.design.terms, frame, 0):
        acc = acc + p
    return QuarterlySeries._from_array(f"{fit.design.response_name}_pred", frame.start_index, acc)


def _term_products(coefficients: dict, terms: Sequence[Term], frame: Frame, a: int) -> list:
    """Each term's coefficient times its column at its lag, over frame positions
    ``a..n-1``; NaN where the lagged column has no value."""
    n, columns = len(frame), [frame.column(t.column).array for t in terms]
    return [
        coefficients[t.name] * (x[a - t.lag : n - t.lag] if a >= t.lag else shift(x, t.lag)[a:])
        for t, x in zip(terms, columns)
    ]


class EcmFit:
    """Error correction model recovered from its unrestricted linear fit.

    The unrestricted regression is ``d(y) = b0 + sum(b * short_run) +
    gamma * y[t-1] + sum(theta * level)``; the long-run coefficients are
    ``alpha = -theta / gamma``. All fit statistics, and the terms every
    forecast is rebuilt from, live on ``underlying``; ``level`` is the
    position of ``y[t-1]`` among its design's terms.
    """

    __slots__ = ("underlying", "level", "gamma", "long_run_alphas")

    def __init__(
        self,
        underlying: FitResult,
        level: int,
        gamma: float,
        long_run_alphas: dict[str, float],
    ) -> None:
        self.underlying, self.level = underlying, level
        self.gamma, self.long_run_alphas = gamma, long_run_alphas

    @property
    def intercept(self) -> float:
        return self.underlying.coefficients[INTERCEPT]


def ecm_design(
    frame: Frame,
    response: str,
    short_run: Sequence[str | tuple[str, int]],
    levels: Sequence[str | tuple[str, int]],
) -> DesignMatrix:
    """The design of an error correction model in its unrestricted form.

    ``short_run`` and ``levels`` are :func:`design_matrix` regressor specs
    (a column name or a ``(column, lag)`` pair); ``frame`` holds the
    response, its first difference ``d_<response>`` and every column the
    specs name. The change is regressed on an intercept, the short-run
    terms, the one-quarter-lagged response level and the level terms.
    """
    return design_matrix(frame, f"d_{response}", [*short_run, (response, 1), *levels])


def ecm_fit(d: DesignMatrix) -> EcmFit:
    """Fit an error correction model by OLS on an :func:`ecm_design`.

    ``d`` may be cut at a training cutoff (:meth:`DesignMatrix.until`). The
    long-run coefficients are recovered as ``-theta / gamma``, with
    ``gamma`` the coefficient of the lagged response level.

    A non-negative ``gamma`` (no correction toward equilibrium) produces a
    warning, not an error; ``gamma == 0`` leaves the long-run coefficients
    undefined and raises :class:`NumericalError`.
    """
    response = d.response_name.removeprefix("d_")
    # the lagged level follows the short-run terms; names are unique, so it is
    # the only (response, 1) term
    k = next((i for i, t in enumerate(d.terms) if (t.column, t.lag) == (response, 1)), None)
    if k is None or not d.response_name.startswith("d_"):
        raise SchemaError(f"the design of {d.response_name!r} is not an error correction design")
    fit = ols_fit(d)
    ylag = d.terms[k].name
    gamma = fit.coefficients[ylag]
    if gamma >= 0:
        warnings.warn(
            f"adjustment coefficient on {ylag} is {gamma:.4g} (>= 0); "
            "no stable error correction",
            stacklevel=2,
        )
    if gamma == 0.0:
        raise NumericalError(
            "adjustment coefficient is exactly zero; long-run coefficients undefined"
        )
    return EcmFit(
        underlying=fit,
        level=k,
        gamma=gamma,
        long_run_alphas={t.name: -fit.coefficients[t.name] / gamma for t in d.terms[k + 1 :]},
    )


def ecm_forecast(fit: EcmFit, frame: Frame, origin: int | None = None) -> QuarterlySeries:
    """The fit's path over ``frame``, from its first fitted quarter to the frame's end.

    Up to and including quarter number ``origin``, each change is predicted
    from the observed previous level; after it, the path feeds its own levels
    back, anchored on the observed level at ``origin``, so no later response
    reaches it. With no origin, every quarter is a one-step fitted value.
    The frame must contain the response and every term's column; terms are
    rebuilt at their lags, as in :func:`predict`. A missing input makes that
    quarter missing, and after the origin every later quarter too.
    """
    design, k = fit.underlying.design, fit.level
    response, terms = design.terms[k].column, design.terms[:k] + design.terms[k + 1 :]
    frame.require(response, *(t.column for t in terms))
    observed = frame.column(response)
    y, n, i0 = observed.array, len(frame), frame.start_index
    start = int(design.rows[0])  # the fit's first fitted quarter
    anchor = start - 1 if origin is None else origin
    # the positions of the path's first quarter and of the first fed its own levels
    a, b = start - i0, n if origin is None else origin + 1 - i0
    if not 0 < a <= b <= n or np.isnan(y[anchor - i0]):
        raise DataError(
            f"no observed {response!r} level at {quarter_label(anchor)} "
            f"can anchor a path from {quarter_label(start)}"
        )
    # change = intercept + gamma * previous level + terms in fit order; NaN
    # marks missing, and an infinite input gives inf - inf = NaN
    with np.errstate(invalid="ignore"):
        products = _term_products(fit.underlying.coefficients, terms, frame, a)
        prev = y[a - 1 : n - 1]
        delta = fit.intercept + fit.gamma * prev
        for p in products:
            delta = delta + p
        levels = prev + delta
        if origin is not None:  # past the origin, the path feeds on its own levels
            intercept, gamma, level = fit.intercept, fit.gamma, float(y[b - 1])
            tail = [p[b - a :] for p in products]
            out = []
            for inputs in np.column_stack(tail).tolist() if tail else [()] * (n - b):
                delta = intercept + gamma * level
                for p in inputs:
                    delta += p
                level = level + delta
                out.append(level)
            levels[b - a :] = out
    return QuarterlySeries._from_array(f"{response}_forecast", start, levels, observed.unit)


class LagScanEntry(Record):
    __slots__ = ("lag", "r_squared", "n_obs")

    def __init__(self, lag: int, r_squared: float | None, n_obs: int) -> None:
        object.__setattr__(self, "lag", lag)
        object.__setattr__(self, "r_squared", r_squared)
        object.__setattr__(self, "n_obs", n_obs)


class LagScanResult:
    """R-squared of a univariate regression per candidate lag."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[LagScanEntry]) -> None:
        self.entries = entries

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
    # a lag at or past the sample's length pairs no quarters
    inside = bisect.bisect_left(lag_list, len(y_all))
    # overflowed sums are found by _univariate_r2's finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        for k in lag_list[:inside]:
            # pair the response at quarter t with the candidate at t - k
            y, x = y_all[k:], x_all[: len(x_all) - k]
            keep = y_ok[k:] & x_ok[: len(x)]
            n = int(np.count_nonzero(keep))
            r2 = _univariate_r2(y[keep], x[keep], response.name, cand.name, k) if n > 2 else None
            entries.append(LagScanEntry(lag=k, r_squared=r2, n_obs=n))
    entries += [LagScanEntry(lag=k, r_squared=None, n_obs=0) for k in lag_list[inside:]]
    return LagScanResult(entries)


def _univariate_r2(
    y: np.ndarray, x: np.ndarray, name: str, candidate: str, k: int
) -> float | None:
    """R-squared of ``y`` on ``[1, x]``; None when :func:`ols_fit` would call it singular.

    Sums that overflow raise :class:`NumericalError` naming the response or
    the candidate, as :func:`ols_fit` does.
    """
    n = len(x)
    # np.mean's own sum and division
    sx = np.add.reduce(x)
    xc, yc = x - sx / n, y - np.add.reduce(y) / n
    sxx, syy, sxy, x2 = xc @ xc, yc @ yc, xc @ yc, x @ x
    if not math.isfinite(syy):
        raise NumericalError(f"squares of response {name!r} overflow at lag {k}")
    if not (math.isfinite(x2) and math.isfinite(sxx)):
        raise NumericalError(f"squares of column {candidate!r} overflow at lag {k}")
    # smallest-to-largest singular-value ratio of the equilibrated design
    if x2 == 0.0 or np.sqrt(sxx / x2) / (1.0 + abs(sx) / np.sqrt(n * x2)) <= RANK_RTOL:
        return None
    if syy == 0.0:
        warnings.warn(
            f"response {name!r} is constant over the lag-{k} sample; R-squared reported as 0",
            stacklevel=3,
        )
        return 0.0
    return float(sxy / sxx * (sxy / syy))
