"""Household lending-capacity engine.

Dutch loan-to-income rules cap a mortgage by what the household can service
from the share of income reserved for housing (the "woonquote"). Two product
types set different caps for the same income and rate:

* interest-only: only interest is budgeted, so the cap is the annual housing
  budget divided by the effective annual carrying-cost rate;
* annuity: principal amortizes over the term, so the cap is the monthly
  housing budget times the standard annuity factor.

Mortgage interest is tax deductible at the household's top marginal rate,
so the effective rate is ``(1 - deduction_rate) * r + cost_rate``, where
``cost_rate`` covers taxes and maintenance as a fraction of home value.
Average household lending capacity (HLC) blends the two caps by the market
share of interest-only products among new mortgages.
"""

from __future__ import annotations

import math

from ._numpy import np
from .errors import DataError, DomainError, InconsistencyError
from .spec import HLC, INCOME, INTEREST_ONLY_SHARE, INTEREST_RATE, LtiParams
from .timeseries import Frame, QuarterlySeries, Record, align, quarter_label


class HouseholdInputs(Record):
    """Per-quarter inputs: quarterly income (euros), annual nominal interest
    rate (fraction), and the interest-only market share among new mortgages."""

    __slots__ = ("quarterly_income", "interest_rate", "interest_only_share")

    def __init__(
        self, quarterly_income: float, interest_rate: float, interest_only_share: float
    ) -> None:
        if quarterly_income <= 0:
            raise ValueError(f"quarterly_income must be positive, got {quarterly_income}")
        if interest_rate < 0:
            raise ValueError(f"interest_rate must be >= 0, got {interest_rate}")
        if not 0.0 <= interest_only_share <= 1.0:
            raise ValueError(f"interest_only_share must be in [0, 1], got {interest_only_share}")
        self._set(quarterly_income, interest_rate, interest_only_share)


def annuity_factor(x: float, term_months: int = 360) -> float:
    """Present value of a monthly payment of 1 at annual rate ``x``.

    f(x) = (1 - (1 + x/12)^(-term_months)) / (x/12); multiplying f(x) by a
    monthly payment gives the mortgage that payment exactly amortizes over
    the term. The x = 0 limit is term_months.

    Raises:
        DomainError: for negative ``x``.
    """
    if term_months <= 0:
        raise ValueError(f"term_months must be positive, got {term_months}")
    if x < 0:
        raise DomainError(f"annuity factor undefined for negative rate {x}")
    if x == 0:
        return float(term_months)
    monthly = x / 12.0
    # expm1/log1p form of (1 - (1 + m)^-n) / m; the naive power loses all
    # precision as x -> 0.
    return -math.expm1(-term_months * math.log1p(monthly)) / monthly


def effective_rate(interest_rate: float, params: LtiParams) -> float:
    """Annual carrying-cost rate after interest deduction plus other costs."""
    return (1.0 - params.deduction_rate) * interest_rate + params.cost_rate


def max_interest_only(h: HouseholdInputs, params: LtiParams) -> float:
    """Maximum interest-only mortgage: annual housing budget over the
    effective rate.

    The budget is 4 * quarterly income * woonquote; only interest accrues,
    so capacity is budget / ((1 - deduction) * r + cost_rate).
    """
    rate = effective_rate(h.interest_rate, params)
    if rate <= 0:
        raise DomainError(
            f"effective carrying-cost rate must be positive for an interest-only "
            f"cap, got {rate}"
        )
    return 4.0 * h.quarterly_income * params.woonquote / rate


def max_annuity(h: HouseholdInputs, params: LtiParams) -> float:
    """Maximum annuity mortgage: monthly housing budget times the annuity
    factor at the effective rate.

    The monthly budget is quarterly income / 3 * woonquote. Amortization
    makes this cap strictly smaller than the interest-only cap whenever the
    effective rate is positive.
    """
    rate = effective_rate(h.interest_rate, params)
    budget = h.quarterly_income / 3.0 * params.woonquote
    return budget * annuity_factor(rate, params.term_months)


def hlc(h: HouseholdInputs, params: LtiParams) -> float:
    """Average household lending capacity: the interest-only and annuity
    caps weighted by the interest-only market share ``m``.

    HLC = m * max_interest_only + (1 - m) * max_annuity. Degenerate weights
    reduce exactly to the corresponding cap.
    """
    m = h.interest_only_share
    if m == 0.0:
        return max_annuity(h, params)
    if m == 1.0:
        return max_interest_only(h, params)
    return m * max_interest_only(h, params) + (1.0 - m) * max_annuity(h, params)


# The frame columns hlc_series reads, in HouseholdInputs field order.
_INPUT_COLUMNS = (INCOME, INTEREST_RATE, INTEREST_ONLY_SHARE)


def hlc_series(frame: Frame, params: LtiParams) -> QuarterlySeries:
    """Per-quarter lending capacity ``hlc`` from the aligned ``income``,
    ``interest_rate`` and ``interest_only_share`` columns; missing wherever
    any input is missing.

    The quarters are computed as arrays in :func:`hlc`'s operation order,
    with :func:`annuity_factor` per quarter, so every value equals the
    scalar one bit for bit.

    Raises:
        DataError: naming the column and quarter of a value
            :class:`HouseholdInputs` rejects.
        DomainError: as :func:`hlc` raises it.
    """
    frame.require(*_INPUT_COLUMNS)
    income, rate, share = (frame.column(c).array for c in _INPUT_COLUMNS)
    present = ~(np.isnan(income) | np.isnan(rate) | np.isnan(share))
    effective = np.where(present, (1.0 - params.deduction_rate) * rate + params.cost_rate, np.nan)
    # what HouseholdInputs rejects, or an interest-only cap at a zero rate
    bad = present & (
        (income <= 0) | (rate < 0) | (share < 0) | (share > 1) | ((effective <= 0) & (share != 0))
    )
    if bad.any():
        _raise_scalar_error(frame, int(np.argmax(bad)), params)
    with np.errstate(all="ignore"):  # IEEE results, as the scalar code gets them
        interest_only = 4.0 * income * params.woonquote / effective
        factor = [annuity_factor(x, params.term_months) for x in effective.tolist()]
        annuity = income / 3.0 * params.woonquote * np.array(factor)
        blend = share * interest_only + (1.0 - share) * annuity
        out = np.where(share == 0.0, annuity, np.where(share == 1.0, interest_only, blend))
    return QuarterlySeries._from_array(HLC, frame.start_index, out, "eur")


def _raise_scalar_error(frame: Frame, k: int, params: LtiParams) -> None:
    """Raise what the scalar path raises at position ``k``, named by the
    column and quarter at fault."""
    inputs = [float(frame.column(c).array[k]) for c in _INPUT_COLUMNS]
    q = quarter_label(frame.start_index + k)
    try:
        hlc(HouseholdInputs(*inputs), params)
    except ValueError as exc:
        # the message starts with the rejected field; fields follow the columns
        field = str(exc).split()[0]
        column = dict(zip(HouseholdInputs.__slots__, _INPUT_COLUMNS))[field]
        raise DataError(f"column {column!r} at {q}: {exc}") from None
    except DomainError as exc:
        # valid inputs fail only at a carrying-cost rate of zero
        raise DomainError(f"column {INTEREST_RATE!r} at {q}: {exc}") from None


def new_mortgage_share(mover_share: float, stock_delta: float, prior_stock: float) -> float:
    """Interest-only share among new mortgages for one period.

    Movers who account for the stock-share change ``stock_delta`` switched
    into interest-only (``stock_delta / mover_share``, clamped to [0, 1]);
    the rest renew their existing product pro-rata at ``prior_stock``. With
    5% movers, a +2.5 point stock change and a 40% prior stock share, half
    the movers switched and half renewed (20 points), for a 70% share.

    Raises:
        InconsistencyError: if the stock moved in a period with no movers.
    """
    if not 0.0 <= prior_stock <= 1.0:
        raise DataError(f"prior stock share out of [0, 1]: {prior_stock}")
    if not 0.0 <= mover_share <= 1.0:
        raise DataError(f"mover share out of [0, 1]: {mover_share}")
    if mover_share == 0.0:
        if stock_delta != 0.0:
            raise InconsistencyError(
                f"stock share changed by {stock_delta} with no movers"
            )
        return prior_stock
    switchers = min(1.0, max(0.0, stock_delta / mover_share))
    return switchers + (1.0 - switchers) * prior_stock


def derive_interest_only_share(
    stock_share: QuarterlySeries,
    transactions: QuarterlySeries,
    households: QuarterlySeries,
    zero_from: int | None = None,
) -> QuarterlySeries:
    """Share of NEW mortgages that are interest-only, from stock data.

    The observed ``stock_share`` covers all outstanding mortgages. Movers in
    a period are ``transactions / households``. A rise in the stock share of
    ``d`` implies ``d / mover_share`` of movers switched into interest-only
    (clamped to [0, 1]); the remaining movers are assumed to renew their
    existing product pro-rata, contributing ``(1 - switchers) * prior stock
    share``. The new-mortgage share is the sum of both groups (see
    :func:`new_mortgage_share` for a worked example).

    ``zero_from`` forces the share to 0 from that quarter number on, for
    regimes where regulation removed the product's capacity advantage.

    Raises:
        InconsistencyError: if the stock share moves in a period with no movers.
    """
    frame = align(
        [stock_share.rename("stock"), transactions.rename("trans"), households.rename("hh")]
    )
    stock, trans, hh = (frame.column(c).array.tolist() for c in ("stock", "trans", "hh"))
    n, i0 = len(frame), frame.start_index
    cut = n if zero_from is None else min(max(zero_from - i0, 0), n)
    out = np.zeros(n)
    out[:cut] = np.nan
    for k in range(1, cut):
        s_now, s_prev, t, h = stock[k], stock[k - 1], trans[k], hh[k]
        if s_now != s_now or s_prev != s_prev or t != t or h != h:  # a missing input
            continue
        # the previous share too: the first quarter's and a skipped quarter's are read only here
        for j, s in ((k - 1, s_prev), (k, s_now)):
            if not 0.0 <= s <= 1.0:
                raise DataError(f"stock share out of [0, 1] at {quarter_label(i0 + j)}: {s}")
        if h <= 0 or t < 0 or t > h:
            raise DataError(
                "transactions must satisfy 0 <= transactions <= households"
                f" at {quarter_label(i0 + k)}"
            )
        try:
            out[k] = new_mortgage_share(t / h, s_now - s_prev, s_prev)
        except InconsistencyError as exc:
            raise InconsistencyError(f"{exc} (at {quarter_label(i0 + k)})") from None
    return QuarterlySeries._from_array(INTEREST_ONLY_SHARE, i0, out, "fraction")
