"""The names and settings that more than one layer reads, stated once.

Column names of the feature frame, the grid's model forms, the paper's
feature settings, and the parameter records of the lending-capacity engine
and the out-of-sample split. This module sits below every layer: it imports
nothing from hlcast but :class:`~hlcast.timeseries.Quarter`, its ``Record``
base and :func:`~hlcast.errors.quote`, so ``config`` and ``synthetic`` read
these names without loading the backtest or regression code.
"""

from __future__ import annotations

from .errors import quote
from .timeseries import Quarter, Record

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

# The paper's feature settings: income and rates are smoothed with a trailing
# mean over a year, and lending capacity enters the level models at lag 6.
SMOOTHING_WINDOW = 4
HLC_LAG = 6

# The grid's model forms in grid order, the paper's three first:
# name -> (report label, regressor columns). The debt-ratio variant, which the
# paper sets lending capacity against, needs a debt_to_gdp series. Capacity
# columns enter at the capacity lags, the others unlagged.
_BENCHMARK = (INCOME, INTEREST_RATE, LTV)
MODELS = {
    "benchmark": ("Benchmark", _BENCHMARK),
    "hlc": ("Lending capacity", (HLC,)),
    "benchmark_hlc": ("Benchmark + lending capacity", (*_BENCHMARK, HLC_INCOME_RATIO)),
    "benchmark_debt": ("Benchmark + debt ratio", (*_BENCHMARK, DEBT_TO_GDP)),
}
PAPER_MODELS = tuple(MODELS)[:3]


class LtiParams(Record):
    """Constants governing the lending-capacity computation.

    Defaults: 30% of income available for housing (middle of the regulated
    21-40% range), interest deducted at the 40% bracket, other annual costs
    2.5% of home value, and a 30-year (360-month) term.
    """

    __slots__ = ("woonquote", "deduction_rate", "cost_rate", "term_months")

    def __init__(
        self,
        woonquote: float = 0.30,
        deduction_rate: float = 0.40,
        cost_rate: float = 0.025,
        term_months: int = 360,
    ) -> None:
        if not 0.0 < woonquote < 1.0:
            raise ValueError(f"woonquote must be in (0, 1), got {woonquote}")
        if not 0.0 <= deduction_rate < 1.0:
            raise ValueError(f"deduction_rate must be in [0, 1), got {deduction_rate}")
        if not 0.0 <= cost_rate < 1.0:
            raise ValueError(f"cost_rate must be in [0, 1), got {cost_rate}")
        if not 0 < term_months <= 1200:  # at most a 100-year term
            raise ValueError(f"term_months must be in 1..1200, got {term_months}")
        self._set(woonquote, deduction_rate, cost_rate, term_months)


class SplitSpec(Record):
    """Out-of-sample split: truncated fits use quarters up to ``cutoff``."""

    __slots__ = ("cutoff", "evaluation_window")

    def __init__(
        self, cutoff: Quarter = Quarter(2008, 2), evaluation_window: str = "all_quarters"
    ) -> None:
        if evaluation_window not in ("all_quarters", "holdout_only"):
            raise ValueError(
                f"evaluation_window must be 'all_quarters' or 'holdout_only', "
                f"got {quote(evaluation_window)}"
            )
        self._set(cutoff, evaluation_window)
