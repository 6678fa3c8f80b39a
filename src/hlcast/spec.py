"""The names and settings that more than one layer reads, stated once.

Column names of the feature frame, the grid's model forms, the paper's
feature settings, and the parameter records of the lending-capacity engine
and the out-of-sample split. This module sits below every layer: it imports
nothing from hlcast but :class:`~hlcast.timeseries.Quarter`, so ``config``
and ``synthetic`` read these names without loading the backtest or
regression code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timeseries import Quarter

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


@dataclass(frozen=True)
class LtiParams:
    """Constants governing the lending-capacity computation.

    Defaults: 30% of income available for housing (middle of the regulated
    21-40% range), interest deducted at the 40% bracket, other annual costs
    2.5% of home value, and a 30-year (360-month) term.
    """

    woonquote: float = 0.30
    deduction_rate: float = 0.40
    cost_rate: float = 0.025
    term_months: int = 360

    def __post_init__(self) -> None:
        if not 0.0 < self.woonquote < 1.0:
            raise ValueError(f"woonquote must be in (0, 1), got {self.woonquote}")
        if not 0.0 <= self.deduction_rate < 1.0:
            raise ValueError(f"deduction_rate must be in [0, 1), got {self.deduction_rate}")
        if not 0.0 <= self.cost_rate < 1.0:
            raise ValueError(f"cost_rate must be in [0, 1), got {self.cost_rate}")
        if self.term_months <= 0:
            raise ValueError(f"term_months must be positive, got {self.term_months}")


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
