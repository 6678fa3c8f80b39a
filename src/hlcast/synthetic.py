"""Deterministic generator of pipeline-shaped test datasets.

Produces a boom-bust price path driven by lending capacity: rates fall over
the sample, income grows with a year-end bonus season, the interest-only
share ramps up and is then shut off by regulation, and the house price is an
affine function of capacity lagged six quarters plus bounded seeded noise.
The generating coefficients are returned so tests can check that the full
pipeline identifies them. Shapes are qualitative calibration for testing,
not economic claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backtest import HOUSE_PRICE, INCOME, INTEREST_ONLY_SHARE, INTEREST_RATE, LTV
from .lti import LtiParams, hlc_series
from .timeseries import Frame, Quarter, QuarterlySeries, align

DEFAULT_HLC_LAG = 6
SMOOTHING_WINDOW = 4

# Affine map from lagged lending capacity to the generated price level.
PRICE_INTERCEPT = 15_000.0
PRICE_SLOPE = 0.7


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the generated scenario.

    ``n_quarters`` defaults to the real sample length; ``noise_scale`` is
    the half-width of the bounded price noise as a fraction of the mean
    price level. ``regime_change`` is the quarter from which the
    interest-only share is forced to zero.
    """

    seed: int = 0
    n_quarters: int = 92
    noise_scale: float = 0.01
    start: Quarter = Quarter(1995, 1)
    regime_change: Quarter = Quarter(2011, 1)

    def __post_init__(self) -> None:
        if self.n_quarters < 40:
            raise ValueError(
                f"n_quarters must be >= 40 to span the lags and both regimes, "
                f"got {self.n_quarters}"
            )
        if not 0.0 <= self.noise_scale <= 0.2:
            raise ValueError(f"noise_scale must be in [0, 0.2], got {self.noise_scale}")


@dataclass(frozen=True)
class GeneratedData:
    """A generated frame plus the coefficients that produced its prices."""

    frame: Frame
    price_intercept: float
    price_slope: float
    hlc_lag: int
    params: LtiParams

    def truth(self) -> dict:
        return {
            "price_intercept": self.price_intercept,
            "price_slope": self.price_slope,
            "hlc_lag": self.hlc_lag,
        }


def generate(config: ScenarioConfig = ScenarioConfig()) -> GeneratedData:
    """Build the scenario frame for a seed; same seed, same bytes.

    The price at t is ``intercept + slope * hlc[t - 6]`` where capacity is
    computed from the trailing-4 smoothed income and rate exactly as the
    feature pipeline computes it, so a noiseless run is identified exactly.
    Quarters whose lagged capacity is not yet defined get a flat lead-in
    price instead.
    """
    n = config.n_quarters
    rng = np.random.default_rng(config.seed)
    # One draw block per series, in a fixed order, so shapes stay stable.
    eps_income = rng.uniform(-1.0, 1.0, n)
    eps_rate = rng.uniform(-1.0, 1.0, n)
    eps_share = rng.uniform(-1.0, 1.0, n)
    eps_ltv = rng.uniform(-1.0, 1.0, n)
    eps_price = rng.uniform(-1.0, 1.0, n)

    t = np.arange(n)
    u = t / (n - 1)
    quarters = [config.start + int(i) for i in t]
    rc = config.regime_change - config.start

    season = np.array([1.04 if q.quarter == 4 else (2.96 / 3.0) for q in quarters])
    income = 11_200.0 * 1.0088**t * season * (1.0 + 0.004 * eps_income)

    rate = 0.03 + 0.052 * (1.0 - u) ** 1.3 + 0.0018 * np.sin(t / 3.0) + 0.0012 * eps_rate

    ramp_start = 8
    share = 0.451 / (1.0 + np.exp(-(t - ramp_start - 22.0) / 5.0))
    share = share * (1.0 + 0.01 * eps_share)
    share = np.clip(share, 0.0, 0.463)
    share[t < ramp_start] = 0.0
    share[t >= rc] = 0.0

    ltv = np.where(
        t < rc,
        0.995 + 0.040 * t / max(rc, 1),
        np.maximum(0.995, 0.995 + 0.040 - 0.002 * (t - rc)),
    )
    ltv = np.clip(ltv + 0.0015 * eps_ltv, 0.97, 1.039)

    def series(name: str, values: np.ndarray, unit: str) -> QuarterlySeries:
        return QuarterlySeries(name=name, start=config.start, values=values, unit=unit)

    income_s = series(INCOME, income, "eur")
    rate_s = series(INTEREST_RATE, rate, "fraction")
    share_s = series(INTEREST_ONLY_SHARE, share, "fraction")
    ltv_s = series(LTV, ltv, "fraction")

    params = LtiParams()
    smoothed = align(
        [income_s.trailing_mean(SMOOTHING_WINDOW), rate_s.trailing_mean(SMOOTHING_WINDOW), share_s]
    )
    lagged_cap = hlc_series(smoothed, params).lag(DEFAULT_HLC_LAG)

    deterministic = PRICE_INTERCEPT + PRICE_SLOPE * lagged_cap.array
    first = int(np.flatnonzero(~np.isnan(deterministic))[0])
    mean_level = float(np.mean(deterministic[~np.isnan(deterministic)]))
    base = np.where(np.arange(n) < first, deterministic[first], deterministic)
    price = base + config.noise_scale * mean_level * eps_price

    frame = align(
        [series(HOUSE_PRICE, price, "eur"), income_s, rate_s, ltv_s, share_s]
    )
    return GeneratedData(
        frame=frame,
        price_intercept=PRICE_INTERCEPT,
        price_slope=PRICE_SLOPE,
        hlc_lag=DEFAULT_HLC_LAG,
        params=params,
    )
