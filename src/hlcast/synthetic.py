"""Deterministic generator of pipeline-shaped test datasets.

Produces a rising price path driven by lending capacity: rates fall over
the sample, income grows with a year-end bonus season, the interest-only
share ramps up and is then shut off by regulation in 2011Q1, and the house
price is an affine function of capacity lagged six quarters plus bounded
seeded noise. The price is a trend with one step down where the cut reaches
it, six quarters after 2011Q1; it has no bust. The generating coefficients
are returned so tests can check that the full pipeline identifies them.
Shapes are qualitative calibration for testing, not economic claims.

The noise is numpy's ``default_rng(seed).uniform(-1.0, 1.0, n)``, five
blocks in turn, re-derived bit for bit by :func:`_uniform_blocks` so that
nothing here imports ``numpy.random``.
"""

from __future__ import annotations

from ._numpy import np
from .backtest import build_features
from .errors import Record, _integer
from .spec import (
    HLC, HLC_LAG, HOUSE_PRICE, INCOME, INTEREST_ONLY_SHARE, INTEREST_RATE, LTV, LtiParams
)
from .timeseries import LABELLED, Frame, QuarterlySeries, align

# Affine map from lagged lending capacity to the generated price level.
PRICE_INTERCEPT = 15_000.0
PRICE_SLOPE = 0.7

# The quarter numbers of the first generated quarter, 1995Q1, and of the
# quarter from which regulation forces the interest-only share to zero, 2011Q1.
START = 1995 * 4
REGIME_CHANGE = 2011 * 4


class ScenarioConfig(Record):
    """Knobs of the generated scenario.

    ``n_quarters`` defaults to the real sample length; ``noise_scale`` is
    the half-width of the bounded price noise as a fraction of the mean
    price level.
    """

    __slots__ = ("seed", "n_quarters", "noise_scale")

    def __init__(self, seed: int = 0, n_quarters: int = 92, noise_scale: float = 0.01) -> None:
        seed = _integer("seed", seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if n_quarters < REGIME_CHANGE - START + 1:  # so the default cutoff, 2008Q2, lies inside
            raise ValueError(
                f"n_quarters must be >= {REGIME_CHANGE - START + 1} to reach the "
                f"interest-only cut in 2011Q1, got {n_quarters}"
            )
        if not 0.0 <= noise_scale <= 0.2:
            raise ValueError(f"noise_scale must be in [0, 0.2], got {noise_scale}")
        if START + n_quarters > LABELLED:  # the last quarter has a label: 9999Q4 at the latest
            raise ValueError(f"year must be in 0..9999, got {(START + n_quarters - 1) // 4}")
        self._set(seed, n_quarters, noise_scale)


# The word sizes numpy's C computes the stream in, and PCG64's multiplier.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """SeedSequence's ``hashmix``: each call advances the hash constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * multiplier) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two pool words."""
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ (result >> 16)


def _uniform_blocks(seed: int, blocks: int, n: int) -> np.ndarray:
    """Rows of ``rng.uniform(-1.0, 1.0, n)``, drawn ``blocks`` times in turn from
    ``rng = np.random.default_rng(seed)``, bit for bit, without importing
    ``numpy.random`` (which loads OpenSSL through ``secrets``).

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four,
    from which PCG64 takes its 128-bit state and stream; each draw steps the
    XSL-RR generator (O'Neill, 2014) and maps its top 53 bits into [-1, 1).
    """
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words from the pool, paired little-endian
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state_words = [hashmix(pool[i % 4]) for i in range(8)]
    high, low, seq_high, seq_low = (
        state_words[i] | state_words[i + 1] << 32 for i in range(0, 8, 2)
    )
    # pcg_setseq_128_srandom_r: from state 0, step, add the seed state, step
    inc = (((seq_high << 64 | seq_low) << 1) | 1) & _MASK128
    state = ((inc + (high << 64 | low)) * _PCG64_MULTIPLIER + inc) & _MASK128
    draws = []
    for _ in range(blocks * n):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        draws.append(((x >> rot) | (x << (64 - rot))) & _MASK64)
    # a double from the top 53 bits; 2.0 * d is exact, so the sum rounds once,
    # as numpy's C does with or without FMA
    doubles = (np.array(draws, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    return (-1.0 + 2.0 * doubles).reshape(blocks, n)


class GeneratedData(Record):
    """A generated frame plus the coefficients that produced its prices."""

    __slots__ = ("frame", "price_intercept", "price_slope", "hlc_lag", "params")

    def __init__(
        self, frame: Frame, price_intercept: float, price_slope: float, hlc_lag: int,
        params: LtiParams,
    ) -> None:
        self._set(frame, price_intercept, price_slope, hlc_lag, params)

    def truth(self) -> dict:
        return {
            "price_intercept": self.price_intercept,
            "price_slope": self.price_slope,
            "hlc_lag": self.hlc_lag,
        }


def generate(config: ScenarioConfig = ScenarioConfig()) -> GeneratedData:
    """Build the scenario frame for a seed; same seed, same bytes.

    The price at t is ``intercept + slope * hlc[t - HLC_LAG]`` where capacity
    is the one :func:`~hlcast.backtest.build_features` derives from the
    generated inputs, so a noiseless run is identified exactly.
    Quarters whose lagged capacity is not yet defined get a flat lead-in
    price instead.
    """
    n = config.n_quarters
    # One draw block per series, in a fixed order, so shapes stay stable.
    eps_income, eps_rate, eps_share, eps_ltv, eps_price = _uniform_blocks(config.seed, 5, n)

    t = np.arange(n)
    u = t / (n - 1)
    rc = REGIME_CHANGE - START

    season = np.where((START + t) % 4 == 3, 1.04, 2.96 / 3.0)
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
        return QuarterlySeries._from_array(name, START, values, unit)

    income_s = series(INCOME, income, "eur")
    rate_s = series(INTEREST_RATE, rate, "fraction")
    share_s = series(INTEREST_ONLY_SHARE, share, "fraction")
    ltv_s = series(LTV, ltv, "fraction")

    params = LtiParams()
    # capacity never reads the price, which is not generated yet
    missing = series(HOUSE_PRICE, np.full(n, np.nan), "eur")
    inputs = align([missing, income_s, rate_s, ltv_s, share_s])
    lagged_cap = build_features(inputs, params).column(HLC).lag(HLC_LAG)

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
        hlc_lag=HLC_LAG,
        params=params,
    )
