import math
import re

import numpy as np
import pytest

from hlcast.errors import DataError, DomainError, InconsistencyError, SchemaError
from hlcast.lti import (
    HouseholdInputs,
    LtiParams,
    annuity_factor,
    derive_interest_only_share,
    effective_rate,
    hlc,
    hlc_series,
    max_annuity,
    max_interest_only,
    new_mortgage_share,
)
from hlcast.timeseries import Quarter, QuarterlySeries, align

RATE_GRID = [0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13, 0.15]


def amortization_residual(principal: float, annual_rate: float, payment: float, months: int) -> float:
    """Independent oracle: remaining balance after paying down a mortgage
    month by month."""
    balance = principal
    monthly = annual_rate / 12.0
    for _ in range(months):
        balance = balance * (1.0 + monthly) - payment
    return balance


def series(values, start=Quarter(2000, 1), name="s", unit=""):
    return QuarterlySeries(name=name, start=start, values=tuple(values), unit=unit)


class TestAnnuityFactor:
    @pytest.mark.parametrize("x", RATE_GRID)
    def test_amortizes_exactly_against_schedule_oracle(self, x):
        principal = annuity_factor(x, 360)
        residual = amortization_residual(principal, x, payment=1.0, months=360)
        assert abs(residual) < 1e-9 * principal

    def test_zero_rate_limit(self):
        assert annuity_factor(0.0, 360) == 360.0
        assert annuity_factor(0.0, 240) == 240.0

    def test_known_values(self):
        # Frozen from the amortization oracle above.
        assert annuity_factor(0.05, 360) == pytest.approx(186.28161704607524, rel=1e-12)
        assert annuity_factor(0.12, 360) == pytest.approx(97.2183310790645, rel=1e-12)

    def test_continuity_at_zero(self):
        assert annuity_factor(1e-12, 360) == pytest.approx(360.0, rel=1e-6)

    def test_strictly_decreasing_in_rate(self):
        values = [annuity_factor(x, 360) for x in RATE_GRID]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            annuity_factor(-0.01)

    def test_bad_term_rejected(self):
        with pytest.raises(ValueError):
            annuity_factor(0.05, 0)


class TestCapacityFormulas:
    def test_interest_only_simple_quotient(self):
        p = LtiParams(woonquote=0.25, deduction_rate=0.0, cost_rate=0.02)
        h = HouseholdInputs(10_000.0, 0.08, 1.0)
        assert max_interest_only(h, p) == pytest.approx(100_000.0, rel=1e-14)

    def test_interest_only_hand_value(self):
        # 4 * 17500 * 0.30 / (0.6 * 0.05 + 0.025) = 21000 / 0.055
        h = HouseholdInputs(17_500.0, 0.05, 1.0)
        assert max_interest_only(h, LtiParams()) == pytest.approx(21000.0 / 0.055, rel=1e-14)

    def test_interest_only_linear_in_income(self):
        p = LtiParams()
        lo = max_interest_only(HouseholdInputs(12_345.0, 0.04, 1.0), p)
        hi = max_interest_only(HouseholdInputs(24_690.0, 0.04, 1.0), p)
        assert hi == pytest.approx(2.0 * lo, rel=1e-14)

    def test_interest_only_zero_effective_rate_rejected(self):
        p = LtiParams(cost_rate=0.0)
        with pytest.raises(DomainError):
            max_interest_only(HouseholdInputs(10_000.0, 0.0, 1.0), p)

    def test_reduces_to_income_over_rate(self):
        # With no deduction and no other costs the cap is annual housing
        # income divided by the plain interest rate.
        p = LtiParams(woonquote=0.3, deduction_rate=0.0, cost_rate=0.0)
        h = HouseholdInputs(17_500.0, 0.05, 1.0)
        annual_housing_income = 4.0 * 17_500.0 * 0.3
        assert max_interest_only(h, p) == pytest.approx(annual_housing_income / 0.05, rel=1e-14)

    def test_annuity_zero_rate_limit(self):
        p = LtiParams(deduction_rate=0.0, cost_rate=0.0)
        h = HouseholdInputs(15_000.0, 0.0, 0.0)
        assert max_annuity(h, p) == pytest.approx(120.0 * 15_000.0 * p.woonquote, rel=1e-14)

    def test_annuity_hand_value(self):
        h = HouseholdInputs(17_500.0, 0.05, 0.0)
        expected = 17_500.0 / 3.0 * 0.30 * annuity_factor(0.055, 360)
        assert max_annuity(h, LtiParams()) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("rate", RATE_GRID)
    def test_annuity_below_interest_only(self, rate):
        # Amortization always reduces capacity: f(x) * x / 12 < 1 for x > 0.
        p = LtiParams()
        h = HouseholdInputs(20_000.0, rate, 0.5)
        assert max_annuity(h, p) < max_interest_only(h, p)

    def test_effective_rate(self):
        assert effective_rate(0.05, LtiParams()) == pytest.approx(0.055, rel=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LtiParams(woonquote=0.0)
        with pytest.raises(ValueError):
            LtiParams(deduction_rate=1.0)
        with pytest.raises(ValueError):
            LtiParams(term_months=0)
        with pytest.raises(ValueError):
            HouseholdInputs(0.0, 0.05, 0.2)
        with pytest.raises(ValueError):
            HouseholdInputs(1.0, 0.05, 1.2)


class TestHlc:
    def test_degenerate_weights_exact(self):
        p = LtiParams()
        h0 = HouseholdInputs(17_500.0, 0.05, 0.0)
        h1 = HouseholdInputs(17_500.0, 0.05, 1.0)
        assert hlc(h0, p) == max_annuity(h0, p)
        assert hlc(h1, p) == max_interest_only(h1, p)

    def test_midpoint_within_one_ulp(self):
        p = LtiParams()
        lo = hlc(HouseholdInputs(17_500.0, 0.05, 0.0), p)
        hi = hlc(HouseholdInputs(17_500.0, 0.05, 1.0), p)
        mid = hlc(HouseholdInputs(17_500.0, 0.05, 0.5), p)
        assert abs(mid - (lo + hi) / 2.0) <= math.ulp(hi)

    def test_affine_in_share(self):
        p = LtiParams()
        caps = [hlc(HouseholdInputs(20_000.0, 0.06, m), p) for m in (0.0, 0.25, 0.5, 0.75, 1.0)]
        steps = [b - a for a, b in zip(caps, caps[1:])]
        for s in steps[1:]:
            assert s == pytest.approx(steps[0], rel=1e-12)

    def test_monotone_in_rate_and_income(self):
        p = LtiParams()
        for m in (0.0, 0.4, 1.0):
            rates = np.linspace(0.005, 0.12, 24)
            caps = [hlc(HouseholdInputs(18_000.0, r, m), p) for r in rates]
            assert all(a > b for a, b in zip(caps, caps[1:]))
            incomes = np.linspace(5_000.0, 40_000.0, 24)
            caps = [hlc(HouseholdInputs(i, 0.05, m), p) for i in incomes]
            assert all(a < b for a, b in zip(caps, caps[1:]))


class TestHlcSeries:
    def test_per_quarter_and_missing(self):
        f = align(
            [
                series([17_500.0, 17_500.0, None], name="income"),
                series([0.05, 0.05, 0.05], name="interest_rate"),
                series([0.0, 1.0, 0.5], name="interest_only_share"),
            ]
        )
        p = LtiParams()
        out = hlc_series(f, p)
        assert out.name == "hlc" and out.unit == "eur"
        assert out.values[0] == max_annuity(HouseholdInputs(17_500.0, 0.05, 0.0), p)
        assert out.values[1] == max_interest_only(HouseholdInputs(17_500.0, 0.05, 1.0), p)
        assert out.values[2] is None

    def test_missing_column_is_schema_error(self):
        f = align([series([1.0], name="income")])
        with pytest.raises(SchemaError, match="interest_rate"):
            hlc_series(f, LtiParams())

    def test_matches_scalar_hlc_bit_exact(self):
        rng = np.random.default_rng(11)
        n = 60
        income = [None if rng.random() < 0.1 else float(v) for v in rng.uniform(5e3, 3e4, n)]
        rate = [float(v) for v in rng.uniform(0.0, 0.12, n)]
        rate[5] = 0.0
        share = [float(v) for v in rng.choice([0.0, 1.0, 0.25, 0.6], n)]
        f = align(
            [
                series(income, name="income"),
                series(rate, name="interest_rate"),
                series(share, name="interest_only_share"),
            ]
        )
        p = LtiParams()
        expected = tuple(
            None if i is None else hlc(HouseholdInputs(i, r, m), p)
            for i, r, m in zip(income, rate, share)
        )
        assert hlc_series(f, p).values == expected

    @pytest.mark.parametrize(
        "income,rate,share,params,error",
        [
            (0.0, 0.05, 0.5, LtiParams(), ValueError),
            (1e4, -0.01, 0.5, LtiParams(), ValueError),
            (1e4, 0.05, 1.5, LtiParams(), ValueError),
            (1e4, 0.0, 0.5, LtiParams(cost_rate=0.0), DomainError),
        ],
    )
    def test_invalid_quarter_raises_scalar_error(self, income, rate, share, params, error):
        with pytest.raises(error) as scalar:
            hlc(HouseholdInputs(income, rate, share), params)
        f = align(
            [
                series([1e4, None, income, 0.0], name="income"),
                series([0.05, -1.0, rate, 0.05], name="interest_rate"),
                series([0.5, 0.5, share, 0.5], name="interest_only_share"),
            ]
        )
        # quarter 1 is skipped (missing income); quarter 2 fails before quarter 3;
        # a rejected input value is bad data there; either error is named by
        # column and quarter
        with pytest.raises(DataError if error is ValueError else error) as from_series:
            hlc_series(f, params)
        assert str(from_series.value).endswith(str(scalar.value))
        assert " at 2000Q3: " in str(from_series.value)
        if error is DomainError:
            assert str(from_series.value).startswith("column 'interest_rate' at 2000Q3: ")

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("income", 0.0, "column 'income' at 2000Q2: quarterly_income must be positive"),
            (
                "interest_rate",
                -0.01,
                "column 'interest_rate' at 2000Q2: interest_rate must be >= 0",
            ),
            (
                "interest_only_share",
                1.5,
                "column 'interest_only_share' at 2000Q2: interest_only_share must be in [0, 1]",
            ),
        ],
        ids=["income", "interest_rate", "interest_only_share"],
    )
    def test_invalid_value_names_column_and_quarter(self, column, value, message):
        good = {"income": 1e4, "interest_rate": 0.05, "interest_only_share": 0.5}
        f = align(
            [series([v, value if c == column else v], name=c) for c, v in good.items()]
        )
        with pytest.raises(DataError) as exc:
            hlc_series(f, LtiParams())
        assert str(exc.value).startswith(message)


class TestNewMortgageShare:
    def test_worked_example_exact(self):
        assert new_mortgage_share(0.05, 0.025, 0.40) == 0.70

    def test_no_stock_change_renews_prorata(self):
        for s in (0.0, 0.2, 0.5, 0.9):
            assert new_mortgage_share(0.08, 0.0, s) == s

    def test_clamp_at_full_switching(self):
        assert new_mortgage_share(0.10, 0.10, 0.0) == 1.0
        assert new_mortgage_share(0.10, 0.25, 0.3) == 1.0

    def test_negative_change_clamps_to_renewals(self):
        assert new_mortgage_share(0.05, -0.02, 0.40) == 0.40

    def test_no_movers(self):
        assert new_mortgage_share(0.0, 0.0, 0.35) == 0.35
        with pytest.raises(InconsistencyError):
            new_mortgage_share(0.0, 0.01, 0.35)

    @pytest.mark.parametrize(
        "mover,prior,message",
        [
            (0.05, 1.5, "prior stock share out of [0, 1]: 1.5"),
            (0.05, -0.1, "prior stock share out of [0, 1]: -0.1"),
            (1.5, 0.4, "mover share out of [0, 1]: 1.5"),
            (-0.05, 0.4, "mover share out of [0, 1]: -0.05"),
        ],
    )
    def test_share_outside_unit_interval_is_data_error(self, mover, prior, message):
        with pytest.raises(DataError, match=re.escape(message)):
            new_mortgage_share(mover, 0.0, prior)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            mover = float(rng.uniform(0.001, 0.3))
            prior = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(-0.5, 0.5))
            out = new_mortgage_share(mover, delta, prior)
            assert 0.0 <= out <= 1.0


class TestDeriveInterestOnlyShare:
    def build(self, stock, trans, hh):
        return derive_interest_only_share(
            series(stock, name="stock", unit="fraction"),
            series(trans, name="transactions"),
            series(hh, name="households"),
        )

    def test_worked_example_series(self):
        out = self.build([0.40, 0.425], [50_000.0, 50_000.0], [1_000_000.0, 1_000_000.0])
        assert out.values[0] is None  # no prior stock observation
        assert out.values[1] == pytest.approx(0.70, rel=1e-12)

    def test_first_period_missing(self):
        out = self.build([0.1, 0.1, 0.1], [1.0] * 3, [100.0] * 3)
        assert out.values == (None, 0.1, 0.1)

    def test_inconsistency_raises(self):
        with pytest.raises(InconsistencyError):
            self.build([0.1, 0.2], [0.0, 0.0], [100.0, 100.0])

    def test_transactions_above_households_rejected(self):
        with pytest.raises(DataError):
            self.build([0.1, 0.2], [10.0, 200.0], [100.0, 100.0])

    def test_stock_share_out_of_range_rejected(self):
        with pytest.raises(DataError):
            self.build([0.5, 1.5], [10.0, 10.0], [100.0, 100.0])

    def test_zero_from_forces_zero(self):
        out = derive_interest_only_share(
            series([0.3, 0.35, 0.4, 0.4], name="stock"),
            series([5.0] * 4, name="transactions"),
            series([100.0] * 4, name="households"),
            zero_from=Quarter(2000, 3).index,
        )
        assert out.values[2] == 0.0 and out.values[3] == 0.0
        assert out.values[1] is not None and out.values[1] > 0.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        n = 40
        stock = [None if rng.random() < 0.1 else float(v) for v in rng.uniform(0.2, 0.5, n)]
        trans = [float(v) for v in rng.choice([0.0, 0.0, 3e3, 5e3], n)]
        hh = [1e5] * n
        for k in range(1, n):  # no movers: the stock must not move
            if trans[k] == 0.0 and stock[k] is not None and stock[k - 1] is not None:
                stock[k] = stock[k - 1]
        expected = [None] + [
            None if s is None or prev is None else new_mortgage_share(t / h, s - prev, prev)
            for prev, s, t, h in zip(stock, stock[1:], trans[1:], hh[1:])
        ]
        assert self.build(stock, trans, hh).values == tuple(expected)

    @pytest.mark.parametrize(
        "stock,trans,quarter",
        [
            ([1.5, 0.5, 0.5], [1.0] * 3, "2000Q1"),  # the first quarter
            ([0.5, 0.5, 1.5, 0.5], [1.0, 1.0, None, 1.0], "2000Q3"),  # before a skipped one
        ],
    )
    def test_prior_stock_share_named_by_quarter(self, stock, trans, quarter):
        # a share read only as the previous quarter's is rejected at its quarter
        with pytest.raises(DataError, match=rf"^stock share out of \[0, 1\] at {quarter}: 1.5$"):
            self.build(stock, trans, [100.0] * len(stock))

    def test_first_bad_quarter_reported(self):
        with pytest.raises(DataError, match="2000Q3"):
            self.build([0.1, 0.1, 1.5, 0.1], [1.0, 1.0, 1.0, 200.0], [100.0] * 4)

    def test_bad_quarters_after_zero_from_ignored(self):
        out = derive_interest_only_share(
            series([0.1, 0.1, 1.5], name="stock"),
            series([1.0, 1.0, 500.0], name="transactions"),
            series([100.0] * 3, name="households"),
            zero_from=Quarter(2000, 3).index,
        )
        assert out.values == (None, 0.1, 0.0)

    def test_output_unit_and_name(self):
        out = self.build([0.1, 0.1], [1.0, 1.0], [10.0, 10.0])
        assert out.name == "interest_only_share"
        assert out.unit == "fraction"
