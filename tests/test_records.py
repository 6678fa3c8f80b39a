"""The immutable records behave as values.

Each field is read-only; records of one class with equal fields compare
equal and hash alike, copy to an equal record, and print as
``Name(field=value, ...)``. ``Quarter`` also orders chronologically and
refuses to compare with anything that is not a ``Quarter``.
"""

import copy
import operator
from pathlib import Path

import pytest

from hlcast.backtest import Metrics, ModelSpec
from hlcast.config import RunConfig, SeriesSource
from hlcast.lti import HouseholdInputs
from hlcast.regress import LagScanEntry, Term
from hlcast.spec import LtiParams, SplitSpec
from hlcast.synthetic import GeneratedData, ScenarioConfig
from hlcast.timeseries import Frame, Quarter

FRAME = Frame(Quarter(2000, 1).index)

# (build one record, a field of it, its repr or None where not pinned)
RECORDS = [
    (lambda: Quarter(2008, 2), "year", "Quarter(year=2008, quarter=2)"),
    (
        LtiParams,
        "woonquote",
        "LtiParams(woonquote=0.3, deduction_rate=0.4, cost_rate=0.025, term_months=360)",
    ),
    (
        SplitSpec,
        "cutoff",
        "SplitSpec(cutoff=Quarter(year=2008, quarter=2), evaluation_window='all_quarters')",
    ),
    (lambda: ModelSpec("hlc"), "approach", "ModelSpec(name='hlc', approach='ols', hlc_lag=6)"),
    (lambda: Metrics(1.0, 2.0, 3), "rmse", "Metrics(rmse=1.0, mae=2.0, n_evaluated=3)"),
    (lambda: SeriesSource(Path("ltv.csv"), "fraction"), "unit", None),
    (lambda: RunConfig({}, {"lag_scan": {"min": 0, "max": 6}}), "settings", None),
    (lambda: HouseholdInputs(9000.0, 0.04, 0.5), "interest_rate", None),
    (lambda: Term("hlc_lag6", "hlc", 6), "lag", None),
    (lambda: LagScanEntry(6, 0.9, 80), "r_squared", None),
    (ScenarioConfig, "seed", None),
    (lambda: GeneratedData(FRAME, 15000.0, 0.7, 6, LtiParams()), "price_slope", None),
]


@pytest.mark.parametrize(
    "build,field,text", RECORDS, ids=[type(build()).__name__ for build, _, _ in RECORDS]
)
def test_record_is_a_value(build, field, text):
    a, b = build(), build()
    assert a is not b and a == b and copy.copy(a) == a
    if not isinstance(a, (RunConfig, GeneratedData)):  # dict and Frame fields do not hash
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    if text is not None:
        assert repr(a) == text


def test_quarter_is_unordered_and_equals_only_a_quarter():
    # quarter arithmetic and ordering are integer operations on .index
    for other in [(2008, 2), Quarter(2008, 2).index, "2008Q2", Quarter(2008, 3)]:
        assert Quarter(2008, 2) != other
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(Quarter(2008, 2), other)
