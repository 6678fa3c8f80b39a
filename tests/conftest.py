import os
from pathlib import Path

import numpy as np
import pytest

from hlcast.backtest import build_features
from hlcast.cli import main
from hlcast.lti import LtiParams
from hlcast.regress import DesignMatrix, Term
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Quarter

REAL_DATA_ENV = "HLCAST_REAL_DATA"
REAL_SERIES = ("house_price", "income", "interest_rate", "ltv", "interest_only_share")


@pytest.fixture(scope="session")
def scenario():
    return generate(ScenarioConfig(seed=7))


@pytest.fixture(scope="session")
def features(scenario):
    return build_features(scenario.frame, LtiParams())


@pytest.fixture()
def cli(capsys):
    """Run ``hlcast <args>`` in-process; returns (exit code, stdout, stderr)."""

    def invoke(args: list[str]) -> tuple[int, str, str]:
        capsys.readouterr()
        try:
            main(args, prog_name="hlcast")
        except SystemExit as exc:
            out, err = capsys.readouterr()
            return exc.code, out, err
        raise AssertionError("main returned without SystemExit")

    return invoke


def real_data_dir() -> Path | None:
    """Directory with user-supplied CBS/DNB series, if configured.

    Expected layout: one CSV per series named ``<series>.csv`` with header
    ``quarter,value``, values already in canonical units (euros; rates,
    loan-to-value, and shares as fractions).
    """
    root = os.environ.get(REAL_DATA_ENV)
    if not root:
        return None
    path = Path(root)
    if all((path / f"{name}.csv").is_file() for name in REAL_SERIES):
        return path
    return None


def _beta(fit) -> np.ndarray:
    return np.array([fit.coefficients[name] for name in fit.design.names])


def fitted_by_quarter(fit) -> dict:
    """An OLS fit's fitted values, ``design.matrix @ beta``, by each design row's quarter."""
    d = fit.design
    fitted = (d.matrix @ _beta(fit)).tolist()
    return {Quarter.from_index(r): v for r, v in zip(d.rows.tolist(), fitted)}


def residuals(fit) -> np.ndarray:
    """An OLS fit's residuals, ``design.response - design.matrix @ beta``, one per design row."""
    return fit.design.response - fit.design.matrix @ _beta(fit)


def design_from_arrays(y, x, names=None) -> DesignMatrix:
    """Wrap raw arrays as a design, prepending the all-ones intercept column.

    ``x`` is one regressor per column (a vector is one column); the columns
    are named ``names`` or ``x0, x1, ...``, each its own zero-lag term.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and len(y) != 1:
        x = x.T
    names = [f"x{j}" for j in range(x.shape[1])] if names is None else list(names)
    return DesignMatrix(
        response=np.asarray(y, dtype=float),
        matrix=np.column_stack([np.ones(x.shape[0]), x]),
        rows=Quarter(2000, 1).index + np.arange(x.shape[0]),
        response_name="y",
        terms=tuple(Term(n, n) for n in names),
    )
