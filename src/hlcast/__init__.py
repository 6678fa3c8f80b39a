"""Household lending capacity and house-price forecasting toolkit."""

from .backtest import (
    BacktestReport,
    Metrics,
    ModelSpec,
    Regressor,
    SplitSpec,
    build_features,
    default_specs,
    emit_plot_data,
    evaluate,
    run_grid,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    HlcastError,
    InconsistencyError,
    InsufficientDataError,
    NumericalError,
    ParseError,
    SchemaError,
    SingularDesignError,
)
from .lti import (
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
from .regress import (
    DesignMatrix,
    EcmFit,
    FitResult,
    LagScanResult,
    design_matrix,
    ecm_design,
    ecm_fit,
    ecm_forecast,
    lag_scan,
    ols_fit,
    predict,
)
from .synthetic import GeneratedData, ScenarioConfig, generate
from .timeseries import (
    Frame,
    Quarter,
    QuarterlySeries,
    align,
    parse_quarter,
    read_frame_csv,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
)

__version__ = "0.1.0"
