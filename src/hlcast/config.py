"""Run configuration: one YAML file captures every knob of a pipeline run.

Command-line flags override file values; the effective configuration is
hashed and all outputs land in a directory named by that hash, so runs with
different settings can never silently overwrite each other.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .backtest import (
    DEBT_TO_GDP,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    SHARE_INPUTS,
    SplitSpec,
)
from .errors import ConfigError
from .lti import LtiParams
from .timeseries import Quarter, parse_quarter, write_text

REQUIRED_SERIES = (HOUSE_PRICE, INCOME, INTEREST_RATE, LTV)

DEFAULT_UNITS = {
    HOUSE_PRICE: "eur",
    INCOME: "eur",
    INTEREST_RATE: "fraction",
    LTV: "fraction",
    INTEREST_ONLY_SHARE: "fraction",
    SHARE_INPUTS[0]: "fraction",
    SHARE_INPUTS[1]: "count",
    SHARE_INPUTS[2]: "count",
    DEBT_TO_GDP: "fraction",
}

# Multiplier applied on ingestion; "percent" data becomes a fraction.
UNIT_FACTORS = {
    "eur": 1.0,
    "euros": 1.0,
    "fraction": 1.0,
    "percent": 0.01,
    "count": 1.0,
    "dimensionless": 1.0,
}

DEFAULT_MODELS = ("benchmark", "hlc", "benchmark_hlc")
KNOWN_MODELS = DEFAULT_MODELS + ("benchmark_debt",)


@dataclass(frozen=True)
class SeriesSource:
    """Where one input series lives and how its values are scaled."""

    path: Path
    unit: str

    @property
    def factor(self) -> float:
        return UNIT_FACTORS[self.unit]

    @property
    def stored_unit(self) -> str:
        return "fraction" if self.unit == "percent" else self.unit


@dataclass(frozen=True)
class RunConfig:
    data: dict[str, SeriesSource]
    lti: LtiParams = LtiParams()
    smoothing_window: int = 4
    hlc_lag: int = 6
    interest_only_zero_from: Quarter | None = None
    split: SplitSpec = SplitSpec()
    lag_min: int = 0
    lag_max: int = 6
    forecast_mode: str = "dynamic"
    models: tuple[str, ...] = DEFAULT_MODELS
    output_dir: Path = Path("runs")

    def to_canonical(self) -> dict:
        """Plain-scalar tree: the hashing and round-trip representation."""
        return {
            "data": {
                name: {"path": str(src.path), "unit": src.unit}
                for name, src in sorted(self.data.items())
            },
            "lti": {
                "woonquote": self.lti.woonquote,
                "deduction_rate": self.lti.deduction_rate,
                "cost_rate": self.lti.cost_rate,
                "term_months": self.lti.term_months,
            },
            "features": {
                "smoothing_window": self.smoothing_window,
                "hlc_lag": self.hlc_lag,
                "interest_only_zero_from": (
                    str(self.interest_only_zero_from)
                    if self.interest_only_zero_from
                    else None
                ),
            },
            "split": {
                "cutoff": str(self.split.cutoff),
                "evaluation_window": self.split.evaluation_window,
            },
            "lag_scan": {"min": self.lag_min, "max": self.lag_max},
            "backtest": {
                "forecast_mode": self.forecast_mode,
                "models": list(self.models),
            },
            "output_dir": str(self.output_dir),
        }

    def run_hash(self) -> str:
        blob = json.dumps(self.to_canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]

    def run_dir(self) -> Path:
        return self.output_dir / self.run_hash()

    def save(self, path: str | Path) -> None:
        write_text(path, yaml.safe_dump(self.to_canonical(), sort_keys=False))


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) under {where}: {', '.join(unknown)}")


def _number(node: dict, key: str, default, cast: type, where: str):
    """``node[key]`` (or ``default``) cast to int or float; a ConfigError if it is not one."""
    value = node.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{where}.{key} must be {kind}, got {value!r}") from None


def _parse_quarter_opt(value, where: str) -> Quarter | None:
    if value is None:
        return None
    try:
        return parse_quarter(str(value))
    except Exception as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_lag_range(text: str) -> tuple[int, int]:
    """Parse a ``a..b`` lag range (inclusive)."""
    parts = text.split("..")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"lag range must look like '0..6', got {text!r}") from None
    if lo < 0 or hi < lo:
        raise ConfigError(f"lag range must satisfy 0 <= min <= max, got {text!r}")
    return lo, hi


def load_config(
    path: str | Path,
    out: str | None = None,
    cutoff: str | None = None,
    lags: str | None = None,
) -> RunConfig:
    """Load and validate a YAML run configuration.

    ``out``, ``cutoff`` and ``lags`` are the command-line overrides; any that
    are given replace the file's values before validation. Relative data
    paths resolve against the config file's directory.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    raw = _require_mapping(raw, str(path))
    _reject_unknown(
        raw,
        {"data", "lti", "features", "split", "lag_scan", "backtest", "output_dir"},
        str(path),
    )

    data_node = _require_mapping(raw.get("data"), "data")
    if not data_node:
        raise ConfigError("config must declare input series under 'data'")
    sources: dict[str, SeriesSource] = {}
    for name, entry in data_node.items():
        if isinstance(entry, str):
            entry = {"path": entry}
        entry = _require_mapping(entry, f"data.{name}")
        _reject_unknown(entry, {"path", "unit"}, f"data.{name}")
        if "path" not in entry:
            raise ConfigError(f"data.{name} has no path")
        unit = entry.get("unit", DEFAULT_UNITS.get(name, ""))
        if unit not in UNIT_FACTORS:
            raise ConfigError(
                f"data.{name}: unknown unit {unit!r} "
                f"(expected one of {', '.join(sorted(UNIT_FACTORS))})"
            )
        src_path = Path(entry["path"])
        if not src_path.is_absolute():
            src_path = path.parent / src_path
        sources[name] = SeriesSource(path=src_path, unit=unit)
    missing = [s for s in REQUIRED_SERIES if s not in sources]
    if missing:
        raise ConfigError(f"config is missing required data series: {', '.join(missing)}")
    if INTEREST_ONLY_SHARE not in sources and not all(s in sources for s in SHARE_INPUTS):
        raise ConfigError(
            f"config must provide data.{INTEREST_ONLY_SHARE} or all of "
            f"{', '.join(SHARE_INPUTS)}"
        )
    absent = sorted(str(s.path) for s in sources.values() if not s.path.is_file())
    if absent:
        raise ConfigError(f"data file(s) not found: {', '.join(absent)}")

    lti_node = _require_mapping(raw.get("lti"), "lti")
    _reject_unknown(
        lti_node, {"woonquote", "deduction_rate", "cost_rate", "term_months"}, "lti"
    )
    try:
        lti = LtiParams(
            woonquote=_number(lti_node, "woonquote", 0.30, float, "lti"),
            deduction_rate=_number(lti_node, "deduction_rate", 0.40, float, "lti"),
            cost_rate=_number(lti_node, "cost_rate", 0.025, float, "lti"),
            term_months=_number(lti_node, "term_months", 360, int, "lti"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid lti parameters: {exc}") from None

    feat = _require_mapping(raw.get("features"), "features")
    _reject_unknown(
        feat, {"smoothing_window", "hlc_lag", "interest_only_zero_from"}, "features"
    )
    smoothing = _number(feat, "smoothing_window", 4, int, "features")
    hlc_lag = _number(feat, "hlc_lag", 6, int, "features")
    if smoothing < 1 or hlc_lag < 0:
        raise ConfigError("smoothing_window must be >= 1 and hlc_lag >= 0")
    zero_from = _parse_quarter_opt(
        feat.get("interest_only_zero_from"), "features.interest_only_zero_from"
    )

    split_node = _require_mapping(raw.get("split"), "split")
    _reject_unknown(split_node, {"cutoff", "evaluation_window"}, "split")
    cutoff_text = cutoff if cutoff is not None else split_node.get("cutoff", "2008Q2")
    cutoff_q = _parse_quarter_opt(str(cutoff_text), "split.cutoff")
    window = split_node.get("evaluation_window", "all_quarters")
    try:
        split = SplitSpec(cutoff=cutoff_q, evaluation_window=str(window))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    scan = _require_mapping(raw.get("lag_scan"), "lag_scan")
    _reject_unknown(scan, {"min", "max"}, "lag_scan")
    if lags is not None:
        lag_min, lag_max = parse_lag_range(lags)
    else:
        lag_min = _number(scan, "min", 0, int, "lag_scan")
        lag_max = _number(scan, "max", 6, int, "lag_scan")
        if lag_min < 0 or lag_max < lag_min:
            raise ConfigError("lag_scan must satisfy 0 <= min <= max")

    bt = _require_mapping(raw.get("backtest"), "backtest")
    _reject_unknown(bt, {"forecast_mode", "models"}, "backtest")
    mode = str(bt.get("forecast_mode", "dynamic"))
    if mode not in ("dynamic", "static"):
        raise ConfigError(f"backtest.forecast_mode must be 'dynamic' or 'static', got {mode!r}")
    models = tuple(bt.get("models", list(DEFAULT_MODELS)))
    bad = sorted(set(models) - set(KNOWN_MODELS))
    if bad:
        raise ConfigError(
            f"unknown model(s) in backtest.models: {', '.join(bad)} "
            f"(known: {', '.join(KNOWN_MODELS)})"
        )
    if not models:
        raise ConfigError("backtest.models must not be empty")
    if "benchmark_debt" in models and DEBT_TO_GDP not in sources:
        raise ConfigError(
            f"model 'benchmark_debt' needs a data.{DEBT_TO_GDP} series"
        )

    out_dir = Path(out) if out is not None else Path(raw.get("output_dir", "runs"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir

    return RunConfig(
        data=sources,
        lti=lti,
        smoothing_window=smoothing,
        hlc_lag=hlc_lag,
        interest_only_zero_from=zero_from,
        split=split,
        lag_min=lag_min,
        lag_max=lag_max,
        forecast_mode=mode,
        models=models,
        output_dir=out_dir,
    )
