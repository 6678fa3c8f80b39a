"""Run configuration: one YAML file captures every knob of a pipeline run.

Command-line flags override file values. A run's outputs land in a
directory named by the hash of the effective settings, each input's unit
and bytes and the hlcast version, so runs of different settings or data
never overwrite each other, and a run directory never holds results of
data that has since changed. File paths are not hashed: a workspace keeps
its run directories wherever it lies and whichever directory the command
runs from.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import yaml

from . import __version__
from .errors import ConfigError, DataError, ParseError
from .spec import (
    DEBT_TO_GDP,
    HLC_LAG,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    MODELS,
    PAPER_MODELS,
    SHARE_INPUTS,
    SMOOTHING_WINDOW,
    LtiParams,
    SplitSpec,
)
from .timeseries import Quarter, Record, parse_quarter, write_text

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

# libyaml's parser when PyYAML was built with it: ~8x faster on a run config
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The deepest collection a config may nest: a valid one nests 3 deep (the
# items of backtest.models). Composing a document recurses once per level:
# PyYAML's Python composer meets the recursion limit near 1,000 levels, and
# libyaml's overflows the C stack (a segfault) near 20,000.
MAX_DEPTH = 32

# Every config key outside ``data``, by section, with its default: the one
# statement of the defaults. The type of a default picks its key's check
# (``_checked``); ``None`` marks an optional quarter.
DEFAULTS = {
    "lti": dict(zip(LtiParams.__slots__, LtiParams()._values())),
    "features": {
        "smoothing_window": SMOOTHING_WINDOW, "hlc_lag": HLC_LAG, "interest_only_zero_from": None
    },
    "split": dict(zip(SplitSpec.__slots__, SplitSpec()._values())),
    "lag_scan": {"min": 0, "max": 6},
    "backtest": {"forecast_mode": "dynamic", "models": list(PAPER_MODELS)},
    "output_dir": "runs",
}


class SeriesSource(Record):
    """Where one input series lives and how its values are scaled."""

    __slots__ = ("path", "unit")

    def __init__(self, path: Path, unit: str) -> None:
        self._set(path, unit)

    @property
    def factor(self) -> float:
        return UNIT_FACTORS[self.unit]


def _setting(section: str, key: str) -> property:
    return property(lambda self: self.settings[section][key])


class RunConfig(Record):
    """The input series plus ``settings``: every key of ``DEFAULTS`` in the
    canonical form ``checked_settings`` gives, read through typed attributes."""

    __slots__ = ("data", "settings")

    def __init__(self, data: dict[str, SeriesSource], settings: dict) -> None:
        self._set(data, settings)

    smoothing_window = _setting("features", "smoothing_window")
    hlc_lag = _setting("features", "hlc_lag")
    lag_min = _setting("lag_scan", "min")
    lag_max = _setting("lag_scan", "max")
    forecast_mode = _setting("backtest", "forecast_mode")

    @property
    def lti(self) -> LtiParams:
        return LtiParams(**self.settings["lti"])

    @property
    def interest_only_zero_from(self) -> Quarter | None:
        zero_from = self.settings["features"]["interest_only_zero_from"]
        return None if zero_from is None else parse_quarter(zero_from)

    @property
    def split(self) -> SplitSpec:
        split = self.settings["split"]
        return SplitSpec(parse_quarter(split["cutoff"]), split["evaluation_window"])

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(self.settings["backtest"]["models"])

    @property
    def output_dir(self) -> Path:
        return Path(self.settings["output_dir"])

    def to_canonical(self) -> dict:
        """Plain-scalar tree: the hashing and round-trip representation."""
        data = {
            name: {"path": str(src.path), "unit": src.unit}
            for name, src in sorted(self.data.items())
        }
        return {"data": data, **copy.deepcopy(self.settings)}

    def run_hash(self) -> str:
        """Hash of the config without its paths, each input's bytes and the hlcast version."""
        settings = {k: v for k, v in self.settings.items() if k != "output_dir"}
        units = {name: src.unit for name, src in self.data.items()}
        h = hashlib.sha256(json.dumps({"data": units, **settings}, sort_keys=True).encode("utf-8"))
        for _, src in sorted(self.data.items()):
            try:
                h.update(hashlib.sha256(src.path.read_bytes()).digest())
            except OSError as exc:
                raise DataError(f"cannot read {src.path}: {exc}") from None
        h.update(__version__.encode("utf-8"))
        return h.hexdigest()[:12]

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


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) under {where}: {', '.join(unknown)}")


def _string(value, key: str) -> str:
    """``value`` if it is a string; a ConfigError naming ``key`` otherwise."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _checked(where: str, value):
    """``value`` of the key ``where`` (``section.key``, or a top-level key) in
    canonical form; a ConfigError if it is not of the kind of the key's default.

    An int or float key takes a number that is no bool, and an int key no
    fraction; a quarter key takes a quarter label and keeps it as ``YYYYQn``;
    a list key takes a list of strings; a string key a string.
    """
    section, _, key = where.partition(".")
    default = DEFAULTS[section][key] if key else DEFAULTS[section]
    if default is None or isinstance(default, Quarter):
        if value is None and default is None:
            return None
        try:
            return str(parse_quarter(str(value)))
        except ParseError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if isinstance(default, (int, float)):
        cast = type(default)
        fractional = cast is int and isinstance(value, float) and not value.is_integer()
        try:
            if isinstance(value, bool) or fractional:
                raise TypeError
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if cast is int else "a number"
            raise ConfigError(f"{where} must be {kind}, got {value!r}") from None
    if isinstance(default, list):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where} must be a list of strings, got {value!r}")
        return list(value)
    return _string(value, where)


def checked_settings(raw: dict) -> dict:
    """Every key of ``DEFAULTS``, from ``raw`` where it sets one, through ``_checked``."""
    settings = {}
    for section, default in DEFAULTS.items():
        if not isinstance(default, dict):
            settings[section] = _checked(section, raw.get(section, default))
            continue
        node = _require_mapping(raw.get(section), section)
        _reject_unknown(node, default, section)
        settings[section] = {
            key: _checked(f"{section}.{key}", node.get(key, d)) for key, d in default.items()
        }
    return settings


def _check_values(settings: dict, sources: dict[str, SeriesSource]) -> None:
    """The value and cross-key rules that a key's type does not settle."""
    try:
        LtiParams(**settings["lti"])
    except ValueError as exc:
        raise ConfigError(f"invalid lti parameters: {exc}") from None
    features, scan = settings["features"], settings["lag_scan"]
    if features["smoothing_window"] < 1 or features["hlc_lag"] < 0:
        raise ConfigError("smoothing_window must be >= 1 and hlc_lag >= 0")
    try:
        SplitSpec(evaluation_window=settings["split"]["evaluation_window"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 0 <= scan["min"] <= scan["max"]:
        raise ConfigError("lag_scan must satisfy 0 <= min <= max")
    mode, models = settings["backtest"]["forecast_mode"], settings["backtest"]["models"]
    if mode not in ("dynamic", "static"):
        raise ConfigError(f"backtest.forecast_mode must be 'dynamic' or 'static', got {mode!r}")
    bad = sorted(set(models) - set(MODELS))
    if bad:
        raise ConfigError(
            f"unknown model(s) in backtest.models: {', '.join(bad)} "
            f"(known: {', '.join(MODELS)})"
        )
    if not models:
        raise ConfigError("backtest.models must not be empty")
    twice = sorted({m for m in models if models.count(m) > 1})
    if twice:
        raise ConfigError(f"backtest.models names {', '.join(twice)} more than once")
    if "benchmark_debt" in models and DEBT_TO_GDP not in sources:
        raise ConfigError(f"model 'benchmark_debt' needs a data.{DEBT_TO_GDP} series")


def _sources(node, base: Path) -> dict[str, SeriesSource]:
    """The ``data`` section; relative paths resolve against ``base``."""
    node = _require_mapping(node, "data")
    if not node:
        raise ConfigError("config must declare input series under 'data'")
    sources: dict[str, SeriesSource] = {}
    for name, entry in node.items():
        _string(name, "a data series name")
        if isinstance(entry, str):
            entry = {"path": entry}
        entry = _require_mapping(entry, f"data.{name}")
        _reject_unknown(entry, {"path", "unit"}, f"data.{name}")
        if "path" not in entry:
            raise ConfigError(f"data.{name} has no path")
        unit = _string(entry.get("unit", DEFAULT_UNITS.get(name, "")), f"data.{name}.unit")
        if unit not in UNIT_FACTORS:
            raise ConfigError(
                f"data.{name}: unknown unit {unit!r} "
                f"(expected one of {', '.join(sorted(UNIT_FACTORS))})"
            )
        sources[name] = SeriesSource(base / _string(entry["path"], f"data.{name}.path"), unit)
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
    return sources


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


def _parse_yaml(text: str, path: Path):
    """The document in ``text``, after a walk over its parse events has found
    no collection nested deeper than ``MAX_DEPTH``."""
    depth = 0
    for event in yaml.parse(text, Loader=_YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_DEPTH:
                raise ConfigError(f"config {path} nests deeper than {MAX_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return yaml.load(text, Loader=_YAML_LOADER)


def load_config(
    path: str | Path,
    out: str | None = None,
    cutoff: str | None = None,
    lags: str | None = None,
) -> RunConfig:
    """Load and validate a YAML run configuration.

    ``out``, ``cutoff`` and ``lags`` are the command-line overrides; any that
    are given replace the file's values once those have passed every check,
    and go through the same per-key checks. Relative data paths and
    ``output_dir`` resolve against the config file's directory.
    """
    path = Path(path)
    try:
        raw = _parse_yaml(path.read_text(encoding="utf-8"), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    except ValueError as exc:  # a scalar PyYAML cannot construct: a huge int, a bad date
        raise ConfigError(f"config {path} holds a value that cannot be read: {exc}") from None
    raw = _require_mapping(raw, str(path))
    _reject_unknown(raw, {"data", *DEFAULTS}, str(path))
    sources = _sources(raw.get("data"), path.parent)
    settings = checked_settings(raw)
    _check_values(settings, sources)
    # a flag replaces a file value only after the file has passed every check
    if out is not None:
        settings["output_dir"] = _checked("output_dir", out)
    if cutoff is not None:
        settings["split"]["cutoff"] = _checked("split.cutoff", cutoff)
    if lags is not None:
        settings["lag_scan"]["min"], settings["lag_scan"]["max"] = parse_lag_range(lags)
    settings["output_dir"] = str(path.parent / settings["output_dir"])
    return RunConfig(sources, settings)
