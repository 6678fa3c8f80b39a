"""Run configuration: one YAML file captures every knob of a pipeline run.

Command-line flags override file values. A run's outputs land in a
directory named by the hash of the effective settings, each input's unit
and bytes and the hlcast version, so runs of different settings or data
never overwrite each other, and a run directory never holds results of
data that has since changed. File paths are not hashed: a workspace keeps
its run directories wherever it lies and whichever directory the command
runs from. Once a config has passed every check, the document parsed from
its text is kept in a JSON sidecar beside it, so a command on an unchanged
valid config never imports PyYAML.
"""

from __future__ import annotations

import copy
import functools
import importlib.util
import json
import re
import sys
from pathlib import Path

# The interpreter's own SHA-256. hashlib loads OpenSSL's libcrypto, ~3.6 MB
# of peak memory and ~3.6 ms per process, to hash a few kilobytes; the digests
# are the same bytes.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from . import __version__
from ._numpy import spec as numpy_spec
from .errors import ConfigError, DataError, ParseError, Record, quote
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
from .timeseries import parse_quarter, quarter_label, write_text

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

# The deepest collection a config may nest: a valid one nests 3 deep (the
# items of backtest.models). PyYAML's composer recurses once per level, so a
# deep one would meet the recursion limit; ``_parse_yaml``'s loader refuses
# the level past this one as it opens it.
MAX_DEPTH = 32

# Every config key outside ``data``, by section, with its default: the one
# statement of the defaults. The type of a default picks its key's check
# (``_checked``), except at the quarter keys, whose defaults are labels.
DEFAULTS = {
    "lti": dict(zip(LtiParams.__slots__, LtiParams()._values())),
    "features": {
        "smoothing_window": SMOOTHING_WINDOW, "hlc_lag": HLC_LAG, "interest_only_zero_from": None
    },
    "split": {"cutoff": quarter_label(SplitSpec().cutoff),
              "evaluation_window": SplitSpec().evaluation_window},
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

    @property
    def lti(self) -> LtiParams:
        return LtiParams(**self.settings["lti"])

    @property
    def interest_only_zero_from(self) -> int | None:
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
        h = sha256(json.dumps({"data": units, **settings}, sort_keys=True).encode("utf-8"))
        for _, src in sorted(self.data.items()):
            try:
                h.update(sha256(src.path.read_bytes()).digest())
            except OSError as exc:
                raise DataError(f"cannot read {src.path}: {exc}") from None
        h.update(__version__.encode("utf-8"))
        return h.hexdigest()[:12]

    def run_dir(self) -> Path:
        return self.output_dir / self.run_hash()

    def save(self, path: str | Path) -> None:
        import yaml

        write_text(path, yaml.safe_dump(self.to_canonical(), sort_keys=False))


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed, where: str) -> None:
    unknown = sorted(quote(k) for k in node if k not in allowed)  # a YAML key need not be a str
    if unknown:
        raise ConfigError(f"unknown key(s) under {where}: {', '.join(unknown)}")


def _string(value, key: str) -> str:
    """``value`` if it is a string; a ConfigError naming ``key`` otherwise."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {quote(value)}")
    return value


def _checked(where: str, value):
    """``value`` of the key ``where`` (``section.key``, or a top-level key) in
    canonical form; a ConfigError if it is not of the kind of the key's default.

    An int or float key takes a YAML number, not a bool or a string of
    digits, and an int key no fraction; a quarter key takes a quarter label
    and keeps it as ``YYYYQn``; a list key takes a list of strings; a string
    key a string.
    """
    section, _, key = where.partition(".")
    default = DEFAULTS[section][key] if key else DEFAULTS[section]
    if where in ("split.cutoff", "features.interest_only_zero_from"):
        if value is None and default is None:
            return None
        try:  # any kind but a string fails to parse, quoted bounded
            return quarter_label(parse_quarter(value if isinstance(value, str) else quote(value)))
        except ParseError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if isinstance(default, (int, float)):
        cast = type(default)
        fractional = cast is int and isinstance(value, float) and not value.is_integer()
        try:
            if type(value) not in (int, float) or fractional:
                raise TypeError
            number = cast(value)
            str(number)  # the run hash writes it: ValueError past sys.get_int_max_str_digits()
            return number
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if cast is int else "a number"
            kind = "a smaller number" if type(value) is int else kind  # too long to cast or write
            raise ConfigError(f"{where} must be {kind}, got {quote(value)}") from None
    if isinstance(default, list):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where} must be a list of strings, got {quote(value)}")
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
    # one value: the key stays so that configs written with it keep their run directory
    if mode != "dynamic":
        raise ConfigError(
            f"backtest.forecast_mode must be 'dynamic', got {quote(mode)}; "
            "the static path is reported as alt_forecast"
        )
    bad = sorted(set(models) - set(MODELS))
    if bad:
        raise ConfigError(
            f"unknown model(s) in backtest.models: {', '.join(map(quote, bad))} "
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
        if len(name) > 64 or not name.isprintable():  # every data.<name> message prints it
            raise ConfigError(
                f"a data series name must be at most 64 printable characters, got {quote(name)}"
            )
        if isinstance(entry, str):
            entry = {"path": entry}
        entry = _require_mapping(entry, f"data.{name}")
        _reject_unknown(entry, {"path", "unit"}, f"data.{name}")
        if "path" not in entry:
            raise ConfigError(f"data.{name} has no path")
        unit = _string(entry.get("unit", DEFAULT_UNITS.get(name, "")), f"data.{name}.unit")
        if unit not in UNIT_FACTORS:
            raise ConfigError(
                f"data.{name}: unknown unit {quote(unit)} "
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
    absent = []
    for name, src in sources.items():
        try:
            if not src.path.is_file():
                absent.append(str(src.path))
        except OSError as exc:  # a path the system cannot look up, such as one too long
            raise ConfigError(f"data.{name}: cannot read its file: {exc.strerror}") from None
    if absent:
        raise ConfigError(f"data file(s) not found: {', '.join(map(quote, sorted(absent)))}")
    return sources


def parse_lag_range(text: str) -> tuple[int, int]:
    """Parse ``--lags``' ``a..b`` lag range (inclusive) of ASCII digits."""
    m = re.fullmatch(r"\s*([0-9]+)\s*\.\.\s*([0-9]+)\s*", text)
    try:
        if m is None:
            raise ValueError
        lo, hi = int(m[1]), int(m[2])  # int refuses a number of over 4300 digits
    except ValueError:
        raise ConfigError(f"--lags: lag range must look like '0..6', got {quote(text)}") from None
    if hi < lo:
        raise ConfigError(f"--lags: lag range must satisfy 0 <= min <= max, got {quote(text)}")
    return lo, hi


def _parse_yaml(text: str, path: Path):
    """The document in ``text``, parsed by PyYAML's safe loader, which refuses
    a collection nested deeper than ``MAX_DEPTH`` as it composes it; a
    ConfigError when YAML cannot turn the text into values."""
    import yaml

    class Loader(yaml.SafeLoader):
        depth = 0  # collections open

        def compose_node(self, parent, index):
            opens = self.check_event(yaml.CollectionStartEvent)  # an alias opens none
            self.depth += opens
            if self.depth > MAX_DEPTH:
                raise ConfigError(f"config {path} nests deeper than {MAX_DEPTH} levels")
            node = super().compose_node(parent, index)
            self.depth -= opens
            return node

    try:
        return yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    except ValueError as exc:  # a scalar PyYAML cannot construct: a huge int, a bad date
        raise ConfigError(f"config {path} holds a value that cannot be read: {exc}") from None


def _runtime() -> dict:
    """The interpreter, and numpy's and PyYAML's installs by the path, size and mtime
    of each ``__init__.py`` (``importlib.metadata`` costs ~17 ms); numpy's spec is the
    one ``_numpy`` found, as reading the lazy module's would import numpy."""
    facts = {"python": sys.version}
    for name, spec in (("numpy", numpy_spec), ("yaml", importlib.util.find_spec("yaml"))):
        try:
            stat = Path(spec.origin).stat()
            facts[name] = {"path": spec.origin, "size": stat.st_size, "mtime_ns": stat.st_mtime_ns}
        except (AttributeError, TypeError, OSError):  # not installed, or no file
            facts[name] = None
    return facts


@functools.cache
def code_identity() -> dict:
    """The code behind an artifact, computed once per process; callers share the
    dict, so none may change it. ``code_sha256`` digests each ``*.py`` of hlcast
    in name order (its name, a NUL byte, its bytes); ``runtime`` is ``_runtime()``.
    A run's manifest and a config's sidecar both key on it."""
    digest = sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    return {"code_sha256": digest.hexdigest(), "runtime": _runtime()}


def load_config(
    path: str | Path,
    out: str | None = None,
    cutoff: str | None = None,
    lags: str | None = None,
) -> RunConfig:
    """Load and validate a YAML run configuration.

    ``out``, ``cutoff`` and ``lags`` are the command-line overrides; any that
    are given replace the file's values once those have passed every check,
    and an error in one names the flag. Relative data paths and
    ``output_dir`` resolve against the config file's directory.

    The document parsed from the text is stored, once it has passed every
    check, in a hidden JSON sidecar, ``.<config name>.hlcast.json``, keyed by
    the text and ``code_identity()``. A sidecar that cannot be read, holds
    another key or cannot be written is a miss; every check runs on a hit too.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    key, document = sha256(json.dumps([text, code_identity()]).encode()).hexdigest(), None
    sidecar = path.with_name(f".{path.name}.hlcast.json")
    try:
        stored = json.loads(sidecar.read_text(encoding="utf-8"))
        document = stored["document"] if stored["key"] == key else None
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        pass
    hit = document is not None
    if not hit:
        document = _parse_yaml(text, path)
    raw = _require_mapping(document, str(path))
    _reject_unknown(raw, {"data", *DEFAULTS}, str(path))
    sources = _sources(raw.get("data"), path.parent)
    settings = checked_settings(raw)
    _check_values(settings, sources)
    # a checked document nests 3 deep and holds only str keys, strings, None and
    # numbers that the checks cast, wrote and bounded: JSON reads it back as itself
    if not hit:
        try:
            write_text(sidecar, json.dumps({"key": key, "document": document}))
        except (DataError, OSError):
            pass
    # a flag replaces a file value only after the file has passed every check
    if out is not None:
        settings["output_dir"] = _checked("output_dir", out)
    if cutoff is not None:
        try:
            settings["split"]["cutoff"] = quarter_label(parse_quarter(cutoff))
        except ParseError as exc:
            raise ConfigError(f"--cutoff: {exc}") from None
    if lags is not None:
        settings["lag_scan"]["min"], settings["lag_scan"]["max"] = parse_lag_range(lags)
    settings["output_dir"] = str(path.parent / settings["output_dir"])
    return RunConfig(sources, settings)
