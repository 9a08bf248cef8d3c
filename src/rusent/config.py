"""Flat key=value run configuration with typo-safe validation.

The file format is one ``key = value`` per line, '#' comments, blank lines
ignored. Classifier hyperparameters are overridden with qualified keys,
e.g. ``mlp.hidden_units = 64``. Unknown keys are rejected.
"""

from dataclasses import dataclass, field, fields, replace

from .exceptions import ConfigError
from .models import CLASSIFIER_KINDS, check_hyperparams, kind_entry

PROTOCOLS = ("repeated", "kfold")


@dataclass(frozen=True)
class RunConfig:
    dataset: str | None = None
    stopwords: str | None = None
    dedup: bool = True
    skip_bad_rows: bool = False
    strip_punct: bool = False
    max_features: int = 3000
    protocol: str = "repeated"
    train_ratio: float = 0.8
    runs: int = 10
    folds: int = 10
    fit_on_all: bool = False
    seed: int = 0
    out: str = "out"
    overrides: dict = field(default_factory=dict)

    def classifier_overrides(self, kind):
        return dict(self.overrides.get(kind, {}))


# Key -> value type of the top-level keys; ``str | None`` fields are paths.
SCHEMA = {f.name: f.type if isinstance(f.type, type) else str
          for f in fields(RunConfig) if f.name != "overrides"}

# Value rules of the top-level keys: (test, rule text), as the hyperparameter rules are.
_RULES = {
    "protocol": (lambda v: v in PROTOCOLS, f"one of {PROTOCOLS}"),
    "train_ratio": (lambda v: 0 < v < 1, "in (0, 1)"),
    "runs": (lambda v: v >= 1, ">= 1"),
    "folds": (lambda v: v >= 2, ">= 2"),
    "max_features": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
}

# Value type -> (parser of the text after '=', what a bad value is told it expects).
_PARSERS = {
    bool: (lambda raw: {"true": True, "false": False}[raw.lower()], "true or false"),
    int: (int, "an integer"),
    float: (float, "a number"),
}


def _convert(key, raw, target_type):
    if target_type not in _PARSERS:
        return raw
    parse, expected = _PARSERS[target_type]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key!r} expects {expected}, got {raw!r}") from None


def parse_config_file(path):
    """Parse a config file into a RunConfig (file values over defaults)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values = {}
    overrides = {}
    lines_of = {}  # key -> the line that set it
    for ln, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in lines_of:
            raise ConfigError(f"{path}:{ln}: config key {key!r} is given twice "
                              f"(lines {lines_of[key]} and {ln})")
        lines_of[key] = ln
        if "." in key:
            kind, _, param = key.partition(".")
            if kind not in CLASSIFIER_KINDS:
                raise ConfigError(
                    f"unknown config key {key!r} "
                    f"(classifier kinds: {CLASSIFIER_KINDS})"
                )
            # takes its default's type; validate() rejects an unknown name
            default, _ = kind_entry(kind)[2].get(param, ("", None))
            overrides.setdefault(kind, {})[param] = _convert(key, raw, type(default))
        elif key in SCHEMA:
            values[key] = _convert(key, raw, SCHEMA[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return validate(RunConfig(**values, overrides=overrides))


def validate(config):
    for key, (test, rule) in _RULES.items():
        value = getattr(config, key)
        if not test(value):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
    for kind, params in config.overrides.items():
        if kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier kind {kind!r} in overrides")
        _, name, table = kind_entry(kind)
        try:
            check_hyperparams(params, table, name)
        except ValueError as exc:  # the message starts with the parameter name
            raise ConfigError(f"{kind}.{exc}") from None
    return config


def apply_cli_values(config, **cli_values):
    """Overlay non-None CLI flag values onto a config."""
    return validate(replace(config, **{k: v for k, v in cli_values.items() if v is not None}))
