"""Scenario configuration: keys, YAML loading, validation.

``KEYS`` is the one table of run keys: each key's type, default and
help text, in command-line order; ``cli`` builds the ``run`` flags from
it.  Config files are YAML mappings using exactly the keys of ``KEYS``;
unknown keys are errors, not warnings, and so is a value that is not of
its key's type (an int passes for a float, a bool for no number) and a
key that the run does not read (``wavenumber`` outside a traveling-wave
run, say), whatever its value.  Command-line flags override file values.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigurationError

SCENARIOS = (
    "soliton",
    "manufactured",
    "lake_at_rest",
    "reflecting_bump",
    "traveling_wave",
    "dingemans",
)

MODELS = ("bbm_bbm", "svaerd_kalisch")


# every run key, in command-line order: its type, as a refused value is
# told it, its default and its --help text
KEYS = {
    "scenario": ("str", None, None),  # required
    "model": ("str", "bbm_bbm", None),
    "variant": ("str | None", None, None),  # scenario default when None
    "order": ("int", 4, None),
    "orders": ("list[int] | None", None, "comma separated operator orders (EOC mode)"),
    "resolutions": ("list[int] | None", None, "comma separated grid sizes (EOC mode)"),
    "n_nodes": ("int | None", None, None),
    "t_end": ("float | None", None, None),
    "dt": ("float | None", None, "fixed step size (default: adaptive)"),
    "atol": ("float | None", None, None),
    "rtol": ("float | None", None, None),
    "parameter_set": ("str | None", None, None),  # Svärd-Kalisch coefficient set
    "wavenumber": ("float", 0.8, None),  # traveling-wave scenario
    "gauges": ("list[float]", (), "comma separated gauge positions"),
    "gauge_interval": ("float", 0.1, None),
    "output_dir": ("str | None", None, None),
    "experimental_data": ("str | None", None, None),
    "relaxation": ("bool", False, None),
    "reflecting": ("bool", False, None),  # manufactured scenario: use wall conditions
    "eoc": ("bool", False, None),
    "check": ("bool", False, "assert scenario thresholds; exit 3 on failure"),
}

# the keys whose value must be one of a fixed set
CHOICES = {"scenario": SCENARIOS, "model": MODELS}


class ScenarioConfig:
    """One run: scenario, model and discretization choices (the attributes
    named in ``KEYS``), validated on construction."""

    def __init__(self, scenario, **values):
        values["scenario"] = scenario
        unknown = values.keys() - KEYS.keys()
        if unknown:
            raise TypeError(f"unknown config keys {sorted(unknown)}")
        for name, (_, default, _) in KEYS.items():
            setattr(self, name, values.get(name, default))
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigurationError(
                    f"unknown {name} {getattr(self, name)!r}; available: {choices}")
        for name in KEYS:
            if getattr(self, name) == "":
                raise ConfigurationError(f"{name} must not be empty")
        if self.order <= 0:
            raise ConfigurationError("order must be positive")
        if self.n_nodes is not None and self.n_nodes < 3:
            raise ConfigurationError(f"n_nodes must be at least 3, got {self.n_nodes}")
        # NaN fails every comparison, so "not 0 < v < inf" refuses it too
        for name, (kind, _, _) in KEYS.items():
            v = getattr(self, name) if kind.startswith("float") else None
            if v is not None and not 0 < v < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {v}")
        self.gauges = [float(gx) for gx in self.gauges]
        if not all(math.isfinite(gx) for gx in self.gauges):
            raise ConfigurationError(f"gauges must be finite, got {self.gauges}")
        if self.orders is not None:
            if not self.orders:
                raise ConfigurationError("orders must name at least one order")
            if len(set(self.orders)) != len(self.orders):
                raise ConfigurationError(f"orders must not repeat an order, got {self.orders}")
        if self.resolutions is not None:
            if len(self.resolutions) < 2:
                raise ConfigurationError(
                    "resolutions must name at least two grid sizes, one EOC pair"
                )
            if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
                raise ConfigurationError("resolutions must be strictly increasing")


_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "None": type(None)}


def _has_type(value, kind) -> bool:
    """Whether a config value is of the type ``kind`` of ``KEYS``."""
    if " | " in kind:
        return any(_has_type(value, option) for option in kind.split(" | "))
    if kind.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    return isinstance(value, _TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))


def _unread_fields(cfg: ScenarioConfig):
    """Fields that no run of cfg's scenario and model reads."""
    scenario, dingemans = cfg.scenario, cfg.scenario == "dingemans"
    manufactured = scenario == "manufactured"
    eoc = manufactured or (scenario == "soliton" and cfg.eoc)
    # a lake at rest supplies its own dt, so its runs are always fixed-step
    adaptive = cfg.dt is None and scenario != "lake_at_rest"
    return {name for name, read in (
        ("parameter_set", cfg.model == "svaerd_kalisch"),
        ("reflecting", manufactured),
        ("wavenumber", scenario == "traveling_wave"), ("eoc", scenario == "soliton"),
        ("orders", eoc), ("resolutions", eoc),
        ("order", not eoc), ("n_nodes", not eoc),
        ("gauges", dingemans), ("gauge_interval", dingemans and bool(cfg.gauges)),
        ("experimental_data", dingemans),
        ("relaxation", scenario != "reflecting_bump"),
        ("atol", adaptive), ("rtol", adaptive),
    ) if not read}


def config_from_mapping(mapping) -> ScenarioConfig:
    """The config of a CLI or file mapping; a value not of its key's type,
    and a given key the run does not read even at its default, is refused."""
    unknown = set(mapping) - KEYS.keys()
    if unknown:
        raise ConfigurationError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(KEYS)}"
        )
    if "scenario" not in mapping:
        raise ConfigurationError("config must name a scenario")
    for name, value in mapping.items():
        kind = KEYS[name][0]
        if not _has_type(value, kind):
            raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
    cfg = ScenarioConfig(**mapping)
    unread = sorted(_unread_fields(cfg).intersection(mapping))
    if unread:
        raise ConfigurationError(
            f"{', '.join(unread)} not read by a {cfg.scenario} run of {cfg.model}"
        )
    return cfg


# a YAML 1.2 float; YAML 1.1 reads one without a dot (2e-3) as a string
_YAML_1_2_FLOAT = r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"


def load_config_file(path) -> dict:
    import re

    import yaml

    class Loader(yaml.SafeLoader):
        pass

    # tried after SafeLoader's own resolvers, so ints stay ints
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(_YAML_1_2_FLOAT),
                                 list("-+.0123456789"))

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"could not read config file {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"could not parse config file {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a mapping")
    return data
