"""Run configuration: INI sections, dotted-key overrides, resolved snapshots.

A run is described by five sections (model, masking, training, data, eval)
plus an optional [run] section for seed/test_mode defaults. Files
use `key = value` lines; command lines override any field with
`--section.key value`. The resolved snapshot written into every output
directory replays the run exactly.

The keys are the fields of RunConfig: each config dataclass it holds is a
section of that dataclass's fields, and its own scalars form [run]. Only
the keys in _RENAMED are spelled unlike their field. Values are read and
written by the codec module.
"""

import configparser
import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from importlib import resources

from .codec import format_value, parse_value, text_fields
from .data import DataConfig
from .errors import ConfigError
from .evaluate import EvalConfig
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    test_mode: bool = False


# INI keys spelled unlike the field they set:
# (section, key) -> (RunConfig field, field, index into a tuple value or None)
_RENAMED = {
    ("masking", "ratio"): ("model", "mask_ratio", None),
    ("masking", "multi_scale"): ("model", "multi_scale_mask", None),
    ("training", "scale_min"): ("training", "scale_range", 0),
    ("training", "scale_max"): ("training", "scale_range", 1),
    ("training", "shift"): ("training", "shift_range", None),
}


def _keys():
    """Every INI key in file order: (section, key) -> (part, field, index).

    part names the RunConfig field that holds the value, "" RunConfig itself.
    """
    renamed = {}
    for key, (part, name, _) in _RENAMED.items():
        renamed.setdefault((part, name), []).append(key)
    keys = {}
    for f in fields(RunConfig):
        part, members = (f.name, text_fields(f.type)) if is_dataclass(f.type) else ("", [f])
        for m in members:
            for key in renamed.get((part, m.name), [(part or "run", m.name)]):
                keys[key] = _RENAMED.get(key, (part, m.name, None))
    return keys


_KEYS = _keys()
_DEFAULTS = RunConfig()


def _get(rc, spec):
    part, name, index = spec
    value = getattr(getattr(rc, part) if part else rc, name)
    return value if index is None else value[index]


def profile_path(name):
    """Path of a shipped profile; names without a slash or dot are looked
    up in the packaged profiles directory."""
    return resources.files("msmae").joinpath(f"profiles/{name}.ini")


def _read_ini(text, origin):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    pairs = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            pairs[(section, key)] = raw
    return pairs


def _apply(pairs, origin, values):
    for (section, key), raw in pairs.items():
        spec = _KEYS.get((section, key))
        if spec is None:
            raise ConfigError(f"{origin}: unknown option {section}.{key}")
        try:
            values[spec] = parse_value(raw, _get(_DEFAULTS, spec))
        except ConfigError as exc:
            raise ConfigError(f"{origin}: bad value for {section}.{key}: {exc}") from None


def _build(values):
    """RunConfig with `values` ({spec: value}) over the dataclass defaults."""
    kw = {}
    for (part, name, index), value in values.items():
        fields_of = kw.setdefault(part, {})
        if index is not None:
            items = list(fields_of.get(name, _get(_DEFAULTS, (part, name, None))))
            items[index] = value
            value = tuple(items)
        fields_of[name] = value
    parts = {f.name: replace(getattr(_DEFAULTS, f.name), **kw.get(f.name, {}))
             for f in fields(RunConfig) if is_dataclass(f.type)}
    rc = replace(_DEFAULTS, **parts, **kw.get("", {}))
    rc.data.num_points = rc.model.num_points
    return rc


def load_run_config(config=None, overrides=()):
    """Assemble a validated RunConfig.

    config is a profile name ("desk", "paper"), a path to an INI file, or
    None for the desk defaults. overrides are ("section.key", "value")
    pairs applied last.
    """
    values = {}
    base = profile_path("desk").read_text()
    _apply(_read_ini(base, "desk profile"), "desk profile", values)
    if config is not None:
        name = str(config)
        if "/" not in name and "." not in name:
            handle = profile_path(name)
            if not handle.is_file():
                raise ConfigError(f"no such profile: {name}")
            text, origin = handle.read_text(), f"profile {name}"
        else:
            try:
                with open(config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {config}: {exc}") from exc
            origin = str(config)
        _apply(_read_ini(text, origin), origin, values)
    for spec, raw in overrides:
        if "." not in spec:
            raise ConfigError(f"override {spec!r} is not of the form section.key")
        section, key = spec.split(".", 1)
        _apply({(section, key): raw}, "command line", values)
    rc = _build(values)
    rc.model.validate()
    rc.training.validate()
    rc.data.validate()
    rc.eval.validate()
    return rc


def make_train_config(rc, out_dir):
    """Project a RunConfig onto the training loop's own config."""
    return replace(rc.training, seed=rc.seed, test_mode=rc.test_mode, out_dir=out_dir)


def resolved_text(rc):
    """Render the fully-resolved configuration as INI text."""
    sections = {}
    for (section, key), spec in _KEYS.items():
        sections.setdefault(section, []).append(f"{key} = {format_value(_get(rc, spec))}\n")
    return "".join(f"[{section}]\n" + "".join(lines) + "\n" for section, lines in sections.items())


def config_digest(rc):
    """Short stable fingerprint of the resolved configuration."""
    return hashlib.blake2b(resolved_text(rc).encode(), digest_size=8).hexdigest()
