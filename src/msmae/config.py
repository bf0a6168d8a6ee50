"""Run configuration: INI sections, dotted-key overrides, resolved snapshots.

A run is described by four sections (model, training, data, eval) plus an
optional [run] section for seed/test_mode defaults. Files use
`key = value` lines; command lines override any field with
`--section.key value`. The resolved snapshot written into every output
directory replays the run exactly.

The keys are the fields of RunConfig: each config dataclass it holds is a
section whose keys are that dataclass's fields, spelled as the fields
are, and its own scalars form [run]. Values are read and written by the
codec module, which also reads and writes the [model] section that
checkpoints store.
"""

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from importlib import resources

from .codec import ini_section, read_ini, text_keys
from .data import DataConfig, read_lines
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


# the sections that hold a config dataclass, by name; [run] holds RunConfig's own scalars
_PARTS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _get(rc, section, key):
    return getattr(rc if section == "run" else getattr(rc, section), key)


def _by_section(values):
    """{section: {key: value}} of {(section, key): value}, in order."""
    out = {}
    for (section, key), value in values.items():
        out.setdefault(section, {})[key] = value
    return out


# every INI key in file order, with its default: {(section, key): default}
_KEYS = {key: default for name, cls in _PARTS.items() for key, default in text_keys(name, cls).items()}
_KEYS.update({("run", f.name): f.default for f in fields(RunConfig) if f.name not in _PARTS})
_PROFILES = resources.files("msmae") / "profiles"


def load_run_config(config=None, overrides=()):
    """Assemble a validated RunConfig.

    config is the name of a shipped profile ("desk", "paper": a name with
    no slash or dot), a path to an INI file, or None for the desk
    defaults. overrides are ("section.key", "value") pairs applied last.
    """
    values = {**_KEYS, **read_ini((_PROFILES / "desk.ini").read_text(), "desk profile", _KEYS)}
    if config is not None:
        name = str(config)
        if "/" not in name and "." not in name:
            handle = _PROFILES / f"{name}.ini"
            if not handle.is_file():
                raise ConfigError(f"no such profile: {name}")
            text, origin = handle.read_text(), f"profile {name}"
        else:
            text, origin = "".join(read_lines(config, ConfigError)), str(config)
        values.update(read_ini(text, origin, _KEYS))
    for spec, _ in overrides:
        if "." not in spec:
            raise ConfigError(f"override {spec!r} is not of the form section.key")
    given = _by_section({tuple(spec.split(".", 1)): raw for spec, raw in overrides})
    values.update(read_ini(given, "command line", _KEYS))
    sections = _by_section(values)
    sections["data"]["num_points"] = sections["model"]["num_points"]
    run = sections.pop("run")
    return RunConfig(**{name: _PARTS[name](**kw).validate() for name, kw in sections.items()}, **run)


def make_train_config(rc, out_dir):
    """Project a RunConfig onto the training loop's own config."""
    return replace(rc.training, seed=rc.seed, test_mode=rc.test_mode, out_dir=out_dir)


def resolved_text(rc):
    """Render the fully-resolved configuration as INI text."""
    sections = _by_section({(section, key): _get(rc, section, key) for section, key in _KEYS})
    return "".join(ini_section(section, items.items()) for section, items in sections.items())


def config_digest(rc):
    """Short stable fingerprint of the resolved configuration."""
    return hashlib.blake2b(resolved_text(rc).encode(), digest_size=8).hexdigest()
