"""Run configuration: INI sections, dotted-key overrides, resolved snapshots.

A run is described by five sections (model, masking, training, data, eval)
plus an optional [run] section for seed/test_mode defaults. Files
use `key = value` lines; command lines override any field with
`--section.key value`. The resolved snapshot written into every output
directory replays the run exactly.
"""

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields
from importlib import resources

from .data import KINDS, DataConfig
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class EvalConfig:
    probe_iters: int = 500
    probe_lr: float = 0.1
    probe_weight_decay: float = 1e-4
    way: int = 5
    shot: int = 10
    runs: int = 10
    queries: int = 20
    finetune_epochs: int = 50
    finetune_batch_size: int = 32
    finetune_lr: float = 1e-4
    finetune_warmup_epochs: int = 5
    freeze_encoder: bool = False

    def validate(self):
        for name in ("probe_iters", "way", "shot", "runs", "queries",
                     "finetune_epochs", "finetune_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"eval.{name} must be >= 1")
        if self.probe_lr <= 0 or self.finetune_lr <= 0:
            raise ConfigError("eval learning rates must be positive")
        if self.probe_weight_decay < 0:
            raise ConfigError("eval.probe_weight_decay must be >= 0")
        if self.finetune_warmup_epochs >= self.finetune_epochs:
            raise ConfigError("eval.finetune_warmup_epochs must be < finetune_epochs")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: dict = field(default_factory=dict)   # typed [training] values
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    test_mode: bool = False


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw):
    return tuple(int(v) for v in raw.split(","))


def _parse_floats(raw):
    return tuple(float(v) for v in raw.split(","))


def _parse_strs(raw):
    return tuple(v.strip() for v in raw.split(",") if v.strip())


# every legal section.key and its coercion from string
_SCHEMA = {
    ("model", "num_points"): int,
    ("model", "counts"): _parse_ints,
    ("model", "dims"): _parse_ints,
    ("model", "radii"): _parse_floats,
    ("model", "ks"): _parse_ints,
    ("model", "encoder_blocks_per_stage"): int,
    ("model", "decoder_blocks_per_stage"): int,
    ("model", "heads"): int,
    ("model", "hierarchical_encoder"): _parse_bool,
    ("model", "hierarchical_decoder"): _parse_bool,
    ("model", "local_attention"): _parse_bool,
    ("model", "skip_connections"): _parse_bool,
    ("masking", "ratio"): float,
    ("masking", "multi_scale"): _parse_bool,
    ("training", "epochs"): int,
    ("training", "batch_size"): int,
    ("training", "base_lr"): float,
    ("training", "min_lr"): float,
    ("training", "warmup_epochs"): int,
    ("training", "weight_decay"): float,
    ("training", "grad_clip"): float,
    ("training", "augment"): _parse_bool,
    ("training", "scale_min"): float,
    ("training", "scale_max"): float,
    ("training", "shift"): float,
    ("training", "checkpoint_every"): int,
    ("data", "source"): str,
    ("data", "kinds"): _parse_strs,
    ("data", "per_class"): int,
    ("data", "total"): int,
    ("data", "noise"): float,
    ("data", "seed"): int,
    ("data", "split_seed"): int,
    ("data", "train_frac"): float,
    ("data", "normalize"): _parse_bool,
    ("eval", "probe_iters"): int,
    ("eval", "probe_lr"): float,
    ("eval", "probe_weight_decay"): float,
    ("eval", "way"): int,
    ("eval", "shot"): int,
    ("eval", "runs"): int,
    ("eval", "queries"): int,
    ("eval", "finetune_epochs"): int,
    ("eval", "finetune_batch_size"): int,
    ("eval", "finetune_lr"): float,
    ("eval", "finetune_warmup_epochs"): int,
    ("eval", "freeze_encoder"): _parse_bool,
    ("run", "seed"): int,
    ("run", "test_mode"): _parse_bool,
}

_TRAINING_DEFAULTS = {
    "epochs": 60, "batch_size": 32, "base_lr": 1e-3, "min_lr": 1e-6,
    "warmup_epochs": 6, "weight_decay": 0.05, "grad_clip": 0.0,
    "augment": True, "scale_min": 0.8, "scale_max": 1.25, "shift": 0.1,
    "checkpoint_every": 0,
}


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
        coerce = _SCHEMA.get((section, key))
        if coerce is None:
            raise ConfigError(f"{origin}: unknown option {section}.{key}")
        try:
            values[(section, key)] = coerce(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{origin}: bad value for {section}.{key}: {exc}") from exc


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

    def sect(name):
        return {k: v for (s, k), v in values.items() if s == name}

    model_kw = sect("model")
    masking = sect("masking")
    model = ModelConfig(**model_kw, mask_ratio=masking.get("ratio", 0.8),
                        multi_scale_mask=masking.get("multi_scale", True))
    training = dict(_TRAINING_DEFAULTS)
    training.update(sect("training"))
    data_kw = sect("data")
    data = DataConfig(num_points=model.num_points, **data_kw)
    evalc = EvalConfig(**sect("eval"))
    run = sect("run")
    rc = RunConfig(model=model, training=training, data=data, eval=evalc,
                   seed=run.get("seed", 0), test_mode=run.get("test_mode", False))
    model.validate()
    data.validate()
    evalc.validate()
    if training["scale_min"] > training["scale_max"]:
        raise ConfigError("training.scale_min must be <= training.scale_max")
    return rc


def make_train_config(rc, out_dir):
    """Project a RunConfig onto the training loop's own config."""
    t = rc.training
    return TrainConfig(epochs=t["epochs"], batch_size=t["batch_size"],
                       base_lr=t["base_lr"], min_lr=t["min_lr"],
                       warmup_epochs=t["warmup_epochs"], weight_decay=t["weight_decay"],
                       grad_clip=t["grad_clip"], seed=rc.seed, test_mode=rc.test_mode,
                       augment=t["augment"],
                       scale_range=(t["scale_min"], t["scale_max"]),
                       shift_range=t["shift"], checkpoint_every=t["checkpoint_every"],
                       out_dir=out_dir)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def resolved_text(rc):
    """Render the fully-resolved configuration as INI text."""
    m = rc.model
    out = io.StringIO()

    def emit(section, items):
        out.write(f"[{section}]\n")
        for k, v in items:
            out.write(f"{k} = {_fmt(v)}\n")
        out.write("\n")

    emit("model", [
        ("num_points", m.num_points), ("counts", m.counts), ("dims", m.dims),
        ("radii", m.radii), ("ks", m.ks),
        ("encoder_blocks_per_stage", m.encoder_blocks_per_stage),
        ("decoder_blocks_per_stage", m.decoder_blocks_per_stage),
        ("heads", m.heads),
        ("hierarchical_encoder", m.hierarchical_encoder),
        ("hierarchical_decoder", m.hierarchical_decoder),
        ("local_attention", m.local_attention),
        ("skip_connections", m.skip_connections),
    ])
    emit("masking", [("ratio", m.mask_ratio), ("multi_scale", m.multi_scale_mask)])
    emit("training", sorted(rc.training.items()))
    d = rc.data
    emit("data", [
        ("source", d.source), ("kinds", tuple(d.kinds)), ("per_class", d.per_class),
        ("total", d.total), ("noise", d.noise), ("seed", d.seed), ("split_seed", d.split_seed),
        ("train_frac", d.train_frac), ("normalize", d.normalize),
    ])
    e = rc.eval
    emit("eval", [(f.name, getattr(e, f.name)) for f in fields(EvalConfig)])
    emit("run", [("seed", rc.seed), ("test_mode", rc.test_mode)])
    return out.getvalue()


def config_digest(rc):
    """Short stable fingerprint of the resolved configuration."""
    return hashlib.blake2b(resolved_text(rc).encode(), digest_size=8).hexdigest()


def check_data_kinds(kinds):
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise ConfigError(f"unknown shape kind(s) {unknown}; choose from {list(KINDS)}")
