"""Configuration text: INI profiles, config.ini snapshots and checkpoint model text."""

import configparser
from dataclasses import replace

import pytest

from msmae.checkpoint import save_checkpoint
from msmae.cli import main
from msmae.config import _KEYS, RunConfig, load_run_config, make_train_config, resolved_text
from msmae.errors import ConfigError
from msmae.model import Model
from msmae.training import TrainConfig

# config.ini written by `msmae pretrain --test-mode --seed 0 --training.epochs 2
# --training.warmup_epochs 0` before the codec module existed ([training] keys
# sorted), when [masking] and [training] scale_min, scale_max and shift spelled
# five keys unlike their fields
OLD_SNAPSHOT = """\
[model]
num_points = 128
counts = 64,32,8
dims = 32,64,128
radii = 0.32,0.64,1.28
ks = 16,8,8
encoder_blocks_per_stage = 1
decoder_blocks_per_stage = 1
heads = 4
hierarchical_encoder = true
hierarchical_decoder = true
local_attention = true
skip_connections = true

[masking]
ratio = 0.8
multi_scale = true

[training]
augment = true
base_lr = 0.001
batch_size = 32
checkpoint_every = 0
epochs = 2
grad_clip = 0.0
min_lr = 1e-06
scale_max = 1.25
scale_min = 0.8
shift = 0.1
warmup_epochs = 0
weight_decay = 0.05

[data]
source = synthetic
kinds = sphere,cube-surface,cylinder,torus,plane
per_class = 0
total = 512
noise = 0.02
seed = 0
split_seed = 7
train_frac = 0.8
normalize = true

[eval]
probe_iters = 500
probe_lr = 0.1
probe_weight_decay = 0.0001
way = 5
shot = 10
runs = 10
queries = 20
finetune_epochs = 50
finetune_batch_size = 32
finetune_lr = 0.0001
finetune_warmup_epochs = 5
freeze_encoder = false

[run]
seed = 0
test_mode = true

"""

# model text of a version-1 desk checkpoint written before the codec module existed
OLD_MODEL_TEXT = (b"num_points=128\ncounts=64,32,8\ndims=32,64,128\nradii=0.32,0.64,1.28\n"
                  b"ks=16,8,8\nencoder_blocks_per_stage=1\ndecoder_blocks_per_stage=1\nheads=4\n"
                  b"mask_ratio=0.8\nhierarchical_encoder=True\nhierarchical_decoder=True\n"
                  b"skip_connections=True\nlocal_attention=True\nmulti_scale_mask=True")


def keys(ini_text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(ini_text)
    return {(section, key) for section in parser.sections() for key in parser[section]}


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_profile_snapshot_round_trip(profile, tmp_path):
    rc = load_run_config(profile)
    path = tmp_path / "config.ini"
    path.write_text(resolved_text(rc))
    assert load_run_config(path) == rc
    assert resolved_text(load_run_config(path)) == resolved_text(rc)


def one_error_line(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err
    return err.strip()


def test_old_snapshot_refused(tmp_path, capsys):
    path = tmp_path / "config.ini"
    path.write_text(OLD_SNAPSHOT)
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(path), "--out", str(out)])
    assert one_error_line(code, capsys) == f"error: {path}: unknown option masking.ratio"
    assert not out.exists()
    # the snapshot's 49 keys, less the two scale bounds that are one key now
    assert len(keys(resolved_text(load_run_config(None)))) == len(keys(OLD_SNAPSHOT)) - 1 == 48


def test_version_1_checkpoint_refused(tmp_path, capsys):
    desk = load_run_config(None).model
    path = tmp_path / "old.pm2a"
    save_checkpoint(path, desk, Model.init(desk, seed=0).params)
    blob = path.read_bytes()
    size = int.from_bytes(blob[6:10], "little")
    path.write_bytes(b"PM2A" + (1).to_bytes(2, "little") + len(OLD_MODEL_TEXT).to_bytes(4, "little")
                     + OLD_MODEL_TEXT + blob[10 + size:])
    out = tmp_path / "run"
    code = main(["probe", "--checkpoint", str(path), "--out", str(out)])
    assert one_error_line(code, capsys) == f"error: {path}: unsupported container version 1 at byte 4"
    assert not out.exists()


def test_renamed_keys_set_their_fields():
    # the five keys that [masking] and [training] scale_min, scale_max and shift
    # used to spell: each is its field now
    rc = load_run_config(None, [("model.mask_ratio", "0.6"), ("model.multi_scale_mask", "false"),
                                ("training.scale_range", "0.9,1.1"), ("training.shift_range", "0.2")])
    assert rc.model.mask_ratio == 0.6 and rc.model.multi_scale_mask is False
    tc = make_train_config(rc, "out")
    assert tc.scale_range == (0.9, 1.1) and tc.shift_range == 0.2
    assert (tc.out_dir, tc.seed, tc.test_mode) == ("out", rc.seed, rc.test_mode)


def test_values_typed_by_field_defaults():
    rc = load_run_config(None, [("model.counts", "64, 32,8"), ("data.kinds", "torus,,plane,"),
                                ("model.local_attention", "false"), ("eval.probe_lr", "1")])
    assert rc.model.counts == (64, 32, 8)
    assert rc.data.kinds == ("torus", "plane")
    assert rc.model.local_attention is False
    assert rc.eval.probe_lr == 1.0 and isinstance(rc.eval.probe_lr, float)
    assert rc.data.num_points == rc.model.num_points


@pytest.mark.parametrize("spec, raw", [("model.heads", "4.0"), ("model.skip_connections", "maybe"),
                                       ("model.radii", "0.3,x,1.2"), ("training.seed", "1"),
                                       ("data.num_points", "64"), ("training.out_dir", "x"),
                                       ("training.beta1", "0.8"), ("masking.mask_ratio", "0.5"),
                                       ("masking.ratio", "0.5"), ("model.local_attention", "True"),
                                       ("model.local_attention", "1"), ("model.Heads", "4")])
def test_bad_or_unknown_keys_rejected(spec, raw):
    with pytest.raises(ConfigError, match=spec):
        load_run_config(None, [(spec, raw)])


def test_snapshot_spells_values_for_replay():
    rc = load_run_config(None)
    rc = replace(rc, model=replace(rc.model, radii=(0.1, 0.2 + 0.1, 1.0 / 3.0)))
    text = resolved_text(rc)
    assert "radii = 0.1,0.30000000000000004,0.3333333333333333\n" in text
    assert "local_attention = true\n" in text


HOSTILE = ["0", "-1", "nan", "inf", "-inf", "1e9", "", "abc", "0.5", "1", "2,2,2", "1,2", "1e-300"]


def test_every_key_takes_hostile_values_or_refuses_them():
    # a key added later is swept too: every outcome is a RunConfig or a ConfigError
    for section, key in _KEYS:
        for raw in HOSTILE:
            try:
                rc = load_run_config(None, [(f"{section}.{key}", raw)])
            except ConfigError:
                continue
            assert isinstance(rc, RunConfig), (section, key, raw)


@pytest.mark.parametrize("text", ["[DEFAULT]\nepochs = 3\n",
                                  "[DEFAULT]\nepochs = 3\n\n[model]\nheads = 4\n"],
                         ids=["alone", "beside [model]"])
def test_default_section_refused(tmp_path, text):
    # configparser would fold [DEFAULT] into every section, or drop it
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="unknown option DEFAULT.epochs"):
        load_run_config(path)


@pytest.mark.parametrize("scale_range", [(0.9,), (0.9, 1.1, 1.2), (1.1, 0.9), (0.0, 1.0),
                                         (0.9, float("inf")), (float("nan"), 1.0)],
                         ids=lambda values: ",".join(map(str, values)))
def test_scale_range_takes_two_ordered_values(scale_range):
    with pytest.raises(ConfigError, match="training.scale_range"):
        TrainConfig(scale_range=scale_range).validate()
    with pytest.raises(ConfigError, match="training.scale_range"):
        load_run_config(None, [("training.scale_range", ",".join(map(str, scale_range)))])


def test_shift_range_named_in_its_refusal():
    with pytest.raises(ConfigError, match="training.shift_range must be >= 0"):
        TrainConfig(shift_range=-0.1).validate()


@pytest.mark.parametrize("key, value", [("shift_range", 1e9), ("shift_range", 1.5),
                                        ("scale_range", (0.4, 1.25)), ("scale_range", (0.8, 2.5)),
                                        ("scale_range", (1e-9, 1e9))],
                         ids=["shift_range-1e9", "shift_range-1.5", "scale_range-0.4,1.25",
                              "scale_range-0.8,2.5", "scale_range-1e-9,1e9"])
def test_augmentation_ranges_bounded(key, value):
    # clouds live in the unit sphere: a shift past 1 or a scale outside [0.5, 2] is refused
    with pytest.raises(ConfigError, match=f"training.{key}"):
        TrainConfig(**{key: value}).validate()
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with pytest.raises(ConfigError, match=f"training.{key}"):
        load_run_config(None, [(f"training.{key}", text)])


def test_augmentation_range_limits_accepted():
    TrainConfig(scale_range=(0.5, 2.0), shift_range=1.0).validate()
    TrainConfig(scale_range=(1.0, 1.0), shift_range=0.0).validate()
