"""Configuration text: INI profiles, config.ini snapshots and checkpoint model text."""

import configparser
from dataclasses import replace

import pytest

from msmae.checkpoint import parse_model_text
from msmae.config import load_run_config, make_train_config, resolved_text
from msmae.errors import ConfigError
from msmae.model import ModelConfig

# config.ini written by `msmae pretrain --test-mode --seed 0 --training.epochs 2
# --training.warmup_epochs 0` before the codec module existed ([training] keys sorted)
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

# model text of a desk checkpoint written before the codec module existed
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


def test_old_snapshot_replays(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(OLD_SNAPSHOT)
    rc = load_run_config(None, [("training.epochs", "2"), ("training.warmup_epochs", "0")])
    rc.test_mode = True
    assert load_run_config(path) == rc
    assert keys(resolved_text(rc)) == keys(OLD_SNAPSHOT)  # the same 49 keys
    assert len(keys(OLD_SNAPSHOT)) == 49


def test_old_model_text_parses():
    desk = load_run_config(None).model
    assert parse_model_text(OLD_MODEL_TEXT) == desk
    assert desk == ModelConfig(num_points=128, counts=(64, 32, 8), dims=(32, 64, 128),
                               radii=(0.32, 0.64, 1.28), ks=(16, 8, 8),
                               encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=4)


def test_renamed_keys_set_their_fields():
    rc = load_run_config(None, [("masking.ratio", "0.6"), ("masking.multi_scale", "off"),
                                ("training.scale_min", "0.9"), ("training.scale_max", "1.1"),
                                ("training.shift", "0.2")])
    assert rc.model.mask_ratio == 0.6 and rc.model.multi_scale_mask is False
    tc = make_train_config(rc, "out")
    assert tc.scale_range == (0.9, 1.1) and tc.shift_range == 0.2
    assert (tc.out_dir, tc.seed, tc.test_mode) == ("out", rc.seed, rc.test_mode)


def test_values_typed_by_field_defaults():
    rc = load_run_config(None, [("model.counts", "64, 32,8"), ("data.kinds", "torus,,plane,"),
                                ("model.local_attention", "NO"), ("eval.probe_lr", "1")])
    assert rc.model.counts == (64, 32, 8)
    assert rc.data.kinds == ("torus", "plane")
    assert rc.model.local_attention is False
    assert rc.eval.probe_lr == 1.0 and isinstance(rc.eval.probe_lr, float)
    assert rc.data.num_points == rc.model.num_points


@pytest.mark.parametrize("spec, raw", [("model.heads", "4.0"), ("model.skip_connections", "maybe"),
                                       ("model.radii", "0.3,x,1.2"), ("training.seed", "1"),
                                       ("data.num_points", "64"), ("training.out_dir", "x"),
                                       ("training.beta1", "0.8"), ("masking.mask_ratio", "0.5")])
def test_bad_or_unknown_keys_rejected(spec, raw):
    with pytest.raises(ConfigError, match=spec):
        load_run_config(None, [(spec, raw)])


def test_snapshot_spells_values_for_replay():
    rc = load_run_config(None)
    rc = replace(rc, model=replace(rc.model, radii=(0.1, 0.2 + 0.1, 1.0 / 3.0)))
    text = resolved_text(rc)
    assert "radii = 0.1,0.30000000000000004,0.3333333333333333\n" in text
    assert "local_attention = true\n" in text
