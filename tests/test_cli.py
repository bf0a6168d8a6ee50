"""End-to-end command-line tests, driven in process."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from msmae import cli
from msmae.checkpoint import load_checkpoint, save_checkpoint
from msmae.cli import main
from msmae.config import _KEYS, load_run_config
from msmae.data import PCB_MAGIC, DataConfig, load_pcb, make_records, save_xyz

TINY_DATA = ["--data.total", "16", "--data.split_seed", "1", "--data.train_frac", "0.5"]
TINY_TRAIN = ["--training.epochs", "1", "--training.batch_size", "4",
              "--training.warmup_epochs", "0"]


def shape(kind, n, seed):
    dc = DataConfig(kinds=(kind,), per_class=1, num_points=n, noise=0.01, seed=seed,
                    normalize=False)
    return make_records(dc)[0].points


def run_pretrain(out, seed="3", extra=()):
    return main(["pretrain", "--out", str(out), "--seed", seed, "--test-mode",
                 *TINY_DATA, *TINY_TRAIN, *extra])


class TestPretrain:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        assert run_pretrain(tmp_path / "run") == 0
        blob = json.loads(capsys.readouterr().out)
        assert np.isfinite(blob["final_loss"])
        assert (tmp_path / "run" / "checkpoint_final.pm2a").exists()
        assert (tmp_path / "run" / "metrics.jsonl").exists()
        assert (tmp_path / "run" / "config.ini").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "x"),
                     "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "nope.ini" in capsys.readouterr().err

    def test_undecodable_config_file(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(b"[run]\nseed = 1\xff\n")
        code = main(["pretrain", "--out", str(tmp_path / "x"), "--config", str(ini)])
        assert f"{ini}:2: not UTF-8" in assert_one_error_line(code, capsys)

    def test_same_seed_identical_metrics(self, tmp_path):
        run_pretrain(tmp_path / "a")
        run_pretrain(tmp_path / "b")
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        assert a == (tmp_path / "b" / "metrics.jsonl").read_bytes()

    def test_snapshot_replays_run(self, tmp_path):
        run_pretrain(tmp_path / "a")
        code = main(["pretrain", "--out", str(tmp_path / "b"),
                     "--config", str(tmp_path / "a" / "config.ini")])
        assert code == 0
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        assert a == (tmp_path / "b" / "metrics.jsonl").read_bytes()

    def test_data_seed_draws_other_clouds(self, tmp_path):
        from msmae.config import load_run_config
        from msmae.data import make_dataset
        assert run_pretrain(tmp_path / "s3", extra=["--data.seed", "3"]) == 0
        replayed = load_run_config(tmp_path / "s3" / "config.ini")
        assert replayed.data.seed == 3
        seeded, _ = make_dataset(replayed.data)
        overrides = list(zip((flag[2:] for flag in TINY_DATA[::2]), TINY_DATA[1::2]))
        default, _ = make_dataset(load_run_config(None, overrides).data)
        assert not np.array_equal(np.stack([r.points for r in seeded]),
                                  np.stack([r.points for r in default]))

    def test_refused_resume_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "run"
        two_epochs = ["--training.epochs", "2", "--training.checkpoint_every", "1"]
        assert run_pretrain(out, extra=two_epochs) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        code = run_pretrain(out, extra=[*two_epochs, "--training.base_lr", "0.5", "--resume",
                                        str(out / "checkpoint_epoch0001.pm2a")])
        assert code == 2
        assert "other training settings" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        config, params, packed, _ = load_checkpoint(out / "checkpoint_epoch0001.pm2a")
        save_checkpoint(tmp_path / "no-digest.pm2a", config, params, optimizer=packed)
        code = run_pretrain(out, extra=[*two_epochs, "--resume", str(tmp_path / "no-digest.pm2a")])
        assert code == 2
        assert "has no run digest" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    @pytest.mark.parametrize("table, label, shape", [("m", "first", (1,)), ("v", "second", (3,))])
    def test_resume_refuses_moments_of_another_shape(self, tmp_path, capsys, table, label, shape):
        out = tmp_path / "run"
        two_epochs = ["--training.epochs", "2", "--training.checkpoint_every", "1"]
        assert run_pretrain(out, extra=two_epochs) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        config, params, packed, aux = load_checkpoint(out / "checkpoint_epoch0001.pm2a")
        packed[table]["embed.mlp1.b0"] = np.zeros(shape, np.float32)
        save_checkpoint(tmp_path / "bad.pm2a", config, params, optimizer=packed, aux=aux)
        capsys.readouterr()
        code = run_pretrain(out, extra=[*two_epochs, "--resume", str(tmp_path / "bad.pm2a")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
        assert f"{label}-moment embed.mlp1.b0 has shape {shape}, config wants (16,)" in errors[0]
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    @pytest.mark.parametrize("spellings", [
        (["--seed", "3"], ["--run.seed", "3"]),
        (["--seed", "3", "--run.seed", "5"], ["--run.seed", "3"]),  # the flag wins
        (["--training.epochs", "2"], ["--training.epochs=2"]),
    ], ids=lambda pair: " vs ".join(" ".join(argv) for argv in pair))
    def test_spellings_of_a_key_resolve_alike(self, tmp_path, capsys, spellings):
        seen = []
        for i, argv in enumerate(spellings):
            out = tmp_path / str(i)
            assert main(["pretrain", "--out", str(out), "--test-mode", *TINY_DATA, *TINY_TRAIN,
                         *argv]) == 0
            seen.append((json.loads(capsys.readouterr().out)["config_digest"],
                         (out / "config.ini").read_bytes()))
        assert seen[0] == seen[1]

    def test_unknown_override_rejected(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "x"), "--model.wings", "2"])
        assert code == 2
        assert "model.wings" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "x"),
                     "--training.epochs", "many"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["model.multi_scale_mask", "model.local_attention",
                                      "model.skip_connections"])
    def test_readme_ablation_trains(self, tmp_path, capsys, flag):
        assert run_pretrain(tmp_path / "run", extra=[f"--{flag}", "false"]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["final_loss"])
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert lines and all(np.isfinite(json.loads(line)["loss"]) for line in lines)

    def test_invalid_model_shape_rejected(self, tmp_path):
        code = main(["pretrain", "--out", str(tmp_path / "x"),
                     "--model.heads", "7", *TINY_DATA])
        assert code == 2  # 7 does not divide the channel widths


def assert_one_error_line(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


class TestRejectedValues:
    @pytest.mark.parametrize("key,value", [
        ("training.shift_range", "nan"), ("training.base_lr", "nan"), ("training.weight_decay", "-1"),
        ("training.min_lr", "-1"), ("training.scale_range", "-1,1.25"), ("training.grad_clip", "nan"),
        ("training.checkpoint_every", "-1"), ("eval.probe_lr", "nan"),
        ("eval.probe_weight_decay", "nan"), ("data.noise", "nan"),
        ("model.radii", "nan,nan,nan"), ("training.warmup_epochs", "-1"),
        ("training.min_lr", "0.01"), ("model.mask_ratio", "1.0"), ("model.mask_ratio", "0"),
        ("training.scale_range", "0.9"), ("training.scale_range", "1.25,0.8"),
        ("eval.finetune_warmup_epochs", "-1"), ("eval.finetune_lr", "1e-7"),
        ("training.shift_range", "1e9"), ("training.scale_range", "0.8,2.5"),
        ("training.scale_range", "0.4,1.25"),
    ])
    def test_out_of_range_value(self, tmp_path, capsys, key, value):
        out = tmp_path / "run"
        code = main(["pretrain", "--out", str(out), *TINY_DATA, *TINY_TRAIN, f"--{key}", value])
        assert_one_error_line(code, capsys)
        assert not out.exists()  # rejected before config.ini is written

    @pytest.mark.parametrize("command", ["pretrain", "probe", "finetune", "ini"])
    def test_negative_seed(self, tmp_path, capsys, command):
        if command == "ini":
            ini = tmp_path / "neg.ini"
            ini.write_text("[run]\nseed = -1\n")
            argv = ["pretrain", "--config", str(ini)]
        else:
            argv = [command, "--seed", "-1"] + ([] if command == "pretrain" else ["--random-init"])
        code = main([*argv, "--out", str(tmp_path / "run"), *TINY_DATA, *TINY_TRAIN])
        assert_one_error_line(code, capsys)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_pretrain(out) == 0
    return out / "checkpoint_final.pm2a"


class TestProbe:
    def test_json_fields(self, trained, tmp_path, capsys):
        code = main(["probe", "--checkpoint", str(trained), "--out", str(tmp_path),
                     *TINY_DATA, "--eval.probe_iters", "50"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) >= {"accuracy", "per_class", "confusion", "config_digest"}
        assert (tmp_path / "summary.csv").read_text().count("\n") == 2  # header + row

    def test_random_init_baseline(self, tmp_path, capsys):
        code = main(["probe", "--random-init", "--seed", "1", "--out", str(tmp_path),
                     *TINY_DATA, "--eval.probe_iters", "50"])
        assert code == 0
        assert "accuracy" in json.loads(capsys.readouterr().out)

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.pm2a"
        bad.write_bytes(b"XXXX" + b"\x00" * 32)
        code = main(["probe", "--checkpoint", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_bad_config_text_in_checkpoint(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.pm2a"
        bad.write_bytes(trained.read_bytes().replace(b"\nheads = 4\n", b"\nheads = x\n"))
        code = main(["probe", "--checkpoint", str(bad), "--out", str(tmp_path)])
        assert "config text at byte 10: bad value for model.heads" in assert_one_error_line(code, capsys)

    def test_checkpoint_with_key_bias_refused(self, tmp_path, capsys, monkeypatch):
        # the parameter table of a model whose attention still had a key bias
        from msmae import checkpoint
        from msmae.model import Model, param_shapes
        cfg = load_run_config(None).model
        params = Model.init(cfg, seed=0).params
        params["enc1.blk1.attn.bk"] = params["enc1.blk1.attn.bq"]
        monkeypatch.setattr(checkpoint, "param_shapes",
                            lambda c: {**param_shapes(c), "enc1.blk1.attn.bk": (cfg.dims[0],)})
        checkpoint.save_checkpoint(tmp_path / "old.pm2a", cfg, params)
        monkeypatch.undo()
        code = main(["probe", "--checkpoint", str(tmp_path / "old.pm2a"), "--out", str(tmp_path)])
        assert "unexpected ['enc1.blk1.attn.bk']" in assert_one_error_line(code, capsys)

    def test_neither_checkpoint_nor_random_init(self, tmp_path, capsys):
        code = main(["probe", "--out", str(tmp_path), *TINY_DATA])
        assert code == 2

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        code = main(["probe", "--checkpoint", str(tmp_path / "gone.pm2a"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestFewshot:
    def test_mean_and_std(self, trained, tmp_path, capsys):
        code = main(["fewshot", "--checkpoint", str(trained), "--out", str(tmp_path),
                     "--eval.way", "2", "--eval.shot", "2", "--eval.runs", "3",
                     "--data.total", "40", "--data.split_seed", "1",
                     "--data.train_frac", "0.5",
                     "--eval.queries", "2", "--eval.probe_iters", "50"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob) >= {"mean", "std", "runs", "way", "shot", "config_digest"}
        assert blob["way"] == 2 and blob["shot"] == 2
        assert len(blob["runs"]) == 3


class TestFinetune:
    def test_frozen_reuses_encoder_bits(self, trained, tmp_path, capsys):
        from msmae.checkpoint import load_checkpoint
        code = main(["finetune", "--checkpoint", str(trained), "--eval.freeze_encoder", "true",
                     "--out", str(tmp_path), *TINY_DATA,
                     "--eval.finetune_epochs", "2", "--eval.finetune_batch_size", "4",
                     "--eval.finetune_warmup_epochs", "0"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert 0.0 <= blob["accuracy"] <= 1.0
        _, p0, _, _ = load_checkpoint(trained)
        _, p1, _, aux = load_checkpoint(tmp_path / "checkpoint_finetuned.pm2a")
        for n in p0:
            assert np.array_equal(p0[n].data, p1[n].data), n
        assert any(n.startswith("head.") for n in aux)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_3(self, trained, tmp_path, capsys):
        code = main(["finetune", "--checkpoint", str(trained), "--out", str(tmp_path),
                     *TINY_DATA, "--eval.finetune_lr", "1e8",
                     "--eval.finetune_epochs", "3", "--eval.finetune_batch_size", "4",
                     "--eval.finetune_warmup_epochs", "0"])
        assert code == 3
        assert "non-finite finetune loss at step" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint_finetuned.pm2a").exists()

    def test_diverging_run_reports_without_numpy_warnings(self, trained, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["finetune", "--checkpoint", str(trained), "--out", str(tmp_path),
                         *TINY_DATA, "--eval.finetune_lr", "1e8",
                         "--eval.finetune_epochs", "3", "--eval.finetune_batch_size", "4",
                         "--eval.finetune_warmup_epochs", "0"])
        assert code == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("error: non-finite finetune loss at step")


FINETUNE_TINY = [*TINY_DATA, "--eval.finetune_epochs", "1", "--eval.finetune_batch_size", "4",
                 "--eval.finetune_warmup_epochs", "0"]


@pytest.fixture(scope="module")
def heads8(tmp_path_factory):
    out = tmp_path_factory.mktemp("heads8")
    assert run_pretrain(out, extra=["--model.heads", "8"]) == 0
    return out


class TestEvalRuns:
    """What probe, fewshot and finetune state and keep about the model that ran."""

    def test_finetune_states_the_checkpoints_model_and_keeps_its_run(self, trained, heads8,
                                                                      tmp_path, capsys):
        run_files = lambda: {f.name: f.read_bytes() for f in heads8.iterdir()}
        snapshot = run_files()
        ckpt = str(heads8 / "checkpoint_final.pm2a")
        for command in ("probe", "fewshot", "finetune"):
            with pytest.raises(SystemExit) as exc:  # --out is required
                main([command, "--checkpoint", ckpt, *FINETUNE_TINY])
            assert exc.value.code == 2
        assert run_files() == snapshot
        capsys.readouterr()
        digests = []
        for name, checkpoint in (("ft8", ckpt), ("ft4", str(trained))):
            assert main(["finetune", "--checkpoint", checkpoint, "--out", str(tmp_path / name),
                         *FINETUNE_TINY]) == 0
            digests.append(json.loads(capsys.readouterr().out)["config_digest"])
        assert digests[0] != digests[1]
        assert load_run_config(tmp_path / "ft8" / "config.ini").model.heads == 8
        assert run_files() == snapshot

    @pytest.mark.parametrize("command", ["probe", "fewshot"])
    def test_digest_names_the_checkpoints_model(self, heads8, tmp_path, capsys, command):
        base = [command, "--checkpoint", str(heads8 / "checkpoint_final.pm2a"),
                "--out", str(tmp_path / "eval"), "--eval.probe_iters", "5", "--eval.way", "2",
                "--eval.shot", "1", "--eval.runs", "1", "--eval.queries", "1", *TINY_DATA]
        digests = []
        for extra in ([], ["--model.heads", "8"]):
            assert main([*base, *extra]) == 0
            digests.append(json.loads(capsys.readouterr().out)["config_digest"])
        assert digests[0] == digests[1]
        rows = (tmp_path / "eval" / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == digests

    @pytest.mark.parametrize("command", ["probe", "fewshot", "finetune"])
    def test_checkpoint_with_random_init_rejected(self, tmp_path, capsys, command):
        code = main([command, "--random-init", "--checkpoint", str(tmp_path / "none" / "x.pm2a"),
                     "--out", str(tmp_path / "out"), *TINY_DATA])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "out").exists()


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["pretrain", "probe", "fewshot", "finetune", "gen-data",
                                         "inspect-mask"])
    def test_out_under_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command):
        def no_work(*args, **kw):
            raise AssertionError("work started")

        for name in ("train", "finetune", "extract_features", "make_dataset", "make_records"):
            monkeypatch.setattr(cli, name, no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = {"pretrain": [*TINY_TRAIN], "gen-data": [],
                "inspect-mask": ["--input", str(tmp_path / "cloud.xyz")]}.get(command, ["--random-init"])
        code = main([command, "--out", str(blocker / "out"), *argv, *TINY_DATA])
        assert_one_error_line(code, capsys)
        assert blocker.read_text() == ""


class TestGenData:
    def test_count_arithmetic(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--data.per_class", "8",
                     "--data.seed", "5"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["files"] == 40  # 5 kinds x 8
        pcbs = sorted((tmp_path / "ds").rglob("*.pcb"))
        assert len(pcbs) == 40
        assert (tmp_path / "ds" / "labels.tsv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            main(["gen-data", "--out", str(tmp_path / d), "--data.per_class", "2",
                  "--data.seed", "9"])
        fa = sorted((tmp_path / "a").rglob("*.pcb"))
        fb = sorted((tmp_path / "b").rglob("*.pcb"))
        assert [f.name for f in fa] == [f.name for f in fb]
        for x, y in zip(fa, fb):
            assert x.read_bytes() == y.read_bytes()

    def test_unknown_kind(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--data.kinds", "dodecahedron"])
        assert code == 2
        assert "dodecahedron" in capsys.readouterr().err

    def test_negative_noise_rejected(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--data.noise", "-0.1"])
        assert code == 2
        assert "noise" in capsys.readouterr().err

    def test_writes_the_runs_unnormalized_records(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[data]\nkinds = torus,plane\nnoise = 0\n")
        code = main(["gen-data", "--config", str(ini), "--out", str(tmp_path / "ds"),
                     "--data.per_class", "2", "--model.num_points", "96",
                     "--model.counts", "48,16,8"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"out": str(tmp_path / "ds"),
                                                       "files": 4, "classes": 2}
        assert sorted(d.name for d in (tmp_path / "ds").iterdir() if d.is_dir()) == ["plane", "torus"]
        rc = load_run_config(ini, [("data.per_class", "2"), ("model.num_points", "96"),
                                   ("model.counts", "48,16,8")])
        for rec in make_records(dataclasses.replace(rc.data, normalize=False)):
            kind = rec.id.rsplit("-", 1)[0]
            points = load_pcb(tmp_path / "ds" / kind / f"{rec.id}.pcb")
            assert points.shape == (96, 3)
            assert np.array_equal(points, rec.points.astype(np.float32))
            if kind == "plane":  # noiseless and unnormalized, a plane stays flat
                assert np.abs(points[:, 2]).max() == 0.0

    def test_directory_source_rejected(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--data.source", str(tmp_path)])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "ds").exists()


@pytest.fixture(scope="module")
def three_classes(tmp_path_factory):
    """A gen-data directory of three classes, labels 0..2 in labels.tsv."""
    out = tmp_path_factory.mktemp("three") / "ds"
    assert main(["gen-data", "--out", str(out), "--data.kinds", "sphere,torus,plane",
                 "--data.per_class", "6"]) == 0
    return out


class TestDatasetDirectory:
    """Dataset directories whose labels or clouds the loader must refuse or count."""

    def copy(self, three_classes, tmp_path, label=lambda old: old):
        root = tmp_path / "ds"
        shutil.copytree(three_classes, root)
        lines = [line.split("\t") for line in (root / "labels.tsv").read_text().splitlines()]
        (root / "labels.tsv").write_text("".join(f"{key}\t{label(int(old))}\n" for key, old in lines))
        return root

    def probe_argv(self, root, tmp_path):
        return ["probe", "--random-init", "--data.source", str(root), "--out", str(tmp_path / "out"),
                *TINY_DATA, "--eval.probe_iters", "5"]

    def assert_refused(self, code, capsys, names):
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and err.strip().splitlines()[-1] == errors[0], err
        assert names in errors[0]

    def test_negative_label_refused(self, three_classes, tmp_path, capsys):
        root = self.copy(three_classes, tmp_path, lambda old: -1 if old == 2 else old)
        line = next(i for i, text in enumerate((root / "labels.tsv").read_text().splitlines(), 1)
                    if text.endswith("\t-1"))
        code = main(self.probe_argv(root, tmp_path))
        self.assert_refused(code, capsys, f"labels.tsv:{line}:")

    def test_undecodable_labels_refused(self, three_classes, tmp_path, capsys):
        root = self.copy(three_classes, tmp_path)
        lines = (root / "labels.tsv").read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        (root / "labels.tsv").write_bytes(b"\n".join(lines))
        code = main(self.probe_argv(root, tmp_path))
        self.assert_refused(code, capsys, "labels.tsv:2: not UTF-8")

    def test_empty_pcb_refused(self, three_classes, tmp_path, capsys):
        root = self.copy(three_classes, tmp_path)
        (root / "torus" / "empty.pcb").write_bytes(PCB_MAGIC + (0).to_bytes(4, "little"))
        with open(root / "labels.tsv", "a") as fh:
            fh.write("torus/empty\t1\n")
        code = main(self.probe_argv(root, tmp_path))
        self.assert_refused(code, capsys, str(root / "torus" / "empty.pcb"))

    def test_finetune_counts_classes_as_probe(self, three_classes, tmp_path, capsys):
        root = self.copy(three_classes, tmp_path, lambda old: old + 1)  # labels 1..3, no 0
        out = tmp_path / "out"
        assert main(["finetune", "--random-init", "--data.source", str(root), "--out", str(out),
                     *FINETUNE_TINY]) == 0
        _, _, _, head = load_checkpoint(out / "checkpoint_finetuned.pm2a")
        assert head["head.w2"].shape[1] == 4


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["fewshot", "--random-init", "--way", "2"], ["fewshot", "--random-init", "--shot", "2"],
        ["fewshot", "--random-init", "--runs", "2"], ["finetune", "--random-init", "--freeze-encoder"],
        ["inspect-mask", "--input", "cloud.xyz", "--no-ms-mask"], ["gen-data", "--kinds", "torus"],
        ["gen-data", "--per-class", "2"], ["gen-data", "--num-points", "32"],
        ["gen-data", "--noise", "0"], ["gen-data", "--seed", "5"],
    ], ids=" ".join)
    def test_exits_2(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "out").exists()


class TestInspectMask:
    def make_cloud(self, tmp_path, n=128):
        pts = shape("torus", n, seed=3)
        path = tmp_path / "cloud.xyz"
        save_xyz(path, pts)
        return path

    def test_exports_and_closure_ok(self, tmp_path, capsys):
        cloud = self.make_cloud(tmp_path)
        code = main(["inspect-mask", "--input", str(cloud), "--out", str(tmp_path / "m"),
                     "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counts: 64,32,8" in out
        assert "closure: OK" in out
        for i in (1, 2, 3):
            assert (tmp_path / "m" / f"scale{i}_visible.xyz").exists()
            assert (tmp_path / "m" / f"scale{i}_masked.xyz").exists()

    def test_ablation_violates_closure(self, tmp_path, capsys):
        cloud = self.make_cloud(tmp_path)
        code = main(["inspect-mask", "--input", str(cloud), "--out", str(tmp_path / "m"),
                     "--seed", "2", "--model.multi_scale_mask", "false"])
        assert code == 0
        assert "closure: VIOLATED" in capsys.readouterr().out

    def test_full_scale_counts_echoed(self, tmp_path, capsys):
        cloud = self.make_cloud(tmp_path, n=2048)
        code = main(["inspect-mask", "--input", str(cloud), "--out", str(tmp_path / "m"),
                     "--seed", "2", "--config", "paper"])
        assert code == 0
        assert "counts: 512,256,64" in capsys.readouterr().out

    def test_pcb_input(self, tmp_path, capsys):
        from msmae.data import save_pcb
        pts = shape("sphere", 128, seed=4)
        path = tmp_path / "cloud.pcb"
        save_pcb(path, pts)
        code = main(["inspect-mask", "--input", str(path), "--out", str(tmp_path / "m"),
                     "--seed", "2"])
        assert code == 0
        assert "closure: OK" in capsys.readouterr().out

    def test_pcb_under_another_extension_exits_2(self, tmp_path, capsys):
        from msmae.data import save_pcb
        path = tmp_path / "cloud.PCB"  # not .pcb, so read as .xyz text
        save_pcb(path, shape("sphere", 128, seed=4))
        code = main(["inspect-mask", "--input", str(path), "--out", str(tmp_path / "m")])
        assert f"{path}:1: not UTF-8" in assert_one_error_line(code, capsys)


def test_blas_thread_count_leaves_the_bytes(tmp_path):
    """msmae pins OpenBLAS to one thread before numpy loads, so a seeded
    desk pretrain and an end-to-end finetune from one checkpoint write the
    same bytes whatever thread count the environment asks for."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def msmae(threads, *argv):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "msmae.cli", *argv, "--seed", "0"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        msmae(threads, "pretrain", "--out", str(out), "--test-mode", "--training.epochs", "2",
              "--training.warmup_epochs", "0")
        msmae(threads, "finetune", "--checkpoint", str(tmp_path / "1" / "checkpoint_final.pm2a"),
              "--out", str(out / "ft"), "--eval.finetune_epochs", "1",
              "--eval.finetune_warmup_epochs", "0")
        written[threads] = [(out / name).read_bytes() for name in
                            ("checkpoint_final.pm2a", "metrics.jsonl", "ft/checkpoint_finetuned.pm2a")]
    assert written["1"] == written["2"]


def test_readme_flags_exist():
    """Every --flag in README.md is an option of some subcommand or a
    --section.key of the configuration (pip's own flags aside)."""
    parser = cli._build_parser()
    known = {opt for action in parser._actions if isinstance(action, argparse._SubParsersAction)
             for sub in action.choices.values() for a in sub._actions for opt in a.option_strings}
    known |= {f"--{section}.{key}" for section, key in _KEYS}
    known.add("--section.key")  # the README's name for any override
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        lines = [line for line in fh if not line.lstrip().startswith("pip ")]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9_-]*(?:\.[a-z0-9_]+)?", "".join(lines)))
    assert len(flags) > 10 and sorted(flags - known) == []
