"""End-to-end command-line tests, driven in process."""

import dataclasses
import json

import numpy as np
import pytest

from msmae import cli
from msmae.cli import main
from msmae.data import DataConfig, load_pcb, make_records, save_xyz

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

    def test_unknown_override_rejected(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "x"), "--model.wings", "2"])
        assert code == 2
        assert "model.wings" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        code = main(["pretrain", "--out", str(tmp_path / "x"),
                     "--training.epochs", "many"])
        assert code == 2

    def test_invalid_model_shape_rejected(self, tmp_path):
        code = main(["pretrain", "--out", str(tmp_path / "x"),
                     "--model.heads", "7", *TINY_DATA])
        assert code == 2  # 7 does not divide the channel widths


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
        bad.write_bytes(trained.read_bytes().replace(b"\nheads=4\n", b"\nheads=x\n"))
        code = main(["probe", "--checkpoint", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"byte {bad.read_bytes().index(b'heads=x')}" in capsys.readouterr().err

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
                     "--way", "2", "--shot", "2", "--runs", "3",
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
        code = main(["finetune", "--checkpoint", str(trained), "--freeze-encoder",
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


class TestGenData:
    def test_count_arithmetic(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--per-class", "8",
                     "--num-points", "32", "--seed", "5"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["files"] == 40  # 5 kinds x 8
        pcbs = sorted((tmp_path / "ds").rglob("*.pcb"))
        assert len(pcbs) == 40
        assert (tmp_path / "ds" / "labels.tsv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            main(["gen-data", "--out", str(tmp_path / d), "--per-class", "2",
                  "--num-points", "32", "--seed", "9"])
        fa = sorted((tmp_path / "a").rglob("*.pcb"))
        fb = sorted((tmp_path / "b").rglob("*.pcb"))
        assert [f.name for f in fa] == [f.name for f in fb]
        for x, y in zip(fa, fb):
            assert x.read_bytes() == y.read_bytes()

    def test_unknown_kind(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--kinds", "dodecahedron"])
        assert code == 2
        assert "dodecahedron" in capsys.readouterr().err

    def test_negative_noise_rejected(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "ds"), "--noise", "-0.1"])
        assert code == 2
        assert "noise" in capsys.readouterr().err

    def test_defaults_follow_data_config(self, tmp_path, capsys, monkeypatch):
        # gen-data takes its kinds, point count and noise from DataConfig,
        # so a changed default there reaches the command
        changed = dataclasses.make_dataclass(
            "ChangedDataConfig", [("kinds", tuple, dataclasses.field(default=("torus", "plane"))),
                                  ("num_points", int, dataclasses.field(default=24)),
                                  ("noise", float, dataclasses.field(default=0.0))],
            bases=(DataConfig,))
        monkeypatch.setattr(cli, "DataConfig", changed)
        assert main(["gen-data", "--out", str(tmp_path / "ds"), "--per-class", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == 2
        assert sorted(d.name for d in (tmp_path / "ds").iterdir() if d.is_dir()) == ["plane", "torus"]
        points = load_pcb(tmp_path / "ds" / "plane" / "plane-00000.pcb")
        assert points.shape == (24, 3)
        assert np.abs(points[:, 2]).max() == 0.0  # a noiseless plane stays flat


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
                     "--seed", "2", "--no-ms-mask"])
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
