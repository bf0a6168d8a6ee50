"""Optimizer, schedule, and training-loop tests."""

import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from msmae import evaluate as E
from msmae import model as M
from msmae import tensor as T
from msmae import training as TR
from msmae.data import DataConfig, make_dataset
from msmae.errors import ConfigError, ContractError, NumericError
from msmae.evaluate import EvalConfig
from msmae.rng import derive_rng

TINY = M.ModelConfig(num_points=64, counts=(16, 8, 4), dims=(8, 16, 32),
                     radii=(0.32, 0.64, 1.28), ks=(8, 4, 4),
                     encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=2)


def tiny_records(n=8, num_points=64, seed=0):
    dc = DataConfig(total=max(n, 8), num_points=num_points, seed=seed, noise=0.01,
                    kinds=("sphere", "cube-surface"), train_frac=0.5)
    train, test = make_dataset(dc)
    return (train + test)[:n]


class TestSchedule:
    def test_closed_form_no_warmup(self):
        sched = TR.Schedule(base_lr=3e-4, total_epochs=4, steps_per_epoch=25, min_lr=1e-6)
        total = 100
        assert TR.lr_at(0, sched) == pytest.approx(3e-4)  # no warmup: full rate at once
        for step in (1, 13, 50, 99, 100):
            t = step / total
            want = 1e-6 + 0.5 * (3e-4 - 1e-6) * (1 + math.cos(math.pi * t))
            assert TR.lr_at(step, sched) == pytest.approx(want, rel=1e-12)
        assert TR.lr_at(total, sched) == pytest.approx(1e-6)

    def test_closed_form_with_warmup(self):
        sched = TR.Schedule(base_lr=1e-4, total_epochs=10, steps_per_epoch=10,
                            warmup_epochs=2, min_lr=1e-6)
        # linear ramp over the first 20 steps
        assert TR.lr_at(0, sched) == 0.0
        assert TR.lr_at(5, sched) == pytest.approx(1e-4 * 5 / 20)
        assert TR.lr_at(20, sched) == pytest.approx(1e-4)
        # cosine from the end of warmup to the end of training
        t = (60 - 20) / (100 - 20)
        want = 1e-6 + 0.5 * (1e-4 - 1e-6) * (1 + math.cos(math.pi * t))
        assert TR.lr_at(60, sched) == pytest.approx(want, rel=1e-12)
        assert TR.lr_at(100, sched) == pytest.approx(1e-6)

    def test_monotone_decay_after_warmup(self):
        sched = TR.Schedule(base_lr=1e-3, total_epochs=3, steps_per_epoch=7,
                            warmup_epochs=1, min_lr=1e-5)
        rates = [TR.lr_at(s, sched) for s in range(sched.total_steps + 1)]
        w = sched.warmup_steps
        assert all(b >= a for a, b in zip(rates[:w], rates[1:w + 1]))
        assert all(a >= b for a, b in zip(rates[w:], rates[w + 1:]))

    def test_out_of_range_rejected(self):
        sched = TR.Schedule(base_lr=1e-4, total_epochs=1, steps_per_epoch=5)
        with pytest.raises(ContractError):
            TR.lr_at(-1, sched)
        with pytest.raises(ContractError):
            TR.lr_at(6, sched)

    def test_bad_config(self):
        # the schedule's rules belong to the configs its values come from
        bad = [
            TR.TrainConfig(base_lr=-1.0),
            TR.TrainConfig(epochs=0, warmup_epochs=0),
            TR.TrainConfig(epochs=2, warmup_epochs=3),
            TR.TrainConfig(epochs=2, warmup_epochs=2),
            TR.TrainConfig(warmup_epochs=-1),
            TR.TrainConfig(base_lr=1e-4, min_lr=1e-3),
            EvalConfig(finetune_epochs=2, finetune_warmup_epochs=2),
            EvalConfig(finetune_warmup_epochs=-1),
            EvalConfig(finetune_lr=TR.Schedule.min_lr / 2),  # below the rate finetune decays to
            EvalConfig(finetune_lr=math.nan),
        ]
        for config in bad:
            with pytest.raises(ConfigError):
                config.validate()


class TestAdamW:
    def test_first_step_closed_form(self):
        # single decaying parameter at 1.0, gradient 1.0, lr 0.1, wd 0:
        # m_hat = v_hat = 1 -> update = lr * 1 / (1 + eps) ~= lr
        p = {"w": T.tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
        opt = TR.OptimizerState.init(p, weight_decay=0.0)
        TR.adamw_step(p, {"w": np.array([1.0], dtype=np.float32)}, opt, lr=0.1)
        want = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert p["w"].data[0] == pytest.approx(want, abs=1e-7)
        assert opt.step == 1

    def test_decoupled_weight_decay(self):
        # zero gradient: moments stay zero and the only movement is decay
        p = {"w": T.tensor(np.array([2.0], dtype=np.float32), requires_grad=True)}
        opt = TR.OptimizerState.init(p, weight_decay=0.5)
        TR.adamw_step(p, {"w": np.zeros(1, dtype=np.float32)}, opt, lr=0.1)
        assert p["w"].data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_norm_and_mask_token_not_decayed(self):
        assert not TR._decays("enc1.blk1.ln1.g")
        assert not TR._decays("dec1.blk1.ln2.b")
        assert not TR._decays("mask_token")
        assert TR._decays("embed.mlp1.w0")
        assert TR._decays("recon.w")

    def test_two_steps_match_reference_loop(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(4, 3)).astype(np.float32)
        g1 = rng.normal(size=(4, 3)).astype(np.float32)
        g2 = rng.normal(size=(4, 3)).astype(np.float32)
        p = {"w": T.tensor(w0.copy(), requires_grad=True)}
        opt = TR.OptimizerState.init(p, weight_decay=0.05)
        TR.adamw_step(p, {"w": g1}, opt, lr=1e-3)
        TR.adamw_step(p, {"w": g2}, opt, lr=1e-3)

        # independent float64 reference
        w = w0.astype(np.float64)
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for t, g in ((1, g1.astype(np.float64)), (2, g2.astype(np.float64))):
            w *= 1 - 1e-3 * 0.05
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            w -= 1e-3 * mh / (np.sqrt(vh) + 1e-8)
        assert np.abs(p["w"].data - w).max() < 1e-6

    def test_shape_mismatch_rejected(self):
        p = {"w": T.tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)}
        opt = TR.OptimizerState.init(p)
        with pytest.raises(ContractError):
            TR.adamw_step(p, {"w": np.zeros(3, dtype=np.float32)}, opt, lr=1e-3)


class TestAugment:
    def test_is_affine_scale_then_shift(self):
        pts = np.random.default_rng(1).normal(size=(32, 3))
        rng = np.random.default_rng(2)
        out = TR.augment(pts, rng)
        ref = np.random.default_rng(2)
        s = ref.uniform(0.8, 1.25)
        t = ref.uniform(-0.1, 0.1, size=3)
        assert np.allclose(out, pts * s + t)

    def test_ranges_respected(self):
        pts = np.eye(3)
        for seed in range(50):
            out = TR.augment(pts, np.random.default_rng(seed))
            s_est = np.linalg.norm(out[0] - out[1]) / np.linalg.norm(pts[0] - pts[1])
            assert 0.8 - 1e-9 <= s_est <= 1.25 + 1e-9

    def test_input_not_mutated(self):
        pts = np.random.default_rng(3).normal(size=(8, 3))
        keep = pts.copy()
        TR.augment(pts, np.random.default_rng(4))
        assert np.array_equal(pts, keep)


class TestSharedLoop:
    def test_pretraining_batch_in_tape_groups_matches_one_tape(self):
        # 5 clouds at 2 per tape, each cloud masked by its own stream
        model = M.Model.init(TINY, seed=3, dtype=np.float64)
        clouds = [r.points for r in tiny_records(5)]

        def loss_of(rngs):
            return lambda part: M.forward_pretrain_batch(model.params, TINY, clouds[part], rngs[part])

        def rngs():
            return [derive_rng(0, "mask", 0, i) for i in range(5)]

        with T.Tape() as tape:
            plain = loss_of(rngs())(slice(0, 5))
        plain_grads = tape.gradients(plain, list(model.params.values()))
        loss, want = TR.tape_gradients(loss_of(rngs()), 5, model.params)
        # one tape is the plain tape: no weighing node, the same bits
        assert loss == float(plain.data)
        assert all(w.tobytes() == p.tobytes() for w, p in zip(want, plain_grads))
        grouped, got = TR.tape_gradients(loss_of(rngs()), 5, model.params, group=2)
        assert abs(grouped - loss) <= 1e-9 * loss
        scale = max(np.abs(w).max() for w in want)
        assert len(got) == len(model.params)
        for name, g, w in zip(model.params, got, want):
            assert np.abs(g - w).max() <= 1e-9 * scale, name

    def test_batches_drop_the_partial_batch_and_resume_at_an_epoch(self):
        walk = list(TR.batches(10, 4, 5, 0, 3))
        assert [e for e, _ in walk] == [0, 0, 1, 1, 2, 2]
        for epoch in range(3):
            order = derive_rng(5, "shuffle", epoch).permutation(10)
            assert np.array_equal(np.concatenate([r for e, r in walk if e == epoch]), order[:8])
        resumed = list(TR.batches(10, 4, 5, 1, 3))
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(resumed, walk[2:]))

    def test_step_clock_stamps_each_step_once(self, tmp_path, monkeypatch):
        # the benchmark stamps its step clock by rebinding training.adamw_step
        # and evaluate.adamw_step (perfbench/tracing.py)
        stamps = []

        def stamp(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                out = fn(*args, **kw)
                stamps.append(1)
                return out
            return wrapper

        monkeypatch.setattr(TR, "adamw_step", stamp(TR.adamw_step))
        monkeypatch.setattr(E, "adamw_step", stamp(E.adamw_step))
        records = tiny_records(8)
        opt, _ = TR.train(M.Model.init(TINY, seed=0), records,
                          TR.TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, test_mode=True,
                                         augment=False, out_dir=str(tmp_path)))
        assert opt.step == 4 and len(stamps) == 4
        stamps.clear()
        train, val = records[:6], records[6:]
        ec = EvalConfig(finetune_epochs=2, finetune_batch_size=3, finetune_warmup_epochs=0)
        E.finetune(M.Model.init(TINY, seed=0), train, val, num_classes=2, ec=ec)
        assert len(stamps) == 4


class TestTrainLoop:
    def make_tc(self, out_dir, **kw):
        base = dict(epochs=1, batch_size=4, base_lr=1e-4, warmup_epochs=0,
                    seed=0, test_mode=True, augment=False, out_dir=str(out_dir))
        base.update(kw)
        return TR.TrainConfig(**base)

    def test_step_count_and_metrics(self, tmp_path):
        records = tiny_records(8)
        model = M.Model.init(TINY, seed=0)
        tc = self.make_tc(tmp_path)
        TR.train(model, records, tc)
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert len(rows) == 2  # 8 samples, batch 4, drop-last
        assert [r["step"] for r in rows] == [0, 1]
        assert all(r["wall_ms"] == 0 for r in rows)
        assert all(np.isfinite(r["loss"]) for r in rows)
        sched = TR.Schedule(base_lr=1e-4, total_epochs=1, steps_per_epoch=2, min_lr=tc.min_lr)
        assert rows[0]["lr"] == pytest.approx(TR.lr_at(1, sched))
        assert rows[1]["lr"] == pytest.approx(TR.lr_at(2, sched))

    def test_drop_last(self, tmp_path):
        records = tiny_records(8)[:7]
        model = M.Model.init(TINY, seed=0)
        TR.train(model, records, self.make_tc(tmp_path))
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_batch_larger_than_dataset_rejected(self, tmp_path):
        records = tiny_records(4)
        model = M.Model.init(TINY, seed=0)
        with pytest.raises(ConfigError):
            TR.train(model, records, self.make_tc(tmp_path, batch_size=64))

    def test_determinism_across_runs(self, tmp_path):
        records = tiny_records(8)
        losses = []
        for run in range(2):
            model = M.Model.init(TINY, seed=0)
            out = tmp_path / f"run{run}"
            out.mkdir()
            TR.train(model, records, self.make_tc(out, epochs=2))
            losses.append((tmp_path / f"run{run}" / "metrics.jsonl").read_text())
        assert losses[0] == losses[1]

    def test_shard_order_invariance(self, tmp_path):
        records = tiny_records(8)
        outs = []
        for run, recs in enumerate((records, records[::-1])):
            model = M.Model.init(TINY, seed=0)
            out = tmp_path / f"o{run}"
            out.mkdir()
            TR.train(model, recs, self.make_tc(out))
            outs.append((out / "metrics.jsonl").read_text())
        assert outs[0] == outs[1]

    def test_loss_decreases_over_short_run(self, tmp_path):
        records = tiny_records(4)
        model = M.Model.init(TINY, seed=0)
        tc = self.make_tc(tmp_path, epochs=50, batch_size=4, base_lr=1e-3)
        TR.train(model, records, tc)
        rows = [json.loads(ln) for ln in
                (tmp_path / "metrics.jsonl").read_text().strip().splitlines()]
        first = np.mean([r["loss"] for r in rows[:5]])
        last = np.mean([r["loss"] for r in rows[-5:]])
        assert last < 0.5 * first

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_reported_with_step(self, tmp_path):
        records = tiny_records(4)
        model = M.Model.init(TINY, seed=0)
        model.params["recon.w"].data[:] = 1e30  # force overflow in float32
        with pytest.raises(NumericError) as exc:
            TR.train(model, records, self.make_tc(tmp_path, batch_size=4))
        assert "step 0" in str(exc.value)

    def test_checkpoints_written_and_resume_bit_exact(self, tmp_path):
        from msmae.checkpoint import load_checkpoint
        records = tiny_records(8)

        # uninterrupted 4-epoch run, leaving an intermediate at epoch 2
        full_dir = tmp_path / "full"
        full_dir.mkdir()
        model_a = M.Model.init(TINY, seed=0)
        TR.train(model_a, records, self.make_tc(full_dir, epochs=4, checkpoint_every=2))
        assert (full_dir / "checkpoint_epoch0002.pm2a").exists()
        assert (full_dir / "checkpoint_final.pm2a").exists()

        # same config resumed from the intermediate, as after a crash
        resume_dir = tmp_path / "resumed"
        resume_dir.mkdir()
        model_c = M.Model.init(TINY, seed=1)  # deliberately different init, overwritten by resume
        TR.train(model_c, records, self.make_tc(resume_dir, epochs=4, checkpoint_every=2),
                 resume=full_dir / "checkpoint_epoch0002.pm2a")

        _, pa, oa, _ = load_checkpoint(full_dir / "checkpoint_final.pm2a")
        _, pc, oc, _ = load_checkpoint(resume_dir / "checkpoint_final.pm2a")
        assert oa["step"] == oc["step"]
        for n in pa:
            assert np.array_equal(pa[n].data, pc[n].data), n
            assert np.array_equal(oa["m"][n], oc["m"][n]), n

    def test_resume_in_place_leaves_metrics_of_uninterrupted_run(self, tmp_path):
        records = tiny_records(12)  # 6 steps: 3 per epoch, 2 epochs
        texts = []
        for name in ("whole", "resumed"):
            out = tmp_path / name
            out.mkdir()
            TR.train(M.Model.init(TINY, seed=0), records,
                     self.make_tc(out, epochs=2, checkpoint_every=1))
            texts.append((out / "metrics.jsonl").read_text())
        # resume the second run in its own directory from its epoch-1
        # checkpoint, as after a crash that left later lines behind
        out = tmp_path / "resumed"
        TR.train(M.Model.init(TINY, seed=1), records,
                 self.make_tc(out, epochs=2, checkpoint_every=1),
                 resume=out / "checkpoint_epoch0001.pm2a")
        text = (out / "metrics.jsonl").read_text()
        assert len(text.splitlines()) == 6
        assert text == texts[0]

    @pytest.mark.parametrize("kill_at", [1, 2, 3])
    def test_killed_resume_keeps_metrics_history(self, tmp_path, kill_at):
        # a resumed run killed at its k-th step (os._exit: nothing flushes)
        # must leave the lines before its first step on disk
        records = tiny_records(12)  # 3 steps an epoch, 2 epochs
        tc = self.make_tc(tmp_path, epochs=2, checkpoint_every=1)
        TR.train(M.Model.init(TINY, seed=0), records, tc)
        whole = (tmp_path / "metrics.jsonl").read_bytes()
        ckpt = tmp_path / "checkpoint_epoch0001.pm2a"
        here = os.path.dirname(os.path.abspath(__file__))
        script = f"""
import os, sys
sys.path[:0] = [{os.path.join(os.path.dirname(here), "src")!r}, {here!r}]
from msmae import model as M, training as TR
from test_training import TINY, TestTrainLoop, tiny_records
calls, step = [], TR.adamw_step
def dying(*args):
    calls.append(1)
    if len(calls) == {kill_at}:
        os._exit(9)
    step(*args)
TR.adamw_step = dying
tc = TestTrainLoop().make_tc({str(tmp_path)!r}, epochs=2, checkpoint_every=1)
TR.train(M.Model.init(TINY, seed=0), tiny_records(12), tc, resume={str(ckpt)!r})
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 9, proc.stderr
        assert whole.startswith((tmp_path / "metrics.jsonl").read_bytes())
        TR.train(M.Model.init(TINY, seed=1), records, tc, resume=ckpt)
        assert (tmp_path / "metrics.jsonl").read_bytes() == whole

    def test_resume_drops_metrics_from_a_cut_line_on(self, tmp_path):
        records = tiny_records(8)
        tc = self.make_tc(tmp_path, epochs=2, batch_size=4, checkpoint_every=1)
        TR.train(M.Model.init(TINY, seed=0), records, tc)
        whole = (tmp_path / "metrics.jsonl").read_text()
        lines = whole.splitlines(keepends=True)
        (tmp_path / "metrics.jsonl").write_text("".join(lines[:2]) + lines[2][:7])
        TR.train(M.Model.init(TINY, seed=0), records, tc,
                 resume=tmp_path / "checkpoint_epoch0001.pm2a")
        assert (tmp_path / "metrics.jsonl").read_text() == whole

    def test_resume_from_exhausted_run_rejected(self, tmp_path):
        records = tiny_records(8)
        model = M.Model.init(TINY, seed=0)
        TR.train(model, records, self.make_tc(tmp_path, epochs=1, checkpoint_every=1))
        with pytest.raises(ConfigError):
            TR.train(model, records, self.make_tc(tmp_path, epochs=1),
                     resume=tmp_path / "checkpoint_final.pm2a")

    def test_resume_config_mismatch_rejected(self, tmp_path):
        records = tiny_records(8)
        model = M.Model.init(TINY, seed=0)
        TR.train(model, records, self.make_tc(tmp_path, epochs=1, checkpoint_every=1))
        other_cfg = M.ModelConfig(**{**TINY.__dict__, "heads": 4})
        other = M.Model.init(other_cfg, seed=0)
        with pytest.raises(ConfigError):
            TR.train(other, records, self.make_tc(tmp_path, epochs=2),
                     resume=tmp_path / "checkpoint_final.pm2a")

    def test_resume_with_other_training_run_rejected(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        records = tiny_records(8)
        TR.train(M.Model.init(TINY, seed=0), records,
                 self.make_tc(tmp_path / "a", epochs=2, checkpoint_every=1))
        ckpt = tmp_path / "a" / "checkpoint_epoch0001.pm2a"
        for change, recs in (({"base_lr": 0.5}, records), ({"seed": 1}, records),
                             ({}, tiny_records(8, seed=1))):
            with pytest.raises(ConfigError):
                TR.train(M.Model.init(TINY, seed=0), recs,
                         self.make_tc(tmp_path / "b", epochs=2, **change), resume=ckpt)
        assert not (tmp_path / "b").exists()
        # out_dir, test_mode and checkpoint_every do not shape the run
        TR.train(M.Model.init(TINY, seed=0), records[::-1],
                 self.make_tc(tmp_path / "c", epochs=2, test_mode=False), resume=ckpt)
        final = "checkpoint_final.pm2a"
        assert (tmp_path / "c" / final).read_bytes() == (tmp_path / "a" / final).read_bytes()
        # a checkpoint written without the digest record still resumes
        config, params, packed, aux = load_checkpoint(ckpt)
        assert set(aux) == {"run.digest"}
        save_checkpoint(tmp_path / "old.pm2a", config, params, optimizer=packed)
        TR.train(M.Model.init(TINY, seed=0), records,
                 self.make_tc(tmp_path / "d", epochs=2, base_lr=0.5), resume=tmp_path / "old.pm2a")

    def test_augmentation_changes_losses_not_determinism(self, tmp_path):
        records = tiny_records(8)
        texts = []
        for run in range(2):
            model = M.Model.init(TINY, seed=0)
            out = tmp_path / f"a{run}"
            out.mkdir()
            TR.train(model, records, self.make_tc(out, augment=True))
            texts.append((out / "metrics.jsonl").read_text())
        assert texts[0] == texts[1]
        model = M.Model.init(TINY, seed=0)
        out = tmp_path / "noaug"
        out.mkdir()
        TR.train(model, records, self.make_tc(out, augment=False))
        assert (out / "metrics.jsonl").read_text() != texts[0]

    def test_grad_clip_changes_trajectory(self, tmp_path):
        records = tiny_records(8)
        texts = []
        for run, clip in enumerate((0.0, 1e-3)):
            model = M.Model.init(TINY, seed=0)
            out = tmp_path / f"c{run}"
            out.mkdir()
            TR.train(model, records, self.make_tc(out, epochs=2, grad_clip=clip))
            texts.append((out / "metrics.jsonl").read_text())
        assert texts[0] != texts[1]
