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
from msmae.config import load_run_config, make_train_config
from msmae.data import DataConfig, make_dataset
from msmae.errors import ConfigError, ContractError, NumericError, WorkerError
from msmae.evaluate import EvalConfig
from msmae.masking import build_index
from msmae.rng import derive_rng

# radii wide enough that most scale-1 and scale-2 tokens of tiny_records'
# unit-sphere clouds have a neighbour, so local attention's backward runs there
TINY = M.ModelConfig(num_points=64, counts=(16, 8, 4), dims=(8, 16, 32),
                     radii=(0.7, 1.1, 1.6), ks=(8, 4, 4),
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

    def test_is_a_similarity(self):
        # train reuses each record's hierarchy for every augmented copy, which
        # is exact only while one scale factor serves all three axes: a
        # per-axis scale would move farthest points and nearest neighbours
        pts = np.random.default_rng(5).normal(size=(64, 3))
        for seed in range(20):
            out = TR.augment(pts, np.random.default_rng(seed))
            ratios = (out[1:] - out[0]) / (pts[1:] - pts[0])
            assert np.allclose(ratios, ratios[0, 0], rtol=1e-9, atol=0.0), seed


class TestHierarchyCache:
    def counting_builds(self, monkeypatch):
        calls = []

        def counted(points, counts, ks):
            calls.append(len(points))
            return build(points, counts, ks)

        build = M.build_index
        monkeypatch.setattr(M, "build_index", counted)
        return calls

    def test_cache_matches_fresh_builds_of_augmented_desk_clouds(self, tmp_path):
        rc = load_run_config(None)
        tc = make_train_config(rc, str(tmp_path))
        records = sorted(make_dataset(rc.data)[0], key=lambda r: r.id)
        index = M.hierarchy_index(rc.model, [r.points for r in records])
        for epoch in range(3):
            aug = np.stack([TR.augment(r.points, derive_rng(0, "augment", epoch, i), tc.scale_range,
                                       tc.shift_range) for i, r in enumerate(records)])
            fresh = build_index(aug, rc.model.counts, rc.model.ks)
            for i in range(rc.model.num_scales):
                assert np.array_equal(fresh.picks[i], index.picks[i]), (epoch, i)
                assert np.array_equal(fresh.neighbor_index[i], index.neighbor_index[i]), (epoch, i)
                assert fresh.picks[i].dtype == index.picks[i].dtype == np.uint8  # 128 points

    def test_train_builds_hierarchies_once_per_run(self, tmp_path, monkeypatch):
        calls = self.counting_builds(monkeypatch)
        records = tiny_records(8)
        for epochs in (1, 3):
            calls.clear()
            TR.train(M.Model.init(TINY, seed=0), records,
                     TR.TrainConfig(epochs=epochs, batch_size=4, warmup_epochs=0, test_mode=True,
                                    out_dir=str(tmp_path / str(epochs))))
            assert calls == [8], epochs  # one stacked build of every record

    def test_finetune_builds_hierarchies_once_per_run(self, monkeypatch):
        calls = self.counting_builds(monkeypatch)
        records = tiny_records(12)
        for epochs in (1, 3):
            calls.clear()
            ec = EvalConfig(finetune_epochs=epochs, finetune_batch_size=4, finetune_warmup_epochs=0)
            E.finetune(M.Model.init(TINY, seed=0), records[:8], records[8:], num_classes=2, ec=ec)
            assert calls == [8, 4], epochs  # the train records once, then the validation features

    def test_extract_features_builds_each_chunk_once(self, monkeypatch):
        calls = self.counting_builds(monkeypatch)
        records = tiny_records(M.HIERARCHY_CHUNK + 3)
        feats = E.extract_features(M.Model.init(TINY, seed=0), records)
        assert feats.shape == (M.HIERARCHY_CHUNK + 3, TINY.dims[-1])
        assert calls == [M.HIERARCHY_CHUNK, 3]


class TestSharedLoop:
    def test_pretraining_batch_in_tape_groups_matches_one_tape(self):
        # 5 clouds at 2 per tape, each cloud masked by its own stream
        model = M.Model.init(TINY, seed=3, dtype=np.float64)
        clouds = [r.points for r in tiny_records(5)]

        def loss_of(clouds, rngs):
            return M.forward_pretrain_batch(model.params, TINY, clouds, rngs)

        def rngs():
            return [derive_rng(0, "mask", 0, i) for i in range(5)]

        with T.Tape() as tape:
            plain = loss_of(clouds, rngs())
        plain_grads = tape.gradients(plain, list(model.params.values()))
        loss, want = TR.tape_gradients(loss_of, (clouds, rngs()), model.params, 5)
        # one tape is the plain tape: no weighing node, the same bits
        assert loss == float(plain.data)
        assert all(w.tobytes() == p.tobytes() for w, p in zip(want, plain_grads))
        grouped, got = TR.tape_gradients(loss_of, (clouds, rngs()), model.params, 2)
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
        assert_no_child()

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
        # without the digest record, a run cannot tell its settings and clouds are the same
        config, params, packed, aux = load_checkpoint(ckpt)
        assert set(aux) == {"run.digest"}
        save_checkpoint(tmp_path / "old.pm2a", config, params, optimizer=packed)
        with pytest.raises(ConfigError, match="has no run digest"):
            TR.train(M.Model.init(TINY, seed=0), records,
                     self.make_tc(tmp_path / "d", epochs=2), resume=tmp_path / "old.pm2a")
        # a file without optimizer state says so first, digest or not
        save_checkpoint(tmp_path / "head.pm2a", config, params, aux={"head.b": np.zeros(3, np.float32)})
        with pytest.raises(ConfigError, match="has no optimizer state"):
            TR.train(M.Model.init(TINY, seed=0), records,
                     self.make_tc(tmp_path / "d", epochs=2), resume=tmp_path / "head.pm2a")
        assert not (tmp_path / "d").exists()

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


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTapeWorker:
    """training.tape_worker: the later half of each step's tape groups in a
    forked process, on machines with two usable CPUs."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """use(n) makes the loop see n CPUs and returns the list that
        collects the pid of each worker forked from then on."""
        forked, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            forked.clear()
            return forked
        return use

    def run_pretrain(self, out):
        tc = TR.TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, seed=5, test_mode=True,
                            checkpoint_every=1, out_dir=str(out))
        TR.train(M.Model.init(TINY, seed=0), tiny_records(8), tc)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def run_finetune(self, out, frozen):
        from msmae.checkpoint import save_checkpoint
        records = tiny_records(40)
        # 32 clouds a step: four tape groups of FINETUNE_TAPE_CLOUDS, the last two the
        # worker's, summed ((g0 + g1) + g2) + g3
        ec = EvalConfig(finetune_epochs=2, finetune_batch_size=32, finetune_warmup_epochs=0,
                        freeze_encoder=frozen)
        model = M.Model.init(TINY, seed=0)
        res, head = E.finetune(model, records[:32], records[32:], num_classes=2, ec=ec, seed=2)
        save_checkpoint(out / "checkpoint_finetuned.pm2a", model.config, model.params, aux=head)
        return {"result": json.dumps(res.as_dict()).encode(),
                "checkpoint": (out / "checkpoint_finetuned.pm2a").read_bytes()}

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "frozen finetune"])
    def test_one_cpu_gives_the_worker_bytes(self, tmp_path, cpus, command):
        outs = []
        for n in (1, 2):
            forked = cpus(n)
            out = tmp_path / str(n)
            out.mkdir()
            if command == "pretrain":
                outs.append(self.run_pretrain(out))
            else:
                outs.append(self.run_finetune(out, frozen=command.startswith("frozen")))
            assert len(forked) == n - 1
        assert list(outs[0]) == list(outs[1])
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name
        assert_no_child()

    def test_params_leave_the_shared_mapping_trained(self, cpus):
        # the loop moves the trainable parameters into memory it shares with
        # the worker, and into arrays of their own when it ends
        forked = cpus(2)
        model = M.Model.init(TINY, seed=0)
        before = {n: p.data.copy() for n, p in model.params.items()}
        ec = EvalConfig(finetune_epochs=1, finetune_batch_size=16, finetune_warmup_epochs=0)
        records = tiny_records(24)
        E.finetune(model, records[:20], records[20:], num_classes=2, ec=ec)
        assert len(forked) == 1
        assert all(p.data.flags.owndata for p in model.params.values())
        trained = [n for n, p in model.params.items() if not np.array_equal(p.data, before[n])]
        assert trained == list(M.encoder_shapes(TINY))

    def test_no_worker_beside_blas_threads(self, tmp_path, monkeypatch, cpus):
        forked = cpus(2)
        monkeypatch.setattr(TR, "ONE_BLAS_THREAD", False)
        self.run_pretrain(tmp_path)
        assert forked == []

    @pytest.mark.parametrize("first, pin, want", [("msmae", None, True), ("numpy", None, False),
                                                  ("numpy", "1", True), ("numpy", "2", False)])
    def test_one_blas_thread_read_where_numpy_loads(self, first, pin, want):
        # OpenBLAS reads its thread count when numpy loads; msmae sets it to 1 on import
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if pin is not None:
            env["OPENBLAS_NUM_THREADS"] = pin
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
                               f"import {first}, msmae; print(msmae.ONE_BLAS_THREAD)"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == str(want), proc.stderr

    def failing_pretrain(self, tmp_path, monkeypatch, fail):
        """Pretraining whose forward_pretrain_batch calls fail(in_worker, call)
        first, then returns the pids of the workers forked."""
        parent, calls, forward = os.getpid(), [], TR.forward_pretrain_batch

        def forward_or_fail(*args):
            calls.append(1)
            fail(os.getpid() != parent, len(calls))
            return forward(*args)

        monkeypatch.setattr(TR, "forward_pretrain_batch", forward_or_fail)
        tc = TR.TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, test_mode=True,
                            out_dir=str(tmp_path))
        TR.train(M.Model.init(TINY, seed=0), tiny_records(8), tc)

    def test_worker_exception_raised_as_its_class(self, tmp_path, monkeypatch, cpus):
        forked = cpus(2)

        def fail(in_worker, call):
            if in_worker:
                raise ContractError("worker group refused")

        with pytest.raises(ContractError, match="worker group refused"):
            self.failing_pretrain(tmp_path, monkeypatch, fail)
        assert len(forked) == 1
        assert_no_child()

    def test_killed_worker_named_within_bounded_time(self, tmp_path, monkeypatch, cpus):
        import signal
        forked = cpus(2)

        def fail(in_worker, call):
            if in_worker and call == 2:  # mid-run: the worker's second group
                os.kill(os.getpid(), signal.SIGKILL)

        def hung(signum, frame):
            raise AssertionError("the parent still waits for a killed worker")

        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(WorkerError, match="killed by signal 9"):
                self.failing_pretrain(tmp_path, monkeypatch, fail)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert len(forked) == 1
        assert_no_child()

    def test_interrupt_reaps_the_worker(self, tmp_path, monkeypatch, cpus):
        forked = cpus(2)

        def fail(in_worker, call):
            if not in_worker and call == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.failing_pretrain(tmp_path, monkeypatch, fail)
        assert len(forked) == 1
        assert_no_child()
