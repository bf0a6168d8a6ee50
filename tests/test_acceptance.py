"""Acceptance checklist: eleven binding criteria, one per test, in order.

Each test appends a PASS/FAIL line to RESULTS; conftest reprints the
collected lines after the run so the checklist survives pytest's output
capture. Tolerances and runtime bounds are fixed here on purpose, do not
loosen them to make a failure go away.
"""

import contextlib
import io
import json
import math
import time

import numpy as np

import msmae.geometry as G
import msmae.masking as K
import msmae.model as M
import msmae.tensor as T
from msmae.cli import main as cli
from msmae.data import DataConfig, load_pcb, make_dataset, save_pcb
from msmae.training import (OptimizerState, Schedule, TrainConfig, _decays,
                            adamw_step, lr_at, train)
from test_geometry import fps_oracle, knn_oracle
from test_tensor import fd_check

SMALL = M.ModelConfig(num_points=128, counts=(64, 32, 8), dims=(32, 64, 128),
                      radii=(0.32, 0.64, 1.28), ks=(16, 8, 8),
                      encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=4)

RESULTS = []


def report(num, name, ok, detail):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_geometry_matches_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(1, min(n, 16) + 1))
        pts = rng.standard_normal((n, 3))
        assert np.array_equal(G.fps(pts, m), fps_oracle(pts, m))
        k = int(rng.integers(1, min(n, 8) + 1))
        q = rng.standard_normal((int(rng.integers(1, 9)), 3))
        assert np.array_equal(G.knn(q, pts, k), knn_oracle(q, pts, k))

    # hand-evaluated values: unit-distance singletons give squared distance 1
    # in each direction, so the symmetrized value is exactly 2
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert float(G.chamfer(a, b).data) == 2.0
    a2 = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b2 = np.array([[1.0, 0.0, 0.0]])
    # a->b: (1 + 1)/2 = 1; b->a: min(1, 1) = 1; total 2
    assert float(G.chamfer(a2, b2).data) == 2.0
    r = np.random.default_rng(1).normal(size=(17, 3))
    s = np.random.default_rng(2).normal(size=(9, 3))
    assert float(G.chamfer(r, s).data) == float(G.chamfer(s, r).data)
    assert float(G.chamfer(r, r).data) == 0.0

    dt = time.perf_counter() - t0
    report(1, "geometry matches brute-force oracles", dt < 10.0,
           f"1000 fps/knn instances exact, chamfer hand values, {dt:.1f}s (bound 10s)")


def test_criterion_02_mask_back_projection_consistency(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = M.ModelConfig()
    keep = cfg.counts[-1] - math.floor(cfg.mask_ratio * cfg.counts[-1])
    assert keep == 13
    for i in range(100):
        rng = np.random.default_rng(i)
        cloud = rng.standard_normal((cfg.num_points, 3))
        sc = K.build_scales(cloud, cfg.counts, cfg.ks)
        vis = K.sample_visible(cfg.counts[-1], cfg.mask_ratio, rng)
        asg = K.back_project(sc, vis)
        assert K.verify_consistency(sc, asg) == []
        assert int(asg.visible[-1].sum()) == keep

    # independent per-scale masks must break closure on the fixed seed
    cloud = np.random.default_rng(0).standard_normal((cfg.num_points, 3))
    save_pcb(tmp_path / "cloud.pcb", cloud.astype(np.float32))
    assert cli(["inspect-mask", "--input", str(tmp_path / "cloud.pcb"),
                "--out", str(tmp_path / "m"), "--seed", "0", "--no-ms-mask"]) == 0
    assert "closure: VIOLATED" in capsys.readouterr().out

    dt = time.perf_counter() - t0
    report(2, "mask back-projection consistency", dt < 10.0,
           f"100 clouds closed and minimal, coarsest visible == {keep}, "
           f"ablation breaks closure, {dt:.1f}s (bound 10s)")


def test_criterion_03_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    tol = 1e-3

    def arr(*shape):
        return rng.normal(size=shape)

    def dot(x):
        # sum of squares: pure, and keeps row-normalized outputs informative
        return T.reduce_sum(T.mul(x, x))

    allow = np.ones((3, 4, 4), dtype=bool)
    allow[:, 0, 2] = False  # keep one pair blocked, each row still nonempty
    labels = np.array([0, 2, 1])
    seg = np.array([0, 0, 1, 2, 2])
    chamfer_target = arr(2, 5, 3)
    cases = [
        ("add", lambda a, b: dot(T.add(a, b)), [arr(3, 4), arr(3, 4)]),
        ("sub", lambda a, b: dot(T.sub(a, b)), [arr(3, 4), arr(3, 4)]),
        ("mul", lambda a, b: dot(T.mul(a, b)), [arr(3, 4), arr(3, 4)]),
        ("broadcast add", lambda a, b: dot(T.add(a, b)), [arr(3, 4), arr(4)]),
        ("matmul", lambda a, b: dot(T.matmul(a, b)), [arr(3, 4), arr(4, 2)]),
        ("gelu", lambda a: dot(T.gelu(a)), [arr(3, 4)]),
        ("layer_norm", lambda a, g, b: dot(T.layer_norm(a, g, b)),
         [arr(3, 4), 1 + 0.1 * arr(4), 0.1 * arr(4)]),
        ("masked_softmax", lambda a: dot(T.masked_softmax(a, allow)), [arr(3, 4, 4)]),
        ("concat", lambda a, b: dot(T.concat([a, b], axis=-1)), [arr(3, 2), arr(3, 3)]),
        ("gather", lambda a: dot(T.gather(a, np.array([0, 2, 2, 4]))), [arr(5, 3)]),
        ("segment_max", lambda a: dot(T.segment_max(a, seg, 3)), [arr(5, 4)]),
        ("segment_mean", lambda a: dot(T.segment_mean(a, seg, 3)), [arr(5, 4)]),
        ("reshape", lambda a: dot(T.reshape(a, (6, 2))), [arr(3, 4)]),
        ("transpose", lambda a: dot(T.transpose(a, (1, 0))), [arr(3, 4)]),
        ("reduce_sum", lambda a: T.reduce_sum(a), [arr(3, 4)]),
        ("reduce_sum axis", lambda a: dot(T.reduce_sum(a, axis=0)), [arr(3, 4)]),
        ("cross_entropy", lambda a: T.softmax_cross_entropy(a, labels), [arr(3, 4)]),
        ("chamfer_sets", lambda a: T.reduce_sum(G.chamfer_sets(a, chamfer_target)),
         [arr(2, 4, 3)]),
    ]
    for name, fn, arrays in cases:
        fd_check(fn, arrays, tol=tol)

    # end to end: pretrain loss of the small model against central differences
    model = M.Model.init(SMALL, seed=7, dtype=np.float64)
    pts = np.random.default_rng(24).normal(size=(128, 3)) * 0.6
    mask_seed = 11

    def loss_value():
        return float(M.forward_pretrain_batch(model.params, SMALL, [pts],
                                              [np.random.default_rng(mask_seed)]).data)

    with T.Tape() as tape:
        loss = M.forward_pretrain_batch(model.params, SMALL, [pts], [np.random.default_rng(mask_seed)])
    names = list(M.param_shapes(SMALL))
    grads = dict(zip(names, tape.gradients(loss, [model.params[n] for n in names])))
    pick = np.random.default_rng(25)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        name = names[int(pick.integers(len(names)))]
        flat = model.params[name].data.reshape(-1)
        j = int(pick.integers(flat.size))
        keep = flat[j]
        flat[j] = keep + h
        up = loss_value()
        flat[j] = keep - h
        down = loss_value()
        flat[j] = keep
        fd = (up - down) / (2 * h)
        ad = grads[name].reshape(-1)[j]
        err = abs(ad - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
        assert err <= tol, f"{name}[{j}]: ad {ad:.6e} vs fd {fd:.6e}"

    dt = time.perf_counter() - t0
    report(3, "gradients match finite differences", dt < 120.0,
           f"{len(cases)} primitives and 100 end-to-end params within {tol:g} "
           f"(worst {worst:.1e}), {dt:.0f}s (bound 120s)")


def test_criterion_04_attention_locality():
    rng = np.random.default_rng(5)
    model = M.Model.init(SMALL, seed=0)
    for _ in range(20):
        n = int(rng.integers(4, 24))
        coords = rng.normal(size=(n, 3))
        feats = T.tensor(rng.normal(size=(n, SMALL.dims[0])).astype(np.float32))
        radius = float(rng.uniform(0.3, 1.5))
        allow = G.radius_mask(coords, radius)
        pos = M._pos_encoding(model.params, "enc1.pos", coords, np.float32)
        _, probs = M.encoder_block(model.params, "enc1.blk1", feats, pos, allow[None],
                                   SMALL.heads, M.Padding(1, n), return_attn=True)
        probs = probs[0]
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
        assert (probs[:, d2 > radius * radius] == 0.0).all()

    coords = rng.normal(size=(12, 3))
    feats = T.tensor(rng.normal(size=(12, SMALL.dims[0])).astype(np.float32))
    pos = M._pos_encoding(model.params, "enc1.pos", coords, np.float32)
    diameter = math.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1).max())
    local = M.encoder_block(model.params, "enc1.blk1", feats, pos,
                            G.radius_mask(coords, diameter * 1.01)[None], SMALL.heads, M.Padding(1, 12))
    dense = M.encoder_block(model.params, "enc1.blk1", feats, pos,
                            np.ones((1, 12, 12), dtype=bool), SMALL.heads, M.Padding(1, 12))
    gap = float(np.abs(local.data - dense.data).max())
    report(4, "attention locality", gap < 1e-6,
           f"20 token sets exactly zero beyond radius, saturated radius "
           f"matches dense within {gap:.1e} (bound 1e-6)")


def test_criterion_05_interpolation_weights():
    rng = np.random.default_rng(9)
    worst_unity = 0.0
    for _ in range(20):
        fine = rng.normal(size=(int(rng.integers(4, 40)), 3))
        coarse = rng.normal(size=(int(rng.integers(3, 12)), 3))
        _, w = G.interp_weights(fine, coarse, k=3)
        worst_unity = max(worst_unity, float(np.abs(w.sum(axis=1) - 1.0).max()))

    coarse = rng.normal(size=(8, 3))
    feats = rng.normal(size=(8, 6))
    fine = np.concatenate([coarse[2:3], coarse[5:6], rng.normal(size=(5, 3))])
    idx, w = G.interp_weights(fine, coarse, k=3)
    interp = (w[:, :, None] * feats[idx]).sum(axis=1)
    worst_repro = max(float(np.abs(interp[0] - feats[2]).max()),
                      float(np.abs(interp[1] - feats[5]).max()))
    ok = worst_unity < 1e-6 and worst_repro < 1e-6
    report(5, "interpolation weights", ok,
           f"partition of unity off by {worst_unity:.1e}, coincident point "
           f"reproduction off by {worst_repro:.1e} (bounds 1e-6)")


def test_criterion_06_permutation_invariance():
    model = M.Model.init(SMALL, seed=1)
    rng = np.random.default_rng(15)
    worst = 0.0
    for trial in range(20):
        pts = rng.normal(size=(SMALL.num_points, 3)) * 0.6
        base = model.global_feature(pts).data
        perm = rng.permutation(len(pts))
        other = model.global_feature(pts[perm]).data
        rel = float(np.abs(other - base).max() / max(np.abs(base).max(), 1e-12))
        worst = max(worst, rel)
    report(6, "permutation invariance of global features", worst < 1e-5,
           f"20 permutations, worst relative deviation {worst:.1e} (bound 1e-5)")


def test_criterion_07_overfit_regression(tmp_path):
    t0 = time.perf_counter()
    train_recs, _ = make_dataset(DataConfig(total=64, split_seed=1, train_frac=0.5))
    records = train_recs[:32]
    model = M.Model.init(SMALL, seed=0)
    tc = TrainConfig(epochs=300, batch_size=32, base_lr=1e-3, min_lr=1e-6,
                     warmup_epochs=30, augment=False, test_mode=True,
                     out_dir=str(tmp_path))
    train(model, records, tc)
    rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").open()]
    first, final = rows[0]["loss"], rows[-1]["loss"]
    dt = time.perf_counter() - t0
    ok = len(rows) == 300 and final <= 0.1 * first and dt <= 300.0
    report(7, "overfit regression on 32 fixed samples", ok,
           f"loss {first:.3f} -> {final:.4f} over 300 steps "
           f"(ratio {final / first:.3f}, bound 0.1), {dt:.0f}s (bound 300s)")


def test_criterion_08_pretraining_helps_linear_probe(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    assert cli(["pretrain", "--out", str(out), "--seed", "0", "--test-mode"]) == 0

    def probe(extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli(["probe", *extra, "--seed", "0", "--out", str(tmp_path)]) == 0
        return json.loads(buf.getvalue())["accuracy"]

    pre = probe(["--checkpoint", str(out / "checkpoint_final.pm2a")])
    rand = probe(["--random-init"])
    dt = time.perf_counter() - t0
    ok = pre >= rand and pre >= 0.90 and dt <= 1800.0
    report(8, "pretraining helps the linear probe", ok,
           f"pretrained {pre:.4f} vs random-init {rand:.4f} "
           f"(need >= random and >= 0.90), {dt:.0f}s (bound 1800s)")


def test_criterion_09_seeded_runs_bit_identical(tmp_path):
    args = ["--seed", "5", "--test-mode",
            "--data.total", "16", "--data.split_seed", "1",
            "--data.train_frac", "0.5", "--training.epochs", "2",
            "--training.batch_size", "4", "--training.warmup_epochs", "0"]
    for out in ("a", "b"):
        assert cli(["pretrain", "--out", str(tmp_path / out), *args]) == 0
    same_metrics = ((tmp_path / "a" / "metrics.jsonl").read_bytes()
                    == (tmp_path / "b" / "metrics.jsonl").read_bytes())
    same_ckpt = ((tmp_path / "a" / "checkpoint_final.pm2a").read_bytes()
                 == (tmp_path / "b" / "checkpoint_final.pm2a").read_bytes())
    report(9, "seeded runs are bit-identical", same_metrics and same_ckpt,
           f"metrics identical: {same_metrics}, checkpoints identical: {same_ckpt}")


def test_criterion_10_schedule_and_optimizer_closed_forms():
    sched = Schedule(base_lr=1.5e-3, min_lr=1e-6, warmup_epochs=4,
                     total_epochs=40, steps_per_epoch=7)
    total, warm = sched.total_steps, sched.warmup_steps
    rng = np.random.default_rng(10)
    steps = sorted({0, 1, warm - 1, warm, total - 1, total}
                   | {int(s) for s in rng.integers(0, total + 1, size=94)})
    worst_lr = 0.0
    for s in steps:
        if s < warm:
            want = sched.base_lr * s / warm
        else:
            t = (s - warm) / (total - warm)
            want = sched.min_lr + 0.5 * (sched.base_lr - sched.min_lr) * (1 + math.cos(math.pi * t))
        worst_lr = max(worst_lr, abs(lr_at(s, sched) - want))

    rng = np.random.default_rng(31)
    params = {"enc.w": T.tensor(rng.normal(size=(4, 3))),
              "enc.ln.gamma": T.tensor(rng.normal(size=(3,))),
              "mask_token": T.tensor(rng.normal(size=(3,)))}
    grads = {n: rng.normal(size=p.data.shape) for n, p in params.items()}
    before = {n: p.data.copy() for n, p in params.items()}
    state = OptimizerState.init(params, beta1=0.9, beta2=0.999, eps=1e-8,
                                weight_decay=0.05, )
    lr = 2e-3
    adamw_step(params, grads, state, lr)
    worst_adam = 0.0
    for n, p in params.items():
        g = grads[n]
        want = before[n].copy()
        if _decays(n):
            want -= lr * 0.05 * want
        want -= lr * g / (np.abs(g) + 1e-8)  # first step: m-hat = g, v-hat = g^2
        worst_adam = max(worst_adam, float(np.abs(p.data - want).max()))

    ok = worst_lr <= 1e-12 and worst_adam <= 1e-10
    report(10, "schedule and optimizer closed forms", ok,
           f"lr off by {worst_lr:.1e} at {len(steps)} steps (bound 1e-12), "
           f"first adamw step off by {worst_adam:.1e} (bound 1e-10)")


def test_criterion_11_round_trip_and_resume(tmp_path):
    cloud = np.random.default_rng(2).normal(size=(256, 3)).astype(np.float32)
    path = tmp_path / "cloud.pcb"
    save_pcb(path, cloud)
    back = load_pcb(path)
    pcb_ok = back.tobytes() == cloud.tobytes() and back.dtype == cloud.dtype
    save_pcb(tmp_path / "again.pcb", back)
    pcb_ok &= (tmp_path / "again.pcb").read_bytes() == path.read_bytes()

    train_recs, _ = make_dataset(DataConfig(total=16, split_seed=1, train_frac=0.5))
    def tc(out, epochs=4):
        return TrainConfig(epochs=epochs, batch_size=4, base_lr=1e-3,
                           warmup_epochs=0, augment=False, test_mode=True,
                           checkpoint_every=2, out_dir=str(tmp_path / out))
    train(M.Model.init(SMALL, seed=3), train_recs, tc("full"))
    train(M.Model.init(SMALL, seed=3), train_recs, tc("resumed"),
          resume=tmp_path / "full" / "checkpoint_epoch0002.pm2a")
    resume_ok = ((tmp_path / "full" / "checkpoint_final.pm2a").read_bytes()
                 == (tmp_path / "resumed" / "checkpoint_final.pm2a").read_bytes())
    report(11, "round-trip save, load, resume", pcb_ok and resume_ok,
           f"pcb bits preserved: {pcb_ok}, resumed run's final checkpoint "
           f"bit-identical to the uninterrupted run: {resume_ok}")
