"""Pretraining loop: AdamW, warmup + cosine schedule, augmentation,
deterministic batching, metrics, checkpoint/resume.

Reproducibility model: no generator state is ever serialized. Every random
draw comes from a stream derived as SeedSequence([seed, role, *indices]),
so the shuffle of epoch e, the augmentation of sample i in epoch e, and
the mask of sample i in epoch e are all reconstructible from the config
alone. Resuming from an epoch-boundary checkpoint therefore continues the
interrupted run bit-for-bit, and the resumed run's metrics file matches
the uninterrupted one line for line.

Each optimizer step runs the whole batch as one forward and one backward
pass on a single tape: the clouds' token rows are packed together (see
model.forward_pretrain_batch), and the loss is the mean of the per-cloud
losses, so its gradient is the batch-mean gradient directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .codec import derived, format_value
from .errors import ConfigError, ContractError, NumericError
from .model import forward_pretrain_batch, param_shapes
from .rng import derive_rng


@dataclass
class Schedule:
    """Linear warmup to base_lr, then cosine decay to min_lr.

    Needs 0 <= warmup_epochs < total_epochs, min_lr <= base_lr and
    steps_per_epoch >= 1; TrainConfig and EvalConfig hold the first two.
    """

    base_lr: float
    total_epochs: int
    steps_per_epoch: int
    warmup_epochs: int = 0
    min_lr: float = 1e-6

    @property
    def total_steps(self):
        return self.total_epochs * self.steps_per_epoch

    @property
    def warmup_steps(self):
        return self.warmup_epochs * self.steps_per_epoch


def lr_at(step, sched):
    """Learning rate at a step position in [0, total_steps].

    Ramps linearly 0 -> base over the warmup steps, then follows
    min + (base - min) * (1 + cos(pi * t)) / 2 down to exactly min_lr.
    Both pieces meet at base_lr, so the curve is continuous.
    """
    total, warm = sched.total_steps, sched.warmup_steps
    if not 0 <= step <= total:
        raise ContractError(f"step {step} outside [0, {total}]")
    if step < warm:
        return sched.base_lr * step / warm
    t = (step - warm) / (total - warm)
    return sched.min_lr + 0.5 * (sched.base_lr - sched.min_lr) * (1.0 + math.cos(math.pi * t))


@dataclass
class OptimizerState:
    """AdamW moments plus the step counter and hyperparameters."""

    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05

    @classmethod
    def init(cls, params, **hyper):
        zeros = lambda: {n: np.zeros_like(p.data) for n, p in params.items()}
        return cls(m=zeros(), v=zeros(), **hyper)


def _decays(name):
    # decoupled weight decay skips normalization params and the mask token
    return ".ln" not in name and name != "mask_token"


def adamw_step(params, grads, state, lr):
    """One decoupled-weight-decay Adam update, in place, fixed param order."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ContractError(f"grad shape {g.shape} mismatches param {name} {p.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        if state.weight_decay and _decays(name):
            p.data -= lr * state.weight_decay * p.data
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def augment(points, rng, scale_range=(0.8, 1.25), shift_range=0.1):
    """Random global scaling then random translation.

    Draw order is fixed: one shared scale factor first, then a 3-vector
    shift, so a given generator state always produces the same transform.
    """
    pts = np.asarray(points, dtype=np.float64)
    s = rng.uniform(scale_range[0], scale_range[1])
    shift = rng.uniform(-shift_range, shift_range, size=3)
    return pts * s + shift


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    base_lr: float = 1e-4
    min_lr: float = 1e-6
    warmup_epochs: int = 10
    weight_decay: float = 0.05
    grad_clip: float = 0.0  # 0 disables clipping
    seed: int = derived(0)
    test_mode: bool = derived(False)  # zero wall_ms in metrics so runs diff clean
    augment: bool = True
    scale_range: tuple = (0.8, 1.25)
    shift_range: float = 0.1
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = final only
    out_dir: str = derived("run")

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(f"training.warmup_epochs {self.warmup_epochs} must lie in [0, {self.epochs})")
        # written so that NaN fails every check
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"training.base_lr must be positive and finite, got {self.base_lr}")
        for key, value in (("min_lr", self.min_lr), ("weight_decay", self.weight_decay),
                           ("grad_clip", self.grad_clip), ("shift", self.shift_range),
                           ("checkpoint_every", self.checkpoint_every)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"training.{key} must be >= 0 and finite, got {value}")
        if self.min_lr > self.base_lr:
            raise ConfigError(f"training.min_lr {self.min_lr} exceeds training.base_lr {self.base_lr}")
        if not 0 < self.scale_range[0] <= self.scale_range[1] < math.inf:
            raise ConfigError("training.scale_min must be positive and <= a finite training.scale_max")
        return self


def _kept_metrics(path, step):
    """Lines of an existing metrics file for steps before `step`.

    Stops at the first line that is unterminated or does not parse, such
    as one cut short by a crash; every later line belongs to steps the
    resumed run redoes.
    """
    kept = []
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                if not line.endswith("\n"):
                    break
                try:
                    if json.loads(line)["step"] >= step:
                        break
                except (ValueError, KeyError, TypeError):
                    break
                kept.append(line)
    return kept


def _run_digest(tc, records):
    """blake2b of the TrainConfig fields that shape a run and of the sorted
    training records (ids and coordinates), one byte per float32 entry so
    that checkpoints store it exactly as their "run.digest" aux record."""
    h = hashlib.blake2b(digest_size=16)
    for f in fields(tc):
        if f.name not in ("out_dir", "test_mode", "checkpoint_every"):
            h.update(f"{f.name}={format_value(getattr(tc, f.name))}\n".encode())
    for r in records:
        h.update(f"{r.id}\n".encode() + np.ascontiguousarray(r.points, dtype=np.float64).tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8).astype(np.float32)


def train(model, records, tc, resume=None, snapshot=None):
    """Pretrain on DatasetRecord-like items (need .points and .id).

    Emits one JSON metric line per optimizer step to out_dir/metrics.jsonl
    and writes checkpoints under out_dir, and the text `snapshot`, when
    given, to out_dir/config.ini. Returns (opt_state, last_loss).
    Records are sorted by id first, so shard order never matters. A
    non-finite batch loss aborts with the failing step in the message.
    On resume, metrics lines of the steps the run redoes are dropped
    before new ones are written, and a checkpoint whose run digest
    (_run_digest) differs from this run's is refused: it cannot continue
    exactly. A refused resume writes nothing.
    """
    tc.validate()
    records = sorted(records, key=lambda r: r.id)
    if len(records) < tc.batch_size:
        raise ConfigError(f"batch_size {tc.batch_size} exceeds dataset size {len(records)}")
    steps_per_epoch = len(records) // tc.batch_size
    digest = _run_digest(tc, records)
    sched = Schedule(base_lr=tc.base_lr, min_lr=tc.min_lr, warmup_epochs=tc.warmup_epochs,
                     total_epochs=tc.epochs, steps_per_epoch=steps_per_epoch)
    names = list(param_shapes(model.config))
    opt = OptimizerState.init(model.params, weight_decay=tc.weight_decay)
    start_epoch = 0
    if resume is not None:
        config, params, packed, aux = load_checkpoint(resume)
        if config != model.config:
            raise ConfigError(f"checkpoint config in {resume} differs from the active config")
        if "run.digest" in (aux or {}) and not np.array_equal(aux["run.digest"], digest):
            raise ConfigError(f"{resume} comes from a run with other training settings or records")
        if packed is None:
            raise ConfigError(f"{resume} has no optimizer state; cannot resume training")
        for n in names:
            model.params[n].data = params[n].data
        opt.m, opt.v, opt.step = packed["m"], packed["v"], int(packed["step"])
        start_epoch = int(packed["epoch"])
        if start_epoch >= tc.epochs:
            raise ConfigError(f"checkpoint already at epoch {start_epoch} of {tc.epochs}")
    os.makedirs(tc.out_dir, exist_ok=True)
    if snapshot is not None:
        with open(os.path.join(tc.out_dir, "config.ini"), "w") as fh:
            fh.write(snapshot)
    metrics_path = os.path.join(tc.out_dir, "metrics.jsonl")
    step = opt.step
    kept = _kept_metrics(metrics_path, step) if resume is not None else []
    last_loss = math.nan
    with open(metrics_path, "w") as metrics:
        metrics.writelines(kept)
        for epoch in range(start_epoch, tc.epochs):
            order = derive_rng(tc.seed, "shuffle", epoch).permutation(len(records))
            for b in range(steps_per_epoch):
                t0 = time.monotonic()
                clouds, mask_rngs = [], []
                for i in order[b * tc.batch_size:(b + 1) * tc.batch_size].tolist():
                    pts = records[i].points
                    if tc.augment:
                        pts = augment(pts, derive_rng(tc.seed, "augment", epoch, i),
                                      tc.scale_range, tc.shift_range)
                    clouds.append(pts)
                    mask_rngs.append(derive_rng(tc.seed, "mask", epoch, i))
                with T.Tape() as tape:
                    loss = forward_pretrain_batch(model.params, model.config, clouds, mask_rngs)
                batch_loss = float(loss.data)
                if not math.isfinite(batch_loss):
                    raise NumericError(f"non-finite training loss at step {step} (epoch {epoch})")
                grads = dict(zip(names, tape.gradients(loss, [model.params[n] for n in names])))
                if tc.grad_clip > 0.0:
                    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
                    if norm > tc.grad_clip:  # new arrays: two gradients may share one
                        grads = {n: g * (tc.grad_clip / norm) for n, g in grads.items()}
                lr = lr_at(step + 1, sched)  # step s applies the rate at position s+1
                adamw_step(model.params, grads, opt, lr)
                last_loss = batch_loss
                wall = 0 if tc.test_mode else int((time.monotonic() - t0) * 1000)
                metrics.write(json.dumps({"step": step, "epoch": epoch, "loss": batch_loss,
                                          "lr": lr, "wall_ms": wall}) + "\n")
                step += 1
            if tc.checkpoint_every and (epoch + 1) % tc.checkpoint_every == 0 and epoch + 1 < tc.epochs:
                metrics.flush()  # every line before a checkpoint is on disk before it
                _save(model, opt, epoch + 1, digest,
                      os.path.join(tc.out_dir, f"checkpoint_epoch{epoch + 1:04d}.pm2a"))
        _save(model, opt, tc.epochs, digest, os.path.join(tc.out_dir, "checkpoint_final.pm2a"))
    return opt, last_loss


def _save(model, opt, next_epoch, digest, path):
    packed = {"step": opt.step, "epoch": next_epoch, "m": opt.m, "v": opt.v}
    save_checkpoint(path, model.config, model.params, optimizer=packed, aux={"run.digest": digest})
