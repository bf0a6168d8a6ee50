"""Pretraining loop: AdamW, warmup + cosine schedule, augmentation,
deterministic batching, metrics, checkpoint/resume.

Reproducibility model: no generator state is ever serialized. Every random
draw comes from a stream derived as SeedSequence([seed, role, *indices]),
so the shuffle of epoch e, the augmentation of sample i in epoch e, and
the mask of sample i in epoch e are all reconstructible from the config
alone. Resuming from an epoch-boundary checkpoint therefore continues the
interrupted run bit-for-bit, and the resumed run's metrics file matches
the uninterrupted one line for line, even after a resume that was killed.

Pretraining and finetuning share one optimizer loop: batches walks the
epochs' shuffled batches, tape_gradients gives a batch's mean loss and
gradients, and apply_step checks the loss and steps AdamW. Pretraining
runs the whole batch on a single tape, its clouds' token rows packed
together (model.forward_pretrain_batch), so the mean of the per-cloud
losses gives the batch-mean gradient directly.
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
from .model import forward_pretrain_batch
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


def batches(n, batch_size, seed, start_epoch, epochs):
    """(epoch, rows) of every step from start_epoch on: each epoch's
    "shuffle" permutation of n rows cut into full batches, the last
    partial batch dropped."""
    for epoch in range(start_epoch, epochs):
        order = derive_rng(seed, "shuffle", epoch).permutation(n)
        for b in range(n // batch_size):
            yield epoch, order[b * batch_size:(b + 1) * batch_size]


def tape_gradients(loss_of, m, params, group=None):
    """(loss, gradients in params order) of the mean loss over m batch rows.

    loss_of(part) records on the open tape the mean loss of the rows in
    the slice `part`. Slices of `group` rows run on a tape each, weighed
    by nb / m, and their losses and gradients are summed. A batch on one
    tape adds no weighing node and copies no gradient.
    """
    group = group or m
    loss_sum, total = 0.0, None
    for lo in range(0, m, group):
        nb = min(group, m - lo)
        with T.Tape() as tape:
            loss = loss_of(slice(lo, lo + nb))
            if nb < m:
                loss = T.mul(loss, nb / m)
        loss_sum += float(loss.data)
        grads = tape.gradients(loss, list(params.values()))
        if total is None:  # copies: two gradients may share one array
            total = grads if nb == m else [g.copy() for g in grads]
        else:
            for acc, g in zip(total, grads):
                acc += g
    return loss_sum, total


def apply_step(params, grads, opt, sched, loss, epoch, what, grad_clip=0.0):
    """AdamW step on params from a batch's loss and gradients (in params
    order), clipped to global norm grad_clip when > 0; returns the rate.
    A non-finite loss raises NumericError first, naming `what` and where."""
    if not math.isfinite(loss):
        raise NumericError(f"non-finite {what} loss at step {opt.step} (epoch {epoch})")
    grads = dict(zip(params, grads))
    if grad_clip > 0.0:
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > grad_clip:  # new arrays: two gradients may share one
            grads = {n: g * (grad_clip / norm) for n, g in grads.items()}
    lr = lr_at(opt.step + 1, sched)  # step s applies the rate at position s+1
    adamw_step(params, grads, opt, lr)
    return lr


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


def _kept_bytes(path, step):
    """Byte length of the leading lines of a metrics file for steps before `step`.

    Stops at the first line that is unterminated or does not parse, such
    as one cut short by a crash; every later line belongs to steps the
    resumed run redoes.
    """
    kept = 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                try:
                    if json.loads(line)["step"] >= step:
                        break
                except (ValueError, KeyError, TypeError):
                    break
                kept += len(line)
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
        for n, p in model.params.items():
            p.data = params[n].data
        opt.m, opt.v, opt.step = packed["m"], packed["v"], int(packed["step"])
        start_epoch = int(packed["epoch"])
        if start_epoch >= tc.epochs:
            raise ConfigError(f"checkpoint already at epoch {start_epoch} of {tc.epochs}")
    os.makedirs(tc.out_dir, exist_ok=True)
    if snapshot is not None:
        with open(os.path.join(tc.out_dir, "config.ini"), "w") as fh:
            fh.write(snapshot)
    metrics_path = os.path.join(tc.out_dir, "metrics.jsonl")
    kept = _kept_bytes(metrics_path, opt.step) if resume is not None else 0
    last_loss = math.nan
    with open(metrics_path, "a") as metrics:
        metrics.truncate(kept)  # kept lines stay on disk, however this run ends
        for epoch, rows in batches(len(records), tc.batch_size, tc.seed, start_epoch, tc.epochs):
            t0 = time.monotonic()
            rows = rows.tolist()
            clouds = [records[i].points for i in rows]
            if tc.augment:
                clouds = [augment(pts, derive_rng(tc.seed, "augment", epoch, i), tc.scale_range,
                                  tc.shift_range) for pts, i in zip(clouds, rows)]
            mask_rngs = [derive_rng(tc.seed, "mask", epoch, i) for i in rows]
            loss, grads = tape_gradients(lambda part: forward_pretrain_batch(
                model.params, model.config, clouds[part], mask_rngs[part]), len(rows), model.params)
            lr = apply_step(model.params, grads, opt, sched, loss, epoch, "training", tc.grad_clip)
            last_loss = loss
            wall = 0 if tc.test_mode else int((time.monotonic() - t0) * 1000)
            metrics.write(json.dumps({"step": opt.step - 1, "epoch": epoch, "loss": loss,
                                      "lr": lr, "wall_ms": wall}) + "\n")
            done, rest = divmod(opt.step, steps_per_epoch)  # epochs complete
            if not rest and tc.checkpoint_every and done % tc.checkpoint_every == 0 and done < tc.epochs:
                metrics.flush()  # every line before a checkpoint is on disk before it
                _save(model, opt, done, digest,
                      os.path.join(tc.out_dir, f"checkpoint_epoch{done:04d}.pm2a"))
        _save(model, opt, tc.epochs, digest, os.path.join(tc.out_dir, "checkpoint_final.pm2a"))
    return opt, last_loss


def _save(model, opt, next_epoch, digest, path):
    packed = {"step": opt.step, "epoch": next_epoch, "m": opt.m, "v": opt.v}
    save_checkpoint(path, model.config, model.params, optimizer=packed, aux={"run.digest": digest})
