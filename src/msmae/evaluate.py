"""Frozen-feature linear probe, few-shot episodes, and classifier finetuning.

The probe is a multinomial logistic regression trained by full-batch
gradient descent from a zero initialization: fully deterministic, no rng
involved. Features are standardized with train-split statistics first.
Few-shot evaluation draws K-way (N support + 20 query)-per-class episodes
from precomputed features. Finetuning puts a 3-layer MLP head on the
pooled global feature and trains with the same optimizer machinery as
pretraining, optionally with the encoder frozen. A finetune step builds
its batch's hierarchies in one stacked call and then runs
FINETUNE_TAPE_CLOUDS clouds per tape, their token rows packed as in
pretraining; more clouds per tape would hold more activations at once.
EvalConfig holds the settings of all three: the run's [eval] section.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .model import encode_batch, hierarchy, init_params, pool_tokens
from .rng import derive_rng
from .training import OptimizerState, Schedule, adamw_step, lr_at


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
        # written so that NaN fails every check
        if not (0 < self.probe_lr < math.inf and Schedule.min_lr <= self.finetune_lr < math.inf):
            raise ConfigError("eval learning rates must be finite, probe_lr positive and finetune_lr "
                              f">= {Schedule.min_lr}, the rate finetune decays to")
        if not 0 <= self.probe_weight_decay < math.inf:
            raise ConfigError("eval.probe_weight_decay must be >= 0 and finite")
        if not 0 <= self.finetune_warmup_epochs < self.finetune_epochs:
            raise ConfigError("eval.finetune_warmup_epochs must lie in [0, finetune_epochs)")
        return self


@dataclass
class ProbeResult:
    accuracy: float
    per_class: list
    confusion: list  # rows true class, columns predicted
    num_train: int
    num_test: int

    def as_dict(self):
        return asdict(self)


def _score(labels, pred, num_classes, num_train):
    """ProbeResult of predicted against true class labels."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    row = confusion.sum(axis=1)
    per_class = np.where(row > 0, confusion.diagonal() / np.maximum(row, 1), 0.0)
    return ProbeResult(accuracy=float(confusion.trace() / max(confusion.sum(), 1)),
                       per_class=[float(x) for x in per_class], confusion=confusion.tolist(),
                       num_train=num_train, num_test=len(labels))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(train_feats, train_labels, test_feats, test_labels,
                 iters=500, lr=0.1, weight_decay=1e-4):
    """Multinomial logistic regression on frozen features.

    Zero-initialized, full-batch gradient descent, weight decay on the
    weight matrix but not the bias row. Deterministic: two calls with the
    same arrays give the same result bit for bit.
    """
    Xtr = np.asarray(train_feats, dtype=np.float64)
    Xte = np.asarray(test_feats, dtype=np.float64)
    ytr = np.asarray(train_labels, dtype=np.int64)
    yte = np.asarray(test_labels, dtype=np.int64)
    if Xtr.ndim != 2 or Xtr.shape[0] != ytr.shape[0]:
        raise ContractError(f"train features {Xtr.shape} do not align with labels {ytr.shape}")
    classes = np.unique(np.concatenate([ytr, yte]))
    k = int(classes.max()) + 1
    if np.unique(ytr).size < 2:
        raise ConfigError("probe needs at least two classes in the train split")
    if Xtr.shape[0] < np.unique(ytr).size:
        raise ConfigError(f"{Xtr.shape[0]} train rows cannot cover {np.unique(ytr).size} classes")
    mu = Xtr.mean(axis=0)
    sd = np.maximum(Xtr.std(axis=0), 1e-6)
    Xtr = np.concatenate([(Xtr - mu) / sd, np.ones((Xtr.shape[0], 1))], axis=1)
    Xte = np.concatenate([(Xte - mu) / sd, np.ones((Xte.shape[0], 1))], axis=1)
    m = Xtr.shape[0]
    onehot = np.zeros((m, k))
    onehot[np.arange(m), ytr] = 1.0
    W = np.zeros((Xtr.shape[1], k))
    for _ in range(iters):
        G = Xtr.T @ (_softmax(Xtr @ W) - onehot) / m
        G[:-1] += weight_decay * W[:-1]
        W -= lr * G
    return _score(yte, (Xte @ W).argmax(axis=1), k, m)


HIERARCHY_CHUNK = 32  # records whose hierarchies are built in one stacked call


def extract_features(model, records):
    """Global feature per record, stacked (M, C_S); no masking, no tape.

    Hierarchies are built for HIERARCHY_CHUNK consecutive records at a
    time, then each record goes through Model.global_feature with its
    prebuilt scales.
    """
    feats = []
    for start in range(0, len(records), HIERARCHY_CHUNK):
        part = records[start:start + HIERARCHY_CHUNK]
        reprs, _ = hierarchy(model.config, [r.points for r in part])
        feats += [model.global_feature(r.points, s).data for r, s in zip(part, reprs)]
    return np.stack(feats)


def sample_episode(labels, way, shot, seed, run, queries=20):
    """One K-way episode, (train_rows, test_rows): `shot` support and
    `queries` query rows per class.

    Classes are drawn without replacement from the sorted label set; rows
    within a class are permuted and split, so support and query never
    overlap.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if way > classes.size:
        raise ConfigError(f"{way}-way episode impossible with {classes.size} classes")
    rng = derive_rng(seed, "episode", run)
    chosen = rng.choice(classes, size=way, replace=False)
    train_rows, test_rows = [], []
    for c in chosen:
        rows = np.flatnonzero(labels == c)
        if rows.size < shot + queries:
            raise ConfigError(
                f"class {int(c)} has {rows.size} samples, {shot}-shot needs {shot + queries}"
            )
        perm = rng.permutation(rows)
        train_rows.extend(perm[:shot])
        test_rows.extend(perm[shot:shot + queries])
    return np.asarray(train_rows), np.asarray(test_rows)


def few_shot_eval(features, labels, way, shot, runs=10, seed=0, queries=20, **probe_kw):
    """Mean and std of probe accuracy over independent episodes."""
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    labels = np.asarray(labels)
    accs = []
    for run in range(runs):
        train_rows, test_rows = sample_episode(labels, way, shot, seed, run, queries=queries)
        remap = {int(c): i for i, c in enumerate(np.unique(labels[train_rows]))}
        ytr = np.asarray([remap[int(l)] for l in labels[train_rows]])
        yte = np.asarray([remap[int(l)] for l in labels[test_rows]])
        res = linear_probe(features[train_rows], ytr, features[test_rows], yte, **probe_kw)
        accs.append(res.accuracy)
    accs = np.asarray(accs)
    return {"mean": float(accs.mean()), "std": float(accs.std()), "runs": [float(a) for a in accs],
            "way": way, "shot": shot, "queries": queries}


def head_shapes(feat_dim, num_classes):
    """3-layer MLP classifier head on the pooled global feature."""
    if feat_dim < 2 or num_classes < 2:
        raise ConfigError(f"head needs feat_dim >= 2 and >= 2 classes, got {feat_dim}/{num_classes}")
    h = feat_dim // 2
    return {
        "head.w0": (feat_dim, feat_dim), "head.b0": (feat_dim,),
        "head.w1": (feat_dim, h), "head.b1": (h,),
        "head.w2": (h, num_classes), "head.b2": (num_classes,),
    }


def init_head(feat_dim, num_classes, seed, dtype=np.float32):
    return init_params(head_shapes(feat_dim, num_classes), seed, dtype)


def head_forward(head, feats):
    h = T.gelu(T.linear(feats, head["head.w0"], head["head.b0"]))
    h = T.gelu(T.linear(h, head["head.w1"], head["head.b1"]))
    return T.linear(h, head["head.w2"], head["head.b2"])


FINETUNE_TAPE_CLOUDS = 2  # clouds per tape in a finetune step; more would raise peak memory


def batch_gradients(model, head, wrt, labels, clouds=None, feats=None):
    """(loss, gradients for wrt) of the mean cross-entropy over one batch.

    Pass clouds to run the encoder on the tape (their hierarchies are
    built in one stacked call, unmasked), or feats, precomputed (M, C)
    global features, for a frozen encoder. Consecutive groups of
    FINETUNE_TAPE_CLOUDS clouds share a tape; a group's loss weighs
    nb / M, so the summed losses and gradients are those of the batch mean.
    """
    m = len(labels)
    if clouds is not None:
        reprs, assignments = hierarchy(model.config, clouds)
    loss_sum, total = 0.0, None
    for lo in range(0, m, FINETUNE_TAPE_CLOUDS):
        part = slice(lo, lo + FINETUNE_TAPE_CLOUDS)
        nb = len(labels[part])
        with T.Tape() as tape:
            if clouds is None:
                gf = T.tensor(feats[part])
            else:
                top = encode_batch(model.params, model.config, reprs[part], assignments[part])[-1]
                gf = pool_tokens(top, nb)
            loss = T.mul(T.softmax_cross_entropy(head_forward(head, gf), labels[part]), nb / m)
        loss_sum += float(loss.data)
        grads = tape.gradients(loss, wrt)
        if total is None:  # copies: two gradients may share one array
            total = [g.copy() for g in grads]
        else:
            for acc, g in zip(total, grads):
                acc += g
    return loss_sum, total


def finetune(model, train_records, val_records, num_classes, ec, seed=0):
    """Train the MLP head (and optionally the encoder) for classification.

    The EvalConfig `ec` gives the finetune_* settings and freeze_encoder;
    weight decay and the final learning rate are the OptimizerState and
    Schedule defaults. seed draws the head and the shuffles. Masking
    is off throughout: features come from the full cloud. A step's
    gradient is the batch mean, from FINETUNE_TAPE_CLOUDS clouds per tape
    (batch_gradients). With freeze_encoder the features are precomputed
    once, without a tape, and only the head is updated, so the encoder's
    parameters are bit-identical afterwards. A non-finite batch loss
    raises NumericError before its step is applied.
    Returns (ProbeResult on the validation split, head parameter dict).
    """
    ec.validate()
    batch_size, frozen = ec.finetune_batch_size, ec.freeze_encoder
    records = sorted(train_records, key=lambda r: r.id)
    if len(records) < batch_size:
        raise ConfigError(f"batch_size {batch_size} exceeds train size {len(records)}")
    feat_dim = model.config.dims[-1]
    head = init_head(feat_dim, num_classes, seed)
    cached = extract_features(model, records) if frozen else None
    trainable = dict(head) if frozen else {**model.params, **head}
    names, wrt = list(trainable), list(trainable.values())
    opt = OptimizerState.init(trainable)
    steps_per_epoch = len(records) // batch_size
    sched = Schedule(base_lr=ec.finetune_lr, warmup_epochs=ec.finetune_warmup_epochs,
                     total_epochs=ec.finetune_epochs, steps_per_epoch=steps_per_epoch)
    labels = np.asarray([r.label for r in records])
    step = 0
    for epoch in range(ec.finetune_epochs):
        order = derive_rng(seed, "shuffle", epoch).permutation(len(records))
        for b in range(steps_per_epoch):
            batch = order[b * batch_size:(b + 1) * batch_size]
            if frozen:
                loss, grads = batch_gradients(model, head, wrt, labels[batch], feats=cached[batch])
            else:
                loss, grads = batch_gradients(model, head, wrt, labels[batch],
                                              clouds=[records[i].points for i in batch.tolist()])
            if not math.isfinite(loss):
                raise NumericError(f"non-finite finetune loss at step {step} (epoch {epoch})")
            adamw_step(trainable, dict(zip(names, grads)), opt, lr_at(step + 1, sched))
            step += 1
    val = sorted(val_records, key=lambda r: r.id)
    logits = head_forward(head, T.tensor(extract_features(model, val).astype(np.float32))).data
    labels = np.asarray([r.label for r in val])
    return _score(labels, logits.argmax(axis=1), num_classes, len(records)), head
