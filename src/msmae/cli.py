"""Command-line entry point.

Subcommands: pretrain, probe, fewshot, finetune, gen-data, inspect-mask.
Any configuration field is overridable with `--section.key value`.
Exit codes: 0 success, 2 configuration or usage error, 3 numeric failure.
JSON results go to stdout; progress and errors go to stderr.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_digest, load_run_config, make_train_config, resolved_text
from .data import load_pcb, load_xyz, make_dataset, make_records, save_xyz, write_dataset_dir
from .errors import ConfigError, ContractError, NumericError, ParseError
from .evaluate import extract_features, few_shot_eval, finetune, linear_probe
from .masking import build_scales, verify_consistency
from .model import Model, draw_mask
from .rng import derive_rng
from .training import train


def _log(msg):
    print(msg, file=sys.stderr)


def _collect_overrides(pairs):
    """Turn leftover argv like ['--model.heads', '4'] into override tuples."""
    out = []
    i = 0
    while i < len(pairs):
        flag = pairs[i]
        if not flag.startswith("--") or "." not in flag:
            raise ConfigError(f"unrecognized argument {flag!r}; "
                              "expected --section.key value")
        if "=" in flag:
            spec, value = flag[2:].split("=", 1)
        else:
            if i + 1 >= len(pairs):
                raise ConfigError(f"override {flag} is missing a value")
            spec, value = flag[2:], pairs[i + 1]
            i += 1
        out.append((spec, value))
        i += 1
    return out


def _run_config(args, rest):
    overrides = _collect_overrides(rest)
    rc = load_run_config(args.config, overrides)
    if getattr(args, "seed", None) is not None:
        rc.seed = args.seed
    if rc.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {rc.seed}")
    if getattr(args, "test_mode", False):
        rc.test_mode = True
    if args.out:  # before any work: --out's nearest existing ancestor must be a writable directory
        base = os.path.abspath(args.out)
        while not os.path.exists(base):
            base = os.path.dirname(base)
        if not (os.path.isdir(base) and os.access(base, os.W_OK)):
            raise ConfigError(f"cannot create output directory {args.out}: "
                              f"{base} is not a writable directory")
    return rc


def _eval_inputs(args, rest):
    """(run config, model, (train, val) records) of an evaluation command.

    The model comes from --checkpoint, or fresh weights with --random-init,
    never both; the run config takes its [model] and the clouds its point
    count, so config.ini and config_digest name the model that ran.
    """
    rc = _run_config(args, rest)
    if args.random_init == bool(args.checkpoint):
        raise ConfigError("pass either --checkpoint PATH or --random-init")
    if args.random_init:
        _log(f"random-init encoder, seed {rc.seed}")
        model = Model.init(rc.model, seed=rc.seed)
    else:
        config, params, _, _ = load_checkpoint(args.checkpoint)
        model = Model(config=config, params=params)
        _log(f"loaded checkpoint {args.checkpoint}")
    rc.model = model.config
    rc.data.num_points = model.config.num_points
    return rc, model, make_dataset(rc.data)


def _summary_row(out_dir, command, rc, metric, extra=""):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "summary.csv")
    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["command", "config_digest", "seed", "metric", "extra"])
        writer.writerow([command, config_digest(rc), rc.seed, f"{metric:.6f}", extra])


def _eval_out_dir(args):
    if args.out:
        return args.out
    if args.checkpoint:
        return os.path.dirname(os.path.abspath(args.checkpoint))
    return "."


def cmd_pretrain(args, rest):
    rc = _run_config(args, rest)
    train_recs, val_recs = make_dataset(rc.data)
    _log(f"dataset: {len(train_recs)} train / {len(val_recs)} val")
    model = Model.init(rc.model, seed=rc.seed)
    tc = make_train_config(rc, args.out)
    opt, last_loss = train(model, train_recs, tc, resume=args.resume, snapshot=resolved_text(rc))
    result = {
        "final_loss": last_loss,
        "steps": opt.step,
        "checkpoint": os.path.join(args.out, "checkpoint_final.pm2a"),
        "config_digest": config_digest(rc),
    }
    print(json.dumps(result))
    return 0


def cmd_probe(args, rest):
    rc, model, (train_recs, val_recs) = _eval_inputs(args, rest)
    _log(f"extracting features for {len(train_recs)} train / {len(val_recs)} val clouds")
    train_feats = extract_features(model, train_recs)
    val_feats = extract_features(model, val_recs)
    e = rc.eval
    res = linear_probe(train_feats, np.array([r.label for r in train_recs]),
                       val_feats, np.array([r.label for r in val_recs]),
                       iters=e.probe_iters, lr=e.probe_lr,
                       weight_decay=e.probe_weight_decay)
    blob = res.as_dict()
    blob["config_digest"] = config_digest(rc)
    print(json.dumps(blob))
    _summary_row(_eval_out_dir(args), "probe", rc, res.accuracy,
                 "random-init" if args.random_init else "pretrained")
    return 0


def cmd_fewshot(args, rest):
    rc, model, (train_recs, val_recs) = _eval_inputs(args, rest)
    records = sorted(train_recs + val_recs, key=lambda r: r.id)  # episode pool
    _log(f"extracting features for {len(records)} clouds")
    feats = extract_features(model, records)
    labels = np.array([r.label for r in records])
    e = rc.eval
    out = few_shot_eval(feats, labels, way=e.way, shot=e.shot, runs=e.runs,
                        seed=rc.seed, queries=e.queries, iters=e.probe_iters,
                        lr=e.probe_lr, weight_decay=e.probe_weight_decay)
    out["config_digest"] = config_digest(rc)
    print(json.dumps(out))
    _summary_row(_eval_out_dir(args), "fewshot", rc, out["mean"],
                 f"std={out['std']:.6f}")
    return 0


def cmd_finetune(args, rest):
    rc, model, (train_recs, val_recs) = _eval_inputs(args, rest)
    num_classes = len({r.label for r in train_recs})
    e = rc.eval
    _log(f"finetuning on {len(train_recs)} clouds, {num_classes} classes, "
         f"{'frozen' if e.freeze_encoder else 'end-to-end'}")
    res, head = finetune(model, train_recs, val_recs, num_classes, e, seed=rc.seed)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint_finetuned.pm2a")
    save_checkpoint(ckpt, model.config, model.params, aux=head)
    with open(os.path.join(args.out, "config.ini"), "w") as fh:
        fh.write(resolved_text(rc))
    blob = res.as_dict()
    blob["config_digest"] = config_digest(rc)
    blob["checkpoint"] = ckpt
    print(json.dumps(blob))
    _summary_row(args.out, "finetune", rc, res.accuracy,
                 "frozen" if e.freeze_encoder else "end-to-end")
    return 0


def cmd_gen_data(args, rest):
    dc = _run_config(args, rest).data
    if dc.source != "synthetic":
        raise ConfigError(f"gen-data draws synthetic clouds; data.source is {dc.source!r}")
    records = make_records(replace(dc, normalize=False))  # written as drawn
    write_dataset_dir(args.out, records, list(dc.kinds))
    result = {"out": args.out, "files": len(records), "classes": len(dc.kinds)}
    print(json.dumps(result))
    return 0


def cmd_inspect_mask(args, rest):
    rc = _run_config(args, rest)
    cfg = rc.model
    if args.input.endswith(".pcb"):
        pts = load_pcb(args.input).astype(np.float64)
    else:
        pts = load_xyz(args.input)
    repr = build_scales(pts, list(cfg.counts), list(cfg.ks))
    assignment = draw_mask(cfg, repr, derive_rng(rc.seed, "mask", 0))
    os.makedirs(args.out, exist_ok=True)
    for i in range(repr.num_scales):
        vis = assignment.visible[i]
        save_xyz(os.path.join(args.out, f"scale{i + 1}_visible.xyz"), repr.seeds[i][vis])
        save_xyz(os.path.join(args.out, f"scale{i + 1}_masked.xyz"), repr.seeds[i][~vis])
    print(f"counts: {','.join(str(c) for c in cfg.counts)}")
    print(f"visible: {','.join(str(assignment.num_visible(i)) for i in range(repr.num_scales))}")
    violations = verify_consistency(repr, assignment)
    if violations:
        print("closure: VIOLATED")
        for v in violations[:8]:
            print(f"  {v}")
    else:
        print("closure: OK")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="msmae",
        description="Multi-scale masked autoencoding for point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", default=None,
                       help="profile name (desk, paper) or INI path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--test-mode", action="store_true", dest="test_mode",
                       help="zero timing fields so outputs diff clean")
        p.add_argument("--out", required=out_required, default=None,
                       help="output directory")

    p = sub.add_parser("pretrain", help="self-supervised reconstruction training")
    common(p, out_required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(fn=cmd_pretrain)

    def eval_common(p, out_required=False):
        common(p, out_required)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--random-init", action="store_true", dest="random_init",
                       help="evaluate a freshly initialized encoder instead")

    p = sub.add_parser("probe", help="linear probe on frozen global features")
    eval_common(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("fewshot", help="K-way N-shot episodes on frozen features")
    eval_common(p)
    p.set_defaults(fn=cmd_fewshot)

    p = sub.add_parser("finetune", help="train a classification head (optionally end-to-end)")
    eval_common(p, out_required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("gen-data", help="write the run's synthetic clouds as a PCB dataset directory")
    p.add_argument("--config", default=None, help="profile name (desk, paper) or INI path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("inspect-mask", help="export per-scale visible/masked point sets")
    common(p, out_required=True)
    p.add_argument("--input", required=True, help=".xyz or .pcb point cloud")
    p.set_defaults(fn=cmd_inspect_mask)
    return parser


def main(argv=None):
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    try:
        # a diverging run ends in one NumericError line, not under numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args, rest)
    except (ConfigError, ParseError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
