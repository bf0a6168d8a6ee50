"""msmae benchmark: three workloads through the msmae command line.

    python3 perfbench/run.py --workload pretrain|eval|finetune|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each command of a workload runs in a fresh
Python process (perfbench/launch.py), timed from this process. A run repeats
whole rounds of its workload's commands, with the same inputs, until
--seconds have passed and at least MIN_ROUNDS rounds are done, then checks
the program's outputs and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced rounds, with times
scaled to the machine's nominal speed as gauged by calibrate.py. --trace 1
alternates untraced and traced rounds and reports per-layer metrics from
the traced ones (see README.md). Work files go to .bench_build/perfbench/.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

import calibrate  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

EPOCHS = 2
BATCH = 32  # desk batch size, for pretrain and finetune alike
MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 150
FIXTURE_SEED = 0
PRETRAIN_ARGS = ["--training.epochs", str(EPOCHS), "--training.warmup_epochs", "0",
                 "--training.checkpoint_every", "1"]
FINETUNE_ARGS = ["--eval.finetune_epochs", str(EPOCHS), "--eval.finetune_warmup_epochs", "0"]
TENSOR_OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "masked_softmax", "gather", "concat",
              "reshape", "transpose", "segment_max", "segment_mean", "reduce_sum",
              "softmax_cross_entropy", "apply_op")
STAGES = ("enc1", "enc2", "enc3", "dec1", "dec2")


class BenchError(Exception):
    """The benchmark itself cannot run here."""


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def metric_units():
    """Unit of every metric, as BENCHMARK.json beside this directory names it."""
    bench = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


# ---------------------------------------------------------------- commands

class Command:
    """One finished msmae process: clocks, exit code, peak RSS and outputs."""

    def __init__(self, tag, code, spawn, exit_time, usage, clock, stdout, spans):
        self.tag, self.code, self.clock, self.stdout, self.spans = tag, code, clock, stdout, spans
        self.ok = code == 0 and clock.get("first_call") is not None
        self.setup_s = clock["first_call"] - spawn if self.ok else math.nan
        self.wall_s = exit_time - clock["first_call"] if self.ok else math.nan
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime

    def result(self):
        """The JSON object the command printed last on stdout."""
        return json.loads(self.stdout.strip().splitlines()[-1])


def run_command(tag, argv, rundir, trace):
    report = os.path.join(rundir, f"{tag}.clock.json")
    spans = os.path.join(rundir, f"{tag}.spans.npz") if trace else "-"
    out_path = os.path.join(rundir, f"{tag}.stdout")
    with open(out_path, "w") as out, open(os.path.join(rundir, f"{tag}.stderr"), "w") as err:
        spawn = tracing.now()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launch.py"), report, spans,
                                 "--", *argv], stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exit_time = tracing.now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    clock = json.loads(read(report)) if os.path.exists(report) else {}
    return Command(tag, proc.returncode, spawn, exit_time, usage, clock, read(out_path),
                   spans if trace else None)


def warm_up(seconds=1.5):
    """Keep every allowed CPU busy for a moment before the first timed round.

    On a virtual machine whose CPUs have sat idle, the first second or so
    of work that uses both BLAS threads can run several times slower
    (measured: 32 ms instead of 7 ms per featurized cloud after 20 s idle).
    That is a state of the machine, not of the program, so it is paid here
    and not in the first round.
    """
    spin = f"import time\nt = time.monotonic()\nwhile time.monotonic() - t < {seconds}: pass"
    procs = [subprocess.Popen([sys.executable, "-c", spin])
             for _ in range(min(len(os.sched_getaffinity(0)), 8))]
    for p in procs:
        p.wait()


def fixture_key():
    """Hash of src/msmae and of the fixture's pretraining arguments."""
    h = hashlib.sha256(json.dumps([FIXTURE_SEED, PRETRAIN_ARGS]).encode())
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "msmae"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fixture_checkpoint():
    """Pretrained checkpoint for eval and finetune, built once per source tree and schedule."""
    final = os.path.join(WORK, f"fixture-{fixture_key()}")
    ckpt = os.path.join(final, "checkpoint_final.pm2a")
    if os.path.exists(ckpt):
        return ckpt
    tmp = f"{final}.tmp{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    cmd = run_command("fixture", ["pretrain", "--out", tmp, "--seed", str(FIXTURE_SEED), *PRETRAIN_ARGS],
                      tmp, trace=False)
    if not cmd.ok:
        raise BenchError(f"fixture pretraining failed with exit code {cmd.code}; see {tmp}")
    try:
        os.rename(tmp, final)
    except OSError:  # built meanwhile by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return ckpt


# --------------------------------------------------------------- workloads

class Workload:
    """A workload: the commands of one round and the checks of a run."""

    name = ""

    def __init__(self, seed, checkpoint=None):
        from msmae.config import load_run_config
        from msmae.data import make_dataset
        # --seed sets model init, shuffles, augmentation, masks, episodes and
        # the head. The clouds come from the desk profile, whose data seed the
        # command line does not expose, so they are the same for every seed.
        self.seed, self.checkpoint = seed, checkpoint
        self.rc = load_run_config(None)
        self.rc.seed = seed
        self.train_recs, self.val_recs = make_dataset(self.rc.data)

    def commands(self, rounddir):
        """[(tag, argv)] of one round."""
        raise NotImplementedError

    def check(self, rounds):
        """Problems found in the outputs; rounds[i] is a list of Commands."""
        raise NotImplementedError

    def same_outputs(self, rounds, drop=()):
        """Every round printed the same results (paths aside)."""
        def key(cmds):
            out = []
            for c in cmds:
                res = c.result()
                for k in drop:
                    res.pop(k, None)
                out.append(res)
            return out
        first = key(rounds[0])
        if any(key(r) != first for r in rounds[1:]):
            return [f"{self.name}: rounds with one seed printed different results"]
        return []


class Pretrain(Workload):
    name = "pretrain"

    def commands(self, rounddir):
        return [("pretrain", ["pretrain", "--out", os.path.join(rounddir, "pretrain"),
                              "--seed", str(self.seed), *PRETRAIN_ARGS])]

    def check(self, rounds):
        from msmae.checkpoint import load_checkpoint
        from msmae.config import make_train_config
        from msmae.masking import back_project, build_scales, sample_visible
        from msmae.model import decode, encode, reconstruct
        from msmae.rng import derive_rng
        from msmae.training import augment

        problems = []
        out_dirs = [os.path.dirname(r[0].result()["checkpoint"]) for r in rounds]
        losses = [[json.loads(line)["loss"] for line in read(os.path.join(d, "metrics.jsonl")).splitlines()]
                  for d in out_dirs]
        steps = EPOCHS * (len(self.train_recs) // BATCH)
        problems += oracles.check_losses(losses[0], steps)
        if rounds[0][0].result()["steps"] != steps:
            problems.append(f"pretrain reported {rounds[0][0].result()['steps']} steps, want {steps}")
        if any(ls != losses[0] for ls in losses[1:]):
            problems.append("pretrain: per-step losses differ between runs of one seed")
        digests = {hashlib.sha256(read(os.path.join(d, "checkpoint_final.pm2a"), "rb")).hexdigest()
                   for d in out_dirs}
        if len(digests) != 1:
            problems.append("pretrain: final checkpoints differ between runs of one seed")

        cfg, params, _, _ = load_checkpoint(os.path.join(out_dirs[0], "checkpoint_final.pm2a"))
        tc = make_train_config(self.rc, out_dirs[0])
        records = sorted(self.train_recs, key=lambda r: r.id)
        for epoch in (0, EPOCHS - 1):
            # two clouds the run trained on in this epoch, in train()'s index order
            trained = derive_rng(self.seed, "shuffle", epoch).permutation(len(records))[:steps // EPOCHS * BATCH]
            picks = np.random.default_rng([self.seed, 17, epoch]).choice(trained, size=2, replace=False)
            for i in picks.tolist():
                pts = augment(records[i].points, derive_rng(self.seed, "augment", epoch, i),
                              tc.scale_range, tc.shift_range)
                want = oracles.hierarchy_oracle(pts, cfg.counts, cfg.ks)
                rep = build_scales(pts, list(cfg.counts), list(cfg.ks))
                problems += oracles.check_hierarchy(want, rep.seeds, rep.neighbor_index)
                coarse = sample_visible(cfg.counts[-1], cfg.mask_ratio, derive_rng(self.seed, "mask", epoch, i))
                problems += oracles.check_mask(want[1], back_project(rep, coarse).visible, cfg.mask_ratio)
                tokens, rep2, asg = encode(params, cfg, pts, rng=derive_rng(self.seed, "mask", epoch, i))
                pred, loss = reconstruct(params, cfg, decode(params, cfg, tokens, rep2, asg), rep2, asg)
                hidden = ~asg.visible[1]
                seeds1, seeds2 = want[0][:2]
                target = seeds1[want[1][1][hidden]] - seeds2[hidden][:, None, :]
                problems += oracles.check_chamfer(pred.data, target, float(loss.data))
        return problems


class Eval(Workload):
    name = "eval"

    def commands(self, rounddir):
        base = ["--checkpoint", self.checkpoint, "--out", os.path.join(rounddir, "eval"),
                "--seed", str(self.seed)]
        return [("probe", ["probe", *base]), ("fewshot", ["fewshot", *base])]

    def check(self, rounds):
        from msmae.checkpoint import load_checkpoint
        from msmae.model import Model

        probe, fewshot = (c.result() for c in rounds[0])
        e = self.rc.eval
        problems = oracles.check_confusion(probe, len(self.val_recs), min_accuracy=0.90)
        problems += oracles.check_fewshot(fewshot, e.way, e.runs)
        problems += self.same_outputs(rounds)
        cfg, params, _, _ = load_checkpoint(self.checkpoint)
        model = Model(cfg, params)
        firsts = {}
        for r in sorted(self.val_recs, key=lambda r: r.id):
            firsts.setdefault(r.label, r)
        clouds = [firsts[k].points for k in sorted(firsts)[:3]]
        rng = np.random.default_rng([self.seed, 23])
        feats = [model.global_feature(p).data for p in clouds]
        permuted = [model.global_feature(p[rng.permutation(len(p))]).data for p in clouds]
        return problems + oracles.check_features(feats, permuted)


class Finetune(Workload):
    name = "finetune"

    def commands(self, rounddir):
        return [("finetune", ["finetune", "--checkpoint", self.checkpoint,
                              "--out", os.path.join(rounddir, "finetune"),
                              "--seed", str(self.seed), *FINETUNE_ARGS])]

    def check(self, rounds):
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        from msmae.evaluate import head_shapes, init_head
        from msmae.model import Model

        res = rounds[0][0].result()
        problems = oracles.check_confusion(res, len(self.val_recs))
        problems += self.same_outputs(rounds, drop=("checkpoint",))
        try:
            cfg, params, _, head = load_checkpoint(res["checkpoint"])
        except ParseError as exc:
            return problems + [f"finetuned checkpoint does not load: {exc}"]
        base_cfg, base_params, _, _ = load_checkpoint(self.checkpoint)
        classes = len({r.label for r in self.train_recs})
        shapes = head_shapes(cfg.dims[-1], classes)
        if head is None or {k: v.shape for k, v in head.items()} != {k: tuple(s) for k, s in shapes.items()}:
            return problems + ["finetuned checkpoint does not carry the classifier head"]
        if all(np.array_equal(params[n].data, base_params[n].data) for n in params):
            problems.append("finetuning left every encoder parameter unchanged")
        recs = sorted(self.train_recs, key=lambda r: r.id)
        rows = np.random.default_rng([self.seed, 29]).choice(len(recs), size=48, replace=False)
        labels = np.array([recs[i].label for i in rows])

        def loss(model, head_arrays):
            feats = np.stack([model.global_feature(recs[i].points).data for i in rows]).astype(np.float64)
            return oracles.cross_entropy(oracles.head_logits(head_arrays, feats), labels)

        start = {k: t.data.astype(np.float64) for k, t in init_head(cfg.dims[-1], classes, self.seed).items()}
        before = loss(Model(base_cfg, base_params), start)
        after = loss(Model(cfg, params), {k: v.astype(np.float64) for k, v in head.items()})
        if not after < before:
            problems.append(f"train cross-entropy {after:.4f} did not fall below its initial {before:.4f}")
        return problems


# ----------------------------------------------------------------- metrics

def round_figures(cmds, workload):
    """End-to-end figures of one round of commands."""
    setup = sum(c.setup_s for c in cmds)
    wall = sum(c.wall_s for c in cmds)
    steps, samples, loop = [], 0, 0.0
    for c in cmds:
        clk = c.clock
        if workload == "eval":
            # a step is 32 consecutive clouds within one extract_features call
            clouds = clk["clouds"]
            for t0, t1, n in clk["extract"]:
                inside = clouds[bisect.bisect_right(clouds, t0):bisect.bisect_right(clouds, t1)]
                prev = t0
                for j in range(BATCH - 1, len(inside), BATCH):
                    steps.append(inside[j] - prev)
                    prev = inside[j]
                samples += n
                loop += t1 - t0
        else:
            stamps = [clk["first_call"]] + clk["steps"]
            steps += [b - a for a, b in zip(stamps, stamps[1:])]
            samples += BATCH * len(clk["steps"])
            loop += stamps[-1] - stamps[0]
    return {"setup_s": setup, "wall_s": wall, "samples_per_s": samples / loop if loop > 0 else math.nan,
            "steps_s": steps, "peak_rss_mb": max(c.rss_mb for c in cmds),
            "cpu_s": sum(c.cpu_s for c in cmds)}


def end_to_end(figs, slowness):
    """Medians over rounds, with times divided and rates multiplied by `slowness`.

    `slowness` is the run's median reference pass over calibrate.REFERENCE_S
    (calibrate.Probe), so the figures are those of the machine at its
    nominal speed.
    """
    return {
        "setup_s": statistics.median(f["setup_s"] for f in figs) / slowness,
        "samples_per_s": statistics.median(f["samples_per_s"] for f in figs) * slowness,
        "step_ms_p50": 1000.0 * statistics.median(s for f in figs for s in f["steps_s"]) / slowness,
        "wall_s": statistics.median(f["wall_s"] for f in figs) / slowness,
        "peak_rss_mb": max(f["peak_rss_mb"] for f in figs),
    }


def per_layer(traced_rounds, untraced_figs, traced_figs, final_loss):
    """Per-layer metrics from the span files of the traced rounds."""
    calls, incl, own, counts, records = {}, {}, {}, {}, 0
    for cmds in traced_rounds:
        for c in cmds:
            names, cnt, recs, arrays = tracing.load_spans(c.spans)
            for name, s in tracing.spans_summary(names, arrays).items():
                calls[name] = calls.get(name, 0) + s["calls"]
                incl[name] = incl.get(name, 0.0) + s["incl"]
                own[name] = own.get(name, 0.0) + s["self"]
            for k, v in cnt.items():
                counts[k] = counts.get(k, 0) + v
            records += recs

    def ratio(a, b):
        return a / b if b else 0.0

    samples = calls.get("model.encode", 0)
    steps = calls.get("training.adamw_step", 0)

    def ms_per_sample(name):
        return ratio(1000.0 * incl.get(name, 0.0), samples)

    def ms_per_call(name):
        return ratio(1000.0 * incl.get(name, 0.0), calls.get(name, 0))

    m = {
        "data.make_dataset_ms": ms_per_call("data.make_dataset"),
        "checkpoint.save_ms": ms_per_call("checkpoint.save_checkpoint"),
        "checkpoint.save_bytes": ratio(counts.get("save_bytes", 0), calls.get("checkpoint.save_checkpoint", 0)),
        "checkpoint.load_ms": ms_per_call("checkpoint.load_checkpoint"),
        "geometry.fps_calls": ratio(calls.get("geometry.fps", 0), samples),
    }
    for fn in ("fps", "knn", "radius_mask", "interpolate", "chamfer_sets"):
        m[f"geometry.{fn}_ms"] = ms_per_sample(f"geometry.{fn}")
    m["masking.build_scales_ms"] = ms_per_sample("masking.build_scales")
    m["masking.build_scales_calls_per_record"] = ratio(calls.get("masking.build_scales", 0), records)
    m["masking.back_project_ms"] = ms_per_sample("masking.back_project")
    for i in (1, 2, 3):
        m[f"masking.visible_s{i}"] = ratio(counts.get(f"visible_s{i}", 0), calls.get("masking.back_project", 0))
    m["tensor.tape_nodes"] = ratio(counts.get("tape_nodes", 0), calls.get("tensor.Tape.gradients", 0))
    m["tensor.backward_ms"] = ratio(1000.0 * (incl.get("tensor.Tape.gradients", 0.0)
                                              + incl.get("tensor.Tape.backward", 0.0)), samples)
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = ratio(calls.get(f"tensor.{op}", 0), samples)
        m[f"tensor.{op}.ms"] = ms_per_sample(f"tensor.{op}")
    for fn in ("encode", "embed_tokens", "merge_tokens", "decode", "reconstruct"):
        m[f"model.{fn}_ms"] = ms_per_sample(f"model.{fn}")
    for stage in STAGES:
        m[f"model.encoder_block.{stage}_ms"] = ms_per_sample(f"model.encoder_block.{stage}")
    m["model.global_feature_ms"] = ms_per_sample("model.extract_global_feature")
    m["training.adamw_step_ms"] = ratio(1000.0 * incl.get("training.adamw_step", 0.0), steps)
    m["training.augment_ms"] = ms_per_sample("training.augment")
    m["training.step_self_ms"] = ratio(1000.0 * own.get("training.train", 0.0), steps) \
        if calls.get("training.train") else 0.0
    m["training.final_loss"] = final_loss
    m["evaluate.extract_features_ms"] = ratio(1000.0 * incl.get("evaluate.extract_features", 0.0),
                                              counts.get("extract_clouds", 0))
    m["evaluate.linear_probe_ms"] = ms_per_call("evaluate.linear_probe")
    m["evaluate.few_shot_eval_ms"] = ms_per_call("evaluate.few_shot_eval")
    m["evaluate.finetune_step_self_ms"] = ratio(1000.0 * own.get("evaluate.finetune", 0.0), steps) \
        if calls.get("evaluate.finetune") else 0.0
    loop = next(n for n in ("training.train", "evaluate.finetune", "evaluate.extract_features")
                if calls.get(n))
    m["trace.step_accounted"] = 1.0 - ratio(own[loop], incl[loop])
    m["trace.overhead_s"] = (statistics.median(f["wall_s"] for f in traced_figs)
                             - statistics.median(f["wall_s"] for f in untraced_figs))
    return m


# ------------------------------------------------------------------- facts

def machine_facts(workload, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    rev = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True).stdout
        rev = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--", "src").strip())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
        "git_revision": rev, "git_src_dirty": dirty,
    }


# -------------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace):
    units = metric_units()
    wl = {"pretrain": lambda: Pretrain(seed),
          "eval": lambda: Eval(seed, fixture_checkpoint()),
          "finetune": lambda: Finetune(seed, fixture_checkpoint())}[name]()
    rundir = os.path.join(WORK, "runs", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    untraced, traced, slow_rounds, probe = [], [], [], calibrate.Probe()
    try:
        warm_up()
        with probe:
            start = tracing.now()
            while True:
                done = len(untraced) + len(traced)
                enough = (len(traced) >= 1 and len(untraced) >= 1) if trace else done >= MIN_ROUNDS
                if enough and tracing.now() - start >= seconds:
                    break
                with_trace = bool(trace) and len(traced) < len(untraced)
                rounddir = os.path.join(rundir, f"round{done}")
                os.makedirs(rounddir)
                round_start = tracing.now()
                cmds = [run_command(tag, argv, rounddir, with_trace) for tag, argv in wl.commands(rounddir)]
                slow_rounds.append(probe.slowness(round_start, tracing.now()))
                (traced if with_trace else untraced).append(cmds)
        rounds = untraced + traced
        attempted = sum(len(r) for r in rounds)
        failed = sum(not c.ok for r in rounds for c in r)
        if failed:
            bad = next(c for r in rounds for c in r if not c.ok)
            problems = [f"{bad.tag} exited with code {bad.code}"]
        else:
            try:
                problems = wl.check(rounds)
            except Exception as exc:  # a check that cannot read the outputs fails the run
                problems = [f"{name}: checking the outputs raised {type(exc).__name__}: {exc}"]
        untraced_figs = [round_figures(r, name) for r in untraced if all(c.ok for c in r)]
        metrics, slowness = {}, probe.slowness()
        if trace and not failed:
            traced_figs = [round_figures(r, name) for r in traced]
            final_loss = rounds[0][0].result()["final_loss"] if name == "pretrain" else 0.0
            metrics = per_layer(traced, untraced_figs, traced_figs, final_loss)
        elif untraced_figs:
            metrics = end_to_end(untraced_figs, slowness)
        detail = {"facts": machine_facts(name, seed), "rounds": len(rounds),
                  "reference_passes": probe.passes, "slowness": slowness, "round_slowness": slow_rounds,
                  "unscaled": end_to_end(untraced_figs, 1.0) if untraced_figs else {},
                  "round_figures": [{k: v for k, v in f.items() if k != "steps_s"} for f in untraced_figs],
                  "problems": problems}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "eval", "finetune", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "msmae", "cli.py")):
        print(f"error: no msmae sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = ("pretrain", "eval", "finetune") if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for p in detail["problems"]:
            print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
        for k, v in result["metrics"].items():
            print(f"{name:9s} {k:42s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        path = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
        with open(path, "w") as fh:
            json.dump({**detail, "result": result}, fh, indent=1)
        print(json.dumps({"workload": name, **detail["facts"]}))
        print(json.dumps(result if args.workload != "all" else {"workload": name, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
