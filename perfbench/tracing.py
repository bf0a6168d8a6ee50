"""Clocks and spans around the program's public functions.

StepClock is the only instrumentation of an untraced run: it stamps the
first timed call of a command, each optimizer step and each featurized
cloud. Tracer wraps the public functions of the program's layers and
records one span (name, start, end, parent) per call in flat arrays kept
in memory; save() writes them once, when the command ends. spans_summary()
turns a span file into per-name call counts, inclusive and self times.

All of it assumes one Python thread, which is how the benchmark runs the
program (no --threads flag).
"""

import functools
import json
import os
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("data", "checkpoint", "geometry", "masking", "tensor", "model", "training", "evaluate")

# Constructors called inside every tensor primitive: a span around them
# would cost more than they do, so their time stays with their caller.
UNTRACED = {"tensor.tensor", "tensor.as_tensor"}

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


def _program_modules():
    return [m for name, m in sys.modules.items() if name == "msmae" or name.startswith("msmae.")]


def _replace_everywhere(old, new, modules):
    """Point every module-level name bound to `old` at `new`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


class StepClock:
    """Timestamps of a command's main loop, from a few thin wrappers."""

    def __init__(self):
        self.first_call = None   # entry to train, finetune or extract_features
        self.steps = []          # exit time of every optimizer step
        self.extract = []        # (entry, exit, clouds) per extract_features call
        self.clouds = []         # exit time of every featurized cloud

    def _start(self):
        t = now()
        if self.first_call is None:
            self.first_call = t
        return t

    def install(self):
        from msmae import cli, evaluate, model, training

        def entry(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                self._start()
                return fn(*args, **kw)
            return wrapper

        def stamp(fn, into):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                out = fn(*args, **kw)
                into.append(now())
                return out
            return wrapper

        def extract(fn):
            @functools.wraps(fn)
            def wrapper(model_, records, *args, **kw):
                t = self._start()
                out = fn(model_, records, *args, **kw)
                self.extract.append((t, now(), len(records)))
                return out
            return wrapper

        cli.train = entry(cli.train)
        cli.finetune = entry(cli.finetune)
        cli.extract_features = extract(cli.extract_features)
        training.adamw_step = stamp(training.adamw_step, self.steps)
        evaluate.adamw_step = stamp(evaluate.adamw_step, self.steps)
        model.Model.global_feature = stamp(model.Model.global_feature, self.clouds)

    def report(self):
        return {"first_call": self.first_call, "steps": self.steps,
                "extract": self.extract, "clouds": self.clouds}


class Tracer:
    """Spans around every public function of the program's layers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = {}
        self.records = set()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None, name_of=None):
        """fn with a span around each call.

        before(args, kw) and after(args, out) record counters outside the
        span; name_of(args, kw) picks a span name per call.
        """
        ids, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if before is not None:
                before(args, kw)
            i = len(ids)
            ids.append(nid if name_of is None else self._id(name_of(args, kw)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(now())
            try:
                out = fn(*args, **kw)
            finally:
                end[i] = now()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def install(self):
        """Patch each public function of LAYERS in every module that holds it."""
        from msmae import tensor as T
        modules = _program_modules()

        def add_records(*groups):
            for recs in groups:
                self.records.update(r.id for r in recs)

        hooks = {
            "tensor.Tape.gradients": dict(after=lambda a, out: self.count("tape_nodes", len(a[0]._nodes))),
            "masking.back_project": dict(after=lambda a, out: [
                self.count(f"visible_s{i + 1}", int(v.sum())) for i, v in enumerate(out.visible)]),
            "checkpoint.save_checkpoint": dict(after=lambda a, out: self.count(
                "save_bytes", os.path.getsize(a[0]))),
            "training.train": dict(before=lambda a, kw: add_records(a[1])),
            "evaluate.finetune": dict(before=lambda a, kw: add_records(a[1], a[2])),
            "evaluate.extract_features": dict(before=lambda a, kw: (
                add_records(a[1]), self.count("extract_clouds", len(a[1])))),
            "model.encoder_block": dict(name_of=lambda a, kw: "model.encoder_block." + a[1].split(".")[0]),
        }
        for layer in LAYERS:
            mod = sys.modules[f"msmae.{layer}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                _replace_everywhere(fn, self.wrap(name, fn, **hooks.get(name, {})), modules)
        for meth in ("gradients", "backward"):
            name = f"tensor.Tape.{meth}"
            setattr(T.Tape, meth, self.wrap(name, getattr(T.Tape, meth), **hooks.get(name, {})))

    def save(self, path):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.frombuffer(json.dumps({"names": self.names, "counts": self.counts,
                                                "records": len(self.records)}).encode(), dtype=np.uint8))


def load_spans(path):
    """(names, counts, records, arrays) from a file written by Tracer.save."""
    with np.load(path) as z:
        meta = json.loads(z["meta"].tobytes().decode())
        arrays = {k: z[k] for k in ("name", "parent", "start", "end")}
    return meta["names"], meta["counts"], meta["records"], arrays


def spans_summary(names, arrays):
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, which never overlap one another in a single thread.
    """
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    own = dur - child
    ids = arrays["name"]
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=dur, minlength=k)
    self_t = np.bincount(ids, weights=own, minlength=k)
    return {n: {"calls": int(calls[i]), "incl": float(incl[i]), "self": float(self_t[i])}
            for i, n in enumerate(names)}
