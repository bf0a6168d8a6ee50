"""The benchmark in perfbench/ imports, rebinds and calls program names;
this keeps them in place and its self-test passing."""

import importlib
import inspect
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# names the step clock and the tracer rebind (perfbench/tracing.py)
REBOUND = [("cli", "train"), ("cli", "finetune"), ("cli", "extract_features"),
           ("training", "adamw_step"), ("evaluate", "adamw_step"),
           ("model", "Model.global_feature"), ("tensor", "Tape.gradients"),
           ("tensor", "Tape.backward")]
# names the workload checks import (perfbench/run.py)
IMPORTED = [("checkpoint", "load_checkpoint"), ("config", "load_run_config"),
            ("config", "make_train_config"), ("data", "make_dataset"),
            ("errors", "ParseError"), ("evaluate", "head_shapes"), ("evaluate", "init_head"),
            ("masking", "back_project"), ("masking", "build_scales"),
            ("masking", "sample_visible"), ("model", "Model"), ("model", "decode"),
            ("model", "encode"), ("model", "reconstruct"), ("rng", "derive_rng"),
            ("training", "augment")]


def test_benchmark_contract():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for module, name in REBOUND + IMPORTED:
        obj = importlib.import_module(f"msmae.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        assert obj is not None, f"msmae.{module}.{name}"

    from msmae.config import load_run_config, make_train_config
    from msmae.evaluate import finetune
    tc = make_train_config(load_run_config(None), "out")
    assert len(tc.scale_range) == 2 and isinstance(tc.shift_range, float)
    assert list(inspect.signature(finetune).parameters)[:3] == ["model", "train_records",
                                                                "val_records"]
