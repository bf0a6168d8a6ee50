"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Shows that each check accepts the program's own output, on a tiny cloud
full of exact distance ties and on a desk-size cloud, and rejects a wrong
answer: a swapped kNN column, a perturbed loss, a mask with one hidden
neighbour or one extra visible point, constant features, a miscounted
confusion matrix. Exits 1 if any expectation fails. Takes a few seconds.
"""

import itertools
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from msmae import tensor as T  # noqa: E402
from msmae.config import load_run_config  # noqa: E402
from msmae.data import make_dataset  # noqa: E402
from msmae.evaluate import head_forward, init_head  # noqa: E402
from msmae.masking import back_project, build_scales, sample_visible  # noqa: E402
from msmae.model import Model, decode, encode, reconstruct  # noqa: E402

failures = []


def expect(what, problems, ok):
    good = (not problems) == ok
    verdict = "accepts" if ok else "rejects"
    print(f"{'ok  ' if good else 'FAIL'} {verdict} {what}" + ("" if good else f": {problems}"))
    if not good:
        failures.append(what)


def tiny_ties():
    """3x3x3 integer grid: every distance occurs many times over."""
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    counts, ks = (8, 4, 2), (5, 3, 2)
    want = oracles.hierarchy_oracle(grid, counts, ks)
    rep = build_scales(grid, list(counts), list(ks))
    expect("the program's hierarchy on a grid with exact ties",
           oracles.check_hierarchy(want, rep.seeds, rep.neighbor_index), True)
    # permuting the grid must select the same seed coordinates
    perm = np.random.default_rng(3).permutation(len(grid))
    rep_p = build_scales(grid[perm], list(counts), list(ks))
    expect("the hierarchy of a permuted grid",
           oracles.check_hierarchy(oracles.hierarchy_oracle(grid[perm], counts, ks),
                                   rep_p.seeds, rep_p.neighbor_index), True)
    swapped = [t.copy() for t in rep.neighbor_index]
    row = next(i for i in range(len(swapped[0])) if swapped[0][i, 0] != swapped[0][i, 1])
    swapped[0][row, [0, 1]] = swapped[0][row, [1, 0]]
    expect("a swapped kNN column", oracles.check_hierarchy(want, rep.seeds, swapped), False)
    seeds = [s.copy() for s in rep.seeds]
    seeds[1] = seeds[1][::-1]
    expect("seeds in another order", oracles.check_hierarchy(want, seeds, rep.neighbor_index), False)

    vis = back_project(rep, sample_visible(counts[-1], 0.5, np.random.default_rng(5))).visible
    expect("the program's back-projected mask", oracles.check_mask(want[1], vis, 0.5), True)
    hidden = [v.copy() for v in vis]
    hidden[0][want[1][1][np.flatnonzero(vis[1])[0], 0]] = False
    expect("a mask with one hidden neighbour", oracles.check_mask(want[1], hidden, 0.5), False)
    extra = [v.copy() for v in vis]
    extra[0][np.flatnonzero(~vis[0])[0]] = True
    expect("a mask with one extra visible point", oracles.check_mask(want[1], extra, 0.5), False)
    expect("a wrong coarse visible count", oracles.check_mask(want[1], vis, 0.0), False)


def desk_cloud():
    rc = load_run_config(None)
    train, val = make_dataset(rc.data)
    model = Model.init(rc.model, seed=0)
    pts = train[0].points
    tokens, rep, asg = encode(model.params, model.config, pts, rng=np.random.default_rng(7))
    pred, loss = reconstruct(model.params, model.config,
                             decode(model.params, model.config, tokens, rep, asg), rep, asg)
    want = oracles.hierarchy_oracle(pts, rc.model.counts, rc.model.ks)
    expect("the program's desk hierarchy", oracles.check_hierarchy(want, rep.seeds, rep.neighbor_index), True)
    hidden = ~asg.visible[1]
    target = want[0][0][want[1][1][hidden]] - want[0][1][hidden][:, None, :]
    value = float(loss.data)
    expect("the program's reconstruction loss", oracles.check_chamfer(pred.data, target, value), True)
    expect("a loss perturbed by 0.1%", oracles.check_chamfer(pred.data, target, value * 1.001), False)
    expect("a NaN loss", oracles.check_chamfer(pred.data, target, float("nan")), False)

    clouds = [r.points for r in val[:3]]
    perm = np.random.default_rng(9).permutation(len(pts))
    feats = [model.global_feature(p).data for p in clouds]
    permuted = [model.global_feature(p[perm]).data for p in clouds]
    expect("the program's global features", oracles.check_features(feats, permuted), True)
    const = np.ones((3, len(feats[0])))
    expect("constant features", oracles.check_features(const, const), False)
    moved = [f.copy() for f in permuted]
    moved[0][0] += 1e-3 * np.abs(feats[0]).max()
    expect("a feature that moves under permutation", oracles.check_features(feats, moved), False)

    head = init_head(len(feats[0]), 5, seed=1)
    x = np.stack(feats).astype(np.float32)
    logits = head_forward(head, T.tensor(x)).data
    mine = oracles.head_logits({k: v.data.astype(np.float64) for k, v in head.items()}, x.astype(np.float64))
    expect("numpy head logits against the program's head",
           [] if np.allclose(mine, logits, rtol=1e-4, atol=1e-5) else ["head logits differ"], True)
    labels = np.array([0, 3, 4])
    ce = float(T.softmax_cross_entropy(T.tensor(logits.astype(np.float64)), labels).data)
    expect("numpy cross-entropy against the program's",
           [] if abs(oracles.cross_entropy(logits, labels) - ce) < 1e-9 else ["cross-entropy differs"], True)


def scoring():
    good = {"accuracy": 0.75, "confusion": [[2, 1], [0, 1]]}
    expect("a consistent confusion matrix", oracles.check_confusion(good, 4), True)
    expect("a confusion matrix with a missing row", oracles.check_confusion(good, 5), False)
    expect("an accuracy its confusion matrix does not give",
           oracles.check_confusion({**good, "accuracy": 0.8}, 4), False)
    expect("an accuracy under the floor", oracles.check_confusion(good, 4, min_accuracy=0.9), False)
    expect("few-shot well above chance", oracles.check_fewshot({"mean": 0.9, "runs": [0.9] * 10}, 5, 10), True)
    expect("few-shot at chance", oracles.check_fewshot({"mean": 0.21, "runs": [0.21] * 10}, 5, 10), False)
    losses = [5.4, 3.0, 1.0, 0.4]
    expect("a falling loss series", oracles.check_losses(losses, 4), True)
    expect("a loss series that does not fall", oracles.check_losses([5.4, 5.0, 4.9, 4.0], 4), False)
    expect("a NaN in the loss series", oracles.check_losses([5.4, float("nan"), 1.0, 0.4], 4), False)
    expect("a missing step", oracles.check_losses(losses[:3], 4), False)


if __name__ == "__main__":
    tiny_ties()
    desk_cloud()
    scoring()
    print(f"{len(failures)} failed" if failures else "all checks behave")
    sys.exit(1 if failures else 0)
