"""Reference computations and correctness checks for the benchmark.

Everything here is written apart from the program: brute-force float64
farthest point sampling and k nearest neighbours with the documented
tie-break (distance, then coordinate tuple, then index), a brute-force
Chamfer distance, and a set-based closure/minimality check for masks.
Nothing here imports msmae.geometry or msmae.masking, so a fault there
cannot hide itself.

Every check returns a list of problem strings; an empty list is a pass.
"""

import math

import numpy as np


def _sq_dist(a, b):
    """Squared distances from each row of a to each row of b, float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    dz = a[:, None, 2] - b[None, :, 2]
    return dx * dx + dy * dy + dz * dz


def _first_by_tiebreak(points, candidates):
    """Smallest (x, y, z, index) among candidate indices."""
    return min(candidates, key=lambda j: (points[j, 0], points[j, 1], points[j, 2], j))


def fps_oracle(points, m):
    """Farthest point sampling by brute force.

    The first pick is the point farthest from the centroid; every later
    pick maximises the smallest distance to all picks so far, recomputed
    from scratch against the whole selected set.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    chosen = []
    score = _sq_dist(pts, pts.mean(axis=0)[None, :])[:, 0]
    for _ in range(m):
        free = [j for j in range(n) if j not in chosen]
        best = max(score[j] for j in free)
        pick = _first_by_tiebreak(pts, [j for j in free if score[j] == best])
        chosen.append(pick)
        score = _sq_dist(pts, pts[chosen]).min(axis=1)
    return np.asarray(chosen, dtype=np.int64)


def knn_oracle(query, source, k):
    """k nearest source rows per query row, sorted by the full tie-break key."""
    src = np.asarray(source, dtype=np.float64)
    d = _sq_dist(query, src)
    rows = []
    for q in range(d.shape[0]):
        key = lambda j: (d[q, j], src[j, 0], src[j, 1], src[j, 2], j)
        rows.append(sorted(range(src.shape[0]), key=key)[:k])
    return np.asarray(rows, dtype=np.int64)


def hierarchy_oracle(points, counts, ks):
    """Seed coordinates and neighbour tables of every scale.

    Scale i samples its seeds from scale i-1 (the input for i = 0), and its
    table indexes scale i-1 rows.
    """
    src = np.asarray(points, dtype=np.float64)
    seeds, tables = [], []
    for n_i, k_i in zip(counts, ks):
        ctr = src[fps_oracle(src, n_i)]
        tables.append(knn_oracle(ctr, src, k_i))
        seeds.append(ctr)
        src = ctr
    return seeds, tables


def chamfer_oracle(pred, target):
    """Mean over sets of the symmetric squared-l2 Chamfer distance, float64."""
    total = 0.0
    for p, t in zip(np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)):
        d = _sq_dist(p, t)
        total += d.min(axis=1).mean() + d.min(axis=0).mean()
    return total / len(pred)


def check_hierarchy(want, seeds, tables):
    """The program's seeds and neighbour tables equal the oracle's.

    want is hierarchy_oracle's (seeds, tables) for the same cloud.
    """
    want_seeds, want_tables = want
    problems = []
    for i, (got_s, got_t) in enumerate(zip(seeds, tables)):
        if not np.array_equal(np.asarray(got_s), want_seeds[i]):
            problems.append(f"scale {i + 1}: seeds differ from brute-force FPS")
        got_t = np.asarray(got_t)
        if got_t.shape != want_tables[i].shape:
            problems.append(f"scale {i + 1}: neighbour table shape {got_t.shape}, want {want_tables[i].shape}")
        elif not np.array_equal(got_t, want_tables[i]):
            rows = np.flatnonzero((got_t != want_tables[i]).any(axis=1))
            problems.append(f"scale {i + 1}: neighbour rows {rows[:4].tolist()} differ from brute-force kNN")
    if len(seeds) != len(want_seeds):
        problems.append(f"{len(seeds)} scales, want {len(want_seeds)}")
    return problems


def check_mask(tables, visible, ratio):
    """Back-projected visibility is closed and minimal at every scale.

    tables[i] indexes scale i-1 rows (scale i-1 is the input for i = 0);
    visible[i] flags scale i seeds. Closure: every neighbour of a visible
    seed is visible. Minimality: every visible point is such a neighbour.
    The coarsest scale keeps n - floor(ratio * n) seeds visible.
    """
    problems = []
    n = len(visible[-1])
    want = n - math.floor(ratio * n)
    got = int(np.count_nonzero(visible[-1]))
    if got != want:
        problems.append(f"coarsest scale has {got} visible seeds, want {want}")
    for i in range(len(visible) - 1):
        required = set()
        for row, vis in zip(np.asarray(tables[i + 1]).tolist(), visible[i + 1]):
            if vis:
                required.update(row)
        shown = {j for j, v in enumerate(visible[i]) if v}
        if required - shown:
            problems.append(f"scale {i + 1}: {len(required - shown)} neighbour(s) of visible "
                            f"scale-{i + 2} seeds are hidden")
        if shown - required:
            problems.append(f"scale {i + 1}: {len(shown - required)} visible point(s) serve no "
                            f"visible scale-{i + 2} seed")
    return problems


def check_chamfer(pred, target, loss, rtol=1e-4):
    """A reported reconstruction loss matches the brute-force Chamfer."""
    want = chamfer_oracle(pred, target)
    if not math.isfinite(loss) or abs(loss - want) > rtol * abs(want) + 1e-9:
        return [f"reconstruction loss {loss!r} differs from brute-force Chamfer {want!r}"]
    return []


def check_features(feats, permuted, rtol=1e-5, min_gap=1e-3):
    """Global features are permutation invariant and tell clouds apart.

    feats[i] is the feature of cloud i, permuted[i] that of a permutation
    of the same points. Constant features would pass invariance, so the
    features of different clouds must also differ by min_gap relative.
    """
    feats = np.asarray(feats, dtype=np.float64)
    permuted = np.asarray(permuted, dtype=np.float64)
    problems = []
    scale = max(float(np.abs(feats).max()), 1e-30)
    drift = float(np.abs(feats - permuted).max()) / scale
    if not drift <= rtol:
        problems.append(f"permuting points moved the global feature by {drift:.3g} relative")
    gaps = [float(np.abs(feats[i] - feats[j]).max()) / scale
            for i in range(len(feats)) for j in range(i + 1, len(feats))]
    if not gaps or min(gaps) < min_gap:
        problems.append(f"global features of different clouds are nearly equal (gap {min(gaps, default=0):.3g})")
    return problems


def check_confusion(result, num_test, min_accuracy=None):
    """Confusion matrix sums to the test count and its trace gives the accuracy."""
    conf = np.asarray(result["confusion"], dtype=np.int64)
    problems = []
    if int(conf.sum()) != num_test:
        problems.append(f"confusion matrix sums to {int(conf.sum())}, want {num_test}")
    acc = float(np.trace(conf)) / max(int(conf.sum()), 1)
    if abs(acc - result["accuracy"]) > 1e-12:
        problems.append(f"reported accuracy {result['accuracy']} but confusion gives {acc}")
    if min_accuracy is not None and not result["accuracy"] >= min_accuracy:
        problems.append(f"accuracy {result['accuracy']:.4f} below {min_accuracy}")
    return problems


def check_fewshot(result, way, runs):
    """Few-shot accuracy is well above chance (twice 1/way)."""
    problems = []
    if len(result["runs"]) != runs:
        problems.append(f"{len(result['runs'])} episodes reported, want {runs}")
    if not result["mean"] >= 2.0 / way:
        problems.append(f"few-shot mean {result['mean']:.4f} not above twice chance {1.0 / way:.3f}")
    return problems


def check_losses(losses, steps):
    """Per-step pretraining losses: right count, finite, falling."""
    problems = []
    if len(losses) != steps:
        problems.append(f"{len(losses)} steps logged, want {steps}")
    if not all(math.isfinite(x) for x in losses):
        problems.append("a logged loss is not finite")
    elif losses and not losses[-1] <= 0.2 * losses[0]:
        problems.append(f"last loss {losses[-1]:.4f} is not below a fifth of the first {losses[0]:.4f}")
    return problems


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def head_logits(head, feats):
    """Logits of the three-layer classifier head, in float64 numpy."""
    h = gelu(feats @ head["head.w0"] + head["head.b0"])
    h = gelu(h @ head["head.w1"] + head["head.b1"])
    return h @ head["head.w2"] + head["head.b2"]


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy, float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float((lse - z[np.arange(len(labels)), labels]).mean())
