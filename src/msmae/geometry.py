"""Deterministic point set geometry: sampling, neighborhoods, Chamfer loss.

Index selection (farthest point sampling, k nearest neighbors) is fully
tie-broken: distance first, then lexicographically smallest coordinate,
then smallest index. Selection therefore depends only on the multiset of
coordinates, which makes the selected coordinates invariant to input
permutation. All selection math runs in float64 regardless of input dtype.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError


def _check_points(p, name):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ShapeError(f"{name} must be (n, 3), got {p.shape}")
    if p.shape[0] == 0:
        raise ContractError(f"{name} is empty")
    if not np.isfinite(p).all():
        raise ContractError(f"{name} contains non-finite coordinates")
    return p


def pairwise_sq_dists(a, b):
    """Squared euclidean distances, shape (len(a), len(b)), float64.

    Computed from explicit differences rather than the expanded
    a^2 + b^2 - 2ab form, so exact ties stay exact, and accumulated
    component by component so the sum order is fixed (einsum may fuse
    or reorder, which shifts near-ties by an ulp).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return _sq_norm(diff)


def _sq_norm(diff):
    """Sum of squares over the last axis, fixed x + y + z order."""
    return diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2


def _pick_max(pts, score):
    """Index of the maximal score; ties resolved by coordinate, then index."""
    best = score.max()
    cand = np.flatnonzero(score == best)
    if cand.size == 1:
        return int(cand[0])
    c = pts[cand]
    order = np.lexsort((cand, c[:, 2], c[:, 1], c[:, 0]))
    return int(cand[order[0]])


def fps(xyz, m):
    """Farthest point sampling: m indices into xyz, distinct, in pick order.

    Starts from the point farthest from the centroid; each later pick
    maximizes the distance to the already selected set. Deterministic for
    identical input bits.
    """
    pts = _check_points(xyz, "xyz")
    n = pts.shape[0]
    if not 1 <= m <= n:
        raise ContractError(f"fps wants 1 <= m <= {n}, got m={m}")
    sel = np.empty(m, dtype=np.int64)
    cent = pts.mean(axis=0)
    d0 = _sq_norm(pts - cent)
    cur = _pick_max(pts, d0)
    sel[0] = cur
    dmin = _sq_norm(pts - pts[cur])
    dmin[cur] = -1.0  # selected points never re-qualify
    for i in range(1, m):
        cur = _pick_max(pts, dmin)
        sel[i] = cur
        d = _sq_norm(pts - pts[cur])
        np.minimum(dmin, d, out=dmin)
        dmin[cur] = -1.0
    return sel


def knn(query, source, k):
    """Indices of the k nearest source points per query row, shape (Q, k).

    Columns are ordered nearest first. Equidistant candidates fall back to
    the smaller coordinate tuple, then the smaller source index, via one
    lexicographic pre-sort of the sources plus a stable argsort.
    """
    q = _check_points(query, "query")
    s = _check_points(source, "source")
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"knn wants 1 <= k <= {n}, got k={k}")
    order = np.lexsort((np.arange(n), s[:, 2], s[:, 1], s[:, 0]))
    d = pairwise_sq_dists(q, s[order])
    nn = _smallest_k_stable(d, k)
    return order[nn]


def _smallest_k_stable(d, k):
    """Per-row indices of the k smallest entries, ties kept in column order.

    Matches argsort(kind="stable")[:, :k] exactly but only sorts a k+1
    candidate window per row. Rows whose window boundary is a tie (the k-th
    and k+1-th smallest values coincide, so equal candidates may sit outside
    the window) fall back to the full stable sort.
    """
    n = d.shape[1]
    if n <= 2 * k or k >= n:
        return np.argsort(d, axis=1, kind="stable")[:, :k]
    cand = np.sort(np.argpartition(d, k, axis=1)[:, : k + 1], axis=1)
    cvals = np.take_along_axis(d, cand, axis=1)
    inner = np.argsort(cvals, axis=1, kind="stable")
    svals = np.take_along_axis(cvals, inner, axis=1)
    nn = np.take_along_axis(cand, inner[:, :k], axis=1)
    tied = np.flatnonzero(svals[:, k - 1] == svals[:, k])
    if tied.size:
        nn[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
    return nn


def radius_mask(xyz, radius):
    """Boolean (n, n) adjacency: pairs at distance <= radius, diagonal true."""
    pts = _check_points(xyz, "xyz")
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise ContractError(f"radius must be positive and finite, got {radius}")
    return pairwise_sq_dists(pts, pts) <= r * r


def interp_weights(fine_xyz, coarse_xyz, k=3, eps=1e-8):
    """Inverse squared distance weights of each fine point over its k
    nearest coarse points.

    Returns (idx, w): idx is (F, k) into coarse_xyz, w is (F, k) float64
    with rows summing to one. A fine point sitting exactly on a coarse
    point still gets finite weights through eps.
    """
    fine = _check_points(fine_xyz, "fine_xyz")
    coarse = _check_points(coarse_xyz, "coarse_xyz")
    idx = knn(fine, coarse, k)
    diff = fine[:, None, :] - coarse[idx]
    d = _sq_norm(diff)
    w = 1.0 / (d + eps)
    w = w / w.sum(axis=1, keepdims=True)
    return idx, w


def interpolate(feats, fine_xyz, coarse_xyz, k=3, eps=1e-8):
    """Spread coarse per-point features onto fine positions.

    feats is an (M, C) Tensor aligned with coarse_xyz; the result is an
    (F, C) Tensor. With B stacked sets, fine_xyz (B, F, 3) and coarse_xyz
    (B, M, 3), feats packs the sets' rows one after another as (B*M, C),
    the result likewise as (B*F, C), and each set interpolates within
    itself. Differentiable in feats; the weights are constants of the
    geometry.
    """
    feats = T.as_tensor(feats)
    fine, coarse = np.asarray(fine_xyz), np.asarray(coarse_xyz)
    if coarse.ndim == 2:
        fine, coarse = fine[None], coarse[None]
    sets, m = coarse.shape[:2]
    if feats.ndim != 2 or feats.shape[0] != sets * m or fine.shape[0] != sets:
        raise ShapeError(f"feats {feats.shape} do not align with coarse points {coarse.shape}")
    idx, w = zip(*(interp_weights(f, c, k=k, eps=eps) for f, c in zip(fine, coarse)))
    rows = np.concatenate([i + b * m for b, i in enumerate(idx)])
    gathered = T.gather(feats, rows)  # (B*F, k, C)
    weighted = T.mul(gathered, np.concatenate(w)[:, :, None])
    return T.reduce_sum(weighted, axis=1)


def chamfer(a, b):
    """Symmetric squared-l2 Chamfer distance between two point sets.

    mean_i min_j ||a_i - b_j||^2 + mean_j min_i ||b_j - a_i||^2, as a
    scalar Tensor. Differentiable in both operands through the nearest
    neighbor matches (ties take the first match).
    """
    ta, tb = T.as_tensor(a), T.as_tensor(b)
    A, B = ta.data, tb.data
    if A.ndim != 2 or A.shape[1] != 3 or B.ndim != 2 or B.shape[1] != 3:
        raise ShapeError(f"chamfer wants (n,3) sets, got {A.shape} and {B.shape}")
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ContractError("chamfer of an empty set")
    n, m = A.shape[0], B.shape[0]
    d = pairwise_sq_dists(A, B).astype(A.dtype)
    ia = d.argmin(axis=1)
    ib = d.argmin(axis=0)
    val = d[np.arange(n), ia].mean() + d[ib, np.arange(m)].mean()

    def vjp(g):
        ga = 2.0 * (A - B[ia]) / n
        gb = np.zeros_like(B)
        np.add.at(gb, ia, -ga)
        dbt = 2.0 * (B - A[ib]) / m
        gb += dbt
        np.add.at(ga, ib, -dbt)
        return g * ga, g * gb

    return T.apply_op(np.asarray(val, dtype=A.dtype), (ta, tb), vjp)


def chamfer_sets(pred, target):
    """Per-set Chamfer distances for a batch of small point sets.

    pred is an (M, k, 3) Tensor, target an (M, k2, 3) array; returns an
    (M,) Tensor of symmetric squared-l2 Chamfer values. Gradients flow to
    pred only; targets are ground truth constants.
    """
    pred = T.as_tensor(pred)
    P = pred.data
    Tt = np.asarray(target, dtype=P.dtype)
    if P.ndim != 3 or P.shape[2] != 3 or Tt.ndim != 3 or Tt.shape[2] != 3 or P.shape[0] != Tt.shape[0]:
        raise ShapeError(f"chamfer_sets wants (M,k,3) vs (M,k2,3), got {P.shape} and {Tt.shape}")
    M, k, _ = P.shape
    k2 = Tt.shape[1]
    if k == 0 or k2 == 0:
        raise ContractError("chamfer_sets with an empty set")
    diff = P[:, :, None, :] - Tt[:, None, :, :]
    d = _sq_norm(diff)  # (M, k, k2)
    i1 = d.argmin(axis=2)  # nearest target per pred point
    i2 = d.argmin(axis=1)  # nearest pred point per target
    t1 = np.take_along_axis(d, i1[:, :, None], axis=2)[:, :, 0].mean(axis=1)
    t2 = np.take_along_axis(d, i2[:, None, :], axis=1)[:, 0, :].mean(axis=1)
    val = (t1 + t2).astype(P.dtype)

    def vjp(g):
        gp = 2.0 * (P - np.take_along_axis(Tt, i1[:, :, None], axis=1)) / k
        gp *= g[:, None, None]
        pn = np.take_along_axis(P, i2[:, :, None], axis=1)  # (M, k2, 3)
        d2 = 2.0 * (pn - Tt) / k2 * g[:, None, None]
        flat = gp.reshape(M * k, 3)
        rows = (np.arange(M)[:, None] * k + i2).reshape(-1)
        np.add.at(flat, rows, d2.reshape(-1, 3))
        return (flat.reshape(M, k, 3),)

    return T.apply_op(val, (pred,), vjp)
