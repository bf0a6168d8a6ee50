"""Deterministic point set geometry: sampling, neighborhoods, Chamfer loss.

Index selection (farthest point sampling, k nearest neighbors) is fully
tie-broken: distance first, then lexicographically smallest coordinate,
then smallest index. Both kernels get that tie-break from one
lexicographic pre-sort of each cloud's points (lex_order): on points in
(x, y, z, index) order, argmax and a stable argsort return the first of
equal scores, which is exactly the smallest coordinate tuple, then index.
Selection therefore depends only on the multiset of coordinates, which
makes the selected coordinates invariant to input permutation. All
selection math runs in float64 regardless of input dtype.

fps, knn, radius_mask, interp_weights and interpolate take one cloud
(n, 3) or a stack of B clouds with a shared point count (B, n, 3); the
one-cloud call is the B=1 case of the same code, and a stacked call
returns exactly what B one-cloud calls would.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError

_KNN_BLOCK = 1 << 15  # distance-table entries knn holds at once (256 KiB of float64)


def as_points(p, name):
    """p as float64 coordinates of one cloud (n, 3) or of a stack of clouds
    with a shared point count (B, n, 3); anything else, an empty or a
    non-finite set is rejected."""
    if isinstance(p, (list, tuple)) and len({np.shape(c) for c in p}) > 1:
        raise ContractError(f"{name} is ragged: stacked clouds must share a point count")
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (2, 3) or p.shape[-1] != 3:
        raise ShapeError(f"{name} must be (n, 3) or (B, n, 3), got {p.shape}")
    if p.size == 0:
        raise ContractError(f"{name} is empty")
    if not np.isfinite(p).all():
        raise ContractError(f"{name} contains non-finite coordinates")
    return p


def lex_order(points):
    """Per cloud, the permutation that sorts points by (x, y, z, index).

    (n, 3) gives (n,) and a stack (B, n, 3) gives (B, n). lexsort is
    stable, so equal coordinate tuples keep their index order.
    """
    p = np.asarray(points, dtype=np.float64)
    return np.lexsort((p[..., 2], p[..., 1], p[..., 0]), axis=-1)


def pairwise_sq_dists(a, b):
    """Squared euclidean distances, float64: (Q, 3) against (N, 3) gives
    (Q, N), stacks (B, Q, 3) against (B, N, 3) give (B, Q, N).

    Computed from explicit differences rather than the expanded
    a^2 + b^2 - 2ab form, so exact ties stay exact, and accumulated
    x + y + z in that fixed order (einsum may fuse or reorder, which
    shifts near-ties by an ulp). Each coordinate plane is differenced on
    its own, so no (Q, N, 3) difference array is formed.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.subtract(a[..., :, None, 0], b[..., None, :, 0])
    d *= d
    plane = np.empty_like(d)
    for c in (1, 2):
        np.subtract(a[..., :, None, c], b[..., None, :, c], out=plane)
        plane *= plane
        d += plane
    return d


def _sq_norm(diff):
    """Sum of squares over the last axis, fixed x + y + z order."""
    return diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2


def _sq_planes(diff):
    """Sum of squares over the first axis of (3, ...) coordinate planes,
    fixed x + y + z order."""
    sq = np.square(diff)
    return sq[0] + sq[1] + sq[2]


def _lex_sorted(stack, order):
    """The clouds of a (B, n, 3) stack in lex_order, and that order (B, n);
    order is computed unless the caller passes it."""
    B, n, _ = stack.shape
    order = (lex_order(stack) if order is None else np.asarray(order)).reshape(B, n)
    return stack[np.arange(B)[:, None], order], order


def fps(xyz, m, order=None):
    """Farthest point sampling: m indices into xyz, distinct, in pick order.

    Starts from the point farthest from the centroid; each later pick
    maximizes the distance to the already selected set. One cloud (n, 3)
    gives (m,); a stack (B, n, 3) gives (B, m), every cloud picked in the
    same numpy operations. order, when given, must be lex_order(xyz).
    Deterministic for identical input bits.
    """
    pts = as_points(xyz, "xyz")
    stack = pts.reshape(-1, *pts.shape[-2:])
    B, n, _ = stack.shape
    if not 1 <= m <= n:
        raise ContractError(f"fps wants 1 <= m <= {n}, got m={m}")
    srt, order = _lex_sorted(stack, order)
    grid = np.ascontiguousarray(srt.transpose(2, 0, 1))  # coordinate planes (3, B, n)
    points = grid.reshape(3, B * n, 1)  # the same, clouds end to end
    # the centroid sums points in input order, so its bits match a plain mean
    score = _sq_planes(grid - stack.mean(axis=1).T[:, :, None])
    offsets = np.arange(B) * n
    # picks as positions into the sorted clouds, end to end; argmax takes the
    # first maximum, which in sorted order is the smallest (x, y, z, index)
    sel = np.empty((B, m), dtype=np.int64)
    sel[:, 0] = cur = score.argmax(axis=1) + offsets
    dmin = np.full((B, n), np.inf)
    for i in range(1, m):
        np.minimum(dmin, _sq_planes(grid - points[:, cur]), out=dmin)
        dmin.reshape(-1)[cur] = -1.0  # selected points never re-qualify
        sel[:, i] = cur = dmin.argmax(axis=1) + offsets
    return order.reshape(-1)[sel].reshape(pts.shape[:-2] + (m,))


def knn(query, source, k, order=None):
    """Indices of the k nearest source points per query row.

    (Q, 3) queries over (N, 3) sources give (Q, k); stacks (B, Q, 3) over
    (B, N, 3) give (B, Q, k), each cloud's queries searching that cloud.
    Columns are ordered nearest first. Equidistant candidates fall back to
    the smaller coordinate tuple, then the smaller source index: distances
    to the sources in lex_order (order, when given, must be
    lex_order(source)) go through a stable selection. Distance tables are
    built for as many clouds at a time as fit in _KNN_BLOCK entries (at
    least one), which bounds the memory of a stack.
    """
    q = as_points(query, "query")
    s = as_points(source, "source")
    if q.shape[:-2] != s.shape[:-2]:
        raise ShapeError(f"query {q.shape} and source {s.shape} stack different clouds")
    qs, ss = q.reshape(-1, *q.shape[-2:]), s.reshape(-1, *s.shape[-2:])
    B, nq, n = qs.shape[0], qs.shape[1], ss.shape[1]
    if not 1 <= k <= n:
        raise ContractError(f"knn wants 1 <= k <= {n}, got k={k}")
    srt, order = _lex_sorted(ss, order)
    out = np.empty((B, nq, k), dtype=np.int64)
    step = max(1, _KNN_BLOCK // (nq * n))
    for b in range(0, B, step):
        d = pairwise_sq_dists(qs[b:b + step], srt[b:b + step])
        nn = _smallest_k_stable(d.reshape(-1, n), k).reshape(d.shape[0], nq, k)
        out[b:b + step] = order[np.arange(b, b + d.shape[0])[:, None, None], nn]
    return out.reshape(q.shape[:-1] + (k,))


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
    """Boolean adjacency, pairs at distance <= radius, diagonal true:
    (n, n) for one cloud, (B, n, n) for a stack."""
    pts = as_points(xyz, "xyz")
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise ContractError(f"radius must be positive and finite, got {radius}")
    return pairwise_sq_dists(pts, pts) <= r * r


def interp_weights(fine_xyz, coarse_xyz, k=3, eps=1e-8):
    """Inverse squared distance weights of each fine point over its k
    nearest coarse points.

    Returns (idx, w): idx is (F, k) into coarse_xyz, w is (F, k) float64
    with rows summing to one; stacks (B, F, 3) and (B, M, 3) give (B, F, k)
    each. A fine point sitting exactly on a coarse point still gets finite
    weights through eps.
    """
    fine = as_points(fine_xyz, "fine_xyz")
    coarse = as_points(coarse_xyz, "coarse_xyz")
    idx = knn(fine, coarse, k)
    near = np.take_along_axis(coarse[..., None, :, :], idx[..., None], axis=-2)
    w = 1.0 / (_sq_norm(fine[..., :, None, :] - near) + eps)
    w = w / w.sum(axis=-1, keepdims=True)
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
    idx, w = interp_weights(fine, coarse, k=k, eps=eps)
    rows = (idx + (np.arange(sets) * m)[:, None, None]).reshape(-1, k)
    gathered = T.gather(feats, rows)  # (B*F, k, C)
    weighted = T.mul(gathered, w.reshape(-1, k)[:, :, None])
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
        T.scatter_add(flat, rows, d2)
        return (flat.reshape(M, k, 3),)

    return T.apply_op(val, (pred,), vjp)
