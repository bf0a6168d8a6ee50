"""Multi-scale point hierarchy and cross-scale-consistent visibility masks.

A cloud is summarized at S scales by repeated farthest point sampling;
each scale keeps a neighbor table into the scale below (scale 0 is the raw
input). Masking happens once, at the coarsest scale, and visibility is
back-projected downward: a finer point is visible iff it belongs to the
neighborhood of at least one visible coarser seed. This keeps the visible
region spatially consistent across scales, so coarse tokens never leak
geometry hidden at finer scales.

Scale lists are 0-indexed in code: scales[0] is the finest scale (scale 1
in the hierarchy), scales[-1] the coarsest.

build_index is the one build: every scale's farthest point picks and kNN
tables, a ScaleIndex, which depends on geometry alone. ScaleIndex.on puts
it on coordinates as a MultiScaleRepr; build_scales does both at once.

A batch of clouds is one stack, not a list of per-cloud objects: every
array of its ScaleIndex, MultiScaleRepr and MaskAssignment keeps a leading
cloud axis, as geometry.fps and knn do. build_index, back_project and
independent_masks take one cloud or a stack, and on a stack equal
one-cloud calls, cloud by cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .geometry import as_points, fps, knn, lex_order


@dataclass
class MultiScaleRepr:
    """Seed coordinates and neighbor tables for every scale.

    seeds[i] is (N_i, 3); neighbor_index[i] is (N_i, k_i) indexing into
    scale i-1 points: input_points for i = 0, seeds[i-1] above. Indexing
    picks clouds, here and in MaskAssignment: an int gives one cloud of a
    stack, a slice or an index array a sub-batch, and None wraps one cloud
    as a batch of one.
    """

    input_points: np.ndarray
    seeds: list
    neighbor_index: list

    @property
    def num_scales(self):
        return len(self.seeds)

    def __getitem__(self, key):
        return MultiScaleRepr(self.input_points[key], [s[key] for s in self.seeds],
                              [t[key] for t in self.neighbor_index])

    __iter__ = None  # not a sequence: indexing alone would walk it until numpy's IndexError


@dataclass
class ScaleIndex:
    """A hierarchy without coordinates, for one cloud or a stack, indexed
    as a MultiScaleRepr is: scale i's seeds are scale i-1's points at
    picks[i], and neighbor_index[i] is its kNN table, both in the narrowest
    unsigned dtype that holds a point index.

    on(points) puts it on coordinates: each scale's seeds are gathered
    from the scale below, so they are copies of the input floats.
    """

    picks: list
    neighbor_index: list

    def __getitem__(self, key):
        return ScaleIndex([p[key] for p in self.picks], [t[key] for t in self.neighbor_index])

    __iter__ = None  # as in MultiScaleRepr

    def on(self, points):
        """MultiScaleRepr of points (one cloud or a stack, as the index) on these picks and tables."""
        seeds, src = [], np.asarray(points)
        for p in self.picks:
            src = np.take_along_axis(src, p[..., None], axis=-2)
            seeds.append(src)
        tables = [t.astype(np.intp) for t in self.neighbor_index]  # safe for index arithmetic
        return MultiScaleRepr(points, seeds, tables)


@dataclass
class MaskAssignment:
    """Per-scale visibility flags; visible[i] is boolean (N_i,), or (B, N_i) for a stack."""

    visible: list

    def num_visible(self, i):
        return int(self.visible[i].sum())

    def __getitem__(self, key):
        return MaskAssignment([v[key] for v in self.visible])

    __iter__ = None  # as in MultiScaleRepr


def build_index(points, counts, ks):
    """The downsample-and-group chain: farthest point sampling of counts[i]
    seeds from the scale below and a k_i-NN table into it, at every scale.

    points is one cloud (N, 3), which gives its ScaleIndex, or a stack of
    clouds with a shared point count (B, N, 3), which gives the stack's,
    whose [b] equals a one-cloud call: every scale sorts the stacked clouds
    once (lex_order) and runs one fps and one knn over all of them.
    """
    pts = as_points(points, "points")
    src = pts.reshape(-1, *pts.shape[-2:])
    dtype = np.min_scalar_type(src.shape[1] - 1)
    picks, tables = [], []
    for n_i, k_i in zip(counts, ks):
        order = lex_order(src)
        sel = fps(src, n_i, order=order)
        ctr = np.take_along_axis(src, sel[:, :, None], axis=1)
        tables.append(knn(ctr, src, k_i, order=order).astype(dtype))
        picks.append(sel.astype(dtype))
        src = ctr
    index = ScaleIndex(picks, tables)
    return index if pts.ndim == 3 else index[0]


def build_scales(points, counts, ks):
    """MultiScaleRepr of one cloud or a stack: build_index put on its points."""
    pts = as_points(points, "points")
    return build_index(pts, counts, ks).on(pts)


def sample_visible(n, mask_ratio, rng):
    """Random visibility flags with exactly floor(mask_ratio * n) False.

    The draw is a seedable permutation, so a fixed generator state fixes
    the mask. A ratio leaving zero visible seeds is rejected: the encoder
    needs at least one token.
    """
    if not 0.0 <= mask_ratio <= 1.0:
        raise ConfigError(f"mask_ratio must lie in [0, 1], got {mask_ratio}")
    if n < 1:
        raise ContractError(f"cannot mask {n} seeds")
    num_masked = int(np.floor(mask_ratio * n))
    if num_masked >= n:
        raise ContractError(f"mask_ratio {mask_ratio} leaves no visible seed out of {n}")
    vis = np.ones(n, dtype=bool)
    order = rng.permutation(n)
    vis[order[:num_masked]] = False
    return vis


def back_project(repr, coarse_visible):
    """Propagate coarsest-scale visibility down the hierarchy.

    For i = S-1 .. 1, a scale-i point is visible iff its index occurs in a
    neighbor row of some visible scale-(i+1) seed (union semantics). The
    result satisfies, by construction:
      closure    - every visible seed keeps its whole neighborhood visible;
      minimality - nothing else is visible.
    repr is one cloud with coarse_visible (N_S,), or a stack of B clouds
    with coarse_visible (B, N_S), one row per cloud.
    """
    vis_s = np.asarray(coarse_visible, dtype=bool)
    want = repr.seeds[-1].shape[:-1]
    if vis_s.shape != want:
        raise ContractError(f"coarse visibility has shape {vis_s.shape}, expected {want}")
    if not vis_s.any(axis=-1).all():
        raise ContractError("no visible seed at the coarsest scale")
    one = vis_s.ndim == 1
    stack, vis_s = (repr[None], vis_s[None]) if one else (repr, vis_s)
    visible = [None] * repr.num_scales
    visible[-1] = vis_s.copy()
    for i in range(repr.num_scales - 2, -1, -1):
        b, seed = np.nonzero(visible[i + 1])
        vis = np.zeros(stack.seeds[i].shape[:-1], dtype=bool)
        vis[b[:, None], stack.neighbor_index[i + 1][b, seed]] = True  # rows index scale-i points
        visible[i] = vis
    return MaskAssignment(visible)[0] if one else MaskAssignment(visible)


def independent_masks(repr, mask_ratio, rng):
    """Ablation: draw a fresh random mask at every scale, no back-projection.

    Deliberately breaks the cross-scale consistency that back_project
    guarantees; verify_consistency exists to detect exactly that. From
    scale 2 up, a visible seed with no visible neighbor below is hidden,
    so every visible seed has something to pool (model.merge_tokens). A
    scale left with no visible seed keeps seed 0 visible, and with it the
    chain of first neighbors below (a seed's own point one scale down), so
    no scale is ever empty. For a stack, rng is a list of one generator per
    cloud, each drawing only its own cloud's scales, finest first.
    """
    one = repr.seeds[0].ndim == 2
    stack, rngs = (repr[None], [rng]) if one else (repr, rng)
    visible = [np.stack([sample_visible(s.shape[1], mask_ratio, r) for r in rngs]) for s in stack.seeds]
    for i in range(1, len(visible)):
        visible[i] &= np.take_along_axis(visible[i - 1][:, None], stack.neighbor_index[i], 2).any(axis=2)
        for b in np.flatnonzero(~visible[i].any(axis=1)):
            seed = 0
            for j in range(i, -1, -1):
                visible[j][b, seed] = True
                seed = stack.neighbor_index[j][b, seed, 0]
    return MaskAssignment(visible)[0] if one else MaskAssignment(visible)


def verify_consistency(repr, assignment):
    """Check closure and minimality; returns a list of violation strings.

    Empty list means the assignment is exactly what back-projection from
    its own coarsest mask would produce.
    """
    problems = []
    for i in range(repr.num_scales - 1):
        vis_here = assignment.visible[i]
        vis_above = assignment.visible[i + 1]
        table = repr.neighbor_index[i + 1]
        required = np.unique(table[vis_above])
        hidden_required = required[~vis_here[required]]
        if hidden_required.size:
            problems.append(
                f"closure violated at scale {i + 1}: {hidden_required.size} neighbor(s) of "
                f"visible scale-{i + 2} seeds are masked (first: point {int(hidden_required[0])})"
            )
        extra = np.setdiff1d(np.flatnonzero(vis_here), required)
        if extra.size:
            problems.append(
                f"minimality violated at scale {i + 1}: {extra.size} visible point(s) serve no "
                f"visible scale-{i + 2} seed (first: point {int(extra[0])})"
            )
    return problems
