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
    scale i-1 points (the raw input for i = 0). parent_points[i] holds
    those scale i-1 coordinates for convenience.
    """

    input_points: np.ndarray
    seeds: list
    neighbor_index: list
    parent_points: list

    @property
    def num_scales(self):
        return len(self.seeds)


@dataclass
class MaskAssignment:
    """Per-scale visibility flags; visible[i] is boolean of length N_i."""

    visible: list

    def num_visible(self, i):
        return int(self.visible[i].sum())


def build_scales(points, counts, ks):
    """Downsample-and-group chain producing the S-scale representation.

    points is one cloud (N, 3), which gives one MultiScaleRepr, or a stack
    of clouds with a shared point count (B, N, 3), which gives a list of B,
    each equal to a one-cloud call: every scale sorts the stacked clouds
    once (lex_order) and runs one fps and one knn over all of them.
    """
    pts = as_points(points, "points")
    stack = pts.reshape(-1, *pts.shape[-2:])
    seeds, tables, parents = [], [], []
    src = stack
    for n_i, k_i in zip(counts, ks):
        order = lex_order(src)
        sel = fps(src, n_i, order=order)
        ctr = np.take_along_axis(src, sel[:, :, None], axis=1)
        tables.append(knn(ctr, src, k_i, order=order))
        seeds.append(ctr)
        parents.append(src)
        src = ctr
    reprs = [MultiScaleRepr(input_points=stack[b], seeds=[s[b] for s in seeds],
                            neighbor_index=[t[b] for t in tables],
                            parent_points=[p[b] for p in parents])
             for b in range(stack.shape[0])]
    return reprs if pts.ndim == 3 else reprs[0]


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
    """
    vis_s = np.asarray(coarse_visible, dtype=bool)
    n_s = repr.seeds[-1].shape[0]
    if vis_s.shape != (n_s,):
        raise ContractError(f"coarse visibility has shape {vis_s.shape}, expected ({n_s},)")
    if not vis_s.any():
        raise ContractError("no visible seed at the coarsest scale")
    visible = [None] * repr.num_scales
    visible[-1] = vis_s.copy()
    for i in range(repr.num_scales - 2, -1, -1):
        table_above = repr.neighbor_index[i + 1]  # rows index scale-i points
        vis = np.zeros(repr.seeds[i].shape[0], dtype=bool)
        used = np.unique(table_above[visible[i + 1]])
        vis[used] = True
        visible[i] = vis
    return MaskAssignment(visible=visible)


def independent_masks(repr, mask_ratio, rng):
    """Ablation: draw a fresh random mask at every scale, no back-projection.

    Deliberately breaks the cross-scale consistency that back_project
    guarantees; verify_consistency exists to detect exactly that. From
    scale 2 up, a visible seed with no visible neighbor below is hidden,
    so every visible seed has something to pool (model.merge_tokens). A
    scale left with no visible seed keeps seed 0 visible, and with it the
    chain of first neighbors below (a seed's own point one scale down), so
    no scale is ever empty.
    """
    visible = [sample_visible(s.shape[0], mask_ratio, rng) for s in repr.seeds]
    for i in range(1, len(visible)):
        visible[i] &= visible[i - 1][repr.neighbor_index[i]].any(axis=1)
        if not visible[i].any():
            seed = 0
            for j in range(i, -1, -1):
                visible[j][seed] = True
                seed = repr.neighbor_index[j][seed, 0]
    return MaskAssignment(visible=visible)


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
        required = np.unique(table[vis_above]) if vis_above.any() else np.empty(0, dtype=np.int64)
        hidden_required = required[~vis_here[required]] if required.size else required
        if hidden_required.size:
            problems.append(
                f"closure violated at scale {i + 1}: {hidden_required.size} neighbor(s) of "
                f"visible scale-{i + 2} seeds are masked (first: point {int(hidden_required[0])})"
            )
        extra = np.flatnonzero(vis_here)
        extra = extra[~np.isin(extra, required)]
        if extra.size:
            problems.append(
                f"minimality violated at scale {i + 1}: {extra.size} visible point(s) serve no "
                f"visible scale-{i + 2} seed (first: point {int(extra[0])})"
            )
    return problems
