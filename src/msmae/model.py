"""Hierarchical masked point autoencoder.

Encoder: a mini point feature extractor embeds the finest-scale visible
neighborhoods into tokens, then per scale a stack of pre-norm transformer
blocks with radius-limited self-attention runs, followed by a merge that
pools each coarser seed's neighbor tokens. Masking is drawn at the
coarsest scale and back-projected, so every scale exposes the same
spatial regions.

Decoder: visible coarse tokens plus a shared learnable mask token at
every masked coarse position, full (unmasked) attention, and between
stages inverse-distance interpolation onto the next finer scale with a
linear channel change; visible rows are fused with their encoder tokens
through a 2C->C linear. The head reconstructs, for each masked
second-scale token, its k_2 finest-scale neighbors as seed-relative
offsets under a symmetric squared-l2 Chamfer loss.

Batches: hierarchy builds the scales of a whole batch of clouds at once
in numpy, one stacked farthest point sampling and one stacked kNN per
scale over all clouds, then draws each cloud's mask with its own rng; the
*_batch functions then run B clouds at once with their token rows packed
cloud after cloud, so every linear layer, norm and MLP runs once over all
rows. Attention stays within a cloud through a padded (B, n, n) layout
(Padding), whose radius masks come from one stacked radius_mask. encode,
decode and reconstruct are the B=1 case of the same code; a one-cloud
pretraining loss is forward_pretrain_batch with one-element lists.

All functions are pure in (params, config, inputs); parameters live in a
flat name->Tensor dict with a creation order fixed by param_shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, InvariantError
from .geometry import chamfer_sets, interpolate, radius_mask
from .masking import MaskAssignment, back_project, build_scales, independent_masks, sample_visible

FFN_RATIO = 4  # hidden width of every feed-forward layer, in multiples of C


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are the full-size setting."""

    num_points: int = 2048
    counts: tuple = (512, 256, 64)
    dims: tuple = (96, 192, 384)
    radii: tuple = (0.32, 0.64, 1.28)
    ks: tuple = (16, 8, 8)
    encoder_blocks_per_stage: int = 5
    decoder_blocks_per_stage: int = 1
    heads: int = 6
    mask_ratio: float = 0.8
    # ablation switches
    hierarchical_encoder: bool = True
    hierarchical_decoder: bool = True
    local_attention: bool = True
    skip_connections: bool = True
    multi_scale_mask: bool = True

    @property
    def num_scales(self):
        return len(self.counts)

    def validate(self):
        S = self.num_scales
        if S < 2:
            raise ConfigError(f"need at least 2 scales, got {S}")
        if not (len(self.dims) == len(self.radii) == len(self.ks) == S):
            raise ConfigError("counts, dims, radii, ks must have equal length")
        if self.num_points <= self.counts[0]:
            raise ConfigError(f"num_points {self.num_points} must exceed scale-1 count {self.counts[0]}")
        prev = self.num_points
        for i, (n, k) in enumerate(zip(self.counts, self.ks)):
            if n >= prev or n < 1:
                raise ConfigError(f"scale counts must strictly decrease: {list(self.counts)}")
            if not 1 <= k <= prev:
                raise ConfigError(f"k={k} at scale {i + 1} exceeds parent size {prev}")
            prev = n
        if self.counts[-1] < 3:
            raise ConfigError("coarsest scale needs >= 3 seeds for 3-point interpolation")
        if any(b > a for a, b in zip(self.dims[1:], self.dims)):
            raise ConfigError(f"dims must be non-decreasing: {list(self.dims)}")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ConfigError(f"radii must strictly increase: {list(self.radii)}")
        if self.dims[0] < 2 or self.dims[0] % 2:
            raise ConfigError(f"first feature width must be even and >= 2, got {self.dims[0]}")
        if self.heads < 1 or any(d % self.heads for d in self.dims):
            raise ConfigError(f"heads={self.heads} must divide every width in {list(self.dims)}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must lie in [0, 1], got {self.mask_ratio}")
        if self.encoder_blocks_per_stage < 1 or self.decoder_blocks_per_stage < 1:
            raise ConfigError("block counts per stage must be >= 1")
        return self

    def encoder_block_plan(self):
        """Blocks per encoder stage; the flat ablation runs them all at scale 1."""
        S, B = self.num_scales, self.encoder_blocks_per_stage
        if self.hierarchical_encoder:
            return [B] * S
        return [S * B] + [0] * (S - 1)

    def decoder_block_plan(self):
        S, B = self.num_scales, self.decoder_blocks_per_stage
        if self.hierarchical_decoder:
            return [B] * (S - 1)
        return [(S - 1) * B] + [0] * (S - 2)


def _block_shapes(prefix, dim):
    return {
        f"{prefix}.ln1.g": (dim,),
        f"{prefix}.ln1.b": (dim,),
        f"{prefix}.attn.wq": (dim, dim),
        f"{prefix}.attn.bq": (dim,),
        f"{prefix}.attn.wk": (dim, dim),
        f"{prefix}.attn.bk": (dim,),
        f"{prefix}.attn.wv": (dim, dim),
        f"{prefix}.attn.bv": (dim,),
        f"{prefix}.attn.wo": (dim, dim),
        f"{prefix}.attn.bo": (dim,),
        f"{prefix}.ln2.g": (dim,),
        f"{prefix}.ln2.b": (dim,),
        f"{prefix}.ffn.w0": (dim, FFN_RATIO * dim),
        f"{prefix}.ffn.b0": (FFN_RATIO * dim,),
        f"{prefix}.ffn.w1": (FFN_RATIO * dim, dim),
        f"{prefix}.ffn.b1": (dim,),
    }


def _pos_shapes(prefix, dim):
    # two-layer coordinate MLP, hidden width = dim
    return {
        f"{prefix}.w0": (3, dim),
        f"{prefix}.b0": (dim,),
        f"{prefix}.w1": (dim, dim),
        f"{prefix}.b1": (dim,),
    }


def param_shapes(config):
    """Ordered name->shape map; creation, init and checkpoint order."""
    config.validate()
    d = config.dims
    S = config.num_scales
    shapes = {}
    half = d[0] // 2
    shapes.update({
        "embed.mlp1.w0": (3, half), "embed.mlp1.b0": (half,),
        "embed.mlp1.w1": (half, d[0]), "embed.mlp1.b1": (d[0],),
        "embed.mlp2.w0": (d[0], d[0]), "embed.mlp2.b0": (d[0],),
        "embed.mlp2.w1": (d[0], d[0]), "embed.mlp2.b1": (d[0],),
    })
    enc_plan = config.encoder_block_plan()
    for i in range(S):
        if enc_plan[i]:
            shapes.update(_pos_shapes(f"enc{i + 1}.pos", d[i]))
            for b in range(enc_plan[i]):
                shapes.update(_block_shapes(f"enc{i + 1}.blk{b + 1}", d[i]))
        if i < S - 1:
            shapes.update({
                f"merge{i + 2}.w0": (d[i] + 3, d[i + 1]), f"merge{i + 2}.b0": (d[i + 1],),
                f"merge{i + 2}.w1": (d[i + 1], d[i + 1]), f"merge{i + 2}.b1": (d[i + 1],),
            })
    shapes["mask_token"] = (d[S - 1],)
    dec_plan = config.decoder_block_plan()
    for j in range(1, S):
        dim_j = d[S - j]
        if dec_plan[j - 1]:
            shapes.update(_pos_shapes(f"dec{j}.pos", dim_j))
            for b in range(dec_plan[j - 1]):
                shapes.update(_block_shapes(f"dec{j}.blk{b + 1}", dim_j))
        if j < S - 1:
            shapes.update({f"prop{j}.w": (dim_j, d[S - j - 1]), f"prop{j}.b": (d[S - j - 1],)})
        if j >= 2 and config.skip_connections:
            shapes.update({f"skip{j}.w": (2 * dim_j, dim_j), f"skip{j}.b": (dim_j,)})
    shapes["recon.w"] = (d[1], config.ks[1] * 3)
    shapes["recon.b"] = (config.ks[1] * 3,)
    return shapes


def param_count(config):
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def init_params(config, seed, dtype=np.float32):
    """Fresh parameter dict: uniform +-sqrt(6/(fan_in+fan_out)) matrices,
    zero biases, identity norms, mask token from N(0, 0.02^2)."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name == "mask_token":
            arr = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith(".g"):
            arr = np.ones(shape)
        elif len(shape) == 1:
            arr = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            arr = rng.uniform(-bound, bound, size=shape)
        params[name] = T.tensor(arr.astype(dtype), requires_grad=True)
    return params


def _lin(params, prefix, x, suffix=""):
    return T.linear(x, params[f"{prefix}.w{suffix}"], params[f"{prefix}.b{suffix}"])


def _mlp2(params, prefix, x):
    """w0 -> gelu -> w1, the shape every small MLP here takes."""
    return _lin(params, prefix, T.gelu(_lin(params, prefix, x, "0")), "1")


def _pos_encoding(params, prefix, coords, dtype):
    return _mlp2(params, prefix, T.tensor(coords.astype(dtype)))


@dataclass(frozen=True)
class Padding:
    """How B token sets, packed one after another as rows of one (N, C)
    tensor, map onto a padded (B, n, C) layout with n the largest set.

    index is the (B, n) packed row of every slot (padding slots repeat row
    0) and real the flat slots, in B*n order, that hold a packed row. Both
    are None when every set has n rows, where a reshape does the mapping.
    """

    count: int
    width: int
    index: np.ndarray = None
    real: np.ndarray = None

    @classmethod
    def of(cls, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        count, width = sizes.size, int(sizes.max())
        if (sizes == width).all():
            return cls(count, width)
        slot = np.arange(width)
        filled = slot[None, :] < sizes[:, None]
        starts = np.cumsum(sizes) - sizes
        index = np.where(filled, starts[:, None] + slot[None, :], 0)
        return cls(count, width, index, np.flatnonzero(filled))


def _attention(params, prefix, x, allow, heads, pad):
    """Multi-head self-attention within each of pad.count packed token sets.

    x is (N, C) already normalized; allow is a (B, n, n) boolean adjacency
    over padded slots, or None for dense attention within every set, which
    needs sets that fill the layout (no padding to keep out).
    Returns (output (N, C), probs (B, heads, n, n) numpy).
    """
    if allow is None and pad.index is not None:
        raise ContractError("dense attention over padded token sets would attend to padding")
    C = x.shape[1]
    B, n = pad.count, pad.width
    dh = C // heads
    q, k, v = (_lin(params, prefix, x, s) for s in "qkv")

    def split(t):  # packed (N, C) -> (B, heads, n, dh)
        if pad.index is not None:
            t = T.gather(t, pad.index)
        return T.transpose(T.reshape(t, (B, n, heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.mul(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    probs = T.masked_softmax(scores, None if allow is None else allow[:, None, :, :])
    mixed = T.matmul(probs, vh)  # (B, heads, n, dh)
    merged = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (B * n, C))
    if pad.real is not None:
        merged = T.gather(merged, pad.real)
    return _lin(params, prefix, merged, "o"), probs.data


def encoder_block(params, prefix, feats, pos, allow, heads, pad, return_attn=False):
    """Pre-norm transformer block with adjacency-restricted attention.

    The positional encoding is re-added to the features ahead of every
    block, so each attention layer sees current coordinates. feats packs
    pad.count token sets and allow is their (B, n, n) adjacency, or None
    for dense attention; one set is Padding(1, n) with allow[None].
    With return_attn, also returns the (B, heads, n, n) attention
    probabilities.
    """
    h = T.add(feats, pos) if pos is not None else feats
    normed = T.layer_norm(h, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    attn_out, probs = _attention(params, f"{prefix}.attn", normed, allow, heads, pad)
    h = T.add(h, attn_out)
    normed2 = T.layer_norm(h, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = T.add(h, _mlp2(params, f"{prefix}.ffn", normed2))
    if return_attn:
        return h, probs
    return h


def _encoder_allow(coords, radius, pad, local):
    """(B, n, n) attention adjacency of padded token sets, or None for dense.

    Real slots follow the radius mask (or see their whole set without
    local attention); a padding slot sees only itself, so no row is empty
    and no real token attends to padding.
    """
    if not local and pad.index is None:
        return None
    real = np.arange(pad.width) < np.asarray([c.shape[0] for c in coords])[:, None]
    allow = real[:, :, None] & real[:, None, :]
    if local:
        packed = np.concatenate(coords)
        slots = packed.reshape(pad.count, pad.width, 3) if pad.index is None else packed[pad.index]
        allow &= radius_mask(slots, radius)
    allow |= np.eye(pad.width, dtype=bool)
    return allow


def embed_tokens(params, config, reprs, assignments):
    """Finest-scale visible neighborhoods -> C_1 tokens (mini point network).

    Neighbor coordinates are re-centered on their seed, so the embedding is
    translation invariant; max-pool over the k_1 neighbors makes it
    neighbor-order invariant. Rows of all clouds are packed in cloud order.
    """
    dtype = params["embed.mlp1.w0"].dtype
    rel = []
    for repr, assignment in zip(reprs, assignments):
        idx = np.flatnonzero(assignment.visible[0])
        groups = repr.input_points[repr.neighbor_index[0][idx]]  # (n, k, 3)
        rel.append(groups - repr.seeds[0][idx][:, None, :])
    rel = np.concatenate(rel).astype(dtype)
    n, k, _ = rel.shape
    per_point = _mlp2(params, "embed.mlp1", T.tensor(rel.reshape(n * k, 3)))
    pooled = T.segment_max(per_point, np.repeat(np.arange(n), k), n)
    return _mlp2(params, "embed.mlp2", pooled)


def merge_tokens(params, config, reprs, assignments, scale, feats):
    """Pool scale-(scale-1) visible tokens into scale-`scale` visible tokens.

    scale is 1-based with scale >= 2; feats packs every cloud's
    scale-(scale-1) tokens. Each visible seed gathers its k neighbor tokens
    (closure guarantees they are visible), concatenates the neighbor's
    seed-relative coordinate, applies an MLP and max-pools.
    """
    i = scale - 1  # 0-based target scale index
    rows, rel = [], []
    start = 0
    for repr, assignment in zip(reprs, assignments):
        vis_below = assignment.visible[i - 1]
        below_pos = np.full(vis_below.shape[0], -1, dtype=np.int64)
        below = np.flatnonzero(vis_below)
        below_pos[below] = start + np.arange(below.size)
        start += below.size
        idx = np.flatnonzero(assignment.visible[i])
        neigh = repr.neighbor_index[i][idx]  # (n, k) indices into scale i-1
        if (below_pos[neigh] < 0).any():
            raise InvariantError(
                f"merge at scale {scale}: a required neighbor token is masked; "
                "visibility masks are not closure-consistent"
            )
        rows.append(below_pos[neigh])
        rel.append(repr.parent_points[i][neigh] - repr.seeds[i][idx][:, None, :])
    rows = np.concatenate(rows)
    n, k = rows.shape
    gathered = T.gather(feats, rows)  # (n, k, C)
    joined = T.concat([gathered, T.tensor(np.concatenate(rel).astype(feats.dtype))], axis=-1)
    flat = T.reshape(joined, (n * k, joined.shape[-1]))
    h = _mlp2(params, f"merge{scale}", flat)
    return T.segment_max(h, np.repeat(np.arange(n), k), n)


def hierarchy(config, clouds, rngs=None, mask_ratio=None):
    """Scales and visibility masks of a batch of clouds, plain numpy.

    clouds is a non-empty list of (N, 3) clouds that share N; their scales
    come from one stacked build_scales. rngs holds one generator per cloud,
    each drawing only its own cloud's mask. Returns (reprs, assignments),
    one of each per cloud, equal to what one-cloud calls would give.
    mask_ratio overrides the config value (0 disables masking and needs
    no rngs).
    """
    config.validate()
    pts = [np.asarray(p, dtype=np.float64) for p in clouds]
    for p in pts:
        if p.ndim != 2 or p.shape[1] != 3:
            raise ContractError(f"points must be (N, 3), got {p.shape}")
        if p.shape[0] < config.num_points:
            raise ContractError(f"expected >= {config.num_points} points, got {p.shape[0]}")
    reprs = build_scales(pts, list(config.counts), list(config.ks))  # ContractError if ragged
    rngs = [None] * len(reprs) if rngs is None else list(rngs)
    if len(rngs) != len(reprs):
        raise ContractError(f"{len(rngs)} rngs for {len(reprs)} clouds")
    return reprs, [_mask(config, r, rng, mask_ratio) for r, rng in zip(reprs, rngs)]


def _mask(config, repr, rng, mask_ratio):
    """One cloud's visibility on its scales; see hierarchy."""
    ratio = config.mask_ratio if mask_ratio is None else mask_ratio
    if ratio == 0.0:
        return MaskAssignment(visible=[np.ones(s.shape[0], dtype=bool) for s in repr.seeds])
    if rng is None:
        raise ContractError("masking requires an rng")
    if config.multi_scale_mask:
        return back_project(repr, sample_visible(config.counts[-1], ratio, rng))
    return independent_masks(repr, ratio, rng)


def encode_batch(params, config, reprs, assignments):
    """Encoder pass over B clouds at once.

    Returns tokens: tokens[i] packs the visible scale-(i+1) tokens of every
    cloud, cloud after cloud, each cloud's rows by ascending seed position.
    Attention stays within a cloud.
    """
    feats = embed_tokens(params, config, reprs, assignments)
    dtype = feats.dtype
    plan = config.encoder_block_plan()
    tokens = []
    for i in range(config.num_scales):
        if plan[i]:
            coords = [r.seeds[i][a.visible[i]] for r, a in zip(reprs, assignments)]
            pad = Padding.of([c.shape[0] for c in coords])
            allow = _encoder_allow(coords, config.radii[i], pad, config.local_attention)
            pos = _pos_encoding(params, f"enc{i + 1}.pos", np.concatenate(coords), dtype)
            for b in range(plan[i]):
                feats = encoder_block(params, f"enc{i + 1}.blk{b + 1}", feats, pos, allow,
                                      config.heads, pad)
        tokens.append(feats)
        if i < config.num_scales - 1:
            feats = merge_tokens(params, config, reprs, assignments, i + 2, feats)
    return tokens


def encode(params, config, points, rng=None, mask_ratio=None, scales=None):
    """Full encoder pass over one cloud.

    Returns (tokens, repr, assignment): tokens[i] is the visible token set
    of scale i+1, rows ordered by ascending seed position. mask_ratio
    overrides the config value (0 disables masking and needs no rng).
    scales, when given, is the cloud's prebuilt MultiScaleRepr (from a
    batched hierarchy call), used in place of building it again.
    """
    if scales is None:
        (scales,), (assignment,) = hierarchy(config, [points], [rng], mask_ratio)
    else:
        assignment = _mask(config, scales, rng, mask_ratio)
    return encode_batch(params, config, [scales], [assignment]), scales, assignment


def _interleave(vis_rows, hidden_rows, visible):
    """Rows in seed order from packed visible rows and packed hidden rows.

    visible is the flat (B*n) visibility of B same-size clouds, cloud after
    cloud, the order both row blocks are packed in.
    """
    if hidden_rows.shape[0] == 0:
        return vis_rows
    pos = np.empty(visible.size, dtype=np.int64)
    nv = int(visible.sum())
    pos[visible] = np.arange(nv)
    pos[~visible] = nv + np.arange(visible.size - nv)
    return T.gather(T.concat([vis_rows, hidden_rows], axis=0), pos)


def decode_batch(params, config, tokens, reprs, assignments):
    """Decoder pass over B clouds; returns their full second-scale token
    sets packed as (B*N_2, C_2).

    Stage 1 runs on all coarsest positions (visible tokens plus the shared
    mask token); every later stage first interpolates all tokens onto the
    next finer scale, changes channels with a linear layer, and fuses
    visible rows with their encoder tokens. Every decoder scale has the
    same size in every cloud, so attention needs no padding.
    """
    S = config.num_scales
    B = len(reprs)
    dtype = tokens[-1].dtype
    vis = np.concatenate([a.visible[-1] for a in assignments])
    mtok = T.add(T.tensor(np.zeros((int((~vis).sum()), config.dims[-1]), dtype=dtype)),
                 params["mask_token"])
    feats = _interleave(tokens[-1], mtok, vis)
    plan = config.decoder_block_plan()
    for j in range(1, S):
        scale_idx = S - j
        if j > 1:
            fine = np.stack([r.seeds[scale_idx] for r in reprs])
            coarse = np.stack([r.seeds[scale_idx + 1] for r in reprs])
            feats = _lin(params, f"prop{j - 1}", interpolate(feats, fine, coarse, k=3))
            if config.skip_connections:
                vis_here = np.concatenate([a.visible[scale_idx] for a in assignments])
                fused = _lin(params, f"skip{j}",
                             T.concat([T.gather(feats, np.flatnonzero(vis_here)), tokens[scale_idx]],
                                      axis=-1))
                feats = _interleave(fused, T.gather(feats, np.flatnonzero(~vis_here)), vis_here)
        if plan[j - 1]:
            coords = np.concatenate([r.seeds[scale_idx] for r in reprs])
            pad = Padding(B, config.counts[scale_idx])
            pos = _pos_encoding(params, f"dec{j}.pos", coords, dtype)
            for b in range(plan[j - 1]):
                feats = encoder_block(params, f"dec{j}.blk{b + 1}", feats, pos, None,
                                      config.heads, pad)
    return feats


def decode(params, config, tokens, repr, assignment):
    """Decoder pass over one cloud; returns the full second-scale token set
    (N_2, C_2)."""
    return decode_batch(params, config, tokens, [repr], [assignment])


def reconstruct_batch(params, config, dec_feats, reprs, assignments):
    """Predict masked second-scale neighborhoods of B clouds; Chamfer loss.

    Each masked token's linear head output is k_2 offsets relative to its
    seed; ground truth is the seed's recorded finest-neighbor coordinates,
    equally re-centered. The loss is the mean over clouds of each cloud's
    mean per-token Chamfer distance: a token of cloud b weighs 1/(B*M_b),
    with M_b the cloud's masked token count. Returns (predictions packed as
    (sum M_b, k_2, 3), scalar loss).
    """
    masked = [np.flatnonzero(~a.visible[1]) for a in assignments]
    if any(m.size == 0 for m in masked):
        raise ContractError("no masked second-scale token to reconstruct")
    B, n2, k2 = len(masked), config.counts[1], config.ks[1]
    dtype = dec_feats.dtype
    rows = np.concatenate([m + b * n2 for b, m in enumerate(masked)])
    pred = T.reshape(_lin(params, "recon", T.gather(dec_feats, rows)), (rows.size, k2, 3))
    gt = np.concatenate([r.parent_points[1][r.neighbor_index[1][m]] - r.seeds[1][m][:, None, :]
                         for r, m in zip(reprs, masked)])
    per_token = chamfer_sets(pred, gt.astype(dtype))
    weights = np.concatenate([np.full(m.size, 1.0 / (B * m.size)) for m in masked]).astype(dtype)
    return pred, T.reduce_sum(T.mul(per_token, weights))


def reconstruct(params, config, dec_feats, repr, assignment):
    """Predict one cloud's masked second-scale neighborhoods; returns
    (predictions (M, k_2, 3), mean per-token Chamfer loss)."""
    return reconstruct_batch(params, config, dec_feats, [repr], [assignment])


def forward_pretrain_batch(params, config, clouds, rngs):
    """encode -> decode -> reconstruct over B clouds, each masked with its
    own rng; returns the scalar mean of the per-cloud Chamfer losses."""
    reprs, assignments = hierarchy(config, clouds, rngs)
    tokens = encode_batch(params, config, reprs, assignments)
    dec = decode_batch(params, config, tokens, reprs, assignments)
    return reconstruct_batch(params, config, dec, reprs, assignments)[1]


def pool_tokens(top, sizes):
    """Global features (B, C) of B token sets packed cloud after cloud in
    top, each set's max-pool plus its mean-pool; sizes are the sets' rows."""
    B = len(sizes)
    ids = np.repeat(np.arange(B), sizes)
    return T.add(T.segment_max(top, ids, B), T.segment_mean(top, ids, B))


def extract_global_feature(params, config, points, scales=None):
    """Unmasked encoder pass over one cloud pooled to one vector (pool_tokens).

    scales, when given, is the cloud's prebuilt MultiScaleRepr (see encode).
    """
    tokens, _, _ = encode(params, config, points, mask_ratio=0.0, scales=scales)
    top = tokens[-1]
    return T.reshape(pool_tokens(top, [top.shape[0]]), (top.shape[-1],))


class Model:
    """Bundle of config + parameters with the common entry points."""

    def __init__(self, config, params):
        self.config = config.validate()
        self.params = params

    @classmethod
    def init(cls, config, seed, dtype=np.float32):
        return cls(config, init_params(config, seed, dtype=dtype))

    def global_feature(self, points, scales=None):
        return extract_global_feature(self.params, self.config, points, scales)
