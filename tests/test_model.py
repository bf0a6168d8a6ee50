"""Model structure, locality, invariance, and gradient tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from msmae import model as M
from msmae import tensor as T
from msmae.config import load_run_config
from msmae.data import DatasetRecord, make_records
from msmae.errors import ConfigError, ContractError, InvariantError
from msmae.geometry import radius_mask
from msmae.evaluate import extract_features
from msmae.masking import MaskAssignment, MultiScaleRepr, build_scales, verify_consistency
from msmae.model import HIERARCHY_CHUNK
from msmae.rng import derive_rng
from msmae.training import augment

SMALL = M.ModelConfig(num_points=128, counts=(64, 32, 8), dims=(32, 64, 128),
                      radii=(0.32, 0.64, 1.28), ks=(16, 8, 8),
                      encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=4)


def cloud(seed, n=128, spread=0.6):
    return np.random.default_rng(seed).normal(size=(n, 3)) * spread


def edit_config_text(path, edit):
    """Replace the lines of a checkpoint's config text with edit(lines)."""
    blob = path.read_bytes()
    size = int.from_bytes(blob[6:10], "little")
    text = b"\n".join(edit(blob[10:10 + size].split(b"\n")))
    path.write_bytes(blob[:6] + len(text).to_bytes(4, "little") + text + blob[10 + size:])


def set_config_line(path, key, value):
    """Rewrite the `key = ` line of a checkpoint's config text to `key = value`."""
    edit_config_text(path, lambda lines: [key + b" = " + value if line.startswith(key + b" = ")
                                          else line for line in lines])


class TestConfig:
    def test_default_is_valid(self):
        M.ModelConfig().validate()

    def test_invariants_enforced(self):
        bad = [
            dict(counts=(512,), dims=(96,), radii=(0.3,), ks=(16,)),  # S < 2
            dict(dims=(96, 64, 384)),                                   # decreasing dims
            dict(radii=(0.32, 0.32, 1.28)),                             # non-increasing radii
            dict(heads=5),                                              # 5 does not divide 96
            dict(counts=(512, 256, 300)),                               # non-monotonic counts
            dict(counts=(512, 600, 64)),                                # scale above its parent
            dict(counts=(512, 256, 0)),                                 # empty scale
            dict(num_points=512),                                       # input not above scale 1
            dict(ks=(16, 600, 8)),                                      # k above the parent size
            dict(ks=(0, 8, 8)),
            dict(ks=(16, 8)),                                           # mismatched lengths
            dict(radii=(math.nan,) * 3),
            dict(radii=(0.32, math.nan, 1.28)),
            dict(radii=(0.0, 0.64, 1.28)),                              # zero radius
            dict(radii=(0.32, 0.64, math.inf)),
            dict(mask_ratio=1.5),
            dict(mask_ratio=1.0),                                       # no visible coarse seed
            dict(mask_ratio=0.0),                                       # nothing to reconstruct
            dict(mask_ratio=0.01),                                      # masks 0 of 64 seeds
            dict(mask_ratio=math.nan),
            dict(counts=(512, 256, 2)),                                 # too few coarse seeds
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                M.ModelConfig(**kw).validate()

    def test_text_round_trip(self):
        from msmae.checkpoint import model_text, parse_model_text
        cfg = M.ModelConfig(heads=3, mask_ratio=0.6, skip_connections=False)
        assert parse_model_text(model_text(cfg).encode()) == cfg
        assert parse_model_text(model_text(SMALL).encode()) == SMALL

    def test_block_plans(self):
        assert SMALL.encoder_block_plan() == [1, 1, 1]
        flat = M.ModelConfig(hierarchical_encoder=False, encoder_blocks_per_stage=5)
        assert flat.encoder_block_plan() == [15, 0, 0]
        assert SMALL.decoder_block_plan() == [1, 1]
        flatd = M.ModelConfig(hierarchical_decoder=False, decoder_blocks_per_stage=1)
        assert flatd.decoder_block_plan() == [2, 0]


def param_count(config):
    return sum(int(np.prod(shape)) for shape in M.param_shapes(config).values())


class TestParams:
    def test_count_is_pure_function_of_config(self):
        assert param_count(SMALL) == param_count(SMALL)
        # golden regression for the full-size default configuration
        assert param_count(M.ModelConfig()) == 14711064

    def test_ablations_change_count_as_documented(self):
        base = param_count(SMALL)
        no_skip = param_count(M.ModelConfig(**{**SMALL.__dict__, "skip_connections": False}))
        # removing skip fusion drops exactly the 2C->C linear at stage 2
        c2 = SMALL.dims[1]
        assert base - no_skip == 2 * c2 * c2 + c2
        flat_enc = M.ModelConfig(**{**SMALL.__dict__, "hierarchical_encoder": False})
        # same number of blocks overall, but all at C_1: fewer weights
        assert param_count(flat_enc) < base
        # local attention only changes masks, never the parameter table
        no_local = M.ModelConfig(**{**SMALL.__dict__, "local_attention": False})
        assert param_count(no_local) == base

    def test_init_deterministic_and_finite(self):
        a = M.init_params(M.param_shapes(SMALL), seed=3)
        b = M.init_params(M.param_shapes(SMALL), seed=3)
        for n in a:
            assert np.array_equal(a[n].data, b[n].data)
            assert np.isfinite(a[n].data).all()
        c = M.init_params(M.param_shapes(SMALL), seed=4)
        assert not np.array_equal(a["embed.mlp1.w0"].data, c["embed.mlp1.w0"].data)

    def test_init_rules(self):
        p = M.init_params(M.param_shapes(SMALL), seed=0)
        assert (p["enc1.blk1.ln1.g"].data == 1.0).all()
        assert (p["enc1.blk1.ln1.b"].data == 0.0).all()
        assert (p["embed.mlp1.b0"].data == 0.0).all()
        assert np.abs(p["mask_token"].data).max() < 0.2  # N(0, 0.02^2) tail


class TestEmbed:
    def test_shapes(self):
        m = M.Model.init(SMALL, seed=0)
        tokens, repr, assignment = M.encode(m.params, SMALL, cloud(0), rng=np.random.default_rng(1))
        assert tokens[0].shape == (assignment.num_visible(0), 32)
        assert tokens[1].shape == (assignment.num_visible(1), 64)
        assert tokens[2].shape == (assignment.num_visible(2), 128)
        assert assignment.num_visible(2) == 8 - int(np.floor(0.8 * 8))

    def test_translation_invariant(self):
        m = M.Model.init(SMALL, seed=0)
        pts = cloud(1)
        a, _, _ = M.encode(m.params, SMALL, pts)
        b, _, _ = M.encode(m.params, SMALL, pts + np.array([5.0, -3.0, 2.0]))
        # embedding sees relative coordinates only; attention sees absolute
        # positions, so compare the embedding layer output directly
        repr_a = build_scales(pts, list(SMALL.counts), list(SMALL.ks))
        shifted = pts + np.array([5.0, -3.0, 2.0])
        repr_b = build_scales(shifted, list(SMALL.counts), list(SMALL.ks))
        from msmae.masking import MaskAssignment
        all_vis = MaskAssignment(visible=[np.ones(c, dtype=bool) for c in SMALL.counts])
        ea = M.embed_tokens(m.params, SMALL, repr_a[None], all_vis[None])
        eb = M.embed_tokens(m.params, SMALL, repr_b[None], all_vis[None])
        assert np.abs(ea.data - eb.data).max() < 1e-5

    def test_degenerate_neighborhood(self):
        # all neighbors on the seed -> relative coords zero -> constant row
        m = M.Model.init(SMALL, seed=0)
        repr = MultiScaleRepr(input_points=np.zeros((1, 4, 3)), seeds=[np.zeros((1, 2, 3))],
                              neighbor_index=[np.array([[[0, 1], [2, 3]]])])
        out = M.embed_tokens(m.params, SMALL, repr, MaskAssignment(visible=[np.ones((1, 2), bool)]))
        assert np.abs(out.data[0] - out.data[1]).max() == 0.0

    def test_matches_per_token_pooling(self):
        # each visible token pools mlp1 over its own neighbourhood, whatever the packed row order
        m = M.Model.init(SMALL, seed=5, dtype=np.float64)
        repr, assignment = M.hierarchy(SMALL, [cloud(5), cloud(6)],
                                       [np.random.default_rng(7), np.random.default_rng(8)])
        got = M.embed_tokens(m.params, SMALL, repr, assignment).data
        b, idx = np.nonzero(assignment.visible[0])
        want = []
        for c, i in zip(b, idx):
            rel = repr.input_points[c, repr.neighbor_index[0][c, i]] - repr.seeds[0][c, i]
            pooled = M._mlp2(m.params, "embed.mlp1", T.tensor(rel)).data.max(axis=0)
            want.append(M._mlp2(m.params, "embed.mlp2", T.tensor(pooled[None])).data[0])
        assert np.abs(got - np.array(want)).max() <= 1e-12


class TestMerge:
    def test_neighbor_order_irrelevant(self):
        m = M.Model.init(SMALL, seed=0)
        pts = cloud(2)
        repr = build_scales(pts, list(SMALL.counts), list(SMALL.ks))
        from msmae.masking import MaskAssignment
        assignment = MaskAssignment(visible=[np.ones(c, dtype=bool) for c in SMALL.counts])
        feats = M.embed_tokens(m.params, SMALL, repr[None], assignment[None])
        out1 = M.merge_tokens(m.params, SMALL, repr[None], assignment[None], 2, feats)
        repr.neighbor_index[1] = repr.neighbor_index[1][:, ::-1].copy()
        out2 = M.merge_tokens(m.params, SMALL, repr[None], assignment[None], 2, feats)
        assert np.array_equal(out1.data, out2.data)

    def test_matches_per_token_pooling(self):
        m = M.Model.init(SMALL, seed=6, dtype=np.float64)
        repr, assignment = M.hierarchy(SMALL, [cloud(9), cloud(10)],
                                       [np.random.default_rng(11), np.random.default_rng(12)])
        feats = M.embed_tokens(m.params, SMALL, repr, assignment)
        got = M.merge_tokens(m.params, SMALL, repr, assignment, 2, feats).data
        below = np.cumsum(assignment.visible[0]).reshape(assignment.visible[0].shape) - 1
        b, idx = np.nonzero(assignment.visible[1])
        want = []
        for c, i in zip(b, idx):
            neigh = repr.neighbor_index[1][c, i]  # back-projection keeps every neighbour visible
            rel = repr.seeds[0][c, neigh] - repr.seeds[1][c, i]
            joined = np.concatenate([feats.data[below[c, neigh]], rel], axis=1)
            want.append(M._mlp2(m.params, "merge2", T.tensor(joined)).data.max(axis=0))
        assert np.abs(got - np.array(want)).max() <= 1e-12

    def test_hidden_neighbor_pools_over_visible_ones(self):
        m = M.Model.init(SMALL, seed=0)
        repr = build_scales(cloud(3), list(SMALL.counts), list(SMALL.ks))
        vis = [np.ones(c, dtype=bool) for c in SMALL.counts]
        vis[0][repr.neighbor_index[1][0, 0]] = False  # hide a neighbor of scale-2 seed 0
        assignment = MaskAssignment(visible=vis)
        feats = M.embed_tokens(m.params, SMALL, repr[None], assignment[None])
        out = M.merge_tokens(m.params, SMALL, repr[None], assignment[None], 2, feats)
        row_of = np.cumsum(vis[0]) - 1
        for j, neigh in enumerate(repr.neighbor_index[1]):
            neigh = neigh[vis[0][neigh]]  # the visible neighbors alone
            rel = repr.seeds[0][neigh] - repr.seeds[1][j]
            x = np.concatenate([feats.data[row_of[neigh]], rel.astype(np.float32)], axis=1)
            want = M._mlp2(m.params, "merge2", T.tensor(x)).data.max(axis=0)
            # the reference's matmuls have fewer rows: allow a few float32 ulps of rounding
            np.testing.assert_allclose(out.data[j], want, rtol=1e-6, atol=1e-6)

    def test_seed_without_visible_neighbor_is_invariant_violation(self):
        m = M.Model.init(SMALL, seed=0)
        repr = build_scales(cloud(3), list(SMALL.counts), list(SMALL.ks))
        vis = [np.ones(c, dtype=bool) for c in SMALL.counts]
        vis[0][repr.neighbor_index[1][0]] = False  # hide every neighbor of scale-2 seed 0
        assignment = MaskAssignment(visible=vis)
        feats_vis = M.embed_tokens(m.params, SMALL, repr[None], assignment[None])
        with pytest.raises(InvariantError):
            M.merge_tokens(m.params, SMALL, repr[None], assignment[None], 2, feats_vis)

    def test_independent_masks_encode(self):
        m = M.Model.init(SMALL, seed=0)
        cfg = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        tokens, repr, assignment = M.encode(m.params, cfg, cloud(4), rng=np.random.default_rng(0))
        assert verify_consistency(repr, assignment)  # the masks are not closure-consistent
        for i, t in enumerate(tokens):
            assert t.shape[0] == assignment.num_visible(i)
            assert np.isfinite(t.data).all()

    def test_independent_masks_one_cloud_batch_trains(self):
        # the neighbour rule alone hides every coarsest seed of this draw
        cfg = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        m = M.Model.init(cfg, seed=0)
        loss = M.forward_pretrain_batch(m.params, cfg, [cloud(84)], [np.random.default_rng(84)])
        assert np.isfinite(loss.data)


class TestAttentionLocality:
    def test_beyond_radius_weight_exactly_zero(self):
        rng = np.random.default_rng(5)
        m = M.Model.init(SMALL, seed=0)
        for trial in range(20):
            n = int(rng.integers(4, 24))
            coords = rng.normal(size=(n, 3))
            feats = T.tensor(rng.normal(size=(n, 32)).astype(np.float32))
            radius = float(rng.uniform(0.3, 1.5))
            allow = radius_mask(coords, radius)
            pos = M._pos_encoding(m.params, "enc1.pos", coords, np.float32)
            _, probs = M.encoder_block(m.params, "enc1.blk1", feats, pos, allow[None], SMALL.heads,
                                       T.Padding(1, n), return_attn=True)
            probs = probs[0]
            d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
            far = d2 > radius * radius
            assert (probs[:, far] == 0.0).all()

    def test_saturated_radius_equals_unmasked(self):
        rng = np.random.default_rng(6)
        m = M.Model.init(SMALL, seed=0)
        coords = rng.normal(size=(10, 3))
        feats = T.tensor(rng.normal(size=(10, 32)).astype(np.float32))
        pos = M._pos_encoding(m.params, "enc1.pos", coords, np.float32)
        diameter = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1)).max()
        local = M.encoder_block(m.params, "enc1.blk1", feats, pos,
                                radius_mask(coords, diameter * 1.01)[None], SMALL.heads, T.Padding(1, 10))
        dense = M.encoder_block(m.params, "enc1.blk1", feats, pos,
                                np.ones((1, 10, 10), dtype=bool), SMALL.heads, T.Padding(1, 10))
        assert np.abs(local.data - dense.data).max() < 1e-6

    def test_far_token_perturbation_does_not_leak(self):
        # two clusters farther apart than the radius: perturbing one cluster
        # leaves the other cluster's attention output rows unchanged
        m = M.Model.init(SMALL, seed=0)
        rng = np.random.default_rng(7)
        coords = np.concatenate([rng.normal(size=(5, 3)) * 0.05,
                                 rng.normal(size=(5, 3)) * 0.05 + 10.0])
        base = rng.normal(size=(10, 32)).astype(np.float32)
        bumped = base.copy()
        bumped[7] += 3.0
        allow = radius_mask(coords, 0.5)
        pos = M._pos_encoding(m.params, "enc1.pos", coords, np.float32)
        a = M.encoder_block(m.params, "enc1.blk1", T.tensor(base), pos, allow[None], 4, T.Padding(1, 10))
        b = M.encoder_block(m.params, "enc1.blk1", T.tensor(bumped), pos, allow[None], 4, T.Padding(1, 10))
        assert np.array_equal(a.data[:5], b.data[:5])
        assert not np.array_equal(a.data[5:], b.data[5:])

    def test_output_shape_matches_input(self):
        m = M.Model.init(SMALL, seed=0)
        feats = T.tensor(np.random.default_rng(8).normal(size=(6, 32)).astype(np.float32))
        coords = np.random.default_rng(9).normal(size=(6, 3))
        out = M.encoder_block(m.params, "enc1.blk1", feats, None,
                              np.ones((6, 6), bool)[None], 4, T.Padding(1, 6))
        assert out.shape == feats.shape


class TestEncodeDecode:
    def test_default_dims_per_scale(self):
        cfg = M.ModelConfig()
        m = M.Model.init(cfg, seed=0)
        pts = cloud(10, n=2048, spread=0.5)
        tokens, repr, assignment = M.encode(m.params, cfg, pts, rng=np.random.default_rng(2))
        assert [t.shape[-1] for t in tokens] == [96, 192, 384]
        assert assignment.num_visible(2) == 13
        dec = M.decode(m.params, cfg, tokens, repr, assignment)
        assert dec.shape == (256, 192)
        pred, loss = M.reconstruct(m.params, cfg, dec, repr, assignment)
        assert pred.shape[1:] == (8, 3)
        assert float(loss.data) >= 0.0

    def test_no_mask_counts(self):
        m = M.Model.init(SMALL, seed=0)
        tokens, _, _ = M.encode(m.params, SMALL, cloud(11))
        assert [t.shape[0] for t in tokens] == [64, 32, 8]

    def test_too_few_points_rejected(self):
        m = M.Model.init(SMALL, seed=0)
        with pytest.raises(ContractError):
            M.encode(m.params, SMALL, cloud(12, n=100))

    def test_no_rng_leaves_every_seed_visible(self):
        m = M.Model.init(SMALL, seed=0)
        independent = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        for cfg in (SMALL, independent):
            tokens, _, assignment = M.encode(m.params, cfg, cloud(13))
            assert all(v.all() for v in assignment.visible)
            assert [t.shape[0] for t in tokens] == list(cfg.counts)

    def test_loss_nonnegative_on_random_clouds(self):
        m = M.Model.init(SMALL, seed=1)
        for seed in range(100):
            loss = M.forward_pretrain_batch(m.params, m.config, [cloud(seed)], [np.random.default_rng(seed)])
            assert float(loss.data) >= 0.0
            assert np.isfinite(loss.data)

    def test_forward_deterministic(self):
        m = M.Model.init(SMALL, seed=1)
        pts = cloud(14)
        a = float(M.forward_pretrain_batch(m.params, m.config, [pts], [np.random.default_rng(3)]).data)
        b = float(M.forward_pretrain_batch(m.params, m.config, [pts], [np.random.default_rng(3)]).data)
        assert a == b

    def test_zero_head_predicts_zero_offsets(self):
        m = M.Model.init(SMALL, seed=0)
        m.params["recon.w"].data[:] = 0.0
        m.params["recon.b"].data[:] = 0.0
        pts = cloud(15)
        tokens, repr, assignment = M.encode(m.params, SMALL, pts, rng=np.random.default_rng(4))
        dec = M.decode(m.params, SMALL, tokens, repr, assignment)
        pred, loss = M.reconstruct(m.params, SMALL, dec, repr, assignment)
        assert np.array_equal(pred.data, np.zeros_like(pred.data))
        # loss against zero predictions: mean over tokens of the chamfer
        # between the zero set and each ground-truth offset set
        masked = np.flatnonzero(~assignment.visible[1])
        total = 0.0
        for t, mi in enumerate(masked):
            gt = repr.seeds[0][repr.neighbor_index[1][mi]] - repr.seeds[1][mi]
            d = (gt ** 2).sum(axis=1)
            total += d.mean() + d.min()
        assert abs(float(loss.data) - total / masked.size) < 1e-5

    def test_perfect_prediction_zero_loss(self):
        from msmae.geometry import chamfer_sets
        rng = np.random.default_rng(16)
        gt = rng.normal(size=(5, 8, 3))
        vals = chamfer_sets(T.tensor(gt.copy()), gt).data
        assert np.abs(vals).max() == 0.0

    def test_reconstruct_requires_masked_tokens(self):
        m = M.Model.init(SMALL, seed=0)
        tokens, repr, assignment = M.encode(m.params, SMALL, cloud(17))
        dec = M.decode(m.params, SMALL, tokens, repr, assignment)
        with pytest.raises(ContractError):
            M.reconstruct(m.params, SMALL, dec, repr, assignment)


class TestAblationForwards:
    def configs(self):
        base = SMALL.__dict__
        yield M.ModelConfig(**{**base, "hierarchical_encoder": False})
        yield M.ModelConfig(**{**base, "hierarchical_decoder": False})
        yield M.ModelConfig(**{**base, "skip_connections": False})
        yield M.ModelConfig(**{**base, "local_attention": False})

    def test_each_toggle_trains_forward(self):
        pts = cloud(18)
        losses = []
        for cfg in self.configs():
            m = M.Model.init(cfg, seed=0)
            loss = M.forward_pretrain_batch(m.params, m.config, [pts], [np.random.default_rng(5)])
            assert np.isfinite(loss.data)
            losses.append(float(loss.data))
        # toggles genuinely change the computation
        assert len(set(losses)) == len(losses)

    def test_local_attention_off_differs_from_on(self):
        pts = cloud(19)
        m_on = M.Model.init(SMALL, seed=0)
        cfg_off = M.ModelConfig(**{**SMALL.__dict__, "local_attention": False})
        m_off = M.Model.init(cfg_off, seed=0)  # same params, same seed
        a = float(M.forward_pretrain_batch(m_on.params, m_on.config, [pts],
                                           [np.random.default_rng(6)]).data)
        b = float(M.forward_pretrain_batch(m_off.params, m_off.config, [pts],
                                           [np.random.default_rng(6)]).data)
        assert a != b


class TestGlobalFeature:
    def test_length_and_determinism(self):
        m = M.Model.init(SMALL, seed=0)
        g1 = m.global_feature(cloud(20)).data
        g2 = m.global_feature(cloud(20)).data
        assert g1.shape == (128,)
        assert np.array_equal(g1, g2)

    def test_permutation_invariance(self):
        m = M.Model.init(SMALL, seed=0)
        pts = cloud(21)
        base = m.global_feature(pts).data
        rng = np.random.default_rng(22)
        for _ in range(20):
            perm = rng.permutation(len(pts))
            other = m.global_feature(pts[perm]).data
            rel = np.abs(other - base).max() / max(np.abs(base).max(), 1e-12)
            assert rel < 1e-5

    def test_single_token_pooling(self):
        # max + mean of a single token is twice that token
        x = T.tensor(np.random.default_rng(23).normal(size=(1, 6)))
        pooled = M.pool_tokens(x, 1)
        assert np.allclose(pooled.data, 2 * x.data)

    def test_packed_sets_pool_one_by_one(self):
        top = np.random.default_rng(24).normal(size=(4 * 5, 6))
        pooled = M.pool_tokens(T.tensor(top), 4).data
        for b in range(4):
            one = top[5 * b:5 * (b + 1)]
            assert np.array_equal(M.pool_tokens(T.tensor(one), 1).data[0], pooled[b])
            assert np.allclose(pooled[b], one.max(axis=0) + one.mean(axis=0), rtol=0, atol=1e-15)


class TestEndToEndGradients:
    def test_pretrain_loss_matches_finite_differences(self):
        cfg = SMALL
        m = M.Model.init(cfg, seed=7, dtype=np.float64)
        pts = cloud(24)
        mask_seed = 11

        def loss_value():
            return float(M.forward_pretrain_batch(m.params, cfg, [pts],
                                                  [np.random.default_rng(mask_seed)]).data)

        with T.Tape() as tape:
            loss = M.forward_pretrain_batch(m.params, cfg, [pts], [np.random.default_rng(mask_seed)])
        names = list(M.param_shapes(cfg))
        grads = dict(zip(names, tape.gradients(loss, [m.params[n] for n in names])))
        rng = np.random.default_rng(25)
        checked = 0
        h = 1e-6
        while checked < 100:
            name = names[int(rng.integers(len(names)))]
            flat = m.params[name].data.reshape(-1)
            j = int(rng.integers(flat.size))
            keep = flat[j]
            flat[j] = keep + h
            up = loss_value()
            flat[j] = keep - h
            down = loss_value()
            flat[j] = keep
            fd = (up - down) / (2 * h)
            ad = grads[name].reshape(-1)[j]
            assert abs(ad - fd) <= 1e-3 * max(1.0, abs(fd)), \
                f"{name}[{j}]: ad {ad:.6e} vs fd {fd:.6e}"
            checked += 1

    def test_every_parameter_reaches_the_pretraining_loss(self):
        # a parameter the loss cannot reach gets only round-off, which AdamW
        # still turns into steps as large as the learning rate
        rc = load_run_config("desk")
        clouds = [r.points for r in make_records(dataclasses.replace(rc.data, total=5))[:4]]
        m = M.Model.init(rc.model, seed=7, dtype=np.float64)
        with T.Tape() as tape:
            loss = M.forward_pretrain_batch(m.params, rc.model, clouds,
                                            [np.random.default_rng(i) for i in range(4)])
        names = list(M.param_shapes(rc.model))
        grads = tape.gradients(loss, [m.params[n] for n in names])
        norm = np.sqrt(sum((g * g).sum() for g in grads))
        dead = [n for n, g in zip(names, grads) if np.abs(g).max() <= 1e-9 * norm]
        assert dead == []


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        m = M.Model.init(SMALL, seed=0)
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, m.params)
        cfg, params, opt, aux = load_checkpoint(path)
        assert cfg == SMALL
        assert opt is None and aux is None
        for n in m.params:
            assert np.array_equal(params[n].data, m.params[n].data)
            assert params[n].data.dtype == np.float32

    def test_optimizer_and_aux_round_trip(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        m = M.Model.init(SMALL, seed=0)
        rng = np.random.default_rng(0)
        moments = {
            "step": 77, "epoch": 3,
            "m": {n: rng.normal(size=p.data.shape).astype(np.float32) for n, p in m.params.items()},
            "v": {n: rng.random(p.data.shape).astype(np.float32) for n, p in m.params.items()},
        }
        aux = {"head.w": rng.normal(size=(128, 5)).astype(np.float32)}
        path = tmp_path / "train.pm2a"
        save_checkpoint(path, SMALL, m.params, optimizer=moments, aux=aux)
        _, _, opt, aux2 = load_checkpoint(path)
        assert opt["step"] == 77 and opt["epoch"] == 3
        for n in moments["m"]:
            assert np.array_equal(opt["m"][n], moments["m"][n])
            assert np.array_equal(opt["v"][n], moments["v"][n])
        assert np.array_equal(aux2["head.w"], aux["head.w"])

    def test_bad_magic(self, tmp_path):
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "junk.pm2a"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert "magic" in str(exc.value)

    def test_truncation_names_offset(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        m = M.Model.init(SMALL, seed=0)
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, m.params)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert "byte" in str(exc.value)

    def first_record(self, tmp_path):
        """A SMALL checkpoint's path and bytes, and the byte offset of its
        first record's name (embed.mlp1.w0, rank 2)."""
        from msmae.checkpoint import save_checkpoint
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        blob = path.read_bytes()
        return path, blob, 10 + int.from_bytes(blob[6:10], "little") + 4 + 2

    def test_huge_extents_name_the_truncation_offset(self, tmp_path):
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        path, blob, name = self.first_record(tmp_path)
        rank = name + len(b"embed.mlp1.w0")
        # three extents of 2**31: 2**93 items, which an int64 product wraps to 0
        path.write_bytes(blob[:rank] + bytes([3]) + (2 ** 31).to_bytes(4, "little") * 3 + blob[rank + 9:])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert f"embed.mlp1.w0 payload at byte {rank + 13}" in str(exc.value)

    def test_rank_beyond_numpy_names_its_offset(self, tmp_path):
        # 65 unit extents: a one-item payload that no numpy array can take the shape of
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        path, blob, name = self.first_record(tmp_path)
        rank = name + len(b"embed.mlp1.w0")
        path.write_bytes(blob[:rank] + bytes([65]) + (1).to_bytes(4, "little") * 65 + blob[rank + 9:])
        with pytest.raises(ParseError, match=f"embed.mlp1.w0 rank 65 at byte {rank} exceeds"):
            load_checkpoint(path)

    def test_undecodable_name_names_offset(self, tmp_path):
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        path, blob, name = self.first_record(tmp_path)
        path.write_bytes(blob[:name + 3] + b"\xff" + blob[name + 4:])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert f"parameter record 0 name is not UTF-8 at byte {name + 3}" in str(exc.value)

    def test_header_truncation_names_field_offset(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        blob = path.read_bytes()
        text_len = int.from_bytes(blob[6:10], "little")
        fields = {"version": (4, 2), "config length": (6, 4), "parameter count": (10 + text_len, 4),
                  "optimizer flag": (len(blob) - 2, 1), "aux flag": (len(blob) - 1, 1)}
        for what, (off, size) in fields.items():
            # the file ends where the field starts, or one byte short of its end
            for end in {off, off + size - 1}:
                path.write_bytes(blob[:end])
                with pytest.raises(ParseError) as exc:
                    load_checkpoint(path)
                assert f"truncated while reading {what} at byte {off} " in str(exc.value), (what, end)

    def test_config_mismatch_detected(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        m = M.Model.init(SMALL, seed=0)
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, m.params)
        blob = bytearray(path.read_bytes())
        # corrupt the stored first-scale width 32 -> 48 inside the config text
        text_start = blob.index(b"dims = 32,64,128")
        blob[text_start:text_start + len(b"dims = 32,64,128")] = b"dims = 48,64,128"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_bad_config_value_names_its_byte(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        set_config_line(path, b"heads", b"x")
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert "config text at byte 10: bad value for model.heads: expected int, got 'x'" in str(exc.value)

    def test_missing_config_key_named(self, tmp_path):
        # a default would quietly turn local attention back on
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        cfg = dataclasses.replace(SMALL, local_attention=False)
        save_checkpoint(path, cfg, M.Model.init(cfg, seed=0).params)
        edit_config_text(path, lambda lines: [line for line in lines
                                              if not line.startswith(b"local_attention = ")])
        with pytest.raises(ParseError, match=r"config text at byte 10 has no value for \['local_attention'\]"):
            load_checkpoint(path)

    def test_repeated_config_key_named(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        edit_config_text(path, lambda lines: [*lines, b"heads = 4"])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert "config text at byte 10" in str(exc.value)
        assert "option 'heads' in section 'model' already exists" in str(exc.value)

    @pytest.mark.parametrize("lines, named", [
        ([b"[DEFAULT]", b"heads = 4"], "unknown option DEFAULT.heads"),   # not folded into [model]
        ([b"wings = 2"], "unknown option model.wings"),
        ([b"Heads = 4"], "unknown option model.Heads"),                   # keys keep their case
        ([b"[model]"], "section 'model' already exists"),
    ])
    def test_config_text_outside_the_model_keys_refused(self, tmp_path, lines, named):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        edit_config_text(path, lambda text: [*text, *lines])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert "config text at byte 10" in str(exc.value) and named in str(exc.value)

    def test_lowercase_bools_in_config_text(self, tmp_path):
        # true and false only: version 1's True and False are refused
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.errors import ParseError
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        set_config_line(path, b"local_attention", b"false")
        cfg, _, _, _ = load_checkpoint(path)
        assert cfg.local_attention is False and cfg == dataclasses.replace(SMALL, local_attention=False)
        set_config_line(path, b"multi_scale_mask", b"True")
        with pytest.raises(ParseError, match="bad value for model.multi_scale_mask: expected true or false"):
            load_checkpoint(path)

    def test_float64_params_rejected(self, tmp_path):
        from msmae.checkpoint import save_checkpoint
        from msmae.errors import ContractError
        m = M.Model.init(SMALL, seed=0, dtype=np.float64)
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "m.pm2a", SMALL, m.params)

    def test_repeated_record_name_refused(self, tmp_path):
        # a parameter table of N+1 records whose first name repeats: the later
        # record must not silently win
        from msmae.checkpoint import load_checkpoint
        from msmae.errors import ParseError
        path, blob, name = self.first_record(tmp_path)
        count, first = name - 6, name - 2
        size = 2 + len(b"embed.mlp1.w0") + 1 + 2 * 4 + 4 * 3 * 16
        n = int.from_bytes(blob[count:first], "little")
        path.write_bytes(blob[:count] + (n + 1).to_bytes(4, "little") + blob[first:first + size]
                         + blob[first:])
        with pytest.raises(ParseError, match=f"parameter record 1 at byte {first + size} "
                                             "repeats the name 'embed.mlp1.w0'"):
            load_checkpoint(path)

    def test_file_that_shrinks_while_read_is_refused(self, tmp_path, monkeypatch):
        # the size is taken once, at open; a payload read that then comes up
        # short must not leave part of an array unread
        from msmae import checkpoint
        from msmae.errors import ParseError
        path, blob, name = self.first_record(tmp_path)
        payload = name + len(b"embed.mlp1.w0") + 1 + 2 * 4
        short = tmp_path / "short.pm2a"
        short.write_bytes(blob[:payload + 100])

        class Shrunk:
            """The full file's size, the shortened file's bytes."""

            def __init__(self):
                self.full, self.fh = open(path, "rb"), open(short, "rb")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.full.close()
                self.fh.close()

            def fileno(self):
                return self.full.fileno()

            def read(self, n):
                return self.fh.read(n)

            def readinto(self, buf):
                return self.fh.readinto(buf)

        monkeypatch.setattr(checkpoint, "open", lambda *a, **kw: Shrunk(), raising=False)
        with pytest.raises(ParseError, match=f"read 100 of 192 bytes of embed.mlp1.w0 payload at byte {payload}"):
            checkpoint.load_checkpoint(path)

    def test_failed_save_leaves_no_tmp(self, tmp_path, monkeypatch):
        import errno

        from msmae import checkpoint
        path = tmp_path / "model.pm2a"
        checkpoint.save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        before = path.read_bytes()

        class DiskFull:
            """A file that takes 1,000 bytes, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh, self.room = fh, 1000

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                raw = bytes(chunk)
                self.fh.write(raw[:self.room])
                if len(raw) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(raw)

        monkeypatch.setattr(checkpoint, "open", lambda *a, **kw: DiskFull(open(*a, **kw)), raising=False)
        with pytest.raises(OSError) as exc:
            checkpoint.save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=1).params)
        assert exc.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.pm2a"]

    def test_load_and_save_hold_no_copy(self, tmp_path):
        # a save writes the caller's arrays without copying them; a load
        # holds, at its peak, the arrays it returns and little else. What it
        # returns besides their bytes (array headers, names, dicts) is held
        # to 512 bytes a record.
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        rc = load_run_config(None)
        params = M.Model.init(rc.model, seed=0).params
        rng = np.random.default_rng(0)
        moments = {"step": 12, "epoch": 1,
                   "m": {n: rng.normal(size=p.shape).astype(np.float32) for n, p in params.items()},
                   "v": {n: rng.random(p.shape).astype(np.float32) for n, p in params.items()}}
        aux = {"head.w": rng.normal(size=(128, 5)).astype(np.float32),
               "run.digest": np.arange(16, dtype=np.float32)}
        path, slack = tmp_path / "train.pm2a", 64 * 1024
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            save_checkpoint(path, rc.model, params, optimizer=moments, aux=aux)
            save_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            _, loaded, opt, aux2 = load_checkpoint(path)
            kept, load_peak = (n - held for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        arrays = [*(p.data for p in loaded.values()), *opt["m"].values(), *opt["v"].values(), *aux2.values()]
        returned = sum(a.nbytes for a in arrays)
        assert returned == 3 * sum(p.data.nbytes for p in params.values()) + (128 * 5 + 16) * 4
        assert save_peak <= slack, save_peak
        assert kept <= returned + 512 * len(arrays), (kept, returned)
        assert load_peak <= kept + slack, (load_peak, kept)


class TestPacking:
    """A packed batch is the mean of its clouds run one at a time."""

    def configs(self):
        base = SMALL.__dict__
        yield SMALL
        for flag in ("local_attention", "hierarchical_encoder", "hierarchical_decoder",
                     "skip_connections"):
            yield M.ModelConfig(**{**base, flag: False})

    def test_packed_loss_and_gradients_match_single_clouds(self):
        clouds = [cloud(40 + s) for s in range(5)]
        visible = M.hierarchy(SMALL, clouds, [np.random.default_rng(50 + s) for s in range(5)])[1]
        # the batch must exercise padding: visible counts differ per scale
        for i in (0, 1):
            assert len(set(visible.visible[i].sum(axis=1).tolist())) > 1
        for cfg in self.configs():
            m = M.Model.init(cfg, seed=2, dtype=np.float64)
            names = list(M.param_shapes(cfg))
            wrt = [m.params[n] for n in names]
            losses, grads = [], []
            for s, c in enumerate(clouds):
                with T.Tape() as tape:
                    loss = M.forward_pretrain_batch(m.params, cfg, [c], [np.random.default_rng(50 + s)])
                losses.append(float(loss.data))
                grads.append(tape.gradients(loss, wrt))
            with T.Tape() as tape:
                loss = M.forward_pretrain_batch(m.params, cfg, clouds,
                                                [np.random.default_rng(50 + s) for s in range(5)])
            packed = tape.gradients(loss, wrt)
            want_loss = np.mean(losses)
            assert abs(float(loss.data) - want_loss) <= 1e-9 * want_loss
            want = [sum(g) / len(clouds) for g in zip(*grads)]
            # relative to the largest gradient entry: some gradients (the key
            # biases, which softmax cancels) are exactly zero up to rounding
            scale = max(np.abs(w).max() for w in want)
            for name, got, w in zip(names, packed, want):
                assert np.abs(got - w).max() <= 1e-9 * scale, name


    def test_padded_block_matches_each_set_alone(self):
        # a padded packed block over sets of three sizes, with a radius mask,
        # is each set run alone as Padding(1, n_b) with its own adjacency
        r = np.random.default_rng(60)
        sizes = [7, 3, 5]
        coords = [r.normal(size=(n, 3)) * 0.5 for n in sizes]
        visible = np.arange(7) < np.array(sizes)[:, None]  # a stack whose first seeds are visible
        seeds = np.zeros((3, 7, 3))
        seeds[visible] = np.concatenate(coords)
        pad = T.Padding.of(sizes)
        allow = M._encoder_allow(seeds, visible, 0.9, pad, True)
        m = M.Model.init(SMALL, seed=3, dtype=np.float64)
        names = [n for n in M.param_shapes(SMALL) if n.startswith("enc1.")]
        params = [m.params[n] for n in names]
        x0, w = r.normal(size=(2, sum(sizes), 32))
        starts = np.cumsum([0] + sizes)

        def run(rows, coords, allow, pad):
            feats = T.tensor(x0[rows], requires_grad=True)
            with T.Tape() as tape:
                pos = M._pos_encoding(m.params, "enc1.pos", coords, np.float64)
                out = M.encoder_block(m.params, "enc1.blk1", feats, pos, allow, SMALL.heads, pad)
                loss = T.reduce_sum(T.mul(out, w[rows]))
            return out.data, tape.gradients(loss, [feats] + params)

        out, grads = run(slice(None), np.concatenate(coords), allow, pad)
        alone = [run(slice(starts[b], starts[b + 1]), coords[b],
                     M._encoder_allow(seeds[b:b + 1, :n], visible[b:b + 1, :n], 0.9, T.Padding(1, n), True),
                     T.Padding(1, n)) for b, n in enumerate(sizes)]
        want_out = np.concatenate([o for o, _ in alone])
        want = [np.concatenate([g[0] for _, g in alone])]
        want += [sum(g[j] for _, g in alone) for j in range(1, len(params) + 1)]
        assert np.abs(out - want_out).max() <= 1e-9 * np.abs(want_out).max()
        scale = max(np.abs(g).max() for g in want)
        for name, got, g in zip(["feats"] + names, grads, want):
            assert np.abs(got - g).max() <= 1e-9 * scale, name


class TestTapeMemory:
    def test_desk_batch_tape_holds_at_most_14_mib(self):
        # tracemalloc bytes repeat exactly across processes; this tape once held 23.3 MiB,
        # with every MLP's hidden activations on it, and 10.3 MiB in 160 nodes with
        # every attention layer's probabilities on it. The name keeps the 14 MiB
        # bound the test started with; the bound is now 9 MiB and 92 nodes.
        rc = load_run_config(None)
        records = make_records(dataclasses.replace(rc.data, total=32))
        model = M.Model.init(rc.model, seed=0)
        index = M.hierarchy_index(rc.model, [r.points for r in records])
        clouds = [augment(r.points, derive_rng(0, "augment", 0, i)) for i, r in enumerate(records)]
        rngs = [derive_rng(0, "mask", 0, i) for i in range(len(records))]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with T.Tape() as tape:  # kept referenced, so its nodes stay alive
                loss = M.forward_pretrain_batch(model.params, rc.model, clouds, rngs, index)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(records) == 32 and math.isfinite(float(loss.data))
        assert held <= 9 * 2 ** 20, f"the tape holds {held / 2 ** 20:.2f} MiB after the forward"
        assert len(tape._nodes) <= 92


class TestBatchedHierarchy:
    """hierarchy over a batch is one-cloud hierarchy calls, cloud by cloud."""

    def test_matches_one_cloud_calls(self):
        clouds = [np.round(cloud(70 + s), 1) for s in range(6)]
        independent = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        for cfg in (SMALL, independent):
            repr, masks = M.hierarchy(cfg, clouds, [np.random.default_rng(80 + s) for s in range(6)])
            assert repr.input_points.shape[0] == 6
            assert [v.shape for v in masks.visible] == [(6, n) for n in cfg.counts]
            for s, c in enumerate(clouds):
                one, mask = M.hierarchy(cfg, [c], [np.random.default_rng(80 + s)])
                for i in range(cfg.num_scales):
                    assert np.array_equal(repr.seeds[i][s], one.seeds[i][0])
                    assert np.array_equal(repr.neighbor_index[i][s], one.neighbor_index[i][0])
                    assert np.array_equal(masks.visible[i][s], mask.visible[i][0])

    def test_mixed_point_counts_rejected(self):
        with pytest.raises(ContractError):
            M.hierarchy(SMALL, [cloud(1), cloud(2, n=130)])
        with pytest.raises(ContractError):
            M.hierarchy(SMALL, [cloud(1), cloud(2)], [np.random.default_rng(0)])

    def test_extract_features_matches_global_feature(self):
        m = M.Model.init(SMALL, seed=4)
        records = [DatasetRecord(points=cloud(90 + s), label=0, id=str(s))
                   for s in range(HIERARCHY_CHUNK + 3)]  # two chunks, the last one short
        feats = extract_features(m, records)
        for rec, f in zip(records, feats):
            assert np.array_equal(f, m.global_feature(rec.points).data)
