"""Model structure, locality, invariance, and gradient tests."""

import numpy as np
import pytest

from msmae import model as M
from msmae import tensor as T
from msmae.data import DatasetRecord
from msmae.errors import ConfigError, ContractError, InvariantError
from msmae.geometry import radius_mask
from msmae.evaluate import HIERARCHY_CHUNK, extract_features
from msmae.masking import build_scales, independent_masks

SMALL = M.ModelConfig(num_points=128, counts=(64, 32, 8), dims=(32, 64, 128),
                      radii=(0.32, 0.64, 1.28), ks=(16, 8, 8),
                      encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=4)


def cloud(seed, n=128, spread=0.6):
    return np.random.default_rng(seed).normal(size=(n, 3)) * spread


def set_config_line(path, key, value):
    """Rewrite the `key=` line of a checkpoint's config text to `key=value`."""
    blob = path.read_bytes()
    size = int.from_bytes(blob[6:10], "little")
    lines = [key + b"=" + value if line.startswith(key + b"=") else line
             for line in blob[10:10 + size].split(b"\n")]
    text = b"\n".join(lines)
    path.write_bytes(blob[:6] + len(text).to_bytes(4, "little") + text + blob[10 + size:])


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
            dict(num_points=512),                                       # input not above scale 1
            dict(mask_ratio=1.5),
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


class TestParams:
    def test_count_is_pure_function_of_config(self):
        assert M.param_count(SMALL) == M.param_count(SMALL)
        # golden regression for the full-size default configuration
        assert M.param_count(M.ModelConfig()) == 14715000

    def test_ablations_change_count_as_documented(self):
        base = M.param_count(SMALL)
        no_skip = M.param_count(M.ModelConfig(**{**SMALL.__dict__, "skip_connections": False}))
        # removing skip fusion drops exactly the 2C->C linear at stage 2
        c2 = SMALL.dims[1]
        assert base - no_skip == 2 * c2 * c2 + c2
        flat_enc = M.ModelConfig(**{**SMALL.__dict__, "hierarchical_encoder": False})
        # same number of blocks overall, but all at C_1: fewer weights
        assert M.param_count(flat_enc) < base
        # local attention only changes masks, never the parameter table
        no_local = M.ModelConfig(**{**SMALL.__dict__, "local_attention": False})
        assert M.param_count(no_local) == base

    def test_init_deterministic_and_finite(self):
        a = M.init_params(SMALL, seed=3)
        b = M.init_params(SMALL, seed=3)
        for n in a:
            assert np.array_equal(a[n].data, b[n].data)
            assert np.isfinite(a[n].data).all()
        c = M.init_params(SMALL, seed=4)
        assert not np.array_equal(a["embed.mlp1.w0"].data, c["embed.mlp1.w0"].data)

    def test_init_rules(self):
        p = M.init_params(SMALL, seed=0)
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
        a, _, _ = M.encode(m.params, SMALL, pts, mask_ratio=0.0)
        b, _, _ = M.encode(m.params, SMALL, pts + np.array([5.0, -3.0, 2.0]), mask_ratio=0.0)
        # embedding sees relative coordinates only; attention sees absolute
        # positions, so compare the embedding layer output directly
        repr_a = build_scales(pts, list(SMALL.counts), list(SMALL.ks))
        shifted = pts + np.array([5.0, -3.0, 2.0])
        repr_b = build_scales(shifted, list(SMALL.counts), list(SMALL.ks))
        from msmae.masking import MaskAssignment
        all_vis = MaskAssignment(visible=[np.ones(c, dtype=bool) for c in SMALL.counts])
        ea = M.embed_tokens(m.params, SMALL, [repr_a], [all_vis])
        eb = M.embed_tokens(m.params, SMALL, [repr_b], [all_vis])
        assert np.abs(ea.data - eb.data).max() < 1e-5

    def test_degenerate_neighborhood(self):
        # all neighbors on the seed -> relative coords zero -> constant row
        m = M.Model.init(SMALL, seed=0)
        pts = np.zeros((4, 3))

        class FakeRepr:
            input_points = pts
            seeds = [np.zeros((2, 3))]
            neighbor_index = [np.array([[0, 1], [2, 3]])]
            parent_points = [pts]

        from msmae.masking import MaskAssignment
        out = M.embed_tokens(m.params, SMALL, [FakeRepr], [MaskAssignment(visible=[np.ones(2, bool)])])
        assert np.abs(out.data[0] - out.data[1]).max() == 0.0


class TestMerge:
    def test_neighbor_order_irrelevant(self):
        m = M.Model.init(SMALL, seed=0)
        pts = cloud(2)
        repr = build_scales(pts, list(SMALL.counts), list(SMALL.ks))
        from msmae.masking import MaskAssignment
        assignment = MaskAssignment(visible=[np.ones(c, dtype=bool) for c in SMALL.counts])
        feats = M.embed_tokens(m.params, SMALL, [repr], [assignment])
        out1 = M.merge_tokens(m.params, SMALL, [repr], [assignment], 2, feats)
        repr.neighbor_index[1] = repr.neighbor_index[1][:, ::-1].copy()
        out2 = M.merge_tokens(m.params, SMALL, [repr], [assignment], 2, feats)
        assert np.array_equal(out1.data, out2.data)

    def test_masked_neighbor_is_invariant_violation(self):
        m = M.Model.init(SMALL, seed=0)
        pts = cloud(3)
        repr = build_scales(pts, list(SMALL.counts), list(SMALL.ks))
        vis = [np.ones(c, dtype=bool) for c in SMALL.counts]
        needed = repr.neighbor_index[1][0, 0]
        vis[0][needed] = False  # hide a token scale 2 seed 0 requires
        from msmae.masking import MaskAssignment
        assignment = MaskAssignment(visible=vis)
        feats_vis = M.embed_tokens(m.params, SMALL, [repr], [assignment])
        with pytest.raises(InvariantError):
            M.merge_tokens(m.params, SMALL, [repr], [assignment], 2, feats_vis)

    def test_inconsistent_ablation_masks_break_encoding(self):
        m = M.Model.init(SMALL, seed=0)
        cfg = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        with pytest.raises(InvariantError):
            M.encode(m.params, cfg, cloud(4), rng=np.random.default_rng(0))


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
                                       M.Padding(1, n), return_attn=True)
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
                                radius_mask(coords, diameter * 1.01)[None], SMALL.heads, M.Padding(1, 10))
        dense = M.encoder_block(m.params, "enc1.blk1", feats, pos,
                                np.ones((1, 10, 10), dtype=bool), SMALL.heads, M.Padding(1, 10))
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
        a = M.encoder_block(m.params, "enc1.blk1", T.tensor(base), pos, allow[None], 4, M.Padding(1, 10))
        b = M.encoder_block(m.params, "enc1.blk1", T.tensor(bumped), pos, allow[None], 4, M.Padding(1, 10))
        assert np.array_equal(a.data[:5], b.data[:5])
        assert not np.array_equal(a.data[5:], b.data[5:])

    def test_output_shape_matches_input(self):
        m = M.Model.init(SMALL, seed=0)
        feats = T.tensor(np.random.default_rng(8).normal(size=(6, 32)).astype(np.float32))
        coords = np.random.default_rng(9).normal(size=(6, 3))
        out = M.encoder_block(m.params, "enc1.blk1", feats, None,
                              np.ones((6, 6), bool)[None], 4, M.Padding(1, 6))
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
        tokens, _, _ = M.encode(m.params, SMALL, cloud(11), mask_ratio=0.0)
        assert [t.shape[0] for t in tokens] == [64, 32, 8]

    def test_too_few_points_rejected(self):
        m = M.Model.init(SMALL, seed=0)
        with pytest.raises(ContractError):
            M.encode(m.params, SMALL, cloud(12, n=100), mask_ratio=0.0)

    def test_masking_requires_rng(self):
        m = M.Model.init(SMALL, seed=0)
        with pytest.raises(ContractError):
            M.encode(m.params, SMALL, cloud(13))

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
            gt = repr.parent_points[1][repr.neighbor_index[1][mi]] - repr.seeds[1][mi]
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
        tokens, repr, assignment = M.encode(m.params, SMALL, cloud(17), mask_ratio=0.0)
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
        ids = np.zeros(1, dtype=np.int64)
        pooled = T.add(T.segment_max(x, ids, 1), T.segment_mean(x, ids, 1))
        assert np.allclose(pooled.data, 2 * x.data)


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
        text_start = blob.index(b"dims=32,64,128")
        blob[text_start:text_start + len(b"dims=32,64,128")] = b"dims=48,64,128"
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
        assert f"byte {path.read_bytes().index(b'heads=x')}" in str(exc.value)

    def test_lowercase_bools_in_config_text(self, tmp_path):
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        path = tmp_path / "model.pm2a"
        save_checkpoint(path, SMALL, M.Model.init(SMALL, seed=0).params)
        set_config_line(path, b"local_attention", b"true")
        set_config_line(path, b"multi_scale_mask", b"True")
        cfg, _, _, _ = load_checkpoint(path)
        assert cfg.local_attention is True and cfg.multi_scale_mask is True
        assert cfg == SMALL

    def test_float64_params_rejected(self, tmp_path):
        from msmae.checkpoint import save_checkpoint
        from msmae.errors import ContractError
        m = M.Model.init(SMALL, seed=0, dtype=np.float64)
        with pytest.raises(ContractError):
            save_checkpoint(tmp_path / "m.pm2a", SMALL, m.params)


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
            assert len({a.num_visible(i) for a in visible}) > 1
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


class TestBatchedHierarchy:
    """hierarchy over a batch is one-cloud hierarchy calls, cloud by cloud."""

    def test_matches_one_cloud_calls(self):
        clouds = [np.round(cloud(70 + s), 1) for s in range(6)]
        independent = M.ModelConfig(**{**SMALL.__dict__, "multi_scale_mask": False})
        for cfg in (SMALL, independent):
            reprs, masks = M.hierarchy(cfg, clouds, [np.random.default_rng(80 + s) for s in range(6)])
            assert len(reprs) == len(masks) == 6
            for s, c in enumerate(clouds):
                (one,), (mask,) = M.hierarchy(cfg, [c], [np.random.default_rng(80 + s)])
                for i in range(cfg.num_scales):
                    assert np.array_equal(reprs[s].seeds[i], one.seeds[i])
                    assert np.array_equal(reprs[s].neighbor_index[i], one.neighbor_index[i])
                    assert np.array_equal(masks[s].visible[i], mask.visible[i])

    def test_mixed_point_counts_rejected(self):
        with pytest.raises(ContractError):
            M.hierarchy(SMALL, [cloud(1), cloud(2, n=130)], mask_ratio=0.0)
        with pytest.raises(ContractError):
            M.hierarchy(SMALL, [cloud(1), cloud(2)], [np.random.default_rng(0)])

    def test_extract_features_matches_global_feature(self):
        m = M.Model.init(SMALL, seed=4)
        records = [DatasetRecord(points=cloud(90 + s), label=0, id=str(s))
                   for s in range(HIERARCHY_CHUNK + 3)]  # two chunks, the last one short
        feats = extract_features(m, records)
        for rec, f in zip(records, feats):
            assert np.array_equal(f, m.global_feature(rec.points).data)
