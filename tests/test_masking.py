"""Mask construction and cross-scale consistency tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmae import masking as M
from msmae.errors import ConfigError, ContractError


def cloud(seed, n=128):
    return np.random.default_rng(seed).normal(size=(n, 3))


def assert_same_repr(got, want):
    assert np.array_equal(got.input_points, want.input_points)
    for name in ("seeds", "neighbor_index"):
        assert len(getattr(got, name)) == len(getattr(want, name))
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert a.shape == b.shape and np.array_equal(a, b), name


class TestBuildScales:
    def test_shapes_and_subset(self):
        pts = cloud(0, 200)
        repr = M.build_scales(pts, [64, 16, 4], [8, 4, 4])
        assert [s.shape[0] for s in repr.seeds] == [64, 16, 4]
        assert [t.shape for t in repr.neighbor_index] == [(64, 8), (16, 4), (4, 4)]
        # seeds are actual parent points, FPS never invents coordinates
        for i in range(3):
            parent = repr.input_points if i == 0 else repr.seeds[i - 1]
            for s in repr.seeds[i]:
                assert (parent == s).all(axis=1).any()

    def test_neighbor_indices_valid(self):
        pts = cloud(1, 100)
        repr = M.build_scales(pts, [32, 8], [6, 3])
        assert repr.neighbor_index[0].max() < 100
        assert repr.neighbor_index[1].max() < 32

    def test_monotonicity_enforced(self):
        # ModelConfig.validate owns the rule; a cloud too small for the
        # counts still fails in fps, as a contract error
        pts = cloud(2, 50)
        with pytest.raises(ContractError):
            M.build_scales(pts, [60, 10], [4, 4])  # cloud smaller than counts[0]
        with pytest.raises(ContractError):
            M.build_scales(pts, [20, 25], [4, 4])
        with pytest.raises(ContractError):
            M.build_scales(pts, [20, 0], [4, 4])

    def test_k_bound_enforced(self):
        pts = cloud(3, 50)
        with pytest.raises(ContractError):
            M.build_scales(pts, [20, 10], [4, 21])

    def test_stack_equals_one_cloud_calls(self):
        rng = np.random.default_rng(60)
        stack = np.round(rng.normal(size=(6, 90, 3)), 1)
        stack[:, 60:] = stack[:, :30]  # duplicated points
        stacked = M.build_scales(stack, [30, 10, 4], [5, 4, 3])
        assert stacked.input_points.shape == (6, 90, 3)
        assert [s.shape for s in stacked.seeds] == [(6, 30, 3), (6, 10, 3), (6, 4, 3)]
        for b in range(6):
            one = M.build_scales(stack[b], [30, 10, 4], [5, 4, 3])
            assert_same_repr(stacked[b], one)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ContractError):
            M.build_scales([cloud(5, 50), cloud(6, 60)], [20, 5], [4, 3])

    def test_index_takes_the_narrowest_unsigned_dtype(self):
        for n, dtype in ((256, np.uint8), (257, np.uint16)):
            index = M.build_index(cloud(7, n), [20, 5], [4, 3])
            assert [p.dtype for p in index.picks + index.neighbor_index] == [dtype] * 4, n
            assert M.build_scales(cloud(7, n), [20, 5], [4, 3]).neighbor_index[0].dtype == np.intp


class TestSampleVisible:
    def test_exact_floor_count(self):
        rng = np.random.default_rng(0)
        vis = M.sample_visible(64, 0.8, rng)
        assert vis.sum() == 64 - int(np.floor(0.8 * 64))
        assert vis.sum() == 13

    def test_ratio_zero_all_visible(self):
        vis = M.sample_visible(10, 0.0, np.random.default_rng(0))
        assert vis.all()

    def test_zero_visible_rejected(self):
        with pytest.raises(ContractError):
            M.sample_visible(10, 1.0, np.random.default_rng(0))

    def test_ratio_range_checked(self):
        with pytest.raises(ConfigError):
            M.sample_visible(10, 1.5, np.random.default_rng(0))

    def test_seed_reproducible(self):
        a = M.sample_visible(64, 0.8, np.random.default_rng(7))
        b = M.sample_visible(64, 0.8, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestBackProject:
    def test_spec_example_two_scales(self):
        # scale-1 has 4 points, scale-2 rows {0,1} and {2,3}; seed 0 visible
        repr = M.MultiScaleRepr(
            input_points=np.zeros((8, 3)),
            seeds=[np.zeros((4, 3)), np.zeros((2, 3))],
            neighbor_index=[np.zeros((4, 2), dtype=np.int64),
                            np.array([[0, 1], [2, 3]], dtype=np.int64)],
        )
        out = M.back_project(repr, np.array([True, False]))
        assert np.array_equal(out.visible[0], np.array([True, True, False, False]))

    def test_all_visible_saturates(self):
        repr = M.build_scales(cloud(5, 120), [40, 12, 4], [6, 4, 3])
        out = M.back_project(repr, np.ones(4, dtype=bool))
        # every point appears in some neighborhood because knn covers seeds
        for i in range(3):
            assert out.visible[i].sum() >= 1
        assert out.visible[2].all()

    def test_none_visible_rejected(self):
        repr = M.build_scales(cloud(6, 60), [20, 5], [4, 3])
        with pytest.raises(ContractError):
            M.back_project(repr, np.zeros(5, dtype=bool))

    def test_closure_and_minimality_hold(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(96, 3))
            repr = M.build_scales(pts, [32, 12, 5], [5, 4, 3])
            vis = M.sample_visible(5, 0.6, rng)
            out = M.back_project(repr, vis)
            assert M.verify_consistency(repr, out) == []

    def test_visible_sets_nonempty_every_scale(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            repr = M.build_scales(rng.normal(size=(80, 3)), [24, 8, 4], [5, 3, 3])
            vis = np.zeros(4, dtype=bool)
            vis[int(rng.integers(0, 4))] = True
            out = M.back_project(repr, vis)
            for i in range(3):
                assert out.visible[i].any()

    def test_permutation_invariant_visible_coordinates(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(90, 3))
        perm = rng.permutation(90)
        counts, ks = [30, 10, 4], [5, 4, 3]
        ra = M.build_scales(pts, counts, ks)
        rb = M.build_scales(pts[perm], counts, ks)
        vis = M.sample_visible(4, 0.5, np.random.default_rng(42))
        # the same coarse visibility refers to the same coordinates in both
        # builds only if the seed order matches; map through coordinates
        order_a = np.lexsort(ra.seeds[-1].T[::-1])
        order_b = np.lexsort(rb.seeds[-1].T[::-1])
        vis_a = np.empty(4, dtype=bool)
        vis_b = np.empty(4, dtype=bool)
        vis_a[order_a] = vis
        vis_b[order_b] = vis
        out_a = M.back_project(ra, vis_a)
        out_b = M.back_project(rb, vis_b)
        for i in range(3):
            ca = ra.seeds[i][out_a.visible[i]]
            cb = rb.seeds[i][out_b.visible[i]]
            assert np.array_equal(np.sort(ca, axis=0), np.sort(cb, axis=0))

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_consistency_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 80))
        repr = M.build_scales(rng.normal(size=(n, 3)), [16, 6], [4, 3])
        vis = M.sample_visible(6, float(rng.uniform(0.0, 0.9)), rng)
        out = M.back_project(repr, vis)
        assert M.verify_consistency(repr, out) == []


class TestIndependentMasks:
    def test_ablation_detectably_violates_closure(self):
        violated = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            repr = M.build_scales(rng.normal(size=(128, 3)), [48, 16, 6], [6, 4, 3])
            out = M.independent_masks(repr, 0.6, rng)
            if M.verify_consistency(repr, out):
                violated += 1
        assert violated >= 24  # probability of an accidental match is tiny

    def test_counts_follow_ratio_per_scale(self):
        rng = np.random.default_rng(3)
        repr = M.build_scales(rng.normal(size=(100, 3)), [40, 10], [5, 4])
        out = M.independent_masks(repr, 0.5, rng)
        assert out.num_visible(0) == 20
        assert out.num_visible(1) == 5

    def test_visible_seeds_keep_a_visible_neighbor(self):
        hidden = 0
        for seed in range(25):
            repr = M.build_scales(cloud(seed), [48, 16, 6], [6, 4, 3])
            out = M.independent_masks(repr, 0.6, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)  # the same draws, before the rule
            drawn = [M.sample_visible(s.shape[0], 0.6, rng) for s in repr.seeds]
            assert np.array_equal(out.visible[0], drawn[0])
            for i in range(1, 3):
                has_neighbor = out.visible[i - 1][repr.neighbor_index[i]].any(axis=1)
                assert np.array_equal(out.visible[i], drawn[i] & has_neighbor)
                hidden += int((drawn[i] & ~has_neighbor).sum())
        assert hidden > 0  # the rule fired on these draws

    def test_no_scale_left_empty(self):
        # on this draw the neighbour rule alone hides every coarsest seed
        repr = M.build_scales(cloud(84), [64, 32, 8], [16, 8, 8])
        rng = np.random.default_rng(84)
        ruled = [M.sample_visible(s.shape[0], 0.8, rng) for s in repr.seeds]
        for i in (1, 2):
            ruled[i] &= ruled[i - 1][repr.neighbor_index[i]].any(axis=1)
        assert not ruled[2].any()
        out = M.independent_masks(repr, 0.8, np.random.default_rng(84))
        assert np.flatnonzero(out.visible[2]).tolist() == [0]
        seed = 0
        for i in (2, 1, 0):  # seed 0 and its chain of first neighbours below
            assert out.visible[i][seed]
            seed = repr.neighbor_index[i][seed, 0]
        for i in (1, 2):
            assert out.visible[i - 1][repr.neighbor_index[i][out.visible[i]]].any(axis=1).all()


class TestStacks:
    """Stacked hierarchies and masks are one-cloud calls, cloud by cloud."""

    COUNTS, KS = [64, 32, 8], [16, 8, 8]
    SEEDS = [84, 3, 11]  # cloud 84 takes the seed-0 chain (test_no_scale_left_empty)

    def test_index_round_trip(self):
        stack = np.stack([cloud(s) for s in self.SEEDS])
        stacked = M.build_scales(stack, self.COUNTS, self.KS)
        for b in range(len(self.SEEDS)):
            one = M.build_scales(stack[b], self.COUNTS, self.KS)
            assert_same_repr(stacked[b], one)
            assert_same_repr(one[None][0], one)
            assert_same_repr(stacked[b:b + 1][0], one)
        vis = M.back_project(stacked[0], np.ones(8, dtype=bool))
        assert all(np.array_equal(a, b) for a, b in zip(vis[None][0].visible, vis.visible))
        assert [v.shape for v in vis[None].visible] == [(1, 64), (1, 32), (1, 8)]

    def test_not_iterable(self):
        stacked = M.build_scales(np.stack([cloud(s) for s in self.SEEDS]), self.COUNTS, self.KS)
        mask = M.back_project(stacked, np.ones((len(self.SEEDS), 8), dtype=bool))
        for obj in (stacked, stacked[0], mask, mask[0]):
            with pytest.raises(TypeError):
                iter(obj)

    def test_masks_on_a_stack_equal_one_cloud_masks(self):
        stacked = M.build_scales(np.stack([cloud(s) for s in self.SEEDS]), self.COUNTS, self.KS)
        coarse = np.stack([M.sample_visible(8, r, np.random.default_rng(s))
                           for s, r in zip(self.SEEDS, (0.8, 0.0, 0.5))])
        projected = M.back_project(stacked, coarse)
        independent = M.independent_masks(stacked, 0.8, [np.random.default_rng(s) for s in self.SEEDS])
        chained = []
        for b, s in enumerate(self.SEEDS):
            one = stacked[b]
            for got, want in ((projected[b], M.back_project(one, coarse[b])),
                              (independent[b], M.independent_masks(one, 0.8, np.random.default_rng(s)))):
                assert len(got.visible) == len(want.visible) == 3
                for g, w in zip(got.visible, want.visible):
                    assert g.dtype == w.dtype == bool and np.array_equal(g, w)
            rng = np.random.default_rng(s)  # the neighbour rule alone, without the chain
            ruled = [M.sample_visible(n, 0.8, rng) for n in self.COUNTS]
            for i in (1, 2):
                ruled[i] &= ruled[i - 1][one.neighbor_index[i]].any(axis=1)
            chained.append(not all(r.any() for r in ruled))
        assert chained == [True, False, False]  # an emptied scale beside clouds without one
