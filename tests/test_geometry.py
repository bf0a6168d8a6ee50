"""Geometry tests against brute-force oracles.

The oracles reimplement selection with plain python loops and tuple
comparison, sharing no code with the library path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmae import geometry as G
from msmae import tensor as T
from msmae.errors import ContractError, ShapeError


def fps_oracle(pts, m):
    """Greedy farthest point sampling, python loops, tuple tie-breaks."""
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)

    def pick(score, banned):
        best = None
        for j in range(n):
            if j in banned:
                continue
            key = (-score[j], pts[j, 0], pts[j, 1], pts[j, 2], j)
            if best is None or key < best[0]:
                best = (key, j)
        return best[1]

    cent = pts.mean(axis=0)
    score = [float(((p - cent) ** 2).sum()) for p in pts]
    sel = [pick(score, set())]
    dmin = [float(((p - pts[sel[0]]) ** 2).sum()) for p in pts]
    while len(sel) < m:
        j = pick(dmin, set(sel))
        sel.append(j)
        for t in range(n):
            dmin[t] = min(dmin[t], float(((pts[t] - pts[j]) ** 2).sum()))
    return np.array(sel, dtype=np.int64)


def knn_oracle(query, source, k):
    query = np.asarray(query, dtype=np.float64)
    source = np.asarray(source, dtype=np.float64)
    out = []
    for q in query:
        keyed = sorted(
            range(len(source)),
            key=lambda j: (float(((q - source[j]) ** 2).sum()),
                           source[j, 0], source[j, 1], source[j, 2], j),
        )
        out.append(keyed[:k])
    return np.array(out, dtype=np.int64)


class TestFps:
    def test_matches_oracle_random(self):
        r = np.random.default_rng(100)
        for _ in range(40):
            n = int(r.integers(2, 40))
            m = int(r.integers(1, n + 1))
            pts = r.normal(size=(n, 3))
            assert np.array_equal(G.fps(pts, m), fps_oracle(pts, m))

    def test_matches_oracle_with_duplicates(self):
        r = np.random.default_rng(101)
        for _ in range(20):
            base = r.normal(size=(6, 3))
            pts = base[r.integers(0, 6, size=18)]  # many exact duplicates
            m = int(r.integers(1, 10))
            assert np.array_equal(G.fps(pts, m), fps_oracle(pts, m))

    def test_grid_ties(self):
        # symmetric square: every corner equidistant from the centroid
        pts = np.array([[1.0, 1, 0], [-1, 1, 0], [1, -1, 0], [-1, -1, 0]])
        sel = G.fps(pts, 4)
        assert np.array_equal(sel, fps_oracle(pts, 4))
        assert sel[0] == 3  # (-1,-1,0): smallest coordinate tuple among the tied corners

    def test_indices_distinct(self):
        r = np.random.default_rng(102)
        pts = r.normal(size=(30, 3))
        sel = G.fps(pts, 30)
        assert len(set(sel.tolist())) == 30

    def test_permutation_equivariant_coordinates(self):
        r = np.random.default_rng(103)
        pts = r.normal(size=(25, 3))
        perm = r.permutation(25)
        a = np.sort(pts[G.fps(pts, 9)], axis=0)
        b = np.sort(pts[perm][G.fps(pts[perm], 9)], axis=0)
        assert np.array_equal(a, b)

    def test_contracts(self):
        with pytest.raises(ContractError):
            G.fps(np.zeros((4, 3)), 5)
        with pytest.raises(ContractError):
            G.fps(np.zeros((4, 3)), 0)
        with pytest.raises(ShapeError):
            G.fps(np.zeros((4, 2)), 2)
        bad = np.zeros((4, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ContractError):
            G.fps(bad, 2)

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 20))
        m = int(r.integers(1, n + 1))
        # quantized coordinates provoke ties
        pts = np.round(r.normal(size=(n, 3)), 1)
        assert np.array_equal(G.fps(pts, m), fps_oracle(pts, m))


class TestKnn:
    def test_matches_oracle_random(self):
        r = np.random.default_rng(110)
        for _ in range(40):
            nq, ns = int(r.integers(1, 15)), int(r.integers(1, 30))
            k = int(r.integers(1, ns + 1))
            q, s = r.normal(size=(nq, 3)), r.normal(size=(ns, 3))
            assert np.array_equal(G.knn(q, s, k), knn_oracle(q, s, k))

    def test_matches_oracle_with_ties(self):
        r = np.random.default_rng(111)
        for _ in range(25):
            ns = int(r.integers(2, 12))
            s = np.round(r.normal(size=(ns, 3)), 0)  # heavy duplication
            q = np.round(r.normal(size=(4, 3)), 0)
            k = int(r.integers(1, ns + 1))
            assert np.array_equal(G.knn(q, s, k), knn_oracle(q, s, k))

    def test_self_query_nearest_is_self(self):
        r = np.random.default_rng(112)
        pts = r.normal(size=(20, 3))
        nn = G.knn(pts, pts, 1)
        assert np.array_equal(nn[:, 0], np.arange(20))

    def test_sorted_by_distance(self):
        r = np.random.default_rng(113)
        q, s = r.normal(size=(5, 3)), r.normal(size=(40, 3))
        idx = G.knn(q, s, 10)
        d = G.pairwise_sq_dists(q, s)
        picked = np.take_along_axis(d, idx, axis=1)
        assert (np.diff(picked, axis=1) >= 0).all()

    def test_neighbor_coordinates_permutation_invariant(self):
        r = np.random.default_rng(114)
        q, s = r.normal(size=(6, 3)), r.normal(size=(30, 3))
        perm = r.permutation(30)
        a = s[G.knn(q, s, 5)]
        b = s[perm][G.knn(q, s[perm], 5)]
        assert np.array_equal(a, b)

    def test_k_bounds(self):
        with pytest.raises(ContractError):
            G.knn(np.zeros((2, 3)), np.ones((3, 3)), 4)
        with pytest.raises(ContractError):
            G.knn(np.zeros((2, 3)), np.ones((3, 3)), 0)


def tie_heavy(r, b, n):
    """b clouds of n points on a coarse grid, about half of them duplicates."""
    pts = np.round(r.normal(size=(b, n, 3)), int(r.integers(0, 2)))
    dup = r.random((b, n)) < 0.5
    src = r.integers(0, n, size=(b, n))
    pts[dup] = np.take_along_axis(pts, src[..., None], axis=1)[dup]
    return pts


class TestStacked:
    """A (B, n, 3) stack gives, cloud by cloud, what one-cloud calls give."""

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_fps_and_knn_match_oracles_per_cloud(self, seed):
        r = np.random.default_rng(seed)
        b, n = int(r.integers(1, 6)), int(r.integers(1, 24))
        pts, q = tie_heavy(r, b, n), tie_heavy(r, b, int(r.integers(1, 8)))
        m, k = int(r.integers(1, n + 1)), int(r.integers(1, n + 1))
        sel, nn = G.fps(pts, m), G.knn(q, pts, k)
        assert sel.shape == (b, m) and nn.shape == (b, q.shape[1], k)
        for i in range(b):
            assert np.array_equal(sel[i], fps_oracle(pts[i], m))
            assert np.array_equal(nn[i], knn_oracle(q[i], pts[i], k))

    def test_knn_blocks_match_one_block(self, monkeypatch):
        r = np.random.default_rng(150)
        src = tie_heavy(r, 40, 128)
        q = src[:, :64]
        assert 40 * 64 * 128 > 2 * G._KNN_BLOCK  # at least three blocks
        blocked = G.knn(q, src, 16)
        monkeypatch.setattr(G, "_KNN_BLOCK", 40 * 64 * 128)
        assert np.array_equal(blocked, G.knn(q, src, 16))
        for i in range(40):
            assert np.array_equal(blocked[i], G.knn(q[i], src[i], 16))

    def test_given_order_is_the_lexicographic_one(self):
        r = np.random.default_rng(151)
        pts = tie_heavy(r, 3, 30)
        order = G.lex_order(pts)
        for i in range(3):
            keys = [tuple(p) + (j,) for j, p in enumerate(pts[i].tolist())]
            assert order[i].tolist() == sorted(range(30), key=keys.__getitem__)
        assert np.array_equal(G.fps(pts, 9, order=order), G.fps(pts, 9))
        assert np.array_equal(G.knn(pts, pts, 4, order=order), G.knn(pts, pts, 4))

    def test_radius_mask_and_weights_per_cloud(self):
        r = np.random.default_rng(152)
        fine, coarse = tie_heavy(r, 4, 20), tie_heavy(r, 4, 7)
        mask = G.radius_mask(fine, 0.8)
        idx, w = G.interp_weights(fine, coarse)
        for i in range(4):
            assert np.array_equal(mask[i], G.radius_mask(fine[i], 0.8))
            one_idx, one_w = G.interp_weights(fine[i], coarse[i])
            assert np.array_equal(idx[i], one_idx) and np.array_equal(w[i], one_w)

    def test_mixed_sizes_rejected(self):
        clouds = [np.zeros((4, 3)), np.ones((5, 3))]
        with pytest.raises(ContractError):
            G.fps(clouds, 2)
        with pytest.raises(ContractError):
            G.knn(clouds, clouds, 2)
        with pytest.raises(ShapeError):
            G.knn(np.zeros((2, 4, 3)), np.zeros((3, 4, 3)), 2)


class TestRadiusMask:
    def test_matches_bruteforce(self):
        r = np.random.default_rng(120)
        pts = r.normal(size=(25, 3))
        mask = G.radius_mask(pts, 1.1)
        for i in range(25):
            for j in range(25):
                assert mask[i, j] == (((pts[i] - pts[j]) ** 2).sum() <= 1.1 ** 2)

    def test_diagonal_true_and_symmetric(self):
        r = np.random.default_rng(121)
        pts = r.normal(size=(30, 3))
        mask = G.radius_mask(pts, 0.5)
        assert mask.diagonal().all()
        assert np.array_equal(mask, mask.T)

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert G.radius_mask(pts, 1.0).all()
        assert not G.radius_mask(pts, 0.999)[0, 1]

    def test_bad_radius(self):
        with pytest.raises(ContractError):
            G.radius_mask(np.zeros((2, 3)), 0.0)
        with pytest.raises(ContractError):
            G.radius_mask(np.zeros((2, 3)), -1.0)


class TestInterpolate:
    def test_partition_of_unity(self):
        r = np.random.default_rng(130)
        fine, coarse = r.normal(size=(50, 3)), r.normal(size=(12, 3))
        _, w = G.interp_weights(fine, coarse, k=3)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert (w >= 0).all()

    def test_exact_hit_dominates(self):
        coarse = np.array([[0.0, 0, 0], [10.0, 0, 0], [0, 10.0, 0]])
        fine = np.array([[0.0, 0, 0]])
        idx, w = G.interp_weights(fine, coarse, k=3)
        assert idx[0, 0] == 0
        assert w[0, 0] > 1.0 - 1e-6

    def test_constant_field_preserved(self):
        r = np.random.default_rng(131)
        coarse = r.normal(size=(8, 3))
        fine = r.normal(size=(20, 3))
        feats = T.tensor(np.ones((8, 4)))
        out = G.interpolate(feats, fine, coarse).data
        assert np.abs(out - 1.0).max() < 1e-6

    def test_weights_invariant_to_coarse_permutation(self):
        r = np.random.default_rng(132)
        coarse = r.normal(size=(9, 3))
        fine = r.normal(size=(15, 3))
        perm = r.permutation(9)
        idx_a, w_a = G.interp_weights(fine, coarse)
        idx_b, w_b = G.interp_weights(fine, coarse[perm])
        assert np.array_equal(coarse[idx_a], coarse[perm][idx_b])
        assert np.array_equal(w_a, w_b)

    def test_stacked_sets_interpolate_within_each_set(self):
        r = np.random.default_rng(134)
        coarse = r.normal(size=(3, 6, 3))
        fine = r.normal(size=(3, 10, 3))
        feats = r.normal(size=(18, 4))
        out = G.interpolate(feats, fine, coarse).data
        for b in range(3):
            one = G.interpolate(feats[6 * b:6 * (b + 1)], fine[b], coarse[b]).data
            assert np.array_equal(out[10 * b:10 * (b + 1)], one)

    def test_grad_flows_to_feats(self):
        r = np.random.default_rng(133)
        coarse = r.normal(size=(5, 3))
        fine = r.normal(size=(7, 3))
        feats = T.tensor(r.normal(size=(5, 2)), requires_grad=True, dtype=np.float64)
        _, w = G.interp_weights(fine, coarse)
        with T.Tape() as tape:
            out = G.interpolate(feats, fine, coarse)
            loss = T.reduce_sum(out)
        (g,) = tape.gradients(loss, [feats])
        idx, w = G.interp_weights(fine, coarse)
        expect = np.zeros((5, 2))
        for f in range(7):
            for j in range(3):
                expect[idx[f, j]] += w[f, j]
        assert np.abs(g - expect).max() < 1e-12


class TestChamfer:
    def test_identical_sets_zero(self):
        r = np.random.default_rng(140)
        a = r.normal(size=(20, 3))
        assert float(G.chamfer(a, a.copy()).data) == 0.0

    def test_hand_value(self):
        a = np.array([[0.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        assert abs(float(G.chamfer(a, b).data) - 2.0) < 1e-12
        b2 = np.array([[1.0, 0, 0], [0.0, 0, 0]])
        # a->b2 min is 0; b2->a terms are 1 and 0, mean 0.5
        assert abs(float(G.chamfer(a, b2).data) - 0.5) < 1e-12

    def test_symmetric(self):
        r = np.random.default_rng(141)
        a, b = r.normal(size=(9, 3)), r.normal(size=(14, 3))
        assert abs(float(G.chamfer(a, b).data) - float(G.chamfer(b, a).data)) < 1e-12

    def test_permutation_invariant(self):
        r = np.random.default_rng(142)
        a, b = r.normal(size=(9, 3)), r.normal(size=(14, 3))
        v1 = float(G.chamfer(a, b).data)
        v2 = float(G.chamfer(a[r.permutation(9)], b[r.permutation(14)]).data)
        assert abs(v1 - v2) < 1e-12

    def test_grad_both_sides_fd(self):
        r = np.random.default_rng(143)
        a0, b0 = r.normal(size=(6, 3)), r.normal(size=(8, 3))

        def fd(side, i, j, h=1e-6):
            def at(delta):
                aa, bb = a0.copy(), b0.copy()
                (aa if side == 0 else bb)[i, j] += delta
                return float(G.chamfer(aa, bb).data)
            return (at(h) - at(-h)) / (2 * h)

        ta = T.tensor(a0, requires_grad=True, dtype=np.float64)
        tb = T.tensor(b0, requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            loss = G.chamfer(ta, tb)
        ga, gb = tape.gradients(loss, [ta, tb])
        for i in range(6):
            for j in range(3):
                assert abs(ga[i, j] - fd(0, i, j)) < 1e-5
        for i in range(8):
            for j in range(3):
                assert abs(gb[i, j] - fd(1, i, j)) < 1e-5

    def test_chamfer_sets_matches_single(self):
        r = np.random.default_rng(144)
        pred = r.normal(size=(5, 8, 3))
        tgt = r.normal(size=(5, 6, 3))
        vals = G.chamfer_sets(T.tensor(pred, dtype=np.float64), tgt).data
        for m in range(5):
            single = float(G.chamfer(pred[m], tgt[m]).data)
            assert abs(vals[m] - single) < 1e-12

    def test_chamfer_sets_grad_fd(self):
        r = np.random.default_rng(145)
        p0 = r.normal(size=(3, 4, 3))
        tgt = r.normal(size=(3, 5, 3))
        w = r.normal(size=(3,))

        def value(p):
            return float(np.dot(G.chamfer_sets(T.tensor(p, dtype=np.float64), tgt).data, w))

        pred = T.tensor(p0, requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(G.chamfer_sets(pred, tgt), w))
        (g,) = tape.gradients(loss, [pred])
        h = 1e-6
        for idx in np.ndindex(p0.shape):
            up, down = p0.copy(), p0.copy()
            up[idx] += h
            down[idx] -= h
            fd = (value(up) - value(down)) / (2 * h)
            assert abs(g[idx] - fd) < 1e-5

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            G.chamfer(np.zeros((0, 3)), np.zeros((2, 3)))
