"""Gradient and contract tests for the autodiff core.

Every differentiable primitive is checked against central finite
differences in float64. The comparison is relative with an absolute
fallback near zero: |ad - fd| <= tol * max(1, |fd|).
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msmae import tensor as T
from msmae.errors import ContractError, ShapeError


def fd_check(fn, arrays, tol=1e-4, h=1e-6):
    """Compare tape gradients of fn(*tensors) against central differences.

    fn must be a pure function of its tensor arguments returning a scalar
    Tensor. arrays are float64 numpy inputs.
    """
    tensors = [T.tensor(a.copy(), requires_grad=True, dtype=np.float64) for a in arrays]
    with T.Tape() as tape:
        loss = fn(*tensors)
    grads = tape.gradients(loss, tensors)

    def eval_at(vals):
        out = fn(*[T.tensor(v, dtype=np.float64) for v in vals])
        return float(out.data)

    for k, a in enumerate(arrays):
        ad = grads[k]
        assert ad.shape == a.shape
        fd = np.zeros_like(a)
        flat = a.reshape(-1)
        for i in range(flat.size):
            step = h * max(1.0, abs(flat[i]))
            bumped = [v.copy() for v in arrays]
            bumped[k].reshape(-1)[i] = flat[i] + step
            up = eval_at(bumped)
            bumped[k].reshape(-1)[i] = flat[i] - step
            down = eval_at(bumped)
            fd.reshape(-1)[i] = (up - down) / (2.0 * step)
        err = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() <= tol, f"arg {k}: max rel err {err.max():.3e}"


def rng(seed=0):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add_broadcast_grad(self):
        r = rng(1)
        fd_check(lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.add(a, b))),
                 [r.normal(size=(3, 4)), r.normal(size=(4,))])

    def test_add_mul_grad(self):
        r = rng(2)
        fd_check(lambda a, b: T.reduce_sum(T.mul(T.add(a, b), a)),
                 [r.normal(size=(2, 3)), r.normal(size=(2, 1))])

    def test_scalar_operand_adopts_dtype(self):
        x = T.tensor(np.ones((2, 2), dtype=np.float32))
        y = T.mul(x, 0.5)
        assert y.dtype == np.float32
        assert np.allclose(y.data, 0.5)

    def test_gelu_values(self):
        # fixed points of the tanh approximation
        x = T.tensor(np.array([0.0, 1.0, -1.0], dtype=np.float64))
        y = T.gelu(x).data
        assert y[0] == 0.0
        assert abs(y[1] - 0.841192) < 1e-6
        assert abs(y[2] - (-0.158808)) < 1e-6

    def test_gelu_grad(self):
        r = rng(3)
        # stay 1e-3 away from the origin where the third derivative is large
        x = r.normal(size=(17,))
        x = np.where(np.abs(x) < 1e-3, 1e-3, x)
        fd_check(lambda a: T.reduce_sum(T.gelu(a)), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_grad_bits_match_reference_expression(self, dtype):
        r = rng(30)
        d = (3.0 * r.normal(size=(64, 32))).astype(dtype)
        w = r.normal(size=(64, 32)).astype(dtype)
        x = T.tensor(d, requires_grad=True)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(T.gelu(x), T.tensor(w)))
        (got,) = tape.gradients(loss, [x])
        # the backward's local slope written out as one expression
        t = np.tanh(T.GELU_C0 * (d + T.GELU_C1 * d * d * d))
        local = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * T.GELU_C0 * (1.0 + 3.0 * T.GELU_C1 * d * d)
        want = w * local
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bits_match_reference_expression(self, dtype):
        d = (3.0 * rng(31).normal(size=(64, 32))).astype(dtype)
        want = 0.5 * d * (1.0 + np.tanh(T.GELU_C0 * (d + T.GELU_C1 * d * d * d)))
        got = T.gelu(T.tensor(d)).data
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_mul_skips_gradient_of_constant_operand(self):
        x = T.tensor(rng(32).normal(size=(3, 4)), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, 0.5)
        _, vjp = tape._nodes[y.node[1]]
        gx, gc = vjp(np.ones((3, 4)))
        assert np.array_equal(gx, np.full((3, 4), 0.5))
        assert gc is None

    def test_fanout_accumulates(self):
        x = T.tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.add(T.mul(x, x), x)  # x^2 + x
        tape.backward(y)
        assert abs(x.grad - 7.0) < 1e-12


class TestMatmul:
    def test_2d_grad(self):
        r = rng(4)
        fd_check(lambda a, b: T.reduce_sum(T.matmul(a, b)),
                 [r.normal(size=(3, 4)), r.normal(size=(4, 2))])

    def test_stacked_shared_right(self):
        # one form only: (m, k) @ (k, n)
        with pytest.raises(ShapeError):
            T.matmul(T.tensor(np.zeros((2, 3, 4))), T.tensor(np.zeros((4, 2))))

    def test_stacked_both(self):
        with pytest.raises(ShapeError):
            T.matmul(T.tensor(np.zeros((2, 3, 4))), T.tensor(np.zeros((2, 4, 3))))

    def test_shape_error_names_both_shapes(self):
        a = T.tensor(np.zeros((3, 4)))
        b = T.tensor(np.zeros((5, 2)))
        with pytest.raises(ShapeError) as exc:
            T.matmul(a, b)
        assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)

    def test_1d_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(T.tensor(np.zeros(3)), T.tensor(np.zeros((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("lead", [(5,)])
    def test_bits_match_matmul_then_add(self, lead):
        r = rng(31)
        arrays = [r.normal(size=lead + (4,)), r.normal(size=(4, 3)), r.normal(size=(3,)),
                  r.normal(size=lead + (3,))]
        xs, w, b, up = [a.astype(np.float32) for a in arrays]
        results = []
        for fused in (True, False):
            ts = [T.tensor(a, requires_grad=True) for a in (xs, w, b)]
            with T.Tape() as tape:
                out = T.linear(*ts) if fused else T.add(T.matmul(ts[0], ts[1]), ts[2])
                loss = T.reduce_sum(T.mul(out, T.tensor(up)))
            results.append([out.data] + tape.gradients(loss, ts))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_grad(self):
        r = rng(32)
        fd_check(lambda x, w, b: T.reduce_sum(T.mul(T.linear(x, w, b), T.linear(x, w, b))),
                 [r.normal(size=(3, 4)), r.normal(size=(4, 2)), r.normal(size=(2,))])

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)),
                                        ((4,), (4, 2), (2,)), ((3, 4), (2, 4, 2), (2,)),
                                        ((2, 3, 4), (4, 2), (2,))])
    def test_shape_errors(self, shapes):
        with pytest.raises(ShapeError):
            T.linear(*[T.tensor(np.zeros(s)) for s in shapes])


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_linear_gelu_linear(self, dtype):
        r = rng(33)
        x0, w0, b0, w1, b1, up = [(2.0 * r.normal(size=s)).astype(dtype)
                                  for s in [(7, 4), (4, 9), (9,), (9, 3), (3,), (7, 3)]]
        results = []
        for fused in (True, False):
            ts = [T.tensor(a, requires_grad=True) for a in (x0, w0, b0, w1, b1)]
            with T.Tape() as tape:
                out = T.mlp(*ts) if fused else T.linear(T.gelu(T.linear(*ts[:3])), *ts[3:])
                loss = T.reduce_sum(T.mul(out, T.tensor(up)))
            results.append([out.data] + tape.gradients(loss, ts))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_constant_input_gets_no_gradient(self):
        r = rng(34)
        x = T.tensor(r.normal(size=(5, 2)))
        ws = [T.tensor(r.normal(size=s), requires_grad=True) for s in [(2, 6), (6,), (6, 2), (2,)]]
        with T.Tape() as tape:
            y = T.mlp(x, *ws)
        _, vjp = tape._nodes[y.node[1]]
        assert vjp(np.ones((5, 2)))[0] is None

    def test_grad(self):
        r = rng(35)
        fd_check(lambda x, w0, b0, w1, b1: T.reduce_sum(T.mul(T.mlp(x, w0, b0, w1, b1), x)),
                 [r.normal(size=(3, 2)), r.normal(size=(2, 5)), r.normal(size=(5,)),
                  r.normal(size=(5, 2)), r.normal(size=(2,))])

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 6), (6,), (6, 2), (2,)),
                                        ((3, 4), (4, 6), (5,), (6, 2), (2,)),
                                        ((3, 4), (4, 6), (6,), (5, 2), (2,)),
                                        ((3, 4), (4, 6), (6,), (6, 2), (3,)),
                                        ((4,), (4, 6), (6,), (6, 2), (2,))])
    def test_shape_errors(self, shapes):
        with pytest.raises(ShapeError):
            T.mlp(*[T.tensor(np.zeros(s)) for s in shapes])


class TestLayerNorm:
    def test_normalizes(self):
        r = rng(7)
        x = r.normal(size=(5, 8), scale=3.0)
        g = np.ones(8)
        b = np.zeros(8)
        y = T.layer_norm(T.tensor(x), T.tensor(g), T.tensor(b)).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-7
        assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3  # eps shrinks it slightly

    def test_constant_row_maps_to_beta(self):
        x = np.full((2, 6), 4.2)
        beta = np.arange(6.0)
        y = T.layer_norm(T.tensor(x), T.tensor(np.ones(6)), T.tensor(beta)).data
        assert np.allclose(y, beta)

    def test_grad_all_three(self):
        r = rng(8)
        fd_check(lambda x, g, b: T.reduce_sum(T.mul(T.layer_norm(x, g, b), x)),
                 [r.normal(size=(4, 6)), r.normal(size=(6,)), r.normal(size=(6,))])


def attention_inputs(r, sizes, heads=2, dh=3, scale=1.0):
    """Packed q, k, v of token sets of the given sizes, their Padding and a
    (B, n, n) allow with one blocked pair in every set of two or more:
    real slots see the real slots of their own set, padding only itself."""
    pad = T.Padding.of(sizes)
    n = pad.width
    q, k, v = (scale * r.normal(size=(sum(sizes), heads * dh)) for _ in range(3))
    real = np.arange(n) < np.array(sizes)[:, None]
    allow = real[:, :, None] & real[:, None, :]
    if n > 1:
        allow[np.array(sizes) > 1, 0, 1] = False
    allow |= np.eye(n, dtype=bool)
    return q, k, v, pad, allow


def attention_reference(q, k, v, heads, sizes, allow):
    """attention set by set, head by head, in plain numpy."""
    out, start = [], 0
    for b, n in enumerate(sizes):
        rows = slice(start, start + n)
        start += n
        mixed = []
        for qh, kh, vh in zip(*(np.split(t[rows], heads, axis=1) for t in (q, k, v))):
            s = qh @ kh.T / np.sqrt(qh.shape[1])
            e = np.where(allow[b, :n, :n], np.exp(s - s.max(axis=1, keepdims=True)), 0.0)
            mixed.append(e / e.sum(axis=1, keepdims=True) @ vh)
        out.append(np.concatenate(mixed, axis=1))
    return np.concatenate(out)


class TestMaskedSoftmax:
    """The masked softmax of tensor.attention: the probabilities each head
    mixes values with (tensor.attention_probs)."""

    def test_disallowed_exactly_zero(self):
        sizes = [5, 2, 4]
        q, k, v, pad, allow = attention_inputs(rng(9), sizes, scale=3.0)
        p = T.attention_probs(q, k, 2, pad, allow)
        mask = np.broadcast_to(allow[:, None], p.shape)
        assert (p[~mask] == 0.0).all()
        assert (p[mask] > 0).all()
        # no real token attends to a padding slot
        real = np.arange(pad.width) < np.array(sizes)[:, None]
        hide = real[:, None, :, None] & ~real[:, None, None, :]
        assert hide.any() and (p[np.broadcast_to(hide, p.shape)] == 0.0).all()
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_large_logits_stable(self):
        q, k, v, pad, allow = attention_inputs(rng(11), [4, 3], scale=1e3)
        out = T.attention(q, k, v, 2, pad, allow).data
        p = T.attention_probs(q, k, 2, pad, allow)
        assert np.isfinite(out).all() and np.isfinite(p).all()
        assert (p[:, :, 0, 1] == 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_reference_expression(self, dtype):
        # the same operations on the same layout: the scaled scores, then
        # max-subtraction, exp and row normalization over the allowed keys
        q, k, v, pad, allow = attention_inputs(rng(33), [8, 5, 8], heads=3, dh=4, scale=2.0)
        q, k, v = (t.astype(dtype) for t in (q, k, v))
        full = np.r_[0:8, 13:21]  # the two sets that fill the layout, for dense attention
        for pad, allow, rows in ((pad, allow, slice(None)), (T.Padding(2, 8), None, full)):
            qh, kh, vh = (T._split_heads(t[rows], 3, pad) for t in (q, k, v))
            d = (qh @ kh.transpose(0, 1, 3, 2)) * dtype(0.5)
            mask = np.ones(d.shape, bool) if allow is None else np.broadcast_to(allow[:, None], d.shape)
            m = np.where(mask, d, -np.inf).max(axis=-1, keepdims=True)
            e = np.where(mask, np.exp(np.where(mask, d - m, 0.0)), 0.0)
            want = e / e.sum(axis=-1, keepdims=True)
            got = T.attention_probs(q[rows], k[rows], 3, pad, allow)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            out = T.attention(q[rows], k[rows], v[rows], 3, pad, allow).data
            assert out.tobytes() == T._merge_heads(want @ vh, pad).tobytes()

    def test_all_disallowed_row_raises(self):
        q, k, v, pad, allow = attention_inputs(rng(12), [3, 2])
        allow[1, 0] = False
        with pytest.raises(ContractError, match="no allowed entries"):
            T.attention(q, k, v, 2, pad, allow)

    def test_grad(self):
        sizes = [4, 2, 3]
        q, k, v, pad, allow = attention_inputs(rng(10), sizes)
        w = rng(13).normal(size=q.shape)
        fd_check(lambda a, b, c: T.reduce_sum(T.mul(T.attention(a, b, c, 2, pad, allow), T.tensor(w))),
                 [q, k, v])

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        sizes = r.integers(1, 7, size=int(r.integers(1, 4))).tolist()
        heads = int(r.integers(1, 3))
        q, k, v, pad, allow = attention_inputs(r, sizes, heads=heads, scale=5.0)
        allow &= r.random(allow.shape) > 0.5
        allow |= np.eye(pad.width, dtype=bool)
        p = T.attention_probs(q, k, heads, pad, allow)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p[~np.broadcast_to(allow[:, None], p.shape)] == 0).all()
        out = T.attention(q, k, v, heads, pad, allow).data
        assert np.allclose(out, attention_reference(q, k, v, heads, sizes, allow), rtol=1e-12, atol=1e-12)


class TestAttention:
    def test_dense_over_padding_raises(self):
        q, k, v, pad, _ = attention_inputs(rng(14), [3, 2])
        with pytest.raises(ContractError, match="attend to padding"):
            T.attention(q, k, v, 2, pad)

    @pytest.mark.parametrize("shapes", [[(7, 6), (7, 6), (7, 4)], [(6, 6)] * 3, [(7, 5)] * 3, [(7,)] * 3])
    def test_shape_errors(self, shapes):
        _, _, _, pad, allow = attention_inputs(rng(17), [4, 3])
        with pytest.raises(ShapeError):
            T.attention(*(np.zeros(s) for s in shapes), 2, pad, allow)

    def test_allow_shape_error(self):
        q, k, v, pad, allow = attention_inputs(rng(18), [4, 3])
        with pytest.raises(ShapeError, match=r"\(2, 4, 4\) allow"):
            T.attention(q, k, v, 2, pad, allow[:1])


class TestGatherConcat:
    def test_gather_forward(self):
        x = T.tensor(np.arange(12.0).reshape(4, 3))
        idx = np.array([[2, 0], [1, 1]])
        out = T.gather(x, idx)
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out.data[0, 0], x.data[2])

    def test_gather_duplicate_rows_accumulate(self):
        x = T.tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.reduce_sum(T.gather(x, np.array([0, 0, 2])))
        tape.backward(y)
        assert np.array_equal(x.grad, np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]))

    def test_gather_out_of_range(self):
        with pytest.raises(ContractError):
            T.gather(T.tensor(np.zeros((3, 2))), np.array([3]))

    def test_gather_grad(self):
        r = rng(11)
        idx = np.array([1, 3, 1, 0])
        w = r.normal(size=(4, 2))
        fd_check(lambda x: T.reduce_sum(T.mul(T.gather(x, idx), T.tensor(w))),
                 [r.normal(size=(5, 2))])

    def test_concat_last_axis_grad(self):
        r = rng(12)
        fd_check(lambda a, b: T.reduce_sum(T.mul(T.concat([a, b], axis=-1), T.concat([a, b], axis=-1))),
                 [r.normal(size=(3, 2)), r.normal(size=(3, 4))])

    def test_concat_axis0_grad(self):
        r = rng(13)
        w = r.normal(size=(5, 2))
        fd_check(lambda a, b: T.reduce_sum(T.mul(T.concat([a, b], axis=0), T.tensor(w))),
                 [r.normal(size=(2, 2)), r.normal(size=(3, 2))])


def _add_at(buf, index, rows):
    out = buf.copy()
    np.add.at(out, index.reshape(-1), rows.reshape((index.size,) + buf.shape[1:]))
    return out


def _index_table(kind, r):
    if kind == "injective":
        return r.permutation(96)
    if kind == "knn":  # every fine row picks 3 of 40 coarse rows, nearby ones
        base = r.integers(0, 38, size=(300, 1))
        return np.minimum(base + np.sort(r.integers(0, 4, size=(300, 3)), axis=1), 39)
    if kind == "heavy":  # row 5 hit 500 times among a few others
        idx = np.full(560, 5)
        idx[r.choice(560, 60, replace=False)] = r.integers(0, 40, size=60)
        return idx
    raise AssertionError(kind)


class TestScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["injective", "knn", "heavy"])
    def test_scatter_add_bytes_match_add_at(self, dtype, kind):
        r = rng(40)
        idx = _index_table(kind, r)
        rows_n = int(idx.max()) + 1 + 3  # some rows receive nothing
        # magnitudes over eight decades, so a different summation order shows
        rows = (r.normal(size=idx.shape + (4,)) * 10.0 ** r.uniform(-4, 4, size=idx.shape + (4,)))
        rows = rows.astype(dtype)
        rows.reshape(-1)[::7] = -0.0
        for start in (np.zeros((rows_n, 4), dtype=dtype),
                      r.normal(size=(rows_n, 4)).astype(dtype)):
            start.reshape(-1)[::5] = -0.0
            want = _add_at(start, idx, rows)
            got = T.scatter_add(start.copy(), idx, rows)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_scatter_add_empty_index(self):
        buf = rng(41).normal(size=(4, 2))
        got = T.scatter_add(buf.copy(), np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3, 2)))
        assert got.tobytes() == buf.tobytes()


class TestSegments:
    def test_segment_max_uniform(self):
        # two groups of two, as blocks of members: row j*2 + i is member j of group i
        x = T.tensor(np.array([[1.0, 0.0], [5.0, -1.0], [2.0, 9.0], [7.0, 3.0]]))
        out = T.segment_max(x, 2)
        assert np.array_equal(out.data, np.array([[2.0, 9.0], [7.0, 3.0]]))

    def test_segment_max_grad_routes_to_first_argmax(self):
        x = T.tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.reduce_sum(T.segment_max(x, 1))
        tape.backward(y)
        assert np.array_equal(x.grad, np.array([[1.0], [0.0], [0.0]]))

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_segment_max_grad_routes_to_first_maximal_member(self, seed):
        r = np.random.default_rng(seed)
        m, k = int(r.integers(1, 5)), int(r.integers(1, 20))
        d = np.round(r.normal(size=(k * m, 3)), 0)  # many ties
        g = r.normal(size=(m, 3))
        x = T.tensor(d, requires_grad=True)
        with T.Tape() as tape:
            y = T.segment_max(x, m)
            loss = T.reduce_sum(T.mul(y, T.tensor(g)))
        (got,) = tape.gradients(loss, [x])
        members = d.reshape(k, m, 3)
        first = members.argmax(axis=0)  # argmax returns the first of equal maxima
        want = np.zeros((k, m, 3))
        np.put_along_axis(want, first[None], g[None], axis=0)
        assert np.array_equal(y.data, members.max(axis=0))
        assert np.array_equal(got, want.reshape(k * m, 3))

    def test_segment_max_tape_holds_a_narrow_index(self):
        x = T.tensor(rng(16).normal(size=(40, 3)), requires_grad=True)
        with T.Tape() as tape:
            T.segment_max(x, 5)
        _, vjp = tape._nodes[0]
        held = [c.cell_contents for c in vjp.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [(a.shape, a.dtype) for a in held] == [((5, 3), np.uint8)]

    def test_segment_max_grad_fd(self):
        r = rng(14)
        w = r.normal(size=(3, 4))
        fd_check(lambda x: T.reduce_sum(T.mul(T.segment_max(x, 3), T.tensor(w))),
                 [r.normal(size=(9, 4))])

    @pytest.mark.parametrize("groups", [2, 3])
    def test_segment_max_same_values_on_and_off_tape(self, groups):
        d = np.round(rng(15).normal(size=(6, 5)), 1)  # ties within a group
        d[1, 0] = -0.0
        off = T.segment_max(T.tensor(d), groups).data
        with T.Tape():
            on = T.segment_max(T.tensor(d, requires_grad=True), groups).data
        assert off.tobytes() == on.tobytes()

    def test_segment_mean_grad_fd(self):
        r = rng(15)
        w = r.normal(size=(3, 2))
        fd_check(lambda x: T.reduce_sum(T.mul(T.segment_mean(x, 3), T.tensor(w))),
                 [r.normal(size=(6, 2))])

    def test_segment_max_ragged(self):
        x = T.tensor(np.array([[1.0, 0.0], [5.0, -1.0], [2.0, 9.0]]))
        for op in (T.segment_max, T.segment_mean):
            with pytest.raises(ContractError) as exc:
                op(x, 2)  # 3 rows do not split into 2 equal groups
            assert "3 rows" in str(exc.value)

    def test_empty_segment_raises(self):
        for op in (T.segment_max, T.segment_mean):
            for rows, groups in [(4, 0), (0, 2)]:  # zero groups, zero rows
                with pytest.raises(ContractError):
                    op(T.tensor(np.zeros((rows, 2))), groups)

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_segment_mean_matches_loop(self, seed):
        r = np.random.default_rng(seed)
        m, k = int(r.integers(1, 5)), int(r.integers(1, 4))
        x = r.normal(size=(m * k, 2))
        out = T.segment_mean(T.tensor(x), m).data
        for s in range(m):
            assert np.allclose(out[s], x[s * k:(s + 1) * k].mean(axis=0))


class TestShapesReductions:
    def test_reshape_grad(self):
        r = rng(16)
        w = r.normal(size=(2, 3, 4))
        fd_check(lambda x: T.reduce_sum(T.mul(T.reshape(x, (2, 3, 4)), T.tensor(w))),
                 [r.normal(size=(6, 4))])

    def test_reduce_sum_axis_grad(self):
        r = rng(17)
        w = r.normal(size=(3,))
        fd_check(lambda x: T.reduce_sum(T.mul(T.reduce_sum(x, axis=1), T.tensor(w))),
                 [r.normal(size=(3, 5))])

    def test_cross_entropy_value_and_grad(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1])
        loss = T.softmax_cross_entropy(T.tensor(logits, dtype=np.float64), labels)
        expected = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert abs(float(loss.data) - expected) < 1e-12
        r = rng(18)
        fd_check(lambda x: T.softmax_cross_entropy(x, labels), [r.normal(size=(2, 2))])

    def test_cross_entropy_bad_label(self):
        with pytest.raises(ContractError):
            T.softmax_cross_entropy(T.tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestTape:
    def test_non_scalar_loss_raises(self):
        x = T.tensor(np.zeros(3), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_off_tape_loss_raises(self):
        x = T.tensor(np.zeros(3), requires_grad=True)
        with T.Tape() as tape:
            T.mul(x, 2.0)
        stray = T.tensor(np.array(0.0))
        with pytest.raises(ContractError):
            tape.backward(stray)

    def test_no_tape_no_tracking(self):
        x = T.tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, 2.0)
        assert not y.requires_grad

    def test_constant_graph_not_recorded(self):
        with T.Tape() as tape:
            y = T.mul(T.tensor(np.ones(3)), 2.0)
        assert not y.requires_grad
        assert len(tape._nodes) == 0

    def test_gradients_zero_for_unreachable(self):
        x = T.tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        z = T.tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        gx, gz = tape.gradients(loss, [x, z])
        assert np.allclose(gx, 2.0)
        assert np.array_equal(gz, np.zeros(2))

    def test_backward_accumulates_across_calls(self):
        x = T.tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
        for _ in range(2):
            with T.Tape() as tape:
                loss = T.mul(x, x)
            tape.backward(loss)
        assert abs(x.grad - 8.0) < 1e-12

    def test_grads_bit_identical_across_runs(self):
        r = rng(19)
        x0 = r.normal(size=(6, 4)).astype(np.float32)
        w0 = r.normal(size=(4, 4)).astype(np.float32)

        def run():
            x = T.tensor(x0.copy(), requires_grad=True)
            w = T.tensor(w0.copy(), requires_grad=True)
            with T.Tape() as tape:
                h = T.gelu(T.matmul(x, w))
                loss = T.reduce_sum(T.mul(h, h))
            return tape.gradients(loss, [x, w])

        a = run()
        b = run()
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_apply_op_extension(self):
        # custom primitive registered through the public hook
        def square(x):
            x = T.as_tensor(x)
            return T.apply_op(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))

        r = rng(20)
        fd_check(lambda x: T.reduce_sum(square(x)), [r.normal(size=(5,))])

    def test_finished_tape_freed_without_cycle_collector(self):
        import gc
        x = T.tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        gc.disable()
        try:
            with T.Tape() as tape:
                loss = T.reduce_sum(T.mul(T.gelu(x), x))
            (g,) = tape.gradients(loss, [x])
            assert len(tape._nodes) == 3  # the record survives gradients()
            ref = weakref.ref(tape)
            del tape, loss
            assert ref() is None
        finally:
            gc.enable()
        assert g.shape == (3,)

    def test_nested_tapes(self):
        x = T.tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        with T.Tape() as outer:
            a = T.mul(x, x)
            with T.Tape() as inner:
                b = T.mul(x, T.tensor(np.array(5.0)))
            (gi,) = inner.gradients(b, [x])
            (go,) = outer.gradients(a, [x])
        assert abs(gi - 5.0) < 1e-12
        assert abs(go - 6.0) < 1e-12


class TestRetention:
    """A tape keeps only the arrays its backward reads, and is swept once."""

    def test_scores_die_once_dropped(self, monkeypatch):
        # attention recomputes its probabilities in the backward: once the
        # forward ends, no (B, heads, n, n) array is left on the tape
        r = rng(40)
        q0, k0, v0, pad, allow = attention_inputs(r, [5, 3, 4])
        w = r.normal(size=q0.shape)
        seen = []
        probs_of = T._probs

        def spy(*args):
            out = probs_of(*args)
            seen.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(T, "_probs", spy)
        ts = [T.tensor(a, requires_grad=True) for a in (q0, k0, v0)]
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(T.attention(*ts, 2, pad, allow), T.tensor(w)))
        assert len(seen) == 1 and seen[0]() is None
        held = [c.cell_contents for _, vjp in tape._nodes for c in vjp.__closure__ or ()]
        assert not any(isinstance(a, np.ndarray) and a.shape == (3, 2, 5, 5) for a in held)
        tape.gradients(loss, ts)
        assert len(seen) == 2  # the backward computed them again

    def test_add_and_segment_max_hold_no_inputs(self):
        x = T.tensor(rng(41).normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            h = T.mul(x, 2.0)
            s = T.add(h, T.tensor(np.ones(3)))
            m = T.segment_max(s, 2)
            refs = [weakref.ref(h.data), weakref.ref(s.data)]
            del h, s
            assert all(ref() is None for ref in refs)
            loss = T.reduce_sum(m)
        (g,) = tape.gradients(loss, [x])
        assert np.array_equal(g.sum(axis=0), np.full(3, 4.0))  # one max a channel per group, slope 2

    def test_gelu_holds_only_its_slope(self):
        x0 = rng(43).normal(size=(5, 3))
        w = rng(44).normal(size=(5, 3))
        x = T.tensor(x0, requires_grad=True)
        with T.Tape() as tape:
            h = T.mul(x, 2.0)
            y = T.gelu(h)
            ref = weakref.ref(h.data)
            del h
            assert ref() is None
            loss = T.reduce_sum(T.mul(y, T.tensor(w)))
        (g,) = tape.gradients(loss, [x])
        u = 2.0 * x0
        t = np.tanh(T.GELU_C0 * (u + T.GELU_C1 * u ** 3))
        slope = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * T.GELU_C0 * (1.0 + 3.0 * T.GELU_C1 * u * u)
        assert np.allclose(g, 2.0 * w * slope, rtol=1e-12, atol=1e-12)

    def test_mlp_holds_only_its_input(self, monkeypatch):
        r = rng(45)
        x0, w0, b0, w1, b1, up = [r.normal(size=s) for s in [(6, 3), (3, 8), (8,), (8, 2), (2,), (6, 2)]]
        seen = []
        gelu_of = T._gelu

        def spy(d, slope):  # weak references to the pre-activation, activation and slope
            out = gelu_of(d, slope)
            seen.extend(weakref.ref(a) for a in (d, *out) if a is not None)
            return out

        monkeypatch.setattr(T, "_gelu", spy)
        ts = [T.tensor(a, requires_grad=True) for a in (x0, w0, b0, w1, b1)]
        with T.Tape() as tape:
            y = T.mlp(*ts)
            assert len(seen) == 2 and all(ref() is None for ref in seen)
            loss = T.reduce_sum(T.mul(y, T.tensor(up)))
        got = tape.gradients(loss, ts)
        monkeypatch.undo()
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(T.linear(T.gelu(T.linear(*ts[:3])), *ts[3:]), T.tensor(up)))
        for g, want in zip(got, tape.gradients(loss, ts)):
            assert g.tobytes() == want.tobytes()

    def test_sweep_frees_what_backward_read(self):
        x = T.tensor(rng(42).normal(size=(4,)), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            h = T.gelu(x)
            loss = T.reduce_sum(T.mul(h, h))
            ref = weakref.ref(h.data)
            del h
        assert ref() is not None  # mul's backward reads it
        (g,) = tape.gradients(loss, [x])
        assert ref() is None
        assert len(tape._nodes) == 3
        assert g.shape == (4,)

    @pytest.mark.parametrize("first, second", [("gradients", "gradients"), ("backward", "gradients"),
                                               ("gradients", "backward")])
    def test_second_sweep_raises(self, first, second):
        x = T.tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        sweep = {"gradients": lambda: tape.gradients(loss, [x]), "backward": lambda: tape.backward(loss)}
        sweep[first]()
        with pytest.raises(ContractError):
            sweep[second]()

    def test_outer_tensor_is_a_leaf_of_the_inner_tape(self):
        x = T.tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        with T.Tape() as outer:
            a = T.mul(x, x)
            with T.Tape() as inner:
                b = T.mul(a, T.tensor(np.array(5.0)))
            assert inner._nodes[0][0] == (a, None)
            inner.backward(b)
            (go,) = outer.gradients(a, [x])
        assert a.grad == 5.0 and x.grad is None
        assert go == 6.0

    def test_gradient_of_an_intermediate(self):
        x = T.tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            h = T.mul(x, 3.0)
            loss = T.reduce_sum(T.mul(h, h))
        gh, gx = tape.gradients(loss, [h, x])
        assert np.array_equal(gh, [6.0, 12.0]) and np.array_equal(gx, [18.0, 36.0])
