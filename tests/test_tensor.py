"""Gradient and contract tests for the autodiff core.

Every differentiable primitive is checked against central finite
differences in float64. The comparison is relative with an absolute
fallback near zero: |ad - fd| <= tol * max(1, |fd|).
"""

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
            T.mul(x, 0.5)
        _, _, vjp = tape._nodes[-1]
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
        r = rng(5)
        fd_check(lambda a, b: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))),
                 [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2))])

    def test_stacked_both(self):
        r = rng(6)
        fd_check(lambda a, b: T.reduce_sum(T.matmul(a, b)),
                 [r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 3))])

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
    @pytest.mark.parametrize("lead", [(5,), (3, 5)])
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

    def test_stacked_grad(self):
        r = rng(33)
        fd_check(lambda x, w, b: T.reduce_sum(T.mul(T.linear(x, w, b), T.linear(x, w, b))),
                 [r.normal(size=(2, 3, 4)), r.normal(size=(4, 2)), r.normal(size=(2,))])

    @pytest.mark.parametrize("shapes", [((3, 4), (5, 2), (2,)), ((3, 4), (4, 2), (3,)),
                                        ((4,), (4, 2), (2,)), ((3, 4), (2, 4, 2), (2,))])
    def test_shape_errors(self, shapes):
        with pytest.raises(ShapeError):
            T.linear(*[T.tensor(np.zeros(s)) for s in shapes])


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


class TestMaskedSoftmax:
    def test_disallowed_exactly_zero(self):
        r = rng(9)
        logits = r.normal(size=(4, 6)) * 10
        allow = r.random((4, 6)) > 0.4
        allow[:, 0] = True  # keep every row valid
        p = T.masked_softmax(T.tensor(logits), allow).data
        assert (p[~allow] == 0.0).all()
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p[allow] > 0).all()

    def test_large_logits_stable(self):
        logits = np.array([[1e4, 1e4 - 1.0, -1e4]])
        allow = np.array([[True, True, False]])
        p = T.masked_softmax(T.tensor(logits), allow).data
        assert np.isfinite(p).all()
        assert p[0, 2] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_reference_expression(self, dtype):
        r = rng(33)
        d = (5.0 * r.normal(size=(2, 3, 8, 8))).astype(dtype)
        allow = r.random((2, 1, 8, 8)) > 0.5
        allow |= np.eye(8, dtype=bool)
        mask = np.broadcast_to(allow, d.shape)
        m = np.where(mask, d, -np.inf).max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(np.where(mask, d - m, 0.0)), 0.0)
        masked = e / e.sum(axis=-1, keepdims=True)
        e = np.exp(d - d.max(axis=-1, keepdims=True))
        dense = e / e.sum(axis=-1, keepdims=True)
        for got, want in ((T.masked_softmax(T.tensor(d), allow).data, masked),
                          (T.masked_softmax(T.tensor(d)).data, dense)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_all_disallowed_row_raises(self):
        with pytest.raises(ContractError):
            T.masked_softmax(T.tensor(np.zeros((2, 3))), np.zeros((2, 3), dtype=bool))

    def test_grad(self):
        r = rng(10)
        allow = r.random((3, 5)) > 0.3
        allow[:, 2] = True
        w = r.normal(size=(3, 5))
        fd_check(lambda x: T.reduce_sum(T.mul(T.masked_softmax(x, allow), T.tensor(w))),
                 [r.normal(size=(3, 5))])

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        n, k = int(r.integers(1, 6)), int(r.integers(1, 7))
        allow = r.random((n, k)) > 0.5
        allow[np.arange(n), r.integers(0, k, size=n)] = True
        p = T.masked_softmax(T.tensor(r.normal(size=(n, k)) * 5), allow).data
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p[~allow] == 0).all()


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

    def test_scatter_forward(self):
        x = T.tensor(np.arange(6.0).reshape(3, 2))
        out = T.scatter(x, np.array([4, 0, 2]), 5).data
        assert np.array_equal(out, [[2.0, 3.0], [0.0, 0.0], [4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])

    def test_scatter_grad(self):
        r = rng(42)
        idx = np.array([3, 0, 5, 1])
        w = r.normal(size=(7, 2))
        fd_check(lambda x: T.reduce_sum(T.mul(T.scatter(x, idx, 7), T.tensor(w))),
                 [r.normal(size=(4, 2))])

    def test_scatter_rejects_bad_index(self):
        x = T.tensor(np.zeros((3, 2)))
        with pytest.raises(ContractError):
            T.scatter(x, np.array([0, 2, 0]), 4)  # repeats a row
        with pytest.raises(ContractError):
            T.scatter(x, np.array([0, 1, 4]), 4)
        with pytest.raises(ShapeError):
            T.scatter(x, np.array([0, 1]), 4)


class TestSegments:
    def test_segment_max_uniform(self):
        x = T.tensor(np.array([[1.0, 0.0], [5.0, -1.0], [2.0, 9.0], [7.0, 3.0]]))
        out = T.segment_max(x, 2)
        assert np.array_equal(out.data, np.array([[5.0, 0.0], [7.0, 9.0]]))

    def test_segment_max_grad_routes_to_first_argmax(self):
        x = T.tensor(np.array([[2.0], [2.0], [1.0]]), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.reduce_sum(T.segment_max(x, 1))
        tape.backward(y)
        assert np.array_equal(x.grad, np.array([[1.0], [0.0], [0.0]]))

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
    def test_reshape_transpose_grad(self):
        r = rng(16)
        w = r.normal(size=(4, 3, 2))
        fd_check(lambda x: T.reduce_sum(T.mul(T.transpose(T.reshape(x, (2, 3, 4)), (2, 1, 0)), T.tensor(w))),
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
        import weakref
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
