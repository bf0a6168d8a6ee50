"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: while a Tape is active (``with Tape() as tape:``), every
primitive that touches a tensor requiring gradients appends a node to the
tape's execution record. ``tape.gradients(loss, wrt)`` walks that record in
exact reverse order and accumulates gradients additively, so two runs on
identical inputs produce bit-identical gradients.

A tape holds its recorded tensors and nothing refers back to it, so a
finished tape and every activation it holds are freed as soon as the
caller drops the tape, without waiting for the cyclic collector.

Tensors hold a numpy array (row-major). Precision is whatever dtype the
caller creates them with: models train in float32, gradient tests run in
float64. Outside a tape every op is a plain numpy computation.

A tape and the tensors it records are confined to one thread; the active
tape stack is thread-local.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractError, ShapeError

# tanh-approximation constants, fixed so the formula is reproducible bit-for-bit:
# gelu(x) = 0.5 * x * (1 + tanh(GELU_C0 * (x + GELU_C1 * x^3)))
GELU_C0 = math.sqrt(2.0 / math.pi)  # 0.7978845608028654
GELU_C1 = 0.044715

_STATE = threading.local()


def _tape_stack():
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Nodes are appended in execution order, which is a topological order by
    construction (an operand always exists before its consumer). backward()
    visits them in exact reverse order.
    """

    def __init__(self):
        self._nodes = []  # (out, parents, vjp); vjp(g) -> per-parent grads
        self._out_ids = set()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def _record(self, out, parents, vjp):
        out.requires_grad = True
        self._nodes.append((out, parents, vjp))
        self._out_ids.add(id(out))

    def _flow(self, loss, keep=None):
        """Reverse pass; returns {id(tensor): (tensor, grad array)}.

        With keep, a set of tensor ids, the gradient of any other recorded
        output is dropped once its node has been visited, so intermediate
        gradients do not all stay alive until the sweep ends.
        """
        if not isinstance(loss, Tensor):
            raise ContractError("backward expects a Tensor loss")
        if loss.data.ndim != 0:
            raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        if id(loss) not in self._out_ids:
            raise ContractError("loss tensor was not produced on this tape")
        grads = {id(loss): np.ones((), dtype=loss.data.dtype)}
        tensors = {id(loss): loss}
        for out, parents, vjp in reversed(self._nodes):
            g = grads.get(id(out))
            if g is None:
                continue
            contribs = vjp(g)
            for parent, pg in zip(parents, contribs):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                held = grads.get(key)
                # never in-place: contributions may be views of downstream grads
                grads[key] = pg if held is None else held + pg
                tensors[key] = parent
            if keep is not None and id(out) not in keep:
                del grads[id(out)]
        return {k: (tensors[k], grads[k]) for k in grads}

    def backward(self, loss):
        """Accumulate d(loss)/d(t) into t.grad for every tensor reachable from loss."""
        for t, g in self._flow(loss).values():
            g = np.ascontiguousarray(g)
            t.grad = g if t.grad is None else t.grad + g

    def gradients(self, loss, wrt):
        """Gradients for the given tensors, without touching .grad buffers.

        Returns one array per entry of wrt; zeros where loss does not depend
        on the tensor.
        """
        flow = self._flow(loss, keep={id(t) for t in wrt})
        out = []
        for t in wrt:
            hit = flow.get(id(t))
            out.append(np.ascontiguousarray(hit[1]) if hit is not None else np.zeros_like(t.data))
        return out


def tensor(data, requires_grad=False, dtype=None):
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, vjp):
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out = Tensor(data)
        tape._record(out, parents, vjp)
        return out
    return Tensor(data)


def apply_op(data, parents, vjp):
    """Extension point: record a custom primitive on the active tape.

    ``parents`` are the Tensor operands; ``vjp(g)`` must return one gradient
    array (or None) per parent. Other modules use this to add domain
    primitives (e.g. the Chamfer loss) without reaching into tape internals.
    """
    return _make(np.asarray(data), tuple(parents), vjp)


def _unbroadcast(g, shape):
    """Sum g down to `shape` after a broadcast op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    """Elementwise sum with numpy broadcasting (covers bias/positional adds)."""
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), vjp)


def sub(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(data, (a, b), vjp)


def matmul(a, b):
    """Matrix product.

    Accepts (m,k) @ (k,n), a stacked (..., m, k) @ (k, n) against a shared
    right factor, or two stacked operands with identical leading dims.
    Gradients: da = g @ b^T, db = a^T @ g (summed over stacking for a shared b).
    """
    a = as_tensor(a)
    b = as_tensor(b)
    da, db = a.data, b.data
    if da.ndim < 2 or db.ndim < 2:
        raise ShapeError(f"matmul needs 2-d operands, got {da.shape} x {db.shape}")
    if db.ndim == 2:
        if da.shape[-1] != db.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {da.shape} x {db.shape}")
        data = da @ db

        def vjp(g):
            ga = g @ db.T
            gb = da.reshape(-1, da.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb

        return _make(data, (a, b), vjp)
    if da.ndim == db.ndim and da.shape[:-2] == db.shape[:-2] and da.shape[-1] == db.shape[-2]:
        data = da @ db

        def vjp(g):
            return g @ db.swapaxes(-1, -2), da.swapaxes(-1, -2) @ g

        return _make(data, (a, b), vjp)
    raise ShapeError(f"matmul shapes incompatible: {da.shape} x {db.shape}")


def linear(x, w, b):
    """x @ w + b as one node: a (..., k) input, a (k, n) weight, an (n,) bias.

    Values and gradients are bit-identical to add(matmul(x, w), b). The bias
    is added in place to the product, so no intermediate stays on the tape,
    and the input's gradient is computed only when the input needs one.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    dx, dw = x.data, w.data
    if dx.ndim < 2 or dw.ndim != 2 or dx.shape[-1] != dw.shape[0] or b.data.shape != dw.shape[1:]:
        raise ShapeError(f"linear shapes incompatible: {dx.shape} x {dw.shape} + {b.data.shape}")
    data = dx @ dw
    data += b.data

    def vjp(g):
        gx = g @ dw.T if x.requires_grad else None
        gw = dx.reshape(-1, dx.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return gx, gw, _unbroadcast(g, b.data.shape)

    return _make(data, (x, w, b), vjp)


def gelu(x):
    """gelu(x) = 0.5*x*(1 + tanh(GELU_C0*(x + GELU_C1*x^3))), tanh approximation."""
    x = as_tensor(x)
    d = x.data
    t = np.tanh(GELU_C0 * (d + GELU_C1 * d * d * d))
    data = 0.5 * d * (1.0 + t)

    def vjp(g):
        # g * (0.5*(1 + t) + 0.5*d*(1 - t*t)*GELU_C0*(1 + 3*GELU_C1*d*d)), in
        # place but in that expression's operation order, so in the same bits
        inner = (3.0 * GELU_C1) * d
        inner *= d
        inner += 1.0
        local = 0.5 * d
        buf = t * t
        np.subtract(1.0, buf, out=buf)
        local *= buf
        local *= GELU_C0
        local *= inner
        np.add(t, 1.0, out=buf)
        buf *= 0.5
        local += buf
        local *= g
        return (local,)

    return _make(data, (x,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine.

    Variance is the biased (1/d) estimate; eps is added inside the square
    root, so a constant row maps to beta exactly.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data

    def vjp(g):
        gg = g * gamma.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _make(data, (x, gamma, beta), vjp)


def masked_softmax(logits, allow=None):
    """Softmax over the last axis restricted to allowed positions.

    Disallowed entries are exactly zero in the output; allowed entries are
    positive and sum to one per row, computed with max-subtraction. A row
    with no allowed entry is an error, never a silent uniform. allow=None
    allows every position.
    """
    logits = as_tensor(logits)
    d = logits.data
    if allow is None:
        e = np.exp(d - d.max(axis=-1, keepdims=True))
    else:
        mask = np.asarray(allow.data if isinstance(allow, Tensor) else allow, dtype=bool)
        mask = np.broadcast_to(mask, d.shape)
        if not mask.any(axis=-1).all():
            raise ContractError("masked_softmax: a row has no allowed entries")
        m = np.where(mask, d, -np.inf).max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(np.where(mask, d - m, 0.0)), 0.0)
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)), None)

    return _make(p, (logits,), vjp)


def concat(tensors, axis=-1):
    """Concatenate along an axis (the model only needs the last and first)."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of zero tensors")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tuple(ts), vjp)


def gather(x, index):
    """Select rows of x by an integer index table.

    Output shape is index.shape + x.shape[1:]. Gradient scatters additively,
    so duplicate indices accumulate.
    """
    x = as_tensor(x)
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ContractError("gather index must be integer")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"gather index out of range for {n} rows")
    data = x.data[idx]

    def vjp(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx.reshape(-1), g.reshape((idx.size,) + x.data.shape[1:]))
        return (buf,)

    return _make(data, (x,), vjp)


def _segment_prep(x, segment_ids, num_segments):
    ids = np.asarray(segment_ids)
    if ids.ndim != 1 or ids.shape[0] != x.data.shape[0]:
        raise ShapeError(f"segment ids {ids.shape} do not match leading dim of {x.data.shape}")
    if ids.size == 0:
        raise ContractError("segment pooling over an empty input")
    if np.any(np.diff(ids) < 0):
        raise ContractError("segment ids must be sorted ascending")
    if ids[0] < 0 or ids[-1] >= num_segments:
        raise ContractError("segment id outside [0, num_segments)")
    counts = np.bincount(ids, minlength=num_segments)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ContractError(f"segment {missing} is empty; empty groups are a contract error")
    return ids, counts


def segment_max(x, segment_ids, num_segments):
    """Per-group max over contiguous sorted groups of leading-axis items.

    Gradient routes to the first maximal element of each group per channel.
    """
    x = as_tensor(x)
    ids, counts = _segment_prep(x, segment_ids, num_segments)
    d = x.data
    uniform = counts.max() == counts.min()
    if uniform:
        k = int(counts[0])
        grouped = d.reshape((num_segments, k) + d.shape[1:])
        data = grouped.max(axis=1)
        arg = grouped.argmax(axis=1)

        def vjp(g):
            buf = np.zeros_like(grouped)
            np.put_along_axis(buf, np.expand_dims(arg, 1), np.expand_dims(g, 1), axis=1)
            return (buf.reshape(d.shape),)

    else:
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        data = np.maximum.reduceat(d, starts, axis=0)
        arg = np.empty((num_segments,) + d.shape[1:], dtype=np.int64)
        for s in range(num_segments):
            lo = starts[s]
            arg[s] = lo + d[lo:lo + counts[s]].argmax(axis=0)

        def vjp(g):
            buf = np.zeros_like(d)
            flat_arg = arg.reshape(num_segments, -1)
            flat_g = g.reshape(num_segments, -1)
            cols = np.arange(flat_arg.shape[1])
            np.add.at(buf.reshape(d.shape[0], -1), (flat_arg, cols), flat_g)
            return (buf,)

    return _make(data, (x,), vjp)


def segment_mean(x, segment_ids, num_segments):
    """Per-group mean over contiguous sorted groups of leading-axis items."""
    x = as_tensor(x)
    ids, counts = _segment_prep(x, segment_ids, num_segments)
    d = x.data
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    denom = counts.reshape((num_segments,) + (1,) * (d.ndim - 1)).astype(d.dtype)
    data = np.add.reduceat(d, starts, axis=0) / denom

    def vjp(g):
        return ((g / denom)[ids],)

    return _make(data, (x,), vjp)


def reshape(x, shape):
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make(data, (x,), vjp)


def transpose(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make(data, (x,), vjp)


def reduce_sum(x, axis=None, keepdims=False):
    """Sum over an axis (or everything, yielding a 0-d scalar)."""
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape),)

    return _make(data, (x,), vjp)


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy of (M,K) logits against integer labels."""
    logits = as_tensor(logits)
    lab = np.asarray(labels)
    d = logits.data
    if d.ndim != 2 or lab.shape != (d.shape[0],):
        raise ShapeError(f"cross entropy wants (M,K) logits and (M,) labels, got {d.shape} and {lab.shape}")
    if lab.min() < 0 or lab.max() >= d.shape[1]:
        raise ContractError("label outside [0, num_classes)")
    m = d.max(axis=1, keepdims=True)
    e = np.exp(d - m)
    z = e.sum(axis=1, keepdims=True)
    p = e / z
    rows = np.arange(d.shape[0])
    nll = np.log(z).reshape(-1) - (d - m)[rows, lab]
    data = np.asarray(nll.mean(), dtype=d.dtype)

    def vjp(g):
        gl = p.copy()
        gl[rows, lab] -= 1.0
        return (gl * (g / d.shape[0]),)

    return _make(data, (logits,), vjp)
