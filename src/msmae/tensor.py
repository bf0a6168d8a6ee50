"""Dense tensors with reverse-mode automatic differentiation.

Define-by-run: while a Tape is active (``with Tape() as tape:``), every
primitive that touches a tensor requiring gradients appends a node to the
tape's execution record. ``tape.gradients(loss, wrt)`` walks that record in
exact reverse order and accumulates gradients additively, so two runs on
identical inputs produce bit-identical gradients.

A node keeps its parents' keys and its vjp closure, never its output, and
each closure keeps only the arrays its backward reads, so an activation no
backward needs dies when the caller drops it. A parent recorded on the same
tape is keyed by its node index; a parameter, or a tensor from an outer
tape, is held as a leaf. A tape is swept once, freeing each node's record
as it goes; nothing refers back to a tape, so no cyclic collection is needed.

Tensors hold a numpy array (row-major). Precision is whatever dtype the
caller creates them with: models train in float32, gradient tests run in
float64. Outside a tape every op is a plain numpy computation.

The stack of active tapes is one module-level list: the program runs on
one thread, and nested tapes record on the innermost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

# tanh-approximation constants, fixed so the formula is reproducible bit-for-bit:
# gelu(x) = 0.5 * x * (1 + tanh(GELU_C0 * (x + GELU_C1 * x^3)))
GELU_C0 = math.sqrt(2.0 / math.pi)  # 0.7978845608028654
GELU_C1 = 0.044715

_TAPES = []  # active tapes, innermost last
_SERIALS = itertools.count()  # one per Tape, so a tensor can name the tape that recorded it


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None  # (tape serial, node index) once a tape records it

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
    construction (an operand always exists before its consumer). The one
    backward sweep visits them in exact reverse order, leaving each spent.
    """

    def __init__(self):
        self._serial = next(_SERIALS)
        # (parent keys, vjp), None once spent; vjp(g) -> per-parent grads. A key
        # is a node index, a leaf tensor, or None for a parent needing no grad.
        self._nodes = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def _key(self, t):
        node = t.node
        return node[1] if node is not None and node[0] == self._serial else t

    def _record(self, out, parents, vjp):
        keys = tuple(self._key(p) if p.requires_grad else None for p in parents)
        out.requires_grad = True
        out.node = (self._serial, len(self._nodes))
        self._nodes.append((keys, vjp))

    def _flow(self, loss, keep=()):
        """The one reverse sweep; returns {key: grad array}.

        Only leaves and the node indices in keep keep their gradients: any
        other node's gradient, and its record, are dropped once visited.
        """
        if not isinstance(loss, Tensor):
            raise ContractError("backward expects a Tensor loss")
        if loss.data.ndim != 0:
            raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        start = self._key(loss)
        if start is loss:
            raise ContractError("loss tensor was not produced on this tape")
        nodes = self._nodes
        if nodes[0] is None:
            raise ContractError("this tape was already swept; record the forward pass again")
        grads = {start: np.ones((), dtype=loss.data.dtype)}
        for j in range(start, -1, -1):
            keys, vjp = nodes[j]
            nodes[j] = None
            g = grads.get(j) if j in keep else grads.pop(j, None)
            if g is None:
                continue
            for key, pg in zip(keys, vjp(g)):
                if key is None or pg is None:
                    continue
                held = grads.get(key)
                # never in-place: contributions may be views of downstream grads
                grads[key] = pg if held is None else held + pg
        return grads

    def backward(self, loss):
        """Accumulate d(loss)/d(t) into t.grad for every leaf t the loss
        depends on. Sweeps the tape, so it runs once per tape."""
        for t, g in self._flow(loss).items():
            g = np.ascontiguousarray(g)
            t.grad = g if t.grad is None else t.grad + g

    def gradients(self, loss, wrt):
        """Gradients for the given tensors, without touching .grad buffers.

        Returns one array per entry of wrt; zeros where loss does not depend
        on the tensor. Sweeps the tape, so it runs once per tape.
        """
        keys = [self._key(t) for t in wrt]
        flow = self._flow(loss, keep={k for k in keys if not isinstance(k, Tensor)})
        out = []
        for t, k in zip(wrt, keys):
            g = flow.get(k)
            out.append(np.ascontiguousarray(g) if g is not None else np.zeros_like(t.data))
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
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), vjp)


def mul(a, b):
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data * b.data
    # each factor's data is kept only for the other operand's gradient
    sa, sb = a.data.shape, b.data.shape
    da = a.data if b.requires_grad else None
    db = b.data if a.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g * db, sa) if db is not None else None
        gb = _unbroadcast(g * da, sb) if da is not None else None
        return ga, gb

    return _make(data, (a, b), vjp)


def matmul(a, b):
    """Matrix product (m, k) @ (k, n). Gradients: da = g @ b^T, db = a^T @ g."""
    a = as_tensor(a)
    b = as_tensor(b)
    da, db = a.data, b.data
    if da.ndim != 2 or db.ndim != 2 or da.shape[1] != db.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {da.shape} x {db.shape}")
    data = da @ db

    def vjp(g):
        return g @ db.T, da.T @ g

    return _make(data, (a, b), vjp)


def linear(x, w, b):
    """x @ w + b as one node: an (N, k) input, a (k, n) weight, an (n,) bias.

    Values and gradients are bit-identical to add(matmul(x, w), b). The bias
    is added in place to the product, so no intermediate stays on the tape,
    and the input's gradient is computed only when the input needs one.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    dx, dw = x.data, w.data
    if dx.ndim != 2 or dw.ndim != 2 or dx.shape[1] != dw.shape[0] or b.data.shape != dw.shape[1:]:
        raise ShapeError(f"linear shapes incompatible: {dx.shape} x {dw.shape} + {b.data.shape}")
    data = dx @ dw
    data += b.data
    x_grad = x.requires_grad

    def vjp(g):
        return g @ dw.T if x_grad else None, dx.T @ g, g.sum(axis=0)

    return _make(data, (x, w, b), vjp)


def _gelu(d, slope):
    """gelu of the array d, and with slope its local slope: the one formula
    that gelu and mlp share, so both give the same bits.

    The slope is 0.5*(1 + t) + 0.5*d*(1 - t*t)*GELU_C0*(1 + 3*GELU_C1*d*d)
    with t the tanh, computed in four buffers but in that expression's
    operation order. Returns (values, slope or None).
    """
    # the tanh argument GELU_C0*(d + GELU_C1*d*d*d) in one buffer, in that
    # expression's operation order
    t = np.multiply(GELU_C1, d, out=np.empty_like(d))
    t *= d
    t *= d
    np.add(d, t, out=t)
    t *= GELU_C0
    np.tanh(t, out=t)
    buf = np.multiply(t, t) if slope else None  # t*t, before t becomes 1 + t
    t += 1.0
    data = 0.5 * d
    data *= t
    if not slope:
        return data, None
    np.subtract(1.0, buf, out=buf)
    local = 0.5 * d
    local *= buf
    local *= GELU_C0
    np.multiply(3.0 * GELU_C1, d, out=buf)  # 1 + 3*GELU_C1*d*d
    buf *= d
    buf += 1.0
    local *= buf
    t *= 0.5
    local += t
    return data, local


def gelu(x):
    """gelu(x) = 0.5*x*(1 + tanh(GELU_C0*(x + GELU_C1*x^3))), tanh approximation."""
    x = as_tensor(x)
    taped = _active_tape() is not None and x.requires_grad
    # the vjp holds only the slope, so the input and the tanh can die
    data, local = _gelu(x.data, taped)
    if not taped:
        return Tensor(data)

    def vjp(g):
        # a tape is swept once, so the vjp may spend the slope's buffer
        return (np.multiply(local, g, out=local),)

    return _make(data, (x,), vjp)


def mlp(x, w0, b0, w1, b1):
    """gelu(x @ w0 + b0) @ w1 + b1 as one node that holds only its input.

    Values and gradients are bit-identical to
    linear(gelu(linear(x, w0, b0)), w1, b1): the backward recomputes the
    pre-activation, the activation and the gelu slope with the same
    operations, so none of the three hidden-width arrays stays on the tape.
    """
    x, w0, b0, w1, b1 = (as_tensor(t) for t in (x, w0, b0, w1, b1))
    dx, dw0, dw1 = x.data, w0.data, w1.data
    if (dx.ndim != 2 or dw0.ndim != 2 or dw1.ndim != 2 or dx.shape[1] != dw0.shape[0]
            or b0.data.shape != dw0.shape[1:] or dw1.shape[0] != dw0.shape[1]
            or b1.data.shape != dw1.shape[1:]):
        raise ShapeError(f"mlp shapes incompatible: {dx.shape} x {dw0.shape} + {b0.data.shape}"
                         f" x {dw1.shape} + {b1.data.shape}")
    db0, x_grad = b0.data, x.requires_grad

    def hidden(slope):
        pre = dx @ dw0
        pre += db0
        return _gelu(pre, slope)

    data = hidden(False)[0] @ dw1
    data += b1.data

    def vjp(g):
        act, local = hidden(True)
        gw1 = act.T @ g
        del act
        gh = np.multiply(local, g @ dw1.T, out=local)
        return gh @ dw0.T if x_grad else None, dx.T @ gh, gh.sum(axis=0), gw1, g.sum(axis=0)

    return _make(data, (x, w0, b0, w1, b1), vjp)


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


@dataclass(frozen=True)
class Padding:
    """How B token sets, packed one after another as rows of one (N, C)
    array, map onto a padded (B, n, C) layout with n the largest set.

    real holds the flat slots, in B*n order, of the packed rows, one slot
    per row; the other slots are padding and hold zeros. real is None when
    every set has n rows, where a reshape does the mapping.
    """

    count: int
    width: int
    real: np.ndarray = None

    @classmethod
    def of(cls, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        count, width = sizes.size, int(sizes.max())
        if (sizes == width).all():
            return cls(count, width)
        filled = np.arange(width)[None, :] < sizes[:, None]
        return cls(count, width, np.flatnonzero(filled))


def _split_heads(d, heads, pad):
    """Packed (N, C) rows -> a (B, heads, n, C / heads) view of their padded layout."""
    if pad.real is not None:
        full = np.zeros((pad.count * pad.width, d.shape[1]), dtype=d.dtype)
        full[pad.real] = d
        d = full
    return d.reshape(pad.count, pad.width, heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(h, pad):
    """(B, heads, n, dh) -> the packed (N, heads * dh) rows of the real slots."""
    B, heads, n, dh = h.shape
    rows = h.transpose(0, 2, 1, 3).reshape(B * n, heads * dh)
    return rows if pad.real is None else rows[pad.real]


def _probs(qh, kh, allow, top=None, total=None):
    """softmax(qh @ kh^T / sqrt(dh)) over the keys allow admits, with each
    row's max and sum: the one computation attention's forward, its
    backward and attention_probs share, so all three give the same bits.

    Disallowed entries are exactly zero (exp(-inf)); the row max is
    subtracted first, so large scores stay finite. Given a row max top and
    sum total from an earlier call on the same inputs, it reuses them.
    Returns (probabilities, top, total).
    """
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= p.dtype.type(1.0 / math.sqrt(qh.shape[-1]))
    if allow is not None:
        np.copyto(p, -np.inf, where=~allow[:, None])
    if top is None:
        top = p.max(axis=-1, keepdims=True)
    p -= top
    np.exp(p, out=p)
    if total is None:
        total = p.sum(axis=-1, keepdims=True)
    p /= total
    return p, top, total


def attention(q, k, v, heads, pad, allow=None):
    """Multi-head self-attention within each of pad.count packed token sets,
    as one node that holds q, k, v and each row's softmax max and sum.

    q, k and v are (N, C) rows laid out by pad (a Padding); allow is a
    (B, n, n) boolean adjacency over the padded slots, or None for dense
    attention, which needs sets that fill the layout. Each head mixes its
    values with softmax(q k^T / sqrt(C / heads)) over the allowed keys; a
    row with no allowed key is an error, never a silent uniform. Returns
    the heads' outputs as packed (N, C) rows. The backward recomputes
    the probabilities with _probs, so no (B, heads, n, n) array stays on
    the tape; the kept max and sum spare it two row reductions.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dq, dk, dv = q.data, k.data, v.data
    B, n = pad.count, pad.width
    rows = B * n if pad.real is None else pad.real.size
    if (dq.ndim != 2 or not dq.shape == dk.shape == dv.shape or dq.shape[0] != rows or dq.shape[1] % heads
            or allow is not None and allow.shape != (B, n, n)):
        raise ShapeError(f"attention wants {rows} rows of a width {heads} heads split and a ({B}, {n}, {n}) "
                         f"allow, got q {dq.shape}, k {dk.shape}, v {dv.shape}, "
                         f"allow {None if allow is None else allow.shape}")
    if allow is None:
        if pad.real is not None:
            raise ContractError("dense attention over padded token sets would attend to padding")
    elif not allow.any(axis=-1).all():
        raise ContractError("attention: a row has no allowed entries")
    p, top, total = _probs(_split_heads(dq, heads, pad), _split_heads(dk, heads, pad), allow)
    data = _merge_heads(p @ _split_heads(dv, heads, pad), pad)

    def vjp(g):
        qh, kh, vh = (_split_heads(d, heads, pad) for d in (dq, dk, dv))
        p = _probs(qh, kh, allow, top, total)[0]
        g = _split_heads(g, heads, pad)
        gv = p.swapaxes(-1, -2) @ g
        gs = g @ vh.swapaxes(-1, -2)  # through the softmax: p * (gs - rowsum(gs * p))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        del p
        gs *= gs.dtype.type(1.0 / math.sqrt(qh.shape[-1]))
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return _merge_heads(gs @ kh, pad), _merge_heads(gk, pad), _merge_heads(gv, pad)

    return _make(data, (q, k, v), vjp)


def attention_probs(q, k, heads, pad, allow=None):
    """The (B, heads, n, n) probabilities attention(q, k, v, heads, pad,
    allow) mixes values with, by the same computation."""
    return _probs(_split_heads(as_tensor(q).data, heads, pad),
                  _split_heads(as_tensor(k).data, heads, pad), allow)[0]


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


def scatter_add(buf, index, rows):
    """buf[index[i]] += rows[i] for every i, in place; returns buf.

    Duplicate targets accumulate in index order, so every row of buf gets
    the same float operations, and bytes, as ufunc.at of np.add does.
    The index is stable-sorted once; pass r then adds the r-th occurrence
    of every target that still has one with a single fancy-indexed +=.
    """
    idx = np.asarray(index).reshape(-1)
    if idx.size == 0:
        return buf
    rows = np.asarray(rows).reshape((idx.size,) + buf.shape[1:])
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    pos = np.flatnonzero(np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1])))
    end = np.append(pos[1:], idx.size)  # one past each target's last occurrence
    while pos.size:
        buf[sorted_idx[pos]] += rows[order[pos]]
        pos = pos + 1
        left = pos < end
        pos, end = pos[left], end[left]
    return buf


def _check_index(index, n, what):
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu":
        raise ContractError(f"{what} index must be integer")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"{what} index out of range for {n} rows")
    return idx


def gather(x, index):
    """Select rows of x by an integer index table.

    Output shape is index.shape + x.shape[1:]. Gradient scatters additively
    (scatter_add), so duplicate indices accumulate.
    """
    x = as_tensor(x)
    idx = _check_index(index, x.data.shape[0], "gather")
    data = x.data[idx]
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        return (scatter_add(np.zeros(shape, dtype), idx, g),)

    return _make(data, (x,), vjp)


def _group_size(x, num_segments):
    n = x.data.shape[0]
    if num_segments < 1 or n == 0 or n % num_segments:
        raise ContractError(f"{n} rows do not split into {num_segments} non-empty equal groups")
    return n // num_segments


def segment_max(x, num_segments):
    """Per-group max over num_segments equal groups of leading-axis rows,
    laid out as k contiguous blocks of num_segments rows: row j*num_segments + i
    is member j of group i.

    Gradient routes to the first maximal member of each group per channel;
    the tape keeps only that member's number, in the narrowest integer type.
    """
    x = as_tensor(x)
    k = _group_size(x, num_segments)
    d = x.data
    blocks = d.reshape((k, num_segments) + d.shape[1:])
    data = blocks.max(axis=0)
    if _active_tape() is None or not x.requires_grad:
        return Tensor(data)
    # a group's first maximal member is the number of members before it,
    # each unequal to the max; k passes over contiguous blocks, no argmax
    arg = np.zeros(data.shape, dtype=np.min_scalar_type(k - 1))
    leading = np.ones(data.shape, dtype=bool)
    for j in range(k - 1):
        leading &= blocks[j] != data
        arg += leading
    shape, dtype = d.shape, d.dtype

    def vjp(g):
        at = arg.astype(np.intp)  # flat position of each routed member
        at *= arg.size
        at += np.arange(arg.size).reshape(arg.shape)
        buf = np.zeros(shape, dtype)
        np.put(buf, at, g)
        return (buf,)

    return _make(data, (x,), vjp)


def segment_mean(x, num_segments):
    """Per-group mean over num_segments equal contiguous groups of leading-axis rows."""
    x = as_tensor(x)
    k = _group_size(x, num_segments)
    d = x.data
    # reduceat, not reshape(...).sum(axis=1): the two round differently,
    # and seeded runs keep reduceat's bits
    size = d.dtype.type(k)
    data = np.add.reduceat(d, np.arange(0, d.shape[0], k), axis=0) / size

    def vjp(g):
        return (np.repeat(g / size, k, axis=0),)

    return _make(data, (x,), vjp)


def reshape(x, shape):
    x = as_tensor(x)
    data = x.data.reshape(shape)
    before = x.data.shape

    def vjp(g):
        return (g.reshape(before),)

    return _make(data, (x,), vjp)


def reduce_sum(x, axis=None, keepdims=False):
    """Sum over an axis (or everything, yielding a 0-d scalar)."""
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

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
        return (gl * (g / rows.size),)

    return _make(data, (logits,), vjp)
