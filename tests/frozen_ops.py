"""The tape primitives and layer compositions that the fused nodes
`ad.gat_conv`, `ad.dmpnn`, `ad.set_attention` and the weighted
`ad.segment_sum` replaced, frozen verbatim as equivalence references for
the tests.

The primitives record on `ad._record` like the package's own ops, so a
composition of them runs on a `Tape` and `ad.backward` differentiates
it; their backwards take only the output's gradient, and the local
`_record` hands them to the tape as `grad_fn(g, needed)`. `mul` is the
broadcasting version: an operand of total size 1 against any tensor, a
(k,) vector against the rows of a (B, k) matrix, and an (N, 1) column
against the columns of an (N, k) matrix. `segment_sum` is
the unweighted one. The compositions are the layer bodies as they stood
before the fusion, with these primitives in place of the deleted `ad.`
ones; the attention scale reads d_k off `wq`. Not a test module: pytest
does not collect it.
"""

import math

import numpy as np

from molsets import autodiff as ad
from molsets.autodiff import DimensionError, Tensor, coo_to_dense
from molsets.gnn import GAT_LEAKY_SLOPE, ConvParams, GraphTensors


def _record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    return ad._record(out, inputs, lambda g, needed: grad_fn(g))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if np.prod(shape) == 1:
        return np.asarray(g.sum()).reshape(shape)
    if len(shape) == 1:
        return g.sum(axis=0)  # a (k,) row spread over (B, k)
    return g.sum(axis=1, keepdims=True)  # an (N, 1) column spread over (N, k)


def _broadcasts(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """b spreads over a: (k,) over the rows of (B, k), (N, 1) over (N, k)."""
    return len(a) == 2 and (b == (a[1],) or b == (a[0], 1))


def _binary(a: Tensor, b: Tensor, name: str, fwd, grad_fn) -> Tensor:
    av, bv = a.data, b.data
    sa, sb = av.shape, bv.shape
    if not (
        sa == sb or av.size == 1 or bv.size == 1 or _broadcasts(sa, sb) or _broadcasts(sb, sa)
    ):
        raise DimensionError(f"{name} shapes {sa} and {sb} do not match")
    out = Tensor(fwd(av, bv))

    def grad(g):
        ga, gb = grad_fn(g, av, bv)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return _record(out, (a, b), grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, av, bv: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, av, bv: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, av, bv: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    av = a.data
    out = Tensor(np.maximum(av, 0.0))
    return _record(out, (a,), lambda g: (g * (av > 0.0),))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    av = a.data
    out = Tensor(np.where(av > 0.0, av, slope * av))
    return _record(out, (a,), lambda g: (g * np.where(av > 0.0, 1.0, slope),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.data, b.data
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul shapes {av.shape} and {bv.shape} are incompatible")
    out = Tensor(av @ bv)
    return _record(out, (a, b), lambda g: (g @ bv.T, av.T @ g))


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax of a 1-D tensor."""
    xv = x.data
    if xv.ndim != 1:
        raise DimensionError(f"softmax expects a 1-D tensor, got shape {xv.shape}")
    shifted = np.exp(xv - xv.max())
    y = shifted / shifted.sum()
    out = Tensor(y)

    def grad(g):
        return (y * (g - float(np.dot(g, y))),)

    return _record(out, (x,), grad)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    xv = x.data
    out = Tensor(xv.sum(axis=axis))

    def grad(g):
        if axis is None:
            return (np.broadcast_to(g, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy(),)

    return _record(out, (x,), grad)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    xv = x.data
    n = xv.size if axis is None else xv.shape[axis]
    out = Tensor(xv.mean(axis=axis))

    def grad(g):
        if axis is None:
            return (np.broadcast_to(g / n, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, xv.shape).copy(),)

    return _record(out, (x,), grad)


def segment_sum(x: Tensor, segment, n_segments: int) -> Tensor:
    """Rows of x summed within segments: row s of the (n_segments, ...)
    result adds the rows whose id is s, in order; an empty segment is zero."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    if xv.ndim not in (1, 2) or seg.shape != xv.shape[:1]:
        raise DimensionError(f"segment_sum shapes {xv.shape} and {seg.shape} differ")
    out = Tensor(ad._scatter_rows(xv, seg, n_segments))
    return _record(out, (x,), lambda g: (g[seg],))


def coo_matrix(values: Tensor, rows, cols, shape: tuple[int, int]) -> Tensor:
    """coo_to_dense of a 1-D tensor; a value's gradient is g at its entry."""
    vv, r, c = values.data, np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if vv.ndim != 1 or r.shape != vv.shape or c.shape != vv.shape:
        raise DimensionError(f"coo_matrix entry shapes {vv.shape}, {r.shape}, {c.shape} differ")
    out = Tensor(coo_to_dense(vv, r, c, shape))
    return _record(out, (values,), lambda g: (g[r, c],))


def segment_softmax(x: Tensor, segment, n_segments: int) -> Tensor:
    """Softmax of a 1-D tensor within segments: entries sharing an id in
    [0, n_segments) sum to 1. Each segment is shifted by its own maximum."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    if xv.ndim != 1 or seg.shape != xv.shape:
        raise DimensionError(f"segment_softmax shapes {xv.shape} and {seg.shape} differ")
    peak = np.full(n_segments, -np.inf)
    np.maximum.at(peak, seg, xv)
    shifted = np.exp(xv - peak[seg])
    y = shifted / np.bincount(seg, shifted, n_segments)[seg]
    out = Tensor(y)
    return _record(out, (x,), lambda g: (y * (g - np.bincount(seg, g * y, n_segments)[seg]),))


def gat_composition(params: ConvParams, x: Tensor, gt: GraphTensors) -> Tensor:
    """One GAT layer without its ReLU, as primitives."""
    out_dim = params.w1.shape[1]
    xw1 = matmul(x, params.w1)
    xw2 = matmul(x, params.w2)
    a_col = ad.reshape(params.att, (2 * out_dim, 1))
    s1 = matmul(xw1, ad.rows(a_col, range(out_dim)))  # (n, 1)
    s2 = matmul(xw2, ad.rows(a_col, range(out_dim, 2 * out_dim)))  # (n, 1)

    # Self loops, then the directed edges. A self term reads row i of
    # [x W1; x W2], a neighbour term row n + j.
    loops = np.arange(gt.n)
    dst, src = np.concatenate([loops, gt.dst]), np.concatenate([loops, gt.src])
    logits = leaky_relu(add(ad.rows(s1, dst), ad.rows(s2, src)), GAT_LEAKY_SLOPE)
    alpha = segment_softmax(ad.reshape(logits, (dst.size,)), dst, gt.n)
    value_row = np.concatenate([loops, gt.n + gt.src])
    weights = coo_matrix(alpha, dst, value_row, (gt.n, 2 * gt.n))
    return matmul(weights, ad.concat([xw1, xw2], axis=0))


def dmpnn_composition(params: ConvParams, x: Tensor, gt: GraphTensors, iterations: int) -> Tensor:
    """Directed message passing on edge states, then a node readout.

    The message into edge e (u -> v) sums the states of the edges ending
    at u except e's reverse: all incoming states of u, gathered at e,
    minus the state of edge e ^ 1 (as in chemprop).
    """
    edge_feat = Tensor(gt.w[:, None])
    reverse = np.arange(gt.src.size) ^ 1
    h0 = relu(matmul(ad.concat([ad.rows(x, gt.src), edge_feat], axis=1), params.w_in))
    h = h0
    for _ in range(iterations):
        incoming = segment_sum(h, gt.dst, gt.n)
        msg = sub(ad.rows(incoming, gt.src), ad.rows(h, reverse))
        h = relu(add(h0, matmul(msg, params.w_h)))
    summed = segment_sum(h, gt.dst, gt.n)  # incoming-edge state sum per node
    return relu(matmul(ad.concat([x, summed], axis=1), params.w_out))


def attention_composition(
    attention, z: Tensor, weights, segment, n_sets: int
) -> Tensor:
    """Attention-weighted aggregation of a batch of molecule sets.

    Row i of z (N, d) belongs to set segment[i] with weight fraction
    weights[i]. Each row gets a scalar logit q.k / sqrt(d_k); a softmax
    within its set scales its value vector, and each set sums its scaled
    values weighted by weight fraction. Returns (n_sets, d); every row is
    independent of the order of its set's members (up to float roundoff).
    """
    seg = np.asarray(segment, dtype=np.intp)
    if n_sets < 1 or np.bincount(seg, minlength=n_sets).min() < 1:
        raise ValueError("cannot aggregate an empty mixture set")
    n = seg.size
    q = matmul(z, attention.wq)
    k = matmul(z, attention.wk)
    v = matmul(z, attention.wv)
    logits = scale(reduce_sum(mul(q, k), axis=1), 1.0 / math.sqrt(attention.wq.data.shape[1]))
    scores = ad.reshape(segment_softmax(logits, seg, n_sets), (n, 1))
    weighted = mul(mul(v, scores), Tensor(np.reshape(weights, (n, 1))))
    return segment_sum(weighted, seg, n_sets)


def wsum_composition(table: Tensor, slot_graph, slot_weight, segment, n_sets: int) -> Tensor:
    """The wsum aggregation: the slot rows of the embedding table, each
    scaled by its weight fraction, summed within their sets."""
    z = ad.rows(table, slot_graph)
    return segment_sum(mul(z, Tensor(slot_weight[:, None])), segment, n_sets)
