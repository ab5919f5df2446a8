"""Dense float64 tensors with reverse-mode gradient recording.

Operations compute eagerly with numpy. While a Tape is active (used as a
context manager), every operation is recorded so that `backward` can
accumulate gradients in reverse order. Tapes are thread-confined: each
thread sees only its own active tape, so independent forward/backward
passes may run concurrently. No op broadcasts except `affine`, which
adds its bias to every row.

Every model layer is one node with a hand-written backward, its ReLU
included: `affine` (dense), `graph_conv` (graphconv, sageconv, gcnconv),
`gat_conv` (GAT), `dmpnn` (all DMPNN iterations and the readout),
`segment_mean` (mean pooling), `set_attention` (attention aggregation),
`segment_sum` (the weighted sum of the wsum ablation) and `mse` (the
loss). Each evaluates the numpy expressions of the primitive composition
it stands for, in the same order, so its value and gradients are
bit-identical to that composition's.

Every node's backward is `grad_fn(g, needed)`: the gradient of the
node's output and one flag per input, false for a constant input (one
neither produced on the tape nor watched: node features, targets). It
returns one entry per input; `backward` drops a constant input's, and
`graph_conv`, `gat_conv`, `dmpnn` and `set_attention` never form it.
Arguments passed as ndarrays (operators, edge lists, weight fractions)
are not tape inputs at all.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class Tensor:
    __slots__ = ("data", "tape")

    def __init__(self, data, tape=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        """The one value of a size-1 tensor, whatever its shape."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a tensor of one value, got shape {self.data.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


_LOCAL = threading.local()


def _active_tape():
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Records operations for one forward pass; discarded after backward."""

    def __init__(self):
        # (output, inputs, grad_fn); see the module docstring for grad_fn.
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._watched: list[Tensor] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _LOCAL.stack.pop()

    def __len__(self) -> int:
        """Number of operations recorded so far."""
        return len(self._nodes)

    def watch(self, *tensors: Tensor) -> None:
        """Register parameters so backward reports them even when untouched."""
        self._watched.extend(tensors)


def _record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        out.tape = tape
        tape._nodes.append((out, inputs, grad_fn))
    return out


def backward(tape: Tape, output: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of a scalar output for every taped tensor.

    Each node's grad_fn is called once, as grad_fn(g, needed) (see the
    module docstring). Watched tensors always appear in the result (zeros
    when the output does not depend on them). An input that is neither
    produced on the tape nor watched gets no gradient. Replaying the same
    tape is deterministic.
    """
    if output.data.size != 1:
        raise TapeError(f"backward requires a scalar output, got shape {output.data.shape}")
    if output.tape is not tape:
        raise TapeError("output was not recorded on this tape")

    grads: dict[Tensor, np.ndarray] = {output: np.ones_like(output.data)}
    watched = set(tape._watched)
    for out, inputs, grad_fn in reversed(tape._nodes):
        g = grads.get(out)
        if g is None:
            continue
        needed = [inp.tape is tape or inp in watched for inp in inputs]
        for inp, gi, need in zip(inputs, grad_fn(g, needed), needed):
            if not need:
                continue
            prev = grads.get(inp)
            grads[inp] = gi if prev is None else prev + gi

    for tensor in tape._watched:
        if tensor not in grads:
            grads[tensor] = np.zeros_like(tensor.data)
    return grads


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b, b a (k,) row added to each row, then max(., 0) if relu."""
    xv, wv, bv = x.data, w.data, b.data
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise DimensionError(f"affine shapes {xv.shape}, {wv.shape} and {bv.shape} are incompatible")
    yv = xv @ wv + bv
    if relu:
        np.maximum(yv, 0.0, out=yv)

    def grad(g, needed):
        if relu:
            g = g * (yv > 0.0)  # an output above 0 is a pre-activation above 0
        return g @ wv.T, xv.T @ g, g.sum(axis=0)

    return _record(Tensor(yv), (x, w, b), grad)


def graph_conv(
    x: Tensor, op: np.ndarray, w_neigh: Tensor, w_self: Tensor | None = None, relu: bool = False
) -> Tensor:
    """x @ w_self + (op @ x) @ w_neigh, or (op @ x) @ w_neigh without
    w_self, then max(., 0) if relu. The operator op is a constant
    ndarray, not a tape input, so backward forms no gradient for it."""
    xv, wn = x.data, w_neigh.data
    ws = None if w_self is None else w_self.data
    if (
        xv.ndim != 2
        or op.shape != (xv.shape[0], xv.shape[0])
        or wn.ndim != 2
        or wn.shape[0] != xv.shape[1]
        or (ws is not None and ws.shape != wn.shape)
    ):
        raise DimensionError(
            f"graph_conv shapes {xv.shape}, {op.shape}, {wn.shape} and "
            f"{None if ws is None else ws.shape} are incompatible"
        )
    ax = op @ xv
    yv = ax @ wn if ws is None else xv @ ws + ax @ wn
    if relu:
        np.maximum(yv, 0.0, out=yv)

    def grad(g, needed):
        if relu:
            g = g * (yv > 0.0)
        gx = None
        if needed[0]:
            gx = op.T @ (g @ wn.T)
            if ws is not None:
                gx = g @ ws.T + gx
        return (gx, ax.T @ g) if ws is None else (gx, ax.T @ g, xv.T @ g)

    inputs = (x, w_neigh) if w_self is None else (x, w_neigh, w_self)
    return _record(Tensor(yv), inputs, grad)


def gat_conv(
    x: Tensor, src, dst, w_self: Tensor, w_neigh: Tensor, att: Tensor, slope: float, relu=False
) -> Tensor:
    """Graph attention (Velickovic et al. 2018) over the directed edges
    src[e] -> dst[e] of an n-node graph and a self loop per node, then
    max(., 0) if relu.

    Node i sums row i of x @ w_self (its self loop) and row j of
    x @ w_neigh (each edge j -> i), weighted by a softmax over its self
    loop and in-edges of leaky_relu(s1[i] + s2[j]) with slope `slope`,
    where s1 = x @ w_self @ att[:k] and s2 = x @ w_neigh @ att[k:]; the
    self loop's logit reads s2[i]. The weights fill a dense (n, 2n) matrix.
    """
    xv, w1, w2, av = x.data, w_self.data, w_neigh.data, att.data
    k = w1.shape[-1]
    if xv.ndim != 2 or w1.shape != (xv.shape[1], k) or w2.shape != w1.shape or av.shape != (2 * k,):
        raise DimensionError(
            f"gat_conv shapes {xv.shape}, {w1.shape}, {w2.shape} and {av.shape} are incompatible"
        )
    n = xv.shape[0]
    xw1, xw2 = xv @ w1, xv @ w2
    a1, a2 = av.reshape(2 * k, 1)[:k], av.reshape(2 * k, 1)[k:]
    # Self loops, then the edges. A self term reads row i of
    # [x @ w_self; x @ w_neigh], a neighbour term row n + j.
    loops = np.arange(n)
    value_row = np.concatenate([loops, n + src])
    dst, src = np.concatenate([loops, dst]), np.concatenate([loops, src])
    pre = (xw1 @ a1)[dst] + (xw2 @ a2)[src]  # (n + edges, 1)
    alpha = _segment_softmax(np.where(pre > 0.0, pre, slope * pre).reshape(-1), dst, n)
    weights = coo_to_dense(alpha, dst, value_row, (n, 2 * n))
    values = np.concatenate([xw1, xw2])
    yv = weights @ values
    if relu:
        np.maximum(yv, 0.0, out=yv)

    def grad(g, needed):
        if relu:
            g = g * (yv > 0.0)
        g_pre = _segment_softmax_grad(alpha, (g @ values.T)[dst, value_row], dst, n)
        g_pre = g_pre.reshape(-1, 1) * np.where(pre > 0.0, 1.0, slope)
        g_s1, g_s2 = _scatter_rows(g_pre, dst, n), _scatter_rows(g_pre, src, n)
        g_values = weights.T @ g
        g_xw1, g_xw2 = g_values[:n] + g_s1 @ a1.T, g_values[n:] + g_s2 @ a2.T
        gx = g_xw2 @ w2.T + g_xw1 @ w1.T if needed[0] else None
        g_att = np.concatenate([xw1.T @ g_s1, xw2.T @ g_s2]).reshape(-1)
        return gx, xv.T @ g_xw1, xv.T @ g_xw2, g_att

    return _record(Tensor(yv), (x, w_self, w_neigh, att), grad)


def dmpnn(
    x: Tensor, src, dst, edge_weight, w_in: Tensor, w_h: Tensor, w_out: Tensor, iterations: int
) -> Tensor:
    """Directed message passing (Yang et al. 2019, as in chemprop) on the
    states of the edges src[e] -> dst[e] of an n-node graph, the reverse
    of edge e being e ^ 1, then a node readout.

    h0 = relu([x[src], edge_weight] @ w_in). Each iteration sets
    h = relu(h0 + m @ w_h), where the message m into edge e (u -> v) sums
    the states of the edges ending at u except e's reverse. Returns
    relu([x, s] @ w_out), s[v] the sum of the final states of the edges
    ending at v.
    """
    xv, wi, wh, wo = x.data, w_in.data, w_h.data, w_out.data
    k_in, k = xv.shape[-1], wi.shape[-1]
    if xv.ndim != 2 or wi.shape != (k_in + 1, k) or wh.shape != (k, k) or wo.shape != (k_in + k, k):
        raise DimensionError(
            f"dmpnn shapes {xv.shape}, {wi.shape}, {wh.shape} and {wo.shape} are incompatible"
        )
    n = xv.shape[0]
    reverse = np.arange(src.size) ^ 1
    c_in = np.concatenate([xv[src], edge_weight[:, None]], axis=1)
    pre0 = c_in @ wi
    h0 = np.maximum(pre0, 0.0)
    h, msgs, pres = h0, [], []
    for _ in range(iterations):
        msgs.append(_scatter_rows(h, dst, n)[src] - h[reverse])
        pres.append(h0 + msgs[-1] @ wh)
        h = np.maximum(pres[-1], 0.0)
    c_out = np.concatenate([xv, _scatter_rows(h, dst, n)], axis=1)
    pre_out = c_out @ wo

    def grad(g, needed):
        g = g * (pre_out > 0.0)
        g_c_out = g @ wo.T
        g_h = g_c_out[:, k_in:][dst]
        g_h0 = g_wh = None
        for t in reversed(range(iterations)):
            g_pre = g_h * (pres[t] > 0.0)
            g_h0 = g_pre if g_h0 is None else g_h0 + g_pre
            g_wh = msgs[t].T @ g_pre if g_wh is None else g_wh + msgs[t].T @ g_pre
            g_msg = g_pre @ wh.T
            from_incoming = _scatter_rows(g_msg, src, n)[dst]
            if t:
                g_h = from_incoming - g_msg[reverse]
            else:  # the first iteration reads h0
                g_h0 = (g_h0 - g_msg[reverse]) + from_incoming
        g_pre0 = g_h0 * (pre0 > 0.0)
        gx = None
        if needed[0]:
            gx = g_c_out[:, :k_in] + _scatter_rows((g_pre0 @ wi.T)[:, :k_in], src, n)
        return gx, c_in.T @ g_pre0, g_wh, c_out.T @ g

    return _record(Tensor(np.maximum(pre_out, 0.0)), (x, w_in, w_h, w_out), grad)


def set_attention(
    z: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, weights, segment, n_sets: int
) -> Tensor:
    """Attention pooling of the rows of z (N, d) into n_sets sets; row i
    belongs to set segment[i] with weight fraction weights[i].

    Row i's logit is q_i . k_i / sqrt(d_k), with q = z @ wq, k = z @ wk
    and d_k the columns of wq. A softmax within each set turns the logits
    into scores, and set s sums weights[i] * score_i * (z @ wv)_i over its
    rows. Returns (n_sets, wv columns); an empty set is zero.
    """
    zv, q_w, k_w, v_w = z.data, wq.data, wk.data, wv.data
    seg = np.asarray(segment, dtype=np.intp)
    if zv.ndim != 2 or seg.shape != zv.shape[:1] or k_w.shape != q_w.shape or (
        q_w.ndim != 2 or v_w.ndim != 2 or q_w.shape[0] != zv.shape[1] or v_w.shape[0] != zv.shape[1]
    ):
        shapes = f"{zv.shape}, {seg.shape}, {q_w.shape}, {k_w.shape} and {v_w.shape}"
        raise DimensionError(f"set_attention shapes {shapes} are incompatible")
    w = np.asarray(weights, dtype=np.float64).reshape(seg.size, 1)
    qv, kv, vv = zv @ q_w, zv @ k_w, zv @ v_w
    c = 1.0 / math.sqrt(q_w.shape[1])
    scores = _segment_softmax((qv * kv).sum(axis=1) * c, seg, n_sets)[:, None]

    def grad(g, needed):
        g_vs = g[seg] * w
        g_v = g_vs * scores
        g_scores = (g_vs * vv).sum(axis=1)
        g_logits = (_segment_softmax_grad(scores[:, 0], g_scores, seg, n_sets) * c)[:, None]
        g_q, g_k = g_logits * kv, g_logits * qv
        gz = (g_v @ v_w.T + g_k @ k_w.T) + g_q @ q_w.T if needed[0] else None
        return gz, zv.T @ g_q, zv.T @ g_k, zv.T @ g_v

    out = Tensor(_scatter_rows(vv * scores * w, seg, n_sets))
    return _record(out, (z, wq, wk, wv), grad)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DimensionError("concat of an empty sequence")
    values = [p.data for p in parts]
    for v in values[1:]:
        if v.ndim != values[0].ndim:
            raise DimensionError(f"concat ranks differ: {values[0].shape} vs {v.shape}")
    out = Tensor(np.concatenate(values, axis=axis))
    offsets = list(itertools.accumulate(v.shape[axis] for v in values[:-1]))
    return _record(out, tuple(parts), lambda g, needed: np.split(g, offsets, axis=axis))


def rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-D tensor; gradient scatter-adds back."""
    xv = x.data
    if xv.ndim != 2:
        raise DimensionError(f"rows expects a 2-D tensor, got shape {xv.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(xv[idx])
    return _record(out, (x,), lambda g, needed: (_scatter_rows(g, idx, xv.shape[0]),))


def _scatter_rows(x: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(n, ...) array whose row s adds the rows of x with index s, in order;
    one flat bincount, the same sums as np.add.at into zeros."""
    k = x.shape[1] if x.ndim == 2 else 1
    flat = (index[:, None] * k + np.arange(k)).reshape(-1)
    return np.bincount(flat, x.reshape(-1), n * k).reshape((n,) + x.shape[1:])


def coo_to_dense(values: np.ndarray, rows, cols, shape: tuple[int, int]) -> np.ndarray:
    """Dense matrix holding the sum of the values[k] placed at (rows[k], cols[k])."""
    flat = np.asarray(rows, dtype=np.intp) * shape[1] + np.asarray(cols, dtype=np.intp)
    return np.bincount(flat, values, shape[0] * shape[1]).reshape(shape)


def _segment_softmax(x: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax of a 1-D array within segments: entries sharing an id in
    [0, n_segments) sum to 1. Each segment is shifted by its own maximum."""
    peak = np.full(n_segments, -np.inf)
    np.maximum.at(peak, seg, x)
    shifted = np.exp(x - peak[seg])
    return shifted / np.bincount(seg, shifted, n_segments)[seg]


def _segment_softmax_grad(y: np.ndarray, g: np.ndarray, seg: np.ndarray, n_segments: int):
    """Input gradient of a segment softmax with output y, given g for y."""
    return y * (g - np.bincount(seg, g * y, n_segments)[seg])


def segment_sum(x: Tensor, segment, n_segments: int, weights) -> Tensor:
    """Weighted rows of a 2-D x summed within segments: row s of the
    (n_segments, k) result adds weights[i] * x[i] over the rows i whose id
    is s, in order; an empty segment is zero."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if xv.ndim != 2 or seg.shape != xv.shape[:1] or w.shape != seg.shape:
        raise DimensionError(f"segment_sum shapes {xv.shape}, {seg.shape} and {w.shape} differ")
    out = Tensor(_scatter_rows(xv * w[:, None], seg, n_segments))
    return _record(out, (x,), lambda g, needed: (g[seg] * w[:, None],))


def segment_mean(x: Tensor, segment, sizes) -> Tensor:
    """Rows of a 2-D x averaged within segments: the segment_sum over
    len(sizes) segments times 1 / sizes, where sizes[s] >= 1 is the row
    count of segment s."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    inverse = 1.0 / np.asarray(sizes)[:, None]
    if xv.ndim != 2 or seg.shape != xv.shape[:1]:
        raise DimensionError(f"segment_mean shapes {xv.shape} and {seg.shape} differ")
    out = Tensor(_scatter_rows(xv, seg, inverse.shape[0]) * inverse)
    return _record(out, (x,), lambda g, needed: ((g * inverse)[seg],))


def mse(preds: Tensor, targets: Tensor) -> Tensor:
    """Mean of (preds - targets) ** 2 over two tensors of one shape."""
    pv, tv = preds.data, targets.data
    if pv.shape != tv.shape:
        raise DimensionError(f"mse shapes {pv.shape} and {tv.shape} differ")
    if pv.size == 0:
        raise DimensionError("mse of empty tensors")
    diff = pv - tv
    out = Tensor((diff * diff).mean())

    def grad(g, needed):
        h = (g / diff.size) * diff
        gd = h + h
        return gd, -gd

    return _record(out, (preds, targets), grad)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    xv = x.data
    out = Tensor(xv.reshape(shape))
    return _record(out, (x,), lambda g, needed: (g.reshape(xv.shape),))


def finite_diff_gradient(
    f: Callable[[], float], params: Sequence[Tensor], h: float = 1e-5
) -> dict[Tensor, np.ndarray]:
    """Central-difference gradient of f with respect to each parameter entry.

    f is evaluated with the parameters perturbed in place; it must read
    them afresh on every call and have no other state.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    result: dict[Tensor, np.ndarray] = {}
    for param in params:
        grad = np.zeros_like(param.data)
        flat = param.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = float(f())
            flat[i] = saved - h
            f_minus = float(f())
            flat[i] = saved
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        result[param] = grad
    return result
