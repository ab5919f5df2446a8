"""Dense float64 tensors with reverse-mode gradient recording.

Operations compute eagerly with numpy. While a Tape is active (used as a
context manager), every operation is recorded so that `backward` can
accumulate gradients in reverse order. Tapes are thread-confined: each
thread sees only its own active tape, so independent forward/backward
passes may run concurrently. Binary operations broadcast in three ways
only: an operand of total size 1 against any tensor, a (k,) vector
against the rows of a (B, k) matrix, and an (N, 1) column against the
columns of an (N, k) matrix. All other shapes must match exactly.

The layers every training step runs are single nodes with hand-written
backward closures (`affine`, `graph_conv`, `segment_mean`, `mse`), so a
step records one node per layer, not one per primitive. Each evaluates
the numpy expressions of the primitive composition it stands for, in the
same order, so its value and gradients are bit-identical to that
composition's.

Of their inputs, `graph_conv`, `concat` and `mse` form gradients only for
those that `backward` needs: tensors produced on the tape or watched. So a
constant input, such as the node features of a first conv layer or the
targets of a loss, costs no gradient and is absent from the result.
"""

from __future__ import annotations

import itertools
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
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


_LOCAL = threading.local()


def _active_tape():
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Records operations for one forward pass; discarded after backward."""

    def __init__(self):
        # (output, inputs, grad_fn, selective); a selective grad_fn also takes
        # one flag per input and returns None for an input not needed.
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable, bool]] = []
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


def _record(
    out: Tensor, inputs: tuple[Tensor, ...], grad_fn: Callable, selective: bool = False
) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        out.tape = tape
        tape._nodes.append((out, inputs, grad_fn, selective))
    return out


def backward(tape: Tape, output: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of a scalar output for every taped tensor.

    Watched tensors always appear in the result (zeros when the output
    does not depend on them). An input of a selective node (graph_conv,
    concat, mse) that is neither produced on the tape nor watched gets no
    gradient. Replaying the same tape is deterministic.
    """
    if output.data.size != 1:
        raise TapeError(f"backward requires a scalar output, got shape {output.data.shape}")
    if output.tape is not tape:
        raise TapeError("output was not recorded on this tape")

    grads: dict[Tensor, np.ndarray] = {output: np.ones_like(output.data)}
    watched = set(tape._watched)
    for out, inputs, grad_fn, selective in reversed(tape._nodes):
        g = grads.get(out)
        if g is None:
            continue
        if selective:
            input_grads = grad_fn(g, [inp.tape is tape or inp in watched for inp in inputs])
        else:
            input_grads = grad_fn(g)
        for inp, gi in zip(inputs, input_grads):
            if gi is None:
                continue
            prev = grads.get(inp)
            grads[inp] = gi if prev is None else prev + gi

    for tensor in tape._watched:
        if tensor not in grads:
            grads[tensor] = np.zeros_like(tensor.data)
    return grads


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


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b, b a (k,) row added to each row, then max(., 0) if relu."""
    xv, wv, bv = x.data, w.data, b.data
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise DimensionError(f"affine shapes {xv.shape}, {wv.shape} and {bv.shape} are incompatible")
    yv = xv @ wv + bv
    if relu:
        np.maximum(yv, 0.0, out=yv)

    def grad(g):
        if relu:
            g = g * (yv > 0.0)  # an output above 0 is a pre-activation above 0
        return g @ wv.T, xv.T @ g, _unbroadcast(g, bv.shape)

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
        gn = ax.T @ g if needed[1] else None
        if ws is None:
            return gx, gn
        return gx, gn, xv.T @ g if needed[2] else None

    inputs = (x, w_neigh) if w_self is None else (x, w_neigh, w_self)
    return _record(Tensor(yv), inputs, grad, selective=True)


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


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DimensionError("concat of an empty sequence")
    values = [p.data for p in parts]
    for v in values[1:]:
        if v.ndim != values[0].ndim:
            raise DimensionError(
                f"concat ranks differ: {values[0].shape} vs {v.shape}"
            )
    out = Tensor(np.concatenate(values, axis=axis))
    offsets = list(itertools.accumulate(v.shape[axis] for v in values[:-1]))

    def grad(g, needed):
        return [gi if need else None for gi, need in zip(np.split(g, offsets, axis=axis), needed)]

    return _record(out, tuple(parts), grad, selective=True)


def rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-D tensor; gradient scatter-adds back."""
    xv = x.data
    if xv.ndim != 2:
        raise DimensionError(f"rows expects a 2-D tensor, got shape {xv.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(xv[idx])
    return _record(out, (x,), lambda g: (_scatter_rows(g, idx, xv.shape[0]),))


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


def segment_sum(x: Tensor, segment, n_segments: int) -> Tensor:
    """Rows of x summed within segments: row s of the (n_segments, ...)
    result adds the rows whose id is s, in order; an empty segment is zero."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    if xv.ndim not in (1, 2) or seg.shape != xv.shape[:1]:
        raise DimensionError(f"segment_sum shapes {xv.shape} and {seg.shape} differ")
    out = Tensor(_scatter_rows(xv, seg, n_segments))
    return _record(out, (x,), lambda g: (g[seg],))


def segment_mean(x: Tensor, segment, sizes) -> Tensor:
    """Rows of a 2-D x averaged within segments: the segment_sum over
    len(sizes) segments times 1 / sizes, where sizes[s] >= 1 is the row
    count of segment s."""
    xv, seg = x.data, np.asarray(segment, dtype=np.intp)
    inverse = 1.0 / np.asarray(sizes)[:, None]
    if xv.ndim != 2 or seg.shape != xv.shape[:1]:
        raise DimensionError(f"segment_mean shapes {xv.shape} and {seg.shape} differ")
    out = Tensor(_scatter_rows(xv, seg, inverse.shape[0]) * inverse)
    return _record(out, (x,), lambda g: ((g * inverse)[seg],))


def mse(preds: Tensor, targets: Tensor) -> Tensor:
    """Mean of (preds - targets) ** 2 over two tensors of one shape."""
    pv, tv = preds.data, targets.data
    if pv.shape != tv.shape:
        raise DimensionError(f"mse shapes {pv.shape} and {tv.shape} differ")
    diff = pv - tv
    out = Tensor((diff * diff).mean())

    def grad(g, needed):
        h = (g / diff.size) * diff
        gd = h + h
        return gd if needed[0] else None, -gd if needed[1] else None

    return _record(out, (preds, targets), grad, selective=True)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    xv = x.data
    out = Tensor(xv.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(xv.shape),))


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
