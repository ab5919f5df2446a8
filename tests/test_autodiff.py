import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import frozen_ops as F
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import molsets
from molsets import autodiff as ad
from molsets.autodiff import DimensionError, Tape, TapeError, Tensor
from molsets.chem import NODE_FEATURE_DIM, MolecularGraph
from molsets.gnn import GAT_LEAKY_SLOPE, ConvParams, GraphTensors
from molsets.model import AttentionParams

ROOT = Path(__file__).resolve().parent.parent


def _rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def _dot(out, proj):
    """sum(out * proj) as a 0-d tensor, from ops that stay on the tape: a
    segment_sum of out's entries weighted by proj's, all in one segment."""
    n = out.data.size
    column = ad.reshape(out, (n, 1))
    return ad.reshape(ad.segment_sum(column, np.zeros(n, np.intp), 1, proj.data.reshape(-1)), ())


def _check_against_fd(build_scalar, params, tol=1e-6):
    """backward vs central finite differences on the same scalar function."""
    with Tape() as tape:
        tape.watch(*params)
        out = build_scalar()
    grads = ad.backward(tape, out)
    fd = ad.finite_diff_gradient(lambda: build_scalar().item(), params)
    for p in params:
        assert _rel_err(grads[p], fd[p]) <= tol


def test_matmul_examples():
    # The matrix product lives in affine; a zero bias leaves it alone.
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    zero = Tensor([0.0])
    assert np.array_equal(ad.affine(eye, v, zero).data, [[3.0], [4.0]])
    assert ad.affine(Tensor([[1.0, 2.0]]), v, zero).data[0, 0] == 11.0
    with pytest.raises(DimensionError):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def test_elementwise_examples():
    relu = ad.affine(Tensor([[-1.0], [2.0]]), Tensor([[1.0]]), Tensor([0.0]), relu=True)
    assert np.array_equal(relu.data, [[0.0], [2.0]])


def test_row_broadcast_examples():
    # A (k,) row spreads only as affine's bias.
    m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    eye = Tensor(np.eye(2))
    row = Tensor([10.0, 20.0])
    assert np.array_equal(ad.affine(m, eye, row).data, [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])
    with Tape() as tape:
        tape.watch(row)
        out = _dot(ad.affine(m, eye, row), Tensor(np.ones((3, 2))))
    assert np.array_equal(ad.backward(tape, out)[row], [3.0, 3.0])  # summed over the rows
    for bias in (Tensor([1.0, 2.0, 3.0]), Tensor(np.ones((3, 2))), Tensor([2.0])):
        with pytest.raises(DimensionError):
            ad.affine(m, eye, bias)


def test_segment_sum_examples():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    ones = np.ones(4)
    out = ad.segment_sum(x, [2, 0, 2, 0], 4, ones)  # segments 1 and 3 are empty
    assert np.array_equal(out.data, [[10.0, 12.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    weighted = ad.segment_sum(x, [2, 0, 2, 0], 4, [2.0, 0.0, -1.0, 0.5])
    assert np.array_equal(weighted.data, [[3.5, 4.0], [0.0, 0.0], [-3.0, -2.0], [0.0, 0.0]])
    column = ad.segment_sum(Tensor([[1.0], [2.0], [4.0]]), [1, 1, 0], 2, np.ones(3))
    assert np.array_equal(column.data, [[4.0], [3.0]])
    empty = ad.segment_sum(Tensor(np.zeros((0, 3))), [], 2, [])
    assert np.array_equal(empty.data, np.zeros((2, 3)))
    proj = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    with Tape() as tape:
        tape.watch(x)
        total = _dot(ad.segment_sum(x, [2, 0, 2, 0], 4, ones), proj)
    grads = ad.backward(tape, total)
    assert np.array_equal(grads[x], [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0], [1.0, 2.0]])
    with Tape() as tape:
        tape.watch(x)
        total = _dot(ad.segment_sum(x, [2, 0, 2, 0], 4, [2.0, 0.0, -1.0, 0.5]), proj)
    grads = ad.backward(tape, total)
    assert np.array_equal(grads[x], [[10.0, 12.0], [0.0, 0.0], [-5.0, -6.0], [0.5, 1.0]])
    with pytest.raises(DimensionError):
        ad.segment_sum(x, [0, 1, 0], 2, np.ones(3))
    with pytest.raises(DimensionError):
        ad.segment_sum(x, [0, 1, 0, 1], 2, np.ones(3))  # a weight per row
    with pytest.raises(DimensionError):
        ad.segment_sum(Tensor([1.0, 2.0]), [0, 1], 2, np.ones(2))  # rows of a matrix
    with pytest.raises(DimensionError):
        ad.segment_sum(Tensor(np.zeros((2, 2, 2))), [0, 1], 2, np.ones(2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_row_scatter_matches_add_at(n, k, data):
    """The rows gradient and segment_sum add rows in index order, bit for
    bit as np.add.at into zeros, for repeated and empty index lists."""
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.intp)
    values = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    flat = data.draw(st.lists(values, min_size=idx.size * k, max_size=idx.size * k))
    g = np.array(flat, dtype=np.float64).reshape(idx.size, k)
    expected = np.zeros((n, k))
    np.add.at(expected, idx, g)

    x = Tensor(np.zeros((n, k)))
    with Tape() as tape:
        tape.watch(x)
        loss = _dot(ad.rows(x, idx), Tensor(g))
    assert np.array_equal(ad.backward(tape, loss)[x], expected)
    assert np.array_equal(ad.segment_sum(Tensor(g), idx, n, np.ones(idx.size)).data, expected)


# Fused layer nodes against the primitive compositions they replace: the
# value and the gradient of every input must be bit-identical.


def _draw(rng, shape, exact):
    """Uniform values, or multiples of 1/2 in [-1, 1], whose sums of
    products are often exactly 0 (a ReLU input on the kink)."""
    return rng.integers(-2, 3, shape) / 2.0 if exact else rng.uniform(-1, 1, shape)


def _assert_same_node(fused, composed, inputs, proj=None):
    """fused() and composed() give equal values and equal gradients for
    every (watched) input, under the loss sum(out * proj) (out itself if
    proj is None)."""
    results = []
    for build in (fused, composed):
        with Tape() as tape:
            tape.watch(*inputs)
            out = build()
            loss = out if proj is None else _dot(out, proj)
        grads = ad.backward(tape, loss)
        results.append((out.data, [grads[t] for t in inputs]))
    (value, grads), (ref_value, ref_grads) = results
    assert value.shape == ref_value.shape and np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and np.array_equal(g, ref)


_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 5), k_in=st.integers(1, 4), k_out=st.integers(1, 4),
       relu=st.booleans(), exact=st.booleans(), seed=_SEEDS)
@example(rows=1, k_in=2, k_out=1, relu=True, exact=True, seed=0)
def test_affine_matches_matmul_add_relu(rows, k_in, k_out, relu, exact, seed):
    rng = np.random.default_rng(seed)
    x, w, b = (Tensor(_draw(rng, s, exact)) for s in ((rows, k_in), (k_in, k_out), (k_out,)))

    def composed():
        y = F.add(F.matmul(x, w), b)
        return F.relu(y) if relu else y

    proj = Tensor(rng.uniform(-1, 1, (rows, k_out)))
    _assert_same_node(lambda: ad.affine(x, w, b, relu), composed, [x, w, b], proj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), k_in=st.integers(1, 4), k_out=st.integers(1, 4),
       with_self=st.booleans(), relu=st.booleans(), exact=st.booleans(), seed=_SEEDS)
@example(n=1, k_in=1, k_out=2, with_self=True, relu=True, exact=True, seed=0)
def test_graph_conv_matches_matmul_add_relu(n, k_in, k_out, with_self, relu, exact, seed):
    rng = np.random.default_rng(seed)
    op = _draw(rng, (n, n), exact) * (rng.random((n, n)) < 0.5)
    x = Tensor(_draw(rng, (n, k_in), exact))
    w_neigh, w_self = (Tensor(_draw(rng, (k_in, k_out), exact)) for _ in range(2))

    def fused():
        return ad.graph_conv(x, op, w_neigh, w_self if with_self else None, relu)

    def composed():
        neigh = F.matmul(F.matmul(Tensor(op), x), w_neigh)
        y = F.add(F.matmul(x, w_self), neigh) if with_self else neigh
        return F.relu(y) if relu else y

    inputs = [x, w_neigh, w_self] if with_self else [x, w_neigh]
    _assert_same_node(fused, composed, inputs, Tensor(rng.uniform(-1, 1, (n, k_out))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5), k=st.integers(1, 4),
       exact=st.booleans(), seed=_SEEDS)
@example(sizes=[1], k=1, exact=False, seed=0)
def test_segment_mean_matches_segment_sum_times_inverse(sizes, k, exact, seed):
    rng = np.random.default_rng(seed)
    sizes = np.array(sizes)
    seg = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    x = Tensor(_draw(rng, (seg.size, k), exact))

    def composed():
        return F.mul(F.segment_sum(x, seg, sizes.size), Tensor(1.0 / sizes[:, None]))

    proj = Tensor(rng.uniform(-1, 1, (sizes.size, k)))
    _assert_same_node(lambda: ad.segment_mean(x, seg, sizes), composed, [x], proj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), exact=st.booleans(), seed=_SEEDS)
@example(n=1, exact=True, seed=0)
def test_mse_matches_sub_mul_reduce_mean(n, exact, seed):
    rng = np.random.default_rng(seed)
    preds, targets = Tensor(_draw(rng, n, exact)), Tensor(_draw(rng, n, exact))

    def composed():
        diff = F.sub(preds, targets)
        return F.reduce_mean(F.mul(diff, diff))

    _assert_same_node(lambda: ad.mse(preds, targets), composed, [preds, targets])


def test_mse_examples():
    assert ad.mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0
    assert ad.mse(Tensor([0.0]), Tensor([2.0])).item() == 4.0
    assert ad.mse(Tensor([1.0, 3.0]), Tensor([0.0, 0.0])).item() == 5.0
    with pytest.raises(DimensionError, match="empty"):
        ad.mse(Tensor([]), Tensor([]))


def test_mse_is_differentiable():
    preds = Tensor([1.0, 3.0])
    with Tape() as tape:
        tape.watch(preds)
        loss = ad.mse(preds, Tensor([0.0, 0.0]))
    grads = ad.backward(tape, loss)
    assert np.allclose(grads[preds], [1.0, 3.0])  # 2 * diff / n


_ORDERS = st.sampled_from([1.0, 1.5, 2.0, 3.0])


@st.composite
def _graph_specs(draw):
    """1-3 graphs of 1-5 atoms, each with a random set of distinct bonds
    (possibly none), as (n, [(i, j, order), ...]) pairs."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        specs.append((n, [(i, j, draw(_ORDERS)) for i, j in chosen]))
    return specs


def _union_of(specs):
    graphs = [
        MolecularGraph(
            np.zeros((n, NODE_FEATURE_DIM)),
            np.array([(i, j) for i, j, _ in bonds], np.intp).reshape(-1, 2),
            np.array([w for _, _, w in bonds], np.float64),
            0.0,
            "",
        )
        for n, bonds in specs
    ]
    return GraphTensors(graphs)


_ONE_ATOM = [(1, [])]
_NO_EDGES = [(2, []), (1, []), (3, [])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(specs=_graph_specs(), k_in=st.integers(1, 3), k_out=st.integers(1, 3),
       relu=st.booleans(), exact=st.booleans(), seed=_SEEDS)
@example(specs=_ONE_ATOM, k_in=1, k_out=1, relu=True, exact=True, seed=0)
@example(specs=_NO_EDGES, k_in=2, k_out=3, relu=False, exact=False, seed=1)
def test_gat_conv_matches_composition(specs, k_in, k_out, relu, exact, seed):
    rng = np.random.default_rng(seed)
    gt = _union_of(specs)
    x = Tensor(_draw(rng, (gt.n, k_in), exact))
    p = ConvParams("gatconv")
    p.w1, p.w2 = (Tensor(_draw(rng, (k_in, k_out), exact)) for _ in range(2))
    p.att = Tensor(_draw(rng, 2 * k_out, exact))

    def fused():
        return ad.gat_conv(x, gt.src, gt.dst, p.w1, p.w2, p.att, GAT_LEAKY_SLOPE, relu)

    def composed():
        out = F.gat_composition(p, x, gt)
        return F.relu(out) if relu else out

    proj = Tensor(rng.uniform(-1, 1, (gt.n, k_out)))
    _assert_same_node(fused, composed, [x, p.w1, p.w2, p.att], proj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(specs=_graph_specs(), k_in=st.integers(1, 3), k_out=st.integers(1, 3),
       iterations=st.integers(1, 3), exact=st.booleans(), seed=_SEEDS)
@example(specs=_ONE_ATOM, k_in=1, k_out=1, iterations=1, exact=True, seed=0)
@example(specs=_NO_EDGES, k_in=2, k_out=3, iterations=2, exact=False, seed=1)
def test_dmpnn_matches_composition(specs, k_in, k_out, iterations, exact, seed):
    rng = np.random.default_rng(seed)
    gt = _union_of(specs)
    x = Tensor(_draw(rng, (gt.n, k_in), exact))
    p = ConvParams("dmpnn")
    p.w_in = Tensor(_draw(rng, (k_in + 1, k_out), exact))
    p.w_h = Tensor(_draw(rng, (k_out, k_out), exact))
    p.w_out = Tensor(_draw(rng, (k_in + k_out, k_out), exact))

    def fused():
        return ad.dmpnn(x, gt.src, gt.dst, gt.w, p.w_in, p.w_h, p.w_out, iterations)

    proj = Tensor(rng.uniform(-1, 1, (gt.n, k_out)))
    _assert_same_node(
        fused,
        lambda: F.dmpnn_composition(p, x, gt, iterations),
        [x, p.w_in, p.w_h, p.w_out],
        proj,
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4), d=st.integers(1, 4),
       d_k=st.integers(1, 3), exact=st.booleans(), seed=_SEEDS)
@example(sizes=[1], d=2, d_k=1, exact=True, seed=0)
@example(sizes=[1, 1, 1], d=3, d_k=2, exact=False, seed=1)
def test_set_attention_matches_composition(sizes, d, d_k, exact, seed):
    rng = np.random.default_rng(seed)
    seg = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    z = Tensor(_draw(rng, (seg.size, d), exact))
    att = AttentionParams(
        wq=Tensor(_draw(rng, (d, d_k), exact)),
        wk=Tensor(_draw(rng, (d, d_k), exact)),
        wv=Tensor(_draw(rng, (d, d), exact)),
    )
    weights = rng.uniform(0, 1, seg.size)

    def fused():
        return ad.set_attention(z, att.wq, att.wk, att.wv, weights, seg, len(sizes))

    proj = Tensor(rng.uniform(-1, 1, (len(sizes), d)))
    _assert_same_node(
        fused,
        lambda: F.attention_composition(att, z, weights, seg, len(sizes)),
        [z, att.wq, att.wk, att.wv],
        proj,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6), graphs=st.integers(1, 6),
       d=st.integers(1, 4), scale_z=st.integers(-8, 8), scale_w=st.integers(-8, 8), seed=_SEEDS)
@example(sizes=[1], graphs=1, d=1, scale_z=0, scale_w=0, seed=0)
@example(sizes=[3, 1, 2], graphs=2, d=3, scale_z=8, scale_w=-8, seed=1)
def test_weighted_segment_sum_matches_rows_mul_segment_sum(
    sizes, graphs, d, scale_z, scale_w, seed
):
    # wsum: one weighted segment_sum node in place of mul then segment_sum.
    rng = np.random.default_rng(seed)
    n_sets = len(sizes)
    segment = np.repeat(np.arange(n_sets), sizes)
    slot_graph = rng.integers(0, graphs, segment.size)  # repeats share a table row
    weights = rng.uniform(0, 1, segment.size) * 10.0**scale_w
    table = Tensor(rng.uniform(-1, 1, (graphs, d)) * 10.0**scale_z)

    def fused():
        return ad.segment_sum(ad.rows(table, slot_graph), segment, n_sets, weights)

    proj = Tensor(rng.uniform(-1, 1, (n_sets, d)))
    _assert_same_node(
        fused,
        lambda: F.wsum_composition(table, slot_graph, weights, segment, n_sets),
        [table],
        proj,
    )


def test_fused_relu_on_the_kink():
    # Pre-activations of exactly 0 pass no gradient, as in a separate ReLU.
    x, w, b = Tensor([[1.0, -1.0], [2.0, 0.5]]), Tensor([[1.0], [1.0]]), Tensor([0.0])
    with Tape() as tape:
        tape.watch(x, b)
        out = ad.affine(x, w, b, relu=True)
        loss = _dot(out, Tensor(np.ones((2, 1))))
    assert np.array_equal(out.data, [[0.0], [2.5]])
    grads = ad.backward(tape, loss)
    assert np.array_equal(grads[x], [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(grads[b], [1.0])
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    with Tape() as tape:
        tape.watch(w)
        out = ad.graph_conv(x, op, w, relu=True)  # rows 2.5 and 0.0
        loss = _dot(out, Tensor(np.ones((2, 1))))
    assert np.array_equal(out.data, [[2.5], [0.0]])
    assert np.array_equal(ad.backward(tape, loss)[w], [[2.0], [0.5]])


def test_fused_node_shape_errors():
    x = Tensor(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        ad.affine(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ad.affine(x, Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.graph_conv(x, np.zeros((2, 2)), Tensor(np.zeros((2, 4))))
    with pytest.raises(DimensionError):
        ad.graph_conv(x, np.zeros((3, 3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        ad.segment_mean(x, [0, 1], [1, 1])
    with pytest.raises(DimensionError):
        ad.mse(Tensor([1.0, 2.0]), Tensor([1.0]))
    src, dst = np.array([0, 1]), np.array([1, 0])
    w, att = Tensor(np.zeros((2, 4))), Tensor(np.zeros(8))
    with pytest.raises(DimensionError):
        ad.gat_conv(x, src, dst, w, w, Tensor(np.zeros(4)), 0.2)
    with pytest.raises(DimensionError):
        ad.gat_conv(x, src, dst, w, Tensor(np.zeros((2, 3))), att, 0.2)
    with pytest.raises(DimensionError):
        ad.gat_conv(x, src, dst, Tensor(np.zeros((3, 4))), w, att, 0.2)
    w_in, w_h, w_out = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros((6, 4)))
    edge_weight = np.ones(2)
    with pytest.raises(DimensionError):
        ad.dmpnn(x, src, dst, edge_weight, Tensor(np.zeros((2, 4))), w_h, w_out, 1)
    with pytest.raises(DimensionError):
        ad.dmpnn(x, src, dst, edge_weight, w_in, Tensor(np.zeros((4, 3))), w_out, 1)
    with pytest.raises(DimensionError):
        ad.dmpnn(x, src, dst, edge_weight, w_in, w_h, Tensor(np.zeros((5, 4))), 1)
    wq, wv = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        ad.set_attention(x, wq, Tensor(np.zeros((2, 2))), wv, np.ones(3), [0, 0, 0], 1)
    with pytest.raises(DimensionError):
        ad.set_attention(x, wq, wq, Tensor(np.zeros((3, 2))), np.ones(3), [0, 0, 0], 1)
    with pytest.raises(DimensionError):
        ad.set_attention(x, wq, wq, wv, np.ones(3), [0, 0], 1)
    with pytest.raises(DimensionError, match="2-D"):
        ad.rows(Tensor(np.ones(3)), [0])


def _softmax(x):
    """Softmax of a 1-D array: the nodes' segment softmax with one segment."""
    x = np.asarray(x, dtype=np.float64)
    return ad._segment_softmax(x, np.zeros(x.size, np.intp), 1)


def test_softmax_examples():
    assert np.array_equal(_softmax([0.0, 0.0]), [0.5, 0.5])
    assert np.array_equal(_softmax([17.3]), [1.0])
    out = _softmax([np.log(1.0), np.log(3.0)])
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-5, 5, size=rng.integers(1, 9))
        y = _softmax(x)
        assert abs(y.sum() - 1.0) <= 1e-12
        shifted = _softmax(x + 3.7)
        assert np.abs(y - shifted).max() <= 1e-12


def test_segment_softmax_examples():
    seg = np.array([0, 1, 0, 2, 1, 0])
    x = np.array([0.3, -1.2, 2.0, 5.0, 0.7, -0.4])
    y = ad._segment_softmax(x, seg, 4)
    # Segment 3 has no entries, so its sum is 0; the others sum to 1.
    assert np.abs(np.bincount(seg, y, 4) - [1.0, 1.0, 1.0, 0.0]).max() <= 1e-12
    assert np.abs(y[[0, 2, 5]] - _softmax([0.3, 2.0, -0.4])).max() <= 1e-15
    assert y[3] == 1.0
    # Each segment is shifted by its own maximum, so distant segments stay finite.
    far = ad._segment_softmax(np.array([-1000.0, -1001.0, 1000.0]), np.array([0, 0, 1]), 2)
    assert np.all(np.isfinite(far)) and far[2] == 1.0
    assert ad._segment_softmax(np.zeros(0), np.zeros(0, np.intp), 3).shape == (0,)


def test_coo_matrix_examples():
    m = ad.coo_to_dense(np.array([1.0, 2.0, 3.0, 4.0]), [0, 1, 0, 0], [2, 0, 0, 2], (2, 3))
    assert np.array_equal(m, [[3.0, 0.0, 5.0], [2.0, 0.0, 0.0]])  # repeated (0, 2) adds
    assert np.array_equal(ad.coo_to_dense(np.zeros(0), [], [], (2, 3)), np.zeros((2, 3)))


def test_reduce_examples():
    # Reductions over rows are segment ops with one segment.
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.segment_mean(m, [0, 0], [2]).data, [[2.0, 3.0]])
    column = Tensor([[1.0], [2.0], [3.0]])
    assert np.array_equal(ad.segment_sum(column, [0, 0, 0], 1, np.ones(3)).data, [[6.0]])
    single = Tensor([[5.0, 6.0]])
    assert np.array_equal(ad.segment_mean(single, [0], [1]).data, [[5.0, 6.0]])


def test_concat_examples():
    assert np.array_equal(ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])]).data, [1.0, 2.0, 3.0])
    assert np.array_equal(ad.concat([Tensor([7.0]), Tensor(np.zeros(0))]).data, [7.0])
    wide = ad.concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))], axis=1)
    assert wide.data.shape == (2, 5)
    with pytest.raises(DimensionError, match="empty sequence"):
        ad.concat([])
    with pytest.raises(DimensionError, match="ranks differ"):
        ad.concat([Tensor(np.ones((2, 2))), Tensor(np.ones(2))])


def test_backward_linear():
    x = Tensor([2.0])
    with Tape() as tape:
        tape.watch(x)
        y = _dot(x, Tensor([3.0]))
    assert ad.backward(tape, y)[x][0] == 3.0


def test_backward_adds_the_gradients_of_an_input_used_twice():
    x = Tensor([[5.0]])
    with Tape() as tape:
        tape.watch(x)
        y = ad.affine(x, x, Tensor([0.0]))  # x * x
    assert ad.backward(tape, y)[x][0, 0] == 10.0


def test_backward_softmax_jacobian():
    # One set of two one-hot rows with d_k = 1: row i's logit is wq[i]
    # (1.3 for both) and the output is the softmax of the logits.
    wq = Tensor([[1.3], [1.3]])
    eye = Tensor(np.eye(2))
    pick_first = Tensor([[1.0, 0.0]])
    with Tape() as tape:
        tape.watch(wq)
        out = ad.set_attention(eye, wq, Tensor(np.ones((2, 1))), eye, [1.0, 1.0], [0, 0], 1)
        y = _dot(out, pick_first)
    assert np.array_equal(out.data, [[0.5, 0.5]])
    grad = ad.backward(tape, y)[wq]
    assert np.allclose(grad, [[0.25], [-0.25]], atol=1e-15)


def test_backward_requires_scalar_on_tape():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(x)
        y = ad.concat([x, x])
    with pytest.raises(TapeError):
        ad.backward(tape, y)
    with pytest.raises(TapeError):
        ad.backward(Tape(), Tensor([1.0]))


def test_item_returns_the_one_value_of_any_size_one_tensor():
    for data in (2.5, [1.5], [[-3.0]]):
        value = Tensor(data).item()
        assert type(value) is float and value == np.asarray(data).reshape(())
    for data in ([1.0, 2.0], np.zeros((0,)), np.zeros((2, 1))):
        with pytest.raises(ValueError, match=rf"got shape \({np.shape(data)[0]},"):
            Tensor(data).item()


def test_backward_untouched_param_gets_zeros():
    x = Tensor([1.0])
    unused = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        tape.watch(x, unused)
        y = ad.mse(x, Tensor([0.0]))
    grads = ad.backward(tape, y)
    assert np.array_equal(grads[unused], np.zeros((2, 2)))


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(1)
    w = Tensor(rng.uniform(-1, 1, (3, 3)))
    x = Tensor(rng.uniform(-1, 1, (3, 2)))
    with Tape() as tape:
        tape.watch(w, x)
        y = _dot(ad.affine(w, x, Tensor(np.zeros(2)), relu=True), Tensor(np.ones((3, 2))))
    first = ad.backward(tape, y)
    second = ad.backward(tape, y)
    for t in (w, x):
        assert np.array_equal(first[t], second[t])


def test_finite_diff_square():
    x = Tensor([3.0])
    fd = ad.finite_diff_gradient(lambda: float(x.data[0] ** 2), [x])
    assert abs(fd[x][0] - 6.0) <= 1e-8
    with pytest.raises(ValueError, match="must be positive"):
        ad.finite_diff_gradient(lambda: float(x.data[0] ** 2), [x], h=0)


def test_finite_diff_constant():
    x = Tensor([1.0, -1.0])
    fd = ad.finite_diff_gradient(lambda: 42.0, [x])
    assert np.array_equal(fd[x], [0.0, 0.0])


def test_gradients_per_op_match_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-2, -0.5, (3, 4)))
    b = Tensor(rng.uniform(0.5, 2, (3, 4)))
    m1 = Tensor(rng.uniform(-2, 2, (3, 4)))
    m2 = Tensor(rng.uniform(-2, 2, (4, 2)))
    m3 = Tensor(rng.uniform(-2, 2, (4, 2)))
    vec = Tensor(rng.uniform(-2, 2, 5))
    proj2 = Tensor(rng.uniform(-1, 1, (3, 2)))
    proj_vec = Tensor(rng.uniform(-1, 1, 5))
    empty = Tensor(np.zeros((0, 4)))
    seg = [0, 1, 0, 3, 1]  # segment 2 is empty
    col5 = Tensor(rng.uniform(-2, 2, (5, 1)))
    fractions5 = rng.uniform(0.1, 1, 5)
    proj4 = Tensor(rng.uniform(-1, 1, (4, 4)))
    row2 = Tensor(rng.uniform(-2, 2, 2))
    op3 = rng.uniform(-1, 1, (3, 3))
    proj24 = Tensor(rng.uniform(-1, 1, (2, 4)))
    # A triangle with a pendant atom and an isolated one, as directed edges
    # (the reverse of edge e is e ^ 1).
    src = np.array([0, 1, 1, 2, 2, 0, 2, 3])
    dst = np.array([1, 0, 2, 1, 0, 2, 3, 2])
    bonds = np.array([1.0, 1.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.0])
    x5 = Tensor(rng.uniform(-1, 1, (5, 3)))
    w32 = [Tensor(rng.uniform(-1, 1, (3, 2))) for _ in range(2)]
    att = Tensor(rng.uniform(-1, 1, 4))
    w_in = Tensor(rng.uniform(-1, 1, (4, 2)))
    w_h = Tensor(rng.uniform(-1, 1, (2, 2)))
    w_out = Tensor(rng.uniform(-1, 1, (5, 2)))
    proj52 = Tensor(rng.uniform(-1, 1, (5, 2)))
    wq, wk = (Tensor(rng.uniform(-1, 1, (4, 3))) for _ in range(2))
    wv = Tensor(rng.uniform(-1, 1, (4, 4)))
    fractions = rng.uniform(0.1, 1, 3)

    cases = [
        (lambda: _dot(ad.segment_sum(a, [2, 0, 2], 4, fractions), proj4), [a]),
        (lambda: _dot(ad.segment_sum(col5, seg, 4, -fractions5), Tensor(np.ones((4, 1)))), [col5]),
        (lambda: _dot(ad.segment_sum(empty, [], 2, []), Tensor(np.ones((2, 4)))), [empty]),
        (lambda: _dot(ad.concat([a, b], axis=1), Tensor(np.ones((3, 8)))), [a, b]),
        (lambda: _dot(ad.rows(m1, [2, 0, 2]), Tensor(np.ones((3, 4)))), [m1]),
        (lambda: _dot(ad.reshape(a, (4, 3)), Tensor(np.ones((4, 3)))), [a]),
        (lambda: _dot(ad.affine(m1, m2, row2), proj2), [m1, m2, row2]),
        (lambda: _dot(ad.affine(m1, m2, row2, relu=True), proj2), [m1, m2, row2]),
        (lambda: _dot(ad.graph_conv(m1, op3, m2), proj2), [m1, m2]),
        (lambda: _dot(ad.graph_conv(m1, op3, m2, m3, relu=True), proj2), [m1, m2, m3]),
        (lambda: _dot(ad.segment_mean(a, [1, 0, 1], [1, 2]), proj24), [a]),
        (lambda: ad.mse(vec, proj_vec), [vec, proj_vec]),
        (
            lambda: _dot(ad.gat_conv(x5, src, dst, *w32, att, GAT_LEAKY_SLOPE), proj52),
            [x5, *w32, att],
        ),
        (
            lambda: _dot(ad.gat_conv(x5, src, dst, *w32, att, GAT_LEAKY_SLOPE, True), proj52),
            [x5, *w32, att],
        ),
        (
            lambda: _dot(ad.dmpnn(x5, src, dst, bonds, w_in, w_h, w_out, 3), proj52),
            [x5, w_in, w_h, w_out],
        ),
        (
            lambda: _dot(ad.set_attention(m1, wq, wk, wv, fractions, [1, 0, 1], 2), proj24),
            [m1, wq, wk, wv],
        ),
    ]
    for build, params in cases:
        _check_against_fd(build, params)


def test_two_layer_network_gradient():
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.uniform(-1, 1, (4, 5)))
    w2 = Tensor(rng.uniform(-1, 1, (5, 1)))
    b1, b2 = Tensor(rng.uniform(-1, 1, 5)), Tensor(rng.uniform(-1, 1, 1))
    x = Tensor(rng.uniform(-2, 2, (3, 4)))

    def network():
        hidden = ad.affine(x, w1, b1, relu=True)
        return ad.mse(ad.affine(hidden, w2, b2), Tensor(np.zeros((3, 1))))

    _check_against_fd(network, [w1, w2, b1, b2, x])


def test_matmul_associativity():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, (3, 4)))
    b = Tensor(rng.uniform(-1, 1, (4, 5)))
    c = Tensor(rng.uniform(-1, 1, (5, 2)))
    zero2, zero5 = Tensor(np.zeros(2)), Tensor(np.zeros(5))
    left = ad.affine(ad.affine(a, b, zero5), c, zero2).data
    right = ad.affine(a, ad.affine(b, c, zero2), zero2).data
    assert np.abs(left - right).max() <= 1e-10


def test_ops_are_untaped_outside_context():
    a = Tensor([1.0, 2.0])
    out = ad.concat([a, a])
    assert out.tape is None

def test_independent_tapes_on_concurrent_threads():
    import threading

    results = {}

    def worker(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.uniform(-1, 1, (3, 3)))
        x = Tensor(rng.uniform(-1, 1, (1, 3)))
        for _ in range(50):
            with Tape() as tape:
                tape.watch(w)
                y = _dot(ad.affine(x, w, Tensor(np.zeros(3))), Tensor(np.ones((1, 3))))
            grads = ad.backward(tape, y)
        results[seed] = (grads[w], x.data.reshape(-1))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    for grad, x_row in results.values():
        # d/dW of sum(x W) puts x down every column
        assert np.allclose(grad, np.tile(x_row[:, None], (1, 3)))


def _tape_ops() -> list[str]:
    """The public ops of autodiff that record a tape node."""
    return [
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and "_record(" in inspect.getsource(fn)
    ]


def test_every_tape_op_has_a_caller():
    # A public op that records a tape node is called as `ad.<name>(` from the
    # package or a demo; an op that nothing calls is deleted, not kept alive
    # by tests (the tests' references live in frozen_ops).
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    ops = _tape_ops()
    assert len(ops) == 11, ops
    assert [name for name in ops if f"ad.{name}(" not in text] == []


def test_every_tape_node_has_one_backward_form():
    # backward calls every node's backward one way: each op records
    # (out, inputs, grad_fn), and grad_fn(g, needed) returns one entry per
    # input, with the input's shape wherever the input is needed.
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (4, 3)))
    w = [Tensor(rng.uniform(-1, 1, shape)) for shape in [(3, 2), (3, 2), (3, 3), (4, 2), (2, 2), (5, 2)]]
    src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])
    ops = {
        "affine": lambda: ad.affine(x, w[0], Tensor(np.zeros(2)), relu=True),
        "graph_conv": lambda: ad.graph_conv(x, np.eye(4), w[0], w[1], relu=True),
        "gat_conv": lambda: ad.gat_conv(x, src, dst, w[0], w[1], Tensor(np.ones(4)), GAT_LEAKY_SLOPE),
        "dmpnn": lambda: ad.dmpnn(x, src, dst, np.ones(4), w[3], w[4], w[5], 2),
        "set_attention": lambda: ad.set_attention(x, w[0], w[1], w[2], np.ones(4), [0, 0, 1, 1], 2),
        "concat": lambda: ad.concat([x, w[2]]),
        "rows": lambda: ad.rows(x, [2, 0, 2]),
        "segment_sum": lambda: ad.segment_sum(x, [0, 1, 1, 0], 2, np.ones(4)),
        "segment_mean": lambda: ad.segment_mean(x, [0, 1, 1, 0], [2, 2]),
        "mse": lambda: ad.mse(x, Tensor(np.zeros((4, 3)))),
        "reshape": lambda: ad.reshape(x, (3, 4)),
    }
    assert sorted(ops) == sorted(_tape_ops())
    for name, build in ops.items():
        with Tape() as tape:
            out = build()
        [node] = tape._nodes
        assert len(node) == 3 and node[0] is out, name
        _, inputs, grad_fn = node
        for needed in ([True] * len(inputs), [False] * len(inputs), [False] + [True] * (len(inputs) - 1)):
            grads = grad_fn(np.ones_like(out.data), needed)
            assert len(grads) == len(inputs), name
            assert all(g.shape == t.shape for g, t, need in zip(grads, inputs, needed) if need), name


def test_every_public_function_has_a_caller():
    # A public function or class of a molsets module is called or constructed
    # as `name(`, or mapped as `map(name, `, from the package, a demo or the
    # benchmark, its own `def` or `class` line not counted; one that nothing
    # calls is deleted, not kept alive by tests.
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    uncalled = []
    for info in pkgutil.iter_modules(molsets.__path__):
        module = importlib.import_module(f"molsets.{info.name}")
        for name, obj in vars(module).items():
            if (
                (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
                and name[0] != "_"
            ):
                calls = len(re.findall(rf"\b{name}\(|\bmap\({name},", text))
                if calls == len(re.findall(rf"\b(?:def|class) {name}\(", text)):
                    uncalled.append(f"{module.__name__}.{name}")
    assert uncalled == []


def test_no_module_imports_a_name_it_never_uses():
    # A name a molsets module imports is read somewhere in that module;
    # __init__.py is left out, since its imports are the package's API.
    unused = []
    for path in sorted((ROOT / "src" / "molsets").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []
