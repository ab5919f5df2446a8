import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molsets import autodiff as ad
from molsets.autodiff import DimensionError, Tape, TapeError, Tensor


def _rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


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
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    v = Tensor([[3.0], [4.0]])
    assert np.array_equal(ad.matmul(eye, v).data, [[3.0], [4.0]])
    assert ad.matmul(Tensor([[1.0, 2.0]]), v).data[0, 0] == 11.0
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_elementwise_examples():
    assert np.array_equal(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])
    assert np.allclose(ad.leaky_relu(Tensor([-1.0, 2.0]), 0.2).data, [-0.2, 2.0])
    assert np.array_equal(ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])
    with pytest.raises(DimensionError):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_row_and_column_broadcast_examples():
    m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    row = Tensor([10.0, 20.0])
    column = Tensor([[2.0], [0.0], [-1.0]])
    assert np.array_equal(ad.add(m, row).data, [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])
    assert np.array_equal(ad.add(row, m).data, ad.add(m, row).data)
    assert np.array_equal(ad.mul(m, row).data, [[10.0, 40.0], [30.0, 80.0], [50.0, 120.0]])
    assert np.array_equal(ad.mul(m, column).data, [[2.0, 4.0], [0.0, 0.0], [-5.0, -6.0]])
    assert np.array_equal(ad.sub(column, m).data, [[1.0, 0.0], [-3.0, -4.0], [-6.0, -7.0]])
    with Tape() as tape:
        out = ad.reduce_sum(ad.add(ad.mul(m, column), row))
    grads = ad.backward(tape, out)
    assert np.array_equal(grads[row], [3.0, 3.0])  # summed over the rows
    assert np.array_equal(grads[column], [[3.0], [7.0], [11.0]])  # summed over the columns
    for a, b in [
        (m, Tensor([1.0, 2.0, 3.0])),  # (B, k) with (k + 1,)
        (m, Tensor(np.ones((3, 3)))),
        (m, Tensor(np.ones((2, 1)))),  # a column of the wrong length
        (m, Tensor(np.ones((1, 2)))),
        (m, Tensor(np.ones(6))),
        (Tensor(np.ones((2, 3, 2))), row),
    ]:
        with pytest.raises(DimensionError):
            ad.add(a, b)
        with pytest.raises(DimensionError):
            ad.mul(b, a)


def test_segment_sum_examples():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    out = ad.segment_sum(x, [2, 0, 2, 0], 4)  # segments 1 and 3 are empty
    assert np.array_equal(out.data, [[10.0, 12.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    assert np.array_equal(ad.segment_sum(Tensor([1.0, 2.0, 4.0]), [1, 1, 0], 2).data, [4.0, 3.0])
    assert np.array_equal(ad.segment_sum(Tensor(np.zeros((0, 3))), [], 2).data, np.zeros((2, 3)))
    with Tape() as tape:
        out = ad.segment_sum(x, [2, 0, 2, 0], 4)
        total = ad.reduce_sum(ad.mul(out, Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])))
    grads = ad.backward(tape, total)
    assert np.array_equal(grads[x], [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0], [1.0, 2.0]])
    with pytest.raises(DimensionError):
        ad.segment_sum(x, [0, 1, 0], 2)
    with pytest.raises(DimensionError):
        ad.segment_sum(Tensor(np.zeros((2, 2, 2))), [0, 1], 2)


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
        loss = ad.reduce_sum(ad.mul(ad.rows(x, idx), Tensor(g)))
    assert np.array_equal(ad.backward(tape, loss)[x], expected)
    assert np.array_equal(ad.segment_sum(Tensor(g), idx, n).data, expected)
    column = np.zeros(n)
    np.add.at(column, idx, g[:, 0])
    assert np.array_equal(ad.segment_sum(Tensor(g[:, 0]), idx, n).data, column)


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
            loss = out if proj is None else ad.reduce_sum(ad.mul(out, proj))
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
        y = ad.add(ad.matmul(x, w), b)
        return ad.relu(y) if relu else y

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
        neigh = ad.matmul(ad.matmul(Tensor(op), x), w_neigh)
        y = ad.add(ad.matmul(x, w_self), neigh) if with_self else neigh
        return ad.relu(y) if relu else y

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
        return ad.mul(ad.segment_sum(x, seg, sizes.size), Tensor(1.0 / sizes[:, None]))

    proj = Tensor(rng.uniform(-1, 1, (sizes.size, k)))
    _assert_same_node(lambda: ad.segment_mean(x, seg, sizes), composed, [x], proj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), exact=st.booleans(), seed=_SEEDS)
@example(n=1, exact=True, seed=0)
def test_mse_matches_sub_mul_reduce_mean(n, exact, seed):
    rng = np.random.default_rng(seed)
    preds, targets = Tensor(_draw(rng, n, exact)), Tensor(_draw(rng, n, exact))

    def composed():
        diff = ad.sub(preds, targets)
        return ad.reduce_mean(ad.mul(diff, diff))

    _assert_same_node(lambda: ad.mse(preds, targets), composed, [preds, targets])


def test_fused_relu_on_the_kink():
    # Pre-activations of exactly 0 pass no gradient, as in ad.relu.
    x, w, b = Tensor([[1.0, -1.0], [2.0, 0.5]]), Tensor([[1.0], [1.0]]), Tensor([0.0])
    with Tape() as tape:
        out = ad.affine(x, w, b, relu=True)
        loss = ad.reduce_sum(out)
    assert np.array_equal(out.data, [[0.0], [2.5]])
    grads = ad.backward(tape, loss)
    assert np.array_equal(grads[x], [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(grads[b], [1.0])
    op = np.array([[0.0, 1.0], [1.0, 0.0]])
    with Tape() as tape:
        tape.watch(w)
        out = ad.graph_conv(x, op, w, relu=True)  # rows 2.5 and 0.0
        loss = ad.reduce_sum(out)
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


def test_softmax_examples():
    assert np.array_equal(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    assert np.array_equal(ad.softmax(Tensor([17.3])).data, [1.0])
    out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)])).data
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-5, 5, size=rng.integers(1, 9))
        y = ad.softmax(Tensor(x)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        shifted = ad.softmax(Tensor(x + 3.7)).data
        assert np.abs(y - shifted).max() <= 1e-12


def test_segment_softmax_examples():
    seg = [0, 1, 0, 2, 1, 0]
    x = [0.3, -1.2, 2.0, 5.0, 0.7, -0.4]
    y = ad.segment_softmax(Tensor(x), seg, 4).data
    # Segment 3 has no entries, so its sum is 0; the others sum to 1.
    assert np.abs(np.bincount(seg, y, 4) - [1.0, 1.0, 1.0, 0.0]).max() <= 1e-12
    assert np.abs(y[[0, 2, 5]] - ad.softmax(Tensor([0.3, 2.0, -0.4])).data).max() <= 1e-15
    assert y[3] == 1.0
    # Each segment is shifted by its own maximum, so distant segments stay finite.
    far = ad.segment_softmax(Tensor([-1000.0, -1001.0, 1000.0]), [0, 0, 1], 2).data
    assert np.all(np.isfinite(far)) and far[2] == 1.0
    assert ad.segment_softmax(Tensor(np.zeros(0)), [], 3).shape == (0,)
    with pytest.raises(DimensionError):
        ad.segment_softmax(Tensor([1.0, 2.0]), [0], 1)


def test_coo_matrix_examples():
    m = ad.coo_matrix(Tensor([1.0, 2.0, 3.0, 4.0]), [0, 1, 0, 0], [2, 0, 0, 2], (2, 3)).data
    assert np.array_equal(m, [[3.0, 0.0, 5.0], [2.0, 0.0, 0.0]])  # repeated (0, 2) adds
    assert np.array_equal(ad.coo_matrix(Tensor(np.zeros(0)), [], [], (2, 3)).data, np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        ad.coo_matrix(Tensor([1.0, 2.0]), [0, 1], [0], (2, 2))


def test_reduce_examples():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.reduce_mean(m, axis=0).data, [2.0, 3.0])
    assert ad.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0
    single = Tensor([[5.0, 6.0]])
    assert np.array_equal(ad.reduce_mean(single, axis=0).data, [5.0, 6.0])


def test_concat_examples():
    assert np.array_equal(ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])]).data, [1.0, 2.0, 3.0])
    assert np.array_equal(ad.concat([Tensor([7.0]), Tensor(np.zeros(0))]).data, [7.0])
    wide = ad.concat([Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))], axis=1)
    assert wide.data.shape == (2, 5)


def test_backward_linear():
    x = Tensor([2.0])
    with Tape() as tape:
        tape.watch(x)
        y = ad.reduce_sum(ad.scale(x, 3.0))
    assert ad.backward(tape, y)[x][0] == 3.0


def test_backward_square_through_mul():
    x = Tensor([5.0])
    with Tape() as tape:
        tape.watch(x)
        y = ad.reduce_sum(ad.mul(x, x))
    assert ad.backward(tape, y)[x][0] == 10.0


def test_backward_softmax_jacobian():
    x = Tensor([1.3, 1.3])
    pick_first = Tensor([1.0, 0.0])
    with Tape() as tape:
        tape.watch(x)
        y = ad.reduce_sum(ad.mul(ad.softmax(x), pick_first))
    grad = ad.backward(tape, y)[x]
    assert np.allclose(grad, [0.25, -0.25], atol=1e-15)


def test_backward_requires_scalar_on_tape():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(x)
        y = ad.scale(x, 2.0)
    with pytest.raises(TapeError):
        ad.backward(tape, y)
    with pytest.raises(TapeError):
        ad.backward(Tape(), Tensor([1.0]))


def test_backward_untouched_param_gets_zeros():
    x = Tensor([1.0])
    unused = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        tape.watch(x, unused)
        y = ad.reduce_sum(ad.mul(x, x))
    grads = ad.backward(tape, y)
    assert np.array_equal(grads[unused], np.zeros((2, 2)))


def test_backward_replay_is_bit_identical():
    rng = np.random.default_rng(1)
    w = Tensor(rng.uniform(-1, 1, (3, 3)))
    x = Tensor(rng.uniform(-1, 1, (3, 2)))
    with Tape() as tape:
        tape.watch(w, x)
        y = ad.reduce_sum(ad.relu(ad.matmul(w, x)))
    first = ad.backward(tape, y)
    second = ad.backward(tape, y)
    for t in (w, x):
        assert np.array_equal(first[t], second[t])


def test_finite_diff_square():
    x = Tensor([3.0])
    fd = ad.finite_diff_gradient(lambda: float(x.data[0] ** 2), [x])
    assert abs(fd[x][0] - 6.0) <= 1e-8


def test_finite_diff_constant():
    x = Tensor([1.0, -1.0])
    fd = ad.finite_diff_gradient(lambda: 42.0, [x])
    assert np.array_equal(fd[x], [0.0, 0.0])


def test_gradients_per_op_match_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-2, -0.5, (3, 4)))  # keep relu inputs off the kink
    b = Tensor(rng.uniform(0.5, 2, (3, 4)))
    m1 = Tensor(rng.uniform(-2, 2, (3, 4)))
    m2 = Tensor(rng.uniform(-2, 2, (4, 2)))
    vec = Tensor(rng.uniform(-2, 2, 5))
    proj = Tensor(rng.uniform(-1, 1, (3, 4)))
    proj2 = Tensor(rng.uniform(-1, 1, (3, 2)))
    proj_vec = Tensor(rng.uniform(-1, 1, 5))
    scalar = Tensor([1.5])
    empty = Tensor(np.zeros(0))
    seg = [0, 1, 0, 3, 1]  # segment 2 is empty
    row4 = Tensor(rng.uniform(-2, 2, 4))
    col3 = Tensor(rng.uniform(-2, 2, (3, 1)))
    proj4 = Tensor(rng.uniform(-1, 1, (4, 4)))
    coo = ([0, 2, 1, 0, 2], [3, 0, 3, 3, 1])  # (0, 3) repeats
    m3 = Tensor(rng.uniform(-2, 2, (4, 2)))
    row2 = Tensor(rng.uniform(-2, 2, 2))
    op3 = rng.uniform(-1, 1, (3, 3))
    proj24 = Tensor(rng.uniform(-1, 1, (2, 4)))

    cases = [
        (lambda: ad.reduce_sum(ad.mul(ad.add(a, b), proj)), [a, b]),
        (lambda: ad.reduce_sum(ad.mul(ad.sub(a, b), proj)), [a, b]),
        (lambda: ad.reduce_sum(ad.mul(ad.mul(a, b), proj)), [a, b]),
        (lambda: ad.reduce_sum(ad.mul(ad.scale(a, -2.5), proj)), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.add(a, scalar), proj)), [a, scalar]),
        (lambda: ad.reduce_sum(ad.mul(ad.relu(a), proj)), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.relu(b), proj)), [b]),
        (lambda: ad.reduce_sum(ad.mul(ad.leaky_relu(a, 0.2), proj)), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.matmul(m1, m2), proj2)), [m1, m2]),
        (lambda: ad.reduce_sum(ad.mul(ad.softmax(vec), proj_vec)), [vec]),
        (lambda: ad.reduce_sum(ad.mul(ad.segment_softmax(vec, seg, 4), proj_vec)), [vec]),
        (lambda: ad.reduce_sum(ad.segment_softmax(empty, [], 2)), [empty]),
        (lambda: ad.reduce_sum(ad.mul(ad.coo_matrix(vec, *coo, (3, 4)), proj)), [vec]),
        (lambda: ad.reduce_sum(ad.mul(ad.add(a, row4), proj)), [a, row4]),
        (lambda: ad.reduce_sum(ad.mul(ad.sub(row4, a), proj)), [a, row4]),
        (lambda: ad.reduce_sum(ad.mul(ad.mul(a, row4), proj)), [a, row4]),
        (lambda: ad.reduce_sum(ad.mul(ad.mul(col3, b), proj)), [b, col3]),
        (lambda: ad.reduce_sum(ad.mul(ad.segment_sum(a, [2, 0, 2], 4), proj4)), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.segment_sum(vec, seg, 4), Tensor(np.arange(4.0)))), [vec]),
        (
            lambda: ad.reduce_sum(ad.mul(ad.matmul(ad.coo_matrix(empty, [], [], (3, 4)), m2), proj2)),
            [empty, m2],
        ),
        (lambda: ad.reduce_sum(ad.mul(ad.reduce_mean(a, axis=0), Tensor(np.arange(4.0)))), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=1), Tensor(np.arange(3.0)))), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=1), Tensor(np.ones((3, 8))))), [a, b]),
        (lambda: ad.reduce_sum(ad.mul(ad.rows(m1, [2, 0, 2]), Tensor(np.ones((3, 4))))), [m1]),
        (lambda: ad.reduce_sum(ad.mul(ad.reshape(a, (4, 3)), Tensor(np.ones((4, 3))))), [a]),
        (lambda: ad.reduce_sum(ad.mul(ad.affine(m1, m2, row2), proj2)), [m1, m2, row2]),
        (lambda: ad.reduce_sum(ad.mul(ad.affine(m1, m2, row2, relu=True), proj2)), [m1, m2, row2]),
        (lambda: ad.reduce_sum(ad.mul(ad.graph_conv(m1, op3, m2), proj2)), [m1, m2]),
        (
            lambda: ad.reduce_sum(ad.mul(ad.graph_conv(m1, op3, m2, m3, relu=True), proj2)),
            [m1, m2, m3],
        ),
        (lambda: ad.reduce_sum(ad.mul(ad.segment_mean(a, [1, 0, 1], [1, 2]), proj24)), [a]),
        (lambda: ad.mse(vec, proj_vec), [vec, proj_vec]),
    ]
    for build, params in cases:
        _check_against_fd(build, params)


def test_two_layer_network_gradient():
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.uniform(-1, 1, (4, 5)))
    w2 = Tensor(rng.uniform(-1, 1, (5, 1)))
    x = Tensor(rng.uniform(-2, 2, (3, 4)))

    def network():
        hidden = ad.relu(ad.matmul(x, w1))
        return ad.reduce_mean(ad.matmul(hidden, w2))

    _check_against_fd(network, [w1, w2, x])


def test_matmul_associativity():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, (3, 4)))
    b = Tensor(rng.uniform(-1, 1, (4, 5)))
    c = Tensor(rng.uniform(-1, 1, (5, 2)))
    left = ad.matmul(ad.matmul(a, b), c).data
    right = ad.matmul(a, ad.matmul(b, c)).data
    assert np.abs(left - right).max() <= 1e-10


def test_ops_are_untaped_outside_context():
    a = Tensor([1.0, 2.0])
    out = ad.relu(a)
    assert out.tape is None

def test_independent_tapes_on_concurrent_threads():
    import threading

    results = {}

    def worker(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.uniform(-1, 1, (3, 3)))
        x = Tensor(rng.uniform(-1, 1, (3, 1)))
        for _ in range(50):
            with Tape() as tape:
                tape.watch(w)
                y = ad.reduce_sum(ad.matmul(w, x))
            grads = ad.backward(tape, y)
        results[seed] = (grads[w], x.data.reshape(-1))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    for grad, x_row in results.values():
        # d/dW of sum(W x) puts x along every row
        assert np.allclose(grad, np.tile(x_row, (3, 1)))

