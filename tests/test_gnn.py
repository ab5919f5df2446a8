from dataclasses import replace
from itertools import accumulate

import frozen_ops as F
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molsets import autodiff as ad
from molsets import model as model_mod
from molsets.autodiff import Tape, Tensor
from molsets.chem import NODE_FEATURE_DIM, MolecularGraph
from molsets.gnn import (
    CONV_KINDS,
    GAT_LEAKY_SLOPE,
    ConvParams,
    GraphTensors,
    conv_forward,
    conv_shapes,
    mean_pool,
)
from molsets.model import (
    MixtureInput,
    ModelConfig,
    build_model,
    embed_unions,
    forward,
    named_parameters,
)


def _graph(n, edges):
    """MolecularGraph of n nodes with zero features from a list of (i, j, w)
    bonds."""
    edge_index = np.array([(i, j) for i, j, _ in edges], np.intp).reshape(-1, 2)
    edge_order = np.array([w for _, _, w in edges], np.float64)
    return MolecularGraph(np.zeros((n, NODE_FEATURE_DIM)), edge_index, edge_order, 0.0, "")


def _tensors(n, edges):
    """GraphTensors of one graph of n nodes from a list of (i, j, w) bonds."""
    return GraphTensors([_graph(n, edges)])


def _layer(kind, input_dim, output_dim, rng):
    """One conv layer on its own: each tensor of conv_shapes drawn in order
    from U(+-1/sqrt(shape[0])), the draw build_model makes for a layer; a
    DMPNN layer runs 2 iterations."""
    tensors = {
        name: Tensor(rng.uniform(-1 / np.sqrt(shape[0]), 1 / np.sqrt(shape[0]), shape))
        for name, shape in conv_shapes(kind, input_dim, output_dim)
    }
    return ConvParams(kind, **tensors, iterations=2 if kind == "dmpnn" else None)


def _scalar_conv(kind):
    p = ConvParams(kind)
    p.w1 = Tensor([[1.0]])
    p.w2 = Tensor([[1.0]])
    return p


def test_graphconv_two_node_example():
    gt = _tensors(2, [(0, 1, 1.0)])
    x = Tensor([[1.0], [2.0]])
    out = conv_forward(_scalar_conv("graphconv"), x, gt).data
    assert np.allclose(out, [[3.0], [3.0]])


def test_graphconv_uses_edge_weights():
    gt = _tensors(2, [(0, 1, 2.0)])
    x = Tensor([[1.0], [2.0]])
    out = conv_forward(_scalar_conv("graphconv"), x, gt).data
    assert np.allclose(out, [[5.0], [4.0]])


def test_sageconv_isolated_node():
    gt = _tensors(1, [])
    p = _scalar_conv("sageconv")
    p.w2 = Tensor([[7.0]])
    out = conv_forward(p, Tensor([[5.0]]), gt).data
    assert np.allclose(out, [[5.0]])


def test_gcnconv_two_node_example():
    gt = _tensors(2, [(0, 1, 1.0)])
    p = ConvParams("gcnconv", w1=Tensor([[1.0]]))
    out = conv_forward(p, Tensor([[1.0], [2.0]]), gt).data
    assert np.allclose(out, [[1.5], [1.5]])


def test_gatconv_zero_attention_is_uniform():
    gt = _tensors(2, [(0, 1, 1.0)])
    p = ConvParams("gatconv", w1=Tensor([[2.0]]), w2=Tensor([[3.0]]), att=Tensor([0.0, 0.0]))
    out = conv_forward(p, Tensor([[1.0], [1.0]]), gt).data
    # alpha uniform over {self, neighbor}: 0.5 * W1 x_i + 0.5 * W2 x_j
    assert np.allclose(out, [[2.5], [2.5]])


def test_gatconv_attention_sums_to_one():
    # With shared weights and identical node features the output reduces
    # to W x regardless of the attention logits, so the scores sum to 1.
    rng = np.random.default_rng(4)
    gt = _tensors(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (0, 3, 1.0)])
    w = rng.uniform(-1, 1, (3, 3))
    p = ConvParams(
        "gatconv",
        w1=Tensor(w),
        w2=Tensor(w.copy()),
        att=Tensor(rng.uniform(-1, 1, 6)),
    )
    row = rng.uniform(-1, 1, 3)
    x = np.tile(row, (4, 1))
    out = conv_forward(p, Tensor(x), gt).data
    assert np.abs(out - row @ w).max() <= 1e-12


def test_dmpnn_two_node_fixed_point():
    rng = np.random.default_rng(5)
    p = _layer("dmpnn", 2, 3, rng)
    gt = _tensors(2, [(0, 1, 1.0)])
    x = Tensor(rng.uniform(-1, 1, (2, 2)))
    one = conv_forward(replace(p, iterations=1), x, gt).data
    two = conv_forward(replace(p, iterations=2), x, gt).data
    assert np.array_equal(one, two)


def test_dmpnn_isolated_node_readout():
    rng = np.random.default_rng(6)
    p = _layer("dmpnn", 2, 3, rng)
    gt = _tensors(1, [])
    x = np.array([[0.3, -0.7]])
    out = conv_forward(p, Tensor(x), gt).data
    expected = np.maximum(np.concatenate([x, np.zeros((1, 3))], axis=1) @ p.w_out.data, 0.0)
    assert np.allclose(out, expected)


def test_global_mean_pool():
    pair = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mean_pool(pair, _tensors(2, [])).data, [[2.0, 3.0]])
    assert np.array_equal(mean_pool(Tensor([[7.0, 8.0]]), _tensors(1, [])).data, [[7.0, 8.0]])
    # a union pools each member graph on its own, in union order
    union = GraphTensors([_graph(1, []), _graph(2, [(0, 1, 1.0)])])
    x = Tensor([[7.0, 8.0], [1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mean_pool(x, union).data, [[7.0, 8.0], [2.0, 3.0]])
    with pytest.raises(ad.DimensionError):
        mean_pool(Tensor(np.zeros((0, 2))), _tensors(0, []))


def test_global_mean_pool_permutation_invariant():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (6, 4))
    perm = rng.permutation(6)
    gt = _tensors(6, [])
    assert np.allclose(mean_pool(Tensor(x), gt).data, mean_pool(Tensor(x[perm]), gt).data)


def test_union_offsets_edges_and_keeps_reverse_pairs():
    a = _graph(2, [(0, 1, 2.0)])
    b = _graph(1, [])
    c = _graph(3, [(0, 2, 1.5), (1, 2, 1.0)])
    union = GraphTensors([a, b, c])
    assert union.n == 6 and union.sizes.tolist() == [2, 1, 3]
    assert union.node_graph.tolist() == [0, 0, 1, 2, 2, 2]
    assert union.src.tolist() == [0, 1, 3, 5, 4, 5]
    assert union.dst.tolist() == [1, 0, 5, 3, 5, 4]
    assert union.w.tolist() == [2.0, 2.0, 1.5, 1.5, 1.0, 1.0]
    e = np.arange(union.src.size)
    assert np.array_equal(union.src[e ^ 1], union.dst)
    # the dense operators are block diagonal
    blocks = np.zeros((6, 6))
    blocks[:2, :2] = GraphTensors([a]).gcn
    blocks[2:3, 2:3] = GraphTensors([b]).gcn
    blocks[3:, 3:] = GraphTensors([c]).gcn
    assert np.array_equal(union.gcn, blocks)


def test_dmpnn_builds_no_edge_by_edge_matrix():
    rng = np.random.default_rng(8)
    gt = GraphTensors([_graph(5, _random_graph(rng, 5)) for _ in range(3)])
    m = gt.src.size
    params = replace(_layer("dmpnn", 4, 3, rng), iterations=3)
    conv_forward(params, Tensor(rng.uniform(-1, 1, (gt.n, 4))), gt)
    for name, value in vars(gt).items():
        shape = np.shape(value.data if isinstance(value, Tensor) else value)
        assert len(shape) < 2 or m not in shape, name


def test_conv_rejects_wrong_feature_dim():
    gt = _tensors(2, [(0, 1, 1.0)])
    p = _layer("graphconv", 3, 2, np.random.default_rng(0))
    with pytest.raises(ad.DimensionError):
        conv_forward(p, Tensor(np.zeros((2, 5))), gt)


def test_conv_refuses_unknown_kinds_and_zero_iterations():
    gt = _tensors(2, [(0, 1, 1.0)])
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="does not handle kind 'foo'"):
        conv_forward(ConvParams("foo"), x, gt)
    with pytest.raises(ValueError, match="unknown convolution kind 'foo'"):
        conv_shapes("foo", 3, 2)
    layer = _layer("dmpnn", 3, 2, np.random.default_rng(0))
    for iterations in (None, 0):
        with pytest.raises(ValueError, match="dmpnn needs at least one iteration"):
            conv_forward(replace(layer, iterations=iterations), x, gt)


@pytest.mark.parametrize("relu", [False, True])
def test_conv_forward_runs_dmpnn_as_one_ad_dmpnn_node(relu):
    rng = np.random.default_rng(10)
    gt = GraphTensors([_graph(5, _random_graph(rng, 5)), _graph(3, [(0, 1, 2.0)])])
    x = Tensor(rng.uniform(-1, 1, (gt.n, 4)))
    proj = Tensor(rng.uniform(-1, 1, (gt.n, 3)))
    layer = _layer("dmpnn", 4, 3, rng)
    tensors = [x, layer.w_in, layer.w_h, layer.w_out]

    def run(forward):
        with Tape() as tape:
            tape.watch(*tensors)
            out = forward()
            loss = F.reduce_sum(F.mul(out, proj))
        return out.data, ad.backward(tape, loss)

    for k in (1, 2, 3):
        out, grads = run(lambda: conv_forward(replace(layer, iterations=k), x, gt, relu=relu))
        ref, ref_grads = run(
            lambda: ad.dmpnn(x, gt.src, gt.dst, gt.w, layer.w_in, layer.w_h, layer.w_out, k)
        )
        assert np.array_equal(out, ref)
        for t in tensors:
            assert np.array_equal(grads[t], ref_grads[t])


@pytest.mark.parametrize("kind", CONV_KINDS)
def test_every_layer_of_both_pathways_runs_through_conv_forward(kind, monkeypatch):
    params = build_model(ModelConfig.for_conv(kind))
    ran = []

    def recording(layer, *args, **kwargs):
        ran.append(layer)
        return conv_forward(layer, *args, **kwargs)

    monkeypatch.setattr(model_mod, "conv_forward", recording)
    graph = _random_molecule(7, 3)
    forward(params, MixtureInput([(graph, 1.0)], graph, 1.0))
    layers = params.phi_solvent.convs + params.phi_salt.convs
    assert len(layers) == (2 if kind == "dmpnn" else 2 * params.config.num_layers)
    assert len(ran) == len(layers) and all(a is b for a, b in zip(ran, layers))


def _random_graph(rng, n=6):
    edges = []
    seen = set()
    for _ in range(8):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], float(rng.choice([1.0, 1.5, 2.0, 3.0]))))
    return edges


@pytest.mark.parametrize("kind", ["graphconv", "sageconv", "gcnconv", "gatconv", "dmpnn"])
def test_node_permutation_equivariance(kind):
    rng = np.random.default_rng(42)
    n = 6
    for trial in range(5):
        edges = _random_graph(rng, n)
        x = rng.uniform(-1, 1, (n, 4))
        params = _layer(kind, 4, 3, np.random.default_rng(100 + trial))
        perm = rng.permutation(n)
        relabel = {old: new for new, old in enumerate(perm)}
        permuted_edges = [(relabel[i], relabel[j], w) for i, j, w in edges]

        gt = _tensors(n, edges)
        gt_perm = _tensors(n, permuted_edges)
        out = conv_forward(params, Tensor(x), gt).data
        out_perm = conv_forward(params, Tensor(x[perm]), gt_perm).data
        assert np.abs(out_perm - out[perm]).max() <= 1e-10


@pytest.mark.parametrize("kind", ["graphconv", "sageconv", "gcnconv", "gatconv", "dmpnn"])
def test_conv_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(9)
    gt = _tensors(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5)])
    x = Tensor(rng.uniform(-1, 1, (4, 3)))
    params = _layer(kind, 3, 2, rng)
    proj = Tensor(rng.uniform(-1, 1, (4, 2)))
    tensors = [getattr(params, name) for name, _ in conv_shapes(kind, 3, 2)]

    def run():
        return F.reduce_sum(F.mul(conv_forward(params, x, gt), proj))

    with Tape() as tape:
        tape.watch(*tensors)
        loss = run()
    grads = ad.backward(tape, loss)
    fd = ad.finite_diff_gradient(lambda: run().item(), tensors)
    for t in tensors:
        denom = max(np.linalg.norm(fd[t]), np.linalg.norm(grads[t]), 1e-10)
        assert np.linalg.norm(grads[t] - fd[t]) / denom <= 1e-6


# Reference operators: the dense loop-built matrices and GAT's per-node loop
# that the edge-list GraphTensors replaced, on the frozen primitives of
# frozen_ops (F). Edges are (i, j, w), undirected.


def _reference_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def _reference_weighted(n, edges):
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = w
        a[j, i] = w
    return Tensor(a)


def _reference_mean(n, edges):
    a = np.zeros((n, n))
    for i, nbrs in enumerate(_reference_adjacency(n, edges)):
        if nbrs:
            for j, _ in nbrs:
                a[i, j] = 1.0 / len(nbrs)
    return Tensor(a)


def _reference_gcn(n, edges):
    deg = np.ones(n)  # self loop weight 1
    for i, j, w in edges:
        deg[i] += w
        deg[j] += w
    a = np.diag(1.0 / deg)  # self term e_ii = 1
    for i, j, w in edges:
        a[i, j] = w / np.sqrt(deg[i] * deg[j])
        a[j, i] = a[i, j]
    return Tensor(a)


def _reference_dmpnn_tensors(n, edges):
    adj = _reference_adjacency(n, edges)
    directed = []
    for i, j, w in edges:
        directed.append((i, j, w))
        directed.append((j, i, w))
    m = len(directed)
    index = {(i, j): e for e, (i, j, _) in enumerate(directed)}
    src = [i for i, _, _ in directed]
    feat = np.array([[w] for _, _, w in directed]).reshape(m, 1)
    msg = np.zeros((m, m))
    incoming = np.zeros((n, m))
    for e, (i, j, _) in enumerate(directed):
        incoming[j, e] = 1.0
        for k, _ in adj[i]:
            if k != j:
                msg[e, index[(k, i)]] = 1.0
    return (src, Tensor(feat), Tensor(msg), Tensor(incoming))


def _reference_gat(params, x, n, adj):
    out_dim = params.w1.shape[1]
    xw1 = F.matmul(x, params.w1)
    xw2 = F.matmul(x, params.w2)
    a_col = ad.reshape(params.att, (2 * out_dim, 1))
    s1 = F.matmul(xw1, ad.rows(a_col, range(out_dim)))  # (n, 1)
    s2 = F.matmul(xw2, ad.rows(a_col, range(out_dim, 2 * out_dim)))  # (n, 1)

    out_rows = []
    for i in range(n):
        nbrs = [j for j, _ in adj[i]]
        members = [i] + nbrs
        logits = F.leaky_relu(
            F.add(ad.rows(s1, [i]), ad.rows(s2, members)), GAT_LEAKY_SLOPE
        )
        alpha = F.softmax(ad.reshape(logits, (len(members),)))
        values = ad.concat([ad.rows(xw1, [i]), ad.rows(xw2, nbrs)], axis=0)
        out_rows.append(F.matmul(ad.reshape(alpha, (1, len(members))), values))
    return ad.concat(out_rows, axis=0)


def _reference_dmpnn(params, x, n, edges, iterations):
    src, edge_feat, msg, incoming = _reference_dmpnn_tensors(n, edges)
    h0 = F.relu(F.matmul(ad.concat([ad.rows(x, src), edge_feat], axis=1), params.w_in))
    h = h0
    for _ in range(iterations):
        h = F.relu(F.add(h0, F.matmul(F.matmul(msg, h), params.w_h)))
    summed = F.matmul(incoming, h)
    return F.relu(F.matmul(ad.concat([x, summed], axis=1), params.w_out))


def _reference_forward(params, x, n, edges):
    kind = params.kind
    if kind == "graphconv":
        agg = F.matmul(F.matmul(_reference_weighted(n, edges), x), params.w2)
        return F.add(F.matmul(x, params.w1), agg)
    if kind == "sageconv":
        agg = F.matmul(F.matmul(_reference_mean(n, edges), x), params.w2)
        return F.add(F.matmul(x, params.w1), agg)
    if kind == "gcnconv":
        return F.matmul(F.matmul(_reference_gcn(n, edges), x), params.w1)
    if kind == "gatconv":
        return _reference_gat(params, x, n, _reference_adjacency(n, edges))
    return _reference_dmpnn(params, x, n, edges, params.iterations)


@st.composite
def _molecule_like_graphs(draw):
    """1-8 nodes and a random set of distinct bonds in either orientation, so
    isolated nodes and several components occur."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j, draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))))
    return n, edges


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    graph=_molecule_like_graphs(),
    kind=st.sampled_from(CONV_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_list_convs_match_dense_reference(graph, kind, seed):
    n, edges = graph
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (n, 4)))
    params = _layer(kind, 4, 3, rng)
    proj = Tensor(rng.uniform(-1, 1, (n, 3)))
    tensors = [getattr(params, name) for name, _ in conv_shapes(kind, 4, 3)]
    gt = _tensors(n, edges)

    def run(forward):
        with Tape() as tape:
            tape.watch(*tensors)
            out = forward()
            loss = F.reduce_sum(F.mul(out, proj))
        return out.data, ad.backward(tape, loss)

    out, grads = run(lambda: conv_forward(params, x, gt))
    ref_out, ref_grads = run(lambda: _reference_forward(params, x, n, edges))
    assert np.abs(out - ref_out).max() <= 1e-12
    for t in tensors:
        assert np.abs(grads[t] - ref_grads[t]).max() <= 1e-12


def _reference_topology(graphs):
    """(sizes, src, dst, w) as built before GraphTensors took graphs: each
    graph's directed edges on their own, then one offset per edge for a
    union of two or more."""
    parts = [
        (
            np.array([g.n_nodes]),
            g.edge_index.reshape(-1),
            g.edge_index[:, ::-1].reshape(-1),
            np.repeat(g.edge_order, 2),
        )
        for g in graphs
    ]
    if len(parts) == 1:
        return parts[0]
    offsets = np.repeat(
        [0, *accumulate(g.n_nodes for g in graphs[:-1])], [p[1].size for p in parts]
    )
    sizes, src, dst, w = (np.concatenate(column) for column in zip(*parts))
    return sizes, src + offsets, dst + offsets, w


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs=st.lists(_molecule_like_graphs().map(lambda g: _graph(*g)), min_size=1, max_size=5))
@example(graphs=[_graph(1, [])])
@example(graphs=[_graph(1, []), _graph(3, []), _graph(2, [(0, 1, 2.0)])])
def test_topology_matches_reference_construction(graphs):
    gt = GraphTensors(graphs)
    assert gt.n == sum(g.n_nodes for g in graphs)
    for got, ref in zip((gt.sizes, gt.src, gt.dst, gt.w), _reference_topology(graphs)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


# Disjoint-union embedding against the per-molecule path it replaced: each
# graph on its own through the loop-built operators above, mean pooled
# with the frozen reduce_mean, log M appended, then the readout on one row.


def _reference_embedding(phi, graph):
    n = graph.n_nodes
    edges = [(i, j, w) for (i, j), w in zip(graph.edge_index.tolist(), graph.edge_order.tolist())]
    x = Tensor(graph.node_features)
    convs = phi.convs
    if convs[0].kind == "dmpnn":
        x = _reference_dmpnn(convs[0], x, n, edges, convs[0].iterations)
    else:
        for idx, conv in enumerate(convs):
            x = _reference_forward(conv, x, n, edges)
            if idx < len(convs) - 1:
                x = F.relu(x)
    with_mass = ad.concat([F.reduce_mean(x, axis=0), Tensor([graph.log_mol_weight])])
    return ad.affine(ad.reshape(with_mass, (1, with_mass.data.size)), phi.readout.w, phi.readout.b)


def _random_molecule(n, seed):
    """n atoms; each atom after the first bonds to an earlier one with
    probability 0.8 (so isolated atoms and several components occur),
    plus a few ring closures."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(i)), i) for i in range(1, n) if rng.random() < 0.8}
    for _ in range(n // 6):
        i, j = sorted(int(v) for v in rng.integers(0, n, 2))
        if i != j:
            pairs.add((i, j))
    edge_index = np.array(sorted(pairs), np.intp).reshape(-1, 2)
    edge_order = rng.choice([1.0, 1.5, 2.0, 3.0], len(edge_index))
    features = rng.uniform(-1, 1, (n, NODE_FEATURE_DIM))
    return MolecularGraph(
        features, edge_index, edge_order, float(rng.uniform(1, 3)), f"random-{n}-{seed}"
    )


_molecule_sizes = st.one_of(st.integers(1, 8), st.integers(60, 140))
LIMIT = model_mod._UNION_ATOMS
UNION_MICRO = dict(num_layers=2, hidden_dim=3, representation_dim=4, attention_dim=2)


@pytest.mark.parametrize("kind", CONV_KINDS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(_molecule_sizes, min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
@example(sizes=[1, 140, 3, 130, 120, 1], seed=1)  # at least two unions for every conv
def test_union_embedding_matches_per_graph_reference(kind, sizes, seed):
    graphs = [_random_molecule(n, seed + k) for k, n in enumerate(sizes)]
    params = build_model(ModelConfig.for_conv(kind, seed=seed % 1000, **UNION_MICRO))
    phi = params.phi_solvent
    tensors = [t for name, t in named_parameters(params) if name.startswith("phi_solvent.")]
    proj = Tensor(np.random.default_rng(seed).uniform(-1, 1, (len(graphs), 4)))
    if sum(sizes) > LIMIT:
        assert len(model_mod._unions(graphs)) >= 2

    def run(forward):
        with Tape() as tape:
            tape.watch(*tensors)
            out = forward()
            loss = F.reduce_sum(F.mul(out, proj))
        return out.data, ad.backward(tape, loss)

    out, grads = run(lambda: embed_unions(phi, model_mod._pack(graphs)))
    ref_out, ref_grads = run(lambda: ad.concat([_reference_embedding(phi, g) for g in graphs]))
    assert out.shape == (len(graphs), 4)
    assert np.abs(out - ref_out).max() <= 1e-12
    for t in tensors:
        assert np.abs(grads[t] - ref_grads[t]).max() <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, LIMIT + 40), max_size=30))
@example(sizes=[LIMIT - 1, 1, LIMIT, 1])  # a union may hold exactly LIMIT atoms
def test_unions_respect_the_atom_limit(sizes):
    graphs = [_random_molecule(n, 0) for n in sizes]
    unions = model_mod._unions(graphs)
    assert [g for union in unions for g in union] == graphs  # first-seen order kept
    for k, union in enumerate(unions):
        atoms = sum(g.n_nodes for g in union)
        assert atoms <= LIMIT or len(union) == 1  # only a lone oversized graph exceeds it
        if k + 1 < len(unions):  # greedy: the next graph did not fit
            assert atoms + unions[k + 1][0].n_nodes > LIMIT
