"""Graph convolution operators, directed message passing, pooling, dense layers.

All operators consume a node-feature matrix plus a GraphTensors bundle of
constant topology matrices derived from the (undirected, deduplicated)
edge list, and produce an updated node-feature matrix. Conventions for
degenerate cases: empty neighborhoods contribute a zero aggregate, the
degree-normalized operator includes a self term with unit weight, and the
attention operator runs its softmax over each node's neighborhood plus
the node itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chem import MolecularGraph

CONV_KINDS = ("graphconv", "sageconv", "gcnconv", "gatconv", "dmpnn")

GAT_LEAKY_SLOPE = 0.2


@dataclass
class ConvParams:
    kind: str
    input_dim: int
    output_dim: int
    w1: Tensor | None = None
    w2: Tensor | None = None
    att: Tensor | None = None  # (2*output_dim,), gatconv only
    w_in: Tensor | None = None  # (input_dim + 1, output_dim), dmpnn only
    w_h: Tensor | None = None  # (output_dim, output_dim), dmpnn only
    w_out: Tensor | None = None  # (input_dim + output_dim, output_dim), dmpnn only


@dataclass
class DenseParams:
    w: Tensor  # (input_dim, output_dim)
    b: Tensor  # (output_dim,)


class GraphTensors:
    """Constant topology tensors for one graph, built lazily per operator."""

    def __init__(self, n_nodes: int, edges):
        self.n = n_nodes
        self.edges = [(int(i), int(j), float(w)) for i, j, w in edges]
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(n_nodes)]
        for i, j, w in self.edges:
            self.adj[i].append((j, w))
            self.adj[j].append((i, w))
        self._weighted = None
        self._mean = None
        self._gcn = None
        self._dmpnn = None

    @classmethod
    def from_graph(cls, graph: MolecularGraph) -> "GraphTensors":
        return cls(graph.n_nodes, [(b.i, b.j, b.order_code) for b in graph.edges])

    def weighted_adjacency(self) -> Tensor:
        if self._weighted is None:
            a = np.zeros((self.n, self.n))
            for i, j, w in self.edges:
                a[i, j] = w
                a[j, i] = w
            self._weighted = Tensor(a)
        return self._weighted

    def mean_adjacency(self) -> Tensor:
        if self._mean is None:
            a = np.zeros((self.n, self.n))
            for i, nbrs in enumerate(self.adj):
                if nbrs:
                    for j, _ in nbrs:
                        a[i, j] = 1.0 / len(nbrs)
            self._mean = Tensor(a)
        return self._mean

    def gcn_adjacency(self) -> Tensor:
        if self._gcn is None:
            deg = np.ones(self.n)  # self loop weight 1
            for i, j, w in self.edges:
                deg[i] += w
                deg[j] += w
            a = np.diag(1.0 / deg)  # self term e_ii = 1
            for i, j, w in self.edges:
                a[i, j] = w / np.sqrt(deg[i] * deg[j])
                a[j, i] = a[i, j]
            self._gcn = Tensor(a)
        return self._gcn

    def dmpnn_tensors(self):
        """Directed-edge structures: source index per edge, edge features,
        message matrix M[(i->j),(k->i)] = 1 for k != j, and the incoming
        sum matrix S[i,(j->i)] = 1."""
        if self._dmpnn is None:
            directed = []
            for i, j, w in self.edges:
                directed.append((i, j, w))
                directed.append((j, i, w))
            m = len(directed)
            index = {(i, j): e for e, (i, j, _) in enumerate(directed)}
            src = [i for i, _, _ in directed]
            feat = np.array([[w] for _, _, w in directed]).reshape(m, 1)
            msg = np.zeros((m, m))
            incoming = np.zeros((self.n, m))
            for e, (i, j, _) in enumerate(directed):
                incoming[j, e] = 1.0
                for k, _ in self.adj[i]:
                    if k != j:
                        msg[e, index[(k, i)]] = 1.0
            self._dmpnn = (src, Tensor(feat), Tensor(msg), Tensor(incoming))
        return self._dmpnn


def conv_forward(params: ConvParams, x: Tensor, gt: GraphTensors) -> Tensor:
    """One graph-convolution layer; returns the updated node-feature matrix."""
    if x.data.shape[1] != params.input_dim:
        raise ad.DimensionError(
            f"node features have dim {x.data.shape[1]}, expected {params.input_dim}"
        )
    kind = params.kind
    if kind == "graphconv":
        return ad.add(
            ad.matmul(x, params.w1),
            ad.matmul(ad.matmul(gt.weighted_adjacency(), x), params.w2),
        )
    if kind == "sageconv":
        return ad.add(
            ad.matmul(x, params.w1),
            ad.matmul(ad.matmul(gt.mean_adjacency(), x), params.w2),
        )
    if kind == "gcnconv":
        return ad.matmul(ad.matmul(gt.gcn_adjacency(), x), params.w1)
    if kind == "gatconv":
        return _gat_forward(params, x, gt)
    raise ValueError(f"conv_forward does not handle kind {kind!r}")


def _gat_forward(params: ConvParams, x: Tensor, gt: GraphTensors) -> Tensor:
    out_dim = params.output_dim
    xw1 = ad.matmul(x, params.w1)
    xw2 = ad.matmul(x, params.w2)
    a_col = ad.reshape(params.att, (2 * out_dim, 1))
    s1 = ad.matmul(xw1, ad.rows(a_col, range(out_dim)))  # (n, 1)
    s2 = ad.matmul(xw2, ad.rows(a_col, range(out_dim, 2 * out_dim)))  # (n, 1)

    out_rows = []
    for i in range(gt.n):
        nbrs = [j for j, _ in gt.adj[i]]
        members = [i] + nbrs
        logits = ad.leaky_relu(
            ad.add(ad.rows(s1, [i]), ad.rows(s2, members)), GAT_LEAKY_SLOPE
        )
        alpha = ad.softmax(ad.reshape(logits, (len(members),)))
        values = ad.concat([ad.rows(xw1, [i]), ad.rows(xw2, nbrs)], axis=0)
        out_rows.append(ad.matmul(ad.reshape(alpha, (1, len(members))), values))
    return ad.concat(out_rows, axis=0)


def dmpnn_forward(params: ConvParams, x: Tensor, gt: GraphTensors, iterations: int) -> Tensor:
    """Directed message passing on edge states, then a node readout."""
    if iterations < 1:
        raise ValueError("dmpnn needs at least one iteration")
    if x.data.shape[1] != params.input_dim:
        raise ad.DimensionError(
            f"node features have dim {x.data.shape[1]}, expected {params.input_dim}"
        )
    src, edge_feat, msg, incoming = gt.dmpnn_tensors()
    h0 = ad.relu(ad.matmul(ad.concat([ad.rows(x, src), edge_feat], axis=1), params.w_in))
    h = h0
    for _ in range(iterations):
        h = ad.relu(ad.add(h0, ad.matmul(ad.matmul(msg, h), params.w_h)))
    summed = ad.matmul(incoming, h)  # incoming-edge state sum per node
    return ad.relu(ad.matmul(ad.concat([x, summed], axis=1), params.w_out))


def global_mean_pool(x: Tensor) -> Tensor:
    if x.data.shape[0] < 1:
        raise ad.DimensionError("mean pooling needs at least one node")
    return ad.reduce_mean(x, axis=0)


def dense_forward(params: DenseParams, x: Tensor, activation: str = "none") -> Tensor:
    """activation(x @ W + b) for a 1-D input vector."""
    in_dim, out_dim = params.w.data.shape
    y = ad.matmul(ad.reshape(x, (1, in_dim)), params.w)
    y = ad.add(ad.reshape(y, (out_dim,)), params.b)
    if activation == "relu":
        return ad.relu(y)
    if activation != "none":
        raise ValueError(f"unknown activation {activation!r}")
    return y


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    s = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-s, s, size=shape))


def init_conv(kind: str, input_dim: int, output_dim: int, rng: np.random.Generator) -> ConvParams:
    p = ConvParams(kind, input_dim, output_dim)
    if kind in ("graphconv", "sageconv"):
        p.w1 = uniform_init(rng, (input_dim, output_dim), input_dim)
        p.w2 = uniform_init(rng, (input_dim, output_dim), input_dim)
    elif kind == "gcnconv":
        p.w1 = uniform_init(rng, (input_dim, output_dim), input_dim)
    elif kind == "gatconv":
        p.w1 = uniform_init(rng, (input_dim, output_dim), input_dim)
        p.w2 = uniform_init(rng, (input_dim, output_dim), input_dim)
        p.att = uniform_init(rng, (2 * output_dim,), 2 * output_dim)
    elif kind == "dmpnn":
        p.w_in = uniform_init(rng, (input_dim + 1, output_dim), input_dim + 1)
        p.w_h = uniform_init(rng, (output_dim, output_dim), output_dim)
        p.w_out = uniform_init(rng, (input_dim + output_dim, output_dim), input_dim + output_dim)
    else:
        raise ValueError(f"unknown convolution kind {kind!r}")
    return p


def init_dense(input_dim: int, output_dim: int, rng: np.random.Generator) -> DenseParams:
    return DenseParams(
        w=uniform_init(rng, (input_dim, output_dim), input_dim),
        b=Tensor(np.zeros(output_dim)),
    )


def conv_param_tensors(p: ConvParams) -> list[tuple[str, Tensor]]:
    """Named learnable tensors of one conv layer, in a deterministic order."""
    named = []
    for name in ("w1", "w2", "att", "w_in", "w_h", "w_out"):
        t = getattr(p, name)
        if t is not None:
            named.append((name, t))
    return named
