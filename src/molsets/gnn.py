"""Graph convolution operators, directed message passing, pooling, dense layers.

A graph's topology is one directed edge list (GraphTensors): each
`edge_index` row (i, j) appears as i -> j and j -> i with its bond code
as weight. Many graphs run as one disjoint union (GraphTensors.union):
their node rows are stacked and their edge lists offset, so a conv layer
is one pass over all of them and mean pooling is one segment sum.
Graphconv, sageconv, gcnconv and GAT read their operator off the edge
list as a dense matrix filled from (row, col, value) entries, built once
per union; at the union sizes used here (a few hundred atoms at most)
one dense matmul costs less than a scatter-add over the edges. The
operator is a constant ndarray, so a graphconv, sageconv or gcnconv
layer, its ReLU included, is one tape node (`ad.graph_conv`). DMPNN
passes messages with gathers and segment sums over the edges, so it
needs no edge-by-edge matrix. Conventions for degenerate cases: empty
neighborhoods contribute a zero aggregate, the degree-normalized
operator includes a self term with unit weight, and the attention
operator runs an edge-wise softmax over each node's neighborhood plus
the node itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

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
    """Directed edge list of one graph, or of a disjoint union of graphs,
    and the conv operators built from it.

    `edge_index` row k, (i, j), becomes edge 2k (i -> j) and edge 2k + 1
    (j -> i), both weighted by `edge_order[k]`, so the reverse of edge e
    is e ^ 1. `sizes` holds the node count of each member graph (one
    entry for a single graph). Operators are built on first use and kept
    with the object.
    """

    def __init__(self, n_nodes: int, edge_index: np.ndarray, edge_order: np.ndarray):
        self.n = n_nodes
        self.sizes = np.array([n_nodes])
        self.src = edge_index.reshape(-1)
        self.dst = edge_index[:, ::-1].reshape(-1)
        self.w = np.repeat(edge_order, 2)

    @classmethod
    def from_graph(cls, graph: MolecularGraph) -> "GraphTensors":
        return cls(graph.n_nodes, graph.edge_index, graph.edge_order)

    @classmethod
    def union(cls, parts: Sequence["GraphTensors"]) -> "GraphTensors":
        """Disjoint union: the nodes of parts[k] follow those of parts[:k].
        Every part has an even edge count, so e ^ 1 stays the reverse edge."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.repeat(
            [0, *accumulate(p.n for p in parts[:-1])], [p.src.size for p in parts]
        )
        union = cls.__new__(cls)
        union.sizes = np.concatenate([p.sizes for p in parts])
        union.n = int(union.sizes.sum())
        union.src = np.concatenate([p.src for p in parts]) + offsets
        union.dst = np.concatenate([p.dst for p in parts]) + offsets
        union.w = np.concatenate([p.w for p in parts])
        return union

    @cached_property
    def node_graph(self) -> np.ndarray:
        """Member graph of each node."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def _matrix(self, rows, cols, values) -> np.ndarray:
        return ad.coo_to_dense(values, rows, cols, (self.n, self.n))

    @cached_property
    def weighted(self) -> np.ndarray:
        """Neighbour sum weighted by bond order."""
        return self._matrix(self.dst, self.src, self.w)

    @cached_property
    def mean(self) -> np.ndarray:
        """Neighbour mean; an isolated node's row is zero."""
        indegree = np.bincount(self.dst, minlength=self.n)
        return self._matrix(self.dst, self.src, 1.0 / indegree[self.dst])

    @cached_property
    def gcn(self) -> np.ndarray:
        """Symmetric degree normalization with a unit-weight self loop."""
        deg = 1.0 + np.bincount(self.dst, self.w, self.n)
        loops = np.arange(self.n)
        return self._matrix(
            np.concatenate([self.dst, loops]),
            np.concatenate([self.src, loops]),
            np.concatenate([self.w / np.sqrt(deg[self.dst] * deg[self.src]), 1.0 / deg]),
        )


def _check_input(params: ConvParams, x: Tensor) -> None:
    if x.data.shape[1] != params.input_dim:
        raise ad.DimensionError(
            f"node features have dim {x.data.shape[1]}, expected {params.input_dim}"
        )


def conv_forward(params: ConvParams, x: Tensor, gt: GraphTensors, relu: bool = False) -> Tensor:
    """One graph-convolution layer, then max(., 0) if relu; returns the
    updated node-feature matrix."""
    _check_input(params, x)
    kind = params.kind
    if kind in ("graphconv", "sageconv"):
        adjacency = gt.weighted if kind == "graphconv" else gt.mean
        return ad.graph_conv(x, adjacency, params.w2, params.w1, relu=relu)
    if kind == "gcnconv":
        return ad.graph_conv(x, gt.gcn, params.w1, relu=relu)
    if kind == "gatconv":
        out = _gat_forward(params, x, gt)
        return ad.relu(out) if relu else out
    raise ValueError(f"conv_forward does not handle kind {kind!r}")


def _gat_forward(params: ConvParams, x: Tensor, gt: GraphTensors) -> Tensor:
    out_dim = params.output_dim
    xw1 = ad.matmul(x, params.w1)
    xw2 = ad.matmul(x, params.w2)
    a_col = ad.reshape(params.att, (2 * out_dim, 1))
    s1 = ad.matmul(xw1, ad.rows(a_col, range(out_dim)))  # (n, 1)
    s2 = ad.matmul(xw2, ad.rows(a_col, range(out_dim, 2 * out_dim)))  # (n, 1)

    # Self loops, then the directed edges. A self term reads row i of
    # [x W1; x W2], a neighbour term row n + j.
    loops = np.arange(gt.n)
    dst, src = np.concatenate([loops, gt.dst]), np.concatenate([loops, gt.src])
    logits = ad.leaky_relu(ad.add(ad.rows(s1, dst), ad.rows(s2, src)), GAT_LEAKY_SLOPE)
    alpha = ad.segment_softmax(ad.reshape(logits, (dst.size,)), dst, gt.n)
    value_row = np.concatenate([loops, gt.n + gt.src])
    weights = ad.coo_matrix(alpha, dst, value_row, (gt.n, 2 * gt.n))
    return ad.matmul(weights, ad.concat([xw1, xw2], axis=0))


def dmpnn_forward(params: ConvParams, x: Tensor, gt: GraphTensors, iterations: int) -> Tensor:
    """Directed message passing on edge states, then a node readout.

    The message into edge e (u -> v) sums the states of the edges ending
    at u except e's reverse: all incoming states of u, gathered at e,
    minus the state of edge e ^ 1 (as in chemprop).
    """
    if iterations < 1:
        raise ValueError("dmpnn needs at least one iteration")
    _check_input(params, x)
    edge_feat = Tensor(gt.w[:, None])
    reverse = np.arange(gt.src.size) ^ 1
    h0 = ad.relu(ad.matmul(ad.concat([ad.rows(x, gt.src), edge_feat], axis=1), params.w_in))
    h = h0
    for _ in range(iterations):
        incoming = ad.segment_sum(h, gt.dst, gt.n)
        msg = ad.sub(ad.rows(incoming, gt.src), ad.rows(h, reverse))
        h = ad.relu(ad.add(h0, ad.matmul(msg, params.w_h)))
    summed = ad.segment_sum(h, gt.dst, gt.n)  # incoming-edge state sum per node
    return ad.relu(ad.matmul(ad.concat([x, summed], axis=1), params.w_out))


def mean_pool(x: Tensor, gt: GraphTensors) -> Tensor:
    """Mean of each member graph's node rows, (graphs, k) in union order."""
    if gt.sizes.min() < 1:
        raise ad.DimensionError("mean pooling needs at least one node per graph")
    return ad.segment_mean(x, gt.node_graph, gt.sizes)


def dense_forward(params: DenseParams, x: Tensor, activation: str = "none") -> Tensor:
    """activation(x @ W + b) for each row of a (B, input_dim) matrix."""
    if activation not in ("none", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    return ad.affine(x, params.w, params.b, relu=activation == "relu")


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
