"""Graph convolution operators, directed message passing, pooling, and
the parameters of dense layers, which run as `ad.affine`.

Topology is one directed edge list, built for one graph or for many
as a disjoint union (GraphTensors(graphs)): each `edge_index` row
(i, j) appears as i -> j and j -> i with its bond code as weight, the
graphs' node rows are stacked and their edge lists offset, so a conv
layer is one pass over all of them and mean pooling is one segment sum.
A layer of any kind is one ConvParams run by conv_forward. Graphconv,
sageconv and gcnconv read their operator off the edge list as
a dense matrix filled from (row, col, value) entries, built once per
union; at the union sizes used here (a few hundred atoms at most) one
dense matmul costs less than a scatter-add over the edges. Each layer,
its ReLU included, is one tape node: `ad.graph_conv` with that constant
operator; `ad.gat_conv` for GAT, which fills its dense (n, 2n) attention
matrix on every call; `ad.dmpnn` for all DMPNN iterations and the
readout, which passes messages with gathers and segment sums over the
edges and so needs no edge-by-edge matrix. Conventions for degenerate
cases: empty neighborhoods contribute a zero aggregate, the
degree-normalized operator includes a self term with unit weight, and
the attention operator runs an edge-wise softmax over each node's
neighborhood plus the node itself.
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
    """One conv layer: its kind, the tensors conv_shapes names for it (the
    rest None) and, for DMPNN only, its message-passing iterations."""

    kind: str
    w1: Tensor | None = None
    w2: Tensor | None = None
    att: Tensor | None = None
    w_in: Tensor | None = None
    w_h: Tensor | None = None
    w_out: Tensor | None = None
    iterations: int | None = None


@dataclass
class DenseParams:
    w: Tensor  # (input_dim, output_dim)
    b: Tensor  # (output_dim,)


class GraphTensors:
    """Directed edge list of a disjoint union of graphs (one graph or
    many), and the conv operators built from it.

    The nodes of graphs[k] follow those of graphs[:k]. `edge_index` row
    r, (i, j), of a graph becomes a directed edge i -> j followed by
    j -> i, both weighted by `edge_order[r]`, so the reverse of edge e is
    e ^ 1. `sizes` holds the node count of each member graph, `features`
    the stacked node features and `log_mass` one log10 molecular weight
    row per graph. Operators are built on first use and kept with the
    object.
    """

    def __init__(self, graphs: Sequence[MolecularGraph]):
        sizes = [g.n_nodes for g in graphs]
        self.sizes = np.array(sizes)
        self.n = sum(sizes)
        edge_index = np.concatenate(
            [graphs[0].edge_index]
            + [g.edge_index + offset for g, offset in zip(graphs[1:], accumulate(sizes))]
        )
        self.src = edge_index.reshape(-1)
        self.dst = edge_index[:, ::-1].reshape(-1)
        self.w = np.repeat(np.concatenate([g.edge_order for g in graphs]), 2)
        self.features = np.concatenate([g.node_features for g in graphs])
        self.log_mass = np.array([[g.log_mol_weight] for g in graphs])

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


def conv_forward(params: ConvParams, x: Tensor, gt: GraphTensors, relu: bool = False) -> Tensor:
    """One graph-convolution layer of any kind, then max(., 0) if relu;
    returns the updated node-feature matrix. DMPNN runs its iterations and
    its readout, which ends in a ReLU, so relu changes nothing there."""
    kind = params.kind
    if kind in ("graphconv", "sageconv"):
        adjacency = gt.weighted if kind == "graphconv" else gt.mean
        return ad.graph_conv(x, adjacency, params.w2, params.w1, relu=relu)
    if kind == "gcnconv":
        return ad.graph_conv(x, gt.gcn, params.w1, relu=relu)
    if kind == "gatconv":
        return ad.gat_conv(x, gt.src, gt.dst, params.w1, params.w2, params.att, GAT_LEAKY_SLOPE, relu)
    if kind == "dmpnn":
        iterations = params.iterations
        if iterations is None or iterations < 1:
            raise ValueError("dmpnn needs at least one iteration")
        return ad.dmpnn(x, gt.src, gt.dst, gt.w, params.w_in, params.w_h, params.w_out, iterations)
    raise ValueError(f"conv_forward does not handle kind {kind!r}")


def mean_pool(x: Tensor, gt: GraphTensors) -> Tensor:
    """Mean of each member graph's node rows, (graphs, k) in union order."""
    if gt.sizes.min() < 1:
        raise ad.DimensionError("mean pooling needs at least one node per graph")
    return ad.segment_mean(x, gt.node_graph, gt.sizes)


def conv_shapes(kind: str, input_dim: int, output_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each learnable tensor of one conv layer, in a fixed
    order; every one is a weight, drawn with its fan-in the first axis."""
    if kind == "gcnconv":
        return [("w1", (input_dim, output_dim))]
    if kind in ("graphconv", "sageconv", "gatconv"):
        shapes = [("w1", (input_dim, output_dim)), ("w2", (input_dim, output_dim))]
        if kind == "gatconv":
            shapes.append(("att", (2 * output_dim,)))
        return shapes
    if kind == "dmpnn":
        return [
            ("w_in", (input_dim + 1, output_dim)),
            ("w_h", (output_dim, output_dim)),
            ("w_out", (input_dim + output_dim, output_dim)),
        ]
    raise ValueError(f"unknown convolution kind {kind!r}")
