"""The five message-passing operators on one small molecule.

Each operator updates node features from neighbors (weighted by the
scalar bond codes where its formula uses them); stacking layers, mean
pooling, and appending log M gives the molecule embedding. The topology
of one graph, or of several run as one disjoint union, is GraphTensors of
a list of graphs. Every kind, DMPNN included, is one ConvParams run by
conv_forward; the layers here are the first conv layer of a model's
solvent pathway, drawn by build_model.
"""

from dataclasses import replace

import numpy as np

from molsets import ModelConfig, build_graph, build_model
from molsets.autodiff import Tensor
from molsets.gnn import GraphTensors, conv_forward, mean_pool

np.set_printoptions(precision=3, suppress=True)


def first_layer(kind, **overrides):
    """The first conv layer of a model's solvent pathway: 13 -> 4 node features."""
    return build_model(ModelConfig.for_conv(kind, hidden_dim=4, **overrides)).phi_solvent.convs[0]


graph = build_graph("CC(=O)O")  # acetic acid: chain with one double bond
gt = GraphTensors([graph])
x = Tensor(graph.node_features)
print("molecule: CC(=O)O with bond codes",
      dict(zip(map(tuple, graph.edge_index.tolist()), graph.edge_order.tolist())))

for kind in ("graphconv", "sageconv", "gcnconv", "gatconv"):
    out = conv_forward(first_layer(kind, seed=1), x, gt)
    print(f"\n{kind}: node features 13 -> 4")
    print(out.data)

params = first_layer("dmpnn", num_layers=3, seed=1)
out = conv_forward(params, x, gt)
print(f"\ndmpnn ({params.iterations} iterations of directed edge states):")
print(out.data)

print("\nmean pooling collapses the node axis:")
print(mean_pool(out, gt).data)

print("\n=== Two molecules as one disjoint-union graph ===")
water = build_graph("O")
union = GraphTensors([graph, water])
x_union = Tensor(np.concatenate([graph.node_features, water.node_features]))
pooled = mean_pool(conv_forward(params, x_union, union), union).data
alone = mean_pool(out, gt).data[0]
union_gap = np.abs(pooled[0] - alone).max()
print("one pass, one pooled row per molecule:", pooled.shape)
print("acetic acid row vs its own pass, max difference:", union_gap)
assert union_gap <= 1e-12

print("\n=== Permutation equivariance ===")
perm = [3, 1, 0, 2]
relabel = np.argsort(perm)  # new index of each old node
permuted = replace(
    graph, node_features=graph.node_features[perm], edge_index=relabel[graph.edge_index]
)
gt_perm = GraphTensors([permuted])
params = first_layer("graphconv", seed=2)
out = conv_forward(params, x, gt).data
out_perm = conv_forward(params, Tensor(permuted.node_features), gt_perm).data
relabel_gap = np.abs(out_perm - out[perm]).max()
print("relabeling nodes permutes the output rows identically:", relabel_gap)
assert relabel_gap <= 1e-12
