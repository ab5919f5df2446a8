"""The five message-passing operators on one small molecule.

Each operator updates node features from neighbors (weighted by the
scalar bond codes where its formula uses them); stacking layers, mean
pooling, and appending log M gives the molecule embedding.
"""

import numpy as np

from molsets import build_graph
from molsets.autodiff import Tensor
from molsets.gnn import GraphTensors, conv_forward, dmpnn_forward, init_conv, mean_pool

np.set_printoptions(precision=3, suppress=True)

graph = build_graph("CC(=O)O")  # acetic acid: chain with one double bond
gt = GraphTensors.from_graph(graph)
x = Tensor(graph.node_features)
print("molecule: CC(=O)O with bond codes",
      dict(zip(map(tuple, graph.edge_index.tolist()), graph.edge_order.tolist())))

rng = np.random.default_rng(1)
for kind in ("graphconv", "sageconv", "gcnconv", "gatconv"):
    params = init_conv(kind, 13, 4, rng)
    out = conv_forward(params, x, gt)
    print(f"\n{kind}: node features 13 -> 4")
    print(out.data)

params = init_conv("dmpnn", 13, 4, rng)
out = dmpnn_forward(params, x, gt, iterations=3)
print("\ndmpnn (3 iterations of directed edge states):")
print(out.data)

print("\nmean pooling collapses the node axis:")
print(mean_pool(out, gt).data)

print("\n=== Two molecules as one disjoint-union graph ===")
water = build_graph("O")
union = GraphTensors.union([gt, GraphTensors.from_graph(water)])
x_union = Tensor(np.concatenate([graph.node_features, water.node_features]))
pooled = mean_pool(dmpnn_forward(params, x_union, union, iterations=3), union).data
alone = mean_pool(out, gt).data[0]
print("one pass, one pooled row per molecule:", pooled.shape)
print("acetic acid row vs its own pass, max difference:", np.abs(pooled[0] - alone).max())

print("\n=== Permutation equivariance ===")
perm = [3, 1, 0, 2]
relabel = np.argsort(perm)  # new index of each old node
gt_perm = GraphTensors(graph.n_nodes, relabel[graph.edge_index], graph.edge_order)
params = init_conv("graphconv", 13, 4, np.random.default_rng(2))
out = conv_forward(params, x, gt).data
out_perm = conv_forward(params, Tensor(graph.node_features[perm]), gt_perm).data
print("relabeling nodes permutes the output rows identically:",
      np.abs(out_perm - out[perm]).max())
