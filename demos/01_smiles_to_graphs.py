"""From SMILES text to featurized molecular graphs.

Walks through the parser on typical electrolyte constituents: an ether
ring, a Kekule aromatic, a multi-component salt, and a polymer monomer
with placeholder connection sites.
"""

import numpy as np

from molsets import build_graph
from molsets.elements import ELEMENTS

np.set_printoptions(precision=3, suppress=True)

print("=== Tetrahydrofuran: C1CCOC1 ===")
graph = build_graph("C1CCOC1")
print(f"{graph.n_nodes} heavy atoms, {len(graph.edge_order)} bonds")
print("node features (one-hot B C N O F S Cl | Z, mass, charge, EN, vdW, H):")
print(graph.node_features)
print(f"log10 molecular weight: {graph.log_mol_weight:.4f}")

print()
print("=== Kekule benzene keeps its alternating bond orders ===")
benzene = build_graph("C1=CC=CC=C1")
print("bonds (i, j):", benzene.edge_index.tolist())
print("bond order codes:", benzene.edge_order.tolist())
aromatic = build_graph("c1ccccc1")
print("lowercase aromatic input instead marks every ring bond 1.5:")
print("bond order codes:", aromatic.edge_order.tolist())

print()
print("=== A salt is a multi-component graph: F[P-](F)(F)(F)(F)F.[Li+] ===")
for i, part in enumerate("F[P-](F)(F)(F)(F)F.[Li+]".split(".")):
    component = build_graph(part)
    print(f"component {i}: {part} with {component.n_nodes} nodes and {len(component.edge_order)} edges")
salt = build_graph("F[P-](F)(F)(F)(F)F.[Li+]")
print(f"merged graph: {salt.n_nodes} nodes, {len(salt.edge_order)} edges")
print("formal charges:", salt.node_features[:, 9])

print()
print("=== Polymer monomers use Cu/Au placeholders for connection sites ===")
monomer = build_graph("[Cu]OCCO[Au]", mol_weight_override=35000.0)
print(f"placeholders parsed as carbon: {monomer.n_nodes} nodes")
print(f"reported molecular weight overrides the computed one: log10 M = {monomer.log_mol_weight:.3f}")

print()
print("=== Implicit hydrogens follow the standard valence model ===")
symbol = {e.atomic_number: s for s, e in ELEMENTS.items()}
acetone = build_graph("CC(=O)C")
for atomic_number, hydrogens in acetone.node_features[:, [7, 12]]:
    print(f"  {symbol[atomic_number]}: {hydrogens:.0f} implicit H")
