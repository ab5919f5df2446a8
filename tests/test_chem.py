import math

import numpy as np
import pytest

from molsets.chem import (
    Atom,
    FeaturizationError,
    SmilesParseError,
    assign_implicit_hydrogens,
    atom_features,
    build_graph,
    molecular_weight,
    parse_smiles,
)
from molsets.gnn import GraphTensors

# Hand-verified (atoms, bonds) counts for typical electrolyte constituents.
TABLE_CORPUS = {
    "C1=CC=CC=C1": (6, 6),
    "COCOC": (5, 4),
    "C1CC1": (3, 3),
    "FC(F)(C1=NC(C#N)=C([N-]1)C#N)F.CCCCN2C=C[N+](C)=C2": (23, 23),
    "COCCOC": (6, 5),
    "CC1=CC=CC=C1": (7, 7),
    "CC1CCCO1": (6, 6),
    "C1CCOC1": (5, 5),
    "F[P-](F)(F)(F)(F)F.[Li+]": (8, 6),
}


def test_parse_thf_ring():
    components = parse_smiles("C1CCOC1")
    assert len(components) == 1
    atoms, bonds = components[0]
    assert [a.element for a in atoms] == ["C", "C", "C", "O", "C"]
    assert len(bonds) == 5
    assert all(b.order_code == 1.0 for b in bonds)


def test_parse_bracket_lithium():
    components = parse_smiles("[Li+]")
    assert len(components) == 1
    atoms, bonds = components[0]
    assert len(atoms) == 1 and not bonds
    assert atoms[0].element == "Li"
    assert atoms[0].formal_charge == 1
    assert atoms[0].explicit_h == 0


def test_parse_hexafluorophosphate_salt():
    components = parse_smiles("F[P-](F)(F)(F)(F)F.[Li+]")
    assert len(components) == 2
    atoms, bonds = components[0]
    assert sorted(a.element for a in atoms) == ["F"] * 6 + ["P"]
    assert next(a for a in atoms if a.element == "P").formal_charge == -1
    assert len(bonds) == 6 and all(b.order_code == 1.0 for b in bonds)
    li_atoms, li_bonds = components[1]
    assert len(li_atoms) == 1 and not li_bonds


def test_parse_kekule_benzene_alternates():
    atoms, bonds = parse_smiles("C1=CC=CC=C1")[0]
    assert len(atoms) == 6
    assert [b.order_code for b in bonds] == [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]


def test_parse_aromatic_ring_gets_1_5():
    atoms, bonds = parse_smiles("c1ccccc1")[0]
    assert all(a.aromatic for a in atoms)
    assert all(b.order_code == 1.5 for b in bonds)


def test_placeholders_become_carbon():
    atoms, bonds = parse_smiles("[Cu]CC[Au]")[0]
    assert [a.element for a in atoms] == ["C", "C", "C", "C"]
    assert len(bonds) == 3


def test_charge_digit_forms():
    atoms, _ = parse_smiles("[N+2]")[0]
    assert atoms[0].formal_charge == 2
    atoms, _ = parse_smiles("[P--]")[0]
    assert atoms[0].formal_charge == -2


def test_bracket_aromatic_nh():
    atoms, _ = parse_smiles("[nH]")[0]
    assert atoms[0].element == "N"
    assert atoms[0].aromatic
    assert atoms[0].explicit_h == 1


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("C(C", "unbalanced"),
        ("C1CC", "unmatched ring"),
        ("CXe", "unsupported element"),
        ("[Xe]", "unsupported element"),
        ("[C@H](F)Cl", "malformed bracket"),
        ("C/C=C/C", "stereochemistry"),
        ("C*", "wildcard"),
        ("", "empty"),
        ("C=", "dangling bond"),
        ("C==C", "consecutive bond"),
        ("[13C]", "malformed bracket"),
    ],
)
def test_parse_errors_carry_offsets(bad, fragment):
    with pytest.raises(SmilesParseError) as err:
        parse_smiles(bad)
    assert fragment.split()[0] in str(err.value)
    assert err.value.position >= 0


def test_table_corpus_counts():
    for smiles, (n_atoms, n_bonds) in TABLE_CORPUS.items():
        graph = build_graph(smiles)
        assert graph.n_nodes == n_atoms, smiles
        assert len(graph.edges) == n_bonds, smiles


def test_implicit_h_methane():
    atoms, bonds = parse_smiles("C")[0]
    assigned = assign_implicit_hydrogens(atoms, bonds)
    assert assigned[0].implicit_h == 4


def test_implicit_h_ring_oxygen():
    atoms, bonds = parse_smiles("C1CCOC1")[0]
    assigned = assign_implicit_hydrogens(atoms, bonds)
    oxygen = next(a for a in assigned if a.element == "O")
    assert oxygen.implicit_h == 0


def test_implicit_h_bracket_atoms_take_explicit():
    atoms, bonds = parse_smiles("[Li+]")[0]
    assert assign_implicit_hydrogens(atoms, bonds)[0].implicit_h == 0
    atoms, bonds = parse_smiles("[nH]")[0]
    assert assign_implicit_hydrogens(atoms, bonds)[0].implicit_h == 1


def test_implicit_h_aromatic_carbon():
    atoms, bonds = parse_smiles("c1ccccc1")[0]
    assert all(a.implicit_h == 1 for a in assign_implicit_hydrogens(atoms, bonds))


def test_atom_features_oxygen():
    vec = atom_features(Atom("O"))
    assert vec[3] == 1.0 and vec[:7].sum() == 1.0
    assert list(vec[7:]) == [8, 15.999, 0, 3.44, 1.52, 0]


def test_atom_features_lithium_cation():
    vec = atom_features(Atom("Li", formal_charge=1))
    assert vec[:7].sum() == 0.0  # outside the one-hot element set
    assert list(vec[7:]) == [3, 6.94, 1, 0.98, 1.82, 0]


def test_atom_features_carbon_with_hydrogens():
    vec = atom_features(Atom("C", implicit_h=4))
    assert vec[1] == 1.0
    assert vec[12] == 4


def test_molecular_weight_examples():
    atoms, bonds = parse_smiles("C")[0]
    assert molecular_weight(assign_implicit_hydrogens(atoms, bonds)) == pytest.approx(16.043)
    atoms, bonds = parse_smiles("[Li+]")[0]
    assert molecular_weight(assign_implicit_hydrogens(atoms, bonds)) == pytest.approx(6.94)
    atoms, bonds = parse_smiles("O")[0]
    assert molecular_weight(assign_implicit_hydrogens(atoms, bonds)) == pytest.approx(18.015)


def test_molecular_weight_additive_over_components():
    whole = build_graph("F[P-](F)(F)(F)(F)F.[Li+]")
    part_a = build_graph("F[P-](F)(F)(F)(F)F")
    part_b = build_graph("[Li+]")
    assert 10 ** whole.log_mol_weight == pytest.approx(
        10 ** part_a.log_mol_weight + 10 ** part_b.log_mol_weight
    )


def test_build_graph_thf():
    graph = build_graph("C1CCOC1")
    assert graph.node_features.shape == (5, 13)
    assert len(graph.edges) == 5
    assert graph.log_mol_weight == pytest.approx(math.log10(72.107), abs=1e-12)


def test_build_graph_weight_override():
    graph = build_graph("CCO", mol_weight_override=100000)
    assert graph.log_mol_weight == 5.0
    for bad in (float("nan"), float("inf"), 0.0, -12.0):
        with pytest.raises(FeaturizationError):
            build_graph("CCO", mol_weight_override=bad)


def test_build_graph_one_hot_block_sums():
    for smiles in TABLE_CORPUS:
        graph = build_graph(smiles)
        sums = graph.node_features[:, :7].sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}


def test_build_graph_edge_symmetry():
    # Each bond reaches the convs as both directed edges, i -> j then j -> i.
    for smiles in TABLE_CORPUS:
        graph = build_graph(smiles)
        gt = GraphTensors.from_graph(graph)
        directed = list(zip(gt.src.tolist(), gt.dst.tolist(), gt.w.tolist()))
        assert len(directed) == 2 * len(graph.edges)
        for k, bond in enumerate(graph.edges):
            assert bond.i != bond.j
            assert directed[2 * k] == (bond.i, bond.j, bond.order_code)
            assert directed[2 * k + 1] == (bond.j, bond.i, bond.order_code)


def test_parsing_is_deterministic():
    for smiles in TABLE_CORPUS:
        a = build_graph(smiles)
        b = build_graph(smiles)
        assert np.array_equal(a.node_features, b.node_features)
        assert a.edges == b.edges
        assert a.log_mol_weight == b.log_mol_weight


def test_featurization_rejects_unknown_element():
    with pytest.raises(FeaturizationError):
        atom_features(Atom("Xx"))

def test_duplicate_ring_closure_edge_is_deduplicated():
    # "C12CC12" closes two ring bonds between the same atom pair; the
    # graph stores that undirected edge once (plus the two chain bonds).
    graph = build_graph("C12CC12")
    assert graph.n_nodes == 3
    pairs = [(b.i, b.j) for b in graph.edges]
    assert pairs.count((0, 2)) == 1
    assert len(graph.edges) == 3


def test_self_ring_closure_rejected():
    with pytest.raises(SmilesParseError):
        parse_smiles("C11")

def test_over_bonded_atom_clamps_with_warning(caplog):
    import logging

    atoms, bonds = parse_smiles("C(C)(C)(C)(C)C")[0]  # central C with 5 bonds
    with caplog.at_level(logging.WARNING):
        assigned = assign_implicit_hydrogens(atoms, bonds)
    assert assigned[0].implicit_h == 0
    assert any("valence" in m for m in caplog.messages)

