import ast
import contextlib
import importlib.util
import logging
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molsets.chem import FeaturizationError, SmilesParseError, build_graph
from molsets.data import SYNTHETIC_SALTS, SYNTHETIC_SOLVENTS
from molsets.elements import ELEMENTS, HYDROGEN_MASS, ONE_HOT_ORDER, SUPPORTED_ELEMENTS
from molsets.gnn import GraphTensors

ROOT = Path(__file__).resolve().parent.parent

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


def _atomic_numbers(graph) -> list[int]:
    return graph.node_features[:, 7].astype(int).tolist()


def test_parse_thf_ring():
    graph = build_graph("C1CCOC1")
    assert _atomic_numbers(graph) == [6, 6, 6, 8, 6]
    assert graph.edge_index.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]
    assert graph.edge_order.tolist() == [1.0] * 5


def test_parse_bracket_lithium():
    graph = build_graph("[Li+]")
    assert _atomic_numbers(graph) == [3]
    assert graph.edge_index.shape == (0, 2) and graph.edge_order.shape == (0,)
    assert graph.node_features[0, 9] == 1  # formal charge
    assert graph.node_features[0, 12] == 0  # explicit H count


def test_parse_hexafluorophosphate_salt():
    # The two components become one graph in which lithium is an isolated node.
    graph = build_graph("F[P-](F)(F)(F)(F)F.[Li+]")
    assert _atomic_numbers(graph) == [9, 15, 9, 9, 9, 9, 9, 3]
    assert graph.node_features[1, 9] == -1
    assert graph.edge_index.tolist() == [[0, 1], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6]]
    assert graph.edge_order.tolist() == [1.0] * 6


def test_parse_kekule_benzene_alternates():
    graph = build_graph("C1=CC=CC=C1")
    assert graph.n_nodes == 6
    assert graph.edge_order.tolist() == [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]


def test_parse_aromatic_ring_gets_1_5():
    graph = build_graph("c1ccccc1")
    assert graph.edge_order.tolist() == [1.5] * 6


def test_placeholders_become_carbon():
    graph = build_graph("[Cu]CC[Au]")
    assert _atomic_numbers(graph) == [6, 6, 6, 6]
    assert len(graph.edge_order) == 3


def test_charge_digit_forms():
    assert build_graph("[N+2]").node_features[0, 9] == 2
    assert build_graph("[P--]").node_features[0, 9] == -2


def test_bracket_aromatic_nh():
    graph = build_graph("[nH]")
    assert _atomic_numbers(graph) == [7]
    assert graph.node_features[0, 12] == 1
    # The bracket atom is aromatic: its ring bonds to aromatic carbons are 1.5.
    assert build_graph("c1cc[nH]c1").edge_order.tolist() == [1.5] * 5


# One entry per raise site of the parser, with a short tag naming the site:
# the exact message and offset.
PARSE_ERRORS = [
    ("", "empty", "empty SMILES", 0),
    ("C\u00e9", "non-ASCII", "non-ASCII SMILES", 0),
    ("C(C", "unbalanced", "unbalanced parentheses", 3),
    ("C(C.C", "unbalanced", "unbalanced parentheses", 3),
    ("C)", "unbalanced", "unbalanced parentheses", 1),
    ("C(=O)(", "unbalanced", "unbalanced parentheses", 6),
    ("C1CC", "unmatched ring", "unmatched ring closure 1", 1),
    ("C1.C1", "unmatched ring", "unmatched ring closure 1", 1),
    ("C=", "dangling bond", "dangling bond symbol", 1),
    ("C=.C", "dangling bond", "dangling bond symbol", 1),
    ("C(C=)C", "dangling bond", "dangling bond symbol", 3),
    ("C.", "empty component", "empty component", 2),
    (".C", "empty component", "empty component", 0),
    ("C..C", "empty component", "empty component", 2),
    ("1C", "ring before atom", "ring closure before any atom", 0),
    ("C.1", "ring before atom", "ring closure before any atom", 2),
    ("%12", "ring before atom", "ring closure before any atom", 0),
    ("C11", "self ring", "ring closure 1 bonds an atom to itself", 2),
    ("C1(C)1", "self ring", "ring closure 1 bonds an atom to itself", 5),
    ("C=1CC-1", "conflicting ring", "conflicting bond orders on ring closure 1", 6),
    ("C[Li+", "unterminated bracket", "unterminated bracket atom", 1),
    ("[Cu+", "unterminated bracket", "unterminated bracket atom", 0),
    ("[13C]", "malformed bracket", "malformed bracket atom [13C]", 0),
    ("[C@H](F)Cl", "malformed bracket", "malformed bracket atom [C@H]", 0),
    ("C[C[Li]", "malformed bracket", "malformed bracket atom [C[Li]", 1),
    ("[Xe]", "unsupported element", "unsupported element 'Xe'", 0),
    ("C==C", "consecutive bond", "consecutive bond symbols", 2),
    ("(C", "branch before atom", "branch opened before any atom", 0),
    ("C.(C)", "branch before atom", "branch opened before any atom", 2),
    ("C=(C)", "bond before branch", "bond symbol before branch open", 2),
    ("C%1", "malformed %nn", "malformed %nn ring closure", 1),
    ("C%1a", "malformed %nn", "malformed %nn ring closure", 1),
    ("C1CC1%", "malformed %nn", "malformed %nn ring closure", 5),
    ("C/C=C/C", "stereochemistry", "stereochemistry markers are not supported", 1),
    ("C\\C", "stereochemistry", "stereochemistry markers are not supported", 1),
    ("C@", "stereochemistry", "stereochemistry markers are not supported", 1),
    ("C*", "wildcard", "wildcard atoms are not supported", 1),
    ("CXe", "unsupported element", "unsupported element 'X'", 1),
    ("Ca", "unsupported element", "unsupported element 'a'", 1),
    ("CH", "unsupported element", "unsupported element 'H'", 1),
    ("C$", "unexpected character", "unexpected character '$'", 1),
    ("C]", "unexpected character", "unexpected character ']'", 1),
    ("C\nC", "unexpected character", "unexpected character '\\n'", 1),
]


@pytest.mark.parametrize(
    "bad, message, position",
    [(bad, message, position) for bad, _, message, position in PARSE_ERRORS],
    ids=[f"{bad}-{tag}" for bad, tag, _, _ in PARSE_ERRORS],
)
def test_parse_errors_carry_offsets(bad, message, position):
    with pytest.raises(SmilesParseError) as err:
        build_graph(bad)
    assert (str(err.value), err.value.position) == (
        f"{message} (at offset {position} in {bad!r})",
        position,
    )


def test_table_corpus_counts():
    for smiles, (n_atoms, n_bonds) in TABLE_CORPUS.items():
        graph = build_graph(smiles)
        assert graph.n_nodes == n_atoms, smiles
        assert graph.edge_index.shape == (n_bonds, 2), smiles
        assert graph.edge_order.shape == (n_bonds,), smiles


def test_implicit_h_methane():
    assert build_graph("C").node_features[0, 12] == 4


def test_implicit_h_ring_oxygen():
    graph = build_graph("C1CCOC1")
    oxygen = graph.node_features[:, 3] == 1.0
    assert graph.node_features[oxygen, 12].tolist() == [0]


def test_implicit_h_bracket_atoms_take_explicit():
    assert build_graph("[Li+]").node_features[0, 12] == 0
    assert build_graph("[nH]").node_features[0, 12] == 1
    # An explicit count wins even where the valence model would add more.
    assert build_graph("[CH2]C").node_features[:, 12].tolist() == [2, 3]


def test_implicit_h_aromatic_carbon():
    assert build_graph("c1ccccc1").node_features[:, 12].tolist() == [1] * 6


def test_atom_features_oxygen():
    vec = build_graph("O").node_features[0]
    assert vec[3] == 1.0 and vec[:7].sum() == 1.0
    assert list(vec[7:]) == [8, 15.999, 0, 3.44, 1.52, 2]


def test_atom_features_lithium_cation():
    vec = build_graph("[Li+]").node_features[0]
    assert vec[:7].sum() == 0.0  # outside the one-hot element set
    assert list(vec[7:]) == [3, 6.94, 1, 0.98, 1.82, 0]


def test_atom_features_carbon_with_hydrogens():
    vec = build_graph("C").node_features[0]
    assert vec[1] == 1.0 and vec[:7].sum() == 1.0
    assert list(vec[7:]) == [6, 12.011, 0, 2.55, 1.70, 4]


def test_formal_charge_column():
    graph = build_graph("F[P-](F)(F)(F)(F)F.[Li+]")
    assert graph.node_features[:, 9].tolist() == [0, -1, 0, 0, 0, 0, 0, 1]
    assert build_graph("[N+2]").node_features[0, 9] == 2


def test_molecular_weight_examples():
    assert 10 ** build_graph("C").log_mol_weight == pytest.approx(16.043)
    assert 10 ** build_graph("[Li+]").log_mol_weight == pytest.approx(6.94)
    assert 10 ** build_graph("O").log_mol_weight == pytest.approx(18.015)


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
    assert len(graph.edge_order) == 5
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
        gt = GraphTensors([graph])
        directed = list(zip(gt.src.tolist(), gt.dst.tolist(), gt.w.tolist()))
        assert len(directed) == 2 * len(graph.edge_order)
        for k, ((i, j), order) in enumerate(zip(graph.edge_index.tolist(), graph.edge_order.tolist())):
            assert i < j
            assert directed[2 * k] == (i, j, order)
            assert directed[2 * k + 1] == (j, i, order)


def test_parsing_is_deterministic():
    for smiles in TABLE_CORPUS:
        a = build_graph(smiles)
        b = build_graph(smiles)
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edge_index, b.edge_index)
        assert np.array_equal(a.edge_order, b.edge_order)
        assert a.log_mol_weight == b.log_mol_weight


def test_duplicate_ring_closure_edge_is_deduplicated():
    # "C12CC12" closes two ring bonds between the same atom pair; the
    # graph stores that undirected edge once (plus the two chain bonds).
    graph = build_graph("C12CC12")
    assert graph.n_nodes == 3
    pairs = graph.edge_index.tolist()
    assert pairs.count([0, 2]) == 1
    assert len(pairs) == 3


def test_self_ring_closure_rejected():
    with pytest.raises(SmilesParseError):
        build_graph("C11")


def test_ring_closure_after_branch_bonds_the_branch_point():
    # After ")" the anchor is the branch point, so the ring opener has the
    # higher index; the graph keeps the closure as (low, high), once if it
    # repeats a chain bond.
    assert build_graph("CC(CC1)1").edge_index.tolist() == [[0, 1], [1, 2], [2, 3], [1, 3]]
    graph = build_graph("CC(C1)1")
    assert graph.edge_index.tolist() == [[0, 1], [1, 2]]
    assert graph.edge_order.tolist() == [1.0, 1.0]
    assert graph.node_features[:, 12].tolist() == [3, 1, 2]
    assert build_graph("C1CC(C12)2").edge_index.tolist() == [[0, 1], [1, 2], [2, 3], [0, 3]]
    # Ring 1 is closed inside the branch, so the last "1" opens it again.
    with pytest.raises(SmilesParseError, match="unmatched ring closure 1"):
        build_graph("C1CC(C1)1")


def test_over_bonded_atom_clamps_with_warning():
    with _chem_warnings() as messages:
        graph = build_graph("C(C)(C)(C)(C)C")  # central C with 5 bonds
    assert graph.node_features[:, 12].tolist() == [0, 3, 3, 3, 3, 3]
    assert messages == ["C exceeds its default valence (5 bonds vs 4); clamping H count to 0"]


def test_duplicate_ring_closure_counts_toward_valence():
    # The repeated 0-2 bond is one edge, but both closures count as bonds:
    # each end carbon has three bonds and so one hydrogen, not two.
    assert build_graph("C12CC12").node_features[:, 12].tolist() == [1, 2, 1]


# --------------------------------------------------------------------------
# build_graph against the paths it replaced. The reference parser walks the
# string one character at a time and lists each component's atoms and its
# bonds as written; the reference featurization fills hydrogen counts atom
# by atom, builds one 13-vector per atom, stacks them, sums the weight and
# keeps each bond once as (low, high). build_graph must match exactly,
# errors included.


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int | None = None  # from bracket notation, None otherwise


class Bond(NamedTuple):
    i: int
    j: int
    order_code: float  # 1, 1.5, 2, or 3

_REFERENCE_BRACKET_RE = re.compile(
    r"^(?P<element>[A-Z][a-z]?|[bcnos])"
    r"(?P<hydrogens>H\d*)?"
    r"(?P<charge>\+{1,3}|-{1,3}|[+-]\d+)?$"
)
_REFERENCE_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}


def _reference_bracket(content: str, smiles: str, offset: int) -> Atom:
    match = _REFERENCE_BRACKET_RE.match(content)
    if match is None:
        raise SmilesParseError(f"malformed bracket atom [{content}]", smiles, offset)

    symbol = match.group("element")
    aromatic = symbol in "bcnos"
    element = symbol.capitalize() if aromatic else symbol

    if element in ("Cu", "Au"):
        element = "C"
    elif element not in SUPPORTED_ELEMENTS:
        raise SmilesParseError(f"unsupported element {element!r}", smiles, offset)

    h_token = match.group("hydrogens")
    if h_token is None:
        explicit_h = 0
    elif h_token == "H":
        explicit_h = 1
    else:
        explicit_h = int(h_token[1:])

    charge_token = match.group("charge")
    if charge_token is None:
        charge = 0
    elif charge_token[-1].isdigit():
        charge = int(charge_token)
    else:
        charge = len(charge_token) * (1 if charge_token[0] == "+" else -1)

    return Atom(element, formal_charge=charge, aromatic=aromatic, explicit_h=explicit_h)


def _reference_parse(smiles: str) -> list[tuple[list[Atom], list[Bond]]]:
    """The character-by-character parser that the token scanner replaced:
    (atoms, bonds as written) per component."""
    if not smiles:
        raise SmilesParseError("empty SMILES", smiles, 0)
    if not smiles.isascii():
        raise SmilesParseError("non-ASCII SMILES", smiles, 0)

    components: list[tuple[list[Atom], list[Bond]]] = []
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    anchor: int | None = None
    branch_stack: list[int] = []
    # ring number -> (open atom index, bond symbol order or None, offset)
    open_rings: dict[int, tuple[int, float | None, int]] = {}
    pending_bond: float | None = None
    pending_pos = 0

    def finish_component(pos: int) -> None:
        nonlocal atoms, bonds, anchor
        if branch_stack:
            raise SmilesParseError("unbalanced parentheses", smiles, pos)
        if open_rings:
            num, (_, _, open_pos) = next(iter(open_rings.items()))
            raise SmilesParseError(f"unmatched ring closure {num}", smiles, open_pos)
        if pending_bond is not None:
            raise SmilesParseError("dangling bond symbol", smiles, pending_pos)
        if not atoms:
            raise SmilesParseError("empty component", smiles, pos)
        components.append((atoms, bonds))
        atoms, bonds = [], []
        anchor = None

    def add_atom(atom: Atom) -> None:
        nonlocal anchor, pending_bond
        idx = len(atoms)
        atoms.append(atom)
        if anchor is not None:
            order = pending_bond
            if order is None:
                order = 1.5 if (atoms[anchor].aromatic and atom.aromatic) else 1.0
            bonds.append(Bond(anchor, idx, order))
        pending_bond = None
        anchor = idx

    def close_ring(number: int, pos: int) -> None:
        nonlocal pending_bond
        if anchor is None:
            raise SmilesParseError("ring closure before any atom", smiles, pos)
        if number in open_rings:
            other, open_order, _ = open_rings.pop(number)
            if other == anchor:
                raise SmilesParseError(
                    f"ring closure {number} bonds an atom to itself", smiles, pos
                )
            order = pending_bond if pending_bond is not None else open_order
            if (
                pending_bond is not None
                and open_order is not None
                and pending_bond != open_order
            ):
                raise SmilesParseError(
                    f"conflicting bond orders on ring closure {number}", smiles, pos
                )
            if order is None:
                order = 1.5 if (atoms[other].aromatic and atoms[anchor].aromatic) else 1.0
            bonds.append(Bond(other, anchor, order))
        else:
            open_rings[number] = (anchor, pending_bond, pos)
        pending_bond = None

    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            end = smiles.find("]", i + 1)
            if end < 0:
                raise SmilesParseError("unterminated bracket atom", smiles, i)
            add_atom(_reference_bracket(smiles[i + 1 : end], smiles, i))
            i = end + 1
        elif ch in _REFERENCE_BOND_ORDERS:
            if pending_bond is not None:
                raise SmilesParseError("consecutive bond symbols", smiles, i)
            pending_bond = _REFERENCE_BOND_ORDERS[ch]
            pending_pos = i
            i += 1
        elif ch == "(":
            if anchor is None:
                raise SmilesParseError("branch opened before any atom", smiles, i)
            if pending_bond is not None:
                raise SmilesParseError("bond symbol before branch open", smiles, i)
            branch_stack.append(anchor)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesParseError("unbalanced parentheses", smiles, i)
            if pending_bond is not None:
                raise SmilesParseError("dangling bond symbol", smiles, pending_pos)
            anchor = branch_stack.pop()
            i += 1
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "%":
            if i + 2 >= n or not smiles[i + 1 : i + 3].isdigit():
                raise SmilesParseError("malformed %nn ring closure", smiles, i)
            close_ring(int(smiles[i + 1 : i + 3]), i)
            i += 3
        elif ch == ".":
            finish_component(i)
            i += 1
        elif ch in "/\\@":
            raise SmilesParseError("stereochemistry markers are not supported", smiles, i)
        elif ch == "*":
            raise SmilesParseError("wildcard atoms are not supported", smiles, i)
        elif ch in "bcnos":
            add_atom(Atom(ch.upper(), aromatic=True))
            i += 1
        else:
            for symbol in ("Cl", "Br", "B", "C", "N", "O", "F", "S", "P", "I"):
                if smiles.startswith(symbol, i):
                    add_atom(Atom(symbol))
                    i += len(symbol)
                    break
            else:
                if ch.isupper() or ch.islower():
                    raise SmilesParseError(f"unsupported element {ch!r}", smiles, i)
                raise SmilesParseError(f"unexpected character {ch!r}", smiles, i)

    finish_component(n)
    return components


def _reference_hydrogens(atoms, bonds, warnings: list[str]) -> list[int]:
    order_sums = [0.0] * len(atoms)
    for bond in bonds:
        order_sums[bond.i] += bond.order_code
        order_sums[bond.j] += bond.order_code
    counts = []
    for atom, total in zip(atoms, order_sums):
        if atom.explicit_h is not None:
            h = atom.explicit_h
        else:
            valence = ELEMENTS[atom.element].default_valence + atom.formal_charge
            h = valence - math.ceil(total)
            if h < 0:
                warnings.append(
                    f"{atom.element} exceeds its default valence "
                    f"({math.ceil(total)} bonds vs {valence}); clamping H count to 0"
                )
                h = 0
        counts.append(h)
    return counts


def _reference_atom_features(atom, hydrogens: int) -> np.ndarray:
    data = ELEMENTS[atom.element]
    vec = np.zeros(13)
    if atom.element in ONE_HOT_ORDER:
        vec[ONE_HOT_ORDER.index(atom.element)] = 1.0
    vec[7] = data.atomic_number
    vec[8] = data.atomic_mass
    vec[9] = atom.formal_charge
    vec[10] = data.electronegativity
    vec[11] = data.vdw_radius
    vec[12] = hydrogens
    return vec


def _reference_graph(smiles: str):
    """(node features, edges, log10 weight, valence warnings) of the per-atom path."""
    warnings: list[str] = []
    atoms, hydrogens, edges, seen = [], [], [], set()
    for component_atoms, bonds in _reference_parse(smiles):
        offset = len(atoms)
        atoms.extend(component_atoms)
        hydrogens.extend(_reference_hydrogens(component_atoms, bonds, warnings))
        for bond in bonds:
            i, j = sorted((bond.i + offset, bond.j + offset))
            if (i, j) not in seen:
                seen.add((i, j))
                edges.append(Bond(i, j, bond.order_code))
    features = np.stack([_reference_atom_features(a, h) for a, h in zip(atoms, hydrogens)])
    weight = sum(
        ELEMENTS[a.element].atomic_mass + h * HYDROGEN_MASS for a, h in zip(atoms, hydrogens)
    )
    return features, tuple(edges), math.log10(weight), warnings


@contextlib.contextmanager
def _chem_warnings():
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    chem_logger = logging.getLogger("molsets.chem")
    chem_logger.addHandler(handler)
    try:
        yield messages
    finally:
        chem_logger.removeHandler(handler)


def _assert_matches_reference(smiles: str) -> None:
    try:
        features, edges, log_weight, warnings = _reference_graph(smiles)
    except SmilesParseError as expected:
        with pytest.raises(SmilesParseError) as err:
            build_graph(smiles)
        assert (str(err.value), err.value.position) == (str(expected), expected.position)
        return
    with _chem_warnings() as messages:
        graph = build_graph(smiles)
    assert graph.node_features.dtype == features.dtype, smiles
    assert np.array_equal(graph.node_features, features), smiles
    assert graph.edge_index.dtype == np.intp and graph.edge_index.shape == (len(edges), 2), smiles
    assert graph.edge_order.dtype == np.float64 and graph.edge_order.shape == (len(edges),), smiles
    assert graph.edge_index.tolist() == [[b.i, b.j] for b in edges], smiles
    assert graph.edge_order.tolist() == [b.order_code for b in edges], smiles
    assert graph.log_mol_weight == log_weight, smiles
    assert messages == warnings, smiles


def _string_literals(paths) -> set[str]:
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and len(node.value) < 200:
                found.add(node.value)
    return found


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_build_graph_matches_reference_on_test_and_demo_strings():
    # Every string literal of the tests and demos: the SMILES among them
    # must featurize identically, the rest must fail with the same error.
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    literals = _string_literals(paths) | set(SYNTHETIC_SOLVENTS) | set(SYNTHETIC_SALTS)
    assert {"C1CCOC1", "F[P-](F)(F)(F)(F)F.[Li+]", "C12CC12"} <= literals
    for smiles in sorted(literals):
        _assert_matches_reference(smiles)


def test_build_graph_matches_reference_on_benchmark_generators():
    workloads = _perfbench_workloads()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        smiles = workloads.seeded_solvents(rng, 30) + workloads.seeded_salts(rng, 30)
        smiles += [workloads._solvent(rng, large=True) for _ in range(10)]
        for s in smiles:
            _assert_matches_reference(s)


_BRACKET_SYMBOLS = sorted(SUPPORTED_ELEMENTS) + ["b", "c", "n", "o", "s", "Cu", "Au"]
_bracket_atoms = st.builds(
    lambda symbol, h, charge: f"[{symbol}{h}{charge}]",
    st.sampled_from(_BRACKET_SYMBOLS),
    st.sampled_from(["", "H", "H2", "H3"]),
    st.sampled_from(["", "+", "-", "++", "--", "+2", "-1", "+3"]),
)
_atoms = st.one_of(
    st.sampled_from(["B", "C", "N", "O", "F", "S", "Cl", "P", "Br", "I"]),
    st.sampled_from(["b", "c", "n", "o", "s"]),
    _bracket_atoms,
)
_bonds = st.sampled_from(["", "", "", "-", "=", "#", ":"])


_RING_NUMBERS = (1, 2, 3, 11, 12)


def _ring_label(number: int) -> str:
    return str(number) if number < 10 else f"%{number}"


@st.composite
def _components(draw) -> str:
    """One connected component: a chain with branches and ring closures.
    A closure may repeat an existing bond (a duplicate ring edge) and may
    follow a ")", where it bonds the branch point to a ring opened at a
    higher-indexed atom inside the branch."""
    out: list[str] = []
    open_rings: list[tuple[int, int]] = []  # (ring number, opening atom)
    branch_points: list[int] = []
    anchor = 0

    def close_rings() -> None:
        closable = [ring for ring in open_rings if ring[1] != anchor]
        if closable and draw(st.booleans()):
            for ring in reversed(closable[-draw(st.integers(1, len(closable))) :]):
                out.append(_ring_label(ring[0]))
                open_rings.remove(ring)

    n_atoms = draw(st.integers(1, 10))
    for k in range(n_atoms):
        if k > 0:
            move = draw(st.integers(0, 4))
            if move == 0 and branch_points:
                out.append(")")
                anchor = branch_points.pop()
                close_rings()
            elif move == 1:
                out.append("(")
                branch_points.append(anchor)
            out.append(draw(_bonds))
        out.append(draw(_atoms))
        anchor = k
        if k > 0:
            close_rings()
        if k < n_atoms - 1:
            for _ in range(draw(st.integers(0, min(2, len(_RING_NUMBERS) - len(open_rings))))):
                used = [ring[0] for ring in open_rings]
                number = draw(st.sampled_from([n for n in _RING_NUMBERS if n not in used]))
                out.append(draw(_bonds) + _ring_label(number))
                open_rings.append((number, k))
    out.extend(_ring_label(ring[0]) for ring in reversed(open_rings))
    out.append(")" * len(branch_points))
    return "".join(out)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(components=st.lists(_components(), min_size=1, max_size=3))
def test_build_graph_matches_reference_on_generated_smiles(components):
    # Bracket H counts and charges, aromatic rings, duplicate ring
    # closures, over-bonded atoms and multi-component salts.
    _assert_matches_reference(".".join(components))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(smiles=st.text(alphabet="CNOcnoFSl()[]=#-:12%+H.Li*@", max_size=16))
def test_build_graph_matches_reference_on_arbitrary_text(smiles):
    _assert_matches_reference(smiles)
