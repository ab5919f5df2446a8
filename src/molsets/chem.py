"""SMILES-subset parsing and molecular graph featurization.

The parser covers the grammar needed for electrolyte constituents:
organic-subset atoms (B C N O F S Cl P Br I), bracket atoms with charge
and explicit hydrogen counts, lowercase aromatic atoms (b c n o s), bond
symbols ``- = # :``, ring closures ``1``-``9`` and ``%nn``, branches, and
the ``.`` component separator. Stereochemistry, isotopes, and wildcard
atoms are rejected with a diagnostic. ``Cu`` and ``Au`` placeholder atoms
(marking monomer connection sites in polymer inputs) are replaced by
carbon at parse time.

``build_graph`` merges the components into one graph and featurizes it
in a single pass. Graphs carry a 13-dimensional node feature vector per
heavy atom: a one-hot block over (B, C, N, O, F, S, Cl) followed by
atomic number, atomic mass, formal charge, Pauling electronegativity,
van der Waals radius, and attached-hydrogen count. The element columns
are one row of a per-element table. Bracket atoms take their explicit H
count; every other atom gets its default valence plus formal charge
minus the rounded-up sum of its bond orders, clamped at zero with a
warning. The molecular weight counts each hydrogen at 1.008 Da. Each
bond carries a single scalar feature: 1, 2, 3 for single/double/triple,
1.5 for aromatic.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elements import ELEMENTS, HYDROGEN_MASS, ONE_HOT_ORDER, SUPPORTED_ELEMENTS

logger = logging.getLogger(__name__)

NODE_FEATURE_DIM = 13

AROMATIC_SYMBOLS = frozenset("bcnos")
ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "F", "S", "P", "I")
PLACEHOLDER_ELEMENTS = frozenset({"Cu", "Au"})

# One node-feature row per supported element; build_graph fills the
# charge (9) and hydrogen-count (12) columns per atom.
_ELEMENT_ROW = {symbol: k for k, symbol in enumerate(ELEMENTS)}
_FEATURE_ROWS = np.array(
    [
        [float(symbol == one_hot) for one_hot in ONE_HOT_ORDER]
        + [e.atomic_number, e.atomic_mass, 0.0, e.electronegativity, e.vdw_radius, 0.0]
        for symbol, e in ELEMENTS.items()
    ]
)
_VALENCES = np.array([e.default_valence for e in ELEMENTS.values()])

_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}

_BRACKET_RE = re.compile(
    r"^(?P<element>[A-Z][a-z]?|[bcnos])"
    r"(?P<hydrogens>H\d*)?"
    r"(?P<charge>\+{1,3}|-{1,3}|[+-]\d+)?$"
)


class SmilesParseError(ValueError):
    """Raised for malformed or unsupported SMILES; carries the character offset."""

    def __init__(self, message: str, smiles: str, position: int):
        self.position = position
        self.smiles = smiles
        super().__init__(f"{message} (at offset {position} in {smiles!r})")


class FeaturizationError(ValueError):
    pass


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


@dataclass(eq=False)
class MolecularGraph:
    node_features: np.ndarray  # (n, 13)
    edges: tuple[Bond, ...]  # undirected, deduplicated, i < j
    log_mol_weight: float  # log10 Dalton
    source_smiles: str

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]


def _parse_bracket(content: str, smiles: str, offset: int) -> Atom:
    match = _BRACKET_RE.match(content)
    if match is None:
        raise SmilesParseError(f"malformed bracket atom [{content}]", smiles, offset)

    symbol = match.group("element")
    aromatic = symbol in AROMATIC_SYMBOLS
    element = symbol.capitalize() if aromatic else symbol

    if element in PLACEHOLDER_ELEMENTS:
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


def parse_smiles(smiles: str) -> list[tuple[list[Atom], list[Bond]]]:
    """Parse a SMILES string into (atoms, bonds) per connected component.

    Bond endpoints are indices local to their component. Raises
    SmilesParseError with a character offset on malformed input.
    """
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

    def add_atom(atom: Atom, pos: int) -> None:
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
            add_atom(_parse_bracket(smiles[i + 1 : end], smiles, i), i)
            i = end + 1
        elif ch in _BOND_ORDERS:
            if pending_bond is not None:
                raise SmilesParseError("consecutive bond symbols", smiles, i)
            pending_bond = _BOND_ORDERS[ch]
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
        elif ch in AROMATIC_SYMBOLS:
            add_atom(Atom(ch.upper(), aromatic=True), i)
            i += 1
        else:
            for symbol in ORGANIC_SUBSET:
                if smiles.startswith(symbol, i):
                    add_atom(Atom(symbol), i)
                    i += len(symbol)
                    break
            else:
                if ch.isupper() or ch.islower():
                    raise SmilesParseError(f"unsupported element {ch!r}", smiles, i)
                raise SmilesParseError(f"unexpected character {ch!r}", smiles, i)

    finish_component(n)
    return components


def build_graph(smiles: str, mol_weight_override: float | None = None) -> MolecularGraph:
    """Parse and featurize a molecule (all components merged into one graph).

    mol_weight_override supplies a dataset-reported molecular weight (used
    for polymers, where the graph covers only the capped monomer); when
    absent, the weight is computed from the parsed atoms.
    """
    atoms: list[Atom] = []
    ends: list[int] = []  # both ends of every bond, duplicates included
    orders: list[float] = []
    edges: list[Bond] = []
    seen: set[tuple[int, int]] = set()
    for component_atoms, bonds in parse_smiles(smiles):
        offset = len(atoms)
        atoms.extend(component_atoms)
        for bond in bonds:
            i, j = sorted((bond.i + offset, bond.j + offset))
            ends += (i, j)
            orders += (bond.order_code, bond.order_code)
            if (i, j) in seen:
                continue
            seen.add((i, j))
            edges.append(Bond(i, j, bond.order_code))

    element = np.array([_ELEMENT_ROW[a.element] for a in atoms])
    charge = np.array([a.formal_charge for a in atoms])
    # -1 marks an atom written without brackets, whose H count is implicit.
    explicit_h = np.array([-1 if a.explicit_h is None else a.explicit_h for a in atoms])
    bonded = np.ceil(np.bincount(np.array(ends, dtype=np.intp), orders, minlength=len(atoms)))
    valence = _VALENCES[element] + charge
    spare_valence = valence - bonded
    for k in np.flatnonzero((explicit_h < 0) & (spare_valence < 0)).tolist():
        logger.warning(
            "%s exceeds its default valence (%d bonds vs %d); clamping H count to 0",
            atoms[k].element,
            bonded[k],
            valence[k],
        )
    hydrogens = np.where(explicit_h < 0, np.maximum(spare_valence, 0.0), explicit_h)

    features = _FEATURE_ROWS[element]
    features[:, 9] = charge
    features[:, 12] = hydrogens
    if mol_weight_override is not None:
        weight = mol_weight_override
    else:
        # Python's left-to-right sum; numpy's pairwise sum rounds differently.
        weight = sum((features[:, 8] + features[:, 12] * HYDROGEN_MASS).tolist())
    if not (math.isfinite(weight) and weight > 0):
        raise FeaturizationError(f"molecular weight must be finite and positive, got {weight!r}")

    return MolecularGraph(
        node_features=features,
        edges=tuple(edges),
        log_mol_weight=math.log10(weight),
        source_smiles=smiles,
    )
