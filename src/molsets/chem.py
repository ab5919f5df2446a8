"""SMILES-subset parsing and molecular graph featurization.

The parser covers the grammar needed for electrolyte constituents:
organic-subset atoms (B C N O F S Cl P Br I), bracket atoms with charge
and explicit hydrogen counts, lowercase aromatic atoms (b c n o s), bond
symbols ``- = # :``, ring closures ``1``-``9`` and ``%nn``, branches, and
the ``.`` component separator. Stereochemistry, isotopes, and wildcard
atoms are rejected with a diagnostic. ``Cu`` and ``Au`` placeholder atoms
(marking monomer connection sites in polymer inputs) are replaced by
carbon at parse time.

One compiled token regex splits the string, and the ring and branch
state machine runs once per token, writing flat per-atom lists and the
graph's bonds as (i, j) pairs with i < j, each atom pair once, plus a
parallel list of bond orders. ``build_graph`` merges the components into
one graph and featurizes it in a single pass; its bonds are the
``edge_index`` ((E, 2) intp) and ``edge_order`` ((E,) float64) arrays,
row k of one matching row k of the other. Graphs carry a
13-dimensional node feature vector per heavy atom: a one-hot block over
(B, C, N, O, F, S, Cl) followed by atomic number, atomic mass, formal
charge, Pauling electronegativity, van der Waals radius, and
attached-hydrogen count. The element columns
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

PLACEHOLDER_ELEMENTS = frozenset({"Cu", "Au"})

# One node-feature row per supported element; build_graph fills the
# charge (9) and hydrogen-count (12) columns per atom.
_SYMBOLS = list(ELEMENTS)
_ELEMENT_ROW = {symbol: k for k, symbol in enumerate(_SYMBOLS)}
_FEATURE_ROWS = np.array(
    [
        [float(symbol == one_hot) for one_hot in ONE_HOT_ORDER]
        + [e.atomic_number, e.atomic_mass, 0.0, e.electronegativity, e.vdw_radius, 0.0]
        for symbol, e in ELEMENTS.items()
    ]
)
_VALENCES = [e.default_valence for e in ELEMENTS.values()]
_MASSES = [e.atomic_mass for e in ELEMENTS.values()]

# The SMILES token pattern of Schwaller et al. (2019, ACS Cent. Sci. 5,
# 1572) cut to the supported subset: a bracket atom, an organic-subset
# atom, an aromatic atom, a bond symbol, a branch, a ring closure, the
# component separator, and last any other single character, which the
# scanner rejects with a diagnostic.
_TOKEN_RE = re.compile(
    r"\[[^\]]*\]|Cl|Br|[BCNOFSPI]|[bcnos]|[-=#:]|[()]|[0-9]|%[0-9]{2}|\.|.", re.DOTALL
)
# Organic-subset and aromatic atom tokens -> (element row, aromatic,
# formal charge, H count); -1 leaves the H count to the valence model.
_ORGANIC_ATOMS = {
    symbol: (_ELEMENT_ROW[symbol.capitalize()], symbol.islower(), 0, -1)
    for symbol in ("Cl", "Br", *"BCNOFSPI", *"bcnos")
}
_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}
_RING_LABELS = {str(n): n for n in range(10)} | {f"%{n:02d}": n for n in range(100)}

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


@dataclass(eq=False)
class MolecularGraph:
    node_features: np.ndarray  # (n, 13)
    edge_index: np.ndarray  # (E, 2) intp: undirected bonds, deduplicated, i < j
    edge_order: np.ndarray  # (E,) float64: 1, 1.5, 2, or 3 per edge_index row
    log_mol_weight: float  # log10 Dalton
    source_smiles: str

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]


def _parse_bracket(content: str, smiles: str, offset: int) -> tuple[int, bool, int, int]:
    """(element row, aromatic, formal charge, H count) of a bracket atom."""
    match = _BRACKET_RE.match(content)
    if match is None:
        raise SmilesParseError(f"malformed bracket atom [{content}]", smiles, offset)

    symbol = match.group("element")
    aromatic = symbol.islower()
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

    return _ELEMENT_ROW[element], aromatic, charge, explicit_h


def _character_error(ch: str, smiles: str, pos: int) -> SmilesParseError:
    """The diagnostic for a character that starts no supported token."""
    if ch == "[":
        message = "unterminated bracket atom"
    elif ch == "%":
        message = "malformed %nn ring closure"
    elif ch in "/\\@":
        message = "stereochemistry markers are not supported"
    elif ch == "*":
        message = "wildcard atoms are not supported"
    elif ch.isupper() or ch.islower():
        message = f"unsupported element {ch!r}"
    else:
        message = f"unexpected character {ch!r}"
    return SmilesParseError(message, smiles, pos)


class _Scan(NamedTuple):
    """Flat parse of a SMILES string; atom indices run over all components."""

    # (row in ELEMENTS, aromatic, formal charge, H count or -1 for an atom
    # written without brackets) per atom
    atoms: list[tuple[int, bool, int, int]]
    order_sum: list[float]  # bond orders per atom, repeated ring bonds included
    pairs: list[tuple[int, int]]  # the graph's bonds: i < j, each atom pair once
    orders: list[float]  # bond order per pair


def _scan(smiles: str) -> _Scan:
    """Tokenize with _TOKEN_RE and run the ring and branch state machine
    once per token. Raises SmilesParseError with a character offset."""
    if not smiles:
        raise SmilesParseError("empty SMILES", smiles, 0)
    if not smiles.isascii():
        raise SmilesParseError("non-ASCII SMILES", smiles, 0)

    scan = _Scan([], [], [], [])
    atoms, order_sum, pairs, orders = scan
    anchor = -1  # the atom the next bond starts from; -1 before a component's first atom
    component_start = 0
    branch_points: list[int] = []
    # ring number -> (opening atom, bond symbol order or None, offset)
    open_rings: dict[int, tuple[int, float | None, int]] = {}
    pending_bond: float | None = None
    pending_pos = 0

    def finish_component(pos: int) -> None:
        nonlocal anchor, component_start
        if branch_points:
            raise SmilesParseError("unbalanced parentheses", smiles, pos)
        if open_rings:
            num, (_, _, open_pos) = next(iter(open_rings.items()))
            raise SmilesParseError(f"unmatched ring closure {num}", smiles, open_pos)
        if pending_bond is not None:
            raise SmilesParseError("dangling bond symbol", smiles, pending_pos)
        if len(atoms) == component_start:
            raise SmilesParseError("empty component", smiles, pos)
        component_start = len(atoms)
        anchor = -1

    pos = 0
    for token in _TOKEN_RE.findall(smiles):
        atom = _ORGANIC_ATOMS.get(token)
        if atom is None and token[0] == "[" and len(token) > 1:
            atom = _parse_bracket(token[1:-1], smiles, pos)
        if atom is not None:
            idx = len(atoms)
            atoms.append(atom)
            if anchor < 0:
                order_sum.append(0.0)
            else:
                order = pending_bond
                if order is None:
                    order = 1.5 if (atom[1] and atoms[anchor][1]) else 1.0
                # A new atom's bond to its lower-indexed anchor is never a repeat.
                pairs.append((anchor, idx))
                orders.append(order)
                order_sum[anchor] += order
                order_sum.append(order)
            pending_bond = None
            anchor = idx
        elif token in _RING_LABELS:
            number = _RING_LABELS[token]
            if anchor < 0:
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
                    order = 1.5 if (atoms[other][1] and atoms[anchor][1]) else 1.0
                order_sum[other] += order
                order_sum[anchor] += order
                # After a ")" the opener may be the higher index, and the
                # closure may repeat a bond already made.
                pair = (other, anchor) if other < anchor else (anchor, other)
                if pair not in pairs:
                    pairs.append(pair)
                    orders.append(order)
            else:
                open_rings[number] = (anchor, pending_bond, pos)
            pending_bond = None
        elif token in _BOND_ORDERS:
            if pending_bond is not None:
                raise SmilesParseError("consecutive bond symbols", smiles, pos)
            pending_bond = _BOND_ORDERS[token]
            pending_pos = pos
        elif token == "(":
            if anchor < 0:
                raise SmilesParseError("branch opened before any atom", smiles, pos)
            if pending_bond is not None:
                raise SmilesParseError("bond symbol before branch open", smiles, pos)
            branch_points.append(anchor)
        elif token == ")":
            if not branch_points:
                raise SmilesParseError("unbalanced parentheses", smiles, pos)
            if pending_bond is not None:
                raise SmilesParseError("dangling bond symbol", smiles, pending_pos)
            anchor = branch_points.pop()
        elif token == ".":
            finish_component(pos)
        else:
            raise _character_error(token, smiles, pos)
        pos += len(token)

    finish_component(pos)
    return scan


def build_graph(smiles: str, mol_weight_override: float | None = None) -> MolecularGraph:
    """Parse and featurize a molecule (all components merged into one graph).

    mol_weight_override supplies a dataset-reported molecular weight (used
    for polymers, where the graph covers only the capped monomer); when
    absent, the weight is computed from the parsed atoms.
    """
    scan = _scan(smiles)
    rows, _, charges, explicit_h = zip(*scan.atoms)
    hydrogens = []
    for row, charge, h, order_sum in zip(rows, charges, explicit_h, scan.order_sum):
        if h < 0:
            valence = _VALENCES[row] + charge
            bonded = math.ceil(order_sum)
            h = valence - bonded
            if h < 0:
                logger.warning(
                    "%s exceeds its default valence (%d bonds vs %d); clamping H count to 0",
                    _SYMBOLS[row],
                    bonded,
                    valence,
                )
                h = 0
        hydrogens.append(h)

    features = _FEATURE_ROWS[list(rows)]
    features[:, 9] = charges
    features[:, 12] = hydrogens
    if mol_weight_override is not None:
        weight = mol_weight_override
    else:
        # Python's left-to-right sum; numpy's pairwise sum rounds differently.
        weight = sum([_MASSES[row] + h * HYDROGEN_MASS for row, h in zip(rows, hydrogens)])
    if not (math.isfinite(weight) and weight > 0):
        raise FeaturizationError(f"molecular weight must be finite and positive, got {weight!r}")

    return MolecularGraph(
        node_features=features,
        edge_index=np.array(scan.pairs, dtype=np.intp).reshape(-1, 2),
        edge_order=np.array(scan.orders, dtype=np.float64),
        log_mol_weight=math.log10(weight),
        source_smiles=smiles,
    )
