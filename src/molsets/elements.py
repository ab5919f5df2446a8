"""Embedded periodic-table reference data for the supported element set.

Values (atomic number, atomic mass in Dalton, Pauling electronegativity,
van der Waals radius in Angstrom) are standard reference data; only the
elements that can occur in the supported SMILES subset are included.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ElementData:
    symbol: str
    atomic_number: int
    atomic_mass: float
    electronegativity: float
    vdw_radius: float
    default_valence: int


HYDROGEN_MASS = 1.008

# symbol -> (Z, mass, Pauling EN, vdW radius, default valence)
_TABLE = {
    "B": (5, 10.811, 2.04, 1.92, 3),
    "C": (6, 12.011, 2.55, 1.70, 4),
    "N": (7, 14.007, 3.04, 1.55, 3),
    "O": (8, 15.999, 3.44, 1.52, 2),
    "F": (9, 18.998, 3.98, 1.47, 1),
    "S": (16, 32.06, 2.58, 1.80, 2),
    "Cl": (17, 35.45, 3.16, 1.75, 1),
    "P": (15, 30.974, 2.19, 1.80, 3),
    "Li": (3, 6.94, 0.98, 1.82, 1),
    "Si": (14, 28.085, 1.90, 2.10, 4),
    "Na": (11, 22.990, 0.93, 2.27, 1),
    "K": (19, 39.098, 0.82, 2.75, 1),
    "Br": (35, 79.904, 2.96, 1.85, 1),
    "I": (53, 126.904, 2.66, 1.98, 1),
}

ELEMENTS: dict[str, ElementData] = {
    sym: ElementData(sym, *row) for sym, row in _TABLE.items()
}

SUPPORTED_ELEMENTS = frozenset(ELEMENTS)

# First 7 node-feature dimensions are a one-hot over these elements, in
# this order; all other supported elements get an all-zero one-hot block.
ONE_HOT_ORDER = ("B", "C", "N", "O", "F", "S", "Cl")
