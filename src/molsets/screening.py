"""Combinatorial candidate enumeration and ranked virtual screening.

Candidates are equal-weight binary solvent mixtures (unordered distinct
pairs) combined with each salt at 1 mol/kg. `enumerate_binary_candidates`
returns them as a `CandidateTable`: their `CandidateSpec`s, plus integer
columns that code each candidate's two solvents and salt into the sorted
distinct SMILES and its weight pair into a small table, and its molality.
Screening works on those columns with numpy, with no Python loop per
candidate: it parses each distinct SMILES once, skips the candidates that
use a failed one (a boolean mask), numbers the distinct solvent sets
(pair and weights), solvents and salts in first-seen order, and builds
one columnar batch. One forward over that batch embeds every distinct
molecule once and aggregates every distinct solvent set once, however
many candidates share it; the head runs per candidate. The predictions
are ranked in descending order by one `np.lexsort` over the values and
the SMILES codes.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .chem import FeaturizationError, MolecularGraph, SmilesParseError, build_graph
from .data import MixtureRecord, composition_error
from .model import MixtureBatch, ModelParams, forward_columns

logger = logging.getLogger(__name__)


class ScreeningError(RuntimeError):
    pass


@dataclass(frozen=True)
class CandidateSpec:
    """An unordered solvent pair plus a salt; (a, b) and (b, a) are equal.

    The pair is stored in lexicographic order and each weight fraction
    moves with its solvent.
    """

    solvent_a: str
    solvent_b: str
    salt: str
    weights: tuple[float, float] = (0.5, 0.5)
    molality: float = 1.0

    def __post_init__(self):
        if self.solvent_a == self.solvent_b:
            raise ValueError(f"candidate needs two distinct solvents, got {self.solvent_a!r}")
        swapped = self.solvent_b < self.solvent_a
        if swapped:
            a, b = self.solvent_b, self.solvent_a
            object.__setattr__(self, "solvent_a", a)
            object.__setattr__(self, "solvent_b", b)
        try:
            w0, w1 = self.weights
        except (TypeError, ValueError):
            raise ValueError(
                f"candidate {self.describe()}: needs two weight fractions, got {self.weights!r}"
            ) from None
        error = composition_error([w0, w1], self.molality)
        if error is not None:
            raise ValueError(f"candidate {self.describe()}: {error}")
        if swapped or type(self.weights) is not tuple:
            object.__setattr__(self, "weights", (w1, w0) if swapped else (w0, w1))

    def describe(self) -> str:
        return f"{self.solvent_a} | {self.solvent_b} | {self.salt}"

    def sort_key(self) -> tuple[str, str, str]:
        return (self.solvent_a, self.solvent_b, self.salt)


@dataclass(slots=True)
class ScreeningResult:
    candidate: CandidateSpec
    predicted_log10_sigma: float


class CandidateTable(Sequence):
    """Screening candidates as integer columns, and as a read-only sequence
    of their `CandidateSpec`s: len, indexing and iteration give the specs
    in input order, and item assignment is refused.

    `smiles` holds the sorted distinct SMILES of the candidates. For
    candidate i, `solvent_a[i]`, `solvent_b[i]` and `salt[i]` are codes into
    `smiles`; codes follow SMILES order, so sorting by code sorts by
    SMILES. `weight_code[i]` is a row of `weight_pairs`, the distinct
    (weight of solvent_a, weight of solvent_b) pairs by value as float64
    (so -0.0 and 0.0 are one pair; the spec keeps its own sign).
    `molality[i]` is its molality as float64. The columns are read-only
    arrays.

    A table is built by `enumerate_binary_candidates` or from a sequence
    of specs (`CandidateTable(specs)`); both derive the columns from the
    specs. Screening combines codes into int64 keys, so a table refuses
    more distinct SMILES and weight pairs than those keys can hold:
    len(smiles) ** 3 and len(smiles) ** 2 * len(weight_pairs) stay below
    2 ** 63.
    """

    __slots__ = ("_specs", "smiles", "solvent_a", "solvent_b", "salt", "weight_code", "weight_pairs", "molality")

    def __init__(self, specs):
        """The table of a sequence of specs, holding those same spec objects."""
        specs = tuple(specs)
        names = [(spec.solvent_a, spec.solvent_b, spec.salt) for spec in specs]
        smiles = sorted(set(itertools.chain.from_iterable(names)))
        code = {s: i for i, s in enumerate(smiles)}
        codes = np.array([[code[s] for s in row] for row in names], dtype=np.intp).reshape(-1, 3)
        weights = np.array([spec.weights for spec in specs], dtype=np.float64).reshape(-1, 2)
        pairs, weight_code = np.unique(weights, axis=0, return_inverse=True)
        molality = np.array([spec.molality for spec in specs], dtype=np.float64)
        self._set_columns(specs, smiles, *codes.T, weight_code.reshape(-1), pairs, molality)

    @classmethod
    def _from_columns(cls, specs, smiles, solvent_a, solvent_b, salt, weight_code, weight_pairs, molality):
        """The table of specs and the columns derived from them."""
        table = object.__new__(cls)
        table._set_columns(specs, smiles, solvent_a, solvent_b, salt, weight_code, weight_pairs, molality)
        return table

    def _set_columns(self, specs, smiles, solvent_a, solvent_b, salt, weight_code, weight_pairs, molality):
        self._specs = np.fromiter(specs, dtype=object)
        self.smiles = tuple(smiles)
        self.solvent_a = _frozen(solvent_a, np.intp)
        self.solvent_b = _frozen(solvent_b, np.intp)
        self.salt = _frozen(salt, np.intp)
        self.weight_code = _frozen(weight_code, np.intp)
        self.weight_pairs = _frozen(weight_pairs, np.float64).reshape(-1, 2)
        self.molality = _frozen(molality, np.float64)
        columns = (self.solvent_a, self.solvent_b, self.salt, self.weight_code, self.molality)
        if any(column.shape != self._specs.shape for column in columns):
            raise ValueError(f"every column needs one entry for each of the {len(self._specs)} candidates")
        n = len(self.smiles)
        if max(n**3, n**2 * len(self.weight_pairs)) >= 2**63:
            raise ValueError(
                f"{n} distinct SMILES and {len(self.weight_pairs)} weight pairs "
                "are too many for one candidate table"
            )

    def __len__(self) -> int:
        return len(self._specs)

    def __getitem__(self, index):
        item = self._specs[index]
        return item.tolist() if isinstance(item, np.ndarray) else item

    def __iter__(self):
        return iter(self._specs.tolist())


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def enumerate_binary_candidates(solvents: list[str], salts: list[str]) -> CandidateTable:
    """All unordered distinct solvent pairs crossed with every salt, in
    lexicographic order, as a `CandidateTable` of equal-weight candidates
    at 1 mol/kg; the count is C(n, 2) * s.

    The inputs are checked once per call, and the first spec goes through
    `CandidateSpec(...)`; the rest are built directly (`_equal_weight_specs`).
    The code columns come from `np.triu_indices` over the sorted solvents,
    crossed with the sorted salts, which is the same order.
    """
    if len(set(solvents)) != len(solvents):
        raise ValueError("duplicate solvent entries")
    if len(set(salts)) != len(salts):
        raise ValueError("duplicate salt entries")
    if len(solvents) < 2:
        raise ValueError(f"need at least 2 solvents, got {len(solvents)}")
    if len(salts) < 1:
        raise ValueError("need at least 1 salt")
    solvents, salts = sorted(solvents), sorted(salts)
    specs = _equal_weight_specs(solvents, salts)
    smiles = sorted(set(solvents) | set(salts))
    code = {s: i for i, s in enumerate(smiles)}
    solvent_code = np.array([code[s] for s in solvents], dtype=np.intp)
    salt_code = np.array([code[s] for s in salts], dtype=np.intp)
    first, second = np.triu_indices(len(solvents), 1)
    return CandidateTable._from_columns(
        specs,
        smiles,
        solvent_a=np.repeat(solvent_code[first], len(salts)),
        solvent_b=np.repeat(solvent_code[second], len(salts)),
        salt=np.tile(salt_code, first.size),
        weight_code=np.zeros(len(specs), dtype=np.intp),
        weight_pairs=[specs[0].weights],
        molality=np.full(len(specs), specs[0].molality),
    )


def _equal_weight_specs(solvents: list[str], salts: list[str]) -> list[CandidateSpec]:
    """The equal-weight 1 mol/kg specs of every pair of `solvents` crossed
    with `salts`, in that order, without running `__post_init__` per spec.

    Both lists must be sorted and free of duplicates, so each pair is
    already distinct and in the order `__post_init__` would give it. The
    weights and molality are the same constants for every spec: the first
    spec is built by `CandidateSpec(...)`, which checks them once, and the
    others share its `weights` tuple and `molality`. The fields are set in
    declaration order with `object.__setattr__`, as the dataclass
    `__init__` sets them, so each spec takes the memory of a constructed
    one (writing through `__dict__` would give each its own dict).
    """
    first = CandidateSpec(solvents[0], solvents[1], salts[0])
    weights, molality = first.weights, first.molality
    new, put = object.__new__, object.__setattr__
    specs = []
    for a, b in itertools.combinations(solvents, 2):
        for salt in salts:
            spec = new(CandidateSpec)
            put(spec, "solvent_a", a)
            put(spec, "solvent_b", b)
            put(spec, "salt", salt)
            put(spec, "weights", weights)
            put(spec, "molality", molality)
            specs.append(spec)
    specs[0] = first
    return specs


def run_screening(
    params: ModelParams,
    candidates: CandidateTable | list[CandidateSpec],
) -> tuple[list[ScreeningResult], list[str]]:
    """Predict every candidate and rank descending by predicted value.

    `candidates` is a `CandidateTable` or a list of specs (turned into a
    table). Returns (ranked results, report lines for skipped
    candidates); each result holds the caller's own spec object.
    Unparseable candidates are skipped, in input order, with a line that
    names the first of (solvent_a, solvent_b, salt) that fails; ties in
    the ranking fall back to the candidates' lexicographic order, then
    to input order. With the module logger at INFO, one JSON event
    reports the counts.
    """
    table = candidates if isinstance(candidates, CandidateTable) else CandidateTable(candidates)
    graphs: list[MolecularGraph | None] = []
    errors: dict[int, ValueError] = {}
    for code, smiles in enumerate(table.smiles):  # distinct, so each is parsed once
        try:
            graphs.append(build_graph(smiles))
        except (SmilesParseError, FeaturizationError) as exc:
            graphs.append(None)
            errors[code] = exc

    n = len(table.smiles)
    a, b, salt = table.solvent_a, table.solvent_b, table.salt
    kept = np.arange(len(table))
    skipped: list[str] = []
    if errors:
        failed = np.zeros(n, dtype=bool)
        failed[list(errors)] = True
        bad = failed[a] | failed[b] | failed[salt]
        for i in np.flatnonzero(bad).tolist():
            first = next(c for c in (int(a[i]), int(b[i]), int(salt[i])) if c in errors)
            skipped.append(f"skipped {table[i].describe()}: {errors[first]}")
        kept = np.flatnonzero(~bad)
        a, b, salt = a[kept], b[kept], salt[kept]

    # Solvent sets (the pair and the weight values), salts and solvents are
    # numbered in first-seen order over the kept candidates; each set takes
    # its slot weights from its first kept candidate's spec.
    pair = a * n + b
    set_first, set_of = _first_seen(pair * len(table.weight_pairs) + table.weight_code[kept])
    salt_first, salt_of = _first_seen(salt)
    slot_code = np.column_stack((a[set_first], b[set_first])).reshape(-1)
    solvent_first, slot_graph = _first_seen(slot_code)
    solvent_graphs = [graphs[c] for c in slot_code[solvent_first].tolist()]
    salt_graphs = [graphs[c] for c in salt[salt_first].tolist()]

    results: list[ScreeningResult] = []
    if kept.size:
        batch = MixtureBatch(
            solvent_graphs=solvent_graphs,
            salt_graphs=salt_graphs,
            slot_graph=slot_graph,
            slot_weight=np.array(
                [w for spec in table._specs[kept[set_first]].tolist() for w in spec.weights], dtype=np.float64
            ),
            set_sizes=np.full(set_first.size, 2, dtype=np.intp),
            set_of=set_of,
            salt_of=salt_of,
            molality=table.molality[kept],
        )
        values = forward_columns(params, batch).data
        nonfinite = np.flatnonzero(~np.isfinite(values))
        if nonfinite.size:
            raise ScreeningError(f"non-finite prediction for {table[int(kept[nonfinite[0]])].describe()}")
        # Rank by (-value, solvent pair, salt): codes sort as their SMILES
        # do, and lexsort is stable, so equal keys keep input order.
        order = np.lexsort((pair * n + salt, -values))
        specs = table._specs[kept[order]].tolist()
        results = list(map(ScreeningResult, specs, values[order].tolist()))
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            json.dumps(
                {
                    "event": "screening",
                    "candidates": len(table),
                    "parsed": int(kept.size),
                    "skipped": len(skipped),
                    "molecules_embedded": len(solvent_graphs) + len(salt_graphs),
                    "solvent_sets": int(set_first.size),
                }
            )
        )
    return results, skipped


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys in order of first appearance. Returns
    (index of each number's first key, number of each key)."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse.reshape(-1)]


SCREENING_COLUMNS = (
    "solvent_1",
    "solvent_2",
    "weight_1",
    "weight_2",
    "salt",
    "molality",
    "predicted_log10_conductivity",
)


def write_screening_csv(results: list[ScreeningResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCREENING_COLUMNS)
        for res in results:
            cand = res.candidate
            writer.writerow(
                [
                    cand.solvent_a,
                    cand.solvent_b,
                    repr(float(cand.weights[0])),
                    repr(float(cand.weights[1])),
                    cand.salt,
                    repr(float(cand.molality)),
                    repr(res.predicted_log10_sigma),
                ]
            )


def permute_mixture(record: MixtureRecord, seed: int = 0) -> MixtureRecord:
    """The same mixture with solvent-aligned fields in a different order.

    Applies one non-identity permutation consistently to the solvent
    list, weight fractions, and molecular-weight overrides; the target
    and every other field are unchanged.
    """
    m = len(record.solvent_smiles)
    if m < 2:
        raise ValueError("permuting needs at least 2 solvents")
    perms = [p for p in itertools.permutations(range(m)) if p != tuple(range(m))]
    rng = np.random.default_rng(seed)
    perm = perms[int(rng.integers(len(perms)))]

    overrides = None
    if record.mol_weight_overrides is not None:
        overrides = [record.mol_weight_overrides[i] for i in perm]
    return replace(
        record,
        solvent_smiles=[record.solvent_smiles[i] for i in perm],
        weight_fractions=[record.weight_fractions[i] for i in perm],
        mol_weight_overrides=overrides,
    )
