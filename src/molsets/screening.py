"""Combinatorial candidate enumeration and ranked virtual screening.

Candidates are equal-weight binary solvent mixtures (unordered distinct
pairs) combined with each salt at 1 mol/kg. Screening makes one pass over
the candidates: it parses every distinct SMILES once, numbers the
distinct solvent sets (pair and weights) and salts, and records per
candidate a set row, a salt row and a molality. One forward over that
columnar batch embeds every distinct molecule once and aggregates every
distinct solvent set once, however many candidates share it; the head
runs per candidate. The predictions are then ranked in descending order.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .chem import FeaturizationError, MolecularGraph, SmilesParseError
from .data import MixtureRecord
from .model import GraphStore, MixtureBatch, ModelParams, forward_columns

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
            weights_ok = 0 <= w0 <= 1 and 0 <= w1 <= 1 and abs(w0 + w1 - 1.0) <= 1e-6
        except (TypeError, ValueError):
            weights_ok = False
        if not weights_ok:
            raise ValueError(
                f"candidate {self.describe()}: weight fractions must be two values in [0, 1] "
                f"summing to 1, got {self.weights!r}"
            )
        if swapped or type(self.weights) is not tuple:
            object.__setattr__(self, "weights", (w1, w0) if swapped else (w0, w1))
        try:
            molality_ok = math.isfinite(self.molality) and self.molality >= 0
        except TypeError:
            molality_ok = False
        if not molality_ok:
            raise ValueError(
                f"candidate {self.describe()}: molality must be finite and >= 0, "
                f"got {self.molality!r}"
            )

    def describe(self) -> str:
        return f"{self.solvent_a} | {self.solvent_b} | {self.salt}"

    def sort_key(self) -> tuple[str, str, str]:
        return (self.solvent_a, self.solvent_b, self.salt)


@dataclass
class ScreeningResult:
    candidate: CandidateSpec
    predicted_log10_sigma: float


def enumerate_binary_candidates(solvents: list[str], salts: list[str]) -> list[CandidateSpec]:
    """All unordered distinct solvent pairs crossed with every salt,
    in lexicographic order; the count is C(n, 2) * s."""
    if len(set(solvents)) != len(solvents):
        raise ValueError("duplicate solvent entries")
    if len(set(salts)) != len(salts):
        raise ValueError("duplicate salt entries")
    if len(solvents) < 2:
        raise ValueError(f"need at least 2 solvents, got {len(solvents)}")
    if len(salts) < 1:
        raise ValueError("need at least 1 salt")
    return [
        CandidateSpec(a, b, salt)
        for a, b in itertools.combinations(sorted(solvents), 2)
        for salt in sorted(salts)
    ]


def run_screening(
    params: ModelParams,
    candidates: list[CandidateSpec],
) -> tuple[list[ScreeningResult], list[str]]:
    """Predict every candidate and rank descending by predicted value.

    Returns (ranked results, report lines for skipped candidates).
    Unparseable candidates are skipped with a report line; ties in the
    ranking fall back to the candidates' lexicographic order. With the
    module logger at INFO, one JSON event reports the counts.
    """
    store = GraphStore()
    skipped: list[str] = []
    kept: list[CandidateSpec] = []
    set_of: list[int] = []
    salt_of: list[int] = []
    # A solvent set (pair and weights), a salt and a solvent are numbered at
    # the first candidate whose three SMILES all parse; later candidates
    # that share its set and salt are two dict lookups.
    sets: dict[tuple[str, str, tuple[float, float]], int] = {}
    salts: dict[str, int] = {}
    solvents: dict[str, int] = {}
    solvent_graphs: list[MolecularGraph] = []
    salt_graphs: list[MolecularGraph] = []
    slot_graph: list[int] = []
    slot_weight: list[float] = []
    for cand in candidates:
        key = (cand.solvent_a, cand.solvent_b, cand.weights)
        set_id = sets.get(key)
        salt_id = salts.get(cand.salt)
        if set_id is None or salt_id is None:
            try:
                a, b = store.get(cand.solvent_a), store.get(cand.solvent_b)
                salt = store.get(cand.salt)
            except (SmilesParseError, FeaturizationError) as exc:
                skipped.append(f"skipped {cand.describe()}: {exc}")
                continue
            if set_id is None:
                set_id = sets[key] = len(sets)
                for smiles, graph in ((cand.solvent_a, a), (cand.solvent_b, b)):
                    if smiles not in solvents:
                        solvents[smiles] = len(solvent_graphs)
                        solvent_graphs.append(graph)
                    slot_graph.append(solvents[smiles])
                slot_weight.extend(cand.weights)
            if salt_id is None:
                salt_id = salts[cand.salt] = len(salt_graphs)
                salt_graphs.append(salt)
        kept.append(cand)
        set_of.append(set_id)
        salt_of.append(salt_id)

    results: list[ScreeningResult] = []
    if kept:
        batch = MixtureBatch(
            solvent_graphs=solvent_graphs,
            salt_graphs=salt_graphs,
            slot_graph=np.array(slot_graph, dtype=np.intp),
            slot_weight=np.array(slot_weight, dtype=np.float64),
            set_sizes=np.full(len(sets), 2, dtype=np.intp),
            set_of=np.array(set_of, dtype=np.intp),
            salt_of=np.array(salt_of, dtype=np.intp),
            molality=np.array([cand.molality for cand in kept], dtype=np.float64),
        )
        values = forward_columns(params, batch).data
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ScreeningError(f"non-finite prediction for {kept[bad[0]].describe()}")
        # Rank by (-value, solvent pair, salt): the same order as sorting on
        # (-value, sort_key()), and stable, so equal keys keep input order.
        pair_rank = _dense_rank([(a, b) for a, b, _ in sets])
        salt_rank = _dense_rank(list(salts))
        order = np.lexsort((salt_rank[batch.salt_of], pair_rank[batch.set_of], -values))
        results = [
            ScreeningResult(kept[i], value)
            for i, value in zip(order.tolist(), values[order].tolist())
        ]
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            json.dumps(
                {
                    "event": "screening",
                    "candidates": len(candidates),
                    "parsed": len(kept),
                    "skipped": len(skipped),
                    "molecules_embedded": len(solvent_graphs) + len(salt_graphs),
                    "solvent_sets": len(sets),
                }
            )
        )
    return results, skipped


def _dense_rank(keys: list) -> np.ndarray:
    """Rank of each key among the distinct keys in sorted order."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.intp)


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
