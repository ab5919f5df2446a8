"""Verbatim copies of the per-candidate screen that `CandidateTable`
replaced: `enumerate_binary_candidates` returning a list of specs and
`run_screening` numbering sets and salts in one dict loop, with
`_dense_rank` for its ranking. The equivalence tests in
`test_screening.py` run them beside the columnar screen."""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass

import numpy as np

from molsets.chem import FeaturizationError, MolecularGraph, SmilesParseError
from molsets.model import GraphStore, MixtureBatch, ModelParams, forward_columns
from molsets.screening import CandidateSpec

logger = logging.getLogger("frozen_screening")


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
