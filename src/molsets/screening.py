"""Combinatorial candidate enumeration and ranked virtual screening.

Candidates are equal-weight binary solvent mixtures (unordered distinct
pairs) combined with each salt at 1 mol/kg. Screening parses every
distinct SMILES once, predicts the parsed candidates in batched forward
passes over consecutive chunks that share one embedding cache (so every
distinct molecule is embedded once), then ranks the predictions in
descending order.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .chem import FeaturizationError, SmilesParseError
from .data import MixtureRecord
from .model import EmbedCache, GraphStore, MixtureInput, ModelParams, forward_batch

logger = logging.getLogger(__name__)

# Parsed candidates per forward_batch. A chunk's inputs are dropped before
# the next chunk is built, so they die young instead of reaching the
# garbage collector's oldest generation, where every full collection
# would walk them again.
_CHUNK = 512


class ScreeningError(RuntimeError):
    pass


@dataclass(frozen=True)
class CandidateSpec:
    """An unordered solvent pair plus a salt; (a, b) and (b, a) are equal."""

    solvent_a: str
    solvent_b: str
    salt: str
    weights: tuple[float, float] = (0.5, 0.5)
    molality: float = 1.0

    def __post_init__(self):
        if self.solvent_a == self.solvent_b:
            raise ValueError(f"candidate needs two distinct solvents, got {self.solvent_a!r}")
        a, b = sorted((self.solvent_a, self.solvent_b))
        object.__setattr__(self, "solvent_a", a)
        object.__setattr__(self, "solvent_b", b)

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
    cache: EmbedCache = {}
    results: list[ScreeningResult] = []
    skipped: list[str] = []
    chunk: list[tuple[CandidateSpec, MixtureInput]] = []
    for cand in candidates:
        try:
            mixture = MixtureInput(
                solvents=[
                    (store.get(cand.solvent_a), cand.weights[0]),
                    (store.get(cand.solvent_b), cand.weights[1]),
                ],
                salt=store.get(cand.salt),
                molality=cand.molality,
            )
        except (SmilesParseError, FeaturizationError) as exc:
            skipped.append(f"skipped {cand.solvent_a} | {cand.solvent_b} | {cand.salt}: {exc}")
            continue
        chunk.append((cand, mixture))
        if len(chunk) == _CHUNK:
            results += _predict_chunk(params, chunk, cache)
            chunk = []
    if chunk:
        results += _predict_chunk(params, chunk, cache)
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            json.dumps(
                {
                    "event": "screening",
                    "candidates": len(candidates),
                    "parsed": len(results),
                    "skipped": len(skipped),
                    "molecules_embedded": len(cache),
                }
            )
        )

    results.sort(key=lambda r: (-r.predicted_log10_sigma, r.candidate.sort_key()))
    return results, skipped


def _predict_chunk(
    params: ModelParams, chunk: list[tuple[CandidateSpec, MixtureInput]], cache: EmbedCache
) -> list[ScreeningResult]:
    values = forward_batch(params, [mix for _, mix in chunk], cache).data.tolist()
    results = []
    for (cand, _), value in zip(chunk, values):
        if not math.isfinite(value):
            raise ScreeningError(
                f"non-finite prediction for {cand.solvent_a} | {cand.solvent_b} | {cand.salt}"
            )
        results.append(ScreeningResult(cand, value))
    return results


SCREENING_COLUMNS = ("solvent_1", "solvent_2", "salt", "molality", "predicted_log10_conductivity")


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
