"""Data-layer code that later changes replaced, frozen as the
equivalence reference for the tests.

`synthetic_ground_truth` and `generate_synthetic` build every record's
graphs afresh, three `build_graph` calls per record. `_parse_row` and
`load_dataset` read rows through `csv.DictReader`, one dict per row, and
number a row by its record count, not its physical line. These are the
ingest that parsing each pool molecule once and reading CSV rows by
column index replaced.

`arrhenius_fit`, `conductivity_at_298K` and `attach_targets` fit one
record at a time with `np.dot` sums, and fill a target through
`dataclasses.replace`, which validates the record again. These are the
298 K targets that the one-pass `np.bincount` fit replaced.

Each is copied verbatim from `molsets.data` as it stood before; only the
imports and the logger's name differ. Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import replace

import numpy as np

from molsets.chem import build_graph
from molsets.data import (
    CSV_COLUMNS,
    MAX_SOLVENT_SLOTS,
    SYNTHETIC_POINT_TEMPS,
    SYNTHETIC_SALTS,
    SYNTHETIC_SLOPE_K,
    SYNTHETIC_SOLVENTS,
    TARGET_TEMPERATURE_K,
    TEMPERATURE_MATCH_TOLERANCE_K,
    ArrheniusFit,
    ConductivityPoint,
    DataError,
    FitError,
    MixtureRecord,
    TargetError,
)

logger = logging.getLogger(__name__)


def _parse_row(row: dict[str, str], line: int) -> tuple[str, dict]:
    def numeric(column: str) -> float:
        raw = row[column].strip()
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"line {line}: non-numeric {column}={raw!r}") from None

    solvents: list[str] = []
    weights: list[float] = []
    overrides: list[float | None] = []
    for i in range(1, MAX_SOLVENT_SLOTS + 1):
        smiles = row[f"solvent_smiles_{i}"].strip()
        if not smiles:
            continue
        solvents.append(smiles)
        weights.append(numeric(f"weight_frac_{i}"))
        overrides.append(numeric(f"mol_weight_{i}") if row[f"mol_weight_{i}"].strip() else None)
    if not solvents:
        raise DataError(f"line {line}: no solvent SMILES")
    if all(o is None for o in overrides):
        overrides = None

    mixture_id = row["mixture_id"].strip()
    if not mixture_id:
        raise DataError(f"line {line}: blank mixture_id")
    fields = dict(
        solvent_smiles=solvents,
        weight_fractions=weights,
        mol_weight_overrides=overrides,
        salt_smiles=row["salt_smiles"].strip(),
        molality=numeric("molality_mol_per_kg"),
    )
    point = ConductivityPoint(numeric("temperature_K"), numeric("log10_conductivity_S_per_cm"))
    return mixture_id, {"fields": fields, "point": point}


def load_dataset(path: str, strict: bool = True) -> list[MixtureRecord]:
    """Read and validate records, merging rows that share a mixture_id.

    In strict mode the first bad row aborts with a DataError naming its
    line; in lenient mode bad rows are skipped and reported via logging.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            logger.warning("dataset %s is empty", path)
            return []
        missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")

        grouped: dict[str, dict] = {}
        for line, row in enumerate(reader, start=2):
            try:
                mixture_id, parsed = _parse_row(row, line)
                existing = grouped.get(mixture_id)
                if existing is None:
                    parsed["points"] = [parsed.pop("point")]
                    parsed["line"] = line
                    grouped[mixture_id] = parsed
                else:
                    if existing["fields"] != parsed["fields"]:
                        raise DataError(
                            f"line {line}: mixture {mixture_id!r} fields disagree "
                            f"with line {existing['line']}"
                        )
                    existing["points"].append(parsed["point"])
            except DataError as exc:
                if strict:
                    raise
                logger.warning("skipping row: %s", exc)

    records = []
    for mixture_id, entry in grouped.items():
        try:
            records.append(
                MixtureRecord(mixture_id=mixture_id, points=entry["points"], **entry["fields"])
            )
        except DataError as exc:
            message = f"line {entry['line']}: {exc}"
            if strict:
                raise DataError(message) from exc
            logger.warning("skipping mixture: %s", message)
    if not records:
        logger.warning("dataset %s has no records", path)
    return records


def synthetic_ground_truth(
    solvent_smiles: list[str],
    weights: list[float],
    salt_smiles: str,
    molality: float,
) -> float:
    """The documented noise-free target of the synthetic corpus.

    Per solvent graph g: s(g) = 1.5 * (oxygen count / heavy atoms)
                                - 0.3 * (log10 M(g) - 1.8).
    Salt term: u = 0.05 * heavy atom count of the salt graph.
    Target:  y = -2.2 + sum_i w_i s(g_i) + u + 0.9 m - 0.3 m^2.

    Every term is symmetric in the solvents, so the target is permutation
    invariant by construction.
    """
    mix_term = 0.0
    for smiles, w in zip(solvent_smiles, weights):
        graph = build_graph(smiles)
        oxygen_fraction = float(graph.node_features[:, 3].sum()) / graph.n_nodes
        mix_term += w * (1.5 * oxygen_fraction - 0.3 * (graph.log_mol_weight - 1.8))
    salt_graph = build_graph(salt_smiles)
    salt_term = 0.05 * salt_graph.n_nodes
    return -2.2 + mix_term + salt_term + 0.9 * molality - 0.3 * molality**2


def generate_synthetic(n: int, seed: int = 0, noise_scale: float = 0.0) -> list[MixtureRecord]:
    """Sample n mixtures with exactly reproducible targets.

    For each record: 1-3 solvents drawn without replacement from
    SYNTHETIC_SOLVENTS, weights uniform(0.2, 1) normalized to sum 1, one
    salt from SYNTHETIC_SALTS, molality uniform(0.5, 2). The target is
    synthetic_ground_truth plus Gaussian noise of the given scale, and
    each record carries two temperature points on the line with slope
    SYNTHETIC_SLOPE_K through (298 K, target).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (math.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale must be finite and non-negative, got {noise_scale}")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        size = int(rng.integers(1, 4))
        idx = rng.choice(len(SYNTHETIC_SOLVENTS), size=size, replace=False)
        solvents = [SYNTHETIC_SOLVENTS[j] for j in idx]
        raw = rng.uniform(0.2, 1.0, size=size)
        weights = [float(w) for w in raw / raw.sum()]
        salt = SYNTHETIC_SALTS[int(rng.integers(len(SYNTHETIC_SALTS)))]
        molality = float(rng.uniform(0.5, 2.0))

        target = synthetic_ground_truth(solvents, weights, salt, molality)
        if noise_scale > 0:
            target += float(rng.normal(0.0, noise_scale))

        points = [
            ConductivityPoint(
                t, target + SYNTHETIC_SLOPE_K * (1.0 / t - 1.0 / TARGET_TEMPERATURE_K)
            )
            for t in SYNTHETIC_POINT_TEMPS
        ]
        records.append(
            MixtureRecord(
                mixture_id=f"synth-{i:05d}",
                solvent_smiles=solvents,
                weight_fractions=weights,
                salt_smiles=salt,
                molality=molality,
                points=points,
                target_298K=target,
            )
        )
    return records


def arrhenius_fit(points: list[ConductivityPoint]) -> ArrheniusFit:
    """Ordinary least squares of log10(sigma) against 1/T."""
    temps = {p.temperature_K for p in points}
    if len(temps) < 2:
        raise FitError(f"need at least 2 distinct temperatures, got {sorted(temps)}")
    x = np.array([1.0 / p.temperature_K for p in points])
    y = np.array([p.log10_sigma for p in points])
    x_mean = x.mean()
    y_mean = y.mean()
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    intercept = float(y_mean - slope * x_mean)

    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(y - y_mean, y - y_mean))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return ArrheniusFit(slope, intercept, len(points), r_squared)


def conductivity_at_298K(record: MixtureRecord) -> float:
    """Measured-at-298 K value when present, else the Arrhenius extrapolation."""
    near = [
        p
        for p in record.points
        if abs(p.temperature_K - TARGET_TEMPERATURE_K) <= TEMPERATURE_MATCH_TOLERANCE_K
    ]
    if near:
        nearest = min(near, key=lambda p: abs(p.temperature_K - TARGET_TEMPERATURE_K))
        return nearest.log10_sigma
    try:
        fit = arrhenius_fit(record.points)
    except FitError as exc:
        raise TargetError(
            f"mixture {record.mixture_id!r}: no 298 K point and no usable fit ({exc})"
        ) from exc
    return fit.slope_k / TARGET_TEMPERATURE_K + fit.intercept_b


def attach_targets(records: list[MixtureRecord]) -> list[MixtureRecord]:
    """Copies of the records with target_298K filled (existing targets kept)."""
    out = []
    for record in records:
        if record.target_298K is None:
            out.append(replace(record, target_298K=conductivity_at_298K(record)))
        else:
            out.append(record)
    return out
