"""Mixture conductivity records: CSV ingestion, 298 K target inference,
dataset splitting, and a synthetic corpus generator.

CSV schema (UTF-8, BOM allowed, header required), one row per temperature point:

    mixture_id, solvent_smiles_1..4, weight_frac_1..4, mol_weight_1..4,
    salt_smiles, molality_mol_per_kg, temperature_K,
    log10_conductivity_S_per_cm

Unused solvent slots are blank; mol_weight columns may be blank (they
override the computed molecular weight, e.g. for polymers). Rows sharing
a mixture_id merge their temperature points into one record. Rows are
read by header position, and a load error names the physical line on
which its row starts. A record with neither points nor a target writes
no row, so write_dataset refuses it.

Conductivity follows a linear law in inverse temperature,
log10(sigma) = k/T + b, fitted by ordinary least squares; a measured
point within 0.5 K of 298 K takes precedence over the fit. Every fit of
a call runs in one pass of per-record sums (`np.bincount`), with no BLAS
call, so a target has the same bits on every BLAS kernel. A record is
validated once, when it is built; the copies that carry its target or
its 298 K point are not validated again.

The synthetic corpus computes each pool molecule's ground-truth term once
per generate_synthetic call, the first time the molecule is drawn.
"""

from __future__ import annotations

import copy
import csv
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .chem import build_graph

logger = logging.getLogger(__name__)

MAX_SOLVENT_SLOTS = 4
TARGET_TEMPERATURE_K = 298.0
TEMPERATURE_MATCH_TOLERANCE_K = 0.5

CSV_COLUMNS = (
    ["mixture_id"]
    + [f"solvent_smiles_{i}" for i in range(1, 5)]
    + [f"weight_frac_{i}" for i in range(1, 5)]
    + [f"mol_weight_{i}" for i in range(1, 5)]
    + ["salt_smiles", "molality_mol_per_kg", "temperature_K", "log10_conductivity_S_per_cm"]
)


class DataError(ValueError):
    pass


class FitError(DataError):
    pass


class TargetError(DataError):
    pass


@dataclass
class ConductivityPoint:
    temperature_K: float
    log10_sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature_K) and self.temperature_K > 0):
            raise DataError(f"temperature must be finite and positive, got {self.temperature_K!r}")
        if not math.isfinite(self.log10_sigma):
            raise DataError(f"log10 conductivity must be finite, got {self.log10_sigma!r}")


def composition_error(weights, molality) -> str | None:
    """Why weight fractions and a salt molality are not a mixture's, or None:
    each is a number (is_number), every fraction lies in [0, 1], they sum
    to 1 within 1e-6, and the molality is finite and >= 0."""
    if not all(is_number(w) for w in weights):
        return f"weight fractions must be numbers, got {weights!r}"
    if not is_number(molality):
        return f"molality must be a number, got {molality!r}"
    if not all(0 <= w <= 1 for w in weights):
        return f"weight fractions must lie in [0, 1], got {weights}"
    total = sum(weights)
    if abs(total - 1.0) > 1e-6:
        return f"weight fractions sum to {total!r}, expected 1"
    if math.isfinite(molality) and molality >= 0:
        return None
    return f"molality must be finite and >= 0, got {molality}"


def is_number(value) -> bool:
    """An int, float or numpy number, but not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def check_integer(name: str, value, least: int) -> None:
    """ValueError unless `value` is an int or numpy integer, not a bool,
    and >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
class MixtureRecord:
    mixture_id: str
    solvent_smiles: list[str]
    weight_fractions: list[float]
    salt_smiles: str
    molality: float
    mol_weight_overrides: list[float | None] | None = None
    points: list[ConductivityPoint] = field(default_factory=list)
    target_298K: float | None = None

    def __post_init__(self):
        n = len(self.solvent_smiles)
        if not 1 <= n <= MAX_SOLVENT_SLOTS:
            raise DataError(f"a mixture needs 1-{MAX_SOLVENT_SLOTS} solvents, got {n}")
        if len(self.weight_fractions) != n:
            raise DataError(
                f"{n} solvents but {len(self.weight_fractions)} weight fractions"
            )
        error = composition_error(self.weight_fractions, self.molality)
        if error is not None:
            raise DataError(error)
        overrides = self.mol_weight_overrides
        if overrides is not None and len(overrides) != n:
            raise DataError("mol_weight_overrides count does not match solvent count")
        if overrides and not all(m is None or (math.isfinite(m) and m > 0) for m in overrides):
            raise DataError(f"molecular weights must be finite and positive, got {overrides}")


@dataclass
class ArrheniusFit:
    slope_k: float  # K (log10 units); activation energy = -k * R * ln(10)
    intercept_b: float  # log10 of the infinite-temperature conductivity
    n_points: int
    r_squared: float


def _line_fits(x: np.ndarray, y: np.ndarray, segment: np.ndarray, n: int):
    """Each of `n` segments' ordinary least-squares slope and intercept of
    y against x, where segment[i] names the segment of point i. Every sum
    is a `np.bincount` (sequential in point order), not a BLAS call."""
    count = np.bincount(segment, minlength=n)
    x_mean = np.bincount(segment, x, n) / count
    y_mean = np.bincount(segment, y, n) / count
    dx = x - x_mean[segment]
    dy = y - y_mean[segment]
    slope = np.bincount(segment, dx * dy, n) / np.bincount(segment, dx * dx, n)
    return slope, y_mean - slope * x_mean


def _check_fit(points: list[ConductivityPoint]) -> None:
    temps = {p.temperature_K for p in points}
    if len(temps) < 2:
        raise FitError(f"need at least 2 distinct temperatures, got {sorted(temps)}")


def arrhenius_fit(points: list[ConductivityPoint]) -> ArrheniusFit:
    """Ordinary least squares of log10(sigma) against 1/T."""
    _check_fit(points)
    x = np.array([1.0 / p.temperature_K for p in points])
    y = np.array([p.log10_sigma for p in points])
    slopes, intercepts = _line_fits(x, y, np.zeros(len(points), dtype=np.intp), 1)
    slope, intercept = float(slopes[0]), float(intercepts[0])

    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals * residuals))
    dy = y - y.mean()
    ss_tot = float(np.sum(dy * dy))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return ArrheniusFit(slope, intercept, len(points), r_squared)


def _targets_298K(records: list[MixtureRecord]) -> list[float]:
    """Each record's 298 K value from its points, in order: the nearest
    point within 0.5 K of 298 K, else the Arrhenius extrapolation. All
    fits run in one `_line_fits` call; the first record with neither
    raises TargetError."""
    targets: list[float | None] = []
    fitted: list[int] = []  # index in targets of each fitted record
    x: list[float] = []
    y: list[float] = []
    segment: list[int] = []
    for record in records:
        near = [
            p
            for p in record.points
            if abs(p.temperature_K - TARGET_TEMPERATURE_K) <= TEMPERATURE_MATCH_TOLERANCE_K
        ]
        if near:
            nearest = min(near, key=lambda p: abs(p.temperature_K - TARGET_TEMPERATURE_K))
            targets.append(nearest.log10_sigma)
            continue
        try:
            _check_fit(record.points)
        except FitError as exc:
            raise TargetError(
                f"mixture {record.mixture_id!r}: no 298 K point and no usable fit ({exc})"
            ) from exc
        for p in record.points:
            x.append(1.0 / p.temperature_K)
            y.append(p.log10_sigma)
            segment.append(len(fitted))
        fitted.append(len(targets))
        targets.append(None)
    if fitted:
        slope, intercept = _line_fits(
            np.array(x), np.array(y), np.array(segment, dtype=np.intp), len(fitted)
        )
        for i, target in zip(fitted, (slope / TARGET_TEMPERATURE_K + intercept).tolist()):
            targets[i] = target
    return targets


def conductivity_at_298K(record: MixtureRecord) -> float:
    """Measured-at-298 K value when present, else the Arrhenius extrapolation
    (the same bits `attach_targets` gives the record)."""
    return _targets_298K([record])[0]


def attach_targets(records: list[MixtureRecord]) -> list[MixtureRecord]:
    """The records with target_298K filled: a record that has a target is
    returned as it is, every other one as a shallow copy carrying
    conductivity_at_298K. The inputs are not changed, and the copies are
    not validated again. All fits run in one pass; the first record
    without a 298 K point or a usable fit raises TargetError."""
    targets = iter(_targets_298K([r for r in records if r.target_298K is None]))
    out = []
    for record in records:
        if record.target_298K is None:
            record = copy.copy(record)
            record.target_298K = next(targets)
        out.append(record)
    return out


def prepared_records(records: list[MixtureRecord]) -> list[MixtureRecord]:
    """Shallow copies of the records with one point, at 298 K, carrying the
    inferred target; the inputs are not changed."""
    out = []
    for record in attach_targets(records):
        prepared = copy.copy(record)
        prepared.points = [ConductivityPoint(TARGET_TEMPERATURE_K, record.target_298K)]
        out.append(prepared)
    return out


_SLOT_COLUMNS = tuple(
    (f"solvent_smiles_{i}", f"weight_frac_{i}", f"mol_weight_{i}")
    for i in range(1, MAX_SOLVENT_SLOTS + 1)
)


def _parse_row(row: list[str], col: dict[str, int], line: int) -> tuple[str, dict]:
    def numeric(column: str) -> float:
        raw = row[col[column]].strip()
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"line {line}: non-numeric {column}={raw!r}") from None

    solvents: list[str] = []
    weights: list[float] = []
    overrides: list[float | None] = []
    for smiles_column, weight_column, mass_column in _SLOT_COLUMNS:
        smiles = row[col[smiles_column]].strip()
        if not smiles:
            continue
        solvents.append(smiles)
        weights.append(numeric(weight_column))
        overrides.append(numeric(mass_column) if row[col[mass_column]].strip() else None)
    if not solvents:
        raise DataError(f"line {line}: no solvent SMILES")
    if all(o is None for o in overrides):
        overrides = None

    mixture_id = row[col["mixture_id"]].strip()
    if not mixture_id:
        raise DataError(f"line {line}: blank mixture_id")
    fields = dict(
        solvent_smiles=solvents,
        weight_fractions=weights,
        mol_weight_overrides=overrides,
        salt_smiles=row[col["salt_smiles"]].strip(),
        molality=numeric("molality_mol_per_kg"),
    )
    point = ConductivityPoint(numeric("temperature_K"), numeric("log10_conductivity_S_per_cm"))
    return mixture_id, {"fields": fields, "point": point}


def _rows(reader, path: str):
    """The rows of a `csv.reader` of the file at `path`. A row the reader
    cannot split (a field over the csv module's size limit, as from a
    stray quote that opens a cell) ends the read with a DataError naming
    the file and the line where the reader stopped."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def load_dataset(path: str, strict: bool = True) -> list[MixtureRecord]:
    """Read and validate records, merging rows that share a mixture_id.

    Cells are read by header position; when a column name repeats, its
    last column wins, and a short row reads its missing cells as blank.
    Blank rows, and blank cells beyond the header, are skipped; a row with
    any other cell beyond the header is a bad row. In strict mode the first
    bad row aborts with a DataError naming the physical line it starts on;
    in lenient mode bad rows are skipped and reported via logging. A file
    the csv reader cannot split into rows is a DataError in both modes.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        header = next(rows, None)
        if header is None:
            logger.warning("dataset %s is empty", path)
            return []
        col = {name: i for i, name in enumerate(header)}
        missing = [c for c in CSV_COLUMNS if c not in col]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")

        width = len(header)
        grouped: dict[str, dict] = {}
        next_line = reader.line_num + 1
        for row in rows:
            # a quoted cell may span lines, so a row starts where the last one ended
            line, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            try:
                if len(row) > width and any(cell.strip() for cell in row[width:]):
                    raise DataError(f"line {line}: cells beyond the header: {row[width:]!r}")
                mixture_id, parsed = _parse_row(row, col, line)
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


def read_json(path: str):
    """The JSON document in the file at `path` (UTF-8, BOM allowed). A
    document nested too deeply for the parser is a DataError naming the
    file; any other malformed document raises json.JSONDecodeError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DataError(f"{path}: JSON nested too deeply to read") from None


def _format(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_dataset(records: list[MixtureRecord], path: str) -> None:
    """Serialize records to the CSV schema, one row per temperature point.

    A record with neither points nor a target_298K would write no row, so
    it is refused before the file is opened.
    """
    for record in records:
        if not record.points and record.target_298K is None:
            raise DataError(
                f"mixture {record.mixture_id!r} has no temperature points and no target_298K"
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            slots = [""] * MAX_SOLVENT_SLOTS
            weights = [""] * MAX_SOLVENT_SLOTS
            masses = [""] * MAX_SOLVENT_SLOTS
            for i, smiles in enumerate(record.solvent_smiles):
                slots[i] = smiles
                weights[i] = _format(record.weight_fractions[i])
                if record.mol_weight_overrides is not None:
                    masses[i] = _format(record.mol_weight_overrides[i])
            points = record.points
            if not points and record.target_298K is not None:
                points = [ConductivityPoint(TARGET_TEMPERATURE_K, record.target_298K)]
            for point in points:
                writer.writerow(
                    [record.mixture_id]
                    + slots
                    + weights
                    + masses
                    + [
                        record.salt_smiles,
                        _format(record.molality),
                        _format(point.temperature_K),
                        _format(point.log10_sigma),
                    ]
                )


def split_dataset(
    records: list[MixtureRecord],
    ratios: tuple[float, float, float] = (3, 1, 1),
    seed: int = 0,
) -> tuple[list[MixtureRecord], list[MixtureRecord], list[MixtureRecord]]:
    """Seeded shuffle, then contiguous partition at rounded ratio boundaries."""
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError(f"ratios must be finite and positive, got {ratios}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    shuffled = [records[i] for i in order]
    total = sum(ratios)
    n = len(records)
    first = round(n * ratios[0] / total)
    second = round(n * (ratios[0] + ratios[1]) / total)
    return shuffled[:first], shuffled[first:second], shuffled[second:]


# Synthetic corpus: a fixed pool of typical electrolyte constituents
# (ether and aromatic solvents, one ionic-liquid pair, lithium salts).
SYNTHETIC_SOLVENTS = (
    "C1CCOC1",
    "COCOC",
    "COCCOC",
    "C1=CC=CC=C1",
    "CC1=CC=CC=C1",
    "C1CC1",
    "CC1CCCO1",
    "FC(F)(C1=NC(C#N)=C([N-]1)C#N)F.CCCCN2C=C[N+](C)=C2",
    "CCO",
    "COC",
)
SYNTHETIC_SALTS = (
    "F[P-](F)(F)(F)(F)F.[Li+]",
    "F[B-](F)(F)F.[Li+]",
    "[Li+].[Cl-]",
)

SYNTHETIC_SLOPE_K = -800.0  # shared temperature slope of generated mixtures
SYNTHETIC_POINT_TEMPS = (280.0, 320.0)


def _solvent_term(smiles: str) -> float:
    graph = build_graph(smiles)
    oxygen_fraction = float(graph.node_features[:, 3].sum()) / graph.n_nodes
    return 1.5 * oxygen_fraction - 0.3 * (graph.log_mol_weight - 1.8)


def _salt_term(smiles: str) -> float:
    return 0.05 * build_graph(smiles).n_nodes


def _target(solvent_terms: list[float], weights: list[float], salt_term: float, molality: float) -> float:
    mix_term = 0.0
    for term, w in zip(solvent_terms, weights):
        mix_term += w * term
    return -2.2 + mix_term + salt_term + 0.9 * molality - 0.3 * molality**2


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
    terms = [_solvent_term(smiles) for smiles in solvent_smiles]
    return _target(terms, weights, _salt_term(salt_smiles), molality)


def generate_synthetic(n: int, seed: int = 0, noise_scale: float = 0.0) -> list[MixtureRecord]:
    """Sample n mixtures with exactly reproducible targets.

    For each record: 1-3 solvents drawn without replacement from
    SYNTHETIC_SOLVENTS, weights uniform(0.2, 1) normalized to sum 1, one
    salt from SYNTHETIC_SALTS, molality uniform(0.5, 2). The target is
    synthetic_ground_truth plus Gaussian noise of the given scale, and
    each record carries two temperature points on the line with slope
    SYNTHETIC_SLOPE_K through (298 K, target). Each pool molecule is
    parsed once per call, the first time it is drawn.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (math.isfinite(noise_scale) and noise_scale >= 0):
        raise ValueError(f"noise_scale must be finite and non-negative, got {noise_scale}")
    rng = np.random.default_rng(seed)
    solvent_terms: dict[str, float] = {}
    salt_terms: dict[str, float] = {}
    records = []
    for i in range(n):
        size = int(rng.integers(1, 4))
        idx = rng.choice(len(SYNTHETIC_SOLVENTS), size=size, replace=False)
        solvents = [SYNTHETIC_SOLVENTS[j] for j in idx]
        raw = rng.uniform(0.2, 1.0, size=size)
        weights = [float(w) for w in raw / raw.sum()]
        salt = SYNTHETIC_SALTS[int(rng.integers(len(SYNTHETIC_SALTS)))]
        molality = float(rng.uniform(0.5, 2.0))

        for smiles in solvents:
            if smiles not in solvent_terms:
                solvent_terms[smiles] = _solvent_term(smiles)
        if salt not in salt_terms:
            salt_terms[salt] = _salt_term(salt)
        terms = [solvent_terms[smiles] for smiles in solvents]
        target = _target(terms, weights, salt_terms[salt], molality)
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
