import logging
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molsets.data import (
    ConductivityPoint,
    DataError,
    FitError,
    MixtureRecord,
    TargetError,
    arrhenius_fit,
    attach_targets,
    conductivity_at_298K,
    generate_synthetic,
    load_dataset,
    prepared_records,
    split_dataset,
    synthetic_ground_truth,
    write_dataset,
)


def _record(points, **overrides):
    fields = dict(
        mixture_id="m1",
        solvent_smiles=["C1CCOC1"],
        weight_fractions=[1.0],
        salt_smiles="F[P-](F)(F)(F)(F)F.[Li+]",
        molality=1.0,
        points=points,
    )
    fields.update(overrides)
    return MixtureRecord(**fields)


def test_two_point_fit_closed_form():
    fit = arrhenius_fit([ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)])
    assert fit.slope_k == pytest.approx(-1500.0, abs=1e-10)
    assert fit.intercept_b == pytest.approx(3.0, abs=1e-10)
    assert fit.n_points == 2


def test_constant_conductivity_fit():
    points = [ConductivityPoint(t, -2.5) for t in (250.0, 300.0, 350.0)]
    fit = arrhenius_fit(points)
    assert fit.slope_k == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept_b == pytest.approx(-2.5, abs=1e-12)
    assert fit.r_squared == 1.0


def test_collinear_points_r_squared():
    points = [ConductivityPoint(t, -1000.0 / t + 1.0) for t in (250.0, 300.0, 350.0)]
    fit = arrhenius_fit(points)
    assert abs(fit.r_squared - 1.0) <= 1e-12


def test_two_point_fit_reproduces_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t1, t2 = rng.uniform(200, 400, 2)
        if abs(t1 - t2) < 1.0:
            continue
        y1, y2 = rng.uniform(-6, 0, 2)
        fit = arrhenius_fit([ConductivityPoint(t1, y1), ConductivityPoint(t2, y2)])
        assert abs(fit.slope_k / t1 + fit.intercept_b - y1) <= 1e-12 * max(1, abs(y1))
        assert abs(fit.slope_k / t2 + fit.intercept_b - y2) <= 1e-12 * max(1, abs(y2))


def test_fit_needs_two_distinct_temperatures():
    with pytest.raises(FitError):
        arrhenius_fit([ConductivityPoint(300.0, -2.0), ConductivityPoint(300.0, -2.1)])


def test_target_from_fit():
    r = _record([ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)])
    assert conductivity_at_298K(r) == pytest.approx(-1500.0 / 298.0 + 3.0, abs=1e-12)


def test_measured_298_takes_precedence():
    r = _record(
        [
            ConductivityPoint(300.0, -2.0),
            ConductivityPoint(250.0, -3.0),
            ConductivityPoint(298.0, -2.5),
        ]
    )
    assert conductivity_at_298K(r) == -2.5


def test_nearest_in_tolerance_wins():
    r = _record([ConductivityPoint(298.4, -2.4), ConductivityPoint(297.9, -2.1)])
    assert conductivity_at_298K(r) == -2.1


def test_single_off_temperature_point_fails():
    with pytest.raises(TargetError):
        conductivity_at_298K(_record([ConductivityPoint(310.0, -2.0)]))


def test_target_monotone_in_intercept():
    base = [ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)]
    raised = [ConductivityPoint(p.temperature_K, p.log10_sigma + 0.5) for p in base]
    assert conductivity_at_298K(_record(raised)) > conductivity_at_298K(_record(base))


HEADER = (
    "mixture_id,solvent_smiles_1,solvent_smiles_2,solvent_smiles_3,solvent_smiles_4,"
    "weight_frac_1,weight_frac_2,weight_frac_3,weight_frac_4,"
    "mol_weight_1,mol_weight_2,mol_weight_3,mol_weight_4,"
    "salt_smiles,molality_mol_per_kg,temperature_K,log10_conductivity_S_per_cm"
)


def _write_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return str(path)


def test_load_merges_rows_by_mixture_id(tmp_path):
    rows = [
        'm1,C1CCOC1,COCOC,,,0.5,0.5,,,,,,,F[P-](F)(F)(F)(F)F.[Li+],1.0,300.0,-2.0',
        'm1,C1CCOC1,COCOC,,,0.5,0.5,,,,,,,F[P-](F)(F)(F)(F)F.[Li+],1.0,250.0,-3.0',
    ]
    records = load_dataset(_write_csv(tmp_path, rows))
    assert len(records) == 1
    assert len(records[0].points) == 2
    assert records[0].solvent_smiles == ["C1CCOC1", "COCOC"]


def test_load_rejects_bad_weights_with_line(tmp_path):
    rows = ['m1,C1CCOC1,COCOC,,,0.5,0.6,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0']
    with pytest.raises(DataError) as err:
        load_dataset(_write_csv(tmp_path, rows))
    assert "line 2" in str(err.value)


def test_load_rejects_weights_outside_unit_interval_with_line(tmp_path, caplog):
    rows = [
        'm1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm2,C1CCOC1,COCOC,,,1.5,-0.5,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0',
    ]
    path = _write_csv(tmp_path, rows)
    with pytest.raises(DataError, match=r"line 3: .*\[0, 1\]"):
        load_dataset(path)
    with caplog.at_level(logging.WARNING):
        records = load_dataset(path, strict=False)
    assert [r.mixture_id for r in records] == ["m1"]
    assert any("skipping" in m and "line 3" in m for m in caplog.messages)


def test_load_lenient_skips_bad_rows(tmp_path, caplog):
    rows = [
        'm1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm2,C1CCOC1,,,,not_a_number,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm3,C1CCOC1,,,,1.0,,,,heavy,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm4,C1CCOC1,,,,1.0,,,,nan,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm5,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,inf',
    ]
    with caplog.at_level(logging.WARNING):
        records = load_dataset(_write_csv(tmp_path, rows), strict=False)
    assert [r.mixture_id for r in records] == ["m1"]
    assert any("skipping" in m for m in caplog.messages)


def test_load_empty_file_warns(tmp_path, caplog):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert load_dataset(str(path)) == []
    assert any("empty" in m for m in caplog.messages)


def test_load_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mixture_id,temperature_K\nm1,300\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dataset(str(path))
    assert "missing columns" in str(err.value)


def test_load_detects_disagreeing_rows(tmp_path):
    rows = [
        'm1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0',
        'm1,COCOC,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,250.0,-3.0',
    ]
    with pytest.raises(DataError) as err:
        load_dataset(_write_csv(tmp_path, rows))
    assert "disagree" in str(err.value)


def test_write_then_load_is_idempotent(tmp_path):
    records = generate_synthetic(20, seed=1)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_dataset(records, str(first))
    loaded_once = load_dataset(str(first))
    write_dataset(loaded_once, str(second))
    assert load_dataset(str(second)) == loaded_once
    assert first.read_bytes() == second.read_bytes()


SMILES_POOL = ["C1CCOC1", "COCOC", "CC#N", "[Li+].[Cl-]", "F[P-](F)(F)(F)(F)F.[Li+]", "O=C(OC)OC"]
_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _csv_records(draw):
    """Records in the domain the CSV holds: distinct ids, 1-4 solvents,
    at least one temperature point, overrides absent or with at least one
    value (an all-blank override row loads as None), no target."""
    ids = st.from_regex(r"[A-Za-z0-9_\-]{1,8}", fullmatch=True)
    records = []
    for mixture_id in draw(st.lists(ids, unique=True, max_size=5)):
        n = draw(st.integers(1, 4))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        weights = [w / sum(raw) for w in raw]
        overrides = None
        if draw(st.booleans()):
            overrides = draw(st.lists(st.none() | _positive, min_size=n, max_size=n))
            if all(o is None for o in overrides):
                overrides[0] = draw(_positive)
        points = draw(
            st.lists(st.builds(ConductivityPoint, _positive, _finite), min_size=1, max_size=3)
        )
        records.append(
            MixtureRecord(
                mixture_id=mixture_id,
                solvent_smiles=draw(st.lists(st.sampled_from(SMILES_POOL), min_size=n, max_size=n)),
                weight_fractions=weights,
                salt_smiles=draw(st.sampled_from(SMILES_POOL)),
                molality=draw(st.floats(0.0, 10.0)),
                mol_weight_overrides=overrides,
                points=points,
            )
        )
    return records


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(records=_csv_records())
def test_write_then_load_returns_equal_records(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        write_dataset(records, path)
        assert load_dataset(path) == records


def test_prepared_records_single_point_at_298(tmp_path):
    records = generate_synthetic(5, seed=2)
    prepared = prepared_records(records)
    for raw, prep in zip(records, prepared):
        assert len(prep.points) == 1
        assert prep.points[0].temperature_K == 298.0
        assert prep.points[0].log10_sigma == raw.target_298K
    # prepared output survives a CSV round trip with targets intact
    path = tmp_path / "prep.csv"
    write_dataset(prepared, str(path))
    for rec, raw in zip(attach_targets(load_dataset(str(path))), records):
        assert rec.target_298K == raw.target_298K


def test_split_sizes():
    records = generate_synthetic(5, seed=3)
    parts = split_dataset(records, (3, 1, 1), seed=0)
    assert [len(p) for p in parts] == [3, 1, 1]
    records = generate_synthetic(100, seed=4)
    parts = split_dataset(records, (3, 1, 1), seed=0)
    assert [len(p) for p in parts] == [60, 20, 20]


def test_split_deterministic_and_partitioning():
    records = generate_synthetic(23, seed=5)
    for seed in range(5):
        a = split_dataset(records, (3, 1, 1), seed=seed)
        b = split_dataset(records, (3, 1, 1), seed=seed)
        assert [[r.mixture_id for r in part] for part in a] == [
            [r.mixture_id for r in part] for part in b
        ]
        ids = [r.mixture_id for part in a for r in part]
        assert sorted(ids) == sorted(r.mixture_id for r in records)
        assert len(set(ids)) == len(ids)


def test_split_rejects_non_positive_ratios():
    records = generate_synthetic(5, seed=3)
    for ratios in [(3, 0, 1), (-1, 1, 1), (math.nan, 1, 1), (math.inf, 1, 1), (1, 1, -math.inf)]:
        with pytest.raises(ValueError, match="ratios must be"):
            split_dataset(records, ratios)


def test_synthetic_same_seed_identical():
    assert generate_synthetic(30, seed=6) == generate_synthetic(30, seed=6)
    assert generate_synthetic(30, seed=6) != generate_synthetic(30, seed=7)


def test_synthetic_noiseless_targets_equal_ground_truth():
    for record in generate_synthetic(25, seed=8):
        truth = synthetic_ground_truth(
            record.solvent_smiles,
            record.weight_fractions,
            record.salt_smiles,
            record.molality,
        )
        assert record.target_298K == truth


@pytest.mark.parametrize("noise", [-0.1, -math.inf, math.nan, math.inf])
def test_synthetic_rejects_negative_or_non_finite_noise(noise):
    with pytest.raises(ValueError, match="noise_scale"):
        generate_synthetic(3, seed=9, noise_scale=noise)


def test_synthetic_noise_perturbs_targets():
    clean = generate_synthetic(10, seed=9)
    noisy = generate_synthetic(10, seed=9, noise_scale=0.1)
    assert any(a.target_298K != b.target_298K for a, b in zip(clean, noisy))


def test_synthetic_ground_truth_permutation_invariant():
    rng = np.random.default_rng(10)
    for record in generate_synthetic(15, seed=11):
        if len(record.solvent_smiles) < 2:
            continue
        perm = rng.permutation(len(record.solvent_smiles))
        shuffled = synthetic_ground_truth(
            [record.solvent_smiles[i] for i in perm],
            [record.weight_fractions[i] for i in perm],
            record.salt_smiles,
            record.molality,
        )
        assert shuffled == pytest.approx(record.target_298K, abs=1e-12)


def test_synthetic_points_recover_target_through_fit():
    for record in generate_synthetic(10, seed=12):
        stripped = MixtureRecord(
            mixture_id=record.mixture_id,
            solvent_smiles=record.solvent_smiles,
            weight_fractions=record.weight_fractions,
            salt_smiles=record.salt_smiles,
            molality=record.molality,
            points=record.points,
        )
        assert conductivity_at_298K(stripped) == pytest.approx(record.target_298K, abs=1e-10)


def test_record_validation():
    with pytest.raises(DataError):
        MixtureRecord("x", [], [], "[Li+].[Cl-]", 1.0)
    with pytest.raises(DataError):
        MixtureRecord("x", ["C"], [0.9], "[Li+].[Cl-]", 1.0)
    with pytest.raises(DataError):
        MixtureRecord("x", ["C"], [1.0], "[Li+].[Cl-]", -2.0)
    with pytest.raises(DataError):
        MixtureRecord("x", ["C", "CC"], [float("nan"), 0.5], "[Li+].[Cl-]", 1.0)
    with pytest.raises(DataError):
        MixtureRecord("x", ["C"], [1.0], "[Li+].[Cl-]", float("nan"))
    with pytest.raises(DataError):
        MixtureRecord("x", ["C"], [1.0], "[Li+].[Cl-]", float("inf"))
    with pytest.raises(DataError):
        ConductivityPoint(-5.0, -2.0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DataError):
            ConductivityPoint(300.0, bad)
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(DataError):
            MixtureRecord("x", ["C", "CC"], [0.5, 0.5], "[Li+].[Cl-]", 1.0, [None, bad])
    MixtureRecord("x", ["C", "CC"], [0.5, 0.5], "[Li+].[Cl-]", 1.0, [None, 250.0])
