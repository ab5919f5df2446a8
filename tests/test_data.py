import copy
import csv
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_data
from molsets.chem import build_graph
from molsets.data import (
    CSV_COLUMNS,
    ConductivityPoint,
    DataError,
    FitError,
    MixtureRecord,
    TargetError,
    arrhenius_fit,
    attach_targets,
    composition_error,
    conductivity_at_298K,
    generate_synthetic,
    load_dataset,
    prepared_records,
    split_dataset,
    synthetic_ground_truth,
    write_dataset,
)
from molsets.model import GraphStore, MixtureInput, mixture_from_record
from molsets.screening import CandidateSpec


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


def test_load_refuses_cells_beyond_the_header(tmp_path, caplog):
    good = "m1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0"
    path = _write_csv(tmp_path, [good + ", ,", "m2" + good[2:] + ",,stray"])
    with pytest.raises(DataError, match=r"^line 3: cells beyond the header: \['', 'stray'\]$"):
        load_dataset(path)
    with caplog.at_level(logging.WARNING):
        records = load_dataset(path, strict=False)
    assert [r.mixture_id for r in records] == ["m1"]  # blank cells beyond the header are ignored
    assert caplog.messages == ["skipping row: line 3: cells beyond the header: ['', 'stray']"]


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


def test_a_dataset_saved_with_a_byte_order_mark_loads_the_same_records(tmp_path):
    plain = tmp_path / "plain.csv"
    write_dataset(generate_synthetic(8, seed=2), str(plain))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_dataset(str(marked)) == load_dataset(str(plain))


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


def test_synthetic_rejects_an_empty_corpus():
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        generate_synthetic(0)


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


@pytest.mark.parametrize(
    "weights, molality, message",
    [
        ((0.7, 0.7), 1.0, "weight fractions sum to 1.4, expected 1"),
        ((1.2, -0.2), 1.0, "weight fractions must lie in [0, 1], got [1.2, -0.2]"),
        ((float("nan"), 0.5), 1.0, "weight fractions must lie in [0, 1], got [nan, 0.5]"),
        ((0.5, 0.5), -0.5, "molality must be finite and >= 0, got -0.5"),
        ((0.5, 0.5), float("nan"), "molality must be finite and >= 0, got nan"),
        ((0.5, 0.5), float("inf"), "molality must be finite and >= 0, got inf"),
        (("half", "half"), 1.0, "weight fractions must be numbers, got ['half', 'half']"),
        ((0.5, 0.5), "one", "molality must be a number, got 'one'"),
        ((True, False), 1.0, "weight fractions must be numbers, got [True, False]"),
        ((0.5, 0.5), True, "molality must be a number, got True"),
    ],
    ids=["sum-1.4", "out-of-range", "nan-weight", "negative-molality", "nan-molality", "inf-molality",
         "text-weights", "text-molality", "bool-weights", "bool-molality"],
)
def test_one_composition_rule_for_records_inputs_and_candidates(weights, molality, message):
    solvents, salt = ["C1CCOC1", "COCOC"], "[Li+].[Cl-]"
    assert composition_error(list(weights), molality) == message
    with pytest.raises(DataError) as record:
        MixtureRecord("m1", solvents, list(weights), salt, molality)
    graphs = [(build_graph(smiles), w) for smiles, w in zip(solvents, weights)]
    with pytest.raises(ValueError) as mix:
        MixtureInput(graphs, build_graph(salt), molality)
    with pytest.raises(ValueError) as candidate:
        CandidateSpec(*solvents, salt, weights=weights, molality=molality)
    assert type(mix.value) is ValueError and type(candidate.value) is ValueError
    prefix = "candidate C1CCOC1 | COCOC | [Li+].[Cl-]: "
    assert str(candidate.value).startswith(prefix)
    assert {str(record.value), str(mix.value), str(candidate.value)[len(prefix):]} == {message}


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
    with pytest.raises(DataError, match="2 solvents but 1 weight fractions"):
        MixtureRecord("x", ["C", "CC"], [1.0], "[Li+].[Cl-]", 1.0)
    with pytest.raises(DataError, match="mol_weight_overrides count"):
        MixtureRecord("x", ["C", "CC"], [0.5, 0.5], "[Li+].[Cl-]", 1.0, [None])
    with pytest.raises(DataError):
        ConductivityPoint(-5.0, -2.0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DataError):
            ConductivityPoint(300.0, bad)
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(DataError):
            MixtureRecord("x", ["C", "CC"], [0.5, 0.5], "[Li+].[Cl-]", 1.0, [None, bad])
    MixtureRecord("x", ["C", "CC"], [0.5, 0.5], "[Li+].[Cl-]", 1.0, [None, 250.0])


GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "synthetic_corpus.json"


def corpus_digests(n, seed, noise, path):
    """sha256 of the corpus repr, of its CSV bytes written to path, and of
    the repr of the 298 K targets inferred back from that CSV."""
    records = generate_synthetic(n, seed=seed, noise_scale=noise)
    write_dataset(records, str(path))
    targets = [r.target_298K for r in attach_targets(load_dataset(str(path)))]
    return {
        "records_sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
        "csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "targets_sha256": hashlib.sha256(repr(targets).encode()).hexdigest(),
    }


@pytest.mark.parametrize("n, seed, noise", [(1, 0, 0.0), (40, 11, 0.0), (500, 0, 0.05), (500, 500, 0.05)])
def test_synthetic_corpus_matches_golden(n, seed, noise, tmp_path):
    golden = json.loads(GOLDEN_CORPUS.read_text())
    assert corpus_digests(n, seed, noise, tmp_path / "corpus.csv") == golden[f"{n}/{seed}/{noise!r}"], (
        "the synthetic corpus, its CSV bytes or its inferred targets changed; the golden pins the "
        "numpy kernels of the machine that wrote it, so on another machine a last-bit difference "
        "in a sum or a fit also fails here"
    )


def test_corpus_golden_holds_on_other_blas_kernels():
    """The 500-mixture corpus digests equal the golden when OpenBLAS runs
    its Haswell (AVX2) or Prescott (SSE3) kernels, set in the child
    process's environment only: no BLAS call reaches the 298 K targets."""
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    child = (
        "import json, sys, tempfile, pathlib\n"
        f"sys.path[:0] = [{str(src)!r}, {str(tests)!r}]\n"
        "from test_data import corpus_digests\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = pathlib.Path(tmp) / 'corpus.csv'\n"
        "    print(json.dumps({f'{n}/{seed}/{noise!r}': corpus_digests(n, seed, noise, path)\n"
        "                      for n, seed, noise in [(500, 0, 0.05), (500, 500, 0.05)]}))\n"
    )
    golden = json.loads(GOLDEN_CORPUS.read_text())
    for coretype in ("Haswell", "Prescott"):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
        done = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        digests = json.loads(done.stdout.splitlines()[-1])
        for key, digest in digests.items():
            assert digest == golden[key], f"{key} under OPENBLAS_CORETYPE={coretype}"


def _ulps(a: float, b: float) -> int:
    """The number of float64 steps from a to b (0 when they are equal)."""

    def ordered(v):
        i = int(np.float64(v).view(np.int64))
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def _error_or(call, *args):
    try:
        return call(*args)
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def _target_outcome(attach, records):
    return _error_or(lambda: [r.target_298K for r in attach(records)])


def _assert_targets_near_frozen(records):
    ours = _target_outcome(attach_targets, records)
    theirs = _target_outcome(frozen_data.attach_targets, records)
    if isinstance(theirs, str):
        assert ours == theirs
        return
    assert len(ours) == len(theirs)
    worst = max(_ulps(a, b) for a, b in zip(ours, theirs))
    assert worst <= 8, f"a target moved {worst} ulp from the np.dot fit"


@pytest.mark.parametrize("n, seed, noise", [(1, 0, 0.0), (40, 11, 0.0), (500, 0, 0.05), (500, 500, 0.05)])
def test_targets_equal_frozen_fit_on_golden_corpora(n, seed, noise, tmp_path):
    """On the golden corpora, read back from their CSV as the golden does,
    every target is within 8 ulp of the former per-record np.dot fit."""
    path = tmp_path / "corpus.csv"
    write_dataset(generate_synthetic(n, seed=seed, noise_scale=noise), str(path))
    _assert_targets_near_frozen(load_dataset(str(path)))


def _hand_records():
    """Records of 3 and 5 points, one with a point within 0.5 K of 298 K,
    one that already has a target, and two whose points do not fit."""
    P = ConductivityPoint
    return {
        "three": _record([P(250.0, -3.1), P(300.0, -2.0), P(340.0, -1.7)], mixture_id="three"),
        "five": _record(
            [P(t, -900.0 / t + 0.37 + 0.01 * k) for k, t in enumerate((253.0, 271.5, 310.0, 333.3, 365.0))],
            mixture_id="five",
        ),
        "near": _record([P(250.0, -3.0), P(298.3, -2.2), P(320.0, -1.9)], mixture_id="near"),
        "has_target": _record([P(250.0, -3.0), P(320.0, -1.9)], mixture_id="has_target", target_298K=-2.25),
        "one_point": _record([P(310.0, -2.0)], mixture_id="one_point"),
        "one_temperature": _record([P(305.0, -2.0), P(305.0, -2.2)], mixture_id="one_temperature"),
    }


@pytest.mark.parametrize(
    "names",
    [
        ("three", "five", "near", "has_target"),
        ("three",),
        ("five", "has_target"),
        ("three", "one_point", "five", "one_temperature"),
        ("one_temperature", "one_point"),
        ("near", "one_point"),
    ],
)
def test_targets_equal_frozen_fit_on_hand_records(names):
    """Hand-written records give targets within 8 ulp of the former fit,
    and a record that cannot be fitted raises the same error type and
    message, from attach_targets and from conductivity_at_298K."""
    hand = _hand_records()
    records = [hand[name] for name in names]
    _assert_targets_near_frozen(records)
    for record in records:
        ours = _error_or(conductivity_at_298K, record)
        theirs = _error_or(frozen_data.conductivity_at_298K, record)
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert _ulps(ours, theirs) <= 8


def test_arrhenius_fit_equals_frozen_fit():
    hand = _hand_records()
    for name in ("three", "five", "near", "has_target"):
        ours, theirs = arrhenius_fit(hand[name].points), frozen_data.arrhenius_fit(hand[name].points)
        assert _ulps(ours.slope_k, theirs.slope_k) <= 8 and _ulps(ours.intercept_b, theirs.intercept_b) <= 8
        assert ours.n_points == theirs.n_points
        assert ours.r_squared == pytest.approx(theirs.r_squared, abs=1e-12)
    for name in ("one_point", "one_temperature"):
        with pytest.raises(FitError) as ours:
            arrhenius_fit(hand[name].points)
        with pytest.raises(FitError) as theirs:
            frozen_data.arrhenius_fit(hand[name].points)
        assert str(ours.value) == str(theirs.value)


def test_attach_targets_equals_conductivity_at_298K_bit_for_bit(tmp_path):
    """A record's target is the same float whether it is fitted alone or
    in one pass with the others."""
    path = tmp_path / "corpus.csv"
    write_dataset(generate_synthetic(500, seed=0, noise_scale=0.05), str(path))
    hand = _hand_records()
    records = load_dataset(str(path)) + [hand[name] for name in ("three", "five", "near")]
    attached = attach_targets(records)
    for i, record in enumerate(records):
        assert attached[i].target_298K == conductivity_at_298K(record)


def test_each_record_is_checked_once(tmp_path):
    """load_dataset -> attach_targets -> mixture_from_record checks each
    record's composition once, and attach_targets and prepared_records
    leave their inputs as they were."""
    n = 25
    path = tmp_path / "corpus.csv"
    write_dataset(generate_synthetic(n, seed=9), str(path))
    calls = []

    def counted(weights, molality):
        calls.append(1)
        return composition_error(weights, molality)

    store = GraphStore()
    with mock.patch("molsets.data.composition_error", counted), mock.patch(
        "molsets.model.composition_error", counted
    ):
        records = load_dataset(str(path))
        mixtures = [mixture_from_record(r, store) for r in attach_targets(records)]
    assert len(mixtures) == n
    assert len(calls) == n

    for record, mixture in zip(records, mixtures):
        assert mixture == MixtureInput(
            solvents=[(store.get(s), w) for s, w in zip(record.solvent_smiles, record.weight_fractions)],
            salt=store.get(record.salt_smiles),
            molality=record.molality,
        )
    before = copy.deepcopy(records)
    attached = attach_targets(records)
    prepared = prepared_records(records)
    assert records == before and all(r.target_298K is None for r in records)
    assert all(a is not r for a, r in zip(attached, records))
    assert all(p is not r and len(p.points) == 1 for p, r in zip(prepared, records))


@pytest.mark.parametrize("n, seed, noise", [(1, 3, 0.0), (7, 4, 0.2), (60, 5, 0.05)])
def test_synthetic_corpus_equals_frozen(n, seed, noise):
    records = generate_synthetic(n, seed=seed, noise_scale=noise)
    assert records == frozen_data.generate_synthetic(n, seed=seed, noise_scale=noise)
    for r in records:
        args = (r.solvent_smiles, r.weight_fractions, r.salt_smiles, r.molality)
        assert synthetic_ground_truth(*args) == frozen_data.synthetic_ground_truth(*args)


@contextmanager
def _warnings_of(name):
    """Collect the messages of the named logger's records while open."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger(name)
    log.addHandler(handler)
    try:
        yield messages
    finally:
        log.removeHandler(handler)


def _outcome(load, path, strict):
    try:
        return load(path, strict=strict)
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


_BAD_CELLS = ["", " ", "abc", "nan", "inf", "-1", "1.5", "0"]


@st.composite
def _row_cells(draw):
    """Cells of one row by column name: a valid row, its fields drawn from
    a small pool so that rows of one mixture_id often disagree, with one
    cell replaced by a bad one a third of the time."""
    n = draw(st.integers(1, 2))
    weights = ["1.0"] if n == 1 else draw(st.sampled_from([["0.5", "0.5"], ["0.25", "0.75"]]))
    cells = {
        "mixture_id": draw(st.sampled_from(["m1", "m2", " m1 ", "m3"])),
        "salt_smiles": draw(st.sampled_from(["[Li+].[Cl-]", "F[B-](F)(F)F.[Li+]"])),
        "molality_mol_per_kg": draw(st.sampled_from(["1.0", "0.5"])),
        "temperature_K": draw(st.sampled_from(["300.0", "250.0"])),
        "log10_conductivity_S_per_cm": draw(st.sampled_from(["-2.0", "-3.0"])),
    }
    for i in range(1, 5):
        cells[f"solvent_smiles_{i}"] = draw(st.sampled_from(["C1CCOC1", "CCO"])) if i <= n else ""
        cells[f"weight_frac_{i}"] = weights[i - 1] if i <= n else ""
        cells[f"mol_weight_{i}"] = draw(st.sampled_from(["", "72.1"])) if i <= n else ""
    if draw(st.integers(0, 2)) == 2:
        cells[draw(st.sampled_from(CSV_COLUMNS))] = draw(st.sampled_from(_BAD_CELLS))
    return cells


@st.composite
def _messy_csv(draw):
    """CSV text with no blank line: a permuted header that may repeat, add
    or drop a column, and rows with bad numbers, blank ids, short or long
    rows and rows that disagree with an earlier row of their mixture_id."""
    header = draw(st.permutations(CSV_COLUMNS))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(CSV_COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    if draw(st.integers(0, 9)) == 9:
        header.remove(draw(st.sampled_from(CSV_COLUMNS)))
    last = {name: i for i, name in enumerate(header)}
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = draw(_row_cells())
        # a repeated column's earlier cells are shadowed by its last one
        row = [
            cells.get(name, "n") if last[name] == i else draw(st.sampled_from(_BAD_CELLS))
            for i, name in enumerate(header)
        ]
        shape = draw(st.integers(0, 5))
        if shape == 4:
            row = row[: draw(st.integers(1, len(row)))]
        elif shape == 5:
            row.append("extra")
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerows([header] + rows)
    return buf.getvalue()


def _refusing_long_rows(parse_row):
    """The frozen row parser, refusing first a row with a non-blank cell
    beyond the header, as load_dataset does; the frozen reader loaded such
    a row silently. DictReader files those cells under the key None."""

    def parse(row, line):
        extra = row.get(None, [])
        if any(cell.strip() for cell in extra):
            raise DataError(f"line {line}: cells beyond the header: {extra!r}")
        return parse_row(row, line)

    return parse


# The frozen reader numbers records, not lines, so the two agree only on
# files with no blank line and no quoted line break; those cases have
# tests of their own below.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_messy_csv())
def test_load_dataset_equals_frozen_reader(text):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        frozen_data, "_parse_row", _refusing_long_rows(frozen_data._parse_row)
    ):
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(load_dataset, path, True) == _outcome(frozen_data.load_dataset, path, True)
        with _warnings_of("molsets.data") as ours, _warnings_of("frozen_data") as theirs:
            lenient = _outcome(load_dataset, path, False)
            assert lenient == _outcome(frozen_data.load_dataset, path, False)
        assert ours == theirs


def test_load_errors_name_the_physical_line(tmp_path):
    good = "m1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0"
    bad = "m2,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,hot,-2.0"
    path = tmp_path / "blank.csv"
    path.write_text("\n".join([HEADER, good, "", "", bad]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^line 5: non-numeric temperature_K='hot'$"):
        load_dataset(str(path))
    # a quoted SMILES spanning two lines: the row starts on line 2, the bad one on 4
    spanning = 'm1,"C1CC\nOC1",,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0'
    path = tmp_path / "quoted.csv"
    path.write_text("\n".join([HEADER, spanning, bad]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^line 4: non-numeric temperature_K='hot'$"):
        load_dataset(str(path))
    rows = [HEADER, bad.replace("hot", "300.0"), spanning.replace("m1", "m2")]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^line 3: mixture 'm2' fields disagree with line 2$"):
        load_dataset(str(path))


def test_load_reads_short_rows_and_the_last_repeated_column(tmp_path):
    header = HEADER + ",mixture_id"
    path = tmp_path / "data.csv"
    path.write_text(
        "\n".join([header, "x,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,300.0,-2.0,m1", "m9,CCO"]) + "\n",
        encoding="utf-8",
    )
    records = load_dataset(str(path), strict=False)
    assert [r.mixture_id for r in records] == ["m1"]
    with pytest.raises(DataError, match=r"^line 3: non-numeric weight_frac_1=''$"):
        load_dataset(str(path))


def test_write_dataset_refuses_a_record_with_no_rows(tmp_path):
    path = tmp_path / "out.csv"
    records = generate_synthetic(3, seed=1)
    records[1] = _record([], mixture_id="empty")
    with pytest.raises(DataError, match=r"mixture 'empty' has no temperature points and no target_298K"):
        write_dataset(records, str(path))
    assert not path.exists()
    write_dataset([_record([], mixture_id="t", target_298K=-2.0)], str(path))
    assert [r.points for r in load_dataset(str(path))] == [[ConductivityPoint(298.0, -2.0)]]


@pytest.mark.parametrize("n, seed", [(1, 0), (3, 2), (500, 0)])
def test_generate_synthetic_parses_each_pool_molecule_once(n, seed, monkeypatch):
    from molsets import data as data_mod

    calls = []
    real = data_mod.build_graph

    def counting(smiles):
        calls.append(smiles)
        return real(smiles)

    monkeypatch.setattr(data_mod, "build_graph", counting)
    records = generate_synthetic(n, seed=seed)
    drawn = {s for r in records for s in r.solvent_smiles} | {r.salt_smiles for r in records}
    assert sorted(calls) == sorted(drawn)
