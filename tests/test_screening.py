import csv
import hashlib
import json
import logging
import math
import pickle
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frozen_screening
from molsets import model as model_mod
from molsets import screening as screening_mod
from molsets.autodiff import Tensor
from molsets.data import MixtureRecord
from molsets.chem import FeaturizationError, SmilesParseError, build_graph
from molsets.model import (
    VARIANTS,
    GraphStore,
    MixtureInput,
    ModelConfig,
    build_model,
    forward,
    mixture_from_record,
)
from molsets.screening import (
    CandidateSpec,
    CandidateTable,
    ScreeningError,
    enumerate_binary_candidates,
    permute_mixture,
    run_screening,
    write_screening_csv,
)

MICRO = dict(num_layers=2, hidden_dim=4, representation_dim=6, attention_dim=3)


def test_candidate_pair_is_unordered():
    assert CandidateSpec("B", "A", "S") == CandidateSpec("A", "B", "S")
    spec = CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]")
    assert spec.solvent_a == "C1CCOC1"
    assert spec.weights == (0.5, 0.5)
    assert spec.molality == 1.0


def test_candidate_rejects_self_pair():
    with pytest.raises(ValueError):
        CandidateSpec("C", "C", "S")


@pytest.mark.parametrize(
    "fields",
    [
        dict(weights=(0.7, 0.7)),
        dict(weights=(1.2, -0.2)),
        dict(weights=(float("nan"), 0.5)),
        dict(weights=(0.5,)),
        dict(weights=(0.2, 0.3, 0.5)),
        dict(weights=("half", "half")),
        dict(molality=-0.5),
        dict(molality=float("nan")),
        dict(molality=float("inf")),
    ],
    ids=["sum-1.4", "out-of-range", "nan-weight", "one-weight", "three-weights", "text-weights",
         "negative-molality", "nan-molality", "inf-molality"],
)
def test_candidate_rejects_bad_weights_and_molality(fields):
    with pytest.raises(ValueError, match=r"candidate C1CCOC1 \| COCOC \| \[Li\+\]\.\[Cl-\]"):
        CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]", **fields)


def test_candidate_accepts_weights_within_rounding():
    spec = CandidateSpec("A", "B", "S", weights=[0.1, 0.9000000001], molality=0)
    assert spec.weights == (0.1, 0.9000000001) and spec.molality == 0.0
    assert hash(spec) == hash(CandidateSpec("A", "B", "S", (0.1, 0.9000000001), 0.0))


def test_candidate_weights_follow_their_solvents():
    spec = CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]", weights=(0.3, 0.7))
    assert (spec.solvent_a, spec.solvent_b, spec.weights) == ("C1CCOC1", "COCOC", (0.7, 0.3))
    assert spec == CandidateSpec("C1CCOC1", "COCOC", "[Li+].[Cl-]", weights=(0.7, 0.3))
    assert spec != CandidateSpec("C1CCOC1", "COCOC", "[Li+].[Cl-]", weights=(0.3, 0.7))


@pytest.mark.parametrize("variant", ["molsets", "wsum"])
def test_screening_custom_weights_follow_their_solvents(variant):
    params = build_model(ModelConfig.for_conv("graphconv", variant=variant, seed=12, **MICRO))
    spec = CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]", weights=(0.3, 0.7))
    [result], skipped = run_screening(params, [spec])
    mix = MixtureInput(
        [(build_graph("COCOC"), 0.3), (build_graph("C1CCOC1"), 0.7)], build_graph("[Li+].[Cl-]"), 1.0
    )
    assert not skipped
    assert abs(result.predicted_log10_sigma - float(forward(params, mix).data[0])) <= 1e-12


def test_enumeration_examples():
    assert len(enumerate_binary_candidates(["a", "b", "c"], ["s", "t"])) == 6
    assert len(enumerate_binary_candidates(["a", "b"], ["s"])) == 1
    assert len(enumerate_binary_candidates([f"s{i}" for i in range(28)], [f"x{i}" for i in range(30)])) == 11340


def test_enumeration_validation():
    with pytest.raises(ValueError):
        enumerate_binary_candidates(["a", "a", "b"], ["s"])
    with pytest.raises(ValueError):
        enumerate_binary_candidates(["a"], ["s"])
    with pytest.raises(ValueError):
        enumerate_binary_candidates(["a", "b"], [])


def test_enumeration_count_formula_full_grid():
    solvents = [f"s{i:02d}" for i in range(30)]
    salts = [f"x{i:02d}" for i in range(30)]
    for n in range(2, 31):
        for s in range(1, 31):
            count = len(enumerate_binary_candidates(solvents[:n], salts[:s]))
            assert count == n * (n - 1) // 2 * s


def test_enumeration_checks_one_spec(monkeypatch):
    calls = []
    post_init = CandidateSpec.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(CandidateSpec, "__post_init__", counting)
    table = enumerate_binary_candidates([f"s{i}" for i in range(28)], [f"x{i}" for i in range(30)])
    assert len(table) == 11340
    assert len(calls) <= 1


def test_enumeration_is_canonically_ordered():
    cands = enumerate_binary_candidates(["c", "a", "b"], ["t", "s"])
    keys = [c.sort_key() for c in cands]
    assert keys == sorted(keys)


def _micro_params(seed=0, variant="molsets"):
    return build_model(ModelConfig.for_conv("graphconv", variant=variant, seed=seed, **MICRO))


def test_screening_ranks_descending_and_reruns_identically(tmp_path):
    params = _micro_params(1)
    cands = enumerate_binary_candidates(
        ["C1CCOC1", "COCOC", "CCO", "C1CC1"], ["[Li+].[Cl-]", "F[B-](F)(F)F.[Li+]"]
    )
    results, skipped = run_screening(params, cands)
    assert not skipped
    assert len(results) == 12
    values = [r.predicted_log10_sigma for r in results]
    assert values == sorted(values, reverse=True)

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_screening_csv(results, str(first))
    write_screening_csv(run_screening(params, cands)[0], str(second))
    assert first.read_bytes() == second.read_bytes()


def test_screening_csv_keeps_the_weights(tmp_path):
    weightings = [(0.3, 0.7), (0.5, 0.5), (0.9, 0.1)]
    cands = [CandidateSpec("C1CCOC1", "COCOC", "[Li+].[Cl-]", weights=w) for w in weightings]
    results, _ = run_screening(_micro_params(3), cands)
    path = tmp_path / "ranked.csv"
    write_screening_csv(results, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len({tuple(row.values()) for row in rows}) == 3
    written = {(float(row["weight_1"]), float(row["weight_2"])) for row in rows}
    assert written == set(weightings)
    for row, res in zip(rows, results):
        assert (float(row["weight_1"]), float(row["weight_2"])) == res.candidate.weights
        assert float(row["predicted_log10_conductivity"]) == res.predicted_log10_sigma


def test_screening_cache_transparency():
    params = _micro_params(2)
    cands = enumerate_binary_candidates(["C1CCOC1", "COCOC", "CCO"], ["[Li+].[Cl-]"])
    results, _ = run_screening(params, cands)
    assert len(results) == len(cands)
    for res in results:
        c = res.candidate
        mix = MixtureInput(
            [(build_graph(c.solvent_a), c.weights[0]), (build_graph(c.solvent_b), c.weights[1])],
            build_graph(c.salt),
            c.molality,
        )
        uncached = float(forward(params, mix).data[0])
        assert abs(res.predicted_log10_sigma - uncached) <= 1e-12


def test_screening_skips_unparseable_candidates():
    params = _micro_params(3)
    cands = enumerate_binary_candidates(["C1CCOC1", "COCOC", "NotSmiles!"], ["[Li+].[Cl-]"])
    results, skipped = run_screening(params, cands)
    assert len(results) == 1
    assert len(skipped) == 2
    assert all("skipped" in line for line in skipped)


def test_screening_singleton_candidate():
    params = _micro_params(4)
    results, skipped = run_screening(params, [CandidateSpec("C1CCOC1", "COCOC", "[Li+].[Cl-]")])
    assert len(results) == 1 and not skipped


def _multi_record():
    return MixtureRecord(
        mixture_id="m",
        solvent_smiles=["C1CCOC1", "COCOC", "CCO"],
        weight_fractions=[0.2, 0.3, 0.5],
        mol_weight_overrides=[None, 250.0, None],
        salt_smiles="[Li+].[Cl-]",
        molality=1.0,
        points=[],
        target_298K=-2.0,
    )


def test_permute_mixture_two_solvents_is_the_swap():
    record = MixtureRecord(
        mixture_id="m",
        solvent_smiles=["C1CC1", "COCOC"],
        weight_fractions=[0.4, 0.6],
        salt_smiles="[Li+].[Cl-]",
        molality=1.0,
    )
    permuted = permute_mixture(record, seed=0)
    assert permuted.solvent_smiles == ["COCOC", "C1CC1"]
    assert permuted.weight_fractions == [0.6, 0.4]


def test_permute_mixture_alignment_and_target():
    record = _multi_record()
    permuted = permute_mixture(record, seed=5)
    assert permuted.solvent_smiles != record.solvent_smiles
    pairs = set(zip(record.solvent_smiles, record.weight_fractions))
    assert set(zip(permuted.solvent_smiles, permuted.weight_fractions)) == pairs
    moved = dict(zip(record.solvent_smiles, record.mol_weight_overrides))
    assert [moved[s] for s in permuted.solvent_smiles] == permuted.mol_weight_overrides
    assert permuted.target_298K == record.target_298K
    assert permuted.points == record.points


def test_permute_mixture_rejects_single_solvent():
    record = MixtureRecord("m", ["C1CC1"], [1.0], "[Li+].[Cl-]", 1.0)
    with pytest.raises(ValueError):
        permute_mixture(record, seed=0)


def test_permute_mixture_is_seed_deterministic():
    record = _multi_record()
    assert permute_mixture(record, seed=3) == permute_mixture(record, seed=3)


def test_permutation_effect_by_variant():
    record = _multi_record()
    store = GraphStore()
    base = mixture_from_record(record, store)
    permuted = mixture_from_record(permute_mixture(record, seed=1), store)

    invariant = build_model(ModelConfig.for_conv("graphconv", seed=5, **MICRO))
    diff = abs(
        float(forward(invariant, base).data[0]) - float(forward(invariant, permuted).data[0])
    )
    assert diff <= 1e-9

    hits = 0
    for seed in range(20):
        concat = build_model(
            ModelConfig.for_conv("graphconv", variant="concat", seed=200 + seed, **MICRO)
        )
        diff = abs(
            float(forward(concat, base).data[0]) - float(forward(concat, permuted).data[0])
        )
        if diff > 1e-6:
            hits += 1
    assert hits >= 18


def test_screening_parses_a_bad_smiles_once(monkeypatch):
    bad = "C1CC(C"
    with pytest.raises(SmilesParseError) as err:
        build_graph(bad)
    calls = []

    def counted_build_graph(smiles, mol_weight_override=None):
        calls.append(smiles)
        return build_graph(smiles, mol_weight_override)

    for module in (screening_mod, model_mod):  # the screen's parse, then GraphStore's
        monkeypatch.setattr(module, "build_graph", counted_build_graph)
    cands = enumerate_binary_candidates(["C1CCOC1", bad, "COCOC"], ["[Li+].[Cl-]", "[Na+].[Cl-]"])
    results, skipped = run_screening(_micro_params(5), cands)
    assert sorted(calls) == sorted(["C1CCOC1", bad, "COCOC", "[Li+].[Cl-]", "[Na+].[Cl-]"])
    assert len(results) == 2
    assert skipped == [
        f"skipped {c.solvent_a} | {c.solvent_b} | {c.salt}: {err.value}"
        for c in cands
        if bad in (c.solvent_a, c.solvent_b)
    ]

    store = GraphStore()
    for _ in range(2):  # each get parses again and raises the same type and message
        with pytest.raises(SmilesParseError) as again:
            store.get(bad)
        assert str(again.value) == str(err.value)
    assert calls.count(bad) == 3  # once for the screen, once per get of this store


CHUNK_SOLVENTS = [
    "C1CCOC1", "COCOC", "CCO", "CCCO", "CCOC(=O)OCC", "COC(=O)OC", "C1COC(=O)O1", "CC#N",
    "CCSC", "OCCO", "CCOCCOCC", "O=C1OCCC1", "CC(C)=O", "CCCC#N", "COCCOC",
]
CHUNK_SALTS = [
    "[Li+].[Cl-]", "[Na+].[Cl-]", "[K+].[Cl-]", "[Li+].[Br-]", "[Na+].[Br-]", "[K+].[Br-]",
    "[Li+].[I-]", "[Na+].[I-]", "[K+].[I-]", "F[B-](F)(F)F.[Li+]", "F[P-](F)(F)(F)(F)F.[Li+]",
]


def test_screening_in_chunks_matches_uncached_forward(caplog):
    bad = "CC(C"  # sorts among the valid solvents, so its candidates sit mid-list
    cands = enumerate_binary_candidates(CHUNK_SOLVENTS + [bad], CHUNK_SALTS)
    with pytest.raises(SmilesParseError) as err:
        build_graph(bad)
    bad_at = [i for i, c in enumerate(cands) if bad in (c.solvent_a, c.solvent_b)]
    assert 0 < bad_at[0] and bad_at[-1] < len(cands) - 1
    expected_skips = [
        f"skipped {cands[i].solvent_a} | {cands[i].solvent_b} | {cands[i].salt}: {err.value}"
        for i in bad_at
    ]
    parsed = [c for c in cands if bad not in (c.solvent_a, c.solvent_b)]
    assert len(parsed) > 2 * model_mod._CHUNK  # at least three head blocks

    params = _micro_params(6)
    caplog.set_level(logging.INFO, logger="molsets.screening")
    results, skipped = run_screening(params, cands)
    assert skipped == expected_skips
    [event] = [json.loads(r.getMessage()) for r in caplog.records if r.name == screening_mod.logger.name]
    assert event == {
        "event": "screening",
        "candidates": len(cands),
        "parsed": len(parsed),
        "skipped": len(expected_skips),
        "molecules_embedded": len(CHUNK_SOLVENTS) + len(CHUNK_SALTS),
        "solvent_sets": len(CHUNK_SOLVENTS) * (len(CHUNK_SOLVENTS) - 1) // 2,
    }
    store = GraphStore()
    uncached = {
        c: float(
            forward(
                params,
                MixtureInput(
                    [(store.get(c.solvent_a), c.weights[0]), (store.get(c.solvent_b), c.weights[1])],
                    store.get(c.salt),
                    c.molality,
                ),
            ).data[0]
        )
        for c in parsed
    }
    assert sorted(r.candidate.sort_key() for r in results) == [c.sort_key() for c in parsed]
    assert max(abs(r.predicted_log10_sigma - uncached[r.candidate]) for r in results) <= 1e-12


def test_screening_error_names_first_non_finite_candidate(monkeypatch):
    cands = list(enumerate_binary_candidates(CHUNK_SOLVENTS, CHUNK_SALTS))
    poisoned = [700, 1100, 40 + 2 * model_mod._CHUNK]  # head blocks 2 and 3, not in order
    for i in poisoned:
        cands[i] = replace(cands[i], molality=2.5)
    real_forward_columns = screening_mod.forward_columns

    def poisoning_forward_columns(params, batch):
        values = real_forward_columns(params, batch).data.copy()
        values[batch.molality == 2.5] = np.nan
        return Tensor(values)

    monkeypatch.setattr(screening_mod, "forward_columns", poisoning_forward_columns)
    first = cands[min(poisoned)]
    with pytest.raises(ScreeningError, match="non-finite") as err:
        run_screening(_micro_params(7), cands)
    assert str(err.value).endswith(f"{first.solvent_a} | {first.solvent_b} | {first.salt}")


def _reference_screen(params, candidates):
    """The per-candidate screen the columnar one replaced: a MixtureInput
    and an uncached forward per parsed candidate, then a sort on
    (-value, sort_key()). Returns (ranked (candidate, value) pairs, skip
    lines, JSON counts)."""
    store = GraphStore()
    scored, skipped, embedded, sets = [], [], set(), set()
    for cand in candidates:
        try:
            a, b, salt = store.get(cand.solvent_a), store.get(cand.solvent_b), store.get(cand.salt)
        except (SmilesParseError, FeaturizationError) as exc:
            skipped.append(f"skipped {cand.solvent_a} | {cand.solvent_b} | {cand.salt}: {exc}")
            continue
        mix = MixtureInput([(a, cand.weights[0]), (b, cand.weights[1])], salt, cand.molality)
        value = float(forward(params, mix).data[0])
        if not math.isfinite(value):
            raise ScreeningError(
                f"non-finite prediction for {cand.solvent_a} | {cand.solvent_b} | {cand.salt}"
            )
        scored.append((cand, value))
        embedded |= {(0, a), (0, b), (1, salt)}
        sets.add((cand.solvent_a, cand.solvent_b, cand.weights))
    counts = {
        "event": "screening",
        "candidates": len(candidates),
        "parsed": len(scored),
        "skipped": len(skipped),
        "molecules_embedded": len(embedded),
        "solvent_sets": len(sets),
    }
    return sorted(scored, key=lambda cv: (-cv[1], cv[0].sort_key())), skipped, counts


def _flat_params(variant):
    """A model whose last layer has zero weights: every prediction is an
    exact tie, so the ranking is the tie order alone."""
    params = _micro_params(30, variant)
    params.rho[-1].w.data[:] = 0.0
    return params


SCREEN_PARAMS = {
    (variant, flat): _flat_params(variant) if flat else _micro_params(30, variant)
    for variant in VARIANTS
    for flat in (False, True)
}
# The last solvent and the last salt do not parse.
POOL_SOLVENTS = ["C1CCOC1", "COCOC", "CCO", "C1CC1", "CC#N", "C1CC(C"]
POOL_SALTS = ["[Li+].[Cl-]", "F[B-](F)(F)F.[Li+]", "[Na+].[Br-]", "[Na+].[Q-]"]


@st.composite
def candidate_lists(draw, signed_zeros=False):
    pairs = st.lists(st.sampled_from(POOL_SOLVENTS), min_size=2, max_size=2, unique=True)
    weights = st.sampled_from([0.5, 0.25, 0.1, 0.0, 1.0]).map(lambda w: (w, 1.0 - w))
    if signed_zeros:  # -0.0 == 0.0, so these share a solvent set with (0.0, 1.0) and (1.0, 0.0)
        weights = st.one_of(weights, st.sampled_from([(-0.0, 1.0), (1.0, -0.0), (-0.0, 1)]))
    molality = st.sampled_from([1.0, 0.5, 2.0, 0.0])
    specs = st.builds(
        lambda pair, w, salt, m: CandidateSpec(pair[0], pair[1], salt, w, m),
        pairs, weights, st.sampled_from(POOL_SALTS), molality,
    )
    distinct = draw(st.lists(specs, min_size=1, max_size=8))
    # Repeat specs so that candidates share solvent sets and salts; a
    # repeat is the same object or an equal copy.
    repeat = st.sampled_from(distinct).flatmap(lambda c: st.sampled_from([c, replace(c)]))
    return draw(st.lists(repeat, min_size=1, max_size=24))


TIE_CASE = [
    CandidateSpec("C1CCOC1", "COCOC", "[Na+].[Br-]"),
    CandidateSpec("C1CCOC1", "CCO", "[Li+].[Cl-]"),
    CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]"),
]


@settings(max_examples=80, deadline=None)
@given(cands=candidate_lists(), variant=st.sampled_from(VARIANTS), flat=st.booleans())
@example(cands=TIE_CASE + [replace(TIE_CASE[0]), TIE_CASE[2]], variant="wsum", flat=True)
def test_columnar_screen_matches_per_candidate_reference(cands, variant, flat):
    params = SCREEN_PARAMS[(variant, flat)]
    expected, expected_skips, expected_counts = _reference_screen(params, cands)
    results, skipped, events, _ = _screen_logged(screening_mod, params, cands)
    assert skipped == expected_skips
    assert events == [expected_counts]
    keys = [(-r.predicted_log10_sigma, r.candidate.sort_key()) for r in results]
    assert keys == sorted(keys)
    if flat:  # ties rank by sort_key(), then in input order
        assert [id(r.candidate) for r in results] == [id(c) for c, _ in expected]

    def by_spec(pairs):
        return sorted(pairs, key=lambda cv: (cv[0].sort_key(), cv[0].weights, cv[0].molality))

    got = by_spec([(r.candidate, r.predicted_log10_sigma) for r in results])
    want = by_spec(expected)
    assert [c for c, _ in got] == [c for c, _ in want]
    assert all(abs(v - w) <= 1e-12 for (_, v), (_, w) in zip(got, want))


@pytest.mark.parametrize(
    "cands",
    [[], enumerate_binary_candidates(["C1CC(C", "CC(C"], ["[Li+].[Cl-]"]),
     [CandidateSpec("C1CCOC1", "COCOC", "[Li+]Q")]],
    ids=["empty", "no-solvent-parses", "salt-does-not-parse"],
)
def test_screening_without_parsed_candidates_runs_no_forward(cands, monkeypatch, caplog):
    def no_forward(params, batch):
        raise AssertionError("forward_columns called")

    monkeypatch.setattr(screening_mod, "forward_columns", no_forward)
    caplog.set_level(logging.INFO, logger="molsets.screening")
    results, skipped = run_screening(_micro_params(8), cands)
    assert results == [] and len(skipped) == len(cands)
    [event] = [json.loads(r.getMessage()) for r in caplog.records if r.name == screening_mod.logger.name]
    assert event == {
        "event": "screening",
        "candidates": len(cands),
        "parsed": 0,
        "skipped": len(cands),
        "molecules_embedded": 0,
        "solvent_sets": 0,
    }


GOLDEN_SCREEN = Path(__file__).resolve().parent / "golden" / "screen_micro.json"


def _ranking_digest(results) -> str:
    ranking = [(r.candidate.sort_key(), repr(r.predicted_log10_sigma)) for r in results]
    return hashlib.sha256(repr(ranking).encode()).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_screen_ranking_matches_golden(variant):
    golden = json.loads(GOLDEN_SCREEN.read_text())
    params = build_model(ModelConfig.for_conv("graphconv", variant=variant, seed=golden["seed"], **MICRO))
    results, skipped = run_screening(params, enumerate_binary_candidates(golden["solvents"], golden["salts"]))
    assert len(skipped) == golden["skipped"]
    assert _ranking_digest(results) == golden["ranking_sha256"][variant], (
        "the screen ranking changed; the golden pins the numpy and OpenBLAS kernels of the machine "
        "that wrote it, so on another machine a last-bit difference in a product also fails here"
    )


def test_candidate_table_is_a_read_only_sequence_of_specs():
    table = enumerate_binary_candidates(["c", "a", "b"], ["t", "s"])
    specs = list(table)
    assert len(table) == len(specs) == 6
    assert [table[i] for i in range(len(table))] == specs and table[-1] is specs[-1]
    with pytest.raises(TypeError):
        table[0] = specs[1]
    for column in (table.solvent_a, table.solvent_b, table.salt, table.weight_code, table.weight_pairs, table.molality):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    short = (table.solvent_a[:-1], table.solvent_b, table.salt, table.weight_code, table.weight_pairs, table.molality)
    with pytest.raises(ValueError, match="one entry for each of the 6 candidates"):
        CandidateTable._from_columns(specs, table.smiles, *short)


def test_candidate_table_holds_what_its_int64_keys_can():
    # 65,537 distinct SMILES and 32,768 weight pairs: n ** 3 * w is just
    # above 2 ** 63, but the keys need only n ** 3 and n ** 2 * w.
    specs = [
        CandidateSpec(f"C{i}", f"N{i}", "[Li+].[Cl-]", weights=(i / 2**15, 1 - i / 2**15)) for i in range(2**15)
    ]
    table = CandidateTable(specs)
    assert (len(table.smiles), len(table.weight_pairs)) == (2**16 + 1, 2**15)
    assert len(table.smiles) ** 3 * len(table.weight_pairs) >= 2**63
    _assert_columns_decode(table)


def test_candidate_table_of_specs_keeps_the_callers_objects():
    specs = [
        CandidateSpec("COCOC", "C1CCOC1", "[Li+].[Cl-]", weights=(0.3, 0.7)),
        CandidateSpec("CCO", "C1CCOC1", "[Na+].[Br-]", weights=(-0.0, 1.0), molality=2),
        CandidateSpec("CCO", "C1CCOC1", "[Li+].[Cl-]", weights=(0.0, 1.0)),
    ]
    table = CandidateTable(specs)
    assert all(got is spec for got, spec in zip(table, specs)) and len(table) == 3
    specs.pop()  # the table keeps its own sequence
    assert len(table) == 3
    _assert_columns_decode(table)
    assert table.weight_pairs.shape == (2, 2)  # -0.0 and 0.0 are one pair
    assert table.molality.dtype == np.float64


def _assert_columns_decode(table):
    """Each candidate's columns name its own spec's fields."""
    assert list(table.smiles) == sorted(set(table.smiles))
    for i, spec in enumerate(table):
        codes = (table.solvent_a[i], table.solvent_b[i], table.salt[i])
        assert tuple(table.smiles[c] for c in codes) == spec.sort_key()
        pair = table.weight_pairs[table.weight_code[i]]
        assert pair.tolist() == [float(w) for w in spec.weights]
        assert table.molality[i] == spec.molality


def _batch_fields(batch):
    """A MixtureBatch as comparable values: graphs by SMILES, arrays by
    dtype and the repr of each entry."""
    arrays = (batch.slot_graph, batch.slot_weight, batch.set_sizes, batch.set_of, batch.salt_of, batch.molality)
    return (
        [g.source_smiles for g in batch.solvent_graphs],
        [g.source_smiles for g in batch.salt_graphs],
        [(a.dtype, [repr(x) for x in a.tolist()]) for a in arrays],
    )


def _screen_logged(module, params, cands):
    """module.run_screening(params, cands) with the module's logger at INFO:
    (results, skip lines, events, the batches it passed to forward_columns)."""
    events, batches = [], []
    handler = logging.Handler()
    handler.emit = lambda record: events.append(json.loads(record.getMessage()))
    logger, real_forward = module.logger, module.forward_columns

    def recording_forward(params, batch):
        batches.append(_batch_fields(batch))
        return real_forward(params, batch)

    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    module.forward_columns = recording_forward
    try:
        results, skipped = module.run_screening(params, cands)
    finally:
        module.forward_columns = real_forward
        logger.setLevel(level)
        logger.removeHandler(handler)
    return results, skipped, events, batches


def _assert_same_screen(params, cands, frozen_cands):
    """The columnar screen of cands equals the frozen per-candidate screen of
    frozen_cands bit for bit: the same spec objects in the same order,
    the same values, skip lines and INFO event, and the same numbering of
    sets, solvents and salts in the batch."""
    want, want_skips, want_events, want_batches = _screen_logged(frozen_screening, params, frozen_cands)
    got, skips, events, batches = _screen_logged(screening_mod, params, cands)
    assert [id(r.candidate) for r in got] == [id(r.candidate) for r in want]
    assert [repr(r.predicted_log10_sigma) for r in got] == [repr(r.predicted_log10_sigma) for r in want]
    assert skips == want_skips
    assert events == want_events
    assert batches == want_batches


@settings(max_examples=120, deadline=None)
@given(cands=candidate_lists(signed_zeros=True), variant=st.sampled_from(VARIANTS), flat=st.booleans())
@example(
    cands=[  # the set's first candidate is skipped; its first kept one has weight 0.0
        CandidateSpec("COCOC", "CCO", "[Na+].[Q-]", (1.0, -0.0)),
        CandidateSpec("C1CC(C", "CCO", "[Li+].[Cl-]", (-0.0, 1.0)),
        CandidateSpec("COCOC", "CCO", "[Li+].[Cl-]", (1.0, 0.0), 0.5),
        CandidateSpec("COCOC", "CCO", "[Na+].[Br-]", (1.0, -0.0)),
    ],
    variant="wsum",
    flat=False,
)
def test_screen_matches_the_frozen_per_candidate_loop(cands, variant, flat):
    params = SCREEN_PARAMS[(variant, flat)]
    _assert_same_screen(params, cands, cands)
    table = CandidateTable(cands)
    _assert_columns_decode(table)
    _assert_same_screen(params, table, cands)


def _assert_like_constructed(spec):
    """spec cannot be told apart from the spec `CandidateSpec(...)` builds
    from its solvents and salt."""
    built = CandidateSpec(spec.solvent_a, spec.solvent_b, spec.salt)
    assert spec == built and hash(spec) == hash(built)
    assert vars(spec) == vars(built)
    assert [type(v) for v in vars(spec).values()] == [str, str, str, tuple, float]
    assert [type(w) for w in spec.weights] == [float, float]
    for copy in (replace(spec), pickle.loads(pickle.dumps(spec))):
        assert copy == spec and vars(copy) == vars(spec)
    assert repr(spec) == repr(built)
    assert spec.describe() == built.describe() and spec.sort_key() == built.sort_key()


def _outcome(enumerate_fn, solvents, salts):
    try:
        return enumerate_fn(solvents, salts), None
    except ValueError as exc:
        return None, repr(exc)


@settings(max_examples=60, deadline=None)
@given(
    solvents=st.lists(st.sampled_from(POOL_SOLVENTS + ["O=C1OCCO1"]), max_size=7),
    salts=st.lists(st.sampled_from(POOL_SALTS + ["CCO"]), max_size=5),
    variant=st.sampled_from(VARIANTS),
)
def test_enumerated_table_matches_the_frozen_enumeration(solvents, salts, variant):
    table, error = _outcome(enumerate_binary_candidates, solvents, salts)
    frozen, frozen_error = _outcome(frozen_screening.enumerate_binary_candidates, solvents, salts)
    assert error == frozen_error
    if error is None:
        assert [astuple(c) for c in table] == [astuple(c) for c in frozen]
        assert [type(w) for c in table for w in c.weights] == [type(w) for c in frozen for w in c.weights]
        for spec in table:
            _assert_like_constructed(spec)
        _assert_columns_decode(table)
        _assert_same_screen(SCREEN_PARAMS[(variant, False)], table, list(table))
