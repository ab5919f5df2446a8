import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from molsets import model as model_mod
from molsets import screening as screening_mod
from molsets.autodiff import Tensor
from molsets.data import MixtureRecord
from molsets.chem import SmilesParseError, build_graph
from molsets.model import (
    GraphStore,
    MixtureInput,
    ModelConfig,
    build_model,
    forward,
    mixture_from_record,
)
from molsets.screening import (
    CandidateSpec,
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


def test_enumeration_is_canonically_ordered():
    cands = enumerate_binary_candidates(["c", "a", "b"], ["t", "s"])
    keys = [c.sort_key() for c in cands]
    assert keys == sorted(keys)


def _micro_params(seed=0):
    return build_model(ModelConfig.for_conv("graphconv", seed=seed, **MICRO))


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

    monkeypatch.setattr(model_mod, "build_graph", counted_build_graph)
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
    for _ in range(2):  # a remembered failure raises the same type and message
        with pytest.raises(SmilesParseError) as again:
            store.get(bad)
        assert str(again.value) == str(err.value)
    assert calls.count(bad) == 2  # once for the screen, once for this store


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
    assert len(parsed) > 2 * screening_mod._CHUNK  # at least three chunks

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
    cands = enumerate_binary_candidates(CHUNK_SOLVENTS, CHUNK_SALTS)
    poisoned = [700, 1100, 40 + 2 * screening_mod._CHUNK]  # chunks 2 and 3, not in order
    for i in poisoned:
        cands[i] = replace(cands[i], molality=2.5)
    real_forward_batch = screening_mod.forward_batch

    def poisoning_forward_batch(params, mixes, cache=None):
        values = real_forward_batch(params, mixes, cache).data.copy()
        values[[mix.molality == 2.5 for mix in mixes]] = np.nan
        return Tensor(values)

    monkeypatch.setattr(screening_mod, "forward_batch", poisoning_forward_batch)
    first = cands[min(poisoned)]
    with pytest.raises(ScreeningError, match="non-finite") as err:
        run_screening(_micro_params(7), cands)
    assert str(err.value).endswith(f"{first.solvent_a} | {first.solvent_b} | {first.salt}")
