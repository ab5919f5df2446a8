import pytest

from molsets import model as model_mod
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
