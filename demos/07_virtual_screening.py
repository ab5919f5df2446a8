"""Combinatorial screening of equal-weight binary electrolyte candidates.

Every unordered solvent pair is combined with every salt at 1 mol/kg,
predicted in one pass (each molecule embedded once, reused across all
candidates), and ranked by predicted log10 conductivity.
"""

import time

from molsets import ModelConfig, TrainConfig, build_model, train
from molsets.data import generate_synthetic
from molsets.model import GraphStore, mixture_from_record
from molsets.screening import enumerate_binary_candidates, run_screening

SOLVENTS = ["C1CCOC1", "COCOC", "COCCOC", "C1=CC=CC=C1", "CC1=CC=CC=C1", "C1CC1", "CC1CCCO1", "CCO"]
SALTS = ["F[P-](F)(F)(F)(F)F.[Li+]", "F[B-](F)(F)F.[Li+]", "[Li+].[Cl-]"]

print("=== Fit a quick model on the synthetic corpus ===")
store = GraphStore()
corpus = [(mixture_from_record(r, store), r.target_298K) for r in generate_synthetic(200, seed=3)]
params = build_model(ModelConfig.for_conv("graphconv", seed=0))
best, history = train(params, corpus[:160], corpus[160:], TrainConfig(seed=0, max_epochs=80))
print(f"trained for {len(history)} epochs")

print()
print("=== Enumerate and rank ===")
start = time.perf_counter()
candidates = enumerate_binary_candidates(SOLVENTS, SALTS)
enumerate_s = time.perf_counter() - start
n_pairs = len(SOLVENTS) * (len(SOLVENTS) - 1) // 2
print(f"{len(SOLVENTS)} solvents x {len(SALTS)} salts -> {n_pairs} pairs x {len(SALTS)} = {len(candidates)} candidates")

start = time.perf_counter()
results, skipped = run_screening(best, candidates)
screen_s = time.perf_counter() - start
print(f"enumerated in {enumerate_s * 1e3:.2f} ms, screened in {screen_s * 1e3:.2f} ms ({len(skipped)} skipped)")

print("\ntop 5 predicted mixtures:")
for res in results[:5]:
    c = res.candidate
    print(f"  {c.solvent_a:14s} + {c.solvent_b:14s} | {c.salt:28s} -> {res.predicted_log10_sigma:+.4f}")

print("\nbottom 3:")
for res in results[-3:]:
    c = res.candidate
    print(f"  {c.solvent_a:14s} + {c.solvent_b:14s} | {c.salt:28s} -> {res.predicted_log10_sigma:+.4f}")

print("\ncompare the top mixture against its pure constituents:")
top = results[0].candidate
from molsets.model import MixtureInput, forward  # noqa: E402

for smiles in (top.solvent_a, top.solvent_b):
    single = MixtureInput([(store.get(smiles), 1.0)], store.get(top.salt), 1.0)
    print(f"  pure {smiles:14s} -> {float(forward(best, single).data[0]):+.4f}")
print(f"  50/50 mixture        -> {results[0].predicted_log10_sigma:+.4f}")
