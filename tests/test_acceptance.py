"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import itertools
import time

import numpy as np

from molsets import autodiff as ad
from molsets.autodiff import Tape, Tensor
from molsets.chem import build_graph
from molsets.gnn import GraphTensors
from molsets.data import (
    ConductivityPoint,
    arrhenius_fit,
    conductivity_at_298K,
    generate_synthetic,
    MixtureRecord,
)
from molsets.model import (
    GraphStore,
    MixtureInput,
    ModelConfig,
    build_model,
    embed_unions,
    aggregate_mixture,
    forward,
    mixture_from_record,
    named_parameters,
    predict,
    save_checkpoint,
)
from molsets.screening import enumerate_binary_candidates, run_screening, write_screening_csv
from molsets.training import (
    TrainConfig,
    evaluate,
    pearson,
    spearman,
    train,
    write_history,
)

SOLVENT_POOL = [
    "C1CCOC1",
    "COCOC",
    "COCCOC",
    "C1=CC=CC=C1",
    "CC1=CC=CC=C1",
    "C1CC1",
    "CC1CCCO1",
    "CCO",
]
SALT_POOL = ["F[P-](F)(F)(F)(F)F.[Li+]", "F[B-](F)(F)F.[Li+]", "[Li+].[Cl-]"]

MICRO = dict(num_layers=2, hidden_dim=3, representation_dim=4, attention_dim=2, rho_hidden_dims=(3,))


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_mixture(rng, store, n_solvents):
    chosen = rng.choice(len(SOLVENT_POOL), size=n_solvents, replace=False)
    raw = rng.uniform(0.2, 1.0, size=n_solvents)
    weights = raw / raw.sum()
    solvents = [(store.get(SOLVENT_POOL[i]), float(w)) for i, w in zip(chosen, weights)]
    salt = store.get(SALT_POOL[int(rng.integers(len(SALT_POOL)))])
    return MixtureInput(solvents, salt, float(rng.uniform(0.2, 2.0)))


def test_criterion_01_permutation_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    store = GraphStore()
    worst = 0.0
    for trial in range(100):
        params = build_model(ModelConfig.for_conv("graphconv", seed=trial, **MICRO))
        mix = _random_mixture(rng, store, int(rng.integers(2, 5)))
        base = predict(params, mix)

        for perm in itertools.permutations(mix.solvents):
            out = predict(params, MixtureInput(list(perm), mix.salt, mix.molality))
            worst = max(worst, abs(out - base))

        # set-level invariance of the aggregation itself, unsorted inputs
        z = embed_unions(params.phi_solvent, [GraphTensors([g]) for g, _ in mix.solvents]).data
        w = np.array([w for _, w in mix.solvents])
        seg = np.zeros(len(w), dtype=int)
        z0 = aggregate_mixture(params.attention, Tensor(z), w, seg, 1).data
        z1 = aggregate_mixture(params.attention, Tensor(z[::-1]), w[::-1], seg, 1).data
        worst = max(worst, float(np.abs(z1 - z0).max()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 60,
        f"max |predict(X) - predict(pi(X))| = {worst:.3e} (<= 1e-9) in {elapsed:.1f}s",
    )


def test_criterion_02_concat_ablation_order_sensitivity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    store = GraphStore()
    hits = 0
    for trial in range(100):
        params = build_model(
            ModelConfig.for_conv("graphconv", variant="concat", seed=5000 + trial)
        )
        a, b = rng.choice(len(SOLVENT_POOL), size=2, replace=False)
        salt = store.get(SALT_POOL[int(rng.integers(len(SALT_POOL)))])
        fwd = forward(
            params,
            MixtureInput([(store.get(SOLVENT_POOL[a]), 0.5), (store.get(SOLVENT_POOL[b]), 0.5)], salt, 1.0),
        ).data[0]
        rev = forward(
            params,
            MixtureInput([(store.get(SOLVENT_POOL[b]), 0.5), (store.get(SOLVENT_POOL[a]), 0.5)], salt, 1.0),
        ).data[0]
        if abs(fwd - rev) > 1e-6:
            hits += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        hits >= 90 and elapsed < 60,
        f"solvent swap changed the concat prediction in {hits}/100 trials (>= 90) in {elapsed:.1f}s",
    )


def test_criterion_03_end_to_end_gradients():
    start = time.perf_counter()
    store = GraphStore()
    mix = MixtureInput(
        [(store.get("C1CCOC1"), 0.4), (store.get("COCOC"), 0.6)],
        store.get("F[P-](F)(F)(F)(F)F.[Li+]"),
        1.0,
    )
    worst = 0.0
    configs = [("graphconv", "molsets"), ("sageconv", "molsets"), ("gcnconv", "molsets"),
               ("gatconv", "molsets"), ("dmpnn", "molsets"),
               ("graphconv", "wsum"), ("graphconv", "concat")]
    for conv, variant in configs:
        params = build_model(ModelConfig.for_conv(conv, variant=variant, seed=31, **MICRO))
        tensors = [t for _, t in named_parameters(params)]
        target = Tensor([-2.0])

        def loss_fn():
            return ad.mse(forward(params, mix), target)

        with Tape() as tape:
            tape.watch(*tensors)
            loss = loss_fn()
        grads = ad.backward(tape, loss)
        fd = ad.finite_diff_gradient(lambda: loss_fn().item(), tensors)
        for name, t in named_parameters(params):
            denom = max(np.linalg.norm(fd[t]), np.linalg.norm(grads[t]), 1e-10)
            worst = max(worst, float(np.linalg.norm(grads[t] - fd[t]) / denom))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= 1e-4 and elapsed < 60,
        f"worst parameter-group gradient error vs finite differences = {worst:.3e} "
        f"(<= 1e-4) across {len(configs)} configurations in {elapsed:.1f}s",
    )


def test_criterion_04_arrhenius_oracle():
    fit = arrhenius_fit([ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)])
    # independent oracle: two-point interpolation in (1/T, log sigma) space
    x0, y0, x1, y1 = 1.0 / 300.0, -2.0, 1.0 / 250.0, -3.0
    expected_298 = y0 + (y1 - y0) * (1.0 / 298.0 - x0) / (x1 - x0)
    record = MixtureRecord(
        "a",
        ["C1CCOC1"],
        [1.0],
        "F[P-](F)(F)(F)(F)F.[Li+]",
        1.0,
        points=[ConductivityPoint(300.0, -2.0), ConductivityPoint(250.0, -3.0)],
    )
    extrapolated = conductivity_at_298K(record)
    ok = (
        abs(fit.slope_k + 1500.0) <= 1e-10
        and abs(fit.intercept_b - 3.0) <= 1e-10
        and abs(extrapolated - expected_298) <= 1e-10
    )
    _report(
        4,
        ok,
        f"k = {fit.slope_k}, b = {fit.intercept_b}, 298 K extrapolation = {extrapolated:.10f}",
    )


def test_criterion_05_enumeration_count():
    solvents = [f"solvent{i:02d}" for i in range(28)]
    salts = [f"salt{i:02d}" for i in range(30)]
    count = len(enumerate_binary_candidates(solvents, salts))
    _report(5, count == 11340, f"28 solvents x 30 salts -> {count} candidates (expected 11340)")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(1006)
    t = rng.normal(size=40)
    p = rng.normal(size=40)
    ok = (
        abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) <= 1e-12
        and abs(spearman([1, 2, 3], [10, 20, 15]) - 0.5) <= 1e-12
        and abs(pearson(t, 2.5 * p + 3.0) - pearson(t, p)) <= 1e-12
        and abs(spearman(t, np.exp(p)) - spearman(t, p)) <= 1e-12
    )
    _report(6, ok, "pearson/spearman oracles at 1e-12 plus affine/monotone invariance")


def test_criterion_07_synthetic_end_to_end_learning():
    start = time.perf_counter()
    store = GraphStore()
    corpus = [
        (mixture_from_record(r, store), r.target_298K)
        for r in generate_synthetic(500, seed=101)
    ]
    held_out = [
        (mixture_from_record(r, store), r.target_298K)
        for r in generate_synthetic(100, seed=202)
    ]
    params = build_model(ModelConfig.for_conv("graphconv", seed=0))
    best, history = train(params, corpus[:400], corpus[400:], TrainConfig(seed=0))
    report = evaluate(best, held_out)
    elapsed = time.perf_counter() - start
    _report(
        7,
        report.pearson_rp >= 0.9 and report.spearman_rs >= 0.9 and elapsed <= 600,
        f"held-out pearson = {report.pearson_rp:.3f}, spearman = {report.spearman_rs:.3f} "
        f"(>= 0.9 each) after {len(history)} epochs in {elapsed:.0f}s (<= 600s)",
    )


def test_criterion_08_smiles_corpus():
    corpus = {
        "C1=CC=CC=C1": (6, 6),
        "COCOC": (5, 4),
        "C1CC1": (3, 3),
        "FC(F)(C1=NC(C#N)=C([N-]1)C#N)F.CCCCN2C=C[N+](C)=C2": (23, 23),
        "COCCOC": (6, 5),
        "CC1=CC=CC=C1": (7, 7),
        "CC1CCCO1": (6, 6),
        "C1CCOC1": (5, 5),
        "F[P-](F)(F)(F)(F)F.[Li+]": (8, 6),
    }
    failures = []
    for smiles, (n_atoms, n_bonds) in corpus.items():
        graph = build_graph(smiles)
        if graph.n_nodes != n_atoms or len(graph.edge_order) != n_bonds:
            failures.append(smiles)
    _report(
        8,
        not failures,
        f"all {len(corpus)} corpus SMILES parse with hand-verified atom/bond counts",
    )


def test_criterion_09_determinism(tmp_path):
    outputs = []
    for run in range(2):
        store = GraphStore()
        examples = [
            (mixture_from_record(r, store), r.target_298K)
            for r in generate_synthetic(24, seed=77)
        ]
        params = build_model(ModelConfig.for_conv("graphconv", seed=9, **MICRO))
        best, history = train(
            params, examples[:18], examples[18:], TrainConfig(max_epochs=4, batch_size=6, seed=3)
        )
        ckpt = tmp_path / f"run{run}-model.json"
        hist = tmp_path / f"run{run}-history.csv"
        ranked = tmp_path / f"run{run}-ranked.csv"
        save_checkpoint(best, str(ckpt))
        write_history(history, str(hist))
        results, _ = run_screening(
            best, enumerate_binary_candidates(SOLVENT_POOL[:4], SALT_POOL[:2])
        )
        write_screening_csv(results, str(ranked))
        outputs.append((ckpt.read_bytes(), hist.read_bytes(), ranked.read_bytes()))
    ok = all(a == b for a, b in zip(outputs[0], outputs[1]))
    _report(9, ok, "identical seeds give bit-identical history, checkpoint, and screening CSV")


def test_criterion_10_screening_throughput():
    solvents = ["C" * i for i in range(1, 21)] + [
        "COC", "CCOC", "CCOCC", "COCCOC", "C1CCOC1", "CC1CCCO1", "C1CC1", "C1=CC=CC=C1",
    ]
    salts = ["[Li+]"] + [("C" * i) + "[Li+]" for i in range(1, 30)]
    candidates = enumerate_binary_candidates(solvents, salts)
    params = build_model(ModelConfig.for_conv("graphconv", seed=0))
    start = time.perf_counter()
    results, skipped = run_screening(params, candidates)
    elapsed = time.perf_counter() - start
    _report(
        10,
        len(results) == 11340 and not skipped and elapsed <= 60,
        f"screened {len(results)} candidates in {elapsed:.1f}s (<= 60s, single thread)",
    )
