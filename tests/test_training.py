import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from molsets import autodiff as ad
from molsets import model as model_mod
from molsets.autodiff import Tape, Tensor
from molsets.chem import NODE_FEATURE_DIM
from molsets.data import generate_synthetic
from molsets.model import (
    GraphStore,
    ModelConfig,
    build_model,
    forward,
    forward_batch,
    mixture_from_record,
    named_parameters,
)
from molsets.screening import enumerate_binary_candidates, run_screening
from molsets.training import (
    AdamW,
    MetricError,
    PlateauScheduler,
    TrainConfig,
    TrainingError,
    early_stopping,
    evaluate,
    mse_loss,
    pearson,
    spearman,
    train,
    write_history,
)

MICRO = dict(num_layers=2, hidden_dim=6, representation_dim=8, attention_dim=4)


def _examples(n, seed, store=None):
    store = store or GraphStore()
    return [
        (mixture_from_record(r, store), r.target_298K)
        for r in generate_synthetic(n, seed=seed)
    ]


def test_mse_examples():
    assert mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0
    assert mse_loss(Tensor([0.0]), Tensor([2.0])).item() == 4.0
    assert mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 0.0])).item() == 5.0


def test_mse_is_differentiable():
    preds = Tensor([1.0, 3.0])
    with Tape() as tape:
        tape.watch(preds)
        loss = mse_loss(preds, Tensor([0.0, 0.0]))
    grads = ad.backward(tape, loss)
    assert np.allclose(grads[preds], [1.0, 3.0])  # 2 * diff / n


def test_adamw_first_step_closed_form():
    theta = Tensor([1.0])
    opt = AdamW([theta], lr=0.001, weight_decay=1e-4)
    opt.step({theta: np.array([1.0])})
    assert theta.data[0] == pytest.approx(0.9989999, abs=1e-7)


def test_adamw_zero_gradient_no_decay_is_identity():
    theta = Tensor([0.7, -0.3])
    opt = AdamW([theta], lr=0.01, weight_decay=0.0)
    for _ in range(5):
        opt.step({theta: np.zeros(2)})
    assert np.array_equal(theta.data, [0.7, -0.3])


def test_adamw_identical_gradients_evolve_identically():
    a, b = Tensor([0.5]), Tensor([0.5])
    opt = AdamW([a, b], lr=0.01, weight_decay=1e-4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.normal()
        opt.step({a: np.array([g]), b: np.array([g])})
    assert a.data[0] == b.data[0]


def test_adamw_without_decay_matches_scalar_adam_trace():
    # Independent textbook Adam recurrence on plain Python floats.
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(1)
    gradient_sequence = [float(rng.normal()) for _ in range(10)]

    theta_ref, m, v = 0.4, 0.0, 0.0
    for t, g in enumerate(gradient_sequence, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)

    theta = Tensor([0.4])
    opt = AdamW([theta], lr=lr, weight_decay=0.0, betas=(b1, b2), eps=eps)
    for g in gradient_sequence:
        opt.step({theta: np.array([g])})
    assert theta.data[0] == pytest.approx(theta_ref, abs=1e-14)


def test_scheduler_halves_after_patience():
    opt = AdamW([Tensor([1.0])], lr=0.001)
    sched = PlateauScheduler(opt, factor=0.5, patience=10)
    sched.step(1.0)
    for _ in range(9):
        assert not sched.step(1.0)
    assert opt.lr == 0.001
    assert sched.step(1.0)
    assert opt.lr == 0.0005


def test_scheduler_improvement_resets_counter():
    opt = AdamW([Tensor([1.0])], lr=0.001)
    sched = PlateauScheduler(opt, factor=0.5, patience=10)
    sched.step(1.0)
    for _ in range(8):
        sched.step(1.0)
    sched.step(0.5)  # improvement on the 9th following epoch
    for _ in range(9):
        sched.step(0.5)
    assert opt.lr == 0.001


def test_scheduler_two_plateau_cycles():
    opt = AdamW([Tensor([1.0])], lr=0.001)
    sched = PlateauScheduler(opt, factor=0.5, patience=10)
    sched.step(1.0)
    for _ in range(20):
        sched.step(1.0)
    assert opt.lr == pytest.approx(0.00025)


def test_early_stopping_rules():
    decreasing = [1.0 / (i + 1) for i in range(50)]
    assert early_stopping(decreasing, 20) == (False, 49)

    history = [1.0, 0.8, 0.6, 0.5] + [0.5] * 20  # min at epoch 3, then 20 flat
    stop, best = early_stopping(history, 20)
    assert stop and best == 3
    stop_early, _ = early_stopping(history[:-1], 20)
    assert not stop_early

    assert early_stopping([1.0, 0.9], 0) == (False, 1)
    assert early_stopping([1.0, 0.9, 0.9], 0) == (True, 1)


def test_train_memorizes_small_set():
    examples = _examples(20, seed=21)
    params = build_model(
        ModelConfig.for_conv("graphconv", seed=1, rho_hidden_dims=(8,), **MICRO)
    )
    best, history = train(
        params, examples, examples, TrainConfig(max_epochs=500, batch_size=8, seed=0)
    )
    assert history[-1].train_loss < 1e-2


def test_train_reaches_noise_floor_on_linear_target():
    rng = np.random.default_rng(2)
    noise = 0.05
    store = GraphStore()
    examples = [
        (mixture_from_record(r, store), 0.5 * r.molality - 2.0 + float(rng.normal(0, noise)))
        for r in generate_synthetic(60, seed=22)
    ]
    params = build_model(
        ModelConfig.for_conv("graphconv", seed=3, rho_hidden_dims=(), **MICRO)
    )
    _, history = train(
        params, examples, examples, TrainConfig(max_epochs=300, batch_size=16, seed=0)
    )
    assert history[-1].train_loss <= 10 * noise**2


def test_train_zero_learning_rate_freezes_params():
    examples = _examples(8, seed=23)
    params = build_model(ModelConfig.for_conv("graphconv", seed=4, **MICRO))
    before = [t.data.copy() for _, t in named_parameters(params)]
    train(params, examples, examples, TrainConfig(lr0=0.0, max_epochs=3, seed=0))
    for (_, t), prev in zip(named_parameters(params), before):
        assert np.array_equal(t.data, prev)


def test_train_same_seed_identical_history():
    examples = _examples(12, seed=24)
    histories = []
    for _ in range(2):
        params = build_model(ModelConfig.for_conv("graphconv", seed=5, **MICRO))
        _, history = train(
            params, examples[:9], examples[9:], TrainConfig(max_epochs=5, batch_size=4, seed=7)
        )
        histories.append(history)
    assert histories[0] == histories[1]


def test_train_rejects_empty_sets():
    examples = _examples(4, seed=25)
    params = build_model(ModelConfig.for_conv("graphconv", seed=6, **MICRO))
    with pytest.raises(ValueError):
        train(params, [], examples, TrainConfig(max_epochs=1))


@pytest.mark.parametrize(
    "fields",
    [
        dict(max_epochs=2.5),
        dict(max_epochs=0),
        dict(batch_size=2.5),
        dict(max_epochs=True),
        dict(lr0=float("nan")),
        dict(weight_decay=float("inf")),
        dict(eps="1e-8"),
        dict(betas=(0.9,)),
        dict(betas=(0.9, 1.0)),
        dict(betas=0.9),
        dict(scheduler_patience=-1),
        dict(early_stop_patience=-1),
        dict(seed="x"),
        dict(seed=1.5),
        dict(seed=-1),
        dict(seed=True),
    ],
    ids=["float-epochs", "zero-epochs", "float-batch", "bool-epochs", "nan-lr", "inf-decay", "text-eps",
         "one-beta", "beta-one", "scalar-betas", "negative-scheduler-patience",
         "negative-early-stop-patience", "text-seed", "float-seed", "negative-seed", "bool-seed"],
)
def test_train_config_rejects_bad_values(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        TrainConfig(**fields)


def test_train_config_accepts_json_numbers():
    config = TrainConfig(lr0=0, betas=[0.0, 0.5], scheduler_patience=0, early_stop_patience=0)
    assert config.betas == (0.0, 0.5)


def test_adamw_tensors_are_views_of_one_vector():
    params = build_model(ModelConfig.for_conv("gatconv", seed=3, **MICRO))
    tensors = [t for _, t in named_parameters(params)]
    before = [t.data.copy() for t in tensors]
    optimizer = AdamW(tensors, lr=0.01)
    assert optimizer.values.shape == (sum(b.size for b in before),)
    optimizer.step({t: np.ones_like(t.data) for t in tensors})
    offset = 0
    for tensor, old in zip(tensors, before):
        assert tensor.data.shape == old.shape
        assert np.shares_memory(tensor.data, optimizer.values)
        assert np.array_equal(tensor.data.ravel(), optimizer.values[offset : offset + old.size])
        assert not np.array_equal(tensor.data, old)
        offset += old.size
    assert offset == optimizer.values.size


def _plateau_run(max_epochs):
    """graphconv on 30 + 10 mixtures; with 8 epochs allowed, the lr halves
    and early stopping ends the run after epoch 4, two epochs past the best."""
    examples = _examples(40, seed=11)
    params = build_model(ModelConfig.for_conv("graphconv", seed=3, **MICRO))
    config = TrainConfig(
        lr0=0.05, max_epochs=max_epochs, batch_size=8, scheduler_patience=1,
        early_stop_patience=2, seed=3,
    )
    returned, history = train(params, examples[:30], examples[30:], config)
    return params, returned, history, examples[30:]


def test_train_returns_its_params_restored_to_the_best_epoch():
    params, returned, history, val = _plateau_run(8)
    assert returned is params
    best_epoch = int(np.argmin([h.val_loss for h in history]))
    assert (best_epoch, len(history)) == (2, 5)
    assert len({h.lr for h in history}) > 1

    targets = np.array([target for _, target in val])
    preds = forward_batch(returned, [mix for mix, _ in val]).data
    assert float(np.mean((preds - targets) ** 2)) == min(h.val_loss for h in history)

    cut, _, cut_history, _ = _plateau_run(best_epoch + 1)
    assert cut_history == history[: best_epoch + 1]
    for (name, tensor), (cut_name, cut_tensor) in zip(named_parameters(params), named_parameters(cut)):
        assert name == cut_name and np.array_equal(tensor.data, cut_tensor.data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_non_finite_loss():
    examples = _examples(4, seed=26)
    params = build_model(ModelConfig.for_conv("graphconv", seed=7, **MICRO))
    for _, tensor in named_parameters(params):
        tensor.data[...] = np.nan
    with pytest.raises(TrainingError) as err:
        train(params, examples, examples, TrainConfig(max_epochs=1))
    assert "epoch" in str(err.value)


def test_train_aborts_on_non_finite_validation_loss():
    # A molality of 1e300 is finite, but the validation loss overflows; the
    # run must fail rather than stop early on the untrained parameters.
    examples = _examples(4, seed=26)
    val = [(dataclasses.replace(mix, molality=1e300), target) for mix, target in examples]
    params = build_model(ModelConfig.for_conv("graphconv", seed=7, **MICRO))
    with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
        train(params, examples, val, TrainConfig(max_epochs=3))
    assert "non-finite validation loss inf at epoch 0" in str(err.value)


def test_batch_loss_gradient_matches_finite_differences():
    examples = _examples(3, seed=27)
    params = build_model(
        ModelConfig.for_conv(
            "graphconv", seed=8, num_layers=2, hidden_dim=3,
            representation_dim=4, attention_dim=2, rho_hidden_dims=(3,),
        )
    )
    tensors = [t for _, t in named_parameters(params)]
    targets = Tensor(np.array([y for _, y in examples]))

    def run():
        preds = ad.concat([forward(params, mix) for mix, _ in examples])
        return mse_loss(preds, targets)

    with Tape() as tape:
        tape.watch(*tensors)
        loss = run()
    grads = ad.backward(tape, loss)
    fd = ad.finite_diff_gradient(lambda: run().item(), tensors)
    for t in tensors:
        denom = max(np.linalg.norm(fd[t]), np.linalg.norm(grads[t]), 1e-10)
        assert np.linalg.norm(grads[t] - fd[t]) / denom <= 1e-4


def test_graphconv_step_forms_no_gradient_of_constant_inputs():
    # The node features of the first conv layer, the log-mass column and
    # the targets enter graph_conv, concat and mse as constants, so
    # backward forms no gradient for them; every parameter still gets one.
    examples = _examples(6, seed=27)
    params = build_model(ModelConfig.for_conv("graphconv", seed=8, **MICRO))
    tensors = [t for _, t in named_parameters(params)]
    with Tape() as tape:
        tape.watch(*tensors)
        preds = forward_batch(params, [mix for mix, _ in examples])
        targets = Tensor(np.array([y for _, y in examples]))
        loss = mse_loss(preds, targets)
    grads = ad.backward(tape, loss)
    watched = set(tensors)
    constants = {
        t
        for _, inputs, _, selective in tape._nodes
        if selective
        for t in inputs
        if t.tape is not tape and t not in watched
    }
    # One node-feature matrix per union of distinct solvents and of salts.
    graphs = {g for mix, _ in examples for g, _ in mix.solvents}
    graphs |= {mix.salt for mix, _ in examples}
    features = [t for t in constants if t.data.shape[1:] == (NODE_FEATURE_DIM,)]
    assert sum(t.data.shape[0] for t in features) == sum(g.n_nodes for g in graphs)
    assert targets in constants
    assert not any(t in grads for t in constants)
    assert watched <= set(grads)


def test_pearson_examples():
    t = np.array([0.3, 1.7, 2.2, -0.4])
    assert pearson(t, 2 * t + 1) == pytest.approx(1.0, abs=1e-12)
    assert pearson(t, -t) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_rejects_degenerate_input():
    with pytest.raises(MetricError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(MetricError):
        pearson([1.0], [1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pearson_rejects_overflowing_variance():
    with pytest.raises(MetricError, match="overflow"):
        pearson([1, 2, 3], [1e200, -1e200, 5e199])
    with pytest.raises(MetricError, match="overflow"):
        pearson([1e200, -1e200, 5e199], [1, 2, 3])
    # finite variances of about 2e200 whose product overflows
    with pytest.raises(MetricError, match="overflow"):
        pearson([1e100, -1e100, 0.0], [1e100, -1e100, 0.0])


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    t = rng.normal(size=30)
    p = rng.normal(size=30)
    base = pearson(t, p)
    assert abs(pearson(t, 3.7 * p + 11.0) - base) <= 1e-12


def test_spearman_examples():
    assert spearman([1, 2, 3, 4], [2, 5, 9, 11]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3], [10, 20, 15]) == pytest.approx(0.5, abs=1e-12)


def test_spearman_tie_handling():
    # ranks of [1, 1, 2] are [1.5, 1.5, 3]; correlation with [1, 2, 3]
    assert spearman([1.0, 1.0, 2.0], [3.0, 4.0, 5.0]) == pytest.approx(
        math.sqrt(3) / 2, abs=1e-12
    )


def test_spearman_all_tied_returns_zero(caplog):
    import logging

    with caplog.at_level(logging.WARNING):
        assert spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0
    assert any("tied" in m for m in caplog.messages)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    t = rng.normal(size=25)
    p = rng.normal(size=25)
    base = spearman(t, p)
    assert abs(spearman(t, np.exp(p)) - base) <= 1e-12


def test_evaluate_report_fields():
    examples = _examples(10, seed=28)
    params = build_model(ModelConfig.for_conv("graphconv", seed=9, **MICRO))
    report = evaluate(params, examples)
    assert report.n == 10
    assert -1.0 <= report.pearson_rp <= 1.0
    assert -1.0 <= report.spearman_rs <= 1.0
    assert report.mse >= 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rejects_non_finite_metrics():
    examples = _examples(6, seed=28)
    params = build_model(ModelConfig.for_conv("graphconv", seed=9, **MICRO))
    # A molality of 1e300 keeps the predictions finite, but their variance
    # overflows.
    huge = [(dataclasses.replace(mix, molality=1e300), target) for mix, target in examples]
    with pytest.raises(MetricError, match="overflow"):
        evaluate(params, huge)
    # Predictions near 1e155 that still differ by about 1e150: pearson and
    # spearman stay finite, the squared error overflows.
    head = params.rho[-1]
    head.w.data *= 1e150
    head.b.data = np.full_like(head.b.data, 1e155)
    assert np.isfinite(forward_batch(params, [mix for mix, _ in examples]).data).all()
    with pytest.raises(MetricError, match="non-finite metrics: mse"):
        evaluate(params, examples)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rejects_non_finite_predictions():
    examples = _examples(6, seed=28)
    params = build_model(ModelConfig.for_conv("graphconv", seed=9, **MICRO))
    head = params.rho[-1]
    head.w.data = np.full_like(head.w.data, 1e308)  # finite weights, overflowing outputs
    head.b.data = np.full_like(head.b.data, 1e308)
    with pytest.raises(MetricError, match="non-finite"):
        evaluate(params, examples)


def test_write_history(tmp_path):
    from molsets.training import HistoryEntry

    path = tmp_path / "history.csv"
    write_history([HistoryEntry(0, 0.5, 0.6, 0.001)], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert lines[1] == "0,0.5,0.6,0.001"


def test_epoch_event_pins_tape_nodes_of_a_fused_step(caplog):
    # One 32-mixture graphconv/molsets step, each pathway one disjoint union.
    # Per pathway: 3 conv layers (ReLU fused), mean pool, concat log M,
    # readout = 6. Aggregation: slot rows, q/k/v matmuls, mul, reduce_sum,
    # scale, segment_softmax, reshape, two muls, segment_sum = 12. Head:
    # set rows, salt rows, concat, 3 dense layers, reshape = 7. Loss: 1.
    examples = _examples(40, seed=5)
    batch = [mix for mix, _ in examples[:32]]
    for graphs in ({g for mix in batch for g, _ in mix.solvents}, {mix.salt for mix in batch}):
        assert sum(g.n_nodes for g in graphs) <= model_mod._UNION_ATOMS
    caplog.set_level(logging.DEBUG, logger="molsets.training")
    params = build_model(ModelConfig.for_conv("graphconv", seed=1))
    train(params, examples[:32], examples[32:], TrainConfig(max_epochs=1, batch_size=32, seed=2))
    [event] = [json.loads(r.getMessage()) for r in caplog.records if r.name == "molsets.training"]
    assert event["tape_nodes_per_step"] == 2 * 6 + 12 + 7 + 1 == 32


def test_telemetry_events_leave_results_unchanged(caplog):
    examples = _examples(16, seed=29)
    cands = enumerate_binary_candidates(["C1CCOC1", "COCOC", "CCO", "NotSmiles!"], ["[Li+].[Cl-]"])
    runs = []
    for level in (logging.WARNING, logging.DEBUG):
        caplog.set_level(level, logger="molsets")
        caplog.clear()
        params = build_model(ModelConfig.for_conv("graphconv", seed=8, **MICRO))
        best, history = train(
            params, examples[:12], examples[12:], TrainConfig(max_epochs=3, batch_size=5, seed=2)
        )
        results, skipped = run_screening(best, cands)
        ranked = [(r.candidate, r.predicted_log10_sigma) for r in results]
        runs.append((history, ranked, skipped, list(caplog.records)))
    quiet, (history, ranked, skipped, records) = runs
    assert (history, ranked, skipped) == quiet[:3]
    assert not quiet[3]

    epochs = [json.loads(r.getMessage()) for r in records if r.name == "molsets.training"]
    assert [e["epoch"] for e in epochs] == [h.epoch for h in history]
    for event, entry in zip(epochs, history):
        assert (event["train_loss"], event["val_loss"], event["lr"]) == (
            entry.train_loss, entry.val_loss, entry.lr
        )
        assert event["wall_s"] > 0 and event["tape_nodes_per_step"] > 0
        assert math.isfinite(event["grad_norm"]) and event["grad_norm"] > 0
    # Replay the epoch shuffles (seed 2, batches of 5) and count the distinct
    # solvent and salt graphs of each minibatch.
    rng = np.random.default_rng(2)
    for event in epochs:
        order = rng.permutation(12)
        counts = []
        for start in range(0, 12, 5):
            mixes = [examples[i][0] for i in order[start : start + 5]]
            solvents = {g for mix in mixes for g, _ in mix.solvents}
            counts.append(len(solvents) + len({mix.salt for mix in mixes}))
        assert event["molecules_embedded_per_step"] == np.mean(counts)

    # One full-batch step: grad_norm is the L2 norm of the initial gradient.
    train_part = examples[:12]
    params = build_model(ModelConfig.for_conv("graphconv", seed=8, **MICRO))
    tensors = [t for _, t in named_parameters(params)]
    with Tape() as tape:
        tape.watch(*tensors)
        preds = forward_batch(params, [mix for mix, _ in train_part])
        loss = mse_loss(preds, Tensor([target for _, target in train_part]))
    grads = ad.backward(tape, loss)
    expected = math.sqrt(sum(float((grads[t] ** 2).sum()) for t in tensors))
    caplog.clear()
    train(params, train_part, examples[12:], TrainConfig(max_epochs=1, batch_size=12, seed=2))
    [event] = [json.loads(r.getMessage()) for r in caplog.records if r.name == "molsets.training"]
    assert abs(event["grad_norm"] - expected) <= 1e-9 * expected
    [screen] = [json.loads(r.getMessage()) for r in records if r.name == "molsets.screening"]
    assert screen == {
        "event": "screening",
        "candidates": 6,
        "parsed": 3,
        "skipped": 3,
        "molecules_embedded": 4,
        "solvent_sets": 3,
    }
