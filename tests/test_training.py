import base64
import dataclasses
import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from frozen_training import PlateauScheduler, average_ranks, early_stopping, train_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from molsets import autodiff as ad
from molsets import gnn
from molsets import model as model_mod
from molsets.autodiff import Tape, Tensor
from molsets.chem import NODE_FEATURE_DIM
from molsets.data import generate_synthetic
from molsets.model import (
    VARIANTS,
    GraphStore,
    ModelConfig,
    build_model,
    forward,
    forward_batch,
    load_checkpoint,
    mixture_from_record,
    named_parameters,
    save_checkpoint,
)
from molsets.screening import enumerate_binary_candidates, run_screening
from molsets.training import (
    AdamW,
    MetricError,
    TrainConfig,
    TrainingError,
    _average_ranks,
    evaluate,
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


def _micro_optimizer(start, **hyper):
    """(AdamW with the TrainConfig settings `hyper` on a micro model whose
    parameters all start at `start`, the model)."""
    params = build_model(ModelConfig.for_conv("gatconv", seed=0, **MICRO))
    params.values[...] = start
    return AdamW(params, TrainConfig(**hyper)), params


def _same_gradient(params, g):
    return {t: np.full_like(t.data, g) for t in params.tensors}


def test_adamw_first_step_closed_form():
    opt, params = _micro_optimizer(1.0, lr0=0.001, weight_decay=1e-4)
    opt.step(_same_gradient(params, 1.0))
    assert params.values == pytest.approx(0.9989999, abs=1e-7)


def test_adamw_zero_gradient_no_decay_is_identity():
    opt, params = _micro_optimizer(0.0, lr0=0.01, weight_decay=0.0)
    start = np.random.default_rng(0).uniform(-1, 1, params.values.size)
    params.values[...] = start
    for _ in range(5):
        opt.step(_same_gradient(params, 0.0))
    assert np.array_equal(params.values, start)


def test_adamw_identical_gradients_evolve_identically():
    opt, params = _micro_optimizer(0.5, lr0=0.01, weight_decay=1e-4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        opt.step(_same_gradient(params, rng.normal()))
    assert np.unique(params.values).size == 1


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

    opt, params = _micro_optimizer(0.4, lr0=lr, weight_decay=0.0, betas=(b1, b2), eps=eps)
    for g in gradient_sequence:
        opt.step(_same_gradient(params, g))
    assert params.values == pytest.approx(theta_ref, abs=1e-14)


def test_train_lr_cuts_and_stop_match_the_plateau_rules():
    # train() keeps one count of epochs since the last strict improvement.
    # Replay each run's validation losses through the scheduler and the
    # early-stopping rule it replaced (frozen_training): every epoch's lr
    # and the epoch the run stopped at must match.
    store = GraphStore()
    examples = [
        (mixture_from_record(r, store), r.target_298K)
        for r in generate_synthetic(40, seed=3, noise_scale=0.05)
    ]
    max_epochs = 40
    most_cuts = resets = early_stops = 0
    for scheduler_patience, early_stop_patience in [(0, 0), (1, 3), (2, 4), (3, 6), (10, 20)]:
        config = TrainConfig(
            lr0=0.02, max_epochs=max_epochs, batch_size=8, scheduler_patience=scheduler_patience,
            early_stop_patience=early_stop_patience, seed=3,
        )
        params = build_model(ModelConfig.for_conv("graphconv", seed=3, **MICRO))
        _, history = train(params, examples[:30], examples[30:], config)
        optimizer = AdamW(params, config)
        scheduler = PlateauScheduler(optimizer, config.scheduler_factor, scheduler_patience)
        cuts, val_losses = 0, []
        for entry in history:
            assert entry.lr == optimizer.lr
            val_losses.append(entry.val_loss)
            # an improvement after stale epochs that did not yet cut the lr
            resets += entry.val_loss < scheduler.best and scheduler.stale_epochs > 0
            cuts += scheduler.step(entry.val_loss)
            stop, _ = early_stopping(val_losses, early_stop_patience)
            if stop:
                break
        assert len(val_losses) == len(history)  # the rules did not stop sooner
        assert stop or len(history) == max_epochs  # nor later
        most_cuts = max(most_cuts, cuts)
        early_stops += len(history) < max_epochs
    assert most_cuts >= 2 and resets >= 1 and early_stops >= 1


def _train_on_val_losses(monkeypatch, val_losses, **config_fields):
    # Runs train() for at most len(val_losses) epochs with the validation
    # pass replaced: epoch k's validation predictions are a constant column
    # whose loss against zero targets is val_losses[k] (exactly: each is the
    # square of a dyadic fraction). Training steps run the
    # real forward; returns train's history.
    import molsets.training as training_mod

    batches, scripted = [], iter(val_losses)
    real_batch_of, real_forward = training_mod.batch_of, training_mod.forward_columns

    def recorded_batch_of(params, mixtures):
        batches.append(real_batch_of(params, mixtures))
        return batches[-1]

    def scripted_forward(params, batch):
        if batch is batches[1]:  # the validation batch
            return Tensor(np.full(batch.set_of.size, math.sqrt(next(scripted))))
        return real_forward(params, batch)

    monkeypatch.setattr(training_mod, "batch_of", recorded_batch_of)
    monkeypatch.setattr(training_mod, "forward_columns", scripted_forward)
    examples = _examples(6, seed=5)
    config = TrainConfig(
        lr0=0.001, max_epochs=len(val_losses), batch_size=4, seed=5, **config_fields
    )
    params = build_model(ModelConfig.for_conv("graphconv", seed=5, **MICRO))
    _, history = train(params, examples[:4], [(mix, 0.0) for mix, _ in examples[4:]], config)
    assert [entry.val_loss for entry in history] == val_losses[: len(history)]
    return history


def test_scheduler_halves_after_patience(monkeypatch):
    history = _train_on_val_losses(
        monkeypatch, [1.0] * 12, scheduler_patience=10, early_stop_patience=30
    )
    # epoch 0 sets the best; epochs 1-9 are 9 stale epochs, no cut yet
    assert [entry.lr for entry in history[:11]] == [0.001] * 11
    assert history[11].lr == 0.0005  # the 10th stale epoch (epoch 10) cut it


def test_scheduler_improvement_resets_counter(monkeypatch):
    # 8 stale epochs, an improvement on the 9th, then 9 more stale epochs
    losses = [1.0] + [1.0] * 8 + [0.25] + [0.25] * 9 + [0.25]
    history = _train_on_val_losses(
        monkeypatch, losses, scheduler_patience=10, early_stop_patience=30
    )
    assert len(history) == len(losses)
    assert all(entry.lr == 0.001 for entry in history)


def test_scheduler_two_plateau_cycles(monkeypatch):
    history = _train_on_val_losses(
        monkeypatch, [1.0] * 22, scheduler_patience=10, early_stop_patience=30
    )
    assert history[11].lr == pytest.approx(0.0005)
    assert history[21].lr == pytest.approx(0.00025)


def test_early_stopping_rules(monkeypatch, caplog):
    decreasing = [1.0 / 4**i for i in range(50)]
    assert len(_train_on_val_losses(monkeypatch, decreasing, early_stop_patience=20)) == 50

    plateau = [1.0, 0.5625, 0.390625, 0.25] + [0.25] * 30  # min at epoch 3, then flat
    with caplog.at_level(logging.INFO, logger="molsets.training"):
        history = _train_on_val_losses(monkeypatch, plateau, early_stop_patience=20)
    assert len(history) == 24  # stopped on the 20th flat epoch, epoch 23
    assert "early stop at epoch 23 (best epoch 3," in caplog.text
    assert len(_train_on_val_losses(monkeypatch, plateau[:23], early_stop_patience=20)) == 23

    # patience 0 stops like patience 1: on the first epoch without improvement
    assert len(_train_on_val_losses(monkeypatch, [1.0, 0.25], early_stop_patience=0)) == 2
    assert len(_train_on_val_losses(monkeypatch, [1.0, 0.25, 0.25, 0.25], early_stop_patience=0)) == 3


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
        dict(eps=0.0),
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
         "zero-eps", "one-beta", "beta-one", "scalar-betas", "negative-scheduler-patience",
         "negative-early-stop-patience", "text-seed", "float-seed", "negative-seed", "bool-seed"],
)
def test_train_config_rejects_bad_values(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        TrainConfig(**fields)


def test_train_config_accepts_json_numbers():
    config = TrainConfig(lr0=0, betas=[0.0, 0.5], scheduler_patience=0, early_stop_patience=0)
    assert config.betas == (0.0, 0.5)


def test_adamw_tensors_are_views_of_one_vector(tmp_path):
    built = build_model(ModelConfig.for_conv("gatconv", seed=3, **MICRO))
    save_checkpoint(built, str(tmp_path / "model.json"))
    for params in (built, load_checkpoint(str(tmp_path / "model.json"))):
        named = named_parameters(params)
        before = [t.data.copy() for _, t in named]
        assert params.values.shape == (sum(b.size for b in before),)
        optimizer = AdamW(params, TrainConfig(lr0=0.01))
        optimizer.step({t: np.ones_like(t.data) for _, t in named})
        offset = 0
        for (name, tensor), old in zip(named, before):
            assert tensor is dict(named_parameters(params))[name]
            assert tensor.data.shape == old.shape
            assert np.shares_memory(tensor.data, optimizer.values)
            assert np.array_equal(tensor.data.ravel(), optimizer.values[offset : offset + old.size])
            assert not np.array_equal(tensor.data, old)
            offset += old.size
        assert offset == optimizer.values.size
    # A tensor whose data is rebound would no longer be trained: refused.
    built.rho[0].b.data = built.rho[0].b.data.copy()
    with pytest.raises(ValueError, match="no longer views"):
        AdamW(built, TrainConfig())


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
    with pytest.raises(TrainingError) as err:
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
        return ad.mse(preds, targets)

    with Tape() as tape:
        tape.watch(*tensors)
        loss = run()
    grads = ad.backward(tape, loss)
    fd = ad.finite_diff_gradient(lambda: run().item(), tensors)
    for t in tensors:
        denom = max(np.linalg.norm(fd[t]), np.linalg.norm(grads[t]), 1e-10)
        assert np.linalg.norm(grads[t] - fd[t]) / denom <= 1e-4


@pytest.mark.parametrize(
    "conv, variant",
    [("graphconv", "molsets"), ("gatconv", "molsets"), ("dmpnn", "molsets"), ("graphconv", "wsum")],
)
def test_graphconv_step_forms_no_gradient_of_constant_inputs(conv, variant):
    # The node features of the first conv layer (graph_conv, gat_conv or
    # dmpnn), the log-mass column (concat) and the targets (mse) enter the
    # tape as constants, so backward forms no gradient for them; wsum's
    # weight fractions are an ndarray argument of segment_sum, not a tape
    # input at all. Every parameter still gets a gradient.
    examples = _examples(6, seed=27)
    params = build_model(ModelConfig.for_conv(conv, variant=variant, seed=8, **MICRO))
    tensors = [t for _, t in named_parameters(params)]
    mixes = [mix for mix, _ in examples]
    with Tape() as tape:
        tape.watch(*tensors)
        preds = forward_batch(params, mixes)
        targets = Tensor(np.array([y for _, y in examples]))
        loss = ad.mse(preds, targets)
    grads = ad.backward(tape, loss)
    watched = set(tensors)
    constants = {
        t
        for _, inputs, _ in tape._nodes
        for t in inputs
        if t.tape is not tape and t not in watched
    }
    # One node-feature matrix per union of distinct solvents and of salts.
    graphs = {g for mix, _ in examples for g, _ in mix.solvents}
    graphs |= {mix.salt for mix, _ in examples}
    features = [t for t in constants if t.data.shape[1:] == (NODE_FEATURE_DIM,)]
    assert sum(t.data.shape[0] for t in features) == sum(g.n_nodes for g in graphs)
    assert targets in constants
    slot_weight = model_mod.batch_of(params, mixes).slot_weight
    assert not any(np.array_equal(t.data, slot_weight[:, None]) for t in constants)
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


def test_pearson_rejects_overflowing_variance():
    with pytest.raises(MetricError, match="overflow"):
        pearson([1, 2, 3], [1e200, -1e200, 5e199])
    with pytest.raises(MetricError, match="overflow"):
        pearson([1e200, -1e200, 5e199], [1, 2, 3])
    # finite variances of about 2e200 whose product overflows
    with pytest.raises(MetricError, match="overflow"):
        pearson([1e100, -1e100, 0.0], [1e100, -1e100, 0.0])
    # finite values whose sum, and so the mean, overflows
    with pytest.raises(MetricError, match="overflow"):
        pearson([1.7e308, 1.7e308, 0.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", [pearson, spearman])
def test_metrics_reject_non_finite_samples(metric, bad):
    finite, spoiled = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0]
    for targets, preds in ((spoiled, finite), (finite, spoiled)):
        with pytest.raises(MetricError, match="got 1 non-finite values"):
            metric(targets, preds)


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


# One np.unique pass against the tie loop it replaced (frozen_training):
# both rank a tie group starting at position i and ending at j as
# (i + j) / 2 + 1, so the ranks are equal, -0.0 tying with 0.0.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, -1e300]) | st.floats(allow_nan=False),
        max_size=40,
    )
)
def test_average_ranks_match_the_tie_loop(values):
    x = np.array(values, dtype=np.float64)
    assert np.array_equal(_average_ranks(x), average_ranks(x))


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


def test_evaluate_rejects_fewer_than_two_examples(monkeypatch):
    # Correlations need two samples: too few rows is bad input (ValueError),
    # raised before the model runs, not a numeric failure.
    examples = _examples(2, seed=28)
    params = build_model(ModelConfig.for_conv("graphconv", seed=9, **MICRO))
    monkeypatch.setattr("molsets.training.forward_batch", pytest.fail)
    for few in (examples[:1], []):
        with pytest.raises(ValueError, match=f"at least two examples, got {len(few)}") as err:
            evaluate(params, few)
        assert not isinstance(err.value, MetricError)


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


@pytest.mark.parametrize(
    "conv, per_pathway, total",
    [("graphconv", 3 + 3, 22), ("gatconv", 2 + 3, 20), ("dmpnn", 1 + 3, 18)],
    ids=["graphconv", "gatconv", "dmpnn"],
)
def test_epoch_event_pins_tape_nodes_of_a_fused_step(caplog, conv, per_pathway, total):
    # One 32-mixture <conv>/molsets step, each pathway one disjoint union.
    # Per pathway: one node per conv layer with its ReLU (graphconv 3, GAT
    # 2; DMPNN one for all its iterations and its readout), then mean pool,
    # concat log M and readout. Aggregation: slot rows, set_attention = 2.
    # Head: set rows, salt rows, concat, 3 dense layers, reshape = 7. Loss: 1.
    examples = _examples(40, seed=5)
    batch = [mix for mix, _ in examples[:32]]
    for graphs in ({g for mix in batch for g, _ in mix.solvents}, {mix.salt for mix in batch}):
        assert sum(g.n_nodes for g in graphs) <= model_mod._UNION_ATOMS
    caplog.set_level(logging.DEBUG, logger="molsets.training")
    params = build_model(ModelConfig.for_conv(conv, seed=1))
    train(params, examples[:32], examples[32:], TrainConfig(max_epochs=1, batch_size=32, seed=2))
    [event] = [json.loads(r.getMessage()) for r in caplog.records if r.name == "molsets.training"]
    assert event["tape_nodes_per_step"] == 2 * per_pathway + 2 + 7 + 1 == total


def _distinct_graphs(mixes):
    """The distinct solvent graphs and the distinct salt graphs of mixes."""
    solvents = list({g: None for mix in mixes for g, _ in mix.solvents})
    return solvents, list({mix.salt: None for mix in mixes})


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
    # Replay the epoch shuffles (seed 2, batches of 5): count the distinct
    # solvent and salt graphs of each minibatch, and its unions, packed in
    # the training set's graph order. A pathway that holds all of the
    # training set's graphs uses the training batch's unions: built by the
    # first such step, reused by every later one. The validation unions are
    # built in epoch 0 and reused after it.
    rng = np.random.default_rng(2)
    val_unions = sum(
        len(model_mod._unions(graphs))
        for graphs in _distinct_graphs([mix for mix, _ in examples[12:]])
    )
    dataset = _distinct_graphs([mix for mix, _ in examples[:12]])
    own = [False, False]  # the training batch's unions, built yet
    for event in epochs:
        order = rng.permutation(12)
        counts = []
        built = 0 if event["epoch"] else val_unions
        reused = val_unions - built
        for start in range(0, 12, 5):
            pathways = _distinct_graphs([examples[i][0] for i in order[start : start + 5]])
            counts.append(sum(len(graphs) for graphs in pathways))
            for k, graphs in enumerate(pathways):
                held = [g for g in dataset[k] if g in graphs]
                unions = len(model_mod._unions(held))
                if len(held) == len(dataset[k]) and own[k]:
                    reused += unions
                else:
                    built += unions
                own[k] |= len(held) == len(dataset[k])
        assert event["molecules_embedded_per_step"] == np.mean(counts)
        assert (event["unions_built"], event["unions_reused"]) == (built, reused)
    assert sum(e["unions_reused"] for e in epochs) > 0

    # Full-batch steps: grad_norm is the L2 norm of the initial gradient,
    # and each step holds the whole training set, so it uses the training
    # batch's unions, built in epoch 0 and reused in epoch 1.
    train_part = examples[:12]
    params = build_model(ModelConfig.for_conv("graphconv", seed=8, **MICRO))
    tensors = [t for _, t in named_parameters(params)]
    with Tape() as tape:
        tape.watch(*tensors)
        preds = forward_batch(params, [mix for mix, _ in train_part])
        loss = ad.mse(preds, Tensor([target for _, target in train_part]))
    grads = ad.backward(tape, loss)
    expected = math.sqrt(sum(float((grads[t] ** 2).sum()) for t in tensors))
    caplog.clear()
    train(params, train_part, examples[12:], TrainConfig(max_epochs=2, batch_size=12, seed=2))
    event, later = [json.loads(r.getMessage()) for r in caplog.records if r.name == "molsets.training"]
    assert abs(event["grad_norm"] - expected) <= 1e-9 * expected
    unions = val_unions + sum(len(model_mod._unions(graphs)) for graphs in dataset)
    assert (event["unions_built"], event["unions_reused"]) == (unions, 0)
    assert (later["unions_built"], later["unions_reused"]) == (0, unions)
    [screen] = [json.loads(r.getMessage()) for r in records if r.name == "molsets.screening"]
    assert screen == {
        "event": "screening",
        "candidates": 6,
        "parsed": 3,
        "skipped": 3,
        "molecules_embedded": 4,
        "solvent_sets": 3,
    }


# Slicing one dataset batch per step (train) against the loop it replaced,
# one forward_batch per minibatch and per validation pass (frozen in
# tests/frozen_training.py). The slices number their graphs in dataset
# order, not in each minibatch's first-seen order, so the sums of a step
# run in another order and the results agree up to roundoff. AdamW divides
# by sqrt(v) + eps, so a parameter whose gradient is near eps carries a
# roundoff difference on at up to lr / eps times its size; lr0 = 0.02
# still lets the plateau scheduler and early stopping fire in every run.
@pytest.mark.parametrize("conv", gnn.CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_train_matches_the_per_step_forward_batch_loop(variant, conv):
    examples = _examples(40, seed=25)
    model_config = ModelConfig.for_conv(conv, variant=variant, seed=4, **MICRO)
    config = TrainConfig(
        lr0=0.02, max_epochs=40, batch_size=8, scheduler_patience=1,
        early_stop_patience=3, seed=3,
    )
    params, history = train(build_model(model_config), examples[:30], examples[30:], config)
    ref_params, ref_history = train_reference(
        build_model(model_config), examples[:30], examples[30:], config
    )
    assert len(history) == len(ref_history) < config.max_epochs  # early stopping fired
    lrs = [h.lr for h in history]
    assert lrs == [h.lr for h in ref_history] and len(set(lrs)) > 1  # so did the scheduler
    for entry, ref in zip(history, ref_history):
        for value, ref_value in ((entry.train_loss, ref.train_loss), (entry.val_loss, ref.val_loss)):
            assert abs(value - ref_value) <= 1e-9 * abs(ref_value)
    for (name, tensor), (_, ref_tensor) in zip(named_parameters(params), named_parameters(ref_params)):
        assert np.abs(tensor.data - ref_tensor.data).max() <= 1e-8, name


def test_train_builds_union_topology_once_per_graph_list(monkeypatch):
    # A bench-shaped set: 400 training and 100 validation mixtures of 10
    # solvents and 3 salts, 3 epochs of 13 steps of at most 32 mixtures.
    # The per-step loop builds 2 unions per forward: (39 + 3) * 2 = 84.
    examples = _examples(500, seed=7)
    builds = []
    init = gnn.GraphTensors.__init__

    def counted(self, graphs):
        builds.append(len(graphs))
        init(self, graphs)

    monkeypatch.setattr(gnn.GraphTensors, "__init__", counted)
    config = TrainConfig(max_epochs=3, early_stop_patience=4, batch_size=32, seed=7)
    model_config = ModelConfig.for_conv("graphconv", seed=7)
    train_reference(build_model(model_config), examples[:400], examples[400:], config)
    assert len(builds) == 84
    builds.clear()
    train(build_model(model_config), examples[:400], examples[400:], config)
    assert 4 <= len(builds) <= 8


GOLDEN_TRAIN_GRID = Path(__file__).resolve().parent / "golden" / "train_grid.json"


def _history_digest(history) -> str:
    rows = [(e.epoch, e.train_loss, e.val_loss, e.lr) for e in history]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def train_grid_run(conv, variant, run, path):
    """(history sha256, checkpoint sha256) of one golden grid training at
    default sizes, its checkpoint saved to path."""
    examples = _examples(run["records"], seed=run["data_seed"])
    n = run["n_train"]
    config = TrainConfig(
        lr0=run["lr0"], max_epochs=run["epochs"], batch_size=run["batch_size"],
        scheduler_patience=run["scheduler_patience"],
        early_stop_patience=run["early_stop_patience"], seed=run["train_seed"],
    )
    model_config = ModelConfig.for_conv(conv, variant=variant, seed=run["model_seed"])
    params, history = train(build_model(model_config), examples[:n], examples[n:], config)
    save_checkpoint(params, str(path))
    return _history_digest(history), hashlib.sha256(path.read_bytes()).hexdigest()


# Default sizes, 6 epochs at lr0 0.02 with patiences 1 and 2: the lr is cut
# in 14 of the 15 runs and training stops early in 6, so the hashes pin the
# plateau protocol and the best-epoch restore as well as each step.
@pytest.mark.parametrize("conv", gnn.CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_train_grid_matches_golden(variant, conv, tmp_path):
    golden = json.loads(GOLDEN_TRAIN_GRID.read_text())
    digests = train_grid_run(conv, variant, golden["run"], tmp_path / "model.json")
    assert list(digests) == golden["train"][f"{conv}/{variant}"], (
        "the train history or checkpoint bytes changed; the golden pins the numpy and OpenBLAS "
        "kernels of the machine that wrote it, so on another machine a last-bit difference in a "
        "product also fails here"
    )


GOLDEN_GRADIENTS = Path(__file__).resolve().parent / "golden" / "first_step_gradients.json"
GRADIENT_MICRO = dict(num_layers=2, hidden_dim=3, representation_dim=4, attention_dim=2, rho_hidden_dims=(3,))


class _FirstStep(Exception):
    pass


def first_step_gradients(conv, variant, run, monkeypatch) -> dict[str, np.ndarray]:
    """The gradient of each parameter, by name, that train() hands AdamW at
    its first step; train stops there."""

    def stop(self, grads):
        raise _FirstStep(grads)

    monkeypatch.setattr(AdamW, "step", stop)
    examples = _examples(run["records"], seed=run["data_seed"])
    n = run["n_train"]
    config = TrainConfig(batch_size=run["batch_size"], seed=run["train_seed"])
    params = build_model(ModelConfig.for_conv(conv, variant=variant, seed=run["model_seed"], **GRADIENT_MICRO))
    with pytest.raises(_FirstStep) as stopped:
        train(params, examples[:n], examples[n:], config)
    grads = stopped.value.args[0]
    return {name: grads[t] for name, t in named_parameters(params)}


# Roundoff-level reorderings of a step's sums pass this gate; a dropped or
# scaled gradient term or a changed init draw does not. The bound is per
# tensor: max |g - ref| <= 1e-12 * max |ref|. Model seed 1 leaves no
# tensor with an all-zero gradient beyond the salt pathway's neighbour
# weights (a salt's ions share no bond); at seed 0 the micro gcnconv
# molsets model's first head layer has every ReLU off, so only the last
# bias gets a gradient.
@pytest.mark.parametrize("conv", gnn.CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_first_step_gradients_match_golden(variant, conv, monkeypatch):
    golden = json.loads(GOLDEN_GRADIENTS.read_text())
    grads = first_step_gradients(conv, variant, golden["run"], monkeypatch)
    stored = golden["gradients"][f"{conv}/{variant}"]
    assert list(grads) == list(stored)
    off = {}
    for name, g in grads.items():
        ref = np.frombuffer(base64.b64decode(stored[name]), "<f8").reshape(g.shape)
        deviation, scale = np.abs(g - ref).max(), np.abs(ref).max()
        if deviation > 1e-12 * scale:
            off[name] = float(deviation / scale) if scale else math.inf
    assert not off, (
        f"first-step gradients moved beyond 1e-12 relative (max |g - ref| / max |ref| per tensor): {off}; "
        "the reference pins the numpy and OpenBLAS kernels of the machine that wrote it, so on "
        "another machine products summed in another order can also fail here"
    )
