"""Training loop, AdamW optimizer, and metrics.

The protocol: AdamW (decoupled weight decay) from an initial learning
rate of 1e-3 with weight decay 1e-4. `train` counts the epochs since the
last strict improvement of the validation loss: every 10 of them halve
the learning rate, and 20 stop training, restoring the parameters from
the epoch with the lowest validation loss. TrainConfig holds each
setting of the protocol, with its default and its check, and AdamW reads
its settings from the TrainConfig it is built with. Training updates the
given parameters in place and returns them restored to that epoch. The
training and validation sets are each built into one columnar batch per
call; a step runs on a slice of the training batch (`MixtureBatch.take`),
and validation on the whole validation batch. The loop is
single-threaded and deterministic given the seed.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import check_integer, is_number
from .model import (
    MixtureBatch,
    MixtureInput,
    ModelParams,
    batch_of,
    forward_batch,
    forward_columns,
)

logger = logging.getLogger(__name__)

Example = tuple[MixtureInput, float]


class TrainingError(RuntimeError):
    pass


class MetricError(ValueError):
    pass


@dataclass
class TrainConfig:
    lr0: float = 0.001
    weight_decay: float = 0.0001
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    scheduler_factor: float = 0.5
    scheduler_patience: int = 10
    early_stop_patience: int = 20
    max_epochs: int = 1000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "batch_size"):
            check_integer(name, getattr(self, name), 1)
        for name in ("scheduler_patience", "early_stop_patience", "seed"):
            check_integer(name, getattr(self, name), 0)
        for name in ("lr0", "weight_decay", "eps", "scheduler_factor"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.eps == 0:  # AdamW divides by sqrt(v) + eps
            raise ValueError(f"eps must be a finite number > 0, got {self.eps!r}")
        betas = self.betas
        if not (
            isinstance(betas, (list, tuple))
            and len(betas) == 2
            and all(is_number(b) and 0 <= b < 1 for b in betas)
        ):
            raise ValueError(f"betas must be a pair of numbers in [0, 1), got {betas!r}")
        self.betas = tuple(betas)


@dataclass
class HistoryEntry:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class MetricsReport:
    pearson_rp: float
    spearman_rs: float
    mse: float
    n: int


class AdamW:
    """Adam with decoupled weight decay:
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    It reads its settings from a TrainConfig, which has checked them: `lr`
    starts at lr0 (train cuts it on a plateau), and weight_decay, betas and
    eps are as given. It steps the model's parameter vector (`values`,
    ModelParams.values) in place, with one element-wise update per step;
    `step` takes each parameter tensor's gradient, keyed by the tensor.
    """

    def __init__(self, params: ModelParams, config: TrainConfig):
        if any(t.data.base is not params.values for t in params.tensors):
            raise ValueError("a parameter tensor no longer views the model's parameter vector")
        self.tensors = params.tensors
        self.values = params.values
        self.lr = config.lr0
        self.weight_decay = config.weight_decay
        self.beta1, self.beta2 = config.betas
        self.eps = config.eps
        self.step_count = 0
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        g = np.concatenate([grads[t] for t in self.tensors], axis=None)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        self.values -= self.lr * (update + self.weight_decay * self.values)


def train(
    params: ModelParams,
    train_data: list[Example],
    val_data: list[Example],
    config: TrainConfig,
) -> tuple[ModelParams, list[HistoryEntry]]:
    """Minibatch training; trains `params` in place and returns it, restored
    to the best epoch (kept as a copy of its parameter vector), with the
    history.

    The training and validation sets are each one MixtureBatch, built once
    per call. Each minibatch is the slice take(rows) of the training batch:
    every distinct molecule of the slice is embedded once, in one
    disjoint-union GNN pass per pathway, and shared by the mixtures that
    contain it (gradients accumulate through the shared subgraph). A slice
    that holds all of a pathway's graphs uses the training batch's own
    unions for it, and validation reuses the validation batch's. With the
    module logger at DEBUG, each epoch logs one JSON event: losses, lr,
    wall seconds, per-step means of tape nodes, the global L2 norm of the
    parameter gradients and the number of distinct molecules embedded, and
    the unions built (by the step or validation pass whose take or forward
    builds them) and reused (at every later use) over the epoch.
    """
    if not train_data or not val_data:
        raise ValueError("training and validation sets must be non-empty")
    tensors = params.tensors
    optimizer = AdamW(params, config)
    rng = np.random.default_rng(config.seed)
    train_batch = batch_of(params, [mix for mix, _ in train_data])
    train_targets = np.array([target for _, target in train_data])
    val_batch = batch_of(params, [mix for mix, _ in val_data])
    val_targets = np.array([target for _, target in val_data])

    history: list[HistoryEntry] = []
    best_values = params.values.copy()
    best_val = math.inf
    since_best = 0  # epochs since the last strict improvement of best_val

    debug = logger.isEnabledFor(logging.DEBUG)
    for epoch in range(config.max_epochs):
        if debug:
            epoch_start = time.perf_counter()
            tape_nodes, grad_norms, embedded = [], [], []
            held = _union_count(train_batch) + _union_count(val_batch)
            used = own = 0  # unions used by the steps and validation; built by the slices for themselves
        lr_used = optimizer.lr
        order = rng.permutation(len(train_data))
        epoch_squares = 0.0
        for start in range(0, len(order), config.batch_size):
            rows = order[start : start + config.batch_size]
            batch = train_batch.take(rows)
            with Tape() as tape:
                tape.watch(*tensors)
                preds = forward_columns(params, batch)
                loss = ad.mse(preds, Tensor(train_targets[rows]))
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch starting at {start}, lr {optimizer.lr}"
                )
            grads = ad.backward(tape, loss)
            optimizer.step(grads)
            epoch_squares += loss_value * rows.size
            if debug:
                tape_nodes.append(len(tape))
                squares = sum(float(np.vdot(grads[t], grads[t])) for t in tensors)
                grad_norms.append(math.sqrt(squares))
                embedded.append(len(batch.solvent_graphs) + len(batch.salt_graphs))
                used += _union_count(batch)
                own += sum(len(u) for p, u in batch.unions.items() if u is not train_batch.unions.get(p))

        train_loss = epoch_squares / len(train_data)
        val_preds = forward_columns(params, val_batch).data
        with np.errstate(over="ignore"):  # a non-finite loss is refused below
            val_loss = float(np.mean((val_preds - val_targets) ** 2))
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss {val_loss} at epoch {epoch}, lr {lr_used}")
        history.append(HistoryEntry(epoch, train_loss, val_loss, lr_used))
        if debug:
            used += _union_count(val_batch)
            built = own + _union_count(train_batch) + _union_count(val_batch) - held
            logger.debug(
                json.dumps(
                    {
                        "event": "epoch",
                        "epoch": epoch,
                        "train_loss": train_loss,
                        "val_loss": val_loss,
                        "lr": lr_used,
                        "wall_s": time.perf_counter() - epoch_start,
                        "tape_nodes_per_step": float(np.mean(tape_nodes)),
                        "grad_norm": float(np.mean(grad_norms)),
                        "molecules_embedded_per_step": float(np.mean(embedded)),
                        "unions_built": built,
                        "unions_reused": used - built,
                    }
                )
            )

        if val_loss < best_val:
            best_val = val_loss
            best_values = params.values.copy()
            since_best = 0
            continue
        since_best += 1
        if since_best % max(config.scheduler_patience, 1) == 0:
            optimizer.lr *= config.scheduler_factor
        if since_best >= max(config.early_stop_patience, 1):
            logger.info(
                "early stop at epoch %d (best epoch %d, val loss %.6g)",
                epoch,
                epoch - since_best,
                best_val,
            )
            break

    params.values[...] = best_values
    return params, history


def _union_count(batch: MixtureBatch) -> int:
    """Unions the batch holds, over both pathways."""
    return sum(len(unions) for unions in batch.unions.values())


def write_history(history: list[HistoryEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for entry in history:
            writer.writerow(
                [entry.epoch, repr(entry.train_loss), repr(entry.val_loss), repr(entry.lr)]
            )


def _samples(targets, preds) -> tuple[np.ndarray, np.ndarray]:
    """The two samples as float arrays; MetricError unless they are 1-D,
    of one length >= 2 and finite."""
    x = np.asarray(targets, dtype=np.float64)
    y = np.asarray(preds, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricError(f"need two equal-length 1-D samples, got {x.shape} and {y.shape}")
    bad = np.count_nonzero(~np.isfinite(x)) + np.count_nonzero(~np.isfinite(y))
    if bad:
        raise MetricError(f"samples must be finite, got {bad} non-finite values")
    return x, y


def pearson(targets, preds) -> float:
    """Pearson correlation (population convention)."""
    x, y = _samples(targets, preds)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        dx = x - x.mean()
        dy = y - y.mean()
        var_x = float(np.dot(dx, dx))
        var_y = float(np.dot(dy, dy))
    if not math.isfinite(var_x * var_y):
        raise MetricError(f"pearson overflows: sample variances {var_x} and {var_y}")
    if var_x == 0.0 or var_y == 0.0:
        raise MetricError("pearson is undefined for a zero-variance sample")
    return float(np.dot(dx, dy) / math.sqrt(var_x * var_y))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties share the average of their positions."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (((ends - counts) + (ends - 1)) / 2.0 + 1.0)[group]


def spearman(targets, preds) -> float:
    """Spearman rank correlation with average ranks for ties.

    A side whose ranks have zero variance (all values tied) yields 0.0
    with a warning rather than an error.
    """
    x, y = _samples(targets, preds)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        logger.warning("spearman: a sample is entirely tied; returning 0.0")
        return 0.0
    return pearson(rx, ry)


def evaluate(params: ModelParams, examples: list[Example]) -> MetricsReport:
    if len(examples) < 2:
        raise ValueError(f"evaluate needs at least two examples, got {len(examples)}")
    targets = np.array([target for _, target in examples])
    preds = forward_batch(params, [mix for mix, _ in examples]).data
    bad = np.flatnonzero(~np.isfinite(preds))
    if bad.size:
        raise MetricError(
            f"model made {bad.size} non-finite predictions of {len(examples)}, "
            f"the first for example {bad[0]}"
        )
    with np.errstate(over="ignore"):  # an overflowing mse is refused below
        mse = float(np.mean((preds - targets) ** 2))
    report = MetricsReport(
        pearson_rp=pearson(targets, preds),
        spearman_rs=spearman(targets, preds),
        mse=mse,
        n=len(examples),
    )
    bad_metrics = [name for name, value in asdict(report).items() if not math.isfinite(value)]
    if bad_metrics:
        raise MetricError(f"non-finite metrics: {', '.join(bad_metrics)}")
    return report
