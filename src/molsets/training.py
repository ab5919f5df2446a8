"""Training loop, optimizer, LR scheduling, early stopping, and metrics.

The protocol: AdamW (decoupled weight decay) from an initial learning
rate of 1e-3 with weight decay 1e-4, a plateau scheduler that halves the
learning rate after 10 epochs without validation improvement, and early
stopping after 20 such epochs, restoring the parameters from the epoch
with the lowest validation loss. Training updates the given parameters
in place and returns them restored to that epoch. The loop is
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
from .model import MixtureInput, ModelParams, forward_batch, named_parameters

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
        for name, least in (
            ("max_epochs", 1),
            ("batch_size", 1),
            ("scheduler_patience", 0),
            ("early_stop_patience", 0),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("lr0", "weight_decay", "eps", "scheduler_factor"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        betas = self.betas
        if not (
            isinstance(betas, (list, tuple))
            and len(betas) == 2
            and all(_is_number(b) and 0 <= b < 1 for b in betas)
        ):
            raise ValueError(f"betas must be a pair of numbers in [0, 1), got {betas!r}")
        self.betas = tuple(betas)


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


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


def mse_loss(preds: Tensor, targets: Tensor) -> Tensor:
    """Mean squared error over 1-D tensors; differentiable."""
    if preds.data.shape != targets.data.shape or preds.data.ndim != 1:
        raise ad.DimensionError(
            f"mse_loss shapes {preds.data.shape} and {targets.data.shape}"
        )
    if preds.data.size < 1:
        raise ad.DimensionError("mse_loss of empty vectors")
    return ad.mse(preds, targets)


class AdamW:
    """Adam with decoupled weight decay:
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    The tensors' data is gathered, in the order given, into one float64
    vector `values`, and each tensor's `.data` becomes a view of its
    slice, so one element-wise update of `values` steps them all.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.001,
        weight_decay: float = 0.0001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.values = np.concatenate([p.data for p in self.params], axis=None)
        offset = 0
        for p in self.params:
            p.data = self.values[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        g = np.concatenate([grads[p] for p in self.params], axis=None)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        self.values -= self.lr * (update + self.weight_decay * self.values)


class PlateauScheduler:
    """Multiply the optimizer lr by `factor` after `patience` consecutive
    epochs without a strict improvement of the best validation loss."""

    def __init__(self, optimizer: AdamW, factor: float = 0.5, patience: int = 10):
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.best = math.inf
        self.stale_epochs = 0

    def step(self, val_loss: float) -> bool:
        """Returns True when the learning rate was reduced this epoch."""
        if val_loss < self.best:
            self.best = val_loss
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        if self.stale_epochs >= self.patience:
            self.optimizer.lr *= self.factor
            self.stale_epochs = 0
            return True
        return False


def early_stopping(val_loss_history: list[float], patience: int = 20) -> tuple[bool, int]:
    """(stop now?, index of the best epoch). Improvement means strictly lower."""
    if not val_loss_history:
        raise ValueError("empty validation history")
    best_epoch = int(np.argmin(val_loss_history))
    since_best = len(val_loss_history) - 1 - best_epoch
    return since_best >= max(patience, 1), best_epoch


def _predictions(params: ModelParams, examples: list[Example]) -> np.ndarray:
    return forward_batch(params, [mix for mix, _ in examples]).data


def _validation_loss(params: ModelParams, examples: list[Example]) -> float:
    targets = np.array([target for _, target in examples])
    return float(np.mean((_predictions(params, examples) - targets) ** 2))


def train(
    params: ModelParams,
    train_data: list[Example],
    val_data: list[Example],
    config: TrainConfig,
) -> tuple[ModelParams, list[HistoryEntry]]:
    """Minibatch training; trains `params` in place and returns it, restored
    to the best epoch (kept as a copy of the optimizer's parameter vector),
    with the history.

    Each minibatch is one forward_batch: every distinct molecule of the
    batch is embedded once, in one disjoint-union GNN pass per pathway,
    and shared by the mixtures that contain it (gradients accumulate
    through the shared subgraph). With the module logger at DEBUG, each
    epoch logs one JSON event: losses, lr, wall seconds, and per-step
    means of tape nodes, the global L2 norm of the parameter gradients
    and the number of distinct molecules embedded.
    """
    if not train_data or not val_data:
        raise ValueError("training and validation sets must be non-empty")
    tensors = [t for _, t in named_parameters(params)]
    optimizer = AdamW(
        tensors,
        lr=config.lr0,
        weight_decay=config.weight_decay,
        betas=config.betas,
        eps=config.eps,
    )
    scheduler = PlateauScheduler(optimizer, config.scheduler_factor, config.scheduler_patience)
    rng = np.random.default_rng(config.seed)

    history: list[HistoryEntry] = []
    val_losses: list[float] = []
    best_values = optimizer.values.copy()
    best_val = math.inf

    debug = logger.isEnabledFor(logging.DEBUG)
    for epoch in range(config.max_epochs):
        if debug:
            epoch_start = time.perf_counter()
            tape_nodes, grad_norms, embedded = [], [], []
        lr_used = optimizer.lr
        order = rng.permutation(len(train_data))
        epoch_squares = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_data[i] for i in order[start : start + config.batch_size]]
            with Tape() as tape:
                tape.watch(*tensors)
                preds = forward_batch(params, [mix for mix, _ in batch])
                targets = Tensor(np.array([target for _, target in batch]))
                loss = mse_loss(preds, targets)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise TrainingError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch starting at {start}, lr {optimizer.lr}"
                )
            grads = ad.backward(tape, loss)
            optimizer.step(grads)
            epoch_squares += loss_value * len(batch)
            if debug:
                tape_nodes.append(len(tape))
                squares = sum(float(np.vdot(grads[t], grads[t])) for t in tensors)
                grad_norms.append(math.sqrt(squares))
                embedded.append(
                    len({g for mix, _ in batch for g, _ in mix.solvents})
                    + len({mix.salt for mix, _ in batch})
                )

        train_loss = epoch_squares / len(train_data)
        val_loss = _validation_loss(params, val_data)
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss {val_loss} at epoch {epoch}, lr {lr_used}")
        history.append(HistoryEntry(epoch, train_loss, val_loss, lr_used))
        val_losses.append(val_loss)
        if debug:
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
                    }
                )
            )

        if val_loss < best_val:
            best_val = val_loss
            best_values = optimizer.values.copy()

        scheduler.step(val_loss)
        stop, best_epoch = early_stopping(val_losses, config.early_stop_patience)
        if stop:
            logger.info(
                "early stop at epoch %d (best epoch %d, val loss %.6g)",
                epoch,
                best_epoch,
                best_val,
            )
            break

    optimizer.values[...] = best_values
    return params, history


def write_history(history: list[HistoryEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for entry in history:
            writer.writerow(
                [entry.epoch, repr(entry.train_loss), repr(entry.val_loss), repr(entry.lr)]
            )


def pearson(targets, preds) -> float:
    """Pearson correlation (population convention)."""
    x = np.asarray(targets, dtype=np.float64)
    y = np.asarray(preds, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricError(f"need two equal-length 1-D samples, got {x.shape} and {y.shape}")
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
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(targets, preds) -> float:
    """Spearman rank correlation with average ranks for ties.

    A side whose ranks have zero variance (all values tied) yields 0.0
    with a warning rather than an error.
    """
    x = np.asarray(targets, dtype=np.float64)
    y = np.asarray(preds, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricError(f"need two equal-length 1-D samples, got {x.shape} and {y.shape}")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        logger.warning("spearman: a sample is entirely tied; returning 0.0")
        return 0.0
    return pearson(rx, ry)


def evaluate(params: ModelParams, examples: list[Example]) -> MetricsReport:
    targets = np.array([target for _, target in examples])
    preds = _predictions(params, examples)
    bad = np.flatnonzero(~np.isfinite(preds))
    if bad.size:
        raise MetricError(
            f"model made {bad.size} non-finite predictions of {len(examples)}, "
            f"the first for example {bad[0]}"
        )
    report = MetricsReport(
        pearson_rp=pearson(targets, preds),
        spearman_rs=spearman(targets, preds),
        mse=float(np.mean((preds - targets) ** 2)),
        n=len(examples),
    )
    bad_metrics = [name for name, value in asdict(report).items() if not math.isfinite(value)]
    if bad_metrics:
        raise MetricError(f"non-finite metrics: {', '.join(bad_metrics)}")
    return report
