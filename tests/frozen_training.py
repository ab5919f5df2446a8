"""The training loop that slicing one dataset batch per step replaced,
frozen as the equivalence reference for the tests.

`train_reference` is `molsets.training.train` as it stood before: every
minibatch and every validation pass is one `forward_batch` of its
mixtures, so each numbers its graphs in its own first-seen order and
builds its unions afresh. The DEBUG epoch event is left out; everything
else (shuffle, AdamW, plateau scheduler, early stopping, restoring the
best epoch) is verbatim. `PlateauScheduler`, `early_stopping` and
`mse_loss` are the loss and the two plateau rules that `train` used
before one stale-epoch counter replaced them, and `average_ranks` is the
tie loop that one `np.unique` pass replaced in `_average_ranks`, each
copied verbatim. Not a test module: pytest does not collect it.
"""

import math

import numpy as np

from molsets import autodiff as ad
from molsets.autodiff import Tape, Tensor
from molsets.model import forward_batch, named_parameters
from molsets.training import AdamW, HistoryEntry, TrainingError


def mse_loss(preds: Tensor, targets: Tensor) -> Tensor:
    """Mean squared error over 1-D tensors; differentiable."""
    if preds.data.shape != targets.data.shape or preds.data.ndim != 1:
        raise ad.DimensionError(
            f"mse_loss shapes {preds.data.shape} and {targets.data.shape}"
        )
    if preds.data.size < 1:
        raise ad.DimensionError("mse_loss of empty vectors")
    return ad.mse(preds, targets)


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


def average_ranks(values: np.ndarray) -> np.ndarray:
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


def _validation_loss(params, examples):
    targets = np.array([target for _, target in examples])
    preds = forward_batch(params, [mix for mix, _ in examples]).data
    return float(np.mean((preds - targets) ** 2))


def train_reference(params, train_data, val_data, config):
    if not train_data or not val_data:
        raise ValueError("training and validation sets must be non-empty")
    tensors = [t for _, t in named_parameters(params)]
    optimizer = AdamW(params, config)
    scheduler = PlateauScheduler(optimizer, config.scheduler_factor, config.scheduler_patience)
    rng = np.random.default_rng(config.seed)

    history = []
    val_losses = []
    best_values = optimizer.values.copy()
    best_val = math.inf

    for epoch in range(config.max_epochs):
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

        train_loss = epoch_squares / len(train_data)
        val_loss = _validation_loss(params, val_data)
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss {val_loss} at epoch {epoch}, lr {lr_used}")
        history.append(HistoryEntry(epoch, train_loss, val_loss, lr_used))
        val_losses.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_values = optimizer.values.copy()

        scheduler.step(val_loss)
        stop, _ = early_stopping(val_losses, config.early_stop_patience)
        if stop:
            break

    optimizer.values[...] = best_values
    return params, history
