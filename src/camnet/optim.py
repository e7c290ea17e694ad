"""Loss, optimizers, and the deterministic training loop.

Softmax and cross-entropy are fused: the model's forward returns
probabilities, but sparse_ce's gradient is taken w.r.t. the pre-softmax
logits ((p - onehot)/N), which is what model.backward expects.  This
keeps gradient checks tight even when predictions saturate.

Training computes in float32 against float64 master weights (mixed
precision, Micikevicius et al., arXiv:1710.03740): `train` runs every
forward, backward and validation pass on a float32 copy of the
parameters, refreshed from the masters after each step, and
`optimizer_step` applies the float32 gradients to the float64 masters
and their optimizer state.  The caller's model stays float64.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as nn
from .errors import DataError, DivergenceError, ShapeError
from .rng import Rng, derive_seed

OPTIMIZERS = ("adam", "adagrad", "sgd")
COMPUTE_DTYPE = np.dtype(np.float32)  # of train's forward and backward passes


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-4  # paper-tuned range [1e-5, 1e-3]
    batch_size: int = 32
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True

    def validate(self):
        if self.learning_rate < 0:
            raise DataError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise DataError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)
    weight_path: str | None = None

    CSV_HEADER = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc", "seconds")

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(self.CSV_HEADER)
            for r in self.rows:
                w.writerow([r.epoch, repr(r.train_loss), repr(r.train_acc),
                            repr(r.val_loss), repr(r.val_acc), f"{r.seconds:.3f}"])


def sparse_ce(probs, labels):
    """Mean cross-entropy from softmax probabilities and integer labels.

    Returns (loss, grad) where grad is w.r.t. the pre-softmax logits:
    (p - onehot) / N.  Probabilities are clamped to >= 1e-12 in the log.
    """
    p = np.asarray(probs, dtype=np.float64)
    n, k = p.shape
    labels = list(labels)
    if len(labels) != n:
        raise ShapeError(f"{len(labels)} labels for batch of {n}")
    for i, lab in enumerate(labels):
        if not 0 <= lab < k:
            raise DataError(f"label {lab} out of range [0,{k}) at index {i}")
    idx = np.asarray(labels)
    picked = p[np.arange(n), idx]
    loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = p.copy()
    grad[np.arange(n), idx] -= 1.0
    return loss, grad / n


def init_opt_state(model: nn.Model, kind: str) -> dict:
    """Per-parameter accumulators keyed by (layer_index, name)."""
    state = {"t": 0}
    for li, name, arr in model.param_items():
        if kind == "adam":
            state[(li, name)] = (np.zeros_like(arr), np.zeros_like(arr))
        elif kind == "adagrad":
            state[(li, name)] = np.zeros_like(arr)
    return state


def optimizer_step(kind: str, model: nn.Model, grads: nn.Gradients, state: dict,
                   lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """In-place parameter update; state mutated accordingly.  Gradients of
    a lower precision are upcast (exactly) to the parameters' dtype first."""
    state["t"] += 1
    t = state["t"]
    for li, name, p in model.param_items():
        g = grads.params[li][name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param {p.shape} "
                             f"(layer {li}, {name})")
        g = g.astype(p.dtype, copy=False)
        if kind == "sgd":
            p -= lr * g
        elif kind == "adagrad":
            acc = state[(li, name)]
            acc += g * g
            p -= lr * g / (np.sqrt(acc) + eps)
        elif kind == "adam":
            m, v = state[(li, name)]
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            # p -= lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected
            # m_hat, v_hat; written with one temporary to limit churn
            denom = np.sqrt(v / (1 - beta2**t))
            denom += eps
            np.divide(m, denom, out=denom)
            denom *= lr / (1 - beta1**t)
            p -= denom
        else:
            raise DataError(f"unknown optimizer {kind!r}")


def _to_batch(images, indices):
    # (H, W, C) images -> (N, C, H, W)
    return np.stack([np.moveaxis(images[i], -1, 0) for i in indices])


def _compute_copy(model: nn.Model) -> nn.Model:
    """The model with COMPUTE_DTYPE copies of its parameters."""
    params = [{k: a.astype(COMPUTE_DTYPE) for k, a in p.items()} for p in model.params]
    return nn.Model(model.spec, params, model.layer_shapes)


def _refresh(work: nn.Model, model: nn.Model) -> None:
    """Round the master parameters of `model` into `work`'s copies in place,
    after each optimizer step."""
    for (_, _, dst), (_, _, src) in zip(work.param_items(), model.param_items()):
        np.copyto(dst, src)


def evaluate(model: nn.Model, images, labels, batch_size=32):
    """Eval-mode loss and accuracy over a dataset."""
    total_loss = 0.0
    correct = 0
    n = len(images)
    for start in range(0, n, batch_size):
        idx = range(start, min(start + batch_size, n))
        x = _to_batch(images, idx)
        y = [labels[i] for i in idx]
        probs = nn.forward(model, x)
        loss, _ = sparse_ce(probs, y)
        total_loss += loss * len(y)
        correct += int((probs.argmax(axis=1) == np.asarray(y)).sum())
    return total_loss / n, correct / n


def train(model: nn.Model, train_set, val_set, config: TrainConfig,
          augment=None) -> TrainReport:
    """Deterministic epoch loop: seeded shuffle (seed ^ epoch), mini-batches,
    train-mode forward, fused loss gradient, optimizer step, then eval-mode
    validation metrics.  The passes run in COMPUTE_DTYPE on a copy of the
    parameters; `model`'s own float64 parameters are the masters that the
    optimizer updates.

    train_set / val_set are data.LabeledDataset instances.  When `augment`
    is a (chain_fn, config) style callable taking (image, rng), each train
    image is transformed per epoch with an rng derived from
    (config.seed, epoch, item index); validation data is never augmented.
    """
    from .tuning import keep_malloc_pages
    keep_malloc_pages()

    config.validate()
    if not train_set.images or not val_set.images:
        raise DataError("train and validation sets must be non-empty")
    k = len(model.spec.class_names)
    for lab in train_set.labels + val_set.labels:
        if not 0 <= lab < k:
            raise DataError(f"label {lab} out of model's class range [0,{k})")

    state = init_opt_state(model, config.optimizer)
    work = _compute_copy(model)
    report = TrainReport()
    n = len(train_set.images)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = list(range(n))
        if config.shuffle:
            Rng(config.seed ^ epoch).shuffle(order)

        epoch_loss = 0.0
        epoch_correct = 0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            if augment is not None:
                imgs = [augment(train_set.images[i],
                                Rng(derive_seed(config.seed, epoch, i)))
                        for i in idx]
                x = np.stack([np.moveaxis(im, -1, 0) for im in imgs])
            else:
                x = _to_batch(train_set.images, idx)
            y = [train_set.labels[i] for i in idx]

            probs = nn.forward(work, x, train_mode=True,
                               dropout_seed=derive_seed(config.seed, epoch, b, 1),
                               capture=True)
            loss, dlogits = sparse_ce(probs, y)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {b}")
            grads = nn.backward(work, dlogits, need_input_grad=False)
            optimizer_step(config.optimizer, model, grads, state,
                           config.learning_rate, config.beta1, config.beta2,
                           config.eps)
            _refresh(work, model)
            work.cache = grads = None  # freed before the next forward builds its own
            epoch_loss += loss * len(y)
            epoch_correct += int((probs.argmax(axis=1) == np.asarray(y)).sum())

        val_loss, val_acc = evaluate(work, val_set.images, val_set.labels,
                                     config.batch_size)
        report.rows.append(EpochRow(
            epoch=epoch,
            train_loss=epoch_loss / n,
            train_acc=epoch_correct / n,
            val_loss=val_loss,
            val_acc=val_acc,
            seconds=time.perf_counter() - t0,
        ))
    return report
