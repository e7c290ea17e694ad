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
Validation (`evaluate`) scores through `model.predict`, as `eval` does.

`train` runs under `tuning.one_blas_thread()`: each batch is one
`model.train_step`, whose shards of model.SHARD images each run forward,
loss gradient rows and backward as one task on the tuning pool, and
`optimizer_step` updates the masters in pieces of UPDATE_CHUNK elements
on the same pool, so the trained bytes do not depend on the worker count
or BLAS threads.  The step's loss is checked before `optimizer_step`: a
non-finite one raises DivergenceError with the masters as the previous
step left them.  A non-finite validation loss, which an epoch's last
update can leave, raises DivergenceError too.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import data
from . import model as nn
from . import tuning
from .errors import DataError, DivergenceError, ShapeError
from .rng import Rng, derive_seed

OPTIMIZERS = ("adam", "adagrad", "sgd")
COMPUTE_DTYPE = np.dtype(np.float32)  # of train's forward and backward passes
# Adam's published defaults (Kingma & Ba, arXiv:1412.6980); EPS also
# keeps Adagrad's denominator off zero
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-4  # paper-tuned range [1e-5, 1e-3]
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0

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
    return loss, logit_grad(p, idx, n)


def logit_grad(probs, labels, n):
    """sparse_ce's gradient rows for `probs` and their integer labels, in
    a batch of n: (p - onehot) / n, in float64."""
    grad = np.array(probs, dtype=np.float64)
    grad[np.arange(len(grad)), labels] -= 1.0
    return grad / n


def init_opt_state(model: nn.Model, kind: str) -> dict:
    """Per-parameter accumulators keyed by (layer_index, name)."""
    state = {"t": 0}
    for li, name, arr in model.param_items():
        if kind == "adam":
            state[(li, name)] = (np.zeros_like(arr), np.zeros_like(arr))
        elif kind == "adagrad":
            state[(li, name)] = np.zeros_like(arr)
    return state


# Elements of one piece of the optimizer update: 256 KiB of float64 per
# array.  On vgg-nano's Adam step with two workers, 32768 to 262144 were
# within noise of each other (12-14 ms), 8192 took 37 ms, and one piece
# per parameter 33 ms (see CHANGES.md).
UPDATE_CHUNK = 32768


def optimizer_step(kind: str, model: nn.Model, grads: nn.Gradients, state: dict,
                   lr: float) -> None:
    """In-place parameter update; state mutated accordingly.  Gradients of
    a lower precision are upcast (exactly) to the parameters' dtype first.

    Every parameter is updated in pieces of UPDATE_CHUNK elements, spread
    over the tuning pool.  Each element gets the same ufuncs in the same
    order whatever piece it lands in, so the result does not depend on
    the pieces or the worker count.
    """
    if kind not in OPTIMIZERS:
        raise DataError(f"unknown optimizer {kind!r}")
    state["t"] += 1
    t = state["t"]
    pieces = []
    for li, name, p in model.param_items():
        g = grads.params[li][name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param {p.shape} "
                             f"(layer {li}, {name})")
        acc = state.get((li, name), ())
        acc = acc if isinstance(acc, tuple) else (acc,)  # Adam keeps (m, v)
        if not all(a.flags.c_contiguous for a in (p, *acc)):
            # reshape(-1) would copy them, and the update would be lost
            raise ShapeError(f"parameter (layer {li}, {name}) or its state "
                             "is not C-contiguous")
        flat = [a.reshape(-1) for a in (p, g, *acc)]
        pieces += [[a[s:s + UPDATE_CHUNK] for a in flat]
                   for s in range(0, p.size, UPDATE_CHUNK)]

    def update(piece):
        p, g, *acc = piece
        g = g.astype(p.dtype, copy=False)
        if kind == "sgd":
            p -= lr * g
        elif kind == "adagrad":
            acc, = acc
            acc += g * g
            p -= lr * g / (np.sqrt(acc) + EPS)
        else:
            m, v = acc
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            # p -= lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected
            # m_hat, v_hat; written with one temporary to limit churn
            denom = np.sqrt(v / (1 - BETA2**t))
            denom += EPS
            np.divide(m, denom, out=denom)
            denom *= lr / (1 - BETA1**t)
            p -= denom

    tuning.parallel_map(update, pieces)


def _compute_copy(model: nn.Model) -> nn.Model:
    """The model with COMPUTE_DTYPE copies of its parameters."""
    params = [{k: a.astype(COMPUTE_DTYPE) for k, a in p.items()} for p in model.params]
    return nn.Model(model.spec, params, model.layer_shapes)


def _refresh(work: nn.Model, model: nn.Model) -> None:
    """Round the master parameters of `model` into `work`'s copies in place,
    after each optimizer step.  A master too large for COMPUTE_DTYPE
    becomes inf without a warning: the next step's loss is then
    non-finite, and that DivergenceError is what gets reported."""
    with np.errstate(over="ignore"):
        for (_, _, dst), (_, _, src) in zip(work.param_items(), model.param_items()):
            np.copyto(dst, src)


def evaluate(model: nn.Model, images, labels):
    """Eval-mode loss and accuracy over a dataset of (H, W, C) images,
    scored by model.predict with one sparse_ce over all rows."""
    probs = nn.predict(model, (np.moveaxis(img, -1, 0) for img in images))
    loss, _ = sparse_ce(probs, labels)
    correct = (probs.argmax(axis=1) == np.asarray(labels)).sum()
    return loss, int(correct) / len(images)


def train(model: nn.Model, train_set, val_set, config: TrainConfig,
          augment=None) -> TrainReport:
    """Deterministic epoch loop: seeded shuffle (seed ^ epoch), mini-batches,
    train-mode forward, fused loss gradient, optimizer step, then eval-mode
    validation metrics.  The passes run in COMPUTE_DTYPE on a copy of the
    parameters; `model`'s own float64 parameters are the masters that the
    optimizer updates.

    train_set / val_set are data.LabeledDataset instances.  Their images
    are read by index (train) and in order (validation), one batch or
    predict chunk at a time, so with data.NormalizedImages splits only
    the images in use are float64.  When `augment`
    is a data.AugmentConfig, each train image goes through
    data.augment_chain per epoch with an rng derived from
    (config.seed, epoch, item index); validation data is never augmented.
    """
    tuning.keep_malloc_pages()

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

    with tuning.one_blas_thread():  # the pool computes in parallel instead
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            order = list(range(n))
            Rng(config.seed ^ epoch).shuffle(order)

            epoch_loss = 0.0
            epoch_correct = 0
            for b, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start:start + config.batch_size]
                imgs = [train_set.images[i] for i in idx]
                if augment is not None:
                    imgs = [data.augment_chain(im, augment,
                                               Rng(derive_seed(config.seed, epoch, i)))
                            for im, i in zip(imgs, idx)]
                x = np.stack([np.moveaxis(im, -1, 0) for im in imgs])  # (N, C, H, W)
                y = np.asarray([train_set.labels[i] for i in idx])

                probs, grads = nn.train_step(
                    work, x, lambda p, rows: logit_grad(p, y[rows], len(y)),
                    dropout_seed=derive_seed(config.seed, epoch, b, 1))
                # the step has computed its gradients; the masters are
                # untouched until its loss is known to be finite
                loss, _ = sparse_ce(probs, y)
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {b}")
                optimizer_step(config.optimizer, model, grads, state,
                               config.learning_rate)
                _refresh(work, model)
                grads = None  # freed before the next step builds its own
                epoch_loss += loss * len(y)
                epoch_correct += int((probs.argmax(axis=1) == y).sum())

            # a diverging last step leaves overflowed weights that only
            # validation runs on
            with np.errstate(**nn.DIVERGING):
                val_loss, val_acc = evaluate(work, val_set.images, val_set.labels)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
            report.rows.append(EpochRow(
                epoch=epoch,
                train_loss=epoch_loss / n,
                train_acc=epoch_correct / n,
                val_loss=val_loss,
                val_acc=val_acc,
                seconds=time.perf_counter() - t0,
            ))
    return report
