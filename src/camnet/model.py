"""Declarative model graph: layer specs, shape validation, forward with
activation capture, backward, presets, and the CAMF0001 weight format.

Each layer kind is one class that holds everything about it: its spec
token (canonical text and parsing follow from the dataclass fields), its
output-shape rule, which also checks the layer's own parameters, its
weight shape and fan-in, and its forward and backward.  Parsing,
validation, building, forward, forward_from and backward are each one
loop over the layers that calls these methods.

The last layer is always SoftmaxOutput.  `forward` returns a
ForwardCache of every layer output, the class probabilities last;
`backward` takes that cache and the upstream gradient w.r.t. the
PRE-softmax logits (softmax is fused with the loss, see optim.sparse_ce)
and returns gradients for every parameter plus every cached layer
output.  A capture is a value the caller holds: the Model keeps no
state of a pass, so passes on one model may run on several threads.
The saliency code runs backward stopped above its target layer and
without parameter gradients, and reads the activation gradients only.

`forward` and `backward` work on the batch they are given.  Training
steps through `train_step`, which runs each shard of SHARD images as one
task on the tuning pool: its train-mode forward, its rows of the loss
gradient and its backward, so each worker holds one shard's patch
matrices at a time, and each dies when its layer's backward has run.
A shard is a batch of its own for every layer but Dropout, whose masks
are the shard's slice of the whole batch's stream.  `predict` runs its
per-image conv stacks on the same pool.
"""

import itertools
import math
import os
import struct
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import ops, tuning
from .errors import (
    BuildError,
    ShapeError,
    SpecMismatchError,
    TruncatedWeightsError,
    WeightFormatError,
    WeightMagicError,
)
from .rng import Rng

WEIGHT_MAGIC = b"CAMF0001"


# ---------------------------------------------------------------------------
# layer kinds
#
# Kernels are looked up as `ops.<name>` each time a layer runs, never
# stored, so a replaced `ops` attribute (a tracer, a test's monkeypatch) is
# the one that runs.

class _Layer:
    """Shared rules of the layer kinds; the defaults fit a parameterless,
    shape-preserving layer.

    forward(x, p, i, cache, drop_rng) returns the output of layer i for a
    channels-last x, with p its parameter dict.  `forward` hands its
    ForwardCache (None in `predict` and `forward_from`, which keep
    nothing), a train-mode pass the layer's own dropout stream (None
    otherwise).
    backward(g, p, i, cache, need_input_grad, need_param_grads) takes the
    gradient w.r.t. the layer output and returns the gradient w.r.t. its
    input, cache.activations[i], and a dict of parameter gradients ({}
    when none are computed).
    """

    token = ""

    def canonical(self) -> str:
        args = [format_arg(getattr(self, f.name)) for f in fields(self)]
        return f"{self.token}({','.join(args)})" if args else self.token

    def out_shape(self, shape: tuple) -> tuple:
        """Output shape for an input of `shape` (no batch axis); a ShapeError
        when the layer or its parameters cannot take it."""
        return shape

    def weight_shape(self, in_shape: tuple):
        """(weights shape, fan-in), or None for a layer without parameters."""
        return None


def format_arg(v) -> str:
    """`v` as a spec token or run.txt value: a float prints as %g, as in
    Dropout(0.5), unless %g would round it, so the text reads back as `v`."""
    if isinstance(v, float) and float(f"{v:g}") == v:
        return f"{v:g}"
    return str(v)


@dataclass(frozen=True)
class Conv(_Layer):
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    token = "Conv"

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeError(f"Conv needs a (C,H,W) input, got {shape}")
        if min(self.out_channels, self.kernel, self.stride) < 1 or self.pad < 0:
            raise ShapeError("Conv needs channels, kernel and stride >= 1 and pad >= 0")
        oh, ow = ops.conv_output_hw(shape[1], shape[2], self.kernel, self.kernel,
                                    self.stride, self.pad)
        return self.out_channels, oh, ow

    def weight_shape(self, in_shape):
        wshape = (self.out_channels, in_shape[0], self.kernel, self.kernel)
        return wshape, math.prod(wshape[1:])

    def forward(self, x, p, i, cache, drop_rng):
        if drop_rng is None:
            # only a train-mode pass keeps its patch matrices: its paired
            # backward computes every parameter gradient
            return ops.conv2d_nhwc(x, p["weights"], p["bias"], self.stride, self.pad)
        x, cache.conv_cols[i] = ops.conv2d_nhwc(
            x, p["weights"], p["bias"], self.stride, self.pad, return_cols=True)
        return x

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        g, gw, gb = ops.conv2d_backward_nhwc(
            cache.activations[i], p["weights"], self.stride, self.pad, g,
            need_input_grad=need_input_grad, cols=cache.conv_cols.pop(i, None),
            need_param_grads=need_param_grads)
        return g, ({"weights": gw, "bias": gb} if need_param_grads else {})


@dataclass(frozen=True)
class MaxPool2(_Layer):
    token = "MaxPool2"

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeError(f"MaxPool2 needs a (C,H,W) input, got {shape}")
        c, h, w = shape
        if h % 2 or w % 2:
            raise ShapeError(f"MaxPool2 needs even dims, got {h}x{w}")
        return c, h // 2, w // 2

    def forward(self, x, p, i, cache, drop_rng):
        return ops.maxpool2_nhwc(x)

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        return ops.maxpool2_backward_nhwc(cache.activations[i], g,
                                          out=cache.activations[i + 1]), {}


@dataclass(frozen=True)
class ReLU(_Layer):
    token = "ReLU"

    def forward(self, x, p, i, cache, drop_rng):
        return ops.relu(x)

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        return ops.relu_backward(cache.activations[i], g), {}


@dataclass(frozen=True)
class Flatten(_Layer):
    token = "Flatten"

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeError(f"Flatten needs a (C,H,W) input, got {shape}")
        return (math.prod(shape),)

    def forward(self, x, p, i, cache, drop_rng):
        # flatten in the public channel-major (C,H,W) order
        return ops._to_nchw(x).reshape(x.shape[0], -1)

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        n, h, w, c = cache.activations[i].shape
        return ops._to_nhwc(g.reshape(n, c, h, w)), {}


@dataclass(frozen=True)
class Dense(_Layer):
    units: int
    token = "Dense"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ShapeError(f"Dense needs a flat input, got {shape}")
        if self.units < 1:
            raise ShapeError("Dense needs units >= 1")
        return (self.units,)

    def weight_shape(self, in_shape):
        return (in_shape[0], self.units), in_shape[0]

    def forward(self, x, p, i, cache, drop_rng):
        return ops.dense(x, p["weights"], p["bias"])

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        g, gw, gb = ops.dense_backward(cache.activations[i], p["weights"], g,
                                       need_param_grads=need_param_grads)
        return g, ({"weights": gw, "bias": gb} if need_param_grads else {})


@dataclass(frozen=True)
class Dropout(_Layer):
    """Inverted dropout in a train-mode pass; the identity otherwise."""

    rate: float
    token = "Dropout"

    def out_shape(self, shape):
        if not 0.0 <= self.rate < 1.0:
            raise ShapeError(f"Dropout rate {self.rate} outside [0,1)")
        return shape

    def forward(self, x, p, i, cache, drop_rng):
        if drop_rng is None or self.rate == 0.0:
            return x
        keep = drop_rng.uniform_block(x.size).reshape(x.shape) >= self.rate
        mask = keep.astype(x.dtype)  # in x's dtype, or x * mask upcasts
        mask /= 1.0 - self.rate
        cache.dropout_masks[i] = mask
        return x * mask

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        mask = cache.dropout_masks.get(i)
        return (g if mask is None else g * mask), {}


@dataclass(frozen=True)
class SoftmaxOutput(_Layer):
    token = "Softmax"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ShapeError(f"SoftmaxOutput needs a flat input, got {shape}")
        return shape

    def forward(self, x, p, i, cache, drop_rng):
        return ops.softmax(x)

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        return g, {}  # fused with the loss: the upstream is the logit gradient


LayerSpec = Conv | MaxPool2 | ReLU | Flatten | Dense | Dropout | SoftmaxOutput
_KINDS = {kind.token: kind for kind in LayerSpec.__args__}


# ---------------------------------------------------------------------------
# model specs

@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple  # (C, H, W)
    layers: tuple
    class_names: tuple

    def canonical(self) -> str:
        c, h, w = self.input_shape
        layers = "|".join(l.canonical() for l in self.layers)
        return f"input={c}x{h}x{w};layers={layers};classes={','.join(self.class_names)}"


def parse_spec_text(text: str) -> ModelSpec:
    """Inverse of ModelSpec.canonical()."""
    try:
        parts = dict(part.split("=", 1) for part in text.strip().split(";"))
        c, h, w = (int(v) for v in parts["input"].split("x"))
        classes = tuple(parts["classes"].split(","))
        layers = tuple(_parse_layer(tok) for tok in parts["layers"].split("|"))
    except (KeyError, ValueError) as e:
        raise BuildError(f"cannot parse model spec text: {e}") from e
    return ModelSpec((c, h, w), layers, classes)


def _parse_layer(tok: str):
    """`Name` for a kind without fields, else `Name(arg,...)`, one arg per field."""
    name, paren, rest = tok.partition("(")
    kind = _KINDS.get(name)
    args = rest[:-1].split(",") if paren else []
    if kind is None or (paren and not rest.endswith(")")) or len(args) != len(fields(kind)):
        raise ValueError(f"unknown or malformed layer token {tok!r}")
    return kind(*(f.type(a) for f, a in zip(fields(kind), args)))


def validate_spec(spec: ModelSpec) -> list:
    """Propagate shapes through all layers; returns per-layer output shapes.

    Raises BuildError naming the first offending layer index, or a class
    name that holds a separator of the canonical text, which could not be
    read back from a weight file header.
    """
    for name in spec.class_names:
        if any(sep in name for sep in ",;\n"):
            raise BuildError(f"class name {name!r} holds ',', ';' or a line break, "
                             "which the weight file header uses as separators")
    layers = spec.layers
    if not layers or not isinstance(layers[-1], SoftmaxOutput):
        raise BuildError("last layer must be SoftmaxOutput")
    if sum(isinstance(l, SoftmaxOutput) for l in layers) != 1:
        raise BuildError("exactly one SoftmaxOutput is allowed")
    if min(spec.input_shape) < 1:
        raise BuildError(f"input dims must be >= 1, got {spec.input_shape}")

    shape = tuple(spec.input_shape)
    shapes = []
    for idx, layer in enumerate(layers):
        try:
            if isinstance(layer, Flatten) and not any(isinstance(l, Conv)
                                                      for l in layers[:idx]):
                raise ShapeError("Flatten must be preceded by at least one Conv")
            shape = layer.out_shape(shape)
        except ShapeError as e:
            raise BuildError(f"layer {idx} ({layer.canonical()}): {e}") from e
        shapes.append(shape)
    if shapes[-1][0] != len(spec.class_names):
        raise BuildError(
            f"final units {shapes[-1][0]} != number of classes {len(spec.class_names)}"
        )
    return shapes


def deepest_conv_index(spec: ModelSpec) -> int:
    idx = max((i for i, l in enumerate(spec.layers) if isinstance(l, Conv)), default=-1)
    if idx < 0:
        raise BuildError("model has no Conv layer")
    return idx


# ---------------------------------------------------------------------------
# materialized model

@dataclass
class ForwardCache:
    """Per-layer outputs of one `forward` pass, which returns it.

    activations[0] is the input batch; activations[i+1] the output of
    layer i, so activations[-1] holds the class probabilities.  4-d
    entries are stored channels-last (the internal compute layout); use
    activation_nchw / Gradients.activation_nchw for the public (N,C,H,W)
    view.  dropout_masks[i] holds the (already 1/(1-rate)-scaled) mask
    used by Dropout layer i during a train-mode pass, whose capture has
    train_mode set.  conv_cols[i] keeps the im2col patch matrix of Conv
    layer i from a train-mode capture until backward consumes it, so each
    dies when its layer's backward has run.  A later backward on the
    capture rebuilds each matrix with the same bytes, as a backward that
    computes parameter gradients on an eval-mode capture, which keeps
    none, does.  logit_rows[(i, k)] memoises the saliency code's
    read-only gradient of logit k at layer i's output, so each such
    backward runs once per capture.
    """

    activations: list
    train_mode: bool = False
    dropout_masks: dict = field(default_factory=dict)
    conv_cols: dict = field(default_factory=dict)
    logit_rows: dict = field(default_factory=dict)

    def activation_nchw(self, i: int) -> np.ndarray:
        """activations[i] in the public (N,C,H,W) layout when 4-d."""
        return _nchw(self.activations[i])


def _nchw(arr: np.ndarray) -> np.ndarray:
    return ops._to_nchw(arr) if arr.ndim == 4 else arr


@dataclass
class Model:
    spec: ModelSpec
    params: list  # per layer: dict of name -> ndarray ({} if parameterless)
    layer_shapes: list = field(default_factory=list)

    def param_items(self):
        """(layer_index, name, array) for every parameter, in canonical order."""
        for i, p in enumerate(self.params):
            for name in ("weights", "bias"):
                if name in p:
                    yield i, name, p[name]

    def num_params(self) -> int:
        return sum(a.size for _, _, a in self.param_items())

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, in which forward and backward compute."""
        return next((a.dtype for _, _, a in self.param_items()), np.dtype(np.float64))


def _make_model(spec: ModelSpec, rng: Rng | None, file_bytes: int | None = None
                ) -> Model:
    """Model with He-uniform weights drawn from rng and zero biases, or
    with uninitialised weights when rng is None.  With file_bytes, a spec
    whose CAMF tensors take more bytes than that is a TruncatedWeightsError,
    raised before anything is allocated."""
    shapes = validate_spec(spec)
    in_shapes = [tuple(spec.input_shape)] + shapes
    weight_shapes = [l.weight_shape(s) for l, s in zip(spec.layers, in_shapes)]
    if file_bytes is not None:
        # a weights and a bias tensor: each a u32 rank, u32 dims, f64 values
        need = sum(12 + 4 * len(ws[0]) + 8 * (math.prod(ws[0]) + out[0])
                   for ws, out in zip(weight_shapes, shapes) if ws is not None)
        if need > file_bytes:
            raise TruncatedWeightsError(
                f"the spec's tensors take {need} bytes, but the file holds "
                f"{file_bytes} after its header")
    params = []
    for weight_shape, out_shape in zip(weight_shapes, shapes):
        if weight_shape is None:
            params.append({})
            continue
        wshape, fan_in = weight_shape
        if rng is None:
            w = np.empty(wshape)
        else:
            bound = np.sqrt(6.0 / fan_in)
            w = ((2.0 * rng.uniform_block(math.prod(wshape)) - 1.0) * bound
                 ).reshape(wshape)
        params.append({"weights": w, "bias": np.zeros(out_shape[0])})
    return Model(spec=spec, params=params, layer_shapes=shapes)


def build_model(spec: ModelSpec, init_seed: int) -> Model:
    """He-uniform init (bound sqrt(6/fan_in)) for conv/dense weights, zero
    biases, fully determined by init_seed."""
    return _make_model(spec, Rng(init_seed))


def forward(model: Model, batch, train_mode: bool = False, dropout_seed: int = 0,
            first: int = 0, total: int | None = None) -> ForwardCache:
    """Run the network and return its capture: the ForwardCache of every
    layer output, whose activations[-1] are the softmax probabilities
    (N, K).  Pass it to `backward`, or to the saliency methods.

    In train_mode, inverted dropout is applied, driven by dropout_seed
    (one splitmix64 stream consumed across Dropout layers in order), and
    each Conv keeps its patch matrix for the backward.  The batch is cast
    to model.dtype, the dtype of every layer output.

    With `total`, the batch is images first.. of a train-mode batch of
    `total` images, and each Dropout draws the batch's slice of the block
    the whole batch would draw (the stream is counter-based, so the slice
    starts at its offset).  They place the dropout stream only: every
    other layer works on the images it is given, so a Dense GEMM rounds
    as one on these rows, which BLAS may run with another kernel than the
    whole batch's (see SHARD).
    """
    x = np.asarray(batch, dtype=model.dtype)
    expect = tuple(model.spec.input_shape)
    if x.ndim != 4 or x.shape[1:] != expect:
        raise ShapeError(f"batch shape {x.shape} does not match (N,)+{expect}")
    n = len(x)
    total = n if total is None else total
    if (first, total) != (0, n) and not (train_mode and 0 <= first and first + n <= total):
        raise ShapeError(f"a train-mode batch of {total} images has no images "
                         f"{first}..{first + n - 1}")
    x = ops._to_nhwc(x)
    cache = ForwardCache([x], train_mode)
    rngs = None
    if train_mode:
        rngs, drawn = [], 0
        for layer, shape in zip(model.spec.layers, model.layer_shapes):
            size = math.prod(shape)
            rngs.append(Rng(dropout_seed, drawn + first * size))
            if isinstance(layer, Dropout) and layer.rate > 0.0:
                drawn += total * size
    _run(model, x, 0, len(model.spec.layers), cache, rngs)
    return cache


# Images per shard of a train_step.  On a 128x128 vgg-nano batch of 32
# with two workers, 4, 8 and 16 images per shard were within noise of each
# other (180, 187 and 194 ms per float32 step), against 277 ms for the
# whole batch on two BLAS threads (see CHANGES.md).  At 8 a shard's
# smallest conv GEMM at 128x128 (the 16-channel convs, 8x64x64 rows) has
# 32768 rows, and sub-GEMMs of 2048 rows or more round as the whole
# batch's.  A full shard's Dense GEMMs on 8 rows gave the whole batch's
# bytes at every vgg-nano head shape checked on OpenBLAS 0.3.31.  A short
# last shard's need not: BLAS picks its kernel by the matrix shape, a
# GEMV for one row and a small-matrix kernel for a few.
SHARD = 8


# A diverging step overflows in its GEMMs; the non-finite probabilities
# it returns are what reports that (optim.train raises DivergenceError),
# not one numpy warning per kernel.  optim.train validates under it too.
DIVERGING = {"over": "ignore", "invalid": "ignore"}


def train_step(model: Model, batch, loss_grad, dropout_seed: int = 0):
    """One train-mode forward and backward of an (N,C,H,W) batch, shard by
    shard of SHARD images on the tuning pool.  Returns the probabilities
    (N, K) and the Gradients of every parameter (no activation gradients).

    Each shard is one task: `forward` of its images as a batch of their
    own, told their place in the batch for the dropout stream, then
    `backward` from loss_grad(probs, rows), the gradient w.r.t. the
    logits of batch rows `rows` (a slice) from their probabilities, as
    the whole batch's loss would give it.  So a shard's patch matrices
    live in its task only, and each dies when its layer's backward has
    run.  Each conv gradient is the sum of the tasks' in
    shard order; each Dense gradient comes from one ops.dense_backward on
    the gathered rows of its input and output gradient, as on the whole
    batch.  Where every shard is full and its conv GEMMs round as the
    whole batch's (at 128x128, see SHARD), the probabilities and the
    Dense gradients are a whole-batch pass's byte for byte, and the conv
    gradients differ from its in rounding only; a short last shard's
    head rounds as its own rows.  A task's result is the same whichever
    thread computes it, and the shards depend on SHARD only, so the
    bytes do not depend on the worker count.
    """
    layers = model.spec.layers
    convs = range(layers.index(Flatten()))  # every Conv, and no Dense
    dense = [i for i, layer in enumerate(layers) if isinstance(layer, Dense)]
    n = len(batch)

    def task(a):
        cache = forward(model, batch[a:a + SHARD], train_mode=True,
                        dropout_seed=dropout_seed, first=a, total=n)
        probs = cache.activations[-1]
        grads = backward(model, cache, loss_grad(probs, slice(a, a + len(probs))),
                         need_input_grad=False, need_param_grads=convs)
        return probs, grads.params, [(cache.activations[i], grads.activations[i + 1])
                                     for i in dense]

    with tuning.one_blas_thread(), np.errstate(**DIVERGING):  # also in the tasks
        done = tuning.parallel_map(task, range(0, n, SHARD))
        params = done[0][1]
        for i in convs:
            for name, total in params[i].items():
                for _, more, _ in done[1:]:
                    total += more[i][name]
        for k, i in enumerate(dense):
            x = np.concatenate([head[k][0] for *_, head in done])
            g = np.concatenate([head[k][1] for *_, head in done])
            _, gw, gb = ops.dense_backward(x, model.params[i]["weights"], g,
                                           need_input_grad=False)
            params[i] = {"weights": gw, "bias": gb}
    return np.concatenate([probs for probs, *_ in done]), Gradients(params, [])


# Images whose flat features `predict` stacks for one pass of the dense
# head: 8 MiB of features for a 128x128 vgg-nano, whatever the split
# size.  Chosen by a sweep of 8 to 256 over 60- and 480-image 128x128
# evals: 32 to 256 were within noise of each other, 8 and 16 slower.
PREDICT_CHUNK = 64


def predict(model: Model, images) -> np.ndarray:
    """Eval-mode softmax probabilities (N, K) of `images`: an (N,C,H,W)
    batch, or any iterable of (C,H,W) images, each cast to model.dtype.

    The layers up to and including the first with a flat output (the
    Flatten) run one image at a time, so the convs, ReLUs and pools work
    on cache-sized arrays; their features are those of a batch-1
    `forward`, byte for byte.  The head after it (Dense, ReLU, Dropout as
    the identity, Softmax) runs once per PREDICT_CHUNK images, so each
    Dense weight matrix is read once per chunk instead of once per image.
    Its GEMM rounds differently from a batch-1 forward's GEMV, so the
    probabilities can differ from `forward`'s in the last bits.  A chunk's
    per-image stacks run on the tuning pool, with OpenBLAS pinned to one
    thread; each image's features are the same whichever thread computes
    them.
    """
    layers = model.spec.layers
    flat = layers.index(Flatten())
    expect = tuple(model.spec.input_shape)

    def features(img):
        x = np.asarray(img, dtype=model.dtype)
        if x.shape != expect:
            raise ShapeError(f"image shape {x.shape} does not match {expect}")
        return _run(model, ops._to_nhwc(x[None]), 0, flat + 1, None, None)

    images = iter(images)
    probs = [np.empty((0, len(model.spec.class_names)), dtype=model.dtype)]
    with tuning.one_blas_thread():
        while chunk := list(itertools.islice(images, PREDICT_CHUNK)):
            feats = tuning.parallel_map(features, chunk)
            probs.append(_run(model, np.concatenate(feats), flat + 1, len(layers),
                              None, None))
    return np.concatenate(probs)


def _run(model: Model, x: np.ndarray, start: int, stop: int,
         cache: ForwardCache | None, drop_rngs: list | None) -> np.ndarray:
    """Layers start..stop-1 on a channels-last x, appending each output to
    cache.activations when capturing.  drop_rngs holds a train-mode pass's
    dropout stream of each layer, and is None otherwise."""
    layers, params = model.spec.layers, model.params
    for i in range(start, stop):
        x = layers[i].forward(x, params[i], i, cache,
                              None if drop_rngs is None else drop_rngs[i])
        if cache is not None:
            cache.activations.append(x)
    return x


@dataclass
class Gradients:
    """Backward-pass results: per-layer parameter gradient dicts plus the
    gradient w.r.t. every cached activation (same indexing as the cache;
    4-d entries channels-last, see activation_nchw)."""

    params: list
    activations: list

    def activation_nchw(self, i: int) -> np.ndarray:
        return _nchw(self.activations[i])


def backward(model: Model, cache: ForwardCache, upstream: np.ndarray,
             need_input_grad: bool = True, stop: int = 0,
             need_param_grads=True) -> Gradients:
    """Backpropagate from the pre-softmax logits through `cache`, the
    capture that `forward` returned.

    `upstream` (N, K) is the gradient of the loss w.r.t. the logits, as
    produced by optim.sparse_ce, cast to model.dtype; the SoftmaxOutput
    layer itself is fused into the loss and skipped here.

    The pass runs layers n-1 down to `stop`, so it fills the activation
    gradients at indices >= stop and leaves the lower ones None.  Without
    need_param_grads, Conv and Dense layers compute their input gradient
    only and every parameter dict stays empty: the saliency code stops at
    the layer above its target this way.  need_param_grads may also be
    the indices of the layers whose parameter gradients to compute, as
    train_step's tasks compute the conv ones.  need_input_grad=False
    skips only the unused gradient w.r.t. the input batch.
    """
    acts = cache.activations
    g = np.asarray(upstream, dtype=model.dtype)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"upstream shape {g.shape} != output shape {acts[-1].shape}")

    n_layers = len(model.spec.layers)
    param_grads = [{} for _ in range(n_layers)]
    act_grads = [None] * (n_layers + 1)
    act_grads[n_layers] = g  # by the fused convention, also the logit gradient
    for i in range(n_layers - 1, stop - 1, -1):
        need = need_param_grads if isinstance(need_param_grads, bool) \
            else i in need_param_grads
        g, param_grads[i] = model.spec.layers[i].backward(
            g, model.params[i], i, cache, need_input_grad or i > 0, need)
        act_grads[i] = g
    return Gradients(param_grads, act_grads)


def forward_from(model: Model, layer_index: int, activation: np.ndarray) -> np.ndarray:
    """Re-run layers after `layer_index` on a replacement activation
    ((N,C,H,W) layout when 4-d).

    Returns the pre-softmax logits.  Eval mode (dropout off); used by the
    saliency code for finite-difference probes.
    """
    x = np.asarray(activation, dtype=model.dtype)
    if x.ndim == 4:
        x = ops._to_nhwc(x)
    return _run(model, x, layer_index + 1, len(model.spec.layers) - 1, None, None)


# ---------------------------------------------------------------------------
# weight serialization (CAMF0001)

def save_weights(model: Model, path) -> None:
    """Magic, canonical spec header line, then each parameter tensor as
    u32-LE rank, u32-LE dims, raw f64-LE values."""
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(model.spec.canonical().encode("utf-8") + b"\n")
        for _, _, arr in model.param_items():
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def read_weight_header(f) -> str:
    """Spec header text of an open CAMF0001 file; leaves f at the first tensor."""
    magic = f.read(8)
    if magic != WEIGHT_MAGIC:
        raise WeightMagicError(f"bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
    line = f.readline()
    if not line.endswith(b"\n"):
        raise TruncatedWeightsError("missing header line")
    try:
        return line[:-1].decode("utf-8")
    except UnicodeDecodeError as e:
        raise WeightFormatError("header line is not UTF-8") from e


def load_weights(spec: ModelSpec | None, path) -> Model:
    """Load a CAMF0001 file in one pass.  With spec None, the spec is parsed
    from the file's header line; otherwise the header must match it.

    Each tensor is read straight into its final C-contiguous, aligned,
    writable float64 array (optimizer_step updates them in place).
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = read_weight_header(f)
        if spec is None:
            spec = parse_spec_text(header)
        elif header != spec.canonical():
            raise SpecMismatchError(
                f"weight file was saved for a different spec:\n  file:  {header}\n"
                f"  given: {spec.canonical()}"
            )

        model = _make_model(spec, rng=None, file_bytes=size - f.tell())
        for li, name, arr in model.param_items():
            if f.tell() + 4 > size:
                raise TruncatedWeightsError(f"file ends before tensor (layer {li}, {name})")
            (rank,) = struct.unpack("<I", f.read(4))
            if f.tell() + 4 * rank > size:
                raise TruncatedWeightsError(f"file ends inside dims (layer {li}, {name})")
            dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
            if dims != arr.shape:
                raise SpecMismatchError(
                    f"tensor shape {dims} != expected {arr.shape} (layer {li}, {name})"
                )
            if f.tell() + arr.nbytes > size or \
                    f.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise TruncatedWeightsError(f"file ends mid-tensor (layer {li}, {name})")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)  # the file is little-endian
    return model


# ---------------------------------------------------------------------------
# presets

PRESETS = ("vgg-nano", "vgg-micro")
DEFAULT_CLASS_NAMES = ("glioma", "menin", "tumor")


def preset(name: str, class_names=DEFAULT_CLASS_NAMES, input_hw=(128, 128),
           channels: int = 1) -> ModelSpec:
    """Scaled-down VGG-style specs; grayscale input unless `channels` says
    otherwise (3 for an RGB corpus)."""
    if name not in PRESETS:
        raise BuildError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")
    k = len(class_names)
    blocks = [
        Conv(8, 3, 1, 1), ReLU(), Conv(8, 3, 1, 1), ReLU(), MaxPool2(),
        Conv(16, 3, 1, 1), ReLU(), Conv(16, 3, 1, 1), ReLU(), MaxPool2(),
    ]
    if name == "vgg-micro":
        blocks += [
            Conv(32, 3, 1, 1), ReLU(), Conv(32, 3, 1, 1), ReLU(), MaxPool2(),
        ]
    layers = tuple(blocks) + (
        Flatten(), Dense(128), ReLU(), Dropout(0.5), Dense(k), SoftmaxOutput(),
    )
    return ModelSpec((channels,) + tuple(input_hw), layers, tuple(class_names))
