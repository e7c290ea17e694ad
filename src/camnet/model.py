"""Declarative model graph: layer specs, shape validation, forward with
activation capture, backward, presets, and the CAMF0001 weight format.

Each layer kind is one class that holds everything about it: its spec
token (canonical text and parsing follow from the dataclass fields), its
output-shape rule, which also checks the layer's own parameters, its
weight shape and fan-in, and its forward and backward.  Parsing,
validation, building, forward, forward_from and backward are each one
loop over the layers that calls these methods.

The last layer is always SoftmaxOutput.  `forward` returns class
probabilities; `backward` takes the upstream gradient w.r.t. the
PRE-softmax logits (softmax is fused with the loss, see optim.sparse_ce)
and returns gradients for every parameter plus every cached layer
output.  The saliency code runs it stopped above its target layer and
without parameter gradients, and reads the activation gradients only.
"""

import math
import os
import struct
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import ops
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
    channels-last x, with p its parameter dict.  A capture pass hands its
    ForwardCache, a train-mode pass its dropout stream; each is None
    otherwise.  backward(g, p, i, cache, need_input_grad, need_param_grads)
    takes the gradient w.r.t. the layer output and returns the gradient
    w.r.t. its input, cache.activations[i], and a dict of parameter
    gradients ({} when none are computed).
    """

    token = ""

    def canonical(self) -> str:
        args = [_format_arg(getattr(self, f.name)) for f in fields(self)]
        return f"{self.token}({','.join(args)})" if args else self.token

    def out_shape(self, shape: tuple) -> tuple:
        """Output shape for an input of `shape` (no batch axis); a ShapeError
        when the layer or its parameters cannot take it."""
        return shape

    def weight_shape(self, in_shape: tuple):
        """(weights shape, fan-in), or None for a layer without parameters."""
        return None


def _format_arg(v) -> str:
    # floats print as %g, as in Dropout(0.5), unless %g would round them
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
        if cache is None or drop_rng is None:
            # only a train-mode capture keeps its patch matrices: its paired
            # backward computes every parameter gradient
            return ops.conv2d_nhwc(x, p["weights"], p["bias"], self.stride, self.pad)
        x, cache.conv_cols[i] = ops.conv2d_nhwc(
            x, p["weights"], p["bias"], self.stride, self.pad, return_cols=True)
        return x

    def backward(self, g, p, i, cache, need_input_grad, need_param_grads):
        g, gw, gb = ops.conv2d_backward_nhwc(
            cache.activations[i], p["weights"], self.stride, self.pad, g,
            need_input_grad=need_input_grad, cols=cache.conv_cols.get(i),
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
        if cache is not None:
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
    """Per-layer outputs from the last capture-enabled forward pass.

    activations[0] is the input batch; activations[i+1] the output of
    layer i.  4-d entries are stored channels-last (the internal compute
    layout); use Model.activation_nchw / Gradients.activation_nchw for
    the public (N,C,H,W) view.  dropout_masks[i] holds the (already
    1/(1-rate)-scaled) mask used by Dropout layer i during a train-mode
    pass.  conv_cols[i] keeps the im2col patch matrix of Conv layer i
    from a train-mode capture, so backward can reuse it instead of
    rebuilding it; an eval-mode capture keeps none, and a backward that
    computes parameter gradients on it rebuilds each matrix.
    logit_rows[(i, k)] memoises the saliency code's read-only gradient of
    logit k at layer i's output, so each such backward runs once per
    capture.
    """

    activations: list
    dropout_masks: dict
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
    cache: ForwardCache | None = None

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

    def activation_nchw(self, i: int) -> np.ndarray:
        """Cached output of layer i-1 (i=0 is the input), (N,C,H,W) layout."""
        if self.cache is None:
            raise ShapeError("no cached forward; call forward with capture=True")
        return self.cache.activation_nchw(i)


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
            capture: bool = False) -> np.ndarray:
    """Run the network; returns softmax probabilities (N, K).

    In train_mode, inverted dropout is applied, driven by dropout_seed
    (one splitmix64 stream consumed across Dropout layers in order).
    With capture on, every layer output is stored in model.cache.  The
    batch is cast to model.dtype, the dtype of every layer output.
    """
    x = np.asarray(batch, dtype=model.dtype)
    expect = tuple(model.spec.input_shape)
    if x.ndim != 4 or x.shape[1:] != expect:
        raise ShapeError(f"batch shape {x.shape} does not match (N,)+{expect}")
    x = ops._to_nhwc(x)
    cache = ForwardCache([x], {}, {}) if capture else None
    drop_rng = Rng(dropout_seed) if train_mode else None
    x = _run(model, x, 0, len(model.spec.layers), cache, drop_rng)
    model.cache = cache
    return x


def _run(model: Model, x: np.ndarray, start: int, stop: int,
         cache: ForwardCache | None, drop_rng: Rng | None) -> np.ndarray:
    """Layers start..stop-1 on a channels-last x, appending each output to
    cache.activations when capturing."""
    layers, params = model.spec.layers, model.params
    for i in range(start, stop):
        x = layers[i].forward(x, params[i], i, cache, drop_rng)
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


def backward(model: Model, upstream: np.ndarray, need_input_grad: bool = True,
             stop: int = 0, need_param_grads: bool = True,
             cache: ForwardCache | None = None) -> Gradients:
    """Backpropagate from the pre-softmax logits.

    `upstream` (N, K) is the gradient of the loss w.r.t. the logits, as
    produced by optim.sparse_ce, cast to model.dtype; the SoftmaxOutput
    layer itself is fused into the loss and skipped here.  Reads `cache`,
    by default model.cache of the last capture forward.

    The pass runs layers n-1 down to `stop`, so it fills the activation
    gradients at indices >= stop and leaves the lower ones None.  Without
    need_param_grads, Conv and Dense layers compute their input gradient
    only and every parameter dict stays empty: the saliency code stops at
    the layer above its target this way.  The training loop runs the full
    pass with need_input_grad=False, which skips only the unused gradient
    w.r.t. the input batch.
    """
    if cache is None:
        cache = model.cache
    if cache is None:
        raise ShapeError("backward requires a prior forward with capture=True")
    acts = cache.activations
    g = np.asarray(upstream, dtype=model.dtype)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"upstream shape {g.shape} != output shape {acts[-1].shape}")

    n_layers = len(model.spec.layers)
    param_grads = [{} for _ in range(n_layers)]
    act_grads = [None] * (n_layers + 1)
    act_grads[n_layers] = g  # by the fused convention, also the logit gradient

    for i in range(n_layers - 1, stop - 1, -1):
        g, param_grads[i] = model.spec.layers[i].backward(
            g, model.params[i], i, cache, need_input_grad or i > 0, need_param_grads)
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
