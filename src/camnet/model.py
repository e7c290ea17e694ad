"""Declarative model graph: layer specs, shape validation, forward with
activation capture, backward, presets, and the CAMF0001 weight format.

The last layer is always SoftmaxOutput.  `forward` returns class
probabilities; `backward` takes the upstream gradient w.r.t. the
PRE-softmax logits (softmax is fused with the loss, see optim.sparse_ce)
and returns gradients for every parameter plus every cached layer
output.  The saliency code runs it stopped above its target layer and
without parameter gradients, and reads the activation gradients only.
"""

import os
import struct
import sys
from dataclasses import dataclass, field

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
# layer and model specs

@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0

    def canonical(self):
        return f"Conv({self.out_channels},{self.kernel},{self.stride},{self.pad})"


@dataclass(frozen=True)
class MaxPool2:
    def canonical(self):
        return "MaxPool2"


@dataclass(frozen=True)
class ReLU:
    def canonical(self):
        return "ReLU"


@dataclass(frozen=True)
class Flatten:
    def canonical(self):
        return "Flatten"


@dataclass(frozen=True)
class Dense:
    units: int

    def canonical(self):
        return f"Dense({self.units})"


@dataclass(frozen=True)
class Dropout:
    rate: float

    def canonical(self):
        return f"Dropout({self.rate:g})"


@dataclass(frozen=True)
class SoftmaxOutput:
    def canonical(self):
        return "Softmax"


LayerSpec = Conv | MaxPool2 | ReLU | Flatten | Dense | Dropout | SoftmaxOutput


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
        fields = dict(part.split("=", 1) for part in text.strip().split(";"))
        c, h, w = (int(v) for v in fields["input"].split("x"))
        classes = tuple(fields["classes"].split(","))
        layers = []
        for tok in fields["layers"].split("|"):
            if tok == "MaxPool2":
                layers.append(MaxPool2())
            elif tok == "ReLU":
                layers.append(ReLU())
            elif tok == "Flatten":
                layers.append(Flatten())
            elif tok == "Softmax":
                layers.append(SoftmaxOutput())
            elif tok.startswith("Conv(") and tok.endswith(")"):
                o, k, s, p = (int(v) for v in tok[5:-1].split(","))
                layers.append(Conv(o, k, s, p))
            elif tok.startswith("Dense(") and tok.endswith(")"):
                layers.append(Dense(int(tok[6:-1])))
            elif tok.startswith("Dropout(") and tok.endswith(")"):
                layers.append(Dropout(float(tok[8:-1])))
            else:
                raise ValueError(f"unknown layer token {tok!r}")
    except (KeyError, ValueError) as e:
        raise BuildError(f"cannot parse model spec text: {e}") from e
    return ModelSpec((c, h, w), tuple(layers), classes)


def validate_spec(spec: ModelSpec) -> list:
    """Propagate shapes through all layers; returns per-layer output shapes.

    Raises BuildError naming the first offending layer index.
    """
    layers = spec.layers
    if not layers or not isinstance(layers[-1], SoftmaxOutput):
        raise BuildError("last layer must be SoftmaxOutput")
    if sum(isinstance(l, SoftmaxOutput) for l in layers) != 1:
        raise BuildError("exactly one SoftmaxOutput is allowed")

    shape = tuple(spec.input_shape)
    shapes = []
    saw_conv = False
    for idx, layer in enumerate(layers):
        try:
            if isinstance(layer, Conv):
                if len(shape) != 3:
                    raise ShapeError(f"Conv needs a (C,H,W) input, got {shape}")
                c, h, w = shape
                oh, ow = ops.conv_output_hw(h, w, layer.kernel, layer.kernel,
                                            layer.stride, layer.pad)
                shape = (layer.out_channels, oh, ow)
                saw_conv = True
            elif isinstance(layer, MaxPool2):
                c, h, w = shape
                if h % 2 or w % 2:
                    raise ShapeError(f"MaxPool2 needs even dims, got {h}x{w}")
                shape = (c, h // 2, w // 2)
            elif isinstance(layer, Flatten):
                if not saw_conv:
                    raise ShapeError("Flatten must be preceded by at least one Conv")
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, Dense):
                if len(shape) != 1:
                    raise ShapeError(f"Dense needs a flat input, got {shape}")
                shape = (layer.units,)
            elif isinstance(layer, Dropout):
                if not 0.0 <= layer.rate < 1.0:
                    raise ShapeError(f"Dropout rate {layer.rate} outside [0,1)")
            elif isinstance(layer, SoftmaxOutput):
                if len(shape) != 1:
                    raise ShapeError(f"SoftmaxOutput needs a flat input, got {shape}")
            # ReLU: shape-preserving
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
    pass.  conv_cols[i] keeps the im2col patch matrix of Conv layer i so
    backward can reuse it instead of rebuilding it.
    """

    activations: list
    dropout_masks: dict
    conv_cols: dict = field(default_factory=dict)

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

    def activation_nchw(self, i: int) -> np.ndarray:
        """Cached output of layer i-1 (i=0 is the input), (N,C,H,W) layout."""
        if self.cache is None:
            raise ShapeError("no cached forward; call forward with capture=True")
        return self.cache.activation_nchw(i)


def _make_model(spec: ModelSpec, rng: Rng | None) -> Model:
    """Model with He-uniform weights drawn from rng and zero biases, or
    with uninitialised weights when rng is None."""
    shapes = validate_spec(spec)
    params = []
    in_shape = tuple(spec.input_shape)
    for layer, out_shape in zip(spec.layers, shapes):
        if isinstance(layer, Conv):
            fan_in = in_shape[0] * layer.kernel * layer.kernel
            wshape = (layer.out_channels, in_shape[0], layer.kernel, layer.kernel)
        elif isinstance(layer, Dense):
            fan_in = in_shape[0]
            wshape = (fan_in, layer.units)
        else:
            params.append({})
            in_shape = out_shape
            continue
        if rng is None:
            w = np.empty(wshape)
        else:
            bound = np.sqrt(6.0 / fan_in)
            w = ((2.0 * rng.uniform_block(int(np.prod(wshape))) - 1.0) * bound
                 ).reshape(wshape)
        params.append({"weights": w, "bias": np.zeros(out_shape[0])})
        in_shape = out_shape
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
    With capture on, every layer output is stored in model.cache.
    """
    x = np.asarray(batch, dtype=np.float64)
    expect = tuple(model.spec.input_shape)
    if x.ndim != 4 or x.shape[1:] != expect:
        raise ShapeError(f"batch shape {x.shape} does not match (N,)+{expect}")
    x = ops._to_nhwc(x)

    drop_rng = Rng(dropout_seed) if train_mode else None
    activations = [x]
    masks = {}
    conv_cols = {}
    for i, layer in enumerate(model.spec.layers):
        p = model.params[i]
        if isinstance(layer, Conv):
            if capture:
                x, conv_cols[i] = ops.conv2d_nhwc(
                    x, p["weights"], p["bias"], layer.stride, layer.pad,
                    return_cols=True)
            else:
                x = ops.conv2d_nhwc(x, p["weights"], p["bias"], layer.stride,
                                    layer.pad)
        elif isinstance(layer, MaxPool2):
            x = ops.maxpool2_nhwc(x)
        elif isinstance(layer, ReLU):
            x = ops.relu(x)
        elif isinstance(layer, Flatten):
            # flatten in the public channel-major (C,H,W) order
            x = ops._to_nchw(x).reshape(x.shape[0], -1)
        elif isinstance(layer, Dense):
            x = ops.dense(x, p["weights"], p["bias"])
        elif isinstance(layer, Dropout):
            if train_mode and layer.rate > 0.0:
                keep = drop_rng.uniform_block(x.size).reshape(x.shape) >= layer.rate
                mask = keep / (1.0 - layer.rate)
                masks[i] = mask
                x = x * mask
        elif isinstance(layer, SoftmaxOutput):
            x = ops.softmax(x)
        activations.append(x)

    model.cache = ForwardCache(activations, masks, conv_cols) if capture else None
    return activations[-1]


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
    produced by optim.sparse_ce; the SoftmaxOutput layer itself is fused
    into the loss and skipped here.  Reads `cache`, by default model.cache
    of the last capture forward.

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
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"upstream shape {g.shape} != output shape {acts[-1].shape}")

    n_layers = len(model.spec.layers)
    param_grads = [{} for _ in range(n_layers)]
    act_grads = [None] * (n_layers + 1)
    act_grads[n_layers] = g  # by the fused convention, also the logit gradient

    for i in range(n_layers - 1, stop - 1, -1):
        layer = model.spec.layers[i]
        x_in = acts[i]
        p = model.params[i]
        if isinstance(layer, SoftmaxOutput):
            pass  # fused with the loss; gradient passes through unchanged
        elif isinstance(layer, Conv):
            g, gw, gb = ops.conv2d_backward_nhwc(
                x_in, p["weights"], layer.stride, layer.pad, g,
                need_input_grad=need_input_grad or i > 0,
                cols=cache.conv_cols.get(i), need_param_grads=need_param_grads)
            if need_param_grads:
                param_grads[i] = {"weights": gw, "bias": gb}
        elif isinstance(layer, MaxPool2):
            g = ops.maxpool2_backward_nhwc(x_in, g, out=acts[i + 1])
        elif isinstance(layer, ReLU):
            g = ops.relu_backward(x_in, g)
        elif isinstance(layer, Flatten):
            n = x_in.shape[0]
            c, h, w = x_in.shape[3], x_in.shape[1], x_in.shape[2]
            g = ops._to_nhwc(g.reshape(n, c, h, w))
        elif isinstance(layer, Dense):
            g, gw, gb = ops.dense_backward(x_in, p["weights"], g,
                                           need_param_grads=need_param_grads)
            if need_param_grads:
                param_grads[i] = {"weights": gw, "bias": gb}
        elif isinstance(layer, Dropout):
            if i in cache.dropout_masks:
                g = g * cache.dropout_masks[i]
        act_grads[i] = g
    return Gradients(param_grads, act_grads)


def forward_from(model: Model, layer_index: int, activation: np.ndarray) -> np.ndarray:
    """Re-run layers after `layer_index` on a replacement activation
    ((N,C,H,W) layout when 4-d).

    Returns the pre-softmax logits.  Eval mode (dropout off); used by the
    saliency code for finite-difference probes.
    """
    x = np.asarray(activation, dtype=np.float64)
    if x.ndim == 4:
        x = ops._to_nhwc(x)
    for i in range(layer_index + 1, len(model.spec.layers)):
        layer = model.spec.layers[i]
        if isinstance(layer, SoftmaxOutput):
            break
        p = model.params[i]
        if isinstance(layer, Conv):
            x = ops.conv2d_nhwc(x, p["weights"], p["bias"], layer.stride, layer.pad)
        elif isinstance(layer, MaxPool2):
            x = ops.maxpool2_nhwc(x)
        elif isinstance(layer, ReLU):
            x = ops.relu(x)
        elif isinstance(layer, Flatten):
            x = ops._to_nchw(x).reshape(x.shape[0], -1)
        elif isinstance(layer, Dense):
            x = ops.dense(x, p["weights"], p["bias"])
    return x


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

        model = _make_model(spec, rng=None)
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
