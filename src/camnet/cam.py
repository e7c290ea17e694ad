"""Saliency maps: channel-weighted class activation mapping with a
gradient-only weighting (gradcam) and a variant whose weights add the
diagonal second derivative to twice the first derivative (gradcam_pp).

Both produce, for a single input image and class index c:

    alpha_k = (1/Z) * sum_ij  weight_term(k, i, j)
    raw     = ReLU( sum_k alpha_k * A_k )

where A_k are the K feature maps of the target conv layer (spatial size
U x V, Z = U*V).  The raw map is bilinearly upsampled to the input size
and divided by its max (an identically-zero map stays zero).

The class score Y_c defaults to the pre-softmax logit; softmax
probability and exp(logit) scores are available via CamConfig.  Each
score kind is defined once, in one table (`_score_terms`): its gradient
g = dY_c/dz and Hessian S = d2Y_c/dz^2 in the logits z, read from the
capture's logits and the softmax probabilities p it already holds:

    logit        g = e_c                  S = 0
    exp_logit    g = exp(z_c) e_c         S = exp(z_c) e_c e_c^T
    probability  g = p_c (e_c - p)        S = p_c ((e_c - p)(e_c - p)^T
                                                   - diag(p) + p p^T)

Every layer (Conv, ReLU, MaxPool2, Flatten, Dense, eval-mode Dropout) is
piecewise linear, so near the input the logits are z = J a in the target
activations a, and with J_k the gradient of logit k (one backward pass)

    dY/dA     = sum_k g_k J_k
    d2Y/dA^2  = diag(J^T S J) = sum_kl S_kl J_k J_l

which for exp_logit is the Grad-CAM++ paper's own closed form.  A layer
type that is not piecewise linear would make the second formula wrong.

Work per explain: `capture` runs the one eval-mode forward of an image.
Its ForwardCache gives the predicted class, and every method takes it
(a capture of more than one image, or of a train-mode pass, is a
ShapeError).  Each backward pass stops at the output of the target layer
and computes no parameter gradient, so no layer below the target is
visited.

Rows per capture: both sums above read only the logit rows J_k in the
support of g and S, J_c for logit and exp_logit and every class for
probability.  Each row is one one-row backward, run at most once per
(target layer, k) and kept read-only in the capture's
`ForwardCache.logit_rows`, so `gradcam` and `gradcam_pp` on one capture
share them: one backward for the logit and exp_logit scores and one per
class for probability, whichever methods run.
"""

from dataclasses import dataclass

import numpy as np

from . import model as nn
from .data import bilinear_resample, f_to_u8
from .errors import BuildError, ShapeError
from .ops import relu

SCORE_KINDS = ("logit", "probability", "exp_logit")


@dataclass
class CamConfig:
    target_layer: int | None = None  # default: deepest Conv layer
    score_kind: str = "logit"


@dataclass
class CamWeights:
    alpha: np.ndarray  # (K,)
    class_index: int
    method: str


@dataclass
class Heatmap:
    raw: np.ndarray  # (U, V), >= 0
    normalized: np.ndarray  # (H, W) in [0, 1], max 1 unless raw is all zero


def _resolve_target(model: nn.Model, cfg: CamConfig) -> int:
    idx = cfg.target_layer
    if idx is None:
        return nn.deepest_conv_index(model.spec)
    n = len(model.spec.layers)
    if not 0 <= idx < n:
        raise BuildError(f"target layer {idx} is out of range; valid: 0..{n - 1}")
    if not isinstance(model.spec.layers[idx], nn.Conv):
        raise BuildError(f"target layer {idx} is {model.spec.layers[idx].canonical()}, "
                         "not a Conv layer")
    return idx


def _as_single_batch(image: np.ndarray, spec) -> np.ndarray:
    x = np.asarray(image, dtype=np.float64)
    if x.shape == tuple(spec.input_shape):
        x = x[None]
    if x.ndim != 4 or x.shape[0] != 1:
        raise ShapeError(f"explain expects a single input, got shape {x.shape}")
    return x


def capture(model: nn.Model, image) -> nn.ForwardCache:
    """The one eval-mode forward of a single image.  Its cache holds the
    class probabilities (activations[-1]) and every layer output the
    saliency methods read; pass it to them."""
    return nn.forward(model, _as_single_batch(image, model.spec))


def _logit_row(model: nn.Model, cache: nn.ForwardCache, idx: int, k: int) -> np.ndarray:
    """J_k = dlogit_k/dA at layer idx's output, (C, U, V), read-only.  The
    first call per (idx, k) on a capture runs one backward that stops there
    and computes no parameter gradient; later calls return the same array."""
    row = cache.logit_rows.get((idx, k))
    if row is None:
        e = np.zeros(cache.activations[-2].shape)
        e[0, k] = 1.0
        grads = nn.backward(model, cache, e, stop=idx + 1, need_param_grads=False)
        row = grads.activation_nchw(idx + 1)[0]
        row.flags.writeable = False
        cache.logit_rows[(idx, k)] = row
    return row


def _score_terms(cache: nn.ForwardCache, class_index: int, kind: str):
    """d(score)/dz (K,) and d2(score)/dz^2 (K, K) at the capture's logits z
    (activations[-2]), with p = softmax(z) the probabilities it holds."""
    z, p = cache.activations[-2][0], cache.activations[-1][0]
    k = z.shape[0]
    g, s = np.zeros(k), np.zeros((k, k))
    if kind == "logit":
        g[class_index] = 1.0
    elif kind == "exp_logit":
        g[class_index] = s[class_index, class_index] = np.exp(z[class_index])
    elif kind == "probability":
        g = -p[class_index] * p  # p_c (e_c - p) would round differently at c
        g[class_index] += p[class_index]
        d = np.eye(k)[class_index] - p
        s = p[class_index] * (np.outer(d, d) - (np.diag(p) - np.outer(p, p)))
    else:
        raise BuildError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")
    return g, s


def _setup(model: nn.Model, cache: nn.ForwardCache, cfg: CamConfig | None):
    """The config (default CamConfig()) and the resolved target layer of
    one saliency call on `cache`, which must capture one eval-mode image."""
    if len(cache.activations[-1]) != 1:
        raise ShapeError("a saliency map needs the capture of one image, "
                         f"got {len(cache.activations[-1])}")
    if cache.train_mode:
        raise ShapeError("a saliency map needs an eval-mode capture, got a train-mode one")
    cfg = cfg or CamConfig()
    return cfg, _resolve_target(model, cfg)


def _score_grad(model: nn.Model, cache: nn.ForwardCache, idx: int, class_index: int,
                kind: str) -> np.ndarray:
    """dY_c/dA at layer idx's output as the combination of logit rows
    sum_k g_k J_k.  The logit score returns J_c itself, read-only."""
    if kind == "logit":
        return _logit_row(model, cache, idx, class_index)
    g, _ = _score_terms(cache, class_index, kind)
    return sum((g[k] * _logit_row(model, cache, idx, k) for k in np.flatnonzero(g)),
               np.zeros(model.layer_shapes[idx]))


def grad_wrt_activations(model: nn.Model, cache: nn.ForwardCache, class_index: int,
                         cfg: CamConfig | None = None) -> np.ndarray:
    """dY_c/dA for the target conv layer's output, shape (K, U, V), on
    `cache`, the eval-mode capture of one image.  For the logit score the
    result is the capture's memoised row J_c, which is read-only.
    """
    cfg, idx = _setup(model, cache, cfg)
    return _score_grad(model, cache, idx, class_index, cfg.score_kind)


def _combine(model: nn.Model, cache: nn.ForwardCache, idx: int, alpha: np.ndarray,
             class_index: int, method: str):
    """Weights and heatmap from alpha and the captured target activations."""
    raw = relu(np.einsum("k,kuv->uv", alpha, cache.activation_nchw(idx + 1)[0]))
    _, h, w = model.spec.input_shape
    up = bilinear_resample(raw[:, :, None], h, w)[:, :, 0]
    m = up.max()
    normalized = up / m if m > 0 else np.zeros_like(up)
    return CamWeights(alpha, class_index, method), Heatmap(raw, normalized)


def gradcam(model: nn.Model, cache: nn.ForwardCache, class_index: int,
            cfg: CamConfig | None = None):
    """Gradient-averaged channel weights: alpha_k = mean_ij dY/dA_kij."""
    cfg, idx = _setup(model, cache, cfg)
    g = grad_wrt_activations(model, cache, class_index, cfg)
    return _combine(model, cache, idx, g.mean(axis=(1, 2)), class_index, "gradcam")


def hessian_diag(model: nn.Model, cache: nn.ForwardCache, class_index: int,
                 cfg: CamConfig | None = None) -> np.ndarray:
    """Diagonal of d2Y_c/dA^2 at the target layer, shape (K, U, V), by the
    closed form of the module docstring: one logit row per class in the
    support of S, on `cache`."""
    cfg, idx = _setup(model, cache, cfg)
    _, s = _score_terms(cache, class_index, cfg.score_kind)
    rows = {k: _logit_row(model, cache, idx, k) for k in np.flatnonzero(s.any(axis=0))}
    return sum((s[k, l] * rows[k] * rows[l] for k in rows for l in rows),
               np.zeros(model.layer_shapes[idx]))


def gradcam_pp(model: nn.Model, cache: nn.ForwardCache, class_index: int,
               cfg: CamConfig | None = None):
    """Channel weights alpha_k = (1/Z) sum_ij (d2Y/dA^2 + 2 dY/dA)."""
    cfg, idx = _setup(model, cache, cfg)
    hess = hessian_diag(model, cache, class_index, cfg)
    g = _score_grad(model, cache, idx, class_index, cfg.score_kind)
    alpha = (hess + 2.0 * g).mean(axis=(1, 2))
    return _combine(model, cache, idx, alpha, class_index, "gradcam_pp")


# ---------------------------------------------------------------------------
# rendering

def colormap(v: np.ndarray) -> np.ndarray:
    """Piecewise-linear blue -> green -> red with knots at 0, 0.5, 1."""
    v = np.clip(v, 0.0, 1.0)
    lo = np.clip(2.0 * v, 0.0, 1.0)          # blue->green ramp position
    hi = np.clip(2.0 * v - 1.0, 0.0, 1.0)    # green->red ramp position
    r = hi
    g = np.where(v <= 0.5, lo, 1.0 - hi)
    b = np.where(v <= 0.5, 1.0 - lo, 0.0)
    return np.stack([r, g, b], axis=-1)


def render_overlay(heatmap: Heatmap, base: np.ndarray) -> np.ndarray:
    """Blend 50% grayscale base with 50% colormapped heatmap; uint8 RGB."""
    if heatmap.normalized.shape != base.shape[:2]:
        raise ShapeError(
            f"heatmap size {heatmap.normalized.shape} != image size {base.shape[:2]}"
        )
    gray = base.mean(axis=2, keepdims=True)
    overlay = 0.5 * gray + 0.5 * colormap(heatmap.normalized)
    return f_to_u8(overlay)
