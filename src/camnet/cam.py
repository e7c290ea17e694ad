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
probability and exp(logit) scores are available via CamConfig.

The Hessian diagonal of gradcam_pp has one closed form.  Every layer
(Conv, ReLU, MaxPool2, Flatten, Dense, eval-mode Dropout) is piecewise
linear, so near the input the logits are z = J a in the target
activations a, and d2Y/dA^2 = diag(J^T S J) = sum_kl S_kl J_k J_l, with
S = d2Y/dz^2 and J_k the gradient of logit k (one backward pass).  S is 0
for logit, exp(z_c) e_c e_c^T for exp_logit (the Grad-CAM++ paper's own
closed form) and the softmax Hessian for probability.  A layer type that
is not piecewise linear would make this formula wrong.

Work per explain: `capture` runs the one eval-mode capture forward, whose
cache gives the predicted class and feeds every method called with it as
`cache=` (without one, a method captures the image itself).  Each
backward pass stops at the output of the target layer and computes no
parameter gradient, so no layer below the target is visited.

Rows per capture: every score gradient is a combination of the logit
rows J_k at the target, J_c for logit, exp(z_c) J_c for exp_logit and
sum_k dp_c/dz_k J_k for probability, and the Hessian diagonal above is
made of the same rows.  Each row is one one-row backward, run at most
once per (target layer, k) and kept read-only in the capture's
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
    """The one eval-mode capture forward of a single image.  Its cache holds
    the class probabilities (activations[-1]) and every layer output the
    saliency methods read; pass it as `cache=` to run them on it."""
    nn.forward(model, _as_single_batch(image, model.spec), capture=True)
    return model.cache


def _logits(model: nn.Model, cache: nn.ForwardCache) -> np.ndarray:
    """Pre-softmax logits (1, K) of a capture."""
    return cache.activations[len(model.spec.layers) - 1]


def _logit_row(model: nn.Model, cache: nn.ForwardCache, idx: int, k: int) -> np.ndarray:
    """J_k = dlogit_k/dA at layer idx's output, (C, U, V), read-only.  The
    first call per (idx, k) on a capture runs one backward that stops there
    and computes no parameter gradient; later calls return the same array."""
    row = cache.logit_rows.get((idx, k))
    if row is None:
        e = np.zeros(_logits(model, cache).shape)
        e[0, k] = 1.0
        grads = nn.backward(model, e, stop=idx + 1, need_param_grads=False,
                            cache=cache)
        row = grads.activation_nchw(idx + 1)[0]
        row.flags.writeable = False
        cache.logit_rows[(idx, k)] = row
    return row


def _score_logit_grad(logits: np.ndarray, class_index: int, kind: str) -> np.ndarray:
    """d(score)/d(logits), shape (1, K)."""
    k = logits.shape[1]
    g = np.zeros((1, k))
    if kind == "logit":
        g[0, class_index] = 1.0
    elif kind == "probability":
        z = logits[0]
        e = np.exp(z - z.max())
        p = e / e.sum()
        g[0] = -p[class_index] * p
        g[0, class_index] += p[class_index]
    elif kind == "exp_logit":
        g[0, class_index] = np.exp(logits[0, class_index])
    else:
        raise BuildError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")
    return g


def _score_logit_hessian(logits: np.ndarray, class_index: int, kind: str) -> np.ndarray:
    """d2(score)/d(logits)^2, shape (K, K)."""
    k = logits.shape[1]
    s = np.zeros((k, k))
    if kind == "probability":
        e = np.exp(logits[0] - logits.max())
        p = e / e.sum()
        d = np.eye(k)[class_index] - p
        s = p[class_index] * (np.outer(d, d) - (np.diag(p) - np.outer(p, p)))
    elif kind == "exp_logit":
        s[class_index, class_index] = np.exp(logits[0, class_index])
    elif kind != "logit":
        raise BuildError(f"unknown score kind {kind!r}; valid: {SCORE_KINDS}")
    return s


def _score_grad(model: nn.Model, cache: nn.ForwardCache, idx: int, class_index: int,
                kind: str) -> np.ndarray:
    """dY_c/dA at layer idx's output as the combination of logit rows
    sum_k dY_c/dz_k J_k.  The logit score returns J_c itself, read-only."""
    if kind == "logit":
        return _logit_row(model, cache, idx, class_index)
    g = _score_logit_grad(_logits(model, cache), class_index, kind)[0]
    zero = np.zeros_like(cache.activation_nchw(idx + 1)[0])
    return sum((g[k] * _logit_row(model, cache, idx, k) for k in np.flatnonzero(g)), zero)


def grad_wrt_activations(model: nn.Model, image, class_index: int,
                         target_layer: int | None = None,
                         score_kind: str = "logit",
                         cache: nn.ForwardCache | None = None) -> np.ndarray:
    """dY_c/dA for the target conv layer's output, shape (K, U, V).

    Eval mode (dropout off).  Runs on `cache`, a capture of `image`, or
    captures the image itself when cache is None.  For the logit score the
    result is the capture's memoised row J_c, which is read-only.
    """
    cfg = CamConfig(target_layer=target_layer, score_kind=score_kind)
    idx = _resolve_target(model, cfg)
    cache = cache or capture(model, image)
    return _score_grad(model, cache, idx, class_index, score_kind)


def _combine(model: nn.Model, cache: nn.ForwardCache, idx: int, alpha: np.ndarray,
             class_index: int, method: str):
    """Weights and heatmap from alpha and the captured target activations."""
    raw = relu(np.einsum("k,kuv->uv", alpha, cache.activation_nchw(idx + 1)[0]))
    _, h, w = model.spec.input_shape
    up = bilinear_resample(raw[:, :, None], h, w)[:, :, 0]
    m = up.max()
    normalized = up / m if m > 0 else np.zeros_like(up)
    return CamWeights(alpha, class_index, method), Heatmap(raw, normalized)


def gradcam(model: nn.Model, image, class_index: int,
            cfg: CamConfig | None = None, cache: nn.ForwardCache | None = None):
    """Gradient-averaged channel weights: alpha_k = mean_ij dY/dA_kij."""
    cfg = cfg or CamConfig()
    idx = _resolve_target(model, cfg)
    cache = cache or capture(model, image)
    g = grad_wrt_activations(model, image, class_index, idx, cfg.score_kind, cache)
    return _combine(model, cache, idx, g.mean(axis=(1, 2)), class_index, "gradcam")


def hessian_diag(model: nn.Model, image, class_index: int,
                 target_layer: int | None = None,
                 cfg: CamConfig | None = None,
                 cache: nn.ForwardCache | None = None) -> np.ndarray:
    """Diagonal of d2Y_c/dA^2 at the target layer, shape (K, U, V), by the
    closed form of the module docstring: one logit row per class in the
    support of S, on `cache` or on a capture of `image` when cache is None."""
    cfg = cfg or CamConfig()
    if target_layer is not None:
        cfg = CamConfig(target_layer, cfg.score_kind)
    idx = _resolve_target(model, cfg)
    cache = cache or capture(model, image)
    s = _score_logit_hessian(_logits(model, cache), class_index, cfg.score_kind)
    rows = {k: _logit_row(model, cache, idx, k) for k in np.flatnonzero(s.any(axis=0))}
    zero = np.zeros_like(cache.activation_nchw(idx + 1)[0])
    return sum((s[k, l] * rows[k] * rows[l] for k in rows for l in rows), zero)


def gradcam_pp(model: nn.Model, image, class_index: int,
               cfg: CamConfig | None = None, cache: nn.ForwardCache | None = None):
    """Channel weights alpha_k = (1/Z) sum_ij (d2Y/dA^2 + 2 dY/dA)."""
    cfg = cfg or CamConfig()
    idx = _resolve_target(model, cfg)
    cache = cache or capture(model, image)
    hess = hessian_diag(model, image, class_index, idx, cfg, cache)
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
