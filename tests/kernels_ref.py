"""Reference kernels for the fast ops, shared by the test modules.

`conv2d_reference` is the naive-loop definition of a conv on (N, C, H, W)
arrays; `ops.conv2d_nhwc` must agree with it to BLAS rounding.  `conv2d`,
`conv2d_backward`, `maxpool2` and `maxpool2_backward` run the library's
channels-last kernels on (N, C, H, W) arrays, so tests can state hand
cases and finite differences in the model's layout.

The others are earlier, plainer formulations of five `camnet.ops`
kernels. The library's versions do less work but must give the same
bytes, so the tests compare them with `tobytes()`, not with a tolerance:

- `maxpool2_nhwc`: a multi-axis `max` over each 2x2 window;
- `maxpool2_backward_nhwc`: `argmax` over a transposed copy of the
  windows, then `put_along_axis` into zeros;
- `relu_backward`: `np.where`;
- `conv_input_grad_stride1`: one im2col of the whole batch's grad_out,
  padded by k-1 per side, over the padded input positions, then a crop;
- `conv2d_nhwc_reference`: the whole batch's patch matrix times the
  weights in one matmul, which `ops.conv2d_nhwc` still runs for float32,
  for a call that keeps its patch matrix and for small images, and
  lowers in bands otherwise.

The two conv references match the library's per-image and banded
versions byte for byte only where BLAS row results do not depend on the
number of rows. That holds for OpenBLAS at the channel counts of the
presets (8, 16 and 32), not at every shape: 2-4 columns, or a single
row, take other code paths.

`rotate_bilinear_reference` is `data.rotate_bilinear` before its cached
resampling plan. The library's version must give its bytes and dtype.

`score_grad_reference` is the saliency score gradient as one stopped
backward of d(score)/d(logits), before `cam` formed it from memoised
logit rows. The logit score must give its bytes; the other scores round
differently and are compared at a tolerance.
"""

import math

import numpy as np

from camnet import cam, model as nn, ops


def conv2d_reference(x, weights, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Naive-loop cross-correlation, the reference the fast path is checked against."""
    x, weights, bias = ops._as_float(x), ops._as_float(weights), ops._as_float(bias)
    n, c, h, w = x.shape
    o, _, kh, kw = weights.shape
    oh, ow = ops.conv_output_hw(h, w, kh, kw, stride, pad)
    xp = x if pad == 0 else np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((n, o, oh, ow))
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ch in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += (
                                    weights[f, ch, di, dj]
                                    * xp[b, ch, i * stride + di, j * stride + dj]
                                )
                    out[b, f, i, j] = acc + bias[f]
    return out


def conv2d(x, weights, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """ops.conv2d_nhwc on (N,C,H,W) input and output."""
    x, weights, bias = ops._as_float(x), ops._as_float(weights), ops._as_float(bias)
    return ops._to_nchw(ops.conv2d_nhwc(ops._to_nhwc(x), weights, bias, stride, pad))


def conv2d_backward(x, weights, stride, pad, grad_out):
    """ops.conv2d_backward_nhwc on (N,C,H,W) input and grad_out."""
    x, weights, grad_out = ops._as_float(x), ops._as_float(weights), ops._as_float(grad_out)
    gx, gw, gb = ops.conv2d_backward_nhwc(ops._to_nhwc(x), weights, stride, pad,
                                          ops._to_nhwc(grad_out))
    return ops._to_nchw(gx), gw, gb


def maxpool2(x) -> np.ndarray:
    """ops.maxpool2_nhwc on (N,C,H,W) input and output."""
    return ops._to_nchw(ops.maxpool2_nhwc(ops._to_nhwc(ops._as_float(x))))


def maxpool2_backward(x, grad_out) -> np.ndarray:
    """ops.maxpool2_backward_nhwc on (N,C,H,W) input and grad_out."""
    x, grad_out = ops._as_float(x), ops._as_float(grad_out)
    return ops._to_nchw(ops.maxpool2_backward_nhwc(ops._to_nhwc(x), ops._to_nhwc(grad_out)))


def maxpool2_nhwc(x):
    n, h, w, c = x.shape
    return x.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))


def maxpool2_backward_nhwc(x, grad_out, out=None):
    """`out` is accepted, so model.backward can call this, and ignored."""
    n, h, w, c = x.shape
    # flatten each 2x2 window in (row, col) order; argmax takes the first max
    windows = np.ascontiguousarray(
        x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
    ).reshape(n, h // 2, w // 2, 4, c)
    which = windows.argmax(axis=3)
    grad_flat = np.zeros_like(windows)
    np.put_along_axis(grad_flat, which[:, :, :, None, :], grad_out[:, :, :, None, :],
                      axis=3)
    return np.ascontiguousarray(
        grad_flat.reshape(n, h // 2, w // 2, 2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, h, w, c)
    )


def relu_backward(x, grad_out):
    return np.where(np.asarray(x, dtype=np.float64) > 0.0, grad_out, 0.0)


def conv_input_grad_stride1(weights, pad, grad_out, x_shape):
    """Same signature as ops._conv_input_grad_stride1."""
    n, h, w, c = x_shape
    o, _, kh, kw = weights.shape
    w2 = np.ascontiguousarray(
        weights.transpose(2, 3, 0, 1)[::-1, ::-1]
    ).reshape(kh * kw * o, c)
    gp = np.pad(grad_out, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    gcols = ops._im2col_nhwc(gp, kh, kw, 1, h + 2 * pad, w + 2 * pad)
    grad_xp = (gcols @ w2).reshape(n, h + 2 * pad, w + 2 * pad, c)
    return grad_xp if pad == 0 else np.ascontiguousarray(
        grad_xp[:, pad:-pad, pad:-pad, :])


def conv2d_nhwc_reference(x, weights, bias, stride: int = 1, pad: int = 0):
    """Same signature as ops.conv2d_nhwc without return_cols."""
    n = x.shape[0]
    o, _, kh, kw = weights.shape
    oh, ow = ops.conv_output_hw(x.shape[1], x.shape[2], kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = ops._im2col_nhwc(xp, kh, kw, stride, oh, ow) @ ops._weights_cols(weights)
    out += bias
    return out.reshape(n, oh, ow, o)


def rotate_bilinear_reference(img, degrees: float, fill: float = 0.0):
    """`data.rotate_bilinear` as it was before the cached plan: coordinates,
    clipped taps and `np.where` masks computed on every call."""
    h, w, c = img.shape
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    # inverse rotation of each destination pixel into source coordinates
    src_y = sin_t * xx + cos_t * yy + cy
    src_x = cos_t * xx - sin_t * yy + cx

    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    fy = (src_y - y0)[..., None]
    fx = (src_x - x0)[..., None]

    def sample(yi, xi):
        inside = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = img[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
        return np.where(inside[..., None], vals, fill)

    return (
        sample(y0, x0) * (1 - fy) * (1 - fx)
        + sample(y0, x0 + 1) * (1 - fy) * fx
        + sample(y0 + 1, x0) * fy * (1 - fx)
        + sample(y0 + 1, x0 + 1) * fy * fx
    )


def score_grad_reference(model, cache, idx, class_index, kind):
    """dY_c/dA at layer idx's output, (C, U, V), as `cam` computed it
    before it formed score gradients from memoised logit rows: one stopped
    backward of d(score)/d(logits) per call."""
    g = cam._score_logit_grad(cam._logits(model, cache), class_index, kind)
    grads = nn.backward(model, g, stop=idx + 1, need_param_grads=False, cache=cache)
    return grads.activation_nchw(idx + 1)[0]
