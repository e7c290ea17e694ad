"""Differentiable primitives: convolution, pooling, dense, activations.

All arrays are float64.  The public image layout is (batch, channels,
height, width); internally the conv/pool kernels run channels-last
(N, H, W, C), which keeps the im2col patch gather contiguous and is what
makes a pure-numpy training loop fast enough.  The `*_nhwc` variants are
the core implementations; the public NCHW functions are thin layout
adapters around them.

`conv2d` is im2col + matmul.  `conv2d_reference` is the naive-loop
definition; the two agree to BLAS rounding (checked in the test suite)
and the fast path is bit-deterministic run to run.  `finite_diff_grad`
is the independent oracle every backward rule is verified against.
"""

import numpy as np

from .errors import ShapeError


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _to_nhwc(x) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _to_nchw(x) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def conv_output_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv output size {oh}x{ow} < 1 for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, pad {pad}"
        )
    return oh, ow


def _check_conv_nhwc(x, weights, bias, stride, pad):
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d, got ndim={x.ndim}")
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be 4-d (O,C,kh,kw), got ndim={weights.ndim}")
    n, h, w, c = x.shape
    o, cw, kh, kw = weights.shape
    if c != cw:
        raise ShapeError(f"conv input channels {c} != weight channels {cw}")
    if bias.shape != (o,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({o},)")
    return conv_output_hw(h, w, kh, kw, stride, pad)


def _pad_nhwc(x, pad):
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def _im2col_nhwc(xp, kh, kw, stride, oh, ow):
    """Patches of a channels-last padded input as (N*oh*ow, kh*kw*C)."""
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return view.reshape(n * oh * ow, kh * kw * c)


def _weights_cols(weights):
    # (O, C, kh, kw) -> (kh*kw*C, O), matching the im2col column order
    return np.ascontiguousarray(weights.transpose(2, 3, 1, 0)).reshape(-1, weights.shape[0])


def conv2d_nhwc(x, weights, bias, stride: int = 1, pad: int = 0,
                return_cols: bool = False):
    """Cross-correlation on (N,H,W,C) input; weights stay (O,C,kh,kw).

    With return_cols, also hands back the im2col patch matrix so a paired
    backward pass can skip rebuilding it.
    """
    oh, ow = _check_conv_nhwc(x, weights, bias, stride, pad)
    n = x.shape[0]
    o, _, kh, kw = weights.shape
    cols = _im2col_nhwc(_pad_nhwc(x, pad), kh, kw, stride, oh, ow)
    out = cols @ _weights_cols(weights)
    out += bias
    out = out.reshape(n, oh, ow, o)
    return (out, cols) if return_cols else out


def conv2d_backward_nhwc(x, weights, stride, pad, grad_out, need_input_grad=True,
                         cols=None, need_param_grads=True):
    """Gradients for conv2d_nhwc, as (grad_input, grad_weights, grad_bias).

    grad_input is skipped when not needed (the first layer of a network
    during training), and so are grad_weights and grad_bias (a saliency
    pass reads activation gradients only); a skipped gradient is None.
    `cols` accepts the patch matrix from a paired forward call.
    """
    n, h, w, c = x.shape
    o, _, kh, kw = weights.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if grad_out.shape != (n, oh, ow, o):
        raise ShapeError(f"conv grad_out shape {grad_out.shape} != {(n, oh, ow, o)}")

    g = grad_out.reshape(n * oh * ow, o)
    grad_w = grad_b = None
    if need_param_grads:
        if cols is None:
            cols = _im2col_nhwc(_pad_nhwc(x, pad), kh, kw, stride, oh, ow)
        grad_w = np.ascontiguousarray(
            (cols.T @ g).reshape(kh, kw, c, o).transpose(3, 2, 0, 1)
        )
        grad_b = g.sum(axis=0)

    grad_x = None
    if need_input_grad:
        if stride == 1:
            # full correlation of grad_out with channel-swapped, 180-degree
            # flipped weights; much less memory traffic than col2im
            w2 = np.ascontiguousarray(
                weights.transpose(2, 3, 0, 1)[::-1, ::-1]
            ).reshape(kh * kw * o, c)
            gp = np.pad(grad_out, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
            gcols = _im2col_nhwc(gp, kh, kw, 1, h + 2 * pad, w + 2 * pad)
            grad_xp = (gcols @ w2).reshape(n, h + 2 * pad, w + 2 * pad, c)
            grad_x = grad_xp if pad == 0 else np.ascontiguousarray(
                grad_xp[:, pad:-pad, pad:-pad, :])
        else:
            # scatter columns back onto the padded input (col2im)
            grad_cols = (g @ _weights_cols(weights).T).reshape(n, oh, ow, kh, kw, c)
            grad_xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
            for i in range(kh):
                for j in range(kw):
                    grad_xp[:, i : i + stride * oh : stride,
                            j : j + stride * ow : stride, :] += grad_cols[:, :, :, i, j, :]
            grad_x = grad_xp if pad == 0 else np.ascontiguousarray(
                grad_xp[:, pad:-pad, pad:-pad, :])
    return grad_x, grad_w, grad_b


def conv2d(x, weights, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation (no kernel flip) plus bias, (N,C,H,W) layout."""
    x, weights, bias = _as_f64(x), _as_f64(weights), _as_f64(bias)
    if x.ndim != 4:
        raise ShapeError(f"conv input must be 4-d (N,C,H,W), got ndim={x.ndim}")
    return _to_nchw(conv2d_nhwc(_to_nhwc(x), weights, bias, stride, pad))


def conv2d_backward(x, weights, stride, pad, grad_out):
    """Gradients of a scalar loss w.r.t. conv input, weights, and bias."""
    x, weights, grad_out = _as_f64(x), _as_f64(weights), _as_f64(grad_out)
    if grad_out.ndim != 4:
        raise ShapeError(f"conv grad_out must be 4-d, got ndim={grad_out.ndim}")
    gx, gw, gb = conv2d_backward_nhwc(
        _to_nhwc(x), weights, stride, pad, _to_nhwc(grad_out)
    )
    return _to_nchw(gx), gw, gb


def conv2d_reference(x, weights, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Naive-loop cross-correlation, the reference the fast path is checked against."""
    x, weights, bias = _as_f64(x), _as_f64(weights), _as_f64(bias)
    n, c, h, w = x.shape
    o, _, kh, kw = weights.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
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


def maxpool2_nhwc(x) -> np.ndarray:
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    return x.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))


def maxpool2_backward_nhwc(x, grad_out) -> np.ndarray:
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


def maxpool2(x) -> np.ndarray:
    """2x2 max pooling, stride 2, (N,C,H,W) layout."""
    x = _as_f64(x)
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def maxpool2_backward(x, grad_out) -> np.ndarray:
    """Routes each window's gradient to the first argmax in row-major order."""
    x, grad_out = _as_f64(x), _as_f64(grad_out)
    return _to_nchw(maxpool2_backward_nhwc(_to_nhwc(x), _to_nhwc(grad_out)))


def dense(x, weights, bias) -> np.ndarray:
    """Affine map x @ W + b for x of shape (N, F), W (F, U), b (U,)."""
    x, weights, bias = _as_f64(x), _as_f64(weights), _as_f64(bias)
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"dense inner dims disagree: input {x.shape} vs weights {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"dense bias shape {bias.shape} != ({weights.shape[1]},)")
    return x @ weights + bias


def dense_backward(x, weights, grad_out, need_param_grads=True):
    """(grad_input, grad_weights, grad_bias); the last two are None without
    need_param_grads."""
    x, weights, grad_out = _as_f64(x), _as_f64(weights), _as_f64(grad_out)
    grad_x = grad_out @ weights.T
    if not need_param_grads:
        return grad_x, None, None
    return grad_x, x.T @ grad_out, grad_out.sum(axis=0)


def relu(x) -> np.ndarray:
    return np.maximum(_as_f64(x), 0.0)


def relu_backward(x, grad_out) -> np.ndarray:
    # subgradient 0 at exactly 0
    return np.where(_as_f64(x) > 0.0, grad_out, 0.0)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one probe pair per element."""
    x = _as_f64(x).copy()
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a, b, atol: float = 1e-9) -> float:
    """Max elementwise relative error, ignoring pairs that agree within atol."""
    a, b = _as_f64(a), _as_f64(b)
    diff = np.abs(a - b)
    denom = np.maximum(np.abs(a), np.abs(b))
    mask = diff > atol
    if not mask.any():
        return 0.0
    return float((diff[mask] / denom[mask]).max())
