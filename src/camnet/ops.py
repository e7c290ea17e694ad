"""Differentiable primitives: convolution, pooling, dense, activations.

Arrays are float32 or float64: a float32 or float64 array keeps its
dtype, anything else becomes float64, and each result takes its inputs'
dtype.  A conv or dense input whose dtype differs from the weights' is a
ShapeError, not a silent upcast.  Training computes in float32 (see
optim), everything else in float64.

The model's image layout is (batch, channels, height, width), but the
conv and pool kernels take channels-last (N, H, W, C) arrays, which keeps
the im2col patch gather contiguous and is what makes a pure-numpy
training loop fast enough; `_to_nhwc` and `_to_nchw` convert.  There is
one copy of each kernel, the one the model runs, and no NCHW adapter.

`conv2d_nhwc` is im2col + matmul, bit-deterministic run to run.  A float64
forward that keeps no patch matrix (eval, explain) never builds the
whole one: per image it lowers a band of output rows at a time into one
cache-sized buffer (CONV_BAND_BYTES) and multiplies it straight into the
output, with the bytes of the whole-batch matmul at the preset channel
counts (see tests/kernels_ref.py).  Training's forward,
which keeps its patch matrix for the backward, and every float32
forward, whose bands would round differently, stay one whole-batch
matmul.  Both paths add the bias as one row of length ow*O, the bias
repeated ow times, over a (rows, ow*O) view of the output: the same
adds as a broadcast over (rows*ow, O), in a wider inner loop.  A conv's
input gradient is computed one image at a time, from
an im2col of that image's grad_out over exactly the input positions; a
strided conv's grad_out is first zero-inserted onto the stride-1 output
grid.  The max-pool backward routes each window's gradient to the first
position equal to the pooled output, which the model passes from its
forward cache, so it recomputes no argmax.  Both it and the ReLU
backward multiply grad_out's bit pattern (int32 or int64, by dtype) by a
0/1 mask, which keeps every value exactly and writes +0.0 elsewhere.
`finite_diff_grad` is the independent oracle every backward rule is
verified against; `tests/kernels_ref.py` holds a naive-loop conv, which
the fast conv must match to BLAS rounding, and plainer versions of the
fast kernels, which must give the same bytes.
"""

import numpy as np

from .errors import ShapeError


_BITS = {np.dtype(np.float32): np.int32, np.dtype(np.float64): np.int64}

# The patch bytes an inference conv lowers at a time: a band this size and
# its output stay in cache between the copy and the matmul.  Chosen by a
# sweep of 128 KiB to 2 MiB over a 128x128 vgg-nano eval forward.
CONV_BAND_BYTES = 256 * 1024


def _as_float(x) -> np.ndarray:
    """x as a C-contiguous float32 or float64 array: a float32 or float64
    array keeps its dtype, anything else becomes float64."""
    x = np.asarray(x)
    if x.dtype not in _BITS:
        x = x.astype(np.float64)
    return np.ascontiguousarray(x)


def _bits(x) -> np.ndarray:
    """The bit pattern of a float32/float64 array, as int32/int64."""
    return x.view(_BITS[x.dtype])


def _check_dtype(what, x, weights):
    if x.dtype != weights.dtype:
        raise ShapeError(f"{what} dtype {x.dtype} != weights dtype {weights.dtype}")


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
    _check_dtype("conv input", x, weights)
    n, h, w, c = x.shape
    o, cw, kh, kw = weights.shape
    if c != cw:
        raise ShapeError(f"conv input channels {c} != weight channels {cw}")
    if bias.shape != (o,):
        raise ShapeError(f"conv bias shape {bias.shape} != ({o},)")
    return conv_output_hw(h, w, kh, kw, stride, pad)


def _pad_nhwc(x, ph, pw):
    """x zero-padded by `ph` on both sides of H and `pw` on both sides of
    W: np.pad's bytes without its per-call argument handling, which at
    batch 1 costs about as much as the copy itself."""
    if ph == pw == 0:
        return x
    n, h, w, c = x.shape
    xp = np.empty((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    xp[:, :ph] = xp[:, ph + h:] = 0
    xp[:, ph:ph + h, :pw] = xp[:, ph:ph + h, pw + w:] = 0
    xp[:, ph:ph + h, pw:pw + w] = x
    return xp


def _bias_row(bias, ow):
    """bias repeated ow times: one row of a conv output viewed as
    (rows, ow*O).  Added there, it does the same adds as a broadcast of
    bias over (rows*ow, O), in an ow*O-wide inner loop instead of an
    O-wide one.  Built by assignment, which costs a third of np.tile."""
    row = np.empty((ow, bias.shape[0]), dtype=bias.dtype)
    row[...] = bias
    return row.reshape(-1)


def _patch_view(xp, kh, kw, stride, oh, ow):
    """The patches of a channels-last padded input as a read-only strided
    view (N, oh, ow, kh, kw, C): no copy."""
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _im2col_nhwc(xp, kh, kw, stride, oh, ow):
    """Patches of a channels-last padded input as (N*oh*ow, kh*kw*C)."""
    n, c = xp.shape[0], xp.shape[3]
    return _patch_view(xp, kh, kw, stride, oh, ow).reshape(n * oh * ow, kh * kw * c)


def _weights_cols(weights):
    # (O, C, kh, kw) -> (kh*kw*C, O), matching the im2col column order
    return np.ascontiguousarray(weights.transpose(2, 3, 1, 0)).reshape(-1, weights.shape[0])


def conv2d_nhwc(x, weights, bias, stride: int = 1, pad: int = 0,
                return_cols: bool = False):
    """Cross-correlation on (N,H,W,C) input; weights stay (O,C,kh,kw).

    With return_cols, also hands back the im2col patch matrix so a paired
    backward pass can skip rebuilding it.  A float64 call without it
    lowers each image's patches in bands (see _conv2d_banded) when they
    fill two bands of CONV_BAND_BYTES or more.
    """
    oh, ow = _check_conv_nhwc(x, weights, bias, stride, pad)
    n = x.shape[0]
    o, _, kh, kw = weights.shape
    xp, w_cols = _pad_nhwc(x, pad, pad), _weights_cols(weights)
    if not return_cols and x.dtype == np.float64:
        # output rows per band, which holds at least two output positions
        rows = max(CONV_BAND_BYTES // (x.itemsize * ow * w_cols.shape[0]), 2 // ow, 1)
        if oh >= 2 * rows:
            return _conv2d_banded(xp, w_cols, bias, kh, kw, stride, oh, ow, rows)
    cols = _im2col_nhwc(xp, kh, kw, stride, oh, ow)
    out = (cols @ w_cols).reshape(n * oh, ow * o)
    out += _bias_row(bias, ow)
    out = out.reshape(n, oh, ow, o)
    return (out, cols) if return_cols else out


def _conv2d_banded(xp, w_cols, bias, kh, kw, stride, oh, ow, rows):
    """conv2d_nhwc one band of `rows` to 2*rows-1 output rows at a time,
    per image.

    Each band's patches are copied from the strided view into one reused
    buffer of about CONV_BAND_BYTES, which stays in cache for the matmul
    that writes the band's slice of the output.  A band holds at least
    two output positions: a one-row matmul takes BLAS's GEMV path, whose
    rounding differs from the whole-batch GEMM's.
    """
    n, c = xp.shape[0], xp.shape[3]
    k, o = w_cols.shape
    view = _patch_view(xp, kh, kw, stride, oh, ow)
    bands = oh // rows
    edges = [oh * i // bands for i in range(bands + 1)]
    buf = np.empty((-(-oh // bands), ow, kh, kw, c), dtype=xp.dtype)
    out = np.empty((n, oh, ow, o), dtype=xp.dtype)
    out_rows, row = out.reshape(n, oh, ow * o), _bias_row(bias, ow)
    for b in range(n):
        for r0, r1 in zip(edges, edges[1:]):
            band = buf[:r1 - r0]
            band[...] = view[b, r0:r1]
            np.matmul(band.reshape(-1, k), w_cols, out=out[b, r0:r1].reshape(-1, o))
            out_rows[b, r0:r1] += row
    return out


def conv2d_backward_nhwc(x, weights, stride, pad, grad_out, need_input_grad=True,
                         cols=None, need_param_grads=True):
    """Gradients for conv2d_nhwc, as (grad_input, grad_weights, grad_bias).

    grad_input is skipped when not needed (the first layer of a network
    during training), and so are grad_weights and grad_bias (a saliency
    pass reads activation gradients only); a skipped gradient is None.
    `cols` accepts the patch matrix from a paired forward call.  The
    gradients take grad_out's dtype, which must be the weights'.
    """
    _check_dtype("conv grad_out", grad_out, weights)
    n, h, w, c = x.shape
    o, _, kh, kw = weights.shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    if grad_out.shape != (n, oh, ow, o):
        raise ShapeError(f"conv grad_out shape {grad_out.shape} != {(n, oh, ow, o)}")

    g = grad_out.reshape(n * oh * ow, o)
    grad_w = grad_b = None
    if need_param_grads:
        if cols is None:
            cols = _im2col_nhwc(_pad_nhwc(x, pad, pad), kh, kw, stride, oh, ow)
        grad_w = np.ascontiguousarray(
            (cols.T @ g).reshape(kh, kw, c, o).transpose(3, 2, 0, 1)
        )
        # a ones-vector GEMV: faster than g.sum(axis=0) on a narrow g, and
        # BLAS's blocked accumulation loses less in float32
        grad_b = np.ones(g.shape[0], dtype=g.dtype) @ g

    grad_x = None
    if need_input_grad:
        if stride > 1:
            # zero-insert onto the stride-1 output grid; its rows and columns
            # past the forward's last window stay zero
            gd = np.zeros((n, h + 2 * pad - kh + 1, w + 2 * pad - kw + 1, o),
                          dtype=grad_out.dtype)
            gd[:, ::stride, ::stride] = grad_out
            grad_out = gd
        grad_x = _conv_input_grad_stride1(weights, pad, grad_out, (n, h, w, c))
    return grad_x, grad_w, grad_b


def _conv_input_grad_stride1(weights, pad, grad_out, x_shape):
    """Input gradient of a stride-1 conv, one image at a time; a strided
    conv's, given its grad_out zero-inserted onto the stride-1 grid.

    It is the full correlation of grad_out with the channel-swapped,
    180-degree flipped weights.  grad_out is padded by k-1-pad per side
    (cropped where that is negative), so each image's im2col covers
    exactly the h*w input positions and its matmul writes straight into
    grad_x, with no crop and no full-batch patch matrix.
    """
    n, h, w, c = x_shape
    o, _, kh, kw = weights.shape
    w2 = np.ascontiguousarray(
        weights.transpose(2, 3, 0, 1)[::-1, ::-1]
    ).reshape(kh * kw * o, c)
    qh, qw = kh - 1 - pad, kw - 1 - pad
    gp = _pad_nhwc(grad_out, max(qh, 0), max(qw, 0))
    if qh < 0 or qw < 0:
        ch, cw = max(-qh, 0), max(-qw, 0)
        gp = gp[:, ch:gp.shape[1] - ch, cw:gp.shape[2] - cw]
    grad_x = np.empty(x_shape, dtype=grad_out.dtype)
    for b in range(n):
        np.matmul(_im2col_nhwc(gp[b:b + 1], kh, kw, 1, h, w), w2,
                  out=grad_x[b].reshape(h * w, c))
    return grad_x


def _windows(x):
    """x (N,H,W,C) as (N, H/2, 2, W/2, 2, C); [:, :, di, :, dj] is one
    window position."""
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    return x.reshape(n, h // 2, 2, w // 2, 2, c)


def maxpool2_nhwc(x) -> np.ndarray:
    v = _windows(x)
    out = np.maximum(v[:, :, 0, :, 0], v[:, :, 0, :, 1])
    np.maximum(out, v[:, :, 1, :, 0], out=out)
    np.maximum(out, v[:, :, 1, :, 1], out=out)
    return out


def maxpool2_backward_nhwc(x, grad_out, out=None) -> np.ndarray:
    """Routes each window's gradient to its first position, in (row, col)
    order, that equals the pooled output `out`: the position argmax picks
    in a window without NaN.

    `out` is the forward's result, recomputed when not given.  Each
    position gets grad_out's bit pattern times its 0/1 mask, so it holds
    grad_out exactly (-0.0 included) or +0.0, in grad_out's dtype.
    """
    v = _windows(x)
    if out is None:
        out = maxpool2_nhwc(x)
    if grad_out.shape != out.shape:
        raise ShapeError(f"maxpool2 grad_out shape {grad_out.shape} != {out.shape}")
    g = _as_float(grad_out)
    grad_x = np.empty(x.shape, dtype=g.dtype)
    gv, g_bits = _bits(_windows(grad_x)), _bits(g)
    free = np.ones(out.shape, dtype=bool)  # windows not yet routed
    hit = np.empty(out.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):  # (row, col) order
        np.equal(v[:, :, di, :, dj], out, out=hit)
        hit &= free
        free ^= hit
        np.multiply(g_bits, hit, out=gv[:, :, di, :, dj])
    return grad_x


def dense(x, weights, bias) -> np.ndarray:
    """Affine map x @ W + b for x of shape (N, F), W (F, U), b (U,)."""
    x, weights, bias = _as_float(x), _as_float(weights), _as_float(bias)
    _check_dtype("dense input", x, weights)
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"dense inner dims disagree: input {x.shape} vs weights {weights.shape}"
        )
    if bias.shape != (weights.shape[1],):
        raise ShapeError(f"dense bias shape {bias.shape} != ({weights.shape[1]},)")
    return x @ weights + bias


def dense_backward(x, weights, grad_out, need_param_grads=True, need_input_grad=True):
    """(grad_input, grad_weights, grad_bias); the first is None without
    need_input_grad, the last two are None without need_param_grads."""
    x, weights, grad_out = _as_float(x), _as_float(weights), _as_float(grad_out)
    _check_dtype("dense grad_out", grad_out, weights)
    grad_x = grad_out @ weights.T if need_input_grad else None
    if not need_param_grads:
        return grad_x, None, None
    return grad_x, x.T @ grad_out, grad_out.sum(axis=0)


def relu(x) -> np.ndarray:
    return np.maximum(_as_float(x), 0.0)


def relu_backward(x, grad_out) -> np.ndarray:
    """grad_out where x > 0, else +0.0 (subgradient 0 at exactly 0).

    grad_out's bit pattern times the 0/1 mask, so every kept value, -0.0
    and NaN included, passes through unchanged; a float multiply would
    give -0.0 for negative values off the mask.  Returns a new array:
    callers keep references to grad_out.
    """
    g = _as_float(grad_out)
    return np.multiply(_bits(g), _as_float(x) > 0.0).view(g.dtype)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_float(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one probe pair per element."""
    x = _as_float(x).copy()
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
    """Max elementwise relative error over the pairs that disagree: a pair
    agrees only when a == b or |a - b| <= atol.  A NaN, or an infinity
    against a finite value, reads inf."""
    a, b = _as_float(a), _as_float(b)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    disagree = (a != b) & ~(diff <= atol)
    if not disagree.any():
        return 0.0
    return float(np.where(np.isfinite(rel), rel, np.inf)[disagree].max())
