"""Primitive ops: hand examples, reference agreement, finite differences."""

import kernels_ref
import numpy as np
import pytest

from camnet import ops
from camnet.errors import ShapeError

rng = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# conv2d

def test_conv_all_ones():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 2, 2))
    out = kernels_ref.conv2d(x, w, np.zeros(1))
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out, np.full((1, 1, 2, 2), 4.0))


def test_conv_zero_input_gives_bias():
    x = np.zeros((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = np.array([1.0, -2.0, 0.5, 3.0])
    out = kernels_ref.conv2d(x, w, b, stride=1, pad=1)
    for o in range(4):
        assert np.allclose(out[:, o], b[o])


@pytest.mark.parametrize("shape,wshape,stride,pad", [
    ((1, 2, 5, 5), (3, 2, 3, 3), 2, 1),
    ((2, 1, 4, 6), (2, 1, 2, 2), 1, 0),
    ((1, 3, 7, 7), (5, 3, 3, 3), 1, 1),
    ((2, 4, 6, 6), (3, 4, 1, 1), 1, 0),
    ((1, 2, 9, 9), (2, 2, 3, 3), 3, 0),
])
def test_conv_matches_naive_reference(shape, wshape, stride, pad):
    x = rng.standard_normal(shape)
    w = rng.standard_normal(wshape)
    b = rng.standard_normal(wshape[0])
    fast = kernels_ref.conv2d(x, w, b, stride, pad)
    ref = kernels_ref.conv2d_reference(x, w, b, stride, pad)
    assert np.abs(fast - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_conv_is_deterministic():
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    a = kernels_ref.conv2d(x, w, b, 1, 1)
    assert np.array_equal(a, kernels_ref.conv2d(x, w, b, 1, 1))


def test_conv_backward_finite_difference():
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    out = kernels_ref.conv2d(x, w, b, stride=2, pad=1)
    gx, gw, gb = kernels_ref.conv2d_backward(x, w, 2, 1, np.ones_like(out))

    loss_x = lambda v: float(kernels_ref.conv2d(v, w, b, 2, 1).sum())
    loss_w = lambda v: float(kernels_ref.conv2d(x, v, b, 2, 1).sum())
    assert ops.max_rel_error(gx, ops.finite_diff_grad(loss_x, x)) <= 1e-6
    assert ops.max_rel_error(gw, ops.finite_diff_grad(loss_w, w)) <= 1e-6
    assert np.allclose(gb, out[0, 0].size * np.ones(3))

    # odd sizes whose last window leaves input rows and columns uncovered,
    # and pads above k-1 (the stride-1 grid is cropped, not padded)
    for (h, wd), k, stride, pad in [((7, 5), 2, 2, 0), ((5, 7), 3, 3, 0),
                                    ((7, 7), 3, 3, 2), ((5, 5), 1, 2, 1)]:
        x = rng.standard_normal((2, 2, h, wd))
        w = rng.standard_normal((3, 2, k, k))
        g = rng.standard_normal(kernels_ref.conv2d(x, w, b, stride, pad).shape)
        gx, gw, _ = kernels_ref.conv2d_backward(x, w, stride, pad, g)
        loss_x = lambda v: float((kernels_ref.conv2d(v, w, b, stride, pad) * g).sum())
        loss_w = lambda v: float((kernels_ref.conv2d(x, v, b, stride, pad) * g).sum())
        assert ops.max_rel_error(gx, ops.finite_diff_grad(loss_x, x)) <= 1e-6
        assert ops.max_rel_error(gw, ops.finite_diff_grad(loss_w, w)) <= 1e-6


def test_conv_backward_stride1_finite_difference():
    # stride-1 grad_input goes through the transposed-convolution path
    x = rng.standard_normal((2, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = np.zeros(3)
    g = rng.standard_normal(kernels_ref.conv2d(x, w, b, 1, 1).shape)
    gx, gw, gb = kernels_ref.conv2d_backward(x, w, 1, 1, g)
    loss_x = lambda v: float((kernels_ref.conv2d(v, w, b, 1, 1) * g).sum())
    assert ops.max_rel_error(gx, ops.finite_diff_grad(loss_x, x)) <= 1e-6


def _conv_input_grad_cases(test):
    # channel counts of the presets; see kernels_ref for why they matter
    for mark in (pytest.mark.parametrize("c,o", [(8, 8), (8, 16), (16, 16)]),
                 pytest.mark.parametrize("pad", [0, 1, 2, 3]),
                 pytest.mark.parametrize("n", [1, 3])):
        test = mark(test)
    return test


@_conv_input_grad_cases
def test_conv_input_grad_matches_reference_bytes(n, pad, c, o):
    _check_conv_input_grad_bytes(n, pad, c, o, np.float64)


@_conv_input_grad_cases
def test_conv_input_grad_matches_reference_bytes_float32(n, pad, c, o):
    _check_conv_input_grad_bytes(n, pad, c, o, np.float32)


def test_conv_bands_only_float64_calls_that_keep_no_patch_matrix(monkeypatch):
    calls = []
    banded = ops._conv2d_banded
    monkeypatch.setattr(ops, "_conv2d_banded", lambda *a: calls.append(a) or banded(*a))
    r = np.random.default_rng(7)
    # the 8->8 conv of a 128x128 vgg-nano: a 9.4 MB patch matrix per image
    x, w, b = r.random((1, 128, 128, 8)), r.standard_normal((8, 8, 3, 3)), r.random(8)
    out = ops.conv2d_nhwc(x, w, b, 1, 1)
    assert len(calls) == 1 and out.flags.c_contiguous
    assert out.tobytes() == kernels_ref.conv2d_nhwc_reference(x, w, b, 1, 1).tobytes()
    ops.conv2d_nhwc(x, w, b, 1, 1, return_cols=True)
    ops.conv2d_nhwc(*(a.astype(np.float32) for a in (x, w, b)), 1, 1)
    ops.conv2d_nhwc(x[:, :8, :8], w, b, 1, 1)  # its patch matrix fits in one band
    assert len(calls) == 1


def _check_conv_input_grad_bytes(n, pad, c, o, dtype):
    r = np.random.default_rng(100 * pad + c + o)
    x = r.standard_normal((n, 10, 8, c)).astype(dtype)
    w = r.standard_normal((o, c, 3, 3)).astype(dtype)
    oh, ow = ops.conv_output_hw(10, 8, 3, 3, 1, pad)
    g = r.standard_normal((n, oh, ow, o)).astype(dtype)
    gx, _, _ = ops.conv2d_backward_nhwc(x, w, 1, pad, g, need_param_grads=False)
    ref = kernels_ref.conv_input_grad_stride1(w, pad, g, x.shape)
    assert gx.shape == x.shape and gx.flags.c_contiguous and gx.dtype == dtype
    assert gx.tobytes() == ref.tobytes()


def test_dtype_mismatch_is_a_shape_error():
    x, w, b = np.zeros((1, 4, 4, 2), np.float32), np.ones((3, 2, 3, 3)), np.zeros(3)
    with pytest.raises(ShapeError, match="conv input dtype float32 != weights dtype float64"):
        ops.conv2d_nhwc(x, w, b)
    g = np.zeros((1, 2, 2, 3), np.float32)
    with pytest.raises(ShapeError, match="conv grad_out dtype float32 != weights dtype float64"):
        ops.conv2d_backward_nhwc(x.astype(np.float64), w, 1, 0, g)
    with pytest.raises(ShapeError, match="dense input dtype float64 != weights dtype float32"):
        ops.dense(np.zeros((2, 3)), np.zeros((3, 4), np.float32), np.zeros(4, np.float32))


def test_float32_stays_float32():
    # the strided conv's input gradient goes through the zero-insert buffer
    r = np.random.default_rng(3)
    f32 = lambda *shape: r.standard_normal(shape).astype(np.float32)
    x, w, b, xd, wd = f32(2, 6, 6, 2), f32(3, 2, 3, 3), f32(3), f32(2, 5), f32(5, 3)
    out = ops.conv2d_nhwc(x, w, b, 2, 1)
    results = [out, *ops.conv2d_backward_nhwc(x, w, 2, 1, np.ones_like(out)),
               ops.relu(x), ops.maxpool2_nhwc(x), ops.dense(xd, wd, b),
               *ops.dense_backward(xd, wd, f32(2, 3)), ops.softmax(xd)]
    assert all(a.dtype == np.float32 for a in results)


def test_conv_shape_errors():
    with pytest.raises(ShapeError, match="conv output size -1x-1 < 1 for input 3x3"):
        ops.conv2d_nhwc(np.zeros((1, 3, 3, 1)), np.ones((1, 1, 5, 5)), np.zeros(1))
    with pytest.raises(ShapeError, match="conv input channels 2 != weight channels 3"):
        ops.conv2d_nhwc(np.zeros((1, 4, 4, 2)), np.ones((1, 3, 2, 2)), np.zeros(1))
    with pytest.raises(ShapeError, match="conv input must be 4-d, got ndim=3"):
        ops.conv2d_nhwc(np.zeros((1, 4, 4)), np.ones((1, 1, 2, 2)), np.zeros(1))
    with pytest.raises(ShapeError, match="conv bias shape"):
        ops.conv2d_nhwc(np.zeros((1, 4, 4, 1)), np.ones((2, 1, 2, 2)), np.zeros(1))
    with pytest.raises(ShapeError, match="conv grad_out shape"):
        ops.conv2d_backward_nhwc(np.zeros((1, 4, 4, 1)), np.ones((2, 1, 2, 2)), 1, 0,
                                 np.zeros((1, 2, 3, 3)))


# ---------------------------------------------------------------------------
# maxpool2

def test_maxpool_single_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert kernels_ref.maxpool2(x)[0, 0, 0, 0] == 4.0
    g = kernels_ref.maxpool2_backward(x, np.ones((1, 1, 1, 1)))
    assert np.array_equal(g[0, 0], [[0.0, 0.0], [0.0, 1.0]])


def test_maxpool_tie_break_top_left():
    x = np.full((1, 1, 2, 2), 5.0)
    assert kernels_ref.maxpool2(x)[0, 0, 0, 0] == 5.0
    g = kernels_ref.maxpool2_backward(x, np.ones((1, 1, 1, 1)))
    assert np.array_equal(g[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_finite_difference():
    # a tie-free input so the pooling is locally smooth
    x = rng.standard_normal((1, 1, 6, 6))
    g = rng.standard_normal((1, 1, 3, 3))
    gx = kernels_ref.maxpool2_backward(x, g)
    loss = lambda v: float((kernels_ref.maxpool2(v) * g).sum())
    assert ops.max_rel_error(gx, ops.finite_diff_grad(loss, x)) <= 1e-6


def test_maxpool_odd_dims_rejected():
    with pytest.raises(ShapeError):
        kernels_ref.maxpool2(np.zeros((1, 1, 5, 6)))


def _post_relu(shape, seed):
    """Rounded ReLU outputs: many exact zeros and many exact ties."""
    r = np.random.default_rng(seed)
    x = np.maximum(r.standard_normal(shape).round(1), 0.0)
    x[..., 0] = 0.0
    x.reshape(-1)[::7] *= -0.0  # signed zeros tie with +0.0
    return x


def _upstream(shape, seed):
    """Mostly negative values, with -0.0 in a fifth of the places."""
    g = -np.abs(np.random.default_rng(seed).standard_normal(shape))
    g[g > -0.25] = -0.0
    return g


POOL_SHAPES = [(1, 8, 8, 8), (3, 16, 12, 16), (3, 4, 6, 1)]


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_maxpool_kernels_match_reference_bytes(shape):
    _check_maxpool_bytes(shape, np.float64)


@pytest.mark.parametrize("shape", POOL_SHAPES)
def test_maxpool_kernels_match_reference_bytes_float32(shape):
    _check_maxpool_bytes(shape, np.float32)


def _check_maxpool_bytes(shape, dtype):
    x = _post_relu(shape, 11).astype(dtype)
    out = ops.maxpool2_nhwc(x)
    assert out.tobytes() == kernels_ref.maxpool2_nhwc(x).tobytes()
    assert out.flags.c_contiguous
    g = _upstream(out.shape, 12).astype(dtype)
    gx = ops.maxpool2_backward_nhwc(x, g, out=out)
    assert gx.dtype == dtype
    assert gx.tobytes() == kernels_ref.maxpool2_backward_nhwc(x, g).tobytes()
    assert ops.maxpool2_backward_nhwc(x, g).tobytes() == gx.tobytes()
    # one position per window gets the upstream value, the others +0.0
    routed = ops.maxpool2_backward_nhwc(x, np.ones_like(g), out=out)
    assert np.array_equal(ops.maxpool2_nhwc(routed), np.ones_like(g))
    assert routed.sum() == g.size
    assert not np.signbit(gx[routed == 0.0]).any()


def test_maxpool_backward_rejects_mismatched_grad():
    with pytest.raises(ShapeError):
        ops.maxpool2_backward_nhwc(np.zeros((1, 4, 4, 2)), np.zeros((1, 2, 2, 3)))


# ---------------------------------------------------------------------------
# dense

def test_dense_identity():
    x = rng.standard_normal((3, 4))
    assert np.array_equal(ops.dense(x, np.eye(4), np.zeros(4)), x)


def test_dense_hand_case():
    out = ops.dense(np.array([[1.0, 2.0]]), np.eye(2), np.array([10.0, 20.0]))
    assert np.array_equal(out, [[11.0, 22.0]])


def test_dense_finite_difference():
    x = rng.standard_normal((2, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    g = rng.standard_normal((2, 3))
    gx, gw, gb = ops.dense_backward(x, w, g)
    assert ops.max_rel_error(
        gx, ops.finite_diff_grad(lambda v: float((ops.dense(v, w, b) * g).sum()), x)
    ) <= 1e-6
    assert ops.max_rel_error(
        gw, ops.finite_diff_grad(lambda v: float((ops.dense(x, v, b) * g).sum()), w)
    ) <= 1e-6
    assert np.allclose(gb, g.sum(axis=0))


def test_dense_shape_errors():
    with pytest.raises(ShapeError):
        ops.dense(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))
    with pytest.raises(ShapeError):
        ops.dense(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4))


# ---------------------------------------------------------------------------
# activations

def test_relu_values():
    assert np.array_equal(ops.relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])


def test_relu_backward_zero_at_kink():
    g = ops.relu_backward(np.array([-1.0, 0.0, 2.0]), np.ones(3))
    assert np.array_equal(g, [0.0, 0.0, 1.0])


RELU_SHAPES = [(1, 8, 8, 8), (3, 16, 16, 16), (3, 128)]


@pytest.mark.parametrize("shape", RELU_SHAPES)
def test_relu_backward_matches_reference_bytes(shape):
    _check_relu_backward_bytes(shape, np.float64)


@pytest.mark.parametrize("shape", RELU_SHAPES)
def test_relu_backward_matches_reference_bytes_float32(shape):
    _check_relu_backward_bytes(shape, np.float32)


def _check_relu_backward_bytes(shape, dtype):
    x = np.random.default_rng(13).standard_normal(shape).round(1).astype(dtype)  # exact zeros
    g = _upstream(shape, 14).astype(dtype)
    gx = ops.relu_backward(x, g)
    assert gx.dtype == dtype
    assert gx.tobytes() == kernels_ref.relu_backward(x, g).tobytes()
    assert not np.signbit(gx[x <= 0.0]).any()
    assert np.signbit(gx[(x > 0.0) & (g == 0.0)]).all()  # -0.0 passes through
    assert gx is not g and np.array_equal(g, _upstream(shape, 14).astype(dtype))


def test_softmax_uniform():
    assert np.allclose(ops.softmax([[0.0, 0.0, 0.0]]), 1.0 / 3.0)


def test_softmax_stability():
    out = ops.softmax([[1000.0, 0.0]])
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_rows_sum_to_one():
    z = rng.standard_normal((5, 7)) * 10
    assert np.allclose(ops.softmax(z).sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the oracle itself

def test_finite_diff_sum():
    x = rng.standard_normal((3, 3))
    g = ops.finite_diff_grad(lambda v: float(v.sum()), x)
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_square():
    g = ops.finite_diff_grad(lambda v: float((v**2).sum()), np.array([3.0]))
    assert abs(g[0] - 6.0) <= 1e-8


def test_max_rel_error_ignores_tiny_pairs():
    assert ops.max_rel_error([0.0, 1.0], [1e-12, 1.0]) == 0.0
    assert ops.max_rel_error([1.0], [2.0]) == pytest.approx(0.5)


@pytest.mark.parametrize("a, b", [([np.nan], [1.0]), ([1.0], [np.nan]),
                                  ([np.nan], [np.nan]), ([np.inf], [1.0]),
                                  ([1.0], [-np.inf]), ([np.inf], [-np.inf]),
                                  ([0.0, np.nan], [0.0, 0.0])])
def test_max_rel_error_reads_inf_for_a_non_finite_disagreement(a, b):
    with np.errstate(all="raise"):
        assert ops.max_rel_error(a, b) == np.inf


def test_max_rel_error_agreeing_pairs_read_zero():
    assert ops.max_rel_error([np.inf, -np.inf], [np.inf, -np.inf]) == 0.0
    assert ops.max_rel_error([1.0, 2.0], [1.0 + 5e-10, 2.0 - 5e-10]) == 0.0
    assert ops.max_rel_error([1.0, np.inf], [1.0 + 5e-10, np.inf]) == 0.0
