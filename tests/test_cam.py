"""Saliency maps against hand arithmetic and scripted brute-force oracles."""

import kernels_ref
import numpy as np
import pytest

from camnet import cam, model as nn
from camnet.errors import BuildError
from hessian_fd import fd_hessian_diag, kink_free, score_from_logits


def _linear_map_model(num_maps, head_columns, input_hw=(2, 2), conv_weights=None,
                      class_names=None):
    """Conv (1x1 by default) producing `num_maps` feature maps, then a
    plain linear head: logit_c = sum_j head_columns[j, c] * flat(A)_j."""
    h, w = input_hw
    k = head_columns.shape[1]
    names = class_names or tuple(f"c{i}" for i in range(k))
    kernel = 1 if conv_weights is None else conv_weights.shape[2]
    pad = (kernel - 1) // 2
    spec = nn.ModelSpec(
        (1, h, w),
        (nn.Conv(num_maps, kernel, 1, pad), nn.Flatten(), nn.Dense(k),
         nn.SoftmaxOutput()),
        tuple(names),
    )
    m = nn.build_model(spec, 0)
    if conv_weights is None:
        m.params[0]["weights"][...] = np.ones((num_maps, 1, 1, 1))
    else:
        m.params[0]["weights"][...] = conv_weights
    m.params[0]["bias"][...] = 0.0
    m.params[2]["weights"][...] = head_columns
    m.params[2]["bias"][...] = 0.0
    return m


def test_grad_wrt_activations_sum_head_is_all_ones():
    head = np.ones((4, 1))
    m = _linear_map_model(1, head)
    x = np.array([[[0.1, 0.2], [0.3, 0.4]]])
    g = cam.grad_wrt_activations(m, x, class_index=0)
    assert g.shape == (1, 2, 2)
    assert np.array_equal(g, np.ones((1, 2, 2)))


def test_gradcam_hand_case():
    # A = input through an identity 1x1 conv; Y = sum(A) so alpha = 1
    m = _linear_map_model(1, np.ones((4, 1)))
    x = np.array([[[-1.0, 2.0], [0.0, 4.0]]])
    weights, heat = cam.gradcam(m, x, class_index=0)
    assert weights.alpha == pytest.approx([1.0], abs=1e-15)
    assert np.array_equal(heat.raw, [[0.0, 2.0], [0.0, 4.0]])
    assert heat.normalized.max() == 1.0
    assert heat.normalized[1, 1] == 1.0
    assert np.array_equal(heat.normalized, heat.raw / 4.0)


def test_gradcam_zero_gradients_zero_map():
    head = np.zeros((4, 2))
    head[:, 1] = 1.0  # class 0 column stays all zero
    m = _linear_map_model(1, head)
    x = np.random.default_rng(0).random((1, 2, 2))
    weights, heat = cam.gradcam(m, x, class_index=0)
    assert not weights.alpha.any()
    assert not heat.raw.any()
    assert not heat.normalized.any()  # zero-map rule: stays zero, no 0/0


def _brute_force_maps(model, x, class_index):
    """Scripted per-element evaluation of the channel-weighting equations.

    A is computed with the naive loop convolution; dY/dA is read off the
    linear head analytically (flatten is channel-major), so nothing here
    shares code with the backward pass.
    """
    conv = model.spec.layers[0]
    a = kernels_ref.conv2d_reference(x[None], model.params[0]["weights"],
                                     model.params[0]["bias"], conv.stride, conv.pad)[0]
    k, u, v = a.shape
    head = model.params[2]["weights"]
    z = u * v
    alpha = np.empty(k)
    for ch in range(k):
        s = 0.0
        for i in range(u):
            for j in range(v):
                s += head[ch * z + i * v + j, class_index]
        alpha[ch] = s / z
    raw = np.zeros((u, v))
    for i in range(u):
        for j in range(v):
            acc = 0.0
            for ch in range(k):
                acc += alpha[ch] * a[ch, i, j]
            raw[i, j] = max(acc, 0.0)
    return alpha, raw


def test_gradcam_matches_brute_force_two_maps():
    rng = np.random.default_rng(3)
    conv_w = rng.standard_normal((2, 1, 3, 3))
    head = np.empty((2 * 16, 2))
    head[:16, 0] = 1.0   # map 1 weight +1
    head[16:, 0] = -1.0  # map 2 weight -1
    head[:, 1] = rng.standard_normal(32)
    m = _linear_map_model(2, head, input_hw=(4, 4), conv_weights=conv_w)
    x = rng.random((1, 4, 4))

    for c in (0, 1):
        alpha_bf, raw_bf = _brute_force_maps(m, x, c)
        weights, heat = cam.gradcam(m, x, c)
        assert np.abs(weights.alpha - alpha_bf).max() <= 1e-12
        assert np.abs(heat.raw - raw_bf).max() <= 1e-12


# ---------------------------------------------------------------------------
# Hessian diagonal

def test_hessian_linear_head_fd_near_zero():
    m = _linear_map_model(1, np.ones((4, 1)))
    x = np.array([[[0.3, -0.1], [0.7, 0.2]]])
    hess = fd_hessian_diag(m, x, 0)
    assert np.abs(hess).max() <= 1e-6


def test_hessian_auto_linear_head_exact_zero():
    m = _linear_map_model(1, np.ones((4, 1)))
    x = np.array([[[0.3, -0.1], [0.7, 0.2]]])
    hess = cam.hessian_diag(m, x, 0)
    assert not hess.any()


def _scalar_exp_toy():
    # A is a single 1x1 feature map a; head weight 2 gives S = exp(2a)
    spec = nn.ModelSpec(
        (1, 1, 1),
        (nn.Conv(1, 1, 1, 0), nn.Flatten(), nn.Dense(1), nn.SoftmaxOutput()),
        ("only",),
    )
    m = nn.build_model(spec, 0)
    m.params[0]["weights"][...] = 1.0
    m.params[0]["bias"][...] = 0.0
    m.params[2]["weights"][...] = 2.0
    m.params[2]["bias"][...] = 0.0
    return m


def test_hessian_exp_toy_fd_matches_analytic():
    m = _scalar_exp_toy()
    a = 0.4
    x = np.full((1, 1, 1), a)
    hess = fd_hessian_diag(m, x, 0, score_kind="exp_logit", step=1e-3)
    analytic = 4.0 * np.exp(2.0 * a)
    assert abs(hess[0, 0, 0] - analytic) / analytic <= 1e-4


def test_hessian_fast_matches_exp_toy_exactly():
    m = _scalar_exp_toy()
    x = np.full((1, 1, 1), 0.4)
    cfg = cam.CamConfig(score_kind="exp_logit")
    hess = cam.hessian_diag(m, x, 0, cfg=cfg)
    assert hess[0, 0, 0] == pytest.approx(4.0 * np.exp(0.8), rel=1e-12)


def _vgg_nano_16():
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 21)
    return m, np.random.default_rng(22).random((1, 16, 16))


def test_hessian_logit_shallow_target_exact_zero():
    # conv, pooling and dense layers downstream are all piecewise linear
    m, x = _vgg_nano_16()
    hess = cam.hessian_diag(m, x, 1, cam.CamConfig(target_layer=0))
    assert hess.shape == (8, 16, 16)
    assert not hess.any()


@pytest.mark.parametrize("score_kind,target_layer", [
    ("probability", None), ("exp_logit", 0), ("probability", 0),
])
def test_hessian_closed_form_matches_fd(score_kind, target_layer):
    m, x = _vgg_nano_16()
    c, h = 1, 1e-3
    fd = fd_hessian_diag(m, x, c, target_layer, score_kind, step=h)
    exact = cam.hessian_diag(m, x, c, cam.CamConfig(target_layer, score_kind))
    safe = kink_free(m, x, target_layer, step=h)
    # the FD's own rounding error: a few ulp of the score, over h^2
    nn.forward(m, x[None], capture=True)
    y0 = score_from_logits(m.cache.activations[-2], c, score_kind)
    fd_rounding = 8 * np.finfo(float).eps * abs(y0) / (h * h)
    bound = 1e-3 * np.maximum(np.abs(fd), np.abs(exact)) + fd_rounding
    assert (np.abs(fd - exact) <= bound)[safe].all()
    assert safe.mean() > 0.5


def test_hessian_probability_is_softmax_hessian_on_linear_head():
    # logits z = W^T a exactly, so d2p_c/da^2 = diag(W S W^T) with S the
    # softmax Hessian p_c[(e_c - p)(e_c - p)^T - (diag p - p p^T)]
    rng = np.random.default_rng(8)
    head = rng.standard_normal((4, 3))
    m = _linear_map_model(1, head)
    x = rng.random((1, 2, 2))
    c = 2
    z = x.reshape(-1) @ head
    p = np.exp(z) / np.exp(z).sum()
    d = np.eye(3)[c] - p
    s = p[c] * (np.outer(d, d) - np.diag(p) + np.outer(p, p))
    expect = np.einsum("ik,kl,il->i", head, s, head).reshape(1, 2, 2)
    hess = cam.hessian_diag(m, x, c, cfg=cam.CamConfig(score_kind="probability"))
    assert np.abs(hess - expect).max() <= 1e-14


# ---------------------------------------------------------------------------
# Grad-CAM++

def test_gradcam_pp_linear_head_doubles_alpha():
    rng = np.random.default_rng(5)
    head = rng.standard_normal((2 * 16, 2))
    m = _linear_map_model(2, head, input_hw=(4, 4),
                          conv_weights=rng.standard_normal((2, 1, 3, 3)))
    x = rng.random((1, 4, 4))
    w_gc, h_gc = cam.gradcam(m, x, 0)
    w_pp, h_pp = cam.gradcam_pp(m, x, 0)
    assert np.abs(w_pp.alpha - 2.0 * w_gc.alpha).max() <= 1e-15
    if h_gc.raw.max() > 0:
        assert np.abs(h_pp.normalized - h_gc.normalized).max() <= 1e-12


def test_gradcam_pp_zero_everything():
    head = np.zeros((4, 2))
    head[:, 1] = 1.0
    m = _linear_map_model(1, head)
    x = np.random.default_rng(1).random((1, 2, 2))
    _, heat = cam.gradcam_pp(m, x, 0)
    assert not heat.raw.any() and not heat.normalized.any()


def test_heatmap_invariants_random_inputs():
    spec = nn.preset("vgg-nano", input_hw=(16, 16))
    m = nn.build_model(spec, 9)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.random((1, 16, 16))
        for fn in (cam.gradcam, cam.gradcam_pp):
            _, heat = fn(m, x, int(rng.integers(3)))
            assert (heat.raw >= 0).all()
            assert heat.normalized.shape == (16, 16)
            assert heat.normalized.min() >= 0.0
            assert heat.normalized.max() <= 1.0
            if heat.raw.max() > 0:
                assert heat.normalized.max() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# shared logit rows

def _reference_alpha(model, x, class_index, cfg, method):
    """alpha of `method` from the per-score backward of kernels_ref, on a
    fresh capture, and the target layer index."""
    cache = cam.capture(model, x)
    idx = cam._resolve_target(model, cfg)
    g = kernels_ref.score_grad_reference(model, cache, idx, class_index, cfg.score_kind)
    if method == "gradcam":
        return g.mean(axis=(1, 2)), cache, idx
    hess = cam.hessian_diag(model, x, class_index, cfg, cache)
    return (hess + 2.0 * g).mean(axis=(1, 2)), cache, idx


def _rows_cases():
    for hw, seed in (((16, 16), 31), ((16, 16), 32), ((128, 128), 33)):
        m = nn.build_model(nn.preset("vgg-nano", input_hw=hw), seed)
        x = np.random.default_rng(seed).random((1,) + hw)
        for target_layer in (None, 0):
            for c in range(3):
                yield m, x, target_layer, c


def test_logit_rows_give_reference_bytes():
    for m, x, target_layer, c in _rows_cases():
        cfg = cam.CamConfig(target_layer=target_layer)
        cache = cam.capture(m, x)
        for method, fn in (("gradcam", cam.gradcam), ("gradcam_pp", cam.gradcam_pp)):
            weights, heat = fn(m, x, c, cfg, cache=cache)
            alpha, ref_cache, idx = _reference_alpha(m, x, c, cfg, method)
            _, ref_heat = cam._combine(m, ref_cache, idx, alpha, c, method)
            assert weights.alpha.tobytes() == alpha.tobytes()
            assert heat.raw.tobytes() == ref_heat.raw.tobytes()
            assert heat.normalized.tobytes() == ref_heat.normalized.tobytes()


@pytest.mark.parametrize("score_kind", ["exp_logit", "probability"])
def test_combined_rows_match_reference_backward(score_kind):
    # a combination of rows rounds differently from one backward of the
    # combined upstream.  Over 336 vgg-nano cases per method and score kind
    # (16x16, 32x32 and 128x128, both target layers, every class) the worst
    # gap was 3.4e-15 in alpha, relative to its largest entry, and 1.4e-14
    # in the normalized heatmap
    for m, x, target_layer, c in _rows_cases():
        cfg = cam.CamConfig(target_layer=target_layer, score_kind=score_kind)
        cache = cam.capture(m, x)
        for method, fn in (("gradcam", cam.gradcam), ("gradcam_pp", cam.gradcam_pp)):
            weights, heat = fn(m, x, c, cfg, cache=cache)
            alpha, ref_cache, idx = _reference_alpha(m, x, c, cfg, method)
            _, ref_heat = cam._combine(m, ref_cache, idx, alpha, c, method)
            assert np.abs(weights.alpha - alpha).max() <= 1e-13 * np.abs(alpha).max()
            assert np.abs(heat.normalized - ref_heat.normalized).max() <= 1e-13


def test_logit_rows_are_memoised_read_only(monkeypatch):
    m, x = _vgg_nano_16()
    cache = cam.capture(m, x)
    calls = []
    backward = nn.backward
    monkeypatch.setattr(nn, "backward", lambda *a, **k: calls.append(1) or backward(*a, **k))
    g = cam.grad_wrt_activations(m, x, 1, cache=cache)
    assert cam.grad_wrt_activations(m, x, 1, cache=cache) is g
    cam.gradcam_pp(m, x, 1, cam.CamConfig(score_kind="exp_logit"), cache=cache)
    assert len(calls) == 1
    idx = nn.deepest_conv_index(m.spec)
    assert list(cache.logit_rows) == [(idx, 1)]
    with pytest.raises(ValueError):
        g[0, 0, 0] = 1.0
    cam.hessian_diag(m, x, 1, cam.CamConfig(0, "probability"), cache)
    assert len(calls) == 4  # target 0 is another layer: three rows of its own
    for row in cache.logit_rows.values():
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row *= 2.0


def test_target_layer_must_be_conv():
    m = _linear_map_model(1, np.ones((4, 1)))
    with pytest.raises(BuildError):
        cam.gradcam(m, np.zeros((1, 2, 2)), 0, cam.CamConfig(target_layer=1))


# ---------------------------------------------------------------------------
# rendering

def test_colormap_knots():
    out = cam.colormap(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(out[0], [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(out[1], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(out[2], [1.0, 0.0, 0.0], atol=1e-15)


def test_overlay_zero_map_is_blue_tinted_base():
    base = np.full((2, 2, 1), 0.4)
    heat = cam.Heatmap(raw=np.zeros((2, 2)), normalized=np.zeros((2, 2)))
    out = cam.render_overlay(heat, base)
    # 0.5 * gray + 0.5 * (0, 0, 1)
    expect = np.round(255 * np.array([0.2, 0.2, 0.7])).astype(np.uint8)
    assert np.array_equal(out[0, 0], expect)


def test_overlay_deterministic():
    rng = np.random.default_rng(2)
    base = rng.random((4, 4, 1))
    norm = rng.random((4, 4))
    heat = cam.Heatmap(raw=norm, normalized=norm)
    a = cam.render_overlay(heat, base)
    b = cam.render_overlay(heat, base)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (4, 4, 3)
