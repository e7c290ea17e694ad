"""Model graph: spec validation, forward/backward, serialization, presets."""

import kernels_ref
import numpy as np
import pytest

from camnet import model as nn
from camnet import ops
from camnet.errors import (
    BuildError,
    SpecMismatchError,
    TruncatedWeightsError,
    WeightMagicError,
)

TOY = nn.ModelSpec(
    input_shape=(1, 8, 8),
    layers=(nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
            nn.Dense(3), nn.SoftmaxOutput()),
    class_names=("a", "b", "c"),
)


def test_param_count_toy():
    m = nn.build_model(TOY, init_seed=0)
    # (2*1*3*3 + 2) + (2*4*4*3 + 3) = 20 + 99
    assert m.num_params() == 119


def test_build_is_deterministic():
    a = nn.build_model(TOY, init_seed=5)
    b = nn.build_model(TOY, init_seed=5)
    for (_, _, pa), (_, _, pb) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(pa, pb)
    c = nn.build_model(TOY, init_seed=6)
    assert not np.array_equal(a.params[0]["weights"], c.params[0]["weights"])


def test_validation_rejects_dense_before_flatten():
    spec = nn.ModelSpec((1, 8, 8), (nn.Dense(3), nn.SoftmaxOutput()), ("a", "b", "c"))
    with pytest.raises(BuildError, match="layer 0"):
        nn.build_model(spec, 0)


def test_validation_rejects_missing_softmax():
    spec = nn.ModelSpec((1, 8, 8), (nn.Conv(2, 3), nn.Flatten(), nn.Dense(3)),
                        ("a", "b", "c"))
    with pytest.raises(BuildError, match="SoftmaxOutput"):
        nn.validate_spec(spec)


def test_validation_rejects_class_count_mismatch():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.Flatten(), nn.Dense(4), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    with pytest.raises(BuildError, match="classes"):
        nn.validate_spec(spec)


@pytest.mark.parametrize("text,message", [
    ("input=1x8x8;layers=Conv(8,3,0,1)|Flatten|Dense(3)|Softmax", "layer 0 .*stride >= 1"),
    ("input=1x8x8;layers=Conv(-2,3,1,1)|Flatten|Dense(3)|Softmax", "layer 0 .*channels"),
    ("input=1x8x8;layers=Conv(2,3,1,-1)|Flatten|Dense(3)|Softmax", "layer 0 .*pad >= 0"),
    ("input=1x8x8;layers=Conv(2,0,1,1)|Flatten|Dense(3)|Softmax", "layer 0 .*kernel"),
    ("input=1x8x8;layers=Conv(2,3,1,1)|Flatten|Dense(0)|Dense(3)|Softmax", "layer 2 .*units >= 1"),
    ("input=0x8x8;layers=Conv(2,3,1,1)|Flatten|Dense(3)|Softmax", "input dims must be >= 1"),
    ("input=1x8x8;layers=Conv(2,3,1,1)|Flatten|MaxPool2|Dense(3)|Softmax",
     r"layer 2 \(MaxPool2\): MaxPool2 needs a \(C,H,W\) input"),
    ("input=1x8x8;layers=Conv(2,3,1,1)|Flatten|Flatten|Dense(3)|Softmax",
     r"layer 2 \(Flatten\): Flatten needs a \(C,H,W\) input"),
])
def test_validation_rejects_bad_layer_parameters(text, message):
    with pytest.raises(BuildError, match=message):
        nn.validate_spec(nn.parse_spec_text(text + ";classes=a,b,c"))


def test_spec_text_round_trip():
    text = TOY.canonical()
    assert nn.parse_spec_text(text) == TOY
    with pytest.raises(BuildError):
        nn.parse_spec_text("input=1x8x8;layers=Bogus;classes=a")


# ---------------------------------------------------------------------------
# forward

def test_forward_rows_sum_to_one():
    m = nn.build_model(TOY, 1)
    x = np.random.default_rng(0).random((4, 1, 8, 8))
    probs = nn.forward(m, x)
    assert probs.shape == (4, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_eval_forward_is_deterministic_and_dropout_free():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
         nn.Dense(8), nn.Dropout(0.5), nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 1)
    x = np.random.default_rng(0).random((2, 1, 8, 8))
    assert np.array_equal(nn.forward(m, x), nn.forward(m, x))


def test_dropout_rate_zero_matches_eval():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
         nn.Dense(8), nn.Dropout(0.0), nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 1)
    x = np.random.default_rng(0).random((2, 1, 8, 8))
    assert np.array_equal(nn.forward(m, x, train_mode=True, dropout_seed=3),
                          nn.forward(m, x))


def test_dropout_mask_statistics():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.Flatten(), nn.Dense(1000), nn.Dropout(0.5),
         nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 1)
    x = np.ones((4, 1, 8, 8))
    nn.forward(m, x, train_mode=True, dropout_seed=9, capture=True)
    mask = m.cache.dropout_masks[3]
    kept = (mask > 0).mean()
    # binomial(4000, 0.5): 3 sigma is about 0.024
    assert abs(kept - 0.5) < 0.03
    assert set(np.unique(mask)) == {0.0, 2.0}


def test_forward_shape_error():
    m = nn.build_model(TOY, 0)
    with pytest.raises(Exception):
        nn.forward(m, np.zeros((1, 1, 9, 9)))


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_upstream():
    m = nn.build_model(TOY, 2)
    x = np.random.default_rng(1).random((2, 1, 8, 8))
    nn.forward(m, x, capture=True)
    grads = nn.backward(m, np.zeros((2, 3)))
    for layer_grads in grads.params:
        for g in layer_grads.values():
            assert not g.any()


def test_backward_whole_model_finite_difference():
    spec = nn.ModelSpec(
        (1, 6, 6),
        (nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
         nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 3)
    x = np.random.default_rng(2).random((2, 1, 6, 6))
    labels = [0, 2]

    def loss_fn():
        probs = nn.forward(m, x)
        return float(-np.log(probs[np.arange(2), labels]).mean())

    probs = nn.forward(m, x, capture=True)
    upstream = probs.copy()
    upstream[np.arange(2), labels] -= 1.0
    grads = nn.backward(m, upstream / 2.0)

    for li, name, p in m.param_items():
        def probe(v, li=li, name=name, p=p):
            saved = p.copy()
            p[...] = v
            out = loss_fn()
            p[...] = saved
            return out
        fd = ops.finite_diff_grad(probe, p)
        assert ops.max_rel_error(grads.params[li][name], fd) <= 1e-6, (li, name)


def test_backward_activation_gradient_shape():
    m = nn.build_model(TOY, 2)
    x = np.random.default_rng(1).random((2, 1, 8, 8))
    nn.forward(m, x, capture=True)
    grads = nn.backward(m, np.ones((2, 3)) / 3.0)
    conv_idx = nn.deepest_conv_index(m.spec)
    assert (grads.activation_nchw(conv_idx + 1).shape
            == m.activation_nchw(conv_idx + 1).shape)


@pytest.mark.parametrize("target", [0, 2, 5, 7])
def test_stopped_backward_matches_full_and_skips_params(monkeypatch, target):
    spec = nn.preset("vgg-nano", input_hw=(16, 16))
    assert isinstance(spec.layers[target], nn.Conv)
    m = nn.build_model(spec, 3)
    x = np.random.default_rng(5).random((2, 1, 16, 16))
    nn.forward(m, x, capture=True)
    upstream = np.random.default_rng(6).standard_normal((2, 3))
    full = nn.backward(m, upstream)

    param_grads = []
    for name in ("conv2d_backward_nhwc", "dense_backward"):
        op = getattr(ops, name)

        def spy(*args, op=op, **kwargs):
            out = op(*args, **kwargs)
            param_grads.extend(out[1:])
            return out
        monkeypatch.setattr(ops, name, spy)
    stop = target + 1
    stopped = nn.backward(m, upstream, stop=stop, need_param_grads=False)

    assert param_grads and all(g is None for g in param_grads)
    assert all(p == {} for p in stopped.params)
    assert all(g is None for g in stopped.activations[:stop])
    for i in range(stop, len(full.activations)):
        assert stopped.activations[i].tobytes() == full.activations[i].tobytes(), i


def test_training_backward_matches_reference_kernels(monkeypatch):
    """A vgg-nano train-mode step gives the same gradient bytes with the
    plainer kernels of tests/kernels_ref.py.  The step runs each of them,
    the input gradient at 8 and 16 channels, and its dropout sends -0.0
    upstreams into the dense ReLU."""
    spec = nn.preset("vgg-nano", input_hw=(32, 32))
    m = nn.build_model(spec, 9)
    x = np.random.default_rng(8).random((4, 1, 32, 32))
    upstream = np.random.default_rng(10).standard_normal((4, 3))

    def step():
        nn.forward(m, x, train_mode=True, dropout_seed=4, capture=True)
        return nn.backward(m, upstream, need_input_grad=False)
    fast = step()
    monkeypatch.setattr(ops, "maxpool2_nhwc", kernels_ref.maxpool2_nhwc)
    monkeypatch.setattr(ops, "maxpool2_backward_nhwc",
                        kernels_ref.maxpool2_backward_nhwc)
    monkeypatch.setattr(ops, "relu_backward", kernels_ref.relu_backward)
    monkeypatch.setattr(ops, "_conv_input_grad_stride1",
                        kernels_ref.conv_input_grad_stride1)
    ref = step()

    assert any((np.signbit(g) & (g == 0.0)).any()  # some -0.0 gradients
               for g in ref.activations[1:])
    for i, (a, b) in enumerate(zip(fast.activations, ref.activations)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), i
    for i, (pa, pb) in enumerate(zip(fast.params, ref.params)):
        assert pa.keys() == pb.keys(), i
        for name in pa:
            assert pa[name].tobytes() == pb[name].tobytes(), (i, name)


def test_eval_forward_gives_unbanded_probability_bytes(monkeypatch):
    """A 128x128 vgg-nano eval forward, whose convs run banded, gives the
    probabilities of whole-batch patch matrices."""
    m = nn.build_model(nn.preset("vgg-nano"), 4)
    x = np.random.default_rng(11).random((2, 1, 128, 128))
    fast = [nn.forward(m, x[i:i + 1]) for i in range(2)]
    monkeypatch.setattr(ops, "conv2d_nhwc", kernels_ref.conv2d_nhwc_reference)
    for i in range(2):
        assert fast[i].tobytes() == nn.forward(m, x[i:i + 1]).tobytes(), i


def test_eval_capture_keeps_no_patch_matrices(monkeypatch):
    """Parameter gradients on an eval-mode capture, which rebuilds each
    patch matrix, equal those from kept matrices byte for byte."""
    monkeypatch.setattr(ops, "CONV_BAND_BYTES", 1)  # band even a 16x16 conv
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 2)
    x = np.random.default_rng(12).random((2, 1, 16, 16))
    upstream = np.random.default_rng(13).standard_normal((2, 3))
    nn.forward(m, x, capture=True)
    cache = m.cache
    assert cache.conv_cols == {}
    rebuilt = nn.backward(m, upstream)

    for i, layer in enumerate(m.spec.layers):
        if isinstance(layer, nn.Conv):
            p = m.params[i]
            _, cache.conv_cols[i] = ops.conv2d_nhwc(
                cache.activations[i], p["weights"], p["bias"], layer.stride, layer.pad,
                return_cols=True)
    kept = nn.backward(m, upstream, cache=cache)
    for li, name, _ in m.param_items():
        assert rebuilt.params[li][name].tobytes() == kept.params[li][name].tobytes()


def test_forward_from_matches_forward():
    m = nn.build_model(TOY, 4)
    x = np.random.default_rng(3).random((1, 1, 8, 8))
    probs = nn.forward(m, x, capture=True)
    conv_idx = nn.deepest_conv_index(m.spec)
    logits = nn.forward_from(m, conv_idx, m.activation_nchw(conv_idx + 1))
    assert np.allclose(ops.softmax(logits), probs, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path):
    m = nn.build_model(TOY, 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    m2 = nn.load_weights(TOY, path)
    x = np.random.default_rng(4).random((2, 1, 8, 8))
    assert np.array_equal(nn.forward(m, x), nn.forward(m2, x))
    # bytes round-trip exactly
    nn.save_weights(m2, tmp_path / "w2.camf")
    assert (tmp_path / "w.camf").read_bytes() == (tmp_path / "w2.camf").read_bytes()


def test_load_gives_aligned_writable_bit_equal_params(tmp_path):
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    m2 = nn.load_weights(m.spec, path)
    for (li, name, a), (_, _, b) in zip(m.param_items(), m2.param_items()):
        assert b.dtype == np.float64 and b.shape == a.shape, (li, name)
        assert b.flags.c_contiguous and b.flags.aligned and b.flags.writeable
        assert b.tobytes() == a.tobytes(), (li, name)
    assert nn.load_weights(None, path).spec == m.spec


def test_load_truncated_at_every_byte(tmp_path):
    m = nn.build_model(TOY, 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    data = path.read_bytes()
    header_end = data.index(b"\n") + 1
    short = tmp_path / "short.camf"
    for n in range(len(data)):
        short.write_bytes(data[:n])
        expect = WeightMagicError if n < 8 else TruncatedWeightsError
        with pytest.raises(expect) as err:
            nn.load_weights(TOY, short)
        if 8 <= n < header_end:
            assert str(err.value) == "missing header line"


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.camf"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(WeightMagicError):
        nn.load_weights(TOY, path)


def test_load_spec_mismatch(tmp_path):
    m = nn.build_model(TOY, 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    other = nn.ModelSpec(TOY.input_shape, TOY.layers, ("x", "y", "z"))
    with pytest.raises(SpecMismatchError):
        nn.load_weights(other, path)


def test_load_truncated(tmp_path):
    m = nn.build_model(TOY, 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    data = path.read_bytes()
    short = tmp_path / "short.camf"
    short.write_bytes(data[: len(data) - 10])
    with pytest.raises(TruncatedWeightsError):
        nn.load_weights(TOY, short)


# ---------------------------------------------------------------------------
# presets

def test_vgg_nano_builds():
    spec = nn.preset("vgg-nano")
    m = nn.build_model(spec, 0)
    assert m.num_params() > 0
    assert spec.class_names == ("glioma", "menin", "tumor")


def test_vgg_nano_flatten_size():
    spec = nn.preset("vgg-nano", input_hw=(128, 128))
    shapes = nn.validate_spec(spec)
    flat_idx = next(i for i, l in enumerate(spec.layers) if isinstance(l, nn.Flatten))
    assert shapes[flat_idx] == (16 * 32 * 32,)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(BuildError, match="vgg-nano"):
        nn.preset("vgg-giant")
