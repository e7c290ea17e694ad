"""Model graph: spec validation, forward/backward, serialization, presets."""

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
