"""Model graph: spec validation, forward/backward, serialization, presets."""

import sys

import kernels_ref
import numpy as np
import pytest

from camnet import model as nn
from camnet import ops, optim, tuning
from camnet.errors import (
    BuildError,
    ShapeError,
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
    probs = nn.forward(m, x).activations[-1]
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
    assert np.array_equal(nn.forward(m, x).activations[-1],
                          nn.forward(m, x).activations[-1])


def test_dropout_rate_zero_matches_eval():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
         nn.Dense(8), nn.Dropout(0.0), nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 1)
    x = np.random.default_rng(0).random((2, 1, 8, 8))
    assert np.array_equal(nn.forward(m, x, train_mode=True, dropout_seed=3).activations[-1],
                          nn.forward(m, x).activations[-1])


def test_dropout_mask_statistics():
    spec = nn.ModelSpec(
        (1, 8, 8),
        (nn.Conv(2, 3, 1, 1), nn.Flatten(), nn.Dense(1000), nn.Dropout(0.5),
         nn.Dense(3), nn.SoftmaxOutput()),
        ("a", "b", "c"),
    )
    m = nn.build_model(spec, 1)
    x = np.ones((4, 1, 8, 8))
    mask = nn.forward(m, x, train_mode=True, dropout_seed=9).dropout_masks[3]
    kept = (mask > 0).mean()
    # binomial(4000, 0.5): 3 sigma is about 0.024
    assert abs(kept - 0.5) < 0.03
    assert set(np.unique(mask)) == {0.0, 2.0}


def test_forward_shape_error():
    m = nn.build_model(TOY, 0)
    with pytest.raises(ShapeError, match=r"batch shape \(1, 1, 9, 9\)"):
        nn.forward(m, np.zeros((1, 1, 9, 9)))
    for train_mode, first, total, images in (
            (False, 0, 4, "0..1"),   # an eval-mode pass is never a shard
            (True, 3, 4, "3..4"),    # a shard that runs past the batch's end
            (True, -1, 4, "-1..0")):  # a shard that starts before image 0
        with pytest.raises(ShapeError, match=rf"a train-mode batch of {total} "
                                             rf"images has no images {images}$"):
            nn.forward(m, np.zeros((2, 1, 8, 8)), train_mode=train_mode,
                       first=first, total=total)


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_upstream():
    m = nn.build_model(TOY, 2)
    x = np.random.default_rng(1).random((2, 1, 8, 8))
    grads = nn.backward(m, nn.forward(m, x), np.zeros((2, 3)))
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
        probs = nn.forward(m, x).activations[-1]
        return float(-np.log(probs[np.arange(2), labels]).mean())

    cache = nn.forward(m, x)
    upstream = cache.activations[-1].copy()
    upstream[np.arange(2), labels] -= 1.0
    grads = nn.backward(m, cache, upstream / 2.0)

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
    cache = nn.forward(m, x)
    grads = nn.backward(m, cache, np.ones((2, 3)) / 3.0)
    conv_idx = nn.deepest_conv_index(m.spec)
    assert (grads.activation_nchw(conv_idx + 1).shape
            == cache.activation_nchw(conv_idx + 1).shape)


@pytest.mark.parametrize("target", [0, 2, 5, 7])
def test_stopped_backward_matches_full_and_skips_params(monkeypatch, target):
    spec = nn.preset("vgg-nano", input_hw=(16, 16))
    assert isinstance(spec.layers[target], nn.Conv)
    m = nn.build_model(spec, 3)
    x = np.random.default_rng(5).random((2, 1, 16, 16))
    cache = nn.forward(m, x)
    upstream = np.random.default_rng(6).standard_normal((2, 3))
    full = nn.backward(m, cache, upstream)

    param_grads = []
    for name in ("conv2d_backward_nhwc", "dense_backward"):
        op = getattr(ops, name)

        def spy(*args, op=op, **kwargs):
            out = op(*args, **kwargs)
            param_grads.extend(out[1:])
            return out
        monkeypatch.setattr(ops, name, spy)
    stop = target + 1
    stopped = nn.backward(m, cache, upstream, stop=stop, need_param_grads=False)

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
        cache = nn.forward(m, x, train_mode=True, dropout_seed=4)
        return nn.backward(m, cache, upstream, need_input_grad=False)
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


# ---------------------------------------------------------------------------
# sharded train-mode steps

# a Dropout in the conv stack, before and after the pool, and one in the head
SHARDED = nn.ModelSpec(
    (1, 6, 6),
    (nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.Dropout(0.25), nn.MaxPool2(), nn.Dropout(0.5),
     nn.Flatten(), nn.Dense(4), nn.Dropout(0.5), nn.Dense(3), nn.SoftmaxOutput()),
    ("a", "b", "c"),
)


def _spy_shards(monkeypatch):
    """{first: (capture, Gradients, total)} of every shard a train_step
    runs from here on, keyed by the `first` that its forward call is
    given, with the Gradients of its backward call."""
    seen, placed = {}, {}
    forward, backward = nn.forward, nn.backward

    def spy_forward(model, batch, *args, first=0, total=None, **kwargs):
        cache = forward(model, batch, *args, first=first, total=total, **kwargs)
        placed[id(cache)] = first, total
        return cache

    def spy_backward(model, cache, *args, **kwargs):
        grads = backward(model, cache, *args, **kwargs)
        first, total = placed[id(cache)]
        seen[first] = (cache, grads, total)
        return grads
    monkeypatch.setattr(nn, "forward", spy_forward)
    monkeypatch.setattr(nn, "backward", spy_backward)
    return seen


def test_sharded_dropout_draws_the_whole_batch_stream(monkeypatch):
    """20 images run as shards of 8, 8 and 4; each Dropout's masks are
    the slices of the block one whole-batch stream draws, layer after
    layer, and the head's mask continues after the conv stack's."""
    m = nn.build_model(SHARDED, 5)
    x = np.random.default_rng(3).random((20, 1, 6, 6))
    shards = _spy_shards(monkeypatch)
    nn.train_step(m, x, lambda p, rows: np.zeros_like(p), dropout_seed=21)
    caches = [shards[a][0] for a in sorted(shards)]
    assert [len(c.activations[0]) for c in caches] == [8, 8, 4]
    assert sorted(shards) == [0, 8, 16] and {total for *_, total in shards.values()} == {20}
    # each shard's capture holds every layer's output for its own images
    assert [c.activation_nchw(1).shape for c in caches] == [(8, 2, 6, 6), (8, 2, 6, 6),
                                                            (4, 2, 6, 6)]

    stream = nn.Rng(21)
    for i, shape in ((2, (20, 6, 6, 2)), (4, (20, 3, 3, 2)), (7, (20, 4))):
        rate = SHARDED.layers[i].rate
        keep = stream.uniform_block(int(np.prod(shape))).reshape(shape) >= rate
        want = keep.astype(np.float64)
        want /= 1.0 - rate
        got = np.concatenate([c.dropout_masks[i] for c in caches])
        assert got.tobytes() == want.tobytes(), i


def test_sharded_step_matches_finite_differences_and_the_whole_batch(monkeypatch):
    """A float64 train step on 20 images (3 shards, the last ragged)
    gives parameter gradients within 1e-6 of finite differences, the
    probabilities, activation gradients and Dense gradients of a
    whole-batch pass byte for byte, and its conv gradients within 1e-12."""
    m = nn.build_model(SHARDED, 3)
    x = np.random.default_rng(2).random((20, 1, 6, 6))
    labels = np.arange(20) % 3

    def loss_fn():
        probs = nn.forward(m, x, train_mode=True, dropout_seed=8).activations[-1]
        return float(-np.log(probs[np.arange(20), labels]).mean())

    shards = _spy_shards(monkeypatch)
    probs, grads = nn.train_step(
        m, x, lambda p, rows: optim.logit_grad(p, labels[rows], 20), dropout_seed=8)
    shards = dict(shards)  # the whole-batch backward below is spied too
    assert sorted(shards) == [0, 8, 16]
    for li, name, p in m.param_items():
        def probe(v, li=li, name=name, p=p):
            saved = p.copy()
            p[...] = v
            out = loss_fn()
            p[...] = saved
            return out
        fd = ops.finite_diff_grad(probe, p)
        assert ops.max_rel_error(grads.params[li][name], fd) <= 1e-6, (li, name)

    whole_cache = nn.forward(m, x, train_mode=True, dropout_seed=8)
    whole = nn.backward(m, whole_cache, optim.logit_grad(whole_cache.activations[-1],
                                                         labels, 20))
    assert whole_cache.activations[-1].tobytes() == probs.tobytes()
    # every activation gradient a shard computes (all but the input's)
    for i in range(1, len(SHARDED.layers) + 1):
        got = np.concatenate([shards[a][1].activations[i] for a in (0, 8, 16)])
        assert got.tobytes() == whole.activations[i].tobytes(), i
    for li, name, _ in m.param_items():
        if isinstance(SHARDED.layers[li], nn.Dense):
            assert grads.params[li][name].tobytes() == whole.params[li][name].tobytes()
        assert ops.max_rel_error(grads.params[li][name], whole.params[li][name],
                                 atol=1e-15) <= 1e-12, (li, name)


# a 1x1 Conv has one product per output, so its output is the same bytes
# on any number of images; the head is vgg-nano's at 32x32, Dense(1024->128)
EXACT_CONVS = nn.ModelSpec(
    (1, 32, 32),
    (nn.Conv(16, 1), nn.ReLU(), nn.MaxPool2(), nn.MaxPool2(), nn.Flatten(),
     nn.Dense(128), nn.ReLU(), nn.Dropout(0.5), nn.Dense(3), nn.SoftmaxOutput()),
    ("a", "b", "c"),
)


@pytest.mark.parametrize("n", [16, 32])
def test_sharded_step_head_rounds_as_the_whole_batch(n):
    """A float32 step of 2 or 4 full shards gives a whole-batch pass's
    probabilities and Dense gradients byte for byte: each shard's Dense
    GEMMs run on its own 8 rows and round as the whole batch's."""
    m = nn.build_model(EXACT_CONVS, 9)
    m = nn.Model(m.spec, [{k: a.astype(np.float32) for k, a in p.items()}
                          for p in m.params], m.layer_shapes)
    x = np.random.default_rng(n).random((n, 1, 32, 32))
    upstream = np.random.default_rng(1).standard_normal((n, 3)) / n
    probs, grads = nn.train_step(m, x, lambda p, rows: upstream[rows], dropout_seed=3)
    cache = nn.forward(m, x, train_mode=True, dropout_seed=3)
    whole = nn.backward(m, cache, upstream, need_input_grad=False)
    assert probs.tobytes() == cache.activations[-1].tobytes()
    for li in (5, 8):
        for name in ("weights", "bias"):
            assert grads.params[li][name].tobytes() == whole.params[li][name].tobytes()


def test_sharded_step_bytes_under_more_workers_than_cores(monkeypatch):
    """5 shards on 4 workers, with threads switching every 10 us, give
    the probabilities and gradients of one worker byte for byte; so do
    33 images, whose last shard of 1 image runs its head as a GEMV."""
    m = nn.build_model(SHARDED, 7)
    shards = _spy_shards(monkeypatch)
    interval = sys.getswitchinterval()
    for n in (40, 33):
        x = np.random.default_rng(4).random((n, 1, 6, 6))
        upstream = np.random.default_rng(5).standard_normal((n, 3))
        results = []
        try:
            for workers in (1, 4):
                monkeypatch.setattr(tuning, "workers", lambda workers=workers: workers)
                sys.setswitchinterval(1e-5)
                probs, grads = nn.train_step(m, x, lambda p, rows: upstream[rows],
                                             dropout_seed=2)
                results.append([probs.tobytes()] +
                               [shards[a][1].activations[1].tobytes()
                                for a in range(0, n, 8)] +
                               [a.tobytes() for p in grads.params for a in p.values()])
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1], n


def test_predict_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(32, 32)), 6)
    x = np.random.default_rng(14).random((10, 1, 32, 32))
    monkeypatch.setattr(tuning, "workers", lambda: 1)
    want = nn.predict(m, x)
    monkeypatch.setattr(tuning, "workers", lambda: 2)
    assert nn.predict(m, iter(x)).tobytes() == want.tobytes()


def test_eval_forward_gives_unbanded_probability_bytes(monkeypatch):
    """A 128x128 vgg-nano eval forward, whose convs run banded, gives the
    probabilities of whole-batch patch matrices."""
    m = nn.build_model(nn.preset("vgg-nano"), 4)
    x = np.random.default_rng(11).random((2, 1, 128, 128))
    fast = [nn.forward(m, x[i:i + 1]).activations[-1] for i in range(2)]
    monkeypatch.setattr(ops, "conv2d_nhwc", kernels_ref.conv2d_nhwc_reference)
    for i in range(2):
        assert fast[i].tobytes() == nn.forward(m, x[i:i + 1]).activations[-1].tobytes(), i


def test_eval_capture_keeps_no_patch_matrices(monkeypatch):
    """Parameter gradients on an eval-mode capture, which rebuilds each
    patch matrix, equal those from kept matrices byte for byte."""
    monkeypatch.setattr(ops, "CONV_BAND_BYTES", 1)  # band even a 16x16 conv
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 2)
    x = np.random.default_rng(12).random((2, 1, 16, 16))
    upstream = np.random.default_rng(13).standard_normal((2, 3))
    cache = nn.forward(m, x)
    assert cache.conv_cols == {}
    rebuilt = nn.backward(m, cache, upstream)

    for i, layer in enumerate(m.spec.layers):
        if isinstance(layer, nn.Conv):
            p = m.params[i]
            _, cache.conv_cols[i] = ops.conv2d_nhwc(
                cache.activations[i], p["weights"], p["bias"], layer.stride, layer.pad,
                return_cols=True)
    kept = nn.backward(m, cache, upstream)
    for li, name, _ in m.param_items():
        assert rebuilt.params[li][name].tobytes() == kept.params[li][name].tobytes()


@pytest.mark.parametrize("compute", [False, True], ids=["float64", "float32"])
def test_backward_consumes_each_patch_matrix_after_its_layer(monkeypatch, compute):
    """Each Conv's backward gets the patch matrix its forward kept, when
    that layer's and every higher layer's are already out of the capture;
    after the pass none is left.  A second backward on the capture, which
    rebuilds them, gives the same parameter and activation gradients."""
    m = nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 3)
    if compute:
        m = optim._compute_copy(m)
    x = np.random.default_rng(15).random((2, 1, 16, 16))
    upstream = np.random.default_rng(16).standard_normal((2, 3))
    cache = nn.forward(m, x, train_mode=True, dropout_seed=5)
    kept = dict(cache.conv_cols)
    convs = [i for i, layer in enumerate(m.spec.layers) if isinstance(layer, nn.Conv)]
    assert sorted(kept) == convs
    seen = []
    conv_backward = ops.conv2d_backward_nhwc

    def spy(x_, *args, cols=None, **kwargs):
        i = next(i for i in convs if cache.activations[i] is x_)
        seen.append((i, cols, set(cache.conv_cols)))
        return conv_backward(x_, *args, cols=cols, **kwargs)
    monkeypatch.setattr(ops, "conv2d_backward_nhwc", spy)

    first = nn.backward(m, cache, upstream)
    assert [i for i, *_ in seen] == convs[::-1]
    for i, cols, left in seen:
        assert cols is kept[i], i
        assert left == {j for j in convs if j < i}, i
    assert cache.conv_cols == {}

    seen.clear()
    second = nn.backward(m, cache, upstream)
    assert [cols for _, cols, _ in seen] == [None] * len(convs)
    for li, name, _ in m.param_items():
        assert first.params[li][name].tobytes() == second.params[li][name].tobytes()
    for i, (a, b) in enumerate(zip(first.activations, second.activations)):
        assert a.tobytes() == b.tobytes(), i


_NANO16 = nn.preset("vgg-nano", input_hw=(16, 16))


@pytest.mark.parametrize("spec,n", [
    (nn.preset("vgg-nano"), 3),
    (nn.preset("vgg-micro"), 2),
    (TOY, 5),  # Dense straight after the Flatten
    (_NANO16, 1),
    (_NANO16, nn.PREDICT_CHUNK + 1),
], ids=["nano128", "micro128", "toy", "one", "chunk+1"])
def test_predict_matches_per_image_forward(monkeypatch, spec, n):
    m = nn.build_model(spec, 5)
    r = np.random.default_rng(n)
    for p in m.params:
        if "bias" in p:
            p["bias"][...] = 0.1 * r.standard_normal(p["bias"].shape)
    x = r.random((n,) + spec.input_shape)
    flat = spec.layers.index(nn.Flatten())
    heads = []  # the inputs of the head passes
    run = nn._run
    monkeypatch.setattr(nn, "_run", lambda m_, x_, start, *rest: (
        start == flat + 1 and heads.append(x_)) or run(m_, x_, start, *rest))
    got = nn.predict(m, x)
    monkeypatch.undo()
    assert nn.predict(m, iter(x)).tobytes() == got.tobytes()

    want, feats = [], []
    for i in range(n):
        cache = nn.forward(m, x[i:i + 1])
        want.append(cache.activations[-1][0])
        feats.append(cache.activations[flat + 1])
    assert [len(h) for h in heads] == [min(nn.PREDICT_CHUNK, n - i)
                                       for i in range(0, n, nn.PREDICT_CHUNK)]
    assert np.concatenate(heads).tobytes() == np.concatenate(feats).tobytes()
    want = np.array(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got.argmax(axis=1) == want.argmax(axis=1)).all()
    assert np.abs(got - want).max() <= 1e-14


def test_predict_shape_error_and_no_images():
    m = nn.build_model(TOY, 0)
    with pytest.raises(ShapeError, match=r"image shape \(1, 9, 9\) does not match"):
        nn.predict(m, np.zeros((1, 1, 9, 9)))
    assert nn.predict(m, []).shape == (0, 3)


def test_forward_from_matches_forward():
    m = nn.build_model(TOY, 4)
    x = np.random.default_rng(3).random((1, 1, 8, 8))
    cache = nn.forward(m, x)
    conv_idx = nn.deepest_conv_index(m.spec)
    logits = nn.forward_from(m, conv_idx, cache.activation_nchw(conv_idx + 1))
    assert np.allclose(ops.softmax(logits), cache.activations[-1], atol=1e-12)


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path):
    m = nn.build_model(TOY, 7)
    path = tmp_path / "w.camf"
    nn.save_weights(m, path)
    m2 = nn.load_weights(TOY, path)
    x = np.random.default_rng(4).random((2, 1, 8, 8))
    assert np.array_equal(nn.forward(m, x).activations[-1],
                          nn.forward(m2, x).activations[-1])
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
