"""Loss, optimizer steps, and the training loop."""

import numpy as np
import pytest

from camnet import data, model as nn, ops, optim
from camnet.errors import DataError


TOY = nn.ModelSpec(
    input_shape=(1, 8, 8),
    layers=(nn.Conv(2, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
            nn.Dense(3), nn.SoftmaxOutput()),
    class_names=("a", "b", "c"),
)


# ---------------------------------------------------------------------------
# sparse cross-entropy

def test_ce_half_half():
    loss, _ = optim.sparse_ce(np.array([[0.5, 0.5]]), [0])
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_perfect_prediction():
    loss, grad = optim.sparse_ce(np.array([[1.0, 0.0, 0.0]]), [0])
    assert loss <= 3e-12
    assert np.abs(grad).max() <= 1.0 + 1e-12  # grad of wrong classes is 0 here
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 4))
    labels = [1, 0, 3]
    probs = ops.softmax(logits)
    _, grad = optim.sparse_ce(probs, labels)

    def loss_of(z):
        p = ops.softmax(z)
        return float(-np.log(p[np.arange(3), labels]).mean())

    fd = ops.finite_diff_grad(loss_of, logits)
    assert ops.max_rel_error(grad, fd) <= 1e-6


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        optim.sparse_ce(np.array([[0.5, 0.5]]), [2])


# ---------------------------------------------------------------------------
# optimizer steps

def _one_param_model(value=1.0):
    m = nn.build_model(TOY, 0)
    grads = nn.Gradients([{} for _ in TOY.layers], [])
    for li, name, p in m.param_items():
        p[...] = value
        grads.params[li][name] = np.zeros_like(p)
    return m, grads


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
def test_zero_gradient_is_a_no_op(kind):
    m, grads = _one_param_model()
    state = optim.init_opt_state(m, kind)
    before = [p.copy() for _, _, p in m.param_items()]
    optim.optimizer_step(kind, m, grads, state, lr=0.1)
    for (_, _, p), b in zip(m.param_items(), before):
        assert np.array_equal(p, b)


def test_adam_first_step_hand_value():
    m, grads = _one_param_model(1.0)
    for li in grads.params:
        for g in li.values():
            g[...] = 1.0
    state = optim.init_opt_state(m, "adam")
    optim.optimizer_step("adam", m, grads, state, lr=0.001)
    expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
    for _, _, p in m.param_items():
        assert np.allclose(p, expected, atol=1e-12)
        assert np.allclose(p, 0.999000, atol=1e-6)


def test_adagrad_two_steps_hand_value():
    m, grads = _one_param_model(1.0)
    for li in grads.params:
        for g in li.values():
            g[...] = 1.0
    state = optim.init_opt_state(m, "adagrad")
    optim.optimizer_step("adagrad", m, grads, state, lr=0.1)
    for _, _, p in m.param_items():
        assert np.allclose(p, 1.0 - 0.1 / (1.0 + 1e-8), atol=1e-12)
    optim.optimizer_step("adagrad", m, grads, state, lr=0.1)
    for _, _, p in m.param_items():
        assert np.allclose(p, 0.829289, atol=1e-6)


def test_sgd_step():
    m, grads = _one_param_model(1.0)
    for li in grads.params:
        for g in li.values():
            g[...] = 2.0
    optim.optimizer_step("sgd", m, grads, optim.init_opt_state(m, "sgd"), lr=0.25)
    for _, _, p in m.param_items():
        assert np.allclose(p, 0.5, atol=1e-15)


# ---------------------------------------------------------------------------
# training loop

def _tiny_sets(n_per_class=8, size=16, seed=3):
    ds = data.synth_dataset(n_per_class, image_size=size, seed=seed)
    manifest = data.stratified_split(ds, ratios=(0.5, 0.25, 0.25), seed=seed)
    return ds.subset(manifest.train), ds.subset(manifest.val)


def _tiny_model(size=16, seed=1):
    spec = nn.ModelSpec(
        (1, size, size),
        (nn.Conv(4, 3, 1, 1), nn.ReLU(), nn.MaxPool2(), nn.Flatten(),
         nn.Dense(3), nn.SoftmaxOutput()),
        data.SYNTH_CLASS_NAMES,
    )
    return nn.build_model(spec, seed)


def test_train_is_deterministic():
    tr, va = _tiny_sets()
    cfg = optim.TrainConfig(epochs=2, batch_size=4, seed=11)
    m1 = _tiny_model()
    r1 = optim.train(m1, tr, va, cfg)
    m2 = _tiny_model()
    r2 = optim.train(m2, tr, va, cfg)
    for (_, _, a), (_, _, b) in zip(m1.param_items(), m2.param_items()):
        assert np.array_equal(a, b)
    for ra, rb in zip(r1.rows, r2.rows):
        assert (ra.train_loss, ra.train_acc, ra.val_loss, ra.val_acc) == \
               (rb.train_loss, rb.train_acc, rb.val_loss, rb.val_acc)


def test_train_lr_zero_leaves_weights_unchanged():
    tr, va = _tiny_sets()
    m = _tiny_model()
    before = [p.copy() for _, _, p in m.param_items()]
    optim.train(m, tr, va, optim.TrainConfig(epochs=2, batch_size=4,
                                             learning_rate=0.0, seed=1))
    for (_, _, p), b in zip(m.param_items(), before):
        assert np.array_equal(p, b)


def test_train_loss_decreases():
    tr, va = _tiny_sets(n_per_class=12)
    m = _tiny_model()
    rep = optim.train(m, tr, va, optim.TrainConfig(epochs=5, batch_size=4,
                                                   learning_rate=1e-3, seed=2))
    assert rep.rows[-1].train_loss < rep.rows[0].train_loss


def test_train_rejects_bad_config():
    tr, va = _tiny_sets()
    with pytest.raises(DataError):
        optim.train(_tiny_model(), tr, va,
                    optim.TrainConfig(optimizer="rmsprop", epochs=1))
    with pytest.raises(DataError):
        optim.train(_tiny_model(), tr, va,
                    optim.TrainConfig(learning_rate=-1.0, epochs=1))


def test_report_csv_format(tmp_path):
    rep = optim.TrainReport(rows=[
        optim.EpochRow(0, 1.0, 0.5, 1.1, 0.4, 2.0),
        optim.EpochRow(1, 0.9, 0.6, 1.0, 0.5, 2.1),
    ])
    path = tmp_path / "r.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
    assert lines[1].startswith("0,1.0,0.5,1.1,0.4,")
    assert len(lines) == 3


def test_evaluate_matches_manual():
    tr, _ = _tiny_sets()
    m = _tiny_model()
    loss, acc = optim.evaluate(m, tr.images, tr.labels)
    x = np.stack([np.moveaxis(im, -1, 0) for im in tr.images])
    probs = nn.forward(m, x)
    want_loss, _ = optim.sparse_ce(probs, tr.labels)
    want_acc = float((probs.argmax(axis=1) == np.asarray(tr.labels)).mean())
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert acc == want_acc


def test_evaluate_float32_work_copy_matches_whole_batch_forward():
    # the float32 copy train validates with, over more images than one
    # dense-head chunk: predict's per-image convs and chunked head round
    # differently from one whole-batch forward, within float32 precision
    tr, _ = _tiny_sets(n_per_class=44)
    assert len(tr.images) > nn.PREDICT_CHUNK
    work = optim._compute_copy(_tiny_model())
    loss, acc = optim.evaluate(work, tr.images, tr.labels)
    probs = nn.forward(work, np.stack([np.moveaxis(im, -1, 0) for im in tr.images]))
    assert probs.dtype == np.float32
    want_loss, _ = optim.sparse_ce(probs, tr.labels)
    assert acc == int((probs.argmax(axis=1) == np.asarray(tr.labels)).sum()) / len(tr.images)
    assert loss == pytest.approx(want_loss, rel=1e-6)


def test_train_validates_through_predict(monkeypatch):
    calls = {"predict": [], "eval_forward": 0}
    forward, predict = nn.forward, nn.predict

    def counted_forward(*args, **kwargs):
        calls["eval_forward"] += not kwargs.get("train_mode", False)
        return forward(*args, **kwargs)

    def counted_predict(model, images):
        calls["predict"].append(model.dtype)
        return predict(model, images)
    monkeypatch.setattr(nn, "forward", counted_forward)
    monkeypatch.setattr(nn, "predict", counted_predict)
    tr, va = _tiny_sets()
    optim.train(_tiny_model(), tr, va, optim.TrainConfig(epochs=2, batch_size=4, seed=1))
    # one validation per epoch, on the float32 work copy
    assert calls == {"predict": [optim.COMPUTE_DTYPE] * 2, "eval_forward": 0}



def test_train_step_computes_in_float32_against_float64_masters(monkeypatch):
    """One vgg-nano training step (32x32, batch 4) runs its passes in
    float32, keeps the masters and Adam state float64, and gives the
    gradients of a float64 step within GRAD_RTOL."""
    # max|g32 - g64| / max|g64|, worst over the parameters: at most 4.1e-6
    # in 39 of 40 seeds of this step (9.4e-4 in one, whose float32 rounding
    # crossed a ReLU kink), 1.1e-6 here.  The bound is 24x the 4.1e-6.
    GRAD_RTOL = 1e-4
    spec = nn.preset("vgg-nano", input_hw=(32, 32), class_names=data.SYNTH_CLASS_NAMES)
    ds = data.synth_dataset(2, image_size=32, seed=5)
    tr = data.LabeledDataset(ds.images[:4], ds.labels[:4], ds.class_names)
    va = data.LabeledDataset(ds.images[4:], ds.labels[4:], ds.class_names)
    calls = {}

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            if name == "backward":
                calls["cache"] = args[0].cache  # train frees it after the step
            out = fn(*args, **kwargs)
            calls.setdefault(name, (args, kwargs, out))
            return out
        monkeypatch.setattr(module, name, wrapped)
    spy(nn, "forward")
    spy(nn, "backward")
    spy(optim, "optimizer_step")
    m = nn.build_model(spec, 6)
    optim.train(m, tr, va, optim.TrainConfig(epochs=1, batch_size=4, seed=7,
                                             shuffle=False))

    (work, x), fwd_kwargs, _ = calls["forward"]
    _, _, g32 = calls["backward"]
    (_, masters, _, state, *_), _, _ = calls["optimizer_step"]
    cache = calls["cache"]
    assert fwd_kwargs["train_mode"] and work is not m and masters is m
    assert all(a.dtype == np.float32 for a in cache.activations)
    assert len(cache.conv_cols) == 4 and len(cache.dropout_masks) == 1
    assert all(a.dtype == np.float32 for a in cache.conv_cols.values())
    assert all(a.dtype == np.float32 for a in cache.dropout_masks.values())
    assert all(g.dtype == np.float32 for p in g32.params for g in p.values())
    assert all(g.dtype == np.float32 for g in g32.activations if g is not None)
    assert all(a.dtype == np.float64 for _, _, a in m.param_items())
    assert all(s.dtype == np.float64 for li, name, _ in m.param_items()
               for s in state[(li, name)])

    m64 = nn.build_model(spec, 6)
    probs = nn.forward(m64, x, train_mode=True, dropout_seed=fwd_kwargs["dropout_seed"],
                       capture=True)
    g64 = nn.backward(m64, optim.sparse_ce(probs, tr.labels)[1], need_input_grad=False)
    for li, name, _ in m.param_items():
        want = g64.params[li][name]
        err = np.abs(g32.params[li][name] - want).max() / np.abs(want).max()
        assert err <= GRAD_RTOL, (li, name, err)
