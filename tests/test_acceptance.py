"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 trains a full-size model for 30 epochs and dominates the
suite's runtime (several minutes on one core).
"""

import os
import subprocess
import sys
import time

import kernels_ref
import numpy as np
import pytest

from camnet import cam, data, gradcheck, metrics, model as nn, optim
from hessian_fd import fd_hessian_diag

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[CRITERION {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# ---------------------------------------------------------------------------
# 1. scope statement

def test_criterion_1_readme_scope_statement(capsys):
    with open(README) as f:
        text = f.read().lower()
    ok = "99.17" in text and "not reproducible" in text
    _report(capsys, 1, "README states paper-scale results are not reproducible", ok)


# ---------------------------------------------------------------------------
# 2. gradient oracle suite

def test_criterion_2_gradient_oracles(capsys):
    t0 = time.perf_counter()
    results = gradcheck.run_all(verbose=False)
    elapsed = time.perf_counter() - t0
    names = {r.name for r in results}
    covered = {"conv2d", "maxpool2", "dense", "relu", "softmax+ce",
               "vgg-nano end-to-end"} <= names
    ok = covered and all(r.max_rel_error <= 1e-6 for r in results) and elapsed < 60
    _report(capsys, 2,
            f"all primitives + end-to-end pass FD checks at 1e-6 in {elapsed:.1f}s", ok)


# ---------------------------------------------------------------------------
# helpers shared by the saliency criteria

def _two_map_model(head):
    """1-channel input -> 2 feature maps (fixed 3x3 conv) -> linear head."""
    spec = nn.ModelSpec(
        (1, 4, 4),
        (nn.Conv(2, 3, 1, 1), nn.Flatten(), nn.Dense(head.shape[1]),
         nn.SoftmaxOutput()),
        tuple(f"c{i}" for i in range(head.shape[1])),
    )
    m = nn.build_model(spec, 0)
    rng = np.random.default_rng(13)
    m.params[0]["weights"][...] = rng.standard_normal((2, 1, 3, 3))
    m.params[0]["bias"][...] = 0.0
    m.params[2]["weights"][...] = head
    m.params[2]["bias"][...] = 0.0
    return m


def _scripted_gradcam(m, x, class_index):
    """Independent per-element evaluation of the channel-weighting equations:
    naive-loop conv for A, analytic head gradient, explicit loops for the
    spatial average and the rectified weighted sum."""
    conv = m.spec.layers[0]
    a = kernels_ref.conv2d_reference(x[None], m.params[0]["weights"],
                                     m.params[0]["bias"], conv.stride, conv.pad)[0]
    k, u, v = a.shape
    head = m.params[2]["weights"]
    z = u * v
    alpha = np.empty(k)
    for ch in range(k):
        s = 0.0
        for i in range(u):
            for j in range(v):
                # dY/dA for a flatten+dense tail is the head weight itself
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


# ---------------------------------------------------------------------------
# 3. Grad-CAM brute force

def test_criterion_3_gradcam_brute_force(capsys):
    head = np.empty((2 * 16, 2))
    head[:16, 0] = 1.0
    head[16:, 0] = -1.0
    head[:, 1] = np.random.default_rng(4).standard_normal(32)
    m = _two_map_model(head)
    x = np.random.default_rng(5).random((1, 4, 4))
    worst = 0.0
    for c in (0, 1):
        alpha_bf, raw_bf = _scripted_gradcam(m, x, c)
        weights, heat = cam.gradcam(m, cam.capture(m, x), c)
        worst = max(worst, np.abs(weights.alpha - alpha_bf).max(),
                    np.abs(heat.raw - raw_bf).max())
    _report(capsys, 3,
            f"2-map Grad-CAM matches scripted oracle (max diff {worst:.2e})",
            worst <= 1e-12)


# ---------------------------------------------------------------------------
# 4. Grad-CAM++ printed-formula checks

def test_criterion_4a_linear_head_reduction(capsys):
    head = np.random.default_rng(6).standard_normal((2 * 16, 2))
    m = _two_map_model(head)
    x = np.random.default_rng(7).random((1, 4, 4))
    cache = cam.capture(m, x)
    _, h_gc = cam.gradcam(m, cache, 0)
    _, h_pp = cam.gradcam_pp(m, cache, 0)
    assert h_gc.raw.max() > 0, "degenerate case, pick a different seed"
    diff = np.abs(h_pp.normalized - h_gc.normalized).max()
    _report(capsys, "4a",
            f"linear-logit Grad-CAM++ equals Grad-CAM (max diff {diff:.2e})",
            diff <= 1e-12)


def test_criterion_4b_exp_toy_hessian(capsys):
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
    a = 0.4
    x = np.full((1, 1, 1), a)
    hess = fd_hessian_diag(m, x, 0, score_kind="exp_logit", step=1e-3)
    analytic = 4.0 * np.exp(2.0 * a)
    rel = abs(hess[0, 0, 0] - analytic) / analytic
    _report(capsys, "4b",
            f"FD Hessian matches analytic 4*exp(2a) (rel {rel:.2e})", rel <= 1e-4)


def test_criterion_4c_fast_vs_fd_vgg_nano(capsys):
    spec = nn.preset("vgg-nano", input_hw=(16, 16))
    m = nn.build_model(spec, 21)
    x = np.random.default_rng(22).random((1, 16, 16))
    c = 1
    h = 1e-3
    fd = fd_hessian_diag(m, x, c, score_kind="exp_logit", step=h)
    cache = cam.capture(m, x)
    exact = cam.hessian_diag(m, cache, c, cfg=cam.CamConfig(score_kind="exp_logit"))

    # mask out elements whose +-h probes cross a ReLU kink or flip a
    # pooling argmax between the target layer and the logits
    idx = nn.deepest_conv_index(spec)
    a = cache.activation_nchw(idx + 1)[0]       # (16, 8, 8)
    r = np.maximum(a, 0.0)
    k, u, v = a.shape
    win = r.reshape(k, u // 2, 2, v // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        k, u // 2, v // 2, 4)
    wmax = win.max(axis=3)
    pooled_flat = wmax.reshape(-1)
    w1 = m.params[11]["weights"]
    z1 = pooled_flat @ w1 + m.params[11]["bias"]

    near_relu1 = np.abs(a) <= 2 * h
    # distance from each element to the max of the rest of its window
    rest_max = np.empty_like(win)
    for s in range(4):
        rest_max[:, :, :, s] = np.max(np.delete(win, s, axis=3), axis=3)
    margin = (win - rest_max).reshape(k, u // 2, v // 2, 2, 2) \
        .transpose(0, 1, 3, 2, 4).reshape(k, u, v)
    near_pool = np.abs(margin) <= 2 * h
    # selected elements also feed the dense ReLU layer
    flat_of = (np.arange(k)[:, None, None] * (u // 2) * (v // 2)
               + (np.arange(u)[None, :, None] // 2) * (v // 2)
               + np.arange(v)[None, None, :] // 2)
    sensitivity = np.abs(w1)[flat_of]            # (k, u, v, 128)
    near_relu2 = (np.abs(z1) <= 2 * h * sensitivity).any(axis=3)
    safe = ~(near_relu1 | near_pool | near_relu2)

    denom = np.maximum(np.abs(fd), np.abs(exact))
    rel = np.where(denom > 1e-9, np.abs(fd - exact) / np.maximum(denom, 1e-300), 0.0)
    worst = float(rel[safe].max())
    frac = float(safe.mean())
    ok = worst <= 1e-3 and frac > 0.5
    _report(capsys, "4c",
            f"closed-form vs FD Hessian rel {worst:.2e} on {frac:.0%} boundary-free "
            "elements", ok)


# ---------------------------------------------------------------------------
# 5. heatmap invariants

def test_criterion_5_heatmap_invariants(capsys):
    spec = nn.preset("vgg-nano", input_hw=(16, 16))
    m = nn.build_model(spec, 33)
    rng = np.random.default_rng(33)
    ok = True
    for _ in range(100):
        x = rng.random((1, 16, 16))
        c = int(rng.integers(3))
        for fn in (cam.gradcam, cam.gradcam_pp):
            _, heat = fn(m, cam.capture(m, x), c)
            ok &= bool((heat.raw >= 0).all())
            ok &= 0.0 <= heat.normalized.min() and heat.normalized.max() <= 1.0
            if heat.raw.max() == 0:
                ok &= not heat.normalized.any()
    _report(capsys, 5, "100 random inputs: raw >= 0, normalized in [0,1], "
            "zero-map rule holds", ok)


# ---------------------------------------------------------------------------
# 6. augmentation arithmetic

def test_criterion_6_augmentation_arithmetic(capsys):
    cfg = data.AugmentConfig(noise_std=0.0, flip_probability=0.0,
                             rotation_set=(0.0,))
    half = data.augment_chain(np.full((2, 2, 1), 0.5), cfg, data.Rng(0))
    one = data.augment_chain(np.ones((2, 2, 1)), cfg, data.Rng(0))
    ok = np.abs(half - 0.635).max() <= 1e-12 and np.abs(one - 1.0).max() <= 1e-12

    noisy_cfg = data.AugmentConfig(flip_probability=0.0, rotation_set=(0.0,))
    img = np.random.default_rng(1).random((8, 8, 1))
    for seed in range(10):
        out = data.augment_chain(img, noisy_cfg, data.Rng(seed))
        ok &= out.min() >= 0.0 and out.max() <= 1.0
    ok &= np.array_equal(data.hflip(data.hflip(img)), img)
    _report(capsys, 6, "0.5 -> 0.635, 1.0 -> 1.0, noise clipped, hflip involution",
            ok)


# ---------------------------------------------------------------------------
# 7. split rule

def test_criterion_7_split_rule(capsys):
    labels = [0] * 2004 + [1] * 2004 + [2] * 2048
    ds = data.LabeledDataset(images=[None] * len(labels), labels=labels,
                             class_names=["g", "m", "t"])
    m = data.stratified_split(ds, seed=0)
    ok = (len(m.test), len(m.val), len(m.train)) == (604, 604, 4848)
    for seed in range(50):
        s = data.stratified_split(ds, seed=seed)
        ok &= sorted(s.train + s.val + s.test) == list(range(6056))
        ok &= (len(s.test), len(s.val), len(s.train)) == (604, 604, 4848)
    _report(capsys, 7, "(2004,2004,2048) -> 604/604/4848; disjoint and covering "
            "for 50 seeds", ok)


# ---------------------------------------------------------------------------
# 8. end-to-end learning

# The whole pipeline runs in a fresh interpreter so the wall clock measures
# the pipeline itself, not allocator state inherited from earlier tests.
_CRITERION_8_SCRIPT = """
import time
from camnet import data, model as nn, optim

t0 = time.perf_counter()
ds = data.synth_dataset(200, image_size=128, seed=7)
manifest = data.stratified_split(ds, seed=7)
tr = ds.subset(manifest.train)
va = ds.subset(manifest.val)
te = ds.subset(manifest.test)
spec = nn.preset("vgg-nano", class_names=data.SYNTH_CLASS_NAMES)
m = nn.build_model(spec, init_seed=7)
cfg = optim.TrainConfig(epochs=30, learning_rate=1e-4, optimizer="adam",
                        seed=7)
optim.train(m, tr, va, cfg)
_, train_acc = optim.evaluate(m, tr.images, tr.labels)
_, test_acc = optim.evaluate(m, te.images, te.labels)
elapsed = time.perf_counter() - t0
print(f"RESULT {train_acc!r} {test_acc!r} {elapsed!r}")
"""


@pytest.mark.slow
def test_criterion_8_end_to_end_learning(capsys):
    r = subprocess.run([sys.executable, "-c", _CRITERION_8_SCRIPT],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    line = [l for l in r.stdout.splitlines() if l.startswith("RESULT ")][-1]
    train_acc, test_acc, elapsed = (float(v) for v in line.split()[1:])
    ok = train_acc >= 0.99 and test_acc >= 0.95 and elapsed <= 600
    _report(capsys, 8,
            f"30-epoch vgg-nano: train acc {train_acc:.4f}, test acc "
            f"{test_acc:.4f}, {elapsed:.0f}s", ok)


# ---------------------------------------------------------------------------
# 9. determinism

def _strip_seconds(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.splitlines())


def test_criterion_9_determinism(capsys, tmp_path):
    d = str(tmp_path / "data")
    env = dict(os.environ)

    def run(args):
        r = subprocess.run([sys.executable, "-m", "camnet.cli"] + args,
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        return r

    run(["synth", "--out", d, "--n", "10", "--seed", "7", "--size", "16"])
    run(["split", "--data", d, "--seed", "7"])
    outs = []
    for name in ("run_a", "run_b"):
        out = str(tmp_path / name)
        run(["train", "--data", d, "--out", out, "--seed", "42",
             "--set", "train.epochs=3", "--set", "train.batch_size=6"])
        ev = str(tmp_path / (name + "_eval"))
        run(["eval", "--data", d, "--weights", os.path.join(out, "model.camf"),
             "--out", ev])
        outs.append((out, ev))

    (out_a, ev_a), (out_b, ev_b) = outs
    read = lambda p: open(p, "rb").read()
    weights_same = read(os.path.join(out_a, "model.camf")) == \
        read(os.path.join(out_b, "model.camf"))
    reports_same = _strip_seconds(open(os.path.join(out_a, "train_report.csv")).read()) == \
        _strip_seconds(open(os.path.join(out_b, "train_report.csv")).read())
    metrics_same = all(
        read(os.path.join(ev_a, f)) == read(os.path.join(ev_b, f))
        for f in ("metrics.csv", "confusion.csv")
    )

    # save/load round trip is bit-exact (spec taken from the file header)
    with open(os.path.join(out_a, "model.camf"), "rb") as f:
        head = f.read(65536)
    spec = nn.parse_spec_text(head[8:head.index(b"\n")].decode("utf-8"))
    m2 = nn.load_weights(spec, os.path.join(out_a, "model.camf"))
    nn.save_weights(m2, tmp_path / "resaved.camf")
    round_trip = read(os.path.join(out_a, "model.camf")) == \
        read(tmp_path / "resaved.camf")

    ok = weights_same and reports_same and metrics_same and round_trip
    _report(capsys, 9, "identical train runs are bit-identical (weights, "
            "reports, metrics); save/load round-trips", ok)


# ---------------------------------------------------------------------------
# 10. metrics oracle

def test_criterion_10_metrics_oracle(capsys):
    rng = np.random.default_rng(10)
    ok = True
    for k in (2, 3, 5):
        preds = rng.integers(0, k, size=1000).tolist()
        labels = rng.integers(0, k, size=1000).tolist()
        rep = metrics.report(metrics.confusion(preds, labels, k))
        for c in range(k):
            tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
            fp = sum(1 for p, t in zip(preds, labels) if p == c and t != c)
            fn = sum(1 for p, t in zip(preds, labels) if p != c and t == c)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            ok &= rep.precision[c] == prec
            ok &= rep.recall[c] == rec
            ok &= rep.f1[c] == f1
        ok &= rep.accuracy == sum(p == t for p, t in zip(preds, labels)) / 1000
    _report(capsys, 10, "report(confusion) equals naive counting oracle for "
            "K in {2,3,5}", ok)
