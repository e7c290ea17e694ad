"""Finite-difference verification of every backward rule.

Used both by the test suite and the `gradcheck` CLI subcommand.  Each
check compares analytic gradients against central differences (h = 1e-5)
and must agree to a max relative error of 1e-6 in float64, away from the
documented non-smooth points (maxpool ties, relu kinks).  The conv and
pool checks run the channels-last kernels the model itself calls.
"""

from dataclasses import dataclass

import numpy as np

from . import model as nn
from . import ops
from .optim import sparse_ce
from .rng import Rng

H = 1e-5
TOL = 1e-6


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= TOL


def _rand(rng: Rng, *shape):
    return rng.normal_block(int(np.prod(shape))).reshape(shape)


def check_conv2d(seed: int = 1) -> CheckResult:
    rng = Rng(seed)
    x = ops._to_nhwc(_rand(rng, 1, 2, 5, 5))
    w = _rand(rng, 3, 2, 3, 3)
    b = _rand(rng, 3)
    stride, pad = 2, 1

    def loss_x(xv):
        return float(ops.conv2d_nhwc(xv, w, b, stride, pad).sum())

    def loss_w(wv):
        return float(ops.conv2d_nhwc(x, wv, b, stride, pad).sum())

    def loss_b(bv):
        return float(ops.conv2d_nhwc(x, w, bv, stride, pad).sum())

    go = np.ones_like(ops.conv2d_nhwc(x, w, b, stride, pad))
    gx, gw, gb = ops.conv2d_backward_nhwc(x, w, stride, pad, go)
    err = max(
        ops.max_rel_error(gx, ops.finite_diff_grad(loss_x, x, H)),
        ops.max_rel_error(gw, ops.finite_diff_grad(loss_w, w, H)),
        ops.max_rel_error(gb, ops.finite_diff_grad(loss_b, b, H)),
    )
    return CheckResult("conv2d", err)


def check_maxpool2(seed: int = 2) -> CheckResult:
    rng = Rng(seed)
    x = ops._to_nhwc(_rand(rng, 1, 1, 6, 6))  # continuous draws: ties have probability 0
    go = ops._to_nhwc(_rand(rng, 1, 1, 3, 3))

    def loss(xv):
        return float((ops.maxpool2_nhwc(xv) * go).sum())

    gx = ops.maxpool2_backward_nhwc(x, go)
    return CheckResult("maxpool2", ops.max_rel_error(gx, ops.finite_diff_grad(loss, x, H)))


def check_dense(seed: int = 3) -> CheckResult:
    rng = Rng(seed)
    x = _rand(rng, 2, 4)
    w = _rand(rng, 4, 3)
    b = _rand(rng, 3)
    go = _rand(rng, 2, 3)

    gx, gw, gb = ops.dense_backward(x, w, go)
    err = max(
        ops.max_rel_error(gx, ops.finite_diff_grad(
            lambda v: float((ops.dense(v, w, b) * go).sum()), x, H)),
        ops.max_rel_error(gw, ops.finite_diff_grad(
            lambda v: float((ops.dense(x, v, b) * go).sum()), w, H)),
        ops.max_rel_error(gb, ops.finite_diff_grad(
            lambda v: float((ops.dense(x, w, v) * go).sum()), b, H)),
    )
    return CheckResult("dense", err)


def check_relu(seed: int = 4) -> CheckResult:
    rng = Rng(seed)
    x = _rand(rng, 4, 4)
    x[np.abs(x) < 10 * H] += 0.1  # keep probes away from the kink
    go = _rand(rng, 4, 4)
    gx = ops.relu_backward(x, go)
    err = ops.max_rel_error(gx, ops.finite_diff_grad(
        lambda v: float((ops.relu(v) * go).sum()), x, H))
    return CheckResult("relu", err)


def check_softmax_ce(seed: int = 5) -> CheckResult:
    rng = Rng(seed)
    logits = _rand(rng, 3, 4)
    labels = [rng.randint(4) for _ in range(3)]

    def loss(z):
        return sparse_ce(ops.softmax(z), labels)[0]

    _, grad = sparse_ce(ops.softmax(logits), labels)
    err = ops.max_rel_error(grad, ops.finite_diff_grad(loss, logits, H))
    return CheckResult("softmax+ce", err)


def check_end_to_end(seed: int = 6) -> CheckResult:
    """Whole-model check: every parameter of a small-input vgg-nano."""
    spec = nn.preset("vgg-nano", class_names=("a", "b", "c"), input_hw=(4, 4))
    model = nn.build_model(spec, init_seed=seed)
    rng = Rng(seed + 100)
    x = rng.uniform_block(16).reshape(1, 1, 4, 4)
    labels = [1]

    def loss_fn():
        return sparse_ce(nn.forward(model, x), labels)[0]

    probs = nn.forward(model, x, capture=True)
    _, dlogits = sparse_ce(probs, labels)
    grads = nn.backward(model, dlogits)

    worst = 0.0
    for li, name, arr in model.param_items():
        def f(v, _li=li, _name=name):
            saved = model.params[_li][_name]
            model.params[_li][_name] = v
            out = loss_fn()
            model.params[_li][_name] = saved
            return out

        fd = ops.finite_diff_grad(f, arr, H)
        worst = max(worst, ops.max_rel_error(grads.params[li][name], fd))
    return CheckResult("vgg-nano end-to-end", worst)


ALL_CHECKS = (check_conv2d, check_maxpool2, check_dense, check_relu,
              check_softmax_ce, check_end_to_end)


def run_all(verbose: bool = True) -> list:
    results = [chk() for chk in ALL_CHECKS]
    if verbose:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: max rel error {r.max_rel_error:.3e} "
                  f"(tolerance {TOL:g})")
    return results
