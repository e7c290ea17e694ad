"""Finite-difference verification of every backward rule, for the test
suite and the `gradcheck` CLI subcommand.  One rule, `_rows_error`, checks
one row per primitive (the channels-last kernels the model itself calls)
and one for a whole vgg-nano: each input's analytic gradient must match
central differences (h = 1e-5) to a max relative error of 1e-6 in float64,
away from the documented non-smooth points (maxpool ties, relu kinks).
"""

from dataclasses import dataclass, replace
from functools import partial

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


def _rows_error(kernel, inputs, upstream, grads) -> float:
    """Worst max_rel_error of grads[k] against the central differences of
    sum(kernel(*inputs) * upstream) in inputs[k], over every input k."""
    def loss(k, v):
        return float((kernel(*inputs[:k], v, *inputs[k + 1:]) * upstream).sum())

    return max(ops.max_rel_error(grad, ops.finite_diff_grad(partial(loss, k), x, H))
               for k, (x, grad) in enumerate(zip(inputs, grads, strict=True)))


def check_conv2d(seed: int = 1) -> CheckResult:
    rng = Rng(seed)
    x = ops._to_nhwc(_rand(rng, 1, 2, 5, 5))
    w = _rand(rng, 3, 2, 3, 3)
    b = _rand(rng, 3)
    stride, pad = 2, 1
    conv = partial(ops.conv2d_nhwc, stride=stride, pad=pad)
    go = np.ones_like(conv(x, w, b))
    grads = ops.conv2d_backward_nhwc(x, w, stride, pad, go)
    return CheckResult("conv2d", _rows_error(conv, [x, w, b], go, grads))


def check_maxpool2(seed: int = 2) -> CheckResult:
    rng = Rng(seed)
    x = ops._to_nhwc(_rand(rng, 1, 1, 6, 6))  # continuous draws: ties have probability 0
    go = ops._to_nhwc(_rand(rng, 1, 1, 3, 3))
    gx = ops.maxpool2_backward_nhwc(x, go)
    return CheckResult("maxpool2", _rows_error(ops.maxpool2_nhwc, [x], go, [gx]))


def check_dense(seed: int = 3) -> CheckResult:
    rng = Rng(seed)
    x = _rand(rng, 2, 4)
    w = _rand(rng, 4, 3)
    b = _rand(rng, 3)
    go = _rand(rng, 2, 3)
    grads = ops.dense_backward(x, w, go)
    return CheckResult("dense", _rows_error(ops.dense, [x, w, b], go, grads))


def check_relu(seed: int = 4) -> CheckResult:
    rng = Rng(seed)
    x = _rand(rng, 4, 4)
    x[np.abs(x) < 10 * H] += 0.1  # keep probes away from the kink
    go = _rand(rng, 4, 4)
    gx = ops.relu_backward(x, go)
    return CheckResult("relu", _rows_error(ops.relu, [x], go, [gx]))


def check_softmax_ce(seed: int = 5) -> CheckResult:
    rng = Rng(seed)
    logits = _rand(rng, 3, 4)
    labels = [rng.randint(4) for _ in range(3)]
    _, grad = sparse_ce(ops.softmax(logits), labels)
    return CheckResult("softmax+ce", _rows_error(
        lambda z: sparse_ce(ops.softmax(z), labels)[0], [logits], np.float64(1.0), [grad]))


def check_end_to_end(seed: int = 6) -> CheckResult:
    """Whole-model check: every parameter of a small-input vgg-nano."""
    spec = nn.preset("vgg-nano", class_names=("a", "b", "c"), input_hw=(4, 4))
    model = nn.build_model(spec, init_seed=seed)
    x = Rng(seed + 100).uniform_block(16).reshape(1, 1, 4, 4)
    labels = [1]

    def loss(*arrays):  # the loss of the model with these parameter arrays
        params = [{} for _ in model.params]
        for (li, name, _), arr in zip(model.param_items(), arrays):
            params[li][name] = arr
        net = replace(model, params=params)
        return sparse_ce(nn.forward(net, x).activations[-1], labels)[0]

    cache = nn.forward(model, x)
    grads = nn.backward(model, cache, sparse_ce(cache.activations[-1], labels)[1]).params
    return CheckResult("vgg-nano end-to-end", _rows_error(
        loss, [arr for *_, arr in model.param_items()], np.float64(1.0),
        [grads[li][name] for li, name, _ in model.param_items()]))


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
