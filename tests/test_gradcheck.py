"""The bundled verification suite must pass on its own, and each of its
rows must fail when a gradient it compares is wrong."""

import numpy as np
import pytest

from camnet import gradcheck, ops, optim


def test_all_checks_pass():
    results = gradcheck.run_all(verbose=False)
    assert results, "no checks ran"
    for r in results:
        assert r.passed, f"{r.name}: max rel error {r.max_rel_error}"
        assert r.max_rel_error <= gradcheck.TOL


def test_check_names_unique():
    names = [fn.__name__ for fn in gradcheck.ALL_CHECKS]
    assert len(names) == len(set(names))


# (check, module, backward it reads, its gradients): each row must fail
# when any one gradient it compares is wrong
ROWS = [(gradcheck.check_conv2d, ops, "conv2d_backward_nhwc", 3),
        (gradcheck.check_maxpool2, ops, "maxpool2_backward_nhwc", 1),
        (gradcheck.check_dense, ops, "dense_backward", 3),
        (gradcheck.check_relu, ops, "relu_backward", 1),
        (gradcheck.check_softmax_ce, optim, "logit_grad", 1),
        (gradcheck.check_end_to_end, ops, "dense_backward", 3),
        (gradcheck.check_end_to_end, ops, "conv2d_backward_nhwc", 3)]
SPOIL = {"scaled": lambda g: g * 1.001, "zeroed": np.zeros_like,
         "nan": lambda g: np.full_like(g, np.nan)}


@pytest.mark.parametrize("spoil", sorted(SPOIL))
@pytest.mark.parametrize("check, module, backward, k", [
    pytest.param(check, module, backward, k, id=f"{check.__name__}-{backward}-{k}")
    for check, module, backward, n in ROWS for k in range(n)])
def test_each_row_fails_on_a_wrong_gradient(monkeypatch, check, module, backward, k,
                                            spoil):
    right = getattr(module, backward)

    def wrong(*args, **kwargs):
        grads = right(*args, **kwargs)
        one = not isinstance(grads, tuple)
        grads = [grads] if one else list(grads)
        if grads[k] is not None:  # a gradient the caller skipped stays skipped
            grads[k] = SPOIL[spoil](grads[k])
        return grads[0] if one else tuple(grads)

    monkeypatch.setattr(module, backward, wrong)
    result = check()
    assert not result.passed, f"{result.name}: max rel error {result.max_rel_error}"
