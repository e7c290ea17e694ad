"""Finite-difference oracle for cam.hessian_diag, shared by the test modules.

Central second differences of the class score, re-running the network
from the target layer (model.forward_from) for each perturbed element.
It shares no derivative code with the closed form, so it is the
reference the closed form is checked against.  Where a probe crosses a
ReLU kink or flips a pooling argmax, the difference quotient measures
the kink rather than the second derivative; `kink_free` finds the
elements where that does not happen.
"""

import numpy as np

from camnet import model as nn


def score_from_logits(logits: np.ndarray, class_index: int, kind: str) -> float:
    z = logits[0]
    if kind == "logit":
        return float(z[class_index])
    if kind == "probability":
        e = np.exp(z - z.max())
        return float(e[class_index] / e.sum())
    if kind == "exp_logit":
        return float(np.exp(z[class_index]))
    raise ValueError(f"unknown score kind {kind!r}")


def _probe(model, image, target_layer, step):
    """Logits (1, K) at the target activation a, the lists of logits at
    a + step and a - step on each element in turn, and the shape of a."""
    idx = nn.deepest_conv_index(model.spec) if target_layer is None else target_layer
    x = np.asarray(image, dtype=np.float64).reshape((1,) + tuple(model.spec.input_shape))
    base = nn.forward(model, x).activation_nchw(idx + 1).copy()
    z0 = nn.forward_from(model, idx, base)
    flat_base = base.reshape(-1)
    zp, zm = [], []
    for i in range(flat_base.size):
        orig = flat_base[i]
        flat_base[i] = orig + step
        zp.append(nn.forward_from(model, idx, base))
        flat_base[i] = orig - step
        zm.append(nn.forward_from(model, idx, base))
        flat_base[i] = orig
    return z0, zp, zm, base.shape[1:]


def fd_hessian_diag(model, image, class_index, target_layer=None,
                    score_kind="logit", step=1e-3) -> np.ndarray:
    """(yp - 2 y0 + ym) / h^2 for every target activation, shape (K, U, V)."""
    z0, zp, zm, shape = _probe(model, image, target_layer, step)
    h = step
    y0 = score_from_logits(z0, class_index, score_kind)
    out = [(score_from_logits(p, class_index, score_kind) - 2.0 * y0
            + score_from_logits(m, class_index, score_kind)) / (h * h)
           for p, m in zip(zp, zm)]
    return np.array(out).reshape(shape)


def kink_free(model, image, target_layer=None, step=1e-3, tol=1e-11) -> np.ndarray:
    """Mask (K, U, V) of the elements whose +-step probes leave every logit
    affine: z(a + h) + z(a - h) - 2 z(a) is rounding noise (a few 1e-16)
    rather than a kink or argmax crossing (1e-8 and up in vgg-nano)."""
    z0, zp, zm, shape = _probe(model, image, target_layer, step)
    out = [np.abs(p + m - 2.0 * z0).max() <= tol for p, m in zip(zp, zm)]
    return np.array(out).reshape(shape)
