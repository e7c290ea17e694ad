"""In-memory span tracer that wraps camnet's public functions from outside.

`Tracer.install()` replaces each function named in `LAYERS` with a
wrapper that records one span (name, start, end, parent span, operation
id) per call, in every camnet module namespace that holds the original
(modules import some functions by name), and `Tracer.uninstall()` puts
every original back.  camnet itself is not modified; nothing is recorded
while the tracer is not installed.

Spans live in parallel typed arrays in memory; `dump(path)` writes them
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because
camnet is single-threaded.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# layer -> (module, public functions wrapped).  "Rng.x" is a method of
# camnet.rng.Rng.
LAYERS = {
    "cli": ("camnet.cli", ("cmd_train", "cmd_eval", "cmd_explain", "cmd_augment")),
    "optim": ("camnet.optim", ("train", "evaluate", "optimizer_step", "sparse_ce")),
    "cam": ("camnet.cam", ("gradcam", "gradcam_pp", "hessian_diag",
                           "grad_wrt_activations", "render_overlay")),
    "model": ("camnet.model", ("forward", "backward", "forward_from", "build_model",
                               "load_weights", "save_weights")),
    "ops": ("camnet.ops", ("conv2d_nhwc", "conv2d_backward_nhwc", "maxpool2_nhwc",
                           "maxpool2_backward_nhwc", "relu", "relu_backward", "dense",
                           "dense_backward", "softmax")),
    "data": ("camnet.data", ("load_directory", "read_image", "write_image", "augment_chain",
                             "rotate_bilinear", "resize_bilinear", "bilinear_resample")),
    "rng": ("camnet.rng", ("Rng.uniform_block", "Rng.normal_block")),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def conv_forward_work(args, kwargs):
    """(flop, im2col bytes) of conv2d_nhwc(x, weights, bias, stride, pad)."""
    x, w = args[0], args[1]
    stride, pad = _arg(args, kwargs, 3, "stride", 1), _arg(args, kwargs, 4, "pad", 0)
    n, h, wd, c = x.shape
    o, _, kh, kw = w.shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    rows, inner = n * oh * ow, kh * kw * c
    return 2 * rows * inner * o, 8 * rows * inner


def conv_backward_work(args, kwargs):
    """(flop, im2col bytes) of conv2d_backward_nhwc as the im2col code does it.

    Weight gradient: one (rows x inner)^T (rows x O) product, on the
    forward's patch matrix when `cols` is passed, else on a rebuilt one.
    Input gradient at stride 1: a patch matrix of the padded grad_out
    times the flipped weights.
    """
    x, w = args[0], args[1]
    stride, pad = args[2], args[3]
    need_gx = _arg(args, kwargs, 5, "need_input_grad", True)
    cols = _arg(args, kwargs, 6, "cols", None)
    n, h, wd, c = x.shape
    o, _, kh, kw = w.shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    rows, inner = n * oh * ow, kh * kw * c
    flop, nbytes = 2 * rows * inner * o, 0 if cols is not None else 8 * rows * inner
    if need_gx:
        if stride == 1:
            grows = n * (h + 2 * pad) * (wd + 2 * pad)
            flop += 2 * grows * kh * kw * o * c
            nbytes += 8 * grows * kh * kw * o
        else:
            flop += 2 * rows * o * inner
            nbytes += 8 * rows * inner
    return flop, nbytes


# work annotations recorded per call: qualified name -> fn(args, kwargs)
WORK = {
    "ops.conv2d_nhwc": conv_forward_work,
    "ops.conv2d_backward_nhwc": conv_backward_work,
}


class Tracer:
    def __init__(self):
        self.names = []      # qualified names, indexed by name id
        self._name_ids = {}
        self.span_name = array("i")    # per span: name id
        self.span_parent = array("q")  # per span: parent span index or -1
        self.span_op = array("i")      # per span: operation id
        self.span_start = array("d")
        self.span_end = array("d")
        self.work = {}       # span index -> (flop, bytes)
        self.train_forwards = set()  # spans of model.forward(train_mode=True)
        self.op_id = -1
        self._stack = []
        self.patches = []    # (owner, attribute, original) per replacement made
        self.missing = []    # functions named in LAYERS that camnet lacks

    # -- installation -------------------------------------------------------

    def install(self):
        self.missing = []
        for layer, (modname, funcs) in LAYERS.items():
            mod = importlib.import_module(modname)
            for fname in funcs:
                owner, attr = mod, fname
                if "." in fname:
                    cls, attr = fname.split(".")
                    owner = getattr(mod, cls)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                qual = f"{layer}.{fname.removeprefix('cmd_')}"
                wrapper = self._wrap(original, qual)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for name, m in list(sys.modules.items()):
                    if name == "camnet" or name.startswith("camnet."):
                        for key, val in list(vars(m).items()):
                            if val is original:
                                self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self.patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, fn, qual):
        nid = self._name_ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        work = WORK.get(qual)
        is_forward = qual == "model.forward"
        stack, names, parents = self._stack, self.span_name, self.span_parent
        ops, starts, ends = self.span_op, self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            if work is not None:
                self.work[idx] = work(args, kwargs)
            if is_forward and _arg(args, kwargs, 2, "train_mode", False):
                self.train_forwards.add(idx)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per-name {calls, ms, self_ms} over the spans of the timed calls
        (op id >= 0; the warm-up runs with op id -1)."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {q: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for q in self.names}
        for i in range(n):
            if self.span_op[i] < 0:
                continue
            d = self.span_end[i] - self.span_start[i]
            s = out[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["ms"] += 1e3 * d
            s["self_ms"] += 1e3 * (d - child[i])
        return out

    def dump(self, path):
        """Write every span (name, start, end, parent, operation id) to an
        .npz file; start and end are time.perf_counter() seconds."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.span_name),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent), op=np.asarray(self.span_op))

    def spans_named(self, qual):
        nid = self._name_ids.get(qual)
        return [i for i, v in enumerate(self.span_name) if v == nid]

    def name_of(self, idx):
        return self.names[self.span_name[idx]]

    def duration(self, idx):
        return self.span_end[idx] - self.span_start[idx]

    def top_level_seconds(self):
        """Time covered by top-level spans of the timed calls."""
        return sum(self.duration(i) for i in range(len(self.span_name))
                   if self.span_op[i] >= 0 and self.span_parent[i] < 0)

    def training_steps(self):
        """(train span, op id, start, end) per step, a step running from a
        train-mode forward to the end of the optimizer_step after it."""
        steps = []
        last_fwd = {}
        for i in range(len(self.span_name)):
            q = self.name_of(i)
            if i in self.train_forwards:
                last_fwd[self.span_parent[i]] = self.span_start[i]
            elif q == "optim.optimizer_step":
                p = self.span_parent[i]
                if p in last_fwd:
                    steps.append((p, self.span_op[i], last_fwd.pop(p), self.span_end[i]))
        return steps

    def in_training_step(self, idx):
        """True when span idx runs under a train-mode forward or a backward
        called from optim.train."""
        p = self.span_parent[idx]
        while p >= 0:
            if p in self.train_forwards:
                return True
            if self.name_of(p) == "model.backward":
                gp = self.span_parent[p]
                return gp >= 0 and self.name_of(gp) == "optim.train"
            p = self.span_parent[p]
        return False
