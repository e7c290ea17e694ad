"""The benchmark workloads and the closed loop that drives them.

Each workload is one client in one process calling camnet's public CLI
entry point, `camnet.cli.main(argv)`, in-process, and issuing its next
call only when the previous one has returned and its outputs have been
checked.  A workload repeats a fixed *cycle* of calls until the run's
seconds are used up, and only stops at a cycle boundary, so every
per-cycle count is exact.

- train:        `camnet train` (vgg-nano, 1 epoch, batch 32, adam, no
                augmentation) on a 3 x 200 image 128x128 corpus with a
                seeded 480/60/60 split, then `camnet eval` five times.
- explain:      per image, `camnet explain --method both` (logit score)
                and `camnet explain --method gradcam_pp` with
                `cam.score_kind=exp_logit`, on distinct 128x128 images with
                a seeded 128x128 vgg-nano.
- explain_prob: `--method gradcam_pp` with `cam.score_kind=probability` on
                distinct 32x32 images with a 32x32 vgg-nano (the
                finite-difference Hessian).
- augment:      `camnet augment` over a 3 x 200 image 128x128 corpus.

The finite-difference Hessian is a workload of its own so that its
latency is gated alone: in one loop with the 128x128 calls, a large
regression of it moved the blended figure by less than its bound.  The
two 128x128 kinds cost about the same, so explain gates their sum per
image.

A workload has `setup(ctx)`, `warmup(ctx, out)` and `cycle(ctx, k, out)`,
which return the calls to make, and `metrics(ops)`, which returns
(images_per_s, call_ms_p50, {name: (value, unit, note)}) from the timed
calls.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import inputs

EPOCHS = 1
BATCH = 32
SPLIT_RATIOS = (0.8, 0.1, 0.1)

# per scale: corpus sizes and cycle shape.  "tiny" exists for the smoke test.
SCALES = {
    "full": {"size": 128, "per_class": 200, "warm_per_class": 14, "evals": 5,
             "explain_images": 240, "prob_size": 32, "prob_images": 64},
    "tiny": {"size": 16, "per_class": 10, "warm_per_class": 10, "evals": 1,
             "explain_images": 8, "prob_size": 8, "prob_images": 4},
}


class CheckError(Exception):
    """An output of camnet failed a benchmark check."""


@dataclass
class Op:
    kind: str           # train | eval | both | exp | prob | augment
    argv: list
    out: str
    key: str            # ops with equal keys must give equal digests
    images: int         # images this call processes
    check: object       # fn(op) -> digest
    wall: float = 0.0
    ok: bool = False
    digest: str = ""
    error: str = ""
    traced: bool = False
    cycle: int = 0


@dataclass
class Context:
    root: str
    scale: dict
    seed: int
    paths: dict = field(default_factory=dict)


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def call_cli(argv):
    """Run camnet.cli.main(argv) in-process; (exit code, stderr text)."""
    from camnet import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return code, err.getvalue()


def run_op(op):
    """Time one CLI call, then check its outputs (outside the timed region)."""
    try:
        t0 = time.perf_counter()
        code, err = call_cli(op.argv)
        op.wall = time.perf_counter() - t0
        if code != 0:
            raise CheckError(f"exit code {code}: {err.strip()[-300:]}")
        op.digest = op.check(op)
        op.ok = True
    except CheckError as e:
        op.error = str(e)
    except Exception:  # a camnet crash is a failed operation, not a benchmark crash
        op.error = traceback.format_exc(limit=3)
    if not op.ok:
        print(f"failed {op.kind} {' '.join(op.argv)}: {op.error}", file=sys.stderr)
    return op


# ---------------------------------------------------------------------------
# output checks

def check_train(op):
    weights = os.path.join(op.out, "model.camf")
    report = os.path.join(op.out, "train_report.csv")
    with open(report, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    if len(body) != EPOCHS or header[-1] != "seconds":
        raise CheckError(f"train_report.csv has {len(body)} rows, header {header}")
    for col in ("train_loss", "val_loss"):
        j = header.index(col)
        for r in body:
            if not math.isfinite(float(r[j])):
                raise CheckError(f"non-finite {col} {r[j]}")
    # every column but the wall-clock `seconds` is deterministic
    report_digest = hashlib.sha256(repr([r[:-1] for r in rows]).encode()).hexdigest()
    return f"weights={sha256_file(weights)} report={report_digest}"


def check_eval(op):
    with open(os.path.join(op.out, "confusion.csv"), newline="") as f:
        rows = list(csv.reader(f))
    total = sum(int(v) for r in rows[1:] for v in r[1:])
    if len(rows) != 4 or total != op.images:
        raise CheckError(f"confusion.csv counts {total} items, expected {op.images}")
    metrics = os.path.join(op.out, "metrics.csv")
    if os.path.getsize(metrics) == 0:
        raise CheckError("empty metrics.csv")
    return f"confusion={sha256_file(os.path.join(op.out, 'confusion.csv'))} " \
           f"metrics={sha256_file(metrics)}"


def check_explain(op, size, methods):
    files = sorted(f for f in os.listdir(op.out) if f.endswith((".pgm", ".ppm")))
    if len(files) != 2 * methods:
        raise CheckError(f"explain wrote {files}, expected {2 * methods} images")
    h = hashlib.sha256()
    for name in files:
        with open(os.path.join(op.out, name), "rb") as f:
            raw = f.read()
        try:
            magic, img = inputs.decode_netpbm(raw)
        except ValueError as e:
            raise CheckError(f"{name} does not decode: {e}") from e
        want = (size, size, 1) if name.endswith(".pgm") else (size, size, 3)
        if img.shape != want or magic != (b"P5" if want[2] == 1 else b"P6"):
            raise CheckError(f"{name} is {magic!r} {img.shape}, expected {want}")
        if want[2] == 1 and img.max() not in (0, 255):
            raise CheckError(f"heatmap {name} has max {img.max()}")
        h.update(name.encode() + raw)
    return h.hexdigest()


def check_augment(op, size):
    h = hashlib.sha256()
    count = 0
    for dirpath, dirnames, filenames in os.walk(op.out):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".pgm"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                raw = f.read()
            try:
                magic, img = inputs.decode_netpbm(raw)
            except ValueError as e:
                raise CheckError(f"{path} does not decode: {e}") from e
            if magic != b"P5" or img.shape != (size, size, 1):
                raise CheckError(f"{path} is {magic!r} {img.shape}")
            h.update(os.path.relpath(path, op.out).encode() + raw)
            count += 1
    if count != op.images:
        raise CheckError(f"augment wrote {count} images, expected {op.images}")
    shutil.rmtree(op.out)  # only the digest is kept; bounds disk use
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

def split_counts(per_class):
    n_test = math.floor(SPLIT_RATIOS[2] * per_class)
    n_val = math.floor(SPLIT_RATIOS[1] * per_class)
    return 3 * (per_class - n_test - n_val), 3 * n_val, 3 * n_test


class Train:
    name = "train"

    def setup(self, ctx):
        s = ctx.scale
        for tag, per_class in (("corpus", s["per_class"]), ("warm", s["warm_per_class"])):
            d = os.path.join(ctx.root, tag)
            inputs.write_class_corpus(d, per_class, s["size"], ctx.seed)
            code, err = call_cli(["split", "--data", d, "--seed", str(ctx.seed)])
            if code != 0:
                raise CheckError(f"camnet split failed: {err}")
            ctx.paths[tag] = d

    def _train(self, ctx, tag, out):
        per_class = ctx.scale["per_class" if tag == "corpus" else "warm_per_class"]
        n_train = split_counts(per_class)[0]
        argv = ["train", "--data", ctx.paths[tag], "--out", out, "--seed", str(ctx.seed),
                "--preset", "vgg-nano", "--set", f"train.epochs={EPOCHS}",
                "--set", f"train.batch_size={BATCH}", "--set", "train.optimizer=adam"]
        return Op("train", argv, out, tag, EPOCHS * n_train, check_train)

    def warmup(self, ctx, out):
        return [self._train(ctx, "warm", os.path.join(out, "train"))]

    def cycle(self, ctx, k, out):
        train = self._train(ctx, "corpus", os.path.join(out, f"train{k}"))
        weights = os.path.join(train.out, "model.camf")
        n_test = split_counts(ctx.scale["per_class"])[2]
        evals = [Op("eval", ["eval", "--data", ctx.paths["corpus"], "--weights", weights,
                             "--out", os.path.join(out, f"eval{k}_{j}")],
                    os.path.join(out, f"eval{k}_{j}"), "eval", n_test, check_eval)
                 for j in range(ctx.scale["evals"])]
        return [train] + evals

    def metrics(self, ops):
        train = [o.images / o.wall for o in ops if o.kind == "train"]
        evals = [o for o in ops if o.kind == "eval"]
        eval_s = statistics.median(o.wall for o in evals)
        named = {
            "train_images_per_s": (statistics.median(train), "1/s", f"{len(train)} calls"),
            "eval_images_per_s": (evals[0].images / eval_s, "1/s", f"{len(evals)} calls"),
        }
        return statistics.median(train), 1e3 * eval_s, named


class Explain:
    """One cycle explains the next image of the corpus, once per call kind."""

    # kind -> (metric name prefix, extra argv, methods written)
    KINDS = {
        "both": ("explain", ["--method", "both"], 2),
        "exp": ("explain_exp", ["--method", "gradcam_pp", "--set", "cam.score_kind=exp_logit"],
                1),
        "prob": ("explain_prob", ["--method", "gradcam_pp",
                                  "--set", "cam.score_kind=probability"], 1),
    }

    def __init__(self, name, kinds, size_key):
        self.name, self.kinds, self.size_key = name, kinds, size_key

    def setup(self, ctx):
        # both explain workloads write both corpora and both models, so they
        # share one set-up whose time is well above timer jitter
        s = ctx.scale
        for size, count in ((s["size"], s["explain_images"]),
                            (s["prob_size"], s["prob_images"])):
            ctx.paths[f"images{size}"] = inputs.write_flat_images(
                os.path.join(ctx.root, "images"), count, size, ctx.seed)
            ctx.paths[f"weights{size}"] = os.path.join(ctx.root, f"vgg-nano-{size}.camf")
            inputs.write_vgg_nano_weights(ctx.paths[f"weights{size}"], size, ctx.seed)

    def _ops(self, ctx, image, out):
        size = ctx.scale[self.size_key]
        ops = []
        for kind in self.kinds:
            _, extra, methods = self.KINDS[kind]
            d = os.path.join(out, kind)
            argv = ["explain", "--weights", ctx.paths[f"weights{size}"], "--image", image,
                    "--out", d] + extra
            ops.append(Op(kind, argv, d, f"{kind}:{os.path.basename(image)}", 1,
                          lambda op, m=methods: check_explain(op, size, m)))
        return ops

    def _images(self, ctx):
        return ctx.paths[f"images{ctx.scale[self.size_key]}"]

    def warmup(self, ctx, out):
        # image 0 is kept for the warm-up
        return self._ops(ctx, self._images(ctx)[0], out)

    def cycle(self, ctx, k, out):
        images = self._images(ctx)[1:]
        return self._ops(ctx, images[k % len(images)], os.path.join(out, f"c{k}"))

    def metrics(self, ops):
        per_image = {}
        for o in ops:
            per_image[o.cycle] = per_image.get(o.cycle, 0.0) + 1e3 * o.wall
        image_p50 = statistics.median(per_image.values())
        named = {}
        for kind in self.kinds:
            walls = sorted(1e3 * o.wall for o in ops if o.kind == kind)
            named[f"{self.KINDS[kind][0]}_ms_p50"] = (statistics.median(walls), "ms", f"{len(walls)} calls")
            if kind == "both":
                pct, tail = tail_percentile(walls)
                beyond = len(walls) - math.ceil(pct * len(walls) / 100)
                named["explain_ms_tail"] = (tail, "ms", f"p{pct} of {len(walls)} calls, "
                                                        f"{beyond} beyond")
        if len(self.kinds) > 1:
            named["explain_image_ms_p50"] = (image_p50, "ms", f"{len(per_image)} images, "
                                             f"{' + '.join(self.kinds)} per image")
        return len(per_image) / sum(o.wall for o in ops), image_p50, named


class Augment:
    name = "augment"

    def setup(self, ctx):
        s = ctx.scale
        for tag, per_class in (("corpus", s["per_class"]), ("warm", 1)):
            d = os.path.join(ctx.root, tag)
            inputs.write_class_corpus(d, per_class, s["size"], ctx.seed)
            ctx.paths[tag] = d

    def _op(self, ctx, corpus, per_class, out, key):
        argv = ["augment", "--data", ctx.paths[corpus], "--out", out, "--seed", str(ctx.seed)]
        size = ctx.scale["size"]
        return Op("augment", argv, out, key, 3 * per_class, lambda op: check_augment(op, size))

    def warmup(self, ctx, out):
        return [self._op(ctx, "warm", 1, os.path.join(out, "augment"), "warm")]

    def cycle(self, ctx, k, out):
        return [self._op(ctx, "corpus", ctx.scale["per_class"],
                         os.path.join(out, f"augment{k}"), "augment")]

    def metrics(self, ops):
        rates = [o.images / o.wall for o in ops]
        named = {"augment_images_per_s": (statistics.median(rates), "1/s",
                                          f"{len(ops)} calls")}
        return statistics.median(rates), 1e3 * statistics.median(o.wall for o in ops), named


WORKLOADS = {w.name: w for w in (Train(), Explain("explain", ("both", "exp"), "size"),
                                 Explain("explain_prob", ("prob",), "prob_size"), Augment())}


def tail_percentile(sorted_values):
    """(p, value): the highest integer percentile p (nearest rank) with at
    least 10 samples beyond it; p50 when there are too few samples."""
    n = len(sorted_values)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, sorted_values[rank - 1]
    return 50, sorted_values[max(math.ceil(n / 2) - 1, 0)]


def check_consistency(ops):
    """Fail every op whose digest differs from the first op with the same
    key; a traced call and its untraced repeat share a key."""
    first = {}
    for op in ops:
        if not op.ok:
            continue
        want = first.setdefault(op.key, op.digest)
        if op.digest != want:
            op.ok = False
            op.error = f"digest {op.digest[:16]} != {want[:16]} for {op.key}"
            print(f"failed {op.kind}: {op.error}", file=sys.stderr)


def run_loop(workload, ctx, seconds, out, between, tracer=None):
    """Cycles of calls for `seconds`, counting from the first call.  The
    first cycle always runs; a later one starts only if the cycle before
    it would still fit.  `between(elapsed)` runs after every untraced call
    and its time counts.  Returns (ops, cycles).

    With a tracer, each cycle runs twice, traced into `out/traced` and then
    untraced into `out`, so that host drift hits both passes alike.  The
    tracer is installed for the traced pass only.
    """
    ops = []
    t0 = time.perf_counter()
    last = 0.0
    k = 0
    passes = (True, False) if tracer is not None else (False,)
    while k == 0 or time.perf_counter() - t0 + last <= seconds:
        c0 = time.perf_counter()
        for traced in passes:
            if traced:
                tracer.install()
            try:
                for op in workload.cycle(ctx, k, os.path.join(out, "traced") if traced else out):
                    op.traced, op.cycle = traced, k
                    if traced:
                        tracer.op_id = len(ops)
                    ops.append(run_op(op))
                    if not traced:
                        between(time.perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
        last = time.perf_counter() - c0
        k += 1
    return ops, k
