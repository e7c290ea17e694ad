"""Command-line surface: synth | split | augment | train | eval | explain | gradcheck.

Configuration is a plain key=value file (one per line, # comments) plus
repeated --set overrides.  Each command reads only its own sections:
train reads train.* (and augment.* with --augment), augment reads
augment.*, explain reads cam.*; a key of any other section is an error.
Each run writes a run.txt manifest with the resolved configuration it
read and its artifact paths.

Exit codes: 0 success, 1 usage error, 2 data/format error,
3 verification failure (gradcheck).
"""

import argparse
import dataclasses
import functools
import os
import platform
import sys
import time

import numpy as np

from . import cam as camlib
from . import data as datalib
from . import gradcheck as gradchecklib
from . import metrics as metricslib
from . import model as nn
from . import optim
from . import tuning
from .errors import BuildError, CamnetError, ConfigError, DataError, ShapeError

SECTIONS = {
    "train": optim.TrainConfig,
    "augment": datalib.AugmentConfig,
    "cam": camlib.CamConfig,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


# ---------------------------------------------------------------------------
# run configuration

def _coerce(key: str, value: str, current):
    integer = isinstance(current, int) or current is None  # None: cam.target_layer
    try:
        if integer:
            return int(value)
        if isinstance(current, float):
            return float(value)
        if isinstance(current, tuple):
            return tuple(float(v) for v in value.split(","))
    except ValueError:
        expected = "an integer" if integer else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    return value


def load_run_config(sections, config_path=None, overrides=()):
    """Resolve {section: config dataclass}, for the named SECTIONS only,
    from a file plus --set overrides.  A key of another section is a
    ConfigError."""
    configs = {name: SECTIONS[name]() for name in sections}
    pairs = []
    if config_path:
        with open(config_path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{config_path}:{lineno}: expected key=value")
                pairs.append(tuple(s.strip() for s in line.split("=", 1)))
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"--set expects key=value, got {ov!r}")
        pairs.append(tuple(s.strip() for s in ov.split("=", 1)))

    for key, value in pairs:
        if "." not in key:
            raise ConfigError(f"config key {key!r} must look like section.field")
        section, field = key.split(".", 1)
        if section not in configs:
            raise ConfigError(f"unknown config section {section!r} in {key!r}")
        cfg = configs[section]
        defaults = {f.name: f.default for f in dataclasses.fields(cfg)}
        if field not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        unset = value == "None" and defaults[field] is None  # as run.txt writes it
        setattr(cfg, field, None if unset else _coerce(key, value, getattr(cfg, field)))
    return configs


def write_run_manifest(out_dir, configs, extras):
    lines = []
    for section in sorted(configs):
        for f in dataclasses.fields(configs[section]):
            v = getattr(configs[section], f.name)
            if isinstance(v, tuple):
                v = ",".join(nn.format_arg(x) for x in v)
            lines.append(f"{section}.{f.name}={v}")
    for k, v in extras.items():
        lines.append(f"{k}={v}")
    with open(os.path.join(out_dir, "run.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def environment() -> dict:
    """run.txt entries naming what computed a run's artifacts: the Python,
    numpy and BLAS versions, the CPU count and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a build config without the BLAS name or version
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "cpu_count": os.cpu_count(),
        **{v: os.environ.get(v, "") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def thread_counts() -> dict:
    """run.txt entries of `train` and `eval`: the pool's worker count and
    the BLAS thread count its passes run under, read back under the pin
    ("unknown" where BLAS does not report it)."""
    with tuning.one_blas_thread():
        blas = tuning.blas_threads()
    return {"workers": tuning.workers(),
            "blas_threads": "unknown" if blas is None else blas}


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    ds = datalib.synth_dataset(args.n, image_size=args.size, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    # directory prefixes keep alphabetical ingestion order == label order
    dirnames = [f"{lab}_{name}" for lab, name in enumerate(ds.class_names)]
    for d in dirnames:
        os.makedirs(os.path.join(args.out, d), exist_ok=True)
    per_class = {lab: 0 for lab in range(len(ds.class_names))}
    for img, lab in zip(ds.images, ds.labels):
        i = per_class[lab]
        per_class[lab] += 1
        path = os.path.join(args.out, dirnames[lab], f"{i:05d}.pgm")
        datalib.write_image(path, datalib.f_to_u8(img))
    write_run_manifest(args.out, {}, {
        "command": "synth", "seed": args.seed, "n_per_class": args.n,
        "image_size": args.size, "out": args.out,
    })
    print(f"wrote {len(ds.images)} images to {args.out}")


def cmd_split(args):
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise ConfigError(f"--ratios: expected comma-separated numbers "
                          f"(train,val,test), got {args.ratios!r}") from None
    ds = datalib.load_directory(args.data)
    manifest = datalib.stratified_split(ds, ratios, args.seed)
    out = args.out or os.path.join(args.data, "split.csv")
    manifest.write_csv(out, ds)
    print(f"split {len(ds)} items -> train {len(manifest.train)}, "
          f"val {len(manifest.val)}, test {len(manifest.test)} ({out})")


def cmd_augment(args):
    aug = load_run_config(("augment",), args.config, args.set or ())["augment"]
    ds = datalib.list_directory(args.data)  # one image in memory at a time
    os.makedirs(args.out, exist_ok=True)
    for i, path in enumerate(ds.paths):
        img = datalib.minmax_normalize(datalib.read_image(path))
        rng = datalib.Rng(datalib.derive_seed(args.seed, i))
        out_img = datalib.augment_chain(img, aug, rng)
        rel = os.path.relpath(path, args.data)
        dst = os.path.join(args.out, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        datalib.write_image(dst, datalib.f_to_u8(out_img))
    write_run_manifest(args.out, {"augment": aug},
                       {"command": "augment", "data": args.data, "out": args.out,
                        "seed": args.seed})
    print(f"augmented {len(ds)} images into {args.out}")


def _model_spec_for(args, class_names, input_hw, channels):
    if args.spec:
        with open(args.spec) as f:
            return nn.parse_spec_text(f.read())
    return nn.preset(args.preset, class_names=tuple(class_names), input_hw=input_hw,
                     channels=channels)


def cmd_train(args):
    configs = load_run_config(("train", "augment") if args.augment else ("train",),
                              args.config, args.set or ())
    tc = configs["train"]
    if args.seed is not None:
        tc.seed = args.seed
    ds = datalib.load_directory(args.data)
    manifest_path = args.manifest or os.path.join(args.data, "split.csv")
    manifest = datalib.SplitManifest.read_csv(manifest_path, dataset=ds)
    train_set = ds.subset(manifest.train)
    val_set = ds.subset(manifest.val)
    for split in (train_set, val_set):  # normalized as each batch uses them
        split.images = datalib.NormalizedImages(split.images)

    h, w, c = ds.image_shape()
    spec = _model_spec_for(args, ds.class_names, (h, w), c)
    model = nn.build_model(spec, init_seed=tc.seed)
    report = optim.train(model, train_set, val_set, tc, augment=configs.get("augment"))

    os.makedirs(args.out, exist_ok=True)
    weight_path = os.path.join(args.out, "model.camf")
    report_path = os.path.join(args.out, "train_report.csv")
    nn.save_weights(model, weight_path)
    report.write_csv(report_path)
    write_run_manifest(args.out, configs, {
        "command": "train", "data": args.data, "manifest": manifest_path,
        "model_spec": spec.canonical(), "weights": weight_path,
        "train_report": report_path, "compute_dtype": optim.COMPUTE_DTYPE.name,
        **environment(), **thread_counts(),
    })
    last = report.rows[-1]
    print(f"trained {tc.epochs} epochs: train_acc={last.train_acc:.4f} "
          f"val_acc={last.val_acc:.4f} ({weight_path})")


def cmd_eval(args):
    """Score the manifest's test rows; write confusion.csv, metrics.csv and
    run.txt.

    Every corpus file is decoded, so a bad one fails as in train, but only
    the test rows are normalized and scored, through
    model.predict: a per-image conv stack, then one dense head pass per
    chunk of images.  A corpus whose class count, image shape or class
    names differ from the model's, and a manifest with no test rows, are
    typed errors raised before any forward.
    """
    start = time.perf_counter()
    model = nn.load_weights(None, args.weights)
    ds = datalib.load_directory(args.data)
    manifest_path = args.manifest or os.path.join(args.data, "split.csv")
    manifest = datalib.SplitManifest.read_csv(manifest_path, dataset=ds)
    _check_corpus_fits(model, ds, args)
    if not manifest.test:
        raise DataError(f"manifest {manifest_path} has no test rows; nothing to evaluate")
    names = model.spec.class_names
    if tuple(ds.class_names) != names:
        raise DataError(
            f"corpus {args.data} has classes ({', '.join(ds.class_names)}), but the "
            f"model {args.weights} has ({', '.join(names)})")
    test_set = ds.subset(manifest.test)

    # normalized one image at a time, as predict consumes them
    probs = nn.predict(model, (np.moveaxis(datalib.minmax_normalize(img), -1, 0)
                               for img in test_set.images))
    preds = probs.argmax(axis=1).tolist()
    cm = metricslib.confusion(preds, test_set.labels, len(ds.class_names),
                              ds.class_names)
    rep = metricslib.report(cm)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "confusion.csv"), "w") as f:
        f.write("," + ",".join(cm.class_names) + "\n")
        for name, row in zip(cm.class_names, cm.counts):
            f.write(name + "," + ",".join(str(v) for v in row) + "\n")
    with open(os.path.join(args.out, "metrics.csv"), "w") as f:
        f.write(rep.to_csv())
    write_run_manifest(args.out, {}, {
        "command": "eval", "data": args.data, "weights": args.weights,
        "manifest": manifest_path, "out": args.out, "images_scored": len(preds),
        "elapsed_s": f"{time.perf_counter() - start:.3f}", **environment(),
        **thread_counts(),
    })
    print(rep.to_table(), end="")


def _check_corpus_fits(model, ds, args):
    """A DataError or ShapeError naming both sides when the corpus has
    images of more than one shape, or another class count or image shape
    than the model."""
    h, w, c = ds.image_shape()
    names = model.spec.class_names
    if len(ds.class_names) != len(names):
        raise DataError(
            f"corpus {args.data} has {len(ds.class_names)} classes "
            f"({', '.join(ds.class_names)}), but the model {args.weights} has "
            f"{len(names)} ({', '.join(names)})")
    mc, mh, mw = model.spec.input_shape
    if (h, w, c) != (mh, mw, mc):
        raise ShapeError(f"corpus {args.data} has {h}x{w}x{c} images, but the model "
                         f"{args.weights} takes {mh}x{mw}x{mc}")


def cmd_explain(args):
    start = time.perf_counter()
    cfg = load_run_config(("cam",), args.config, args.set or ())["cam"]
    model = nn.load_weights(None, args.weights)
    n_classes = len(model.spec.class_names)
    if args.class_index is not None and not 0 <= args.class_index < n_classes:
        raise BuildError(f"class index {args.class_index} is out of range for "
                         f"{n_classes} classes; valid: 0..{n_classes - 1}")
    img_u8 = datalib.read_image(args.image)
    img = datalib.minmax_normalize(img_u8)
    c, h, w = model.spec.input_shape
    if img.shape[2] != c:
        raise ShapeError(f"image {args.image} has {img.shape[2]} channels, but the "
                         f"model takes {c}")
    if img.shape[:2] != (h, w):
        img = datalib.resize_bilinear(img, h, w)
    x = np.moveaxis(img, -1, 0)[None]

    # one capture forward serves the prediction and every method
    cache = camlib.capture(model, x)
    probs = cache.activations[-1][0]
    class_index = args.class_index if args.class_index is not None else int(probs.argmax())
    class_name = model.spec.class_names[class_index]
    methods = ["gradcam", "gradcam_pp"] if args.method == "both" else [args.method]

    out_dir = args.out or os.path.dirname(os.path.abspath(args.image))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    written = []
    for method in methods:
        fn = camlib.gradcam if method == "gradcam" else camlib.gradcam_pp
        _, heatmap = fn(model, cache, class_index, cfg)
        map_path = os.path.join(out_dir, f"{stem}.{method}.{class_name}.pgm")
        overlay_path = os.path.join(out_dir, f"{stem}.{method}.{class_name}.ppm")
        datalib.write_image(map_path, datalib.f_to_u8(heatmap.normalized[:, :, None]))
        datalib.write_image(overlay_path, camlib.render_overlay(heatmap, img))
        written += [map_path, overlay_path]
    write_run_manifest(out_dir, {"cam": cfg}, {
        "command": "explain", "weights": args.weights, "image": args.image,
        "class": class_name, "files": ";".join(written),
        "backward_passes": len(cache.logit_rows),
        "elapsed_s": f"{time.perf_counter() - start:.3f}", **environment(),
    })
    print(f"predicted {class_name} (p={probs[class_index]:.4f}); "
          f"wrote {len(written)} files")


def cmd_gradcheck(args):
    results = gradchecklib.run_all(verbose=True)
    if any(not r.passed for r in results):
        sys.exit(3)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process.  It binds no command
    function: main looks cmd_<command> up in this module on every call."""
    p = _Parser(prog="camnet", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write a synthetic Netpbm corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, required=True, help="images per class")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=128)

    sp = sub.add_parser("split", help="write a stratified split manifest")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ratios", default="0.8,0.1,0.1")

    sp = sub.add_parser("augment", help="write augmented copies of a directory")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")

    sp = sub.add_parser("train", help="train a model and write weights + report")
    sp.add_argument("--data", required=True)
    sp.add_argument("--manifest")
    model_spec = sp.add_mutually_exclusive_group()
    model_spec.add_argument("--preset", default="vgg-nano")
    model_spec.add_argument("--spec", help="file holding a canonical model spec line")
    sp.add_argument("--out", default="run")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")
    sp.add_argument("--augment", action="store_true",
                    help="apply the augmentation chain to training batches")

    sp = sub.add_parser("eval", help="evaluate weights on the test split")
    sp.add_argument("--data", required=True)
    sp.add_argument("--manifest")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--out", default="eval")

    sp = sub.add_parser("explain", help="write saliency heatmaps for one image")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--image", required=True)
    sp.add_argument("--method", choices=("gradcam", "gradcam_pp", "both"),
                    default="both")
    sp.add_argument("--class-index", type=int, dest="class_index")
    sp.add_argument("--out")
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")

    sp = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    return p


def main(argv=None):
    """Run one command.  Every command runs under the malloc policy of
    tuning.keep_malloc_pages, which train needs and batch-1 calls gain from."""
    tuning.keep_malloc_pages()
    args = build_parser().parse_args(argv)
    try:
        globals()[f"cmd_{args.command}"](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    except (CamnetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
