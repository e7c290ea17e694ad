"""Command-line surface: synth | split | augment | train | eval | explain | gradcheck.

Configuration is a plain key=value file (one per line, # comments) plus
repeated --set overrides; every train.*, augment.*, and cam.* field is
addressable.  Each run writes a run.txt manifest with the fully resolved
configuration and artifact paths.

Exit codes: 0 success, 1 usage error, 2 data/format error,
3 verification failure (gradcheck).
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import cam as camlib
from . import data as datalib
from . import gradcheck as gradchecklib
from . import metrics as metricslib
from . import model as nn
from . import optim
from .errors import CamnetError, ConfigError

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
    if isinstance(current, bool):
        if value.lower() in ("1", "true", "on", "yes"):
            return True
        if value.lower() in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
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


def load_run_config(config_path=None, overrides=()):
    """Resolve {section: config dataclass} from a file plus --set overrides."""
    configs = {name: cls() for name, cls in SECTIONS.items()}
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
        if field not in {f.name for f in dataclasses.fields(cfg)}:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, field, _coerce(key, value, getattr(cfg, field)))
    return configs


def write_run_manifest(out_dir, configs, extras):
    lines = []
    for section in sorted(configs):
        for f in dataclasses.fields(configs[section]):
            v = getattr(configs[section], f.name)
            if isinstance(v, tuple):
                v = ",".join(f"{x:g}" for x in v)
            lines.append(f"{section}.{f.name}={v}")
    for k, v in extras.items():
        lines.append(f"{k}={v}")
    with open(os.path.join(out_dir, "run.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


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
    ds = datalib.load_directory(args.data)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    manifest = datalib.stratified_split(ds, ratios, args.seed)
    out = args.out or os.path.join(args.data, "split.csv")
    manifest.write_csv(out, ds)
    print(f"split {len(ds)} items -> train {len(manifest.train)}, "
          f"val {len(manifest.val)}, test {len(manifest.test)} ({out})")


def cmd_augment(args):
    configs = load_run_config(args.config, args.set or ())
    aug = configs["augment"]
    aug.seed = args.seed
    ds = datalib.load_directory(args.data)
    os.makedirs(args.out, exist_ok=True)
    for i, (img, path) in enumerate(zip(ds.images, ds.paths)):
        rng = datalib.Rng(datalib.derive_seed(args.seed, i))
        out_img = datalib.augment_chain(img, aug, rng)
        rel = os.path.relpath(path, args.data)
        dst = os.path.join(args.out, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        datalib.write_image(dst, datalib.f_to_u8(out_img))
    write_run_manifest(args.out, {"augment": aug},
                       {"command": "augment", "data": args.data, "out": args.out})
    print(f"augmented {len(ds)} images into {args.out}")


def _model_spec_for(args, class_names, input_hw, channels):
    if args.spec:
        with open(args.spec) as f:
            return nn.parse_spec_text(f.read())
    return nn.preset(args.preset, class_names=tuple(class_names), input_hw=input_hw,
                     channels=channels)


def cmd_train(args):
    configs = load_run_config(args.config, args.set or ())
    tc = configs["train"]
    if args.seed is not None:
        tc.seed = args.seed
    ds = datalib.load_directory(args.data)
    manifest_path = args.manifest or os.path.join(args.data, "split.csv")
    manifest = datalib.SplitManifest.read_csv(manifest_path, dataset=ds)
    train_set = ds.subset(manifest.train)
    val_set = ds.subset(manifest.val)

    h, w, c = ds.image_shape()
    spec = _model_spec_for(args, ds.class_names, (h, w), c)
    model = nn.build_model(spec, init_seed=tc.seed)

    augment = None
    if args.augment:
        aug_cfg = configs["augment"]
        augment = datalib.make_augmenter(aug_cfg)

    report = optim.train(model, train_set, val_set, tc, augment=augment)

    os.makedirs(args.out, exist_ok=True)
    weight_path = os.path.join(args.out, "model.camf")
    report_path = os.path.join(args.out, "train_report.csv")
    nn.save_weights(model, weight_path)
    report.weight_path = weight_path
    report.write_csv(report_path)
    write_run_manifest(args.out, configs, {
        "command": "train", "data": args.data, "manifest": manifest_path,
        "model_spec": spec.canonical(), "weights": weight_path,
        "train_report": report_path,
    })
    last = report.rows[-1]
    print(f"trained {tc.epochs} epochs: train_acc={last.train_acc:.4f} "
          f"val_acc={last.val_acc:.4f} ({weight_path})")


def cmd_eval(args):
    model = nn.load_weights(None, args.weights)
    ds = datalib.load_directory(args.data)
    manifest_path = args.manifest or os.path.join(args.data, "split.csv")
    manifest = datalib.SplitManifest.read_csv(manifest_path, dataset=ds)
    ds.image_shape()  # a DataError naming the first image of another shape
    test_set = ds.subset(manifest.test)

    preds = []
    for img in test_set.images:
        probs = nn.forward(model, np.moveaxis(img, -1, 0)[None])
        preds.append(int(probs.argmax()))
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
        "manifest": manifest_path, "out": args.out,
    })
    print(rep.to_table(), end="")


def cmd_explain(args):
    model = nn.load_weights(None, args.weights)
    img_u8 = datalib.read_image(args.image)
    img = datalib.minmax_normalize(img_u8)
    c, h, w = model.spec.input_shape
    if img.shape[:2] != (h, w):
        img = datalib.resize_bilinear(img, h, w)
    x = np.moveaxis(img, -1, 0)[None]

    # one capture forward serves the prediction and every method
    cache = camlib.capture(model, x)
    probs = cache.activations[-1][0]
    class_index = args.class_index if args.class_index is not None else int(probs.argmax())
    class_name = model.spec.class_names[class_index]

    configs = load_run_config(args.config, args.set or ())
    cfg = configs["cam"]
    methods = ["gradcam", "gradcam_pp"] if args.method == "both" else [args.method]

    out_dir = args.out or os.path.dirname(os.path.abspath(args.image))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    written = []
    for method in methods:
        fn = camlib.gradcam if method == "gradcam" else camlib.gradcam_pp
        _, heatmap = fn(model, x, class_index, cfg, cache=cache)
        map_path = os.path.join(out_dir, f"{stem}.{method}.{class_name}.pgm")
        overlay_path = os.path.join(out_dir, f"{stem}.{method}.{class_name}.ppm")
        datalib.write_image(map_path, datalib.f_to_u8(heatmap.normalized[:, :, None]))
        datalib.write_image(overlay_path, camlib.render_overlay(heatmap, img))
        written += [map_path, overlay_path]
    write_run_manifest(out_dir, {"cam": cfg}, {
        "command": "explain", "weights": args.weights, "image": args.image,
        "class": class_name, "files": ";".join(written),
    })
    print(f"predicted {class_name} (p={probs[class_index]:.4f}); "
          f"wrote {len(written)} files")


def cmd_gradcheck(args):
    results = gradchecklib.run_all(verbose=True)
    if any(not r.passed for r in results):
        sys.exit(3)


# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="camnet", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write a synthetic Netpbm corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n", type=int, required=True, help="images per class")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=128)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("split", help="write a stratified split manifest")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ratios", default="0.8,0.1,0.1")
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("augment", help="write augmented copies of a directory")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")
    sp.set_defaults(fn=cmd_augment)

    sp = sub.add_parser("train", help="train a model and write weights + report")
    sp.add_argument("--data", required=True)
    sp.add_argument("--manifest")
    sp.add_argument("--preset", default="vgg-nano")
    sp.add_argument("--spec", help="file holding a canonical model spec line")
    sp.add_argument("--out", default="run")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")
    sp.add_argument("--augment", action="store_true",
                    help="apply the augmentation chain to training batches")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate weights on the test split")
    sp.add_argument("--data", required=True)
    sp.add_argument("--manifest")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--out", default="eval")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("explain", help="write saliency heatmaps for one image")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--image", required=True)
    sp.add_argument("--method", choices=("gradcam", "gradcam_pp", "both"),
                    default="both")
    sp.add_argument("--class-index", type=int, dest="class_index")
    sp.add_argument("--out")
    sp.add_argument("--config")
    sp.add_argument("--set", action="append")
    sp.set_defaults(fn=cmd_explain)

    sp = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    sp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    except (CamnetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
