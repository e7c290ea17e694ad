"""Print one `name sha256` line per artifact of a fixed set of camnet runs,
so that two trees can be checked for the same bytes.

    python tests/artifact_digests.py OUT_DIR

OUT_DIR must not exist yet.  The script imports camnet from the src/
directory next to its own tests/ directory, and runs the CLI in-process
inside OUT_DIR with relative paths, so the digests do not depend on
where OUT_DIR is.  The runs:

- synth corpora at 32x32 (20 images per class; a 48/6/6 split) and
  128x128 (38 per class; 96/9/9), each digested as one tree, and their
  split.csv;
- 2-epoch vgg-nano trains at 128x128 batch 32, at 32x32 batch 8, 12
  and 17, and with --augment at 32x32 batch 32: model.camf,
  train_report.csv and run.txt of each;
- eval of the 128x128 model and of the 32x32 batch-12 model:
  confusion.csv, metrics.csv and run.txt;
- explain of one 32x32 image with the batch-8 model: --method both
  (logit), and gradcam_pp with exp_logit and with probability: every
  map, overlay and run.txt;
- augment of the 32x32 corpus, as one tree;
- gradcheck's output.

Values that name the machine or the time are dropped before hashing:
train_report.csv's `seconds` column, and run.txt's elapsed_s,
environment and thread-count lines.  Runs in about 6 s on 2 vCPUs.
"""

import contextlib
import csv
import hashlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from camnet import cli  # noqa: E402

# run.txt keys whose values depend on the host or the clock
VOLATILE = {"elapsed_s", *cli.environment(), *cli.thread_counts()}


def camnet(*argv) -> str:
    """Run one CLI command; its stdout.  A failing command ends the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main([str(a) for a in argv])
        except SystemExit as e:
            if e.code:
                sys.exit(f"camnet {' '.join(map(str, argv))} exited {e.code}")
    return out.getvalue()


def file_bytes(path) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    name = os.path.basename(path)
    if name == "run.txt":
        lines = raw.decode().splitlines(keepends=True)
        return "".join(l for l in lines if l.split("=", 1)[0] not in VOLATILE).encode()
    if name == "train_report.csv":
        rows = list(csv.reader(io.StringIO(raw.decode())))
        keep = [i for i, col in enumerate(rows[0]) if col != "seconds"]
        return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
    return raw


def digest(path) -> str:
    """sha256 of a file, or of a tree's sorted (relative path, file digest)
    pairs."""
    if os.path.isfile(path):
        return hashlib.sha256(file_bytes(path)).hexdigest()
    h = hashlib.sha256()
    for root, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            full = os.path.join(root, name)
            h.update(f"{os.path.relpath(full, path)}\0{digest(full)}\n".encode())
    return h.hexdigest()


def main(out_dir):
    os.makedirs(out_dir)
    os.chdir(out_dir)

    def show(*paths):
        for path in paths:
            print(path, digest(path), flush=True)

    for size, n in ((32, 20), (128, 38)):
        corpus = f"synth{size}"
        camnet("synth", "--out", corpus, "--n", n, "--seed", 1, "--size", size)
        show(corpus)
        camnet("split", "--data", corpus, "--out", f"split{size}.csv")
        show(f"split{size}.csv")

    trains = [("train128_b32", 128, 32, ()), ("train32_b8", 32, 8, ()),
              ("train32_b12", 32, 12, ()), ("train32_b17", 32, 17, ()),
              ("train32_augment", 32, 32, ("--augment",))]
    for out, size, batch, extra in trains:
        camnet("train", "--data", f"synth{size}", "--manifest", f"split{size}.csv",
               "--out", out, "--seed", 5, "--set", "train.epochs=2",
               "--set", f"train.batch_size={batch}", *extra)
        show(f"{out}/model.camf", f"{out}/train_report.csv", f"{out}/run.txt")

    for train, size in (("train128_b32", 128), ("train32_b12", 32)):
        out = f"eval_{train}"
        camnet("eval", "--data", f"synth{size}", "--manifest", f"split{size}.csv",
               "--weights", f"{train}/model.camf", "--out", out)
        show(f"{out}/confusion.csv", f"{out}/metrics.csv", f"{out}/run.txt")

    image = "synth32/1_rect/00003.pgm"
    for out, extra in (("explain_both", ("--method", "both")),
                       ("explain_exp_logit", ("--method", "gradcam_pp", "--set",
                                              "cam.score_kind=exp_logit")),
                       ("explain_probability", ("--method", "gradcam_pp", "--set",
                                                "cam.score_kind=probability"))):
        camnet("explain", "--weights", "train32_b8/model.camf", "--image", image,
               "--out", out, *extra)
        show(*(f"{out}/{name}" for name in sorted(os.listdir(out))))

    camnet("augment", "--data", "synth32", "--out", "augment32", "--seed", 3)
    show("augment32")

    with open("gradcheck.txt", "w") as f:
        f.write(camnet("gradcheck"))
    show("gradcheck.txt")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
