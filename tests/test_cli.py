"""CLI subcommand flows on a tiny corpus, plus exit-code contracts."""

import os

import numpy as np
import pytest

from camnet import cli, data, model as nn, ops


def run_cli(argv):
    """Invoke main() and return the SystemExit code (0 if none raised)."""
    try:
        cli.main(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("flow")
    d = str(root / "data")
    assert run_cli(["synth", "--out", d, "--n", "10", "--seed", "3",
                    "--size", "16"]) == 0
    assert run_cli(["split", "--data", d, "--seed", "3"]) == 0
    return root, d


def test_synth_layout(corpus):
    _, d = corpus
    dirs = sorted(x for x in os.listdir(d) if os.path.isdir(os.path.join(d, x)))
    assert dirs == ["0_disk", "1_rect", "2_cross"]
    assert len(os.listdir(os.path.join(d, "0_disk"))) == 10
    assert os.path.exists(os.path.join(d, "run.txt"))


def test_split_manifest(corpus):
    _, d = corpus
    m = data.SplitManifest.read_csv(os.path.join(d, "split.csv"))
    assert len(m.train) + len(m.val) + len(m.test) == 30


def test_train_eval_explain(corpus):
    root, d = corpus
    out = str(root / "run")
    code = run_cli(["train", "--data", d, "--out", out, "--seed", "5",
                    "--set", "train.epochs=2", "--set", "train.batch_size=6"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "model.camf"))
    assert os.path.exists(os.path.join(out, "train_report.csv"))
    manifest = open(os.path.join(out, "run.txt")).read()
    assert "train.epochs=2" in manifest
    assert "train.seed=5" in manifest

    ev = str(root / "eval")
    assert run_cli(["eval", "--data", d, "--weights",
                    os.path.join(out, "model.camf"), "--out", ev]) == 0
    assert os.path.exists(os.path.join(ev, "confusion.csv"))
    assert os.path.exists(os.path.join(ev, "metrics.csv"))

    img = os.path.join(d, "0_disk", "00000.pgm")
    ex = str(root / "explain")
    assert run_cli(["explain", "--weights", os.path.join(out, "model.camf"),
                    "--image", img, "--out", ex]) == 0
    written = [f for f in os.listdir(ex) if f.endswith((".pgm", ".ppm"))]
    assert len(written) == 4  # 2 methods x (map + overlay)
    names = sorted(written)
    assert any(".gradcam." in n for n in names)
    assert any(".gradcam_pp." in n for n in names)


def test_explain_single_method(corpus):
    root, d = corpus
    out = str(root / "run")
    img = os.path.join(d, "1_rect", "00001.pgm")
    ex = str(root / "explain1")
    assert run_cli(["explain", "--weights", os.path.join(out, "model.camf"),
                    "--image", img, "--out", ex, "--method", "gradcam",
                    "--class-index", "1"]) == 0
    written = [f for f in os.listdir(ex) if f.endswith((".pgm", ".ppm"))]
    assert len(written) == 2


def test_usage_error_exit_code():
    assert run_cli(["definitely-not-a-command"]) == 1
    assert run_cli([]) == 1


def test_config_error_exit_code(corpus):
    _, d = corpus
    assert run_cli(["train", "--data", d, "--set", "train.bogus=1"]) == 1
    assert run_cli(["train", "--data", d, "--set", "nodotkey"]) == 1


def test_data_error_exit_code(tmp_path):
    assert run_cli(["split", "--data", str(tmp_path / "missing")]) == 2
    bad = tmp_path / "bad.camf"
    bad.write_bytes(b"JUNKJUNK\n")
    assert run_cli(["eval", "--data", str(tmp_path), "--weights", str(bad)]) == 2


@pytest.fixture(scope="module")
def explain_inputs(tmp_path_factory):
    """Untrained 16x16 vgg-nano weights, one image, two CAMF files whose
    header line never ends or is not text, two PGMs with a negative or zero
    size, and a corpus whose split.csv went stale when an image was deleted."""
    root = tmp_path_factory.mktemp("bad_input")
    weights = str(root / "model.camf")
    nn.save_weights(nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 0),
                    weights)
    image = str(root / "x.pgm")
    data.write_image(image, np.full((16, 16, 1), 128, dtype=np.uint8))
    headerless = root / "headerless.camf"
    headerless.write_bytes(nn.WEIGHT_MAGIC + b"input=1x16x16;layers=Conv(8,3,1,1)")
    binary = root / "binary.camf"
    binary.write_bytes(nn.WEIGHT_MAGIC + b"\xff\xfe\n")
    (root / "negative.pgm").write_bytes(b"P5 -4 -2 255\n")
    (root / "zero.pgm").write_bytes(b"P5 0 5 255\n")
    stale = str(root / "stale")
    assert run_cli(["synth", "--out", stale, "--n", "4", "--size", "16"]) == 0
    assert run_cli(["split", "--data", stale]) == 0
    os.remove(os.path.join(stale, "0_disk", "00001.pgm"))
    return {"root": str(root), "weights": weights, "image": image,
            "headerless": str(headerless), "binary": str(binary), "stale": stale}


EXPLAIN = ["explain", "--weights", "{weights}", "--image", "{image}",
           "--out", "{root}/out", "--set"]

BAD_INPUTS = [
    # (argv, exit code, text of the error line)
    (["train", "--data", "{root}", "--set", "train.epochs=abc"], 1,
     "train.epochs: expected an integer, got 'abc'"),
    (["train", "--data", "{root}", "--set", "train.learning_rate=fast"], 1,
     "train.learning_rate: expected a number, got 'fast'"),
    (["augment", "--data", "{root}", "--out", "{root}/aug", "--set",
      "augment.rotation_set=9,x"], 1,
     "augment.rotation_set: expected a number, got '9,x'"),
    (EXPLAIN + ["cam.target_layer=abc"], 1,
     "cam.target_layer: expected an integer, got 'abc'"),
    (EXPLAIN + ["cam.hessian=fd"], 1, "unknown config key 'cam.hessian'"),
    (EXPLAIN + ["cam.fd_step=x"], 1, "unknown config key 'cam.fd_step'"),
    (EXPLAIN + ["cam.target_layer=99"], 2,
     "target layer 99 is out of range; valid: 0..15"),
    (EXPLAIN + ["cam.target_layer=-16"], 2,
     "target layer -16 is out of range; valid: 0..15"),
    (EXPLAIN + ["cam.target_layer=1"], 2, "target layer 1 is ReLU, not a Conv layer"),
    (["explain", "--weights", "{headerless}", "--image", "{image}"], 2,
     "missing header line"),
    (["eval", "--data", "{root}", "--weights", "{headerless}"], 2,
     "missing header line"),
    (["eval", "--data", "{root}", "--weights", "{binary}"], 2,
     "header line is not UTF-8"),
    (["explain", "--weights", "{weights}", "--image", "{root}/negative.pgm"], 2,
     "width and height must be positive, got -4x-2"),
    (["explain", "--weights", "{weights}", "--image", "{root}/zero.pgm"], 2,
     "width and height must be positive, got 0x5"),
    (["train", "--data", "{stale}", "--out", "{root}/run"], 2,
     "manifest {stale}/split.csv line 3: index 1 names 0_disk/00001.pgm (label 0), "
     "but the data directory has 0_disk/00002.pgm (label 0) there; "
     "run camnet split again"),
]


@pytest.mark.parametrize("argv,code,message", BAD_INPUTS,
                         ids=[" ".join(row[0][-2:]) for row in BAD_INPUTS])
def test_bad_input_one_error_line(explain_inputs, capsys, argv, code, message):
    assert run_cli([a.format(**explain_inputs) for a in argv]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"error: {message.format(**explain_inputs)}"]


def test_explain_both_runs_one_forward_and_no_conv_backward(explain_inputs,
                                                            monkeypatch):
    calls = {"forward": 0, "conv2d_backward_nhwc": 0, "backward": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    count(nn, "forward")
    count(nn, "backward")
    count(ops, "conv2d_backward_nhwc")
    argv = EXPLAIN[:-1] + ["--method", "both"]
    assert run_cli([a.format(**explain_inputs) for a in argv]) == 0
    assert calls == {"forward": 1, "conv2d_backward_nhwc": 0, "backward": 2}


def test_config_file_and_override(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs = 3  # comment\ntrain.optimizer = sgd\n")
    configs = cli.load_run_config(str(cfg), ["train.epochs=4"])
    assert configs["train"].epochs == 4  # --set wins over the file
    assert configs["train"].optimizer == "sgd"
    with pytest.raises(Exception):
        cli.load_run_config(str(cfg), ["augment.unknown=1"])


def test_gradcheck_command():
    assert run_cli(["gradcheck"]) == 0


def test_augment_command(corpus, tmp_path):
    _, d = corpus
    out = str(tmp_path / "aug")
    assert run_cli(["augment", "--data", d, "--out", out, "--seed", "1"]) == 0
    a = data.load_directory(d)
    b = data.load_directory(out)
    assert len(a) == len(b)
    assert not np.array_equal(a.images[0], b.images[0])
