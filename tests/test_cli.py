"""CLI subcommand flows on a tiny corpus, plus exit-code contracts."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

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
    assert "compute_dtype=float32" in manifest.splitlines()
    assert f"numpy={np.__version__}" in manifest.splitlines()

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
    header line never ends or is not text, two whose header spec has a
    negative Conv width or a MaxPool2 after Flatten, a spec file with a
    stride-0 Conv, two PGMs with a negative or zero size, a corpus whose
    split.csv went stale when an image was deleted, a good 16x16 corpus,
    a 16x16 corpus with one 20x20 image, a 100-byte CAMF file whose header
    declares a Dense layer of 10^11 units, a corpus with a class
    directory named with a comma, a 16x16 RGB image, and corpora with 2
    or 4 classes or with 8x8 images.  The good corpus, like every corpus
    here made of 4 images per class, has an empty test split; the synth
    corpus of 10 images per class has test rows, and synth's class names,
    not the weights'."""
    root = tmp_path_factory.mktemp("bad_input")
    weights = str(root / "model.camf")
    nn.save_weights(nn.build_model(nn.preset("vgg-nano", input_hw=(16, 16)), 0),
                    weights)
    image = str(root / "x.pgm")
    data.write_image(image, np.full((16, 16, 1), 128, dtype=np.uint8))
    data.write_image(str(root / "rgb.ppm"), np.full((16, 16, 3), 128, dtype=np.uint8))
    headerless = root / "headerless.camf"
    headerless.write_bytes(nn.WEIGHT_MAGIC + b"input=1x16x16;layers=Conv(8,3,1,1)")
    binary = root / "binary.camf"
    binary.write_bytes(nn.WEIGHT_MAGIC + b"\xff\xfe\n")
    for name, layers in (("negconv", "Conv(-2,3,1,1)|ReLU|Flatten|Dense(3)"),
                         ("poolflat", "Conv(8,3,1,1)|Flatten|MaxPool2|Dense(3)")):
        (root / f"{name}.camf").write_bytes(
            nn.WEIGHT_MAGIC + f"input=1x16x16;layers={layers}|Softmax;classes=a,b,c\n".encode())
    (root / "stride0.spec").write_text(
        "input=1x16x16;layers=Conv(8,3,0,1)|ReLU|Flatten|Dense(3)|Softmax;classes=a,b,c\n")
    (root / "negative.pgm").write_bytes(b"P5 -4 -2 255\n")
    (root / "zero.pgm").write_bytes(b"P5 0 5 255\n")
    stale = str(root / "stale")
    assert run_cli(["synth", "--out", stale, "--n", "4", "--size", "16"]) == 0
    assert run_cli(["split", "--data", stale]) == 0
    os.remove(os.path.join(stale, "0_disk", "00001.pgm"))
    good = str(root / "good")
    assert run_cli(["synth", "--out", good, "--n", "4", "--size", "16"]) == 0
    assert run_cli(["split", "--data", good]) == 0
    mixed = str(root / "mixed")
    assert run_cli(["synth", "--out", mixed, "--n", "4", "--size", "16"]) == 0
    data.write_image(os.path.join(mixed, "1_rect", "00002.pgm"),
                     np.full((20, 20, 1), 99, dtype=np.uint8))
    assert run_cli(["split", "--data", mixed]) == 0
    (root / "huge.camf").write_bytes(
        nn.WEIGHT_MAGIC + b"input=1x4x4;layers=Conv(1,1,1,0)|Flatten|Dense(100000000000)"
        b"|Dense(3)|Softmax;classes=a,b,c\n")
    comma = str(root / "comma")
    assert run_cli(["synth", "--out", comma, "--n", "4", "--size", "16"]) == 0
    os.rename(os.path.join(comma, "1_rect"), os.path.join(comma, "1_rect,square"))
    assert run_cli(["split", "--data", comma]) == 0
    corpora = {}
    for name, n, size in (("two", 4, 16), ("four", 4, 16), ("small", 4, 8),
                          ("synth", 10, 16)):
        corpora[name] = str(root / name)
        assert run_cli(["synth", "--out", corpora[name], "--n", str(n),
                        "--size", str(size)]) == 0
    shutil.rmtree(os.path.join(corpora["two"], "2_cross"))
    shutil.copytree(os.path.join(corpora["four"], "2_cross"),
                    os.path.join(corpora["four"], "3_more"))
    for d in corpora.values():
        assert run_cli(["split", "--data", d]) == 0
    return {"root": str(root), "weights": weights, "image": image,
            "headerless": str(headerless), "binary": str(binary), "stale": stale,
            "good": good, "mixed": mixed, "comma": comma, **corpora}


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
    (["explain", "--image", "{image}", "--weights", "{root}/negconv.camf"], 2,
     "layer 0 (Conv(-2,3,1,1)): Conv needs channels, kernel and stride >= 1 and pad >= 0"),
    (["explain", "--image", "{image}", "--weights", "{root}/poolflat.camf"], 2,
     "layer 2 (MaxPool2): MaxPool2 needs a (C,H,W) input, got (2048,)"),
    (["train", "--data", "{good}", "--out", "{root}/spec_run", "--spec",
      "{root}/stride0.spec"], 2,
     "layer 0 (Conv(8,3,0,1)): Conv needs channels, kernel and stride >= 1 and pad >= 0"),
    (["explain", "--weights", "{weights}", "--image", "{root}/negative.pgm"], 2,
     "width and height must be positive, got -4x-2"),
    (["explain", "--weights", "{weights}", "--image", "{root}/zero.pgm"], 2,
     "width and height must be positive, got 0x5"),
    (["train", "--data", "{stale}", "--out", "{root}/run"], 2,
     "manifest {stale}/split.csv line 3: index 1 names 0_disk/00001.pgm (label 0), "
     "but the data directory has 0_disk/00002.pgm (label 0) there; "
     "run camnet split again"),
    (["train", "--data", "{mixed}", "--out", "{root}/mixed_run"], 2,
     "{mixed}/1_rect/00002.pgm is 20x20x1, but {mixed}/0_disk/00000.pgm is 16x16x1; "
     "every image must have the same size and channel count"),
    (["eval", "--data", "{mixed}", "--weights", "{weights}",
      "--out", "{root}/mixed_eval"], 2,
     "{mixed}/1_rect/00002.pgm is 20x20x1, but {mixed}/0_disk/00000.pgm is 16x16x1; "
     "every image must have the same size and channel count"),
    (["eval", "--data", "{good}", "--weights", "{root}/huge.camf",
      "--out", "{root}/huge_eval"], 2,
     "the spec's tensors take 16000000000108 bytes, but the file holds 0 "
     "after its header"),
    (["explain", "--weights", "{weights}", "--image", "{root}/rgb.ppm"], 2,
     "image {root}/rgb.ppm has 3 channels, but the model takes 1"),
    (["train", "--data", "{comma}", "--out", "{root}/comma_run"], 2,
     "class name '1_rect,square' holds ',', ';' or a line break, which the "
     "weight file header uses as separators"),
    (EXPLAIN[:-1] + ["--class-index", "7"], 2,
     "class index 7 is out of range for 3 classes; valid: 0..2"),
    (EXPLAIN[:-1] + ["--class-index", "-1"], 2,
     "class index -1 is out of range for 3 classes; valid: 0..2"),
    (["eval", "--data", "{good}", "--weights", "{weights}",
      "--out", "{root}/good_eval"], 2,
     "manifest {good}/split.csv has no test rows; nothing to evaluate"),
    (["eval", "--data", "{four}", "--weights", "{weights}",
      "--out", "{root}/four_eval"], 2,
     "corpus {four} has 4 classes (0_disk, 1_rect, 2_cross, 3_more), but the model "
     "{weights} has 3 (glioma, menin, tumor)"),
    (["eval", "--data", "{two}", "--weights", "{weights}",
      "--out", "{root}/two_eval"], 2,
     "corpus {two} has 2 classes (0_disk, 1_rect), but the model {weights} has 3 "
     "(glioma, menin, tumor)"),
    (["eval", "--data", "{small}", "--weights", "{weights}",
      "--out", "{root}/small_eval"], 2,
     "corpus {small} has 8x8x1 images, but the model {weights} takes 16x16x1"),
    (["eval", "--data", "{synth}", "--weights", "{weights}",
      "--out", "{root}/synth_eval"], 2,
     "corpus {synth} has classes (0_disk, 1_rect, 2_cross), but the model "
     "{weights} has (glioma, menin, tumor)"),
    (["split", "--data", "{good}", "--out", "{root}/split.csv", "--ratios", "a,b,c"], 1,
     "--ratios: expected comma-separated numbers (train,val,test), got 'a,b,c'"),
    (["split", "--data", "{good}", "--out", "{root}/split.csv", "--ratios", "0.5,0.5"], 2,
     "ratios must be three numbers in [0, 1], got (0.5, 0.5)"),
    (["split", "--data", "{good}", "--out", "{root}/split.csv", "--ratios", "inf,-inf,0"],
     2, "ratios must be three numbers in [0, 1], got (inf, -inf, 0.0)"),
    (["split", "--data", "{good}", "--out", "{root}/split.csv", "--ratios", "nan,0.5,0.5"],
     2, "ratios must be three numbers in [0, 1], got (nan, 0.5, 0.5)"),
    (["split", "--data", "{good}", "--out", "{root}/split.csv",
      "--ratios=1.5,-0.25,-0.25"], 2,
     "ratios must be three numbers in [0, 1], got (1.5, -0.25, -0.25)"),
    (["synth", "--out", "{root}/neg_size", "--n", "2", "--size", "-3"], 2,
     "image_size must be >= 1, got -3"),
    (["synth", "--out", "{root}/zero_size", "--n", "2", "--size", "0"], 2,
     "image_size must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv,code,message", BAD_INPUTS,
                         ids=[" ".join(row[0][-2:]) for row in BAD_INPUTS])
def test_bad_input_one_error_line(explain_inputs, capsys, argv, code, message):
    assert run_cli([a.format(**explain_inputs) for a in argv]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"error: {message.format(**explain_inputs)}"]


def _count_calls(monkeypatch, *names):
    """Counts of calls to each (module, name) from here on."""
    calls = {name: 0 for _, name in names}
    for module, name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def _manifest(out_dir):
    with open(os.path.join(out_dir, "run.txt")) as f:
        return dict(line.split("=", 1) for line in f.read().splitlines())


def test_explain_both_runs_one_forward_and_no_conv_backward(explain_inputs,
                                                            monkeypatch):
    calls = _count_calls(monkeypatch, (nn, "forward"), (nn, "backward"),
                         (ops, "conv2d_backward_nhwc"))
    argv = EXPLAIN[:-1] + ["--method", "both"]
    assert run_cli([a.format(**explain_inputs) for a in argv]) == 0
    # Grad-CAM and Grad-CAM++ share the one logit row J_c
    assert calls == {"forward": 1, "conv2d_backward_nhwc": 0, "backward": 1}


@pytest.mark.parametrize("score_kind,backwards", [("exp_logit", 1), ("probability", 3)])
def test_explain_gradcam_pp_backward_count(explain_inputs, monkeypatch, score_kind,
                                           backwards):
    # exp_logit needs J_c, probability one row per class (K = 3); the
    # gradient term reuses the Hessian's rows
    calls = _count_calls(monkeypatch, (nn, "forward"), (nn, "backward"))
    argv = EXPLAIN + [f"cam.score_kind={score_kind}", "--method", "gradcam_pp"]
    assert run_cli([a.format(**explain_inputs) for a in argv]) == 0
    assert calls == {"forward": 1, "backward": backwards}
    manifest = _manifest(os.path.join(explain_inputs["root"], "out"))
    assert manifest["backward_passes"] == str(backwards)
    assert float(manifest["elapsed_s"]) > 0
    assert all(key in manifest for key in ENVIRONMENT)


ENVIRONMENT = ("python", "numpy", "blas", "cpu_count", "OPENBLAS_NUM_THREADS",
               "OMP_NUM_THREADS")


def test_eval_normalizes_and_scores_only_the_test_rows(corpus, monkeypatch, tmp_path):
    _, d = corpus
    n_test = len(data.SplitManifest.read_csv(os.path.join(d, "split.csv")).test)
    spec = nn.preset("vgg-nano", data.list_directory(d).class_names, input_hw=(16, 16))
    weights = str(tmp_path / "model.camf")
    nn.save_weights(nn.build_model(spec, 0), weights)
    calls = _count_calls(monkeypatch, (data, "read_image"), (data, "minmax_normalize"),
                         (nn, "forward"))
    runs = []  # (first layer, batch rows) of each pass through the layers
    run = nn._run
    monkeypatch.setattr(nn, "_run", lambda m, x, start, *rest:
                        runs.append((start, x.shape[0])) or run(m, x, start, *rest))
    out = str(tmp_path / "eval")
    assert run_cli(["eval", "--data", d, "--weights", weights, "--out", out]) == 0
    # every file is decoded, so a bad one is still found
    assert calls == {"read_image": 30, "minmax_normalize": n_test, "forward": 0}
    # one image at a time through the conv stack, one head pass after the Flatten
    flat = spec.layers.index(nn.Flatten())
    assert runs == [(0, 1)] * n_test + [(flat + 1, n_test)]
    manifest = _manifest(out)
    assert manifest["images_scored"] == str(n_test)
    assert float(manifest["elapsed_s"]) > 0
    assert all(key in manifest for key in ENVIRONMENT)


def test_cached_parser_dispatches_to_the_current_command(explain_inputs, monkeypatch):
    argv = [a.format(**explain_inputs) for a in EXPLAIN[:-1]]
    assert run_cli(argv) == 0  # the parser is built by now
    seen = []
    monkeypatch.setattr(cli, "cmd_explain", seen.append)
    assert run_cli(argv + ["--class-index", "2"]) == 0
    assert len(seen) == 1 and seen[0].class_index == 2


def test_consecutive_calls_share_no_option_state(explain_inputs):
    base = [a.format(**explain_inputs) for a in EXPLAIN[:-3]]
    root = explain_inputs["root"]
    outs = [os.path.join(root, f"state{i}") for i in range(3)]
    assert run_cli(base + ["--out", outs[0]]) == 0
    assert run_cli(base + ["--out", outs[1], "--class-index", "2",
                           "--set", "cam.target_layer=0",
                           "--set", "cam.score_kind=exp_logit"]) == 0
    assert run_cli(base + ["--out", outs[2]]) == 0
    first, other, last = (_manifest(d) for d in outs)
    assert (other["class"], other["cam.target_layer"], other["cam.score_kind"]) == (
        "tumor", "0", "exp_logit")
    for key in ("class", "cam.target_layer", "cam.score_kind", "backward_passes"):
        assert last[key] == first[key], key
    assert first["cam.target_layer"] == "None" and first["cam.score_kind"] == "logit"


def test_traced_explain_benchmark_sees_the_explain_command():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "explain",
         "--seed", "5", "--seconds", "0.3", "--trace", "1", "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "lacks" not in proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cli.explain.self_ms"]["value"] > 0


def test_traced_train_benchmark_sees_the_eval_command():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "train",
         "--seed", "5", "--seconds", "0.3", "--trace", "1", "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "lacks" not in proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cli.eval.self_ms"]["value"] > 0


def test_traced_functions_exist_in_camnet():
    # perfbench's tracer fails a traced run on any name in its LAYERS that
    # camnet lacks; spans.py is only loaded here, its tracer never installed
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, funcs in spans.LAYERS.values():
        module = importlib.import_module(modname)
        for fname in funcs:
            owner = module
            for part in fname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{modname}.{fname}")
    assert missing == []


def test_train_ppm_corpus_builds_rgb_preset(tmp_path):
    d = str(tmp_path / "rgb")
    rng = np.random.default_rng(0)
    for cls in ("a", "b", "c"):
        os.makedirs(os.path.join(d, cls))
        for i in range(10):
            data.write_image(os.path.join(d, cls, f"{i}.ppm"),
                             rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    assert run_cli(["split", "--data", d]) == 0
    out = str(tmp_path / "run")
    assert run_cli(["train", "--data", d, "--out", out,
                    "--set", "train.epochs=1", "--set", "train.batch_size=4"]) == 0
    assert "model_spec=input=3x16x16;" in open(os.path.join(out, "run.txt")).read()
    assert run_cli(["eval", "--data", d, "--weights", os.path.join(out, "model.camf"),
                    "--out", str(tmp_path / "eval")]) == 0


def test_augment_accepts_mixed_sizes(explain_inputs, tmp_path):
    out = str(tmp_path / "aug")
    assert run_cli(["augment", "--data", explain_inputs["mixed"], "--out", out]) == 0
    assert data.read_image(os.path.join(out, "1_rect", "00002.pgm")).shape == (20, 20, 1)


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
