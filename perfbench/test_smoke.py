"""Smoke test of the benchmark at tiny sizes (16x16 images, sub-second loops).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run restores every function it wraps, that traced and
untraced runs produce equal output digests, and that a failed output
check, or a function the tracer cannot find, turns into correct=false
and a non-zero exit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "explain", "explain_prob", "augment")

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    """Run perfbench/run.py of the tree at `cwd`, from `cwd`."""
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = dict(l.split(" ", 2)[1:] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digests, lines


@pytest.fixture(scope="module")
def results():
    return {(w, t): tiny(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(results, workload, trace, section):
    result, _, _ = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench_spec()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_agree(results, workload):
    _, untraced, _ = results[(workload, 0)]
    _, traced, _ = results[(workload, 1)]
    # time-bounded loops may reach different inputs; compare the shared ones
    common = untraced.keys() & traced.keys()
    assert common
    assert {k: traced[k] for k in common} == {k: untraced[k] for k in common}


def test_environment_is_recorded(results):
    _, _, lines = results[("train", 0)]
    env = dict(l[4:].split("=", 1) for l in lines if l.startswith("env."))
    for key in ("git_commit", "python", "numpy", "blas", "blas_version", "blas_threads",
                "cpu_model", "cpu_count", "keep_malloc_pages_ran"):
        assert env.get(key), key
    assert env["keep_malloc_pages_ran"] == "True"


def test_tracer_restores_every_wrapped_function():
    from spans import LAYERS, Tracer
    from camnet import cli  # noqa: F401  (imports every camnet module)

    def snapshot():
        return {(name, key): val for name, mod in sys.modules.items()
                if name == "camnet" or name.startswith("camnet.")
                for key, val in vars(mod).items() if callable(val)}

    import camnet.rng as rng
    before = snapshot()
    methods = dict(vars(rng.Rng))
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer.patches)
        wrapped = sum(len(funcs) for _, funcs in LAYERS.values())
        assert not tracer.missing
        assert len({(id(o), a) for o, a, _ in patched}) >= wrapped
        assert all(getattr(o, a) is not orig for o, a, orig in patched)
    finally:
        tracer.uninstall()
    assert snapshot() == before
    assert dict(vars(rng.Rng)) == methods


def test_all_command_prints_every_named_metric():
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "0.3", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [l.split() for l in proc.stdout.splitlines()]
    named = {(r[0], r[1]): r[3] for r in rows if len(r) >= 4}
    expected = {
        "train": {"train_images_per_s": "1/s", "eval_images_per_s": "1/s"},
        "explain": {"explain_ms_p50": "ms", "explain_ms_tail": "ms",
                    "explain_exp_ms_p50": "ms", "explain_image_ms_p50": "ms"},
        "explain_prob": {"explain_prob_ms_p50": "ms"},
        "augment": {"augment_images_per_s": "1/s"},
    }
    for workload, metrics in expected.items():
        metrics.update(setup_s="s", peak_rss_mb="MB", failed_share="share")
        for name, unit in metrics.items():
            assert named.get((workload, name)) == unit, (workload, name)


def test_failed_output_check_fails_the_run(monkeypatch):
    import run
    import workloads

    def broken(op, size):
        raise workloads.CheckError("injected")

    monkeypatch.setattr(workloads, "check_augment", broken)
    _, result = run.run_workload("augment", 5, 0.1, 0, "tiny")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_missing_traced_function_fails_the_run(monkeypatch):
    import run
    import spans

    layers = dict(spans.LAYERS)
    modname, funcs = layers["cam"]
    layers["cam"] = (modname, funcs + ("no_such_function",))
    monkeypatch.setattr(spans, "LAYERS", layers)
    _, result = run.run_workload("explain", 5, 0.1, 1, "tiny")
    assert result["correct"] is False
    assert result["failed"] == 1


def test_differing_digests_fail_the_later_call():
    import workloads

    def op(digest):
        return workloads.Op("augment", [], "", "augment", 1, None, ok=True, digest=digest)

    ops = [op("a"), op("a"), op("b")]
    workloads.check_consistency(ops)
    assert [o.ok for o in ops] == [True, True, False]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
