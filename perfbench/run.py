"""camnet benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is train, explain, explain_prob or augment.  Run from the repository
root; camnet is imported unmodified from ./src.  A single-workload run sets
its inputs up once, warms up with one small call of each kind, then runs
the workload's closed loop for --seconds and checks every output.  Six
more set-ups are spread over the loop, between calls and inside its
seconds, so that the reported median setup_s samples the same period as
the calls do.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every cycle twice,
once with every layer's public functions wrapped (see spans.py) and once
untraced, prints the per-layer metrics and the tracing overhead, checks
that traced and untraced outputs agree, and writes the spans to
.perfbench_work/spans-<workload>.npz.

Stdout: `env.*` lines, `metric <name> <value> <unit> (<note>)` lines
under the workload-specific names of perfbench/README.md, `digest` lines, then one JSON
object as the last line.  A failed call or output check makes
`correct` false and the exit code 1; so does a traced run in which a
function the tracer should wrap is missing.  `--workload all` runs each
workload in a fresh interpreter (camnet's malloc tuning is process-wide),
prints all their metrics, and exits 1 if any workload failed.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 7

sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "images_per_s": "1/s",
                    "call_ms_p50": "ms"}
OPS = ("conv2d_nhwc", "conv2d_backward_nhwc", "maxpool2_nhwc", "maxpool2_backward_nhwc",
       "relu", "relu_backward", "dense", "dense_backward", "softmax")


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    u = {}
    for f in OPS:
        u[f"ops.{f}.calls"] = "count"
        u[f"ops.{f}.ms"] = "ms"
    u["ops.conv.computed_gflop_per_step"] = "GFLOP"
    u["ops.conv.computed_im2col_mb_per_step"] = "MB"
    for f in ("forward", "backward"):
        u[f"model.{f}.calls"] = "count"
        u[f"model.{f}.ms"] = "ms"
        u[f"model.{f}.self_ms"] = "ms"
    u["model.forward_from.calls"] = "count"
    u["model.forward_from.ms"] = "ms"
    u["model.forward_from.per_explain"] = "count"
    for f in ("build_model", "load_weights", "save_weights"):
        u[f"model.{f}.ms"] = "ms"
    for name in ("step.ms_p50", "first_step.ms", "optimizer_step.ms", "sparse_ce.ms",
                 "evaluate.ms", "train.self_ms"):
        u[f"optim.{name}"] = "ms"
    for f in ("gradcam", "gradcam_pp", "hessian_diag", "render_overlay"):
        u[f"cam.{f}.ms"] = "ms"
    u["cam.grad_wrt_activations.calls"] = "count"
    u["cam.forward_per_explain"] = "count"
    u["cam.backward_per_explain"] = "count"
    for f in ("load_directory", "read_image", "write_image", "augment_chain",
              "rotate_bilinear", "resize_bilinear", "bilinear_resample"):
        u[f"data.{f}.ms"] = "ms"
    for f in ("uniform_block", "normal_block"):
        u[f"rng.Rng.{f}.calls"] = "count"
        u[f"rng.Rng.{f}.ms"] = "ms"
    for c in ("train", "eval", "explain", "augment"):
        u[f"cli.{c}.self_ms"] = "ms"
    u["trace.wall_ms"] = "ms"
    u["trace.uncovered_ms"] = "ms"
    u["trace.overhead_ms"] = "ms"
    return u


# ---------------------------------------------------------------------------
# environment

def _git_commit():
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "camnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _blas():
    """(name, version, threads) of the BLAS numpy loaded."""
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name, version, threads = info.get("name", "?"), info.get("version", "?"), "?"
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return name, version, threads


def environment():
    import numpy as np
    cpu = "?"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "?")
    except OSError:
        pass
    name, version, threads = _blas()
    tuning = sys.modules.get("camnet.tuning")
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "keep_malloc_pages_ran": bool(getattr(tuning, "_done", False)),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a trace

def layer_metrics(tracer, ops, cycles):
    """Per-layer metrics of a traced run; `ops` holds both passes."""
    s = tracer.summary()
    traced = [o for o in ops if o.traced]
    untraced = [o for o in ops if not o.traced]

    def get(q, key="ms"):
        return s.get(q, {}).get(key, 0)

    def per_cycle(v):
        return v / cycles

    m = {}
    for f in OPS:
        m[f"ops.{f}.calls"] = per_cycle(get(f"ops.{f}", "calls"))
        m[f"ops.{f}.ms"] = per_cycle(get(f"ops.{f}"))

    # steps of the timed calls; the warm-up's (op id -1) holds the process's
    # first step, reported as first_step.ms
    all_steps = tracer.training_steps()
    steps = [st for st in all_steps if st[1] >= 0]
    flop = nbytes = 0
    for i, (f_, b_) in tracer.work.items():
        if tracer.span_op[i] >= 0 and tracer.in_training_step(i):
            flop += f_
            nbytes += b_
    m["ops.conv.computed_gflop_per_step"] = flop / 1e9 / len(steps) if steps else 0
    m["ops.conv.computed_im2col_mb_per_step"] = nbytes / 1e6 / len(steps) if steps else 0

    for f in ("forward", "backward"):
        for key in ("calls", "ms", "self_ms"):
            m[f"model.{f}.{key}"] = per_cycle(get(f"model.{f}", key))
    m["model.forward_from.calls"] = per_cycle(get("model.forward_from", "calls"))
    m["model.forward_from.ms"] = per_cycle(get("model.forward_from"))
    for f in ("build_model", "load_weights", "save_weights"):
        m[f"model.{f}.ms"] = per_cycle(get(f"model.{f}"))

    # step.ms_p50 leaves out the first step of each train call
    firsts = {}
    for train_span, _, t0, t1 in steps:
        firsts.setdefault(train_span, (t0, t1))
    later = [1e3 * (t1 - t0) for span, _, t0, t1 in steps if firsts[span] != (t0, t1)]
    m["optim.step.ms_p50"] = statistics.median(later) if later else 0
    m["optim.first_step.ms"] = 1e3 * (all_steps[0][3] - all_steps[0][2]) if all_steps else 0
    for f in ("optimizer_step", "sparse_ce", "evaluate"):
        m[f"optim.{f}.ms"] = per_cycle(get(f"optim.{f}"))
    m["optim.train.self_ms"] = per_cycle(get("optim.train", "self_ms"))

    for f in ("gradcam", "gradcam_pp", "hessian_diag", "render_overlay"):
        m[f"cam.{f}.ms"] = per_cycle(get(f"cam.{f}"))
    m["cam.grad_wrt_activations.calls"] = per_cycle(get("cam.grad_wrt_activations", "calls"))
    fwd, bwd, fwd_from = explain_pass_counts(tracer, ops)
    m["cam.forward_per_explain"] = fwd
    m["cam.backward_per_explain"] = bwd
    m["model.forward_from.per_explain"] = fwd_from

    for f in ("load_directory", "read_image", "write_image", "augment_chain",
              "rotate_bilinear", "resize_bilinear", "bilinear_resample"):
        m[f"data.{f}.ms"] = per_cycle(get(f"data.{f}"))
    for f in ("uniform_block", "normal_block"):
        m[f"rng.Rng.{f}.calls"] = per_cycle(get(f"rng.Rng.{f}", "calls"))
        m[f"rng.Rng.{f}.ms"] = per_cycle(get(f"rng.Rng.{f}"))
    for c in ("train", "eval", "explain", "augment"):
        m[f"cli.{c}.self_ms"] = per_cycle(get(f"cli.{c}", "self_ms"))

    traced_wall = sum(o.wall for o in traced)
    m["trace.wall_ms"] = per_cycle(1e3 * traced_wall)
    m["trace.uncovered_ms"] = per_cycle(1e3 * (traced_wall - tracer.top_level_seconds()))
    m["trace.overhead_ms"] = per_cycle(1e3 * (traced_wall - sum(o.wall for o in untraced)))
    return m


def explain_pass_counts(tracer, ops):
    """(model.forward, model.backward, model.forward_from) calls per traced
    explained image: for each call kind the median over its calls, summed
    over the kinds; (0, 0, 0) without any explain call."""
    per_op = {}
    for name, slot in (("model.forward", 0), ("model.backward", 1),
                       ("model.forward_from", 2)):
        for i in tracer.spans_named(name):
            op = tracer.span_op[i]
            if op >= 0:
                per_op.setdefault(op, [0, 0, 0])[slot] += 1
    counts = [0, 0, 0]
    for kind in ("both", "exp", "prob"):
        rows = [per_op.get(i, (0, 0, 0)) for i, o in enumerate(ops)
                if o.traced and o.kind == kind]
        for j in range(3):
            counts[j] += statistics.median(r[j] for r in rows) if rows else 0
    return tuple(counts)


# ---------------------------------------------------------------------------
# one workload

def run_workload(name, seed, seconds, trace, scale):
    workload = workloads.WORKLOADS[name]
    root = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        return _run_workload(workload, root, seed, seconds, trace, scale)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_workload(workload, root, seed, seconds, trace, scale):
    setup_times = []

    def set_up():
        ctx = workloads.Context(os.path.join(root, f"setup{len(setup_times)}"),
                                workloads.SCALES[scale], seed)
        t0 = time.perf_counter()
        workload.setup(ctx)
        setup_times.append(time.perf_counter() - t0)
        return ctx

    def between(elapsed):
        """One more set-up, timed and discarded, once the loop has passed
        the next 1/SETUP_REPS of `seconds`; at most one per call."""
        if len(setup_times) < SETUP_REPS and elapsed >= len(setup_times) * seconds / SETUP_REPS:
            shutil.rmtree(set_up().root)

    ctx = set_up()
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        warm = [workloads.run_op(op) for op in workload.warmup(ctx, os.path.join(root, "warm"))]
    finally:
        if tracer is not None:
            tracer.uninstall()
    t0 = time.perf_counter()
    ops, cycles = workloads.run_loop(workload, ctx, seconds, os.path.join(root, "run"),
                                     between, tracer)
    loop_wall = time.perf_counter() - t0
    while len(setup_times) < SETUP_REPS:  # loops that end before their last set-up
        between(float("inf"))
    workloads.check_consistency(warm + ops)

    failed = sum(not o.ok for o in warm + ops)
    attempted = len(warm) + len(ops)
    lines = [f"env.{k}={v}" for k, v in environment().items()]
    if trace:
        # a function the tracer cannot wrap would report its metrics as 0
        attempted += 1
        if tracer.missing:
            failed += 1
            print(f"failed trace: camnet lacks {', '.join(tracer.missing)}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)

    lines.append(f"run workload={workload.name} scale={scale} seed={seed} seconds={seconds} "
                 f"trace={trace} cycles={cycles} calls={len(ops)} loop_s={loop_wall:.3f} "
                 f"setup_reps={' '.join(f'{t:.4f}' for t in setup_times)}")
    metrics = {}
    if failed == 0:
        # named metrics come from untraced calls
        images_per_s, call_ms_p50, named = workload.metrics([o for o in ops if not o.traced])
        named = {"setup_s": (setup_s, "s", f"median of {SETUP_REPS}"),
                 "peak_rss_mb": (peak_rss_mb, "MB", "process high-water mark"),
                 **named}
        if trace:
            units = per_layer_units()
            layer = layer_metrics(tracer, ops, cycles)
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
            spans_path = os.path.join(WORK, f"spans-{workload.name}.npz")
            tracer.dump(spans_path)
            lines.append(f"spans {os.path.relpath(spans_path, ROOT)} "
                         f"({len(tracer.span_name)} spans)")
        else:
            end_to_end = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                          "images_per_s": images_per_s, "call_ms_p50": call_ms_p50}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items()}
        for key, (value, unit, note) in named.items():
            lines.append(f"metric {key} {value!r} {unit} ({note})")
    lines.append(f"metric failed_share {failed / attempted!r} share "
                 f"({failed} failed of {attempted} attempted)")
    good = [o for o in warm + ops if o.ok]
    for key in sorted({o.key for o in good}):
        lines.append(f"digest {key} {next(o.digest for o in good if o.key == key)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


# ---------------------------------------------------------------------------
# all workloads

def run_all(args):
    failed = False
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        try:
            result = json.loads(out[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        ok = proc.returncode == 0 and result.get("correct") is True
        failed |= not ok
        for line in out:
            if line.startswith("metric "):
                _, key, value, unit, *note = line.split(" ", 4)
                rows.append((name, key, value, unit, note[0] if note else ""))
        rows.append((name, "correct", str(ok), "", f"exit code {proc.returncode}"))
    width = max(len(r[1]) for r in rows)
    for name, key, value, unit, note in rows:
        print(f"{name:8s} {key:{width}s} {value:>24s} {unit:5s} {note}")
    print("all output checks passed" if not failed else "OUTPUT CHECKS FAILED")
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="16x16 images and a handful of calls (for the smoke test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "camnet", "cli.py")):
        print(f"error: camnet sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                 "tiny" if args.tiny else "full")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
