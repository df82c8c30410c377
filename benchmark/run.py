"""Benchmark of the lfked user chain: synth -> gen-data -> train -> checkpoint -> score.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload short-attn-cfa --seed 0 --seconds 25 --trace 0

Workloads are defined in workloads.py and listed in BENCHMARK.json. One run
works in a single process, sequentially, with BLAS on one thread.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. The run sets up
(to the first training step) SETUP_REPEATS times or more and reports the median,
runs the chain once at the workload's fixed epoch budget, and then keeps
scoring the reloaded checkpoint while another pass fits in --seconds from
the start of set-up, which only adds samples to eval_examples_per_s.

--trace 1 runs the chain untraced, then again under the per-layer trace,
checks that both give the same test F1 and checkpoint bytes, and prints the
per-layer metrics of BENCHMARK.json. Traced minus untraced pipeline time is
trace.overhead_s.

Every run checks its outputs; any failed check makes "correct" false and the
exit code 1. The last line of standard output is the result object; the line
before it is a report with the environment, sample counts and checks. The
report, the span trace and the chain's logs are kept in .bench_out/ in the
checkout; generated data and checkpoints are deleted at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 8          # set-ups at least, plus the chain's own
SETUP_MIN_S = 3.0          # more set-ups, up to SETUP_MAX, until they took this long
SETUP_MAX = 40
RELOAD_SAMPLE = 32         # examples whose logits must survive the checkpoint
NOTES = [
    "single process, single-threaded Python with no queues: no layer waits "
    "on another, so there is no wait time to report",
    "word2vec-baseline training, --finetune-words and gradcheck are not measured",
    "data seeds are fixed at synth 3 / gen-data 7; --seed is the train seed",
]


def single_thread_blas() -> int:
    """Run BLAS on one thread; must run before numpy loads. Returns nproc.

    The program's matrices are small: a second BLAS thread saves no step time
    but stalls every BLAS call while another process holds the second core,
    which doubled step time in a probe on 2 cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import lfked from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "lfked" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no lfked package under {src}")
    sys.path.insert(0, str(src))
    import lfked
    import lfked.cli  # noqa: F401

    if Path(lfked.__file__).resolve().parent != (src / "lfked").resolve():
        raise SystemExit(f"benchmark: imported lfked from {lfked.__file__}, not {src}")


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "blas" in line.lower() and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def git_info() -> dict:
    import subprocess

    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment(nproc: int, traced: bool) -> dict:
    import platform

    import numpy as np

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        **git_info(),
        "traced": traced,
    }


def percentile_with_tail(samples, pct: float, tail: int = 10):
    """Nearest-rank percentile, lowered until at least `tail` samples lie above it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, -(-n * pct // 100))             # ceil(n * pct / 100)
    rank = int(min(rank, max(n - tail, (n + 1) // 2)))
    return ordered[rank - 1], 100.0 * rank / n


def check(checks: list, name: str, ok: bool, detail: str = ""):
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def reload_check(checks, hooks_saved, score_examples, seed):
    """The saved checkpoint reloads to bitwise-identical logits on a sample."""
    import numpy as np
    from lfked.checkpoint import load_checkpoint

    model, path = hooks_saved[-1]
    reloaded = load_checkpoint(path)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(score_examples), size=min(RELOAD_SAMPLE, len(score_examples)),
                       replace=False)
    same = all(np.array_equal(model.forward(score_examples[i]).data,
                              reloaded.forward(score_examples[i]).data) for i in picks)
    check(checks, "checkpoint_reload_logits", same,
          f"{len(picks)} sampled examples of {len(score_examples)}")
    return reloaded


def chain_checks(checks, w, seed, hooks, result, score_examples, smoke):
    from workloads import C07_SEED

    check(checks, "losses_finite", hooks.nonfinite_steps == 0,
          f"{hooks.nonfinite_steps} non-finite of {len(hooks.step_ms)} steps")
    check(checks, "eval_counts", not hooks.errors, "; ".join(hooks.errors[:3]))
    if smoke:
        return
    if w.min_test_f1 is not None and seed == C07_SEED:
        check(checks, "test_f1_c07_level", result.test_f1 >= w.min_test_f1,
              f"test F1 {result.test_f1:.4f} at seed {seed}, need >= {w.min_test_f1}")
    if w.beats_all_positive:
        pos = sum(ex.label for ex in score_examples)
        all_positive = 2 * pos / (len(score_examples) + pos)
        check(checks, "test_f1_beats_all_positive", result.test_f1 > all_positive,
              f"test F1 {result.test_f1:.4f}, all-positive F1 {all_positive:.4f}")


def run_untraced(w, seed, seconds, work, smoke):
    from hooks import ChainHooks
    from hostspeed import HostSpeed
    from lfked.corpus import load_dataset
    import lfked.metrics
    from workloads import measure_setup, run_chain

    checks = []
    started = time.perf_counter()
    speed = HostSpeed()
    setup = []                  # (start, end) of each set-up
    while not setup or not smoke and (
            len(setup) < SETUP_REPEATS
            or len(setup) < SETUP_MAX and time.perf_counter() - started < SETUP_MIN_S):
        with ChainHooks(stop_at_first_step=True, speed=speed) as hooks:
            setup.append(measure_setup(w, seed, work / "setup", smoke, hooks))
    with ChainHooks(speed=speed) as hooks:
        result = run_chain(w, seed, work / "chain", smoke)
        setup.append((result.started, hooks.first_step_at))
        score_examples = load_dataset(result.score_set)
        chain_checks(checks, w, seed, hooks, result, score_examples, smoke)
        reloaded = reload_check(checks, hooks.saved, score_examples, seed)
        fill_passes, last_pass = 0, 0.0
        while time.perf_counter() - started + last_pass < seconds:
            pass_start = time.perf_counter()
            lfked.metrics.evaluate(reloaded, score_examples)
            last_pass = time.perf_counter() - pass_start
            fill_passes += 1

    # every time is scaled to the reference host speed (hostspeed.py);
    # the report keeps the unscaled values
    setup_s = [speed.scale(a, b) for a, b in setup]
    step_ms = [speed.scale(t, t + ms / 1e3) * 1e3
               for t, ms in zip(hooks.step_at, hooks.step_ms)]
    eval_s = sum(speed.scale(a, b) for a, b in hooks.eval_windows)
    pipeline_s = speed.scale(result.started, result.ended)
    burst_wall, burst_cpu = speed.burst_seconds(result.started, result.ended)
    cpu_s = (result.cpu_s - burst_cpu) * pipeline_s / (result.pipeline_s - burst_wall)
    step_p90, p90_at = percentile_with_tail(step_ms, 90)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "train_step_ms.p50": statistics.median(step_ms),
        "train_step_ms.p90": step_p90,
        "train_examples_per_s": sum(hooks.step_examples) / (sum(step_ms) / 1e3),
        "eval_examples_per_s": hooks.eval_examples / eval_s,
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_f1": result.test_f1,
    }
    raw_p90, _ = percentile_with_tail(hooks.step_ms, 90)
    unscaled = {
        "setup_s": statistics.median(b - a for a, b in setup),
        "train_step_ms.p50": statistics.median(hooks.step_ms),
        "train_step_ms.p90": raw_p90,
        "train_examples_per_s": sum(hooks.step_examples) / (sum(hooks.step_ms) / 1e3),
        "eval_examples_per_s": hooks.eval_examples / (
            hooks.eval_seconds - sum(speed.burst_seconds(a, b)[0]
                                     for a, b in hooks.eval_windows)),
        "pipeline_s": result.pipeline_s - burst_wall,
        "cpu_s": result.cpu_s - burst_cpu,
    }
    attempted = len(hooks.step_ms) + hooks.eval_examples + hooks.eval_failed
    failed = hooks.nonfinite_steps + hooks.eval_failed
    metrics["ok_ratio"] = 1.0 - failed / attempted
    samples = {
        "unscaled": unscaled,
        "host_speed": speed.summary(),
        "setup_s": setup_s,
        "train_steps": len(hooks.step_ms),
        "train_step_ms.p90_is_percentile": p90_at,
        "eval_examples": hooks.eval_examples,
        "fill_passes": fill_passes,
        "step_ms": step_ms,
        "checkpoint_sha256": result.checkpoint_sha256,
        "stages_s": result.stages_s,
    }
    return checks, metrics, attempted, failed, samples


def run_traced(w, seed, work, smoke):
    from hooks import ChainHooks, layer_metrics, write_spans
    from lfked.corpus import load_dataset
    from workloads import run_chain

    checks = []
    with ChainHooks():
        reference = run_chain(w, seed, work / "chain", smoke)
    with ChainHooks(trace=True) as hooks:
        result = run_chain(w, seed, work / "chain", smoke)
    score_examples = load_dataset(result.score_set)
    chain_checks(checks, w, seed, hooks, result, score_examples, smoke)
    reload_check(checks, hooks.saved, score_examples, seed)
    check(checks, "trace_coverage",
          hooks.counts["rules_outside_ops"] == 0 and not hooks.coverage_errors,
          "; ".join(hooks.coverage_errors[:3])
          or f"per-op rules sum to len(tape) on all {len(hooks.rules_per_step)} steps")
    check(checks, "trace_same_test_f1", result.test_f1 == reference.test_f1,
          f"traced {result.test_f1!r}, untraced {reference.test_f1!r}")
    check(checks, "trace_same_checkpoint",
          result.checkpoint_sha256 == reference.checkpoint_sha256,
          f"traced {result.checkpoint_sha256[:12]}, untraced {reference.checkpoint_sha256[:12]}")

    model = hooks.saved[-1][0]
    conv_passes = len(model.config.windows) * model.config.layers
    metrics = layer_metrics(hooks, conv_passes)
    metrics["checkpoint.bytes"] = result.checkpoint_bytes
    metrics["trace.overhead_s"] = result.pipeline_s - reference.pipeline_s
    attempted = len(hooks.step_ms) + hooks.eval_examples + hooks.eval_failed
    failed = hooks.nonfinite_steps + hooks.eval_failed
    trace_file = write_spans(hooks, work / "trace_spans.jsonl")
    samples = {
        "untraced_pipeline_s": reference.pipeline_s,
        "traced_pipeline_s": result.pipeline_s,
        "spans": len(hooks.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return checks, metrics, attempted, failed, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="train seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of an untraced run; the chain always runs whole")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and model, one epoch: a fast end-to-end check")
    args = parser.parse_args(argv)

    nproc = single_thread_blas()
    manifest_path = ROOT / "BENCHMARK.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hooks import moves
    from workloads import WORKLOADS, ChainError, fresh_dir, tidy

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = fresh_dir(ROOT / ".bench_out" / tag)

    env = environment(nproc, bool(args.trace))
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            checks, values, attempted, failed, samples = run_traced(
                w, args.seed, work, args.smoke)
        else:
            checks, values, attempted, failed, samples = run_untraced(
                w, args.seed, args.seconds, work, args.smoke)
    except ChainError as e:
        # e.g. a non-finite loss stops training; the whole chain counts as failed
        print(f"CHAIN FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    check(checks, "all_metrics_present", not missing, ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = all(c["ok"] for c in checks)

    report = {
        "workload": w.name, "why": w.why, "seed": args.seed, "smoke": args.smoke,
        "environment": env, "samples": samples, "checks": checks, "notes": NOTES,
    }
    if args.trace:
        report["moves"] = {m["name"]: moves(m["name"]) for m in wanted}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    tidy(work)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    for c in checks:
        if not c["ok"]:
            print(f"CHECK FAILED {c['check']}: {c['detail']}")
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
