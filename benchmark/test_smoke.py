"""Smoke tests of the benchmark itself: python3 -m pytest benchmark -q

Each workload runs end to end at smoke size (tiny data and model, one epoch),
traced and untraced, and must print every metric BENCHMARK.json names with
its unit. The manifest is checked against the workload table, and the trace
coverage self-check is shown to catch an op called through a reference the
hooks could not rebind.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from hooks import REPORTED_OPS, ChainHooks, moves  # noqa: E402
from run import percentile_with_tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_manifest_matches_workloads_and_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "benchmark/run.py"]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        assert moves(m["name"]), f"no end-to-end arrow for {m['name']}"
    for op in REPORTED_OPS:
        assert f"autodiff.{op}.bwd_s" in names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["environment"]["traced"] is bool(trace)
    assert {"nproc", "python", "numpy", "blas", "commit", "dirty"} <= set(report["environment"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("short-attn-cfa", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_coverage_check_catches_an_unwrapped_reference():
    import lfked.autodiff as ad
    from lfked.autodiff import Tape, Tensor

    hidden_tanh = ad.tanh                  # held where the hooks cannot see it
    x = Tensor([0.5, -0.25], requires_grad=True)
    with ChainHooks(trace=True) as hooks:
        with Tape() as tape:
            loss = ad.mul(hidden_tanh(x), Tensor([1.0, 1.0]))
            loss = ad.cross_entropy(loss, 1)
        tape.backward(loss)
    assert hooks.counts["rules_outside_ops"] == 1
    assert hooks.coverage_errors and "3 rules" in hooks.coverage_errors[0]
    assert ad.tanh is hidden_tanh           # originals are restored on exit


def test_tail_percentile_keeps_ten_samples_above():
    samples = list(range(1, 201))
    assert percentile_with_tail(samples, 90) == (180, 90.0)
    assert percentile_with_tail(samples[:50], 90) == (40, 80.0)
    assert percentile_with_tail([3.0], 90) == (3.0, 100.0)


def test_host_speed_scales_intervals_and_leaves_out_bursts():
    from hostspeed import REF_MS, HostSpeed

    speed = HostSpeed()
    speed.starts, speed.ends = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1]
    speed.kernel_ms = [2 * REF_MS] * 3      # the host at half the reference speed
    speed.cpu_s = [0.1] * 3
    assert speed.scale(0.0, 4.0) == pytest.approx((4.0 - 0.3) / 2)
    assert speed.scale(1.2, 1.8) == pytest.approx(0.3)
    assert speed.burst_seconds(0.5, 2.5) == pytest.approx((0.2, 0.2))
