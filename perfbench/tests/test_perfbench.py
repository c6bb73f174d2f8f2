"""Tests of the benchmark itself, on the tiny ``--size smoke`` designs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_printed_with_unit(name):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                      "--trace", str(trace), "--size", "smoke")
        assert proc.returncode == 0, proc.stderr[-2000:]
        report_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        report = json.loads(report_line)["report"]
        assert report["fail_share"] == {"value": 0.0, "unit": "ratio"}
        assert report["facts"]["seed"] == 3 and report["facts"]["nproc"] >= 1


def _tamper_vcov(out_dir):
    path = os.path.join(out_dir, "vcov.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    cells = lines[2].rstrip("\n").split(",")
    cells[1] = repr(float(cells[1]) + 1.0)  # breaks symmetry
    lines[2] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _tamper_members(out_dir):
    path = os.path.join(out_dir, "sets.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["results"][0]["member_count"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


@pytest.mark.parametrize(
    "name, tamper, broken",
    [("wide-export", _tamper_vcov, "vcov.csv"), ("sd-cliff", _tamper_members, "sets.json")],
)
def test_corrupted_output_raises_fail_share(name, tamper, broken):
    result, report = run.run_workload(
        name, 3, seconds=0, trace=1, size="smoke", root=ROOT, tamper=tamper
    )
    per_chain = len(workloads.get(name, "smoke").commands)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // per_chain > 0
    assert report["fail_share"]["value"] == pytest.approx(1 / per_chain)
    assert {f["out"] for f in report["failures"]} == {broken}


def test_reference_mismatch_fails_at_default_seed():
    def shift_coefficient(out_dir):
        path = os.path.join(out_dir, "coeffs.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        head, value = lines[-1].rstrip("\n").rsplit(",", 1)
        lines[-1] = f"{head},{float(value) + 1e-3!r}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    seed = workloads.DEFAULT_SEEDS["wide-export"]
    result, report = run.run_workload(
        "wide-export", seed, seconds=0, trace=1, size="smoke", root=ROOT,
        tamper=shift_coefficient,
    )
    assert result["failed"] > 0
    assert all(f["out"] == "coeffs.csv" for f in report["failures"])
    assert "reference" in report["failures"][0]["errors"][0]


def test_span_self_times_reconcile_with_traced_wall():
    result, report = run.run_workload(
        "sd-cliff", 3, seconds=0, trace=1, size="smoke", root=ROOT
    )
    assert result["correct"]
    (traced_wall,) = [
        w for k, w in enumerate(report["iteration_walls_s"]) if k % 2 == 1
    ]
    with open(os.path.join(report["work_dir"], "spans-1.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    roots = [s for s in spans if s["parent"] == -1]
    assert {s["name"] for s in roots} == {"cli.run"}
    root_time = sum(s["end"] - s["start"] for s in roots)
    assert sum(s["self_s"] for s in spans) == pytest.approx(root_time, rel=1e-9)
    assert root_time <= traced_wall
    assert traced_wall - root_time <= 0.02 * traced_wall + 0.01
    assert result["metrics"]["cli.run_s"]["value"] == pytest.approx(root_time)
    assert result["metrics"]["inference.linprog_calls"]["value"] > 300  # LP fallback


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "c12-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_scales_by_kernel_and_restores_timer():
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with pace.Sampler() as clock:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            sum(j * j for j in range(200))
    outer = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 8  # ticks plus one sample before and after
    assert 1.0 <= clock.seconds + clock.in_kernel_s <= outer
    assert clock.scaled() == pytest.approx(
        clock.seconds * pace.REFERENCE_S / pace.trimmed_mean(clock.samples)
    )


def test_trimmed_mean_drops_outliers():
    assert pace.trimmed_mean([1.0] * 8 + [0.0, 100.0]) == 1.0
    assert pace.trimmed_mean([3.0]) == 3.0
