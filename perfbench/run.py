"""blockdid benchmark: seeded CLI pipelines timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload c12-sweep --seed 12 --seconds 30 --trace 0

The workload's panel CSV is generated from ``--seed`` before timing starts.
The timed part calls ``blockdid.cli.run(RunConfig(...))`` for each command of
the workload, repeating the chain while ``--seconds`` allows (at least once).
``wall_s`` is scaled to a reference machine speed by ``pace.Sampler``.
``--trace 1`` alternates untraced and traced chains and reports per-layer
metrics instead of end-to-end ones.

The last stdout line is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is a report with every metric,
the sample counts, per-command failures and the machine and library facts.

``RunConfig`` is used rather than ``main(argv)`` because the argument parser
drops ``--family`` (``sd`` silently runs as ``rm-cohort``).
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import pace  # noqa: E402
import workloads  # noqa: E402

# not scaled by pace: import time did not track the calibration kernel
SETUP_REPEATS = 7
# One BLAS thread: every workload is single-process, and on a small shared
# machine BLAS worker threads cost more run-to-run spread than they save.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
WORK_DIR_NAME = ".perfbench-work"

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import blockdid.cli\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0))\n"
    "print(blockdid.cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def source_dir(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blockdid", "cli.py")):
        raise BenchError(f"no blockdid sources under {src}")
    return src


def _child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(src):
    """Seconds until ``import blockdid.cli`` returns, each in a fresh
    interpreter, after the bytecode cache has been written."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", src],
        capture_output=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=_child_env(src), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"import blockdid.cli failed: {proc.stderr.strip()[-500:]}")
        seconds, path = proc.stdout.splitlines()[:2]
        if not os.path.abspath(path).startswith(src + os.sep):
            raise BenchError(f"blockdid imported from {path}, not from {src}")
        times.append(float(seconds))
    return times


def _blas_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # not a clone; do not report an enclosing repository
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(root, workload, seed):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_facts(),
        "env": {
            k: os.environ.get(k)
            for k in BLAS_THREAD_VARS
        },
    }


def run_chain(cli, workload, panel_path, out_dir, seed):
    """Run every command of the workload once; per-command outcome."""
    results = []
    for cmd in workload.commands:
        config = cli.RunConfig(**cmd.config_kwargs(panel_path, out_dir, seed))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.run(config)
                error = None if rc == 0 else f"returned {rc}"
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        results.append({"error": error, "warnings": sorted({str(w.message) for w in caught})})
    return results


def _percentile_report(walls):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    report = {"samples": n, "median_s": statistics.median(walls)}
    if n >= 11:
        pct = 100 * (n - 10) // n
        report[f"p{pct}_s"] = sorted(walls)[max(0, -(-pct * n // 100) - 1)]
    return report


def run_workload(name, seed, seconds, trace, size="full", root=None, tamper=None):
    """Generate, time, check.  Returns ``(result, report)``.

    ``tamper(out_dir)``, for the benchmark's own tests, may alter an
    iteration's outputs after they are written and before they are checked.
    """
    root = os.path.abspath(root or os.getcwd())
    src = source_dir(root)
    workload = workloads.get(name, size)
    setup = measure_setup(src) if not trace else []

    sys.path.insert(0, src)
    import blockdid
    import blockdid.cli as cli

    if not os.path.abspath(blockdid.__file__).startswith(src + os.sep):
        raise BenchError(f"blockdid imported from {blockdid.__file__}, not from {src}")
    import checks
    import spans as tracing

    work = os.path.join(root, WORK_DIR_NAME, f"{name}-{size}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    panel_path = os.path.join(work, "panel.csv")
    workloads.write_panel(workload, seed, panel_path)
    expect = checks.expectations(workload, panel_path)

    # one round is an untraced chain, plus a traced one under --trace 1
    kinds = (False, True) if trace else (False,)
    # untraced chains run under a pace.Sampler; their wall excludes its
    # kernel and ``scaled`` is at the kernel's reference speed
    iterations = []  # (traced, wall, command results, recorder, out dir)
    scaled = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            out_dir = os.path.join(work, f"iter-{len(iterations)}")
            os.makedirs(out_dir)
            if traced:
                recorder = tracing.Recorder()
                restore = tracing.install(recorder)
                t0 = time.perf_counter()
                try:
                    results = run_chain(cli, workload, panel_path, out_dir, seed)
                finally:
                    wall = time.perf_counter() - t0
                    restore()
            else:
                recorder = None
                with pace.Sampler() as clock:
                    results = run_chain(cli, workload, panel_path, out_dir, seed)
                wall = clock.seconds
                scaled.append(clock.scaled())
            iterations.append((traced, wall, results, recorder, out_dir))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = checks.load_reference(BENCH_DIR, name, size, seed)
    attempted = failed = 0
    failures = []
    layer_rows = []
    for k, (traced, wall, results, recorder, out_dir) in enumerate(iterations):
        if tamper is not None:
            tamper(out_dir)
        written = 0
        for i, (cmd, res) in enumerate(zip(workload.commands, results)):
            path = os.path.join(out_dir, cmd.out)
            errors = [res["error"]] if res["error"] else checks.check_output(cmd, expect[i], path)
            if not errors and reference is not None:
                try:
                    errors = checks.compare(cmd, checks.digest(cmd, path), reference[i])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors = [f"reference comparison failed: {type(exc).__name__}: {exc}"]
            if os.path.exists(path):
                written += os.path.getsize(path)
            attempted += 1
            if errors:
                failed += 1
                failures.append({"iteration": k, "out": cmd.out, "errors": errors[:5]})
        if traced:
            recorder.dump(tracing.spans_path(work, k))
            layer_rows.append(tracing.layer_metrics(recorder, written))
        shutil.rmtree(out_dir)
    os.remove(panel_path)

    untraced = [w for t, w, *_ in iterations if not t]
    traced_walls = [w for t, w, *_ in iterations if t]
    if trace:
        metrics = {
            key: statistics.median(row[key] for row in layer_rows)
            for key, _, _ in tracing.LAYER_METRICS if key != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        units = {key: unit for key, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "facts": machine_facts(root, name, seed),
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "wall": _percentile_report(scaled),
        "raw_wall": _percentile_report(untraced),
        "traced_wall": _percentile_report(traced_walls) if traced_walls else None,
        "iteration_walls_s": [w for _, w, *_ in iterations],
        "scaled_walls_s": scaled,
        "setup_samples_s": setup,
        "fail_share": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures,
        "warnings": sorted({w for it in iterations for r in it[2] for w in r["warnings"]}),
        "work_dir": work,
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    return result, report


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, help="panel and CLI seed (default: per workload)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    args = p.parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        result, report = run_workload(args.workload, seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
