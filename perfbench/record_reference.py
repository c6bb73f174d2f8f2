"""Record the reference digests that ``run.py`` compares outputs against.

Run from the root of a source checkout, at the commit whose outputs are to
become the reference:

    python3 perfbench/record_reference.py [--workload NAME ...] [--size full|smoke ...]

One chain per workload and size, at the workload's default seed.  Outputs
that fail an invariant check are not recorded.
"""

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def record(name, size, root):
    import blockdid.cli as cli
    import checks

    workload = workloads.get(name, size)
    seed = workloads.DEFAULT_SEEDS[name]
    work = os.path.join(root, run.WORK_DIR_NAME, f"reference-{name}-{size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    panel_path = os.path.join(work, "panel.csv")
    workloads.write_panel(workload, seed, panel_path)
    expect = checks.expectations(workload, panel_path)
    results = run.run_chain(cli, workload, panel_path, work, seed)
    digests = []
    for cmd, exp, res in zip(workload.commands, expect, results):
        path = os.path.join(work, cmd.out)
        errors = [res["error"]] if res["error"] else checks.check_output(cmd, exp, path)
        if errors:
            raise run.BenchError(f"{name}/{size}: {cmd.out}: {errors}")
        digests.append(checks.digest(cmd, path))
    shutil.rmtree(work)

    path = checks.reference_path(run.BENCH_DIR, name)
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    table[f"{size}:{seed}"] = digests
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {name} {size}:{seed} -> {path}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="*", default=list(workloads.NAMES),
                   choices=workloads.NAMES)
    p.add_argument("--size", nargs="*", default=list(workloads.SIZES),
                   choices=workloads.SIZES)
    args = p.parse_args(argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = os.getcwd()
    sys.path.insert(0, run.source_dir(root))
    for name in args.workload:
        for size in args.size:
            record(name, size, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
