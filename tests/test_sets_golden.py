"""Pinned ``sets`` records of the toy example.

``data/toy_sets.json`` holds the output of ``blockdid simulate --example toy
--seed 3`` followed by ``blockdid sets --param 0:1:0.5 --framework both
--grid=-8:9:171 --bootstrap 50 --draws 500``, and ``data/toy_sets_sd.json``
that of the same run with ``--family sd --estimator csnyt --grid=-8:12:201``,
a grid of the same 0.1 step whose ends no sd set reaches (on -8:9:171 two
sets end at its top).  A run must give the same
records apart from ``runtime_ms``: every field exactly, except that an
interval endpoint may move by one grid step and the plug-in bounds and the
corrected point by 1e-9 relative, the rounding another BLAS build may give.
The top-level ``config_hash`` covers the input's resolved path (one file
gives one hash, however its path is spelled), and that path differs from
one checkout or temporary directory to the next, so it is not compared.

``python tests/test_sets_golden.py SETS.json [PINNED.json]`` compares a
``sets`` output with a pinned one (``data/toy_sets.json`` by default) and
exits 1 when they differ.
"""

import json
import math
import sys
import warnings
from pathlib import Path

PINNED = Path(__file__).parent / "data" / "toy_sets.json"
RUN_ARGS = ["--param", "0:1:0.5", "--framework", "both", "--bootstrap", "50", "--draws", "500"]
SETS_ARGS = [*RUN_ARGS, "--grid=-8:9:171"]
PINNED_SD = PINNED.with_name("toy_sets_sd.json")
SD_ARGS = [*RUN_ARGS, "--family", "sd", "--estimator", "csnyt", "--grid=-8:12:201"]


def differences(got, want):
    """The differences between two ``sets`` outputs, one line each."""
    if got["version"] != want["version"]:
        return [f"version {got['version']!r}, pinned {want['version']!r}"]
    if len(got["results"]) != len(want["results"]):
        return [f"{len(got['results'])} records, pinned {len(want['results'])}"]
    found = []
    for n, (a, b) in enumerate(zip(got["results"], want["results"])):
        if a.keys() != b.keys():
            found.append(f"record {n}: fields {sorted(a)}, pinned {sorted(b)}")
            continue
        grid = b["grid"]
        step = (grid["hi"] - grid["lo"]) / (grid["n"] - 1)
        for key in sorted(b.keys() - {"runtime_ms"}):
            x, y = a[key], b[key]
            if key == "intervals":
                same = len(x) == len(y) and all(
                    abs(p - q) <= step * (1.0 + 1e-9)
                    for xi, yi in zip(x, y)
                    for p, q in zip(xi, yi)
                )
            elif key in ("plugin_bounds", "corrected_point"):
                xs, ys = (v if isinstance(v, list) else [v] for v in (x, y))
                same = len(xs) == len(ys) and all(
                    math.isclose(p, q, rel_tol=1e-9) for p, q in zip(xs, ys)
                )
            else:
                same = x == y
            if not same:
                found.append(f"record {n} {key}: {x!r}, pinned {y!r}")
    return found


def _toy_sets(tmp_path, sets_args):
    """The ``sets`` output of the toy panel with ``sets_args``."""
    from blockdid.cli import main

    toy, out = tmp_path / "toy.csv", tmp_path / "sets.json"
    assert main(["simulate", "--example", "toy", "--seed", "3", "--out", str(toy)]) == 0
    args = ["sets", "--input", str(toy), *sets_args, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton strata of the toy panel
        assert main(args) == 0
    return json.loads(out.read_text())


def test_sets_records_match_the_pinned_toy_records(tmp_path):
    got = _toy_sets(tmp_path, SETS_ARGS)
    assert differences(got, json.loads(PINNED.read_text())) == []


def test_sd_sets_records_match_the_pinned_toy_records(tmp_path):
    got = _toy_sets(tmp_path, SD_ARGS)
    assert differences(got, json.loads(PINNED_SD.read_text())) == []


def test_the_comparison_flags_what_its_tolerances_do_not_cover():
    want = json.loads(PINNED.read_text())
    step = 0.1  # the pinned grid's
    moved = json.loads(PINNED.read_text())
    moved["results"][0]["runtime_ms"] += 1.0
    moved["results"][0]["intervals"][0][0] += 0.9 * step
    moved["results"][1]["plugin_bounds"][1] *= 1.0 + 1e-12
    assert differences(moved, want) == []
    moved["results"][2]["intervals"][0][1] += 1.5 * step
    moved["results"][3]["member_count"] += 1
    moved["results"][4]["plugin_bounds"][0] *= 1.0 + 1e-6
    moved["results"][5]["intervals"].append([8.0, 9.0])
    flagged = differences(moved, want)
    assert [line.split(":")[0] for line in flagged] == [
        "record 2 intervals", "record 3 member_count",
        "record 4 plugin_bounds", "record 5 intervals",
    ]


if __name__ == "__main__":
    got = json.loads(Path(sys.argv[1]).read_text())
    pinned = Path(sys.argv[2]) if len(sys.argv) > 2 else PINNED
    problems = differences(got, json.loads(pinned.read_text()))
    print("\n".join(problems) or "records match the pinned ones")
    sys.exit(1 if problems else 0)
