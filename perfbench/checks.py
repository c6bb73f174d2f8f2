"""Output checks: invariants any correct implementation satisfies, plus a
comparison with reference digests recorded for the default seeds.

Every check belongs to the CLI command whose output it reads; a command
fails when it raises, returns nonzero, or any of its checks fails.

Reference rules (``compare``):

* set records: same record order, family, member count and number of
  intervals; every interval endpoint within one grid step of the reference
  (a borderline grid point may flip under float reordering, an interior one
  may not); grid ends, plug-in bounds and corrected point within
  ``1e-6 * (1 + |ref|)``;
* coefficients: every value within ``1e-9 * (1 + max |ref|)``;
* vcov: shape equal; diagonal and row sums within ``1e-8 * max diag``;
* ``W^-1``: shape equal; row sums within ``1e-9 * (1 + |ref|)``.
"""

import json
import os

import numpy as np

from blockdid.biasmap import build_w_csnyt, build_w_imputation
from blockdid.estimators import aggregate, estimate
from blockdid.inference import aggregated_system
from blockdid.panel import build_cell_index, build_layout, load_panel
from blockdid.restrictions import rm_cohort, rm_global, sd

_FAMILIES = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
_W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}


def expectations(workload, panel_path):
    """What the library builds for each command, computed before timing."""
    panel = load_panel(panel_path)
    layout = build_layout(panel)
    out = []
    for cmd in workload.commands:
        f = cmd.fields
        est = f.get("estimator", "imputation")
        cells = build_cell_index(layout, panel.n_periods, est)
        exp = {"n_coeffs": len(cells.value_positions)}
        if f["command"] == "sets":
            frameworks = (
                ["cohort", "aggregated"] if f["framework"] == "both" else [f["framework"]]
            )
            members = {}
            for fw in frameworks:
                lay, cel = layout, cells
                if fw == "aggregated":
                    agg = aggregate(estimate(panel, est), layout)
                    lay, cel, _, _ = aggregated_system(agg)
                for p in f["params"]:
                    members[f"{fw}:{p}"] = _FAMILIES[f["family"]](lay, cel, p).member_count
            exp.update(frameworks=frameworks, members=members)
        if f["command"] == "biasmap":
            exp["W"] = _W_BUILDERS[est](layout, cells).W
            exp["labels"] = list(cells.labels())
        out.append(exp)
    return out


# --- reading outputs --------------------------------------------------------


def _read_records(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def _read_matrix(path, labelled_rows):
    lines = _data_lines(path)
    header = lines[0].rstrip("\n").split(",")
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    if labelled_rows:
        header = header[1:]
        rows = [r[1:] for r in rows]
    return header, np.array(rows, dtype=float).reshape(len(rows), -1)


# --- digests: the parts of each output the reference pins ------------------


def digest(cmd, path):
    kind = cmd.fields["command"]
    if kind == "sets":
        return [
            {
                k: r[k]
                for k in (
                    "framework", "family", "parameter", "member_count", "grid",
                    "intervals", "plugin_bounds", "corrected_point",
                )
            }
            for r in _read_records(path)
        ]
    if kind == "estimate":
        lines = _data_lines(path)[1:]
        return {"values": [float(line.rsplit(",", 1)[1]) for line in lines]}
    if kind == "vcov":
        _, V = _read_matrix(path, labelled_rows=False)
        return {"shape": list(V.shape), "diag": np.diag(V).tolist(),
                "row_sums": V.sum(axis=1).tolist()}
    if kind == "biasmap":
        _, M = _read_matrix(path, labelled_rows=True)
        return {"shape": list(M.shape), "row_sums": M.sum(axis=1).tolist()}
    raise ValueError(f"no digest for command {kind!r}")


# --- invariants ---------------------------------------------------------------


def _check_sets(f, exp, path):
    errors = []
    records = _read_records(path)
    want = len(f["params"]) * len(exp["frameworks"])
    if len(records) != want:
        return [f"{len(records)} set records, expected {want}"]
    by_fw = {}
    for r in records:
        key = f"{r['framework']}:{r['parameter']}"
        if r["family"] != f["family"]:
            errors.append(f"{key}: family {r['family']!r}, requested {f['family']!r}")
        if r["member_count"] != exp["members"].get(key):
            errors.append(
                f"{key}: member_count {r['member_count']}, library builds "
                f"{exp['members'].get(key)}"
            )
        g = r["grid"]
        step = (g["hi"] - g["lo"]) / (g["n"] - 1)
        ivs = r["intervals"]
        if not ivs:
            errors.append(f"{key}: empty confidence set")
            continue
        for b in r["plugin_bounds"]:
            if not any(lo - step <= b <= hi + step for lo, hi in ivs):
                errors.append(f"{key}: plug-in bound {b} outside the confidence set")
        if f.get("grid") is not None and (ivs[0][0] <= g["lo"] or ivs[-1][1] >= g["hi"]):
            errors.append(f"{key}: confidence set touches the grid boundary")
        by_fw.setdefault(r["framework"], []).append((r["parameter"], ivs))
    for fw, sets in by_fw.items():
        sets.sort()
        for (p0, small), (p1, big) in zip(sets, sets[1:]):
            if not all(
                any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in big)
                for lo, hi in small
            ):
                errors.append(f"{fw}: set at {p0} not nested in set at {p1}")
    return errors


def _check_estimate(f, exp, path):
    n = len(_data_lines(path)) - 1
    return [] if n == exp["n_coeffs"] else [f"{n} coefficient rows, expected {exp['n_coeffs']}"]


def _check_vcov(f, exp, path):
    labels, V = _read_matrix(path, labelled_rows=False)
    n = exp["n_coeffs"]
    if V.shape != (n, n) or len(labels) != n:
        return [f"vcov is {V.shape} with {len(labels)} labels, expected ({n}, {n})"]
    errors = []
    scale = max(float(np.abs(V).max()), 1e-300)
    if np.abs(V - V.T).max() > 1e-12 * scale:
        errors.append("vcov is not symmetric")
    if np.diag(V).min() < 0:
        errors.append("vcov has a negative variance")
    return errors


def _check_biasmap(f, exp, path):
    labels, M = _read_matrix(path, labelled_rows=True)
    W = exp["W"]
    if M.shape != W.shape or labels != exp["labels"]:
        return [f"W^-1 is {M.shape}, expected {W.shape} with the library's cell labels"]
    resid = np.abs(W @ M - np.eye(len(W))).sum(axis=1).max()
    return [] if resid <= 1e-9 else [f"||W W^-1 - I||_inf = {resid:.3e}"]


_CHECKS = {
    "sets": _check_sets,
    "estimate": _check_estimate,
    "vcov": _check_vcov,
    "biasmap": _check_biasmap,
}


def check_output(cmd, exp, path):
    """Invariant violations of one command's output (empty when it is fine)."""
    if not os.path.exists(path):
        return [f"{cmd.out} was not written"]
    try:
        return _CHECKS[cmd.fields["command"]](cmd.fields, exp, path)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd.out} unreadable: {type(exc).__name__}: {exc}"]


# --- reference comparison -----------------------------------------------------


def _close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def _compare_sets(got, ref):
    if len(got) != len(ref):
        return [f"{len(got)} records, reference has {len(ref)}"]
    errors = []
    for g, r in zip(got, ref):
        key = f"{r['framework']}:{r['parameter']}"
        for k in ("framework", "family", "parameter", "member_count"):
            if g[k] != r[k]:
                errors.append(f"{key}: {k} {g[k]!r}, reference {r[k]!r}")
        if g["grid"]["n"] != r["grid"]["n"] or not all(
            _close(g["grid"][k], r["grid"][k], 1e-6) for k in ("lo", "hi")
        ):
            errors.append(f"{key}: grid {g['grid']}, reference {r['grid']}")
        step = (r["grid"]["hi"] - r["grid"]["lo"]) / (r["grid"]["n"] - 1)
        if len(g["intervals"]) != len(r["intervals"]):
            errors.append(f"{key}: {len(g['intervals'])} intervals, reference "
                          f"{len(r['intervals'])}")
        else:
            for gi, ri in zip(g["intervals"], r["intervals"]):
                if any(abs(x - y) > step * (1 + 1e-9) for x, y in zip(gi, ri)):
                    errors.append(f"{key}: interval {gi}, reference {ri}")
        pairs = list(zip(g["plugin_bounds"], r["plugin_bounds"]))
        pairs.append((g["corrected_point"], r["corrected_point"]))
        if not all(_close(x, y, 1e-6) for x, y in pairs):
            errors.append(f"{key}: plug-in bounds or corrected point differ")
    return errors


def compare(cmd, got, ref):
    """Differences between an output digest and its reference digest."""
    kind = cmd.fields["command"]
    if kind == "sets":
        return _compare_sets(got, ref)
    if "shape" in ref and got["shape"] != ref["shape"]:
        return [f"shape {got['shape']}, reference {ref['shape']}"]
    for key in sorted(k for k in ref if k != "shape"):
        a, b = np.asarray(got[key]), np.asarray(ref[key])
        if a.shape != b.shape:
            return [f"{key}: {a.size} values, reference {b.size}"]
        if kind == "vcov":
            tol = 1e-8 * max(float(np.abs(ref["diag"]).max()), 1e-300)
        elif kind == "estimate":
            tol = 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))
        else:
            tol = 1e-9 * (1.0 + np.abs(b))
        if np.any(np.abs(a - b) > tol):
            return [f"{key}: max difference {np.abs(a - b).max():.3e} from reference"]
    return []


def reference_path(bench_dir, workload_name):
    return os.path.join(bench_dir, "reference", f"{workload_name}.json")


def load_reference(bench_dir, workload_name, size, seed):
    """Reference digests per command output, or None for an unrecorded seed."""
    path = reference_path(bench_dir, workload_name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(f"{size}:{seed}")
