import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blockdid
from blockdid.cli import RunConfig, _parse_sweep, main, run
from blockdid.panel import load_panel
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

from oracles import vcov_csv


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "panel.csv"
    assert (
        run_cli(
            "simulate", "--example", "toy", "--seed", "3", "--sizes", "5,5,6",
            "--out", str(path),
        )
        == 0
    )
    return path


def test_simulate_writes_truth_sidecar(panel_csv):
    sidecar = json.loads((panel_csv.parent / "panel.csv.json").read_text())
    assert sidecar["true_att"] == 0.0
    assert "config_hash" in sidecar and "version" in sidecar


def test_validate_ok(panel_csv, capsys):
    assert run_cli("validate", "--input", str(panel_csv)) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_all_treated_exits_with_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    rows = ["unit,time,outcome,cohort"]
    for u, g in (("a", "2"), ("b", "3")):
        for t in (1, 2, 3):
            rows.append(f"{u},{t},1.0,{g}")
    bad.write_text("\n".join(rows) + "\n")
    assert run_cli("validate", "--input", str(bad)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "NO_NEVER_TREATED"


def test_validate_non_finite_outcome_exits_with_code(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    rows = ["unit,time,outcome,cohort"]
    for u, g in (("a", "2"), ("b", "never")):
        for t in (1, 2, 3):
            rows.append(f"{u},{t},{'nan' if (u, t) == ('a', 2) else 1.0},{g}")
    bad.write_text("\n".join(rows) + "\n")
    assert run_cli("validate", "--input", str(bad)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "NON_FINITE_OUTCOME"


def test_validate_short_row_exits_with_code(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text("unit,time,outcome,cohort\na,1,0.5,never\na,2\n")
    assert run_cli("validate", "--input", str(bad)) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "MISSING_FIELD", "message": "line 3: no 'outcome' field"}


def test_validate_unreadable_csv_exits_with_code(tmp_path, capsys):
    # a field past csv.field_size_limit(), in a column the panel does not read
    bad = tmp_path / "long_field.csv"
    note = "x" * (csv.field_size_limit() + 1)
    bad.write_text(f"unit,time,outcome,cohort,note\na,1,0.5,never,{note}\n")
    assert run_cli("validate", "--input", str(bad)) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "MALFORMED_CSV"
    assert "field larger than field limit" in err["message"]


def test_estimate_csv_schema(panel_csv, tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run_cli(
        "estimate", "--input", str(panel_csv), "--estimator", "csnyt",
        "--out", str(out),
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    assert header == ["estimator", "cohort", "rel_period", "calendar_time", "kind", "value"]
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 14  # sixteen cells minus two reference cells
    kinds = {r["kind"] for r in rows}
    assert kinds == {"pre", "post"}


def test_estimate_csv_writes_cohorts_on_the_source_time_scale(tmp_path):
    units = [("a", "2003"), ("b", "2005"), ("n", "never")]
    years = tmp_path / "years.csv"
    years.write_text("\n".join(["unit,time,outcome,cohort"] + [
        f"{unit},{year},{i * 10 + year % 100},{label}"
        for i, (unit, label) in enumerate(units)
        for year in range(2001, 2007)
    ]) + "\n")
    panel = load_panel(str(years))
    assert panel.time_labels == tuple(range(2001, 2007))
    assert panel.adoption == (3, 5, None)
    out = tmp_path / "coeffs.csv"
    assert run_cli("estimate", "--input", str(years), "--out", str(out)) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert {r["cohort"] for r in rows} == {"2003", "2005"}
    for r in rows:  # calendar time = cohort + rel_period - 1, in years
        assert int(r["calendar_time"]) == int(r["cohort"]) + int(r["rel_period"]) - 1
    first = next(r for r in rows if r["kind"] == "post")
    assert (first["cohort"], first["rel_period"], first["calendar_time"]) == (
        "2003", "1", "2003"
    )


def test_vcov_and_biasmap_outputs(panel_csv, tmp_path):
    vout = tmp_path / "vcov.csv"
    assert run_cli(
        "vcov", "--input", str(panel_csv), "--bootstrap", "40", "--seed", "2",
        "--out", str(vout),
    ) == 0
    lines = vout.read_text().splitlines()
    labels = lines[1].split(",")
    assert len(labels) == 16
    mat = np.array([[float(x) for x in row.split(",")] for row in lines[2:]])
    assert mat.shape == (16, 16)
    assert np.max(np.abs(mat - mat.T)) < 1e-12
    panel = load_panel(str(panel_csv))
    coeffs = bootstrap_vcov(panel, BootstrapSpec(40, 2, "imputation"))
    assert vout.read_text().split("\n", 1)[1] == vcov_csv(coeffs)  # past the meta line

    wout = tmp_path / "w.csv"
    assert run_cli(
        "biasmap", "export", "--input", str(panel_csv), "--estimator", "csnyt",
        "--out", str(wout),
    ) == 0
    lines = wout.read_text().splitlines()
    assert lines[1].split(",")[0] == "cell"
    body = [row.split(",") for row in lines[2:]]
    assert len(body) == 16
    w = np.array([[float(x) for x in r[1:]] for r in body])
    assert np.all(np.diag(w) == 1.0)


def test_sets_sweep_count_and_nesting(panel_csv, tmp_path):
    out = tmp_path / "sets.json"
    assert run_cli(
        "sets", "--input", str(panel_csv), "--family", "rm-cohort",
        "--param", "0:1:0.25", "--alpha", "0.05", "--bootstrap", "40",
        "--seed", "2", "--draws", "2000", "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    records = payload["results"]
    assert len(records) == 5
    assert [r["parameter"] for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for a, b in zip(records, records[1:]):
        assert b["plugin_bounds"][0] <= a["plugin_bounds"][0] + 1e-9
        assert a["plugin_bounds"][1] <= b["plugin_bounds"][1] + 1e-9
    for r in records:
        for key in ("target", "family", "alpha", "grid", "intervals",
                    "member_count", "runtime_ms", "corrected_point"):
            assert key in r


def test_compare_emits_both_frameworks(panel_csv, tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(
        "compare", "--input", str(panel_csv), "--family", "sd",
        "--param", "0:0.5:0.5", "--bootstrap", "40", "--seed", "2",
        "--draws", "2000", "--out", str(out),
    ) == 0
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 8  # 2 params x 2 frameworks x 2 bound kinds
    assert {r["framework"] for r in rows} == {"cohort", "aggregated"}
    assert {r["bound"] for r in rows} == {"plugin", "confidence"}


def test_byperiod_output(panel_csv, tmp_path):
    out = tmp_path / "bp.json"
    assert run_cli(
        "byperiod", "--input", str(panel_csv), "--family", "sd", "--param", "0",
        "--bootstrap", "40", "--seed", "2", "--draws", "2000",
        "--grid=-6:6:81", "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["periods"], key=int) == ["1", "2", "3", "4"]
    for rec in payload["periods"].values():
        assert rec["intervals"]
        assert np.isfinite(rec["corrected_point"])
        assert rec["corrected_se"] > 0


@pytest.mark.parametrize("grid", [[], ["--grid=-6:6:61"]])
@pytest.mark.parametrize("framework", ["cohort", "aggregated"])
def test_byperiod_periods_are_the_period_target_sets_records(
    panel_csv, tmp_path, framework, grid
):
    common = [
        "--input", str(panel_csv), "--family", "rm-cohort", "--param", "0.5",
        "--bootstrap", "30", "--seed", "4", "--draws", "500",
        "--framework", framework, *grid,
    ]
    out = tmp_path / "bp.json"
    assert run_cli("byperiod", *common, "--out", str(out)) == 0
    periods = json.loads(out.read_text())["periods"]
    assert sorted(periods, key=int) == ["1", "2", "3", "4"]
    for s, rec in periods.items():
        out = tmp_path / f"period{s}.json"
        target = ["--target", f"period:{s}"]
        assert run_cli("sets", *common, *target, "--out", str(out)) == 0
        (want,) = json.loads(out.read_text())["results"]
        assert rec["intervals"] == want["intervals"]
        assert rec["corrected_point"] == want["corrected_point"]


def test_byperiod_solves_each_periods_corrected_weights_once(
    panel_csv, tmp_path, monkeypatch
):
    """The corrected point and its standard error share one solve."""
    import blockdid.cli

    solves = []
    weights = blockdid.cli._corrected_weights
    monkeypatch.setattr(
        blockdid.cli, "_corrected_weights",
        lambda *a: solves.append(a[-1]) or weights(*a),
    )
    monkeypatch.setattr(blockdid.cli, "corrected_point", None)  # not called
    out = tmp_path / "bp.json"
    assert run_cli(
        "byperiod", "--input", str(panel_csv), "--family", "sd", "--param", "0",
        "--bootstrap", "20", "--draws", "200", "--out", str(out),
    ) == 0
    assert len(solves) == len(json.loads(out.read_text())["periods"]) == 4


def test_run_refuses_a_byperiod_target(panel_csv, tmp_path, monkeypatch):
    import blockdid.cli

    loads = []
    monkeypatch.setattr(blockdid.cli, "load_panel", lambda *a, **k: loads.append(a))
    out = tmp_path / "bp.json"
    config = RunConfig(
        "byperiod", input=str(panel_csv), out=str(out), target="period:1"
    )
    with pytest.raises(blockdid.cli.UnsupportedOption) as info:
        run(config)
    assert info.value.code == "UNSUPPORTED_OPTION"
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_sets_period_target(panel_csv, tmp_path):
    out = tmp_path / "period.json"
    assert run_cli(
        "sets", "--input", str(panel_csv), "--family", "sd", "--param", "0.1",
        "--bootstrap", "40", "--seed", "2", "--draws", "2000",
        "--target", "period:2", "--framework", "both", "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert {r["framework"] for r in payload["results"]} == {"cohort", "aggregated"}
    assert all(r["target"] == "period:2" for r in payload["results"])


def test_sets_rejects_kappa_not_below_alpha(panel_csv, tmp_path, capsys, monkeypatch):
    import blockdid.cli

    calls = []
    monkeypatch.setattr(
        blockdid.cli, "bootstrap_vcov", lambda *a, **k: calls.append(a)
    )
    out = tmp_path / "kappa.json"
    assert run_cli(
        "sets", "--input", str(panel_csv), "--family", "sd", "--param", "0.1",
        "--bootstrap", "40", "--draws", "500", "--alpha", "0.05",
        "--kappa", "0.9", "--out", str(out),
    ) == 1
    err = json.loads(capsys.readouterr().out)
    assert "kappa" in err["error"]["message"]
    assert err["error"]["code"] == "INVALID_LEVEL"
    assert calls == []  # refused before the bootstrap
    assert not out.exists()


def test_sets_refuses_a_member_over_the_vertex_cap(
    panel_csv, tmp_path, capsys, monkeypatch
):
    import blockdid.inference

    monkeypatch.setattr(blockdid.inference, "_VERTEX_ENUM_CAP", 1)
    out = tmp_path / "cap.json"
    assert run_cli(
        "sets", "--input", str(panel_csv), "--family", "sd", "--param", "0.1",
        "--bootstrap", "40", "--draws", "500", "--out", str(out),
    ) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "VERTEX_CAP_EXCEEDED"
    assert not out.exists()


def test_sets_solve_each_plugin_set_once(panel_csv, tmp_path, monkeypatch):
    import blockdid.cli
    import blockdid.inference
    from blockdid.biasmap import build_w_imputation, invert
    from blockdid.estimators import aggregate
    from blockdid.inference import (
        aggregated_att_target,
        aggregated_system,
        confidence_set,
        default_grid,
        overall_att_target,
        plugin_identified_set,
    )
    from blockdid.panel import build_layout, load_panel
    from blockdid.restrictions import map_to_delta_space, sd
    from blockdid.vcov import BootstrapSpec, bootstrap_vcov

    params = (0.0, 0.5, 1.0)
    panel = load_panel(str(panel_csv))
    layout = build_layout(panel)
    coeffs = bootstrap_vcov(panel, BootstrapSpec(20, 2, "imputation"))
    agg = aggregate(coeffs, layout)
    agg_layout, agg_cells, agg_coeffs, agg_map = aggregated_system(agg)
    systems = {
        "cohort": (
            layout, coeffs, invert(build_w_imputation(layout, coeffs.cells)),
            overall_att_target(layout, coeffs.cells),
        ),
        "aggregated": (
            agg_layout, agg_coeffs, agg_map, aggregated_att_target(agg, agg_cells)
        ),
    }
    # the records as the grid was built before: default_grid re-solving the
    # widest parameter's plug-in set, then one more solve per parameter
    expected = []
    for lay, coe, bias_map, target in systems.values():
        fams = {p: map_to_delta_space(sd(lay, coe.cells, p), bias_map) for p in params}
        grid = default_grid(coe, fams[max(params)], target)
        for p in params:
            plug = plugin_identified_set(coe, fams[p], target)
            cset = confidence_set(
                coe, fams[p], target, grid=grid, draws=500, seed=2
            )
            expected.append(
                ([grid.lo, grid.hi, grid.n], [plug.lo, plug.hi],
                 [list(iv) for iv in cset.intervals])
            )

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].parameter)
        return plugin_identified_set(*args, **kwargs)

    monkeypatch.setattr(blockdid.cli, "plugin_identified_set", counted)
    monkeypatch.setattr(blockdid.inference, "plugin_identified_set", counted)
    out = tmp_path / "once.json"
    assert run_cli(
        "sets", "--input", str(panel_csv), "--family", "sd", "--param", "0:1:0.5",
        "--bootstrap", "20", "--seed", "2", "--draws", "500",
        "--framework", "both", "--out", str(out),
    ) == 0
    assert sorted(calls) == sorted(params * 2)  # one per parameter and framework
    records = json.loads(out.read_text())["results"]
    got = [
        ([r["grid"]["lo"], r["grid"]["hi"], r["grid"]["n"]], r["plugin_bounds"],
         r["intervals"])
        for r in records
    ]
    assert got == expected


def test_byperiod_aggregated_framework(panel_csv, tmp_path):
    out = tmp_path / "bp_agg.json"
    assert run_cli(
        "byperiod", "--input", str(panel_csv), "--family", "sd", "--param", "0",
        "--bootstrap", "40", "--seed", "2", "--draws", "2000",
        "--framework", "aggregated", "--grid=-6:6:61", "--out", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["framework"] == "aggregated"
    assert sorted(payload["periods"], key=int) == ["1", "2", "3", "4"]


def test_config_hash_does_not_depend_on_the_input_spelling(
    panel_csv, tmp_path, monkeypatch
):
    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "panel.csv").write_bytes(panel_csv.read_bytes())
    monkeypatch.chdir(work)
    spellings = ["../panel.csv", str(tmp_path / "panel.csv"), "./../work/../panel.csv"]
    assert len({RunConfig("estimate", input=p).hash() for p in spellings}) == 1
    firsts = set()
    for n, path in enumerate(spellings):
        out = work / f"coeffs{n}.csv"
        assert run_cli("estimate", "--input", path, "--out", str(out)) == 0
        firsts.add(out.read_text().splitlines()[0])
    assert len(firsts) == 1
    other = RunConfig("estimate", input=str(panel_csv)).hash()
    assert other != RunConfig("estimate", input="../panel.csv").hash()


def test_reruns_reproduce_results(panel_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "sets", "--input", str(panel_csv), "--family", "sd", "--param", "0.2",
        "--bootstrap", "30", "--seed", "9", "--draws", "2000",
    ]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    for d in (da, db):
        for r in d["results"]:
            r.pop("runtime_ms")  # wall-clock, excluded from reproducibility
    assert da == db


def test_family_flag_reaches_records(panel_csv, tmp_path):
    from blockdid.estimators import aggregate, estimate
    from blockdid.inference import aggregated_system
    from blockdid.panel import build_cell_index, build_layout, load_panel
    from blockdid.restrictions import rm_cohort, sd

    panel = load_panel(str(panel_csv))
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, "imputation")
    agg_layout, agg_cells, _, _ = aggregated_system(
        aggregate(estimate(panel, "imputation"), layout)
    )
    hashes = {}
    for family, build in (("sd", sd), ("rm-cohort", rm_cohort)):
        out = tmp_path / f"{family}.json"
        assert run_cli(
            "sets", "--input", str(panel_csv), "--family", family,
            "--param", "0.5", "--bootstrap", "20", "--seed", "2",
            "--draws", "500", "--grid=-6:6:41", "--framework", "both",
            "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        hashes[family] = payload["config_hash"]
        members = {
            "cohort": build(layout, cells, 0.5).member_count,
            "aggregated": build(agg_layout, agg_cells, 0.5).member_count,
        }
        records = payload["results"]
        assert [r["framework"] for r in records] == ["cohort", "aggregated"]
        for r in records:
            assert r["family"] == family
            assert r["member_count"] == members[r["framework"]]
    assert hashes["sd"] != hashes["rm-cohort"]


def test_byperiod_both_frameworks_rejected(panel_csv, tmp_path, capsys, monkeypatch):
    import blockdid.cli

    calls = []
    monkeypatch.setattr(
        blockdid.cli, "bootstrap_vcov", lambda *a, **k: calls.append(a)
    )
    assert run_cli(
        "byperiod", "--input", str(panel_csv), "--family", "sd", "--param", "0",
        "--bootstrap", "40", "--framework", "both", "--out", str(tmp_path / "bp.json"),
    ) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == "UNSUPPORTED_OPTION"
    assert calls == []


@pytest.mark.parametrize(
    "command, field, code",
    [
        (command, field, code)
        for field, code, commands in [
            ("family", "UNKNOWN_FAMILY", ("sets", "byperiod", "compare")),
            ("framework", "UNSUPPORTED_OPTION", ("sets", "byperiod", "compare")),
            ("estimator", "UNSUPPORTED_OPTION",
             ("estimate", "vcov", "biasmap", "sets", "byperiod", "compare")),
        ]
        for command in commands
    ],
)
def test_run_refuses_unknown_choices_before_the_panel_loads(
    panel_csv, tmp_path, monkeypatch, command, field, code
):
    import blockdid.cli

    loads = []
    monkeypatch.setattr(blockdid.cli, "load_panel", lambda *a, **k: loads.append(a))
    out = tmp_path / "refused.out"
    config = RunConfig(command, input=str(panel_csv), out=str(out), **{field: "bogus"})
    with pytest.raises(ValueError, match="bogus") as info:
        run(config)
    assert info.value.code == code
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_workers_other_than_one_rejected(panel_csv, tmp_path):
    from blockdid.cli import RunConfig, UnsupportedOption, run

    config = RunConfig(
        command="vcov", input=str(panel_csv), out=str(tmp_path / "v.csv"),
        bootstrap=10, workers=2,
    )
    with pytest.raises(UnsupportedOption) as info:
        run(config)
    assert info.value.code == "UNSUPPORTED_OPTION"
    assert not (tmp_path / "v.csv").exists()


def test_no_command_calls_linprog_on_a_vertex_path_design(
    panel_csv, tmp_path, monkeypatch, capsys
):
    # every rm-cohort member of the toy panel takes the vertex path, and the
    # plug-in sets are closed-form, so no linear program is left to solve
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    common = [
        "--input", str(panel_csv), "--family", "rm-cohort", "--bootstrap", "20",
        "--seed", "2", "--draws", "300",
    ]
    for command, extra in (
        ("sets", ["--param", "0:1:0.5"]),
        ("compare", ["--param", "0.5"]),
        ("byperiod", ["--param", "0.5", "--grid=-6:6:41"]),
    ):
        out = tmp_path / f"{command}.out"
        code = run_cli(command, *common, *extra, "--out", str(out))
        assert code == 0, capsys.readouterr().out
        assert out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sets", "--grid", "1:0:5"], "INVALID_GRID"),
        (["sets", "--grid", "0:1:0"], "INVALID_GRID"),
        (["compare", "--grid", "0:0:5"], "INVALID_GRID"),
        (["sets", "--draws", "0"], "INVALID_DRAWS"),
        (["byperiod", "--draws", "-5"], "INVALID_DRAWS"),
        (["sets", "--bootstrap", "1"], "INVALID_BOOTSTRAP"),
        (["vcov", "--bootstrap", "1"], "INVALID_BOOTSTRAP"),
        (["vcov", "--seed", "-1"], "INVALID_SEED"),
        (["sets", "--seed", "-1"], "INVALID_SEED"),
        (["byperiod", "--seed", "-3"], "INVALID_SEED"),
        (["compare", "--seed", "-1"], "INVALID_SEED"),
        (["byperiod", "--param", "0:1:0.5"], "INVALID_PARAM"),
        (["sets", "--grid", ""], "INVALID_GRID"),
        (["byperiod", "--target", "period:2"], "UNSUPPORTED_OPTION"),
    ],
)
def test_invalid_options_refused_before_the_panel_loads(
    panel_csv, tmp_path, capsys, monkeypatch, argv, code
):
    import blockdid.cli

    loads = []
    monkeypatch.setattr(blockdid.cli, "load_panel", lambda *a, **k: loads.append(a))
    out = tmp_path / "refused.out"
    assert run_cli(*argv, "--input", str(panel_csv), "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == code
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sets", "--target", "bogus"], "INVALID_TARGET"),
        (["compare", "--target", "period:x"], "INVALID_TARGET"),
        (["sets", "--target", "period:9"], "INVALID_TARGET"),  # the panel lacks it
        (["sets", "--target", "period:-1"], "INVALID_TARGET"),  # a pre period
        (["sets", "--grid", "0:1"], "INVALID_GRID"),
        (["sets", "--grid", "a:b:c"], "INVALID_GRID"),
        (["sets", "--param", "1:0:0.5"], "INVALID_PARAM"),
        (["sets", "--param", "-0.5"], "INVALID_PARAM"),
        (["compare", "--param", "0:1"], "INVALID_PARAM"),
        (["sets", "--param", "0:1e300:1e-300"], "INVALID_PARAM"),  # uncountable
        (["sets", "--param", "0:1:inf"], "INVALID_PARAM"),  # was the sweep (nan,)
    ],
)
def test_malformed_text_options_get_stable_codes_before_any_bootstrap(
    panel_csv, tmp_path, capsys, monkeypatch, argv, code
):
    import blockdid.cli

    boots = []
    monkeypatch.setattr(
        blockdid.cli, "bootstrap_vcov", lambda *a, **k: boots.append(a)
    )
    out = tmp_path / "refused.out"
    assert run_cli(*argv, "--input", str(panel_csv), "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == code
    assert boots == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--example", "1", "--noise-variance", "-1"], "INVALID_NOISE_VARIANCE"),
        (["--example", "2", "--noise-variance", "nan"], "INVALID_NOISE_VARIANCE"),
        (["--example", "1", "--noise-variance", "inf"], "INVALID_NOISE_VARIANCE"),
        (["--example", "toy", "--sizes", "4,4"], "INVALID_SIZES"),
        (["--example", "toy", "--sizes", "a,b"], "INVALID_SIZES"),
        (["--example", "toy", "--sizes", "4,0,4"], "INVALID_SIZES"),
        (["--example", "toy", "--sizes", "4,4,4,4"], "INVALID_SIZES"),
        (["--example", "toy", "--seed", "-1"], "INVALID_SEED"),
        (["--example", "1", "--seed", "-2"], "INVALID_SEED"),
        (["--example", "toy", "--sizes", ""], "INVALID_SIZES"),
    ],
)
def test_simulate_refuses_bad_noise_and_sizes_before_writing(
    tmp_path, capsys, argv, code
):
    out = tmp_path / "panel.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 'invalid value encountered in sqrt'
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == code
    assert argv[-2] in err["error"]["message"]  # the message names the flag
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sizes", [(4, 4), (4, 0, 4), (4, 4, 4, 4), (4, 4.0, 4), ("4", "4", "4"), None]
)
def test_run_refuses_bad_sizes_before_writing(tmp_path, sizes):
    out = tmp_path / "panel.csv"
    with pytest.raises(ValueError, match="--sizes") as info:
        run(RunConfig("simulate", example="toy", sizes=sizes, out=str(out)))
    assert info.value.code == "INVALID_SIZES"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["vcov", "sets", "byperiod", "compare", "simulate"])
def test_run_refuses_a_negative_seed_before_the_panel_loads(
    panel_csv, tmp_path, monkeypatch, command
):
    import blockdid.cli

    loads = []
    monkeypatch.setattr(blockdid.cli, "load_panel", lambda *a, **k: loads.append(a))
    out = tmp_path / "refused.out"
    for seed in (-1, True):  # True too: SeedSequence would run it as seed 1
        config = RunConfig(
            command, input=str(panel_csv), out=str(out), seed=seed, example="toy"
        )
        refusal = "seed must be a nonnegative integer"
        with pytest.raises(ValueError, match=refusal) as info:
            run(config)
        assert info.value.code == "INVALID_SEED"
        assert loads == []
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("draws", [500.0, True])
@pytest.mark.parametrize("command", ["sets", "byperiod", "compare"])
def test_run_refuses_a_non_integer_draw_count_before_the_panel_loads(
    panel_csv, tmp_path, monkeypatch, command, draws
):
    import blockdid.cli

    loads = []
    monkeypatch.setattr(blockdid.cli, "load_panel", lambda *a, **k: loads.append(a))
    out = tmp_path / "refused.out"
    config = RunConfig(command, input=str(panel_csv), out=str(out), draws=draws)
    with pytest.raises(ValueError, match="draws must be an integer") as info:
        run(config)
    assert info.value.code == "INVALID_DRAWS"
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_toy_honours_the_noise_variance(tmp_path):
    from blockdid.simgen import gen_example1, gen_toy

    def simulate(*argv):
        out = tmp_path / f"panel{len(list(tmp_path.iterdir()))}.csv"
        assert run_cli("simulate", "--seed", "3", *argv, "--out", str(out)) == 0
        return load_panel(str(out)).outcome

    sizes = (4, 4, 4)
    quiet = simulate("--example", "toy", "--noise-variance", "0")
    loud = simulate("--example", "toy", "--noise-variance", "5")
    assert np.array_equal(quiet, gen_toy(3, sizes, noise_sd=0.0).panel.outcome)
    assert np.array_equal(loud, gen_toy(3, sizes, noise_sd=5**0.5).panel.outcome)
    assert not np.array_equal(quiet, loud)
    # the defaults: noise sd 1.0 for the toy, variance 2.0 for examples 1 and 2
    default = simulate("--example", "toy")
    assert np.array_equal(default, gen_toy(3, sizes, noise_sd=1.0).panel.outcome)
    unit = simulate("--example", "toy", "--noise-variance", "1")
    assert np.array_equal(default, unit)
    one = simulate("--example", "1")
    assert np.array_equal(one, gen_example1(3, 2.0).panel.outcome)


def test_config_hash_covers_the_noise_variance_simulate_uses():
    toy = RunConfig("simulate", example="toy")
    assert toy.hash() == RunConfig("simulate", example="toy", noise_variance=1.0).hash()
    assert toy.hash() != RunConfig("simulate", example="toy", noise_variance=2.0).hash()
    one = RunConfig("simulate", example="1")
    assert one.hash() == RunConfig("simulate", example="1", noise_variance=2.0).hash()


@pytest.mark.parametrize(
    "text, want",
    [
        ("0:1:0.35", (0.0, 0.35, 0.7)),  # the step does not divide: stop below hi
        ("0.1:0.3:0.1", (0.1, 0.2, 0.3)),  # 0.1 + 2 * 0.1 rounds past 0.3
        ("0:1:0.25", (0.0, 0.25, 0.5, 0.75, 1.0)),
        ("0:1:1e12", (0.0,)),  # one value: lo, never snapped to hi (was (1.0,))
        ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.3)),  # 3 * 0.1 rounds past 0.3
    ],
)
def test_param_sweep_never_passes_hi_and_ends_on_it_when_the_step_divides(
    text, want
):
    got = _parse_sweep(text)
    assert got == want
    assert max(got) <= float(text.split(":")[1])


@pytest.mark.parametrize("text", ["-0", "-0:-0:1", "0:-0:1", "-0:1:0.5"])
def test_param_sweep_starts_at_positive_zero(text):
    got = _parse_sweep(text)
    assert got[0] == 0.0 and np.copysign(1.0, got[0]) == 1.0


def test_param_minus_zero_writes_the_record_and_config_hash_of_zero(
    panel_csv, tmp_path
):
    # it used to write "parameter": -0.0 under a config_hash of its own
    written = {}
    for param in ("-0", "0"):
        out = tmp_path / f"sets{param}.json"
        assert run_cli(
            "sets", "--input", str(panel_csv), f"--param={param}", "--bootstrap", "20",
            "--draws", "200", "--grid=-8:9:35", "--out", str(out),
        ) == 0
        written[param] = json.loads(out.read_text())
    minus, plain = written["-0"], written["0"]
    assert minus["config_hash"] == plain["config_hash"]
    assert [r["parameter"] for r in minus["results"]] == [0.0]
    assert np.copysign(1.0, minus["results"][0]["parameter"]) == 1.0


IMPORT_GRAPH = """
import json, sys
import blockdid.cli as cli
import blockdid.inference as inference

def heavy():
    return sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))

after_import = heavy()
calls = []
quantile = inference._truncnorm_quantile
inference._truncnorm_quantile = lambda *a: calls.append(1) or quantile(*a)
out = sys.argv[1]
cli.run(cli.RunConfig("simulate", example="toy", seed=3, out=out + "/toy.csv"))
cli.run(cli.RunConfig(
    "sets", input=out + "/toy.csv", out=out + "/sets.json", params=(0.0, 0.5),
    framework="both", bootstrap=50, draws=500,
))
print(json.dumps([after_import, heavy(), len(calls)]))
"""


def test_no_command_loads_scipy_stats_or_optimize(tmp_path):
    """A fresh process that imports the CLI and runs a toy ``sets`` chain,
    conditional quantiles included, never loads ``scipy.stats`` (nor the
    ``scipy.optimize`` it pulls in)."""
    src = str(Path(blockdid.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    after_import, after_sets, quantile_calls = json.loads(done.stdout.splitlines()[-1])
    assert after_import == [] and after_sets == []
    assert quantile_calls > 0


EXPORT_GRAPH = """
import json, sys
from blockdid.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
panel = ["--input", out + "/toy.csv"]
codes = [
    main(["simulate", "--example", "toy", "--seed", "3", "--out", out + "/toy.csv"]),
    main(["validate", *panel]),
    main(["estimate", *panel, "--out", out + "/coeffs.csv"]),
    main(["vcov", *panel, "--bootstrap", "20", "--out", out + "/vcov.csv"]),
]
for estimator in ("imputation", "csnyt"):
    codes.append(main([
        "biasmap", *panel, "--estimator", estimator, "--inverse",
        "--out", out + "/winv_" + estimator + ".csv",
    ]))
after_export = scipy_modules()
codes.append(main([
    "sets", *panel, "--param", "0:1:0.5", "--bootstrap", "20", "--draws", "200",
    "--out", out + "/sets.json",
]))
print(json.dumps([codes, after_export, scipy_modules()]))
"""


def test_export_commands_load_no_scipy(tmp_path):
    """A fresh process that imports the CLI and runs every export command
    loads no scipy module; set inference then loads ``scipy.linalg`` and
    ``scipy.special`` on first use and succeeds."""
    src = str(Path(blockdid.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EXPORT_GRAPH, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    codes, after_export, after_sets = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 7
    assert after_export == []
    assert {"scipy.linalg", "scipy.special"} <= set(after_sets)
    assert json.loads((tmp_path / "sets.json").read_text())["results"]
