"""Acceptance suite: one pass/fail line per criterion.

Each test pins the tolerances stated in the project contract and prints a
single summary line, so ``pytest -s tests/test_acceptance.py`` doubles as the
acceptance report.  The heavier benchmark scenarios share module-scoped
fixtures to stay inside their runtime budgets.
"""

import dataclasses
import io
import json
import time

import numpy as np
import pytest
from scipy import stats as scistats

from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.cli import main as cli_main
from blockdid.estimators import CoefficientSet, aggregate, estimate
from blockdid.inference import (
    GridSpec,
    _block_decisions,
    _target_basis,
    aggregated_att_target,
    aggregated_system,
    by_period_target,
    confidence_set,
    corrected_point,
    custom_target,
    default_grid,
    hybrid_test,
    overall_att_target,
    plugin_identified_set,
    _corrected_weights,
    _linear_se,
)
from blockdid.panel import build_cell_index, build_layout, load_panel
from blockdid.restrictions import Polyhedron, map_to_delta_space, rm_cohort, rm_global, sd
from blockdid.simgen import DGPSpec, Violation, gen_custom, gen_example1, gen_example2
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

from conftest import random_spec
from oracles import (
    cohort_loo,
    fit_twfe_untreated,
    initial_control_units,
    member_block,
    sequential_imputation,
    treated_mask,
)
from test_panel import grid_csv


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d} ({name}): {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def random_panel_batch():
    rng = np.random.default_rng(2024)
    return [gen_custom(random_spec(rng)) for _ in range(100)]


def test_criterion_01_sequential_equivalence(random_panel_batch):
    t0 = time.perf_counter()
    worst = 0.0
    for sim in random_panel_batch:
        direct = estimate(sim.panel, "imputation")
        seq = sequential_imputation(sim.panel)
        gap = direct.values[direct.post_mask] - seq.values
        worst = max(worst, float(np.max(np.abs(gap))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "sequential equals direct on 100 random panels",
        worst < 1e-10 and elapsed < 30.0,
        f"max cell gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_first_period_block_identity(random_panel_batch):
    worst = 0.0
    for sim in random_panel_batch[:40]:
        panel = sim.panel
        layout = build_layout(panel)
        alpha, xi = fit_twfe_untreated(panel)
        for g, t_g in enumerate(layout.times):
            ctrl = initial_control_units(layout, g)
            pre_cols = list(range(t_g - 1))
            ctrl_term = panel.outcome[ctrl, t_g - 1].mean() - panel.outcome[
                np.ix_(ctrl, pre_cols)
            ].mean()
            for i in layout.cohort_units[g]:
                direct = alpha[i] + xi[t_g - 1]
                block = panel.outcome[i, pre_cols].mean() + ctrl_term
                worst = max(worst, abs(direct - block))
    report(
        2,
        "first-period counterfactual equals the block comparison",
        worst < 1e-10,
        f"max unit gap {worst:.2e}",
    )


def test_criterion_03_toy_golden_map():
    n5, n7, ninf = 3, 2, 5
    units = [(f"a{i}", "5") for i in range(n5)]
    units += [(f"b{i}", "7") for i in range(n7)]
    units += [(f"c{i}", "never") for i in range(ninf)]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "csnyt")
    bm = invert(build_w_csnyt(layout, cells))
    w7 = n7 / (n7 + ninf)
    expected = np.eye(16)
    expected[12, 7] = -w7
    expected[12, 13] = w7
    expected[14, 7] = -w7
    expected[14, 15] = w7
    exact = np.array_equal(bm.W, expected)
    det_one = bm.det() == 1.0
    resid = float(np.max(np.abs(bm.W @ bm.W_inverse - np.eye(16))))
    report(
        3,
        "golden sixteen-cell map for the not-yet-treated estimator",
        exact and det_one and resid < 1e-12,
        f"exact={exact}, det={bm.det()}, inverse residual {resid:.2e}",
    )


def test_criterion_04_staircase_weights():
    units = [("e", "4")] + [(f"m{i}", "6") for i in range(3)]
    units += [("l", "8")] + [(f"n{i}", "never") for i in range(4)]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "imputation")
    bm = build_w_imputation(layout, cells)
    row = bm.W[cells.position(4, 5)]
    want = np.zeros(24)
    want[cells.position(4, 5)] = 1.0
    want[cells.position(6, 3)] = 0.375
    want[cells.position(8, 1)] = 0.2
    ok = (
        layout.weight(1) == 0.375
        and layout.weight(2) == 0.2
        and np.array_equal(row, want)
    )
    report(4, "staircase adjustment weights 0.375 and 0.2", ok,
           f"w_mid={layout.weight(1)}, w_late={layout.weight(2)}")


def _true_block_biases(sim, layout, cells, estimator):
    y0 = sim.baseline
    out = np.zeros(len(cells))
    for p in range(len(cells)):
        c = cells.cell(p)
        own = layout.cohort_units[c.cohort]
        ctrl = initial_control_units(layout, c.cohort)
        if estimator == "imputation":
            pre_cols = list(range(layout.times[c.cohort] - 1))
            lhs = y0[own, c.cal - 1].mean() - y0[np.ix_(own, pre_cols)].mean()
            rhs = y0[ctrl, c.cal - 1].mean() - y0[np.ix_(ctrl, pre_cols)].mean()
        else:
            t_ref = layout.times[c.cohort] - 1
            lhs = y0[own, c.cal - 1].mean() - y0[own, t_ref - 1].mean()
            rhs = y0[ctrl, c.cal - 1].mean() - y0[ctrl, t_ref - 1].mean()
        out[p] = lhs - rhs
    return out


def test_criterion_05_noiseless_decomposition():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(50):
        G = int(rng.integers(1, 4))
        T = int(rng.integers(6, 11))
        times = sorted(rng.choice(np.arange(2, T + 1), size=G, replace=False))
        paths = tuple(
            Violation("path", values=tuple(rng.uniform(-1, 1, size=T)))
            for _ in range(G)
        )
        spec = DGPSpec(
            T=T,
            cohorts=tuple((int(t), int(rng.integers(1, 5))) for t in times),
            never_size=int(rng.integers(1, 5)),
            noise_sd=0.0,
            violations=paths,
            effect=float(rng.uniform(-2, 2)),
            seed=trial,
        )
        sim = gen_custom(spec)
        panel = sim.panel
        layout = build_layout(panel)
        for est, builder in (
            ("imputation", build_w_imputation),
            ("csnyt", build_w_csnyt),
        ):
            cells = build_cell_index(layout, T, est)
            bm = builder(layout, cells)
            block = _true_block_biases(sim, layout, cells, est)
            coeffs = estimate(panel, est)
            overall = block.copy()
            for p in range(len(cells)):
                c = cells.cell(p)
                if cells.structural_zero(p):
                    overall[p] = block[p] = 0.0
                elif c.post:
                    overall[p] = coeffs.value(c.cohort_time, c.rel) - sim.effect
            worst = max(worst, float(np.max(np.abs(overall - bm.W @ block))))
    report(
        5,
        "noiseless overall biases equal mapped block biases",
        worst < 1e-10,
        f"max gap {worst:.2e} over 50 deterministic designs, both estimators",
    )


def test_criterion_06_mechanical_identities(random_panel_batch):
    worst_resid = worst_sum = 0.0
    structural_ok = True
    for sim in random_panel_batch[:40]:
        panel = sim.panel
        layout = build_layout(panel)
        alpha, xi = fit_twfe_untreated(panel)
        resid = np.where(
            treated_mask(panel), 0.0, panel.outcome - alpha[:, None] - xi
        )
        worst_resid = max(
            worst_resid,
            float(np.max(np.abs(resid.sum(axis=0)))),
            float(np.max(np.abs(resid.sum(axis=1)))),
        )
        pre = estimate(panel, "imputation")
        for g, t_g in enumerate(layout.times):
            total = sum(pre.value(t_g, s) for s in range(2 - t_g, 1))
            worst_sum = max(worst_sum, abs(total))
        cs = estimate(panel, "csnyt")
        for t_g in layout.times:
            pos = cs.cells.position(t_g, 0)
            structural_ok &= cs.cells.structural_zero(pos)
            structural_ok &= pos not in set(cs.positions)
    report(
        6,
        "residual zero-sums, pre-bias zero-sums, structural reference cells",
        worst_resid < 1e-10 and worst_sum < 1e-10 and structural_ok,
        f"residual sums {worst_resid:.2e}, pre sums {worst_sum:.2e}, "
        f"structural={structural_ok}",
    )


def test_criterion_07_holdout_rescaling(random_panel_batch):
    worst = 0.0
    checked = 0
    for sim in random_panel_batch[:40]:
        panel = sim.panel
        layout = build_layout(panel)
        pre = estimate(panel, "imputation")
        for t_g in layout.times:
            T_g = t_g - 1
            if T_g < 2:
                continue
            loo = cohort_loo(panel, t_g)
            direct = np.array([pre.value(t_g, s) for s in range(2 - t_g, 1)])
            worst = max(worst, float(np.max(np.abs(loo - T_g / (T_g - 1) * direct))))
            checked += 1
    report(
        7,
        "hold-out pre-treatment estimates rescale to the direct block biases",
        worst < 1e-10 and checked > 20,
        f"max gap {worst:.2e} across {checked} cohorts",
    )


def test_criterion_08_two_cohort_benchmark_illustration():
    units = [("g", "3"), ("b", "5"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=6))))
    cells = build_cell_index(layout, 6, "imputation")
    values = np.zeros(12)
    values[cells.position(5, -3)] = -0.25
    values[cells.position(5, -2)] = 0.25
    coeffs = CoefficientSet("imputation", cells, np.arange(12), values, np.eye(12))
    bm = invert(build_w_imputation(layout, cells))
    fam_c = map_to_delta_space(rm_cohort(layout, cells, 1.0), bm)
    fam_g = map_to_delta_space(rm_global(layout, cells, 1.0), bm)

    def target(w):
        weights = np.zeros(12)
        weights[cells.position(3, 1)] = w
        weights[cells.position(5, 1)] = 1.0 - w
        return custom_target(cells, weights)

    bad = plugin_identified_set(coeffs, fam_c, target(0.0))
    good = plugin_identified_set(coeffs, fam_c, target(1.0))
    ok = (
        abs(bad.lo + 0.5) < 1e-8
        and abs(bad.hi - 0.5) < 1e-8
        and abs(good.lo) < 1e-8
        and abs(good.hi) < 1e-8
    )
    prev_width = None
    for w in np.linspace(0.0, 1.0, 11):
        sg = plugin_identified_set(coeffs, fam_g, target(w))
        sc = plugin_identified_set(coeffs, fam_c, target(w))
        ok &= abs(sg.lo + 0.5) < 1e-8 and abs(sg.hi - 0.5) < 1e-8
        ok &= abs(sc.hi - 0.5 * (1 - w)) < 1e-8
        width = sc.hi - sc.lo
        if prev_width is not None:
            ok &= width <= prev_width + 1e-10
        prev_width = width
    report(
        8,
        "two-cohort illustration: interval for the noisy cohort, point for the clean one",
        ok,
        f"bad=[{bad.lo:.3f},{bad.hi:.3f}], good=[{good.lo:.3f},{good.hi:.3f}]",
    )


def _one_moment_system():
    from blockdid.panel import CellIndex

    # one cohort adopting at t=2 of T=2: cells (g2, s0) and (g2, s+1)
    cells = CellIndex(times=(2,), n_periods=2, estimator="imputation")
    member = Polyhedron(A=np.array([[0.0, 1.0]]), d=np.array([0.0]))
    target = custom_target(cells, np.array([0.0, 1.0]))
    return cells, member, target


def test_criterion_09_hybrid_oracle_and_size():
    t0 = time.perf_counter()
    cells, member, target = _one_moment_system()
    mismatches = 0
    cases = 0
    for b in (-1.0, 0.4, 1.3, 1.6, 1.9):
        for sigma, (alpha, kappa) in (
            (0.5, (0.05, 0.005)),
            (1.0, (0.05, 0.01)),
            (2.0, (0.10, 0.01)),
            (0.8, (0.10, 0.02)),
        ):
            coeffs = CoefficientSet(
                "imputation", cells, np.arange(2), np.array([0.0, b]),
                np.diag([0.04, sigma**2]),
            )
            got = hybrid_test(
                coeffs, member, target, theta0=0.0, alpha=alpha, kappa=kappa, seed=5
            )
            z = b / sigma
            z_k = scistats.norm.ppf(1 - kappa)
            alpha_mod = (alpha - kappa) / (1 - kappa)
            cval = max(
                0.0, scistats.norm.ppf((1 - alpha_mod) * scistats.norm.cdf(z_k))
            )
            want = z > z_k or z > cval  # stage one, else conditional stage
            mismatches += got != want
            cases += 1

    # boundary-null Monte Carlo: every moment mean exactly zero
    units = [("a", "4"), ("b", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=7))))
    bcells = build_cell_index(layout, 7, "csnyt")
    rng = np.random.default_rng(3)
    root = rng.normal(size=(6, 6)) * 0.3
    sigma = root @ root.T + 0.05 * np.eye(6)
    coeffs = CoefficientSet("csnyt", bcells, bcells.value_positions, np.zeros(6), sigma)
    bmap = invert(build_w_csnyt(layout, bcells))
    fam = map_to_delta_space(sd(layout, bcells, 0.0), bmap)
    btarget = overall_att_target(layout, bcells)
    alpha = 0.05
    block = member_block(coeffs, fam.members[0], _target_basis(coeffs, btarget))
    chol = np.linalg.cholesky(sigma)
    A_keep = fam.members[0].A[:, bcells.value_positions]
    assert block.a0.shape[1] == A_keep.shape[0]  # no rows were screened out
    draws_rng = np.random.default_rng(777)
    rejections = 0
    reps = 1000
    for _ in range(reps):
        beta = chol @ draws_rng.standard_normal(6)
        shifted = dataclasses.replace(block, a0=block.a0 + A_keep @ beta)
        rejections += _block_decisions(
            shifted, [0.0], alpha, alpha / 10, 10_000, 9
        )[0, 0]
    rate = rejections / reps
    elapsed = time.perf_counter() - t0
    report(
        9,
        "hybrid test: closed-form oracle and boundary-null size",
        mismatches == 0 and cases == 20 and rate <= alpha + 0.02 and elapsed < 300,
        f"{cases} oracle cases, {mismatches} mismatches, "
        f"size {rate:.3f} vs {alpha + 0.02:.3f}, {elapsed:.0f}s",
    )


SEED_BENCH = 31


@pytest.fixture(scope="module")
def oscillating_run():
    sim = gen_example1(seed=SEED_BENCH)
    panel = sim.panel
    layout = build_layout(panel)
    coeffs = bootstrap_vcov(panel, BootstrapSpec(500, SEED_BENCH, "imputation"))
    bm = invert(build_w_imputation(layout, coeffs.cells))
    return sim, layout, coeffs, bm


def test_criterion_10_oscillating_benchmark(oscillating_run):
    t0 = time.perf_counter()
    sim, layout, coeffs, bm = oscillating_run
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    params = (0.0, 0.5, 1.0)
    fams_c = {m: map_to_delta_space(rm_cohort(layout, cells, m), bm) for m in params}
    fams_g = {m: map_to_delta_space(rm_global(layout, cells, m), bm) for m in params}
    grid = default_grid(coeffs, fams_g[1.0], target)

    plugs_c = {m: plugin_identified_set(coeffs, fams_c[m], target) for m in params}
    plugs_g = {m: plugin_identified_set(coeffs, fams_g[m], target) for m in params}
    strict = all(
        plugs_g[m].lo <= plugs_c[m].lo + 1e-12
        and plugs_c[m].hi <= plugs_g[m].hi + 1e-12
        and (
            plugs_c[m].lo - plugs_g[m].lo >= 1e-6
            or plugs_g[m].hi - plugs_c[m].hi >= 1e-6
        )
        for m in (0.5, 1.0)
    )

    sets_c = {
        m: confidence_set(coeffs, fams_c[m], target, alpha=0.05, grid=grid,
                          seed=SEED_BENCH)
        for m in params
    }
    covers_zero = sets_c[0.0].contains(3.0)

    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)
    afam0 = map_to_delta_space(rm_cohort(alay, acells, 0.0), amap)
    atarget = aggregated_att_target(agg, acells)
    agrid = default_grid(acoe, afam0, atarget)
    aset0 = confidence_set(acoe, afam0, atarget, alpha=0.05, grid=agrid,
                           seed=SEED_BENCH)
    covers_zero_agg = aset0.contains(3.0)

    nested = all(
        sets_c[b].covers(sets_c[a], tol=1e-12)
        for a, b in ((0.0, 0.5), (0.5, 1.0))
    )
    plug_inside = all(
        sets_c[m].covers(plugs_c[m], tol=(grid.hi - grid.lo) / (grid.n - 1))
        for m in params
    )
    elapsed = time.perf_counter() - t0
    report(
        10,
        "oscillating-violation benchmark: coverage, strict nesting, monotone sets",
        covers_zero and covers_zero_agg and strict and nested and plug_inside
        and elapsed < 600,
        f"cover(3)={covers_zero}/{covers_zero_agg}, strict={strict}, "
        f"nested={nested}, plug-in inside={plug_inside}, {elapsed:.0f}s",
    )


def test_criterion_11_linear_benchmark():
    sim = gen_example2(seed=SEED_BENCH)
    panel = sim.panel
    layout = build_layout(panel)
    coeffs = bootstrap_vcov(panel, BootstrapSpec(500, SEED_BENCH, "imputation"))
    cells = coeffs.cells
    bm = invert(build_w_imputation(layout, cells))

    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)

    within_three_se = True
    farther = True
    details = []
    for s in (1, 2, 3, 4):
        target = by_period_target(layout, cells, s)
        point = corrected_point(coeffs, "sd", bm, target)
        se = _linear_se(
            _corrected_weights(cells, coeffs.positions, "sd", bm, target),
            coeffs.vcov,
        )
        within_three_se &= abs(point - 3.0) <= 3.0 * se
        atarget = by_period_target(alay, acells, s)
        apoint = corrected_point(acoe, "sd", amap, atarget)
        details.append(f"s={s}: cohort {point:.2f}(se {se:.2f}) agg {apoint:.2f}")
        if s in (3, 4):
            farther &= abs(apoint - 3.0) > abs(point - 3.0)
    report(
        11,
        "linear-violation benchmark: centered by-period corrections",
        within_three_se and farther,
        "; ".join(details),
    )


def test_criterion_12_large_panel_pipeline(tmp_path):
    t0 = time.perf_counter()
    spec = DGPSpec(
        T=7,
        cohorts=((4, 100), (6, 223), (7, 584)),
        never_size=1377,
        noise_sd=0.4,
        violations=(
            Violation("linear", 0.03),
            Violation("linear", 0.02),
            Violation("linear", -0.015),
        ),
        effect=-0.05,
        seed=12,
    )
    sim = gen_custom(spec)
    panel_path = tmp_path / "panel.csv"
    with open(panel_path, "w") as fh:
        fh.write("unit,time,outcome,cohort\n")
        for i, unit in enumerate(sim.panel.units):
            t_g = sim.panel.adoption[i]
            label = "never" if t_g is None else str(t_g)
            for t in range(1, 8):
                fh.write(f"{unit},{t},{float(sim.panel.outcome[i, t - 1])!r},{label}\n")

    def cli(*args):
        assert cli_main(list(args)) == 0, f"CLI failed: {args}"

    coeffs_path = tmp_path / "coeffs.csv"
    cli("estimate", "--input", str(panel_path), "--out", str(coeffs_path))
    rm_path = tmp_path / "rm.json"
    cli(
        "sets", "--input", str(panel_path), "--family", "rm-cohort",
        "--param", "0:1:0.5", "--alpha", "0.05", "--bootstrap", "200",
        "--seed", "12", "--out", str(rm_path),
    )
    sd_path = tmp_path / "sd.json"
    cli(
        "sets", "--input", str(panel_path), "--family", "sd",
        "--param", "0:0.1:0.05", "--alpha", "0.05", "--bootstrap", "200",
        "--seed", "12", "--out", str(sd_path),
    )
    cmp_path = tmp_path / "cmp.csv"
    cli(
        "compare", "--input", str(panel_path), "--family", "sd",
        "--param", "0:0.1:0.05", "--alpha", "0.05", "--bootstrap", "200",
        "--seed", "12", "--out", str(cmp_path),
    )

    coeff_lines = coeffs_path.read_text().splitlines()
    n_coeffs = len(coeff_lines) - 2
    schema_ok = n_coeffs == 21  # three cohorts, seven periods each
    for path, want_records in ((rm_path, 3), (sd_path, 3)):
        payload = json.loads(path.read_text())
        schema_ok &= len(payload["results"]) == want_records
        for r in payload["results"]:
            schema_ok &= all(
                k in r
                for k in (
                    "target", "family", "parameter", "alpha", "grid",
                    "intervals", "plugin_bounds", "member_count", "runtime_ms",
                )
            )
            schema_ok &= all(np.isfinite(x) for x in r["plugin_bounds"])
    cmp_rows = cmp_path.read_text().splitlines()
    schema_ok &= len(cmp_rows) == 2 + 3 * 2 * 2  # params x frameworks x bounds
    elapsed = time.perf_counter() - t0
    report(
        12,
        "large staggered panel: full pipeline emits schema-valid outputs",
        schema_ok and elapsed < 900,
        f"{n_coeffs} coefficients, {elapsed:.0f}s at 200 replications",
    )
