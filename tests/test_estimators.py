import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from blockdid import estimators
from blockdid.estimators import (
    CoefficientSet,
    _asymmetry,
    _semidefinite,
    aggregate,
    estimate,
    write_vcov_csv,
)
from blockdid.panel import PanelData, build_cell_index, build_layout, load_panel
from blockdid.simgen import DGPSpec, Violation, gen_custom

from conftest import random_panel
from oracles import (
    cohort_loo,
    fit_twfe_untreated,
    initial_control_units,
    not_yet_treated_units,
    sequential_imputation,
    treated_mask,
    vcov_csv,
)


def test_saturated_model_zero_residuals():
    spec = DGPSpec(T=6, cohorts=((3, 4),), never_size=4, noise_sd=0.0, seed=1)
    panel = gen_custom(spec).panel
    alpha, xi = fit_twfe_untreated(panel)
    resid = panel.outcome - alpha[:, None] - xi
    assert np.max(np.abs(resid[~treated_mask(panel)])) < 1e-12


def test_residual_zero_sums_random_panels():
    rng = np.random.default_rng(11)
    for _ in range(8):
        panel = random_panel(rng).panel
        alpha, xi = fit_twfe_untreated(panel)
        resid = np.where(
            treated_mask(panel), 0.0, panel.outcome - alpha[:, None] - xi
        )
        assert np.max(np.abs(resid.sum(axis=1))) < 1e-10
        assert np.max(np.abs(resid.sum(axis=0))) < 1e-10


def test_first_period_normalization(toy_panel):
    alpha, xi = fit_twfe_untreated(toy_panel)
    assert xi[0] == 0.0


def test_exact_recovery_of_constant_effect():
    spec = DGPSpec(
        T=7, cohorts=((3, 3), (5, 2)), never_size=3, noise_sd=0.0,
        effect=3.0, seed=2,
    )
    panel = gen_custom(spec).panel
    coeffs = estimate(panel, "imputation")
    assert np.max(np.abs(coeffs.values[coeffs.post_mask] - 3.0)) < 1e-10
    cs = estimate(panel, "csnyt")
    post = cs.post_mask
    assert np.max(np.abs(cs.values[post] - 3.0)) < 1e-10


def test_first_period_counterfactual_is_block_did():
    rng = np.random.default_rng(5)
    for _ in range(5):
        panel = random_panel(rng).panel
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
                assert abs(direct - block) < 1e-10


def test_sequential_matches_direct():
    rng = np.random.default_rng(7)
    for _ in range(10):
        panel = random_panel(rng).panel
        direct = estimate(panel, "imputation")
        seq = sequential_imputation(panel)
        post = direct.post_mask
        assert np.array_equal(direct.positions[post], seq.positions)
        assert np.max(np.abs(direct.values[post] - seq.values)) < 1e-10


def _oracle_values(panel, estimator):
    """Direct group-mean contrasts per cell; imputation post cells as
    observed minus the unit-level two-way fit."""
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, estimator)
    y = panel.outcome
    if estimator == "imputation":
        alpha, xi = fit_twfe_untreated(panel)
        imputed = alpha[:, None] + xi
    out = []
    for p in cells.value_positions:
        c = cells.cell(p)
        own, col = layout.cohort_units[c.cohort], c.cal - 1
        if estimator == "imputation" and c.post:
            out.append((y[own, col] - imputed[own, col]).mean())
            continue
        if estimator == "imputation":
            ctrl = initial_control_units(layout, c.cohort)
            window = list(range(c.cohort_time - 1))

            def contrast(units):
                return y[units, col].mean() - y[np.ix_(units, window)].mean()
        else:
            ctrl = (
                not_yet_treated_units(layout, c.cal)
                if c.post
                else initial_control_units(layout, c.cohort)
            )

            def contrast(units):
                return (y[units, col] - y[units, c.cohort_time - 2]).mean()
        out.append(contrast(own) - contrast(ctrl))
    return np.array(out)


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_estimate_matches_direct_oracles(estimator):
    rng = np.random.default_rng(23)
    for _ in range(50):
        panel = random_panel(rng).panel
        got = estimate(panel, estimator).values
        want = _oracle_values(panel, estimator)
        assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_mean_preserving_perturbation_leaves_estimates(estimator):
    # estimates depend on the panel only through stratum-period means
    rng = np.random.default_rng(29)
    for _ in range(20):
        panel = random_panel(rng).panel
        layout = build_layout(panel)
        noise = rng.normal(scale=5.0, size=panel.outcome.shape)
        for units in layout.cohort_units + (layout.never_units,):
            noise[units] -= noise[units].mean(axis=0)
        perturbed = PanelData(
            units=panel.units,
            n_periods=panel.n_periods,
            outcome=panel.outcome + noise,
            adoption=panel.adoption,
        )
        a = estimate(panel, estimator).values
        b = estimate(perturbed, estimator).values
        assert np.max(np.abs(a - b)) < 1e-12 * (1 + np.max(np.abs(a)))


def test_operator_row_blocks_give_the_bits_of_one_product(monkeypatch):
    """The imputation operator subtracts the period-effects term in row
    blocks of at least two rows; stacked, the block products equal the
    product over all rows bit for bit."""
    products = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            args = [np.asarray(a) for a in args]
            out = getattr(ufunc, method)(*args, **kwargs)
            products.append((*args, out))
            return out

    real = estimators._period_effects_operator
    monkeypatch.setattr(
        estimators, "_period_effects_operator", lambda *a: real(*a).view(Recorded)
    )
    rng = np.random.default_rng(28)
    for _ in range(60):
        panel = random_panel(rng, max_g=5).panel
        layout = build_layout(panel)
        products.clear()
        estimators._coefficient_operator(
            layout, build_cell_index(layout, panel.n_periods)
        )
        weight = np.concatenate([w for w, _, _ in products])
        blocks = np.concatenate([b for _, _, b in products])
        X = products[0][1]
        assert len(weight) == len(layout.times) * panel.n_periods
        assert min(len(w) for w, _, _ in products) >= 2
        assert blocks.tobytes() == (weight @ X).tobytes()


def test_sequential_single_cohort_is_plain_block_did():
    spec = DGPSpec(T=7, cohorts=((4, 3),), never_size=4, noise_sd=1.0, seed=3)
    panel = gen_custom(spec).panel
    layout = build_layout(panel)
    seq = sequential_imputation(panel)
    own = layout.cohort_units[0]
    ctrl = layout.never_units
    pre_cols = [0, 1, 2]
    for s in range(1, 5):
        t = 4 + s - 1
        counter = panel.outcome[np.ix_(own, pre_cols)].mean(axis=1) + (
            panel.outcome[ctrl, t - 1].mean()
            - panel.outcome[np.ix_(ctrl, pre_cols)].mean()
        )
        want = (panel.outcome[own, t - 1] - counter).mean()
        assert seq.value(4, s) == pytest.approx(want, abs=1e-10)


def test_pre_block_biases_sum_to_zero(toy_panel):
    pre = estimate(toy_panel, "imputation")
    layout = build_layout(toy_panel)
    for g, t_g in enumerate(layout.times):
        total = sum(pre.value(t_g, s) for s in range(2 - t_g, 1))
        assert abs(total) < 1e-10


def test_no_violation_no_noise_zero_biases():
    spec = DGPSpec(T=8, cohorts=((4, 3), (6, 2)), never_size=3, noise_sd=0.0, seed=4)
    panel = gen_custom(spec).panel
    pre = estimate(panel, "imputation")
    assert np.max(np.abs(pre.values[pre.pre_mask])) < 1e-12
    cs = estimate(panel, "csnyt")
    assert np.max(np.abs(cs.values[cs.pre_mask])) < 1e-12


def test_single_pre_period_bias_is_zero():
    spec = DGPSpec(
        T=5, cohorts=((2, 3),), never_size=3, noise_sd=1.0,
        violations=(Violation("linear", 0.5),), seed=6,
    )
    panel = gen_custom(spec).panel
    pre = estimate(panel, "imputation")
    assert pre.value(2, 0) == pytest.approx(0.0, abs=1e-10)


def test_csnyt_reference_cell_structural(toy_panel):
    cs = estimate(toy_panel, "csnyt")
    for t_g in (5, 7):
        with pytest.raises(KeyError):
            cs.value(t_g, 0)
        assert cs.cells.structural_zero(cs.cells.position(t_g, 0))


def test_csnyt_hand_two_by_two():
    text = (
        "unit,time,outcome,cohort\n"
        "t,1,5,2\nt,2,9,2\n"
        "n,1,1,never\nn,2,2,never\n"
    )
    panel = load_panel(io.StringIO(text))
    cs = estimate(panel, "csnyt")
    assert cs.value(2, 1) == pytest.approx(3.0)


def test_csnyt_control_group_shrinks(toy_panel):
    layout = build_layout(toy_panel)
    cs = estimate(toy_panel, "csnyt")
    y = toy_panel.outcome
    g5 = layout.cohort_units[0]
    g7 = layout.cohort_units[1]
    never = layout.never_units
    early_ctrl = np.concatenate([g7, never])
    for s in (1, 2):  # both cohorts' units still untreated
        t = 5 + s - 1
        want = (y[g5, t - 1] - y[g5, 3]).mean() - (
            y[early_ctrl, t - 1] - y[early_ctrl, 3]
        ).mean()
        assert cs.value(5, s) == pytest.approx(want, abs=1e-12)
    for s in (3, 4):  # late cohort has adopted: never-treated only
        t = 5 + s - 1
        want = (y[g5, t - 1] - y[g5, 3]).mean() - (
            y[never, t - 1] - y[never, 3]
        ).mean()
        assert cs.value(5, s) == pytest.approx(want, abs=1e-12)


def test_cohort_loo_rescaling_identity():
    rng = np.random.default_rng(9)
    for _ in range(6):
        panel = random_panel(rng, min_pre=2).panel
        layout = build_layout(panel)
        pre = estimate(panel, "imputation")
        for g, t_g in enumerate(layout.times):
            T_g = t_g - 1
            loo = cohort_loo(panel, t_g)
            direct = np.array([pre.value(t_g, s) for s in range(2 - t_g, 1)])
            assert np.max(np.abs(loo - T_g / (T_g - 1) * direct)) < 1e-10


def test_cohort_loo_noiseless_zero():
    spec = DGPSpec(T=6, cohorts=((4, 3),), never_size=3, noise_sd=0.0, seed=8)
    panel = gen_custom(spec).panel
    assert np.max(np.abs(cohort_loo(panel, 4))) < 1e-12


def test_aggregate_weights_and_support(toy_panel):
    layout = build_layout(toy_panel)
    coeffs = estimate(toy_panel, "imputation")
    agg = aggregate(coeffs, layout)
    assert np.allclose(agg.weights.sum(axis=1), 1.0)
    assert np.all(agg.weights >= 0)
    for r, s in enumerate(agg.rel_periods):
        support = {
            coeffs.cells.cell(p).cohort_time
            for j, p in enumerate(coeffs.positions)
            if agg.weights[r, j] > 0
        }
        if s <= -4:
            assert support == {7}
        elif s >= 3:
            assert support == {5}
        else:
            assert support == {5, 7}


def test_aggregate_equal_sizes_weight_half(toy_panel):
    layout = build_layout(toy_panel)
    coeffs = estimate(toy_panel, "imputation")
    agg = aggregate(coeffs, layout)
    r = list(agg.rel_periods).index(0)
    nonzero = agg.weights[r][agg.weights[r] > 0]
    assert np.allclose(nonzero, 0.5)


def test_aggregate_vcov_is_sandwich(toy_panel):
    layout = build_layout(toy_panel)
    coeffs = estimate(toy_panel, "imputation")
    rng = np.random.default_rng(0)
    root = rng.normal(size=(len(coeffs.values), len(coeffs.values)))
    vcov = root @ root.T
    withv = CoefficientSet(
        coeffs.estimator, coeffs.cells, coeffs.positions, coeffs.values, vcov
    )
    agg = aggregate(withv, layout)
    want = agg.weights @ vcov @ agg.weights.T
    assert np.max(np.abs(agg.vcov - want)) < 1e-12


def test_coefficient_set_rejects_bad_vcov(toy_panel):
    coeffs = estimate(toy_panel, "imputation")
    n = len(coeffs.values)
    asym = np.eye(n)
    asym[0, 1] = 1e-3
    with pytest.raises(ValueError):
        CoefficientSet(
            coeffs.estimator, coeffs.cells, coeffs.positions, coeffs.values, asym
        )
    with pytest.raises(ValueError):
        CoefficientSet(
            coeffs.estimator, coeffs.cells, coeffs.positions, coeffs.values,
            -np.eye(n),
        )


def old_semidefinite(v):
    """The eigenvalue check the Cholesky one replaced."""
    scale = np.max(np.diag(v), initial=0.0)
    return not (len(v) and np.linalg.eigvalsh(v).min() < -1e-8 * scale)


def _with_spectrum(Q, eigenvalues):
    v = (Q * eigenvalues) @ Q.T
    return (v + v.T) / 2.0


def _cases(rng, n):
    """(name, matrix) pairs of one size: PSD, rank-deficient, zero,
    indefinite, and indefinite within 1e-6 relative of the threshold on
    either side."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spread = 10.0 ** rng.uniform(-3, 2, size=n)
    yield "psd", _with_spectrum(Q, spread)
    rows = rng.normal(size=(max(1, n // 3), n)) * rng.uniform(0.1, 5.0)
    yield "rank-deficient", rows.T @ rows
    yield "zero", np.zeros((n, n))
    yield "indefinite", _with_spectrum(Q, np.concatenate([spread[1:], [-spread[0]]]))
    if n == 1:
        return  # the threshold of a zero base is zero
    base = _with_spectrum(Q, np.concatenate([spread[1:], [0.0]]))
    threshold = 1e-8 * np.max(np.diag(base))
    for side, factor in (("above", 1 - 1e-6), ("below", 1 + 1e-6)):
        lam = np.concatenate([spread[1:], [-factor * threshold]])
        yield side, _with_spectrum(Q, lam)


def test_cholesky_psd_check_refuses_what_eigvalsh_refuses():
    _check_psd_against_eigvalsh((1, 2, 3, 5, 8, 13, 21, 40, 80), reps=12)


@pytest.mark.parametrize("block", [1, 3, 8])
def test_blocked_psd_check_refuses_what_eigvalsh_refuses(monkeypatch, block):
    # the same cases, factored across many column blocks: block edges fall
    # inside every matrix above the block size
    monkeypatch.setattr(estimators, "_CHOL_BLOCK", block)
    _check_psd_against_eigvalsh((1, 2, 3, 5, 8, 13, 21, 40), reps=4)


def test_psd_check_above_the_shipped_block_size():
    assert estimators._CHOL_BLOCK < 200
    _check_psd_against_eigvalsh((estimators._CHOL_BLOCK + 1, 200, 300), reps=1)


def _check_psd_against_eigvalsh(sizes, reps):
    rng = np.random.default_rng(11)
    below = 0
    for n in sizes:
        for _ in range(reps):
            for name, v in _cases(rng, n):
                old = old_semidefinite(v)
                new = _semidefinite(v, np.max(np.diag(v), initial=0.0))
                if name in ("above", "below"):
                    assert new <= old, (name, n)  # refuses all that old does
                else:
                    assert new == old, (name, n)
                if name == "below":
                    assert not old  # the construction is below the threshold
                    below += 1
    assert below == sum(n > 1 for n in sizes) * reps
    # scale <= 0: only the zero matrix passes, as before
    for v in (np.zeros((0, 0)), np.zeros((3, 3))):
        assert _semidefinite(v, 0.0) and old_semidefinite(v)
    for v in (np.array([[0.0, 1.0], [1.0, 0.0]]), -np.eye(2)):
        scale = np.max(np.diag(v))
        assert not _semidefinite(v, scale) and not old_semidefinite(v)


@pytest.mark.parametrize("block", [1, 7, 128])
def test_blocked_asymmetry_matches_the_dense_measure(monkeypatch, block):
    monkeypatch.setattr(estimators, "_CHOL_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (0, 1, 2, 7, 8, 15, 129, 300):
        v = rng.normal(size=(n, n)) * np.exp(rng.uniform(-20, 20, size=(n, 1)))
        assert _asymmetry(v) == np.max(np.abs(v - v.T), initial=0.0)
        sym = (v + v.T) / 2.0
        assert _asymmetry(sym) == 0.0
        if n > 1:  # one pair off by an ulp, wherever it sits
            i, j = rng.choice(n, size=2, replace=False)
            sym[i, j] = np.nextafter(sym[i, j], np.inf)
            assert _asymmetry(sym) == abs(sym[i, j] - sym[j, i]) > 0


@pytest.mark.parametrize(
    "where, bad",
    [
        ("off", np.nan),
        ("diagonal", np.nan),
        ("diagonal", np.inf),
        ("off", np.inf),
        ("off", -np.inf),
    ],
)
def test_coefficient_set_refuses_a_non_finite_vcov(toy_panel, where, bad):
    # nan passed the symmetry and Cholesky checks, and so did an infinite
    # variance
    coeffs = estimate(toy_panel, "imputation")
    n = len(coeffs.values)
    vcov = np.eye(n)
    i, j = (2, 2) if where == "diagonal" else (1, 3)
    vcov[i, j] = vcov[j, i] = bad
    with pytest.raises(ValueError, match="vcov has non-finite entries"):
        CoefficientSet(
            coeffs.estimator, coeffs.cells, coeffs.positions, coeffs.values, vcov
        )


def test_vcov_csv_bytes_match_per_element_repr(toy_panel):
    coeffs = estimate(toy_panel, "imputation")
    n = len(coeffs.values)
    rng = np.random.default_rng(4)
    root = rng.normal(size=(n, n))
    vcov = root @ root.T / 3.0 + n * np.eye(n)
    vcov[0, 1] = vcov[1, 0] = -0.0
    vcov[0, 2] = vcov[2, 0] = 5e-324
    vcov[1, 2] = vcov[2, 1] = 0.1 + 0.2
    vcov[3, 3] = 1e5 / 3.0
    coeffs = CoefficientSet(
        coeffs.estimator, coeffs.cells, coeffs.positions, coeffs.values, vcov
    )
    out = io.StringIO()
    write_vcov_csv(coeffs, out)
    assert out.getvalue() == vcov_csv(coeffs)


def _labelled(vcov):
    """The two things ``write_vcov_csv`` reads from a coefficient set."""
    labels = [f"c{i}" for i in range(len(vcov))]
    return SimpleNamespace(vcov=vcov, labels=lambda: labels)


def _written(vcov):
    out = io.StringIO()
    write_vcov_csv(_labelled(vcov), out)
    return out.getvalue()


def _ulp(x):
    return np.nextafter(x, np.inf)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 63, 64, 65, 130])
def test_vcov_csv_matches_oracle_symmetric_or_not(n):
    rng = np.random.default_rng(n)
    root = rng.normal(size=(n, n)) * np.exp(rng.uniform(-30, 30, size=(n, 1)))
    sym = (root + root.T) / 2.0
    assert (sym.view(np.uint64) == sym.T.view(np.uint64)).all()
    variants = [sym, np.asfortranarray(sym), root]
    last, edge = n - 1, min(16, n - 1)
    for i, j in [
        (last, 0),  # first column, below and above the diagonal
        (0, last),
        (edge, edge - 1),  # across the first row-block edge
        (edge - 1, edge),
        (last, last - 1),  # last row
        (last - 1, last),
    ]:
        if i != j:
            v = sym.copy()
            v[i, j] = _ulp(v[i, j])
            variants.append(v)
    if n > 20:
        v = sym.copy()
        v[3, 20], v[20, 3] = 0.0, -0.0  # equal as floats, not as bits
        v[20, 5], v[5, 20] = 0.0, -0.0
        v[2, n - 2] = v[n - 2, 2] = 5e-324
        v[7, 9], v[9, 7] = 5e-324, 0.0
        variants.append(v)
    for v in variants:
        # lines, so that a failure names the first bad row without a long diff
        assert _written(v).split("\n") == vcov_csv(_labelled(v)).split("\n")


def test_vcov_csv_formats_each_mirrored_pair_once(monkeypatch):
    n = 130
    rng = np.random.default_rng(3)
    root = rng.normal(size=(n, n))
    sym = (root + root.T) / 2.0
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(estimators, "repr", counted, raising=False)
    _written(sym)
    # each block of rows formats its upper part from the diagonal rightwards:
    # the upper triangle plus half of each 16 x 16 diagonal square
    upper = sum(min(16, n - r0) * (n - r0) for r0 in range(0, n, 16))
    assert len(calls) == upper <= n * (n + 1) // 2 + 8 * n
    calls.clear()
    sym[100, 40] = _ulp(sym[100, 40])  # row 100 formats its own left part
    _written(sym)
    assert len(calls) == upper + 96


def test_vcov_csv_holds_little_more_than_the_pending_mirror_text():
    n = 400
    rng = np.random.default_rng(5)
    root = rng.normal(size=(n, n))
    sym = (root + root.T) / 2.0

    class Null:
        def write(self, text):
            return len(text)

    tracemalloc.start()
    try:
        write_vcov_csv(_labelled(sym), Null())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pending left parts peak near n^2/4 entries of ~20 characters; a
    # whole matrix of str objects would take about 75 n^2
    assert peak < 12 * n * n
