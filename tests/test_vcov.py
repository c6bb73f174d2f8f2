import numpy as np
import pytest

from blockdid.panel import PanelData, build_layout
from blockdid.simgen import DGPSpec, Violation, gen_custom
from blockdid.vcov import BootstrapSpec, bootstrap_vcov


@pytest.fixture(scope="module")
def noisy_panel():
    spec = DGPSpec(
        T=8, cohorts=((4, 5), (6, 5)), never_size=6, noise_sd=1.0,
        violations=(Violation(), Violation("linear", 0.3)), effect=1.0, seed=17,
    )
    return gen_custom(spec).panel


def test_same_seed_bit_identical(noisy_panel):
    spec = BootstrapSpec(replications=40, seed=5, estimator="imputation")
    a = bootstrap_vcov(noisy_panel, spec)
    b = bootstrap_vcov(noisy_panel, spec)
    assert np.array_equal(a.vcov, b.vcov)
    c = bootstrap_vcov(noisy_panel, BootstrapSpec(40, 6, "imputation"))
    assert not np.array_equal(a.vcov, c.vcov)


def test_noiseless_panel_zero_variance():
    spec = DGPSpec(T=6, cohorts=((3, 4),), never_size=4, noise_sd=0.0, seed=2)
    panel = gen_custom(spec).panel
    out = bootstrap_vcov(panel, BootstrapSpec(30, 1, "imputation"))
    assert np.max(np.abs(out.vcov)) < 1e-20


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_symmetric_psd_positive_diagonal(noisy_panel, estimator):
    out = bootstrap_vcov(noisy_panel, BootstrapSpec(80, 3, estimator))
    v = out.vcov
    assert np.max(np.abs(v - v.T)) < 1e-12
    assert np.linalg.eigvalsh(v).min() > -1e-8
    assert np.all(np.diag(v) > 0)


def test_point_values_from_original_sample(noisy_panel):
    from blockdid.estimators import estimate

    out = bootstrap_vcov(noisy_panel, BootstrapSpec(20, 9, "imputation"))
    assert np.array_equal(out.values, estimate(noisy_panel, "imputation").values)


def test_singleton_stratum_warns():
    spec = DGPSpec(T=5, cohorts=((3, 1),), never_size=4, noise_sd=1.0, seed=3)
    panel = gen_custom(spec).panel
    with pytest.warns(UserWarning, match="singleton"):
        bootstrap_vcov(panel, BootstrapSpec(10, 1, "imputation"))


def test_unit_relabeling_invariance(noisy_panel):
    relabeled = PanelData(
        units=tuple(f"zz{i}" for i in range(noisy_panel.n_units)),
        n_periods=noisy_panel.n_periods,
        outcome=noisy_panel.outcome,
        adoption=noisy_panel.adoption,
        time_labels=noisy_panel.time_labels,
    )
    spec = BootstrapSpec(30, 11, "imputation")
    a = bootstrap_vcov(noisy_panel, spec)
    b = bootstrap_vcov(relabeled, spec)
    assert np.array_equal(a.vcov, b.vcov)


def test_replications_floor():
    with pytest.raises(ValueError):
        BootstrapSpec(replications=1)


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_draws_match_reestimation_on_resampled_rows(noisy_panel, estimator):
    # replicate b re-estimates on the rows drawn from substream (seed, b)
    from blockdid.estimators import estimate
    from blockdid.vcov import _bootstrap_draws, _resample_rows, _strata

    spec = BootstrapSpec(12, 21, estimator)
    draws = _bootstrap_draws(noisy_panel, spec)
    groups = _strata(noisy_panel)
    for b in (0, 5, 11):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=21, spawn_key=(b, 0)))
        rows = _resample_rows(groups, rng)
        resampled = PanelData(
            units=tuple(f"b{j}" for j in range(len(rows))),
            n_periods=noisy_panel.n_periods,
            outcome=noisy_panel.outcome[rows],
            adoption=tuple(noisy_panel.adoption[r] for r in rows),
        )
        want = estimate(resampled, estimator).values
        assert np.max(np.abs(draws[b] - want)) < 1e-10 * (1 + np.max(np.abs(want)))


def test_cohort_structure_preserved(noisy_panel):
    # resampled draws must reproduce the stratum sizes exactly
    from blockdid.vcov import _resample_rows, _strata

    layout = build_layout(noisy_panel)
    groups = _strata(noisy_panel)
    rng = np.random.default_rng(0)
    rows = _resample_rows(groups, rng)
    adoption = [noisy_panel.adoption[r] for r in rows]
    for t_g, n_g in zip(layout.times, layout.sizes):
        assert sum(1 for a in adoption if a == t_g) == n_g
    assert sum(1 for a in adoption if a is None) == layout.never_size
    at = 0
    for g in groups:  # draws stay inside their stratum
        segment = rows[at : at + len(g)]
        assert set(segment) <= set(g)
        at += len(g)
