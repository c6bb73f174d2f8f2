import numpy as np
import pytest

from blockdid.estimators import estimate
from blockdid.panel import build_layout
from blockdid.simgen import (
    DGPSpec,
    Violation,
    gen_custom,
    gen_example1,
    gen_example2,
    gen_toy,
)


def test_example1_design():
    sim = gen_example1(seed=1)
    layout = build_layout(sim.panel)
    assert sim.panel.n_periods == 11
    assert layout.times == (8, 10)
    assert layout.sizes == (40, 40)
    assert layout.never_size == 60
    assert sim.effect == 3.0


def test_example1_deterministic():
    a = gen_example1(seed=4).panel
    b = gen_example1(seed=4).panel
    assert np.array_equal(a.outcome, b.outcome)
    c = gen_example1(seed=5).panel
    assert not np.array_equal(a.outcome, c.outcome)


def test_oscillation_cancels_over_period_pairs():
    v = Violation("oscillating", 1.0)
    path = v.path(10)
    assert np.all(path[::2] == 1.0)
    assert np.all(path[1::2] == -1.0)
    assert path[2:4].mean() == 0.0


def test_example2_linear_violation_slope():
    sim = gen_example2(seed=2, noise_variance=0.0)
    # late cohort baseline gains exactly 0.75 per period beyond common trends
    layout = build_layout(sim.panel)
    late = layout.cohort_units[1]
    never = layout.never_units
    gap = sim.baseline[late].mean(axis=0) - sim.baseline[never].mean(axis=0)
    inc = np.diff(gap)
    assert np.allclose(inc, 0.75)


def test_example2_zero_noise_pre_biases_on_a_line():
    sim = gen_example2(seed=3, noise_variance=0.0)
    pre = estimate(sim.panel, "imputation")
    vals = [pre.value(10, s) for s in range(-8, 1)]
    assert np.max(np.abs(np.diff(np.diff(vals)))) < 1e-10
    # the early cohort inherits a mild trend of the opposite sign
    early = [pre.value(8, s) for s in range(-6, 1)]
    slope = np.polyfit(range(len(early)), early, 1)[0]
    assert slope < 0


def test_toy_sixteen_cells_and_weight():
    sim = gen_toy(seed=1, sizes=(2, 3, 5))
    layout = build_layout(sim.panel)
    assert sim.panel.n_periods == 8
    assert layout.times == (5, 7)
    assert layout.weight(1) == pytest.approx(3 / 8)
    from blockdid.panel import build_cell_index

    assert len(build_cell_index(layout, 8, "csnyt")) == 16


def test_toy_boundary_sizes_valid():
    sim = gen_toy(seed=2, sizes=(1, 1, 1), noise_sd=0.5)
    assert sim.panel.n_units == 3
    with pytest.raises(ValueError):
        gen_toy(seed=2, sizes=(0, 1, 1))


def test_custom_exact_recovery_and_reproducibility():
    spec = DGPSpec(
        T=9, cohorts=((3, 2), (6, 3)), never_size=2, noise_sd=0.0,
        effect=1.25, seed=11,
    )
    sim = gen_custom(spec)
    est = estimate(sim.panel, "imputation")
    assert np.max(np.abs(est.values[est.post_mask] - 1.25)) < 1e-10
    again = gen_custom(spec)
    assert np.array_equal(sim.panel.outcome, again.panel.outcome)


def test_custom_path_violation():
    path = (0.0, 0.1, -0.4, 0.9, 0.0)
    spec = DGPSpec(
        T=5, cohorts=((3, 2),), never_size=2, noise_sd=0.0,
        violations=(Violation("path", values=path),), seed=0,
    )
    sim = gen_custom(spec)
    layout = build_layout(sim.panel)
    gap = (
        sim.baseline[layout.cohort_units[0]].mean(axis=0)
        - sim.baseline[layout.never_units].mean(axis=0)
    )
    assert np.allclose(np.diff(gap), np.diff(path))


def test_generated_panels_pass_validation():
    # PanelData construction re-validates; also exercise spec errors
    with pytest.raises(ValueError):
        DGPSpec(T=5, cohorts=((1, 2),), never_size=2)
    with pytest.raises(ValueError):
        DGPSpec(T=5, cohorts=((3, 2), (3, 1)), never_size=2)
    with pytest.raises(ValueError):
        DGPSpec(T=5, cohorts=((3, 2),), never_size=0)
    with pytest.raises(ValueError):
        DGPSpec(T=5, cohorts=((3, 2),), never_size=2, noise_sd=-1.0)
    for noise_sd in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sd"):
            DGPSpec(T=5, cohorts=((3, 2),), never_size=2, noise_sd=noise_sd)
