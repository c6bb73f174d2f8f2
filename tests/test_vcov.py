from itertools import groupby

import numpy as np
import pytest

from blockdid.panel import PanelData, build_layout
from blockdid.simgen import DGPSpec, Violation, gen_custom
from blockdid.vcov import BootstrapSpec, InvalidSeed, _bootstrap_draws, bootstrap_vcov

from conftest import random_spec
from oracles import bootstrap_draws, resample_rows


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


@pytest.mark.filterwarnings("ignore:singleton cohort strata")
@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_vcov_bitwise_symmetric_on_random_designs(estimator):
    # the covariance writer formats each mirrored pair once; that rests on
    # (v + v.T) / 2 being symmetric to the bit
    rng = np.random.default_rng(21)
    for _ in range(12):
        panel = gen_custom(random_spec(rng)).panel
        v = bootstrap_vcov(panel, BootstrapSpec(30, 4, estimator)).vcov
        assert (v.view(np.uint64) == v.T.view(np.uint64)).all()


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


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3", None])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(InvalidSeed, match="--seed") as info:
        BootstrapSpec(10, seed)
    assert info.value.code == "INVALID_SEED"
    BootstrapSpec(10, np.int64(3))
    BootstrapSpec(10, 2**70)  # SeedSequence takes any nonnegative integer


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_draws_match_reestimation_on_resampled_rows(noisy_panel, estimator):
    # replicate b re-estimates on the rows drawn from substream (seed, b)
    from blockdid.estimators import _stratum_units, estimate

    spec = BootstrapSpec(12, 21, estimator)
    draws = _bootstrap_draws(noisy_panel, spec)
    groups = _stratum_units(build_layout(noisy_panel))
    for b in (0, 5, 11):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=21, spawn_key=(b, 0)))
        rows = resample_rows(groups, rng)
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
    from blockdid.estimators import _stratum_units

    layout = build_layout(noisy_panel)
    groups = _stratum_units(layout)
    rng = np.random.default_rng(0)
    rows = resample_rows(groups, rng)
    adoption = [noisy_panel.adoption[r] for r in rows]
    for t_g, n_g in zip(layout.times, layout.sizes):
        assert sum(1 for a in adoption if a == t_g) == n_g
    assert sum(1 for a in adoption if a is None) == layout.never_size
    at = 0
    for g in groups:  # draws stay inside their stratum
        segment = rows[at : at + len(g)]
        assert set(segment) <= set(g)
        at += len(g)


# strata sizes 1, 1, 3, 3, 3, 7, 1, 2 and never 2: runs of equal sizes, odd
# sizes and singletons, in five runs
RUNS_SPEC = DGPSpec(
    T=11,
    cohorts=((3, 1), (4, 1), (5, 3), (6, 3), (7, 3), (8, 7), (9, 1), (10, 2)),
    never_size=2,
    noise_sd=1.0,
    seed=8,
)
RUNS_SIZES = [1, 1, 3, 3, 3, 7, 1, 2, 2]
WIDE_SPEC = DGPSpec(  # T = 40 and 21 strata, like the wide export
    T=40,
    cohorts=tuple((t, 5) for t in range(2, 41, 2)),
    never_size=20,
    noise_sd=1.0,
    seed=4,
)


def _strata_sizes(panel):
    layout = build_layout(panel)
    return list(layout.sizes) + [layout.never_size]


def _same_bits(a, b):
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


def _runs(sizes):
    return len(list(groupby(sizes)))


@pytest.mark.filterwarnings("ignore:singleton cohort strata")
@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_draws_equal_the_per_stratum_oracle_bitwise(estimator, monkeypatch):
    import blockdid.vcov as vcov

    rng = np.random.default_rng(15)
    designs = [gen_custom(random_spec(rng)).panel for _ in range(12)]
    designs.append(gen_custom(RUNS_SPEC).panel)
    sizes = [_strata_sizes(p) for p in designs]
    assert any(_runs(s) < len(s) for s in sizes)  # a run of equal sizes
    assert any(1 in s for s in sizes)  # a singleton stratum
    assert any(n > 1 and n % 2 for s in sizes for n in s)  # an odd size
    for i, panel in enumerate(designs):
        # a budget of 7 replicates and a bit: chunks of 7
        monkeypatch.setattr(vcov, "_BOOT_CHUNK_VALUES", 7 * panel.outcome.size + 3)
        for B in (2, 6, 7, 8, 41):
            spec = BootstrapSpec(B, 30 + i, estimator)
            want = bootstrap_draws(panel, spec)
            assert _same_bits(_bootstrap_draws(panel, spec), want)
    monkeypatch.undo()
    panel = gen_custom(WIDE_SPEC).panel  # chunks of 13 at the shipped budget
    chunk = vcov._BOOT_CHUNK_VALUES // panel.outcome.size
    assert 2 < chunk < 41
    for B in (2, chunk - 1, chunk, chunk + 1, 41):
        spec = BootstrapSpec(B, 3, estimator)
        assert _same_bits(_bootstrap_draws(panel, spec), bootstrap_draws(panel, spec))


@pytest.mark.parametrize(
    "sizes",
    [RUNS_SIZES, [4, 4, 4, 4, 8], [5], [1, 1, 1], [2, 3, 2, 3], [60] * 4 + [200]],
)
def test_one_call_per_run_of_equal_sizes_draws_as_one_call_per_stratum(sizes):
    for key in range(20):
        ss = np.random.SeedSequence(entropy=key, spawn_key=(key, 0))
        per_stratum = np.random.default_rng(ss)
        merged = np.random.Generator(np.random.PCG64(ss))
        want = [per_stratum.integers(0, n, size=n) for n in sizes]
        got = [
            merged.integers(0, n, size=n * len(list(run))) for n, run in groupby(sizes)
        ]
        assert np.array_equal(np.concatenate(got), np.concatenate(want))
        assert merged.bit_generator.state == per_stratum.bit_generator.state


@pytest.mark.filterwarnings("ignore:singleton cohort strata")
def test_each_replicate_makes_one_integers_call_per_run(monkeypatch):
    import blockdid.vcov as vcov

    calls = []

    class Counting(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(kwargs["size"])
            return super().integers(*args, **kwargs)

    panel = gen_custom(RUNS_SPEC).panel
    spec = BootstrapSpec(9, 2, "csnyt")
    monkeypatch.setattr(vcov, "Generator", Counting)
    draws = _bootstrap_draws(panel, spec)
    assert len(calls) == 9 * _runs(RUNS_SIZES) == 45
    assert calls[:5] == [2, 9, 7, 1, 4]  # n times the run's stratum count
    assert sum(calls) == 9 * panel.n_units
    assert _same_bits(draws, bootstrap_draws(panel, spec))


def test_draw_memory_does_not_grow_with_the_replicate_count(monkeypatch):
    # the gather works a chunk at a time: past the means and the draws, both
    # one row per replicate, the peak is the same at B = 50 and B = 400
    import tracemalloc

    import blockdid.vcov as vcov

    panel = gen_custom(WIDE_SPEC).panel
    width = len(_strata_sizes(panel)) * panel.n_periods
    # the operator is built once, whatever B; a one-row stand-in keeps its
    # megabytes out of the peak
    monkeypatch.setattr(vcov, "_coefficient_operator", lambda *a: np.ones((1, width)))

    def working_bytes(B):
        spec = BootstrapSpec(B, 1, "imputation")
        _bootstrap_draws(panel, spec)
        tracemalloc.start()
        try:
            draws = _bootstrap_draws(panel, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - B * width * 8 - draws.nbytes

    small, large = working_bytes(50), working_bytes(400)
    assert large <= small + 64 * 1024, (small, large)
