"""Seeded data-generating processes for validation and benchmarking.

Baseline outcomes follow a two-way model Y(0) = alpha_i + xi_t + eps, with
optional per-cohort trend violations added to Y(0) and a constant treatment
effect added once a cohort adopts.  Generators retain the untreated baseline
grid so test harnesses can compute true biases exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .panel import PanelData

__all__ = [
    "Violation",
    "DGPSpec",
    "SimulatedPanel",
    "gen_example1",
    "gen_example2",
    "gen_toy",
    "gen_custom",
]


@dataclass(frozen=True)
class Violation:
    """Per-cohort deviation from common trends added to Y(0).

    ``kind`` is one of ``none``, ``oscillating`` (amplitude * (-1)^(t+1)),
    ``linear`` (slope * t), or ``path`` (explicit per-period values).
    """

    kind: str = "none"
    amplitude: float = 0.0
    values: tuple = ()

    def path(self, T):
        t = np.arange(1, T + 1, dtype=float)
        if self.kind == "none":
            return np.zeros(T)
        if self.kind == "oscillating":
            return self.amplitude * (-1.0) ** (t + 1)
        if self.kind == "linear":
            return self.amplitude * t
        if self.kind == "path":
            if len(self.values) != T:
                raise ValueError(f"path violation needs {T} values")
            return np.asarray(self.values, dtype=float)
        raise ValueError(f"unknown violation kind {self.kind!r}")


@dataclass(frozen=True)
class DGPSpec:
    """Specification of a simulated staggered-adoption panel."""

    T: int
    cohorts: tuple  # of (adoption time, size)
    never_size: int
    noise_sd: float = 0.0
    violations: tuple = ()  # of Violation, aligned with cohorts
    effect: float = 0.0
    seed: int = 0

    def __post_init__(self):
        times = [t for t, _ in self.cohorts]
        if any(not 2 <= t <= self.T for t in times):
            raise ValueError(f"adoption times {times} not all inside 2..{self.T}")
        if sorted(set(times)) != times:
            raise ValueError(f"adoption times {times} not strictly increasing")
        if self.never_size < 1:
            raise ValueError("need at least one never-treated unit")
        if not 0.0 <= self.noise_sd < float("inf"):  # NaN fails too
            raise ValueError(
                f"noise_sd must be finite and nonnegative, got {self.noise_sd}"
            )
        if self.violations and len(self.violations) != len(self.cohorts):
            raise ValueError("one violation entry per cohort required")


@dataclass(frozen=True)
class SimulatedPanel:
    """A generated panel plus the bookkeeping needed by oracles."""

    panel: PanelData
    baseline: np.ndarray  # Y(0), shape (N, T)
    effect: float
    spec: DGPSpec = field(repr=False, default=None)

    def true_att(self):
        return self.effect


def gen_custom(spec: DGPSpec) -> SimulatedPanel:
    """General seeded generator: two-way baseline, violations, constant effect."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    T = spec.T
    sizes = [n for _, n in spec.cohorts]
    N = sum(sizes) + spec.never_size

    alpha = rng.normal(0.0, 1.0, size=N)
    xi = rng.normal(0.0, 1.0, size=T)
    eps = (
        rng.normal(0.0, spec.noise_sd, size=(N, T))
        if spec.noise_sd > 0
        else np.zeros((N, T))
    )
    baseline = alpha[:, None] + xi[None, :] + eps

    adoption = []
    row = 0
    violations = spec.violations or tuple(Violation() for _ in spec.cohorts)
    for (t_g, n_g), viol in zip(spec.cohorts, violations):
        baseline[row : row + n_g, :] += viol.path(T)[None, :]
        adoption.extend([t_g] * n_g)
        row += n_g
    adoption.extend([None] * spec.never_size)

    outcome = baseline.copy()
    for i, t_g in enumerate(adoption):
        if t_g is not None:
            outcome[i, t_g - 1 :] += spec.effect

    units = tuple(f"u{i + 1}" for i in range(N))
    panel = PanelData(
        units=units, n_periods=T, outcome=outcome, adoption=tuple(adoption)
    )
    return SimulatedPanel(panel=panel, baseline=baseline, effect=spec.effect, spec=spec)


def gen_example1(seed, noise_variance=2.0) -> SimulatedPanel:
    """Oscillating-violation benchmark: T=11, cohorts at t=8 and t=10.

    The late cohort's baseline carries an alternating +/-1 deviation; the
    treatment effect is +3 in every treated period.
    """
    spec = DGPSpec(
        T=11,
        cohorts=((8, 40), (10, 40)),
        never_size=60,
        noise_sd=float(np.sqrt(noise_variance)),
        violations=(Violation(), Violation("oscillating", 1.0)),
        effect=3.0,
        seed=seed,
    )
    return gen_custom(spec)


def gen_example2(seed, noise_variance=2.0) -> SimulatedPanel:
    """Linear-violation benchmark: as example 1 with a 0.75*t trend instead."""
    spec = DGPSpec(
        T=11,
        cohorts=((8, 40), (10, 40)),
        never_size=60,
        noise_sd=float(np.sqrt(noise_variance)),
        violations=(Violation(), Violation("linear", 0.75)),
        effect=3.0,
        seed=seed,
    )
    return gen_custom(spec)


def gen_toy(seed, sizes, noise_sd=0.0, violations=(), effect=0.0) -> SimulatedPanel:
    """Two-cohort toy panel: T=8, adoption at t=5 and t=7.

    ``sizes`` is (N_5, N_7, N_never).  Yields the 16-cell stacked system used
    by the golden bias-map tests.
    """
    n5, n7, ninf = sizes
    if min(n5, n7, ninf) < 1:
        raise ValueError("all group sizes must be positive")
    spec = DGPSpec(
        T=8,
        cohorts=((5, n5), (7, n7)),
        never_size=ninf,
        noise_sd=noise_sd,
        violations=tuple(violations),
        effect=effect,
        seed=seed,
    )
    return gen_custom(spec)
