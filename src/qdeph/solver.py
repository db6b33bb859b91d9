"""Product-integration solver for the non-Markovian kinetic equation.

The coherence obeys a Volterra integro-differential equation of the generic
shape

    y'(t) = a(t) y(t)
          + int_0^t K_d(t - t') [y(t) - y(t')] dt'
          + int_0^t [K_c(t - t') + g(t) gtilde(t')] y(t') dt'

where the history-difference kernel K_d carries the bath-dynamics memory
(vanishing in the Markovian limit) and the separable g gtilde part keeps the
initial-correlation correction factored (never tabulated as a 2-D kernel).
The full dephasing equation maps onto this with

    a(t)      = i a_init * drive(t)
    K_d(tau)  = -i sigma3_mean * kernel_sin(tau)
    K_c(tau)  = -2 * kernel_cos_th(tau)
    g(t)      = (a_init^2 - 1) * drive(t),   gtilde(t') = drive(t')

Discretization: uniform grid, product-trapezoidal memory integrals, explicit
predictor plus a fixed number of trapezoidal corrector sweeps (PECE); second
order in the step size, O(N^2) work, O(N) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import build_kernel_table
from .model import QubitBathParams, a_init
from .spectral import QuadratureConfig

_WATCHDOG_SLACK = 1e-2
_trapz = getattr(np, "trapezoid", None) or np.trapz


class SolverError(RuntimeError):
    """Time stepping failed (corrector divergence or non-finite update)."""


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid configuration for the Volterra stepper."""

    t_max: float
    n_steps: int
    scheme: str = "trapezoidal_pece"
    corrector_iterations: int = 2

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.scheme != "trapezoidal_pece":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.corrector_iterations < 1:
            raise ValueError("corrector_iterations must be >= 1")

    @property
    def step(self) -> float:
        return self.t_max / self.n_steps


@dataclass
class CoherenceTrajectory:
    """Solution samples on the uniform grid, with growth watchdog flags.

    watchdog[j] marks |values[j]| > |values[0]| * (1 + 1e-2): the approximate
    kinetic equation can genuinely grow the coherence in some regimes, so the
    solver flags rather than suppresses it.
    """

    times: np.ndarray
    values: np.ndarray
    watchdog: np.ndarray = field(default=None)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if self.watchdog is None:
            self.watchdog = (np.abs(self.values)
                             > abs(self.values[0]) * (1.0 + _WATCHDOG_SLACK))
        self.watchdog = np.asarray(self.watchdog, dtype=bool)

    @property
    def watchdog_triggered(self) -> bool:
        return bool(np.any(self.watchdog))


@dataclass(frozen=True)
class TrajectoryDeviation:
    """Modulus and phase deviations between two trajectories."""

    modulus_linf: float
    modulus_l2: float
    phase_linf: float
    phase_l2: float


def history_difference_term(kernel_lags: np.ndarray, history: np.ndarray,
                            y_current: complex, step: float) -> complex:
    """Trapezoidal history-difference integral at the current step.

    kernel_lags[j] = K_d(t_n - t_j) and history[j] = y(t_j) for j = 0..n-1;
    the t' = t endpoint is dropped analytically (its integrand K_d(0) *
    [y(t) - y(t)] vanishes). Computed difference-first, so a constant history
    yields exactly zero term by term.
    """
    kernel_lags = np.asarray(kernel_lags)
    history = np.asarray(history)
    if kernel_lags.shape != history.shape:
        raise ValueError("kernel_lags and history must have equal length")
    n = history.size
    if n == 0:
        return 0.0 + 0.0j
    w = np.ones(n)
    w[0] = 0.5
    return step * complex(np.dot(w * kernel_lags, y_current - history))


def _solve_tabulated(y0: complex, a_vals: np.ndarray,
                     kd_vals: Optional[np.ndarray],
                     kc_vals: Optional[np.ndarray],
                     g_vals: Optional[np.ndarray],
                     gt_vals: Optional[np.ndarray],
                     h: float, n_steps: int,
                     corrector_iterations: int) -> np.ndarray:
    """PECE loop over pre-tabulated grid coefficients."""
    y = np.empty(n_steps + 1, dtype=complex)
    y[0] = y0
    w = np.ones(n_steps + 1)
    w[0] = 0.5

    def rhs(n: int, y_n: complex) -> complex:
        acc = a_vals[n] * y_n
        if n == 0:
            return acc
        hist = y[:n]
        wj = w[:n]
        if kc_vals is not None:
            kc = kc_vals[n:0:-1]
            conv = np.dot(wj * kc, hist) + 0.5 * kc_vals[0] * y_n
            acc += h * conv
        if g_vals is not None:
            sep = np.dot(wj * gt_vals[:n], hist) + 0.5 * gt_vals[n] * y_n
            acc += h * g_vals[n] * sep
        if kd_vals is not None:
            acc += history_difference_term(kd_vals[n:0:-1], hist, y_n, h)
        return acc

    # overflow on the way to a diverging iterate is reported via SolverError,
    # not warning spam
    with np.errstate(over="ignore", invalid="ignore"):
        f_prev = rhs(0, y[0])
        for n in range(1, n_steps + 1):
            y_next = y[n - 1] + h * f_prev
            for _ in range(corrector_iterations):
                y_next = y[n - 1] + 0.5 * h * (f_prev + rhs(n, y_next))
            if not (math.isfinite(y_next.real) and math.isfinite(y_next.imag)):
                raise SolverError(
                    f"corrector diverged at step {n} (t = {n * h:.6g})")
            y[n] = y_next
            f_prev = rhs(n, y_next)
    return y


def solve_generic_volterra(initial: complex,
                           local_rate: Optional[Callable],
                           conv_kernel: Optional[Callable],
                           history_diff_kernel: Optional[Callable],
                           separable_factors: Optional[tuple],
                           cfg: SolverConfig) -> CoherenceTrajectory:
    """Integrate the generic Volterra equation with callable coefficients.

    local_rate: a(t); conv_kernel: K_c(tau); history_diff_kernel: K_d(tau);
    separable_factors: pair (g, gtilde) of functions of t. Any of them may be
    None, dropping the corresponding term.
    """
    h = cfg.step
    times = h * np.arange(cfg.n_steps + 1)

    def tabulate(fn):
        return np.array([complex(fn(t)) for t in times])

    a_vals = (tabulate(local_rate) if local_rate is not None
              else np.zeros(cfg.n_steps + 1, dtype=complex))
    kc_vals = tabulate(conv_kernel) if conv_kernel is not None else None
    kd_vals = (tabulate(history_diff_kernel)
               if history_diff_kernel is not None else None)
    if separable_factors is not None:
        g, gt = separable_factors
        g_vals, gt_vals = tabulate(g), tabulate(gt)
    else:
        g_vals = gt_vals = None

    values = _solve_tabulated(complex(initial), a_vals, kd_vals, kc_vals,
                              g_vals, gt_vals, h, cfg.n_steps,
                              cfg.corrector_iterations)
    return CoherenceTrajectory(times=times, values=values)


def solve_full_equation(p: QubitBathParams, cfg: SolverConfig,
                        qcfg: Optional[QuadratureConfig] = None,
                        include_bath_dynamics: bool = True) -> CoherenceTrajectory:
    """Integrate the full kinetic equation for the coherence.

    include_bath_dynamics=False disables the history-difference term while
    keeping the (a_init^2 - 1) separable correction: the frozen-bath (ZN)
    branch of the same equation.
    """
    qcfg = qcfg or QuadratureConfig()
    h = cfg.step
    table = build_kernel_table(p.spectral, p.beta, h, cfg.n_steps, qcfg)
    a = a_init(p)

    a_vals = 1j * a * table.drive
    kc_vals = (-2.0 * table.k_cos_th).astype(complex)
    g_vals = ((a * a - 1.0) * table.drive).astype(complex)
    gt_vals = table.drive.astype(complex)
    kd_vals = None
    if include_bath_dynamics and p.sigma3_mean != 0.0:
        kd_vals = -1j * p.sigma3_mean * table.k_sin

    values = _solve_tabulated(p.initial_coherence, a_vals, kd_vals, kc_vals,
                              g_vals, gt_vals, h, cfg.n_steps,
                              cfg.corrector_iterations)
    times = h * np.arange(cfg.n_steps + 1)
    return CoherenceTrajectory(times=times, values=values)


def compare_trajectories(a: CoherenceTrajectory,
                         b: CoherenceTrajectory) -> TrajectoryDeviation:
    """Modulus and phase deviation metrics over the common grid.

    L-infinity is the max pointwise deviation; the discrete L2 metric is
    sqrt(trapz(deviation^2, t)). Phase deviations are computed from
    angle(a * conj(b)), so they stay wrapped to (-pi, pi].
    """
    if a.times.shape != b.times.shape or not np.allclose(
            a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories live on different time grids")
    dmod = np.abs(np.abs(a.values) - np.abs(b.values))
    dphase = np.abs(np.angle(a.values * np.conj(b.values)))
    return TrajectoryDeviation(
        modulus_linf=float(np.max(dmod)),
        modulus_l2=float(math.sqrt(_trapz(dmod ** 2, a.times))),
        phase_linf=float(np.max(dphase)),
        phase_l2=float(math.sqrt(_trapz(dphase ** 2, a.times))))
