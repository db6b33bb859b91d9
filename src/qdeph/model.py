"""Qubit-bath parameters and closed-form coherence of the dephasing model.

A qubit with level splitting omega0 couples longitudinally to a bosonic bath
prepared, together with the qubit, by a selective measurement at t = 0 that
leaves level inversion sigma3_mean and qubit-bath correlations behind. The
coherence then evolves as

    coherence(t) = initial_coherence * exp(i chi(t) - gamma(t))

with the phase shift chi driven by the initial correlations and the
decoherence exponent gamma split into vacuum, thermal and correlational
parts. Beyond the lowest Markovian order the bath-dynamics memory renormalizes
chi and gamma; the renormalized values chi_renorm / gamma_renorm are obtained
from the weight function F(t) (see kernels.big_f). The correlational part
also has an exact closed form, used as the benchmark the approximate
exponents are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import (
    _adaptive_simpson,
    _ohmic_big_f,
    _transform,
    _use_closed_form,
    big_f,
    decoherence_rate,
    drive,
    gamma_th,
    gamma_vac,
    phi,
)
from .spectral import QuadratureConfig, SpectralDensity

_BLOCH_SLACK = 1e-12


@dataclass(frozen=True)
class QubitBathParams:
    """Physical state of the dephasing problem.

    omega0: qubit level splitting, beta: inverse temperature (k_B = 1),
    sigma3_mean: initial level inversion in [-1, 1], spectral: bath spectral
    density, initial_coherence: complex coherence at t = 0 (defaults to the
    maximal real value sqrt(1 - sigma3_mean^2)/2 allowed by Bloch-ball
    positivity).
    """

    omega0: float
    beta: float
    sigma3_mean: float
    spectral: SpectralDensity
    initial_coherence: Optional[complex] = None

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not -1.0 <= self.sigma3_mean <= 1.0:
            raise ValueError(
                f"sigma3_mean must lie in [-1, 1], got {self.sigma3_mean}")
        bound = 0.25 * (1.0 - self.sigma3_mean ** 2)
        if self.initial_coherence is None:
            object.__setattr__(self, "initial_coherence",
                               complex(math.sqrt(bound)))
        else:
            object.__setattr__(self, "initial_coherence",
                               complex(self.initial_coherence))
            if abs(self.initial_coherence) ** 2 > bound + _BLOCH_SLACK:
                raise ValueError(
                    "initial_coherence violates Bloch-ball positivity: "
                    f"|c|^2 = {abs(self.initial_coherence) ** 2:.6g} > "
                    f"(1 - sigma3_mean^2)/4 = {bound:.6g}")


@dataclass(frozen=True)
class DecoherenceBreakdown:
    """All coherence exponents evaluated at one time."""

    t: float
    chi: float
    gamma_vac: float
    gamma_th: float
    gamma_cor: float
    gamma_cor_exact: float
    chi_renorm: float
    gamma_renorm: float
    gamma_cor_renorm: float
    f_of_t: float


# ---------------------------------------------------------------------------
# initial-correlation coefficients

def a_init(p: QubitBathParams) -> float:
    """Initial-correlation parameter of the selectively prepared state.

    Equals [sinh(x) - m cosh(x)] / [cosh(x) - m sinh(x)] with x = beta
    omega0 / 2 and m = sigma3_mean, evaluated in the overflow-free form
    (tanh x - m) / (1 - m tanh x). Lies in (-1, 1); reduces to tanh(x) for
    m = 0 and to -m as beta -> 0.
    """
    x = 0.5 * p.beta * p.omega0
    th = math.tanh(x)
    return (th - p.sigma3_mean) / (1.0 - p.sigma3_mean * th)


def c_factor(p: QubitBathParams) -> float:
    """Squared correlation weight C = (1 - m^2) / [cosh(x) - m sinh(x)]^2.

    Computed as (1 - m^2)(1 - tanh^2 x)/(1 - m tanh x)^2 to avoid overflow;
    satisfies a_init^2 - 1 = -C identically and 0 <= C <= 1.
    """
    x = 0.5 * p.beta * p.omega0
    th = math.tanh(x)
    m = p.sigma3_mean
    return (1.0 - m ** 2) * (1.0 - th ** 2) / (1.0 - m * th) ** 2


# ---------------------------------------------------------------------------
# phase shift and decoherence exponents

def phase_shift(p: QubitBathParams, t: float,
                cfg: Optional[QuadratureConfig] = None) -> float:
    """Correlation-induced phase shift chi(t) = a_init * phi(t)."""
    a = a_init(p)
    if a == 0.0:
        return 0.0
    return a * phi(p.spectral, t, cfg)


def gamma_cor(p: QubitBathParams, t: float,
              cfg: Optional[QuadratureConfig] = None) -> float:
    """Correlational decoherence exponent (C/2) * phi(t)^2 (4th order form)."""
    c = c_factor(p)
    if c == 0.0:
        return 0.0
    return 0.5 * c * phi(p.spectral, t, cfg) ** 2


def exact_correlational_decoherence(c: float, phi_value: float) -> float:
    """Exact correlational exponent -(1/2) ln(1 - C sin^2 phi).

    Raises ValueError when the log argument is non-positive (C sin^2 phi >= 1,
    reachable only when C = 1 and phi hits an odd multiple of pi/2); a clamp
    here would silently misreport the benchmark.
    """
    arg = c * math.sin(phi_value) ** 2
    if arg >= 1.0:
        raise ValueError(
            "exact correlational exponent undefined: log argument "
            f"1 - C sin^2(phi) = {1.0 - arg:.6g} <= 0 "
            f"(C = {c:.6g}, phi = {phi_value:.6g})")
    return -0.5 * math.log1p(-arg)


def gamma_cor_exact(p: QubitBathParams, t: float,
                    cfg: Optional[QuadratureConfig] = None) -> float:
    """Exact correlational decoherence exponent at time t."""
    c = c_factor(p)
    if c == 0.0:
        return 0.0
    return exact_correlational_decoherence(c, phi(p.spectral, t, cfg))


# ---------------------------------------------------------------------------
# renormalized (beyond lowest Markovian order) quantities

def _renorm_chi_correction(p: QubitBathParams, t: float,
                           cfg: QuadratureConfig) -> float:
    """int_0^t F(u) d[gamma_vac + gamma_th]/du du with analytic integrands."""
    if p.sigma3_mean == 0.0 or t == 0.0:
        return 0.0
    g = lambda u: (big_f(p.spectral, p.sigma3_mean, u, cfg)
                   * decoherence_rate(p.spectral, p.beta, u, cfg))
    return _adaptive_simpson(g, 0.0, t, cfg.abs_tol)


def _renorm_gamma_correction(p: QubitBathParams, t: float,
                             cfg: QuadratureConfig) -> float:
    """int_0^t F(u) dchi/du du, with dchi/du = a_init * drive(u)."""
    a = a_init(p)
    if p.sigma3_mean == 0.0 or a == 0.0 or t == 0.0:
        return 0.0
    g = lambda u: (big_f(p.spectral, p.sigma3_mean, u, cfg)
                   * a * drive(p.spectral, u, cfg))
    return _adaptive_simpson(g, 0.0, t, cfg.abs_tol)


def renorm_chi(p: QubitBathParams, t: float,
               cfg: Optional[QuadratureConfig] = None) -> float:
    """Renormalized phase shift chi_renorm = chi + int F d(gamma_vac+gamma_th).

    The memory of the bath dynamics feeds the decoherence growth rate back
    into the phase; the correction vanishes identically for sigma3_mean = 0.
    """
    cfg = cfg or QuadratureConfig()
    return phase_shift(p, t, cfg) + _renorm_chi_correction(p, t, cfg)


def renorm_gamma_cor(p: QubitBathParams, t: float,
                     cfg: Optional[QuadratureConfig] = None) -> float:
    """Renormalized correlational exponent gamma_cor - int_0^t F dchi."""
    cfg = cfg or QuadratureConfig()
    return gamma_cor(p, t, cfg) - _renorm_gamma_correction(p, t, cfg)


def renorm_gamma(p: QubitBathParams, t: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Full renormalized decoherence exponent.

    gamma_vac + gamma_th + renorm_gamma_cor, so that
    renorm_gamma - renorm_gamma_cor = gamma_vac + gamma_th exactly.
    """
    cfg = cfg or QuadratureConfig()
    return (gamma_vac(p.spectral, t, cfg) + gamma_th(p.spectral, p.beta, t, cfg)
            + renorm_gamma_cor(p, t, cfg))


# ---------------------------------------------------------------------------
# closed-form coherence trajectories

_BRANCHES = ("zn", "renormalized")


def ma_coherence(p: QubitBathParams, t: float,
                 cfg: Optional[QuadratureConfig] = None,
                 branch: str = "zn") -> complex:
    """Markovian-approximation coherence at time t.

    branch "zn": initial_coherence * exp[i chi - (gamma_vac + gamma_th +
    gamma_cor)] (frozen-bath scheme). branch "renormalized": same with the
    memory-renormalized exponents chi_renorm and gamma_renorm.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    cfg = cfg or QuadratureConfig()
    if branch == "zn":
        chi = phase_shift(p, t, cfg)
        gam = (gamma_vac(p.spectral, t, cfg)
               + gamma_th(p.spectral, p.beta, t, cfg) + gamma_cor(p, t, cfg))
    else:
        chi = renorm_chi(p, t, cfg)
        gam = renorm_gamma(p, t, cfg)
    return p.initial_coherence * complex(math.cos(chi), math.sin(chi)) * math.exp(-gam)


# ---------------------------------------------------------------------------
# breakdowns

def breakdown(p: QubitBathParams, t: float,
              cfg: Optional[QuadratureConfig] = None) -> DecoherenceBreakdown:
    """All exponents of the coherence at a single time."""
    cfg = cfg or QuadratureConfig()
    chi = phase_shift(p, t, cfg)
    gv = gamma_vac(p.spectral, t, cfg)
    gt = gamma_th(p.spectral, p.beta, t, cfg)
    gc = gamma_cor(p, t, cfg)
    gce = gamma_cor_exact(p, t, cfg)
    gcr = renorm_gamma_cor(p, t, cfg)
    return DecoherenceBreakdown(
        t=t, chi=chi, gamma_vac=gv, gamma_th=gt, gamma_cor=gc,
        gamma_cor_exact=gce,
        chi_renorm=chi + _renorm_chi_correction(p, t, cfg),
        gamma_renorm=gv + gt + gcr,
        gamma_cor_renorm=gcr,
        f_of_t=big_f(p.spectral, p.sigma3_mean, t, cfg))


def breakdown_grid(p: QubitBathParams, t_grid,
                   cfg: Optional[QuadratureConfig] = None) -> list[DecoherenceBreakdown]:
    """Breakdowns on an increasing time grid starting at 0.

    The frequency transforms are evaluated for the whole grid at once
    (shared omega nodes) and the renormalization time-integrals accumulate
    by composite Simpson with interval midpoints, so the cost stays linear
    in the grid size.
    """
    cfg = cfg or QuadratureConfig()
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("t_grid must be a one-dimensional, non-empty grid")
    if ts[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")

    # union grid: original points interleaved with interval midpoints
    full = np.empty(2 * ts.size - 1)
    full[0::2] = ts
    full[1::2] = 0.5 * (ts[:-1] + ts[1:])

    J, beta, m = p.spectral, p.beta, p.sigma3_mean
    # the rate's grid transform comes before gamma_th's: in the other order,
    # a two-thread sweep (8 lambda values, 200 points) peaked at ~141 MiB
    # instead of ~118 MiB over 30 s of repeated sweeps
    phi_full, gvac_full, drive_full, rate_full, gth_full = (
        _transform(name, J, beta, full, cfg) for name in (
            "phi", "gamma_vac", "drive", "decoherence_rate", "gamma_th"))
    if _use_closed_form(J, cfg):
        f_full = _ohmic_big_f(J, m, full)
    else:
        f_full = np.array([big_f(J, m, u, cfg) for u in full])

    a = a_init(p)
    c = c_factor(p)

    def cumulative(values: np.ndarray) -> np.ndarray:
        """Cumulative Simpson over the original grid using midpoints."""
        out = np.zeros(ts.size)
        steps = np.diff(ts)
        chunks = (steps / 6.0) * (values[0:-2:2] + 4.0 * values[1::2]
                                  + values[2::2])
        out[1:] = np.cumsum(chunks)
        return out

    chi_corr = cumulative(f_full * rate_full)
    gam_corr = cumulative(f_full * a * drive_full)

    phis = phi_full[0::2]
    arg = c * np.sin(phis) ** 2
    if np.any(arg >= 1.0):
        bad = ts[np.argmax(arg >= 1.0)]
        raise ValueError(
            f"exact correlational exponent undefined at t = {bad:.6g}: "
            "log argument 1 - C sin^2(phi) <= 0")
    gce = -0.5 * np.log1p(-arg)

    out = []
    for j, t in enumerate(ts):
        gv, gt, ph = gvac_full[2 * j], gth_full[2 * j], phis[j]
        gc = 0.5 * c * ph ** 2
        gcr = gc - gam_corr[j]
        out.append(DecoherenceBreakdown(
            t=float(t), chi=a * ph, gamma_vac=float(gv), gamma_th=float(gt),
            gamma_cor=float(gc), gamma_cor_exact=float(gce[j]),
            chi_renorm=float(a * ph + chi_corr[j]),
            gamma_renorm=float(gv + gt + gcr),
            gamma_cor_renorm=float(gcr),
            f_of_t=float(f_full[2 * j])))
    return out
