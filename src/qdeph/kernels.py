"""Memory kernels and decoherence transforms of the bath spectral density.

All quantities are frequency integrals against J(omega):

    phi(t)             int J sin(omega t) / omega^2        phase accumulation
    gamma_vac(t)       int J (1 - cos(omega t)) / omega^2  vacuum decoherence
    gamma_th(t)        int J (coth(beta omega/2) - 1) (1 - cos) / omega^2
    kernel_sin(tau)    int J sin(omega tau)                memory kernel, odd part
    kernel_cos_th(tau) (1/2) int J coth(beta omega/2) cos(omega tau)
    drive(t)           int (J / omega) cos(omega t)        local drive term
    decoherence_rate   int (J / omega) coth(beta omega/2) sin(omega t)
                       = d/dt [gamma_vac + gamma_th]
    big_f(t)           sigma3_mean * int_0^t tau kernel_sin(tau) d tau

Each transform is defined once, in ``_TRANSFORMS``: its integrand, trig kind,
origin power, tail scale and, where one exists, its Ohmic (s = 1) closed
form, used unless the quadrature config sets force_quadrature; the thermal
transforms always go through quadrature. ``_transform`` evaluates one on an
array of times with the vectorised grid transform, or at a single time with
the scalar quadrature. The public scalar functions, ``build_kernel_table``
and ``model.breakdown_grid`` all evaluate through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .spectral import (
    QuadratureConfig,
    SpectralDensity,
    integrate_oscillatory,
    oscillatory_grid,
)

# below omega = 1e-8 * omega_c thermal factors switch to their Laurent limits
_COTH_SMALL = 1e-4


def _coth(x: np.ndarray) -> np.ndarray:
    """coth(x) for positive array x: 1 + 2/expm1(2x), Laurent below 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _COTH_SMALL
    xs = x[small]
    out[small] = 1.0 / xs + xs / 3.0
    xl = np.minimum(x[~small], 350.0)  # keeps 2x below the exp overflow edge
    out[~small] = 1.0 + 2.0 / np.expm1(2.0 * xl)
    return out


def _coth_minus_one(x: np.ndarray) -> np.ndarray:
    """coth(x) - 1 without cancellation: 2/expm1(2x), Laurent below 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _COTH_SMALL
    xs = x[small]
    out[small] = 1.0 / xs - 1.0 + xs / 3.0
    xl = np.minimum(x[~small], 350.0)
    out[~small] = 2.0 / np.expm1(2.0 * xl)
    return out


def _use_closed_form(spectral: SpectralDensity, cfg: QuadratureConfig) -> bool:
    return spectral.s == 1.0 and not cfg.force_quadrature


def _check_beta(beta: float) -> None:
    if not beta > 0.0:
        raise ValueError(f"inverse temperature beta must be > 0, got {beta}")


# ---------------------------------------------------------------------------
# the transforms

class _Transform(NamedTuple):
    """One frequency transform int f(omega) trig(omega t) d omega of J.

    integrand(J, beta, omega) is f, which goes like omega**(s + origin) at
    the origin; thermal marks an integrand that decays like
    exp(-(1/omega_c + beta) omega) rather than exp(-omega/omega_c). ohmic,
    when given, is the s = 1 closed form as a function of (coupling,
    omega_c, omega_c t); ohmic_rest names a transform added to it.
    """

    kind: str
    integrand: Callable
    origin: float
    thermal: bool = False
    ohmic: Optional[Callable] = None
    ohmic_rest: Optional[str] = None


def _j_over_w2(J, beta, w):
    return J.evaluate(w) / w ** 2


_TRANSFORMS = {
    "phi": _Transform(
        "sine", _j_over_w2, -2.0,
        ohmic=lambda lam, om, wt: lam * np.arctan(wt)),
    "gamma_vac": _Transform(
        "one_minus_cosine", _j_over_w2, -2.0,
        ohmic=lambda lam, om, wt: 0.5 * lam * np.log1p(wt ** 2)),
    "gamma_th": _Transform(
        "one_minus_cosine",
        lambda J, beta, w: (J.evaluate(w) * _coth_minus_one(0.5 * beta * w)
                            / w ** 2),
        -3.0, thermal=True),
    "kernel_sin": _Transform(
        "sine", lambda J, beta, w: J.evaluate(w), 0.0,
        ohmic=lambda lam, om, wt: (2.0 * lam * om ** 2 * wt
                                   / (1.0 + wt ** 2) ** 2)),
    "kernel_cos_th": _Transform(
        "cosine",
        lambda J, beta, w: 0.5 * J.evaluate(w) * _coth(0.5 * beta * w), -1.0),
    "drive": _Transform(
        "cosine", lambda J, beta, w: J.evaluate(w) / w, -1.0,
        ohmic=lambda lam, om, wt: lam * om / (1.0 + wt ** 2)),
    # for s = 1 the vacuum part is taken in closed form and only the thermal
    # remainder is integrated
    "decoherence_rate": _Transform(
        "sine", lambda J, beta, w: J.evaluate(w) / w * _coth(0.5 * beta * w),
        -2.0, ohmic=lambda lam, om, wt: lam * om * wt / (1.0 + wt ** 2),
        ohmic_rest="thermal_rate"),
    "thermal_rate": _Transform(
        "sine",
        lambda J, beta, w: J.evaluate(w) / w * _coth_minus_one(0.5 * beta * w),
        -2.0, thermal=True),
}


def _transform(name: str, spectral: SpectralDensity, beta: Optional[float],
               t, cfg: Optional[QuadratureConfig] = None):
    """Transform ``name`` of J at t: a float at a scalar t, else an array.

    An array of times shares one grid transform; a scalar time goes through
    integrate_oscillatory, whose cost stays bounded at large t.
    """
    cfg = cfg or QuadratureConfig()
    tr = _TRANSFORMS[name]
    scalar = np.ndim(t) == 0
    if tr.ohmic is not None and _use_closed_form(spectral, cfg):
        om = spectral.omega_c
        value = tr.ohmic(spectral.coupling, om, om * t)
        if tr.ohmic_rest is not None:
            value = value + _transform(tr.ohmic_rest, spectral, beta, t, cfg)
        return float(value) if scalar else value
    f = lambda w: tr.integrand(spectral, beta, w)
    scale = (1.0 / (1.0 / spectral.omega_c + beta) if tr.thermal
             else spectral.omega_c)
    integrate = integrate_oscillatory if scalar else oscillatory_grid
    return integrate(f, tr.kind, t, cfg, origin_power=spectral.s + tr.origin,
                     tail_scale=scale)


def _ohmic_big_f(spectral: SpectralDensity, sigma3_mean: float, t):
    """F(t) for s = 1 at a scalar t or an array of times."""
    wt = spectral.omega_c * t
    return (spectral.coupling * sigma3_mean
            * (np.arctan(wt) - wt / (1.0 + wt ** 2)))


# ---------------------------------------------------------------------------
# scalar transforms

def phi(spectral: SpectralDensity, t: float,
        cfg: Optional[QuadratureConfig] = None) -> float:
    """Phase integral int_0^inf J(omega) sin(omega t) / omega^2 d omega.

    For s = 1 this is coupling * arctan(omega_c t).
    """
    return _transform("phi", spectral, None, t, cfg)


def gamma_vac(spectral: SpectralDensity, t: float,
              cfg: Optional[QuadratureConfig] = None) -> float:
    """Vacuum decoherence exponent int J (1 - cos(omega t)) / omega^2.

    For s = 1 this is (coupling/2) * log(1 + omega_c^2 t^2).
    """
    return _transform("gamma_vac", spectral, None, t, cfg)


def gamma_th(spectral: SpectralDensity, beta: float, t: float,
             cfg: Optional[QuadratureConfig] = None) -> float:
    """Thermal decoherence exponent.

    int J (coth(beta omega / 2) - 1) (1 - cos(omega t)) / omega^2; always
    evaluated by quadrature. The thermal factor decays like exp(-beta omega),
    so the effective tail scale shortens accordingly.
    """
    _check_beta(beta)
    return _transform("gamma_th", spectral, beta, t, cfg)


def kernel_sin(spectral: SpectralDensity, tau: float,
               cfg: Optional[QuadratureConfig] = None) -> float:
    """Odd memory kernel int_0^inf J(omega) sin(omega tau) d omega.

    For s = 1: 2 coupling omega_c^3 tau / (1 + omega_c^2 tau^2)^2.
    """
    return _transform("kernel_sin", spectral, None, tau, cfg)


def kernel_cos_th(spectral: SpectralDensity, beta: float, tau: float,
                  cfg: Optional[QuadratureConfig] = None) -> float:
    """Even thermal memory kernel (1/2) int J coth(beta omega/2) cos(omega tau).

    Always evaluated by quadrature (the thermal factor has no elementary
    transform).
    """
    _check_beta(beta)
    return _transform("kernel_cos_th", spectral, beta, tau, cfg)


def drive(spectral: SpectralDensity, t: float,
          cfg: Optional[QuadratureConfig] = None) -> float:
    """Local drive coefficient int_0^inf (J(omega)/omega) cos(omega t) d omega.

    At t = 0 equals coupling * omega_c * Gamma(s); for s = 1 it is
    coupling * omega_c / (1 + omega_c^2 t^2).
    """
    return _transform("drive", spectral, None, t, cfg)


def decoherence_rate(spectral: SpectralDensity, beta: float, t: float,
                     cfg: Optional[QuadratureConfig] = None) -> float:
    """Growth rate of the decoherence exponent, d/dt [gamma_vac + gamma_th].

    Equals int_0^inf (J(omega)/omega) coth(beta omega/2) sin(omega t) d omega.
    For s = 1 the vacuum part coupling omega_c^2 t / (1 + omega_c^2 t^2) is
    taken in closed form and only the thermal remainder is integrated.
    """
    _check_beta(beta)
    return _transform("decoherence_rate", spectral, beta, t, cfg)


# ---------------------------------------------------------------------------
# nested time integral

def _adaptive_simpson(g, a: float, b: float, tol: float,
                      max_depth: int = 24) -> float:
    """Adaptive Simpson rule for a smooth scalar integrand on [a, b]."""
    if b <= a:
        return 0.0
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(x0, x1, f0, fmid, f1, whole01, tol01, depth):
        m = 0.5 * (x0 + x1)
        lm, rm = 0.5 * (x0 + m), 0.5 * (m + x1)
        flm, frm = g(lm), g(rm)
        left = (m - x0) / 6.0 * (f0 + 4.0 * flm + fmid)
        right = (x1 - m) / 6.0 * (fmid + 4.0 * frm + f1)
        delta = left + right - whole01
        if depth <= 0 or abs(delta) <= 15.0 * tol01:
            return left + right + delta / 15.0
        return (rec(x0, m, f0, flm, fmid, left, 0.5 * tol01, depth - 1)
                + rec(m, x1, fmid, frm, f1, right, 0.5 * tol01, depth - 1))

    return rec(a, b, fa, fm, fb, whole, tol, max_depth)


def big_f(spectral: SpectralDensity, sigma3_mean: float, t: float,
          cfg: Optional[QuadratureConfig] = None) -> float:
    """Memory-asymmetry weight F(t) = sigma3_mean int_0^t tau kernel_sin(tau).

    Odd in sigma3_mean by construction. For s = 1:
    coupling * sigma3_mean * (arctan(omega_c t) - omega_c t/(1 + omega_c^2 t^2)).
    """
    cfg = cfg or QuadratureConfig()
    if sigma3_mean == 0.0 or t == 0.0:
        return 0.0
    if _use_closed_form(spectral, cfg):
        return float(_ohmic_big_f(spectral, sigma3_mean, t))
    g = lambda tau: tau * kernel_sin(spectral, tau, cfg)
    return sigma3_mean * _adaptive_simpson(g, 0.0, t, cfg.abs_tol)


# ---------------------------------------------------------------------------
# tabulated kernels for the solver

@dataclass(frozen=True)
class KernelTable:
    """Kernels sampled on the uniform lag grid tau_j = j * step, j = 0..count.

    k_sin[j] = kernel_sin(tau_j), k_cos_th[j] = kernel_cos_th(tau_j),
    drive[j] = drive(tau_j).
    """

    step: float
    count: int
    k_sin: np.ndarray
    k_cos_th: np.ndarray
    drive: np.ndarray

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be > 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        for name in ("k_sin", "k_cos_th", "drive"):
            arr = getattr(self, name)
            if arr.shape != (self.count + 1,):
                raise ValueError(f"{name} must have shape ({self.count + 1},)")
        if self.k_sin[0] != 0.0:
            raise ValueError("k_sin must vanish at zero lag")

    @property
    def taus(self) -> np.ndarray:
        return self.step * np.arange(self.count + 1)

    def write_csv(self, path) -> None:
        """Dump the table as CSV (j, tau, k_sin, k_cos_th, drive)."""
        with open(path, "w", newline="") as fh:
            fh.write("j,tau,k_sin,k_cos_th,drive\n")
            for j in range(self.count + 1):
                fh.write("%d,%.17g,%.17g,%.17g,%.17g\n"
                         % (j, j * self.step, self.k_sin[j],
                            self.k_cos_th[j], self.drive[j]))


def build_kernel_table(spectral: SpectralDensity, beta: float, step: float,
                       count: int,
                       cfg: Optional[QuadratureConfig] = None) -> KernelTable:
    """Tabulate k_sin, k_cos_th and drive on tau_j = j * step, j = 0..count.

    Uses the s = 1 closed forms where available; everything else goes through
    the vectorised grid transform (one shared omega-node set per kernel).
    """
    cfg = cfg or QuadratureConfig()
    _check_beta(beta)
    taus = step * np.arange(count + 1)
    return KernelTable(
        step=step, count=count,
        k_sin=_transform("kernel_sin", spectral, beta, taus, cfg),
        drive=_transform("drive", spectral, beta, taus, cfg),
        k_cos_th=_transform("kernel_cos_th", spectral, beta, taus, cfg))
