"""Bath spectral density and oscillatory integrals over the positive frequency axis.

Everything downstream (memory kernels, decoherence exponents) reduces to
integrals of the form

    I(t) = int_0^inf f(omega) * trig(omega * t) d omega

with trig one of cos, sin, or (1 - cos), and f built from the spectral
density J(omega) = coupling * omega_c**(1-s) * omega**s * exp(-omega/omega_c).
The engine here assumes f decays essentially exponentially on the scale
``tail_scale`` (true for every integrand in this package) and handles
integrable power-law behaviour at the origin via ``origin_power``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

logger = logging.getLogger(__name__)

_KINDS = ("cosine", "sine", "one_minus_cosine")

# extra power of omega contributed by the trig factor at the origin
_TRIG_ORIGIN_POWER = {"cosine": 0.0, "sine": 1.0, "one_minus_cosine": 2.0}


class QuadratureError(RuntimeError):
    """Oscillatory integral failed to reach the requested tolerance.

    Carries the best value obtained so far in ``estimate`` (an array, one
    value per time, from oscillatory_grid) together with the achieved error
    bound in ``achieved``, so callers can log or inspect what the engine
    managed before giving up.
    """

    def __init__(self, message: str, estimate: float = math.nan,
                 achieved: float = math.inf):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and effort caps for the oscillatory integrator.

    abs_tol / rel_tol: convergence targets; an integral is accepted once the
        internal error estimate drops below max(abs_tol, rel_tol * |value|).
    max_refinements: cap on panel-doubling / segment-subdivision levels.
    tail_segments: size of the window of alternating half-period lobes fed to
        the series accelerator in one go.
    force_quadrature: disable closed-form fast paths downstream (kernel and
        exponent functions fall back to numerical transforms; used to test
        that the two routes agree).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_refinements: int = 8
    tail_segments: int = 40
    force_quadrature: bool = False

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if self.tail_segments < 2:
            raise ValueError("tail_segments must be >= 2")


@dataclass(frozen=True)
class SpectralDensity:
    """Power-law spectral density with exponential cutoff.

    J(omega) = coupling * omega_c**(1-s) * omega**s * exp(-omega/omega_c)

    coupling is the dimensionless interaction strength, omega_c the cutoff
    frequency, s the low-frequency exponent (s=1 is the Ohmic case, s<1
    sub-Ohmic, s>1 super-Ohmic).
    """

    coupling: float
    omega_c: float
    s: float

    def __post_init__(self):
        if not self.coupling >= 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")

    def evaluate(self, omega):
        """J(omega) for scalar or array omega; omega must be >= 0."""
        w = np.asarray(omega, dtype=float)
        if np.any(w < 0.0):
            raise ValueError("spectral density is defined for omega >= 0")
        out = (self.coupling * self.omega_c ** (1.0 - self.s)
               * w ** self.s * np.exp(-w / self.omega_c))
        if np.isscalar(omega) or np.ndim(omega) == 0:
            return float(out)
        return out


# ---------------------------------------------------------------------------
# Gauss-Legendre panels

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def _panel(h: Callable, a: float, b: float, npts: int = 16) -> float:
    """Integral of h over [a, b] with npts-point Gauss-Legendre."""
    x, w = _gl_nodes(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, h(mid + half * x)))


def _panel_refined(h: Callable, a: float, b: float, tol: float,
                   depth: int) -> tuple[float, float]:
    """Panel integral with bisection refinement; returns (value, error est)."""
    coarse = _panel(h, a, b, 8)
    fine = _panel(h, a, b, 16)
    err = abs(fine - coarse)
    if err <= tol or depth <= 0:
        return fine, err
    m = 0.5 * (a + b)
    v1, e1 = _panel_refined(h, a, m, 0.5 * tol, depth - 1)
    v2, e2 = _panel_refined(h, m, b, 0.5 * tol, depth - 1)
    return v1 + v2, e1 + e2


def _smoothing_exponent(alpha: float) -> int:
    """Integer q for the substitution w = v**q that tames w**alpha at 0.

    If q * alpha is an integer the substituted integrand is analytic at
    v = 0 (every w**(alpha+k) term maps to an integer power of v); otherwise
    pick q large enough that the leading exponent q*(alpha+1) - 1 is >= 11,
    which leaves enough smooth derivatives for the panels to converge.
    """
    for q in range(2, 17):
        if abs(q * alpha - round(q * alpha)) < 1e-9:
            return q
    return max(2, math.ceil(12.0 / (1.0 + alpha)))


def _origin_panel(h: Callable, b: float, alpha: float, tol: float,
                  depth: int) -> tuple[float, float]:
    """Integral of h over [0, b] where h(w) ~ w**alpha near 0, alpha > -1.

    Substituting w = v**q gives integrand h(v**q) * q * v**(q-1), whose
    leading behaviour is v**(q*(alpha+1) - 1): integrable becomes smooth.
    """
    if alpha <= -1.0:
        raise ValueError("origin exponent must be > -1 for an integrable origin")
    q = _smoothing_exponent(alpha)

    def g(v):
        w = v ** q
        return h(w) * q * v ** (q - 1)

    return _panel_refined(g, 0.0, b ** (1.0 / q), tol, depth)


def _needs_substitution(alpha: Optional[float]) -> bool:
    if alpha is None:
        return False
    return alpha < 0.0 or abs(alpha - round(alpha)) > 1e-9


# ---------------------------------------------------------------------------
# truncation of the upper limit

def _truncation_point(f: Callable, cfg: QuadratureConfig,
                      tail_scale: float) -> float:
    """Upper limit W with the discarded tail below the absolute tolerance.

    Relies on f decaying at least exponentially on the scale ``tail_scale``
    beyond a few tens of that scale; the tail beyond W is then bounded by
    roughly |f(W)| * tail_scale.
    """
    w_lim = 40.0 * tail_scale
    target = 0.1 * cfg.abs_tol
    for _ in range(12):
        bound = abs(float(np.max(np.abs(f(np.array([w_lim])))))) * tail_scale * 4.0
        if bound <= target or not math.isfinite(bound):
            break
        w_lim *= 1.5
    return w_lim


# ---------------------------------------------------------------------------
# alternating-series acceleration (repeated averaging of partial sums)

def _accelerate(terms: np.ndarray) -> tuple[float, float]:
    """Sum an alternating-sign tail from a finite window of its terms.

    Uses van Wijngaarden / Euler repeated averaging of the partial sums;
    returns (sum estimate, error estimate).
    """
    rows = np.cumsum(terms)
    prev = rows[-1]
    est = abs(prev)
    while rows.size > 1:
        rows = 0.5 * (rows[:-1] + rows[1:])
        est = abs(rows[-1] - prev)
        prev = rows[-1]
    return float(prev), float(est)


# ---------------------------------------------------------------------------
# integration strategies

def _trig(kind: str, phase):
    """The trig factor of ``kind`` at phase = omega * t."""
    if kind == "cosine":
        return np.cos(phase)
    if kind == "sine":
        return np.sin(phase)
    # 1 - cos(x) written as 2 sin^2(x/2): exact cancellation-free form
    return 2.0 * np.sin(0.5 * phase) ** 2


def _zero_split(f: Callable, kind: str, t: float, w_lim: float,
                cfg: QuadratureConfig, alpha: Optional[float]) -> tuple[float, float]:
    """Large-t path: split at the zeros of the trig factor and sum the lobes.

    Consecutive lobes alternate in sign for a decaying f, so once the direct
    partial sum stabilises the remaining tail is summed by series
    acceleration over windows of ``tail_segments`` lobes.
    """
    h = lambda w: f(w) * _trig(kind, w * t)
    half = math.pi / t

    # lattice of trig zeros: sine vanishes at k*pi/t, cosine at (k-1/2)*pi/t
    def edge(k: int) -> float:
        if kind == "sine":
            return k * half
        return 0.0 if k == 0 else (k - 0.5) * half

    n_seg = int(math.ceil(w_lim / half)) + 2
    seg_tol = cfg.abs_tol / max(n_seg, 1)

    def segment(k: int) -> float:
        a, b = edge(k), edge(k + 1)
        if k == 0 and _needs_substitution(alpha):
            v, _ = _origin_panel(h, b, alpha, seg_tol, cfg.max_refinements)
            return v
        v, _ = _panel_refined(h, a, b, seg_tol, cfg.max_refinements)
        return v

    n_direct = min(8, n_seg)
    base = sum(segment(k) for k in range(n_direct))

    k = n_direct
    while k < n_seg:
        window = min(cfg.tail_segments, n_seg - k)
        terms = np.array([segment(k + j) for j in range(window)])
        k += window
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(base))
        if np.max(np.abs(terms)) <= 0.1 * tol:
            return base + float(np.sum(terms)), abs(terms[-1]) + 0.1 * tol
        accel, est = _accelerate(terms)
        if est <= tol:
            return base + accel, est
        base += float(np.sum(terms))

    # ran out of lobes below W: tail beyond W already controlled by truncation
    tail_bound = abs(segment(n_seg - 1))
    return base, tail_bound + cfg.abs_tol


def _net_origin_power(kind: str,
                      origin_power: Optional[float]) -> Optional[float]:
    """Power of omega in f * trig at the origin; None when origin_power is."""
    if origin_power is None:
        return None
    alpha = origin_power + _TRIG_ORIGIN_POWER[kind]
    if alpha <= -1.0:
        raise ValueError(
            f"net origin power {alpha} is not integrable at omega = 0")
    return alpha


def integrate_oscillatory(f: Callable, kind: str, t: float,
                          cfg: Optional[QuadratureConfig] = None, *,
                          origin_power: Optional[float] = None,
                          tail_scale: float = 1.0) -> float:
    """Integral of f(omega) * trig(omega * t) over omega in [0, inf).

    kind selects the trig factor: "cosine", "sine" or "one_minus_cosine".
    t must be >= 0. origin_power, when given, is the power alpha with
    f(omega) ~ omega**alpha as omega -> 0 (alpha + trig power must exceed -1);
    fractional or negative net powers are handled by a smoothing substitution
    on the first panel. tail_scale is the exponential decay scale of f.

    t = 0, the one_minus_cosine kind and t * W <= 8 pi (W the truncation
    point) go through a one-point oscillatory_grid. Larger t for sine and
    cosine split the axis at the zeros of the trig factor and accelerate the
    alternating lobe sums, whose cost, unlike the grid's, stays bounded as t
    grows.

    Raises QuadratureError when the error estimate cannot be brought below
    max(abs_tol, rel_tol * |value|) within the configured effort caps; the
    exception carries the best value reached.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not tail_scale > 0.0:
        raise ValueError("tail_scale must be > 0")
    if cfg is None:
        cfg = QuadratureConfig()
    alpha = _net_origin_power(kind, origin_power)

    if t == 0.0 and kind in ("sine", "one_minus_cosine"):
        return 0.0

    w_lim = _truncation_point(f, cfg, tail_scale)
    if kind == "one_minus_cosine" or t * w_lim <= 8.0 * math.pi:
        try:
            return float(oscillatory_grid(f, kind, [t], cfg,
                                          origin_power=origin_power,
                                          tail_scale=tail_scale)[0])
        except QuadratureError as exc:
            exc.estimate = float(exc.estimate[0])
            raise

    value, err = _zero_split(f, kind, t, w_lim, cfg, alpha)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    logger.debug("integrate_oscillatory kind=%s t=%g -> %.17g (err est %.3g)",
                 kind, t, value, err)
    if not err <= tol:
        raise QuadratureError(
            f"oscillatory integral (kind={kind}, t={t}) did not converge: "
            f"best value {value!r} with error estimate {err:.3g} > tol {tol:.3g}",
            estimate=value, achieved=err)
    return value


def oscillatory_grid(f: Callable, kind: str, t_grid: np.ndarray,
                     cfg: Optional[QuadratureConfig] = None, *,
                     origin_power: Optional[float] = None,
                     tail_scale: float = 1.0) -> np.ndarray:
    """Vectorised transform: integrate f * trig(omega t) for every t in t_grid.

    Shares one omega-node set across all grid times (panels sized to resolve
    the fastest oscillation present, first panel substituted when
    origin_power calls for it), so the whole family costs one matrix-vector
    product per refinement level. Each entry satisfies the same contract as
    integrate_oscillatory.

    Raises QuadratureError if doubling the panel count up to the configured
    cap never brings two successive levels within tolerance everywhere; its
    ``estimate`` holds the last level's values, one per grid time.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if cfg is None:
        cfg = QuadratureConfig()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return np.zeros(0)
    if np.any(t_grid < 0.0):
        raise ValueError("grid times must be >= 0")

    alpha = _net_origin_power(kind, origin_power)
    substitute = _needs_substitution(alpha)

    w_lim = _truncation_point(f, cfg, tail_scale)
    t_max = float(np.max(t_grid))
    n = max(16, 2 * math.ceil(w_lim / tail_scale),
            math.ceil(t_max * w_lim / math.pi))

    x, gw = _gl_nodes(16)

    def level(n_panels: int) -> np.ndarray:
        edges = np.linspace(0.0, w_lim, n_panels + 1)
        start = 0
        node_blocks, weight_blocks = [], []
        if substitute:
            # first panel via w = v**q; the extra q v**(q-1) Jacobian lands
            # in the weights so the trig factor still multiplies f directly
            q = _smoothing_exponent(alpha)
            b_sub = edges[1] ** (1.0 / q)
            v = 0.5 * b_sub * (x + 1.0)
            node_blocks.append(v ** q)
            weight_blocks.append(0.5 * b_sub * gw * q * v ** (q - 1))
            start = 1
        mids = 0.5 * (edges[start:-1] + edges[start + 1:])
        halfs = 0.5 * (edges[start + 1:] - edges[start:-1])
        node_blocks.append((mids[:, None] + halfs[:, None] * x[None, :]).ravel())
        weight_blocks.append((halfs[:, None] * gw[None, :]).ravel())
        nodes = np.concatenate(node_blocks)
        weights = np.concatenate(weight_blocks)
        fw = f(nodes) * weights
        return _trig(kind, t_grid[:, None] * nodes[None, :]) @ fw

    value = level(n)
    err = math.inf
    for _ in range(cfg.max_refinements):
        n *= 2
        nxt = level(n)
        err = float(np.max(np.abs(nxt - value)))
        value = nxt
        scale = float(np.max(np.abs(value)))
        if err <= max(cfg.abs_tol, cfg.rel_tol * scale):
            return value
    raise QuadratureError(
        f"grid transform (kind={kind}, {t_grid.size} times) did not converge: "
        f"max level difference {err:.3g}", estimate=value, achieved=err)
