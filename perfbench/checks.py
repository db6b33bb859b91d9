"""Independent references for the outputs the benchmark's operations produce.

Every reference here is written from the model's formulas, not from the
package: the closed-form transforms of J(w) = lam * w**s * exp(-w) (cutoff 1,
as every CLI config has it), the exact correlational exponent, the identity
F(t) = m [Phi(t) - t D(t)], and a Richardson pair of coarser solves of the
kinetic equation for trajectories. The thermal transforms of the Ohmic bath,
which qdeph evaluates by quadrature, have closed forms in the log-gamma
function and its derivatives (coth(x) - 1 = 2 sum_n exp(-2nx)); this module
evaluates those by recurrence and Stirling series, and solves the kinetic
equation with its own stepper on kernels from those closed forms, so no
reference shares code with qdeph's transforms, kernel table or solver.
Tolerances follow the error the method is allowed to make (quadrature
tolerance, time-grid rule, step size), not bit identity.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# default QuadratureConfig tolerance is 1e-10; allow ten of them per value
QUAD_ATOL = 1e-9
QUAD_RTOL = 1e-9

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# log-gamma and polygamma for complex z, Re z > 0: shift z up by recurrence
# until Re z >= 20, then sum the Stirling series (terms to z^-13, ~1e-16)

_STIRLING_FROM = 20.0
_LGAMMA = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
           1 / 156)
_DIGAMMA = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760,
            -1 / 12)
_TRIGAMMA = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _shifted(z):
    z = np.asarray(z, dtype=complex)
    shift = max(0, math.ceil(_STIRLING_FROM - float(np.min(z.real))))
    w = z + shift
    return z, shift, w, 1.0 / (w * w)


def _series(coeffs, inv2):
    return sum(c * inv2 ** (k + 1) for k, c in enumerate(coeffs))


def lgamma_re(z):
    """Re log Gamma(z) = log |Gamma(z)|."""
    z, shift, w, inv2 = _shifted(z)
    out = ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
           + w * _series(_LGAMMA, inv2)).real
    for k in range(shift):
        out -= np.log(np.abs(z + k))
    return out


def digamma(z):
    z, shift, w, inv2 = _shifted(z)
    out = np.log(w) - 0.5 / w + _series(_DIGAMMA, inv2)
    for k in range(shift):
        out -= 1.0 / (z + k)
    return out


def trigamma(z):
    z, shift, w, inv2 = _shifted(z)
    out = 1.0 / w + 0.5 * inv2 + _series(_TRIGAMMA, inv2) / w
    for k in range(shift):
        out += 1.0 / (z + k) ** 2
    return out


# ---------------------------------------------------------------------------
# closed forms (cutoff omega_c = 1)

def a_init(beta_omega0: float, m: float) -> float:
    """A = (tanh(x) - m) / (1 - m tanh(x)), x = beta omega0 / 2."""
    th = math.tanh(0.5 * beta_omega0)
    return (th - m) / (1.0 - m * th)


def phi_ref(lam: float, s: float, t):
    """Phi(t) = int J sin(wt) / w^2 = lam Gamma(s-1) Im (1 - it)^(1-s)."""
    t = np.asarray(t, dtype=float)
    theta = np.arctan(t)
    if s == 1.0:
        return lam * theta
    nu = s - 1.0
    return lam * math.gamma(nu) * (1.0 + t * t) ** (-0.5 * nu) * np.sin(nu * theta)


def drive_ref(lam: float, s: float, t):
    """D(t) = int (J / w) cos(wt) = lam Gamma(s) Re (1 - it)^(-s)."""
    t = np.asarray(t, dtype=float)
    return (lam * math.gamma(s) * (1.0 + t * t) ** (-0.5 * s)
            * np.cos(s * np.arctan(t)))


def f_ref(lam: float, s: float, m: float, t):
    """F(t) = m int_0^t tau K_s(tau) dtau = m [Phi(t) - t D(t)]."""
    t = np.asarray(t, dtype=float)
    return m * (phi_ref(lam, s, t) - t * drive_ref(lam, s, t))


def gamma_vac_ohmic(lam: float, t):
    return 0.5 * lam * np.log1p(np.asarray(t, dtype=float) ** 2)


def gamma_cor_exact_ref(c: float, phi):
    return -0.5 * np.log1p(-c * np.sin(phi) ** 2)


# Ohmic thermal transforms, x = 1 + 1/beta:
#   gamma_th(t)    = lam [2 log Gamma(x) - 2 Re log Gamma(x + i t/beta)]
#   rate(t)        = lam t/(1 + t^2) + (2 lam/beta) Im psi(x + i t/beta)
#   k_cos_th(tau)  = (lam/2) Re[(1 - i tau)^-2 + (2/beta^2) psi'(x - i tau/beta)]

def gamma_th_ohmic(lam: float, beta: float, t):
    """int J (coth(beta w/2) - 1)(1 - cos wt) / w^2 for s = 1."""
    x = 1.0 + 1.0 / beta
    y = np.asarray(t, dtype=float) / beta
    return lam * (2.0 * lgamma_re(x) - 2.0 * lgamma_re(x + 1j * y))


def rate_ohmic(lam: float, beta: float, t):
    """d/dt [gamma_vac + gamma_th] for s = 1."""
    t = np.asarray(t, dtype=float)
    return (lam * t / (1.0 + t * t)
            + 2.0 * lam / beta * digamma(1.0 + 1.0 / beta + 1j * t / beta).imag)


def kernel_sin_ohmic(lam: float, tau):
    tau = np.asarray(tau, dtype=float)
    return 2.0 * lam * tau / (1.0 + tau * tau) ** 2


def kernel_cos_th_ohmic(lam: float, beta: float, tau):
    """(1/2) int J coth(beta w/2) cos(w tau) for s = 1."""
    tau = np.asarray(tau, dtype=float)
    x = 1.0 + 1.0 / beta
    return 0.5 * lam * (1.0 / (1.0 - 1j * tau) ** 2
                        + 2.0 / beta ** 2 * trigamma(x - 1j * tau / beta)).real


def _cumulative_exact(ts: np.ndarray, g) -> np.ndarray:
    """Cumulative int_0^t g over ts, 8-point Gauss-Legendre per interval."""
    half = 0.5 * np.diff(ts)
    nodes = (ts[:-1] + half)[:, None] + half[:, None] * _GL_X[None, :]
    chunks = half * (g(nodes) @ _GL_W)
    return np.concatenate([[0.0], np.cumsum(chunks)])


def _simpson_on_grid(ts: np.ndarray, g) -> np.ndarray:
    """Cumulative Simpson of g over ts, one midpoint per interval."""
    mids = 0.5 * (ts[:-1] + ts[1:])
    chunks = np.diff(ts) / 6.0 * (g(ts[:-1]) + 4.0 * g(mids) + g(ts[1:]))
    return np.concatenate([[0.0], np.cumsum(chunks)])


def _renorm_mismatch(name: str, got, base, sign: float, ts, g,
                     atol: float = QUAD_ATOL) -> list[str]:
    """got against base + sign * int_0^t g, where qdeph integrates g by
    cumulative Simpson on ts: the reference integral is exact, and the
    tolerance admits twice that Simpson rule's own error."""
    exact = _cumulative_exact(ts, g)
    tol = atol + 2.0 * np.abs(_simpson_on_grid(ts, g) - exact)
    err = np.abs(np.asarray(got, dtype=float) - (base + sign * exact))
    if np.all(err <= tol):
        return []
    j = int(np.argmax(err - tol))
    return [f"{name}: off by {err[j]:.3g} at t = {ts[j]:.6g} "
            f"(tolerance {tol[j]:.3g})"]


# ---------------------------------------------------------------------------
# helpers

def _mismatch(name: str, got, want, atol: float, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    tol = atol + rtol * np.abs(want)
    bad = ~(err <= tol)
    if not np.any(bad):
        return []
    j = int(np.argmax(np.where(bad, err - tol, -np.inf)))
    return [f"{name}: {int(bad.sum())} of {got.size} values off; worst at "
            f"index {j}: got {got.flat[j]!r}, want {want.flat[j]!r}"]


def read_csv(path) -> dict[str, list[str]]:
    """Columns of a CSV file by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [r[k] for r in body] for k, name in enumerate(header)}


def _floats(cols: dict, name: str) -> np.ndarray:
    return np.array([float(v) for v in cols[name]])


# ---------------------------------------------------------------------------
# checks

def check_f_values(inp: dict, ts, f_values) -> list[str]:
    """F(t) against the identity m [Phi(t) - t D(t)]."""
    want = f_ref(inp["lambda"], inp["s"], inp["sigma3_mean"], ts)
    return _mismatch("f_of_t", f_values, want, QUAD_ATOL, QUAD_RTOL)


def check_breakdown(inp: dict, cols: dict) -> list[str]:
    """Every column of an Ohmic breakdown against the closed forms.

    chi_renorm = chi + int_0^t F rate and gamma_cor_renorm = gamma_cor -
    A int_0^t F D; qdeph takes gamma_th and rate from its grid transforms.
    """
    try:
        ts = _floats(cols, "t")
        lam, beta, m = inp["lambda"], inp["beta_omega0"], inp["sigma3_mean"]
        a = a_init(beta, m)
        phi = phi_ref(lam, 1.0, ts)
        gc = 0.5 * (1.0 - a * a) * phi ** 2
        problems = _mismatch("chi", _floats(cols, "chi"), a * phi,
                             QUAD_ATOL, QUAD_RTOL)
        problems += _mismatch("gamma_vac", _floats(cols, "gamma_vac"),
                              gamma_vac_ohmic(lam, ts), QUAD_ATOL, QUAD_RTOL)
        problems += _mismatch("gamma_th", _floats(cols, "gamma_th"),
                              gamma_th_ohmic(lam, beta, ts),
                              QUAD_ATOL, QUAD_RTOL)
        problems += _mismatch("gamma_cor", _floats(cols, "gamma_cor"), gc,
                              QUAD_ATOL, QUAD_RTOL)
        problems += check_f_values(inp, ts, _floats(cols, "f_of_t"))
        problems += _mismatch("gamma_cor_exact",
                              _floats(cols, "gamma_cor_exact"),
                              gamma_cor_exact_ref(1.0 - a * a, phi),
                              QUAD_ATOL, QUAD_RTOL)
        f = lambda u: f_ref(lam, 1.0, m, u)
        problems += _renorm_mismatch(
            "chi_renorm", _floats(cols, "chi_renorm"), a * phi, 1.0, ts,
            lambda u: f(u) * rate_ohmic(lam, beta, u))
        problems += _renorm_mismatch(
            "gamma_cor_renorm", _floats(cols, "gamma_cor_renorm"), gc, -1.0,
            ts, lambda u: a * f(u) * drive_ref(lam, 1.0, u))
    except (KeyError, ValueError) as exc:
        return [f"breakdown CSV unreadable: {exc!r}"]
    return problems


def solve_kinetic_ohmic(inp: dict, t_max: float, n_steps: int) -> np.ndarray:
    """Coherence from the kinetic equation for s = 1, on closed-form kernels.

        y' = i A D(t) y + int_0^t -i m K_sin(t - u) [y(t) - y(u)] du
             + int_0^t [-2 K_cos_th(t - u) + (A^2 - 1) D(t) D(u)] y(u) du

    Memory integrals by the trapezoidal rule on the uniform grid, time
    steps by the implicit trapezoidal rule. The right-hand side at step n is
    linear in y_n, coef * y_n + hist, so each step is solved exactly.
    """
    lam, beta, m = inp["lambda"], inp["beta_omega0"], inp["sigma3_mean"]
    a = a_init(beta, m)
    h = t_max / n_steps
    ts = h * np.arange(n_steps + 1)
    d = drive_ref(lam, 1.0, ts)
    k_d = -1j * m * kernel_sin_ohmic(lam, ts)
    k_c = -2.0 * kernel_cos_th_ohmic(lam, beta, ts)
    w = np.ones(n_steps + 1)
    w[0] = 0.5
    y = np.empty(n_steps + 1, dtype=complex)
    y[0] = math.sqrt(0.25 * (1.0 - m * m))
    f_prev = 1j * a * d[0] * y[0]
    for n in range(1, n_steps + 1):
        lags = slice(n, 0, -1)
        g = (a * a - 1.0) * d[n]
        hist = h * np.dot(w[:n] * (k_c[lags] - k_d[lags] + g * d[:n]), y[:n])
        coef = (1j * a * d[n] + 0.5 * h * (k_c[0] + g * d[n])
                + h * np.dot(w[:n], k_d[lags]))
        y[n] = ((y[n - 1] + 0.5 * h * (f_prev + hist))
                / (1.0 - 0.5 * h * coef))
        f_prev = coef * y[n] + hist
    return y


class TrajectoryReference:
    """Richardson pair of solves at 2h and 4h for a trajectory at step h.

    Both solves are by solve_kinetic_ohmic, which is second order, so
    y_h - y_2h is about a quarter of y_2h - y_4h and the extrapolation
    y_2h + (y_2h - y_4h)/3 is far closer to the limit than y_h. On the 4h
    grid a trajectory at step h passes when it lies within half of
    max |y_2h - y_4h| of that extrapolation: about six times the error a
    second-order scheme makes. Between those points it
    must be at least as smooth as y_2h: its fourth differences may not
    exceed twice those of y_2h (a smooth solution's shrink sixteenfold when
    the step halves), so a defect at any single sample shows.
    """

    def __init__(self, y_2h: np.ndarray, y_4h: np.ndarray, t_max: float):
        if y_2h.size != 2 * (y_4h.size - 1) + 1:
            raise ValueError("y_2h must have twice the intervals of y_4h")
        coarse = y_2h[::2]
        self.t_max = t_max
        self.extrapolated = coarse + (coarse - y_4h) / 3.0
        floor = 1e-12 * float(np.max(np.abs(y_4h)))
        self.tol = max(0.5 * float(np.max(np.abs(coarse - y_4h))), floor)
        self.smooth_tol = max(2.0 * _max_fourth_difference(y_2h), floor)

    @classmethod
    def solve(cls, inp: dict, t_max: float, n_steps: int):
        """Reference for an n_steps trajectory of the Ohmic inputs `inp`."""
        if n_steps % 4:
            raise ValueError("n_steps must be a multiple of 4")
        y = [solve_kinetic_ohmic(inp, t_max, n)
             for n in (n_steps // 2, n_steps // 4)]
        return cls(y[0], y[1], t_max)

    def check(self, times, values) -> list[str]:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        n = 4 * (self.extrapolated.size - 1)
        if values.size != n + 1:
            return [f"trajectory has {values.size} samples, want {n + 1}"]
        problems = _mismatch("t", times, np.linspace(0.0, self.t_max, n + 1),
                             1e-12 * self.t_max, 0.0)
        dev = float(np.max(np.abs(values[::4] - self.extrapolated)))
        if not dev <= self.tol:
            problems.append(f"trajectory: max deviation {dev:.3g} from the "
                            f"Richardson reference exceeds {self.tol:.3g}")
        rough = _max_fourth_difference(values)
        if not rough <= self.smooth_tol:
            problems.append(f"trajectory: fourth difference {rough:.3g} "
                            f"exceeds {self.smooth_tol:.3g}, twice that of "
                            "the reference at step 2h")
        return problems


def _max_fourth_difference(y: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(y, 4)))) if y.size > 4 else 0.0


def check_trajectory_csv(ref: TrajectoryReference, cols: dict) -> list[str]:
    try:
        values = _floats(cols, "re_coherence") + 1j * _floats(cols, "im_coherence")
        problems = ref.check(_floats(cols, "t"), values)
        problems += _mismatch("abs_coherence", _floats(cols, "abs_coherence"),
                              np.abs(values), 0.0, 1e-15)
        flags = np.array([int(v) for v in cols["watchdog_flag"]])
    except (KeyError, ValueError) as exc:
        return [f"trajectory CSV unreadable: {exc!r}"]
    want = np.abs(values) > np.abs(values[0]) * (1.0 + 1e-2)
    if not np.array_equal(flags.astype(bool), want):
        problems.append("watchdog_flag disagrees with |y| > 1.01 |y0|")
    return problems


def check_comparison(inp: dict, report, n_points: int, t_max: float) -> list[str]:
    """A ComparisonReport against closed forms and the F identity.

    gamma_cor and gamma_cor_exact follow from Phi. gamma_cor_renorm is
    gamma_cor - A int_0^t F D du; its reference integral is exact, and the
    tolerance admits the error of a Simpson rule on the report's own grid.
    The winner is not checked.
    """
    lam, s, m = inp["lambda"], inp["s"], inp["sigma3_mean"]
    ts = np.linspace(0.0, t_max, n_points)
    problems = _mismatch("times", report.times, ts, 1e-12 * t_max, 0.0)
    if problems:
        return problems
    a = a_init(inp["beta_omega0"], m)
    c = 1.0 - a * a
    phi = phi_ref(lam, s, ts)
    gc = 0.5 * c * phi ** 2
    problems += _mismatch("a_init", report.a_init_value, a, 1e-14, 1e-12)
    problems += _mismatch("gamma_cor", report.gamma_cor, gc,
                          QUAD_ATOL, QUAD_RTOL)
    problems += _mismatch("gamma_cor_exact", report.gamma_cor_exact,
                          gamma_cor_exact_ref(c, phi), QUAD_ATOL, QUAD_RTOL)
    # F comes from nested adaptive quadratures here, so a wider floor
    problems += _renorm_mismatch(
        "gamma_cor_renorm", report.gamma_cor_renorm, gc, -1.0, ts,
        lambda u: a * f_ref(lam, s, m, u) * drive_ref(lam, s, u), atol=1e-7)
    return problems


def check_sweep_csv(inp: dict, cols: dict, axis_values, t_max: float,
                    n_points: int) -> list[str]:
    """Sweep rows over lambda: status ok, a_init, and l2_zn from Phi.

    l2_zn is by definition sqrt(trapz((gamma_cor - gamma_cor_exact)^2)) on
    the report's n_points grid, so its reference uses the same trapezoid.
    """
    try:
        status = cols["status"]
        got_axis = _floats(cols, "lambda")
        got_a = _floats(cols, "a_init")
        got_l2 = _floats(cols, "l2_zn")
    except (KeyError, ValueError) as exc:
        return [f"sweep CSV unreadable: {exc!r}"]
    problems = []
    bad = [k for k, st in enumerate(status) if st != "ok"]
    if bad:
        problems.append(f"sweep: {len(bad)} rows not ok: "
                        + "; ".join(cols["message"][k] for k in bad[:3]))
    problems += _mismatch("sweep axis", got_axis, axis_values, 0.0, 1e-15)
    if problems:
        return problems
    a = a_init(inp["beta_omega0"], inp["sigma3_mean"])
    c = 1.0 - a * a
    ts = np.linspace(0.0, t_max, n_points)
    want_l2 = []
    for lam in axis_values:
        phi = phi_ref(lam, 1.0, ts)
        diff = 0.5 * c * phi ** 2 - gamma_cor_exact_ref(c, phi)
        want_l2.append(math.sqrt(float(np.sum(
            0.5 * np.diff(ts) * (diff[1:] ** 2 + diff[:-1] ** 2)))))
    problems += _mismatch("a_init", got_a, np.full(len(axis_values), a),
                          1e-14, 1e-12)
    problems += _mismatch("l2_zn", got_l2, want_l2, QUAD_ATOL, 1e-7)
    return problems
