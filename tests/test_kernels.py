"""Bath-kernel transforms: closed forms, quadrature fallback, tabulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeph import (
    KernelTable,
    QuadratureConfig,
    QubitBathParams,
    SpectralDensity,
    big_f,
    breakdown_grid,
    build_kernel_table,
    decoherence_rate,
    drive,
    gamma_th,
    gamma_vac,
    kernel_cos_th,
    kernel_sin,
    phase_shift,
    phi,
)
from qdeph.kernels import _coth, _coth_minus_one

LAM = 1.0 / 3.0
OHMIC = SpectralDensity(coupling=LAM, omega_c=1.0, s=1.0)
FORCE_QUAD = QuadratureConfig(force_quadrature=True)


# ---------------------------------------------------------------------------
# coth helpers


def test_coth_laurent_matching():
    # at the switch point the series and the expm1 form agree to ~x^3/45
    for x in (0.99e-4, 1.01e-4):
        laurent = 1.0 / x + x / 3.0
        direct = 1.0 + 2.0 / math.expm1(2.0 * x)
        got = _coth(np.array([x]))[0]
        assert got == pytest.approx(laurent, rel=1e-12)
        assert got == pytest.approx(direct, rel=1e-12)
    assert _coth_minus_one(np.array([0.99e-4]))[0] == pytest.approx(
        1.0 / 0.99e-4 - 1.0 + 0.99e-4 / 3.0, rel=1e-12)


def test_coth_extreme_arguments():
    x = np.array([1e-12, 1.0, 355.0, 1e6, 1e300])
    out = _coth(x)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1e12, rel=1e-10)
    assert out[-1] == 1.0
    rem = _coth_minus_one(x)
    assert rem[-1] < 1e-300  # clamped, effectively zero
    assert rem[1] == pytest.approx(2.0 / math.expm1(2.0), rel=1e-14)


# ---------------------------------------------------------------------------
# Ohmic closed forms vs quadrature

_T_POINTS = (0.5, 2.0, 10.0)


@pytest.mark.parametrize("t", _T_POINTS)
def test_phase_integral_ohmic(t):
    want = LAM * math.atan(t)
    assert phi(OHMIC, t) == pytest.approx(want, rel=1e-14)
    assert phi(OHMIC, t, FORCE_QUAD) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("t", _T_POINTS)
def test_vacuum_decoherence_ohmic(t):
    want = 0.5 * LAM * math.log1p(t * t)
    assert gamma_vac(OHMIC, t) == pytest.approx(want, rel=1e-14)
    assert gamma_vac(OHMIC, t, FORCE_QUAD) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("tau", _T_POINTS)
def test_sine_memory_kernel_ohmic(tau):
    want = 2.0 * LAM * tau / (1.0 + tau * tau) ** 2
    assert kernel_sin(OHMIC, tau) == pytest.approx(want, rel=1e-14)
    assert kernel_sin(OHMIC, tau, FORCE_QUAD) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("tau", _T_POINTS)
def test_drive_ohmic(tau):
    want = LAM / (1.0 + tau * tau)
    assert drive(OHMIC, tau) == pytest.approx(want, rel=1e-14)
    assert drive(OHMIC, tau, FORCE_QUAD) == pytest.approx(want, rel=1e-8)


def test_drive_at_zero_is_gamma_function():
    """drive(0) = coupling * omega_c * Gamma(s) for every bath exponent."""
    for s in (0.5, 0.9, 1.0, 1.5, 2.7):
        J = SpectralDensity(coupling=0.4, omega_c=1.3, s=s)
        want = 0.4 * 1.3 * math.gamma(s)
        assert drive(J, 0.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("t", (0.5, 1.0, 4.0))
def test_bath_memory_integral_ohmic(t):
    # F(t) = m * lam * (atan(t) - t/(1+t^2)) for the Ohmic bath
    want = 0.2 * LAM * (math.atan(t) - t / (1.0 + t * t))
    assert big_f(OHMIC, 0.2, t) == pytest.approx(want, rel=1e-14)
    assert big_f(OHMIC, 0.2, t, FORCE_QUAD) == pytest.approx(want, rel=1e-8)
    assert big_f(OHMIC, 0.0, t) == 0.0
    assert big_f(OHMIC, 0.2, 0.0) == 0.0


def test_bath_memory_integral_odd_in_polarization():
    for cfg in (None, FORCE_QUAD):
        a = big_f(OHMIC, 0.37, 2.1, cfg)
        b = big_f(OHMIC, -0.37, 2.1, cfg)
        assert a == -b


# ---------------------------------------------------------------------------
# thermal transforms against independent references


def _gamma_th_loggamma(lam, beta, t):
    # 2*lam*[ln G(1 + 1/beta) - Re ln G(1 + (1 + i t)/beta)] for omega_c = 1
    sp = pytest.importorskip("scipy.special")
    base = sp.loggamma(1.0 + 1.0 / beta).real
    moved = sp.loggamma(1.0 + (1.0 + 1j * t) / beta).real
    return 2.0 * lam * (base - moved)


@pytest.mark.parametrize("beta", (0.1, 1.0, 5.0))
@pytest.mark.parametrize("t", (0.5, 1.0, 3.0))
def test_thermal_decoherence_vs_loggamma(beta, t):
    want = _gamma_th_loggamma(LAM, beta, t)
    assert gamma_th(OHMIC, beta, t) == pytest.approx(want, rel=1e-9)


def test_thermal_decoherence_frozen_points():
    assert gamma_th(OHMIC, 0.1, 1.0) == pytest.approx(2.8127480929018538,
                                                      rel=1e-12)
    assert gamma_th(OHMIC, 1.0, 1.0) == pytest.approx(0.20289973934792241,
                                                      rel=1e-12)
    assert gamma_th(OHMIC, 1.0, 0.0) == 0.0


def test_thermal_decoherence_decreases_with_cooling():
    hot = gamma_th(OHMIC, 0.05, 2.0)
    warm = gamma_th(OHMIC, 1.0, 2.0)
    cold = gamma_th(OHMIC, 40.0, 2.0)
    assert hot > warm > cold >= 0.0


def test_cosine_kernel_values():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    assert kernel_cos_th(OHMIC, 1.0, 0.5) == pytest.approx(
        0.2760659636500204, rel=1e-12)
    want = mp.quad(
        lambda w: 0.5 * (w / mp.mpf(3)) * mp.exp(-w)
        * mp.coth(0.3 * w / 2) * mp.cos(1.2 * w),
        [0, mp.inf])
    assert kernel_cos_th(OHMIC, 0.3, 1.2) == pytest.approx(float(want),
                                                           rel=1e-9)


def test_cosine_kernel_vacuum_limit():
    # coth -> 1 as beta -> inf, leaving (lam/2)(1-tau^2)/(1+tau^2)^2
    tau = 0.5
    want = 0.5 * LAM * (1.0 - tau * tau) / (1.0 + tau * tau) ** 2
    assert kernel_cos_th(OHMIC, 1e9, tau) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("beta, t, want", [
    (0.1, 0.5, 3.0945362070549653),
    (0.1, 1.0, 5.2387655304540433),
    (0.1, 2.0, 7.3818805542570995),
])
def test_decoherence_rate_frozen(beta, t, want):
    assert decoherence_rate(OHMIC, beta, t) == pytest.approx(want, rel=1e-11)


def test_decoherence_rate_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    want = mp.quad(
        lambda w: (1 / mp.mpf(3)) * mp.exp(-w) * mp.coth(w / 2) * mp.sin(w),
        [0, mp.inf])
    assert decoherence_rate(OHMIC, 1.0, 1.0) == pytest.approx(float(want),
                                                              rel=1e-10)


# ---------------------------------------------------------------------------
# non-Ohmic exponents (quadrature is the only path)


@pytest.mark.parametrize("s", (0.5, 1.5))
@pytest.mark.parametrize("t", (0.7, 1.5))
def test_sub_and_super_ohmic_vs_mpmath(s, t):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    J = SpectralDensity(coupling=LAM, omega_c=1.0, s=s)
    want_phi = mp.quad(
        lambda w: (1 / mp.mpf(3)) * w ** (s - 2) * mp.exp(-w) * mp.sin(t * w),
        [0, mp.inf])
    assert phi(J, t) == pytest.approx(float(want_phi), rel=1e-10)
    want_gv = mp.quad(
        lambda w: (1 / mp.mpf(3)) * w ** (s - 2) * mp.exp(-w)
        * (1 - mp.cos(t * w)),
        [0, mp.inf])
    assert gamma_vac(J, t) == pytest.approx(float(want_gv), rel=1e-10)


def test_beta_validation():
    for fn in (lambda: gamma_th(OHMIC, 0.0, 1.0),
               lambda: kernel_cos_th(OHMIC, -2.0, 1.0),
               lambda: decoherence_rate(OHMIC, 0.0, 1.0)):
        with pytest.raises(ValueError):
            fn()


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 4.0), t=st.floats(0.1, 8.0))
def test_transforms_linear_in_coupling(scale, t):
    J2 = SpectralDensity(coupling=LAM * scale, omega_c=1.0, s=1.0)
    assert phi(J2, t) == pytest.approx(scale * phi(OHMIC, t), rel=1e-12)
    assert gamma_th(J2, 0.7, t) == pytest.approx(
        scale * gamma_th(OHMIC, 0.7, t), rel=1e-9)


# ---------------------------------------------------------------------------
# kernel tables


def test_table_matches_pointwise_transforms():
    table = build_kernel_table(OHMIC, beta=1.0, step=0.05, count=80)
    assert table.count == 80
    assert table.step == 0.05
    assert table.k_sin.shape == (81,)
    assert table.k_sin[0] == 0.0
    assert np.allclose(table.taus, 0.05 * np.arange(81))
    for j in (1, 7, 40, 80):
        tau = table.taus[j]
        assert table.k_sin[j] == pytest.approx(kernel_sin(OHMIC, tau),
                                               rel=1e-9, abs=1e-12)
        assert table.k_cos_th[j] == pytest.approx(
            kernel_cos_th(OHMIC, 1.0, tau), rel=1e-9, abs=1e-12)
        assert table.drive[j] == pytest.approx(drive(OHMIC, tau),
                                               rel=1e-9, abs=1e-12)


def test_table_sub_ohmic_endpoints():
    J = SpectralDensity(coupling=0.2, omega_c=1.0, s=0.8)
    table = build_kernel_table(J, beta=2.0, step=0.1, count=30)
    assert table.k_sin[0] == 0.0
    assert table.drive[0] == pytest.approx(0.2 * math.gamma(0.8), rel=1e-8)
    assert table.k_sin[5] == pytest.approx(kernel_sin(J, 0.5), rel=1e-8)


@pytest.mark.parametrize("s", (0.5, 1.5))
def test_non_ohmic_consumers_match_scalar_transforms(s):
    """The kernel table and breakdown_grid agree with the scalar functions."""
    J = SpectralDensity(coupling=LAM, omega_c=1.0, s=s)
    table = build_kernel_table(J, beta=2.0, step=0.1, count=30)
    for j in (1, 7, 30):
        tau = table.taus[j]
        assert table.k_sin[j] == pytest.approx(kernel_sin(J, tau), rel=1e-9)
        assert table.k_cos_th[j] == pytest.approx(kernel_cos_th(J, 2.0, tau),
                                                  rel=1e-9)
        assert table.drive[j] == pytest.approx(drive(J, tau), rel=1e-9)
    p = QubitBathParams(omega0=1.0, beta=2.0, sigma3_mean=0.5, spectral=J)
    t_grid = np.linspace(0.0, 1.0, 3)
    for t, b in zip(t_grid[1:], breakdown_grid(p, t_grid)[1:]):
        assert b.chi == pytest.approx(phase_shift(p, t), rel=1e-9)
        assert b.gamma_vac == pytest.approx(gamma_vac(J, t), rel=1e-9)
        assert b.gamma_th == pytest.approx(gamma_th(J, 2.0, t), rel=1e-9)


def test_table_validation():
    ok = np.zeros(4)
    with pytest.raises(ValueError):
        KernelTable(step=0.0, count=3, k_sin=ok, k_cos_th=ok, drive=ok)
    with pytest.raises(ValueError):
        KernelTable(step=0.1, count=0, k_sin=ok, k_cos_th=ok, drive=ok)
    with pytest.raises(ValueError):
        KernelTable(step=0.1, count=3, k_sin=np.zeros(5), k_cos_th=ok,
                    drive=ok)
    bad = ok.copy()
    bad[0] = 1e-3
    with pytest.raises(ValueError):
        KernelTable(step=0.1, count=3, k_sin=bad, k_cos_th=ok, drive=ok)


def test_table_csv_round_trip(tmp_path):
    table = build_kernel_table(OHMIC, beta=1.0, step=0.1, count=20)
    path = tmp_path / "kernels.csv"
    table.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "j,tau,k_sin,k_cos_th,drive"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (21, 5)
    assert np.array_equal(data[:, 2], table.k_sin)
    assert np.array_equal(data[:, 3], table.k_cos_th)
    assert np.array_equal(data[:, 4], table.drive)
