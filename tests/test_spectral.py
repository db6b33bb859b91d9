"""Checks for the spectral density and the semi-infinite oscillatory quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeph import (
    QuadratureConfig,
    QuadratureError,
    SpectralDensity,
    integrate_oscillatory,
)
from qdeph.spectral import oscillatory_grid


# ---------------------------------------------------------------------------
# spectral density


def test_spectral_density_point_values():
    J = SpectralDensity(coupling=1.0 / 3.0, omega_c=1.0, s=1.0)
    assert J.evaluate(0.0) == 0.0
    assert math.isclose(J.evaluate(1.0), math.exp(-1.0) / 3.0, rel_tol=1e-15)
    # coupling * omega_c^(1-s) * omega^s * exp(-omega/omega_c)
    Js = SpectralDensity(coupling=2.0, omega_c=1.5, s=0.5)
    want = 2.0 * 1.5**0.5 * 0.7**0.5 * math.exp(-0.7 / 1.5)
    assert math.isclose(Js.evaluate(0.7), want, rel_tol=1e-14)


def test_spectral_density_array_input():
    J = SpectralDensity(coupling=0.5, omega_c=2.0, s=1.0)
    w = np.array([0.0, 0.5, 2.0, 8.0])
    out = J.evaluate(w)
    assert out.shape == w.shape
    assert out[0] == 0.0
    assert np.all(np.isfinite(out))
    for wi, oi in zip(w[1:], out[1:]):
        assert math.isclose(oi, J.evaluate(float(wi)), rel_tol=1e-15)


def test_spectral_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(coupling=-0.1, omega_c=1.0, s=1.0)
    with pytest.raises(ValueError):
        SpectralDensity(coupling=1.0, omega_c=0.0, s=1.0)
    with pytest.raises(ValueError):
        SpectralDensity(coupling=1.0, omega_c=1.0, s=0.0)
    with pytest.raises(ValueError):
        SpectralDensity(coupling=1.0, omega_c=1.0, s=1.0).evaluate(-1.0)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.2, 3.5),
    lam=st.floats(0.0, 3.0),
    w=st.floats(0.0, 60.0),
)
def test_spectral_density_nonnegative(s, lam, w):
    J = SpectralDensity(coupling=lam, omega_c=2.0, s=s)
    assert J.evaluate(w) >= 0.0


# ---------------------------------------------------------------------------
# quadrature configuration


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=0)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_segments=1)


# ---------------------------------------------------------------------------
# oscillatory integrals with known closed forms
#
# Laplace-type references:
#   int_0^inf e^-w cos(wt) dw        = 1/(1+t^2)
#   int_0^inf w e^-w sin(wt) dw      = 2t/(1+t^2)^2
#   int_0^inf e^-w sin(wt)/w dw      = atan(t)
#   int_0^inf e^-w (1-cos(wt))/w^2 dw = t*atan(t) - log(1+t^2)/2

_ENGINE_CASES = [
    ("w_exp_sine", lambda w: w * np.exp(-w), "sine", 1.0, None, 0.5),
    ("exp_cos_t0", lambda w: np.exp(-w), "cosine", 0.0, None, 1.0),
    ("exp_cos_t2", lambda w: np.exp(-w), "cosine", 2.0, None, 0.2),
    ("exp_cos_t50", lambda w: np.exp(-w), "cosine", 50.0, None, 1.0 / 2501.0),
    ("exp_cos_t1e4", lambda w: np.exp(-w), "cosine", 1e4, None,
     1.0 / (1.0 + 1e8)),
    ("sqrt_sine", lambda w: np.sqrt(w) * np.exp(-w), "sine", 3.0, 0.5,
     0.1504274292022966),
    ("inv_sqrt_sine", lambda w: np.exp(-w) / np.sqrt(w), "sine", 3.0, -0.5,
     0.5827948014612994),
    ("atan_sine", lambda w: np.exp(-w) / w, "sine", 1.0, -1.0, math.pi / 4.0),
    ("one_minus_cos", lambda w: np.exp(-w) / w**2, "one_minus_cosine", 1.0,
     -2.0, math.atan(1.0) - 0.5 * math.log(2.0)),
    ("one_minus_cos_t20", lambda w: np.exp(-w) / w**2, "one_minus_cosine",
     20.0, -2.0, 20.0 * math.atan(20.0) - 0.5 * math.log(401.0)),
]


@pytest.mark.parametrize(
    "f, kind, t, origin_power, expected",
    [c[1:] for c in _ENGINE_CASES],
    ids=[c[0] for c in _ENGINE_CASES],
)
def test_closed_form_transforms(f, kind, t, origin_power, expected):
    got = integrate_oscillatory(f, kind, t, origin_power=origin_power)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_fractional_powers_against_mpmath():
    """The substituted first panel must handle w^(+-1/2) to full precision."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    got = integrate_oscillatory(
        lambda w: np.sqrt(w) * np.exp(-w), "sine", 3.0, origin_power=0.5)
    want = mp.quad(lambda w: mp.sqrt(w) * mp.exp(-w) * mp.sin(3 * w),
                   [0, mp.inf])
    assert got == pytest.approx(float(want), rel=1e-12)
    got = integrate_oscillatory(
        lambda w: np.exp(-w) / np.sqrt(w), "sine", 3.0, origin_power=-0.5)
    want = mp.quad(lambda w: mp.exp(-w) / mp.sqrt(w) * mp.sin(3 * w),
                   [0, mp.inf])
    assert got == pytest.approx(float(want), rel=1e-12)


def test_odd_kinds_vanish_at_t0():
    f = lambda w: np.exp(-w)
    assert integrate_oscillatory(f, "sine", 0.0) == 0.0
    assert integrate_oscillatory(f, "one_minus_cosine", 0.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    t=st.floats(0.0, 30.0),
)
def test_transform_is_linear_in_f(a, b, t):
    """a*e^-w + b*w*e^-w transforms to the matching combination of references."""
    got = integrate_oscillatory(
        lambda w: a * np.exp(-w) + b * w * np.exp(-w), "cosine", t)
    want = a / (1.0 + t * t) + b * (1.0 - t * t) / (1.0 + t * t) ** 2
    assert got == pytest.approx(want, abs=1e-9)


def test_grid_matches_scalar_calls():
    t_grid = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
    f = lambda w: np.exp(-w) * (1.0 + w)
    for kind in ("cosine", "sine", "one_minus_cosine"):
        grid = oscillatory_grid(f, kind, t_grid)
        pointwise = np.array(
            [integrate_oscillatory(f, kind, float(t)) for t in t_grid])
        assert np.max(np.abs(grid - pointwise)) < 1e-10


def test_grid_matches_scalar_with_fractional_origin():
    t_grid = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
    f = lambda w: np.exp(-w)
    grid = oscillatory_grid(f, "sine", t_grid, origin_power=-0.5)
    pointwise = np.array(
        [integrate_oscillatory(f, "sine", float(t), origin_power=-0.5)
         for t in t_grid])
    assert np.max(np.abs(grid - pointwise)) < 1e-10


def test_empty_grid_returns_empty():
    out = oscillatory_grid(lambda w: np.exp(-w), "cosine", np.array([]))
    assert out.size == 0


# ---------------------------------------------------------------------------
# failure modes


def test_rejects_bad_arguments():
    f = lambda w: np.exp(-w)
    with pytest.raises(ValueError):
        integrate_oscillatory(f, "tangent", 1.0)
    with pytest.raises(ValueError):
        integrate_oscillatory(f, "sine", -1.0)
    with pytest.raises(ValueError):
        integrate_oscillatory(f, "sine", 1.0, tail_scale=0.0)
    with pytest.raises(ValueError, match="not integrable"):
        integrate_oscillatory(f, "sine", 1.0, origin_power=-2.0)
    with pytest.raises(ValueError):
        oscillatory_grid(f, "sine", np.array([0.0, -1.0]))


def test_unresolvable_feature_raises_quadrature_error():
    # a Gaussian spike of width ~0.01 that a single refinement cannot resolve
    peak = lambda w: np.exp(-2500.0 * (w - 20.0) ** 2)
    starved = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_refinements=1)
    with pytest.raises(QuadratureError) as exc:
        integrate_oscillatory(peak, "cosine", 0.0, starved)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.achieved > 1e-13
    with pytest.raises(QuadratureError) as exc:
        oscillatory_grid(peak, "cosine", np.array([0.0, 1.0]), starved)
    assert np.all(np.isfinite(exc.value.estimate))
    # the default budget does resolve it
    got = integrate_oscillatory(peak, "cosine", 0.0)
    assert got == pytest.approx(math.sqrt(math.pi) / 50.0, rel=1e-10)
