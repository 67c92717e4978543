import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uplane import (
    ANOMALY_RATIO,
    ComplexPoly,
    CurveFamily,
    DivisionByZero,
    StencilCrossesSingularity,
    anomaly_check,
    coalesced_family,
    d_tau_du,
    f1,
    find_singular_fibers,
    is_isotrivial,
    isotrivial_family,
    sample_family,
    scalar_curvature,
    uplane_point,
)
from uplane.curves import discriminant_poly
from uplane.geometry import _check_stencil, _j_numerator
from uplane.periods import periods_along_family

POINTS = [0.3 + 0.9j, -1.2 + 0.7j, 2.0 + 1.0j, 0.1 - 1.5j, -0.6 - 0.8j]


#: the non-isotrivial fixture families, on which the closed-form d tau/du is checked
CHECKED_FAMILIES = [sample_family(nf) for nf in range(5)] + [coalesced_family()]


def test_isotrivial_detection():
    assert is_isotrivial(isotrivial_family())
    assert is_isotrivial(_rescaled(isotrivial_family(), 1.7))
    for fam in CHECKED_FAMILIES:
        assert not is_isotrivial(fam)
    assert not is_isotrivial(_rescaled(sample_family(0), 1.3))


def test_isotrivial_numerator_coefficients():
    # W = 2 g2 g3' - 3 g2' g3 is exactly zero for the constant-j family and
    # clearly nonzero for the others
    assert _j_numerator(isotrivial_family())[0].is_zero
    for nf in range(5):
        w, _ = _j_numerator(sample_family(nf))
        assert 0.6 <= max(abs(c) for c in w.coeffs) <= 150.0


def test_isotrivial_when_g2_or_g3_vanishes():
    # j = 0 (g2 = 0) and j = 1728 (g3 = 0) are constant too
    pure_g3 = CurveFamily(ComplexPoly.of([0.0]), ComplexPoly.of([1.0, 0.0, 0.0, 1.0]), nf=4)
    pure_g2 = CurveFamily(ComplexPoly.of([1.0, 0.0, 1.0]), ComplexPoly.of([0.0]), nf=4)
    assert is_isotrivial(pure_g3)
    assert is_isotrivial(pure_g2)


def test_uplane_point_richardson_consistency():
    fam = sample_family(0)
    u = 0.3 + 0.9j
    a = uplane_point(fam, u, h=1e-4)
    b = uplane_point(fam, u, h=5e-5)
    assert abs(a.d_tau_du - b.d_tau_du) < 1e-8 * (1 + abs(a.d_tau_du))


def _curvature(fam, u):
    """The scalar curvature at u from the fiber's periods and Delta(u)."""
    return scalar_curvature(fam, u, periods_along_family(fam, u), discriminant_poly(fam)(u))


def test_scalar_curvature_zero_for_isotrivial():
    fam = isotrivial_family()
    s = _curvature(fam, 0.7 + 0.4j)
    assert abs(s) < 1e-12


def _zeros(poly, fam, gap=0.05):
    """Zeros of a nonconstant poly at least gap away from every node of fam."""
    if poly.degree < 1:
        return []
    nodes = [z for z, _ in find_singular_fibers(fam)]
    zs = [complex(z) for z in np.roots(list(reversed(poly.coeffs)))]
    return [z for z in zs if min(abs(z - w) for w in nodes) >= gap]


def _assert_matches_stencil(fam, u):
    pt = uplane_point(fam, u)
    closed = d_tau_du(fam, u, pt.periods, discriminant_poly(fam)(u))
    assert abs(closed - pt.d_tau_du) <= 1e-8 * (1.0 + abs(pt.d_tau_du)), (fam.name, u)


def test_closed_form_d_tau_du_matches_stencil():
    # generic points plus the zeros of g2 and g3 (j = 0 and j = 1728), where
    # the Ramanujan form E4 / (j E6) is 0/0 but the closed form is not
    checked = 0
    for fam in CHECKED_FAMILIES:
        points = [0.3 + 0.9j, -1.2 + 0.7j]
        points += _zeros(fam.g2_poly, fam) + _zeros(fam.g3_poly, fam)
        for u in points:
            _assert_matches_stencil(fam, u)
            checked += 1
    assert checked >= 15


def test_scalar_curvature_exactly_zero_at_critical_point():
    # g2 = 3u^2 has a double zero at u = 0, so W = 2 g2 g3' - 3 g2' g3 = 0
    # there: tau'(0) = 0 exactly, and the anomaly ratio is 0/0
    fam = sample_family(1)
    assert _curvature(fam, 0j) == 0.0
    assert d_tau_du(fam, 0j, periods_along_family(fam, 0j), discriminant_poly(fam)(0j)) == 0
    with pytest.raises(DivisionByZero):
        anomaly_check(fam, 0j)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, len(CHECKED_FAMILIES) - 1),
    x=st.floats(-2.5, 2.5),
    y=st.floats(-2.5, 2.5),
)
def test_closed_form_d_tau_du_sweep(k, x, y):
    fam = CHECKED_FAMILIES[k]
    u = complex(x, y)
    assume(min(abs(u - z) for z, _ in find_singular_fibers(fam)) >= 0.05)
    _assert_matches_stencil(fam, u)


def _rescaled(fam, s):
    return CurveFamily(
        g2_poly=ComplexPoly.of([s**4 * cc for cc in fam.g2_poly.coeffs]),
        g3_poly=ComplexPoly.of([s**6 * cc for cc in fam.g3_poly.coeffs]),
        nf=fam.nf,
        name="scaled",
    )


def test_scalar_curvature_rescale_law():
    # a global constant rescale (g2, g3) -> (s^4 g2, s^6 g3) keeps tau(u) and
    # dtau/du fixed while omega -> omega/s, so S -> s^2 S; in particular no
    # spurious curvature appears along isotrivial directions (0 stays 0)
    fam = sample_family(0)
    s = 1.3
    scaled = _rescaled(fam, s)
    for u in POINTS[:3]:
        a = _curvature(fam, u)
        b = _curvature(scaled, u)
        assert abs(b - s**2 * a) <= 1e-9 * abs(b)


def test_scalar_curvature_rescale_isotrivial_invariance():
    fam = isotrivial_family()
    scaled = _rescaled(fam, 1.7)
    u = 0.7 + 0.4j
    assert abs(_curvature(fam, u)) < 1e-12
    assert abs(_curvature(scaled, u)) < 1e-12


def test_stencil_crossing_detected():
    fam = sample_family(0)  # node at u = 1
    with pytest.raises(StencilCrossesSingularity):
        uplane_point(fam, 1.0 + 1e-4, h=1e-4)  # u - h hits the node


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
def test_stencil_screen_threshold(direction):
    # |u^2 - 1| / (1 + |u|^2) = |u - 1| to first order near the node u = 1 of nf0
    fam = sample_family(0)
    with pytest.raises(StencilCrossesSingularity):
        _check_stencil(fam, [1.0 + direction * 0.5e-9])
    _check_stencil(fam, [1.0 + direction * 2e-9])


def test_f1_example_square_fiber():
    # fiber with tau = i, 2 omega = 1 has F1 = -1/2 ln(|eta(i)|^4 / (4 pi^2))
    import mpmath as mp

    from uplane import Periods, det_prime_laplacian

    mp.mp.dps = 30
    eta4 = float(mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf(0.75))) ** 4
    target = -0.5 * math.log(eta4 / (4 * math.pi**2))
    p = Periods(omega=0.5, omega_prime=0.5j, tau=1j)
    val = -0.5 * math.log(det_prime_laplacian(p))
    assert abs(val - target) < 1e-12
    assert abs(val - 2.365) < 5e-4


#: |F1 - F1_mpmath| allowed: F1 takes -2 ln|eta|, so twice eta's worst relative error
#: against mpmath (1.4e-14, README "Numerical conventions"); 1.8e-15 is the worst seen
F1_ATOL = 3e-14


def _mp_f1(p) -> float:
    """-1/2 ln(4 Im^2 tau |omega|^2 |eta|^4 / (2 pi)^2) with a 30-digit mpmath eta at p.tau."""
    import mpmath as mp

    mp.mp.dps = 30
    t = mp.mpc(p.tau)
    eta = mp.exp(1j * mp.pi * t / 12) * mp.qp(mp.exp(2j * mp.pi * t))
    det = 4 * mp.im(t) ** 2 * abs(mp.mpc(p.omega)) ** 2 * abs(eta) ** 4 / (2 * mp.pi) ** 2
    return float(-mp.log(det) / 2)


@settings(max_examples=150, deadline=None)
@given(
    g2=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    g3=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    log_scale=st.floats(-4.0, 4.0),
    log_gap=st.one_of(st.none(), st.floats(-6.0, -1.0)),
)
def test_f1_of_a_solved_fiber_against_mpmath(g2, g3, log_scale, log_gap):
    # the eta F1 reads is the one that validated the solve; log_gap puts the curve
    # 10^log_gap from a node (g3 = sqrt(g2^3 / 27) (1 + gap)), where Im tau grows
    import cmath

    from uplane import WeierstrassCurve, compute_periods
    from uplane.curves import discriminant_scale
    from uplane.geometry import f1_from_periods

    g2, g3 = complex(*g2), complex(*g3)
    assume(abs(g2) > 1e-2 and abs(g3) > 1e-2)
    if log_gap is not None:
        g3 = cmath.sqrt(g2**3 / 27.0) * (1.0 + g3 / abs(g3) * 10.0**log_gap)
    s = 10.0**log_scale
    curve = WeierstrassCurve(g2 * s**2, g3 * s**3)
    assume(abs(g2**3 - 27.0 * g3**2) > 1e-6 * discriminant_scale(WeierstrassCurve(g2, g3)))
    p = compute_periods(curve)
    assert abs(f1_from_periods(p) - _mp_f1(p)) <= F1_ATOL


@pytest.mark.parametrize("nf", range(5))
def test_f1_closed_form_in_volume_and_discriminant(nf):
    # F1 = -ln vol - (1/12) ln|Delta(u)| + 2 ln 2 pi, the form the anomaly ratio was
    # derived from; the constant drops out of the Laplacian
    fam = sample_family(nf)
    for u in POINTS:
        p = periods_along_family(fam, u)
        vol = 4.0 * p.tau.imag * abs(p.omega) ** 2
        lhs = f1(fam, u) + math.log(vol) + math.log(abs(discriminant_poly(fam)(u))) / 12
        assert abs(lhs - 2.0 * math.log(2.0 * math.pi)) <= 1e-13


def test_f1_diverges_toward_node():
    # the |Delta|^{1/6} factor sends det' to 0 at the node; the volume's
    # squared-log growth delays the divergence, so probe well inside the
    # asymptotic regime
    fam = sample_family(0)
    vals = [f1(fam, 1.0 + r) for r in (1e-5, 1e-6, 1e-7, 1e-8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # grows as u -> node


def test_log_delta_harmonicity():
    # ln|Delta(u)| is harmonic away from the zeros: 5-point Laplacian ~ 0
    fam = sample_family(0)
    d = discriminant_poly(fam)
    h = 1e-4
    for u in POINTS:
        f = lambda z: math.log(abs(d(z)))
        lap = (f(u + h) + f(u - h) + f(u + 1j * h) + f(u - 1j * h) - 4 * f(u)) / h**2
        assert abs(lap) < 1e-6


def test_anomaly_isotrivial_both_sides_vanish():
    rec = anomaly_check(isotrivial_family(), 0.5 + 0.5j, h=1e-2)
    assert abs(rec.lhs) <= 1e-8
    assert abs(rec.rhs) <= 1e-8
    assert math.isnan(rec.ratio)


def test_anomaly_ratio_constant_and_pinned():
    fam = sample_family(0)
    ratios = [anomaly_check(fam, u).ratio for u in POINTS]
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / abs(mean)
    assert spread <= 1e-3
    assert abs(mean - ANOMALY_RATIO) <= 1e-3 * ANOMALY_RATIO


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf, 1e200])
def test_finite_difference_step_must_be_finite_and_positive(h):
    fam = sample_family(0)
    with pytest.raises(ValueError, match="step"):
        anomaly_check(fam, 0.3 + 0.9j, h=h)
    with pytest.raises(ValueError, match="step"):
        uplane_point(fam, 0.3 + 0.9j, h=h)


#: (u, h) whose stencil collapses: u + h/2 or u + i h/2 rounds to u, or (h/2)^2 underflows
COLLAPSED_STENCILS = [(0.3 + 0.7j, 1e-17), (0.3 + 0.7j, 1e-100), (0.5j, 1e-170),
                      (0.3 + 0.7j, 1e-200), (0.3 + 0j, 1e-17), (0j, 1e-170)]


@pytest.mark.parametrize("u, h", COLLAPSED_STENCILS)
def test_a_collapsed_stencil_is_refused(u, h):
    # unrefused, these read lhs = 0 and ratio 0, d tau/du = 0, or divided by zero
    fam = sample_family(0)
    for check in (anomaly_check, uplane_point):
        with pytest.raises(ValueError, match=re.escape(f"step {h} collapses the stencil")):
            check(fam, u, h=h)


def test_anomaly_step_refinement():
    fam = sample_family(0)
    u = 0.3 + 0.9j
    r1 = anomaly_check(fam, u, h=2e-4).ratio
    r2 = anomaly_check(fam, u, h=1e-4).ratio
    # both already Richardson-accelerated; refinement changes little
    assert abs(r1 - r2) < 1e-4 * abs(r2)
