import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplane import (
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    ConvergenceFailure,
    CrossCheckFailed,
    SpinStructure,
    dedekind_eta,
    eisenstein_e4,
    eisenstein_e6,
    epstein_zeta_logdet,
    j_from_tau,
    reduce_tau,
    theta_ab,
)
from uplane import modular
from uplane.spectral import CONTINUATION_OVER_CLOSED_FORM


def _mp_eta(tau, dps=30):
    mp.mp.dps = dps
    t = mp.mpc(tau)
    return complex(mp.e ** (1j * mp.pi * t / 12) * mp.qp(mp.e ** (2j * mp.pi * t)))


def test_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4})
    mp.mp.dps = 30
    target = complex(mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** mp.mpf(0.75)))
    val = dedekind_eta(1j)
    assert abs(val - target) < 1e-14
    assert abs(val.real - 0.7682254) < 1e-7


def test_eta_t_transformation():
    tau = 1j
    assert abs(dedekind_eta(tau + 1) - cmath.exp(1j * math.pi / 12) * dedekind_eta(tau)) < 1e-14


def test_eta_low_im_against_brute_series():
    # Im tau = 0.1: reduction path must match the raw q-product at high precision
    for re in (0.0, 0.37, -1.29):
        tau = re + 0.1j
        assert abs(dedekind_eta(tau) - _mp_eta(tau, dps=40)) < 1e-10


def test_eta_s_transformation_modulus():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        lhs = abs(dedekind_eta(-1.0 / tau))
        rhs = math.sqrt(abs(tau)) * abs(dedekind_eta(tau))
        assert abs(lhs - rhs) <= 1e-12 * rhs


def _dedekind_sum(h, k):
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) from its definition, in exact fractions."""
    def saw(x):
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)
    return sum((saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(1, k)), Fraction(0))


def test_eta_multiplier_is_the_dedekind_sum_phase():
    # the reciprocity walk, summed in floats and rounded to a 24th root of unity,
    # against e^{pi i ((a + d) / 12c - s(d, c))} with s from its definition
    from uplane.modular import _eta_multiplier

    rng = np.random.default_rng(9)
    for _ in range(300):
        c, d = int(rng.integers(1, 300)), int(rng.integers(-2000, 2000))
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * int(rng.integers(-3, 4)) if c > 1 else int(rng.integers(-3, 4))
        phase = Fraction(a + d, 12 * c) - _dedekind_sum(d, c)
        assert (12 * phase).denominator == 1
        assert abs(_eta_multiplier(a, c, d) - cmath.exp(1j * math.pi * float(phase % 2))) < 1e-15


def test_theta_constants_evaluate_only_the_etas_they_need(monkeypatch):
    from uplane import modular

    calls = []
    eta = modular.dedekind_eta
    monkeypatch.setattr(modular, "dedekind_eta", lambda tau: calls.append(tau) or eta(tau))
    tau = 0.3 + 0.2j
    for (a, b), etas in {(1, 1): [], (0, 1): [tau, 0.5 * tau], (1, 0): [tau, 2.0 * tau],
                         (0, 0): [tau, 0.5 * tau, 2.0 * tau]}.items():
        calls.clear()
        modular.theta_ab(a, b, tau)
        assert calls == etas


def test_reduce_tau():
    tau = 0.3 + 0.11j
    t, (a, b, c, d) = reduce_tau(tau)
    assert abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12
    assert a * d - b * c == 1
    assert abs((a * tau + b) / (c * tau + d) - t) < 1e-12


@pytest.mark.parametrize("tau, reduced", [
    (-0.5 + 1.3j, 0.5 + 1.3j),  # left edge -> right edge
    (-0.5 + 4e-10 + 1.3j, 0.5 + 4e-10 + 1.3j),  # within the slack of the left edge
    (-0.5 + 3e-9 + 1.3j, -0.5 + 3e-9 + 1.3j),  # outside it
    (cmath.exp(2j * math.pi / 3), cmath.exp(1j * math.pi / 3)),  # rho, from the left corner
    (cmath.exp(0.6j * math.pi), cmath.exp(0.4j * math.pi)),  # unit circle: Re tau >= 0
    ((1 + 2e-10) * cmath.exp(0.6j * math.pi), cmath.exp(0.4j * math.pi) / (1 + 2e-10)),
    (2.0 + 1j, 1j),
])
def test_reduce_tau_boundary_convention(tau, reduced):
    t, (a, b, c, d) = reduce_tau(tau)
    assert abs(t - reduced) < 1e-12
    assert a * d - b * c == 1
    assert abs((a * tau + b) / (c * tau + d) - t) < 1e-12


def _mp_reduced(tau):
    """tau moved into |Re| <= 1/2, |tau| >= 1 in the current mpmath precision."""
    t = mp.mpc(tau)
    for _ in range(1000):
        t -= mp.floor(mp.re(t) + mp.mpf(1) / 2)
        if abs(t) >= 1:
            return t
        t = -1 / t
    raise AssertionError(f"no reduction of {tau}")


@settings(max_examples=150, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_j_from_tau_against_mpmath(x, y):
    # the 60-digit reference is kleinj at the point reduced in 60 digits:
    # kleinj at the unreduced point is itself wrong near the real axis.  The
    # bound allows the reduction's rounding, amplified by up to
    # Im(reduced) / Im(tau) ~ 1e4 at Im tau = 0.01
    tau = complex(x, y)
    with mp.workdps(60):
        ref = complex(1728 * mp.kleinj(_mp_reduced(tau)))
    assert abs(j_from_tau(tau) - ref) <= 1e-11 * max(abs(ref), 1.0)


def _mp_theta(a, b, tau):
    """theta_ab(0|tau) from its defining series in the current mpmath precision;
    the dropped terms are below e^-200."""
    t = mp.mpc(tau)
    n = int(math.ceil(math.sqrt(200.0 / (math.pi * tau.imag)))) + 2
    h = mp.mpf(a) / 2
    return mp.fsum(mp.exp(1j * mp.pi * ((m + h) ** 2 * t + (m + h) * b)) for m in range(-n, n + 1))


# Sweeps over Im tau in [0.01, 3], |Re tau| <= 3, against 60-digit references at
# the unreduced tau.  Each bound is about 10x the worst relative error seen over
# 2,100 random tau of that range (eta 1.4e-14, theta 6.4e-14, E4 7.3e-14,
# E6 1.1e-13): the rounding of the reduced point, amplified by up to Im t / Im tau.


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_eta_against_mpmath(x, y):
    tau = complex(x, y)
    ref = _mp_eta(tau, dps=60)
    assert abs(dedekind_eta(tau) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_theta_constants_against_defining_series(x, y):
    # not mpmath's jtheta: jtheta(2) takes the principal q^{1/4} of q = e^{i pi tau},
    # which is off by a unit when |Re tau| > 1
    tau = complex(x, y)
    with mp.workdps(60):
        for a, b in ((0, 0), (0, 1), (1, 0)):
            ref = complex(_mp_theta(a, b, tau))
            assert abs(theta_ab(a, b, tau) - ref) <= 1e-12 * abs(ref)
    assert theta_ab(1, 1, tau) == 0


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_eisenstein_against_theta_forms(x, y):
    # E4 = (theta_00^8 + theta_01^8 + theta_10^8) / 2 and
    # E6 = (theta_00^4 + theta_10^4)(theta_00^4 + theta_01^4)(theta_01^4 - theta_10^4) / 2,
    # each relative to the size of its terms: E4 vanishes at rho and E6 at i
    tau = complex(x, y)
    with mp.workdps(60):
        t00, t01, t10 = (_mp_theta(a, b, tau) ** 4 for a, b in ((0, 0), (0, 1), (1, 0)))
        e4 = complex((t00**2 + t01**2 + t10**2) / 2)
        e6 = complex((t00 + t10) * (t00 + t01) * (t01 - t10) / 2)
        a00, a01, a10 = (float(abs(v)) for v in (t00, t01, t10))
    assert abs(eisenstein_e4(tau) - e4) <= 1e-12 * (a00**2 + a01**2 + a10**2) / 2
    assert abs(eisenstein_e6(tau) - e6) <= 1e-12 * (a00 + a10) * (a00 + a01) * (a01 + a10) / 2


def _raw_eisenstein(tau, power, coeff):
    """The q-series of E4 / E6 summed at tau itself, term for term as `modular` sums it."""
    q = cmath.exp(2j * math.pi * tau)
    s, qn = 0j, 1.0 + 0.0j
    for n in range(1, 10**4):
        qn *= q
        term = n**power * qn / (1.0 - qn)
        s += term
        if abs(term) < 1e-17 * max(1.0, abs(s)):
            break
    return 1.0 + coeff * s


def _raw_eta(tau):
    """eta's q-product taken at tau itself, factor for factor as `modular` takes it."""
    q = cmath.exp(2j * math.pi * tau)
    prod, qn = 1.0 + 0.0j, 1.0 + 0.0j
    for _ in range(10**4):
        qn *= q
        if abs(qn) < 1e-17:
            break
        prod *= 1.0 - qn
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_forms_in_the_fundamental_domain_are_the_raw_series(x, y):
    # at a point of F reduce_tau's matrix is the identity, and eta, E4 and E6 are
    # bit-equal to their q-series there, E4 and E6 also when summed from the nome a
    # period basis carries: outputs at reduced tau keep every bit
    t, _ = reduce_tau(complex(x, y))
    assert reduce_tau(t) == (t, (1, 0, 0, 1))
    q = cmath.exp(2j * math.pi * t)
    assert dedekind_eta(t) == _raw_eta(t)
    assert eisenstein_e4(t) == _raw_eisenstein(t, 3, 240.0)
    assert eisenstein_e6(t) == _raw_eisenstein(t, 5, -504.0)
    assert modular.eisenstein_in_f(q) == (eisenstein_e4(t), eisenstein_e6(t))


def _points_of_f() -> list:
    """2,502 points of F: the arc |t| = 1, both edges Re t = +-1/2 up to Im t = 100 (log
    spaced), random interior points up to Im t = 100, and two points inside reduce_tau's
    slack just outside F."""
    pts = [cmath.rect(1.0, math.pi / 3 * (1 + i / 499)) for i in range(500)]
    for i in range(500):
        y = math.sqrt(3) / 2 * (200 / math.sqrt(3)) ** (i / 499)
        pts += [complex(0.5, y), complex(-0.5 + 1e-12, y)]
    rng = np.random.default_rng(53)
    while len(pts) < 2500:
        t = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.86), math.log(100))))
        if abs(t) >= 1.0:
            pts.append(t)
    return pts + [complex(-0.5 - 1e-9, 0.9), cmath.rect(1.0 - 1e-9, 2 * math.pi / 3)]


def test_eisenstein_in_f_is_the_raw_series_on_f():
    # E4 and E6 from a basis' nome, summed in one loop with one (1 - q^n) per term, keep
    # every bit of their own series on the arc, both edges, the interior and the slack
    for t in _points_of_f():
        q = cmath.exp(2j * math.pi * t)
        assert modular.eisenstein_in_f(q) == (_raw_eisenstein(t, 3, 240.0),
                                              _raw_eisenstein(t, 5, -504.0)), t


def test_eta_product_agrees_with_the_pentagonal_series_on_f():
    # 8.4e-16 at worst, the figure stated beside ETA_SERIES_RTOL = 1e-13
    def product_and_series(t):
        q, twelfth = cmath.exp(2j * math.pi * t), cmath.exp(1j * math.pi * t / 12.0)
        return twelfth * modular._eta_qproduct(q), twelfth * modular._eta_pentagonal(q)

    worst = max(abs(eta - series) / abs(series)
                for eta, series in map(product_and_series, _points_of_f()))
    assert worst <= 1e-15


@pytest.mark.parametrize("factor", [1.0 + 1e-12, float("nan")])
@pytest.mark.parametrize("tau", [0.3 + 1.1j, 1.3 + 0.02j])
def test_eta_refuses_a_product_the_series_disagrees_with(monkeypatch, factor, tau):
    series = modular._eta_pentagonal
    monkeypatch.setattr(modular, "_eta_pentagonal", lambda q: factor * series(q))
    with pytest.raises(CrossCheckFailed, match="eta: q-product vs pentagonal series"):
        dedekind_eta(tau)


def test_theta_odd_vanishes():
    for tau in (1j, 0.3 + 1.7j, -0.8 + 0.6j):
        assert abs(theta_ab(1, 1, tau)) < 1e-14


def test_theta_00_at_i():
    # theta_00(0|i) = pi^{1/4} / Gamma(3/4)
    mp.mp.dps = 30
    target = float(mp.pi ** mp.mpf(0.25) / mp.gamma(mp.mpf(3) / 4))
    assert abs(theta_ab(0, 0, 1j) - target) < 1e-14
    assert abs(target - 1.0864348) < 1e-7


def test_theta_against_mpmath():
    # mpmath jtheta: theta_00 = jtheta(3), theta_01 = jtheta(4), theta_10 = jtheta(2),
    # at |Re tau| < 1 where jtheta(2)'s principal q^{1/4} is the right one
    mp.mp.dps = 30
    for tau in (0.3 + 1.7j, -0.45 + 0.95j):
        q = complex(mp.e ** (1j * mp.pi * mp.mpc(tau)))
        for (a, b), n in (((0, 0), 3), ((0, 1), 4), ((1, 0), 2)):
            ours = theta_ab(a, b, tau)
            ref = complex(mp.jtheta(n, 0, mp.mpc(q)))
            assert abs(ours - ref) < 1e-12 * (1 + abs(ref))


def test_jacobi_triple_identity():
    # theta_00 theta_01 theta_10 (0|tau) = 2 eta(tau)^3
    rng = np.random.default_rng(9)
    taus = [0.3 + 1.7j] + [
        complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0)) for _ in range(100)
    ]
    for tau in taus:
        prod = (
            theta_ab(0, 0, tau) * theta_ab(0, 1, tau) * theta_ab(1, 0, tau)
        )
        target = 2.0 * dedekind_eta(tau) ** 3
        assert abs(abs(prod) - abs(target)) <= 1e-12 * abs(target)


def test_epstein_even_closed_forms():
    for tau in (1j, 0.3 + 1.7j):
        eta = dedekind_eta(tau)
        for nu in EVEN_STRUCTURES:
            det = math.exp(epstein_zeta_logdet(nu, tau, 0.5))
            closed = abs(theta_ab(nu.nu1, nu.nu2, tau) / eta) ** 2
            assert abs(det - closed) <= 1e-10 * closed


def test_epstein_at_i_log2():
    assert abs(epstein_zeta_logdet(SpinStructure(0, 0), 1j, 0.5) - math.log(2.0)) < 1e-10


def test_epstein_square_lattice_symmetry():
    a = epstein_zeta_logdet(SpinStructure(0, 1), 1j, 0.5)
    b = epstein_zeta_logdet(SpinStructure(1, 0), 1j, 0.5)
    assert abs(a - b) < 1e-12


def test_epstein_odd_kronecker_constant():
    # continuation value of the odd determinant: 4 Im^2(tau) |omega|^2 |eta|^4,
    # i.e. exactly (2 pi)^2 times the closed form in the Quillen chain
    for tau in (1j, 0.3 + 1.7j):
        for omega in (0.5, (1 + 0.5j) / 2):
            det = math.exp(epstein_zeta_logdet(ODD_STRUCTURE, tau, omega))
            closed = 4.0 * tau.imag**2 * abs(omega) ** 2 * abs(dedekind_eta(tau)) ** 4
            assert abs(det - closed) <= 1e-10 * closed
            assert abs(CONTINUATION_OVER_CLOSED_FORM - (2 * math.pi) ** 2) == 0


def test_epstein_odd_against_dirichlet_factorization():
    # Z'(0) at tau = i equals the derivative of 4 zeta(s) beta(s), computed
    # with mpmath to 30 digits -- fully independent of the continuation code
    from uplane.modular import epstein_zeta_prime0

    mp.mp.dps = 30

    def beta(s):
        return mp.mpf(4) ** (-s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))

    target = float(
        4 * (mp.diff(mp.zeta, 0) * beta(mp.mpf(0)) + mp.zeta(0) * mp.diff(beta, 0))
    )
    ours = epstein_zeta_prime0(ODD_STRUCTURE, 1j)
    assert abs(ours - target) < 1e-9


def test_epstein_omega_independence_for_even():
    for nu in EVEN_STRUCTURES:
        a = epstein_zeta_logdet(nu, 0.3 + 1.7j, 0.5)
        b = epstein_zeta_logdet(nu, 0.3 + 1.7j, 7.3 - 2.0j)
        assert abs(a - b) < 1e-9


def _upper_gamma(a: float, x):
    """Upper incomplete Gamma(a, x) for real a, elementwise over the array x, by mpmath."""
    x = np.asarray(x, dtype=float)
    with mp.workdps(20):
        return np.array([float(mp.gammainc(a, v)) for v in x.flat]).reshape(x.shape)


def _epstein_zeta_value(s: float, nu: SpinStructure, tau: complex) -> float:
    """The shifted-lattice zeta at real s > 0, s != 1, by the continuation that
    `modular.epstein_zeta_logdet` takes at s = 0, on the same lattice grids: for
    s > 1 it must agree with the direct lattice sum, and s -> 0 recovers zeta(0).
    """
    from uplane.modular import _lattice_grids

    delta = 1 if nu.is_odd else 0
    if s == 0.0:
        return -float(delta)
    imt = tau.imag
    bigt = math.pi / imt
    qf, mask, r, kmask, phase = _lattice_grids(nu, tau)
    direct = float(np.sum(qf ** (-s) * _upper_gamma(s, bigt * qf), where=mask))
    ck = math.pi**2 * r / imt**2
    fourier = float(
        np.sum(phase * ck ** (s - 1.0) * _upper_gamma(1.0 - s, ck / bigt), where=kmask)
    ) * (math.pi / imt)
    middle = (math.pi / imt) * bigt ** (s - 1.0) / (s - 1.0)
    pole = -delta * bigt**s / s
    return (direct + fourier + middle + pole) / float(mp.gamma(s))


def test_epstein_zeta_convergent_region():
    # at s = 3, 4 the continuation must reproduce the direct lattice sum
    # (truncation radius 300 puts the direct tail below 1e-9 relative)
    tau = 0.3 + 1.7j
    idx = np.arange(-300, 301)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    for nu in (SpinStructure(0, 0), ODD_STRUCTURE):
        h1, h2 = nu.shifts
        q = np.abs((m + h1) * tau - (n + h2)) ** 2
        if nu.is_odd:
            q[(m == 0) & (n == 0)] = np.inf
        for s in (3.0, 4.0):
            direct = float(np.sum(q ** (-s)))
            ours = _epstein_zeta_value(s, nu, tau)
            assert abs(ours - direct) <= 1e-8 * abs(direct)


def test_epstein_zeta_at_zero():
    # continuation evaluated toward s = 0 confirms zeta(0) in {0, -1}
    tau = 0.3 + 1.7j
    for nu, expect in ((SpinStructure(0, 0), 0.0), (ODD_STRUCTURE, -1.0)):
        v1 = _epstein_zeta_value(1e-4, nu, tau)
        v2 = _epstein_zeta_value(5e-5, nu, tau)
        extrap = 2 * v2 - v1
        assert abs(extrap - expect) < 1e-3
        assert _epstein_zeta_value(0.0, nu, tau) == expect


def test_epstein_tail_bound_guard():
    # extreme Im tau needs a lattice half-width beyond the cap
    with pytest.raises(ConvergenceFailure):
        epstein_zeta_logdet(SpinStructure(0, 0), 40000j, 0.5)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.1, 3.0))
def test_eisenstein_series_against_eta_product(x, y):
    # E4^3 - E6^2 = 1728 eta^24: the two q-series against the SL(2,Z)-reduced
    # eta product, down to Im tau = 0.1 where the series run to ~100 terms
    tau = complex(x, y)
    e4, e6 = eisenstein_e4(tau), eisenstein_e6(tau)
    err = abs(e4**3 - e6**2 - 1728.0 * dedekind_eta(tau) ** 24)
    assert err <= 1e-12 * (abs(e4) ** 3 + abs(e6) ** 2)


def test_j_from_tau_special_points():
    assert abs(j_from_tau(1j) - 1728.0) < 1e-8
    assert abs(j_from_tau(cmath.exp(1j * math.pi / 3))) < 1e-8


@settings(max_examples=200, deadline=None)
@given(logs=st.lists(st.floats(math.log(1e-3), math.log(60.0)), min_size=1, max_size=8))
def test_exp1_against_mpmath(logs):
    # log-uniform over [1e-3, 60], mixing the series and the Gauss-Laguerre ranges in one array
    xs = np.minimum(np.exp(logs), 60.0)
    got = modular._exp1(xs)
    with mp.workdps(30):
        ref = np.array([float(mp.e1(x)) for x in xs])
    err = np.abs(got - ref)
    assert np.all(err <= 2e-15)
    assert np.all(err <= 5e-14 * ref)


def test_exp1_is_zero_above_the_cut():
    assert np.all(modular._exp1(np.array([60.0 + 1e-9, 61.0, 700.0, 1e300])) == 0.0)
    assert float(mp.e1(60)) < 1.5e-28


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_exp1_refuses_non_finite_or_non_positive(bad):
    with pytest.raises(ConvergenceFailure, match="E1 needs finite arguments > 0"):
        modular._exp1(np.array([1.0, bad, 3.0]))


def test_zero_distance_lattice_point_is_refused(monkeypatch):
    # an unmasked point of the direct grid at distance 0 has no E1; it must not be
    # clipped to a tiny positive distance and summed as E1(1e-300) ~ 690
    real = modular._lattice_grids

    def grids_with_a_zero(nu, tau):
        qf, mask, r, kmask, phase = real(nu, tau)
        qf[0, 0] = 0.0
        return qf, mask, r, kmask, phase

    monkeypatch.setattr(modular, "_lattice_grids", grids_with_a_zero)
    with pytest.raises(ConvergenceFailure, match="got 0.0"):
        modular._zeta_sums_at_zero(SpinStructure(0, 0), 0.3 + 1.1j)


def test_cli_and_zeta_oracle_load_no_scipy():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys, uplane.cli\n"
        "polynomial = 'numpy.polynomial' in sys.modules\n"
        "from uplane import SpinStructure, epstein_zeta_logdet\n"
        "epstein_zeta_logdet(SpinStructure(0, 1), 1j, 1.0)\n"
        "print(polynomial, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.split() == ["False", "False"]
