import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplane import (
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    SpinStructure,
    dedekind_eta,
    eigenvalue_2dbar,
    eisenstein_e4,
    eisenstein_e6,
    epstein_zeta_logdet,
    epstein_zeta_value,
    j_from_tau,
    reduce_tau,
    theta_ab,
)
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


def test_reduce_tau():
    tau = 0.3 + 0.11j
    t, (a, b, c, d) = reduce_tau(tau)
    assert abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12
    assert a * d - b * c == 1
    assert abs((a * tau + b) / (c * tau + d) - t) < 1e-12


def test_theta_odd_vanishes():
    for tau in (1j, 0.3 + 1.7j, -0.8 + 0.6j):
        assert abs(theta_ab(1, 1, 0.0, tau)) < 1e-14


def test_theta_00_at_i():
    # theta_00(0|i) = pi^{1/4} / Gamma(3/4)
    mp.mp.dps = 30
    target = float(mp.pi ** mp.mpf(0.25) / mp.gamma(mp.mpf(3) / 4))
    assert abs(theta_ab(0, 0, 0.0, 1j) - target) < 1e-14
    assert abs(target - 1.0864348) < 1e-7


def test_theta_against_mpmath():
    # mpmath jtheta: theta_00 = jtheta(3), theta_01 = jtheta(4), theta_10 = jtheta(2)
    mp.mp.dps = 30
    for tau in (0.3 + 1.7j, -0.45 + 0.95j):
        q = complex(mp.e ** (1j * mp.pi * mp.mpc(tau)))
        for (a, b), n in (((0, 0), 3), ((0, 1), 4), ((1, 0), 2)):
            ours = theta_ab(a, b, 0.0, tau)
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
            theta_ab(0, 0, 0.0, tau) * theta_ab(0, 1, 0.0, tau) * theta_ab(1, 0, 0.0, tau)
        )
        target = 2.0 * dedekind_eta(tau) ** 3
        assert abs(abs(prod) - abs(target)) <= 1e-12 * abs(target)


def test_eigenvalue_formula():
    nu = SpinStructure(1, 1)
    assert eigenvalue_2dbar(0, 0, nu, 1j, 0.5) == 0
    nu = SpinStructure(0, 0)
    val = eigenvalue_2dbar(0, 0, nu, 1j, 0.5)
    assert abs(val - math.pi * (1j - 1)) < 1e-12


def test_eigenvalue_magnitude_matches_laplacian_form():
    nu = SpinStructure(0, 1)
    tau, omega = 0.3 + 1.7j, 0.4 + 0.2j
    lam = eigenvalue_2dbar(2, -1, nu, tau, omega)
    h1, h2 = nu.shifts
    expect = (math.pi / (tau.imag * abs(omega))) ** 2 * abs((2 + h1) * tau - (-1 + h2)) ** 2
    assert abs(abs(lam) ** 2 - expect) <= 1e-12 * expect


def test_epstein_even_closed_forms():
    for tau in (1j, 0.3 + 1.7j):
        eta = dedekind_eta(tau)
        for nu in EVEN_STRUCTURES:
            det = math.exp(epstein_zeta_logdet(nu, tau, 0.5))
            closed = abs(theta_ab(nu.nu1, nu.nu2, 0.0, tau) / eta) ** 2
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
            ours = epstein_zeta_value(s, nu, tau)
            assert abs(ours - direct) <= 1e-8 * abs(direct)


def test_epstein_zeta_at_zero():
    # continuation evaluated toward s = 0 confirms zeta(0) in {0, -1}
    tau = 0.3 + 1.7j
    for nu, expect in ((SpinStructure(0, 0), 0.0), (ODD_STRUCTURE, -1.0)):
        v1 = epstein_zeta_value(1e-4, nu, tau)
        v2 = epstein_zeta_value(5e-5, nu, tau)
        extrap = 2 * v2 - v1
        assert abs(extrap - expect) < 1e-3
        assert epstein_zeta_value(0.0, nu, tau) == expect


def test_epstein_tail_bound_guard():
    # extreme Im tau needs a lattice half-width beyond the cap
    from uplane import ConvergenceFailure

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


def test_scipy_loaded_only_by_the_zeta_oracle():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys, uplane.cli\n"
        "before = 'scipy' in sys.modules\n"
        "from uplane import SpinStructure, epstein_zeta_logdet\n"
        "epstein_zeta_logdet(SpinStructure(0, 1), 1j, 1.0)\n"
        "print(before, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.split() == ["False", "True"]
