import cmath
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplane import (
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    OddStructure,
    Periods,
    SpinStructure,
    WeierstrassCurve,
    compute_periods,
    dedekind_eta,
    det_dirichlet_annulus,
    det_dirichlet_flat,
    det_prime_laplacian,
    det_twisted,
    discriminant,
    epstein_zeta_logdet,
    fiber_volume,
    quillen_norm_from_periods,
    quillen_norm_sigma,
    quillen_norm_sigma_hat,
    reduce_periods,
    sample_family,
)
from uplane.spectral import CONTINUATION_OVER_CLOSED_FORM


def _periods(tau: complex, two_omega: complex = 1.0) -> Periods:
    omega = two_omega / 2.0
    return Periods(omega=omega, omega_prime=tau * omega, tau=tau, q=cmath.exp(2j * math.pi * tau))


def test_det_prime_at_i():
    p = _periods(1j)
    val = det_prime_laplacian(p)
    target = abs(dedekind_eta(1j)) ** 4 / (4 * math.pi**2)
    assert abs(val - target) <= 1e-14
    assert abs(val - 0.00882) < 5e-6


def test_det_prime_vs_continuation_oracle():
    for tau in (1j, 0.3 + 1.7j):
        for two_omega in (1.0, 1 + 0.5j):
            p = _periods(tau, two_omega)
            oracle = math.exp(epstein_zeta_logdet(SpinStructure(1, 1), tau, p.omega))
            assert (
                abs(oracle - CONTINUATION_OVER_CLOSED_FORM * det_prime_laplacian(p))
                <= 1e-10 * oracle
            )


def test_det_prime_scaling_in_omega():
    # at fixed tau the value scales like |2 omega|^2 relative to 2w = 1
    tau = 0.4 + 1.1j
    base = det_prime_laplacian(_periods(tau, 1.0))
    for s in (0.5, 2.0, 1.3):
        val = det_prime_laplacian(_periods(tau, s))
        assert abs(val - base * s**2) <= 1e-12 * val


def test_det_twisted_values_and_errors():
    p = _periods(1j)
    assert abs(det_twisted(SpinStructure(0, 0), p) - 2.0) < 1e-12
    prod = math.prod(det_twisted(nu, p) for nu in EVEN_STRUCTURES)
    assert abs(prod - 4.0) < 1e-10
    with pytest.raises(OddStructure):
        det_twisted(SpinStructure(1, 1), p)


@pytest.mark.parametrize("tau", [0.3 + 0.05j, 0.3 + 0.01j])
def test_det_twisted_takes_tau_in_the_fundamental_domain(tau):
    # below F the theta-series route is cut short, so the basis is refused; on the
    # reduced basis both routes hold
    for nu in EVEN_STRUCTURES:
        with pytest.raises(ValueError, match="periods.reduce_periods"):
            det_twisted(nu, _periods(tau))
    for nu, det in zip(EVEN_STRUCTURES, _reduced_twisted(tau)):
        ref = _mp_det_twisted(nu, tau)
        assert abs(det - ref) <= 1e-12 * ref


@pytest.mark.parametrize("tau", [cmath.exp(1j * math.pi / 3), 0.3 + 1j, -0.2 + 10j, 0.4 + 100j],
                         ids=["rho", "im1", "im10", "im100"])
def test_continuation_oracle_vs_closed_forms_up_the_fundamental_domain(tau):
    # every spin structure from rho up to Im tau = 100, the CLI's cap on the reduced Im tau;
    # there |ln det| reaches ~100, so 1e-13 relative in det is 1e-15 of ln det
    p = _periods(tau, 1.2 - 0.6j)
    for nu in EVEN_STRUCTURES + (ODD_STRUCTURE,):
        oracle = math.exp(epstein_zeta_logdet(nu, tau, p.omega))
        if nu.is_odd:
            closed = CONTINUATION_OVER_CLOSED_FORM * det_prime_laplacian(p)
        else:
            closed = det_twisted(nu, p)
        assert abs(oracle - closed) <= 1e-13 * closed


def test_quillen_norm_examples():
    assert abs(quillen_norm_sigma(WeierstrassCurve(4, 0)) - math.sqrt(2)) < 1e-14
    assert quillen_norm_sigma(WeierstrassCurve(3, 1)) == 0.0


def test_quillen_norm_chart_change():
    # ||(dz_v)^{-1}|| = |v| ||(dz_u)^{-1}||: Delta_v = v^12 Delta_u makes the
    # weight-1/12 norms differ by exactly |v|
    fam = sample_family(0)
    u = 0.3 + 1.2j
    v = -1.0 / u
    du = discriminant(fam.curve_at(u))
    norm_u = abs(du) ** (1.0 / 12.0)
    norm_v = abs(v**12 * du) ** (1.0 / 12.0)
    assert abs(norm_v - abs(v) * norm_u) <= 1e-12 * norm_v


def test_quillen_norm_consistency_with_det_prime():
    # (2 pi)^2 sqrt(det') / vol reproduces |Delta|^{1/12} through the periods
    g2, g3 = 2.0 + 0.7j, -0.4 + 0.3j
    curve = WeierstrassCurve(g2, g3)
    p = compute_periods(curve)
    lhs = (2 * math.pi) ** 2 * math.sqrt(det_prime_laplacian(p)) / fiber_volume(p)
    assert abs(lhs - quillen_norm_sigma(curve)) <= 1e-10 * lhs
    assert abs(quillen_norm_from_periods(p) - quillen_norm_sigma(curve)) <= 1e-9 * lhs


def test_dirichlet_squared_is_det_prime():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        p = _periods(tau, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
        d = det_dirichlet_annulus(p)
        assert abs(d * d - det_prime_laplacian(p)) <= 1e-12 * d * d


def test_dirichlet_example_value():
    p = _periods(1j)
    assert abs(det_dirichlet_annulus(p) - math.sqrt(det_prime_laplacian(p))) == 0.0
    assert abs(det_dirichlet_annulus(p) - 0.09393) < 5e-6


def test_dirichlet_flat_both_routes():
    # the conformal rescaling det_flat(p) = det_annulus / (|omega| / pi) / e^{pi Im tau / 3}
    # over 50 random fibers.  The annulus side is taken on reduce_periods' basis, so the
    # two sides reach |eta| by different SL(2,Z) moves
    rng = np.random.default_rng(41)
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        p = _periods(tau, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
        val = det_dirichlet_flat(p)
        target = tau.imag * abs(dedekind_eta(tau)) ** 2 * abs(p.q) ** (1.0 / 6.0)
        assert abs(val - target) <= 1e-12 * max(val, 1e-300)
        annulus = det_dirichlet_annulus(reduce_periods(p)[0])
        rescaled = annulus / (abs(p.omega) / math.pi) / math.exp(math.pi * tau.imag / 3.0)
        assert abs(val - rescaled) <= 1e-12 * val


def test_dirichlet_flat_example_2i():
    p = _periods(2j)
    target = 2.0 * abs(dedekind_eta(2j)) ** 2 * math.exp(-2.0 * math.pi / 3.0)
    assert abs(det_dirichlet_flat(p) - target) <= 1e-12 * target


def test_dirichlet_flat_large_im_leading_order():
    # along tau = it: |eta|^2 -> |q|^{1/12}, so det -> t |q|^{1/6+1/12} (1 + o(1))
    t = 12.0
    p = _periods(1j * t)
    q = abs(p.q)
    lead = t * q ** (1.0 / 6.0) * q ** (1.0 / 12.0)
    assert abs(det_dirichlet_flat(p) / lead - 1.0) < 1e-10


def test_sigma_hat_value_and_omega_independence():
    p = _periods(10j)
    val = quillen_norm_sigma_hat(p)
    approx = abs(p.q) ** (1.0 / 12.0) / (2 * math.pi) ** 2
    assert abs(val - approx) <= 1e-8 * approx
    p2 = _periods(10j, 3.0 - 1.0j)
    assert abs(quillen_norm_sigma_hat(p2) - val) <= 1e-14 * val


@pytest.mark.parametrize(
    "closed_form",
    [det_prime_laplacian, det_dirichlet_annulus, det_dirichlet_flat, quillen_norm_from_periods,
     quillen_norm_sigma_hat],
)
@pytest.mark.parametrize("tau", [0.3 + 1.1j, 1.3 + 0.2j])
def test_each_closed_form_takes_one_eta_product(monkeypatch, closed_form, tau):
    from uplane import modular

    calls = []
    product = modular._eta_qproduct
    monkeypatch.setattr(modular, "_eta_qproduct", lambda q: calls.append(q) or product(q))
    closed_form(_periods(tau, 1 + 0.5j))
    assert len(calls) == 1


def test_q_twelfth_over_eta_squared_limit():
    # q^{1/12}/eta^2 = 1/prod(1-q^n)^2 -> 1; the deviation is 2q + 5q^2 + ...
    # evaluated at 60 digits because 2|q| is below double resolution at t = 12;
    # the product needs only three factors at these q; 100 digits so the
    # q^2 term (~1e-65 at t = 12) sits far above the arithmetic floor
    mp.mp.dps = 100
    for t in (5.0, 8.0, 12.0):
        q = mp.e ** (-2 * mp.pi * t)
        prod = (1 - q) * (1 - q**2) * (1 - q**3)
        ratio = 1 / prod**2
        # leading-order bound 2|q| plus the mathematically present 6|q|^2 term
        assert abs(ratio - 1) <= 2 * abs(q) + 6 * abs(q) ** 2
        # and the double-precision library value agrees with the oracle
        p = _periods(complex(0, t))
        ours = abs(p.q) ** (1.0 / 12.0) / abs(dedekind_eta(p.tau)) ** 2
        assert abs(ours - float(ratio)) <= 1e-12


def test_quillen_asymptotics_slope():
    # ||sigma||_Q ~ c |u - u*|^{1/12} near a simple node: log-log slope 1/12
    fam = sample_family(0)
    node = 1.0
    radii = np.geomspace(1e-2, 1e-5, 16)
    angle = cmath.exp(0.7j)
    xs, ys = [], []
    for r in radii:
        u = node + r * angle
        xs.append(math.log(r))
        ys.append(math.log(quillen_norm_sigma(fam.curve_at(u))))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 1.0 / 12.0) < 1e-3


def test_all_determinants_positive_on_smooth_fibers():
    rng = np.random.default_rng(57)
    for _ in range(20):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.5))
        p = _periods(tau, complex(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5)))
        assert det_prime_laplacian(p) > 0
        assert det_dirichlet_annulus(p) > 0
        assert det_dirichlet_flat(p) > 0
        assert quillen_norm_sigma_hat(p) > 0


def _mp_det_twisted(nu, tau):
    """|theta_{nu1 nu2} / eta|^2: the defining theta series over the q-product.  Near the real
    axis the series cancels to e^{-pi / (4 Im tau)} of its terms, so 0.5 / Im tau digits
    are added to the 40 kept."""
    with mp.workdps(40 + int(0.5 / tau.imag)):
        t = mp.mpc(tau)
        h = mp.mpf(nu.nu1) / 2
        n = int(math.ceil(math.sqrt(200.0 / (math.pi * tau.imag)))) + 2
        theta = mp.fsum(mp.exp(1j * mp.pi * ((m + h) ** 2 * t + (m + h) * nu.nu2))
                        for m in range(-n, n + 1))
        eta = mp.e ** (1j * mp.pi * t / 12) * mp.qp(mp.e ** (2j * mp.pi * t))
        return float(abs(theta / eta) ** 2)


def _reduced_twisted(tau: complex, two_omega: complex = 1.0) -> list:
    """The three even determinants of the basis (omega, tau omega), each taken on the
    reduced basis with its spin structure moved."""
    red, matrix = reduce_periods(_periods(tau, two_omega))
    return [det_twisted(nu.moved(*matrix), red) for nu in EVEN_STRUCTURES]


def test_twisted_determinants_where_the_raw_series_failed():
    # at tau = 2.0009+0.0205i the theta series summed at tau itself gave
    # det_twisted[1] = 9.1e-20 against 2.8824e-22; on the reduced basis, with the
    # characteristic moved, each determinant matches the series at tau, and the three
    # multiply to |2 eta^3 / eta^3|^2 = 4
    tau = 2.0009 + 0.0205j
    dets = _reduced_twisted(tau)
    for nu, det in zip(EVEN_STRUCTURES, dets):
        ref = _mp_det_twisted(nu, tau)
        assert abs(det - ref) <= 1e-12 * ref
    assert abs(dets[1] - 2.8824132e-22) < 1e-28
    assert abs(dets[0] * dets[1] * dets[2] - 4.0) <= 1e-13


@pytest.mark.parametrize("tau", [0.01j, 0.37 + 0.01j, -1.29 + 0.012j, 2.5 + 0.03j])
def test_reduced_twisted_determinants_near_the_real_axis(tau):
    for nu, det in zip(EVEN_STRUCTURES, _reduced_twisted(tau, 0.6 + 0.8j)):
        ref = _mp_det_twisted(nu, tau)
        assert abs(det - ref) <= 1e-12 * ref


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-3.0, 3.0), y=st.floats(0.01, 3.0))
def test_twisted_routes_agree_near_the_real_axis(x, y):
    # on the reduced basis both routes pass their 1e-10 relative check, and the
    # eta-quotient values keep the Jacobi triple product
    # theta_00 theta_01 theta_10 = 2 eta^3, so the three determinants multiply to 4
    dets = _reduced_twisted(complex(x, y))
    assert abs(dets[0] * dets[1] * dets[2] - 4.0) <= 1e-13


def test_moved_structures_permute_the_even_ones():
    # ad - bc = 1 makes the move a bijection of characteristics that fixes (1, 1)
    from uplane import ODD_STRUCTURE

    for matrix in ((0, -1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1), (-1, -3, 0, -1)):
        assert {nu.moved(*matrix) for nu in EVEN_STRUCTURES} == set(EVEN_STRUCTURES)
        assert ODD_STRUCTURE.moved(*matrix) == ODD_STRUCTURE


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(-3.0, 3.0),
    y=st.floats(0.05, 3.0),
    r=st.floats(0.3, 3.0),
    arg=st.floats(-math.pi, math.pi),
)
def test_lattice_values_agree_between_a_basis_and_its_reduced_one(x, y, r, arg):
    # det', the annulus determinant, the Quillen norm, the even determinants and the
    # continuation oracle depend only on the lattice and the spin structure: the
    # basis (omega, tau omega) and reduce_periods' basis with the moved structure give
    # the same values.  The even determinants on the given basis are the eta
    # quotients, which modular carries back from F itself.
    from uplane import ODD_STRUCTURE, theta_ab

    tau, two_omega = complex(x, y), cmath.rect(r, arg)
    p = _periods(tau, two_omega)
    red, matrix = reduce_periods(p)
    for f in (det_prime_laplacian, det_dirichlet_annulus, quillen_norm_from_periods):
        assert abs(f(red) - f(p)) <= 1e-13 * f(p)
    for nu in EVEN_STRUCTURES:
        given_basis = abs(theta_ab(nu.nu1, nu.nu2, tau) / dedekind_eta(tau)) ** 2
        assert abs(det_twisted(nu.moved(*matrix), red) - given_basis) <= 1e-13 * given_basis
    for nu in EVEN_STRUCTURES + (ODD_STRUCTURE,):
        on_p = epstein_zeta_logdet(nu, p.tau, p.omega)
        on_red = epstein_zeta_logdet(nu.moved(*matrix), red.tau, red.omega)
        assert abs(on_red - on_p) <= 1e-12 * max(1.0, abs(on_p))


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        # eta's pentagonal series is off by 1e-12, so det', the first value, fails its eta check
        (
            "from uplane import modular\n"
            "real = modular._eta_pentagonal\n"
            "modular._eta_pentagonal = lambda q: (1.0 + 1e-12) * real(q)\n",
            ["determinants", "--tau", "0.3,1.1", "--two-omega", "1,0"],
            "eta: q-product vs pentagonal series",
        ),
        # the theta series is 10% off, so only the second route moves
        (
            "real = spectral._theta_series\n"
            "spectral._theta_series = lambda a, b, t: 1.1 * real(a, b, t)\n",
            ["determinants", "--tau", "0.3,1.1", "--two-omega", "1,0"],
            "twisted determinant: eta quotient vs theta series",
        ),
    ],
    ids=["det_prime", "det_twisted"],
)
def test_spectral_cross_check_failure_exits_1_under_python_O(patch, argv, message):
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "import uplane.cli\n"
        "from uplane import spectral\n" + patch
        + f"sys.exit(uplane.cli.main({argv!r}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
