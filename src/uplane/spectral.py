"""Closed-form regularized determinants, Quillen norms and the annulus (Dirichlet)
determinants, each one expression on one eta value: the basis' own `Periods.eta`,
computed with the basis and, on a solved basis, the eta that validated it.

eta's q-product is checked where it is computed, against Euler's pentagonal series
(`modular.dedekind_eta`), so the closed forms here carry no second route of their own.
The twisted determinants also check their eta quotients against the theta series; the
quotients take eta(tau / 2) and eta(2 tau) themselves (`modular.theta_ab`).
The lattice-zeta continuation (`modular.epstein_zeta_logdet`) checks the closed forms
through neither eta nor theta: `uplane zeta-oracle` and the tests compare the two.

The periods are taken with tau in the fundamental domain F, where every
modular form is its raw q-series: `compute_periods` returns such a basis, and
`periods.reduce_periods` moves any other one there (spin structures by
`SpinStructure.moved`).  det', the Quillen norm of the periods and the annulus
determinant depend only on the lattice, the twisted determinants only on the
lattice and the spin structure.
`det_dirichlet_flat` and `quillen_norm_sigma_hat` depend on the basis too, so
they are evaluated on the basis they are meant for.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import CrossCheckFailed, OddStructure
from .modular import _EDGE, TWO_PI, SpinStructure, theta_ab

if TYPE_CHECKING:  # periods validates its solves here, so it imports this module
    from .periods import Periods

#: Exact ratio between the zeta-continuation value of the odd-structure
#: determinant and the closed form used by the Quillen-metric chain below.
#: The continuation gives 4 Im^2(tau) |omega|^2 |eta|^4 (Kronecker limit
#: constant e^{-Z'(0)} = (2 pi)^2 |eta|^4, pinned against the exact Dirichlet
#: L-factorization 4 zeta(s) beta(s) of the square lattice), while the chain
#: that produces ||sigma||_Q = |Delta|^{1/12} carries the extra (2 pi)^-2.
CONTINUATION_OVER_CLOSED_FORM = TWO_PI**2

#: lowest Im tau on F, less reduce_tau's boundary slack
_F_FLOOR = math.sqrt(3.0) / 2.0 - _EDGE


def modular_discriminant(p: Periods) -> complex:
    """(2 pi)^12 eta(tau)^24 / (2 omega)^12.

    Raises ValueError when (2 omega)^12 overflows: omega beyond about 1e25, the periods
    of a curve whose roots are near 1e-51.
    """
    try:
        return TWO_PI**12 * p.eta**24 / (2.0 * p.omega) ** 12
    except OverflowError:
        raise ValueError(f"(2 omega)^12 overflows for omega={p.omega}") from None


def det_prime_laplacian(p: Periods) -> float:
    """Regularized determinant of the fiber Laplacian (zero mode omitted).

    4 Im^2(tau) |omega|^2 |eta(tau)|^4 / (2 pi)^2, which is
    vol^2/(2 pi)^4 |Delta_modular|^{1/6}.
    """
    return 4.0 * p.tau.imag**2 * abs(p.omega) ** 2 * abs(p.eta) ** 4 / TWO_PI**2


def _theta_series(a: int, b: int, t: complex) -> complex:
    """theta_ab(0|t) = sum_m exp[i pi m^2 t + i pi m b] over m in Z + a/2, for t in F:
    |m| <= 8 leaves out terms below e^{-64 pi Im t} < 1e-75."""
    total = 0j
    for m in range(a - 16, 17, 2):
        total += cmath.exp(1j * math.pi * m / 2 * (m / 2 * t + b))
    return total


def det_twisted(nu: SpinStructure, p: Periods) -> float:
    """Determinant for an even twist: |theta_{nu1 nu2}(tau) / eta(tau)|^2, from the eta quotients.

    Also evaluated with the theta series at tau, which converges for tau in F; the two
    must agree to 1e-10 relative.  Raises ValueError below Im tau = sqrt(3)/2, the floor
    of F, where the series is cut short.
    """
    if nu.is_odd:
        raise OddStructure("(1,1) carries the zero mode; use det_prime_laplacian")
    if p.tau.imag < _F_FLOOR:
        raise ValueError(f"det_twisted takes tau in the fundamental domain, got {p.tau};"
                         " move the basis there with periods.reduce_periods")
    primary = abs(theta_ab(nu.nu1, nu.nu2, p.tau, p.eta) / p.eta) ** 2
    alt = abs(_theta_series(nu.nu1, nu.nu2, p.tau) / p.eta) ** 2
    if not abs(primary - alt) <= 1e-10 * primary:  # NaN fails
        raise CrossCheckFailed("twisted determinant: eta quotient vs theta series",
                               primary, alt, 1e-10)
    return primary


def quillen_norm_from_periods(p: Periods) -> float:
    """|Delta_modular|^{1/12} = 2 pi |eta(tau)|^2 / |2 omega|."""
    return TWO_PI * abs(p.eta) ** 2 / abs(2.0 * p.omega)


def det_dirichlet_annulus(p: Periods) -> float:
    """Dirichlet determinant on the period annulus: sqrt(det' Laplacian),
    which is (vol/2 pi) |eta^2/(2 omega)|."""
    return math.sqrt(det_prime_laplacian(p))


def det_dirichlet_flat(p: Periods) -> float:
    """Dirichlet determinant for the flat annulus metric: Im(tau) |eta|^2 |q|^{1/6}.

    It is the annulus determinant after the conformal rescaling
    det_D(Lambda^2 Delta) = det_D(flat) * exp(L / 6 pi) with Lambda = |omega| / pi,
    L = 2 pi^2 Im tau and Lambda^{2 zeta_D(0)} = 1/Lambda (zeta_D(0) = -1/2).
    """
    return p.tau.imag * abs(p.eta) ** 2 * abs(p.q) ** (1.0 / 6.0)


def quillen_norm_sigma_hat(p: Periods) -> float:
    """||sigma|| in the flat-annulus metric: |q^{1/6}/eta^2| / (2 pi)^2."""
    return abs(p.q) ** (1.0 / 6.0) / abs(p.eta) ** 2 / TWO_PI**2
