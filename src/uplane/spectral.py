"""Closed-form regularized determinants, Quillen norms, and the annulus
(Dirichlet) determinants with their conformal-rescaling cross-check.

Every quantity here is computed along at least two stated routes and the
routes are checked against each other (CrossCheckFailed on disagreement), so
a convention slip in one formula cannot pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .curves import WeierstrassCurve, discriminant
from .errors import CrossCheckFailed, OddStructure
from .modular import EVEN_STRUCTURES, TWO_PI, SpinStructure, dedekind_eta, theta_ab

if TYPE_CHECKING:  # periods validates its solves here, so it imports this module
    from .periods import Periods

#: Exact ratio between the zeta-continuation value of the odd-structure
#: determinant and the closed form used by the Quillen-metric chain below.
#: The continuation gives 4 Im^2(tau) |omega|^2 |eta|^4 (Kronecker limit
#: constant e^{-Z'(0)} = (2 pi)^2 |eta|^4, pinned against the exact Dirichlet
#: L-factorization 4 zeta(s) beta(s) of the square lattice), while the chain
#: that produces ||sigma||_Q = |Delta|^{1/12} carries the extra (2 pi)^-2.
CONTINUATION_OVER_CLOSED_FORM = TWO_PI**2


def _cross_check(quantity: str, value: float, reference: float, tol: float, scale: float):
    """Raise CrossCheckFailed unless |value - reference| <= tol * scale (NaN fails)."""
    if not abs(value - reference) <= tol * scale:
        raise CrossCheckFailed(quantity, value, reference, tol)


def fiber_volume(p: Periods) -> float:
    """vol(E) = 4 Im(tau) |omega|^2 in the metric dz.dzbar."""
    return 4.0 * p.tau.imag * abs(p.omega) ** 2


def modular_discriminant(p: Periods) -> complex:
    """(2 pi)^12 eta(tau)^24 / (2 omega)^12."""
    return TWO_PI**12 * dedekind_eta(p.tau) ** 24 / (2.0 * p.omega) ** 12


def det_prime_laplacian(p: Periods) -> float:
    """Regularized determinant of the fiber Laplacian (zero mode omitted).

    vol^2/(2 pi)^4 |Delta_modular|^{1/6}, equal to
    4 Im^2(tau) |omega|^2 |eta(tau)|^4 / (2 pi)^2; both forms are evaluated
    and must agree to 1e-12.
    """
    eta = dedekind_eta(p.tau)
    via_eta = 4.0 * p.tau.imag**2 * abs(p.omega) ** 2 * abs(eta) ** 4 / TWO_PI**2
    via_delta = fiber_volume(p) ** 2 / TWO_PI**4 * abs(modular_discriminant(p)) ** (1.0 / 6.0)
    _cross_check("det' Laplacian: eta route vs Delta route", via_eta, via_delta, 1e-12, via_eta)
    return via_eta


def det_twisted(nu: SpinStructure, p: Periods) -> float:
    """Determinant for an even twist: |theta_{nu1 nu2}(0|tau) / eta(tau)|^2.

    Also evaluated through the divisor form
    exp(-2 pi Im(xi)^2 / Im tau) |theta_00(xi|tau)/eta|^2 with
    xi = -nu2/2 - nu1 tau/2; the two must agree to 1e-10.
    """
    if nu.is_odd:
        raise OddStructure("(1,1) carries the zero mode; use det_prime_laplacian")
    tau = p.tau
    eta = dedekind_eta(tau)
    primary = abs(theta_ab(nu.nu1, nu.nu2, 0.0, tau) / eta) ** 2
    xi = -nu.nu2 / 2.0 - nu.nu1 * tau / 2.0
    gauss = math.exp(-2.0 * math.pi * xi.imag**2 / tau.imag)
    alt = gauss * abs(theta_ab(0, 0, xi, tau) / eta) ** 2
    _cross_check("twisted determinant: theta constant vs divisor form", primary, alt, 1e-10,
                 max(primary, 1.0))
    return primary


def det_twisted_all_even(p: Periods) -> tuple:
    return tuple(det_twisted(nu, p) for nu in EVEN_STRUCTURES)


def quillen_norm_sigma(curve: WeierstrassCurve) -> float:
    """||sigma||_Q = |Delta|^{1/12} for the section sigma = (dz)^{-1}.

    Defined (and zero) at nodes.  Real absolute values only; no fractional
    complex root is ever taken.
    """
    return abs(discriminant(curve)) ** (1.0 / 12.0)


def quillen_norm_from_periods(p: Periods) -> float:
    """|Delta_modular|^{1/12} = 2 pi |eta(tau)|^2 / |2 omega|."""
    return TWO_PI * abs(dedekind_eta(p.tau)) ** 2 / abs(2.0 * p.omega)


def det_dirichlet_annulus(p: Periods) -> float:
    """Dirichlet determinant on the period annulus: sqrt(det' Laplacian).

    Cross-checked against (vol/2 pi) |eta^2/(2 omega)|.
    """
    primary = math.sqrt(det_prime_laplacian(p))
    alt = fiber_volume(p) / TWO_PI * abs(dedekind_eta(p.tau) ** 2 / (2.0 * p.omega))
    _cross_check("annulus determinant: sqrt(det') vs eta form", primary, alt, 1e-12, primary)
    return primary


def det_dirichlet_flat(p: Periods) -> float:
    """Dirichlet determinant for the flat annulus metric: Im(tau) |eta|^2 |q|^{1/6}.

    Recomputed along the conformal-rescaling route
    det_D(Lambda^2 Delta) = det_D(flat) * exp(L / 6 pi) with L = 2 pi^2 Im tau
    and Lambda^{2 zeta_D(0)} = 1/Lambda (zeta_D(0) = -1/2); the two routes
    must agree to 1e-9.
    """
    tau = p.tau
    eta = dedekind_eta(tau)
    primary = tau.imag * abs(eta) ** 2 * abs(p.q) ** (1.0 / 6.0)
    lam = abs(p.omega) / math.pi
    ell = 2.0 * math.pi**2 * tau.imag
    rescaled = det_dirichlet_annulus(p) / lam / math.exp(ell / (6.0 * math.pi))
    _cross_check("flat annulus determinant vs conformal rescaling", primary, rescaled, 1e-9,
                 max(primary, 1e-300))
    return primary


def quillen_norm_sigma_hat(p: Periods) -> float:
    """||sigma|| in the flat-annulus metric: |q^{1/6}/eta^2| / (2 pi)^2.

    The factorized form |q|^{1/12} * |q^{1/12} / ((2 pi)^2 eta^2)| is also
    evaluated; its second factor tends to (2 pi)^-2 as q -> 0.
    """
    eta = dedekind_eta(p.tau)
    q112 = abs(p.q) ** (1.0 / 12.0)
    primary = abs(p.q) ** (1.0 / 6.0) / abs(eta) ** 2 / TWO_PI**2
    factored = q112 * (q112 / (TWO_PI**2 * abs(eta) ** 2))
    _cross_check("flat-annulus Quillen norm vs factorized form", primary, factored, 1e-12,
                 max(primary, 1e-300))
    return primary


@dataclass(frozen=True)
class FiberSpectralData:
    """Spectral summary of one smooth fiber."""

    periods: Periods
    volume: float
    det_laplace_prime: float
    quillen_norm_sigma: float

    @staticmethod
    def from_periods(p: Periods) -> "FiberSpectralData":
        return FiberSpectralData(
            periods=p,
            volume=fiber_volume(p),
            det_laplace_prime=det_prime_laplacian(p),
            quillen_norm_sigma=quillen_norm_from_periods(p),
        )


@dataclass(frozen=True)
class AnnulusModel:
    """The fiber presented as an annulus r1 < |W| < r2 glued by Z W = q."""

    periods: Periods
    r1: float
    r2: float
    Lambda: float
    conformal_L: float

    @staticmethod
    def from_periods(p: Periods) -> "AnnulusModel":
        r1 = abs(p.q) ** 0.5
        return AnnulusModel(
            periods=p,
            r1=r1,
            r2=1.0 / r1,
            Lambda=abs(p.omega) / math.pi,
            conformal_L=2.0 * math.pi**2 * p.tau.imag,
        )
