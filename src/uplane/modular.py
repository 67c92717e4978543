"""Dedekind eta, Jacobi theta constants, Eisenstein series, and a lattice-zeta
continuation oracle for regularized determinants of the twisted fiber Laplacian.

The oracle evaluates the eigenvalue zeta function of (-4 d dbar) on a torus
with half-period omega and modulus tau, twisted by a spin structure
(nu1, nu2), through its analytic continuation (incomplete-gamma / theta
transform split), never through the eta/theta closed forms.  That makes it an
independent check of those closed forms rather than a restatement of them.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure

TWO_PI = 2.0 * math.pi
EULER_GAMMA = 0.5772156649015328606065
_TERM_TOL = 1e-17
_MAX_TERMS = 10**4


@dataclass(frozen=True)
class SpinStructure:
    """Periodicity twists (nu1, nu2) in {0,1}^2; (1,1) is the odd structure."""

    nu1: int
    nu2: int

    def __post_init__(self):
        if self.nu1 not in (0, 1) or self.nu2 not in (0, 1):
            raise ValueError("spin structure entries must be 0 or 1")

    @property
    def is_odd(self) -> bool:
        return self.nu1 == 1 and self.nu2 == 1

    @property
    def shifts(self) -> tuple:
        """Lattice shifts ((1-nu1)/2, (1-nu2)/2) entering the eigenvalues."""
        return ((1 - self.nu1) / 2.0, (1 - self.nu2) / 2.0)


EVEN_STRUCTURES = (SpinStructure(0, 0), SpinStructure(0, 1), SpinStructure(1, 0))
ODD_STRUCTURE = SpinStructure(1, 1)


@dataclass(frozen=True)
class TauPoint:
    """A modulus in the upper half-plane together with its nome q = e^{2 pi i tau}."""

    tau: complex
    q: complex

    @staticmethod
    def of(tau) -> "TauPoint":
        if isinstance(tau, TauPoint):
            return tau
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError(f"Im tau must be positive, got {tau}")
        return TauPoint(tau=tau, q=cmath.exp(2j * math.pi * tau))


def _tau_of(tau) -> complex:
    return TauPoint.of(tau).tau


def reduce_tau(tau) -> tuple:
    """SL(2,Z)-reduce tau into |Re| <= 1/2, |tau| >= 1.

    Returns (tau_reduced, (a, b, c, d)) with tau_reduced = (a tau + b)/(c tau + d).
    """
    t = _tau_of(tau)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        n = round(t.real)
        if n != 0:
            t -= n
            a, b = a - n * c, b - n * d
        if abs(t) < 1.0 - 1e-15:
            t = -1.0 / t
            a, b, c, d = -c, -d, a, b
        else:
            break
    return t, (a, b, c, d)


def _eta_qproduct(tau: complex) -> complex:
    q = cmath.exp(2j * math.pi * tau)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(_MAX_TERMS):
        qn *= q
        if abs(qn) < _TERM_TOL:
            break
        prod *= 1.0 - qn
    return cmath.exp(1j * math.pi * tau / 12.0) * prod


def dedekind_eta(tau) -> complex:
    """eta(tau) = e^{pi i tau / 12} prod (1 - q^n), q = e^{2 pi i tau}.

    For Im tau < 0.5 the point is first SL(2,Z)-reduced, tracking the full
    multiplier system: eta(tau + 1) = e^{i pi/12} eta(tau) and
    eta(-1/tau) = sqrt(-i tau) eta(tau).
    """
    t = _tau_of(tau)
    if t.imag >= 0.5:
        return _eta_qproduct(t)
    f = 1.0 + 0.0j
    for _ in range(500):
        n = round(t.real)
        if n != 0:
            t -= n
            f *= cmath.exp(1j * math.pi * n / 12.0)
        if abs(t) < 1.0 - 1e-15:
            # eta(t) = eta(-1/t) / sqrt(-i t)
            f /= cmath.sqrt(-1j * t)
            t = -1.0 / t
        else:
            break
    return f * _eta_qproduct(t)


def theta_ab(a: int, b: int, v: complex, tau) -> complex:
    """theta_ab(v|tau) = sum_n exp[i pi (n+a/2)^2 tau + 2 pi i (n+a/2)(v+b/2)].

    Symmetric truncation; stops when both tails fall below 1e-17.
    """
    t = _tau_of(tau)
    v = complex(v)
    tot = 0j
    for n in range(0, _MAX_TERMS):
        # the pair (n, -n-1) sweeps all integers symmetrically around -1/2
        added = 0.0
        for m in (n + a / 2.0, -n - 1 + a / 2.0):
            term = cmath.exp(1j * math.pi * m * m * t + 2j * math.pi * m * (v + b / 2.0))
            tot += term
            added = max(added, abs(term))
        if n >= 1 and added < _TERM_TOL * max(1.0, abs(tot)):
            break
    return tot


def _eisenstein(tau, power: int, coeff: float) -> complex:
    """1 + coeff sum n^power q^n / (1 - q^n), summed until a term is below 1e-17."""
    q = TauPoint.of(tau).q
    s = 0j
    qn = 1.0 + 0.0j
    for n in range(1, _MAX_TERMS):
        qn *= q
        term = n**power * qn / (1.0 - qn)
        s += term
        if abs(term) < _TERM_TOL * max(1.0, abs(s)):
            break
    return 1.0 + coeff * s


def eisenstein_e4(tau) -> complex:
    """E4(tau) = 1 + 240 sum n^3 q^n / (1 - q^n)."""
    return _eisenstein(tau, 3, 240.0)


def eisenstein_e6(tau) -> complex:
    """E6(tau) = 1 - 504 sum n^5 q^n / (1 - q^n)."""
    return _eisenstein(tau, 5, -504.0)


def j_from_tau(tau) -> complex:
    """Klein j from Eisenstein series: j = 1728 E4^3 / (E4^3 - E6^2)."""
    e4 = eisenstein_e4(tau)
    e6 = eisenstein_e6(tau)
    return 1728.0 * e4**3 / (e4**3 - e6**2)


def lattice_g2_g3(tau, omega: complex) -> tuple:
    """Weierstrass invariants of the lattice spanned by 2*omega, 2*omega*tau."""
    two_w = 2.0 * omega
    g2 = TWO_PI**4 * eisenstein_e4(tau) / (12.0 * two_w**4)
    g3 = TWO_PI**6 * eisenstein_e6(tau) / (216.0 * two_w**6)
    return g2, g3


def eigenvalue_2dbar(n1: int, n2: int, nu: SpinStructure, tau: complex, omega: complex) -> complex:
    """Eigenvalue of 2 dbar on mode (n1, n2) for the given twists.

    (pi / (Im tau * conj(omega))) * ((n1 + (1-nu1)/2) tau - (n2 + (1-nu2)/2)).
    """
    h1, h2 = nu.shifts
    return (math.pi / (tau.imag * omega.conjugate())) * ((n1 + h1) * tau - (n2 + h2))


# ---------------------------------------------------------------------------
# Lattice zeta continuation.
#
# Z(s) = sum' |(m+h1) tau - (n+h2)|^{-2s}  (the (0,0) term dropped when the
# shifts vanish).  With the balanced split point T = pi / Im tau the
# continuation reads
#
#   Gamma(s) Z(s) = sum' Q^{-s} Gamma(s, T Q)
#                 + (pi/Im tau) T^{s-1}/(s-1) - delta T^s / s
#                 + (pi/Im tau) sum_{k != 0} e^{2 pi i k.h} c_k^{s-1} Gamma(1-s, c_k/T),
#
# where Q = |(m+h1) tau - (n+h2)|^2, c_k = pi^2 (k^T A^{-1} k) = pi^2 |k1 + k2 tau|^2 / Im^2 tau,
# and delta = 1 when the shifted lattice contains the origin.  Both sums decay
# like exp(-pi |.|^2 / Im tau).  At s = 0 this yields
#
#   Z(0)  = -delta,
#   Z'(0) = sum' E1(pi Q / Im tau) - 1
#         + (Im tau / pi) sum_{k != 0} cos(2 pi k.h) e^{-pi |k1+k2 tau|^2 / Im tau} / |k1+k2 tau|^2
#         - delta (ln(pi / Im tau) + gamma_Euler).
# ---------------------------------------------------------------------------

def _upper_gamma(a: float, x):
    """Upper incomplete Gamma(a, x) for real a (array x), by downward recursion.

    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a, seeded from a positive
    first argument where scipy's regularized form applies; Gamma(0, x) = E1(x).
    """
    from scipy.special import exp1, gamma as gamma_fn, gammaincc  # oracle-only dependency

    x = np.asarray(x, dtype=float)
    if a > 0:
        return gammaincc(a, x) * gamma_fn(a)
    steps = int(math.ceil(-a)) + 1
    top = a + steps
    g = gammaincc(top, x) * gamma_fn(top) if top > 0 else exp1(x)
    aa = top
    for _ in range(steps):
        aa -= 1.0
        if abs(aa) < 1e-300:
            g = exp1(x)
        else:
            g = (g - x**aa * np.exp(-x)) / aa
    return g


def _lattice_grids(nu: SpinStructure, tau: complex):
    """The two lattice grids of the continuation, |m|, |n| <= N.

    N is chosen so that dropped terms are below e^-46.  Returns
    (qf, mask, r, kmask, phase): the direct-sum grid
    Q = |(m+h1) tau - (n+h2)|^2 with the origin masked out for the odd
    structure, the Fourier grid r = |m + n tau|^2 with k = 0 masked out, and
    its phase cos(2 pi k.h).  Masked entries of Q and r are 1, so both grids
    can be divided by and raised to any power; sums take where=mask.
    """
    imt = tau.imag
    # smallest eigenvalue of [[|tau|^2, -Re tau], [-Re tau, 1]]
    tr, det = abs(tau) ** 2 + 1.0, imt * imt
    lam_min = 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    if lam_min <= 0:
        raise ConvergenceFailure(f"degenerate lattice form at tau={tau}")
    n = int(math.ceil(math.sqrt(46.0 * imt / (math.pi * lam_min)))) + 2
    if n > 600:
        raise ConvergenceFailure(
            f"lattice sum needs half-width {n} at tau={tau}; tail bound above 1e-10"
        )
    idx = np.arange(-n, n + 1)
    m_grid, n_grid = np.meshgrid(idx, idx, indexing="ij")
    h1, h2 = nu.shifts
    qf = np.abs((m_grid + h1) * tau - (n_grid + h2)) ** 2
    mask = np.ones_like(qf, dtype=bool)
    if nu.is_odd:
        mask[(m_grid == 0) & (n_grid == 0)] = False
    qf = np.where(mask, qf, 1.0)

    kmask = (m_grid != 0) | (n_grid != 0)
    r = np.where(kmask, np.abs(m_grid + n_grid * tau) ** 2, 1.0)
    phase = np.cos(2.0 * math.pi * (m_grid * h1 + n_grid * h2))
    return qf, mask, r, kmask, phase


def _zeta_sums_at_zero(nu: SpinStructure, tau: complex):
    from scipy.special import exp1  # oracle-only dependency

    imt = tau.imag
    qf, mask, r, kmask, phase = _lattice_grids(nu, tau)
    direct = float(np.sum(exp1(np.clip(math.pi * qf / imt, 1e-300, 700.0)), where=mask))
    fourier = float(
        np.sum(phase * np.exp(-np.clip(math.pi * r / imt, 0.0, 700.0)) / r, where=kmask)
    ) * (imt / math.pi)
    return direct, fourier, 1 if nu.is_odd else 0


def epstein_zeta_prime0(nu: SpinStructure, tau) -> float:
    """Z'(0) of the shifted-lattice zeta by analytic continuation."""
    t = _tau_of(tau)
    direct, fourier, delta = _zeta_sums_at_zero(nu, t)
    return direct + fourier - 1.0 - delta * (math.log(math.pi / t.imag) + EULER_GAMMA)


def epstein_zeta_logdet(nu: SpinStructure, tau, omega: complex) -> float:
    """ln det(-4 d dbar) for the twisted fiber Laplacian, from the continuation.

    With zeta(0) = 0 for even structures and -1 for (1,1) (zero mode dropped):

        ln det = -Z'(0) + ln((pi / (Im tau |omega|))^2) * zeta(0).
    """
    t = _tau_of(tau)
    omega = complex(omega)
    if omega == 0:
        raise ValueError("omega must be nonzero")
    zp = epstein_zeta_prime0(nu, t)
    z0 = -1.0 if nu.is_odd else 0.0
    return -zp + math.log((math.pi / (t.imag * abs(omega))) ** 2) * z0


def epstein_zeta_value(s: float, nu: SpinStructure, tau) -> float:
    """The shifted-lattice zeta at real s != 1 via the same continuation.

    Convergent everywhere except the pole at s = 1; for s > 1 it agrees with
    the direct lattice sum, and s -> 0 recovers zeta(0) in {0, -1}.
    """
    from scipy.special import gamma as gamma_fn  # oracle-only dependency

    t = _tau_of(tau)
    delta = 1 if nu.is_odd else 0
    if s == 0.0:
        return -float(delta)
    if s <= 0.0 or s == 1.0:
        raise ValueError("supported range is real s > 0 with s != 1")
    imt = t.imag
    bigt = math.pi / imt
    qf, mask, r, kmask, phase = _lattice_grids(nu, t)
    direct = float(np.sum(qf ** (-s) * _upper_gamma(s, bigt * qf), where=mask))

    ck = math.pi**2 * r / imt**2
    fourier = float(
        np.sum(phase * ck ** (s - 1.0) * _upper_gamma(1.0 - s, ck / bigt), where=kmask)
    ) * (math.pi / imt)

    middle = (math.pi / imt) * bigt ** (s - 1.0) / (s - 1.0)
    pole = -delta * bigt**s / s
    return (direct + fourier + middle + pole) / gamma_fn(s)
