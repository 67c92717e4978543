"""Dedekind eta, theta constants and E4/E6 from q-series at reduce_tau's point of F, and a
lattice-zeta continuation oracle for regularized determinants of the twisted fiber Laplacian.
eta's q-product is checked there against Euler's pentagonal series of the same nome.
`eisenstein_in_f` sums E4 and E6 from the nome of a point of F, which a period basis
already carries; `eisenstein_e4/e6` walk tau there first.

The oracle evaluates the eigenvalue zeta function of (-4 d dbar) on a torus
with half-period omega and modulus tau, twisted by a spin structure
(nu1, nu2), through its analytic continuation (incomplete-gamma / theta
transform split), never through the eta/theta closed forms.  That makes it an
independent check of those closed forms rather than a restatement of them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, CrossCheckFailed

TWO_PI = 2.0 * math.pi
EULER_GAMMA = 0.5772156649015328606065
_TERM_TOL = 1e-17
_MAX_TERMS = 10**4

#: relative tolerance between eta's q-product and its pentagonal series at a point of F,
#: over 100 times their worst disagreement: 8.4e-16 over 2,502 points (the arc |t| = 1,
#: the edges Re t = +-1/2 and the interior up to Im t = 100)
ETA_SERIES_RTOL = 1e-13


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

    def moved(self, a: int, b: int, c: int, d: int) -> "SpinStructure":
        """This structure carried from tau to t = (a tau + b) / (c tau + d): |theta / eta|^2
        and `epstein_zeta_logdet` keep their values when tau moves to t, omega to
        (c tau + d) omega and the characteristic to the one returned."""
        return SpinStructure((d * self.nu1 - c * self.nu2 + c * d) % 2,
                             (a * self.nu2 - b * self.nu1 + a * b) % 2)


EVEN_STRUCTURES = (SpinStructure(0, 0), SpinStructure(0, 1), SpinStructure(1, 0))
ODD_STRUCTURE = SpinStructure(1, 1)


def _tau_of(tau) -> complex:
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError(f"Im tau must be positive, got {tau}")
    return tau


#: slack of every boundary of the fundamental domain
_EDGE = 1e-9


def reduce_tau(tau) -> tuple:
    """SL(2,Z)-reduce tau into the closed fundamental domain F.

    F is |tau| >= 1 with -1/2 < Re tau <= 1/2, and Re tau >= 0 on |tau| = 1.
    Each boundary carries a slack of 1e-9: Re tau within it of -1/2 is moved
    to +1/2, |tau| within it of 1 counts as on the circle, and there Re tau
    within it of 0 counts as Re tau >= 0, so a basis whose rounding puts it
    just left of i is a point of F.
    Returns (tau_reduced, (a, b, c, d)) with tau_reduced = (a tau + b)/(c tau + d).
    """
    t = _tau_of(tau)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        n = math.floor(0.5 + _EDGE - t.real)
        if n != 0:
            t += n
            a, b = a + n * c, b + n * d
        r = abs(t)
        if r < 1.0 - _EDGE or (r <= 1.0 + _EDGE and t.real < -_EDGE):
            t = -1.0 / t
            if not cmath.isfinite(t):
                raise ValueError(f"tau = {tau} is too close to the real axis: -1/tau overflows")
            a, b, c, d = -c, -d, a, b
        else:
            break
    return t, (a, b, c, d)


def _eta_qproduct(q: complex) -> complex:
    """prod (1 - q^n) over n >= 1, up to the first q^n below 1e-17."""
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(_MAX_TERMS):
        qn *= q
        if abs(qn) < _TERM_TOL:
            break
        prod *= 1.0 - qn
    return prod


def _eta_pentagonal(q: complex) -> complex:
    """Euler's pentagonal series sum_n (-1)^n q^{n (3n - 1) / 2} for the nome of a point of F:
    |n| <= 3 leaves out terms below |q|^22 < 1e-52."""
    return 1.0 - q - q**2 + q**5 + q**7 - q**12 - q**15


def _eta_multiplier(a: int, c: int, d: int) -> complex:
    """eps = e^{pi i ((a + d) / 12c - s(d, c))} for c > 0, with the Dedekind sum s(d, c)
    from the reciprocity law s(h, k) + s(k, h) = (h^2 + k^2 + 1) / 12hk - 1/4.

    eps is a 24th root of unity, so the phase, summed in floats, is rounded to the
    nearest multiple of 1/12; that is exact while its rounding error is below 1/24.
    a + d enters mod 24c, which leaves eps as it is and keeps 12 phase a small float when
    the matrix of a tau far along the real axis has a + d near the double range.
    """
    phase = (a + d) % (24 * c) / (12 * c)
    sign = -1
    h, k = d % c, c
    while h:
        phase += sign * ((h * h + k * k + 1) / (12 * h * k) - 0.25)
        sign = -sign
        h, k = k % h, h
    phase = (round(12 * phase) % 24) / 12.0
    return cmath.exp(1j * math.pi * phase)


def dedekind_eta(tau) -> complex:
    """eta(tau) = e^{pi i tau / 12} prod (1 - q^n), q = e^{2 pi i tau}.

    The product is taken at t = (a tau + b) / (c tau + d) = reduce_tau(tau), returned as
    it is when the matrix is the identity, and otherwise carried back by the multiplier of
    the matrix, signed so that c > 0, or c = 0 and d = 1 (Apostol, Modular Functions, thm 3.4):
    eta(t) = eps sqrt(-i (c tau + d)) eta(tau), and eta(tau + b) = e^{pi i b/12} eta(tau).
    The product at t is checked against Euler's pentagonal series of the same nome: they
    must agree to ETA_SERIES_RTOL = 1e-13 relative (8.4e-16 at worst over 2,502 points of F
    up to Im t = 100), else CrossCheckFailed; NaN fails too.
    """
    t, matrix = reduce_tau(tau)
    q = cmath.exp(2j * math.pi * t)
    twelfth = cmath.exp(1j * math.pi * t / 12.0)
    eta = twelfth * _eta_qproduct(q)
    series = twelfth * _eta_pentagonal(q)
    if not abs(eta - series) <= ETA_SERIES_RTOL * abs(series):
        raise CrossCheckFailed("eta: q-product vs pentagonal series", eta, series, ETA_SERIES_RTOL)
    if matrix == (1, 0, 0, 1):
        return eta
    a, b, c, d = matrix
    if (c, d) < (0, 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return cmath.exp(-1j * math.pi * b / 12.0) * eta
    root = cmath.sqrt(-1j * (c * complex(tau) + d))
    return eta / (_eta_multiplier(a, c, d) * root)


def theta_ab(a: int, b: int, tau, eta: complex = None, eta_at=None) -> complex:
    """Theta constant theta_ab(0|tau) = sum_n exp[i pi (n + a/2)^2 tau + i pi (n + a/2) b],
    a, b in {0, 1}, from the eta quotients (Koehler, Eta Products, 2011): theta_00 =
    eta^5 / (eta(tau/2)^2 eta(2 tau)^2), theta_01 = eta(tau/2)^2 / eta,
    theta_10 = 2 eta(2 tau)^2 / eta and theta_11 = 0.  eta is eta(tau) and eta_at(k) is
    eta(k tau) for k = 1/2 and 2, each taken here unless the caller has them (a period
    basis' `Periods.eta` and `Periods.eta_at`, which keep every eta they evaluate)."""
    if (a, b) == (1, 1):
        return 0j
    if eta is None:
        eta = dedekind_eta(tau)
    if eta_at is None:
        def eta_at(k):
            return dedekind_eta(k * tau)
    if a == 1:
        return 2.0 * eta_at(2.0) ** 2 / eta
    half = eta_at(0.5)
    if b == 1:
        return half**2 / eta
    return eta**5 / (half * eta_at(2.0)) ** 2


def eisenstein_in_f(q: complex) -> tuple:
    """(E4, E6) at a point of F from its nome q, in one loop over q^n:
    E4 = 1 + 240 sum n^3 q^n / (1 - q^n) and E6 = 1 - 504 sum n^5 q^n / (1 - q^n),
    each summed until its own term is below 1e-17 of max(1, |its sum|)."""
    s4 = s6 = 0j
    open4 = open6 = True
    qn = 1.0 + 0.0j
    for n in range(1, _MAX_TERMS):
        qn *= q
        one_minus = 1.0 - qn
        n3 = n * n * n
        if open4:  # max(1, |s|) as a conditional, which is cheaper than the call
            term = n3 * qn / one_minus
            s4 += term
            size = abs(s4)
            open4 = not abs(term) < _TERM_TOL * (size if size > 1.0 else 1.0)
        if open6:
            term = n3 * n * n * qn / one_minus
            s6 += term
            size = abs(s6)
            open6 = not abs(term) < _TERM_TOL * (size if size > 1.0 else 1.0)
        if not (open4 or open6):
            break
    return 1.0 + 240.0 * s4, 1.0 - 504.0 * s6


def _eisenstein(tau) -> tuple:
    """(E4, E6)(tau): `eisenstein_in_f` at t = reduce_tau(tau), carried back by the weight,
    E(tau) = E(t) / (c tau + d)^k."""
    t, (_, _, c, d) = reduce_tau(tau)
    e4, e6 = eisenstein_in_f(cmath.exp(2j * math.pi * t))
    z = c * complex(tau) + d
    return e4 / z**4, e6 / z**6


def eisenstein_e4(tau) -> complex:
    """E4(tau) = 1 + 240 sum n^3 q^n / (1 - q^n)."""
    return _eisenstein(tau)[0]


def eisenstein_e6(tau) -> complex:
    """E6(tau) = 1 - 504 sum n^5 q^n / (1 - q^n)."""
    return _eisenstein(tau)[1]


def klein_j(e4: complex, eta: complex) -> complex:
    """Klein j = E4^3 / eta^24 of E4 and eta at one tau: unlike 1728 E4^3 / (E4^3 - E6^2), it
    cancels nothing."""
    return e4**3 / eta**24


def j_from_tau(tau) -> complex:
    """Klein j(tau), `klein_j` of E4 and eta at tau."""
    return klein_j(eisenstein_e4(tau), dedekind_eta(tau))


def g2_g3_from_forms(e4: complex, e6: complex, omega: complex) -> tuple:
    """g2 = (2 pi)^4 E4 / (12 (2 omega)^4) and g3 = (2 pi)^6 E6 / (216 (2 omega)^6)."""
    two_w = 2.0 * omega
    return TWO_PI**4 * e4 / (12.0 * two_w**4), TWO_PI**6 * e6 / (216.0 * two_w**6)


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
#
# E1 = Gamma(0, x) is `_exp1`: the power series below x = 2, 40-point
# Gauss-Laguerre from 2 to 60 (absolute error <= 1.5e-15, relative <= 3e-14
# against mpmath), and 0 above 60, where E1(60) < 1.5e-28 lies far below the
# grids' own e^-46 truncation.
# ---------------------------------------------------------------------------

def _lattice_grids(nu: SpinStructure, tau: complex):
    """The two lattice grids of the continuation, |m|, |n| <= N.

    N is chosen so that dropped terms are below e^-46.  Returns
    (qf, mask, r, kmask, phase): the direct-sum grid
    Q = |(m+h1) tau - (n+h2)|^2 with the origin masked out for the odd
    structure, the Fourier grid r = |m + n tau|^2 with k = 0 masked out, and
    its phase cos(2 pi k.h).  Masked entries of Q and r are 1, so both grids
    can be divided by and raised to any power; sums take where=mask.
    """
    import numpy as np

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


@functools.cache
def _exp1_rules() -> tuple:
    """(k, c_k, u, w): the series' powers k = 1..30 and c_k = (-1)^k / (k k!), and the
    40-point Gauss-Laguerre nodes u and weights w, built on first use.

    The nodes are eigenvalues of the Jacobi matrix of the Laguerre recurrence
    (k+1) L_{k+1} = (2k+1-u) L_k - k L_{k-1}, given one Newton step on L_40; the
    weights are the Christoffel numbers 1 / sum_{k<40} L_k(u)^2.
    """
    import numpy as np

    n = 40
    u = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1))
    for polish in (True, False):
        prev, cur, norm = np.zeros(n), np.ones(n), np.zeros(n)
        for k in range(n):
            norm += cur * cur
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
        if polish:  # L_40' = 40 (L_40 - L_39) / u
            u = u - u * cur / (n * (cur - prev))
    k = np.arange(1.0, 31.0)
    return k, (-1.0) ** k / (k * np.cumprod(k)), u, 1.0 / norm


def _exp1(x: np.ndarray) -> np.ndarray:
    """E1(x) = Gamma(0, x) = int_x^inf e^-t / t dt for an array of finite x > 0.

    x < 2: -gamma - ln x - sum_{k=1..30} (-x)^k / (k k!) (Abramowitz & Stegun 5.1.11).
    2 <= x <= 60: e^-x sum_i w_i / (x + u_i), 40-point Gauss-Laguerre.
    x > 60: 0, since E1(60) < 1.5e-28.
    Against mpmath the absolute error is below 1.5e-15 and the relative below 3e-14.
    Raises ConvergenceFailure on a non-finite or non-positive entry, where E1 has no value.
    """
    import numpy as np

    ok = (x > 0.0) & (x < np.inf)
    if not ok.all():
        raise ConvergenceFailure(f"E1 needs finite arguments > 0, got {float(x[~ok][0])!r}")
    k, coef, u, w = _exp1_rules()
    out = np.zeros_like(x)
    low = x < 2.0
    mid = ~low & (x <= 60.0)
    s = x[low]
    out[low] = -EULER_GAMMA - np.log(s) - np.power.outer(s, k) @ coef
    t = x[mid]
    out[mid] = np.exp(-t) * ((1.0 / (t[:, None] + u)) @ w)
    return out


def _zeta_sums_at_zero(nu: SpinStructure, tau: complex):
    import numpy as np

    imt = tau.imag
    qf, mask, r, kmask, phase = _lattice_grids(nu, tau)
    direct = float(np.sum(_exp1(math.pi * qf / imt), where=mask))
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
