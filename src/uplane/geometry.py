"""Kaehler geometry of the u-plane: scalar curvature, the one-loop free energy
F1 = -1/2 ln det', and the anomaly-equation check.

d tau/du is closed-form.  Ramanujan's dj/dtau = -2 pi i j E6/E4 with
g2 = (2 pi)^4 E4 / (12 (2 omega)^4), g3 = (2 pi)^6 E6 / (216 (2 omega)^6) and
j = 1728 g2^3 / Delta gives

    d tau/du = (3 pi i / 4) W / (omega^2 Delta),   W = 2 g2 g3' - 3 g2' g3,

where W is the u-derivative part of dj/du = 1728 * 27 g2^2 g3 W / Delta^2.
The factor g2^2 g3 cancels, so the points j = 0 and j = 1728 need no special
case; the form is singular only on singular fibers (Delta = 0).  W is
expanded once per family, and j is constant exactly when W vanishes
identically.

The u-derivatives that remain finite differences are second-order central
differences with one Richardson level (default step 1e-4 * (1 + |u|)):
`uplane_point`, the check route for the closed form, and the Laplacian of F1
in `anomaly_check`, the independent side of the anomaly equation.  The
d tau/du stencil continues the period frame from the stencil center, so tau
never jumps lattice basis inside it.  F1 is SL(2,Z)-invariant, so its
evaluations need no seed.  F1 carries -(1/12) ln|Delta|, so a stencil of step h
is taken only when the disc of radius h around u provably holds no node: h below
Delta's `ComplexPoly.root_free_radius` at u, from its Taylor coefficients there.

The anomaly ratio constant below was fixed by symbolic differentiation before
anything here was implemented: with ln|Delta(u)| and ln|omega(u)|^2 harmonic
away from the nodes,

    F1 = -ln vol - (1/12) ln|Delta| + 2 ln 2 pi,   vol = 4 Im(tau)|omega|^2,
    d_u d_ubar F1 = -d_u d_ubar ln Im(tau) = |tau'(u)|^2 / (4 Im^2 tau),

so with Laplace-Beltrami (1/Im tau) d_a d_abar, da = omega du, and scalar
curvature S = |d tau/d a|^2 / (8 Im^3 tau):

    (Laplace-Beltrami F1) / S = 2  exactly, at every non-isotrivial point.
"""

import math
import sys
from dataclasses import dataclass

from .curves import ComplexPoly, CurveFamily, convolve, difference, discriminant_poly
from .errors import DivisionByZero, StencilCrossesSingularity
from .periods import Periods, periods_along_family
from .spectral import det_prime_laplacian

#: (Laplace-Beltrami of F1) / (scalar curvature), pinned pre-build (see above).
ANOMALY_RATIO = 2.0
#: largest coefficient of W, relative to its terms', of an isotrivial family
_ISOTRIVIAL_TOL = 1e-10


@dataclass(frozen=True)
class UPlanePoint:
    """A base point with its period frame and tau-derivative estimates."""

    u: complex
    periods: Periods
    d_tau_du: complex


@dataclass(frozen=True)
class AnomalyRecord:
    lhs: float
    rhs: float
    ratio: float


def _step(u: complex, h: float = None) -> float:
    """h, or by default 1e-4 (1 + |u|), which needs |u| finite.

    ValueError unless h is finite and positive, h^2 (the Laplacian divides by it) is finite,
    and the stencil keeps its points apart: u + h/2 and u + i h/2 differ from u, (h/2)^2 is normal.
    """
    if h is None:
        if not math.hypot(u.real, u.imag) < math.inf:
            raise ValueError(f"base point u={u} has a modulus beyond the double range")
        return 1e-4 * (1.0 + abs(u))
    if not 0 < h < math.inf:
        raise ValueError(f"finite-difference step must be finite and positive, not {h}")
    if not h * h < math.inf:  # a product, not h**2, which raises OverflowError
        raise ValueError(f"finite-difference step {h} is too large: h^2, by which the"
                         " Laplacian divides, overflows")
    if u + h / 2.0 == u or u + 0.5j * h == u or (h / 2.0) ** 2 < sys.float_info.min:
        raise ValueError(f"finite-difference step {h} collapses the stencil at u={u}:"
                         " u + h/2 or u + i h/2 rounds to u, or (h/2)^2 underflows")
    return h


def _check_stencil(family: CurveFamily, u: complex, h: float):
    """Refuse unless h < Delta's `root_free_radius` at u: the disc |z - u| <= h is node-free."""
    r = discriminant_poly(family).root_free_radius(u)
    if not h < r:
        raise StencilCrossesSingularity(f"stencil of step {h} at u={u} may reach a singular"
                                        f" fiber: Delta is node-free only within {r:.6g} of u")


def _j_numerator(family: CurveFamily):
    """(W, scale): W = 2 g2 g3' - 3 g2' g3 and the largest coefficient of its two terms."""
    g2, g3 = family.g2_poly, family.g3_poly
    a = [2.0 * c for c in convolve(g2.coeffs, g3.derivative().coeffs)]
    b = [3.0 * c for c in convolve(g2.derivative().coeffs, g3.coeffs)]
    return ComplexPoly.of(difference(a, b)), max(abs(c) for c in a + b)


def is_isotrivial(family: CurveFamily) -> bool:
    """True when j is constant in u: W = 2 g2 g3' - 3 g2' g3 vanishes identically.

    Every coefficient of W must be at most _ISOTRIVIAL_TOL times the largest coefficient
    of its two terms; g2 = 0 or g3 = 0 identically (j = 1728 or j = 0) count too.
    """
    w, scale = family.cached("j_numerator", _j_numerator)
    return all(abs(c) <= _ISOTRIVIAL_TOL * scale for c in w.coeffs)


def uplane_point(family: CurveFamily, u: complex, h: float = None) -> UPlanePoint:
    """Periods at u plus Richardson-extrapolated d tau/du.

    Five period solves; the finite-difference check route for `d_tau_du`.
    """
    h = _step(u, h)
    _check_stencil(family, u, h)
    center = periods_along_family(family, u)

    def tau_at(z: complex) -> complex:
        return periods_along_family(family, z, prev=center).tau

    tp, tm = tau_at(u + h), tau_at(u - h)
    tp2, tm2 = tau_at(u + h / 2), tau_at(u - h / 2)
    d1_h = (tp - tm) / (2.0 * h)
    d1_h2 = (tp2 - tm2) / h
    d1 = (4.0 * d1_h2 - d1_h) / 3.0
    return UPlanePoint(u=u, periods=center, d_tau_du=d1)


def d_tau_du(family: CurveFamily, u: complex, p: Periods, delta: complex) -> complex:
    """Closed-form d tau/du = (3 pi i / 4) W(u) / (omega^2 Delta(u)).

    p are the periods of the fiber at u; d tau/du is in their frame.  delta is
    Delta(u), discriminant_poly(family)(u).
    """
    w, _ = family.cached("j_numerator", _j_numerator)
    return 0.75j * math.pi * w(u) / (p.omega**2 * delta)


def scalar_curvature(family: CurveFamily, u: complex, p: Periods, delta: complex) -> float:
    """S = |d tau / d a|^2 / (8 Im^3 tau) with d tau/d a = (1/omega) d tau/du.

    p are the periods of the fiber at u and delta is Delta(u); d tau/du is the closed
    form of `d_tau_du`.
    """
    dtau_da = d_tau_du(family, u, p, delta) / p.omega
    return abs(dtau_da) ** 2 / (8.0 * p.tau.imag**3)


def f1_from_periods(p: Periods) -> float:
    """One-loop free energy: -1/2 ln det' of the fiber Laplacian with periods p."""
    return -0.5 * math.log(det_prime_laplacian(p))


def f1(family: CurveFamily, u: complex) -> float:
    """One-loop free energy at u: `f1_from_periods` of the fiber there."""
    return f1_from_periods(periods_along_family(family, u))


def anomaly_check(family: CurveFamily, u: complex, h: float = None) -> AnomalyRecord:
    """Both sides of the anomaly equation at u.

    lhs = (1/Im tau) (1/|omega|^2) d_u d_ubar F1 with the mixed derivative
    from the 5-point Laplacian (d_u d_ubar = Laplacian_2d / 4) at steps h and
    h/2, Richardson-combined; rhs = scalar curvature from the closed-form
    d tau/du at the center periods.  For isotrivial families both sides
    vanish and the ratio is NaN; a vanishing rhs at a non-isotrivial point
    raises DivisionByZero (an isolated critical point of tau(u), where the
    ratio is 0/0).
    """
    h = _step(u, h)
    _check_stencil(family, u, h)

    center = periods_along_family(family, u)
    f0 = f1_from_periods(center)

    def lap(hh: float) -> float:
        ring = (u + hh, u - hh, u + 1j * hh, u - 1j * hh)
        return (sum(f1(family, z) for z in ring) - 4.0 * f0) / hh**2

    lap_r = (4.0 * lap(h / 2.0) - lap(h)) / 3.0
    lhs = lap_r / 4.0 / (center.tau.imag * abs(center.omega) ** 2)
    rhs = scalar_curvature(family, u, center, discriminant_poly(family)(u))
    if is_isotrivial(family):
        # both sides are exactly zero in exact arithmetic; the ratio is noise
        return AnomalyRecord(lhs=lhs, rhs=rhs, ratio=float("nan"))
    if rhs < 1e-300:
        raise DivisionByZero(f"scalar curvature vanishes at u={u} (critical point of tau)")
    return AnomalyRecord(lhs=lhs, rhs=rhs, ratio=lhs / rhs)
