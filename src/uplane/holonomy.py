"""Flat-connection holonomies, exact logarithmic monodromies, curvature-current
residues, and the monodromy route to the surface signature.

Everything is driven by the logarithmic derivative Delta'/Delta of the chart
discriminant, never by a fractional power of Delta, so there are no branch
cuts: the numeric side produces an integer winding, and all fractional data
are exact rationals attached to that integer.

Orientation conventions.  Internal contour integrals always run
counterclockwise in the active chart; a CLOCKWISE loop spec is applied as a
final sign flip.  The loop "around infinity" is taken clockwise around v = 0
in the v-chart (equivalently counterclockwise around all finite nodes in the
u-chart); with that convention a clockwise node loop has signature
log-monodromy -2/3 and the infinity loop -2(10-nf)/3, while the dbar operator
carries the mod-4 classes -1/3 and -(10-nf)/3, reported as the representative
in (-4, 0].
"""

import cmath
import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .curves import ComplexPoly, CurveFamily, discriminant_poly, near_singular_fiber, to_v_chart
from .errors import (
    CrossCheckFailed,
    LoopTooCloseToSingularity,
    NonIntegerWinding,
    SingularFiber,
)
from .kodaira import AT_INFINITY, find_singular_fibers

#: sample counts a loop may be integrated at; a loop that needs more is refused
_MIN_SAMPLES, _MAX_SAMPLES = 64, 1 << 20
#: agreement required between the numeric phase and the exact log-monodromy
_PHASE_TOL = 1e-9
#: distance of integral / (2 pi i) from the winding that the check accepts;
#: a phase error of 1e-9 for the 1/6 operator is a distance of 9.5e-10
_INTEGRAL_TOL = 1e-10


class Operator(enum.Enum):
    DBAR = "dbar"
    SIGNATURE = "signature"


#: connection coefficient multiplying Delta'/Delta
_COEFF = {Operator.DBAR: Fraction(1, 12), Operator.SIGNATURE: Fraction(1, 6)}
#: log-monodromy per unit winding
_ETA_PER_WINDING = {Operator.DBAR: Fraction(1, 3), Operator.SIGNATURE: Fraction(2, 3)}


class Orientation(enum.Enum):
    CLOCKWISE = "cw"
    COUNTERCLOCKWISE = "ccw"


class Chart(enum.Enum):
    U = "u"
    V = "v"


@dataclass(frozen=True)
class LoopSpec:
    center: complex
    radius: float
    samples: int = 1024
    orientation: Orientation = Orientation.COUNTERCLOCKWISE
    chart: Chart = Chart.U

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise ValueError("loop center must be finite and radius finite and positive")
        if not _MIN_SAMPLES <= self.samples <= _MAX_SAMPLES:
            raise ValueError(f"loop samples must be between {_MIN_SAMPLES} and {_MAX_SAMPLES}")


@dataclass(frozen=True)
class HolonomyResult:
    loop: LoopSpec
    operator: Operator
    winding: int
    log_monodromy: Fraction
    phase: complex

    @property
    def phase_exact(self) -> complex:
        return cmath.exp(-0.5j * math.pi * float(self.log_monodromy))


@dataclass(frozen=True)
class CurvatureLedger:
    residues: tuple  # ((location, Fraction), ...)
    total: Fraction
    max_numeric_error: float = 0.0


def _chart_delta(family: CurveFamily, chart: Chart) -> ComplexPoly:
    return discriminant_poly(family) if chart is Chart.U else to_v_chart(family).delta_v


def connection_form(operator: Operator, family: CurveFamily, u: complex) -> complex:
    """du-coefficient of the flat connection: (1/12 or 1/6) Delta'(u)/Delta(u)."""
    if near_singular_fiber(family, u, 1e-12):
        raise SingularFiber(f"fiber at u={u} is singular")
    d = discriminant_poly(family)
    return float(_COEFF[operator]) * d.derivative()(u) / d(u)


def _zeros(delta: ComplexPoly) -> list:
    """Zeros of a chart discriminant as (location, 1) pairs, repeated zeros listed apart."""
    return [(z, 1) for z in np.roots(list(reversed(delta.coeffs)))] if delta.degree > 0 else []


def _loop_clearance(zeros, loop: LoopSpec):
    for z, _ in zeros:
        gap = abs(abs(complex(z) - loop.center) - loop.radius)
        if gap < 1e-6:
            raise LoopTooCloseToSingularity(
                f"contour passes within {gap:.2e} of discriminant zero at {complex(z)}"
            )


def _sample_count(zeros, loop: LoopSpec) -> int:
    """Smallest n >= loop.samples whose trapezoid error bound is _INTEGRAL_TOL / 8 or less.

    The n-point rule misses integral / (2 pi i) by at most the sum of m rho^n / (1 - rho^n)
    over the zeros (location, multiplicity m), rho = s/r for a zero at distance s < r from
    the center and r/s outside (Trefethen & Weideman, SIAM Review 2014); n <= _MAX_SAMPLES.
    """
    dist = [(m, abs(complex(z) - loop.center)) for z, m in zeros]
    rhos = [(m, min(s, loop.radius) / max(s, loop.radius)) for m, s in dist]

    def bound(n: int) -> float:
        return sum(m * rho**n / (1.0 - rho**n) if rho < 1.0 else math.inf for m, rho in rhos)

    tol, lo, hi = _INTEGRAL_TOL / 8, loop.samples, _MAX_SAMPLES
    if bound(lo) <= tol:
        return lo
    if bound(hi) > tol:
        raise LoopTooCloseToSingularity(f"contour needs over {hi} samples near a zero")
    while hi - lo > 1:  # bound(lo) > tol >= bound(hi)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= tol else (mid, hi)
    return hi


def _ccw_winding_and_transport(delta: ComplexPoly, loop: LoopSpec, zeros):
    """(loop at the sample count used, ccw winding of Delta, integral of Delta'/Delta dz).

    One trapezoid rule at `_sample_count` of the chart discriminant's `zeros`,
    (location, multiplicity) pairs, over one array of Delta and Delta' values.
    The winding is read from the unwrapped argument of Delta (within 1e-8 of
    an integer) and as integral / (2 pi i) (within _INTEGRAL_TOL of it); else
    NonIntegerWinding.  An operator's transport is its coefficient times the integral.
    """
    _loop_clearance(zeros, loop)
    n = _sample_count(zeros, loop)
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    rim = np.exp(1j * theta)
    z = loop.center + loop.radius * rim
    dz = 1j * loop.radius * rim * (2.0 * math.pi / n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral raises below
        vals = delta.at(z)
        dvals = delta.derivative().at(z)
        if np.any(np.abs(vals) == 0.0):
            raise LoopTooCloseToSingularity("contour hits a discriminant zero")
        integral = np.sum(dvals / vals * dz)
    if not cmath.isfinite(integral):
        raise NonIntegerWinding(f"contour integral is not finite at {n} samples")
    args = np.angle(vals)
    jumps = np.diff(np.concatenate([args, args[:1]]))
    jumps = (jumps + math.pi) % (2.0 * math.pi) - math.pi
    winding = float(np.sum(jumps) / (2.0 * math.pi))
    k = round(winding)
    if abs(winding - k) > 1e-8 or abs(integral / (2j * math.pi) - k) > _INTEGRAL_TOL:
        raise NonIntegerWinding(f"winding {winding} (integral {integral / (2j * math.pi)}) "
                                f"not integral at {n} samples")
    return replace(loop, samples=n), k, integral


def _holonomy_result(
    operator: Operator, loop: LoopSpec, w_ccw: int, integral: complex
) -> HolonomyResult:
    """Exact log-monodromy and checked numeric phase from one ccw integration."""
    transport = float(_COEFF[operator]) * integral
    if loop.orientation is Orientation.CLOCKWISE:
        w = -w_ccw
        transport = -transport
    else:
        w = w_ccw
    phase = cmath.exp(-transport)
    eta = _ETA_PER_WINDING[operator] * w
    if operator is Operator.DBAR:
        eta = eta % 4
        if eta > 0:
            eta -= 4
    expected = cmath.exp(-0.5j * math.pi * float(eta))
    if not abs(phase - expected) <= _PHASE_TOL:
        raise CrossCheckFailed(
            f"{operator.value} holonomy phase vs exact log-monodromy {eta}",
            phase, expected, _PHASE_TOL,
        )
    return HolonomyResult(
        loop=loop, operator=operator, winding=w, log_monodromy=eta, phase=phase
    )


def holonomy(operator: Operator, family: CurveFamily, loop: LoopSpec) -> HolonomyResult:
    """Numeric holonomy and exact logarithmic monodromy around a loop.

    The winding is the signed winding of the chart discriminant along the
    loop as traversed; log monodromies are (1/3) * winding for the dbar
    operator (reduced mod 4 into (-4, 0]) and (2/3) * winding, exact, for the
    signature operator.  The numeric phase exp(-contour integral) must agree
    with exp(-i pi/2 * log_monodromy) to 1e-9, else CrossCheckFailed.
    """
    delta = _chart_delta(family, loop.chart)
    return _holonomy_result(operator, *_ccw_winding_and_transport(delta, loop, _zeros(delta)))


def canonical_trivialization_check(family: CurveFamily, loop: LoopSpec) -> bool:
    """Whether the 6th tensor power of the signature determinant line is
    trivial around the loop: exp(-i pi/2 * 6 eta) = 1, i.e. 6 eta = 0 mod 4.

    Evaluated exactly on the rational log monodromy.
    """
    res = holonomy(Operator.SIGNATURE, family, loop)
    six_eta = 6 * res.log_monodromy
    return six_eta.denominator == 1 and six_eta.numerator % 4 == 0


def _node_loop(roots, index: int) -> LoopSpec:
    """Counterclockwise loop around the index-th node that encloses no other node."""
    z = roots[index][0]
    others = [abs(z - w) for j, (w, _) in enumerate(roots) if j != index]
    radius = 0.4 * min(others) if others else 0.5 * (1.0 + abs(z))
    return LoopSpec(center=z, radius=radius, samples=_MIN_SAMPLES)


def _infinity_loop(roots) -> LoopSpec:
    """Counterclockwise loop around v = 0 that encloses no finite node."""
    images = [1.0 / abs(z) for z, _ in roots if abs(z) > 1e-12]
    radius = 0.4 * min(images) if images else 0.5
    return LoopSpec(center=0.0, radius=radius, samples=_MIN_SAMPLES, chart=Chart.V)


@dataclass(frozen=True)
class _ContourPass:
    """Every loop of a family integrated once, counterclockwise, coefficient 1.

    One loop around each finite singular fiber in the u-chart and one around
    v = 0, each as (loop, winding, integral of Delta'/Delta dz).  The
    holonomies, the curvature ledger of either operator and the signature
    are all derived from these numbers.
    """

    roots: tuple  # ((location, multiplicity), ...) from find_singular_fibers
    nodes: tuple
    infinity: tuple
    ord_inf: int


def _integrate_loops(family: CurveFamily) -> _ContourPass:
    roots = family.cached("nodes", find_singular_fibers)
    delta, vchart = _chart_delta(family, Chart.U), to_v_chart(family)
    # every other zero is >= 2.5 radii from a loop's center (rho <= 0.4): 64 samples do
    return _ContourPass(
        roots=roots,
        nodes=tuple(_ccw_winding_and_transport(delta, _node_loop(roots, i), roots)
                    for i in range(len(roots))),
        infinity=_ccw_winding_and_transport(
            vchart.delta_v, _infinity_loop(roots), _zeros(vchart.delta_v)
        ),
        ord_inf=vchart.ord_delta_at_zero,
    )


def _contour_pass(family: CurveFamily) -> _ContourPass:
    """The family's contour pass, integrated on first use."""
    return family.cached("contours", _integrate_loops)


def curvature_ledger(
    family: CurveFamily, operator: Operator = Operator.SIGNATURE
) -> CurvatureLedger:
    """Curvature-current residues of the extended determinant line bundle.

    Exact residues k_n / 6 at each finite singular fiber (k_n = ord Delta)
    and (10 - nf)/6 at infinity for the signature operator; denominators 12
    for dbar.  Each residue is also verified against the counterclockwise
    contour integral of the connection form, per chart, to 1e-8.
    """
    den = 6 if operator is Operator.SIGNATURE else 12
    cp = _contour_pass(family)
    located = [(z, Fraction(mult, den), integral)
               for (z, mult), (_, _, integral) in zip(cp.roots, cp.nodes)]
    located.append((AT_INFINITY, Fraction(cp.ord_inf, den), cp.infinity[2]))
    worst = 0.0
    for _, exact, integral in located:
        numeric = (integral / (2j * math.pi * den)).real
        worst = max(worst, abs(numeric - float(exact)))
    if worst > 1e-8:
        raise NonIntegerWinding(f"contour residue off by {worst:.2e}")
    residues = tuple((loc, exact) for loc, exact, _ in located)
    total = sum((r for _, r in residues), Fraction(0))
    return CurvatureLedger(residues=residues, total=total, max_numeric_error=worst)


def signature_from_monodromy(family: CurveFamily, report=None) -> int:
    """Signature of the fibered surface from exact signature log-monodromies.

    sum_n eta0[gamma_n] - (1/2) eta0[gamma_inf] - 2, with gamma_n clockwise
    around each node in the u-chart and gamma_inf clockwise around v = 0.
    Cross-checked against the Euler-number route of the surface report
    (`report`, when the caller already has the family's surface_report);
    a disagreement raises CrossCheckFailed.
    """
    from .kodaira import surface_report  # local import avoids a cycle at import time

    cp = _contour_pass(family)

    def eta_cw(loop, w_ccw, integral):
        cw = replace(loop, orientation=Orientation.CLOCKWISE)
        return _holonomy_result(Operator.SIGNATURE, cw, w_ccw, integral).log_monodromy

    eta_sum = sum((eta_cw(*node) for node in cp.nodes), Fraction(0))
    eta_inf = eta_cw(*cp.infinity)
    sig = eta_sum - Fraction(1, 2) * eta_inf - 2
    if sig.denominator != 1:
        raise CrossCheckFailed("signature from monodromy is an integer", sig, round(sig), 0.0)
    sig = int(sig)
    if report is None:
        report = surface_report(family)
    if sig != report.sign_z:
        raise CrossCheckFailed(
            "signature: monodromy route vs Euler-number route", sig, report.sign_z, 0.0
        )
    return sig
