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

_MAX_SAMPLES = 1 << 20
#: agreement required between the numeric phase and the exact log-monodromy
_PHASE_TOL = 1e-9
#: distance of integral / (2 pi i) from the winding at which sampling stops;
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
        if self.radius <= 0:
            raise ValueError("loop radius must be positive")
        if self.samples < 64:
            raise ValueError("at least 64 samples required")


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
    if chart is Chart.U:
        return discriminant_poly(family)
    return to_v_chart(family).delta_v


def connection_form(operator: Operator, family: CurveFamily, u: complex) -> complex:
    """du-coefficient of the flat connection: (1/12 or 1/6) Delta'(u)/Delta(u)."""
    if near_singular_fiber(family, u, 1e-12):
        raise SingularFiber(f"fiber at u={u} is singular")
    d = discriminant_poly(family)
    return float(_COEFF[operator]) * d.derivative()(u) / d(u)


def _zeros(delta: ComplexPoly) -> list:
    return np.roots(list(reversed(delta.coeffs))) if delta.degree > 0 else []


def _loop_clearance(zeros, loop: LoopSpec):
    for z in zeros:
        gap = abs(abs(complex(z) - loop.center) - loop.radius)
        if gap < 1e-6:
            raise LoopTooCloseToSingularity(
                f"contour passes within {gap:.2e} of discriminant zero at {complex(z)}"
            )


def _ccw_winding_and_transport(delta: ComplexPoly, loop: LoopSpec):
    """Counterclockwise winding of Delta and the integral of Delta'/Delta dz.

    Trapezoid rule on equispaced samples (spectrally accurate for periodic
    integrands), with Delta and Delta' evaluated over the whole sample array
    at once.  The winding is read twice: from the unwrapped argument of Delta
    (an integer up to rounding at any sample count) and, by the argument
    principle, as integral / (2 pi i), which is only near that integer once
    the samples resolve the loop.  The sample count doubles until the first
    sits within 1e-8 of an integer and the second within _INTEGRAL_TOL of it.
    The transport of an operator is its coefficient times the returned
    integral.
    """
    dp = delta.derivative()
    n = loop.samples
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        rim = np.exp(1j * theta)
        z = loop.center + loop.radius * rim
        dz = 1j * loop.radius * rim * (2.0 * math.pi / n)
        vals = delta.at(z)
        dvals = dp.at(z)
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
        off = abs(integral / (2j * math.pi) - k)
        if abs(winding - k) <= 1e-8 and off <= _INTEGRAL_TOL:
            return k, integral
        if n >= _MAX_SAMPLES:
            if max(abs(winding - k), off) > 1e-6:
                raise NonIntegerWinding(
                    f"winding {winding} (integral {integral / (2j * math.pi)}) "
                    f"not integral at {n} samples"
                )
            return k, integral
        n *= 2


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
    _loop_clearance(_zeros(delta), loop)
    return _holonomy_result(operator, loop, *_ccw_winding_and_transport(delta, loop))


def canonical_trivialization_check(family: CurveFamily, loop: LoopSpec) -> bool:
    """Whether the 6th tensor power of the signature determinant line is
    trivial around the loop: exp(-i pi/2 * 6 eta) = 1, i.e. 6 eta = 0 mod 4.

    Evaluated exactly on the rational log monodromy.
    """
    res = holonomy(Operator.SIGNATURE, family, loop)
    six_eta = 6 * res.log_monodromy
    return six_eta.denominator == 1 and six_eta.numerator % 4 == 0


def _node_loop_radius(roots, index: int) -> float:
    z = roots[index][0]
    others = [abs(z - w) for j, (w, _) in enumerate(roots) if j != index]
    if not others:
        return 0.5 * (1.0 + abs(z))
    return 0.4 * min(others)


def _infinity_loop(roots, samples: int) -> LoopSpec:
    """Counterclockwise loop around v = 0 that encloses no finite node."""
    images = [1.0 / abs(z) for z, _ in roots if abs(z) > 1e-12]
    radius = 0.4 * min(images) if images else 0.5
    return LoopSpec(center=0.0, radius=radius, samples=samples, chart=Chart.V)


@dataclass(frozen=True)
class _ContourPass:
    """Every loop of a family integrated once, counterclockwise, coefficient 1.

    One loop around each finite singular fiber in the u-chart and one around
    v = 0; each integral is (winding, integral of Delta'/Delta dz).  The
    holonomies, the curvature ledger of either operator and the signature are
    all derived from these numbers.
    """

    roots: tuple  # ((location, multiplicity), ...) from find_singular_fibers
    node_loops: tuple
    nodes: tuple
    infinity_loop: LoopSpec
    infinity: tuple
    ord_inf: int


def _integrate_loops(family: CurveFamily, samples: int) -> _ContourPass:
    roots = family.cached("nodes", find_singular_fibers)
    delta = _chart_delta(family, Chart.U)
    zeros = [z for z, _ in roots]
    node_loops = tuple(
        LoopSpec(center=z, radius=_node_loop_radius(roots, i), samples=samples)
        for i, (z, _) in enumerate(roots)
    )
    nodes = []
    for loop in node_loops:
        _loop_clearance(zeros, loop)
        nodes.append(_ccw_winding_and_transport(delta, loop))
    vchart = to_v_chart(family)
    loop_inf = _infinity_loop(roots, samples)
    _loop_clearance(_zeros(vchart.delta_v), loop_inf)
    return _ContourPass(
        roots=roots,
        node_loops=node_loops,
        nodes=tuple(nodes),
        infinity_loop=loop_inf,
        infinity=_ccw_winding_and_transport(vchart.delta_v, loop_inf),
        ord_inf=vchart.ord_delta_at_zero,
    )


def _contour_pass(family: CurveFamily, samples: int) -> _ContourPass:
    """The family's contour pass at this sample count, integrated on first use."""
    return family.cached(f"contours/{samples}", lambda fam: _integrate_loops(fam, samples))


def curvature_ledger(
    family: CurveFamily, operator: Operator = Operator.SIGNATURE, samples: int = 4096
) -> CurvatureLedger:
    """Curvature-current residues of the extended determinant line bundle.

    Exact residues k_n / 6 at each finite singular fiber (k_n = ord Delta)
    and (10 - nf)/6 at infinity for the signature operator; denominators 12
    for dbar.  Each residue is also verified against the counterclockwise
    contour integral of the connection form, per chart, to 1e-8.
    """
    den = 6 if operator is Operator.SIGNATURE else 12
    cp = _contour_pass(family, samples)
    located = [(z, Fraction(mult, den), integral)
               for (z, mult), (_, integral) in zip(cp.roots, cp.nodes)]
    located.append((AT_INFINITY, Fraction(cp.ord_inf, den), cp.infinity[1]))
    worst = 0.0
    for _, exact, integral in located:
        numeric = (integral / (2j * math.pi * den)).real
        worst = max(worst, abs(numeric - float(exact)))
    if worst > 1e-8:
        raise NonIntegerWinding(f"contour residue off by {worst:.2e}")
    residues = tuple((loc, exact) for loc, exact, _ in located)
    total = sum((r for _, r in residues), Fraction(0))
    return CurvatureLedger(residues=residues, total=total, max_numeric_error=worst)


def signature_from_monodromy(family: CurveFamily, samples: int = 4096, report=None) -> int:
    """Signature of the fibered surface from exact signature log-monodromies.

    sum_n eta0[gamma_n] - (1/2) eta0[gamma_inf] - 2, with gamma_n clockwise
    around each node in the u-chart and gamma_inf clockwise around v = 0.
    Cross-checked against the Euler-number route of the surface report
    (`report`, when the caller already has the family's surface_report);
    a disagreement raises CrossCheckFailed.
    """
    from .kodaira import surface_report  # local import avoids a cycle at import time

    cp = _contour_pass(family, samples)

    def eta_cw(loop, measured):
        cw = replace(loop, orientation=Orientation.CLOCKWISE)
        return _holonomy_result(Operator.SIGNATURE, cw, *measured).log_monodromy

    eta_sum = sum(map(eta_cw, cp.node_loops, cp.nodes), Fraction(0))
    eta_inf = eta_cw(cp.infinity_loop, cp.infinity)
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
