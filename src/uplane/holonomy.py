"""Flat-connection holonomies, exact logarithmic monodromies, curvature-current
residues, and the monodromy route to the surface signature.

Everything is driven by the logarithmic derivative Delta'/Delta of the chart
discriminant, never by a fractional power of Delta, so there are no branch
cuts: the numeric side produces an integer winding, checked once where the
contour is integrated, and all fractional data are exact rationals attached
to that integer.

Orientation conventions.  Internal contour integrals always run
counterclockwise in the active chart; a CLOCKWISE loop spec is applied as a
final sign flip.  The loop "around infinity" is taken clockwise around v = 0
in the v-chart (equivalently counterclockwise around all finite nodes in the
u-chart); with that convention a clockwise node loop has signature
log-monodromy -2/3 and the infinity loop -2(10-nf)/3, while the dbar operator
carries the mod-4 classes -1/3 and -(10-nf)/3, reported as the representative
in (-4, 0].
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .curves import ComplexPoly, CurveFamily, discriminant_poly, order_at_infinity, to_v_chart
from .errors import CrossCheckFailed, LoopTooCloseToSingularity, NonIntegerWinding
from . import kodaira
from .kodaira import AT_INFINITY, find_singular_fibers, node_gap

#: sample counts a loop may be integrated at; a loop that needs more is refused
_MIN_SAMPLES, _MAX_SAMPLES = 64, 1 << 20
#: distance of integral / (2 pi i) from the winding that the check accepts; it keeps
#: the numeric phase within 2 pi c _INTEGRAL_TOL <= 1.05e-10 of the exact one
_INTEGRAL_TOL = 1e-10
#: unit circles `_rim` keeps, the least recently used dropped first: at most
#: _RIMS * 16 * _MAX_SAMPLES bytes = 128 MiB, and 87 kB for the counts 64, 256, 1024, 4096
_RIMS = 8


class Operator(enum.Enum):
    DBAR = "dbar"
    SIGNATURE = "signature"


#: connection coefficient c multiplying Delta'/Delta; the log-monodromy is 4 c per winding
_COEFF = {Operator.DBAR: Fraction(1, 12), Operator.SIGNATURE: Fraction(1, 6)}


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
    samples: int = _MIN_SAMPLES
    orientation: Orientation = Orientation.COUNTERCLOCKWISE
    chart: Chart = Chart.U

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise ValueError("loop center must be finite and radius finite and positive")
        if not math.hypot(self.center.real, self.center.imag) < math.inf:
            raise ValueError(f"loop center {self.center} has a modulus beyond the double range")
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


def _chart_zeros(family: CurveFamily, chart: Chart) -> tuple:
    """Zeros of the chart discriminant as (location, multiplicity) pairs.

    In the u-chart they are the family's singular fibers.  In the v-chart
    (u = -1/v) each nonzero fiber z sits at -1/z, and Delta_v vanishes at
    v = 0 to the order 12 - deg Delta.
    """
    nodes = family.cached("nodes", find_singular_fibers)
    if chart is Chart.U:
        return nodes
    at_zero = (0j, order_at_infinity(discriminant_poly(family), 12))
    return tuple((-1.0 / z, m) for z, m in nodes if z != 0) + (at_zero,)


def _sample_count(zeros, loop: LoopSpec) -> int:
    """Smallest n >= loop.samples whose trapezoid error bound is _INTEGRAL_TOL / 8 or less.

    The n-point rule misses integral / (2 pi i) by at most the sum of m rho^n / (1 - rho^n)
    over the zeros (location, multiplicity m), rho = s/r for a zero at distance s < r from
    the center and r/s outside (Trefethen & Weideman, SIAM Review 2014); n <= _MAX_SAMPLES.
    """
    dist = [(z, m, abs(complex(z) - loop.center)) for z, m in zeros]
    rhos = [(m, min(s, loop.radius) / max(s, loop.radius)) for _, m, s in dist]

    def bound(n: int) -> float:
        return sum(m * rho**n / (1.0 - rho**n) if rho < 1.0 else math.inf for m, rho in rhos)

    tol, lo, hi = _INTEGRAL_TOL / 8, loop.samples, _MAX_SAMPLES
    if bound(lo) <= tol:
        return lo
    if bound(hi) > tol:
        z, _, s = min(dist, key=lambda d: abs(d[2] - loop.radius))
        raise LoopTooCloseToSingularity(f"contour passes {abs(s - loop.radius):.2e} from the "
                                        f"zero at {complex(z)}: needs over {hi} samples")
    while hi - lo > 1:  # bound(lo) > tol >= bound(hi)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= tol else (mid, hi)
    return hi


def _horner(poly: ComplexPoly, z: np.ndarray) -> np.ndarray:
    """poly at every point of a complex array, by the Horner recurrence of
    `ComplexPoly.__call__` run elementwise: reproducible from run to run and free of the
    array's shape, length and order, but it may differ from the scalar path by a
    rounding (about 3e-16 relative).  Each step multiplies and adds in place
    (acc *= z; acc += c), the same float operations as acc = acc * z + c without two
    new arrays per coefficient."""
    import numpy as np

    acc = np.zeros_like(z)
    for c in reversed(poly.coeffs):
        acc *= z
        acc += c
    return acc


@functools.lru_cache(maxsize=_RIMS)
def _rim(n: int) -> np.ndarray:
    """The n points exp(2 pi i k / n) of the unit circle, read-only, built once per n."""
    import numpy as np

    rim = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    rim.flags.writeable = False
    return rim


def _ccw_winding(family: CurveFamily, loop: LoopSpec) -> tuple:
    """(loop at the sample count used, ccw winding of Delta, integral of Delta'/Delta dz).

    One trapezoid rule in the loop's chart, at the `_sample_count` of its `_chart_zeros`.
    The chart polynomial's exact zeros at the origin are factored out, Delta = z^k0 R(z)
    (k0 = 10 - nf at v = 0 in the v-chart; 0 in the u-chart unless Delta(0) = 0): the rule
    samples R, adds k0/z to its log-derivative and k0 arg z to its argument, so a small
    loop around the origin never forms the power z^k0, which would underflow.
    The one winding check: the winding is read from the unwrapped argument of Delta
    (within 1e-8 of an integer) and as integral / (2 pi i) (within _INTEGRAL_TOL of it);
    else NonIntegerWinding.  An operator's transport is its coefficient times the integral.
    """
    import numpy as np

    delta = discriminant_poly(family) if loop.chart is Chart.U else to_v_chart(family)
    k0 = next(k for k, c in enumerate(delta.coeffs) if c != 0)  # deg Delta = nf + 2 >= 2
    reduced = ComplexPoly(delta.coeffs[k0:])
    n = _sample_count(_chart_zeros(family, loop.chart), loop)
    rim = _rim(n)
    dz = 1j * loop.radius * rim * (2.0 * math.pi / n)
    # a loop through a zero, past the double range or with a non-finite integral is
    # refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = loop.center + loop.radius * rim
        vals = _horner(reduced, z)
        dlog = _horner(reduced.derivative(), z) / vals
        if k0:
            dlog += k0 / z
        dlog *= dz
        integral = dlog.sum()
    if (vals == 0.0).any():
        raise LoopTooCloseToSingularity("contour hits a discriminant zero")
    if not cmath.isfinite(integral):
        raise NonIntegerWinding(f"contour integral is not finite at {n} samples")
    args = np.angle(vals)
    if k0:
        args += k0 * np.angle(z)
    # each step's change of argument, brought into [-pi, pi): (x + pi) mod 2 pi - pi
    jumps = np.concatenate([args[1:], args[:1]])
    jumps -= args
    jumps += math.pi
    jumps %= 2.0 * math.pi
    jumps -= math.pi
    winding = float(jumps.sum() / (2.0 * math.pi))
    k = round(winding)
    if abs(winding - k) > 1e-8 or abs(integral / (2j * math.pi) - k) > _INTEGRAL_TOL:
        raise NonIntegerWinding(f"winding {winding} (integral {integral / (2j * math.pi)}) "
                                f"not integral at {n} samples")
    return (loop if n == loop.samples else replace(loop, samples=n)), k, integral


def holonomy(operator: Operator, family: CurveFamily, loop: LoopSpec) -> HolonomyResult:
    """Numeric holonomy and exact logarithmic monodromy around a loop.

    The winding is the signed winding of the chart discriminant along the
    loop as traversed; log monodromies are (1/3) * winding for the dbar
    operator (reduced mod 4 into (-4, 0]) and (2/3) * winding, exact, for the
    signature operator.  The numeric phase exp(-c contour integral), c = 1/12
    or 1/6, is within 2 pi c _INTEGRAL_TOL of exp(-i pi/2 * log_monodromy).
    """
    loop, w_ccw, integral = _ccw_winding(family, loop)
    transport = float(_COEFF[operator]) * integral
    if loop.orientation is Orientation.CLOCKWISE:
        w = -w_ccw
        transport = -transport
    else:
        w = w_ccw
    eta = 4 * _COEFF[operator] * w
    if operator is Operator.DBAR:
        eta = eta % 4
        if eta > 0:
            eta -= 4
    return HolonomyResult(
        loop=loop, operator=operator, winding=w, log_monodromy=eta, phase=cmath.exp(-transport)
    )


def canonical_trivialization_check(family: CurveFamily, loop: LoopSpec) -> bool:
    """Whether the 6th tensor power of the signature determinant line is
    trivial around the loop: exp(-i pi/2 * 6 eta) = 1, i.e. 6 eta = 0 mod 4.

    Evaluated exactly on the rational log monodromy.
    """
    res = holonomy(Operator.SIGNATURE, family, loop)
    six_eta = 6 * res.log_monodromy
    return six_eta.denominator == 1 and six_eta.numerator % 4 == 0


def _node_loop(family: CurveFamily, z: complex) -> LoopSpec:
    """Counterclockwise loop around the node z that encloses no other node."""
    return LoopSpec(center=z, radius=0.4 * node_gap(family, z))


def _infinity_loop(roots) -> LoopSpec:
    """Counterclockwise loop around v = 0 that encloses no finite node: radius 0.4 of the
    nearest image 1/|z| of a nonzero node (a node at u = 0 has none), else 0.5.

    Free of the scale of u: `_ccw_winding` factors v^(10 - nf) out of Delta_v, so a loop
    of radius 4e-31 (nodes near 1e30) or 4e44 (nodes near 1e-45) is integrated alike."""
    images = [1.0 / abs(z) for z, _ in roots if z != 0]
    radius = 0.4 * min(images) if images else 0.5
    return LoopSpec(center=0.0, radius=radius, chart=Chart.V)


def _fiber_rows(family: CurveFamily) -> tuple:
    """(location, order of Delta, ccw winding) of each singular fiber, AT_INFINITY last.

    The windings are integrated on first use and kept: one loop around each finite
    fiber in the u-chart, each integrated alone, then one around v = 0.  Every other
    zero is >= 2.5 radii from a loop's center (rho <= 0.4), so 64 samples do.
    """
    def build(fam):
        roots = _chart_zeros(fam, Chart.U)  # deg Delta = nf + 2 >= 2: never empty
        rows = tuple((z, m, _ccw_winding(fam, _node_loop(fam, z))[1]) for z, m in roots)
        _, at_infinity, _ = _ccw_winding(fam, _infinity_loop(roots))
        return rows + ((AT_INFINITY, order_at_infinity(discriminant_poly(fam), 12), at_infinity),)

    return family.cached("fibers", build)


def curvature_ledger(
    family: CurveFamily, operator: Operator = Operator.SIGNATURE
) -> CurvatureLedger:
    """Curvature-current residues of the extended determinant line bundle.

    Exact residues k_n / 6 at each finite singular fiber (k_n = ord Delta)
    and (10 - nf)/6 at infinity for the signature operator; denominators 12
    for dbar.  The counterclockwise winding around each fiber must equal its
    order (the multiplicity from find_singular_fibers, 12 - deg Delta at
    infinity), else CrossCheckFailed.
    """
    den = 6 if operator is Operator.SIGNATURE else 12
    rows = _fiber_rows(family)
    windings, orders = [w for _, _, w in rows], [k for _, k, _ in rows]
    if windings != orders:
        raise CrossCheckFailed("contour windings vs discriminant orders", windings, orders, 0.0)
    residues = tuple((loc, Fraction(k, den)) for loc, k, _ in rows)
    total = sum((r for _, r in residues), Fraction(0))
    return CurvatureLedger(residues=residues, total=total)


def signature_from_monodromy(family: CurveFamily) -> int:
    """Signature of the fibered surface from exact signature log-monodromies.

    sum_n eta0[gamma_n] - (1/2) eta0[gamma_inf] - 2, with gamma_n clockwise
    around each node in the u-chart and gamma_inf clockwise around v = 0; a
    clockwise loop of ccw winding k has eta0 = -(2/3) k.
    Cross-checked against the Euler-number route of the family's surface report,
    built once per family; a disagreement raises CrossCheckFailed.
    """
    eta0 = [Fraction(-2, 3) * w for _, _, w in _fiber_rows(family)]
    sig = sum(eta0[:-1]) - Fraction(1, 2) * eta0[-1] - 2
    if sig.denominator != 1:
        raise CrossCheckFailed("signature from monodromy is an integer", sig, round(sig), 0.0)
    sig = int(sig)
    report = family.cached("report", kodaira.surface_report)
    if sig != report.sign_z:
        raise CrossCheckFailed(
            "signature: monodromy route vs Euler-number route", sig, report.sign_z, 0.0
        )
    return sig
