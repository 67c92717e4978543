"""Kodaira classification of singular fibers, Euler numbers, the fiber
configuration table for nf = 0..4, and topological signatures.

Classification reads Kodaira's table from (ord g2, ord g3) and checks ord Delta
against it.  At finite points the orders come from Taylor coefficients with a
relative tolerance, read in units of the gap to the nearest other node; at
infinity they are exact: weight - degree, the weights of g2, g3 and Delta
being 4, 6 and 12.
"""

import enum
import math
import sys
from dataclasses import dataclass

from .curves import (CurveFamily, WeierstrassCurve, discriminant_poly, discriminant_scale,
                     order_at_infinity)
from .errors import (
    BadNf,
    CrossCheckFailed,
    EulerMismatch,
    NonMinimal,
    NotSingular,
)


class _Infinity(enum.Enum):
    """The fiber over u = infinity (v = 0): a location no complex u names."""

    AT_INFINITY = "infinity"


AT_INFINITY = _Infinity.AT_INFINITY

#: Kodaira's table: each kind's e = min(3 ord g2, 2 ord g3), which is the Euler number
#: and ord Delta of its n = 0 member; I_n and I*_n add n to both
_EULER = {"I": 0, "I*": 6, "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
_KIND = {e: kind for kind, e in _EULER.items()}


@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fiber type: kind in {I, I*, II, III, IV, II*, III*, IV*}.

    The integer n parametrizes I_n (n >= 1) and I*_n (n >= 0) and is 0 for
    the other kinds.
    """

    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind not in _EULER:
            raise ValueError(f"unknown Kodaira kind {self.kind!r}")
        if self.kind == "I" and self.n < 1:
            raise ValueError("I_n requires n >= 1")
        if self.kind == "I*" and self.n < 0:
            raise ValueError("I*_n requires n >= 0")
        if self.kind not in ("I", "I*") and self.n != 0:
            raise ValueError(f"{self.kind} takes no index")

    @property
    def euler(self) -> int:
        return _EULER[self.kind] + self.n

    @property
    def label(self) -> str:
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind


@dataclass(frozen=True)
class FiberReport:
    location: object  # complex or AT_INFINITY
    kodaira: KodairaType
    ord_g2: int
    ord_g3: int
    ord_delta: int
    euler: int
    is_surface_singularity: bool


@dataclass(frozen=True)
class SurfaceReport:
    fibers: tuple
    total_euler: int
    sign_zbar: int
    sign_z: int


def find_singular_fibers(family: CurveFamily):
    """Zeros of the discriminant with multiplicities, as a tuple of (location, mult).

    The companion-matrix eigenvalues of Delta that np.roots returns, taken as they
    are, split top down from one group.  A group no wider than 1e-3 of their spread
    max |z - mean|, and no wider than rounding can split one zero (`_rounding_splits`),
    is one zero at its mean, of multiplicity its size; any other group is split at its
    longest link, where single linkage joins it last.  So distinct zeros stay apart
    down to the rounding, and a scale of u leaves the grouping as it was.  Sorted by
    (Re, Im).  Callers that want each family's roots once read them through
    `family.cached("nodes", find_singular_fibers)`.  Every family has deg Delta =
    nf + 2 >= 2 (`CurveFamily`), so there are nf + 2 roots, counted with multiplicity.
    ValueError when a node is beyond double precision: np.roots' companion matrix, or the
    grouping's distances or rounding scale, overflow.
    """
    import numpy as np

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            eig = [complex(z) for z in np.roots(discriminant_poly(family).coeffs[::-1])]
        mean = sum(eig) / len(eig)
        cap = 1e-3 * max(abs(z - mean) for z in eig)
        groups, out = [eig], []
        while groups:
            g = groups.pop()
            diam = max(abs(z - w) for z in g for w in g)
            if len(g) == 1 or diam <= cap and _rounding_splits(family, g, eig, diam):
                out.append((sum(g) / len(g), len(g)))
            else:
                groups += _linked(g, _longest_link(g))
    except (FloatingPointError, OverflowError):
        raise ValueError("the family's nodes are beyond double precision: finding or"
                         " grouping them overflows") from None
    return tuple(sorted(out, key=lambda zm: (zm[0].real, zm[0].imag)))


def _rounding_splits(family: CurveFamily, group, eig, diam: float) -> bool:
    """Whether rounding can split an m-fold zero z of Delta into group's m eigenvalues,
    diam apart.  Delta(z + t) ~ D t^m, D = |lead Delta| prod |z - w| over the other
    eigenvalues, and rounding moves Delta by eps N, N = |g2|^3 + 27 |g3|^2 at |z| with
    absolute coefficients (the terms Delta cancels): a split of (eps N / D)^(1/m).
    Up to 10 times that is allowed."""
    z, m = sum(group) / len(group), len(group)
    n2, n3 = family.g2_poly.term_size(abs(z)), family.g3_poly.term_size(abs(z))
    rounding = sys.float_info.epsilon * discriminant_scale(WeierstrassCurve(n2, n3))
    if not rounding < math.inf:  # term_size overflows quietly to inf
        raise OverflowError("the terms of Delta overflow at the group")
    d = abs(discriminant_poly(family).coeffs[-1]) * math.prod(
        [abs(z - w) for w in eig if w not in group])
    return (diam / 10.0) ** m * d <= rounding


def _longest_link(group) -> float:
    """The longest edge of group's minimum spanning tree (Prim's algorithm)."""
    gap = {k: abs(z - group[0]) for k, z in enumerate(group[1:], 1)}
    longest = 0.0
    while gap:
        k = min(gap, key=gap.get)
        longest = max(longest, gap.pop(k))
        gap = {j: min(g, abs(group[j] - group[k])) for j, g in gap.items()}
    return longest


def _linked(group, r: float):
    """group's single-linkage parts, linking points less than r apart."""
    parts = []
    while group:
        part, group = [group[0]], group[1:]
        for z in part:  # the part grows while it is read
            part += [w for w in group if abs(w - z) < r]
            group = [w for w in group if abs(w - z) >= r]
        parts.append(part)
    return parts


def _classify_orders(a: int, b: int, d: int) -> KodairaType:
    """Kodaira's table on a = ord g2, b = ord g3, d = ord Delta: the kind of
    e = min(3a, 2b), with n = d - e.  Delta = g2^3 - 27 g3^2 gives d = e unless 3a = 2b
    (I_n and I*_n, where d >= e), so any other d is a misread order: CrossCheckFailed."""
    if d == 0:
        raise NotSingular("discriminant does not vanish here")
    e = min(3 * a, 2 * b)
    if e >= 12:
        raise NonMinimal(f"non-minimal vanishing orders (g2, g3, Delta) = ({a}, {b}, {d})")
    if d < e or d > e and 3 * a != 2 * b:
        raise CrossCheckFailed(f"ord Delta of the vanishing orders (g2, g3, Delta) = ({a}, {b},"
                               f" {d}) against min(3 ord g2, 2 ord g3)", d, e, 0)
    return KodairaType(_KIND[e], d - e)


def node_gap(family: CurveFamily, location: complex) -> float:
    """Distance from location to the second-nearest finite node: the nearest is the
    fiber's own, so this is the gap to the nearest other singular fiber, |location|
    (1 at u = 0) when the family has one.  It is the unit of length of
    `classify_fiber`'s orders and sets the radius of holonomy's node loops, so
    neither depends on where the family sits in the u-plane or on its scale."""
    gaps = sorted(abs(z - location) for z, _ in family.cached("nodes", find_singular_fibers))
    return gaps[1] if len(gaps) > 1 else abs(location) or 1.0


def classify_fiber(family: CurveFamily, location) -> FiberReport:
    """Kodaira type, vanishing orders and Euler number of one singular fiber.

    ValueError when a weight rho^k of the orders overflows: another node is too far off."""
    if location is AT_INFINITY:
        a, b, d = (order_at_infinity(p, w) for p, w in
                   ((family.g2_poly, 4), (family.g3_poly, 6), (discriminant_poly(family), 12)))
    else:
        location = complex(location)
        rho = node_gap(family, location)
        try:
            a = family.g2_poly.order_at(location, rho)
            b = family.g3_poly.order_at(location, rho)
            d = discriminant_poly(family).order_at(location, rho)
        except OverflowError:
            raise ValueError("the family's nodes are beyond double precision: the weights rho^k"
                             f" of the orders at {location} overflow (rho = {rho:.3g})") from None
    kt = _classify_orders(a, b, d)
    return FiberReport(
        location=location,
        kodaira=kt,
        ord_g2=a,
        ord_g3=b,
        ord_delta=d,
        euler=kt.euler,
        is_surface_singularity=not (kt.kind == "I" and kt.n == 1),
    )


def surface_report(family: CurveFamily) -> SurfaceReport:
    """Classify all fibers and derive the surface's topological signature.

    sign(total space over CP^1) = -(2/3) * (sum of fiber Euler numbers), and
    removing the fiber at infinity subtracts sign(E_inf) = 2 - e(E_inf).
    The Euler numbers must sum to 12 (else EulerMismatch), so sign(Zbar) = -8.
    """
    nodes = family.cached("nodes", find_singular_fibers)
    reports = [classify_fiber(family, root) for root, _ in nodes]
    inf_report = classify_fiber(family, AT_INFINITY)
    reports.append(inf_report)
    total = sum(r.euler for r in reports)
    if total != 12:
        raise EulerMismatch(f"fiber Euler numbers sum to {total}, expected 12")
    sign_zbar = -2 * total // 3
    return SurfaceReport(
        fibers=tuple(reports),
        total_euler=total,
        sign_zbar=sign_zbar,
        sign_z=sign_zbar - (2 - inf_report.euler),
    )


@dataclass(frozen=True)
class FiberConfiguration:
    """One row of the configuration table: fiber at infinity, finite fibers,
    and the constraint on the masses that realizes it."""

    fiber_at_infinity: KodairaType
    finite_fibers: tuple
    constraint_label: str


def _cfg(inf: KodairaType, finite, label: str) -> FiberConfiguration:
    return FiberConfiguration(
        fiber_at_infinity=inf,
        finite_fibers=tuple(finite),
        constraint_label=label,
    )


def _i(n):
    return KodairaType("I", n)


def _istar(n):
    return KodairaType("I*", n)


_TABLE = {
    4: (
        _cfg(_istar(0), [_i(1)] * 6, "-"),
        _cfg(_istar(0), [_i(2)] + [_i(1)] * 4, "m_3 = m_4"),
        _cfg(_istar(0), [_i(3)] + [_i(1)] * 3, "m_2 = m_3 = m_4"),
        _cfg(_istar(0), [_i(2)] * 2 + [_i(1)] * 2, "m_3 = m_4 = 0"),
        _cfg(_istar(0), [_i(4)] + [_i(1)] * 2, "m_2 = m_3 = m_4 = 0"),
        _cfg(_istar(0), [_i(2)] * 3, "m_1 = m_2, m_3 = m_4 = 0"),
        _cfg(_istar(0), [_istar(0)], "m_1 = m_2 = m_3 = m_4 = 0"),
    ),
    3: (
        _cfg(_istar(1), [_i(1)] * 5, "-"),
        _cfg(_istar(1), [_i(2)] + [_i(1)] * 3, "m_2 = m_3"),
        _cfg(_istar(1), [_i(3)] + [_i(1)] * 2, "m_1 = m_2 = m_3"),
        _cfg(_istar(1), [_i(2)] * 2 + [_i(1)], "m_3 = m_4 = 0"),
        _cfg(_istar(1), [_i(4)] + [_i(1)], "m_1 = m_2 = m_3 = 0"),
    ),
    2: (
        _cfg(_istar(2), [_i(1)] * 4, "-"),
        _cfg(_istar(2), [_i(2)] + [_i(1)] * 2, "m_1 = m_2"),
        _cfg(_istar(2), [_i(2)] * 2, "m_1 = m_2 = 0"),
    ),
    1: (_cfg(_istar(3), [_i(1)] * 3, "-"),),
    0: (_cfg(_istar(4), [_i(1)] * 2, "-"),),
}


def table1_expected(nf: int):
    """The allowed singular-fiber configurations for each flavor count."""
    if nf not in _TABLE:
        raise BadNf(f"nf must be in 0..4, got {nf}")
    return _TABLE[nf]
