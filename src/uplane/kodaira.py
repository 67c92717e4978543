"""Kodaira classification of singular fibers, Euler numbers, the fiber
configuration table for nf = 0..4, and topological signatures.

Classification uses the standard vanishing-order table on (ord g2, ord g3,
ord Delta).  At finite points the orders come from Taylor coefficients with a
scale-relative tolerance; at infinity they are read off exactly from the
v-chart coefficient structure, where zeros are exact by construction.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import CurveFamily, discriminant_poly, to_v_chart
from .errors import (
    BadNf,
    CrossCheckFailed,
    EulerMismatch,
    IdenticallySingular,
    NonMinimal,
    NotSingular,
)


class _AtInfinity:
    """Sentinel for the fiber over u = infinity (v = 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AT_INFINITY"


AT_INFINITY = _AtInfinity()

_EULER_ADDITIVE = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
#: an additive type's ord Delta equals its Euler number
_ADDITIVE_BY_DELTA = {e: kind for kind, e in _EULER_ADDITIVE.items()}
_KINDS = ("I", "I*", "II", "III", "IV", "II*", "III*", "IV*")


@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fiber type: kind in {I, I*, II, III, IV, II*, III*, IV*}.

    The integer n parametrizes I_n (n >= 1) and I*_n (n >= 0) and is 0 for
    the other kinds.
    """

    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown Kodaira kind {self.kind!r}")
        if self.kind == "I" and self.n < 1:
            raise ValueError("I_n requires n >= 1")
        if self.kind == "I*" and self.n < 0:
            raise ValueError("I*_n requires n >= 0")
        if self.kind not in ("I", "I*") and self.n != 0:
            raise ValueError(f"{self.kind} takes no index")

    @property
    def euler(self) -> int:
        if self.kind == "I":
            return self.n
        if self.kind == "I*":
            return self.n + 6
        return _EULER_ADDITIVE[self.kind]

    @property
    def label(self) -> str:
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind

    def __str__(self):
        return self.label


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
    """Roots of the discriminant with multiplicities, as a tuple of (root, mult).

    Companion-matrix eigenvalues, Newton-polished, then merged into clusters
    of radius 1e-7 (1 + max |root|); multiplicities sum to deg Delta.
    Callers that want each family's roots once read them through
    `family.cached("nodes", find_singular_fibers)`.
    """
    d = family.delta_poly
    if d.is_zero:
        raise IdenticallySingular("discriminant vanishes identically")
    norm = max(abs(c) for c in d.coeffs)
    coeffs_desc = list(reversed(d.coeffs))
    raw = [complex(z) for z in np.roots(coeffs_desc)]
    dp = d.derivative()
    polished = []
    for z in raw:
        for _ in range(3):
            fp = dp(z)
            if abs(fp) < 1e-12 * norm:
                break  # multiple root: Newton unreliable, keep companion value
            step = d(z) / fp
            z -= step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        polished.append(z)
    tol = 1e-7 * (1.0 + max(abs(z) for z in polished))
    clusters = []  # list of [sum, count]
    for z in sorted(polished, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(z - c[0] / c[1]) < tol:
                c[0] += z
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    out = [(c[0] / c[1], c[1]) for c in clusters]
    out.sort(key=lambda rc: (rc[0].real, rc[0].imag))
    total = sum(m for _, m in out)
    if total != d.degree:
        raise CrossCheckFailed("root multiplicities vs deg Delta", total, d.degree, 0.0)
    return tuple(out)


def _classify_orders(a: int, b: int, d: int) -> KodairaType:
    """The vanishing-order table: a = ord g2, b = ord g3, d = ord Delta."""
    if d == 0:
        raise NotSingular("discriminant does not vanish here")
    if a >= 4 and b >= 6:
        raise NonMinimal(
            f"ord g2 = {a} >= 4 and ord g3 = {b} >= 6: rescale the family"
        )
    if a == 0:
        return KodairaType("I", d)
    if d == 6 or (a == 2 and b == 3 and d not in (2, 3, 4)):
        return KodairaType("I*", d - 6)
    if d in _ADDITIVE_BY_DELTA:
        return KodairaType(_ADDITIVE_BY_DELTA[d])
    raise NonMinimal(f"unclassifiable vanishing orders (g2, g3, Delta) = ({a}, {b}, {d})")


def classify_fiber(family: CurveFamily, location) -> FiberReport:
    """Kodaira type, vanishing orders and Euler number of one singular fiber."""
    if location is AT_INFINITY:
        v = to_v_chart(family)
        a = v.g2_v.order_at_zero_exact()
        b = v.g3_v.order_at_zero_exact()
        d = v.delta_v.order_at_zero_exact()
    else:
        location = complex(location)
        a = family.g2_poly.order_at(location)
        b = family.g3_poly.order_at(location)
        d = discriminant_poly(family).order_at(location)
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
    Exact rational arithmetic throughout.
    """
    nodes = family.cached("nodes", find_singular_fibers)
    reports = [classify_fiber(family, root) for root, _ in nodes]
    inf_report = classify_fiber(family, AT_INFINITY)
    reports.append(inf_report)
    total = sum(r.euler for r in reports)
    if total != 12:
        raise EulerMismatch(f"fiber Euler numbers sum to {total}, expected 12")
    sign_zbar = -Fraction(2, 3) * total
    if sign_zbar.denominator != 1:
        raise CrossCheckFailed("sign(Zbar) is an integer", sign_zbar, round(sign_zbar), 0.0)
    sign_z = sign_zbar - (2 - inf_report.euler)
    return SurfaceReport(
        fibers=tuple(reports),
        total_euler=total,
        sign_zbar=int(sign_zbar),
        sign_z=int(sign_z),
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
