"""Count how the Kodaira classification of the fixture families survives coordinate changes.

    python3 tools/invariance_sweep.py

A move takes a fixture family (nf0-nf4 and the coalesced one) to the family in w with
g2(w) = lam^4 p2(a w + b) and g3(w) = lam^6 p3(a w + b): an affine change u = a w + b
of the base and a rescaling of the curve.  Neither changes the Kodaira types of the
singular fibers.  The moved coefficients are sum_k t_k a^k lam^wt w^k, with t the
Taylor coefficients `ComplexPoly.taylor_at(b)`.  The moves are every
|b| in {0, 1, 10, 30, 100, 1e3} in the directions 1, i and e^{i pi/4} (b = 0 once),
a in {1, 2^+-20, 2^+-60} and each fixture: 480 per curve scale lam, for lam = 1, 1e-30
and 1e30.  The powers of two move u exactly; b and lam round.  At lam = 1e30 every move
is refused with ValueError by both routes: the moved coefficients reach 1e180, and
Delta's expansion overflows.  At lam = 1e-30 every move is refused with ValueError too:
products of the moved coefficients fall below the normal range, and Delta's expansion
would lose their terms.  |b| = 1e4 is left out:
there the coalesced family reads four I1 for its two I2, and whether the rounded moved
coefficients still hold a double node is not settled.

Each moved family is built and read by two routes: "classify", the fiber types of
`surface_report`, and "signature", sign(Z) by `signature_from_monodromy` (contour
windings, cross-checked against the Euler-number route).  A route's outcome is "same"
when it reads what it reads of the fixture (the finite fibers' types as a multiset and
the type at infinity, or the signature), "refused <error type>" when building or reading
the family raises, and "different" when it reads something else: a wrong answer at exit
0.  Prints one tab-separated line per curve scale, route and outcome,
`lam<TAB>route<TAB>outcome<TAB>count`, and names each different move on stderr.
"""

import cmath
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uplane import (AT_INFINITY, ComplexPoly, CurveFamily, UPlaneError,  # noqa: E402
                    coalesced_family, sample_family, signature_from_monodromy, surface_report)

SCALES = (1.0, 1e-30, 1e30)
SHIFTS = (1, 10, 30, 100, 1e3)
DIRECTIONS = (1, 1j, cmath.exp(0.25j * cmath.pi))
STRETCHES = (1.0, 2.0**20, 2.0**-20, 2.0**60, 2.0**-60)


#: the swept fixtures: sample_family(nf) for nf 0-4, and the coalesced family
FIXTURES = (0, 1, 2, 3, 4, "coalesced")


def fixture(key) -> CurveFamily:
    return coalesced_family() if key == "coalesced" else sample_family(key)


def moves() -> list:
    """(a, b) of every move u = a w + b, for each fixture and curve scale."""
    shifts = [0j] + [r * z for r in SHIFTS for z in DIRECTIONS]
    return [(a, b) for a in STRETCHES for b in shifts]


def moved(family: CurveFamily, a: float, b: complex, lam: float) -> CurveFamily:
    """family under u = a w + b with (g2, g3) -> (lam^4 g2, lam^6 g3)."""
    g2, g3 = ([t * a**k * lam**wt for k, t in enumerate(p.taylor_at(b))]
              for p, wt in ((family.g2_poly, 4), (family.g3_poly, 6)))
    return CurveFamily(ComplexPoly.of(g2), ComplexPoly.of(g3), nf=family.nf,
                       name=f"{family.name} at u = {a!r} w + {b!r}, lam = {lam!r}")


def fiber_types(family: CurveFamily) -> tuple:
    """The sorted labels of the finite fibers and the label at infinity."""
    fibers = family.cached("report", surface_report).fibers
    return (tuple(sorted(f.kodaira.label for f in fibers if f.location is not AT_INFINITY)),
            next(f.kodaira.label for f in fibers if f.location is AT_INFINITY))


#: what each route reads of a family
ROUTES = {"classify": fiber_types, "signature": signature_from_monodromy}


def outcome(family: CurveFamily, a: float, b: complex, lam: float, route: str,
            truth) -> str:
    try:
        got = ROUTES[route](moved(family, a, b, lam))
    except (UPlaneError, ValueError) as exc:
        return f"refused {type(exc).__name__}"
    return "same" if got == truth else "different"


def sweep(lam: float) -> Counter:
    """(route, outcome) counts of every move at curve scale lam; names each different on
    stderr.  Each route reads its own copy of the moved family, so neither reuses what the
    other built."""
    counts = Counter()
    for family in map(fixture, FIXTURES):
        for route, read in ROUTES.items():
            truth = read(family)
            for a, b in moves():
                result = outcome(family, a, b, lam, route, truth)
                counts[route, result] += 1
                if result == "different":
                    print(f"different ({route}): {family.name} at u = {a!r} w + {b!r},"
                          f" lam = {lam!r}", file=sys.stderr)
    return counts


def main() -> int:
    for lam in SCALES:
        counts = sweep(lam)
        for (route, result), count in sorted(counts.items()):
            print(f"{lam!r}\t{route}\t{result}\t{count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
