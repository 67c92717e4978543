"""Weierstrass curves y^2 = 4x^3 - g2 x - g3 and polynomial families over the u-plane.

A family promotes g2, g3 to polynomials in the base coordinate u (degrees at
most 2 and 3), making the discriminant a polynomial of degree nf + 2 for a
valid flavor count nf.  The second chart on the base is v with u = -1/v, in
which g2, g3 and the discriminant pick up weights 4, 6 and 12.
"""

import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import BadNf, DegreeMismatch, SchemaError, SingularCurve

_ZERO = (0j,)


@dataclass(frozen=True)
class ComplexPoly:
    """Dense complex polynomial, coefficients ascending in degree.

    The trailing stored coefficient is nonzero unless the polynomial is
    identically zero.  Evaluation uses Horner's rule in a fixed descending
    order so results are bit-reproducible.  A point and a numpy array of contour
    samples run the same lines: each step multiplies and adds in place.
    """

    coeffs: tuple = _ZERO

    @staticmethod
    def of(seq) -> "ComplexPoly":
        c = [complex(x) for x in seq]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0j]
        return ComplexPoly(tuple(c))

    @property
    def degree(self) -> int:
        """Degree of the stored polynomial; -1 for the zero polynomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def __call__(self, u):
        acc = 0j
        for c in reversed(self.coeffs):
            acc *= u
            acc += c
        return acc

    def term_size(self, r):
        """sum_k |c_k| r^k by Horner's rule: the size of the terms of a value at |u| = r."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc *= r
            acc += abs(c)
        return acc

    def derivative(self) -> "ComplexPoly":
        if len(self.coeffs) == 1:
            return ComplexPoly.of([0.0])
        return ComplexPoly.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def taylor_at(self, u0: complex) -> tuple:
        """Coefficients of p(u0 + t) in t, by the Horner (Taylor) shift in place.

        It forms the products and sums of repeated synthetic division by u - u0 in the
        same order, so the values are the same; only the sign of a zero can differ."""
        a, n = list(self.coeffs), len(self.coeffs) - 1
        for k in range(n):
            for j in range(n - 1, k - 1, -1):
                a[j] += u0 * a[j + 1]
        return tuple(a)

    def root_free_radius(self, u0: complex) -> float:
        """R = 1/2 min |t_0 / t_k|^(1/k) over k >= 1 with t_k != 0, t = taylor_at(u0): no zero
        lies within R of u0, for the t as computed (Fujiwara's bound, Tohoku Math. J. 10, 1916,
        on the zeros of t^n p(u0 + 1/t)).  In exact arithmetic R >= d / (2 deg), d the distance
        to the nearest zero, as |t_k / t_0| <= C(deg, k) / d^k.  0 at a zero, inf for a nonzero
        constant; ValueError when a t_k is not finite."""
        size = [math.hypot(t.real, t.imag) for t in self.taylor_at(u0)]
        if not all(a < math.inf for a in size):
            raise ValueError(f"a Taylor coefficient at u={u0} is beyond the double range")
        return 0.5 * min(((size[0] / a) ** (1.0 / k) for k, a in enumerate(size) if k and a),
                         default=math.inf if size[0] else 0.0)

    def order_at(self, u0: complex, rho: float) -> int:
        """Vanishing order at u0: the first k with |t_k| rho^k above _ORDER_RTOL times the
        largest such term, t_k the Taylor coefficients of p(u0 + t).

        rho is the unit of length the tolerance is read in.  The t_k depend only on
        where the roots lie relative to u0, and t_k rho^k is unchanged by u -> u / lam
        when rho scales with u, so a rho taken from the roots (the distance to the
        nearest other one) makes the answer free of both the shift and the scale of u.
        ORDER_INFINITE for the zero polynomial."""
        if self.is_zero:
            return ORDER_INFINITE
        weighed = [abs(t) * rho**k for k, t in enumerate(self.taylor_at(u0))]
        scale = max(weighed)
        for k, w in enumerate(weighed):
            if w > _ORDER_RTOL * scale:
                return k
        return ORDER_INFINITE


ORDER_INFINITE = 10**6  # stand-in vanishing order of the zero polynomial
#: a Taylor coefficient (times rho^k) at or below this fraction of the largest reads as zero
_ORDER_RTOL = 1e-8


def convolve(a, b) -> list:
    """The product of two ascending coefficient sequences, untrimmed: the one summation
    order of a polynomial product (the expansions of Delta and W)."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def difference(a, b) -> list:
    """a - b of two ascending coefficient sequences, formed as a + (-1) b: the one form of
    a polynomial difference (the expansions of Delta and W)."""
    return [x + y for x, y in zip_longest(a, [-1.0 * c for c in b], fillvalue=0j)]


@dataclass(frozen=True)
class WeierstrassCurve:
    """A single cubic y^2 = 4x^3 - g2 x - g3."""

    g2: complex
    g3: complex


def discriminant(curve: WeierstrassCurve) -> complex:
    """g2^3 - 27 g3^2; zero exactly at nodes (g2,g3 != 0) and cusps (g2=g3=0).

    Raises ValueError when it is not a finite double (g2 or g3 overflowed).
    """
    try:
        d = curve.g2**3 - 27.0 * curve.g3**2
    except OverflowError:
        d = cmath.inf
    if not cmath.isfinite(d):
        raise ValueError(f"discriminant overflows for g2={curve.g2}, g3={curve.g3}")
    return d


def is_numerically_singular(delta: complex, scale: float) -> bool:
    """Whether a curve's delta = discriminant(curve) is rounding noise on its terms,
    scale = discriminant_scale(curve).

    |Delta| <= 1e-12 (|g2|^3 + 27 |g3|^2): the curve is a node or a cusp as
    far as double precision can tell.
    """
    return abs(delta) <= 1e-12 * max(scale, 1e-300)


def discriminant_scale(curve: WeierstrassCurve) -> float:
    """|g2|^3 + 27 |g3|^2, the size of the terms that cancel in Delta at a node."""
    return abs(curve.g2) ** 3 + 27.0 * abs(curve.g3) ** 2


def j_invariant(curve: WeierstrassCurve) -> complex:
    """1728 g2^3 / (g2^3 - 27 g3^2)."""
    d = discriminant(curve)
    if d == 0:
        raise SingularCurve(f"discriminant vanishes for g2={curve.g2}, g3={curve.g3}")
    return 1728.0 * curve.g2**3 / d


@dataclass(frozen=True)
class CurveFamily:
    """Polynomial Weierstrass family over the u-plane.

    Construction checks the flavor range and the degree bounds (deg g2 <= 2,
    deg g3 <= 3), then expands the discriminant once and requires deg Delta = nf + 2.
    Every family is valid, so invalid family files fail at ingestion rather than
    deep inside a computation.
    """

    g2_poly: ComplexPoly
    g3_poly: ComplexPoly
    nf: int
    name: str = ""
    masses: tuple = field(default=None)

    def __post_init__(self):
        if not 0 <= self.nf <= 4:
            raise BadNf(f"nf must be in 0..4, got {self.nf}")
        if self.g2_poly.degree > 2:
            raise DegreeMismatch(f"deg g2 = {self.g2_poly.degree} > 2")
        if self.g3_poly.degree > 3:
            raise DegreeMismatch(f"deg g3 = {self.g3_poly.degree} > 3")
        d = self.cached("delta", expand_discriminant)
        if d.degree != self.nf + 2:
            raise DegreeMismatch(f"deg(discriminant) = {d.degree},"
                                 f" expected nf + 2 = {self.nf + 2}")

    def cached(self, key: str, build):
        """build(self), computed on the first request for key and kept.

        The family is immutable, so data derived from it (the expanded
        discriminant, the v-chart, contour integrals) is built once per object.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def curve_at(self, u: complex) -> WeierstrassCurve:
        return WeierstrassCurve(self.g2_poly(u), self.g3_poly(u))


def expand_discriminant(family: CurveFamily) -> ComplexPoly:
    """g2^3 - 27 g3^2 expanded, with cancellation dust removed.

    Valid families rely on the top coefficients of g2^3 and 27 g3^2
    cancelling; in floating point that cancellation leaves residue of order
    eps times the coefficient of the same degree in |g2|^3 + 27 |g3|^2 (built
    from the absolute values of the coefficients).  Leading coefficients at
    or below 1e-12 of it are trimmed, so the test is unchanged by a rescaling
    of u; if every coefficient is trimmed the discriminant is identically
    zero and the zero polynomial is returned.  Reads only g2_poly and g3_poly; ValueError
    when a coefficient or its scale is not a finite double (g2^3 or g3^2 overflowed), or
    when a degree that has a product of nonzero coefficients has its scale below the
    normal range (the terms of that degree underflowed, so Delta would lose them).
    """
    g2, g3 = family.g2_poly.coeffs, family.g3_poly.coeffs
    coeffs = difference(convolve(convolve(g2, g2), g2), [27.0 * c for c in convolve(g3, g3)])
    try:
        a2, a3 = [abs(c) for c in g2], [abs(c) for c in g3]
    except OverflowError:  # |c| past the double range: its power in Delta overflowed too
        a2 = a3 = [math.inf]
    scale = [x + 27.0 * y for x, y in zip_longest(convolve(convolve(a2, a2), a2),
                                                  convolve(a3, a3), fillvalue=0.0)]
    if not all(cmath.isfinite(c) and cmath.isfinite(s) for c, s in zip(coeffs, scale)):
        raise ValueError("the family's discriminant overflows: a coefficient of"
                         " g2^3 - 27 g3^2 is beyond the double range")
    # the degrees that have a product of nonzero coefficients, counted exactly
    n2, n3 = [float(c != 0) for c in g2], [float(c != 0) for c in g3]
    terms = [x + y for x, y in zip_longest(convolve(convolve(n2, n2), n2), convolve(n3, n3),
                                           fillvalue=0.0)]
    if any(t and abs(s) < sys.float_info.min for t, s in zip(terms, scale)):
        raise ValueError("the family's discriminant underflows: the terms of a coefficient"
                         " of g2^3 - 27 g3^2 are below the normal double range")
    while coeffs and abs(coeffs[-1]) <= 1e-12 * abs(scale[len(coeffs) - 1]):
        coeffs.pop()
    return ComplexPoly.of(coeffs or [0.0])


def discriminant_poly(family: CurveFamily) -> ComplexPoly:
    """Coefficient-level expansion of g2^3 - 27 g3^2, of degree nf + 2: the one the
    family expanded and checked at construction (`expand_discriminant`)."""
    return family.cached("delta", expand_discriminant)


def order_at_infinity(p: ComplexPoly, weight: int) -> int:
    """Vanishing order at v = 0 of v^weight p(-1/v) (deg p <= weight): weight - deg p, exactly.

    The order of g2, g3 and Delta at u = infinity (weights 4, 6 and 12);
    ORDER_INFINITE for the zero polynomial.
    """
    return ORDER_INFINITE if p.is_zero else weight - p.degree


def to_v_chart(family: CurveFamily) -> ComplexPoly:
    """Delta_v = v^12 Delta(-1/v), the discriminant in the chart at infinity.

    The coefficient of v^(12-k) is (-1)^k c_k, so exact zeros stay exactly zero: Delta_v
    vanishes at v = 0 to order_at_infinity(Delta, 12) = 10 - nf, as every family has
    deg Delta = nf + 2.  Built once per family object.
    """
    def build(fam):
        out = [0j] * 13
        for k, c in enumerate(discriminant_poly(fam).coeffs):
            out[12 - k] = c if k % 2 == 0 else -c
        return ComplexPoly.of(out)  # trims only the top zeros, from c_0 = 0

    return family.cached("v_chart", build)


# ---------------------------------------------------------------------------
# Family JSON schema:
#   { "name": str, "nf": int, "g2": [[re,im],...], "g3": [[re,im],...],
#     "masses": [[re,im],...] (optional) }
# Coefficients ascending in u.
# ---------------------------------------------------------------------------

def _require(d: dict, key: str):
    if key not in d:
        raise SchemaError(f"missing required field '{key}'")
    return d[key]


def _complex_list(val, key: str):
    if not isinstance(val, list):
        raise SchemaError(f"field '{key}' must be a list of [re, im] pairs")
    out = []
    for index, item in enumerate(val):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            raise SchemaError(f"field '{key}' must contain [re, im] number pairs")
        try:
            z = complex(item[0], item[1])
        except OverflowError:  # an integer beyond the double range
            z = cmath.inf
        if not cmath.isfinite(z):
            raise SchemaError(f"field '{key}' must contain finite numbers; its pair {index} "
                              "(counted from 0) is not")
        out.append(z)
    if not out:
        raise SchemaError(f"field '{key}' must be non-empty")
    return out


def family_from_dict(d: dict) -> CurveFamily:
    if not isinstance(d, dict):
        raise SchemaError("family file must contain a JSON object")
    name = _require(d, "name")
    if not isinstance(name, str):
        raise SchemaError("field 'name' must be a string")
    nf = _require(d, "nf")
    if not isinstance(nf, int) or isinstance(nf, bool):
        raise SchemaError("field 'nf' must be an integer")
    g2 = _complex_list(_require(d, "g2"), "g2")
    g3 = _complex_list(_require(d, "g3"), "g3")
    masses = None
    if "masses" in d and d["masses"] is not None:
        masses = tuple(_complex_list(d["masses"], "masses"))
    try:
        return CurveFamily(
            g2_poly=ComplexPoly.of(g2),
            g3_poly=ComplexPoly.of(g3),
            nf=nf,
            name=name,
            masses=masses,
        )
    except (BadNf, DegreeMismatch) as exc:
        raise SchemaError(str(exc)) from exc


def family_to_dict(family: CurveFamily) -> dict:
    d = {
        "name": family.name,
        "nf": family.nf,
        "g2": [[c.real, c.imag] for c in family.g2_poly.coeffs],
        "g3": [[c.real, c.imag] for c in family.g3_poly.coeffs],
    }
    if family.masses is not None:
        d["masses"] = [[c.real, c.imag] for c in family.masses]
    return d


def load_family(path: str) -> CurveFamily:
    """The family in the JSON file at path, shared by every call that reads the same text.

    The file is read on each call and the family is looked up by its content, so a
    rewritten file is never served stale and the family's memo (`CurveFamily.cached`)
    lives for the process.  A file that fails to parse or validate raises every time."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read family file: {exc}") from exc
    return _family_from_text(text)


@functools.lru_cache(maxsize=16)
def _family_from_text(text: str) -> CurveFamily:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise SchemaError(f"malformed JSON in family file: {exc}") from exc
    return family_from_dict(data)
