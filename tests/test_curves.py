import cmath
import json
import math
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uplane import (
    ComplexPoly,
    CurveFamily,
    DegreeMismatch,
    Periods,
    SchemaError,
    SingularCurve,
    UPlaneError,
    WeierstrassCurve,
    coalesced_family,
    compute_periods,
    dedekind_eta,
    discriminant,
    discriminant_poly,
    family_from_dict,
    family_to_dict,
    find_singular_fibers,
    isotrivial_family,
    j_invariant,
    load_family,
    reduce_periods,
    sample_family,
    signature_from_monodromy,
    surface_report,
    to_v_chart,
)
from uplane.curves import ORDER_INFINITE, expand_discriminant, order_at_infinity, poly_to_v_chart


def test_discriminant_direct_values():
    assert discriminant(WeierstrassCurve(4, 0)) == 64
    assert discriminant(WeierstrassCurve(0, 0)) == 0
    assert discriminant(WeierstrassCurve(3, 1)) == 0  # 27 - 27, node


def test_discriminant_poly_expansion():
    # g2 = 3, g3 = u: Delta = 27 - 27 u^2, valid for nf = 0
    fam = CurveFamily(ComplexPoly.of([3]), ComplexPoly.of([0, 1]), nf=0)
    d = discriminant_poly(fam)
    assert d.degree == 2
    assert d.coeffs == (27 + 0j, 0j, -27 + 0j)


def test_discriminant_poly_degree_mismatch():
    # g2 = u, g3 = 0: Delta = u^3, only nf = 1 is consistent; any other nf is refused
    # at construction
    fam = CurveFamily(ComplexPoly.of([0, 1]), ComplexPoly.of([0]), nf=1)
    assert discriminant_poly(fam).coeffs == (0j, 0j, 0j, 1 + 0j)
    with pytest.raises(DegreeMismatch, match="deg\\(discriminant\\) = 3, expected nf \\+ 2 = 4"):
        CurveFamily(ComplexPoly.of([0, 1]), ComplexPoly.of([0]), nf=2)


def test_discriminant_poly_pure_g3():
    fam = CurveFamily(ComplexPoly.of([0]), ComplexPoly.of([0, 1]), nf=0)
    assert discriminant_poly(fam).coeffs == (0j, 0j, -27 + 0j)


def _first_nonzero(coeffs) -> int:
    """Index of the first exactly nonzero coefficient; ORDER_INFINITE if there is none."""
    return next((k for k, c in enumerate(coeffs) if c != 0), ORDER_INFINITE)


def test_v_chart_examples():
    # g2 = 4, g3 = u^3: Delta = 64 - 27 u^6 becomes 64 v^12 - 27 v^6
    fam = CurveFamily(ComplexPoly.of([4]), ComplexPoly.of([0, 0, 0, 1]), nf=4)
    assert to_v_chart(fam).coeffs == (0j,) * 6 + (-27 + 0j,) + (0j,) * 5 + (64 + 0j,)
    assert [order_at_infinity(p, w) for p, w in
            ((fam.g2_poly, 4), (fam.g3_poly, 6), (discriminant_poly(fam), 12))] == [4, 3, 6]
    # constant g2 = 4 becomes 4 v^4
    assert poly_to_v_chart(fam.g2_poly, 4).coeffs == (0j, 0j, 0j, 0j, 4 + 0j)
    # delta = u^2 + 1 -> v^10 (1 + v^2), order 10 at v = 0
    p = ComplexPoly.of([1, 0, 1])
    pv = poly_to_v_chart(p, 12)
    assert order_at_infinity(p, 12) == _first_nonzero(pv.coeffs) == 10
    assert pv.coeffs[10] == 1 and pv.coeffs[12] == 1
    # constant delta c -> c v^12; the zero polynomial vanishes to every order
    assert order_at_infinity(ComplexPoly.of([3.5]), 12) == 12
    assert order_at_infinity(ComplexPoly.of([0]), 12) == ORDER_INFINITE


@pytest.mark.parametrize("fam, degree", [(sample_family(nf), 12) for nf in range(5)]
                         + [(coalesced_family(), 12), (isotrivial_family(), 6)])
def test_v_chart_discriminant_degree_is_true(fam, degree):
    # deg Delta_v = 12 - ord_{u=0} Delta: the isotrivial Delta = 37 u^6 becomes 37 v^6
    dv = to_v_chart(fam)
    delta = discriminant_poly(fam)
    assert dv.degree == degree == 12 - _first_nonzero(delta.coeffs)
    assert dv.coeffs[-1] != 0
    assert _first_nonzero(dv.coeffs) == order_at_infinity(delta, 12) == 10 - fam.nf


_COEFFS = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e8, allow_nan=False,
                                                    allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(weight=st.sampled_from([4, 6, 12]), coeffs=st.lists(_COEFFS, min_size=1, max_size=13))
@example(weight=12, coeffs=[0j])  # the zero polynomial
def test_order_at_infinity_is_the_first_nonzero_v_chart_coefficient(weight, coeffs):
    # exact zero coefficients are drawn often; degree at most the weight
    p = ComplexPoly.of(coeffs[:weight + 1])
    assert order_at_infinity(p, weight) == _first_nonzero(poly_to_v_chart(p, weight).coeffs)


def test_v_chart_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = ComplexPoly.of(coeffs)
        back = poly_to_v_chart(poly_to_v_chart(p, 4), 4)
        assert max(abs(a - b) for a, b in zip(back.coeffs, p.coeffs)) == 0


def test_j_invariant():
    assert abs(j_invariant(WeierstrassCurve(4, 0)) - 1728) < 1e-12
    assert abs(j_invariant(WeierstrassCurve(0, 1))) < 1e-12
    with pytest.raises(SingularCurve):
        j_invariant(WeierstrassCurve(3, 1))


def test_discriminant_weight_12_homogeneity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g2 = complex(rng.normal(), rng.normal())
        g3 = complex(rng.normal(), rng.normal())
        s = complex(rng.normal(), rng.normal())
        if abs(s) < 0.1:
            continue
        lhs = discriminant(WeierstrassCurve(s**4 * g2, s**6 * g3))
        rhs = s**12 * discriminant(WeierstrassCurve(g2, g3))
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs) + 1)


def test_j_scaling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g2 = complex(rng.normal(), rng.normal())
        g3 = complex(rng.normal(), rng.normal())
        if abs(discriminant(WeierstrassCurve(g2, g3))) < 1e-6:
            continue
        s = complex(rng.normal(), rng.normal())
        if abs(s) < 0.1:
            continue
        j1 = j_invariant(WeierstrassCurve(g2, g3))
        j2 = j_invariant(WeierstrassCurve(s**4 * g2, s**6 * g3))
        assert abs(j1 - j2) <= 1e-12 * (1 + abs(j1))


def _product_route(family):
    """Delta with its trim and (W, its scale) by the chains of ComplexPoly products, sums
    and scalings that built them before the plain-list expansions: every product by the
    schoolbook loop below, every difference as a + (-1) b, each result trimmed."""
    def mul(p, other):
        if not isinstance(other, ComplexPoly):
            return ComplexPoly.of([complex(other) * c for c in p.coeffs])
        out = [0j] * (len(p.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(p.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return ComplexPoly.of(out)

    def add(p, other):
        return ComplexPoly.of([x + y for x, y in zip_longest(p.coeffs, other.coeffs,
                                                            fillvalue=0j)])

    def sub(p, other):
        return add(p, mul(other, -1.0))

    g2, g3 = family.g2_poly, family.g3_poly
    coeffs = list(sub(mul(mul(g2, g2), g2), mul(mul(g3, g3), 27.0)).coeffs)
    a2, a3 = (ComplexPoly.of([abs(c) for c in p.coeffs]) for p in (g2, g3))
    scale = add(mul(mul(a2, a2), a2), mul(mul(a3, a3), 27.0)).coeffs
    while coeffs and abs(coeffs[-1]) <= 1e-12 * abs(scale[len(coeffs) - 1]):
        coeffs.pop()
    a = mul(mul(g2, g3.derivative()), 2.0)
    b = mul(mul(g2.derivative(), g3), 3.0)
    return ComplexPoly.of(coeffs or [0.0]), sub(a, b), max(abs(c) for c in a.coeffs + b.coeffs)


#: exact zeros, small integers, and magnitudes 1e-20 .. 1e20, real or complex
_MIXED = st.one_of(
    st.just(0j), st.sampled_from([1.0, -1.0, 2.0, -3.0, 4.0 / 3.0]),
    st.builds(lambda m, e, im: complex(m * 10.0**e, im * 10.0**e),
              st.floats(-1.0, 1.0), st.integers(-20, 20),
              st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
)


@settings(max_examples=500, deadline=None)
@given(g2=st.lists(_MIXED, min_size=1, max_size=3), g3=st.lists(_MIXED, min_size=1, max_size=4))
def test_convolved_expansions_are_the_product_route(g2, g3):
    # expand_discriminant (with its trim) and W = 2 g2 g3' - 3 g2' g3 are plain coefficient
    # convolutions, summed in the product route's order: equal coefficient tuples.  Both
    # read only g2_poly and g3_poly, so a stand-in carries polynomials of any degree
    # that no CurveFamily would accept
    from uplane.geometry import _j_numerator

    fam = SimpleNamespace(g2_poly=ComplexPoly.of(g2), g3_poly=ComplexPoly.of(g3))
    delta, w, scale = _product_route(fam)
    assert expand_discriminant(fam).coeffs == delta.coeffs
    assert _j_numerator(fam)[0].coeffs == w.coeffs and _j_numerator(fam)[1] == scale


@pytest.mark.parametrize("fam", [sample_family(nf) for nf in range(5)]
                         + [coalesced_family(), isotrivial_family()], ids=lambda f: f.name)
def test_fixture_expansions_are_the_product_route(fam):
    from uplane.geometry import _j_numerator

    delta, w, scale = _product_route(fam)
    assert discriminant_poly(fam).coeffs == delta.coeffs
    assert _j_numerator(fam) == (w, scale)


def _synthetic_division_taylor(coeffs, u0) -> tuple:
    """Coefficients of p(u0 + t) by repeated synthetic division by u - u0: each remainder
    is the next coefficient, and the quotient is divided again."""
    work, out = list(coeffs), []
    while work:
        quo, acc = [], 0j
        for c in reversed(work):
            acc = acc * u0 + c
            quo.append(acc)
        out.append(acc)
        work = list(reversed(quo[:-1]))
    return tuple(out)


#: shifts of modulus 1e-3 .. 1e3: real, complex at any angle, or small integers
_SHIFT = st.one_of(
    st.sampled_from([1, -1, 2, -3]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0).filter(lambda m: abs(m) >= 1.0),
              st.integers(-3, 2)),
    st.builds(lambda m, e, t: cmath.rect(m * 10.0**e, t), st.floats(1.0, 10.0),
              st.integers(-3, 2), st.floats(-math.pi, math.pi)),
)


@settings(max_examples=1000, deadline=None)
@given(coeffs=st.lists(_MIXED, min_size=1, max_size=7), u0=_SHIFT)
def test_taylor_shift_is_repeated_synthetic_division(coeffs, u0):
    # the in-place Horner shift forms the products and sums of synthetic division in its
    # order (IEEE * and + commute), so every coefficient is equal; == lets the sign of a
    # zero differ, which order_at reads through abs
    p = ComplexPoly.of(coeffs)
    assert p.taylor_at(u0) == _synthetic_division_taylor(p.coeffs, u0)


def test_horner_is_deterministic():
    p = ComplexPoly.of([0.1 + 0.2j, -0.7, 3.1 - 0.4j, 0.05j])
    vals = {p(0.3 + 0.7j) for _ in range(100)}
    assert len(vals) == 1


#: small Gaussian integers: exact zeros and the exact cancellations of the degree contract
#: (Delta = 0, or deg Delta = 5 for nf = 3) come up often, as no float draw makes them
_SMALL = st.builds(complex, st.integers(-3, 3), st.integers(-1, 1))


@settings(max_examples=300, deadline=None)
@given(g2=st.lists(_SMALL, min_size=1, max_size=3), g3=st.lists(_SMALL, min_size=1, max_size=4),
       nf=st.integers(0, 4), e=st.integers(-40, 40), x=st.floats(-2.0, 2.0),
       y=st.floats(0.4, 3.0))
@example(g2=[3], g3=[0, 1], nf=0, e=0, x=0.0, y=1.0)  # Delta = 27 - 27 u^2
@example(g2=[4], g3=[1], nf=0, e=0, x=0.5, y=0.5)  # constant Delta
@example(g2=[0, 0, 3], g3=[0, 0, 0, 1], nf=4, e=7, x=-1.5, y=0.4)  # Delta = 0
@example(g2=[0, 1, 3], g3=[0, 0, 0, 1], nf=3, e=-9, x=0.0, y=1.0)  # deg Delta = 5
def test_every_family_is_valid_and_every_basis_carries_its_eta(g2, g3, nf, e, x, y):
    # construction refuses deg Delta != nf + 2, so a family that exists has nf + 2
    # singular fibers, counted with multiplicity, and no accessor re-checks it.  The curve
    # is scaled by 10^e (g2 by 10^2e, g3 by 10^3e), which leaves the nodes where they are
    # and turns each exact cancellation into dust that the expansion must trim
    s = 10.0**e
    try:
        fam = CurveFamily(ComplexPoly.of([s**2 * c for c in g2]),
                          ComplexPoly.of([s**3 * c for c in g3]), nf=nf)
    except DegreeMismatch as exc:
        assert str(exc).endswith(f", expected nf + 2 = {nf + 2}")
    else:
        assert discriminant_poly(fam).degree == nf + 2
        assert sum(m for _, m in find_singular_fibers(fam)) == nf + 2
    # a basis carries eta(tau) and the nome q = e^{2 pi i tau} bit for bit however it was
    # built: by hand, reduced to F, solved from the lattice's (g2, g3), and solved with the
    # hand-built basis as seed.
    # Im tau >= 0.4 keeps the reduced Im tau <= 2.5, where the curve is far from singular
    from uplane.modular import eisenstein_in_f, g2_g3_from_forms

    tau = complex(x, y)
    by_hand = Periods(omega=1.0, omega_prime=tau, tau=tau)
    reduced, _ = reduce_periods(by_hand)
    curve = WeierstrassCurve(*g2_g3_from_forms(*eisenstein_in_f(reduced.q), reduced.omega))
    for p in (by_hand, reduced, compute_periods(curve), compute_periods(curve, seed=by_hand)):
        assert p.eta == dedekind_eta(p.tau)
        assert p.q == cmath.exp(2j * math.pi * p.tau)


def test_expansions_built_once_per_family(monkeypatch):
    import sys

    curves = sys.modules["uplane.curves"]
    calls = []
    expand = curves.expand_discriminant
    data = family_to_dict(sample_family(2))
    monkeypatch.setattr(curves, "expand_discriminant", lambda f: calls.append(f) or expand(f))
    fam = family_from_dict(data)
    assert calls == [fam]  # expanded and checked at construction
    assert discriminant_poly(fam) is discriminant_poly(fam)
    assert to_v_chart(fam) is to_v_chart(fam)
    assert len(calls) == 1
    # the cache is not part of the family's value
    fresh = family_from_dict(family_to_dict(fam))
    assert fresh == fam and hash(fresh) == hash(fam)
    assert discriminant_poly(fresh) == discriminant_poly(fam)
    assert len(calls) == 2


_SWEPT = (0, 1, 2, 3, 4, "coalesced")


def _swept_family(key):
    return coalesced_family() if key == "coalesced" else sample_family(key)


def _moves_alike(fam, moved, must_pass):
    """moved reproduces fam's fiber configuration and sign(Z) = -nf by both routes
    (Euler numbers and monodromy), or raises a typed UPlaneError, unless must_pass."""
    want = [f.kodaira for f in surface_report(fam).fibers]
    try:
        report = moved.cached("report", surface_report)
        sig = signature_from_monodromy(moved)
    except UPlaneError:
        if must_pass:
            raise
        return
    assert [f.kodaira for f in report.fibers] == want
    assert report.sign_z == sig == -fam.nf


@pytest.mark.parametrize("nf, lam", [(key, 10.0**e) for key in _SWEPT for e in range(-9, 10)])
def test_family_rescaled_in_u_loads_and_signs(nf, lam):
    # u -> u / lam scales coefficient k of g2, g3 and Delta by lam^-k; each coefficient
    # of Delta is judged against the same degree of |g2|^3 + 27 |g3|^2, so no top
    # coefficient turns into dust and no cancellation dust survives.  The roots are
    # grouped by lengths that scale with u, and orders are read in units of the gap to
    # the nearest other node, so the fibers classify alike at any scale
    fam = _swept_family(nf)
    d = family_to_dict(fam)
    for key in ("g2", "g3"):
        d[key] = [[re / lam**k, im / lam**k] for k, (re, im) in enumerate(d[key])]
    moved = family_from_dict(d)
    assert discriminant_poly(moved).degree == discriminant_poly(fam).degree
    _moves_alike(fam, moved, must_pass=True)


@pytest.mark.parametrize("nf, s", [(key, s) for key in _SWEPT
                                   for s in (1, 3, 10, 30, 100, 300, -10, -30, 10j, 30j)])
def test_family_shifted_in_u_loads_and_signs(nf, s):
    # u -> u + s moves every root by -s and leaves the Taylor coefficients at each node,
    # and the gaps between nodes, as they were.  Only the rounding grows: Delta's
    # coefficients reach 2e10 at s = 30, and at |s| >= 30 it can drown a node's low
    # Taylor terms (NotSingular) or a contour integral (NonIntegerWinding); those moves
    # may be refused.  At s = 30 the Euler route still classifies nf0-nf3
    fam = _swept_family(nf)
    d = family_to_dict(fam)
    d["g2"], d["g3"] = ([[c.real, c.imag] for c in p.taylor_at(s)]
                        for p in (fam.g2_poly, fam.g3_poly))
    moved = family_from_dict(d)
    if s == 30 and nf in range(4):
        assert [f.kodaira for f in surface_report(moved).fibers] == [
            f.kodaira for f in surface_report(fam).fibers]
    _moves_alike(fam, moved, must_pass=abs(s) <= 10)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("offset", [0.0, -0.5])
@pytest.mark.parametrize("double", [None, 5])
def test_order_at_one_sided_cluster(lam, offset, double):
    # twelve roots (j/11 + offset) lam, all on one side of u = 0 at offset 0, one of them
    # double: read in units of the gap to the nearest other root, each has its own
    # multiplicity at any scale (in units of u, the default, the simple ones read 9 or
    # 10 at lam = 1e-3, offset 0)
    roots = [(j / 11 + offset) * lam for j in range(12)]
    if double is not None:
        roots[double + 1] = roots[double]
    p = ComplexPoly.of(list(np.poly(roots)[::-1].astype(complex)))
    for r in set(roots):
        gap = min(abs(r - q) for q in roots if q != r)
        assert p.order_at(complex(r), gap) == roots.count(r)


def test_family_json_round_trip():
    d = {
        "name": "nf0",
        "nf": 0,
        "g2": [[-1.0, 0.0], [0.0, 0.0], [4.0 / 3.0, 0.0]],
        "g3": [[0.0, 0.0], [-1.0 / 3.0, 0.0], [0.0, 0.0], [8.0 / 27.0, 0.0]],
    }
    fam = family_from_dict(d)
    assert fam.nf == 0
    assert family_to_dict(fam) == d


@pytest.mark.parametrize("missing", ["name", "nf", "g2", "g3"])
def test_family_json_missing_field(missing):
    d = {
        "name": "x",
        "nf": 0,
        "g2": [[-1.0, 0.0], [0.0, 0.0], [4.0 / 3.0, 0.0]],
        "g3": [[0.0, 0.0], [-1.0 / 3.0, 0.0], [0.0, 0.0], [8.0 / 27.0, 0.0]],
    }
    del d[missing]
    with pytest.raises(SchemaError, match=missing):
        family_from_dict(d)


def test_family_json_rejects_bad_degree():
    d = {"name": "x", "nf": 2, "g2": [[3.0, 0.0]], "g3": [[0.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(SchemaError):
        family_from_dict(d)


_HUGE = "1" + "0" * 400  # an integer beyond the double range, as JSON may write it


@pytest.mark.parametrize("field", ["g2", "g3", "masses"])
@pytest.mark.parametrize("pair, message", [
    ([_HUGE, "0.0"], "must contain finite numbers"),  # was an OverflowError
    (["0.0", "-" + _HUGE], "must contain finite numbers"),
    (["true", "0.0"], r"must contain \[re, im\] number pairs"),  # was read as 1.0
    (["0.0", "false"], r"must contain \[re, im\] number pairs"),
], ids=["huge-re", "huge-im", "true", "false"])
def test_family_json_refuses_huge_integers_and_booleans(tmp_path, field, pair, message):
    doc = family_to_dict(sample_family(2))
    doc["masses"] = [[0.5, 0.0], [-0.5, 0.0]]
    doc[field][-1] = "PAIR"
    text = json.dumps(doc).replace('"PAIR"', "[" + ", ".join(pair) + "]")
    with pytest.raises(SchemaError, match=f"field '{field}' {message}"):
        family_from_dict(json.loads(text))
    path = tmp_path / "fam.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"field '{field}' {message}"):
        load_family(str(path))
