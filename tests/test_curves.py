import numpy as np
import pytest

from uplane import (
    ComplexPoly,
    CurveFamily,
    DegreeMismatch,
    SchemaError,
    SingularCurve,
    WeierstrassCurve,
    discriminant,
    discriminant_poly,
    family_from_dict,
    family_to_dict,
    j_invariant,
    sample_family,
    to_v_chart,
)
from uplane.curves import poly_to_v_chart


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
    # g2 = u, g3 = 0: Delta = u^3, only nf = 1 is consistent
    fam = CurveFamily(ComplexPoly.of([0, 1]), ComplexPoly.of([0]), nf=1)
    assert discriminant_poly(fam).coeffs == (0j, 0j, 0j, 1 + 0j)
    bad = CurveFamily(ComplexPoly.of([0, 1]), ComplexPoly.of([0]), nf=2)
    with pytest.raises(DegreeMismatch):
        discriminant_poly(bad)


def test_discriminant_poly_pure_g3():
    fam = CurveFamily(ComplexPoly.of([0]), ComplexPoly.of([0, 1]), nf=0)
    assert discriminant_poly(fam).coeffs == (0j, 0j, -27 + 0j)


def test_v_chart_examples():
    # constant g2 = 4 becomes 4 v^4
    fam = CurveFamily(ComplexPoly.of([4]), ComplexPoly.of([0, 0, 0, 1]), nf=4)
    v = to_v_chart(fam)
    assert v.g2_v.coeffs == (0j, 0j, 0j, 0j, 4 + 0j)
    # delta = u^2 + 1 -> v^10 (1 + v^2), order 10 at v = 0
    p = ComplexPoly.of([1, 0, 1])
    pv = poly_to_v_chart(p, 12)
    assert pv.order_at_zero_exact() == 10
    assert pv.coeffs[10] == 1 and pv.coeffs[12] == 1
    # constant delta c -> c v^12
    pv = poly_to_v_chart(ComplexPoly.of([3.5]), 12)
    assert pv.order_at_zero_exact() == 12


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


def test_horner_is_deterministic():
    p = ComplexPoly.of([0.1 + 0.2j, -0.7, 3.1 - 0.4j, 0.05j])
    vals = {p(0.3 + 0.7j) for _ in range(100)}
    assert len(vals) == 1


def test_expansions_built_once_per_family(monkeypatch):
    import sys

    curves = sys.modules["uplane.curves"]
    calls = []
    expand = curves.expand_discriminant
    monkeypatch.setattr(curves, "expand_discriminant", lambda f: calls.append(f) or expand(f))
    fam = family_from_dict(family_to_dict(sample_family(2)))
    assert discriminant_poly(fam) is discriminant_poly(fam)
    assert to_v_chart(fam) is to_v_chart(fam)
    assert len(calls) == 1
    # the cache is not part of the family's value
    fresh = family_from_dict(family_to_dict(fam))
    assert fresh == fam and hash(fresh) == hash(fam)
    assert discriminant_poly(fresh) == discriminant_poly(fam)
    assert len(calls) == 2


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
