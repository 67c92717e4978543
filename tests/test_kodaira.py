import copy
import json
import pickle

import pytest

from uplane import (
    AT_INFINITY,
    coalesced_family,
    BadNf,
    ComplexPoly,
    CrossCheckFailed,
    CurveFamily,
    DegreeMismatch,
    EulerMismatch,
    KodairaType,
    NonMinimal,
    NotSingular,
    classify_fiber,
    curvature_ledger,
    discriminant_poly,
    family_to_dict,
    find_singular_fibers,
    isotrivial_family,
    sample_family,
    signature_from_monodromy,
    surface_report,
    table1_expected,
    to_v_chart,
)
from uplane.cli import main
from uplane.curves import convolve, difference


def test_euler_numbers():
    assert KodairaType("I", 3).euler == 3
    assert KodairaType("I*", 0).euler == 6
    assert KodairaType("I*", 4).euler == 10
    for kind, e in (("II", 2), ("III", 3), ("IV", 4), ("IV*", 8), ("III*", 9), ("II*", 10)):
        assert KodairaType(kind).euler == e


def test_find_singular_fibers_simple():
    # Delta = 27 - 27 u^2: roots +-1
    fam = CurveFamily(ComplexPoly.of([3]), ComplexPoly.of([0, 1]), nf=0)
    roots = find_singular_fibers(fam)
    assert len(roots) == 2
    assert all(m == 1 for _, m in roots)
    assert abs(roots[0][0] + 1) < 1e-10 and abs(roots[1][0] - 1) < 1e-10


def test_find_singular_fibers_multiplicity():
    fam = isotrivial_family()  # Delta = 37 u^6
    roots = find_singular_fibers(fam)
    assert len(roots) == 1
    assert roots[0][1] == 6
    assert abs(roots[0][0]) < 1e-7


def test_identically_singular():
    # g2 = 3u^2, g3 = u^3 gives Delta = 27u^6 - 27u^6 = 0, of degree -1: refused at
    # construction, so no family has every fiber singular
    with pytest.raises(DegreeMismatch, match="deg\\(discriminant\\) = -1, expected nf \\+ 2 = 6"):
        CurveFamily(ComplexPoly.of([0, 0, 3]), ComplexPoly.of([0, 0, 0, 1]), nf=4)


def test_constant_discriminant_is_a_degree_mismatch():
    # Delta = 4^3 - 27 is a nonzero constant: no roots, and deg Delta != nf + 2
    with pytest.raises(DegreeMismatch, match="deg\\(discriminant\\) = 0, expected nf \\+ 2 = 2"):
        CurveFamily(ComplexPoly.of([4]), ComplexPoly.of([1]), nf=0)


def test_root_residuals_small():
    for nf in range(5):
        fam = sample_family(nf)
        d = discriminant_poly(fam)
        norm = max(abs(c) for c in d.coeffs)
        for z, m in find_singular_fibers(fam):
            if m == 1:
                assert abs(d(z)) <= 1e-10 * norm


def test_classify_simple_node():
    fam = sample_family(0)
    rep = classify_fiber(fam, 1.0)
    assert rep.kodaira == KodairaType("I", 1)
    assert rep.euler == 1
    assert rep.ord_delta == 1
    assert not rep.is_surface_singularity


def test_classify_not_singular():
    with pytest.raises(NotSingular):
        classify_fiber(sample_family(0), 5.0)


def test_classify_at_infinity_by_nf():
    for nf in range(5):
        rep = classify_fiber(sample_family(nf), AT_INFINITY)
        assert rep.kodaira == KodairaType("I*", 4 - nf)
        assert rep.euler == 10 - nf
        assert rep.ord_delta == 10 - nf
        assert rep.is_surface_singularity


def test_at_infinity_survives_pickle_and_copy():
    # the fiber at infinity is tested with `is`, so a copied report must still name it
    assert pickle.loads(pickle.dumps(AT_INFINITY)) is AT_INFINITY
    assert copy.deepcopy(AT_INFINITY) is AT_INFINITY
    report = pickle.loads(pickle.dumps(surface_report(sample_family(2))))
    assert report.fibers[-1].location is AT_INFINITY
    assert [f.location is AT_INFINITY for f in copy.deepcopy(report).fibers] == [False] * 4 + [True]


def test_classify_isotrivial_star_fibers():
    fam = isotrivial_family()
    rep0 = classify_fiber(fam, 0.0)
    assert rep0.kodaira == KodairaType("I*", 0)
    rep_inf = classify_fiber(fam, AT_INFINITY)
    assert rep_inf.kodaira == KodairaType("I*", 0)


def test_classify_non_minimal_at_infinity():
    # constant g2, g3 (orders 4 and 6 at v = 0) make Delta constant, for every nf: such a
    # family is refused at construction, so no fiber at infinity reads as non-minimal;
    # orders with min(3 ord g2, 2 ord g3) >= 12 still do, and orders that break
    # ord Delta = min(3 ord g2, 2 ord g3) + n fail the cross-check
    from uplane.kodaira import _classify_orders

    for nf in range(5):
        expected = f"deg\\(discriminant\\) = 0, expected nf \\+ 2 = {nf + 2}"
        with pytest.raises(DegreeMismatch, match=expected):
            CurveFamily(ComplexPoly.of([4]), ComplexPoly.of([1]), nf=nf)
    with pytest.raises(NonMinimal, match="non-minimal vanishing orders"):
        _classify_orders(4, 6, 12)
    with pytest.raises(CrossCheckFailed, match="\\(1, 1, 5\\)"):
        _classify_orders(1, 1, 5)


def _kodaira_table() -> dict:
    """Kodaira's table (Tate's algorithm in characteristic 0, as Silverman's Advanced
    Topics, table IV.4.1, lists it) over ord g2 <= 7 and ord g3 <= 9:
    (ord g2, ord g3, ord Delta) -> type, for the singular fibers (ord Delta >= 1)."""
    table = {(0, 0, n): f"I{n}" for n in range(1, 13)}
    table.update({(2, 3, 6 + n): f"I{n}*" for n in range(1, 7)})
    for a in range(8):
        for b in range(10):
            for kind, d, takes in (("II", 2, a >= 1 and b == 1), ("III", 3, a == 1 and b >= 2),
                                   ("IV", 4, a >= 2 and b == 2),
                                   ("I0*", 6, a == 2 and b >= 3 or a >= 3 and b == 3),
                                   ("IV*", 8, a >= 3 and b == 4), ("III*", 9, a == 3 and b >= 5),
                                   ("II*", 10, a >= 4 and b == 5)):
                if takes:
                    table[(a, b, d)] = kind
    return table


def test_classify_orders_accepts_exactly_kodairas_table():
    # over a <= 7, b <= 9, d <= 12 the orders classify to a type only on the table's 65
    # triples, each with Euler number d; every other triple is refused, naming itself:
    # NotSingular at d = 0, NonMinimal where min(3a, 2b) >= 12, else CrossCheckFailed
    from uplane.kodaira import _classify_orders

    table = _kodaira_table()
    assert len(table) == 65
    for a in range(8):
        for b in range(10):
            for d in range(13):
                if d == 0:
                    with pytest.raises(NotSingular):
                        _classify_orders(a, b, d)
                elif (a, b, d) in table:
                    kt = _classify_orders(a, b, d)
                    assert (kt.label, kt.euler) == (table[(a, b, d)], d)
                else:
                    error = NonMinimal if min(3 * a, 2 * b) >= 12 else CrossCheckFailed
                    with pytest.raises(error, match=f"\\({a}, {b}, {d}\\)"):
                        _classify_orders(a, b, d)
    # the orders of I*_n with d < 6 are no fiber: a misread ord Delta, not I*_{-1}
    for d in (1, 5):
        with pytest.raises(CrossCheckFailed, match=f"\\(2, 3, {d}\\)"):
            _classify_orders(2, 3, d)


def test_euler_ord_delta_match_for_multiplicative():
    fam = sample_family(3)
    for z, m in find_singular_fibers(fam):
        rep = classify_fiber(fam, z)
        assert rep.euler == rep.ord_delta == m


def test_v_chart_order_bookkeeping():
    for nf in range(5):
        fam = sample_family(nf)
        total_finite = sum(m for _, m in find_singular_fibers(fam))
        ord_inf = classify_fiber(fam, AT_INFINITY).ord_delta
        assert total_finite + ord_inf == 12
        # the order is the count of exactly zero low coefficients of Delta_v
        dv = to_v_chart(fam).coeffs
        assert dv[:ord_inf] == (0j,) * ord_inf and dv[ord_inf] != 0


def test_surface_reports():
    for nf in range(5):
        rep = surface_report(sample_family(nf))
        assert rep.total_euler == 12
        assert rep.sign_zbar == -8
        assert rep.sign_z == -nf
        finite = [f for f in rep.fibers if f.location is not AT_INFINITY]
        assert len(finite) == nf + 2
        assert all(f.kodaira == KodairaType("I", 1) for f in finite)


def test_surface_report_isotrivial():
    rep = surface_report(isotrivial_family())
    assert rep.total_euler == 12
    assert rep.sign_zbar == -8
    assert rep.sign_z == -4
    assert sorted(f.kodaira.label for f in rep.fibers) == ["I0*", "I0*"]


def test_euler_mismatch(monkeypatch, tmp_path, capsys):
    # the simple zero of Delta at nf0's node u = 1 read as a double one makes that fiber
    # I2, so the Euler numbers 1 + 2 + 10 sum to 13; the library raises and the CLI exits 1
    order_at = ComplexPoly.order_at

    def misread(poly, u0, rho=1.0):
        k = order_at(poly, u0, rho)
        return 2 if k == 1 and abs(u0 - 1.0) < 1e-9 else k

    monkeypatch.setattr(ComplexPoly, "order_at", misread)
    message = "fiber Euler numbers sum to 13, expected 12"
    with pytest.raises(EulerMismatch, match=message):
        surface_report(sample_family(0))
    path = tmp_path / "nf0.json"
    path.write_text(json.dumps(family_to_dict(sample_family(0))))
    assert main(["classify", "--family", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_coalesced_family_multiplicity_two():
    fam = coalesced_family()  # Delta = 64 (u^2 - 1)^2
    roots = find_singular_fibers(fam)
    assert [m for _, m in roots] == [2, 2]
    assert abs(roots[0][0] + 1) < 1e-7 and abs(roots[1][0] - 1) < 1e-7


def test_a_double_node_beside_two_simple_ones_is_split_at_the_longest_link():
    # g2 = 3u^2, g3 = u^3 + 2 (u - 1e-3)^2: Delta has a double zero at u = 1e-3 and two
    # simple ones 3e-5 from it.  The four eigenvalues link into one group within 1e-3 of
    # the spread, wider than rounding splits one zero, so the group is split at its
    # longest link, which keeps the double zero whole; its two eigenvalues taken apart
    # are no singular fiber (NotSingular)
    fam = CurveFamily(ComplexPoly.of([0, 0, 3]), ComplexPoly.of([2e-6, -4e-3, 2, 1]), nf=3)
    roots = find_singular_fibers(fam)
    assert sorted(m for _, m in roots) == [1, 1, 1, 2]
    node, mult = max(roots, key=lambda zm: zm[1])
    assert abs(node - 1e-3) < 1e-9 and mult == 2
    rep = surface_report(fam)
    assert [f.kodaira.label for f in rep.fibers] == ["I1", "I1", "I1", "I2", "I1*"]
    (double,) = (f for f in rep.fibers if f.kodaira.label == "I2")
    assert double.ord_delta == double.euler == 2


def test_coalesced_family_realizes_2I2_row():
    fam = coalesced_family()
    rep = surface_report(fam)
    assert sorted(f.kodaira.label for f in rep.fibers) == ["I2", "I2", "I2*"]
    assert rep.total_euler == 12
    assert rep.sign_z == -2
    finite = [f for f in rep.fibers if f.location is not AT_INFINITY]
    assert all(f.euler == f.ord_delta == 2 for f in finite)
    assert all(f.is_surface_singularity for f in finite)
    # matches the constrained configuration row m_1 = m_2 = 0
    rows = table1_expected(2)
    assert any(
        sorted(k.label for k in r.finite_fibers) == ["I2", "I2"] for r in rows
    )


def test_table1_row_counts():
    assert [len(table1_expected(nf)) for nf in (4, 3, 2, 1, 0)] == [7, 5, 3, 1, 1]


def test_table1_nf0_row():
    (row,) = table1_expected(0)
    assert row.fiber_at_infinity == KodairaType("I*", 4)
    assert row.finite_fibers == (KodairaType("I", 1), KodairaType("I", 1))
    assert row.constraint_label == "-"


def test_table1_nf2_rows():
    rows = table1_expected(2)
    assert any(
        r.finite_fibers == (KodairaType("I", 2), KodairaType("I", 2))
        and r.constraint_label == "m_1 = m_2 = 0"
        for r in rows
    )
    assert all(r.fiber_at_infinity == KodairaType("I*", 2) for r in rows)


def test_table1_euler_sums():
    # every configuration row sums to Euler number 12
    for nf in range(5):
        for row in table1_expected(nf):
            total = row.fiber_at_infinity.euler + sum(k.euler for k in row.finite_fibers)
            assert total == 12


def test_table1_bad_nf():
    with pytest.raises(BadNf):
        table1_expected(5)


def test_sample_families_match_table_generic_row():
    # the fixtures realize the unconstrained row of the table
    for nf in range(5):
        rep = surface_report(sample_family(nf))
        row = table1_expected(nf)[0]
        finite = sorted(
            f.kodaira.label for f in rep.fibers if f.location is not AT_INFINITY
        )
        assert finite == sorted(k.label for k in row.finite_fibers)
        inf = [f for f in rep.fibers if f.location is AT_INFINITY][0]
        assert inf.kodaira == row.fiber_at_infinity


def _sw_family(nf, masses, lam=1.0):
    """The Seiberg-Witten curve y^2 = x^3 + a x^2 + b x + c of nf = 0..3 flavors
    (Seiberg & Witten, Nucl. Phys. B431, 1994, section 16), with a, b, c polynomials
    in u, in Weierstrass form g2 = -4 (b - a^2/3), g3 = -4 (2a^3/27 - ab/3 + c)."""
    m1, m2, m3 = list(masses) + [0.0] * (3 - len(masses))
    if nf == 0:  # x^2 (x - u) + lam^4 x / 4
        a, b, c = [0, -1], [lam**4 / 4], [0]
    elif nf == 1:  # x^2 (x - u) + m lam^3 x / 4 - lam^6 / 64
        a, b, c = [0, -1], [m1 * lam**3 / 4], [-(lam**6) / 64]
    elif nf == 2:  # (x^2 - lam^4/64)(x - u) + m1 m2 lam^2 x / 4 - (m1^2 + m2^2) lam^4 / 64
        a = [0, -1]
        b = [-(lam**4) / 64 + m1 * m2 * lam**2 / 4]
        c = [-(m1**2 + m2**2) * lam**4 / 64, lam**4 / 64]
    else:  # x^2 (x - u) - lam^2 (x - u)^2 / 64 - s2 lam^2 (x - u) / 64
        #      + m1 m2 m3 lam x / 4 - s4 lam^2 / 64
        s2 = m1**2 + m2**2 + m3**2
        s4 = m1**2 * m2**2 + m1**2 * m3**2 + m2**2 * m3**2
        a = [-(lam**2) / 64, -1]
        b = [-s2 * lam**2 / 64 + m1 * m2 * m3 * lam / 4, 2 * lam**2 / 64]
        c = [-s4 * lam**2 / 64, s2 * lam**2 / 64, -(lam**2) / 64]

    def times(s, p):
        return [s * x for x in p]

    a, b, c = (ComplexPoly.of(p).coeffs for p in (a, b, c))
    aa = convolve(a, a)
    g2 = difference(b, times(1 / 3, aa))
    g3 = difference(times(2 / 27, convolve(aa, a)), difference(times(1 / 3, convolve(a, b)), c))
    g2, g3 = (ComplexPoly.of(times(-4.0, p)) for p in (g2, g3))
    return CurveFamily(g2, g3, nf=nf, name=f"sw-nf{nf}", masses=tuple(map(complex, masses)))


def test_sw_family_builder_matches_the_fixtures():
    # nf0 at lam = 1 is sample_family(0); nf2 massless at lam^4 = 64 is coalesced_family()
    nf0, fix0 = _sw_family(0, ()), sample_family(0)
    assert (nf0.g2_poly, nf0.g3_poly) == (fix0.g2_poly, fix0.g3_poly)
    nf2, fix2 = _sw_family(2, (0.0, 0.0), lam=64**0.25), coalesced_family()
    for p, q in ((nf2.g2_poly, fix2.g2_poly), (nf2.g3_poly, fix2.g3_poly)):
        assert len(p.coeffs) == len(q.coeffs)
        assert all(abs(x - y) <= 1e-15 * abs(y) for x, y in zip(p.coeffs, q.coeffs))


# (nf, masses, the constraint label of the table row they realize).  The table indexes
# masses its own way: its nf3 row "m_3 = m_4 = 0" is two zero masses of three, and the
# nf2 I2 comes from m1 = m2 or m1 = -m2 alike.  The generic rows close to a constrained
# one keep two nodes apart that are 5e-4 and 6e-4 of the root spread apart, and a heavy
# flavor (m = 1e3) puts one node near u = m^2 and leaves the others ~1e-4 of the spread
# apart: distinct nodes, which no grouping of the roots may read as one fiber.  At nf2
# masses (0.3, 0.3002) the pair is 3.4e-4 of the spread apart, where the signature's
# fiber rows need the rounding allowance of `holonomy._ccw_winding`
_SW_ROWS = [
    (0, (), "-"),
    (1, (0.5,), "-"),
    (2, (0.3, 0.7), "-"),
    (2, (0.7, 0.7), "m_1 = m_2"),
    (2, (0.7, -0.7), "m_1 = m_2"),
    (2, (0.0, 0.0), "m_1 = m_2 = 0"),
    (3, (0.2, 0.5, 0.9), "-"),
    (3, (0.3, 0.8, 0.8), "m_2 = m_3"),
    (3, (0.6, 0.6, 0.0), "m_2 = m_3"),
    (3, (0.5, 0.5, 0.5), "m_1 = m_2 = m_3"),
    (3, (0.6, 0.0, 0.0), "m_3 = m_4 = 0"),
    (3, (0.0, 0.0, 0.0), "m_1 = m_2 = m_3 = 0"),
    (2, (0.3, 0.3003), "-"),
    (2, (0.3, 0.3002), "-"),
    (3, (0.2, 0.5, 0.5003), "-"),
    (1, (1e3,), "-"),
    (2, (0.3, 1e3), "-"),
]


@pytest.mark.parametrize("nf, masses, label", _SW_ROWS, ids=[
    f"nf{nf}-" + ",".join(map(str, ms)) for nf, ms, _ in _SW_ROWS])
def test_sw_mass_point_realizes_its_table_row(nf, masses, label):
    fam = _sw_family(nf, masses)
    rep = fam.cached("report", surface_report)
    (row,) = [r for r in table1_expected(nf) if r.constraint_label == label]
    assert rep.fibers[-1].kodaira == row.fiber_at_infinity
    assert sorted(f.kodaira.label for f in rep.fibers[:-1]) == sorted(
        k.label for k in row.finite_fibers)
    assert signature_from_monodromy(fam) == rep.sign_z == -nf
    assert curvature_ledger(fam).total == 2


@pytest.mark.parametrize("g2, g3, nf, at_zero, at_infinity", [
    ([0, 1], [0, 1, 0, 1], 4, "II", "I0*"),
    ([0, 1], [0, 0, 1], 2, "III", "IV*"),
    ([0, 0, 1], [0, 0, 1], 4, "IV", "I0*"),
    ([0], [0, 1], 0, "II", "II*"),
    ([0, 1], [0], 1, "III", "III*"),
])
def test_additive_fibers_through_the_cli(tmp_path, capsys, g2, g3, nf, at_zero, at_infinity):
    # the six additive types, which no configuration of table1_expected holds: each at
    # u = 0 or at infinity, every other fiber I1.  The Euler numbers sum to 12 and both
    # signature routes give -nf
    family = CurveFamily(ComplexPoly.of(g2), ComplexPoly.of(g3), nf=nf, name="additive")
    path = tmp_path / "additive.json"
    path.write_text(json.dumps(family_to_dict(family)))
    assert main(["classify", "--family", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    *finite, infinity = doc["fibers"]
    zero = min(finite, key=lambda f: abs(complex(*f["location"])))
    assert abs(complex(*zero["location"])) < 1e-12 and zero["kodaira"] == at_zero
    assert infinity["location"] == "infinity" and infinity["kodaira"] == at_infinity
    assert all(f["kodaira"] == "I1" for f in finite if f is not zero)
    assert doc["total_euler"] == sum(f["euler"] for f in doc["fibers"]) == 12
    assert main(["signature", "--family", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == doc["sign_z_surface"] == -nf


@pytest.mark.parametrize("nf, orders", [(0, (2, 3, 2)), (1, (2, 3, 3))],
                         ids=["0-(2, 3, 2)", "1-(2, 3, 3)"])
def test_merged_nodes_are_refused_not_typed(tmp_path, capsys, nf, orders):
    # nf0 and nf1 under u -> 2^60 w with (g2, g3) -> (1e-120 g2, 1e-180 g3): the low
    # coefficients of g2^3 (nf0) and of 27 g3^2 (nf1) underflow, so the expanded Delta
    # would merge nodes into one zero, at which g2 and g3 read orders 2 and 3.  Read
    # from ord Delta alone, that zero would be II (nf0) or III (nf1), a type the Euler
    # sum cannot catch.  The expansion refuses a degree whose terms underflowed, so
    # neither the family nor either command gets that far (exit 2).  The order triple
    # the merged zero would read breaks d = min(3 ord g2, 2 ord g3), so the
    # classification refuses it too
    from uplane.kodaira import _classify_orders

    with pytest.raises(CrossCheckFailed, match="min\\(3 ord g2, 2 ord g3\\)"):
        _classify_orders(*orders)
    family = sample_family(nf)
    g2, g3 = ([c * 2.0 ** (60 * k) * lam for k, c in enumerate(p.coeffs)]
              for p, lam in ((family.g2_poly, 1e-120), (family.g3_poly, 1e-180)))
    with pytest.raises(ValueError, match="the family's discriminant underflows"):
        CurveFamily(ComplexPoly.of(g2), ComplexPoly.of(g3), nf=nf, name=f"nf{nf} moved")
    path = tmp_path / "moved.json"
    path.write_text(json.dumps({"name": f"nf{nf} moved", "nf": nf,
                                "g2": [[c.real, c.imag] for c in g2],
                                "g3": [[c.real, c.imag] for c in g3]}))
    for command in ("classify", "signature"):
        assert main([command, "--family", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: the family's discriminant underflows")
