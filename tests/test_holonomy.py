import cmath
import json
import math
import os
import subprocess
import sys
import types
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uplane import (
    AT_INFINITY,
    coalesced_family,
    isotrivial_family,
    Chart,
    ComplexPoly,
    CrossCheckFailed,
    LoopSpec,
    LoopTooCloseToSingularity,
    NonIntegerWinding,
    Operator,
    Orientation,
    canonical_trivialization_check,
    curvature_ledger,
    family_to_dict,
    find_singular_fibers,
    sample_family,
    signature_from_monodromy,
    surface_report,
)
import uplane.holonomy as H
import uplane.kodaira as K
from uplane.cli import main
from uplane.holonomy import holonomy


def _node_loop(center, radius, orientation=Orientation.CLOCKWISE, samples=1024):
    return LoopSpec(center=center, radius=radius, orientation=orientation, samples=samples)


def test_import_names_the_holonomy_module():
    import uplane
    import uplane.holonomy as h

    assert isinstance(h, types.ModuleType)
    assert uplane.holonomy is h
    assert h.holonomy.__module__ == "uplane.holonomy"


def test_dbar_node_holonomy():
    fam = sample_family(0)
    res = holonomy(Operator.DBAR, fam, _node_loop(1.0, 0.5))
    assert res.winding == -1
    assert res.log_monodromy == Fraction(-1, 3)
    assert abs(res.phase - cmath.exp(1j * math.pi / 6)) < 1e-9


def test_empty_loop():
    fam = sample_family(0)
    res = holonomy(Operator.DBAR, fam, _node_loop(5.0, 0.5))
    assert res.winding == 0
    assert res.log_monodromy == 0
    assert abs(res.phase - 1.0) < 1e-12


def test_signature_node_and_infinity():
    fam = sample_family(0)
    res = holonomy(Operator.SIGNATURE, fam, _node_loop(1.0, 0.5))
    assert res.log_monodromy == Fraction(-2, 3)
    loop_inf = LoopSpec(
        center=0.0, radius=0.3, orientation=Orientation.CLOCKWISE, chart=Chart.V
    )
    res = holonomy(Operator.SIGNATURE, fam, loop_inf)
    assert res.log_monodromy == Fraction(-20, 3)


def test_dbar_infinity_classes():
    for nf in range(5):
        fam = sample_family(nf)
        roots = find_singular_fibers(fam)
        rad = 0.4 / max(abs(z) for z, _ in roots)
        loop_inf = LoopSpec(
            center=0.0, radius=rad, orientation=Orientation.CLOCKWISE, chart=Chart.V
        )
        res = holonomy(Operator.DBAR, fam, loop_inf)
        expect = Fraction(-(10 - nf), 3)
        # compare mod 4, then check the stored representative is in (-4, 0]
        assert (res.log_monodromy - expect) % 4 == 0
        assert -4 < res.log_monodromy <= 0


def test_multiplicativity_over_two_nodes():
    fam = sample_family(0)  # nodes at -1, +1
    big = holonomy(
        Operator.SIGNATURE, fam, _node_loop(0.0, 2.0, Orientation.CLOCKWISE)
    )
    one = holonomy(Operator.SIGNATURE, fam, _node_loop(1.0, 0.5, Orientation.CLOCKWISE))
    other = holonomy(
        Operator.SIGNATURE, fam, _node_loop(-1.0, 0.5, Orientation.CLOCKWISE)
    )
    assert big.log_monodromy == one.log_monodromy + other.log_monodromy


def test_orientation_reversal():
    fam = sample_family(0)
    cw = holonomy(Operator.SIGNATURE, fam, _node_loop(1.0, 0.5, Orientation.CLOCKWISE))
    ccw = holonomy(
        Operator.SIGNATURE, fam, _node_loop(1.0, 0.5, Orientation.COUNTERCLOCKWISE)
    )
    assert ccw.log_monodromy == -cw.log_monodromy
    assert abs(ccw.phase - cw.phase.conjugate()) < 1e-12
    # dbar classes negate mod 4
    cw = holonomy(Operator.DBAR, fam, _node_loop(1.0, 0.5, Orientation.CLOCKWISE))
    ccw = holonomy(
        Operator.DBAR, fam, _node_loop(1.0, 0.5, Orientation.COUNTERCLOCKWISE)
    )
    assert (ccw.log_monodromy + cw.log_monodromy) % 4 == 0
    assert abs(ccw.phase - cw.phase.conjugate()) < 1e-12


def test_numeric_phase_matches_exact_at_4096():
    for nf in (0, 2, 4):
        fam = sample_family(nf)
        for z, _ in find_singular_fibers(fam):
            others = [abs(z - w) for w, _ in find_singular_fibers(fam) if w != z]
            rad = 0.4 * min(others) if others else 0.5
            loop = _node_loop(z, rad, Orientation.CLOCKWISE, samples=4096)
            for op in (Operator.DBAR, Operator.SIGNATURE):
                res = holonomy(op, fam, loop)
                assert abs(res.phase - res.phase_exact) <= 1e-8
                assert abs(abs(res.phase) - 1.0) <= 1e-12


def test_chart_consistency_total_winding():
    # product of the infinity holonomy and all same-orientation node
    # holonomies is 1: the total dbar winding of Delta over CP^1 is 12
    fam = sample_family(2)
    roots = find_singular_fibers(fam)
    prod = 1.0 + 0.0j
    for i, (z, _) in enumerate(roots):
        others = [abs(z - w) for j, (w, _) in enumerate(roots) if j != i]
        loop = _node_loop(z, 0.4 * min(others), Orientation.CLOCKWISE)
        prod *= holonomy(Operator.DBAR, fam, loop).phase
    rad = 0.4 / max(abs(z) for z, _ in roots)
    loop_inf = LoopSpec(
        center=0.0, radius=rad, orientation=Orientation.CLOCKWISE, chart=Chart.V
    )
    prod *= holonomy(Operator.DBAR, fam, loop_inf).phase
    assert abs(prod - 1.0) < 1e-8


def test_loop_too_close():
    fam = sample_family(0)
    with pytest.raises(LoopTooCloseToSingularity):
        holonomy(Operator.DBAR, fam, _node_loop(0.0, 1.0))  # passes through u = +-1


@pytest.mark.parametrize("radius", [1e-7, 3e-7, 1e-6])
def test_small_loop_on_a_node_resolves(radius):
    # the zero sits at the center (rho = 0), so the sample bound is met at the floor
    for op in Operator:
        res = holonomy(op, sample_family(0), _node_loop(1.0, radius, Orientation.COUNTERCLOCKWISE))
        assert res.winding == 1
        assert abs(res.phase - res.phase_exact) <= 1e-9


def test_loop_below_the_rounding_of_delta_fails_the_winding_check():
    # at radius 1e-8 Delta's rounding moves integral / (2 pi i) by ~1e-9, past _INTEGRAL_TOL
    with pytest.raises(NonIntegerWinding, match="not integral"):
        holonomy(Operator.SIGNATURE, sample_family(0), _node_loop(1.0, 1e-8))


def test_overflowing_loop_is_a_domain_error():
    # Delta overflows on a circle of radius 1e200: a typed error, not a NaN winding
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
        with pytest.raises(NonIntegerWinding, match="not finite"):
            holonomy(Operator.DBAR, sample_family(0), _node_loop(0.0, 1e200))


def test_trivialization_check():
    fam = sample_family(0)
    assert canonical_trivialization_check(fam, _node_loop(1.0, 0.5))
    assert canonical_trivialization_check(fam, _node_loop(0.0, 2.0))
    # exact rational arithmetic behind it: 6 * (-2/3) = -4 and 6 * (-4/3) = -8
    assert (6 * Fraction(-2, 3)) % 4 == 0
    assert (6 * Fraction(-4, 3)) % 4 == 0


def test_double_node_holonomy_and_trivialization():
    fam = coalesced_family()  # I2 fibers at u = +-1
    loop = _node_loop(1.0, 0.5)
    res = holonomy(Operator.SIGNATURE, fam, loop)
    assert res.log_monodromy == Fraction(-4, 3)
    assert res.winding == -2
    # 6 * (-4/3) = -8, a multiple of 4: sixth power is trivial
    assert canonical_trivialization_check(fam, loop)
    res = holonomy(Operator.DBAR, fam, loop)
    assert (res.log_monodromy - Fraction(-2, 3)) % 4 == 0


def test_coalesced_curvature_ledger():
    led = curvature_ledger(coalesced_family())
    finite = [r for loc, r in led.residues if loc is not AT_INFINITY]
    assert finite == [Fraction(1, 3), Fraction(1, 3)]
    inf = [r for loc, r in led.residues if loc is AT_INFINITY][0]
    assert inf == Fraction(4, 3)
    assert led.total == 2


def test_coalesced_signature():
    assert signature_from_monodromy(coalesced_family()) == -2


def test_curvature_ledger_exact_totals():
    for nf in range(5):
        led = curvature_ledger(sample_family(nf))
        assert led.total == 2
        rows = H._fiber_rows(sample_family(nf))
        assert [w for _, _, w in rows] == [1] * (nf + 2) + [10 - nf]
        finite = [r for loc, r in led.residues if loc is not AT_INFINITY]
        assert finite == [Fraction(1, 6)] * (nf + 2)
        inf = [r for loc, r in led.residues if loc is AT_INFINITY][0]
        assert inf == Fraction(10 - nf, 6)


def test_curvature_ledger_dbar_variant():
    led = curvature_ledger(sample_family(0), operator=Operator.DBAR)
    finite = [r for loc, r in led.residues if loc is not AT_INFINITY]
    assert finite == [Fraction(1, 12)] * 2
    assert led.total == 1


def test_signature_from_monodromy_all_nf():
    for nf in range(5):
        fam = sample_family(nf)
        sig = signature_from_monodromy(fam)
        assert sig == -nf
        assert sig == surface_report(fam).sign_z


def test_isotrivial_signature_and_ledger():
    # one sextic node at u = 0 and an I0* at infinity: eta0 = -4 both sides
    fam = isotrivial_family()
    assert signature_from_monodromy(fam) == -4
    led = curvature_ledger(fam)
    assert [r for _, r in led.residues] == [Fraction(1), Fraction(1)]
    assert led.total == 2


def test_signature_exact_arithmetic_nf0():
    # 2 * (-2/3) - (1/2)(-20/3) - 2 = 0
    assert 2 * Fraction(-2, 3) - Fraction(1, 2) * Fraction(-20, 3) - 2 == 0
    # nf = 4: 6 * (-2/3) - (1/2)(-12/3) - 2 = -4
    assert 6 * Fraction(-2, 3) - Fraction(1, 2) * Fraction(-12, 3) - 2 == -4


# ---------------------------------------------------------------------------
# The contour engine.
# ---------------------------------------------------------------------------


def test_array_horner_matches_scalar_and_is_reproducible():
    rng = np.random.default_rng(7)
    for _ in range(200):
        deg = int(rng.integers(0, 13))
        p = ComplexPoly.of(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        z = (rng.normal(size=257) + 1j * rng.normal(size=257)) * rng.uniform(0.1, 3.0)
        vec = H._horner(p, z)
        scalar = np.array([p(w) for w in z])
        # relative to sum |c_k| |z|^k, the scale Horner's rounding error is bounded by
        scale = sum(abs(c) * np.abs(z) ** k for k, c in enumerate(p.coeffs))
        assert np.max(np.abs(vec - scalar) / scale) <= 1e-14
        # bit-identical on every rerun, whatever the array's length, order or shape
        assert np.array_equal(vec, H._horner(p, z))
        assert np.array_equal(vec[1:], H._horner(p, z[1:]))
        assert np.array_equal(vec, H._horner(p, z[::-1])[::-1])
        assert np.array_equal(vec[:256], H._horner(p, z[:256].reshape(4, 64)).reshape(-1))


_PASS_FAMILIES = [sample_family(nf) for nf in range(5)] + [
    coalesced_family(),
    isotrivial_family(),
]


def test_rim_is_the_cached_read_only_unit_circle():
    for n in (64, 100, 4096):
        rim = H._rim(n)
        expect = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
        assert rim.tobytes() == expect.tobytes()  # bitwise, signed zeros included
        assert H._rim(n) is rim and not rim.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rim[0] = 0.0
    assert H._rim.cache_info().maxsize == H._RIMS
    for n in range(64, 64 + 3 * H._RIMS):
        H._rim(n)
        assert H._rim.cache_info().currsize <= H._RIMS


def _parent_winding(family, loop):
    """The contour integral `_ccw_winding` must reproduce bit for bit: its own unit
    circle, the Horner loop inline, the same checks in order."""
    delta = H._chart_delta(family, loop.chart)
    n = H._sample_count(H._chart_zeros(family, loop.chart), loop)
    rim = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))
    z = loop.center + loop.radius * rim
    dz = 1j * loop.radius * rim * (2.0 * math.pi / n)

    def horner(p):
        acc = np.zeros_like(z)
        for c in reversed(p.coeffs):
            acc = acc * z + c
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        vals, dvals = horner(delta), horner(delta.derivative())
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
    if abs(winding - k) > 1e-8 or abs(integral / (2j * math.pi) - k) > H._INTEGRAL_TOL:
        raise NonIntegerWinding(f"winding {winding} (integral {integral / (2j * math.pi)}) "
                                f"not integral at {n} samples")
    return replace(loop, samples=n), k, integral


def _row_or_failure(integrate, family, loop):
    """integrate(family, loop), or the type and message of the error it raises."""
    try:
        return integrate(family, loop)
    except (LoopTooCloseToSingularity, NonIntegerWinding) as exc:
        return type(exc), str(exc)


#: (zero index, center offset, its angle); a loop adds a radius and a sample floor
_NEAR_A_ZERO = (st.integers(0, 11), st.floats(0.0, 0.6), st.floats(0.0, 2 * math.pi))
_LOOP = st.tuples(*_NEAR_A_ZERO, st.floats(0.05, 1.5), st.sampled_from([64, 100, 256, 1024, 4096]))


@settings(max_examples=60, deadline=None)
@given(fam=st.sampled_from(_PASS_FAMILIES), chart=st.sampled_from(list(Chart)),
       loops=st.lists(_LOOP, min_size=1, max_size=6), raised=st.tuples(*_NEAR_A_ZERO),
       slack=st.floats(0.05, 0.2), at=st.integers(0, 6))
def test_a_batched_row_is_its_loop_sampled_alone(fam, chart, loops, raised, slack, at):
    # loops near the chart's zeros at floors of 64-4,096, plus one whose circle passes
    # slack of its radius outside a zero, which lifts its count above the floor of 64
    zeros = H._chart_zeros(fam, chart)
    scale = 1.0 + max(abs(z) for z, _ in zeros)

    def loop(i, offset, angle, radius, samples):
        center = complex(zeros[i % len(zeros)][0]) + scale * cmath.rect(offset, angle)
        return LoopSpec(center, scale * radius, samples, chart=chart)

    specs = [loop(*draw) for draw in loops]
    i, offset, angle = raised
    offset = max(offset, 0.05)
    specs.insert(at % (len(specs) + 1), loop(i, offset, angle, offset * (1.0 + slack), 64))
    expect = [_row_or_failure(_parent_winding, fam, spec) for spec in specs]
    assume(all(len(row) == 3 for row in expect))  # every loop passes
    assert max(loop.samples for loop, _, _ in expect) > 64
    for spec, (loop_b, k_b, int_b) in zip(specs, expect, strict=True):
        loop_a, k_a, int_a = H._ccw_winding(fam, spec)
        assert loop_a == loop_b and k_a == k_b and int_a == int_b
    # at the floors most such loops fail the check, with the reference's error
    with patch.object(H, "_sample_count", lambda zeros, loop: loop.samples):
        for spec in specs:
            assert (_row_or_failure(H._ccw_winding, fam, spec)
                    == _row_or_failure(_parent_winding, fam, spec))


# signature of each family; the ledger totals are 2 (signature) and 1 (dbar)
_PASS_SIGNATURES = [0, -1, -2, -3, -4, -2, -4]


@pytest.mark.parametrize(
    "fam, sig", zip(_PASS_FAMILIES, _PASS_SIGNATURES), ids=[f.name for f in _PASS_FAMILIES]
)
def test_one_pass_engine_exact_outputs(fam, sig):
    rows = H._fiber_rows(fam)
    roots = tuple(find_singular_fibers(fam))
    assert tuple((z, m) for z, m, _ in rows[:-1]) == roots and rows[-1][0] is AT_INFINITY
    # ccw windings are the vanishing orders of Delta in each chart
    assert [w for _, _, w in rows] == [m for _, m, _ in rows]
    assert rows[-1][1] == surface_report(fam).fibers[-1].ord_delta
    # every loop agrees with a separate single-loop holonomy, both orientations
    loops = [H._node_loop(fam, z) for z, _ in roots] + [H._infinity_loop(roots)]
    for loop, (_, _, w_ccw) in zip(loops, rows, strict=True):
        for op in Operator:
            for orient, sign in ((Orientation.COUNTERCLOCKWISE, 1), (Orientation.CLOCKWISE, -1)):
                res = holonomy(op, fam, LoopSpec(
                    center=loop.center, radius=loop.radius, samples=4096,
                    orientation=orient, chart=loop.chart,
                ))
                assert res.winding == sign * w_ccw
                if op is Operator.SIGNATURE:
                    assert res.log_monodromy == Fraction(2, 3) * sign * w_ccw
    for op, den, total in ((Operator.SIGNATURE, 6, 2), (Operator.DBAR, 12, 1)):
        led = curvature_ledger(fam, operator=op)
        assert led.total == total
        assert list(led.residues) == [(loc, Fraction(m, den)) for loc, m, _ in rows]
    assert signature_from_monodromy(fam) == sig


def test_signature_command_integrates_each_loop_once(monkeypatch, tmp_path):
    fam = sample_family(3)
    path = tmp_path / "nf3.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    counts = {"calls": 0, "loops": 0, "reports": 0}
    integrate, report = H._ccw_winding, surface_report

    def counted_integrate(fam, loop):
        counts["calls"] += 1
        counts["loops"] += 1
        return integrate(fam, loop)

    def counted_report(*args, **kwargs):
        counts["reports"] += 1
        return report(*args, **kwargs)

    monkeypatch.setattr(H, "_ccw_winding", counted_integrate)
    monkeypatch.setattr(sys.modules["uplane.kodaira"], "surface_report", counted_report)
    argv = ["signature", "--family", str(path), "--out", str(tmp_path / "o.json")]
    for _ in range(2):
        assert main(argv) == 0
        # one call per loop: the 5 node loops, then the loop around v = 0; and one
        # surface report, which the signature's cross-check reads from the family.
        # The second request reads the same file content, so it shares the family and
        # builds nothing
        assert counts == {"calls": 6, "loops": 6, "reports": 1}
    path.write_text(json.dumps(family_to_dict(sample_family(1))))  # 3 nodes: built anew
    assert main(argv) == 0
    assert counts == {"calls": 10, "loops": 10, "reports": 2}
    fam = sample_family(3)  # the library route builds the report once per family as well
    assert signature_from_monodromy(fam) == signature_from_monodromy(fam) == -3
    assert counts == {"calls": 16, "loops": 16, "reports": 3}


def _spy_sample_shapes(monkeypatch) -> list:
    """Shape of every array the contour Horner evaluates from now on."""
    shapes = []
    horner = H._horner

    def spied(poly, z):
        shapes.append(z.shape)
        return horner(poly, z)

    monkeypatch.setattr(H, "_horner", spied)
    return shapes


def test_undersampled_loop_integrates_once_at_the_rule_count(monkeypatch):
    # 64 samples on a circle passing 0.02 from the node at u = 1 miss the
    # trapezoid error bound; the count comes from the zeros, sampled once
    fam = sample_family(0)
    loop = _node_loop(0.5, 0.52, Orientation.CLOCKWISE, samples=64)
    rho = 0.5 / 0.52  # the node at u = 1 is the nearest zero; the one at -1 has 0.52/1.5
    n = next(n for n in range(64, 1 << 20)
             if rho**n / (1 - rho**n) + (0.52 / 1.5) ** n <= H._INTEGRAL_TOL / 8)
    assert n > 64
    shapes = _spy_sample_shapes(monkeypatch)
    res = holonomy(Operator.SIGNATURE, fam, loop)
    assert shapes == [(n,), (n,)]  # Delta and Delta', once each
    assert res.loop.samples == n
    assert res.winding == -1 and res.log_monodromy == Fraction(-2, 3)
    # the rule's bound on integral / (2 pi i), times 2 pi / 6 for the phase
    assert abs(res.phase - res.phase_exact) <= 2 * math.pi / 6 * H._INTEGRAL_TOL / 8
    ref = holonomy(Operator.SIGNATURE, fam, _node_loop(0.5, 0.52, samples=n))
    assert ref.loop.samples == n and res.phase == ref.phase


def test_integral_read_refuses_an_unresolved_loop(monkeypatch):
    # with the rule bypassed, 64 samples leave integral / (2 pi i) far from the winding
    monkeypatch.setattr(H, "_sample_count", lambda zeros, loop: loop.samples)
    with pytest.raises(NonIntegerWinding, match="not integral at 64 samples"):
        holonomy(Operator.SIGNATURE, sample_family(0), _node_loop(0.5, 0.52, samples=64))


def test_internal_pass_integrates_every_loop_at_64_samples(monkeypatch):
    integrated, expected = [], []
    integrate = H._ccw_winding

    def recorded(fam, loop):
        out = integrate(fam, loop)
        integrated.append((loop, out[0].samples))
        return out

    monkeypatch.setattr(H, "_ccw_winding", recorded)
    shapes = _spy_sample_shapes(monkeypatch)
    for fam in [sample_family(nf) for nf in range(5)] + [coalesced_family(), isotrivial_family()]:
        roots = find_singular_fibers(fam)
        expected += [H._node_loop(fam, z) for z, _ in roots] + [H._infinity_loop(roots)]
        H._fiber_rows(fam)
    # one call per loop: the node loops of the u-chart in order, then the infinity loop,
    # each at the 64-sample floor
    assert integrated == [(loop, 64) for loop in expected]
    # Delta and Delta' once over each loop's points
    assert shapes == [(64,)] * (2 * len(expected))


def test_unresolvable_loop_is_refused_before_sampling(monkeypatch):
    # radius 1.00001 around the nodes at +-1 of nf0: rho = 1/1.00001 needs
    # ~2.6 million samples, more than _MAX_SAMPLES
    shapes = _spy_sample_shapes(monkeypatch)
    with pytest.raises(LoopTooCloseToSingularity, match=r"passes 1.00e-05 from the zero at .*samples"):
        holonomy(Operator.SIGNATURE, sample_family(0), _node_loop(0.0, 1.00001))
    assert shapes == []


@pytest.mark.parametrize("fam", _PASS_FAMILIES, ids=[f.name for f in _PASS_FAMILIES])
def test_chart_zeros_are_the_zeros_of_the_chart_discriminant(fam):
    # with multiplicity, in both charts; the isotrivial family's node sits at u = 0
    for chart in Chart:
        delta = H._chart_delta(fam, chart)
        zeros = H._chart_zeros(fam, chart)
        assert sum(m for _, m in zeros) == delta.degree
        assert all(delta.order_at(z) == m for z, m in zeros)


_SWEEP_FAMILIES = [sample_family(nf) for nf in range(5)]


@settings(max_examples=150, deadline=None)
@given(
    nf=st.integers(0, 4),
    chart=st.sampled_from(list(Chart)),
    x=st.floats(-2.5, 2.5),
    y=st.floats(-2.5, 2.5),
    radius=st.floats(0.02, 3.0),
    op=st.sampled_from(list(Operator)),
    orientation=st.sampled_from(list(Orientation)),
)
def test_sample_count_rule_resolves_random_loops(nf, chart, x, y, radius, op, orientation):
    fam = _SWEEP_FAMILIES[nf]
    loop = LoopSpec(complex(x, y), radius, samples=64, orientation=orientation, chart=chart)
    zeros = H._chart_zeros(fam, chart)
    assume(min(abs(abs(z - loop.center) - radius) for z, _ in zeros) >= 1e-3)
    n = H._sample_count(zeros, loop)
    assume(n <= 1 << 14)
    res = holonomy(op, fam, loop)
    assert res.loop.samples == n
    enclosed = sum(m for z, m in zeros if abs(z - loop.center) < radius)
    assert res.winding == (enclosed if orientation is Orientation.COUNTERCLOCKWISE else -enclosed)
    assert abs(res.phase - res.phase_exact) <= 1e-9


@pytest.mark.parametrize("kwargs", [
    {"center": complex(math.nan, 0.0)},
    {"center": complex(0.0, math.inf)},
    {"radius": math.nan},
    {"radius": math.inf},
    {"radius": 0.0},
    {"samples": 63},
    {"samples": H._MAX_SAMPLES + 1},
])
def test_loop_spec_rejects_what_is_not_a_loop(kwargs):
    with pytest.raises(ValueError):
        LoopSpec(**{"center": 1.0, "radius": 0.5, **kwargs})


_FORCED_FAILURES = {
    # the Euler-number route reports a signature off by one
    "euler_route": (
        "import dataclasses\n"
        "from uplane import kodaira\n"
        "real = kodaira.surface_report\n"
        "kodaira.surface_report = lambda fam: dataclasses.replace(real(fam), sign_z=real(fam).sign_z + 1)\n",
        ["signature"],
        "monodromy route vs Euler-number route",
    ),
    # the infinity row reports an order one above its loop's winding
    "windings_vs_orders": (
        "import uplane.holonomy as h\n"
        "real = h._fiber_rows\n"
        "def patched(fam):\n"
        "    *finite, (loc, order, winding) = real(fam)\n"
        "    return (*finite, (loc, order + 1, winding))\n"
        "h._fiber_rows = patched\n",
        ["signature"],
        "contour windings vs discriminant orders",
    ),
    # with the sample bound bypassed, 64 samples leave integral / (2 pi i) off the winding
    "winding_vs_integral": (
        "import uplane.holonomy as h\n"
        "h._sample_count = lambda zeros, loop: loop.samples\n",
        ["holonomy", "--center", "0.5,0", "--radius", "0.52", "--samples", "64",
         "--operator", "signature", "--orientation", "ccw"],
        "not integral at 64 samples",
    ),
}


@pytest.mark.parametrize("case", sorted(_FORCED_FAILURES))
def test_cross_check_failure_exits_1_under_python_O(case, tmp_path):
    patch, argv, message = _FORCED_FAILURES[case]
    path = tmp_path / "nf0.json"
    path.write_text(json.dumps(family_to_dict(sample_family(0))))
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "import uplane.cli\n" + patch
        + f"sys.exit(uplane.cli.main({[argv[0], '--family', str(path)] + argv[1:]!r}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def _first_winding_off_by_one(monkeypatch):
    rows = H._fiber_rows

    def off(family):
        (z, k, w), *rest = rows(family)
        return ((z, k, w + 1), *rest)

    monkeypatch.setattr(H, "_fiber_rows", off)


def test_ledger_refuses_a_winding_that_is_not_the_order(monkeypatch):
    # nf0: I1 at u = -1 and u = 1, ord Delta = 10 at infinity; the loop around u = -1
    # reads one winding too many
    _first_winding_off_by_one(monkeypatch)
    with pytest.raises(CrossCheckFailed) as info:
        curvature_ledger(sample_family(0))
    assert info.value.quantity == "contour windings vs discriminant orders"
    assert (info.value.value, info.value.reference) == ([2, 1, 10], [1, 1, 10])


def test_signature_refuses_a_fractional_monodromy_sum(monkeypatch):
    # one winding too many adds -2/3 to the signature 0 of nf0
    _first_winding_off_by_one(monkeypatch)
    with pytest.raises(CrossCheckFailed) as info:
        signature_from_monodromy(sample_family(0))
    assert info.value.quantity == "signature from monodromy is an integer"
    assert (info.value.value, info.value.reference) == (Fraction(-2, 3), -1)


def test_signature_refuses_a_surface_report_that_disagrees(monkeypatch, tmp_path, capsys):
    report = K.surface_report
    monkeypatch.setattr(K, "surface_report",
                        lambda family: replace(report(family), sign_z=report(family).sign_z + 1))
    with pytest.raises(CrossCheckFailed) as info:
        signature_from_monodromy(sample_family(0))
    assert info.value.quantity == "signature: monodromy route vs Euler-number route"
    assert (info.value.value, info.value.reference) == (0, 1)
    path = tmp_path / "nf0.json"
    path.write_text(json.dumps(family_to_dict(sample_family(0))))
    assert main(["signature", "--family", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: signature: monodromy route vs Euler-number route: 0 disagrees with 1"
        " (tolerance 0)\n")
