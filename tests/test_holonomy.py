import cmath
import json
import math
import os
import subprocess
import sys
import types
import warnings
from fractions import Fraction

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
    LoopSpec,
    LoopTooCloseToSingularity,
    NonIntegerWinding,
    Operator,
    Orientation,
    SingularFiber,
    canonical_trivialization_check,
    connection_form,
    curvature_ledger,
    discriminant_poly,
    family_to_dict,
    find_singular_fibers,
    sample_family,
    signature_from_monodromy,
    surface_report,
)
import uplane.holonomy as H
from uplane.cli import main
from uplane.holonomy import holonomy


def _node_loop(center, radius, orientation=Orientation.CLOCKWISE, samples=1024):
    return LoopSpec(center=center, radius=radius, orientation=orientation, samples=samples)


def test_connection_form_formula():
    fam = sample_family(1)  # Delta = -108 (u^3 + 1)
    d = discriminant_poly(fam)
    dp = d.derivative()
    for u in (2.0 + 0.0j, 0.5 + 1.2j):
        expect = dp(u) / d(u) / 12.0
        assert abs(connection_form(Operator.DBAR, fam, u) - expect) < 1e-12 * abs(expect)
        assert (
            abs(connection_form(Operator.SIGNATURE, fam, u) - 2.0 * expect)
            < 1e-12 * abs(expect)
        )


def test_connection_form_singular():
    with pytest.raises(SingularFiber):
        connection_form(Operator.DBAR, sample_family(0), 1.0)


@pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
def test_connection_form_screen_threshold(direction):
    # |u^2 - 1| / (1 + |u|^2) = |u - 1| to first order near the node u = 1 of nf0
    fam = sample_family(0)
    with pytest.raises(SingularFiber):
        connection_form(Operator.DBAR, fam, 1.0 + direction * 0.5e-12)
    u = 1.0 + direction * 2e-12
    expect = 2.0 * u / (u * u - 1.0) / 12.0
    assert abs(connection_form(Operator.DBAR, fam, u) - expect) < 1e-3 * abs(expect)


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
        assert led.max_numeric_error <= 1e-8
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
# The vectorized contour engine.
# ---------------------------------------------------------------------------


def test_array_horner_matches_scalar_and_is_reproducible():
    rng = np.random.default_rng(7)
    for _ in range(200):
        deg = int(rng.integers(0, 13))
        p = ComplexPoly.of(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        z = (rng.normal(size=257) + 1j * rng.normal(size=257)) * rng.uniform(0.1, 3.0)
        vec = p.at(z)
        scalar = np.array([p(w) for w in z])
        # relative to sum |c_k| |z|^k, the scale Horner's rounding error is bounded by
        scale = sum(abs(c) * np.abs(z) ** k for k, c in enumerate(p.coeffs))
        assert np.max(np.abs(vec - scalar) / scale) <= 1e-14
        # bit-identical on every rerun, whatever the array's length or order
        assert np.array_equal(vec, p.at(z))
        assert np.array_equal(vec[1:], p.at(z[1:]))
        assert np.array_equal(vec, p.at(z[::-1])[::-1])


_PASS_FAMILIES = [sample_family(nf) for nf in range(5)] + [
    coalesced_family(),
    isotrivial_family(),
]
# signature of each family; the ledger totals are 2 (signature) and 1 (dbar)
_PASS_SIGNATURES = [0, -1, -2, -3, -4, -2, -4]


@pytest.mark.parametrize(
    "fam, sig", zip(_PASS_FAMILIES, _PASS_SIGNATURES), ids=[f.name for f in _PASS_FAMILIES]
)
def test_one_pass_engine_exact_outputs(fam, sig):
    cp = H._contour_pass(fam)
    assert cp.roots == tuple(find_singular_fibers(fam))
    # ccw windings are the vanishing orders of Delta in each chart
    assert [w for _, w, _ in cp.nodes] == [m for _, m in cp.roots]
    assert cp.infinity[1] == cp.ord_inf == surface_report(fam).fibers[-1].ord_delta
    # every loop agrees with a separate single-loop holonomy, both orientations
    for loop, w_ccw, _ in cp.nodes + (cp.infinity,):
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
        assert [r for _, r in led.residues] == (
            [Fraction(m, den) for _, m in cp.roots] + [Fraction(cp.ord_inf, den)]
        )
        assert led.max_numeric_error <= 1e-8
    assert signature_from_monodromy(fam) == sig


def test_signature_command_integrates_each_loop_once(monkeypatch, tmp_path):
    fam = sample_family(3)
    path = tmp_path / "nf3.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    counts = {"loops": 0, "reports": 0}
    integrate, report = H._ccw_winding_and_transport, surface_report

    def counted_integrate(*args):
        counts["loops"] += 1
        return integrate(*args)

    def counted_report(*args, **kwargs):
        counts["reports"] += 1
        return report(*args, **kwargs)

    monkeypatch.setattr(H, "_ccw_winding_and_transport", counted_integrate)
    monkeypatch.setattr(sys.modules["uplane.kodaira"], "surface_report", counted_report)
    assert main(["signature", "--family", str(path), "--out", str(tmp_path / "o.json")]) == 0
    assert counts == {"loops": 5 + 1, "reports": 1}


def _spy_sample_sizes(monkeypatch) -> list:
    """Length of every array ComplexPoly.at evaluates from now on."""
    sizes = []
    at = ComplexPoly.at

    def spied(poly, z):
        sizes.append(len(z))
        return at(poly, z)

    monkeypatch.setattr(ComplexPoly, "at", spied)
    return sizes


def test_undersampled_loop_integrates_once_at_the_rule_count(monkeypatch):
    # 64 samples on a circle passing 0.02 from the node at u = 1 miss the
    # trapezoid error bound; the count comes from the zeros, sampled once
    fam = sample_family(0)
    loop = _node_loop(0.5, 0.52, Orientation.CLOCKWISE, samples=64)
    rho = 0.5 / 0.52  # the node at u = 1 is the nearest zero; the one at -1 has 0.52/1.5
    n = next(n for n in range(64, 1 << 20)
             if rho**n / (1 - rho**n) + (0.52 / 1.5) ** n <= H._INTEGRAL_TOL / 8)
    assert n > 64
    sizes = _spy_sample_sizes(monkeypatch)
    res = holonomy(Operator.SIGNATURE, fam, loop)
    assert sizes == [n, n]  # Delta and Delta', once each
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
    sizes = _spy_sample_sizes(monkeypatch)
    loops = []
    for fam in [sample_family(nf) for nf in range(5)] + [coalesced_family(), isotrivial_family()]:
        cp = H._contour_pass(fam)
        loops += [loop for loop, _, _ in cp.nodes + (cp.infinity,)]
    assert [loop.samples for loop in loops] == [64] * len(loops)
    assert sizes == [64] * (2 * len(loops))  # Delta and Delta' of each loop, once


def test_unresolvable_loop_is_refused_before_sampling(monkeypatch):
    # radius 1.00001 around the nodes at +-1 of nf0: rho = 1/1.00001 needs
    # ~2.6 million samples, more than _MAX_SAMPLES
    sizes = _spy_sample_sizes(monkeypatch)
    with pytest.raises(LoopTooCloseToSingularity, match="samples"):
        holonomy(Operator.SIGNATURE, sample_family(0), _node_loop(0.0, 1.00001))
    assert sizes == []


_SWEEP_FAMILIES = [sample_family(nf) for nf in range(5)]


def _chart_zeros(fam, chart):
    """Zeros of the chart discriminant with multiplicity, as the benchmark's checker counts
    them: the nodes, or in the v-chart (v = -1/u) their images plus v = 0 of order 12 - deg."""
    nodes = find_singular_fibers(fam)
    if chart is Chart.U:
        return list(nodes)
    return [(-1.0 / z, m) for z, m in nodes] + [(0j, 12 - discriminant_poly(fam).degree)]


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
    zeros = _chart_zeros(fam, chart)
    assume(min(abs(abs(z - loop.center) - radius) for z, _ in zeros) >= 1e-3)
    n = H._sample_count(H._zeros(H._chart_delta(fam, chart)), loop)
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
    # the exact log-monodromy per winding is wrong, so the numeric phase disagrees
    "phase": (
        "from fractions import Fraction\n"
        "import uplane.holonomy as h\n"
        "h._ETA_PER_WINDING[h.Operator.SIGNATURE] = Fraction(1, 3)\n",
        ["holonomy", "--center", "1,0", "--radius", "0.5", "--operator", "signature",
         "--orientation", "cw"],
        "holonomy phase vs exact log-monodromy",
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
