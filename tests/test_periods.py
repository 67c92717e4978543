import cmath
import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uplane import (
    SingularCurve,
    SingularFiber,
    UPlaneError,
    WeierstrassCurve,
    agm,
    coalesced_family,
    compute_periods,
    cubic_roots,
    discriminant,
    eisenstein_e4,
    eisenstein_e6,
    j_invariant,
    modular_discriminant,
    periods_along_family,
    sample_family,
)
from uplane.curves import discriminant_scale, is_numerically_singular
from uplane.modular import g2_g3_from_forms

# AGM oracles at 30+ digits (mpmath): pi / (2 agm(...)) on the root data of
# 4x^3 - g2 x - g3 for the two classical lattices.
LEMNISCATIC_OMEGA = 1.3110287771460599052324197949455597
EQUIANHARMONIC_OMEGA = 1.2143253239437908059099708448904656


def test_cubic_roots_square_lattice():
    roots = cubic_roots(WeierstrassCurve(4, 0))
    assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=1e-12)


def test_cubic_roots_equianharmonic():
    roots = cubic_roots(WeierstrassCurve(0, 4))
    expected = sorted(
        [1.0 + 0j, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)],
        key=lambda z: (z.real, z.imag),
    )
    assert np.allclose(roots, expected, atol=1e-12)


def test_cubic_roots_double_root():
    roots = cubic_roots(WeierstrassCurve(3, 1))
    dists = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
    assert min(dists) < 1e-8  # (x-1)(2x+1)^2 has the double root -1/2


def test_cubic_roots_triple_root_at_zero():
    # g2 = g3 = 0: both Cardano terms vanish, and the triple root 0 is returned
    # without dividing by the zero cube root
    for g2, g3 in ((0, 0), (0j, 0j), (-0.0, 0.0)):
        assert cubic_roots(WeierstrassCurve(g2, g3)) == (0j, 0j, 0j)


def _bits(roots) -> list:
    """The roots as repr writes them, which tells -0.0 from 0.0."""
    return [repr(z) for z in roots]


#: parts that tie and differ only in the sign of zero, and any finite float
_ROOT_PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]) | st.floats(allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.builds(complex, _ROOT_PART, _ROOT_PART), min_size=3, max_size=3))
def test_the_root_insertion_is_the_re_im_sort_bit_for_bit(roots):
    from uplane.periods import _sorted_re_im

    expected = sorted(roots, key=lambda z: (z.real, z.imag))
    assert _bits(_sorted_re_im(*roots)) == _bits(expected)


#: an invariant, real (imaginary part 0) in about half the draws
_INVARIANT = st.builds(complex, st.floats(-10.0, 10.0), st.just(0.0) | st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(g2=_INVARIANT, g3=_INVARIANT)
@example(g2=0j, g3=0j)  # the triple root
@example(g2=4 + 0j, g3=0j)  # the real square lattice
@example(g2=3 + 0j, g3=1 + 0j)  # a real double root
def test_cubic_roots_come_in_the_re_im_sorted_order(g2, g3):
    # real curves (Im g2 = Im g3 = 0) give real roots and conjugate pairs, whose parts tie
    roots = cubic_roots(WeierstrassCurve(g2, g3))
    assert _bits(roots) == _bits(sorted(roots, key=lambda z: (z.real, z.imag)))


def _cubic_with_gap(rng, gap: float, real: bool):
    """(g2, g3) of 4 (x - e1)(x - e2)(x - e3) with e1, e2 = s (a +- d/2), e3 = -2 s a, |d| =
    gap |a|, s = 10^U(-3, 3).  Real cubics take a real and d real or imaginary, so two
    nearly equal real roots or a nearly real conjugate pair."""
    s = 10.0 ** rng.uniform(-3.0, 3.0)
    if real:
        a = complex(rng.choice([-1.0, 1.0]))
        d = gap * rng.choice([1.0, 1j])
    else:
        a = cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
        d = cmath.rect(gap, rng.uniform(-math.pi, math.pi))
    e1, e2, e3 = s * (a + d / 2), s * (a - d / 2), -2.0 * s * a
    g2, g3 = complex(-4.0 * (e1 * e2 + e1 * e3 + e2 * e3)), complex(4.0 * e1 * e2 * e3)
    return WeierstrassCurve(g2.real, g3.real) if real else WeierstrassCurve(g2, g3)


def _root_error(curve) -> float:
    """max |cubic_roots - reference| / max |reference root|, the reference being mpmath's
    polyroots of the curve's double coefficients at 40 digits, matched by permutation."""
    with mp.workdps(40):
        ref = [complex(r) for r in mp.polyroots(
            [4, 0, -mp.mpc(curve.g2), -mp.mpc(curve.g3)], maxsteps=100, extraprec=40)]
    got = cubic_roots(curve)
    err = min(max(abs(g - r) for g, r in zip(got, perm)) for perm in itertools.permutations(ref))
    return err / max(abs(r) for r in ref)


# the largest error on these cubics of the root finder before the closed form, np.roots
# and an unguarded 3-step Newton polish; the closed form reads 6.7e-15, 6.7e-13,
# 6.5e-11, 3.9e-9 and 5.6e-9
_NEAR_ROOT_BOUND = {1e-2: 9.5e-15, 1e-4: 1.15e-12, 1e-6: 1.1e-10, 1e-8: 1.8e-7, 1e-10: 3.4e-8}


@pytest.mark.parametrize("gap", sorted(_NEAR_ROOT_BOUND, reverse=True))
def test_nearly_repeated_roots_against_mpmath(gap):
    # two roots gap |a| apart lose about u / gap of their digits to rounding in any
    # root finder; the closed form must lose no more than np.roots did
    rng = np.random.default_rng(19)
    errs = [_root_error(_cubic_with_gap(rng, gap, real=False)) for _ in range(200)]
    assert max(errs) <= _NEAR_ROOT_BOUND[gap]


@pytest.mark.parametrize("gap", sorted(_NEAR_ROOT_BOUND, reverse=True))
def test_nearly_repeated_real_roots_against_mpmath(gap):
    # the same bounds on real cubics.  Before the guarded Newton step, the polish moved
    # both roots of a real double root at gap 1e-8 and 1e-10 from -0.2307 to -0.2045, an
    # error of 5.7e-2; the closed form reads at most 6.9e-11 to gap 1e-6 and 4.1e-9 below
    rng = np.random.default_rng(29)
    errs = [_root_error(_cubic_with_gap(rng, gap, real=True)) for _ in range(40)]
    assert max(errs) <= _NEAR_ROOT_BOUND[gap]


@pytest.mark.parametrize("g2, g3", [(1.3 + 0.2j, 0.4 - 0.7j), (1.5, 0.0), (0.0, 1.0), (-2.0, 0.5)])
def test_cubic_roots_scale_with_the_curve(g2, g3):
    # the roots of (s^2 g2, s^3 g3) are s times those of (g2, g3) over the scales where
    # compute_periods solves; p^3 of Cardano's form leaves the doubles beyond 10^+-51
    base = cubic_roots(WeierstrassCurve(g2, g3))
    for e in range(-50, 51):
        s = 10.0**e
        roots = cubic_roots(WeierstrassCurve(g2 * s**2, g3 * s**3))
        assert max(abs(r / s - b) for r, b in zip(roots, base)) <= 1e-14 * max(map(abs, base))


def test_square_lattice_periods():
    p = compute_periods(WeierstrassCurve(4, 0))
    assert abs(p.tau - 1j) < 1e-10
    assert abs(p.omega - LEMNISCATIC_OMEGA) < 1e-12
    assert abs(p.tau - p.omega_prime / p.omega) < 1e-12


def test_equianharmonic_periods():
    p = compute_periods(WeierstrassCurve(0, 4))
    assert abs(p.tau - cmath.exp(1j * math.pi / 3)) < 1e-10
    assert abs(p.omega - EQUIANHARMONIC_OMEGA) < 1e-12


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        compute_periods(WeierstrassCurve(3, 1))


def test_eta_identity_on_random_curves():
    rng = np.random.default_rng(17)
    done = 0
    while done < 50:
        g2 = complex(rng.normal(), rng.normal()) * 2.0
        g3 = complex(rng.normal(), rng.normal()) * 2.0
        curve = WeierstrassCurve(g2, g3)
        delta = g2**3 - 27 * g3**2
        if abs(delta) < 1e-3:
            continue
        p = compute_periods(curve)
        assert abs(modular_discriminant(p) - delta) <= 1e-9 * abs(delta)
        assert p.tau.imag > 0
        assert abs(p.q) < 1
        done += 1


def test_scaling_law():
    base = compute_periods(WeierstrassCurve(3 + 1j, 1 + 0.5j))
    for s in (0.5, 1.7, 3.0):
        scaled = compute_periods(WeierstrassCurve(s**4 * (3 + 1j), s**6 * (1 + 0.5j)))
        assert abs(scaled.omega - base.omega / s) <= 1e-10 * abs(base.omega / s)
        assert abs(scaled.tau - base.tau) <= 1e-10


def test_lattice_invariants_from_eisenstein():
    # the lattice spanned by (2 omega, 2 omega') must reproduce the curve
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        g2 = complex(rng.normal(), rng.normal()) * 2.0
        g3 = complex(rng.normal(), rng.normal()) * 2.0
        if abs(g2**3 - 27 * g3**2) < 1e-2:
            continue
        p = compute_periods(WeierstrassCurve(g2, g3))
        g2_hat, g3_hat = g2_g3_from_forms(eisenstein_e4(p.tau), eisenstein_e6(p.tau), p.omega)
        assert abs(g2_hat - g2) <= 1e-9 * (1 + abs(g2))
        assert abs(g3_hat - g3) <= 1e-9 * (1 + abs(g3))
        done += 1


def test_j_consistency():
    from uplane.modular import j_from_tau

    p = compute_periods(WeierstrassCurve(3 + 0.2j, 0.6 - 0.1j))
    jc = j_invariant(WeierstrassCurve(3 + 0.2j, 0.6 - 0.1j))
    assert abs(j_from_tau(p.tau) - jc) <= 1e-8 * (1 + abs(jc))


def test_oracle_against_mpmath_agm():
    # 30-digit cross-check of the full period pair on one asymmetric curve
    mp.mp.dps = 30
    g2, g3 = 2.0 + 0.7j, -0.4 + 0.3j
    p = compute_periods(WeierstrassCurve(g2, g3))
    delta = g2**3 - 27 * g3**2
    eta24 = mp.mpc(0)
    # verify via mpmath's jtheta-based eta at the computed tau
    tau = mp.mpc(p.tau)
    q24 = mp.e ** (1j * mp.pi * tau / 12)
    eta = q24 * mp.qp(mp.e ** (2j * mp.pi * tau))
    resid = abs((2 * mp.pi) ** 12 * eta**24 / (2 * mp.mpc(p.omega)) ** 12 - delta) / abs(delta)
    assert resid < 1e-9


def test_agm_converges_in_few_steps():
    import itertools

    from uplane.periods import agm_steps

    # the argument pairs compute_periods feeds the AGM, on random curves
    rng = np.random.default_rng(11)
    mp.mp.dps = 30
    for _ in range(200):
        g2, g3 = 2.0 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        for e1, e2, e3 in itertools.permutations(cubic_roots(WeierstrassCurve(g2, g3))):
            for a, b in ((e1 - e3, e1 - e2), (e1 - e3, e2 - e3)):
                a, b = cmath.sqrt(a), cmath.sqrt(b)
                m, steps = agm_steps(a, b)
                assert steps <= 8
                assert m == agm(a, b)
    # against a 30-digit AGM with the same branch rule
    a, b = cmath.sqrt(1.3 - 0.4j), cmath.sqrt(-0.2 + 0.9j)
    x, y = mp.mpc(a), mp.mpc(b)
    for _ in range(12):
        am, g = (x + y) / 2, mp.sqrt(x * y)
        x, y = am, (-g if abs(g - am) > abs(g + am) else g)
    assert abs(agm(a, b) - complex(x)) <= 1e-15 * abs(complex(x))


def test_family_reduces_to_compute_periods():
    # the fiber of (g2, g3) = (3, u) at u = 0 is the curve (3, 0)
    from uplane import ComplexPoly, CurveFamily

    fam = CurveFamily(ComplexPoly.of([3]), ComplexPoly.of([0, 1]), nf=0)
    via_family = periods_along_family(fam, 0.0)
    direct = compute_periods(WeierstrassCurve(3, 0))
    assert via_family == direct


def test_family_fiber_and_singular_fiber():
    fam = sample_family(0)  # Delta = u^2 - 1
    p = periods_along_family(fam, 0.0)
    # fiber at u = 0: g2 = -1, g3 = 0 -> square-lattice shape (rectangular)
    assert p.tau.imag > 0
    with pytest.raises(SingularFiber):
        periods_along_family(fam, 1.0)


@pytest.mark.parametrize("u", [0.3 + 0.9j, 1.0])  # a smooth fiber of nf0 and its node
def test_a_solve_along_a_family_takes_delta_and_its_scale_once(monkeypatch, u):
    import uplane.curves as C
    import uplane.periods as P

    calls = []
    for name in ("discriminant", "discriminant_scale"):
        fn = getattr(C, name)
        for module in (C, P):
            monkeypatch.setattr(module, name,
                                lambda curve, _fn=fn, _name=name: calls.append(_name) or _fn(curve))
    try:
        periods_along_family(sample_family(0), u)
    except SingularFiber:
        assert u == 1.0
    assert sorted(calls) == ["discriminant", "discriminant_scale"]


@pytest.mark.parametrize("factor, screened", [(0.5, True), (2.0, False)])
def test_curve_screen_threshold(factor, screened):
    # near the node u = 1 of nf0, |Delta| / (|g2|^3 + 27 |g3|^2) = 27 |u - 1|
    # to first order; the screen rejects at 1e-12 of that scale
    fam = sample_family(0)

    def error(call):
        try:
            call()
        except UPlaneError as exc:
            return exc
        return None

    for direction in (1.0, -1.0, 1j):
        u = 1.0 + direction * factor * 1e-12 / 27.0
        # the screen is compute_periods'; along a family its error names the fiber
        exc = error(lambda: periods_along_family(fam, u))
        assert (isinstance(exc, SingularFiber) and str(exc).startswith("discriminant vanishes")
                and str(exc).endswith(f" at u={u}")) == screened
        exc = error(lambda: compute_periods(fam.curve_at(u)))
        assert (isinstance(exc, SingularCurve) and "discriminant vanishes" in str(exc)) == screened


def test_seeded_step_keeps_frame_where_no_candidate_continues_it():
    # one step left of u = 0.3 + 0.9j on the coalesced family the AGM
    # candidate nearest the seed is (omega - omega', omega'); unless it is moved
    # to the lattice basis nearest the seed, tau jumps from -0.38 + 1.02i to
    # 0.56 + 0.72i inside a finite-difference stencil
    fam = coalesced_family()
    u = 0.3 + 0.9j
    center = periods_along_family(fam, u)
    for z in (u - 1.3e-4, u + 1.3e-4, u - 2.6e-4):
        p = periods_along_family(fam, z, prev=center)
        assert abs(p.omega - center.omega) < 1e-3
        assert abs(p.omega_prime - center.omega_prime) < 1e-3
        assert abs(p.tau - center.tau) < 1e-3


def test_continuity_scan_with_seed():
    from uplane.periods import CONTINUITY_STEP

    fam = sample_family(0)
    u0 = 0.4 + 0.8j
    prev = periods_along_family(fam, u0)
    h = CONTINUITY_STEP
    taus = [prev.tau]
    for k in range(1, 30):
        p = periods_along_family(fam, u0 + k * h * (0.8 + 0.6j), prev=prev)
        taus.append(p.tau)
        assert abs(p.omega - prev.omega) < 50 * h  # no basis jump
        prev = p
    steps = [abs(b - a) for a, b in zip(taus, taus[1:])]
    assert max(steps) < 50 * h


# 60-digit references for the fibers below, u = 1 + distance e^{i theta} near the node
# u = 1 of nf0 (the curve is fam.curve_at(u) as rounded to doubles): mpmath polyroots,
# the AGM of each root ordering, tau reduced into F and kept where 1728 kleinj(tau)
# matches the curve's j to 30 digits
_NEAR_NODE_TAU = {
    (0.3, 1e-9): 0.04774648153 + 3.84979919090j,
    (0.3, 1e-10): 0.04774651969 + 4.21626711362j,
    (1.7, 1e-9): 0.27056339533 + 3.84979919636j,
    (1.7, 1e-10): 0.27056346853 + 4.21626698630j,
    (4.0, 1e-9): -0.36338023103 + 3.84979919235j,
    (4.0, 1e-10): -0.36338027621 + 4.21626695282j,
}


@pytest.mark.parametrize("distance", [1e-10, 1e-9])
@pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
def test_unresolvable_near_node_is_a_singular_fiber(distance, theta):
    # |Delta| / (|g2|^3 + 27 |g3|^2) is 2.7e-9 and 2.7e-8 here, below ETA_RESOLVABLE:
    # Delta's own rounding exceeds the eta identity's tolerance.  The first candidate's
    # eta error reads 7e-11 to 5e-8 at these points, on both sides of 1e-9, so rounding
    # decides which points solve.  A solve must match the reference; a failed solve
    # must name the fiber singular instead of blaming an AGM branch
    from uplane.curves import discriminant, discriminant_scale
    from uplane.periods import ETA_RESOLVABLE

    fam = sample_family(0)
    u = 1.0 + distance * cmath.exp(1j * theta)
    curve = fam.curve_at(u)
    assert abs(discriminant(curve)) < ETA_RESOLVABLE * discriminant_scale(curve)
    reference = _NEAR_NODE_TAU[theta, distance]
    try:
        tau = compute_periods(curve).tau
    except SingularCurve as exc:
        assert "within its rounding of zero" in str(exc)
        with pytest.raises(SingularFiber, match="within its rounding of zero"):
            periods_along_family(fam, u)
        return
    assert abs(tau - reference) < 1e-8
    assert abs(periods_along_family(fam, u).tau - reference) < 1e-8


@pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
def test_resolvable_near_node_still_solves(theta):
    # at 5e-9 of the node the ratio is 1.35e-7, and every direction solves
    p = periods_along_family(sample_family(0), 1.0 + 5e-9 * cmath.exp(1j * theta))
    assert p.tau.imag > 0


def test_failures_in_the_rounding_band_name_the_fiber_singular():
    # g3 = sqrt(g2^3 / 27)(1 + eps) puts |Delta| / scale near |eps|, here 1.0e-7 to
    # 2.5e-7.  Delta's rounding reaches 2 sqrt(5) u of the scale, so the eta identity
    # fails for want of digits on some of these curves; at a level of 1e-16 / 1e-9 =
    # 1e-7, 39 of these 300 raised AgmBranchFailure
    from uplane.periods import ETA_RESOLVABLE

    rng = np.random.default_rng(11)
    failed = 0
    for _ in range(300):
        s = 10.0 ** rng.uniform(-4, 4)
        g2 = cmath.rect(s**2 * rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        eps = cmath.rect(10.0 ** rng.uniform(-7.0, -6.6), rng.uniform(-math.pi, math.pi))
        curve = WeierstrassCurve(g2, cmath.sqrt(g2**3 / 27.0) * (1.0 + eps))
        assert abs(discriminant(curve)) < ETA_RESOLVABLE * discriminant_scale(curve)
        try:
            compute_periods(curve)
        except SingularCurve as exc:
            assert "within its rounding of zero" in str(exc)
            failed += 1
    assert failed > 0


def test_failed_validation_above_rounding_is_a_branch_failure(monkeypatch):
    import uplane.periods as P
    from uplane import AgmBranchFailure

    monkeypatch.setattr(P, "_validated", lambda curve, delta, scale, cands: None)
    with pytest.raises(AgmBranchFailure, match="eta\\^24 identity") as info:
        compute_periods(WeierstrassCurve(4, 0))
    assert not isinstance(info.value, SingularCurve)


def _count_validated(monkeypatch, P):
    """Make every candidate fail the eta check; return the list of candidates walked."""
    walked = []
    validated = P._validated

    def counting(curve, delta, scale, cands):
        return validated(curve, delta, scale, (walked.append(c) or c for c in cands))

    monkeypatch.setattr(P, "_validated", counting)
    monkeypatch.setattr(P, "modular_discriminant", lambda p: 0j)
    return walked


def _failure(curve) -> str:
    return re.escape("no AGM basis candidate satisfied the eta^24 identity and the lattice"
                     f" invariants for g2={curve.g2}, g3={curve.g3}")


def test_branch_failure_walks_every_candidate(monkeypatch):
    import uplane.periods as P
    from uplane import AgmBranchFailure

    curve = WeierstrassCurve(1 + 2j, -3 + 0.5j)
    walked = _count_validated(monkeypatch, P)
    with pytest.raises(AgmBranchFailure, match=f"^{_failure(curve)}$") as info:
        compute_periods(curve)
    assert not isinstance(info.value, SingularCurve)
    # one candidate per root ordering, all six validated before the failure is raised
    assert len(walked) == 6


def test_unresolvable_failure_walks_every_candidate(monkeypatch):
    import uplane.periods as P
    from uplane.periods import ETA_RESOLVABLE

    g2 = 3.0 + 0j
    curve = WeierstrassCurve(g2, cmath.sqrt(g2**3 / 27.0) * (1.0 + 1e-7))
    assert not is_numerically_singular(discriminant(curve), discriminant_scale(curve))
    assert abs(discriminant(curve)) < ETA_RESOLVABLE * discriminant_scale(curve)
    walked = _count_validated(monkeypatch, P)
    with pytest.raises(SingularCurve, match=f"^discriminant within its rounding of zero: {_failure(curve)}$"):
        compute_periods(curve)
    assert len(walked) == 6


def _count_agm(monkeypatch, P):
    """Count calls of periods.agm; return the one-element list holding the count."""
    calls = [0]
    agm = P.agm

    def counting(a, b):
        calls[0] += 1
        return agm(a, b)

    monkeypatch.setattr(P, "agm", counting)
    return calls


def _random_curves(seed: int, n: int):
    """n curves with standard complex normal (g2, g3) at scales 1e-4..1e4, away from Delta = 0."""
    rng = np.random.default_rng(seed)
    curves = []
    while len(curves) < n:
        s = 10.0 ** rng.uniform(-4, 4)
        g2 = complex(*rng.standard_normal(2)) * s**2
        g3 = complex(*rng.standard_normal(2)) * s**3
        curve = WeierstrassCurve(g2, g3)
        if abs(discriminant(curve)) >= 1e-6 * discriminant_scale(curve):
            curves.append(curve)
    return curves


def _fiber_curves():
    return [sample_family(nf).curve_at(cmath.rect(2.7, math.pi * k / 4))
            for nf in range(5) for k in range(8)]


def test_passing_solve_builds_one_agm_pair(monkeypatch):
    # the first root ordering passes, so the other five are never built
    import uplane.periods as P

    calls = _count_agm(monkeypatch, P)
    for curve in _fiber_curves() + _random_curves(3, 200):
        calls[0] = 0
        compute_periods(curve)
        assert calls[0] == 2, curve


def test_failed_first_candidate_falls_through_to_the_next_ordering(monkeypatch):
    # the first eta check of each solve reads 0: the walk builds the second ordering's
    # AGM pair, and that candidate reaches the same canonical basis
    import uplane.periods as P

    curves = _fiber_curves() + _random_curves(4, 100)
    expected = [compute_periods(curve) for curve in curves]
    calls = _count_agm(monkeypatch, P)
    eta_checks = [0]
    modular_discriminant = P.modular_discriminant

    def first_fails(p):
        eta_checks[0] += 1
        return 0j if eta_checks[0] == 1 else modular_discriminant(p)

    monkeypatch.setattr(P, "modular_discriminant", first_fails)
    for curve, ref in zip(curves, expected):
        calls[0] = eta_checks[0] = 0
        p = compute_periods(curve)
        assert calls[0] == 4 and eta_checks[0] == 2, curve
        _assert_canonical(curve, p)
        assert abs(p.tau - ref.tau) <= 1e-12 and abs(p.omega - ref.omega) <= 1e-12 * abs(ref.omega)


def test_every_passing_ordering_of_a_real_curve_gives_one_basis():
    # a real curve's canonical omega is often imaginary (Re tau = 0 or 1/2), and then
    # Re omega is rounding.  With an exact half-plane test that rounding picked omega's
    # sign: on these 3,000 curves 420 had passing orderings that disagreed on it, and
    # 170 solves returned Im omega < 0
    import uplane.periods as P

    rng = np.random.default_rng(0)
    for g2, g3 in rng.uniform(-3.0, 3.0, (3000, 2)):
        curve = WeierstrassCurve(complex(g2), complex(g3))
        delta, scale = discriminant(curve), discriminant_scale(curve)
        if is_numerically_singular(delta, scale):
            continue
        passing = [p for p in (P._validated(curve, delta, scale, [cand])
                               for cand in P._candidate_params(cubic_roots(curve)))
                   if p is not None]
        assert passing, curve
        first = passing[0]
        assert first == compute_periods(curve)
        _assert_canonical(curve, first)
        for p in passing[1:]:
            assert abs(p.tau - first.tau) <= 1e-12, curve
            assert abs(p.omega - first.omega) <= 1e-12 * abs(first.omega), curve


def test_invariants_residual_of_the_one_pair_solve():
    # max(|g2' - g2| / S^2, |g3' - g3| / S^3) over 1,000 seeded curves.  The 42-candidate
    # enumeration (7 shears of each ordering) read median 1.08e-15 and max 7.65e-15 on
    # these curves; one candidate per ordering reads median 7.2e-16 and max 3.7e-15
    res = []
    for curve in _random_curves(17, 1000):
        p = compute_periods(curve)
        s = discriminant_scale(curve) ** (1.0 / 6.0)
        g2, g3 = g2_g3_from_forms(eisenstein_e4(p.tau), eisenstein_e6(p.tau), p.omega)
        res.append(max(abs(g2 - curve.g2) / s**2, abs(g3 - curve.g3) / s**3))
    assert np.median(res) <= 1.08e-15
    assert max(res) <= 7.65e-15


def _in_closed_domain(tau: complex) -> bool:
    # F with the 1e-9 slack of reduce_tau on each of its boundaries (on the arc too),
    # widened by rounding of omega' / omega
    edge, ulp = 1e-9, 1e-12
    if not (-0.5 + edge - ulp < tau.real <= 0.5 + edge + ulp and abs(tau) >= 1 - edge - ulp):
        return False
    return abs(tau) > 1 + edge + ulp or tau.real >= -edge - ulp


def _assert_canonical(curve, p):
    assert _in_closed_domain(p.tau), p.tau
    # the right half-plane with reduce_tau's slack: an omega within 1e-9 |omega| of the
    # imaginary axis is on its upper half
    edge = 1e-9 * abs(p.omega)
    assert p.omega.real > edge or (abs(p.omega.real) <= edge and p.omega.imag > 0), p.omega
    s = discriminant_scale(curve) ** (1.0 / 6.0)
    g2, g3 = g2_g3_from_forms(eisenstein_e4(p.tau), eisenstein_e6(p.tau), p.omega)
    assert abs(g2 - curve.g2) <= 1e-12 * s**2
    assert abs(g3 - curve.g3) <= 1e-12 * s**3


def _curve_from(parts, log_scale):
    g2, g3 = complex(*parts[:2]), complex(*parts[2:])
    assume(abs(g2) ** 3 + 27 * abs(g3) ** 2 > 1e-3)
    s = 10.0**log_scale
    curve = WeierstrassCurve(g2 * s**2, g3 * s**3)
    assume(abs(discriminant(curve)) > 1e-6 * discriminant_scale(curve))
    return curve


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-4.0, 4.0),
)
def test_unseeded_basis_is_canonical(parts, log_scale):
    # tau in F with its boundary convention, omega in the right half-plane,
    # and the basis reproduces the curve's own invariants
    curve = _curve_from(parts, log_scale)
    _assert_canonical(curve, compute_periods(curve))


@settings(max_examples=300, deadline=None)
@given(re_=st.floats(-3.0, 3.0), im_=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       hexagonal=st.booleans())
@example(re_=0.1619, im_=0.0247, hexagonal=False)  # tau = -6e-17+1j before the arc's slack
@example(re_=1.0, im_=0.0, hexagonal=False)
@example(re_=1.0, im_=0.0, hexagonal=True)
def test_square_and_hexagonal_solves_are_points_of_f(re_, im_, hexagonal):
    # the solved tau of (g2, 0) and (0, g3) is i and e^{i pi/3} up to rounding, on the arc
    # of F: reduce_tau keeps it, so eta and E4/E6 there take no carry-back
    from uplane import reduce_tau

    z = complex(re_, im_)
    assume(abs(z) > 1e-3)
    p = compute_periods(WeierstrassCurve(0j, z) if hexagonal else WeierstrassCurve(z, 0j))
    assert reduce_tau(p.tau) == (p.tau, (1, 0, 0, 1))


def test_canonical_basis_where_the_default_left_the_domain():
    # nf4 at u = -2.009-0.098i: before reduction the returned tau was
    # 0.204+0.699i, outside F
    fam = sample_family(4)
    u = -2.009 - 0.098j
    p = periods_along_family(fam, u)
    assert abs(p.tau - (-0.38475680407 + 1.31815285008j)) < 1e-9
    _assert_canonical(fam.curve_at(u), p)
    # toward the node u = 1 of nf0 Im tau grows without bound; before
    # reduction it read 2.02, 0.42, 3.12
    fam = sample_family(0)
    ims = [periods_along_family(fam, 1.0 + d).tau.imag for d in (1e-4, 1e-5, 1e-7)]
    assert ims == sorted(ims) and ims[0] > 2.0


def test_rotated_lattice_passes_eta_but_is_rejected():
    # near u = 0 of nf2 the lattice is nearly hexagonal; e^{-i pi/3} Lambda is
    # another lattice (g2 times a cube root of unity) whose basis passes the
    # eta^24 identity, which sees only omega^12.  The invariants check refuses it.
    import uplane.periods as P

    fam = sample_family(2)
    curve = fam.curve_at(5e-5)
    delta, scale = discriminant(curve), discriminant_scale(curve)
    p = periods_along_family(fam, 5e-5)
    rot = cmath.exp(-1j * math.pi / 3)
    w, wp = rot * p.omega, rot * p.omega_prime
    eta_err = abs(modular_discriminant(P._basis(w, wp)) - delta) / abs(delta)
    assert eta_err <= P.ETA_IDENTITY_RTOL
    assert P._validated(curve, delta, scale, [(w, wp, wp / w)]) is None
    assert P._validated(curve, delta, scale, [(p.omega, p.omega_prime, p.tau)]) == p


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-4.0, 4.0),
)
@example(parts=[0.0, 0.0, 1.0, 0.0], log_scale=0.0)  # g2 == 0: hexagonal rotations
@example(parts=[1.0, 0.0, 0.0, 0.0], log_scale=0.0)  # g3 == 0: square rotations
@example(parts=[-0.7, 0.0, 0.2, 0.0], log_scale=1.0)  # real curve, real roots
@example(parts=[-0.5, 0.0, 0.0, 0.0], log_scale=0.0)  # square, omega on arg -pi/4 or +pi/4
def test_negated_candidate_validates_to_the_same_basis(parts, log_scale):
    # (-omega, -omega') has the same tau as (omega, omega') and passes or fails
    # with it, which is why _candidate_params leaves it out
    import uplane.periods as P

    curve = _curve_from(parts, log_scale)
    delta, scale = discriminant(curve), discriminant_scale(curve)
    for w, wp, tau in P._candidate_params(cubic_roots(curve)):
        p = P._validated(curve, delta, scale, [(w, wp, tau)])
        neg = P._validated(curve, delta, scale, [(-w, -wp, tau)])
        assert (p is None) == (neg is None)
        if p is None:
            continue
        assert abs(p.tau - neg.tau) <= 1e-12
        # with g2 == 0 or g3 == 0 the rotation by a power of i or e^{-i pi/3} rounds
        # differently for omega and -omega; the arg boundary's slack keeps both on
        # the same side of +-pi/n
        if curve.g2 != 0 and curve.g3 != 0:
            assert p == neg
        else:
            assert abs(p.omega - neg.omega) <= 4e-15 * abs(p.omega)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-4.0, 4.0),
)
@example(parts=[0.0, 0.0, 1.0, 0.0], log_scale=0.0)
@example(parts=[1.0, 0.0, 0.0, 0.0], log_scale=0.0)
def test_candidates_are_in_the_upper_half_plane_and_never_negated(parts, log_scale):
    import uplane.periods as P

    cands = list(P._candidate_params(cubic_roots(_curve_from(parts, log_scale))))
    # one candidate per root ordering, none dropped
    assert len(cands) == 6
    assert all(tau == wp / w and tau.imag > 1e-12 for w, wp, tau in cands)
    pairs = {(w, wp) for w, wp, _ in cands}
    assert not any((-w, -wp) in pairs for w, wp in pairs)


_SQUARE = [(g2, 0.0, 4) for g2 in (-0.3, -0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -4.0, -7.0, -10.0)]
_HEXAGONAL = [(0.0, g3, 6) for g3 in (-1.0, -0.2, -5.0)]


@pytest.mark.parametrize("g2, g3, n", _SQUARE + _HEXAGONAL)
def test_square_and_hexagonal_bases_take_the_upper_edge(g2, g3, n):
    # the AGM lands these omega on arg -pi/n up to rounding; (-pi/n, pi/n] keeps +pi/n.
    # Rounding the phase without reduce_tau's slack left g2 = -1.5 and g3 = -1 at -pi/n
    p = compute_periods(WeierstrassCurve(g2, g3))
    assert abs(cmath.phase(p.omega) - math.pi / n) < 1e-12
    _assert_canonical(WeierstrassCurve(g2, g3), p)


_SCALE_PROBES = [((1.3 + 0.2j), (0.4 - 0.7j), 50), (1.5, 0.0, 40), (0.0, 1.0, 40)]


@pytest.mark.parametrize("g2, g3, decades", _SCALE_PROBES, ids=["generic", "square", "hexagonal"])
def test_periods_scale_with_the_curve(g2, g3, decades):
    # (s^2 g2, s^3 g3) is the lattice of (g2, g3) scaled by s^(-1/2): tau stays, and so
    # does omega s^(1/2).  The roots scale by s, so a screen on their absolute gap would
    # refuse the small scales as repeated roots
    base = compute_periods(WeierstrassCurve(g2, g3))
    for e in range(-decades, decades + 1):
        s = 10.0**e
        p = compute_periods(WeierstrassCurve(g2 * s**2, g3 * s**3))
        assert abs(p.tau - base.tau) <= 1e-14
        assert abs(p.omega * math.sqrt(s) - base.omega) <= 1e-14 * abs(base.omega)


@pytest.mark.parametrize("e", range(-40, 41, 10))
def test_nearly_repeated_roots_are_singular_at_every_scale(e):
    # (x - 1)(2x + 1)^2 with g3 moved by 1e-14: Delta is 1e-14 of its terms
    s = 10.0**e
    with pytest.raises(SingularCurve):
        compute_periods(WeierstrassCurve(3.0 * s**2, (1.0 + 1e-14) * s**3))


def _solve_recording_forms(curve):
    """compute_periods(curve), the (E4, E6) pairs its validation summed, and the numbers
    of eta q-products taken by the solve and by a first read of p.eta after it."""
    import uplane.periods as P
    from uplane import modular

    forms, products = [], []
    series, product = P.eisenstein_in_f, modular._eta_qproduct
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(P, "eisenstein_in_f", lambda q: forms.append(series(q)) or forms[-1])
        mp_.setattr(modular, "_eta_qproduct", lambda q: products.append(q) or product(q))
        p = compute_periods(curve)
        solve = len(products)
        p.eta
    return p, forms, (solve, len(products) - solve)


def _assert_eta_is_dedekind_eta(curve):
    """Every basis of curve's lattice carries p.eta == dedekind_eta(p.tau), bit for bit:
    the validated one, seeded ones, reduced ones and hand-built ones."""
    import uplane.periods as P
    from uplane import dedekind_eta, reduce_tau
    from uplane.cli import _periods_from_tau

    p, forms, products = _solve_recording_forms(curve)
    in_f = reduce_tau(p.tau)[1] == (1, 0, 0, 1)
    # the first candidate passes: one eta in the solve, none when F1 or a determinant reads it
    assert products == (1, 0) and len(forms) == 1
    assert p.eta == dedekind_eta(p.tau)
    (e4, e6), = forms
    if in_f:
        assert (e4, e6) == (eisenstein_e4(p.tau), eisenstein_e6(p.tau))
    else:  # tau is within rounding of F, where the series converge alike; E6(i) = 0
        assert abs(e4 - eisenstein_e4(p.tau)) <= 1e-14
        assert abs(e6 - eisenstein_e6(p.tau)) <= 1e-14
    # a seed in the solve's own basis keeps the solved basis, with its eta
    again = compute_periods(curve, seed=p)
    assert again == p and "eta" in again.__dict__ and again.eta == p.eta
    sheared = P._basis(p.omega, p.omega_prime + 2 * p.omega)
    seeded = compute_periods(curve, seed=sheared)
    assert seeded.tau != p.tau and seeded.eta == dedekind_eta(seeded.tau)
    reduced, _ = P.reduce_periods(sheared)
    assert reduced.eta == dedekind_eta(reduced.tau)
    given, reduced, _ = _periods_from_tau(sheared.tau, 2.0 * sheared.omega)
    assert given.eta == dedekind_eta(given.tau) and reduced.eta == dedekind_eta(reduced.tau)


def _lattice_curve(kind, parts, log_scale):
    """A generic, square (g3 = 0), hexagonal (g2 = 0) or real curve from four parts."""
    if kind == "generic":
        return _curve_from(parts, log_scale)
    s = 10.0**log_scale
    g2, g3 = {"square": (complex(*parts[:2]), 0.0), "hexagonal": (0.0, complex(*parts[2:])),
              "real": (parts[0], parts[2])}[kind]
    assume(abs(g2) ** 3 + 27 * abs(g3) ** 2 > 1e-3)
    curve = WeierstrassCurve(g2 * s**2, g3 * s**3)
    assume(abs(discriminant(curve)) > 1e-6 * discriminant_scale(curve))
    return curve


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["generic", "square", "hexagonal", "real"]),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_scale=st.floats(-4.0, 4.0),
)
@example(kind="real", parts=[1.0, 0.0, 1.0, 0.0], log_scale=0.0)  # Delta < 0: Re tau = 1/2
@example(kind="real", parts=[-1.0, 0.0, 0.1, 0.0], log_scale=0.0)  # Delta < 0: |tau| = 1
@example(kind="real", parts=[1.0, 0.0, 0.05, 0.0], log_scale=0.5)  # three real roots: Re tau = 0
@example(kind="real", parts=[1.0, 0.0, 0.0, 0.0], log_scale=0.0)  # tau = i
@example(kind="hexagonal", parts=[0.0, 0.0, 1.0, 0.0], log_scale=0.0)  # tau = e^{i pi/3}
@example(kind="square", parts=[-0.5, 0.0, 0.0, 0.0], log_scale=0.0)
# tau = -3e-17 + 1j: wp / w rounds out of F, and reduce_tau moves that tau by S
@example(kind="square", parts=[0.6464356261864594, 1.5968682223798234, 0.0, 0.0], log_scale=0.0)
def test_a_basis_eta_is_dedekind_eta_bit_for_bit(kind, parts, log_scale):
    _assert_eta_is_dedekind_eta(_lattice_curve(kind, parts, log_scale))

