import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from uplane import (
    SingularCurve,
    SingularFiber,
    UPlaneError,
    WeierstrassCurve,
    agm,
    coalesced_family,
    compute_periods,
    cubic_roots,
    j_invariant,
    lattice_g2_g3,
    modular_discriminant,
    periods_along_family,
    sample_family,
)

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
        g2_hat, g3_hat = lattice_g2_g3(p.tau, p.omega)
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
        # periods_along_family screens before it solves: no SingularCurve inside
        exc = error(lambda: periods_along_family(fam, u))
        assert (isinstance(exc, SingularFiber) and exc.__cause__ is None) == screened
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


@pytest.mark.parametrize("distance", [1e-10, 1e-9])
@pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
def test_unresolvable_near_node_is_a_singular_fiber(distance, theta):
    # |Delta| / (|g2|^3 + 27 |g3|^2) is 2.7e-9 and 2.7e-8 here, below ETA_RESOLVABLE:
    # Delta's own rounding exceeds the eta identity's tolerance, so the solve
    # names the fiber singular instead of blaming an AGM branch
    from uplane.curves import discriminant, discriminant_scale
    from uplane.periods import ETA_RESOLVABLE

    fam = sample_family(0)
    u = 1.0 + distance * cmath.exp(1j * theta)
    curve = fam.curve_at(u)
    assert abs(discriminant(curve)) < ETA_RESOLVABLE * discriminant_scale(curve)
    with pytest.raises(SingularFiber, match="within its rounding of zero"):
        periods_along_family(fam, u)
    with pytest.raises(SingularCurve, match="within its rounding of zero"):
        compute_periods(curve)


@pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
def test_resolvable_near_node_still_solves(theta):
    # at 5e-9 of the node the ratio is 1.35e-7, above ETA_RESOLVABLE, and every direction solves
    p = periods_along_family(sample_family(0), 1.0 + 5e-9 * cmath.exp(1j * theta))
    assert p.tau.imag > 0


def test_failed_validation_above_rounding_is_a_branch_failure(monkeypatch):
    import uplane.periods as P
    from uplane import AgmBranchFailure

    monkeypatch.setattr(P, "_validated", lambda delta, cands, key: None)
    with pytest.raises(AgmBranchFailure, match="eta\\^24 identity") as info:
        compute_periods(WeierstrassCurve(4, 0))
    assert not isinstance(info.value, SingularCurve)
