"""Half-periods and modulus of a smooth Weierstrass fiber via the complex AGM.

For roots e1, e2, e3 of 4x^3 - g2 x - g3 the candidate half-periods are

    omega  = pi / (2 M(sqrt(e1-e3), sqrt(e1-e2))),
    omega' = i pi / (2 M(sqrt(e1-e3), sqrt(e2-e3))),

with M the arithmetic-geometric mean using principal square roots and, at
each step, the square-root branch closer to the running arithmetic mean.
Which permutation of the roots yields a correct, positively-oriented lattice
basis is not knowable a priori in the complex case, so every candidate basis
is post-validated against the modular-discriminant identity

    (2 pi)^12 eta(tau)^24 / (2 omega)^12 = g2^3 - 27 g3^2,

with the left side from `spectral.modular_discriminant`; it holds for every
true basis of the period lattice and fails for any branch mistake.  Among
validated candidates a deterministic normalization (maximal Im tau, then
minimal |Re tau|, then positive Re tau, then the lexicographically largest
omega) fixes the returned basis; callers tracking a family provide the
previous fiber's periods as a seed instead, and the candidate closest to the
seed wins, which keeps frames continuous along loops.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    CurveFamily,
    WeierstrassCurve,
    discriminant,
    discriminant_scale,
    is_numerically_singular,
    j_invariant,
)
from .errors import AgmBranchFailure, SingularCurve, SingularFiber
from .modular import j_from_tau
from .spectral import modular_discriminant

#: relative tolerance of the modular-discriminant post-condition
ETA_IDENTITY_RTOL = 1e-9

#: |Delta| / discriminant_scale below which Delta's own rounding, ~1e-16 of the
#: scale, exceeds ETA_IDENTITY_RTOL of |Delta|: there a failed check means a
#: fiber too close to singular, not a wrong AGM branch
ETA_RESOLVABLE = 1e-16 / ETA_IDENTITY_RTOL

#: AGM stopping tolerance on |a - b| / (|a| + |b|): a few ulp of double precision
AGM_RTOL = 4e-16

#: documented step below which periods_along_family guarantees no basis jump
CONTINUITY_STEP = 1e-3


@dataclass(frozen=True)
class Periods:
    """Half-periods (full periods are 2*omega, 2*omega_prime), tau and nome."""

    omega: complex
    omega_prime: complex
    tau: complex
    q: complex


def cubic_roots(curve: WeierstrassCurve):
    """Roots of 4x^3 - g2 x - g3, sorted lexicographically by (Re, Im)."""
    r = np.roots([4.0, 0.0, -curve.g2, -curve.g3])
    # one Newton polish pass per root; cheap and tightens np.roots output
    out = []
    for z in r:
        z = complex(z)
        for _ in range(3):
            f = 4.0 * z**3 - curve.g2 * z - curve.g3
            fp = 12.0 * z**2 - curve.g2
            if abs(fp) < 1e-30:
                break
            step = f / fp
            z -= step
            if abs(step) < 1e-16 * (1.0 + abs(z)):
                break
        out.append(z)
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def agm(a: complex, b: complex) -> complex:
    """Complex AGM with the 'right choice' square-root branch at each step."""
    return agm_steps(a, b)[0]


def agm_steps(a: complex, b: complex):
    """(agm(a, b), number of AGM steps taken).

    Iteration stops once |a - b| is within a few ulp of |a| + |b|
    (AGM_RTOL); convergence is quadratic, so that takes a handful of steps.
    """
    steps = 0
    for _ in range(200):
        if abs(a - b) <= AGM_RTOL * (abs(a) + abs(b)):
            break
        am = 0.5 * (a + b)
        g = cmath.sqrt(a * b)
        if abs(g - am) > abs(g + am):
            g = -g
        a, b = am, g
        steps += 1
    return 0.5 * (a + b), steps


def _candidate_params(roots):
    """All basis candidates: root permutations x sign of omega' x shear x global sign."""
    seen = set()
    cands = []
    for e1, e2, e3 in itertools.permutations(roots):
        m1 = agm(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
        m2 = agm(cmath.sqrt(e1 - e3), cmath.sqrt(e2 - e3))
        if m1 == 0 or m2 == 0:
            continue
        om = math.pi / (2.0 * m1)
        omp = 1j * math.pi / (2.0 * m2)
        for sgn in (1.0, -1.0):
            for k in range(-3, 4):
                for gs in (1.0, -1.0):
                    w = gs * om
                    wp = gs * (sgn * omp + k * om)
                    tau = wp / w
                    if tau.imag <= 1e-12:
                        continue
                    key = (round(w.real, 12), round(w.imag, 12),
                           round(wp.real, 12), round(wp.imag, 12))
                    if key in seen:
                        continue
                    seen.add(key)
                    cands.append((w, wp, tau))
    return cands


def _default_key(w, tau):
    # quantized so float noise between equivalent candidates cannot flip ties
    q = lambda x: round(x, 9)
    return (-q(tau.imag), q(abs(tau.real)), -q(tau.real), -q(w.real), -q(w.imag))


def _basis(w: complex, wp: complex) -> Periods:
    tau = wp / w
    return Periods(omega=w, omega_prime=wp, tau=tau, q=cmath.exp(2j * math.pi * tau))


def _validated(delta, cands, order_key):
    """The first candidate in order_key order whose modular discriminant is delta."""
    for w, wp, _ in sorted(cands, key=order_key):
        p = _basis(w, wp)
        if abs(modular_discriminant(p) - delta) / abs(delta) <= ETA_IDENTITY_RTOL:
            return p
    return None


def _nearest_basis(w: complex, wp: complex, seed: Periods):
    """The oriented basis of the half-period lattice <w, wp> nearest the seed's.

    The seed's half-periods are written in real coordinates of (w, wp) and
    rounded to integers; (w, wp) itself is returned unless that gives
    another basis of determinant 1.  The AGM candidates shear omega' by
    multiples of omega but never omega by multiples of omega', so near some
    fibers none of them continues the seed's frame.
    """
    area = (w.conjugate() * wp).imag

    def coords(z: complex):
        return round((z.conjugate() * wp).imag / area), round((w.conjugate() * z).imag / area)

    (a, b), (c, d) = coords(seed.omega), coords(seed.omega_prime)
    if (a, b, c, d) == (1, 0, 0, 1) or a * d - b * c != 1:
        return w, wp
    return a * w + b * wp, c * w + d * wp


def compute_periods(curve: WeierstrassCurve, seed: Periods = None) -> Periods:
    """Half-periods of a smooth curve, validated against the eta identity.

    With a seed, the validated candidate minimizing
    |omega - seed.omega| + |omega' - seed.omega_prime| is taken and moved to
    the basis of its lattice nearest the seed's, so the basis varies
    continuously along a family; without one, the deterministic default
    normalization applies.

    Raises SingularCurve when the cubic has (nearly) repeated roots, or when the
    eta or j check fails with |Delta| below ETA_RESOLVABLE of its terms;
    AgmBranchFailure when one fails above that level.
    """
    delta = discriminant(curve)
    if is_numerically_singular(curve, delta):
        raise SingularCurve(f"discriminant vanishes for g2={curve.g2}, g3={curve.g3}")
    roots = cubic_roots(curve)
    scale = 1.0 + max(abs(e) for e in roots)
    for a, b in itertools.combinations(roots, 2):
        if abs(a - b) < 1e-10 * scale:
            raise SingularCurve(
                f"repeated root pair {a}, {b} (g2={curve.g2}, g3={curve.g3})"
            )
    cands = _candidate_params(roots)
    if seed is not None:
        key = lambda c: (
            abs(c[0] - seed.omega) + abs(c[1] - seed.omega_prime),
        ) + _default_key(c[0], c[2])
    else:
        key = lambda c: _default_key(c[0], c[2])
    p = _validated(delta, cands, key)
    if p is None:
        failure = "no AGM basis candidate satisfied the eta^24 identity"
    else:
        if seed is not None:
            p = _basis(*_nearest_basis(p.omega, p.omega_prime, seed))
        # independent cross-check: j from modular functions must reproduce j(curve)
        jc, jt = j_invariant(curve), j_from_tau(p.tau)
        if abs(jt - jc) <= 1e-8 * (1.0 + abs(jc)):
            return p
        failure = f"j mismatch after validation: j(curve)={jc}, j(tau)={jt}"
    failure += f" for g2={curve.g2}, g3={curve.g3}"
    if abs(delta) < ETA_RESOLVABLE * discriminant_scale(curve):
        raise SingularCurve(f"discriminant within its rounding of zero: {failure}")
    raise AgmBranchFailure(failure)


def periods_along_family(family: CurveFamily, u: complex, prev: Periods = None) -> Periods:
    """Periods of the fiber at u, optionally continuing the frame from prev.

    Raises SingularFiber at (or numerically indistinguishable from)
    discriminant zeros.
    """
    curve = family.curve_at(u)
    # screened here too, so a node raises SingularFiber without a SingularCurve inside
    if is_numerically_singular(curve, discriminant(curve)):
        raise SingularFiber(f"discriminant vanishes at u={u}")
    try:
        return compute_periods(curve, seed=prev)
    except SingularCurve as exc:
        raise SingularFiber(str(exc)) from exc
