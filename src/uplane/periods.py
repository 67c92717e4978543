"""Half-periods and modulus of a smooth Weierstrass fiber via the complex AGM.

For roots e1, e2, e3 of 4x^3 - g2 x - g3 the candidate half-periods are

    omega  = pi / (2 M(sqrt(e1-e3), sqrt(e1-e2))),
    omega' = i pi / (2 M(sqrt(e1-e3), sqrt(e2-e3))),

with M the arithmetic-geometric mean using principal square roots and, at
each step, the square-root branch closer to the running arithmetic mean.
The roots come in closed form (`cubic_roots`, Cardano with a guarded Newton
polish), so the whole solve is scalar Python.
Which root ordering gives a lattice basis is not knowable a priori in the
complex case, though the first passed on every curve tried: the 6 orderings
are walked lazily, one candidate (omega, omega') with Im tau > 0 each, until
one passes, and a failure is raised once all 6 have failed.  Each is first put
into the canonical basis of its lattice: tau in the closed fundamental domain F
of `modular.reduce_tau`, and arg omega in (-pi/n, pi/n] by the rotations that
fix the lattice (n = 2, or 4 when g3 == 0 and 6 when g2 == 0 exactly), each
edge with reduce_tau's slack.
There, where every modular form is its raw q-series, the candidate is validated
against the modular-discriminant identity

    (2 pi)^12 eta(tau)^24 / (2 omega)^12 = g2^3 - 27 g3^2,

which holds for every basis of the period lattice and fails for any branch
mistake.  The identity sees only omega^12 and so passes rotated lattices too;
the canonical basis must also reproduce (g2, g3) from E4 and E6, summed in one
loop from the nome q the basis already carries (`modular.eisenstein_in_f`), to
1e-12 S^2 and 1e-12 S^3 with S = discriminant_scale^(1/6).  The identity reads
eta through `Periods.eta`, computed with the basis, so F1 and every closed
form of `spectral` read the eta that validated the solve.  A seeded solve
then moves to the basis nearest the seed's, which keeps frames continuous
along loops.  `reduce_periods` makes the same move for a basis given by hand.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

from .curves import (
    CurveFamily,
    WeierstrassCurve,
    discriminant,
    discriminant_scale,
    is_numerically_singular,
)
from .errors import AgmBranchFailure, SingularCurve, SingularFiber
from .modular import (
    _EDGE,
    TWO_PI,
    dedekind_eta,
    eisenstein_in_f,
    g2_g3_from_forms,
    reduce_tau,
)
from .spectral import modular_discriminant

#: relative tolerance of the modular-discriminant post-condition
ETA_IDENTITY_RTOL = 1e-9

#: tolerance of the lattice-invariants check, in units of S^2 (g2) and S^3 (g3)
INVARIANTS_RTOL = 1e-12

#: |Delta| / discriminant_scale below which Delta's rounding can exceed ETA_IDENTITY_RTOL
#: of |Delta|, so a failed eta check means a fiber too close to singular, not a wrong
#: AGM branch.  g2^3 is two complex products, each within sqrt(5) u of exact
#: (u = 2^-53), and 27 g3^2 one: Delta is off by at most 2 sqrt(5) u of the scale
ETA_RESOLVABLE = 2.0 * math.sqrt(5.0) * 2.0**-53 / ETA_IDENTITY_RTOL

#: AGM stopping tolerance on |a - b| / (|a| + |b|): a few ulp of double precision
AGM_RTOL = 4e-16

#: documented step below which periods_along_family guarantees no basis jump
CONTINUITY_STEP = 1e-3

#: the cube roots of unity, 1 first
_CUBE_UNITS = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)), complex(-0.5, -0.5 * math.sqrt(3.0)))


@dataclass(frozen=True)
class Periods:
    """Half-periods (full periods are 2*omega, 2*omega_prime) and tau; eta(tau), then the nome
    q = e^{2 pi i tau}, are computed with the basis (on a solved one, the eta of its
    validation, `_validated`).  eta refuses Im tau <= 0, where q could overflow."""

    omega: complex
    omega_prime: complex
    tau: complex
    eta: complex = field(init=False, repr=False, compare=False)
    q: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eta", dedekind_eta(self.tau))
        object.__setattr__(self, "q", cmath.exp(2j * math.pi * self.tau))

    def eta_at(self, k: float) -> complex:
        """dedekind_eta(k tau), kept with the basis after the first read: the theta
        quotients of the twisted determinants read eta(tau / 2) and eta(2 tau) of a basis
        once each, whichever spin structures they are taken for."""
        etas = self.__dict__.setdefault("_eta_at", {})
        if k not in etas:
            etas[k] = dedekind_eta(k * self.tau)
        return etas[k]


def cubic_roots(curve: WeierstrassCurve):
    """Roots of 4x^3 - g2 x - g3, sorted lexicographically by (Re, Im).

    Cardano on x^3 + p x + q (p = -g2/4, q = -g3/4), Numerical Recipes 5.6: c is the
    larger in modulus of -q/2 +- sqrt(q^2/4 + p^3/27), so no cancellation enters it,
    t its principal cube root, and the roots are t w - p / (3 t w) over the cube roots
    of unity w.  c = 0 only when g2 = g3 = 0 (or their powers underflow), where the
    root is triple.
    """
    g2, g3 = curve.g2, curve.g3
    p, q = -0.25 * g2, -0.25 * g3
    s = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    c, other = -0.5 * q + s, -0.5 * q - s
    if abs(other) > abs(c):  # max(c, other, key=abs), without the call
        c = other
    if c == 0:
        return (0j, 0j, 0j)
    t = c ** (1.0 / 3.0)
    out = []
    for unit in _CUBE_UNITS:
        tw = t * unit
        z = tw - p / (3.0 * tw)
        # up to 3 Newton steps, each kept only if it lowers |f|: at a double root
        # f' is itself rounding, and an unguarded step divides rounding by rounding
        f = (4.0 * z * z - g2) * z - g3
        for _ in range(3):
            fp = 12.0 * z * z - g2
            if abs(fp) < 1e-30:
                break
            step = f / fp
            znew = z - step
            fnew = (4.0 * znew * znew - g2) * znew - g3
            if not abs(fnew) < abs(f):
                break
            z, f = znew, fnew
            if abs(step) < 1e-16 * (1.0 + abs(z)):
                break
        out.append(z)
    return _sorted_re_im(*out)


def _sorted_re_im(r1: complex, r2: complex, r3: complex) -> tuple:
    """The three sorted as sorted((r1, r2, r3), key=lambda z: (z.real, z.imag)) sorts them
    when no part is NaN, by a stable insertion, which builds no key tuples."""
    if r2.real < r1.real or r2.real == r1.real and r2.imag < r1.imag:
        r1, r2 = r2, r1
    if r3.real < r2.real or r3.real == r2.real and r3.imag < r2.imag:
        r2, r3 = r3, r2
        if r2.real < r1.real or r2.real == r1.real and r2.imag < r1.imag:
            r1, r2 = r2, r1
    return r1, r2, r3


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
    """One candidate (omega, omega', tau), Im tau > 0, per root ordering; each AGM pair is
    built only after the previous ordering's candidate failed.  No shear omega' + k omega:
    `_canonical` takes every basis of a lattice to the same point of F.  (-omega, -omega')
    is left out: it has the same tau and passes or fails with (omega, omega')."""
    for e1, e2, e3 in itertools.permutations(roots):
        r13 = cmath.sqrt(e1 - e3)
        m1 = agm(r13, cmath.sqrt(e1 - e2))
        m2 = agm(r13, cmath.sqrt(e2 - e3))
        if m1 == 0 or m2 == 0:
            continue
        w = math.pi / (2.0 * m1)
        wp = 1j * math.pi / (2.0 * m2)
        if (wp / w).imag < 0:
            wp = -wp
        tau = wp / w
        if tau.imag > 1e-12:
            yield w, wp, tau


def _basis(w: complex, wp: complex) -> Periods:
    return Periods(omega=w, omega_prime=wp, tau=wp / w)


#: e^{-2 pi i / n}: the rotations that fix the square (n = 4) and hexagonal (n = 6) lattices
_UNIT_ROOT = {4: -1j, 6: cmath.exp(-1j * math.pi / 3.0)}


def _canonical(w: complex, wp: complex, tau: complex, n: int):
    """The basis of <w, wp> (tau = wp / w) with tau in F and arg w in (-pi/n, pi/n].

    Returns (t, (w, wp), (a, b, c, d)): reduce_tau's point t, the basis, and the matrix
    that gives the basis as (c wp + d w, a wp + b w) before the rotation.  The arg
    boundary and the final half-plane test carry reduce_tau's slack: w is kept when
    Re w > _EDGE |w|, or when |Re w| <= _EDGE |w| and Im w > 0.  On a real curve whose
    omega is imaginary, Re w is rounding, and an exact test would let it pick the sign.
    """
    t, (a, b, c, d) = reduce_tau(tau)
    w, wp = c * wp + d * w, a * wp + b * w
    if n > 2:
        unit = _UNIT_ROOT[n] ** math.ceil(cmath.phase(w) * n / TWO_PI - 0.5 - _EDGE)
        w, wp = unit * w, unit * wp
    edge = _EDGE * abs(w)
    if w.real < -edge or (w.real <= edge and w.imag < 0):
        w, wp, a, b, c, d = -w, -wp, -a, -b, -c, -d
    return t, (w, wp), (a, b, c, d)


def reduce_periods(p: Periods):
    """The basis (t, (c tau + d) omega) of p's lattice with t = (a tau + b) / (c tau + d)
    in F, and the matrix (a, b, c, d).  The closed forms of `spectral` are evaluated
    there; spin structures follow by `SpinStructure.moved`."""
    t, (w, wp), matrix = _canonical(p.omega, p.omega_prime, p.tau, 2)
    return Periods(omega=w, omega_prime=wp, tau=t), matrix


def _validated(curve: WeierstrassCurve, delta: complex, scale: float, cands):
    """The canonical basis of the first candidate that, reduced, satisfies the eta^24
    identity and reproduces (g2, g3); None if none does.  delta and scale are the curve's
    discriminant and discriminant_scale.  The identity reads p.eta; E4 and E6 are the
    raw series of the basis' nome p.q."""
    n = 6 if curve.g2 == 0 else 4 if curve.g3 == 0 else 2
    s = scale ** (1.0 / 6.0)
    for w, wp, tau in cands:
        p = _basis(*_canonical(w, wp, tau, n)[1])
        if not abs(modular_discriminant(p) - delta) / abs(delta) <= ETA_IDENTITY_RTOL:
            continue
        g2, g3 = g2_g3_from_forms(*eisenstein_in_f(p.q), p.omega)
        if (abs(g2 - curve.g2) <= INVARIANTS_RTOL * s**2
                and abs(g3 - curve.g3) <= INVARIANTS_RTOL * s**3):
            return p
    return None


def _nearest_basis(p: Periods, seed: Periods) -> Periods:
    """The oriented basis of p's half-period lattice nearest the seed's.

    The seed's half-periods are written in real coordinates of (omega, omega') and
    rounded to integers; p itself, with its eta, is returned unless that gives
    another basis of determinant 1.
    """
    w, wp = p.omega, p.omega_prime
    area = (w.conjugate() * wp).imag

    def coords(z: complex):
        return round((z.conjugate() * wp).imag / area), round((w.conjugate() * z).imag / area)

    (a, b), (c, d) = coords(seed.omega), coords(seed.omega_prime)
    if (a, b, c, d) == (1, 0, 0, 1) or a * d - b * c != 1:
        return p
    return _basis(a * w + b * wp, c * w + d * wp)


def compute_periods(curve: WeierstrassCurve, seed: Periods = None) -> Periods:
    """Half-periods of a smooth curve in their canonical basis, or with a seed
    in the basis of their lattice nearest the seed's (module docstring).

    Raises SingularCurve when the cubic has (nearly) repeated roots, by the relative
    screen `is_numerically_singular`, or when no candidate passes the eta and invariants
    checks with |Delta| below ETA_RESOLVABLE of its terms; AgmBranchFailure when none
    passes above that level.
    """
    delta, scale = discriminant(curve), discriminant_scale(curve)
    if is_numerically_singular(delta, scale):
        raise SingularCurve(f"discriminant vanishes for g2={curve.g2}, g3={curve.g3}")
    p = _validated(curve, delta, scale, _candidate_params(cubic_roots(curve)))
    if p is None:
        failure = ("no AGM basis candidate satisfied the eta^24 identity and the"
                   f" lattice invariants for g2={curve.g2}, g3={curve.g3}")
        if abs(delta) < ETA_RESOLVABLE * scale:
            raise SingularCurve(f"discriminant within its rounding of zero: {failure}")
        raise AgmBranchFailure(failure)
    return p if seed is None else _nearest_basis(p, seed)


def periods_along_family(family: CurveFamily, u: complex, prev: Periods = None) -> Periods:
    """Periods of the fiber at u, optionally continuing the frame from prev.

    Raises SingularFiber, naming u, where compute_periods raises SingularCurve: at (or
    numerically indistinguishable from) discriminant zeros.
    """
    try:
        return compute_periods(family.curve_at(u), seed=prev)
    except SingularCurve as exc:
        # the same error object, retyped: one failure to a caller that counts errors
        exc.__class__, exc.args = SingularFiber, (f"{exc} at u={u}",)
        raise
