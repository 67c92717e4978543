"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here, not configured elsewhere.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from uplane import (
    ANOMALY_RATIO,
    AT_INFINITY,
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    Chart,
    LoopSpec,
    Operator,
    Orientation,
    Periods,
    WeierstrassCurve,
    anomaly_check,
    compute_periods,
    curvature_ledger,
    det_dirichlet_annulus,
    det_dirichlet_flat,
    det_prime_laplacian,
    det_twisted,
    discriminant,
    epstein_zeta_logdet,
    find_singular_fibers,
    isotrivial_family,
    modular_discriminant,
    reduce_periods,
    sample_family,
    signature_from_monodromy,
    surface_report,
    table1_expected,
)
from uplane.holonomy import holonomy
from uplane.spectral import CONTINUATION_OVER_CLOSED_FORM

TAUS = (1j, cmath.exp(1j * math.pi / 3), 0.3 + 1.7j)
TWO_OMEGAS = (1.0 + 0j, 1.0 + 0.5j)


def _report(num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {title}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _periods(tau: complex, two_omega: complex) -> Periods:
    omega = two_omega / 2.0
    return Periods(omega=omega, omega_prime=tau * omega, tau=tau)


def test_criterion_01_continuation_oracle_vs_closed_forms():
    # The odd-structure closed form, as printed alongside the zeta definition
    # it is derived from, is short by the Kronecker-limit constant (2 pi)^2:
    # the continuation of that very definition gives 4 Im^2(tau)|w|^2 |eta|^4
    # (pinned independently by the exact Dirichlet factorization of the
    # square lattice; see test_modular).  The oracle is therefore checked
    # against the closed forms with that constant pinned exactly, and against
    # the even-structure theta forms verbatim.
    worst = 0.0
    for tau in TAUS:
        for two_omega in TWO_OMEGAS:
            p = _periods(tau, two_omega)
            oracle = math.exp(epstein_zeta_logdet(ODD_STRUCTURE, tau, p.omega))
            closed = CONTINUATION_OVER_CLOSED_FORM * det_prime_laplacian(p)
            worst = max(worst, abs(oracle - closed) / closed)
            for nu in EVEN_STRUCTURES:
                oracle = math.exp(epstein_zeta_logdet(nu, tau, p.omega))
                closed = det_twisted(nu, p)
                worst = max(worst, abs(oracle - closed) / closed)
    _report(
        1,
        "determinant closed forms vs continuation oracle (rel err <= 1e-8)",
        worst <= 1e-8,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_02_jacobi_product():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        # det_twisted takes tau in F; the move there permutes the even structures
        p, _ = reduce_periods(_periods(tau, 1.0))
        prod = math.prod(det_twisted(nu, p) for nu in EVEN_STRUCTURES)
        worst = max(worst, abs(prod - 4.0))
    _report(2, "product of even twisted determinants = 4 (<= 1e-10)", worst <= 1e-10,
            f"worst |prod - 4| = {worst:.2e}")


def test_criterion_03_period_validation():
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 50:
        g2 = complex(rng.normal(), rng.normal()) * 2.0
        g3 = complex(rng.normal(), rng.normal()) * 2.0
        delta = g2**3 - 27.0 * g3**2
        if abs(delta) < 1e-3:
            continue
        p = compute_periods(WeierstrassCurve(g2, g3))
        worst = max(worst, abs(modular_discriminant(p) - delta) / abs(delta))
        done += 1
    p_sq = compute_periods(WeierstrassCurve(4, 0))
    p_eq = compute_periods(WeierstrassCurve(0, 4))
    tau_err = max(
        abs(p_sq.tau - 1j), abs(p_eq.tau - cmath.exp(1j * math.pi / 3))
    )
    ok = worst <= 1e-9 and tau_err <= 1e-10
    _report(3, "eta^24 identity on 50 random curves + known lattices", ok,
            f"worst identity rel err {worst:.2e}, tau err {tau_err:.2e}")


def test_criterion_04_anomaly_equation():
    fam = sample_family(0)
    rng = np.random.default_rng(303)
    ratios = []
    while len(ratios) < 20:
        u = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if min(abs(u - 1.0), abs(u + 1.0)) < 0.3:
            continue
        ratios.append(anomaly_check(fam, u).ratio)
    mean = sum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / abs(mean)
    iso = anomaly_check(isotrivial_family(), 0.5 + 0.5j, h=1e-2)
    ok = (
        spread <= 1e-3
        and abs(mean - ANOMALY_RATIO) <= 1e-3 * ANOMALY_RATIO
        and abs(iso.lhs) <= 1e-8
        and abs(iso.rhs) <= 1e-8
    )
    _report(4, "anomaly ratio constant at pinned value 2, isotrivial flat", ok,
            f"spread {spread:.2e}, mean {mean:.6f}, iso lhs {iso.lhs:.1e} rhs {iso.rhs:.1e}")


def test_criterion_05_dirichlet_annulus_identities():
    rng = np.random.default_rng(404)
    worst_sq = worst_ratio = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        p = _periods(tau, complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)))
        d = det_dirichlet_annulus(p)
        worst_sq = max(worst_sq, abs(d * d - det_prime_laplacian(p)) / (d * d))
        flat = det_dirichlet_flat(p)
        lam = abs(p.omega) / math.pi
        rescaled = d / lam / math.exp(2.0 * math.pi**2 * tau.imag / (6.0 * math.pi))
        worst_ratio = max(worst_ratio, abs(flat - rescaled) / flat)
    # q^{1/12}/eta^2 -> 1 within 2|q| (plus its exact q^2 term), at 100 digits
    mp.mp.dps = 100
    limit_ok = True
    for t in (5.0, 8.0, 12.0):
        q = mp.e ** (-2 * mp.pi * t)
        ratio = 1 / ((1 - q) * (1 - q**2) * (1 - q**3)) ** 2
        limit_ok = limit_ok and abs(ratio - 1) <= 2 * abs(q) + 6 * abs(q) ** 2
    ok = worst_sq <= 1e-12 and worst_ratio <= 1e-9 and limit_ok
    _report(5, "Dirichlet/annulus identities and q -> 0 limit", ok,
            f"det_D^2 rel err {worst_sq:.2e}, two-route rel err {worst_ratio:.2e}")


def test_criterion_06_quillen_asymptotics():
    fam = sample_family(0)
    radii = np.geomspace(1e-2, 1e-5, 16)
    direction = cmath.exp(0.7j)
    xs = [math.log(r) for r in radii]
    ys = [math.log(abs(discriminant(fam.curve_at(1.0 + r * direction))) ** (1 / 12))
          for r in radii]
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slope - 1.0 / 12.0) <= 1e-3
    _report(6, "Quillen norm slope 1/12 near a simple node", ok, f"slope {slope:.6f}")


def test_criterion_07_kodaira_table():
    ok = True
    details = []
    for nf in range(5):
        rep = surface_report(sample_family(nf))
        finite = sorted(
            f.kodaira.label for f in rep.fibers if f.location is not AT_INFINITY
        )
        inf = [f.kodaira.label for f in rep.fibers if f.location is AT_INFINITY][0]
        good = (
            finite == [f"I1"] * (nf + 2)
            and inf == f"I{4 - nf}*"
            and rep.total_euler == 12
        )
        ok = ok and good
        details.append(f"nf{nf}:{inf}+{len(finite)}I1")
    counts = [len(table1_expected(nf)) for nf in (4, 3, 2, 1, 0)]
    ok = ok and counts == [7, 5, 3, 1, 1]
    _report(7, "fixture classification and configuration-table row counts", ok,
            ", ".join(details) + f"; rows {counts}")


def test_criterion_08_holonomy_values():
    ok = True
    worst_phase = 0.0
    for nf in range(5):
        fam = sample_family(nf)
        roots = find_singular_fibers(fam)
        for i, (z, _) in enumerate(roots):
            others = [abs(z - w) for j, (w, _) in enumerate(roots) if j != i]
            rad = 0.4 * min(others) if others else 0.5
            loop = LoopSpec(center=z, radius=rad, samples=4096,
                            orientation=Orientation.CLOCKWISE)
            res = holonomy(Operator.DBAR, fam, loop)
            ok = ok and (res.log_monodromy - Fraction(-1, 3)) % 4 == 0
            worst_phase = max(worst_phase, abs(res.phase - res.phase_exact))
            res_sig = holonomy(Operator.SIGNATURE, fam, loop)
            ok = ok and res_sig.log_monodromy == Fraction(-2, 3)
        rad_v = 0.4 / max(abs(z) for z, _ in roots)
        loop_inf = LoopSpec(center=0.0, radius=rad_v, samples=4096,
                            orientation=Orientation.CLOCKWISE, chart=Chart.V)
        res = holonomy(Operator.DBAR, fam, loop_inf)
        ok = ok and (res.log_monodromy - Fraction(-(10 - nf), 3)) % 4 == 0
        worst_phase = max(worst_phase, abs(res.phase - res.phase_exact))
        res_sig = holonomy(Operator.SIGNATURE, fam, loop_inf)
        ok = ok and res_sig.log_monodromy == Fraction(-2 * (10 - nf), 3)
    ok = ok and worst_phase <= 1e-8
    _report(8, "holonomy classes -1/3, -(10-nf)/3 and exact -2/3, -2(10-nf)/3", ok,
            f"worst numeric-vs-exact phase {worst_phase:.2e}")


def test_criterion_09_signature():
    ok = True
    sigs = []
    for nf in range(5):
        fam = sample_family(nf)
        sig = signature_from_monodromy(fam)
        rep = surface_report(fam)
        ok = ok and sig == rep.sign_z == -nf and rep.sign_zbar == -8
        sigs.append(sig)
    _report(9, "sign(Z) = -nf via monodromy and via Euler numbers", ok,
            f"signatures {sigs}")


def test_criterion_10_curvature_total():
    # curvature_ledger raises unless each contour winding equals its discriminant order
    ok = True
    for nf in range(5):
        led = curvature_ledger(sample_family(nf))
        ok = ok and led.total == 2
        ok = ok and [r for _, r in led.residues] == [Fraction(1, 6)] * (nf + 2) + [Fraction(10 - nf, 6)]
    _report(10, "curvature-current total = 2 with verified residues", ok,
            "residues 1/6 per node and (10 - nf)/6 at infinity")
