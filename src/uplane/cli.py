"""Command-line front end.

Exit codes: 0 success, 1 domain errors (singular fibers, failed validation),
2 input/schema errors.  All diagnostics go to stderr; the result goes to
--out or stdout and is byte-deterministic for identical inputs.  JSON encodes
complex numbers as [re, im] and exact rationals as {"num": ..., "den": ...};
CSV uses 17-significant-digit scientific notation so doubles round-trip.
"""

import argparse
import cmath
import json
import math
import sys

from . import geometry, kodaira, modular, spectral
from .curves import WeierstrassCurve, discriminant, discriminant_poly, j_invariant, load_family
from .errors import SchemaError, UPlaneError
from .holonomy import (
    Chart,
    LoopSpec,
    Operator,
    Orientation,
    curvature_ledger,
    holonomy,
    signature_from_monodromy,
)
from .periods import Periods, compute_periods, periods_along_family


def _parse_complex(text: str, what: str) -> complex:
    """RE,IM as a complex number with both parts finite, else SchemaError naming `what`."""
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError(f"{what}: expected RE,IM but got {text!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise SchemaError(f"{what}: bad complex literal {text!r}: {exc}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"{what} must be finite, not {text!r}")
    return z


def _c(z: complex):
    return [z.real, z.imag]


def _frac(f):
    return {"num": f.numerator, "den": f.denominator}


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _periods_from_tau(tau: complex, two_omega: complex) -> Periods:
    omega = two_omega / 2.0
    return Periods(
        omega=omega,
        omega_prime=tau * omega,
        tau=tau,
        q=cmath.exp(2j * math.pi * tau),
    )


def _cmd_periods(args) -> dict:
    curve = WeierstrassCurve(g2=args.g2, g3=args.g3)
    p = compute_periods(curve)
    delta = discriminant(curve)
    mod_delta = spectral.modular_discriminant(p)
    rel = abs(mod_delta - delta) / abs(delta)
    return {
        "omega": _c(p.omega),
        "omega_prime": _c(p.omega_prime),
        "tau": _c(p.tau),
        "q": _c(p.q),
        "eta_identity_rel_err": rel,
        "j_curve": _c(j_invariant(curve)),
        "j_tau": _c(modular.j_from_tau(p.tau)),
    }


def _cmd_determinants(args) -> dict:
    p = _periods_from_tau(args.tau, args.two_omega)
    return {
        "tau": _c(p.tau),
        "q": _c(p.q),
        "det_prime": spectral.det_prime_laplacian(p),
        "det_twisted": list(spectral.det_twisted_all_even(p)),
        "det_dirichlet": spectral.det_dirichlet_annulus(p),
        "det_dirichlet_flat": spectral.det_dirichlet_flat(p),
        "quillen_norm": spectral.quillen_norm_from_periods(p),
    }


def _cmd_zeta_oracle(args) -> dict:
    nu = modular.SpinStructure(args.nu1, args.nu2)
    p = _periods_from_tau(args.tau, args.two_omega)
    logdet = modular.epstein_zeta_logdet(nu, p.tau, p.omega)
    if nu.is_odd:
        closed = spectral.CONTINUATION_OVER_CLOSED_FORM * spectral.det_prime_laplacian(p)
        kind = "det_prime_times_4pi2"
    else:
        closed = spectral.det_twisted(nu, p)
        kind = "theta_over_eta_squared"
    det = math.exp(logdet)
    return {
        "tau": _c(p.tau),
        "nu": [nu.nu1, nu.nu2],
        "log_det": logdet,
        "det": det,
        "closed_form": closed,
        "closed_form_kind": kind,
        "rel_err_vs_closed": abs(det - closed) / closed,
    }


def _fiber_dict(r) -> dict:
    loc = "infinity" if r.location is kodaira.AT_INFINITY else _c(r.location)
    return {
        "location": loc,
        "kodaira": r.kodaira.label,
        "ord_g2": r.ord_g2,
        "ord_g3": r.ord_g3,
        "ord_delta": r.ord_delta,
        "euler": r.euler,
        "is_surface_singularity": r.is_surface_singularity,
    }


def _cmd_classify(args) -> dict:
    family = load_family(args.family)
    report = kodaira.surface_report(family)
    return {
        "family": family.name,
        "nf": family.nf,
        "fibers": [_fiber_dict(r) for r in report.fibers],
        "total_euler": report.total_euler,
        "sign_zbar": report.sign_zbar,
        "sign_z": report.sign_z,
    }


def _cmd_anomaly(args) -> str:
    family = load_family(args.family)
    rec = geometry.anomaly_check(family, args.at, h=args.step)
    header = "u_re,u_im,lhs,rhs,ratio"
    row = ",".join(
        [_fmt(args.at.real), _fmt(args.at.imag), _fmt(rec.lhs), _fmt(rec.rhs), _fmt(rec.ratio)]
    )
    return header + "\n" + row + "\n"


def _cmd_holonomy(args) -> dict:
    family = load_family(args.family)
    op = Operator(args.operator)
    res = holonomy(op, family, LoopSpec(
        center=args.center,
        radius=args.radius,
        samples=args.samples,
        orientation=Orientation(args.orientation),
        chart=Chart(args.chart),
    ))
    loop = res.loop  # --samples is a floor; this is the count integrated
    return {
        "family": family.name,
        "operator": op.value,
        "loop": {
            "center": _c(loop.center),
            "radius": loop.radius,
            "samples": loop.samples,
            "orientation": loop.orientation.value,
            "chart": loop.chart.value,
        },
        "winding": res.winding,
        "log_monodromy": _frac(res.log_monodromy),
        "phase": _c(res.phase),
        "phase_exact": _c(res.phase_exact),
    }


def _cmd_signature(args) -> dict:
    family = load_family(args.family)
    # the signature and the ledger share the family's one contour pass
    report = kodaira.surface_report(family)
    sig = signature_from_monodromy(family, report=report)
    ledger = curvature_ledger(family)
    return {
        "family": family.name,
        "nf": family.nf,
        "signature": sig,
        "sign_zbar": report.sign_zbar,
        "sign_z_surface": report.sign_z,
        "curvature_total": _frac(ledger.total),
    }


def _cmd_scan(args) -> str:
    family = load_family(args.family)
    try:
        x0, x1, y0, y1, nx, ny = args.grid.split(",")
        x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1:
            raise ValueError("grid counts must be positive")
        if not all(map(math.isfinite, (x0, x1, y0, y1))):
            raise ValueError("grid bounds must be finite")
    except ValueError as exc:
        raise SchemaError(f"bad --grid spec {args.grid!r}: {exc}") from exc
    if not 0.0 <= args.margin < math.inf:
        raise SchemaError(f"--margin must be finite and >= 0, not {args.margin}")
    d = discriminant_poly(family)
    roots = [z for z, _ in family.cached("nodes", kodaira.find_singular_fibers)]
    lines = ["u_re,u_im,im_tau,f1,quillen_norm,scalar_curvature"]
    for iy in range(ny):
        for ix in range(nx):
            x = x0 if nx == 1 else x0 + (x1 - x0) * ix / (nx - 1)
            y = y0 if ny == 1 else y0 + (y1 - y0) * iy / (ny - 1)
            u = complex(x, y)
            if roots and min(abs(u - z) for z in roots) < args.margin:
                print(f"scan: skipping u={u} (within margin of a node)", file=sys.stderr)
                continue
            try:
                p = periods_along_family(family, u)
                s = geometry.scalar_curvature(family, u, p)
            except UPlaneError as exc:
                print(f"scan: skipping u={u} ({exc})", file=sys.stderr)
                continue
            f1_val = -0.5 * math.log(spectral.det_prime_laplacian(p))
            qn = abs(d(u)) ** (1.0 / 12.0)
            lines.append(
                ",".join(
                    [_fmt(x), _fmt(y), _fmt(p.tau.imag), _fmt(f1_val), _fmt(qn), _fmt(s)]
                )
            )
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uplane",
        description="Determinant-line and fiber-geometry computations for "
        "Weierstrass elliptic families over the u-plane.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def add_complex(p, flag, what):
        p.add_argument(flag, type=lambda text: _parse_complex(text, what), required=True,
                       metavar="RE,IM")

    p = add_parser("periods", help="half-periods and modulus of one curve")
    add_complex(p, "--g2", "g2")
    add_complex(p, "--g3", "g3")
    p.set_defaults(func=_cmd_periods)

    p = add_parser("determinants", help="determinant zoo at a fiber (tau, 2*omega)")
    add_complex(p, "--tau", "tau")
    add_complex(p, "--two-omega", "2 omega")
    p.set_defaults(func=_cmd_determinants)

    p = add_parser("zeta-oracle", help="lattice-zeta continuation determinant")
    add_complex(p, "--tau", "tau")
    p.add_argument("--nu1", type=int, choices=(0, 1), required=True)
    p.add_argument("--nu2", type=int, choices=(0, 1), required=True)
    add_complex(p, "--two-omega", "2 omega")
    p.set_defaults(func=_cmd_zeta_oracle)

    p = add_parser("classify", help="Kodaira types and signature of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_classify)

    p = add_parser("anomaly", help="anomaly-equation check at one base point")
    p.add_argument("--family", required=True)
    add_complex(p, "--at", "base point")
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=_cmd_anomaly)

    p = add_parser("holonomy", help="loop holonomy of a determinant line")
    p.add_argument("--family", required=True)
    add_complex(p, "--center", "loop center")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--operator", choices=("dbar", "signature"), required=True)
    p.add_argument("--orientation", choices=("cw", "ccw"), required=True)
    p.add_argument("--chart", choices=("u", "v"), default="u")
    p.add_argument("--samples", type=int, default=1024)
    p.set_defaults(func=_cmd_holonomy)

    p = add_parser("signature", help="surface signature via monodromy")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_signature)

    p = add_parser("scan", help="grid scan emitting plot data as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--grid", required=True, metavar="X0,X1,Y0,Y1,NX,NY")
    p.add_argument("--margin", type=float, default=0.05)
    p.set_defaults(func=_cmd_scan)
    return ap


_VALUE_FLAGS = {
    "--g2", "--g3", "--tau", "--two-omega", "--at", "--center", "--grid",
    "--out", "--family", "--radius", "--step", "--margin", "--samples",
    "--nu1", "--nu2", "--operator", "--orientation", "--chart",
}


def _join_flag_values(argv):
    """Rewrite ['--flag', '-3,1'] as ['--flag=-3,1'].

    argparse otherwise mistakes negative coordinates for option strings.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # inside the try: a complex flag's parser raises SchemaError
        args = parser.parse_args(_join_flag_values(argv))
        text = args.func(args)
        if isinstance(text, dict):
            text = json.dumps(text, indent=2) + "\n"
    except (SchemaError, ValueError) as exc:
        # ValueError covers input validation (e.g. tau outside the upper
        # half-plane, zero omega); both are caller errors, not domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UPlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
