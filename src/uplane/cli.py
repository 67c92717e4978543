"""Command-line front end.

Exit codes: 0 success, 1 domain errors (singular fibers, failed validation),
2 input/schema errors.  All diagnostics go to stderr; the result goes to
--out or stdout and is byte-deterministic for identical inputs.  A JSON command's
top-level dict holds library values as they are, and `_json` alone encodes them
(complex numbers as [re, im], exact rationals as {"num": ..., "den": ...}, a dataclass
field by field); CSV uses scientific notation with 17 digits after the point (18
significant digits), so doubles round-trip.  The text of `classify` and `signature`
depends on the family alone, so each is rendered once per family and kept in its memo
(`CurveFamily.cached`).
"""

import argparse
import cmath
import dataclasses
import enum
import json
import math
import sys
from fractions import Fraction

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
from .periods import Periods, compute_periods, periods_along_family, reduce_periods


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


def _json(value):
    """The JSON form of a library value json cannot write itself (`json.dumps`'s default=):
    an enum is its value (AT_INFINITY's is "infinity") and a Kodaira type its label."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, kodaira.KodairaType):
        return value.label
    # a loop or a fiber report, in field order; fields() raises TypeError for the rest
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def _render(result: dict) -> str:
    """The text of a JSON command's result: the one encoding of every JSON command."""
    return json.dumps(result, indent=2, default=_json) + "\n"


#: the CSV rows of anomaly and scan, one %-format each: "%.17e" writes a float as
#: f"{x:.17e}" does
_ANOMALY_ROW, _SCAN_ROW = (",".join(["%.17e"] * fields) for fields in (5, 6))


def _periods_from_tau(tau: complex, two_omega: complex):
    """The basis (omega, tau omega), whose eta refuses Im tau <= 0, the basis of its lattice
    with tau in F, and the matrix from the first to the second (`reduce_periods`)."""
    omega = two_omega / 2.0
    p = Periods(omega=omega, omega_prime=tau * omega, tau=tau)
    reduced, matrix = reduce_periods(p)
    if reduced.tau.imag > 100.0:  # eta^24 ~ e^{-2 pi Im tau} nears underflow
        raise ValueError(f"tau = {tau} reduces into the fundamental domain above Im tau = 100;"
                         " determinants need 0 < Im tau <= 100 there")
    # (2 omega)^12 and (2 pi)^12 eta^24 / (2 omega)^12 stay normal doubles on F up to Im tau 100
    for basis, where in ((p, ""), (reduced, " on the reduced basis")):
        if not 1e-20 <= 2.0 * abs(basis.omega) <= 1e3:  # |2 omega| may pass the double range
            raise ValueError(f"2 omega = {2.0 * basis.omega}{where} (tau = {basis.tau}) is outside"
                             " the supported range 1e-20 <= |2 omega| <= 1e3")
    return p, reduced, matrix


def _cmd_periods(args) -> dict:
    curve = WeierstrassCurve(g2=args.g2, g3=args.g3)
    p = compute_periods(curve)
    delta = discriminant(curve)
    mod_delta = spectral.modular_discriminant(p)
    rel = abs(mod_delta - delta) / abs(delta)
    return {
        "omega": p.omega,
        "omega_prime": p.omega_prime,
        "tau": p.tau,
        "q": p.q,
        "eta_identity_rel_err": rel,
        "j_curve": j_invariant(curve),
        "j_tau": modular.klein_j(modular.eisenstein_in_f(p.q)[0], p.eta),
    }


def _cmd_determinants(args) -> dict:
    # det_dirichlet_flat depends on the basis and takes the given one; the rest take the reduced one
    p, reduced, matrix = _periods_from_tau(args.tau, args.two_omega)
    return {
        "tau": p.tau,
        "q": p.q,
        "det_prime": spectral.det_prime_laplacian(reduced),
        "det_twisted": [spectral.det_twisted(nu.moved(*matrix), reduced)
                        for nu in modular.EVEN_STRUCTURES],
        "det_dirichlet": spectral.det_dirichlet_annulus(reduced),
        "det_dirichlet_flat": spectral.det_dirichlet_flat(p),
        "quillen_norm": spectral.quillen_norm_from_periods(reduced),
    }


def _cmd_zeta_oracle(args) -> dict:
    nu = modular.SpinStructure(args.nu1, args.nu2)
    _, p, matrix = _periods_from_tau(args.tau, args.two_omega)
    moved = nu.moved(*matrix)
    logdet = modular.epstein_zeta_logdet(moved, p.tau, p.omega)
    if nu.is_odd:
        closed = spectral.CONTINUATION_OVER_CLOSED_FORM * spectral.det_prime_laplacian(p)
        kind = "det_prime_times_4pi2"
    else:
        closed = spectral.det_twisted(moved, p)
        kind = "theta_over_eta_squared"
    det = math.exp(logdet)
    return {
        "tau": args.tau,
        "nu": [nu.nu1, nu.nu2],
        "log_det": logdet,
        "det": det,
        "closed_form": closed,
        "closed_form_kind": kind,
        "rel_err_vs_closed": abs(det - closed) / closed,
    }


def _classify_text(family) -> str:
    report = family.cached("report", kodaira.surface_report)
    return _render({
        "family": family.name,
        "nf": family.nf,
        "fibers": report.fibers,
        "total_euler": report.total_euler,
        "sign_zbar": report.sign_zbar,
        "sign_z": report.sign_z,
    })


def _cmd_classify(args) -> str:
    return load_family(args.family).cached("classify_text", _classify_text)


def _cmd_anomaly(args) -> str:
    family = load_family(args.family)
    rec = geometry.anomaly_check(family, args.at, h=args.step)
    header = "u_re,u_im,lhs,rhs,ratio"
    row = _ANOMALY_ROW % (args.at.real, args.at.imag, rec.lhs, rec.rhs, rec.ratio)
    return header + "\n" + row + "\n"


def _cmd_holonomy(args) -> dict:
    family = load_family(args.family)
    res = holonomy(Operator(args.operator), family, LoopSpec(
        center=args.center,
        radius=args.radius,
        samples=args.samples,
        orientation=Orientation(args.orientation),
        chart=Chart(args.chart),
    ))
    return {
        "family": family.name,
        "operator": res.operator,
        "loop": res.loop,  # --samples is a floor; this is the count integrated
        "winding": res.winding,
        "log_monodromy": res.log_monodromy,
        "phase": res.phase,
        "phase_exact": res.phase_exact,
    }


def _signature_text(family) -> str:
    # the signature and the ledger read the family's fiber rows, integrated once, and
    # the signature its surface report, built once
    report = family.cached("report", kodaira.surface_report)
    sig = signature_from_monodromy(family)
    ledger = curvature_ledger(family)
    return _render({
        "family": family.name,
        "nf": family.nf,
        "signature": sig,
        "sign_zbar": report.sign_zbar,
        "sign_z_surface": report.sign_z,
        "curvature_total": ledger.total,
    })


def _cmd_signature(args) -> str:
    # kept only once rendered: a refused cross-check raises again on every call
    return load_family(args.family).cached("signature_text", _signature_text)


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
        if not all(math.hypot(x, y) < math.inf for x in (x0, x1) for y in (y0, y1)):
            raise ValueError("a grid corner has a modulus beyond the double range")
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
                delta = d(u)  # one Horner for the curvature and the Quillen norm
                s = geometry.scalar_curvature(family, u, p, delta)
            except UPlaneError as exc:
                print(f"scan: skipping u={u} ({exc})", file=sys.stderr)
                continue
            f1_val = geometry.f1_from_periods(p)
            qn = abs(delta) ** (1.0 / 12.0)
            lines.append(_SCAN_ROW % (x, y, p.tau.imag, f1_val, qn, s))
    return "\n".join(lines) + "\n"


def _flag(flag: str, **kw):
    """One option of a command: its flag and the keyword arguments of add_argument."""
    return flag, kw


def _complex(flag: str, what: str):
    """A required RE,IM option; `_parse_complex` names `what` in its errors."""
    return _flag(flag, type=lambda text: _parse_complex(text, what), required=True,
                 metavar="RE,IM")


def _values(enum) -> tuple:
    return tuple(member.value for member in enum)


_OUT = _flag("--out", help="output path (default: stdout)")
_FAMILY = _flag("--family", required=True)
_TAU = _complex("--tau", "tau")
_TWO_OMEGA = _complex("--two-omega", "2 omega")
_SPIN = {"type": int, "choices": (0, 1), "required": True}

#: every command: name, help line, handler and its options in the order --help lists
#: them, after --out.  The parser, the dispatch and _VALUE_FLAGS are read from here.
_COMMANDS = (
    ("periods", "half-periods and modulus of one curve", _cmd_periods,
     (_complex("--g2", "g2"), _complex("--g3", "g3"))),
    ("determinants", "determinant zoo at a fiber (tau, 2*omega)", _cmd_determinants,
     (_TAU, _TWO_OMEGA)),
    ("zeta-oracle", "lattice-zeta continuation determinant", _cmd_zeta_oracle,
     (_TAU, _flag("--nu1", **_SPIN), _flag("--nu2", **_SPIN), _TWO_OMEGA)),
    ("classify", "Kodaira types and signature of a family", _cmd_classify, (_FAMILY,)),
    ("anomaly", "anomaly-equation check at one base point", _cmd_anomaly,
     (_FAMILY, _complex("--at", "base point"), _flag("--step", type=float))),
    ("holonomy", "loop holonomy of a determinant line", _cmd_holonomy,
     (_FAMILY, _complex("--center", "loop center"), _flag("--radius", type=float, required=True),
      _flag("--operator", choices=_values(Operator), required=True),
      _flag("--orientation", choices=_values(Orientation), required=True),
      _flag("--chart", choices=_values(Chart), default=Chart.U.value),
      _flag("--samples", type=int, default=LoopSpec.samples))),
    ("signature", "surface signature via monodromy", _cmd_signature, (_FAMILY,)),
    ("scan", "grid scan emitting plot data as CSV", _cmd_scan,
     (_FAMILY, _flag("--grid", required=True, metavar="X0,X1,Y0,Y1,NX,NY"),
      _flag("--margin", type=float, default=0.05))),
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uplane",
        description="Determinant-line and fiber-geometry computations for "
        "Weierstrass elliptic families over the u-plane.",
    )
    common = argparse.ArgumentParser(add_help=False)  # a parent shares one --out action
    flag, kw = _OUT
    common.add_argument(flag, **kw)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_line, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_line, parents=[common])
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(func=handler)
    return ap


#: every option takes a value
_VALUE_FLAGS = frozenset(flag for *_, options in _COMMANDS for flag, _ in (_OUT, *options))
#: every option string of the parser
_OPTION_STRINGS = _VALUE_FLAGS | {"-h", "--help"}


def _join_flag_values(argv):
    """Rewrite ['--flag', '-3,1'] as ['--flag=-3,1'], unless the token after the flag is an
    option string itself: argparse then reports the flag's missing value.

    argparse otherwise mistakes negative coordinates for option strings.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok not in _OPTION_STRINGS:
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
            text = _render(text)
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
