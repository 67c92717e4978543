"""Output checks, run after the timed phase; their verdicts feed failed_ratio.

Each check recomputes what it can from the request's inputs with the
benchmark's own arithmetic (workloads.py) or with mpmath, and compares it with
what `uplane.cli.main` printed.  An item fails when its request exits nonzero
or raises, when a scan point outside the margin has no row, or when a value is
out of tolerance.
"""

import cmath
import csv
import io
import json
import math
from fractions import Fraction

import mpmath as mp

from bench import workloads as wl

SCAN_HEADER = ["u_re", "u_im", "im_tau", "f1", "quillen_norm", "scalar_curvature"]
ANOMALY_HEADER = ["u_re", "u_im", "lhs", "rhs", "ratio"]


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


class Checker:
    """Verdicts for one workload's requests, given the fixture family dicts."""

    def __init__(self, families: dict):
        self.families = families
        self.nodes = {name: wl.nodes(fam) for name, fam in families.items()}
        self.delta_degree = {name: len(wl.delta_coeffs(fam)) - 1 for name, fam in families.items()}

    def attempted(self, req: dict) -> int:
        """Items a request is meant to produce: grid points outside the margin for scan, else 1."""
        if req["kind"] != "scan":
            return 1
        return len(self._scan_points(req))

    def check(self, req: dict, rc, out: str, error: str = None):
        """(attempted, completed, failed, problem) for one request's result."""
        n = self.attempted(req)
        if error is not None or rc != 0:
            return n, 0, n, f"exit {rc}: {error}" if error else f"exit {rc}"
        if req["kind"] == "scan":
            return self._check_scan(req, out, n)
        try:
            getattr(self, "_" + req["kind"].replace("-", "_"))(req, out)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            return 1, 1, 1, f"{type(exc).__name__}: {exc}"
        return 1, 1, 0, None

    # -- scan ---------------------------------------------------------------

    def _scan_points(self, req):
        pts = [z for z, _ in self.nodes[req["family"]]]
        return [
            (x, y) for x, y in wl.scan_grid(*req["grid"])
            if min(abs(complex(x, y) - z) for z in pts) >= req["margin"]
        ]

    def _check_scan(self, req, out, n):
        fam = self.families[req["family"]]
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != SCAN_HEADER:
            return n, 0, n, "missing scan header"
        by_point = {}
        for row in rows[1:]:
            try:
                by_point[(float(row[0]), float(row[1]))] = [float(v) for v in row[2:]]
            except (ValueError, IndexError):
                pass
        failed, problem = 0, None
        for x, y in self._scan_points(req):
            vals = by_point.pop((x, y), None)
            if vals is None:
                failed, problem = failed + 1, f"no row for u={complex(x, y)}"
                continue
            im_tau, f1, qn, s = vals
            qn_exact = abs(wl.delta_at(fam, complex(x, y))) ** (1.0 / 12.0)
            if not (im_tau > 0 and math.isfinite(f1) and math.isfinite(s) and s > 0
                    and _close(qn, qn_exact, 1e-12)):
                failed, problem = failed + 1, f"bad row at u={complex(x, y)}: {vals}"
        if by_point:
            # rows for points inside the margin, or for points never asked for
            failed, problem = failed + len(by_point), f"unexpected rows {sorted(by_point)}"
        return n, len(rows) - 1, min(failed, n), problem

    # -- signature workload -------------------------------------------------

    def _signature(self, req, out):
        d = json.loads(out)
        nf = req["nf"]
        _expect(d["signature"] == d["sign_z_surface"] == -nf, f"signature {d} != -{nf}")
        _expect(d["sign_zbar"] == -8, f"sign_zbar {d['sign_zbar']}")
        _expect(d["curvature_total"] == {"num": 2, "den": 1}, f"curvature {d['curvature_total']}")

    def _classify(self, req, out):
        d = json.loads(out)
        nf = req["nf"]
        if req["family"] == wl.COALESCED:
            expected = ["I2", "I2", "I2*"]
        else:
            expected = ["I1"] * (nf + 2) + [f"I{4 - nf}*"]
        labels = [f["kodaira"] for f in d["fibers"]]
        _expect(sorted(labels) == sorted(expected), f"configuration {labels}")
        _expect(d["total_euler"] == 12 and sum(f["euler"] for f in d["fibers"]) == 12,
                f"total Euler number {d['total_euler']}")

    def _ccw_winding(self, req) -> int:
        """Discriminant zeros (with multiplicity) inside the loop, in the loop's chart."""
        center, radius = _cx(req["center"]), req["radius"]
        zeros = self.nodes[req["family"]]
        if req["chart"] == "v":
            # v = -1/u; Delta_v vanishes at v = 0 to order 12 - deg Delta
            zeros = [(-1.0 / z, m) for z, m in zeros]
            zeros.append((0j, 12 - self.delta_degree[req["family"]]))
        return sum(m for z, m in zeros if abs(z - center) < radius)

    def _holonomy(self, req, out):
        d = json.loads(out)
        w = self._ccw_winding(req)
        if req["orientation"] == "cw":
            w = -w
        if req["operator"] == "signature":
            eta = Fraction(2, 3) * w
        else:
            eta = (Fraction(1, 3) * w) % 4
            if eta > 0:
                eta -= 4
        exact = cmath.exp(-0.5j * math.pi * float(eta))
        _expect(d["winding"] == w, f"winding {d['winding']} != {w}")
        _expect(d["log_monodromy"] == {"num": eta.numerator, "den": eta.denominator},
                f"log monodromy {d['log_monodromy']} != {eta}")
        _expect(abs(_cx(d["phase_exact"]) - exact) <= 1e-12, f"phase_exact {d['phase_exact']}")
        _expect(abs(_cx(d["phase"]) - exact) <= 1e-9, f"phase {d['phase']} vs {exact}")

    # -- anomaly ------------------------------------------------------------

    def _anomaly(self, req, out):
        rows = list(csv.reader(io.StringIO(out)))
        _expect(len(rows) == 2 and rows[0] == ANOMALY_HEADER, f"anomaly output {rows}")
        u_re, u_im, lhs, rhs, ratio = (float(v) for v in rows[1])
        _expect([u_re, u_im] == req["at"], f"base point {u_re},{u_im} != {req['at']}")
        if req["family"] == wl.ISOTRIVIAL:
            _expect(math.isnan(ratio), f"isotrivial ratio {ratio} is not NaN")
        else:
            _expect(abs(ratio - 2.0) <= 1e-3 * 2.0, f"anomaly ratio {ratio}")

    # -- fiber --------------------------------------------------------------

    def _periods(self, req, out):
        d = json.loads(out)
        g2, g3 = _cx(req["g2"]), _cx(req["g3"])
        tau = _cx(d["tau"])
        j_own = 1728.0 * g2**3 / (g2**3 - 27.0 * g3**2)
        with mp.workdps(30):
            j_mp = complex(1728 * mp.kleinj(mp.mpc(tau.real, tau.imag)))
        _expect(tau.imag > 0, f"Im tau {tau.imag}")
        _expect(d["eta_identity_rel_err"] <= 1e-9, f"eta identity {d['eta_identity_rel_err']}")
        _expect(abs(_cx(d["j_curve"]) - j_own) <= 1e-12 * abs(j_own), f"j_curve {d['j_curve']}")
        _expect(abs(_cx(d["j_curve"]) - j_mp) <= 1e-8 * max(1.0, abs(j_mp)),
                f"j_curve {d['j_curve']} vs kleinj {j_mp}")

    def _determinants(self, req, out):
        d = json.loads(out)
        _expect(d["tau"] == req["tau"], f"tau {d['tau']} != {req['tau']}")
        _expect(abs(math.prod(d["det_twisted"]) - 4.0) <= 1e-10, f"twisted {d['det_twisted']}")
        _expect(_close(d["det_dirichlet"] ** 2, d["det_prime"], 1e-12),
                f"det_dirichlet^2 {d['det_dirichlet'] ** 2} != det_prime {d['det_prime']}")

    def _zeta_oracle(self, req, out):
        d = json.loads(out)
        _expect(d["tau"] == req["tau"], f"tau {d['tau']} != {req['tau']}")
        _expect(d["rel_err_vs_closed"] <= 1e-8, f"rel_err_vs_closed {d['rel_err_vs_closed']}")
        _expect(_close(d["det"], d["closed_form"], 1e-8), f"det {d['det']} vs {d['closed_form']}")
