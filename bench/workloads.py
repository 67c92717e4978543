"""Seeded request streams for the four benchmark workloads.

The program sees only the fixture family files and the argv lists built here.
A workload is an endless sequence of cycles; cycle k is a pure function of
(workload, seed, k).  Every cycle has the same mix of families, request kinds
and strata (the seed fixes the family order and draws positions inside each
stratum), so a run that completes whole cycles does the same kind of work
whatever the seed.  That is what keeps the run-to-run spread small.

The geometry used to place requests (nodes, critical points of j) is the
benchmark's own numpy arithmetic on the family coefficients, not the
program's.
"""

import cmath
import math
import random

import numpy as np

WORKLOADS = ("scan", "signature", "anomaly", "fiber")

SAMPLE_NAMES = tuple(f"nf{nf}" for nf in range(5))
COALESCED = "nf2-coalesced"
ISOTRIVIAL = "nf4-isotrivial"

#: scan tiles are 3 x 3 grids of this half-width range; points within SCAN_MARGIN
#: of a node are skipped
TILE_HALF_WIDTH = (0.08, 0.12)
SCAN_MARGIN = 0.05
#: holonomy sample counts, rotated so each cycle uses each of them equally often
HOLONOMY_SAMPLES = (256, 1024, 4096)
#: a base point is a lattice cell centre moved by at most this much in each coordinate
JITTER = 0.15
_REACH = JITTER * math.sqrt(2.0)
#: fiber moduli: 8 x 8 cells over |Re tau| <= 2 and log-spaced Im tau in [0.1, 3]; the
#: lowest bands are below the eta reduction threshold Im tau = 0.5.  Below Im tau ~ 0.07
#: the program's theta series (summed without modular reduction) loses accuracy and the
#: product of the even twisted determinants misses 4 by up to 2e-9, so the range stops short.
RE_TAU_CELLS = tuple(-1.75 + 0.5 * i for i in range(8))
IM_TAU_EDGES = tuple(0.1 * 30.0 ** (i / 8) for i in range(9))
SPIN_STRUCTURES = ((0, 0), (0, 1), (1, 0), (1, 1))


def fixture_families() -> dict:
    """Family JSON dicts, keyed by name, exactly as written to the fixture files."""
    from uplane import coalesced_family, family_to_dict, isotrivial_family, sample_family

    fams = [sample_family(nf) for nf in range(5)] + [coalesced_family(), isotrivial_family()]
    return {f.name: family_to_dict(f) for f in fams}


def coeffs(fam: dict, key: str) -> list:
    """Ascending complex coefficients of g2 or g3 from a family dict."""
    return [complex(re, im) for re, im in fam[key]]


def horner(cs, u: complex) -> complex:
    acc = 0j
    for c in reversed(cs):
        acc = acc * u + c
    return acc


def delta_at(fam: dict, u: complex) -> complex:
    """g2(u)^3 - 27 g3(u)^2, evaluated directly (no expanded discriminant)."""
    g2 = horner(coeffs(fam, "g2"), u)
    g3 = horner(coeffs(fam, "g3"), u)
    return g2**3 - 27.0 * g3**2


def _trim(c: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(c))
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= 1e-12 * scale:
        n -= 1
    return c[:n]


def delta_coeffs(fam: dict) -> np.ndarray:
    """Ascending coefficients of the discriminant, leading cancellation dust removed."""
    P = np.polynomial.polynomial
    g2 = np.array(coeffs(fam, "g2"))
    g3 = np.array(coeffs(fam, "g3"))
    return _trim(P.polysub(P.polypow(g2, 3), 27.0 * P.polypow(g3, 2)))


def _roots(asc: np.ndarray) -> list:
    if len(asc) < 2:
        return []
    return [complex(z) for z in np.roots(asc[::-1])]


def nodes(fam: dict) -> list:
    """Discriminant zeros as (location, multiplicity), near-equal roots merged."""
    raw = _roots(delta_coeffs(fam))
    tol = 1e-6 * (1.0 + max(abs(z) for z in raw))
    clusters = []
    for z in raw:
        for c in clusters:
            if abs(z - c[0] / c[1]) < tol:
                c[0] += z
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    return [(c[0] / c[1], c[1]) for c in clusters]


def j_critical_points(fam: dict) -> list:
    """Zeros of g2 and of 3 g2' Delta - g2 Delta' (where dj/du vanishes).

    Near a point where tau'(u) = 0 the anomaly ratio is 0/0, so anomaly base
    points keep away from all of these (the g3 zeros among them are harmless
    but cheap to avoid too).
    """
    P = np.polynomial.polynomial
    g2 = np.array(coeffs(fam, "g2"))
    d = delta_coeffs(fam)
    num = P.polysub(3.0 * P.polymul(P.polyder(g2), d), P.polymul(g2, P.polyder(d)))
    out = _roots(_trim(g2))
    if np.max(np.abs(num)) > 0:
        out += _roots(_trim(num))
    return out


def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _strided(items: list) -> list:
    """items in a fixed order that strides through them, so that any run of
    consecutive entries is spread over the whole list."""
    n = len(items)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [items[(i * stride) % n] for i in range(n)]


def _cells(step: float, r0: float, r1: float, avoid, gap: float) -> list:
    """Square-lattice cell centres with r0 <= |c| <= r1, at least gap from avoid, strided."""
    n = int(r1 / step)
    grid = [complex(i * step, j * step) for i in range(-n, n + 1) for j in range(-n, n + 1)]
    return _strided([c for c in grid
                     if r0 <= abs(c) <= r1 and all(abs(c - z) >= gap for z in avoid)])


def _jitter(rng, c: complex) -> complex:
    return c + complex(rng.uniform(-JITTER, JITTER), rng.uniform(-JITTER, JITTER))


def scan_grid(x0: float, x1: float, y0: float, y1: float, nx: int, ny: int) -> list:
    """Grid points in the order and arithmetic of `uplane scan`."""
    pts = []
    for iy in range(ny):
        for ix in range(nx):
            x = x0 if nx == 1 else x0 + (x1 - x0) * ix / (nx - 1)
            y = y0 if ny == 1 else y0 + (y1 - y0) * iy / (ny - 1)
            pts.append((x, y))
    return pts


class Stream:
    """The request sequence of one workload for one seed.

    Requests are dicts with the argv handed to `uplane.cli.main` and the
    parameters the output checks need.
    """

    def __init__(self, workload: str, seed: int, families: dict, paths: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.families = families
        self.paths = paths
        self.nodes = {name: nodes(fam) for name, fam in families.items()}
        members = {
            "scan": SAMPLE_NAMES,
            "signature": SAMPLE_NAMES + (COALESCED,),
            "anomaly": SAMPLE_NAMES + (ISOTRIVIAL,),
            "fiber": (),
        }[workload]
        self.order = random.Random(f"{workload}/{seed}").sample(members, len(members))
        # Positions come from fixed, seed-independent cell lists; the seed only
        # moves a point inside its cell.  A run therefore covers the same cells
        # whatever the seed, which keeps its cost from depending on the seed.
        self.cells = {}
        for name in members:
            pts = [z for z, _ in self.nodes[name]]
            if workload == "scan":
                # tiles at least 0.2 from every node, plus one tile centred on each node
                reach = 0.2 + TILE_HALF_WIDTH[1] * math.sqrt(2.0) + _REACH
                self.cells[name] = _strided(
                    [(c, False) for c in _cells(0.7, 0.0, 2.6, pts, reach)]
                    + [(z, True) for z in pts])
            elif workload == "anomaly":
                # |u| >= 0.5 and 0.3 away from nodes and from points where tau'(u) = 0
                avoid = pts if name == ISOTRIVIAL else pts + j_critical_points(families[name])
                self.cells[name] = _cells(0.6, 0.5 + _REACH, 2.8 - _REACH, avoid, 0.3 + _REACH)
        self.tau_cells = _strided([(i, j) for i in range(8) for j in range(8)])

    def cycle(self, k: int) -> list:
        rng = random.Random(f"{self.workload}/{self.seed}/{k}")
        return getattr(self, "_" + self.workload)(rng, k)

    def _scan(self, rng, k):
        reqs = []
        for name in self.order:
            cells = self.cells[name]
            c, on_node = cells[k % len(cells)]
            s = rng.uniform(*TILE_HALF_WIDTH)
            if not on_node:  # a node tile's centre point takes the margin path
                c = _jitter(rng, c)
            grid = (c.real - s, c.real + s, c.imag - s, c.imag + s, 3, 3)
            spec = ",".join(repr(v) for v in grid)
            reqs.append({
                "kind": "scan", "family": name, "grid": list(grid), "margin": SCAN_MARGIN,
                "argv": ["scan", "--family", self.paths[name], "--grid", spec,
                         "--margin", repr(SCAN_MARGIN)],
            })
        return reqs

    def _anomaly(self, rng, k):
        reqs = []
        for name in self.order:
            cells = self.cells[name]
            # the isotrivial family runs with the demo's step
            extra = ["--step", "0.01"] if name == ISOTRIVIAL else []
            for c in (cells[(2 * k) % len(cells)], cells[(2 * k + 1) % len(cells)]):
                u = _jitter(rng, c)
                reqs.append({
                    "kind": "anomaly", "family": name, "at": [u.real, u.imag],
                    "argv": ["anomaly", "--family", self.paths[name], "--at", _c(u)] + extra,
                })
        return reqs

    def _signature(self, rng, k):
        reqs = []
        for i, name in enumerate(self.order):
            path = self.paths[name]
            fam = self.families[name]
            reqs.append({"kind": "signature", "family": name, "nf": fam["nf"],
                         "argv": ["signature", "--family", path]})
            reqs.append({"kind": "classify", "family": name, "nf": fam["nf"],
                         "argv": ["classify", "--family", path]})
            pts = [z for z, _ in self.nodes[name]]
            z = rng.choice(pts)
            r = rng.uniform(0.25, 0.4) * min(abs(z - w) for w in pts if w != z)
            node_loop = (z + cmath.rect(rng.uniform(0.0, 0.25) * r, rng.uniform(0, 2 * math.pi)),
                         r, "u", HOLONOMY_SAMPLES[(k + i) % 3])
            rv = rng.uniform(0.3, 0.6) * min(1.0 / abs(w) for w in pts)
            inf_loop = (cmath.rect(rng.uniform(0.0, 0.2) * rv, rng.uniform(0, 2 * math.pi)),
                        rv, "v", HOLONOMY_SAMPLES[(k + i + 1) % 3])
            for center, radius, chart, samples in (node_loop, inf_loop):
                op = rng.choice(("dbar", "signature"))
                orient = rng.choice(("cw", "ccw"))
                reqs.append({
                    "kind": "holonomy", "family": name, "center": [center.real, center.imag],
                    "radius": radius, "chart": chart, "operator": op, "orientation": orient,
                    "argv": ["holonomy", "--family", path, "--center", _c(center),
                             "--radius", repr(radius), "--operator", op,
                             "--orientation", orient, "--chart", chart,
                             "--samples", str(samples)],
                })
        return reqs

    def _fiber(self, rng, k):
        reqs = []
        for j in range(4):
            re_cell, im_cell = self.tau_cells[(4 * k + j) % len(self.tau_cells)]
            tau = complex(RE_TAU_CELLS[re_cell] + rng.uniform(-0.25, 0.25),
                          rng.uniform(IM_TAU_EDGES[im_cell], IM_TAU_EDGES[im_cell + 1]))
            two_omega = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
            common = ["--tau", _c(tau), "--two-omega", _c(two_omega)]
            reqs.append({"kind": "determinants", "tau": [tau.real, tau.imag],
                         "argv": ["determinants"] + common})
            for nu1, nu2 in SPIN_STRUCTURES:
                reqs.append({"kind": "zeta-oracle", "tau": [tau.real, tau.imag],
                             "argv": ["zeta-oracle"] + common
                             + ["--nu1", str(nu1), "--nu2", str(nu2)]})
            while True:
                g2 = 2.0 * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                g3 = 2.0 * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                if abs(g2**3 - 27.0 * g3**2) >= 1e-3 * (abs(g2) ** 3 + 27.0 * abs(g3) ** 2):
                    break
            reqs.append({"kind": "periods", "g2": [g2.real, g2.imag], "g3": [g3.real, g3.imag],
                         "argv": ["periods", "--g2", _c(g2), "--g3", _c(g3)]})
        return reqs

