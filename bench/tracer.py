"""Outside-in layer tracer for the uplane package, and the per-layer metrics.

The tracer wraps the public functions of each layer from outside the
program: every `uplane.*` namespace that binds one of those function objects
gets the wrapper, because geometry, cli, spectral, holonomy and kodaira call
their neighbours through `from .x import y` bindings that a patch of the
defining module alone would miss.  `ComplexPoly.__call__` is patched on the
class and only counted (its time stays in the caller's self time).

A span is [name, start, end, parent, request, horner, error]: parent is the
index of the enclosing span (-1 at top level), horner counts the
`ComplexPoly.__call__` calls made while the span was innermost, and error is 1
on the innermost span an `UPlaneError` passed through.  Spans stay in memory
until `dump`.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "cli": ("main",),
    "curves": ("load_family", "expand_discriminant", "discriminant_poly", "to_v_chart"),
    "periods": ("periods_along_family", "compute_periods", "cubic_roots", "agm"),
    "modular": ("dedekind_eta", "theta_ab", "eisenstein_e4", "eisenstein_e6", "j_from_tau",
                "epstein_zeta_logdet"),
    "spectral": ("modular_discriminant", "det_prime_laplacian", "det_twisted",
                 "det_dirichlet_annulus", "det_dirichlet_flat", "quillen_norm_from_periods"),
    "geometry": ("uplane_point", "scalar_curvature", "f1", "anomaly_check", "is_isotrivial"),
    "kodaira": ("find_singular_fibers", "classify_fiber", "surface_report"),
    "holonomy": ("holonomy", "curvature_ledger", "signature_from_monodromy"),
}
LAYERS = tuple(TRACED)
HORNER = "curves.ComplexPoly.__call__"
IMPORTS = ("uplane", "scipy", "numpy")


def _per_layer_units() -> dict:
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "1/item"
            units[f"{layer}.{name}.self_s"] = "s/item"
    units[HORNER + ".calls"] = "1/item"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/item"
        units[f"{layer}.errors"] = "1/item"
    units.update({
        "periods.agm_per_solve": "1/solve",
        "periods.eta_per_solve": "1/solve",
        "geometry.solves_per_item": "1/item",
        "holonomy.horner_evals_per_item": "1/item",
        "kodaira.roots_per_item": "1/item",
        "kodaira.roots_per_signature_request": "1/request",
        "curves.expansions_per_item": "1/item",
        "cli.self_share": "ratio",
        "trace.overhead_ratio": "ratio",
        "pace.kernel_ms": "ms",
        "wall.setup_s": "s",
        "wall.items_per_s": "items/s",
        "wall.latency_p50_ms": "ms",
    })
    for pkg in IMPORTS:
        units[f"import.{pkg}_s"] = "s"
    return units


#: every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    """Spans around the traced functions of an imported uplane package.

    Use as a context manager, or call install() and restore().  Set
    `request` before each top-level call; spans carry it as their request id.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []  # indices of the spans currently open, innermost last
        self._patched = []  # (owner, attribute, original)
        self._last_error = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        pkg = "uplane"
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        error_type = sys.modules[pkg + ".errors"].UPlaneError
        for layer, names in TRACED.items():
            home = sys.modules[f"{pkg}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._spanned(f"{layer}.{name}", original, error_type)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        poly = sys.modules[pkg + ".curves"].ComplexPoly
        self._patched.append((poly, "__call__", poly.__call__))
        poly.__call__ = self._counted(poly.__call__)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _spanned(self, name, fn, error_type):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._open
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    rec[6] = 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(poly, u):
            if tracer._open:
                tracer.spans[tracer._open[-1]][5] += 1
            return fn(poly, u)

        return counted

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list, items: int, request_kinds: dict) -> dict:
    """Per-layer metrics from spans, normalized per completed item.

    request_kinds maps request id to the CLI subcommand.  Self time is a
    span's duration minus the durations of its direct children (spans of one
    thread nest, so the children never overlap).  trace.overhead_ratio and
    the import.* metrics are not span data and are left to the caller.
    """
    n = len(spans)
    child_time = [0.0] * n
    calls, self_s = Counter(), defaultdict(float)
    horner, errors = Counter(), Counter()
    in_solve = [False] * n
    eta_in_solve = roots_in_signature = 0
    for i, (name, t0, t1, parent, req, h, err) in enumerate(spans):
        # parents precede their children, so in_solve[parent] is already final
        in_solve[i] = name == "periods.compute_periods" or (parent >= 0 and in_solve[parent])
        if name == "modular.dedekind_eta" and in_solve[i]:
            eta_in_solve += 1
        if name == "kodaira.find_singular_fibers" and request_kinds.get(req) == "signature":
            roots_in_signature += 1
        if parent >= 0:
            child_time[parent] += t1 - t0
    inclusive = defaultdict(float)
    for i, (name, t0, t1, parent, req, h, err) in enumerate(spans):
        layer = name.split(".")[0]
        calls[name] += 1
        inclusive[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_time[i]
        horner[layer] += h
        errors[layer] += err

    def per(x, base):
        return x / base if base else 0.0

    out = {}
    for layer, names in TRACED.items():
        for name in names:
            key = f"{layer}.{name}"
            out[key + ".calls"] = per(calls[key], items)
            out[key + ".self_s"] = per(self_s[key], items)
        out[f"{layer}.self_s"] = per(sum(self_s[f"{layer}.{nm}"] for nm in names), items)
        out[f"{layer}.errors"] = per(errors[layer], items)
    solves = calls["periods.compute_periods"]
    signature_requests = sum(1 for kind in request_kinds.values() if kind == "signature")
    out.update({
        HORNER + ".calls": per(sum(horner.values()), items),
        "periods.agm_per_solve": per(calls["periods.agm"], solves),
        "periods.eta_per_solve": per(eta_in_solve, solves),
        "geometry.solves_per_item": per(solves, items),
        "holonomy.horner_evals_per_item": per(horner["holonomy"], items),
        "kodaira.roots_per_item": per(calls["kodaira.find_singular_fibers"], items),
        "kodaira.roots_per_signature_request": per(roots_in_signature, signature_requests),
        "curves.expansions_per_item": per(calls["curves.expand_discriminant"], items),
        "cli.self_share": per(self_s["cli.main"], inclusive["cli.main"]),
    })
    return out


def parse_importtime(text: str) -> dict:
    """import.<pkg>_s from `python -X importtime` stderr.

    import.uplane_s is the cumulative time of importing the uplane package,
    dependencies included.  numpy and scipy are charged the self time of
    every module imported on their behalf: their own modules and whatever
    those pull in.
    """
    entries = []  # (depth, name, self seconds, cumulative seconds)
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cum, field = line[len("import time:"):].split("|")
        name = field.lstrip(" ")
        entries.append(((len(field) - len(name) - 1) // 2, name, int(own) * 1e-6, int(cum) * 1e-6))
    # a module is printed after its children: its parent is the next entry one
    # level up, so walking backwards visits every parent before its children
    owner = [None] * len(entries)
    next_at_depth = {}
    out = {f"import.{pkg}_s": 0.0 for pkg in IMPORTS}
    for i in range(len(entries) - 1, -1, -1):
        depth, name, own, cum = entries[i]
        parent = next_at_depth.get(depth - 1)
        next_at_depth[depth] = i
        top = name.split(".")[0]
        inherited = owner[parent] if parent is not None else None
        if top == "uplane" and inherited != "uplane":
            out["import.uplane_s"] += cum
        owner[i] = top if top in IMPORTS else inherited
        if owner[i] in ("numpy", "scipy"):
            out[f"import.{owner[i]}_s"] += own
    return out

