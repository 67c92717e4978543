import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from uplane import family_to_dict, sample_family

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uplane"


def test_no_assert_statement_in_src():
    # `python -O` strips assert statements; every check in the library raises instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_the_basis_move_has_one_home():
    # reduce_tau moves tau into F for the modular forms (modular) and moves a period
    # basis there (periods); every other module takes the basis periods hands it.
    # The package namespace only re-exports it.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("modular.py", "periods.py", "__init__.py")
        for name, line in _names(ast.parse(path.read_text(encoding="utf-8")))
        if name == "reduce_tau"
    ]
    assert found == []


def test_a_basis_eta_has_one_home():
    # a period basis carries its eta (Periods.eta, evaluated once per basis and, on a
    # solved basis, the eta that validated it); outside modular and periods nothing
    # evaluates dedekind_eta(<basis>.tau) again
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("modular.py", "periods.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dedekind_eta"
        and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "tau"
    ]
    assert found == []


def test_the_chart_change_has_one_home():
    # the v-chart polynomial is built in curves alone (to_v_chart, kept under the family
    # memo key "v_chart"); every other module reads Delta_v from there and the orders at
    # infinity from order_at_infinity (weight - degree).  Building one elsewhere means a
    # reversed store out[w - k] = +-c_k, or the memo key
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "curves.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "v_chart"
        or isinstance(node, (ast.Assign, ast.AugAssign)) and any(
            isinstance(t, ast.Subscript) and isinstance(t.slice, ast.BinOp)
            and isinstance(t.slice.op, ast.Sub)
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))
    ]
    assert found == []


def test_each_cli_flag_has_one_home():
    # cli's command table declares each flag once, and the holonomy choices are the
    # values of the Operator, Orientation and Chart enums
    strings = [node.value for node in ast.walk(ast.parse((SRC / "cli.py").read_text("utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    flags = [s for s in strings if s.startswith("--") and " " not in s]
    assert len(flags) > 15
    assert sorted(f for f in set(flags) if flags.count(f) > 1) == []
    assert {"dbar", "ccw", "cw"} & set(strings) == set()


def test_no_module_imports_scipy():
    # numpy is the only run-time dependency; the lattice-zeta oracle's E1 is modular._exp1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in used]


def test_every_import_is_used():
    # __init__.py imports to re-export
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) > 20
    assert [name for path in paths for name in _unused_imports(path)] == []


def test_np_roots_only_in_the_root_finders():
    # kodaira finds a family's singular fibers once, by np.roots of Delta in
    # `find_singular_fibers`; holonomy reads the zeros of either chart from the singular
    # fibers, and periods takes a fiber's cubic roots in closed form.  np.roots appears
    # nowhere else, and eigvals nowhere (modular's Gauss-Laguerre nodes are eigvalsh's)
    found, home_calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = range(0)
        if path.name == "kodaira.py":
            finder = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name == "find_singular_fibers")
            home = range(finder.lineno, finder.end_lineno + 1)
        found += [name for name, _ in _names(tree) if name == "eigvals"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "roots"
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                (home_calls if node.lineno in home else found).append("np.roots")
    assert home_calls == ["np.roots"]
    assert found == []


def _numpy_imports(name: str) -> list:
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return [m for m in modules if m and m.split(".")[0] == "numpy"]


def test_the_period_solve_imports_no_numpy():
    # the period solve is scalar Python: cmath and math only
    assert _numpy_imports("periods.py") == []


def test_the_curves_module_imports_no_numpy():
    # polynomials and families are scalar Python; the array Horner of contour sampling
    # lives with its one caller, holonomy
    assert _numpy_imports("curves.py") == []


def test_scalar_commands_load_no_numpy(tmp_path):
    # numpy is imported inside the functions that use it (root finding, contour sampling,
    # the lattice-zeta oracle), so uplane.cli and the periods, determinants and anomaly
    # requests leave it unloaded; classify, which finds roots, loads it
    family = tmp_path / "nf0.json"
    family.write_text(json.dumps(family_to_dict(sample_family(0))))
    requests = [["periods", "--g2", "1,0.5", "--g3", "0.2,0"],
                ["determinants", "--tau", "0.1,1.1", "--two-omega", "1,0"],
                ["anomaly", "--family", str(family), "--at", "0.3,0.9"],
                ["classify", "--family", str(family)]]
    script = (
        "import contextlib, io, json, sys\n"
        "import uplane.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        loaded.append((uplane.cli.main(argv), 'numpy' in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [0, False], [0, False], [0, False], [0, True]]


def test_the_contour_integral_has_one_home():
    # holonomy._ccw_winding samples every loop: it alone calls the array Horner and the
    # cached unit circle, and nothing else builds a circle of samples
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        homes = {node.name: range(node.lineno, node.end_lineno + 1) for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        for name, line in _names(tree):
            home = {"_horner": "_ccw_winding", "_rim": "_ccw_winding",
                    "linspace": "_rim"}.get(name)
            if home and (path.name != "holonomy.py" or line not in homes[home]):
                found.append(f"{path.name}:{line} {name}")
    assert found == []


def test_no_two_argument_round_in_src():
    # round(x, ndigits) goes through a decimal conversion, about a microsecond a call,
    # too slow for a hash key in a hot path; round(x) to an integer is cheap and stays
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "round" and len(node.args) + len(node.keywords) > 1
    ]
    assert found == []


def _library_api_names() -> list:
    """The names the README's "Library API" subsection keeps, each on a bullet
    "- `name`: reason"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Library API\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^- `(\w+)`: \S", section, re.M)


def test_every_public_name_is_reached():
    # one route per quantity: a public module-level name of src stays if a demo, the
    # benchmark tracer's TRACED table or the README's "Library API" list reaches it,
    # directly or through the code of the names they reach; __init__ only re-exports
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from bench.tracer import TRACED

    defs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    kept = _library_api_names()
    assert kept and sorted(set(kept) - set(defs)) == []
    reached = {name for names in TRACED.values() for name in names} | set(kept)
    for path in sorted((ROOT / "demos").glob("*.py")):
        reached |= {name for name, _ in _names(ast.parse(path.read_text(encoding="utf-8")))}
    todo = list(reached)
    while todo:
        for node in defs.get(todo.pop(), ()):
            new = {name for name, _ in _names(node)} - reached
            reached |= new
            todo += new
    assert sorted(name for name in defs if not name.startswith("_") and name not in reached) == []
