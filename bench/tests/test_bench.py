"""Tests of the benchmark's own code: tracer arithmetic and patching, the
seeded generator, the output checks and the metric lists.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

import uplane  # noqa: E402
from uplane import cli, curves, geometry, sample_family  # noqa: E402

from bench import checks, pace, run, tracer, workloads  # noqa: E402


def _span(name, t0, t1, parent, request=0, horner=0, error=0):
    return [name, t0, t1, parent, request, horner, error]


def test_self_time_of_synthetic_nested_call():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("geometry.anomaly_check", 1.0, 9.0, 0),
        _span("periods.compute_periods", 2.0, 5.0, 1, horner=4),
        _span("periods.agm", 2.5, 3.0, 2),
        _span("periods.agm", 3.0, 4.0, 2),
        _span("modular.dedekind_eta", 4.0, 4.5, 2),
        _span("modular.dedekind_eta", 6.0, 7.0, 1),
    ]
    m = tracer.summarize(spans, items=2, request_kinds={0: "anomaly"})
    assert m["cli.main.self_s"] == pytest.approx(2.0 / 2)
    assert m["geometry.anomaly_check.self_s"] == pytest.approx((8.0 - 3.0 - 1.0) / 2)
    assert m["periods.compute_periods.self_s"] == pytest.approx((3.0 - 1.5 - 0.5) / 2)
    assert m["periods.agm.self_s"] == pytest.approx(1.5 / 2)
    assert m["modular.self_s"] == pytest.approx(1.5 / 2)
    assert m["periods.agm.calls"] == 1.0
    assert m["periods.agm_per_solve"] == 2.0
    assert m["periods.eta_per_solve"] == 1.0  # the eta under anomaly_check is not in a solve
    assert m["geometry.solves_per_item"] == 0.5
    assert m[tracer.HORNER + ".calls"] == 2.0
    assert m["cli.self_share"] == pytest.approx(0.2)


def test_from_imported_call_is_traced_and_originals_restored():
    bindings = {
        (name, attr): value
        for name, mod in list(sys.modules.items()) if name.split(".")[0] == "uplane"
        for attr, value in vars(mod).items()
    }
    poly_call = curves.ComplexPoly.__call__
    fam = sample_family(0)
    with tracer.Tracer() as tr:
        tr.request = 7
        geometry.f1(fam, 0.3 + 0.9j)
    names = [s[0] for s in tr.spans]
    assert names[0] == "geometry.f1"
    # geometry binds det_prime_laplacian with `from .spectral import ...`
    det = names.index("spectral.det_prime_laplacian")
    assert tr.spans[det][3] == 0
    assert {s[4] for s in tr.spans} == {7}
    assert sum(s[5] for s in tr.spans) > 0  # curve_at evaluates g2, g3 by Horner
    for (modname, attr), value in bindings.items():
        assert vars(sys.modules[modname])[attr] is value, (modname, attr)
    assert curves.ComplexPoly.__call__ is poly_call


def test_uplane_error_counted_once_at_innermost_layer():
    fam = sample_family(0)
    with tracer.Tracer() as tr, pytest.raises(uplane.UPlaneError):
        geometry.f1(fam, 1.0 + 0j)  # a node of nf0
    m = tracer.summarize(tr.spans, items=1, request_kinds={})
    assert sum(m[f"{layer}.errors"] for layer in tracer.LAYERS) == 1


def test_generator_is_deterministic_and_mix_is_seed_independent():
    fams = workloads.fixture_families()
    paths = {name: f"{name}.json" for name in fams}

    def shape(cycle):
        return sorted((r["kind"], r.get("family", "")) for r in cycle)

    for w in workloads.WORKLOADS:
        a = workloads.Stream(w, 3, fams, paths)
        b = workloads.Stream(w, 3, fams, paths)
        c = workloads.Stream(w, 4, fams, paths)
        assert [a.cycle(k) for k in range(4)] == [b.cycle(k) for k in range(4)]
        assert a.cycle(0) != c.cycle(0)
        assert shape(a.cycle(0)) == shape(c.cycle(0)) == shape(a.cycle(1))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    fams = workloads.fixture_families()
    paths = {}
    for name, fam in fams.items():
        paths[name] = str(d / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(fam))
    return fams, paths


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_perturbed_outputs_are_counted_as_failed(fixture_dir):
    fams, paths = fixture_dir
    checker = checks.Checker(fams)
    stream = workloads.Stream("scan", 1, fams, paths)
    name = stream.order[0]
    k = next(i for i, (_, on_node) in enumerate(stream.cells[name]) if on_node)
    node_tile = next(r for r in stream.cycle(k) if r["family"] == name)
    rc, out = _cli(node_tile["argv"])
    assert checker.check(node_tile, rc, out) == (8, 8, 0, None)

    lines = out.splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))  # quillen_norm off by 1e-9
    bad = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    attempted, completed, failed, problem = checker.check(node_tile, rc, bad)
    assert (attempted, failed) == (8, 1) and "bad row" in problem
    dropped = "\n".join(lines[:-1]) + "\n"
    assert checker.check(node_tile, rc, dropped)[2] == 1
    assert checker.check(node_tile, 1, "")[2] == 8

    periods = next(r for r in workloads.Stream("fiber", 1, fams, paths).cycle(0)
                   if r["kind"] == "periods")
    rc, out = _cli(periods["argv"])
    assert checker.check(periods, rc, out)[2] == 0
    d = json.loads(out)
    d["j_curve"][0] += 1e-6 * abs(complex(*d["j_curve"]))
    assert checker.check(periods, rc, json.dumps(d))[2] == 1


def test_holonomy_expectation_matches_program(fixture_dir):
    fams, paths = fixture_dir
    checker = checks.Checker(fams)
    cycle = workloads.Stream("signature", 2, fams, paths).cycle(0)
    loops = [r for r in cycle if r["kind"] == "holonomy"]
    assert {r["chart"] for r in loops} == {"u", "v"}
    for req in loops:
        rc, out = _cli(req["argv"])
        assert checker.check(req, rc, out) == (1, 1, 0, None), req["argv"]


def test_parse_importtime_partitions_by_package():
    # children print before their parent, indented one level deeper
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         _stdlib_helper",
        "import time:       200 |        300 |       numpy.core",
        "import time:        50 |        350 |     numpy",
        "import time:        70 |         70 |       numpy.linalg",
        "import time:        30 |        100 |     scipy.special",
        "import time:        10 |        460 |   uplane.modular",
        "import time:         5 |        465 | uplane",
        "import time:        40 |         40 | json",
    ])
    m = tracer.parse_importtime(text)
    assert m["import.numpy_s"] == pytest.approx(350e-6 + 70e-6)
    assert m["import.scipy_s"] == pytest.approx(30e-6)
    assert m["import.uplane_s"] == pytest.approx(465e-6)


def test_latency_stats_nearest_rank_tail():
    p50, tail, beyond = run.latency_stats([i / 1000.0 for i in range(1, 201)])
    assert (p50, tail, beyond) == pytest.approx((100.5, 190.0, 10))


def test_pace_factors_use_the_bracketing_samples():
    nominal = pace.NOMINAL_S
    samples = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert pace.factors(samples, 3) == pytest.approx([1.0, 1 / 1.5, 0.5])


def test_scaled_latencies_follow_their_stretch():
    nominal = pace.NOMINAL_S
    phase = {
        "pace_s": [nominal, nominal, 2 * nominal, 2 * nominal],
        "records": [{"latency_s": 0.01, "stretch": 0}, {"latency_s": 0.02, "stretch": 2}],
    }
    assert run.scaled_latencies(phase) == pytest.approx([0.01, 0.01])


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS
