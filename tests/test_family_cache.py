"""`load_family` shares one `CurveFamily` per file content for the whole process.

The family's memo (`CurveFamily.cached`) then outlives a request, so these tests
check that a warm request prints what a cold one does, that the key is the content
and not the path, that failures are never kept, and that the cache stays bounded.
"""

import contextlib
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from uplane import coalesced_family, family_to_dict, holonomy, kodaira, sample_family
from uplane.cli import main
from uplane.curves import _family_from_text, load_family
from uplane.errors import SchemaError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import workloads  # noqa: E402

BOUND = _family_from_text.cache_info().maxsize


def _write(path, family) -> str:
    path.write_text(json.dumps(family_to_dict(family)))
    return str(path)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cycle0_argvs(tmp_path) -> list:
    """The argvs of cycle 0 of each benchmark stream at seed 1, its families in tmp_path."""
    families = workloads.fixture_families()
    paths = {}
    for name, fam in families.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(fam, fh)
    return [req["argv"] for workload in workloads.WORKLOADS
            for req in workloads.Stream(workload, 1, families, paths).cycle(0)]


def test_warm_requests_print_what_cold_ones_do(tmp_path):
    # cycle 0 of each benchmark stream, then requests that fail on a loaded family
    # (exit 1: a stencil point on nf0's node, a loop that shrinks onto it) and on the
    # input (exit 2: a collapsed step, a family file the loader refuses)
    argvs = _cycle0_argvs(tmp_path)
    bad = dict(workloads.fixture_families()["nf0"],
               g2=[[-1.0, False], [False, 0.0], [4.0 / 3.0, 0.0]])
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    nf0 = str(tmp_path / "nf0.json")
    argvs += [["anomaly", "--family", nf0, "--at", "1,0"],
              ["holonomy", "--family", nf0, "--center", "1,0", "--radius", "1e-12",
               "--operator", "dbar", "--orientation", "ccw"],
              ["anomaly", "--family", nf0, "--at", "0.3,0.7", "--step", "1e-17"],
              ["classify", "--family", str(tmp_path / "bad.json")]]
    cold = []
    for argv in argvs:
        _family_from_text.cache_clear()
        cold.append(_run(argv))
    assert {rc for rc, _, _ in cold} == {0, 1, 2}
    for _ in range(2):  # the first pass warms the cache as it goes; the second is all warm
        assert [_run(argv) for argv in argvs] == cold


def test_warm_requests_find_no_roots_and_integrate_only_their_own_loop(tmp_path, monkeypatch):
    # the premise of the simple per-loop integrator and the direct np.roots call: once
    # cycle 0 of each benchmark stream has run, every family is warm, so the node roots
    # and the fiber windings are never built again.  A holonomy request integrates its
    # one loop and every other request integrates none
    argvs = _cycle0_argvs(tmp_path)
    for argv in argvs:
        assert _run(argv)[0] == 0
    counts = {"roots": 0, "loops": 0}
    find, integrate = kodaira.find_singular_fibers, holonomy._ccw_winding

    def counted_find(fam):
        counts["roots"] += 1
        return find(fam)

    def counted_integrate(fam, loop):
        counts["loops"] += 1
        return integrate(fam, loop)

    for module in (kodaira, holonomy):
        monkeypatch.setattr(module, "find_singular_fibers", counted_find)
    monkeypatch.setattr(holonomy, "_ccw_winding", counted_integrate)
    loops = []
    for argv in argvs:
        before = counts["loops"]
        assert _run(argv)[0] == 0
        loops.append(counts["loops"] - before)
    assert counts["roots"] == 0
    assert loops == [int(argv[0] == "holonomy") for argv in argvs]
    assert "holonomy" in {argv[0] for argv in argvs} and 0 in loops


def test_a_rewritten_file_is_read_anew(tmp_path):
    path = tmp_path / "fam.json"
    first = load_family(_write(path, sample_family(0)))
    second = load_family(_write(path, sample_family(3)))
    assert (first.nf, second.nf) == (0, 3)
    assert load_family(str(path)) is second


def test_equal_contents_share_one_family(tmp_path):
    a = _write(tmp_path / "a.json", sample_family(2))
    b = _write(tmp_path / "b.json", sample_family(2))
    assert load_family(a) is load_family(b)
    assert _family_from_text.cache_info().currsize == 1


@pytest.mark.parametrize("text, message", [
    ('{"name": "x", "nf": 0,', "malformed JSON"),
    ('{"name": "x", "nf": 0, "g2": [[3.0, 0.0]]}', "missing required field 'g3'"),
    ('{"name": "x", "nf": 0, "g2": [[true, 0.0]], "g3": [[1.0, 0.0]]}', "number pairs"),
    ('{"name": "x", "nf": 0, "g2": [[1' + "0" * 5000 + ', 0.0]]}', "malformed JSON.*4300 digits"),
], ids=["json", "missing", "boolean", "digits"])
def test_a_refused_file_raises_on_every_call(tmp_path, text, message):
    path = tmp_path / "fam.json"
    path.write_text(text)
    for _ in range(3):
        with pytest.raises(SchemaError, match=message):
            load_family(str(path))
    assert _family_from_text.cache_info().currsize == 0


def test_the_cache_is_bounded(tmp_path):
    path = tmp_path / "fam.json"
    for k in range(BOUND + 1):  # BOUND + 1 distinct contents: the names differ
        path.write_text(json.dumps(dict(family_to_dict(sample_family(k % 5)), name=f"f{k}")))
        load_family(str(path))
    assert _family_from_text.cache_info().currsize == BOUND


def test_a_warm_family_holds_only_hashable_values(tmp_path):
    # every command that reads a family file, so each memo entry is built; a hashable
    # value is immutable all the way down, so no request can change what the next reads
    path = _write(tmp_path / "nf2.json", coalesced_family())
    for argv in (["signature"], ["classify"], ["anomaly", "--at", "0.3,0.7"],
                 ["scan", "--grid", "0.2,0.4,0.2,0.4,2,2"],
                 ["holonomy", "--center", "0,0", "--radius", "0.5", "--operator", "dbar",
                  "--orientation", "ccw", "--chart", "v"]):
        assert _run(argv[:1] + ["--family", path] + argv[1:])[0] == 0
    memo = load_family(path).__dict__["_memo"]
    assert set(memo) == {"delta", "v_chart", "nodes", "j_numerator", "report", "fibers"}
    for value in memo.values():
        hash(value)


def test_threads_that_share_a_family_print_what_a_cold_request_does(tmp_path):
    # two threads may both build a memo entry on first use; the values are equal, so
    # every request, whichever thread's entry it read, prints the cold output
    path = _write(tmp_path / "nf3.json", sample_family(3))

    def request(k):
        out = tmp_path / f"out{k}.json"
        rc = main([("signature", "classify")[k % 2], "--family", path, "--out", str(out)])
        return rc, out.read_text()

    cold = [request(0), request(1)]
    _family_from_text.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(request, k) for k in range(2, 26)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == cold * 12
