import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools import invariance_sweep  # noqa: E402


def _digest(tmp_path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "outputs_digest.py"), "--seeds",
                           "1", "--cycles", "1", *args], capture_output=True, text=True,
                          cwd=tmp_path)


def _digest_lines(tmp_path) -> list:
    proc = _digest(tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout.splitlines()


def test_outputs_digest_repeats_on_one_tree(tmp_path):
    # cycle 0 of seed 1 is 65 requests: 5 scan tiles, 24 signature-workload requests,
    # 12 anomaly points and 24 fiber requests; each run writes its families to a new
    # directory, which the lines name as $DIR.  One line per demo script follows
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    first, second = _digest_lines(tmp_path), _digest_lines(tmp_path)
    assert first == second
    assert len(first) == 65 + len(demos) == 70
    assert [line.split("\t")[0] for line in first] == (
        ["scan"] * 5 + ["signature"] * 24 + ["anomaly"] * 12 + ["fiber"] * 24 + ["demo"] * 5)
    for line in first[:65]:
        workload, seed, cycle, argv, rc, out, err = line.split("\t")
        assert (seed, cycle, rc) == ("1", "0", "0") and len(out) == len(err) == 16
        assert "$DIR/" in argv or workload == "fiber"
    for line, name in zip(first[65:], demos):
        _, script, rc, out, err = line.split("\t")
        assert (script, rc) == (name, "0") and len(out) == len(err) == 16


#: a family cache that serves a renamed family on every hit, so only warm requests see it
_STALE_HIT = """\
    hits = _family_from_text.cache_info().hits
    family = _family_from_text(text)
    if _family_from_text.cache_info().hits > hits:
        family = __import__("dataclasses").replace(family, name=family.name + " (warm)")
    return family
"""


def test_outputs_digest_prints_cold_digests_and_refuses_a_warm_difference(tmp_path):
    # each request runs cold, with the family cache cleared, then warm: a checkout whose
    # warm requests print otherwise exits 1 and names them, and its lines are still the
    # cold digests, equal to this tree's
    root = tmp_path / "root"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(ROOT / "bench", root / "bench", ignore=ignore)
    curves = root / "src" / "uplane" / "curves.py"
    text = curves.read_text()
    assert text.count("    return _family_from_text(text)\n") == 1
    curves.write_text(text.replace("    return _family_from_text(text)\n", _STALE_HIT))
    proc = _digest(tmp_path, "--root", str(root))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines == _digest_lines(tmp_path)[:65]  # the copy has no demos
    # the 24 requests of the signature workload (classify, holonomy, signature) print the
    # family's name; scan and anomaly print CSV, and fiber reads no family
    assert proc.stderr.splitlines() == [
        "warm output differs from cold: " + " ".join(line.split("\t")[:4])
        for line in lines if line.startswith("signature\t")]


#: each curve scale's and route's refusals, by error type: ceilings that a better
#: classifier or contour may only lower.  A refusal is a typed error; only a different
#: answer at exit 0 is wrong
_REFUSED_AT_MOST = {
    ("1.0", "classify"): {"DegreeMismatch": 15, "NotSingular": 140, "EulerMismatch": 5},
    # the fiber rows accept Delta's rounding, so moves that classify refuses as
    # NotSingular reach the Euler route's cross-check and are refused there alike
    ("1.0", "signature"): {"DegreeMismatch": 15, "NonIntegerWinding": 30, "NotSingular": 110,
                           "EulerMismatch": 5},
    # Delta's expansion underflows on every move: products of the moved coefficients
    # fall below the normal range, and the terms they lose would merge or drop nodes
    ("1e-30", "classify"): {"ValueError": 480},
    ("1e-30", "signature"): {"ValueError": 480},
    # Delta's expansion overflows on every move: the coefficients reach 1e180
    ("1e+30", "classify"): {"ValueError": 480},
    ("1e+30", "signature"): {"ValueError": 480},
}


def test_invariance_sweep_gives_no_different_type_at_exit_0(capsys):
    # 480 moves u = a w + b, (g2, g3) -> (lam^4 g2, lam^6 g3) of the 6 fixtures per curve
    # scale: none classifies to other Kodaira types or signs otherwise.  Shifts |b| = 1e4
    # are left out: there the coalesced family reads four I1 for its two I2 at exit 0,
    # and whether the rounded moved coefficients still hold a double node is not settled
    assert invariance_sweep.main() == 0
    out, err = capsys.readouterr()
    assert err == ""
    counts = {}
    for line in out.splitlines():
        lam, route, result, count = line.split("\t")
        counts.setdefault((lam, route), {})[result] = int(count)
    assert sorted(counts) == sorted(_REFUSED_AT_MOST)
    for key, ceilings in _REFUSED_AT_MOST.items():
        results = counts[key]
        assert sum(results.values()) == 480 and "different" not in results
        refused = {r.removeprefix("refused "): n for r, n in results.items() if r != "same"}
        assert set(refused) <= set(ceilings)
        assert all(n <= ceilings[error] for error, n in refused.items())
    assert counts["1.0", "classify"]["same"] >= 320
    assert counts["1.0", "signature"]["same"] >= 320


def test_bench_pairs_verdicts_on_fixed_runs():
    # ten pairs of items/s (higher is better): the parent's quartiles are 101 and 103, so
    # its IQR is 2 and its spread 2 / 102
    from tools import bench_pairs

    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    assert bench_pairs.quartiles(parent) == (101.0, 102.0, 103.0)
    gained = [p + 3.0 for p in parent]  # every pair won, median +3 > IQR 2
    v = bench_pairs.verdict(parent, gained, "higher", 0.15, claimed=True)
    assert (v["won"], v["pairs"], v["verdict"]) == (10, 10, "pass")
    assert v["gain"] == 3.0 / 102.0 and v["spread"] == 2.0 / 102.0
    # 9 of 10 pairs still pass; 8 do not, nor does a gain within the parent's IQR
    nine = gained[:9] + [parent[9] - 1.0]
    assert bench_pairs.verdict(parent, nine, "higher", 0.15, claimed=True)["verdict"] == "pass"
    eight = gained[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert bench_pairs.verdict(parent, eight, "higher", 0.15, claimed=True)["verdict"] == "fail"
    small = [p + 1.5 for p in parent]
    assert bench_pairs.verdict(parent, small, "higher", 0.15, claimed=True)["verdict"] == "fail"
    # an unclaimed metric (lower is better): 10% worse passes a 15% bound, 20% does not,
    # and a parent spread past the bound leaves it unresolved
    ms = [10.0] * 10
    assert bench_pairs.verdict(ms, [11.0] * 10, "lower", 0.15, claimed=False)["verdict"] == "ok"
    v = bench_pairs.verdict(ms, [12.0] * 10, "lower", 0.15, claimed=False)
    assert (v["won"], v["gain"], v["verdict"]) == (0, -0.2, "fail")
    wide = [6.0, 6.0, 6.0, 10.0, 10.0, 10.0, 10.0, 14.0, 14.0, 14.0]
    v = bench_pairs.verdict(wide, [13.0] * 10, "lower", 0.25, claimed=False)
    assert v["spread"] == 0.6 and v["verdict"] == "unresolved"  # quartiles 7 and 13
