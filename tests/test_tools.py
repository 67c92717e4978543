import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
