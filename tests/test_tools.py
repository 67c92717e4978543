import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest_lines(tmp_path) -> list:
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs_digest.py"), "--seeds",
                          "1", "--cycles", "1"], capture_output=True, text=True, check=True,
                         cwd=tmp_path)
    return out.stdout.splitlines()


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
